"""Write-ahead journal: crash-consistent durability for uMiddle runtimes.

uMiddle intermediaries live "in the infrastructure" (design choice 4-b), so
a crashed intermediary must come back without losing the slice of the
semantic space it was hosting.  Before this module, ``crash()``/``restart()``
only worked because the Python objects happened to survive in memory.  This
module gives each runtime *simulated stable storage*: an append-only,
checksummed, monotonically-sequenced record log (an ARIES-style redo log)
that survives ``crash(lose_state=True)``, plus the replay machinery that
reconstructs directory state, standing queries, concrete paths, the unacked
per-peer spool, and breaker snapshots purely from the log.

Record format
-------------

One record per line::

    <crc32 hex, 8 chars> <canonical JSON: {"data": ..., "kind": ..., "lsn": n}>\\n

- ``lsn`` is a per-journal monotonic sequence number; a gap or regression
  during replay stops the scan (a torn or reordered tail is never applied).
- The CRC-32 covers the JSON body; a mismatch (bit flip) also stops the
  scan.  Replay therefore always recovers the *last checksum-consistent
  prefix* -- anything after the first bad record is discarded and must be
  re-learned through the normal gossip pull.

Group commit
------------

Appends go to an in-memory *pending* buffer; ``fsync_interval`` seconds
later (simulated time) the buffer is flushed to the durable blob in one
write.  ``fsync_interval=0`` (the default) flushes synchronously on every
append.  A crash drops whatever is still pending -- exactly the durability
window the interval buys in exchange for fewer (simulated and wall-clock)
flushes, which the durability benchmark measures.

Checkpoints
-----------

The journal keeps a live *mirror* of what replay would produce (every
appended record is folded into it immediately).  Compaction is sized in
bytes, the usual rewrite rule for log-structured stores: once the bytes
appended since the last checkpoint reach that checkpoint's own size, or
``Journal.CHECKPOINT_MIN_BYTES`` if that is larger -- and at the end of
every cold recovery -- the blob is rewritten as a single ``checkpoint``
record serialized from the mirror and the LSN chain restarts at 1.  A
checkpoint therefore costs no more than the appends that paid for it,
and the blob stays under about twice (checkpoint + floor), whatever the
uptime or the backlog.

The unacked spool, the part of the mirror that grows with the backlog,
is encoded once.  Each spool entry's canonical JSON is kept beside the
mirror from the append that wrote it until it is acked, dropped or
flushed, and a checkpoint joins those bytes (:func:`assemble_checkpoint`)
instead of re-encoding every envelope; entries without a kept encoding
(after :meth:`Journal.replay`, a lost group-commit window, or a caller
pruning the mirror) are encoded at that point.  The assembled record is
byte-identical to encoding the whole mirror at once.  The binary journal
interns strings per record, so its checkpoints are still encoded whole.

The mirror is also the repair source when :meth:`Journal.sync` finds the
durable tail corrupted underneath a live runtime: instead of appending
after the damage (which would strand every later record past the first
bad frame), it rewrites the blob from the mirror, so nothing that was
ever appended is lost.  The repair never copies bytes out of the damaged
blob.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.codec import (
    CodecError,
    canonical_json,
    decode_journal_body,
    encode_journal_body,
    encoded_size,
    is_binary_journal_body,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import UMiddleRuntime
    from repro.simnet.net import Network

__all__ = [
    "DurableMedia",
    "Journal",
    "RecoveredState",
    "assemble_checkpoint",
    "durable_media",
    "encode_record",
    "encode_spool_entry",
    "replay_blob",
]


class DurableMedia:
    """Simulated stable storage: one append-only blob per ``runtime_id``.

    The media object lives on the :class:`~repro.simnet.net.Network` (one
    "disk array" per simulation), so it survives any runtime's
    ``crash(lose_state=True)`` while still being isolated between
    simulations -- a fresh testbed starts with empty disks.
    """

    def __init__(self):
        self._blobs: Dict[str, bytearray] = {}

    def blob(self, runtime_id: str) -> bytearray:
        return self._blobs.setdefault(runtime_id, bytearray())

    def size(self, runtime_id: str) -> int:
        return len(self._blobs.get(runtime_id, b""))

    def erase(self, runtime_id: str) -> None:
        self._blobs.pop(runtime_id, None)

    # -- corruption hooks (chaos's JournalCorruption fault) -----------------

    def truncate_tail(self, runtime_id: str, nbytes: int) -> int:
        """Chop ``nbytes`` off the end of the blob (a torn tail write).

        Returns the number of bytes actually removed.
        """
        blob = self.blob(runtime_id)
        removed = min(max(nbytes, 0), len(blob))
        if removed:
            del blob[len(blob) - removed :]
        return removed

    def flip_tail_byte(self, runtime_id: str, offset_from_end: int = 4) -> bool:
        """XOR one byte near the end of the blob (tail-record bit rot).

        Returns False when the blob is too short to corrupt.
        """
        blob = self.blob(runtime_id)
        if not blob:
            return False
        index = len(blob) - 1 - min(max(offset_from_end, 0), len(blob) - 1)
        blob[index] ^= 0x5A
        return True


def durable_media(network: "Network") -> DurableMedia:
    """The network's stable-storage array, created on first use."""
    media = getattr(network, "_durable_media", None)
    if media is None:
        media = DurableMedia()
        network._durable_media = media
    return media


def encode_record(lsn: int, kind: str, data: dict, binary: bool = False) -> bytes:
    """One checksummed, line-framed journal record.

    With ``binary=True`` the body is the escaped binary codec encoding
    (magic byte ``0xB2``, see :mod:`repro.core.codec`) instead of
    canonical JSON; the line framing and CRC are identical either way,
    and mixed blobs replay fine -- each body declares its own format in
    its first byte.
    """
    record = {"data": data, "kind": kind, "lsn": lsn}
    if binary:
        body = encode_journal_body(record)
    else:
        body = canonical_json(record)
    return _frame([body])


def _frame(parts: List[bytes]) -> bytes:
    """Line-frame a record body, given in parts, behind its CRC-32 (one
    copy of the body, however many parts it arrives in)."""
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join([b"%08x " % crc, *parts, b"\n"])


def encode_spool_entry(envelope: dict, size: int) -> bytes:
    """Encode step: the canonical JSON of one ``[envelope, size]`` spool
    entry, the unit that ``spool-batch`` records and a checkpoint's
    ``spool`` section are joined from.  Raises :class:`TypeError` for an
    envelope JSON cannot represent."""
    return canonical_json([envelope, size])


def assemble_checkpoint(data: dict, spool: Dict[str, List[bytes]]) -> bytes:
    """Assemble step: the framed ``checkpoint`` record for ``data`` plus a
    ``spool`` section given as each peer's encoded entries.

    Byte-identical to ``encode_record(1, "checkpoint", data)`` with the
    spool in ``data``: canonical JSON has no whitespace and sorts object
    keys, so an object is its sorted ``"key":value`` pairs joined by
    commas, whatever produced each value's bytes."""
    fields = {key: [canonical_json(value)] for key, value in data.items()}
    fields["spool"] = _object_parts(
        {peer: [b"[", b",".join(entries), b"]"] for peer, entries in spool.items()}
    )
    return _frame(
        [b'{"data":', *_object_parts(fields), b',"kind":"checkpoint","lsn":1}']
    )


def _object_parts(fields: Dict[str, List[bytes]]) -> List[bytes]:
    """A canonical-JSON object, in parts, from values already encoded."""
    parts: List[bytes] = []
    for key in sorted(fields):
        parts += (b"," if parts else b"{", canonical_json(key), b":", *fields[key])
    return parts + [b"}"] if parts else [b"{}"]


def _decode_line(line: bytes) -> Optional[dict]:
    """Parse one framed record; None on any structural or checksum fault."""
    if len(line) < 10 or line[8:9] != b" ":
        return None
    body = line[9:]
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        return None
    if is_binary_journal_body(body):
        try:
            record = decode_journal_body(body)
        except CodecError:
            return None
    else:
        try:
            record = json.loads(body)
        except ValueError:
            return None
    if not isinstance(record, dict) or "lsn" not in record or "kind" not in record:
        return None
    return record


def replay_blob(blob: bytes) -> Tuple[List[dict], int, int]:
    """Scan a journal blob to its last checksum-consistent prefix.

    Returns ``(records, clean_bytes, discarded_bytes)``.  The scan stops at
    the first record that is torn (no trailing newline), fails its CRC,
    does not parse, or breaks LSN monotonicity; everything after that point
    counts as discarded.
    """
    records: List[dict] = []
    offset = 0
    last_lsn = 0
    view = bytes(blob)
    while offset < len(view):
        end = view.find(b"\n", offset)
        if end < 0:
            break  # torn tail: partial record without its newline
        record = _decode_line(view[offset:end])
        if record is None:
            break
        lsn = record["lsn"]
        if not isinstance(lsn, int) or lsn != last_lsn + 1:
            break
        last_lsn = lsn
        records.append(record)
        offset = end + 1
    return records, offset, len(view) - offset


@dataclass
class RecoveredState:
    """Everything :meth:`Journal.replay` reconstructs from the log."""

    #: translator_id -> profile wire dict, in registration order, with the
    #: latest journaled health applied.
    registered: Dict[str, dict] = field(default_factory=dict)
    #: binding_id -> {"port", "query", "failover"} for open standing queries.
    bindings: Dict[str, dict] = field(default_factory=dict)
    #: path_id -> {"src", "dst", "qos"} for open application paths.
    paths: Dict[str, dict] = field(default_factory=dict)
    #: peer runtime_id -> ordered unacked (envelope, size) spool entries.
    spool: Dict[str, List[Tuple[dict, int]]] = field(default_factory=dict)
    #: sender-side stream key -> highest sequence number ever assigned or
    #: reserved (``seq-reserve`` records keep this ahead of anything that
    #: could have reached a receiver, even when the spool records for the
    #: group-commit window died with the crash).
    stream_seqs: Dict[str, int] = field(default_factory=dict)
    #: peer runtime_id -> last breaker snapshot ({"state", "times_opened"}).
    breakers: Dict[str, dict] = field(default_factory=dict)
    #: translator_id -> {"profile": wire dict, "shards": [shard ids]} for
    #: profiles stored on this node's owned shards (sharded directory).
    shard_entries: Dict[str, dict] = field(default_factory=dict)
    #: shard ids this node owned at its last ownership transition.
    shard_owned: List[int] = field(default_factory=list)
    #: this node's monotonic ownership epoch (quorum-gated bumps,
    #: replication only).
    shard_epoch: int = 0
    #: str(shard) -> {"epoch", "entries": {translator_id: profile dict}}
    #: for the passive replica slices this node holds for its peers.
    replica_slices: Dict[str, dict] = field(default_factory=dict)
    #: saga_id -> folded saga progress (see ``_apply``'s saga-* kinds):
    #: the coordinator-side state machine for every saga that has begun
    #: but not yet journaled its ``saga-end``.
    sagas: Dict[str, dict] = field(default_factory=dict)
    #: participant-side reply cache: "origin|saga|step|leg" -> {"seq"} for
    #: every saga invocation this runtime durably applied, so a re-driven
    #: step after recovery re-replies instead of re-applying.
    saga_applied: Dict[str, dict] = field(default_factory=dict)
    applied_records: int = 0
    discarded_bytes: int = 0

    @property
    def truncated(self) -> bool:
        return self.discarded_bytes > 0


class Journal:
    """One runtime's write-ahead log on the simulated durable media.

    Redo-only: the runtime appends a record *before* applying each durable
    state change (registration, standing query, application path, spool
    envelope, ack, breaker trip/close, health change, sequence
    reservation), and :meth:`replay` folds the record stream back into a
    :class:`RecoveredState`.  ``muted`` suppresses appends while the
    runtime is crashed or replaying -- recovery must never re-log what it
    reads.
    """

    #: Compaction floor: a checkpoint is due once the bytes appended since
    #: the last one reach that checkpoint's size or this floor, whichever
    #: is larger (the floor is about 2048 records of a typical size).
    CHECKPOINT_MIN_BYTES = 512 * 1024

    def __init__(
        self,
        runtime: "UMiddleRuntime",
        media: DurableMedia,
        enabled: bool = True,
        fsync_interval: float = 0.0,
        binary: bool = False,
    ):
        self.runtime = runtime
        self.media = media
        self.enabled = enabled
        self.fsync_interval = fsync_interval
        #: Encode new record bodies with the binary codec.  Purely a
        #: write-side choice: replay reads both formats, so flipping the
        #: flag across restarts (or recovering a JSON-era blob with the
        #: codec on) needs no migration.
        self.binary = binary
        #: True while the runtime is crashed or replaying: appends dropped.
        self.muted = False
        self._pending = bytearray()
        self._flush_scheduled = False
        # Continue the LSN chain of whatever already survives on disk, and
        # seed the mirror from it.
        records, clean, _junk = replay_blob(self.blob)
        self._lsn = records[-1]["lsn"] if records else 0
        #: Byte copy of the last durably-flushed frame, compared against
        #: the blob tail before every flush (see :meth:`sync`).
        self._tail_frame = self._last_frame(self.blob, clean)
        #: The most recent record appended to the pending buffer; becomes
        #: the new tail frame when the buffer flushes.
        self._pending_tail = b""
        self._mirror = RecoveredState(applied_records=len(records))
        for record in records:
            self._apply(self._mirror, record["kind"], record["data"])
        #: Size of the last checkpoint record, and the bytes appended since
        #: (whatever already survives on disk counts as appended).
        self._checkpoint_bytes = 0
        self._appended_bytes = clean
        #: id(spool entry) -> (entry, its :func:`encode_spool_entry` bytes)
        #: for the mirror's spool entries whose encoding the append kept
        #: (JSON journals only).  Holding the entry pins its id.
        self._encoded: Dict[int, Tuple[tuple, bytes]] = {}
        #: The open ``spool-batch`` record, not yet framed: the next
        #: :meth:`append_spool` for the same peer adds its entry here
        #: (encoded for a JSON journal, raw for the binary one).
        #: Framed into the pending buffer by any other append, by a flush
        #: and by :meth:`lose_pending`; dropped by checkpoints.
        self._fold: Optional[dict] = None
        self.records_appended = 0
        self.fsyncs = 0
        self.bytes_written = 0
        self.records_lost = 0
        self.checkpoints = 0
        self.tail_repairs = 0
        self.spool_folds = 0

    @property
    def blob(self) -> bytearray:
        return self.media.blob(self.runtime.runtime_id)

    @property
    def size_bytes(self) -> int:
        return len(self.blob)

    @property
    def pending_bytes(self) -> int:
        fold = self._fold
        return len(self._pending) + (fold["bytes"] if fold is not None else 0)

    # -- writing ------------------------------------------------------------

    def append(self, kind: str, data: dict) -> None:
        if not self.enabled or self.muted:
            return
        # Any interleaved record ends the foldable run: growing an earlier
        # spool-batch past e.g. a spool-flush would reorder replay.
        self._seal_fold()
        # Encode before committing the LSN: a non-serializable payload must
        # raise without leaving a gap in the sequence chain.
        lsn = self._lsn + 1
        self._commit(lsn, encode_record(lsn, kind, data, self.binary), kind, data)

    def append_spool_ack(self, peer: str, count: int) -> None:
        """``append("spool-ack", {"count": count, "peer": peer})``: one per
        acknowledged batch on every peer sender's hot path, so a JSON
        journal frames it from a template (byte-identical to
        :func:`encode_record`) instead of running the JSON encoder."""
        if self.binary:
            self.append("spool-ack", {"count": count, "peer": peer})
            return
        if not self.enabled or self.muted:
            return
        self._seal_fold()
        lsn = self._lsn + 1
        record = _frame([
            b'{"data":{"count":%d,"peer":' % count, canonical_json(peer),
            b'},"kind":"spool-ack","lsn":%d}' % lsn,
        ])
        self._commit(lsn, record, "spool-ack", {"count": count, "peer": peer})

    def _commit(self, lsn: int, record: bytes, kind: str, data: dict) -> None:
        """Take ``lsn`` for an encoded record: buffer it, fold it into the
        mirror and account its bytes."""
        self._lsn = lsn
        self._pending += record
        self._pending_tail = record
        self.records_appended += 1
        self._apply_to_mirror(kind, data)
        self._appended(len(record))

    def _appended(self, nbytes: int) -> None:
        """Account ``nbytes`` of new records: compact once they reach the
        last checkpoint's size (or the floor), else commit them."""
        self._appended_bytes += nbytes
        if self._appended_bytes >= max(
            self._checkpoint_bytes, self.CHECKPOINT_MIN_BYTES
        ):
            self.checkpoint()
        elif self.fsync_interval <= 0:
            self.sync()
        elif not self._flush_scheduled:
            self._flush_scheduled = True
            self.runtime.kernel.call_later(self.fsync_interval, self._flush_timer)

    def _keep(self, peer: str, envelope: dict, size: int, entry: bytes) -> None:
        """Fold one spool entry into the mirror, keeping its encoding."""
        kept = self._apply_spool_entry(self._mirror, peer, envelope, size)
        self._encoded[id(kept)] = (kept, entry)

    def _apply_to_mirror(self, kind: str, data: dict) -> None:
        """Apply a record to the mirror, releasing the kept encodings of
        the spool entries it removes."""
        leaving = ()
        if self._encoded and kind in ("spool-ack", "spool-drop", "spool-flush"):
            entries = self._mirror.spool.get(data["peer"]) or ()
            if kind == "spool-ack":
                leaving = entries[: max(int(data["count"]), 0)]
            elif kind == "spool-drop":
                leaving = entries[:1]
            else:
                leaving = entries
        self._apply(self._mirror, kind, data)
        for entry in leaving:
            self._encoded.pop(id(entry), None)

    def append_spool(self, peer: str, envelope: dict, size: int) -> None:
        """Write-ahead-log one spooled envelope, amortized.

        Consecutive spool appends for the same peer that are still sitting
        in the group-commit buffer fold into a single ``spool-batch``
        record (shared framing, one line on disk), so WAL bytes and record
        counts per message drop at high rates.  Each entry is encoded once,
        here; the record is framed when the fold ends, so a fold of N
        entries costs N entry encodes rather than N growing re-encodes.
        The entry rides the pending buffer like any other record, and with
        ``fsync_interval=0`` every batch record is flushed holding exactly
        one entry.  Raises :class:`TypeError` (before mutating any state)
        when the envelope is not representable, like :meth:`append`.
        """
        if not self.enabled or self.muted:
            return
        if self.binary:
            # Validate only: interned binary bodies cannot be joined, so a
            # binary fold is encoded whole when it is framed.
            entry, nbytes = None, encoded_size([envelope, size])
        else:
            entry = encode_spool_entry(envelope, size)
            nbytes = len(entry)
        fold = self._fold
        if fold is not None and fold["peer"] == peer:
            self.spool_folds += 1
        else:
            self._seal_fold()
            self._lsn += 1
            self.records_appended += 1
            fold = self._fold = {
                "peer": peer, "lsn": self._lsn, "entries": [], "bytes": 0,
            }
        fold["bytes"] += nbytes + 1
        if entry is None:
            fold["entries"].append([envelope, size])
            self._apply_spool_entry(self._mirror, peer, envelope, size)
        else:
            fold["entries"].append(entry)
            self._keep(peer, envelope, size, entry)
        self._appended(nbytes + 1)

    def _seal_fold(self) -> None:
        """Frame the open ``spool-batch`` into the pending buffer."""
        fold = self._fold
        if fold is None:
            return
        self._fold = None
        if self.binary:
            data = {"peer": fold["peer"], "entries": fold["entries"]}
            record = encode_record(fold["lsn"], "spool-batch", data, True)
        else:
            record = _frame([
                b'{"data":{"entries":[', b",".join(fold["entries"]),
                b'],"peer":', canonical_json(fold["peer"]),
                b'},"kind":"spool-batch","lsn":%d}' % fold["lsn"],
            ])
        # The fold accounted its entries as they arrived; charge the rest
        # of the record now, so compaction sees the bytes really written.
        self._appended_bytes += len(record) - fold["bytes"]
        self._pending += record
        self._pending_tail = record

    def sync(self) -> None:
        """Flush the pending buffer to stable storage (one group commit).

        The tail frame is verified before extending: corruption that lands
        while the runtime is alive (the ``JournalCorruption`` fault has no
        crashed precondition) would otherwise strand every later record
        behind the first bad frame.  Damage is repaired by rewriting the
        blob from the in-memory mirror, so nothing appended is lost."""
        self._seal_fold()
        if not self._pending:
            return
        blob = self.blob
        if not self._tail_consistent(blob):
            self.tail_repairs += 1
            self.runtime.trace(
                "journal.tail-repair",
                "durable tail corrupted under a live runtime; "
                "rewrote stable storage from the in-memory mirror",
            )
            self.checkpoint()
            return
        self._tail_frame = self._pending_tail
        blob.extend(self._pending)
        self.fsyncs += 1
        self.bytes_written += len(self._pending)
        self._pending.clear()

    @staticmethod
    def _last_frame(view, end: int) -> bytes:
        """The bytes of the last whole frame in ``view[:end]``."""
        if end <= 0:
            return b""
        start = view.rfind(b"\n", 0, end - 1) + 1
        return bytes(view[start:end])

    def _tail_consistent(self, blob: bytearray) -> bool:
        """Cheap memcmp check that the durable tail still ends with the
        frame we last flushed -- no per-flush CRC or JSON work."""
        tail = self._tail_frame
        if not tail:
            return len(blob) == 0
        return blob.endswith(tail)

    def checkpoint(self) -> None:
        """Compact: replace the whole blob with one ``checkpoint`` record
        serialized from the mirror (which already folds any pending
        records), restarting the LSN chain at 1.  Checkpoints are durable
        immediately -- they never sit in the group-commit buffer."""
        if not self.enabled or self.muted:
            return
        self._fold = None  # its entries are already in the mirror
        if self.binary:
            spool = {
                peer: [[envelope, size] for envelope, size in entries]
                for peer, entries in self._mirror.spool.items()
            }
            record = encode_record(1, "checkpoint", self._checkpoint_data(spool), True)
        else:
            record = assemble_checkpoint(
                self._checkpoint_data(), self._encoded_spool()
            )
        blob = self.blob
        del blob[:]
        blob.extend(record)
        self._pending.clear()  # effects already folded into the snapshot
        self._lsn = 1
        self._tail_frame = record
        self._checkpoint_bytes = len(record)
        self._appended_bytes = 0
        self.checkpoints += 1
        self.fsyncs += 1
        self.bytes_written += len(record)

    def _encoded_spool(self) -> Dict[str, List[bytes]]:
        """Each peer's spool entries, encoded: the kept bytes where the
        append left them, a fresh encode where it did not.  The kept set is
        rebuilt to hold exactly the mirror's entries, which also releases
        entries a caller pruned from the mirror."""
        kept, fresh, section = self._encoded, {}, {}
        for peer, entries in self._mirror.spool.items():
            encoded = section[peer] = []
            for entry in entries:
                hit = kept.get(id(entry))
                if hit is None or hit[0] is not entry:
                    hit = (entry, encode_spool_entry(*entry))
                fresh[id(entry)] = hit
                encoded.append(hit[1])
        self._encoded = fresh
        return section

    def _checkpoint_data(self, spool: Optional[dict] = None) -> dict:
        """The mirror as checkpoint data; the spool section only when
        given (a JSON checkpoint assembles it from the kept encodings)."""
        mirror = self._mirror
        data = {
            "registered": mirror.registered,
            "bindings": mirror.bindings,
            "paths": mirror.paths,
        }
        if spool is not None:
            data["spool"] = spool
        data["stream_seqs"] = mirror.stream_seqs
        data["breakers"] = mirror.breakers
        # Shard fields ride the checkpoint only when sharding ever wrote
        # them, so non-sharded checkpoints stay byte-identical.
        if mirror.shard_entries:
            data["shard_entries"] = mirror.shard_entries
        if mirror.shard_owned:
            data["shard_owned"] = mirror.shard_owned
        if mirror.shard_epoch:
            data["shard_epoch"] = mirror.shard_epoch
        if mirror.replica_slices:
            data["replica_slices"] = mirror.replica_slices
        # Same discipline for saga state: the fields appear only once
        # something wrote them.
        if mirror.sagas:
            data["sagas"] = mirror.sagas
        if mirror.saga_applied:
            data["saga_applied"] = mirror.saga_applied
        return data

    def _flush_timer(self) -> None:
        self._flush_scheduled = False
        self.sync()

    def lose_pending(self) -> None:
        """Crash semantics: un-fsynced group-commit records die with the
        process.  The LSN counter rolls back with them so the on-disk chain
        stays gapless, and the mirror is rebuilt from what is actually
        durable."""
        self._seal_fold()
        if self._pending:
            lost = self._pending.count(b"\n")
            self.records_lost += lost
            self._lsn -= lost
            self._pending.clear()
            self._pending_tail = b""
            records, _clean, _junk = replay_blob(self.blob)
            self._mirror = RecoveredState(applied_records=len(records))
            self._encoded = {}
            for record in records:
                self._apply(self._mirror, record["kind"], record["data"])

    # -- replay -------------------------------------------------------------

    def replay(self) -> RecoveredState:
        """Fold the durable record stream into a :class:`RecoveredState`.

        Stops at the last checksum-consistent prefix (see
        :func:`replay_blob`); a corrupted tail is physically truncated so
        post-recovery appends extend the consistent prefix, not the junk.
        """
        records, clean_bytes, discarded = replay_blob(self.blob)
        if discarded:
            self.media.truncate_tail(self.runtime.runtime_id, discarded)
            self._lsn = records[-1]["lsn"] if records else 0
        self._tail_frame = self._last_frame(self.blob, clean_bytes)
        state = RecoveredState(
            applied_records=len(records), discarded_bytes=discarded
        )
        for record in records:
            self._apply(state, record["kind"], record["data"])
        # The replayed state becomes the new mirror; the caller (cold
        # recovery) may prune it -- e.g. drop opaque spool markers it will
        # not respool -- before sealing it with a checkpoint.
        self._mirror = state
        self._encoded = {}
        return state

    @staticmethod
    def _apply(state: RecoveredState, kind: str, data: dict) -> None:
        if kind == "register":
            profile = data["profile"]
            state.registered[profile["translator_id"]] = dict(profile)
        elif kind == "unregister":
            state.registered.pop(data["translator_id"], None)
        elif kind == "health":
            entry = state.registered.get(data["translator_id"])
            if entry is not None:
                entry["health"] = data["health"]
        elif kind == "binding-open":
            state.bindings[data["binding_id"]] = data
        elif kind == "binding-close":
            state.bindings.pop(data["binding_id"], None)
        elif kind == "path-open":
            state.paths[data["path_id"]] = data
        elif kind == "path-close":
            state.paths.pop(data["path_id"], None)
        elif kind == "spool-batch":
            # One record covering a run of consecutive spool appends
            # (written by append_spool); entries stay FIFO.
            for envelope, size in data["entries"]:
                Journal._apply_spool_entry(state, data["peer"], envelope, size)
        elif kind == "spool-ack":
            entries = state.spool.get(data["peer"])
            if entries:
                # Per-peer delivery is FIFO: one record acks a whole batch
                # of ``count`` entries from the head.
                del entries[: max(int(data["count"]), 0)]
        elif kind == "spool-drop":
            entries = state.spool.get(data["peer"])
            if entries:
                entries.pop(0)  # capacity eviction also removes the oldest
        elif kind == "spool-flush":
            state.spool.pop(data["peer"], None)
        elif kind == "seq-reserve":
            # Durable before any envelope in its range can reach a peer,
            # so a recovered sender never re-stamps a sequence number the
            # receiver may already have seen (lost group-commit window or
            # truncated tail notwithstanding).
            stream = data["stream"]
            state.stream_seqs[stream] = max(
                state.stream_seqs.get(stream, 0), int(data["upto"])
            )
        elif kind == "shard-store":
            profile = data["profile"]
            state.shard_entries[profile["translator_id"]] = {
                "profile": dict(profile),
                "shards": list(data["shards"]),
            }
        elif kind == "shard-remove":
            state.shard_entries.pop(data["translator_id"], None)
        elif kind == "shard-drop":
            dropped = set(data["shards"])
            for translator_id in list(state.shard_entries):
                entry = state.shard_entries[translator_id]
                remaining = [s for s in entry["shards"] if s not in dropped]
                if remaining:
                    entry["shards"] = remaining
                else:
                    del state.shard_entries[translator_id]
        elif kind == "shard-own":
            state.shard_owned = list(data["owned"])
        elif kind == "shard-epoch":
            state.shard_epoch = int(data["epoch"])
        elif kind == "shard-replica":
            slice_ = state.replica_slices.setdefault(
                str(data["shard"]), {"epoch": 0, "entries": {}}
            )
            if data.get("full"):
                slice_["entries"] = {}
            for profile in data.get("profiles", ()):
                slice_["entries"][profile["translator_id"]] = dict(profile)
            for translator_id in data.get("removed", ()):
                slice_["entries"].pop(translator_id, None)
            slice_["epoch"] = max(
                int(slice_["epoch"]), int(data.get("epoch", 0))
            )
        elif kind == "shard-promote":
            # Warm-ingest promotion: the promoted profiles are already in
            # the journal as shard-replica slice content, so the record
            # only points at them (shard -> translator ids) instead of
            # re-serializing every profile.
            for shard_key, translator_ids in data["slices"].items():
                slice_ = state.replica_slices.get(str(shard_key))
                if not slice_:
                    continue
                for translator_id in translator_ids:
                    profile = slice_["entries"].get(translator_id)
                    if profile is None:
                        continue
                    entry = state.shard_entries.get(translator_id)
                    if entry is None:
                        state.shard_entries[translator_id] = {
                            "profile": dict(profile),
                            "shards": [int(shard_key)],
                        }
                    elif int(shard_key) not in entry["shards"]:
                        entry["shards"] = sorted(
                            set(entry["shards"]) | {int(shard_key)}
                        )
        elif kind == "shard-replica-drop":
            for shard in data["shards"]:
                state.replica_slices.pop(str(shard), None)
        elif kind == "shard-replica-origin":
            origin = data["origin"]
            for slice_ in state.replica_slices.values():
                slice_["entries"] = {
                    translator_id: profile
                    for translator_id, profile in slice_["entries"].items()
                    if profile.get("runtime_id") != origin
                }
        elif kind == "saga-begin":
            state.sagas[data["saga_id"]] = {
                "steps": [dict(step) for step in data["steps"]],
                "status": "running",
                "step": 0,
                "attempt": 0,
                "inflight": False,
                "targets": {},
                "applied": [],
                "compensated": [],
                "cancels": [],
            }
        elif kind == "saga-step-start":
            saga = state.sagas.get(data["saga_id"])
            if saga is not None:
                saga["step"] = data["step"]
                saga["attempt"] = data["attempt"]
                saga["inflight"] = True
                saga["targets"][str(data["step"])] = data["target"]
                rebound_from = data.get("rebound_from")
                if rebound_from:
                    # The previous target may have applied the step before
                    # going dark; a cancel undoes it if it did.
                    saga["cancels"].append(
                        {"step": data["step"], "target": rebound_from}
                    )
        elif kind == "saga-step-done":
            saga = state.sagas.get(data["saga_id"])
            if saga is not None:
                saga["inflight"] = False
                saga["attempt"] = 0
                if data["status"] == "applied":
                    saga["applied"].append(data["step"])
                    saga["step"] = data["step"] + 1
                else:  # compensated
                    saga["compensated"].append(data["step"])
        elif kind == "saga-compensate":
            saga = state.sagas.get(data["saga_id"])
            if saga is not None:
                saga["status"] = "compensating"
                if data.get("phase") == "begin":
                    saga["inflight"] = False
                    saga["attempt"] = 0
                    saga["cancels"].extend(
                        dict(entry) for entry in data.get("cancels", ())
                    )
                else:  # one compensation attempt for one step
                    saga["step"] = data["step"]
                    saga["attempt"] = data["attempt"]
                    saga["inflight"] = True
        elif kind == "saga-cancel-done":
            saga = state.sagas.get(data["saga_id"])
            if saga is not None:
                for index, entry in enumerate(saga["cancels"]):
                    if (
                        entry["step"] == data["step"]
                        and entry["target"] == data["target"]
                    ):
                        del saga["cancels"][index]
                        break
        elif kind == "saga-end":
            state.sagas.pop(data["saga_id"], None)
        elif kind == "saga-applied":
            state.saga_applied[data["key"]] = {"seq": data["seq"]}
        elif kind == "checkpoint":
            state.registered = {
                key: dict(value) for key, value in data["registered"].items()
            }
            state.bindings = dict(data["bindings"])
            state.paths = dict(data["paths"])
            state.spool = {
                peer: [(envelope, size) for envelope, size in entries]
                for peer, entries in data["spool"].items()
            }
            state.stream_seqs = {
                key: int(value) for key, value in data["stream_seqs"].items()
            }
            state.breakers = dict(data["breakers"])
            state.shard_entries = {
                key: {
                    "profile": dict(value["profile"]),
                    "shards": list(value["shards"]),
                }
                for key, value in data.get("shard_entries", {}).items()
            }
            state.shard_owned = list(data.get("shard_owned", ()))
            state.shard_epoch = int(data.get("shard_epoch", 0))
            state.replica_slices = {
                key: {
                    "epoch": int(value.get("epoch", 0)),
                    "entries": {
                        translator_id: dict(profile)
                        for translator_id, profile in value["entries"].items()
                    },
                }
                for key, value in data.get("replica_slices", {}).items()
            }
            state.sagas = {}
            for key, value in data.get("sagas", {}).items():
                saga = dict(value)
                saga["steps"] = [dict(step) for step in value["steps"]]
                saga["targets"] = dict(value["targets"])
                saga["applied"] = list(value["applied"])
                saga["compensated"] = list(value["compensated"])
                saga["cancels"] = [dict(entry) for entry in value["cancels"]]
                state.sagas[key] = saga
            state.saga_applied = {
                key: dict(value)
                for key, value in data.get("saga_applied", {}).items()
            }
        elif kind == "breaker":
            if data.get("state") == "closed":
                state.breakers.pop(data["peer"], None)
            else:
                state.breakers[data["peer"]] = data
        # Unknown kinds are ignored: forward-compatible replay.

    @staticmethod
    def _apply_spool_entry(
        state: RecoveredState, peer: str, envelope: dict, size: int
    ) -> tuple:
        entry = (envelope, size)
        state.spool.setdefault(peer, []).append(entry)
        stream = envelope.get("stream")
        seq = envelope.get("seq")
        if stream is not None and isinstance(seq, int):
            state.stream_seqs[stream] = max(state.stream_seqs.get(stream, 0), seq)
        return entry
