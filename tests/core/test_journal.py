"""Unit tests for the write-ahead journal: record framing, checksum and
torn-tail handling, group commit, and replay into RecoveredState."""


import pytest

from repro.core.journal import (
    DurableMedia,
    Journal,
    RecoveredState,
    durable_media,
    encode_record,
    replay_blob,
)
from repro.testbed import build_testbed


def records_of(blob):
    return replay_blob(blob)[0]


class TestRecordFraming:
    def test_roundtrip(self):
        line = encode_record(1, "register", {"x": 1})
        records, clean, junk = replay_blob(line)
        assert junk == 0
        assert clean == len(line)
        assert records == [{"lsn": 1, "kind": "register", "data": {"x": 1}}]

    def test_canonical_json_is_stable(self):
        a = encode_record(1, "k", {"b": 2, "a": 1})
        b = encode_record(1, "k", {"a": 1, "b": 2})
        assert a == b

    def test_bit_flip_stops_scan_at_prefix(self):
        blob = bytearray()
        for lsn in range(1, 4):
            blob += encode_record(lsn, "k", {"n": lsn})
        # Flip one byte inside the JSON body of the second record.
        first_len = len(encode_record(1, "k", {"n": 1}))
        blob[first_len + 12] ^= 0x01
        records, clean, junk = replay_blob(blob)
        assert [r["lsn"] for r in records] == [1]
        assert clean == first_len
        assert junk == len(blob) - first_len

    def test_torn_tail_without_newline_is_discarded(self):
        whole = encode_record(1, "k", {})
        torn = encode_record(2, "k", {})[:-5]  # partial write, no newline
        records, clean, junk = replay_blob(whole + torn)
        assert [r["lsn"] for r in records] == [1]
        assert clean == len(whole)
        assert junk == len(torn)

    def test_lsn_gap_stops_scan(self):
        blob = encode_record(1, "k", {}) + encode_record(3, "k", {})
        records, _clean, junk = replay_blob(blob)
        assert [r["lsn"] for r in records] == [1]
        assert junk > 0

    def test_garbage_blob_yields_nothing(self):
        records, clean, junk = replay_blob(b"not a journal at all\n")
        assert records == [] and clean == 0 and junk > 0


class TestDurableMedia:
    def test_blobs_keyed_and_isolated(self):
        media = DurableMedia()
        media.blob("a").extend(b"xyz")
        assert media.size("a") == 3
        assert media.size("b") == 0

    def test_truncate_tail_and_flip(self):
        media = DurableMedia()
        media.blob("a").extend(b"0123456789")
        assert media.truncate_tail("a", 4) == 4
        assert bytes(media.blob("a")) == b"012345"
        assert media.truncate_tail("a", 100) == 6
        assert media.flip_tail_byte("a") is False  # empty now
        media.blob("a").extend(b"ABCDEF")
        assert media.flip_tail_byte("a", offset_from_end=0) is True
        assert media.blob("a")[-1] == ord("F") ^ 0x5A

    def test_durable_media_is_per_network(self):
        bed1 = build_testbed(hosts=["h1"])
        bed2 = build_testbed(hosts=["h1"])
        m1 = durable_media(bed1.network)
        assert durable_media(bed1.network) is m1
        assert durable_media(bed2.network) is not m1


class TestJournal:
    def make_runtime(self, **kwargs):
        bed = build_testbed(hosts=["h1"])
        return bed, bed.add_runtime("h1", **kwargs)

    def test_synchronous_append_is_immediately_durable(self):
        bed, runtime = self.make_runtime()
        journal = runtime.journal
        before = journal.size_bytes
        journal.append("k", {"v": 1})
        assert journal.pending_bytes == 0
        assert journal.size_bytes > before
        assert journal.fsyncs >= 1

    def test_group_commit_buffers_until_interval(self):
        bed, runtime = self.make_runtime(fsync_interval=1.0)
        journal = runtime.journal
        durable_before = journal.size_bytes
        journal.append("k", {"v": 1})
        journal.append("k", {"v": 2})
        assert journal.pending_bytes > 0
        assert journal.size_bytes == durable_before
        bed.settle(1.5)
        assert journal.pending_bytes == 0
        assert journal.size_bytes > durable_before

    def test_crash_loses_pending_and_rolls_back_lsn(self):
        bed, runtime = self.make_runtime(fsync_interval=5.0)
        journal = runtime.journal
        journal.append("k", {"v": 1})
        journal.sync()
        journal.append("k", {"v": 2})
        journal.append("k", {"v": 3})
        journal.lose_pending()
        assert journal.records_lost == 2
        assert journal.pending_bytes == 0
        # The next append continues a gapless durable chain.
        journal.append("k", {"v": 4})
        journal.sync()
        lsns = [r["lsn"] for r in records_of(journal.blob)]
        assert lsns == [1, 2]

    def test_disabled_journal_writes_nothing(self):
        bed, runtime = self.make_runtime(journal_enabled=False)
        runtime.journal.append("k", {"v": 1})
        assert runtime.journal.size_bytes == 0
        assert runtime.journal.records_appended == 0

    def test_muted_journal_drops_appends(self):
        bed, runtime = self.make_runtime()
        journal = runtime.journal
        journal.muted = True
        before = journal.records_appended
        journal.append("k", {"v": 1})
        assert journal.records_appended == before

    def test_unserializable_payload_raises_without_lsn_gap(self):
        bed, runtime = self.make_runtime()
        journal = runtime.journal
        with pytest.raises(TypeError):
            journal.append("k", {"v": object()})
        journal.append("k", {"v": 1})
        journal.sync()
        assert [r["lsn"] for r in records_of(journal.blob)][-1] == journal._lsn

    def test_auto_checkpoint_bounds_blob_and_preserves_state(self):
        """Compaction is sized in bytes: a checkpoint is due once the bytes
        appended since the last one reach that checkpoint's size or the
        floor, so the blob never outgrows checkpoint + trigger."""
        bed, runtime = self.make_runtime()
        journal = runtime.journal
        floor = Journal.CHECKPOINT_MIN_BYTES
        sizes = []
        checkpoint = journal.checkpoint

        def recording_checkpoint():
            checkpoint()
            sizes.append(journal.size_bytes)

        journal.checkpoint = recording_checkpoint
        total = 0
        while len(sizes) < 3:
            journal.append(
                "register", {"profile": {"translator_id": f"t{total:06d}"}}
            )
            total += 1
            last = sizes[-1] if sizes else 0
            assert journal.size_bytes < last + max(last, floor) + 100
        records = records_of(journal.blob)
        # Compacted: one checkpoint plus the post-checkpoint tail, not
        # thousands of raw records.
        assert records[0]["kind"] == "checkpoint"
        assert journal.size_bytes - sizes[-1] < max(sizes[-1], floor)
        state = journal.replay()
        assert len(state.registered) == total

    def test_sync_repairs_corrupt_tail_under_live_runtime(self):
        """Corruption landing while the runtime is alive must not strand
        later appends behind the bad frame: sync() rewrites stable storage
        from the mirror instead of extending the junk."""
        bed, runtime = self.make_runtime(fsync_interval=5.0)
        journal = runtime.journal
        journal.append("register", {"profile": {"translator_id": "a"}})
        journal.sync()
        durable_media(bed.network).flip_tail_byte(
            runtime.runtime_id, offset_from_end=4
        )
        journal.append("register", {"profile": {"translator_id": "b"}})
        journal.sync()
        assert journal.tail_repairs == 1
        state = journal.replay()
        assert not state.truncated  # the repair already scrubbed the damage
        assert {"a", "b"} <= set(state.registered)

    def test_replay_truncates_corrupt_tail_physically(self):
        bed, runtime = self.make_runtime()
        journal = runtime.journal
        journal.append("k", {"v": 1})
        journal.append("k", {"v": 2})
        media = durable_media(bed.network)
        media.flip_tail_byte(runtime.runtime_id, offset_from_end=4)
        state = journal.replay()
        assert state.truncated
        assert state.discarded_bytes > 0
        # The blob now ends at the consistent prefix and new appends extend it.
        journal.append("k", {"v": 3})
        journal.sync()
        lsns = [r["lsn"] for r in records_of(journal.blob)]
        assert lsns == sorted(lsns) and len(lsns) == 2


class TestReplaySemantics:
    def apply(self, *steps):
        state = RecoveredState()
        for kind, data in steps:
            Journal._apply(state, kind, data)
        return state

    def test_register_unregister_and_health(self):
        profile = {"translator_id": "t1", "health": "healthy"}
        state = self.apply(
            ("register", {"profile": profile}),
            ("health", {"translator_id": "t1", "health": "degraded"}),
        )
        assert state.registered["t1"]["health"] == "degraded"
        state = self.apply(
            ("register", {"profile": profile}),
            ("unregister", {"translator_id": "t1"}),
        )
        assert state.registered == {}

    def test_spool_ack_alignment_is_fifo(self):
        e1 = {"kind": "message", "stream": "s", "seq": 1}
        e2 = {"kind": "message", "stream": "s", "seq": 2}
        state = self.apply(
            ("spool-batch", {"peer": "p", "entries": [[e1, 10]]}),
            ("spool-batch", {"peer": "p", "entries": [[e2, 20]]}),
            ("spool-ack", {"peer": "p", "count": 1}),
        )
        assert [env["seq"] for env, _size in state.spool["p"]] == [2]
        # Sequence counters remember the highest ever assigned, acked or not.
        assert state.stream_seqs["s"] == 2

    def test_spool_flush_and_breaker_records(self):
        e1 = {"kind": "message", "stream": "s", "seq": 1}
        state = self.apply(
            ("spool-batch", {"peer": "p", "entries": [[e1, 10]]}),
            ("spool-flush", {"peer": "p"}),
            ("breaker", {"peer": "p", "state": "open", "times_opened": 2}),
        )
        assert "p" not in state.spool
        assert state.breakers["p"]["times_opened"] == 2
        state = self.apply(
            ("breaker", {"peer": "p", "state": "open", "times_opened": 2}),
            ("breaker", {"peer": "p", "state": "closed"}),
        )
        assert state.breakers == {}

    def test_binding_and_path_lifecycle(self):
        state = self.apply(
            ("binding-open", {"binding_id": "b1", "port": "x", "query": {}}),
            ("path-open", {"path_id": "p1", "src": "a", "dst": "b", "qos": None}),
            ("binding-close", {"binding_id": "b1"}),
            ("path-close", {"path_id": "p1"}),
        )
        assert state.bindings == {} and state.paths == {}

    def test_seq_reserve_raises_stream_counters(self):
        state = self.apply(
            ("seq-reserve", {"stream": "s", "upto": 65}),
            (
                "spool-batch",
                {
                    "peer": "p",
                    "entries": [
                        [{"kind": "message", "stream": "s", "seq": 1}, 10]
                    ],
                },
            ),
        )
        # The durable reservation wins over the (lower) stamped sequence,
        # so a recovered sender resumes past the whole reserved range.
        assert state.stream_seqs["s"] == 65

    def test_checkpoint_record_replaces_state(self):
        envelope = {"kind": "message", "stream": "s", "seq": 3}
        state = self.apply(
            ("register", {"profile": {"translator_id": "old"}}),
            (
                "checkpoint",
                {
                    "registered": {"new": {"translator_id": "new"}},
                    "bindings": {"b1": {"binding_id": "b1"}},
                    "paths": {},
                    "spool": {"p": [[envelope, 7]]},
                    "stream_seqs": {"s": 67},
                    "breakers": {},
                },
            ),
        )
        assert set(state.registered) == {"new"}
        assert set(state.bindings) == {"b1"}
        assert state.spool["p"] == [(envelope, 7)]
        assert state.stream_seqs == {"s": 67}

    def test_unknown_kinds_are_ignored(self):
        state = self.apply(("future-kind", {"anything": True}))
        assert state.registered == {} and state.applied_records == 0

    @pytest.mark.parametrize("binary", [False, True])
    def test_legacy_shard_weight_state_replays_to_same_registrations(
        self, binary
    ):
        """A journal written while load-weighted shard placement existed,
        whose checkpoint stayed plain, holds ``shard-weights`` records and
        a checkpoint field for them; replay ignores both and rebuilds the
        same registrations.  (A deflated checkpoint body from those
        runtimes does not replay at all: DESIGN.md section 17.)"""
        weights = {"epoch": 2, "tiers": {"5": 1}}

        def blob(legacy):
            checkpoint = {
                "registered": {"t1": {"translator_id": "t1"}},
                "bindings": {},
                "paths": {},
                "spool": {},
                "stream_seqs": {},
                "breakers": {},
            }
            steps = [("checkpoint", checkpoint)]
            if legacy:
                checkpoint["shard_weights"] = weights
                steps.append(("shard-weights", weights))
            steps.append(("register", {"profile": {"translator_id": "t2"}}))
            return b"".join(
                encode_record(lsn, kind, data, binary)
                for lsn, (kind, data) in enumerate(steps, 1)
            )

        def replayed(data):
            records, _clean, discarded = replay_blob(data)
            assert discarded == 0
            return self.apply(*[(r["kind"], r["data"]) for r in records])

        legacy = replayed(blob(legacy=True))
        assert set(legacy.registered) == {"t1", "t2"}
        assert legacy.registered == replayed(blob(legacy=False)).registered


class TestAmortizedSpoolRecords:
    """`append_spool` folding and the batched replay kinds it produces."""

    def make_runtime(self, **kwargs):
        bed = build_testbed(hosts=["h1"])
        return bed, bed.add_runtime("h1", **kwargs)

    def envelope(self, seq):
        return {"kind": "message", "stream": "s", "seq": seq}

    def test_spool_batch_replays_every_entry_in_order(self):
        state = RecoveredState()
        Journal._apply(
            state,
            "spool-batch",
            {
                "peer": "p",
                "entries": [[self.envelope(1), 10], [self.envelope(2), 20]],
            },
        )
        assert [e["seq"] for e, _s in state.spool["p"]] == [1, 2]
        assert state.stream_seqs["s"] == 2

    def test_counted_ack_pops_fifo_prefix(self):
        state = RecoveredState()
        Journal._apply(
            state,
            "spool-batch",
            {"peer": "p", "entries": [[self.envelope(i), 10] for i in range(1, 5)]},
        )
        Journal._apply(state, "spool-ack", {"peer": "p", "count": 3})
        assert [e["seq"] for e, _s in state.spool["p"]] == [4]

    def test_legacy_uncounted_ack_still_pops_one(self):
        """A one-envelope ack carries ``count: 1`` and pops exactly one
        entry."""
        state = RecoveredState()
        Journal._apply(
            state, "spool-batch", {"peer": "p", "entries": [[self.envelope(1), 10]]}
        )
        Journal._apply(state, "spool-ack", {"peer": "p", "count": 1})
        assert state.spool.get("p", []) == []

    def test_synchronous_commit_never_folds(self):
        bed, runtime = self.make_runtime()
        journal = runtime.journal
        before = journal.records_appended
        journal.append_spool("p", self.envelope(1), 10)
        journal.append_spool("p", self.envelope(2), 10)
        assert journal.spool_folds == 0
        assert journal.records_appended == before + 2
        spooled = [
            r["data"]
            for r in records_of(journal.blob)
            if r["kind"] == "spool-batch"
        ]
        assert [len(d["entries"]) for d in spooled] == [1, 1]

    def test_group_commit_folds_same_peer_run_into_one_record(self):
        bed, runtime = self.make_runtime(fsync_interval=1.0)
        journal = runtime.journal
        before = journal.records_appended
        for seq in range(1, 6):
            journal.append_spool("p", self.envelope(seq), 10)
        assert journal.spool_folds == 4
        assert journal.records_appended == before + 1
        journal.sync()
        spooled = [
            r for r in records_of(journal.blob) if r["kind"] == "spool-batch"
        ]
        assert len(spooled) == 1
        assert [e[0]["seq"] for e in spooled[0]["data"]["entries"]] == [
            1, 2, 3, 4, 5,
        ]

    def test_interleaved_record_ends_the_fold(self):
        """Growing a spool-batch past e.g. a spool-flush would reorder
        replay; any other append must break the foldable run."""
        bed, runtime = self.make_runtime(fsync_interval=1.0)
        journal = runtime.journal
        journal.append_spool("p", self.envelope(1), 10)
        journal.append("spool-flush", {"peer": "p"})
        journal.append_spool("p", self.envelope(2), 10)
        journal.sync()
        records = records_of(journal.blob)
        kinds = [r["kind"] for r in records]
        assert kinds[-3:] == ["spool-batch", "spool-flush", "spool-batch"]
        # Replay order is flush-safe: only the post-flush entry survives.
        state = RecoveredState()
        for record in records:
            Journal._apply(state, record["kind"], record["data"])
        assert [e["seq"] for e, _s in state.spool["p"]] == [2]

    def test_fold_does_not_cross_peers(self):
        bed, runtime = self.make_runtime(fsync_interval=1.0)
        journal = runtime.journal
        journal.append_spool("p1", self.envelope(1), 10)
        journal.append_spool("p2", self.envelope(2), 10)
        journal.append_spool("p1", self.envelope(3), 10)
        assert journal.spool_folds == 0
        journal.sync()
        batches = [
            r["data"]
            for r in records_of(journal.blob)
            if r["kind"] == "spool-batch"
        ]
        assert [(d["peer"], len(d["entries"])) for d in batches] == [
            ("p1", 1), ("p2", 1), ("p1", 1),
        ]

    def test_sync_ends_the_fold(self):
        bed, runtime = self.make_runtime(fsync_interval=1.0)
        journal = runtime.journal
        journal.append_spool("p", self.envelope(1), 10)
        journal.sync()
        journal.append_spool("p", self.envelope(2), 10)
        assert journal.spool_folds == 0  # flushed records are immutable

    def test_unserializable_entry_raises_without_corrupting_the_fold(self):
        bed, runtime = self.make_runtime(fsync_interval=1.0)
        journal = runtime.journal
        journal.append_spool("p", self.envelope(1), 10)
        with pytest.raises(TypeError):
            journal.append_spool("p", {"kind": "message", "x": object()}, 10)
        journal.append_spool("p", self.envelope(2), 10)
        journal.sync()
        batches = [
            r["data"]
            for r in records_of(journal.blob)
            if r["kind"] == "spool-batch"
        ]
        assert [[e[0]["seq"] for e in d["entries"]] for d in batches] == [[1, 2]]

    def test_lose_pending_drops_the_folded_record(self):
        bed, runtime = self.make_runtime(fsync_interval=5.0)
        journal = runtime.journal
        journal.sync()
        durable = len(records_of(journal.blob))
        for seq in range(1, 4):
            journal.append_spool("p", self.envelope(seq), 10)
        journal.lose_pending()
        assert len(records_of(journal.blob)) == durable
        # The LSN chain continues gaplessly after the loss.
        journal.append_spool("p", self.envelope(9), 10)
        journal.sync()
        lsns = [r["lsn"] for r in records_of(journal.blob)]
        assert lsns == sorted(lsns) and len(set(lsns)) == len(lsns)


def message(seq, pad=40):
    return {
        "kind": "message",
        "payload": {"reading": seq, "note": "x" * pad},
        "stream": "s",
        "seq": seq,
    }


def mirror_checkpoint(journal):
    """The checkpoint record ``encode_record`` makes of the whole mirror."""
    spool = {
        peer: [[envelope, size] for envelope, size in entries]
        for peer, entries in journal._mirror.spool.items()
    }
    return encode_record(1, "checkpoint", journal._checkpoint_data(spool))


class TestCheckpointAssembly:
    """A JSON checkpoint joins the spool entries' kept encodings; the
    result must be byte-identical to encoding the whole mirror at once."""

    def make_journal(self, **kwargs):
        bed = build_testbed(hosts=["h1"])
        runtime = bed.add_runtime("h1", **kwargs)
        journal = runtime.journal
        seq = 0
        for peer in ("p3", "p1", "p2"):  # not sorted: the section sorts them
            for _ in range(5):
                seq += 1
                journal.append_spool(peer, message(seq), 60)
        journal.append("register", {"profile": {"translator_id": "t1"}})
        return bed, runtime, journal

    def assert_identical(self, journal):
        expected = mirror_checkpoint(journal)
        journal.checkpoint()
        assert bytes(journal.blob) == expected
        # The kept encodings are exactly the mirror's spool, no more.
        assert len(journal._encoded) == sum(
            len(entries) for entries in journal._mirror.spool.values()
        )

    def test_spool_records_match_encode_record(self):
        bed, runtime, journal = self.make_journal(fsync_interval=5.0)
        single = {"peer": "p1", "entries": [[message(99), 7]]}
        journal.sync()
        start = journal.size_bytes
        journal.append_spool("p1", message(99), 7)
        journal.append_spool("p2", message(100), 8)
        journal.append_spool("p2", message(101), 9)
        journal.sync()
        lsn = journal._lsn
        batch = {"peer": "p2", "entries": [[message(100), 8], [message(101), 9]]}
        assert bytes(journal.blob[start:]) == (
            encode_record(lsn - 1, "spool-batch", single)
            + encode_record(lsn, "spool-batch", batch)
        )

    def test_spool_ack_template_matches_encode_record(self):
        bed, runtime, journal = self.make_journal(fsync_interval=5.0)
        journal.sync()
        start = journal.size_bytes
        journal.append_spool_ack("p1", 2)
        journal.append_spool_ack('p"\u00e9', 1)  # escaped, non-ASCII peer
        journal.sync()
        lsn = journal._lsn
        assert bytes(journal.blob[start:]) == (
            encode_record(lsn - 1, "spool-ack", {"count": 2, "peer": "p1"})
            + encode_record(lsn, "spool-ack", {"count": 1, "peer": 'p"\u00e9'})
        )
        assert [e["seq"] for e, _s in journal._mirror.spool["p1"]] == [8, 9, 10]
        self.assert_identical(journal)

    def test_after_appends(self):
        bed, runtime, journal = self.make_journal()
        self.assert_identical(journal)

    def test_after_ack(self):
        bed, runtime, journal = self.make_journal()
        journal.append("spool-ack", {"peer": "p1", "count": 1})
        journal.append("spool-ack", {"peer": "p2", "count": 3})
        assert len(journal._encoded) == 15 - 4
        self.assert_identical(journal)

    def test_after_drop(self):
        bed, runtime, journal = self.make_journal()
        journal.append("spool-drop", {"peer": "p3"})
        assert len(journal._encoded) == 15 - 1
        self.assert_identical(journal)

    def test_after_flush(self):
        bed, runtime, journal = self.make_journal()
        journal.append("spool-flush", {"peer": "p2"})
        assert len(journal._encoded) == 10
        self.assert_identical(journal)

    def test_after_replay(self):
        bed, runtime, journal = self.make_journal()
        journal.checkpoint()
        journal.append("spool-ack", {"peer": "p1", "count": 1})
        journal.replay()
        assert journal._encoded == {}
        self.assert_identical(journal)

    def test_after_lose_pending(self):
        bed, runtime, journal = self.make_journal(fsync_interval=5.0)
        journal.sync()
        journal.append("spool-ack", {"peer": "p1", "count": 1})
        journal.append_spool("p1", message(50), 60)
        journal.lose_pending()
        self.assert_identical(journal)
        assert [e["seq"] for e, _s in journal._mirror.spool["p1"]] == [
            6, 7, 8, 9, 10,
        ]

    def test_after_tail_repair(self):
        bed, runtime, journal = self.make_journal(fsync_interval=5.0)
        journal.sync()
        durable_media(bed.network).flip_tail_byte(
            runtime.runtime_id, offset_from_end=4
        )
        journal.append("spool-ack", {"peer": "p3", "count": 2})
        journal.append_spool("p3", message(60), 60)
        expected = mirror_checkpoint(journal)
        journal.sync()
        assert journal.tail_repairs == 1
        assert bytes(journal.blob) == expected

    def test_after_pruned_mirror(self):
        """Recovery prunes the replayed mirror in place; entries the kept
        set does not know are encoded, and pruned ones are released."""
        bed, runtime, journal = self.make_journal()
        entries = journal._mirror.spool["p1"]
        entries[:] = [entries[0], (message(77, pad=3), 5), entries[2]]
        self.assert_identical(journal)

    def test_binary_journal_still_encodes_whole_checkpoints(self):
        bed, runtime, journal = self.make_journal(codec_enabled=True)
        assert journal._encoded == {}
        journal.checkpoint()
        state = journal.replay()
        assert sum(len(entries) for entries in state.spool.values()) == 15


class TestCompactionCost:
    """Checkpoint work is bounded by the work appended since the last one,
    whatever the depth of the unacked spool."""

    @staticmethod
    def run(depth):
        """Fill a spool ``depth`` deep, then append and ack one entry per
        step.  Returns checkpoint bytes per appended byte over the whole
        run, and over the windows after the backlog first turned over."""
        bed = build_testbed(hosts=["h1"])
        journal = bed.add_runtime("h1").journal
        floor = Journal.CHECKPOINT_MIN_BYTES
        sizes, written = [], [journal.bytes_written]
        checkpoint = journal.checkpoint

        def recording_checkpoint():
            checkpoint()
            sizes.append(journal.size_bytes)
            written.append(journal.bytes_written)

        journal.checkpoint = recording_checkpoint

        def step(seq):
            journal.append_spool("p", message(seq), 60)
            last = sizes[-1] if sizes else 0
            assert journal.size_bytes < last + max(last, floor) + 1024

        def ratio(first):
            checkpointed = sum(sizes[first:])
            appended = written[-1] - written[first] - checkpointed
            return checkpointed / appended

        for seq in range(depth):
            step(seq)
        turned = None
        seq = depth
        while turned is None or len(sizes) < turned + 3:
            step(seq)
            journal.append("spool-ack", {"peer": "p", "count": 1})
            seq += 1
            if turned is None and seq >= 2 * depth and sizes:
                turned = len(sizes)
        assert len(journal._mirror.spool["p"]) == depth
        return ratio(0), ratio(turned)

    @pytest.mark.parametrize("depth", [100, 1000, 10000])
    def test_checkpoint_bytes_stay_below_appended_bytes(self, depth):
        overall, steady = self.run(depth)
        # At most one checkpoint byte per appended byte once the backlog
        # is steady; while it fills, each checkpoint outgrows the last.
        assert steady <= 1.02, (depth, steady)
        assert overall <= 1.25, (depth, overall)



class TestFoldEncodesOnce:
    def test_folded_bytes_encoded_grow_linearly(self, monkeypatch):
        """Each folded entry is encoded once and the batch framed at flush,
        so N folded appends encode O(N) bytes, not O(N^2)."""
        import repro.core.journal as journal_module

        encoded = [0]
        real = journal_module.canonical_json

        def counting(value):
            out = real(value)
            encoded[0] += len(out)
            return out

        monkeypatch.setattr(journal_module, "canonical_json", counting)

        def bytes_for(count):
            bed = build_testbed(hosts=["h1"])
            journal = bed.add_runtime("h1", fsync_interval=1.0).journal
            journal.sync()
            encoded[0] = 0
            for seq in range(count):
                journal.append_spool("p", message(seq), 60)
            journal.sync()
            assert journal.spool_folds == count - 1
            return encoded[0]

        small, large = bytes_for(100), bytes_for(800)
        assert large <= 8 * small * 1.05
