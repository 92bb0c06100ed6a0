"""The codec's compact frames: intra-batch delta encoding and compressed
bulk transfers.

A runtime with ``codec_enabled=True`` sends every batch as a delta frame
and every bulk gossip or shard-plane payload as a zlib frame.  Writes
``BENCH_compression.json`` at the repository root.  Three legs (the codec's 1-peer latency against JSON is measured
in ``test_dataplane_throughput.py``):

- **Delta batches** -- a telemetry stream's batches encoded by
  ``WireEncoder.encode_batch_delta`` (first envelope full, the rest as
  header deltas against their predecessor) versus
  ``WireEncoder.encode_batch``, each riding its own persistent symbol
  table.  Gate: delta wire bytes <= 0.8x plain for multi-envelope
  batches.
- **Compressed full-state** -- a 25k-translator directory full-state
  announcement through ``encode_gossip(compress=True)`` (the zlib
  ``FRAME_GOSSIP_Z``) versus ``encode_gossip(compress=False)``.  Gates:
  compressed bytes <= 0.5x plain, and cold-ingest (decode + apply)
  <= 1.1x the uncompressed ingest, as the median of ``INGEST_ROUNDS``
  back-to-back pair ratios timed with the garbage collector off.
- **JSON default** -- a batched burst with the codec off sends no binary
  frame at all: no delta frame and no compressed frame.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from dataclasses import replace
from pathlib import Path

from repro.calibration import DEFAULT
from repro.core.codec import WireDecoder, WireEncoder, decode_gossip, encode_gossip
from repro.core.messages import UMessage
from repro.core.profile import TranslatorProfile
from repro.core.qos import QosPolicy
from repro.core.shapes import Direction, PortSpec, Shape
from repro.core.translator import Translator
from repro.core.runtime import UMiddleRuntime
from repro.testbed import build_testbed

OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_compression.json"

FAST_LAN = DEFAULT.with_overrides(
    network=replace(DEFAULT.network, ethernet_bandwidth_bps=1_000_000_000.0)
)

BATCHES = 8
ENVELOPES_PER_BATCH = 16


def message_envelope(seq: int) -> dict:
    """One data-plane message envelope as the transport builds it: the
    stream/origin/dst/mime header repeats verbatim across a batch while
    only ``seq`` and the payload vary -- the delta frame's sweet spot."""
    return {
        "kind": "message",
        "origin": "rt-h0",
        "stream": "rt-h0/feed:data-out->rt-p0/display-0:data-in",
        "seq": seq,
        "src": "rt-h0/feed:data-out",
        "dst": "rt-p0/display-0:data-in",
        "mime": "text/plain",
        "source": "rt-h0/feed:data-out",
        "headers": {},
        "payload": {
            "kind": "sensor-reading",
            "sensor": "temperature",
            "site": "building-7/floor-3/room-12",
            "unit": "celsius",
            "value": seq % 40,
            "seq": seq,
        },
        "size": 160,
    }


def bench_delta_batches() -> dict:
    """``encode_batch`` vs ``encode_batch_delta`` over one telemetry
    stream's burst, with a persistent (interning) encoder per variant."""
    plain_enc, delta_enc = WireEncoder(), WireEncoder()
    delta_dec = WireDecoder()
    plain_bytes = delta_bytes = 0
    seq = 0
    for _batch in range(BATCHES):
        envelopes = [
            message_envelope(seq + i) for i in range(ENVELOPES_PER_BATCH)
        ]
        seq += ENVELOPES_PER_BATCH
        plain_bytes += plain_enc.encode_batch(envelopes).wire_size
        frame = delta_enc.encode_batch_delta(envelopes)
        delta_bytes += frame.wire_size
        decoded = delta_dec.decode_frame(frame)
        assert decoded["kind"] == "batch"
        assert decoded["envelopes"] == envelopes  # lossless round-trip
    return {
        "batches": BATCHES,
        "envelopes_per_batch": ENVELOPES_PER_BATCH,
        "plain_wire_bytes": plain_bytes,
        "delta_wire_bytes": delta_bytes,
        "delta_ratio": round(delta_bytes / plain_bytes, 3),
    }


FULL_STATE_TRANSLATORS = 25_000
INGEST_ROUNDS = 9

PLATFORMS = ("upnp", "jini", "bluetooth", "motes", "webservices")
ROLES = ("display", "sensor", "printer", "player", "storage")
MIMES = ("text/plain", "image/jpeg", "audio/wav", "video/mpeg")


def make_profile(index: int, runtime_id: str) -> TranslatorProfile:
    shape = Shape(
        [
            PortSpec.digital("in", Direction.IN, MIMES[index % len(MIMES)]),
            PortSpec.digital(
                "out", Direction.OUT, MIMES[(index + 1) % len(MIMES)]
            ),
        ]
    )
    return TranslatorProfile(
        translator_id=f"t-{index:06d}",
        name=f"svc-{index:06d}",
        platform=PLATFORMS[index % len(PLATFORMS)],
        device_type=f"type-{index % 1250}",
        role=ROLES[index % len(ROLES)],
        runtime_id=runtime_id,
        shape=shape,
    )


def offline_runtime(bed, host: str, **kwargs) -> UMiddleRuntime:
    node = bed.add_host(host)
    return UMiddleRuntime(
        node, name=f"bench-{host}", auto_start=False, journal_enabled=False,
        **kwargs,
    )


def ingest_seconds(frame, bed, host: str) -> float:
    """Cold-ingest one full-state frame: decode plus flat apply."""
    receiver = offline_runtime(bed, host)
    # A full collection of the suite's heap takes up to ~1 s: collect
    # first and keep the collector out of the timed region, so neither
    # variant is charged for garbage that earlier work left behind.
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        payload = decode_gossip(frame)
        receiver.directory._apply_announcement(payload)
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    assert len(receiver.directory.profiles()) == FULL_STATE_TRANSLATORS
    return elapsed


def bench_full_state() -> dict:
    """A 25k-translator full-state pull: ``encode_gossip(compress=False)``
    versus ``compress=True``, bytes and cold-ingest wall clock."""
    bed = build_testbed(hosts=[])
    sender = offline_runtime(bed, "full-state-src")
    for index in range(FULL_STATE_TRANSLATORS):
        sender.directory._store_entry(
            make_profile(index, sender.runtime_id),
            local=True,
            now=sender.kernel.now,
        )
    payload = sender.directory._announcement(
        sender.directory._local_profiles(), [], True, False
    )
    plain = encode_gossip(payload, compress=False)
    packed = encode_gossip(payload, compress=True)
    assert decode_gossip(packed) == decode_gossip(plain)

    # Back-to-back pairs, alternating which variant goes first; the gate
    # reads the median of the per-pair ratios, which cancels host-speed
    # drift slower than one pair.
    pairs = []
    for index in range(INGEST_ROUNDS):
        order = [(plain, "plain"), (packed, "z")]
        walls = {
            name: ingest_seconds(frame, bed, f"ingest-{name}-{index}")
            for frame, name in (order if index % 2 == 0 else order[::-1])
        }
        pairs.append((walls["plain"], walls["z"]))
    return {
        "translators": FULL_STATE_TRANSLATORS,
        "plain_wire_bytes": plain.wire_size,
        "compressed_wire_bytes": packed.wire_size,
        "compressed_ratio": round(packed.wire_size / plain.wire_size, 3),
        "ingest_rounds": INGEST_ROUNDS,
        "plain_ingest_ms": round(statistics.median(p for p, _ in pairs) * 1e3, 3),
        "compressed_ingest_ms": round(
            statistics.median(z for _, z in pairs) * 1e3, 3
        ),
        "ingest_latency_ratio": round(
            statistics.median(z / p for p, z in pairs), 3
        ),
    }


def bench_json_default_burst() -> dict:
    """A batched burst with the codec off: batches flow, but no binary
    frame -- plain, delta or compressed -- ever appears."""
    bed = build_testbed(calibration=FAST_LAN, hosts=["h0", "p0"])
    bed.network.trace.enabled = False
    kwargs = dict(calibration=FAST_LAN, sharding_enabled=True)
    producer = bed.add_runtime("h0", **kwargs)
    consumer = bed.add_runtime("p0", **kwargs)
    source = Translator("feed", role="sensor")
    out = source.add_digital_output("data-out", "text/plain")
    producer.register_translator(source)
    received = []
    sink = Translator("display-0", role="display")
    sink.add_digital_input("data-in", "text/plain", received.append)
    consumer.register_translator(sink)
    bed.settle(2.0)
    producer.connect(
        out, sink.profile.port_ref("data-in"),
        qos=QosPolicy(buffer_capacity=512),
    )
    bed.settle(1.0)
    for index in range(200):
        out.send(UMessage("text/plain", f"m{index}", 120))
    bed.settle(10.0)
    assert len(received) == 200
    for runtime in (producer, consumer):
        assert runtime.transport.codec_frames_sent == 0
        assert runtime.transport.delta_batches_sent == 0
        assert runtime.directory.codec_frames_sent == 0
        assert runtime.shards.z_frames_sent == 0
        assert runtime.shards.z_bytes_saved == 0
    return {
        "messages": 200,
        "batches_sent": producer.transport.batches_sent,
        "codec_frames_sent": producer.transport.codec_frames_sent,
        "delta_batches_sent": producer.transport.delta_batches_sent,
        "z_frames_sent": producer.shards.z_frames_sent,
    }


def test_compression(compare):
    delta = bench_delta_batches()
    full_state = bench_full_state()
    json_default = bench_json_default_burst()

    results = {
        "benchmark": "compression",
        "schema": 2,
        "delta_batches": delta,
        "full_state": full_state,
        "json_default": json_default,
    }
    OUTPUT.write_text(json.dumps(results, indent=2) + "\n")

    compare(
        "Intra-batch delta encoding (8 batches x 16 envelopes)",
        ["variant", "wire bytes", "ratio"],
        [
            ["plain codec batch", delta["plain_wire_bytes"], "1.0"],
            ["delta batch", delta["delta_wire_bytes"],
             f"{delta['delta_ratio']}x"],
        ],
    )
    compare(
        "Full-state transfer at 25k translators",
        ["variant", "wire bytes", "ingest ms"],
        [
            ["plain codec", full_state["plain_wire_bytes"],
             full_state["plain_ingest_ms"]],
            ["zlib block", full_state["compressed_wire_bytes"],
             full_state["compressed_ingest_ms"]],
        ],
    )

    # Acceptance: delta batches cut multi-envelope batch wire bytes to
    # <= 0.8x the plain codec frame.
    assert delta["delta_ratio"] <= 0.8, delta
    # Acceptance: compressed full-state transfers move <= 0.5x the plain
    # bytes at 25k translators, without taxing cold ingest > 1.1x.
    assert full_state["compressed_ratio"] <= 0.5, full_state
    assert full_state["ingest_latency_ratio"] <= 1.1, full_state
    # Acceptance: the JSON default sends no binary frame (counters also
    # asserted inline, on both runtimes).
    assert json_default["codec_frames_sent"] == 0
    assert json_default["delta_batches_sent"] == 0
    assert json_default["z_frames_sent"] == 0
