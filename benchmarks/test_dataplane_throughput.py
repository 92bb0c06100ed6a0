"""Data-plane throughput of the batched + pipelined peer senders.

Writes ``BENCH_dataplane.json`` at the repository root.  A single source
fans one 1k-message burst out to 1, 8 and 64 peer runtimes over a fast
(1 Gbps) LAN, so the calibrated *host-side* costs -- per-segment TCP
processing, per-envelope marshal, per-frame round trips -- dominate
instead of the paper's 10 Mbps wire.  Each leg reports simulated
messages/s, wire bytes (the hub's ``bytes_transmitted`` counter),
batches, journal records and wall time.  ``sim_s`` runs from the first
send to the simulated instant of the last delivery, stamped in the
delivery callback, so it is not rounded up to a settle step.

A WAL leg re-runs the 8-peer and 1-peer fanouts under group commit; on
one peer, consecutive spool appends fold into growing ``spool-batch``
records.

The codec matrix re-runs the 64-peer fanout with *structured* payloads
-- dicts whose wire cost is their canonical-JSON length, the honest
model for telemetry-style traffic -- as JSON frames and as binary codec
frames (delta frames for every multi-envelope batch).  The burst is
dealt across ``CODEC_SOURCES`` output ports: one port's dispatch cost
(``transport_dispatch_s`` per message and path) is slower than a codec
sender drains delta frames, so a single source would time the producer
and leave the codec sender without a backlog to adapt to.  Its
``wire_bytes_vs_json`` divides the bytes the codec actually encoded by
the bytes modeled for JSON frames; the BENCH file says so in ``notes``.
Asserted: the codec delivers >= 1.5x messages/s over JSON and its
adaptive batching engaged.  A 1-peer run under seeded Poisson arrivals
measures per-message delivery latency (p50/p99, simulated clock) with
the codec off and on -- the codec must not tax the quiet path it was
not built for.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import replace
from pathlib import Path

from repro.calibration import DEFAULT
from repro.core.messages import UMessage
from repro.core.qos import QosPolicy
from repro.core.translator import Translator
from repro.testbed import build_testbed

MESSAGES = 1000
MESSAGE_BYTES = 120
PEER_COUNTS = (1, 8, 64)
#: Output ports feeding the codec matrix's burst (see the module notes).
CODEC_SOURCES = 2
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_dataplane.json"

#: The paper's 10 Mbps hub wire-binds the sender; a gigabit LAN exposes
#: the host-side costs that batching actually amortizes.
FAST_LAN = DEFAULT.with_overrides(
    network=replace(DEFAULT.network, ethernet_bandwidth_bps=1_000_000_000.0)
)


def structured_payload(index: int) -> dict:
    """A telemetry-style reading: repeated field names and enum-ish string
    values (the interning sweet spot), sized honestly by its JSON form."""
    return {
        "kind": "sensor-reading",
        "sensor": "temperature",
        "site": "building-7/floor-3/room-12",
        "unit": "celsius",
        "quality": "calibrated",
        "status": "nominal",
        "value": index % 40,
        "seq": index,
    }


def run_fanout(
    peers: int, structured: bool = False, sources: int = 1, **runtime_kwargs
) -> dict:
    """Deliver one burst to ``peers`` runtimes; measure simulated time to
    the last delivery.  With several ``sources`` the burst is dealt round
    robin across that many output ports, each bound to every peer."""
    hosts = ["h0"] + [f"p{i}" for i in range(peers)]
    bed = build_testbed(calibration=FAST_LAN, hosts=hosts)
    bed.network.trace.enabled = False  # measure the guarded fast path
    codec = bool(runtime_kwargs.get("codec_enabled"))
    producer = bed.add_runtime("h0", calibration=FAST_LAN, **runtime_kwargs)
    producer.transport.SPOOL_CAPACITY = MESSAGES + 64
    outs = []
    for index in range(sources):
        source = Translator("feed" if index == 0 else f"feed-{index}", role="sensor")
        outs.append(source.add_digital_output("data-out", "text/plain"))
        producer.register_translator(source)
    received = []
    last_delivery = [0.0]

    def deliver(message):
        received.append(message)
        last_delivery[0] = bed.kernel.now

    sinks = []
    for index in range(peers):
        runtime = bed.add_runtime(
            f"p{index}", calibration=FAST_LAN, codec_enabled=codec
        )
        sink = Translator(f"display-{index}", role="display")
        sink.add_digital_input("data-in", "text/plain", deliver)
        runtime.register_translator(sink)
        sinks.append(sink)
    bed.settle(2.0)
    qos = QosPolicy(buffer_capacity=MESSAGES + 64)
    for out in outs:
        for sink in sinks:
            producer.connect(out, sink.profile.port_ref("data-in"), qos=qos)
    bed.settle(1.0)

    expected = MESSAGES * peers
    bytes_before = bed.lan.bytes_transmitted
    start_sim = bed.kernel.now
    start_wall = time.perf_counter()
    for index in range(MESSAGES):
        out = outs[index % sources]
        if structured:
            # Size derives from the payload's canonical JSON form; the
            # binary codec re-encodes the same dict far smaller inline.
            out.send(UMessage("text/plain", structured_payload(index)))
        else:
            out.send(UMessage("text/plain", f"m{index}", MESSAGE_BYTES))
    stalled_steps = 0
    while len(received) < expected:
        before = len(received)
        bed.settle(0.05)
        if len(received) == before:
            stalled_steps += 1
            if stalled_steps >= 200:  # 10 simulated seconds of silence
                raise AssertionError(
                    f"stalled at {len(received)}/{expected} deliveries "
                    f"(peers={peers}, {runtime_kwargs})"
                )
        else:
            stalled_steps = 0
    wall_s = time.perf_counter() - start_wall
    sim_s = last_delivery[0] - start_sim
    return {
        "peers": peers,
        "messages": expected,
        "sim_s": sim_s,
        "wall_s": round(wall_s, 3),
        "msgs_per_sim_s": round(expected / sim_s, 1),
        "wire_bytes": bed.lan.bytes_transmitted - bytes_before,
        "batches_sent": producer.transport.batches_sent,
        "journal_records": producer.journal.records_appended,
        "spool_folds": producer.journal.spool_folds,
        "codec_frames_sent": producer.transport.codec_frames_sent,
        "codec_fallbacks": producer.transport.codec_fallbacks,
        "batch_adaptations": producer.transport.batch_adaptations,
    }


def bench_fanout_matrix() -> dict:
    return {str(peers): run_fanout(peers) for peers in PEER_COUNTS}


def bench_codec_matrix() -> dict:
    """64-peer fanout with structured payloads: JSON frames vs binary
    codec frames."""
    json_frames = run_fanout(64, structured=True, sources=CODEC_SOURCES)
    codec = run_fanout(
        64, structured=True, sources=CODEC_SOURCES, codec_enabled=True
    )
    return {
        "json": json_frames,
        "codec": codec,
        "speedup_vs_json": round(json_frames["sim_s"] / codec["sim_s"], 2),
        "wire_bytes_vs_json": round(
            codec["wire_bytes"] / json_frames["wire_bytes"], 3
        ),
    }


#: What each BENCH field compares, for readers of the JSON alone.
NOTES = {
    "wire_bytes_vs_json": (
        "codec.wire_bytes / json.wire_bytes. JSON frames are never "
        "serialized: each is charged a modeled size, the declared payload "
        "sizes plus fixed envelope and per-envelope batch header constants "
        "(Transport._send_batch). Codec frames are charged the bytes the "
        "codec actually encoded. The ratio compares a model with a "
        "measurement."
    ),
}

LATENCY_MESSAGES = 300
#: Mean gap of the Poisson arrivals: at about 1.7 ms per delivery, some
#: 8% of messages arrive while the previous one is still in flight.
LATENCY_MEAN_GAP_S = 0.02
LATENCY_SEED = 1


def percentile(samples, fraction: float) -> float:
    ranked = sorted(samples)
    index = min(len(ranked) - 1, int(round(fraction * (len(ranked) - 1))))
    return ranked[index]


def run_latency(codec: bool) -> dict:
    """1-peer low load: per-message delivery latency on the simulated
    clock, codec on or off, under the same seeded Poisson arrivals.
    Close arrivals queue behind each other and share batches, so p99 is
    a real tail."""
    bed = build_testbed(calibration=FAST_LAN, hosts=["h0", "p0"])
    bed.network.trace.enabled = False
    kwargs = dict(calibration=FAST_LAN, codec_enabled=codec)
    producer = bed.add_runtime("h0", **kwargs)
    consumer = bed.add_runtime("p0", **kwargs)
    source = Translator("feed", role="sensor")
    out = source.add_digital_output("data-out", "text/plain")
    producer.register_translator(source)
    delivered_at = {}
    sink = Translator("display-0", role="display")
    sink.add_digital_input(
        "data-in",
        "text/plain",
        lambda m: delivered_at.setdefault(m.payload["seq"], bed.kernel.now),
    )
    consumer.register_translator(sink)
    bed.settle(2.0)
    producer.connect(out, sink.profile.port_ref("data-in"), qos=QosPolicy())
    bed.settle(1.0)

    rng = random.Random(LATENCY_SEED)
    sent_at = {}
    for index in range(LATENCY_MESSAGES):
        bed.settle(rng.expovariate(1.0 / LATENCY_MEAN_GAP_S))
        sent_at[index] = bed.kernel.now
        out.send(UMessage("text/plain", structured_payload(index)))
    bed.settle(1.0)
    assert set(delivered_at) == set(sent_at), codec
    latencies_ms = [
        (delivered_at[index] - sent) * 1000.0 for index, sent in sent_at.items()
    ]
    return {
        "codec": codec,
        "messages": LATENCY_MESSAGES,
        "mean_gap_s": LATENCY_MEAN_GAP_S,
        "seed": LATENCY_SEED,
        "batches_sent": producer.transport.batches_sent,
        "p50_ms": round(percentile(latencies_ms, 0.50), 4),
        "p99_ms": round(percentile(latencies_ms, 0.99), 4),
    }


def bench_latency_pair() -> dict:
    off = run_latency(codec=False)
    on = run_latency(codec=True)
    return {
        "off": off,
        "on": on,
        "p99_ratio": round(on["p99_ms"] / off["p99_ms"], 3),
    }


def bench_wal() -> dict:
    """WAL on with group commit.

    Fan-out interleaves the eight peers' spool appends, so record folding
    cannot engage there (the counted acks carry the record saving); a
    single-peer run shows the fold path, where consecutive same-peer
    spools collapse into growing ``spool-batch`` records.
    """
    return {
        "fanout_8": run_fanout(8, fsync_interval=0.05),
        "single_peer": run_fanout(1, fsync_interval=0.05),
    }


def test_dataplane_throughput(compare):
    matrix = bench_fanout_matrix()
    wal = bench_wal()
    codec = bench_codec_matrix()
    latency = bench_latency_pair()

    results = {
        "benchmark": "dataplane_throughput",
        "schema": 4,
        "notes": NOTES,
        "messages_per_run": MESSAGES,
        "message_bytes": MESSAGE_BYTES,
        "fanout": matrix,
        "wal_group_commit": wal,
        "codec": codec,
        "latency_1peer": latency,
    }
    OUTPUT.write_text(json.dumps(results, indent=2) + "\n")

    def row(label, leg):
        return [
            label,
            leg["msgs_per_sim_s"],
            leg["wire_bytes"],
            leg["batches_sent"],
            leg["journal_records"],
            leg["spool_folds"],
            leg["batch_adaptations"],
            leg["wall_s"],
        ]

    headers = ["leg", "msgs/s", "wire bytes", "batches", "journal records",
               "spool folds", "adaptations", "wall s"]
    compare(
        "Batched peer senders (1 Gbps LAN, 1k-message burst)",
        headers,
        [row(f"{peers} peers", matrix[str(peers)]) for peers in PEER_COUNTS],
    )
    compare(
        "WAL on (group commit)",
        headers,
        [row("8 peers", wal["fanout_8"]), row("1 peer", wal["single_peer"])],
    )
    compare(
        "Binary codec vs JSON frames (64 peers, structured payloads)",
        headers,
        [row("JSON", codec["json"]), row("codec", codec["codec"])],
    )
    compare(
        "Per-message delivery latency (1 peer, Poisson arrivals, simulated ms)",
        ["codec", "p50 ms", "p99 ms"],
        [
            ["off", latency["off"]["p50_ms"], latency["off"]["p99_ms"]],
            ["on", latency["on"]["p50_ms"], latency["on"]["p99_ms"]],
        ],
    )

    # Folding engages on consecutive same-peer spool runs (single peer).
    assert wal["single_peer"]["spool_folds"] > 0, wal
    # The binary codec delivers >= 1.5x messages/s over JSON frames ...
    assert codec["speedup_vs_json"] >= 1.5, codec
    # ... and the adaptive controller engaged under the burst backlog.
    assert codec["codec"]["batch_adaptations"] > 0, codec
    # No p99 latency regression at 1-peer low load.
    assert latency["p99_ratio"] <= 1.05, latency
