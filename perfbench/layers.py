"""The layers the traced run splits wall time across, and their metrics.

Each entry of :data:`TARGETS` names one public call into a module of
``repro``; the traced run wraps it in a span named ``<layer>.<call>``.
A layer's self time is the summed self time of its spans.  Generator
functions (``StreamSocket.send_inline``, native invocations, peer
senders) are counted but run their bodies later inside ``Kernel.step``,
so that body time is kernel self time.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from tracer import Patcher, SpanRecorder

__all__ = ["LAYERS", "PER_LAYER", "install", "per_layer_metrics"]

#: Layer names, in report order.  ``harness`` is the benchmark's own code
#: (load generation, delivery callbacks, checks) under the root span.
LAYERS = ("kernel", "net", "sockets", "transport", "codec", "journal",
          "directory", "upnp", "harness")
#: The per-layer metric holding each layer's self time.
SELF_TIME = {layer: f"{layer}.self_s" for layer in LAYERS}
SELF_TIME["upnp"] = "upnp.soap_s"

#: (module, class or None, attribute, span name)
TARGETS = (
    ("repro.simnet.kernel", "Kernel", "step", "kernel.step"),
    ("repro.simnet.net", "Medium", "transmit", "net.transmit"),
    ("repro.simnet.net", "Node", "send_frame", "net.send_frame"),
    ("repro.simnet.sockets", "StreamSocket", "send", "sockets.stream_send"),
    ("repro.simnet.sockets", "StreamSocket", "send_inline", "sockets.stream_send_inline"),
    ("repro.simnet.sockets", "DatagramSocket", "sendto", "sockets.sendto"),
    ("repro.simnet.sockets", "DatagramSocket", "send_multicast", "sockets.send_multicast"),
    ("repro.core.transport", "Transport", "dispatch", "transport.dispatch"),
    ("repro.core.transport", "Transport", "connect", "transport.connect"),
    ("repro.core.codec", None, "json_size", "codec.json_size"),
    ("repro.core.codec", "WireEncoder", "encode_envelope", "codec.encode_envelope"),
    ("repro.core.codec", "WireEncoder", "encode_batch", "codec.encode_batch"),
    ("repro.core.codec", "WireEncoder", "encode_batch_delta", "codec.encode_batch_delta"),
    ("repro.core.codec", "WireDecoder", "decode_frame", "codec.decode_frame"),
    ("repro.core.codec", None, "encode_gossip", "codec.encode_gossip"),
    ("repro.core.codec", None, "decode_gossip", "codec.decode_gossip"),
    ("repro.core.codec", None, "encode_journal_body", "codec.encode_journal_body"),
    ("repro.core.codec", None, "decode_journal_body", "codec.decode_journal_body"),
    ("repro.core.journal", "Journal", "append", "journal.append"),
    ("repro.core.journal", "Journal", "append_spool", "journal.append_spool"),
    ("repro.core.journal", "Journal", "sync", "journal.sync"),
    ("repro.core.journal", "Journal", "checkpoint", "journal.checkpoint"),
    ("repro.core.journal", "Journal", "replay", "journal.replay"),
    ("repro.core.directory", "Directory", "register", "directory.register"),
    ("repro.core.directory", "Directory", "unregister", "directory.unregister"),
    ("repro.core.directory", "Directory", "lookup", "directory.lookup"),
    ("repro.core.directory", "Directory", "subscribe_query", "directory.subscribe_query"),
    ("repro.core.directory", "Directory", "unsubscribe_query", "directory.unsubscribe_query"),
    ("repro.platforms.upnp.soap", None, "build_request", "upnp.soap_build_request"),
    ("repro.platforms.upnp.soap", None, "parse_request", "upnp.soap_parse_request"),
    ("repro.platforms.upnp.soap", None, "build_response", "upnp.soap_build_response"),
    ("repro.platforms.upnp.soap", None, "build_fault", "upnp.soap_build_fault"),
    ("repro.platforms.upnp.soap", None, "parse_response", "upnp.soap_parse_response"),
)

#: Per-layer metrics: (name, unit, better).  Every traced run reports all.
PER_LAYER = (
    ("kernel.events_per_op", "count/op", "lower"),
    ("kernel.self_s", "s", "lower"),
    ("net.frames_per_op", "count/op", "lower"),
    ("net.self_s", "s", "lower"),
    ("net.frames_dropped", "count", "lower"),
    ("sockets.stream_sends_per_op", "count/op", "lower"),
    ("sockets.self_s", "s", "lower"),
    ("sockets.datagrams", "count", "lower"),
    ("transport.dispatch_p50_us", "us", "lower"),
    ("transport.self_s", "s", "lower"),
    ("transport.backlog_max", "count", "lower"),
    ("transport.batches_sent", "count", "higher"),
    ("transport.retries", "count", "lower"),
    ("transport.spool_dropped", "count", "lower"),
    ("transport.duplicates_suppressed", "count", "lower"),
    ("codec.self_s", "s", "lower"),
    ("codec.frames_sent", "count", "higher"),
    ("journal.self_s", "s", "lower"),
    ("journal.records_per_op", "count/op", "lower"),
    ("journal.bytes_per_op", "B/op", "lower"),
    ("journal.append_s", "s", "lower"),
    ("journal.checkpoints", "count", "lower"),
    ("journal.checkpoint_s", "s", "lower"),
    ("journal.checkpoint_bytes_ratio", "ratio", "lower"),
    ("journal.replay_s", "s", "lower"),
    ("directory.lookup_p50_us", "us", "lower"),
    ("directory.lookup_p99_us", "us", "lower"),
    ("directory.register_p50_us", "us", "lower"),
    ("directory.notifications", "count", "lower"),
    ("directory.profiles_per_node", "count", "lower"),
    ("directory.self_s", "s", "lower"),
    ("mapper.instantiation_ms", "ms", "lower"),
    ("upnp.soap_s", "s", "lower"),
    ("upnp.actions_served", "count", "higher"),
    ("harness.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def install(recorder: SpanRecorder, checkpoint_bytes: List[int]) -> Patcher:
    """Wrap every target; ``checkpoint_bytes`` collects the size of each
    checkpoint record (the durable blob right after the checkpoint)."""
    import importlib

    patcher = Patcher(recorder)
    try:
        for module_name, cls_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            if cls_name is None:
                patcher.wrap_function(module, attr, span)
                continue
            after = None
            if span == "journal.checkpoint":
                def after(args, _result):
                    journal = args[0]
                    if journal.enabled and not journal.muted:
                        checkpoint_bytes.append(journal.size_bytes)
            patcher.wrap_method(getattr(module, cls_name), attr, span, after)
    except BaseException:
        patcher.remove()
        raise
    return patcher


def _percentile(samples: List[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ranked = sorted(samples)
    return ranked[min(len(ranked) - 1, int(fraction * len(ranked)))]


def per_layer_metrics(recorder: SpanRecorder, root: int, counters: Dict,
                      checkpoint_bytes: List[int]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value from one traced repetition, except
    ``trace.overhead_ratio``, which needs the untraced twin run."""
    ops = max(counters["ops_completed"], 1)
    self_by_name = recorder.self_by_name()
    counts = recorder.count_by_name()
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_by_name.items():
        layer = name.split(".", 1)[0]
        layer_self[layer if layer in layer_self else "harness"] += seconds
    wall = recorder.duration(root)

    def count(*names: str) -> int:
        return sum(counts.get(name, 0) for name in names)

    def self_of(*names: str) -> float:
        return sum(self_by_name.get(name, 0.0) for name in names)

    def inclusive(name: str) -> float:
        return sum(recorder.durations_of(name))

    appended = counters["journal_bytes"] - sum(checkpoint_bytes)
    mapping = counters["mapping_durations_s"]
    metrics = {
        "kernel.events_per_op": counters["kernel_events"] / ops,
        "kernel.self_s": layer_self["kernel"],
        "net.frames_per_op": counters["frames_transmitted"] / ops,
        "net.self_s": layer_self["net"],
        "net.frames_dropped": counters["frames_dropped"],
        "sockets.stream_sends_per_op": count(
            "sockets.stream_send", "sockets.stream_send_inline") / ops,
        "sockets.self_s": layer_self["sockets"],
        "sockets.datagrams": count("sockets.sendto", "sockets.send_multicast"),
        "transport.dispatch_p50_us":
            statistics.median(recorder.durations_of("transport.dispatch") or [0.0]) * 1e6,
        "transport.self_s": layer_self["transport"],
        "transport.backlog_max": counters["backlog_max"],
        "transport.batches_sent": counters["batches_sent"],
        "transport.retries": counters["retries"],
        "transport.spool_dropped": counters["spool_dropped"],
        "transport.duplicates_suppressed": counters["duplicates_suppressed"],
        "codec.self_s": layer_self["codec"],
        "codec.frames_sent": counters["codec_frames_sent"],
        "journal.self_s": layer_self["journal"],
        "journal.records_per_op": counters["journal_records"] / ops,
        "journal.bytes_per_op": counters["journal_bytes"] / ops,
        "journal.append_s": self_of("journal.append", "journal.append_spool", "journal.sync"),
        "journal.checkpoints": counters["journal_checkpoints"],
        "journal.checkpoint_s": inclusive("journal.checkpoint"),
        "journal.checkpoint_bytes_ratio":
            sum(checkpoint_bytes) / appended if appended > 0 else 0.0,
        "journal.replay_s": inclusive("journal.replay"),
        "directory.lookup_p50_us":
            _percentile(recorder.durations_of("directory.lookup"), 0.50) * 1e6,
        "directory.lookup_p99_us":
            _percentile(recorder.durations_of("directory.lookup"), 0.99) * 1e6,
        "directory.register_p50_us":
            statistics.median(recorder.durations_of("directory.register") or [0.0]) * 1e6,
        "directory.notifications": counters["directory_notifications"],
        "directory.profiles_per_node": counters["profiles_per_node"],
        "directory.self_s": layer_self["directory"],
        "mapper.instantiation_ms":
            statistics.mean(mapping) * 1e3 if mapping else 0.0,
        "upnp.soap_s": layer_self["upnp"],
        "upnp.actions_served": counters["actions_served"],
        "harness.self_s": layer_self["harness"],
        "trace.wall_s": wall,
    }
    missing = {name for name, _unit, _better in PER_LAYER} - set(metrics) - {
        "trace.overhead_ratio"}
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return metrics
