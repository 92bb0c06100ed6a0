"""One repetition of one workload, in its own interpreter.

    python3 perfbench/rep.py --workload telemetry_fanout --seed 7 --rep 0 [--trace]

Prints one JSON record on its last stdout line: set-up and measured wall
time with the mean time of the reference calls made beside each, per-op
sim latencies, counters differenced over the measured phase, correctness
violations, peak RSS and -- with ``--trace`` -- per-layer metrics from
spans recorded around the calls listed in ``layers.py``.
``run.py`` starts each repetition as a fresh process so no process-global
id counter in ``repro`` carries over from a previous repetition.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import inspect
import json
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core.runtime import UMiddleRuntime  # noqa: E402

import layers  # noqa: E402
from tracer import SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Counters differenced over the measured phase.
PHASE_COUNTERS = ("batches_sent", "retries", "spool_dropped", "duplicates_suppressed",
                  "codec_frames_sent", "journal_records", "journal_bytes",
                  "journal_checkpoints", "frames_transmitted", "frames_dropped",
                  "wire_bytes", "kernel_events", "directory_notifications")

#: Kernel events between two reference calls in the measured phase
#: (about 10 ms of wall time).  The calls sample the host's speed in
#: proportion to the work done, not to the time it took.
SLICE_STEPS = 500
#: Reference calls timed just before and just after set-up.
SETUP_REFERENCES = 3


def _reference() -> None:
    """Fixed pure-Python work in the program's own idiom: a timer heap of
    tuples, dict updates and small slotted objects."""
    heap, table = [], {}
    for i in range(200):
        heapq.heappush(heap, ((i * 7919) % 1009, i, _Item(i, "k%d" % (i % 50))))
    while heap:
        _due, _i, item = heapq.heappop(heap)
        table[item.key] = table.get(item.key, 0) + item.size


class _Item:
    __slots__ = ("size", "key")

    def __init__(self, size: int, key: str):
        self.size = size
        self.key = key


def time_reference() -> float:
    """Wall seconds of one ``_reference`` call, timed between slices so
    that the run also samples how fast the host runs fixed work."""
    started = time.perf_counter()
    _reference()
    return time.perf_counter() - started


def runtime_arguments() -> dict:
    """The constructor defaults every runtime of the benchmark runs with
    (the workloads pass none of them)."""
    signature = inspect.signature(UMiddleRuntime.__init__)
    return {
        name: repr(parameter.default)
        for name, parameter in signature.parameters.items()
        if parameter.default is not inspect.Parameter.empty
        and name not in ("name", "calibration")
    }


def peak_rss_mb() -> float:
    """This process's own resident high-water mark.  ``getrusage`` is not
    used: its ``ru_maxrss`` keeps the pre-exec high-water mark, which for
    a forked child is the parent's resident set."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def rep_rng(workload: str, seed: int, rep: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{rep}")


def run_rep(workload: str, seed: int, rep: int, trace: bool,
            spans_out: Path = None) -> dict:
    recorder = SpanRecorder() if trace else None
    checkpoint_bytes = []
    patcher = layers.install(recorder, checkpoint_bytes) if trace else None
    try:
        return _measure(workload, seed, rep, recorder, checkpoint_bytes, spans_out)
    finally:
        if patcher is not None:
            patcher.remove()


def _measure(workload, seed, rep, recorder, checkpoint_bytes, spans_out) -> dict:
    instance = WORKLOADS[workload](rep_rng(workload, seed, rep), recorder)
    instance.prepare()
    gc.collect()
    setup_references = [time_reference() for _ in range(SETUP_REFERENCES)]
    started = time.perf_counter()
    instance.setup()
    setup_s = time.perf_counter() - started
    setup_references += [time_reference() for _ in range(SETUP_REFERENCES)]

    bed, harness = instance.bed, instance.harness
    kernel = bed.kernel
    before = instance.counters()
    gc.collect()
    root = None
    if recorder is not None:
        recorder.active = True
        root = recorder.open(recorder.name_index("harness.measure"))
    clock = time.perf_counter
    references = []
    measured_wall_s = 0.0
    mark = clock()
    instance.start()
    deadline = instance.deadline()
    steps = 0
    while not instance.finished() and kernel.now <= deadline and kernel.peek() != float("inf"):
        kernel.step()
        steps += 1
        if steps == SLICE_STEPS and recorder is None:
            measured_wall_s += clock() - mark
            references.append(time_reference())
            steps = 0
            mark = clock()
    measured_wall_s += clock() - mark
    if recorder is not None:
        recorder.close(root)
        recorder.active = False
    after = instance.counters()
    counters = {key: after[key] - before[key] for key in PHASE_COUNTERS}

    instance.check()
    counters.update(instance.final_counters())
    counters["backlog_max"] = harness.backlog_max

    due, done = harness.due, harness.done
    latencies = [done[op] - due[op] for op in due if op in done]
    missing = len(due) - len(latencies)
    counters["ops_completed"] = len(latencies)
    first_due = min(due.values()) if due else 0.0
    last_done = max(done.values()) if done else 0.0
    record = {
        "workload": workload,
        "seed": seed,
        "rep": rep,
        "trace": recorder is not None,
        "setup_s": setup_s,
        "setup_reference_s": statistics.mean(setup_references),
        "measured_wall_s": measured_wall_s,
        "reference_s": statistics.mean(references) if references else None,
        "ops_attempted": len(due),
        "ops_completed": len(latencies),
        "ops_missing": missing,
        "violations": harness.violations[:20],
        "violation_count": len(harness.violations),
        "latencies_s": sorted(latencies),
        "sim_span_s": last_done - first_due,
        "wire_bytes": counters["wire_bytes"],
        "lookup_us": sorted(instance.lookup_us),
        "peak_rss_mb": peak_rss_mb(),
        "counters": {k: v for k, v in counters.items() if k != "mapping_durations_s"},
        "mapping_durations_s": counters["mapping_durations_s"],
        "runtime_args": runtime_arguments(),
        "testbed": {"trace_enabled": bed.network.trace.enabled},
    }
    record["sim_digest"] = sim_digest(record)
    if recorder is not None:
        record["per_layer"] = layers.per_layer_metrics(
            recorder, root, counters, checkpoint_bytes)
        record["spans"] = len(recorder)
        if spans_out is not None:
            recorder.write(spans_out)
    return record


def sim_digest(record: dict) -> str:
    """A digest of everything that runs on the simulated clock, byte
    counts included; two runs of one seed must agree on it exactly."""
    sim = {
        "latencies_s": [repr(x) for x in record["latencies_s"]],
        "ops": [record["ops_attempted"], record["ops_completed"]],
        "sim_span_s": repr(record["sim_span_s"]),
        "counters": {k: record["counters"][k] for k in sorted(record["counters"])},
        "mapping": [repr(x) for x in record["mapping_durations_s"]],
        "violations": record["violation_count"],
    }
    text = json.dumps(sim, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args()
    record = run_rep(args.workload, args.seed, args.rep, args.trace, args.spans_out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
