"""The repository benchmark: four open-loop workloads on two clocks.

    python3 perfbench/run.py                          # the gated workloads, end to end
    python3 perfbench/run.py --workload burst_backlog --seed 3 --seconds 20
    python3 perfbench/run.py --workload all --trace 1  # per-layer split + shape check

Run from the repository root.  Each repetition runs in a fresh interpreter
(``rep.py``).  With ``--trace 0`` a run executes a fixed number of
repetitions, ``--seconds`` over the workload's per-repetition budget
REP_S, so the sample size follows the arguments and not the host's speed.
Repetition 0 runs again at the end to check that the simulated clock
replays exactly; sim-clock metrics pool the other repetitions, which
draw distinct inputs from the seed.  Wall metrics use every repetition,
with wall times corrected for the host's speed against a fixed
reference function (``host_seconds``).
With ``--trace 1`` it runs repetition 0 untraced and traced and reports
the per-layer metrics.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when a correctness check
failed and 2 when the benchmark could not run at all.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("telemetry_fanout", "burst_backlog", "directory_churn", "device_bridging")
#: The workloads BENCHMARK.json gates, run by default.  directory_churn is
#: left out until the flat directory's post-recovery catch-up is fixed
#: (README.md, "Known defects"); by name, or with ``all``, it still runs
#: and fails loudly.
GATED = ("telemetry_fanout", "burst_backlog", "device_bridging")
#: Wall seconds budgeted per repetition, interpreter start included;
#: sizes the repetition count for ``--seconds``.  On a 2-vCPU x86-64
#: host a repetition costs about this, except on telemetry_fanout: it
#: costs about 1.9 s there, and the lower budget buys the extra arrivals
#: its p99 needs to repeat across seeds.
REP_S = {"telemetry_fanout": 1.5, "burst_backlog": 2.9, "directory_churn": 3.4,
         "device_bridging": 2.0}
#: Nominal wall seconds of one reference call (``rep._reference``): about
#: what one takes inside a repetition on a 2-vCPU x86-64 host in its
#: faster state.  Gated wall metrics are reported for a host running at
#: that speed; see ``host_seconds``.
REF_S = 0.3e-3
#: A repetition that has not finished after this long is a failure.
REP_TIMEOUT_S = 150

#: End-to-end metrics: name -> (unit, clock).  These are the ones
#: BENCHMARK.json gates and the result line carries.
END_TO_END = {
    "setup_s": ("s", "wall, corrected"),
    "ops_per_wall_s": ("1/s", "wall, corrected"),
    "latency_p50_ms": ("ms", "sim"),
    "latency_p99_ms": ("ms", "sim"),
    "goodput_per_sim_s": ("1/s", "sim"),
    "wire_bytes_per_op": ("B/op", "sim"),
    "peak_rss_mb": ("MB", "wall"),
}
#: Printed beside them but not gated: the two wall metrics before the
#: host-speed correction, and a microsecond wall measurement; each
#: spreads past any allowed bound from run to run on a shared host.
PRINTED = {"raw_setup_s": ("s", "wall"), "raw_ops_per_wall_s": ("1/s", "wall"),
           "lookup_p50_us": ("us", "wall")}


class RepFailed(Exception):
    """A repetition process exited non-zero or printed no record."""


def run_rep(workload: str, seed: int, rep: int, trace: bool = False) -> dict:
    command = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
               "--seed", str(seed), "--rep", str(rep)]
    if trace:
        command += ["--trace", "--spans-out",
                    str(OUT / f"spans-{workload}-seed{seed}")]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"{workload} rep {rep}: no result after {REP_TIMEOUT_S} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RepFailed(f"{workload} rep {rep} exited {done.returncode}:\n"
                        f"{done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def percentile(ranked: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ranked[max(0, math.ceil(fraction * len(ranked)) - 1)]


def host_seconds(wall_s: float, reference_s: float) -> float:
    """Wall seconds rescaled to the nominal host.  The shared host runs
    everything up to twice as slowly for seconds or minutes at a time,
    fixed work as much as the program; ``reference_s`` is the mean time
    of reference calls made among the work ``wall_s`` timed, so the ratio
    keeps the program's cost and drops the host's state."""
    return wall_s * REF_S / reference_s


def end_to_end(sim: List[dict], every: List[dict]) -> Dict[str, float]:
    """Sim metrics from the pooled ``sim`` repetitions, wall metrics over
    ``every`` repetition: throughput and lookup cost pool all of them, the
    other two are per-repetition medians.  Failed ops count as infinitely
    late, so they miss any latency limit."""
    latencies = sorted(
        [x for r in sim for x in r["latencies_s"]]
        + [math.inf] * sum(r["ops_missing"] for r in sim)
    )
    completed = sum(r["ops_completed"] for r in sim)
    ops = sum(r["ops_completed"] for r in every)
    return {
        "setup_s": statistics.median(
            host_seconds(r["setup_s"], r["setup_reference_s"]) for r in every),
        "raw_setup_s": statistics.median(r["setup_s"] for r in every),
        "ops_per_wall_s": ops / sum(
            host_seconds(r["measured_wall_s"], r["reference_s"]) for r in every),
        "raw_ops_per_wall_s": ops / sum(r["measured_wall_s"] for r in every),
        "latency_p50_ms": percentile(latencies, 0.50) * 1e3,
        "latency_p99_ms": percentile(latencies, 0.99) * 1e3,
        "goodput_per_sim_s": completed / sum(r["sim_span_s"] for r in sim),
        "wire_bytes_per_op": sum(r["wire_bytes"] for r in sim) / completed,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in every),
        "lookup_p50_us": statistics.median(x for r in every for x in r["lookup_us"]),
    }


def failures_of(records: List[dict]) -> Tuple[int, int, List[str]]:
    attempted = sum(r["ops_attempted"] for r in records)
    failed = sum(r["ops_missing"] + r["violation_count"] for r in records)
    notes = [f"rep {r['rep']}: {v}" for r in records for v in r["violations"]]
    notes += [f"rep {r['rep']}: {r['ops_missing']} op(s) never completed"
              for r in records if r["ops_missing"]]
    return attempted, failed, notes


def repetitions(workload: str, seconds: float) -> int:
    """Repetitions an untraced run makes, the replay of repetition 0 included."""
    return max(3, round(seconds / REP_S[workload]))


def measure(workload: str, seed: int, seconds: float) -> dict:
    """The untraced run of one workload."""
    sim = [run_rep(workload, seed, rep)
           for rep in range(repetitions(workload, seconds) - 1)]
    replay = run_rep(workload, seed, 0)
    records = sim + [replay]
    notes: List[str] = []
    deterministic = sim[0]["sim_digest"] == replay["sim_digest"]
    if not deterministic:
        notes.append("rep 0 replayed with a different sim-clock result "
                     f"({sim[0]['sim_digest'][:12]} vs {replay['sim_digest'][:12]})")
    attempted, failed, failure_notes = failures_of(records)
    notes += failure_notes
    failed += 0 if deterministic else 1
    metrics = end_to_end(sim, records)
    return {
        "workload": workload,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failure_ratio": failed / attempted,
        "metrics": metrics,
        "latency_samples": sum(len(r["latencies_s"]) + r["ops_missing"] for r in sim),
        "repetitions": len(records),
        "notes": notes,
        "records": records,
    }


def measure_traced(workload: str, seed: int) -> dict:
    """Repetition 0 untraced, then traced: per-layer metrics and overhead."""
    plain = run_rep(workload, seed, 0)
    traced = run_rep(workload, seed, 0, trace=True)
    attempted, failed, notes = failures_of([plain, traced])
    if plain["sim_digest"] != traced["sim_digest"]:
        failed += 1
        notes.append("tracing changed the sim-clock result")
    per_layer = dict(traced["per_layer"])
    per_layer["trace.overhead_ratio"] = (
        per_layer["trace.wall_s"] / plain["measured_wall_s"])
    return {
        "workload": workload,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": per_layer,
        "notes": notes,
        "records": [plain, traced],
    }


#: What each workload claims to stress, checked on every traced run.
SINGLE_SHAPE = {
    "telemetry_fanout": (("transport.dispatch_p50_us", ">0"), ("upnp.soap_s", "=0")),
    "burst_backlog": (("journal.checkpoints", ">0"), ("upnp.soap_s", "=0")),
    "directory_churn": (("journal.replay_s", ">0"), ("directory.notifications", ">0"),
                        ("upnp.soap_s", "=0")),
    "device_bridging": (("upnp.soap_s", ">0"), ("mapper.instantiation_ms", ">0")),
}


def shape_notes(workload: str, per_layer: Dict[str, float]) -> List[str]:
    notes = []
    for metric, rule in SINGLE_SHAPE[workload]:
        value = per_layer[metric]
        if (value > 0) != (rule == ">0"):
            notes.append(f"shape: {workload} {metric} = {value}, expected {rule}")
    return notes


def cross_shape_notes(results: Dict[str, dict]) -> List[str]:
    """The workload-shape check across workloads (needs all four)."""
    def share(layer: str) -> Dict[str, float]:
        return {name: result["metrics"][layers.SELF_TIME[layer]]
                / result["metrics"]["trace.wall_s"]
                for name, result in results.items()}

    notes = []
    journal = share("journal")
    if not journal["burst_backlog"] > journal["telemetry_fanout"]:
        notes.append(f"shape: journal share on burst_backlog ({journal['burst_backlog']:.3f}) "
                     f"not above telemetry_fanout ({journal['telemetry_fanout']:.3f})")
    directory = share("directory")
    top = max(directory, key=directory.get)
    if top != "directory_churn":
        notes.append(f"shape: directory share is highest on {top}, not directory_churn")
    return notes


def provenance(seed: int, records: List[dict]) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "seed": seed,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "runtime_args": records[0]["runtime_args"] if records else None,
        "testbed": records[0]["testbed"] if records else None,
    }


def save(result: dict, seed: int, trace: bool) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{result['workload']}-seed{seed}-trace{int(trace)}.json"
    record = dict(result)
    record["provenance"] = provenance(seed, result["records"])
    record["records"] = [
        {k: v for k, v in r.items() if k not in ("latencies_s", "lookup_us")}
        for r in result["records"]
    ]
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str))
    return path


def print_end_to_end(result: dict) -> None:
    print(f"{result['workload']}: {result['repetitions']} repetitions, "
          f"{result['latency_samples']} latency samples (sim), "
          f"failure_ratio {result['failure_ratio']:.6f} "
          f"({result['failed']}/{result['attempted']})")
    for name, (unit, clock) in {**END_TO_END, **PRINTED}.items():
        print(f"  {name:<20} {result['metrics'][name]:>14.4f} {unit:<5} [{clock}]")


def print_per_layer(result: dict) -> None:
    metrics = result["metrics"]
    print(f"{result['workload']} (traced):")
    for name, unit, _better in layers.PER_LAYER:
        print(f"  {name:<34} {metrics[name]:>14.4f} {unit}")
    print("  self-time share: " + ", ".join(
        f"{layer} {100 * metrics[name] / metrics['trace.wall_s']:.1f}%"
        for layer, name in layers.SELF_TIME.items()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="gated", choices=("gated", "all") + WORKLOADS,
                        help="one workload, the gated ones (default) or all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="nominal wall seconds one untraced workload run measures for")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so subprocess.run kills the repetition
    # it is waiting for instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmark: no repro package under {ROOT / 'src'}; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    names = {"gated": GATED, "all": WORKLOADS}.get(args.workload, (args.workload,))
    results: Dict[str, dict] = {}
    try:
        for name in names:
            if args.trace:
                result = measure_traced(name, args.seed)
                result["notes"] += shape_notes(name, result["metrics"])
                print_per_layer(result)
            else:
                result = measure(name, args.seed, args.seconds)
                print_end_to_end(result)
            results[name] = result
    except RepFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    notes = [note for result in results.values() for note in result["notes"]]
    if args.trace and len(results) == len(WORKLOADS):
        notes += cross_shape_notes(results)
    for name, result in results.items():
        print(f"record: {save(result, args.seed, bool(args.trace))}")
    for note in notes:
        print(f"FAILED {note}")
    correct = not notes and all(r["correct"] for r in results.values())
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    units = ({n: u for n, u, _better in layers.PER_LAYER} if args.trace
             else {n: u for n, (u, _clock) in END_TO_END.items()})
    prefix = len(results) > 1
    metrics = {
        (f"{wl}.{n}" if prefix else n): {"value": r["metrics"][n], "unit": units[n]}
        for wl, r in results.items() for n in units
    }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
