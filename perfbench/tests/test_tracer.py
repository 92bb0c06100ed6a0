"""Tests of the span recorder and the traced-run wrappers.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import layers  # noqa: E402
import rep  # noqa: E402
import workloads  # noqa: E402
from tracer import NO_OP, Patcher, SpanRecorder, load_spans  # noqa: E402


class FakeClock:
    def __init__(self, *ticks: float):
        self.ticks = list(ticks)

    def __call__(self) -> float:
        return self.ticks.pop(0)


def test_self_time_of_nested_and_sibling_spans():
    #          a: 0 ........................ 20
    #          b:   1 ........ 9   c: 12 .. 15
    #          d:     2 .. 5
    recorder = SpanRecorder(clock=FakeClock(0, 1, 2, 5, 9, 12, 15, 20))
    a = recorder.open(recorder.name_index("a"))
    b = recorder.open(recorder.name_index("b"))
    d = recorder.open(recorder.name_index("d"))
    recorder.close(d)
    recorder.close(b)
    c = recorder.open(recorder.name_index("c"))
    recorder.close(c)
    recorder.close(a)
    assert [recorder.duration(i) for i in (a, b, c, d)] == [20, 8, 3, 3]
    assert recorder.self_by_name() == {"a": 20 - 8 - 3, "b": 8 - 3, "c": 3, "d": 3}
    assert list(recorder.parent) == [-1, 0, 1, 0]
    assert sum(recorder.self_by_name().values()) == recorder.duration(a)


def test_span_context_stamps_op_and_restores_it(tmp_path):
    recorder = SpanRecorder()
    with recorder.span("root"):
        with recorder.span("issue", op=7):
            with recorder.span("inner"):
                pass
        with recorder.span("after"):
            pass
    assert list(recorder.op) == [NO_OP, 7, 7, NO_OP]
    recorder.write(tmp_path / "spans")
    names, columns = load_spans(tmp_path / "spans")
    assert names == ["root", "issue", "inner", "after"]
    assert list(columns["parent"]) == [-1, 0, 1, 0]
    assert list(columns["op"]) == [NO_OP, 7, 7, NO_OP]


def test_spans_closed_out_of_order_are_refused():
    recorder = SpanRecorder()
    outer = recorder.open(recorder.name_index("outer"))
    recorder.open(recorder.name_index("inner"))
    with pytest.raises(RuntimeError):
        recorder.close(outer)


def test_wrap_function_reaches_aliases_and_removes_them():
    codec = importlib.import_module("repro.core.codec")
    messages = importlib.import_module("repro.core.messages")
    original = codec.json_size
    assert messages.json_size is original
    recorder = SpanRecorder()
    patcher = Patcher(recorder)
    patcher.wrap_function(codec, "json_size", "codec.json_size")
    assert messages.json_size is not original
    recorder.active = True
    assert messages.json_size({"a": 1}) == original({"a": 1})
    recorder.active = False
    assert recorder.count_by_name() == {"codec.json_size": 1}
    patcher.remove()
    assert codec.json_size is original and messages.json_size is original


def _target_objects(targets=None):
    """Every wrapped target as currently bound, aliases included."""
    bound = {}
    for module_name, cls_name, attr, _span in targets or layers.TARGETS:
        module = importlib.import_module(module_name)
        if cls_name is not None:
            bound[(module_name, cls_name, attr)] = getattr(module, cls_name).__dict__[attr]
            continue
        for name, other in sorted(sys.modules.items()):
            if name.startswith("repro") and attr in getattr(other, "__dict__", {}):
                bound[(name, None, attr)] = other.__dict__[attr]
    return bound


@pytest.fixture
def small_fanout(monkeypatch):
    monkeypatch.setattr(workloads.TelemetryFanout, "MESSAGES", 60)
    monkeypatch.setattr(workloads.TelemetryFanout, "PEERS", 3)


def test_layer_self_times_add_up_to_traced_wall(small_fanout):
    record = rep.run_rep("telemetry_fanout", seed=5, rep=0, trace=True)
    per_layer = record["per_layer"]
    parts = [v for k, v in per_layer.items() if k.endswith(".self_s")]
    parts.append(per_layer["upnp.soap_s"])
    assert record["violation_count"] == 0 and record["ops_missing"] == 0
    assert per_layer["kernel.self_s"] > 0 and per_layer["transport.self_s"] > 0
    assert sum(parts) == pytest.approx(per_layer["trace.wall_s"], rel=1e-9)


def test_wrappers_removed_and_untraced_run_sees_originals(small_fanout):
    before = _target_objects()
    assert not any(hasattr(obj, "__wrapped__") for obj in before.values())
    traced = rep.run_rep("telemetry_fanout", seed=5, rep=0, trace=True)
    assert traced["spans"] > 0
    assert _target_objects() == before
    untraced = rep.run_rep("telemetry_fanout", seed=5, rep=0, trace=False)
    assert "per_layer" not in untraced
    assert untraced["ops_completed"] == untraced["ops_attempted"] == traced["ops_attempted"]
    assert _target_objects() == before


def test_install_failure_leaves_nothing_installed(monkeypatch):
    targets = layers.TARGETS
    before = _target_objects(targets)
    broken = targets + (("repro.core.journal", "Journal", "no_such_call", "journal.x"),)
    monkeypatch.setattr(layers, "TARGETS", broken)
    with pytest.raises(KeyError):
        layers.install(SpanRecorder(), [])
    assert _target_objects(targets) == before


def test_benchmark_json_lists_what_the_benchmark_reports():
    import json

    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (unit, _clock) in run.END_TO_END.items()}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
