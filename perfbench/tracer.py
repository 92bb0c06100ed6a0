"""In-memory span recorder and reversible call wrappers.

A :class:`SpanRecorder` keeps one row per span -- name, wall start, wall
end, parent span and the benchmark op id that was current when the span
opened -- in flat ``array`` columns, so a traced run of a few hundred
thousand spans stays a few tens of megabytes.  Spans nest on the Python
call stack (the simulation is single-threaded and every wrapped call
returns before its caller does), so a span's *self time* is its duration
minus the summed durations of its direct children, and the self times of
all spans under one root add up to the root's duration exactly.

:class:`Patcher` installs wrappers around methods and module functions
and removes them again, restoring the original objects everywhere it
replaced them (including ``from x import f`` aliases in other modules).
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["NO_OP", "SpanRecorder", "Patcher", "load_spans", "wrap"]

#: Op id recorded for spans not opened under a benchmark-issued call.
NO_OP = -1


class SpanRecorder:
    """Spans in memory, written out once at the end of a traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: When False, wrappers call straight through and record nothing.
        self.active = False
        #: Op id stamped on spans opened while the benchmark is inside a
        #: call it issued for that op.
        self.current_op = NO_OP
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("q")
        self.child_s = array("d")
        self._stack: List[int] = []

    def name_index(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.child_s.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        end = self.clock()
        self.end[index] = end
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order (open: {popped})")
        parent = self.parent[index]
        if parent >= 0:
            self.child_s[parent] += end - self.start[index]

    @contextmanager
    def span(self, name: str, op: int = NO_OP) -> Iterator[int]:
        """A span around a block of the benchmark's own code."""
        previous = self.current_op
        if op != NO_OP:
            self.current_op = op
        index = self.open(self.name_index(name))
        try:
            yield index
        finally:
            self.close(index)
            self.current_op = previous

    # -- derived figures ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def duration(self, index: int) -> float:
        return self.end[index] - self.start[index]

    def self_by_name(self) -> Dict[str, float]:
        totals = [0.0] * len(self.names)
        for index in range(len(self.start)):
            totals[self.name_id[index]] += (
                self.end[index] - self.start[index] - self.child_s[index]
            )
        return {name: totals[i] for i, name in enumerate(self.names)}

    def count_by_name(self) -> Dict[str, int]:
        counts = [0] * len(self.names)
        for name_id in self.name_id:
            counts[name_id] += 1
        return {name: counts[i] for i, name in enumerate(self.names)}

    def durations_of(self, name: str) -> List[float]:
        name_id = self._name_ids.get(name)
        if name_id is None:
            return []
        return [
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.name_id[i] == name_id
        ]

    # -- output ---------------------------------------------------------------

    def write(self, directory: Path) -> None:
        """Dump every span: ``names.json`` plus one binary file per column."""
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "names.json").write_text(json.dumps(self.names))
        for column in ("name_id", "start", "end", "parent", "op"):
            with open(directory / f"{column}.bin", "wb") as handle:
                getattr(self, column).tofile(handle)


def load_spans(directory: Path) -> Tuple[List[str], Dict[str, array]]:
    """Read back what :meth:`SpanRecorder.write` wrote."""
    names = json.loads((directory / "names.json").read_text())
    columns = {}
    for column, code in (("name_id", "i"), ("start", "d"), ("end", "d"),
                         ("parent", "i"), ("op", "q")):
        data = array(code)
        data.frombytes((directory / f"{column}.bin").read_bytes())
        columns[column] = data
    return names, columns


def wrap(recorder: SpanRecorder, function: Callable, name: str,
         after: Optional[Callable] = None) -> Callable:
    """``function`` recording a span named ``name`` while the recorder is
    active; ``after(args, result)`` runs once the span has closed."""
    name_id = recorder.name_index(name)

    def wrapper(*args, **kwargs):
        if not recorder.active:
            return function(*args, **kwargs)
        index = recorder.open(name_id)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.close(index)
        if after is not None:
            after(args, result)
        return result

    wrapper.__wrapped__ = function
    wrapper.__name__ = getattr(function, "__name__", name)
    wrapper.__qualname__ = getattr(function, "__qualname__", name)
    return wrapper


class Patcher:
    """Installs span wrappers and removes every one of them again."""

    def __init__(self, recorder: SpanRecorder, package: str = "repro"):
        self.recorder = recorder
        self.package = package
        self._undo: List[Tuple[object, str, object]] = []

    def wrap_method(self, cls: type, attr: str, name: str,
                    after: Optional[Callable] = None) -> None:
        original = cls.__dict__[attr]
        if not callable(original) or isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{cls.__name__}.{attr} is not a plain method")
        setattr(cls, attr, wrap(self.recorder, original, name, after))
        self._undo.append((cls, attr, original))

    def wrap_function(self, module, attr: str, name: str) -> None:
        """Wrap ``module.attr`` and every alias of it imported by name into
        another module of the package."""
        original = getattr(module, attr)
        wrapper = wrap(self.recorder, original, name)
        prefix = self.package + "."
        for module_name, other in list(sys.modules.items()):
            if other is None or not (
                module_name == self.package or module_name.startswith(prefix)
            ):
                continue
            if other.__dict__.get(attr) is original:
                setattr(other, attr, wrapper)
                self._undo.append((other, attr, original))

    def remove(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)
