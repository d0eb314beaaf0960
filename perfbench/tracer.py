"""Wrappers the benchmark installs around mrhydro's public functions.

Patcher swaps a function or method for a wrapper in every mrhydro module
that binds it and restores the original afterwards; nothing under src/
changes.  Tracer records one span per call (name, start, end, parent
span, run id) in flat arrays kept in memory until the run ends.  The
spans under one sim.run_scenario call share its run id.  The per-substep
calls (rk4_step, derivative, mr_torque_from_current) are aggregated per
enclosing run and caller instead, so memory stays bounded.
"""
from __future__ import annotations

import math
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

clock = time.perf_counter


def covered_time(start: float, end: float, children) -> float:
    """Length of [start, end] covered by the union of child intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in children):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(start: float, end: float, children, aggregated_child_s: float = 0.0) -> float:
    """Span duration minus the part its children cover.

    children are explicit (start, end) child spans, which may overlap;
    aggregated_child_s is the summed time of aggregated calls made
    directly from the span, which run between its explicit children.
    """
    return (end - start) - covered_time(start, end, children) - aggregated_child_s


def _program_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "mrhydro" or n.startswith("mrhydro."))]


class Patcher:
    """Installs wrappers and undoes them in reverse order."""

    def __init__(self):
        self._undo = []

    def function(self, module, name: str, wrapper) -> None:
        """Replace module.name in every mrhydro module that binds the same object."""
        original = getattr(module, name)
        wrapped = wrapper(original)
        for mod in _program_modules():
            if getattr(mod, name, None) is original:
                setattr(mod, name, wrapped)
                self._undo.append((mod, name, original))

    def method(self, cls, name: str, wrapper) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, wrapper(original))
        self._undo.append((cls, name, original))

    def undo(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.undo()


class Tracer:
    """In-memory span store with its wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_agg_child = array("d")
        self.run_kind: dict[int, str] = {}
        # (run id, name id, caller name id) -> [calls, inclusive s, self s]
        self.aggregates: dict[tuple, list] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self._frames: list = []  # open calls: [span child s, aggregated child s, name id]
        self._span = -1
        self._run = -1
        self._next_run = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name, new_run: bool = False, after=None):
        """Wrapper factory recording one span per call.

        name is a string or a callable of the call's positional arguments
        returning one.  new_run starts a run id, tagged with the scenario
        kind of the first argument.  after(tracer, args, result) runs once
        the span has closed.
        """
        fixed = None if callable(name) else self.name_id(name)

        def factory(fn):
            def wrapper(*args, **kw):
                nid = fixed if fixed is not None else self.name_id(name(args))
                parent, prev_run = self._span, self._run
                run = prev_run
                if new_run:
                    run = self._next_run
                    self._next_run += 1
                    self.run_kind[run] = args[0].kind
                idx = len(self.span_name)
                self.span_name.append(nid)
                self.span_parent.append(parent)
                self.span_run.append(run)
                self.span_start.append(0.0)
                self.span_end.append(math.nan)
                self.span_agg_child.append(0.0)
                frame = [0.0, 0.0, nid]
                self._frames.append(frame)
                self._span, self._run = idx, run
                t0 = clock()
                try:
                    result = fn(*args, **kw)
                finally:
                    t1 = clock()
                    self.span_start[idx] = t0
                    self.span_end[idx] = t1
                    self.span_agg_child[idx] = frame[1]
                    self._frames.pop()
                    self._span, self._run = parent, prev_run
                    if self._frames:
                        self._frames[-1][0] += t1 - t0
                if after is not None:
                    after(self, args, result)
                return result
            return wrapper
        return factory

    def aggregate(self, name: str):
        """Wrapper factory counting calls and time per run and caller."""
        nid = self.name_id(name)
        frames = self._frames
        aggregates = self.aggregates

        def factory(fn):
            def wrapper(*args, **kw):
                caller = frames[-1][2] if frames else -1
                frame = [0.0, 0.0, nid]
                frames.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kw)
                finally:
                    dt = clock() - t0
                    frames.pop()
                    if frames:
                        frames[-1][1] += dt
                    key = (self._run, nid, caller)
                    own = dt - frame[0] - frame[1]
                    rec = aggregates.get(key)
                    if rec is None:
                        aggregates[key] = [1, dt, own]
                    else:
                        rec[0] += 1
                        rec[1] += dt
                        rec[2] += own
            return wrapper
        return factory

    # ---------------- summaries ----------------

    def span_totals(self) -> dict[str, list]:
        """name -> [calls, inclusive s, self s] over all spans."""
        n = len(self.span_name)
        children = defaultdict(list)
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                children[p].append((self.span_start[i], self.span_end[i]))
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(n):
            s, e = self.span_start[i], self.span_end[i]
            rec = out[self.names[self.span_name[i]]]
            rec[0] += 1
            rec[1] += e - s
            rec[2] += self_time(s, e, children.get(i, ()), self.span_agg_child[i])
        return out

    def aggregate_totals(self, name: str, caller: str | None = None) -> list:
        """[calls, inclusive s, self s] of an aggregated name, optionally per caller."""
        nid = self._ids.get(name, -2)
        cid = self._ids.get(caller, -2) if caller is not None else None
        tot = [0, 0.0, 0.0]
        for (run, n, c), rec in self.aggregates.items():
            if n == nid and (cid is None or c == cid):
                for j in range(3):
                    tot[j] += rec[j]
        return tot

    def substeps_by_run(self) -> dict[int, int]:
        nid = self._ids.get("plant.rk4_step", -2)
        out = defaultdict(int)
        for (run, n, _), rec in self.aggregates.items():
            if n == nid:
                out[run] += rec[0]
        return out

    def save(self, path) -> None:
        """Write the spans and aggregates as one .npz file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        agg = sorted(self.aggregates.items())
        np.savez(
            path,
            names=np.array(self.names),
            span_name=np.frombuffer(self.span_name, dtype=np.int32),
            span_start=np.frombuffer(self.span_start, dtype=np.float64),
            span_end=np.frombuffer(self.span_end, dtype=np.float64),
            span_parent=np.frombuffer(self.span_parent, dtype=np.int32),
            span_run=np.frombuffer(self.span_run, dtype=np.int32),
            span_agg_child_s=np.frombuffer(self.span_agg_child, dtype=np.float64),
            agg_key=np.array([k for k, _ in agg], dtype=np.int64).reshape(-1, 3),
            agg_value=np.array([v for _, v in agg], dtype=np.float64).reshape(-1, 3),
        )
