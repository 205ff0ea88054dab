"""Spans around each layer's public entry points, for the traced pass.

`Tracer.install` replaces each entry point in the module where its callers
look it up (the basis-spec oracle resolves `classes.avoids`, the machine
oracle `machines.is_sortable`, `antichain.witness_division` resolves
`antichain.exists_division_avoiding`) with a wrapper that records a span:
name, start, end and the enclosing span.  Spans stay in flat arrays in
memory; `layer_metrics` folds them into the per-layer metrics when the
pass ends.  A span's self time is its duration minus the durations of its
child spans.

The per-search `failed` memo tables of the machine searches are local to
each search.  During the traced pass `popsort.machines` sees a `set` that
registers every table it builds, and the largest table is kept as
`machines.memo_peak_states`.  Only those tables are built with `set()`
in that module.
"""
from __future__ import annotations

import time
from array import array
from typing import Any, Callable

from popsort import antichain, classes, divided, machines, series
from popsort.machines import MachineKind

_ORACLE_PARENTS = ("classes.count", "classes.basis")


class _MemoTable(set):
    """`set` as seen by popsort.machines while tracing: registers itself."""

    created: list[set] = []

    def __init__(self, *args):
        super().__init__(*args)
        _MemoTable.created.append(self)


class Tracer:
    def __init__(self) -> None:
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ok = array("b")       # the call answered yes / found something
        self._open: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self.witness_moves = 0
        self.memo_peak_states = 0

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def wrap(self, owner, attr: str, name: str | Callable[[tuple], str]) -> None:
        """Replace owner.attr by a spanned call; `name` may depend on the args."""
        fn = getattr(owner, attr)
        fixed = None if callable(name) else self._name_id(name)
        clock = time.perf_counter
        tables = _MemoTable.created
        tracer = self

        def spanned(*args, **kwargs):
            nid = fixed if fixed is not None else tracer._name_id(name(args))
            idx = len(tracer.name)
            tracer.name.append(nid)
            tracer.parent.append(tracer._open[-1] if tracer._open else -1)
            tracer.end.append(0.0)
            tracer.ok.append(0)
            tracer._open.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer._open.pop()
                if tables:  # memo tables of the search that just returned
                    tracer.memo_peak_states = max(
                        tracer.memo_peak_states, max(len(t) for t in tables))
                    tables.clear()
            if result is not None and result is not False:
                tracer.ok[idx] = 1
            return result

        self._undo.append((owner, attr, fn))
        setattr(owner, attr, spanned)

    def install(self) -> None:
        by_kind = lambda args: f"machines.{args[0].value}"  # noqa: E731
        self.wrap(machines, "is_sortable", by_kind)
        self.wrap(machines, "sorting_witness", by_kind)
        witness = machines.sorting_witness

        def counted_witness(*args, **kwargs):
            moves = witness(*args, **kwargs)
            if moves is not None:
                self.witness_moves += len(moves)
            return moves

        self._undo.append((machines, "sorting_witness", machines.sorting_witness))
        machines.sorting_witness = counted_witness
        self._undo.append((machines, "set", None))
        machines.set = _MemoTable
        self.wrap(classes, "count_members", "classes.count")
        self.wrap(classes, "compute_basis", "classes.basis")
        self.wrap(classes, "structural_member", "classes.structural")
        self.wrap(classes, "avoids", "perms.avoids")
        self.wrap(divided, "exists_division_avoiding", "divided.search")
        self.wrap(antichain, "exists_division_avoiding", "divided.search")
        self.wrap(antichain, "check_basis_element", "antichain.basis_element")
        self.wrap(antichain, "check_antichain", "antichain.pairs")
        self.wrap(series, "closed_form", "series.closed_form")
        self.wrap(series, "fixed_point", "series.fixed_point")
        self.wrap(series.PowerSeries, "__mul__", "series.mul")
        self.wrap(series.PowerSeries, "__rmul__", "series.mul")
        self.wrap(series.PowerSeries, "__truediv__", "series.div")

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            if fn is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, fn)
        self._undo.clear()

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer counts and busy/self times, as {metric: (value, unit)}."""
        n = len(self.name)
        names = [self._names[i] for i in self.name]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]

        def outermost(i: int) -> bool:  # not inside a span of its own name
            j = self.parent[i]
            while j >= 0:
                if names[j] == names[i]:
                    return False
                j = self.parent[j]
            return True

        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        self_s: dict[str, float] = {}
        found: dict[str, int] = {}
        for i in range(n):
            key = names[i]
            calls[key] = calls.get(key, 0) + 1
            found[key] = found.get(key, 0) + self.ok[i]
            self_s[key] = self_s.get(key, 0.0) + dur[i] - child[i]
            if outermost(i):
                busy[key] = busy.get(key, 0.0) + dur[i]

        oracle = [i for i in range(n) if self.parent[i] >= 0
                  and names[self.parent[i]] in _ORACLE_PARENTS]
        searches = calls.get("divided.search", 0)
        out: dict[str, tuple[float, str]] = {}
        for kind in MachineKind:
            key = f"machines.{kind.value}"
            out[f"{key}.calls"] = (calls.get(key, 0), "count")
            out[f"{key}.busy_s"] = (busy.get(key, 0.0), "s")
        out["machines.witness_moves"] = (self.witness_moves, "count")
        out["machines.memo_peak_states"] = (self.memo_peak_states, "count")
        for layer in ("count", "basis", "structural"):
            out[f"classes.{layer}.busy_s"] = (busy.get(f"classes.{layer}", 0.0), "s")
        out["classes.oracle_calls"] = (len(oracle), "count")
        out["classes.members_per_oracle_call"] = (
            sum(self.ok[i] for i in oracle) / len(oracle) if oracle else 0.0, "ratio")
        out["classes.self_s"] = (sum(self_s.get(k, 0.0) for k in _ORACLE_PARENTS), "s")
        out["classes.structural_memo_entries"] = (len(classes._structural_memo), "count")
        out["perms.avoids.calls"] = (calls.get("perms.avoids", 0), "count")
        out["perms.avoids.busy_s"] = (busy.get("perms.avoids", 0.0), "s")
        out["divided.searches"] = (searches, "count")
        out["divided.busy_s"] = (busy.get("divided.search", 0.0), "s")
        out["divided.found_ratio"] = (
            found.get("divided.search", 0) / searches if searches else 0.0, "ratio")
        ac = ("antichain.basis_element", "antichain.pairs")
        out["antichain.busy_s"] = (sum(busy.get(k, 0.0) for k in ac), "s")
        out["antichain.self_s"] = (sum(self_s.get(k, 0.0) for k in ac), "s")
        for fn in ("closed_form", "fixed_point"):
            out[f"series.{fn}.busy_s"] = (busy.get(f"series.{fn}", 0.0), "s")
        for op in ("mul", "div"):
            out[f"series.{op}.calls"] = (calls.get(f"series.{op}", 0), "count")
            out[f"series.{op}.busy_s"] = (busy.get(f"series.{op}", 0.0), "s")
        out["trace.spans"] = (n, "count")
        return out
