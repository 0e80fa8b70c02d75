"""Span recorder that traces qopt from the outside.

Public functions are wrapped by rebinding each name where the program looks
it up (a module attribute, a class attribute or a dict entry), and the
originals are put back afterwards. Nothing inside ``src/qopt`` is edited.
Spans live in flat in-memory columns and are written once, at the end.
The benchmark runs one caller in one thread, so a plain stack gives each
span its parent.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from typing import Callable

import numpy as np


class Tracer:
    """Records spans (name, parent, start, end, work units) in flat arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("q")
        self.parent = array("q")
        self.work = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, work: Callable | None = None) -> Callable:
        """``fn`` with a span around each call; ``work(*args)`` counts its units."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        names, parents, works, starts, ends = self.name, self.parent, self.work, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            works.append(work(*args, **kwargs) if work is not None else 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()

        return traced

    def patch(self, owner, key: str, name: str, work: Callable | None = None) -> None:
        """Rebind ``owner.key`` (or ``owner[key]`` for a dict) to a traced wrapper."""
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = self.wrap(name, original, work)
        else:
            original = getattr(owner, key)
            setattr(owner, key, self.wrap(name, original, work))
        self._undo.append((owner, key, original))

    def restore(self) -> None:
        """Put back every original patched since the last restore."""
        while self._undo:
            owner, key, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def _columns(self) -> dict[str, np.ndarray]:
        return {
            col: np.array(getattr(self, col), dtype=np.float64 if col in ("start", "end") else np.int64)
            for col in ("name", "parent", "work", "start", "end")
        }

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds and work units.

        Self time is a span's duration minus the durations of its direct
        children; spans nest, so that is the part no child covers.
        """
        cols = self._columns()
        dur = cols["end"] - cols["start"]
        nested = cols["parent"] >= 0
        child_s = np.bincount(cols["parent"][nested], weights=dur[nested], minlength=dur.shape[0])
        out = {}
        for nid, name in enumerate(self.names):
            mask = cols["name"] == nid
            out[name] = {
                "calls": int(mask.sum()),
                "s": float(dur[mask].sum()),
                "self_s": float((dur[mask] - child_s[mask]).sum()),
                "work": int(cols["work"][mask].sum()),
            }
        return out

    def count_with_child(self, name: str, child: str) -> int:
        """How many ``name`` spans have at least one direct ``child`` span."""
        if name not in self.names or child not in self.names:
            return 0
        cols = self._columns()
        kids = cols["parent"][cols["name"] == self.names.index(child)]
        spans = np.flatnonzero(cols["name"] == self.names.index(name))
        return int(np.isin(spans, kids).sum())

    def write(self, path) -> None:
        """Write every span as one JSON line: id, parent, name, start, end, work."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (nid, parent, work, start, end) in enumerate(
                zip(self.name, self.parent, self.work, self.start, self.end)
            ):
                fh.write(
                    f'{{"id": {sid}, "parent": {parent}, "name": "{self.names[nid]}", '
                    f'"start": {start!r}, "end": {end!r}, "work": {work}}}\n'
                )


@contextmanager
def traced_program(tracer: Tracer):
    """Install spans on qopt's public entry points for the duration of the block."""
    import qopt.bench as bench
    import qopt.cli as cli
    import qopt.model as model
    import qopt.solvers as solvers

    try:
        tracer.patch(model.DiagonalObjective, "energies_at", "model.energies_at",
                     work=lambda self, indices: int(np.size(indices)))
        tracer.patch(model.DiagonalObjective, "value", "model.value")
        tracer.patch(solvers, "qaoa_state", "simulator.qaoa_state",
                     work=lambda obj, params, *a, **k: params.p << obj.n)
        for fn in ("energy_table", "expectation", "sample", "cvar"):
            tracer.patch(solvers, fn, f"simulator.{fn}")
        tracer.patch(bench, "energy_table", "simulator.energy_table")
        for fn in ("brute_force", "simulated_annealing", "grover_adaptive_search", "qaoa_solve"):
            tracer.patch(solvers, fn, f"solvers.{fn}")
        for key, fn in list(bench.SOLVERS.items()):
            tracer.patch(bench.SOLVERS, key, f"solvers.{fn.__name__}")
        for key in list(bench.GENERATORS):
            tracer.patch(bench.GENERATORS, key, "problems.generate")
        # Inside the bench harness ``brute_force`` is only the reference
        # enumeration of the post-processing stage.
        tracer.patch(bench, "brute_force", "bench.reference")
        tracer.patch(cli, "run_benchmark", "bench.run_benchmark")
        yield tracer
    finally:
        tracer.restore()
