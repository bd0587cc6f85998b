"""In-memory span tracer installed from outside the package.

Each traced function is replaced, in every ``reidemeister`` module that
binds it, by a wrapper that records one span: name, start, end, parent
span and operation id.  Patching every binding matters because modules
import names directly (``cli``, ``_sweep``, ``spectra`` and ``oracle``
each hold their own ``is_automorphism`` or ``product_number``), so
patching only the defining module would miss those calls.  A layer's
self time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from contextlib import contextmanager

# (module, function).  The metric names use the module name without its
# leading underscore as the layer, so that they start with a letter.
TRACED = [
    ("reidemeister.cli", "main"),
    ("reidemeister.cli", "build_parser"),
    ("reidemeister._sweep", "sweep_cell"),
    ("reidemeister._sweep", "triple_check"),
    ("reidemeister._sweep", "_decode"),
    ("reidemeister._sweep", "_batch_det"),
    ("reidemeister._sweep", "_fix_exponents"),
    ("reidemeister._sweep", "_structure_ok"),
    ("reidemeister.oracle", "brute_fixed_points"),
    ("reidemeister.oracle", "twisted_class_count"),
    ("reidemeister.spectra", "product_number"),
    ("reidemeister.spectra", "witness"),
    ("reidemeister.spectra", "find_irreducible"),
    ("reidemeister.decomposition", "restrict"),
    ("reidemeister.decomposition", "column_structure_check"),
    ("reidemeister.endo", "fixed_point_count"),
    ("reidemeister.endo", "is_automorphism"),
    ("reidemeister.core", "smith_invariants"),
    ("reidemeister.core", "det_mod_p"),
    ("reidemeister.core", "factorize"),
]

# Batched stages of sweep_cell; its other traced children are the
# per-object sample re-anchoring calls.
SWEEP_STAGES = {"sweep._decode", "sweep._batch_det", "sweep._fix_exponents", "sweep._structure_ok"}
OP = "op"


def span_name(module: str, fn: str) -> str:
    return f"{module.rsplit('.', 1)[1].lstrip('_')}.{fn}"


def span_names() -> list[str]:
    return [span_name(module, fn) for module, fn in TRACED]


class Tracer:
    """Records spans while installed and ``active``."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.reports: list[object] = []  # what sweep_cell / triple_check returned
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op = -1
        self.active = False
        self.absent: list[str] = []

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, op: int):
        """Root span of one benchmark operation."""
        self.op = op
        idx = self._enter(OP)
        try:
            yield
        finally:
            self._exit(idx)

    @contextmanager
    def paused(self):
        """Answer checks call the library too; keep them out of the trace."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, name: str, fn):
        tracer = self
        keep_result = name in ("sweep.sweep_cell", "sweep.triple_check")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if keep_result:
                tracer.reports.append(out)
            return out

        return traced

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "reidemeister" or key.startswith("reidemeister."))
        ]
        for modname, fn_name in TRACED:
            original = getattr(importlib.import_module(modname), fn_name, None)
            name = span_name(modname, fn_name)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, inclusive and self seconds per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += end - start - child
        return out

    def sweep_engine_split(self) -> tuple[float, float]:
        """(batched-engine seconds, lattice-stage seconds) inside sweep_cell.

        The engine is sweep_cell's inclusive time minus its per-object
        sample children, so it holds the batched stages and the glue."""
        engine = lattice = 0.0
        cells = {i for i, s in enumerate(self.spans) if s[0] == "sweep.sweep_cell"}
        for idx in cells:
            engine += self.spans[idx][2] - self.spans[idx][1]
        for name, start, end, parent, _ in self.spans:
            if parent in cells:
                if name == "sweep._fix_exponents":
                    lattice += end - start
                elif name not in SWEEP_STAGES:
                    engine -= end - start
        return engine, lattice

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
