"""Spans around the calls into the nipg2d layers, recorded from outside.

``cli.run_study`` and ``analysis.supercloseness_error`` look the layer
functions up on their module objects at call time, so replacing those
module attributes with timing wrappers traces the unmodified pipeline.
:meth:`Tracer.installed` puts the wrappers in place for one sweep and puts
the originals back afterwards.

Each span records its name, start, end, parent span and the (k, eps, N)
cell it belongs to, plus the counts its layer produced (edges, nnz, dofs,
solver iterations, residuals).  Spans stay in memory; the caller writes
them out when the run ends.
"""

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from nipg2d import analysis, assembly, mesh, solver

#: (module, function) pairs replaced by timing wrappers; each one is called
#: at least once per (k, eps, N) cell by every workload
WRAPPED = (
    (mesh, "build_mesh"),
    (mesh, "classify_edges"),
    (assembly, "assemble"),
    (solver, "solve"),
    (analysis, "supercloseness_error"),
    (analysis, "interpolate_vee_global"),
    (analysis, "interpolate_composite"),
    (analysis, "energy_norm"),
    (analysis, "broken_l2_error"),
)

#: per-layer time metric -> spans whose self times it sums
LAYER_TIMES = {
    "mesh.build_mesh_s": ("mesh.build_mesh",),
    "mesh.classify_edges_s": ("mesh.classify_edges",),
    "assembly.assemble_s": ("assembly.assemble",),
    "solver.solve_s": ("solver.solve",),
    "analysis.interpolate_vee_s": ("analysis.interpolate_vee_global",),
    "analysis.interpolate_composite_s": ("analysis.interpolate_composite",),
    "analysis.energy_norm_s": ("analysis.energy_norm",),
    "analysis.broken_l2_s": ("analysis.broken_l2_error",),
    "analysis.supercloseness_self_s": ("analysis.supercloseness_error",),
    "cli.run_study_self_s": ("cli.run_study",),
    "cli.format_s": ("cli.format_csv", "cli.format_markdown"),
}

#: per-layer count metric -> (span name, info key, reduction over spans)
LAYER_COUNTS = {
    "mesh.edges": ("mesh.classify_edges", "edges", sum),
    "assembly.nnz": ("assembly.assemble", "nnz", sum),
    "assembly.dofs": ("assembly.assemble", "dofs", sum),
    "solver.iterations": ("solver.solve", "iterations", sum),
    "solver.not_converged": ("solver.solve", "not_converged", sum),
    "solver.residual_max": ("solver.solve", "residual", max),
    "solver.backward_error_max": ("bench.backward_error", "backward_error",
                                  max),
}


def span_name(module, attr):
    """``mesh.build_mesh`` for ``nipg2d.mesh.build_mesh``."""
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


class TracerError(RuntimeError):
    """The traced run cannot be trusted: a layer is missing, a cell was
    not reached, or tracing changed the results."""


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    cell: tuple | None
    info: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def backward_error(matrix, rhs, x):
    """Normwise backward error |b - Ax|_inf / (|A|_inf |x|_inf + |b|_inf)."""
    rhs = np.asarray(rhs, dtype=float)
    a_norm = float(abs(matrix).sum(axis=1).max())
    r_norm = float(np.max(np.abs(rhs - matrix @ x)))
    denom = a_norm * float(np.max(np.abs(x))) + float(np.max(np.abs(rhs)))
    return r_norm / denom if denom > 0 else r_norm


class Tracer:
    """Records the spans of one sweep over the cells ``expected_cells``."""

    def __init__(self, expected_cells):
        self.expected_cells = list(expected_cells)
        self.spans = []
        self._stack = []
        self._next_cell = 0
        self.cell = None

    @contextmanager
    def span(self, name):
        span = Span(len(self.spans), name, 0.0, 0.0,
                    self._stack[-1].id if self._stack else None, self.cell)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _enter_cell(self, mesh_config):
        """Each build_mesh call opens the next cell run_study runs."""
        if self._next_cell >= len(self.expected_cells):
            raise TracerError("build_mesh called more often than there are "
                              "cells in the sweep")
        cell = self.expected_cells[self._next_cell]
        _, eps, n = cell
        if (mesh_config.n, mesh_config.eps) != (n, eps):
            raise TracerError(
                f"build_mesh(N={mesh_config.n}, eps={mesh_config.eps}) does "
                f"not match the expected cell {cell}")
        self._next_cell += 1
        self.cell = cell

    def _record(self, name, span, args, kwargs, result):
        """Counts at the layer boundary; the backward error is computed
        in its own span, outside the solve span."""
        if name == "mesh.classify_edges":
            span.info["edges"] = len(result)
        elif name == "assembly.assemble":
            dofmap = args[2] if len(args) > 2 else kwargs["dofmap"]
            if dofmap.k != self.cell[0]:
                raise TracerError(f"assemble(k={dofmap.k}) does not match "
                                  f"the expected cell {self.cell}")
            span.info["nnz"] = int(result.matrix.nnz)
            span.info["dofs"] = int(result.matrix.shape[0])
        elif name == "solver.solve":
            x, report = result
            span.info.update(iterations=int(report.iterations),
                             not_converged=int(not report.converged),
                             residual=float(report.residual))
            system = args[0] if args else kwargs["system"]
            with self.span("bench.backward_error") as check:
                check.info["backward_error"] = backward_error(
                    system.matrix, system.rhs, x)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "mesh.build_mesh":
                self._enter_cell(args[0] if args else kwargs["config"])
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            self._record(name, span, args, kwargs, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Replace every WRAPPED function by its timing wrapper for the
        duration of the block, then restore the originals."""
        originals = []
        for module, attr in WRAPPED:
            fn = getattr(module, attr, None)
            if not callable(fn):
                raise TracerError(f"{module.__name__}.{attr} does not exist; "
                                  "the layer was renamed or inlined")
            originals.append((module, attr, fn))
        try:
            for module, attr, fn in originals:
                setattr(module, attr, self._wrap(span_name(module, attr), fn))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def check_coverage(self):
        """Every wrapped layer recorded at least one span in every cell."""
        if self._next_cell != len(self.expected_cells):
            raise TracerError(
                f"only {self._next_cell} of {len(self.expected_cells)} cells "
                "reached build_mesh")
        seen = defaultdict(set)
        for span in self.spans:
            seen[span.cell].add(span.name)
        wrapped = [span_name(module, attr) for module, attr in WRAPPED]
        for cell in self.expected_cells:
            missing = [name for name in wrapped if name not in seen[cell]]
            if missing:
                raise TracerError(f"cell {cell} recorded no span for "
                                  f"{', '.join(missing)}")


def self_times(spans):
    """Span id -> duration minus the time its child spans cover."""
    covered = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return {span.id: span.duration - covered[span.id] for span in spans}


def layer_metrics(spans):
    """Per-layer metrics of one traced sweep (sums over its cells)."""
    own = self_times(spans)
    metrics = {}
    for metric, names in LAYER_TIMES.items():
        metrics[metric] = sum(own[s.id] for s in spans if s.name in names)
    for metric, (name, key, reduce) in LAYER_COUNTS.items():
        metrics[metric] = reduce(s.info[key] for s in spans if s.name == name)
    return metrics
