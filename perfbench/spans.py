"""Layer spans for one study process, and the per-layer metrics made from them.

The tracer wraps the public functions of the `dpglock` modules from outside:
`study_cli` reaches its layers through module attributes (`msh.refine_uniform`,
`slv.solve_spd`, ...) and module globals (`condense_mesh`, `compute_errors`),
so replacing those attributes is enough and no file of the package changes.
A span is `(name, start, end, parent, level)`; `parent` is the index of the
enclosing span (-1 for none) and `level` counts `study_cli.solve_level`
calls.  Spans stay in memory until the study ends.

This module imports only the standard library, so that the child process
can load it before it times `import dpglock`.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# (module, dotted attribute) pairs wrapped in a traced study; the span name
# is "module.attribute".  Per-element helpers that run inside another span
# with no stage of their own (gather_local, cho_solve) are left unwrapped.
WRAPPED = (
    ("mesh", "make_rect_mesh"),
    ("mesh", "classify_boundary"),
    ("mesh", "refine_uniform"),
    ("fem_core", "map_affine"),
    ("poisson_uw", "local_gram_poisson"),
    ("poisson_uw", "local_b_poisson"),
    ("poisson_uw", "local_load_poisson"),
    ("poisson_uw", "dof_map_poisson"),
    ("poisson_uw", "PoissonDofMap.all_element_dofs"),
    ("plate_uw", "local_gram_plate"),
    ("plate_uw", "local_b_plate"),
    ("plate_uw", "local_load_plate"),
    ("plate_uw", "dof_map_plate"),
    ("plate_uw", "PlateDofMap.all_element_dofs"),
    ("solver", "condense_local"),
    ("solver", "condense_rhs"),
    ("solver", "assemble_global"),
    ("solver", "solve_spd"),
    ("solver", "energy_residual"),
    ("study_cli", "run_study"),
    ("study_cli", "exact_bundle"),
    ("study_cli", "solve_level"),
    ("study_cli", "condense_mesh"),
    ("study_cli", "compute_errors"),
    ("study_cli", "write_csv"),
)

# Poisson and plate studies share the element metric names: a study uses one
# of the two modules, and the sweep adds both.
ELEMENT_STAGES = {
    "poisson_uw.local_load_poisson": "load",
    "plate_uw.local_load_plate": "load",
    "poisson_uw.local_gram_poisson": "gram",
    "plate_uw.local_gram_plate": "gram",
    "poisson_uw.local_b_poisson": "b",
    "plate_uw.local_b_plate": "b",
    "poisson_uw.dof_map_poisson": "dofmap",
    "plate_uw.dof_map_plate": "dofmap",
    "poisson_uw.PoissonDofMap.all_element_dofs": "dofmap",
    "plate_uw.PlateDofMap.all_element_dofs": "dofmap",
}


class Tracer:
    """Records spans around the wrapped functions of one study process."""

    def __init__(self):
        self.spans = []
        self.level = -1
        self.sizes = defaultdict(dict)  # level -> triangles / n_free / nnz
        self.solves = []                # (level, matrix, rhs, x) per solve_spd call
        self.missing = []
        self._stack = []
        self._t0 = time.perf_counter()

    def install(self, package) -> None:
        """Wrap every function in WRAPPED that `package` still defines."""
        after = {
            "study_cli.solve_level": self._after_solve_level,
            "solver.solve_spd": self._after_solve,
            "poisson_uw.dof_map_poisson": self._after_dof_map,
            "plate_uw.dof_map_plate": self._after_dof_map,
        }
        for module_name, attr in WRAPPED:
            owner = getattr(package, module_name, None)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            name = f"{module_name}.{attr}"
            if fn is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(fn, name, after.get(name))
            if name == "study_cli.solve_level":
                wrapped = self._counting_levels(wrapped)
            setattr(owner, leaf, wrapped)

    def _wrap(self, fn, name, after):
        spans, stack, clock, t0 = self.spans, self._stack, time.perf_counter, self._t0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start - t0, end - t0, parent, self.level)
            if after is not None:  # outside the span
                after(args, result)
            return result

        return traced

    def _counting_levels(self, fn):
        @functools.wraps(fn)
        def next_level(*args, **kwargs):
            self.level += 1
            return fn(*args, **kwargs)

        return next_level

    def _after_solve_level(self, args, result):
        self.sizes[self.level]["triangles"] = int(args[0].n_triangles)

    def _after_dof_map(self, args, result):
        self.sizes[self.level]["n_free"] = int(result.n_free)

    def _after_solve(self, args, result):
        system = args[0]
        self.sizes[self.level]["nnz"] = int(system.matrix.nnz)
        self.solves.append((self.level, system.matrix, system.rhs, result))

    def certify(self):
        """Relative residual |Ax-b|/|b| and normwise backward error
        |Ax-b| / (|A|_inf |x| + |b|) of every solve, recomputed from the
        system and solution that crossed the solve_spd boundary."""
        import numpy as np

        out = []
        for level, a, b, x in self.solves:
            residual = float(np.linalg.norm(a @ x - b))
            norm_b = float(np.linalg.norm(b))
            scale = float(abs(a).sum(axis=1).max()) * float(np.linalg.norm(x)) + norm_b
            out.append({"level": level,
                        "rel_residual": residual / norm_b if norm_b > 0 else 0.0,
                        "backward_error": residual / scale if scale > 0 else 0.0})
        self.solves.clear()
        return out

    def record(self) -> dict:
        return {"spans": self.spans,
                "sizes": {str(k): v for k, v in sorted(self.sizes.items())},
                "missing": self.missing}


def span_totals(spans):
    """Per span name: (calls, total seconds, self seconds).  Self time is a
    span's duration minus the durations of its direct children; the tracer
    is single-threaded, so children never overlap."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child[i]
    return calls, total, own


def study_metrics(record) -> dict:
    """Per-layer metrics of one traced study (see PER_LAYER in run.py) from
    the result file of its child process."""
    spans, certs = record["spans"], record["certs"]
    calls, total, own = span_totals(spans)
    sizes = record["sizes"]
    top = sizes[max(sizes, key=int)] if sizes else {}
    top_level = max((s[4] for s in spans), default=-1)

    stage_calls = defaultdict(int)
    stage_s = defaultdict(float)
    for name, stage in ELEMENT_STAGES.items():
        stage_calls[stage] += calls[name]
        stage_s[stage] += total[name]

    run_spans = {i for i, s in enumerate(spans) if s[0] == "study_cli.run_study"}
    covered = sum(s[2] - s[1] for s in spans if s[3] in run_spans)
    return {
        "study_cli.run_study_s": total["study_cli.run_study"],
        "study_cli.condense_self_s": own["study_cli.condense_mesh"],
        "study_cli.errors_self_s": own["study_cli.compute_errors"],
        "fem_core.map_affine_s": total["fem_core.map_affine"],
        "fem_core.map_affine_calls": calls["fem_core.map_affine"],
        "uw.load_s": stage_s["load"],
        "uw.load_calls": stage_calls["load"],
        "uw.gram_s": stage_s["gram"],
        "uw.gram_calls": stage_calls["gram"],
        "uw.b_s": stage_s["b"],
        "uw.dofmap_s": stage_s["dofmap"],
        "uw.n_free": top.get("n_free", 0),
        "solver.condense_local_s": total["solver.condense_local"],
        "solver.condense_rhs_s": total["solver.condense_rhs"],
        "solver.assemble_s": total["solver.assemble_global"],
        "solver.solve_s": total["solver.solve_spd"],
        "solver.solve_top_s": sum(s[2] - s[1] for s in spans
                                  if s[0] == "solver.solve_spd" and s[4] == top_level),
        "solver.nnz": top.get("nnz", 0),
        "solver.eta_s": total["solver.energy_residual"],
        "solver.eta_calls": calls["solver.energy_residual"],
        "solver.rel_residual_max": max((c["rel_residual"] for c in certs), default=0.0),
        "solver.backward_error_max": max((c["backward_error"] for c in certs), default=0.0),
        "mesh.refine_s": total["mesh.refine_uniform"],
        "mesh.triangles": top.get("triangles", 0),
        "trace.covered_s": covered,
    }
