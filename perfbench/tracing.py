"""Spans recorded from outside the package, and the per-layer metrics they give.

`Tracer.install` replaces public functions and methods of the `divdivfem`
modules with timing wrappers, at the place where their callers look them up
(a module global, a class attribute, or `eb_solver.spla.splu`).  Nothing under
`src/` is edited.  Each call becomes one span, kept in memory as
``[name, start, end, parent, attrs]``; the benchmark writes them out once, at
the end of the run.  Every per-layer metric is derived from the spans.
"""

from __future__ import annotations

import functools
import statistics
import time


def _nnz_attrs(args, kwargs, out):
    return {"nnz": int(out.nnz)}


def _qr_flop_attrs(args, kwargs, out):
    m, n = args[0].shape
    m, n = max(m, n), min(m, n)
    # Householder QR of an m x n matrix (m >= n): 2 m n^2 - 2 n^3 / 3 flops
    return {"qr_flop": int(2 * m * n * n - 2 * n ** 3 // 3)}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._lu_nnz: dict[int, int] = {}

    # -- recording -------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, attrs=None):
        """Replace owner.attr by a wrapper that records one span per call."""
        orig = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, out)
            return out

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, orig))

    def uninstall(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- the layer boundaries -----------------------------------------------------
    def install(self):
        from divdivfem import (complex_asm, dofcommon, eb_solver, exact, fe2d, fe3d,
                               mesh, poly, quadrature)

        w = self.wrap
        w(mesh, "load", "mesh.load")
        w(eb_solver, "load_mesh", "mesh.load")
        w(complex_asm, "build_element", "fe3d.build_element")
        w(dofcommon.Element, "finalize", "dofcommon.Element.finalize")
        w(quadrature.QuadRule, "on", "quadrature.QuadRule.on")

        GS = complex_asm.GlobalSpace
        w(GS, "__init__", "complex_asm.GlobalSpace.init")
        w(GS, "mass", "complex_asm.GlobalSpace.mass")
        w(GS, "interpolate", "complex_asm.GlobalSpace.interpolate")
        for mod in (complex_asm, eb_solver):
            w(mod, "assemble_diff", "complex_asm.assemble_diff", _nnz_attrs)
        w(complex_asm, "build_complex", "complex_asm.build_complex")
        w(complex_asm, "complex_audit", "complex_asm.complex_audit")
        w(complex_asm, "sparse_rank", "complex_asm.sparse_rank", _qr_flop_attrs)
        w(complex_asm, "qr_rank", "linalg.qr_rank")
        for mod in (complex_asm, poly, fe3d, fe2d):
            w(mod, "svd_rank", "linalg.svd_rank")
        w(poly, "poly_complex_audit", "poly.poly_complex_audit")
        w(exact, "rank_3d", "exact.rank_3d")

        EB = eb_solver.EBSystem
        w(EB, "__init__", "eb_solver.EBSystem.init")
        w(EB, "skew_block", "eb_solver.EBSystem.skew_block", _nnz_attrs)
        w(EB, "cn_factorization", "eb_solver.EBSystem.cn_factorization",
          lambda a, kw, out: {"lu_nnz": self._lu_nnz.get(id(out[0]), 0)})
        w(EB, "cn_step", "eb_solver.EBSystem.cn_step")
        w(EB, "energy", "eb_solver.EBSystem.energy")
        w(EB, "project", "eb_solver.EBSystem.project")
        w(EB, "assemble_forms", "eb_solver.EBSystem.assemble_forms")
        MD = eb_solver.MMSDriver
        w(MD, "__init__", "eb_solver.MMSDriver.init")
        w(MD, "forcing", "eb_solver.MMSDriver.forcing")
        w(MD, "errors", "eb_solver.MMSDriver.errors")
        w(MD, "pointwise_errors", "eb_solver.MMSDriver.pointwise_errors")
        for fn in ("run", "mms_convergence", "infsup_estimate", "vnorm_block"):
            w(eb_solver, fn, f"eb_solver.{fn}")

        def splu_attrs(args, kwargs, out):
            lu_nnz = int(out.L.nnz + out.U.nnz)
            self._lu_nnz[id(out)] = lu_nnz
            return {"lu_nnz": lu_nnz, "a_nnz": int(args[0].nnz)}

        # eb_solver is the package's only caller of splu, through its `spla` module
        w(eb_solver.spla, "splu", "eb_solver.splu", splu_attrs)
        return self


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "mesh.load.busy_s": "s",
    "fe3d.build_element.calls": "count",
    "fe3d.build_element.busy_s": "s",
    "dofcommon.Element.finalize.busy_s": "s",
    "complex_asm.GlobalSpace.init.self_s": "s",
    "complex_asm.GlobalSpace.mass.busy_s": "s",
    "complex_asm.assemble_diff.busy_s": "s",
    "complex_asm.assemble_diff.nnz": "count",
    "complex_asm.build_complex.busy_s": "s",
    "complex_asm.GlobalSpace.interpolate.busy_s": "s",
    "eb_solver.EBSystem.skew_block.calls": "count",
    "eb_solver.EBSystem.skew_block.nnz": "count",
    "eb_solver.EBSystem.skew_block.busy_s": "s",
    "eb_solver.splu.calls": "count",
    "eb_solver.splu.busy_s": "s",
    "eb_solver.splu.lu_nnz": "count",
    "eb_solver.splu.fill_ratio": "1",
    "eb_solver.EBSystem.cn_factorization.hit_ratio": "1",
    "eb_solver.EBSystem.project.busy_s": "s",
    "eb_solver.EBSystem.cn_step.calls": "count",
    "eb_solver.EBSystem.cn_step.busy_s": "s",
    "eb_solver.EBSystem.cn_step.p50_ms": "ms",
    "eb_solver.EBSystem.cn_step.p99_ms": "ms",
    "eb_solver.EBSystem.cn_step.solve_flop": "flop",
    "eb_solver.EBSystem.energy.busy_s": "s",
    "eb_solver.run.self_s": "s",
    "eb_solver.MMSDriver.init.busy_s": "s",
    "eb_solver.EBSystem.assemble_forms.busy_s": "s",
    "eb_solver.MMSDriver.forcing.calls": "count",
    "eb_solver.MMSDriver.forcing.busy_s": "s",
    "eb_solver.MMSDriver.errors.busy_s": "s",
    "eb_solver.MMSDriver.pointwise_errors.busy_s": "s",
    "quadrature.QuadRule.on.calls": "count",
    "complex_asm.sparse_rank.calls": "count",
    "complex_asm.sparse_rank.busy_s": "s",
    "complex_asm.sparse_rank.qr_flop": "flop",
    "linalg.qr_rank.busy_s": "s",
    "linalg.svd_rank.busy_s": "s",
    "eb_solver.infsup_estimate.busy_s": "s",
    "eb_solver.vnorm_block.busy_s": "s",
    "poly.poly_complex_audit.busy_s": "s",
    "exact.rank_3d.busy_s": "s",
    "trace.overhead_s": "s",
}


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _percentile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one repetition (every name in PER_LAYER but the overhead)."""
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)
    selfs = self_times(spans)
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def outermost(name):
        """Spans of this name with no ancestor of the same name (no double count)."""
        keep = []
        for i in idx(name):
            p = spans[i][3]
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                keep.append(i)
        return keep

    def attr_sum(name, key):
        return sum((spans[i][4] or {}).get(key, 0) for i in idx(name))

    m: dict[str, float] = {}
    for metric in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            m[metric] = len(idx(layer))
        elif kind == "busy_s":
            m[metric] = sum(spans[i][2] - spans[i][1] for i in outermost(layer))
        elif kind == "self_s":
            m[metric] = sum(selfs[i] for i in idx(layer))
        elif kind in ("nnz", "lu_nnz", "qr_flop"):
            m[metric] = attr_sum(layer, kind)

    a_nnz = attr_sum("eb_solver.splu", "a_nnz")
    m["eb_solver.splu.fill_ratio"] = m["eb_solver.splu.lu_nnz"] / a_nnz if a_nnz else 0.0

    # a factorisation call is a hit when it returned a cached LU without splu
    fact = idx("eb_solver.EBSystem.cn_factorization")
    misses = sum(1 for i in fact
                 if any(spans[c][0] == "eb_solver.splu" for c in children.get(i, [])))
    m["eb_solver.EBSystem.cn_factorization.hit_ratio"] = (
        (len(fact) - misses) / len(fact) if fact else 0.0)

    steps = idx("eb_solver.EBSystem.cn_step")
    ms = sorted(1e3 * (spans[i][2] - spans[i][1]) for i in steps)
    m["eb_solver.EBSystem.cn_step.p50_ms"] = _percentile(ms, 50)
    m["eb_solver.EBSystem.cn_step.p99_ms"] = _percentile(ms, 99)
    # one forward and one backward triangular solve: 2 flops per L+U entry
    m["eb_solver.EBSystem.cn_step.solve_flop"] = sum(
        2 * (spans[c][4] or {}).get("lu_nnz", 0)
        for i in steps for c in children.get(i, [])
        if spans[c][0] == "eb_solver.EBSystem.cn_factorization")
    return m
