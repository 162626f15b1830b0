"""Spans and counters around the layer functions of tetindex.

`install()` replaces each traced function by a wrapper at every place the
package binds it: the defining module and every module that imported the
name (``identities.tet_index``, ``bailey._grow_symmetric_window``, ...).
Sites are found by object identity, so a new import site is covered
without being listed here.

A span records its duration and the part of it covered by child spans;
self time is the difference.  Hot functions aggregate calls and self time
only; the coarse layer-boundary spans are also kept in full (name, start,
end, parent, job) and written out when the pass ends.  Hot tiny functions
are only counted.
"""

from __future__ import annotations

import sys
import time

# span name -> the (module, attribute) sites of the functions it wraps
SPANS = {
    "series.mul": [("tetindex.series", "QSeries.__mul__")],
    "series.inverse": [("tetindex.series", "QSeries.inverse")],
    "series.add": [("tetindex.series", "QSeries.__add__")],
    "series.qpoch": [("tetindex.series", "qpoch")],
    "tetrahedron.tet_index": [("tetindex.tetrahedron", "tet_index")],
    "tetrahedron.min_degree_bound": [("tetindex.tetrahedron", "min_degree_bound")],
    "identities.charge_product": [("tetindex.identities", "charge_product")],
    "identities.window": [("tetindex.identities", "_grow_symmetric_window")],
    "identities.check": [
        ("tetindex.identities", name)
        for name in (
            "triality_check",
            "pentagon_check",
            "pentagon_shifted_check",
            "pentagon_window_extent",
            "pentagon_shifted_window_extent",
        )
    ],
    "lattice.eval": [("tetindex.lattice", "eval_expr_with_box")],
    "bailey.verify": [("tetindex.bailey", "bailey_verify")],
    "cli.run": [("tetindex.cli", "run")],
}
COUNTED = {
    "tetrahedron.tet_term": ("tetindex.tetrahedron", "tet_term"),
    "tetrahedron.analytic_degree_lb": ("tetindex.tetrahedron", "analytic_degree_lb"),
}
# spans kept in full; the others only aggregate
RECORDED = {
    "cli.run",
    "identities.check",
    "identities.window",
    "identities.charge_product",
    "lattice.eval",
    "bailey.verify",
}


def _mul_ops(a, b) -> int:
    """Coefficient products of schoolbook a*b, from the operand lengths."""
    if not a.coeffs or not b.coeffs:
        return 0
    n = min(a.prec + b.lead, b.prec + a.lead) - a.lead - b.lead
    la, lb = min(len(a.coeffs), max(n, 0)), len(b.coeffs)
    # sum over i < la of min(lb, n - i); the first c terms are lb
    c = max(0, min(la, n - lb + 1))
    return c * lb + (la - c) * n - (la - 1 + c) * (la - c) // 2


def _inverse_ops(a) -> int:
    """Coefficient products of the inverse recursion: sum_k min(k, len-1)."""
    n, t = a.prec, len(a.coeffs) - 1
    if n - 1 <= t:
        return (n - 1) * n // 2
    return t * (t + 1) // 2 + (n - 1 - t) * t


class Tracer:
    def __init__(self):
        self.job = None
        self.spans = {}  # name -> [calls, self_ns]
        self.counts = {}
        self.records = []  # [id, name, start_ns, end_ns, parent_id, job]
        self.windows = []  # extent of every symmetric window, in call order
        self.boxes = []  # [job, extent, points] per lattice evaluation
        self.bailey_windows = []  # [job, state depth, level, m, extent]
        self._stack = []  # [name, child_ns, record id of nearest recorded span]

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name, fn, before=None, after=None):
        stack, clock, recorded = self._stack, time.perf_counter_ns, name in RECORDED
        agg = self.spans.setdefault(name, [0, 0])

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1][2] if stack else None
            rid = len(self.records) if recorded else parent
            if recorded:
                self.records.append(None)
            frame = [name, 0, rid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                agg[0] += 1
                agg[1] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if recorded:
                    self.records[rid] = [rid, name, start, end, parent, self.job]
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict:
        return {
            "spans": self.spans,
            "counts": self.counts,
            "windows": self.windows,
            "boxes": self.boxes,
            "bailey_windows": self.bailey_windows,
        }

    # -- hooks ------------------------------------------------------------

    def _index_lookup(self, args):
        m, e, prec = args
        cached = sys.modules["tetindex.tetrahedron"]._index_cache.get((m, e))
        if cached is not None and cached.prec >= prec:
            self.count("tetrahedron.tet_index.hits")
        if self._stack and self._stack[-1][0] == "tetrahedron.min_degree_bound":
            self.count("tetrahedron.min_degree_bound.series_evals")

    def _box(self, args, result):
        expr, extent = args[0], result[1]
        self.boxes.append([self.job, extent, (2 * extent + 1) ** expr.rank])

    def _bailey_levels(self, args, result):
        state = args[0]
        for (level, m), extent in sorted(state.window_extents.items()):
            self.bailey_windows.append([self.job, state.depth, level, m, extent])

    def hooks(self):
        return {
            "series.mul": (lambda a: self.count("series.mul.coeff_ops", _mul_ops(*a)), None),
            "series.inverse": (
                lambda a: self.count("series.inverse.coeff_ops", _inverse_ops(*a)),
                None,
            ),
            "tetrahedron.tet_index": (self._index_lookup, None),
            "identities.window": (None, lambda a, r: self.windows.append(r)),
            "lattice.eval": (None, self._box),
            "bailey.verify": (None, self._bailey_levels),
        }


def _resolve(module_name, attr):
    owner = sys.modules[module_name]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def install() -> Tracer:
    """Wrap every traced function at every binding site in the package.

    Raises LookupError if a traced function no longer exists: a wrapper
    that binds nothing would silently read zero.
    """
    tracer = Tracer()
    hooks = tracer.hooks()
    modules = [m for n, m in sys.modules.items() if n.startswith("tetindex.")]

    def patch(site, wrap):
        owner, attr = _resolve(*site)
        original = owner.__dict__.get(attr)
        if original is None:
            raise LookupError(f"traced function {'.'.join(site)} not found")
        wrapped = wrap(original)
        setattr(owner, attr, wrapped)
        for module in modules:
            for binding, value in list(vars(module).items()):
                if value is original:
                    setattr(module, binding, wrapped)

    for name, sites in SPANS.items():
        before, after = hooks.get(name, (None, None))
        for site in sites:
            patch(site, lambda fn: tracer.span(name, fn, before, after))
    for name, site in COUNTED.items():
        patch(site, lambda fn: tracer.counter(name, fn))
    return tracer
