"""Nested spans around the public functions of holoeval's modules.

Each function is replaced, for the length of a traced round, in the namespace
its callers resolve it from: `engines` imports `product_binsplit_exact` by
name, so the wrapper goes into `engines`; `special` calls `bl.log`, so
`log` is wrapped in `balls`.  Methods are wrapped on their class.  A span's
self time is its duration minus the time of the spans it encloses.  Spans
are aggregated in memory, per name and per (parent, child) edge, since one
round makes hundreds of thousands of ball operations.
"""

from __future__ import annotations

import time


def _mantissa_bits(a, b, *_):
    return a.man.bit_length() + b.man.bit_length()


def _matrix_bits(A, B):
    return sum(x.bit_length() for M in (A, B) for row in M for x in row)


def span_table(hv):
    """(namespace, attribute, span name, bits counter or None) for the
    modules of the package hv."""
    B, I, P, R, E, S = (hv.balls, hv.intmul, hv.poly, hv.recmat, hv.engines,
                        hv.special)
    table = [
        (B, "mul", "balls.mul", _mantissa_bits),
        (B, "add", "balls.add", None),
        (B, "div", "balls.div", None),
        (I, "mat_mul", "intmul.mat_mul", _matrix_bits),
        (P.UniPoly, "__mul__", "poly.mul", None),
        (P.BiPoly, "__mul__", "poly.mul", None),
        (R, "mat_mul_kron", "poly.mat_mul_kron", None),
        (E, "taylor_shift_basecase", "poly.taylor_shift", None),
        (E, "taylor_shift_convolution", "poly.taylor_shift", None),
        (E, "product_tree", "poly.product_tree", None),
        (E, "product_binsplit_exact", "recmat.product_binsplit_exact", None),
        (R, "mat_mul_exact", "recmat.mat_mul_exact", None),
        (E, "eval_factor", "recmat.eval_factor", None),
        (E.PowerTable, "__init__", "engines.power_table", None),
        (E.PowerTable, "eval_int_poly", "engines.eval_int_poly", None),
        (E, "ball_mat_mul", "engines.ball_mat_mul", None),
        (E, "bivariate_delta", "engines.bivariate_delta", None),
        (S, "eval_dispatch", "engines.eval_dispatch", None),
        (S.BernoulliCache, "ensure", "special.bernoulli", None),
        (S, "rising_factorial", "special.rising_factorial", None),
        (S, "stirling_params", "special.stirling_params", None),
        (S, "log_gamma_stirling", "special.log_gamma_stirling", None),
        (S, "rising_delta_coeffs", "special.rising_delta_coeffs", None),
    ]
    for name in ("exp", "log", "sqrt", "pi", "log2_const", "pow_int",
                 "c_exp", "c_log"):
        table.append((B, name, "balls.elementary", None))
    return table


class Tracer:
    """Span statistics: stats[name] = [self_ns, calls, bits],
    edges[(parent, child)] = [calls, total_ns]."""

    def __init__(self, table):
        self.table = table
        self.stats = {}
        self.edges = {}
        self._stack = []  # [name, child_ns] of the open spans
        self._saved = []

    def wrap(self, name, fn, bits=None):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += dt - frame[1]
                stats[1] += 1
                if bits is not None:
                    stats[2] += bits(*args)
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                edge = edges.setdefault((parent[0] if parent else "", name),
                                        [0, 0])
                edge[0] += 1
                edge[1] += dt

        return traced

    def install(self):
        for owner, attr, name, bits in self.table:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, bits))

    def remove(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def reset(self):
        for v in self.stats.values():
            v[:] = [0, 0, 0]
        self.edges.clear()
