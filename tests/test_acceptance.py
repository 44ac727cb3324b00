"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 4 includes a ~110k-bit gamma cross-check and criterion 1 runs
1800 engine evaluations; the whole module takes a few minutes.  Run it
with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import math
import random
import time
from fractions import Fraction
from itertools import accumulate

import pytest

import holoeval.balls as bl
import holoeval.intmul as im
from holoeval.balls import Ball
from holoeval.poly import BiPoly
from holoeval.recmat import (DenominatorZeroError, ScalarRecurrence,
                             companion, rising_factorial_matrix,
                             unroll_rational)
from holoeval.engines import ALGORITHMS, bivariate_delta, eval_dispatch
from holoeval.special import (BernoulliCache, gamma_1f1, gamma_stirling,
                              rising_delta_coeffs, rising_factorial_report)
from test_special import (delta_as_bipoly, delta_recurrence_holds,
                          vsc_denominator)


def contains_ball(outer, inner) -> bool:
    """Exact test whether inner's interval is a subset of outer's."""
    d = abs(outer.mid_fraction() - inner.mid_fraction())
    return d + inner.rad_fraction() <= outer.rad_fraction()


RISING = rising_factorial_matrix()


def report(number: int, ok: bool, detail: str):
    print("criterion %d %s: %s" % (number, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (number, detail)


@pytest.mark.slow
def test_criterion_1_exact_oracle_equivalence():
    """100 random parametric recurrences, every engine's ball contains the
    exact rational value at n in {7, 64, 257} (runtime budget: 2 min)."""
    rng = random.Random(20260810)

    def rand_bipoly():
        return BiPoly([[rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
                       for _ in range(rng.randint(1, 3))])

    t0 = time.perf_counter()
    checked = 0
    count = 0
    while count < 100:
        order = rng.randint(1, 3)
        coeffs = [rand_bipoly() for _ in range(order + 1)]
        if coeffs[-1].is_zero():
            continue
        z = Fraction(rng.randint(-7, 7), rng.randint(1, 7))
        M = companion(ScalarRecurrence(coeffs))
        try:
            exacts = {n: unroll_rational(M, z, n) for n in (7, 64, 257)}
        except DenominatorZeroError:
            continue
        zb = Ball.from_fraction(z, 128)
        for alg in ALGORITHMS:
            for n in (7, 64, 257):
                rep = eval_dispatch(M, zb, n, 128, algorithm=alg)
                for i in range(order):
                    for j in range(order):
                        assert rep.matrix[i][j].contains(exacts[n][i][j]), \
                            (alg, n, count, i, j)
                        checked += 1
        count += 1
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 120,
           "%d containments over 100 recurrences x %d engines x 3 sizes "
           "in %.1fs [integer backend %s, FFT products %s]"
           % (checked, len(ALGORITHMS), elapsed,
              "gmpy2" if bl.HAVE_GMPY2 else "int",
              "on" if im.FFT_ACTIVE else "off"))


def test_criterion_2_smith_m4_and_kauers():
    c4 = rising_delta_coeffs(4)
    ok = c4.rows == ((840, 632, 168, 16), (632, 336, 48), (168, 48), (16,))
    ok = ok and all(delta_recurrence_holds(rising_delta_coeffs(m))
                    for m in range(1, 13))
    report(2, ok, "m=4 table (840,632,168,16/632,336,48/168,48/16) and the "
                  "exchange recurrence for all m <= 12")


def test_criterion_3_generic_vs_closed_form_delta():
    ok = True
    for m in range(1, 13):
        generic = bivariate_delta(RISING, m)[0][0]
        if generic != delta_as_bipoly(rising_delta_coeffs(m)):
            ok = False
            break
    report(3, ok, "bivariate giant-step difference equals the closed-form "
                  "coefficient table for m = 1..12 (exact)")


@pytest.mark.slow
def test_criterion_4_gamma_correctness():
    t0 = time.perf_counter()
    g5 = gamma_stirling(Ball.from_int(5), 128)
    ok = g5.contains(24) and g5.rad_fraction() < Fraction(1, 2 ** 120)
    detail = ["Gamma(5) rad<2^-120: %s" % ok]

    gh = gamma_stirling(Ball.from_fraction(Fraction(1, 2), 1024), 1024)
    sqrt_pi = bl.sqrt(bl.pi(1024 + 64), 1024 + 64)
    ok2 = contains_ball(gh, sqrt_pi)
    detail.append("Gamma(1/2) contains sqrt(pi) ball at p=1024: %s" % ok2)
    ok = ok and ok2

    for p in (1024, 16384, 110772):
        tp = time.perf_counter()
        x = Ball.from_fraction(Fraction(5, 4), p)
        a = gamma_stirling(x, p)
        b = gamma_1f1(x, p)
        shared = min(a.rel_accuracy_bits(), b.rel_accuracy_bits())
        okp = a.overlaps(b) and shared >= p - 64
        detail.append("p=%d overlap+acc>=p-64: %s (acc %d) [%.1fs]"
                      % (p, okp, shared, time.perf_counter() - tp))
        ok = ok and okp
    report(4, ok, "; ".join(detail) + " [%.0fs]" % (time.perf_counter() - t0))


def test_criterion_5_operation_counts():
    ok = True
    details = []
    for k in range(4, 15):
        n = 2 ** k
        m = math.isqrt(n)
        if m * m < n:
            m += 1
        z = Ball.from_fraction(Fraction(1, 2), 4 * n)
        rep = eval_dispatch(RISING, z, n, 4 * n, algorithm="rect-split", m=m)
        c = rep.counter
        ns_ok = c.nonscalar <= 4 * (m + n / m)  # r = 1
        sc_ok = c.scalar + c.adds <= 8 * n * 1  # deg_x = 1
        ok = ok and ns_ok and sc_ok
        if k in (4, 14):
            details.append("n=2^%d: nonscalar %d <= %.0f, scalar %d + adds %d"
                           " <= %d" % (k, c.nonscalar, 4 * (m + n / m),
                                       c.scalar, c.adds, 8 * n))
    report(5, ok, "; ".join(details))


def test_criterion_6_stability():
    ok = True
    details = []
    for n in (16, 256, 4096, 10 ** 4):
        p = 4 * n
        z = Ball.from_fraction(Fraction(1, 2), p)
        rep = eval_dispatch(RISING, z, n, p, algorithm="rect-split")
        loss = p - rep.accuracy_bits
        bound = 4 * math.log2(n) + 16
        ok = ok and loss <= bound
        details.append("n=%d loss=%d (<= %.0f)" % (n, loss, bound))
    report(6, ok, "; ".join(details))


def _best_times(n, algs, repeats=3):
    """Best of `repeats` timings of (1/2)_n at p = 4n for each engine.  The
    engines run in turn within each repeat, so that a slow phase of the
    machine falls on all of them rather than on one."""
    p = 4 * n
    z = Ball.from_fraction(Fraction(1, 2), p)
    for alg in algs:
        rising_factorial_report(z, n, p, algorithm=alg)  # warmup
    best = dict.fromkeys(algs, math.inf)
    for _ in range(repeats):
        for alg in algs:
            t0 = time.perf_counter_ns()
            rising_factorial_report(z, n, p, algorithm=alg)
            best[alg] = min(best[alg], time.perf_counter_ns() - t0)
    return best


def test_criterion_7_figure1_ordinals():
    t10 = _best_times(2 ** 10, ("naive", "rect-delta"))
    t13 = _best_times(2 ** 13, ("naive", "rect-delta", "rect-split",
                                "multipoint"))
    r10 = t10["rect-delta"] / t10["naive"]
    r13 = t13["rect-delta"] / t13["naive"]
    rm = t13["multipoint"] / t13["naive"]
    rs = t13["rect-split"] / t13["naive"]
    ok = r10 < 1.0 and r13 < 0.5 and rm > rs
    report(7, ok, "rect-delta/naive: %.3f at 2^10 (<1), %.3f at 2^13 (<0.5); "
                  "multipoint %.3f > rect-split %.3f at 2^13"
           % (r10, r13, rm, rs))


def _boustrophedon_tangents(nmax: int):
    """Independent tangent-number oracle: zigzag numbers by the
    Seidel-Entringer-Arnold triangle; T_n is the zigzag of odd index."""
    zig = [1]
    row = [1]
    for i in range(1, 2 * nmax + 1):
        prev = row if i % 2 == 1 else row[::-1]
        row = list(accumulate([0] + prev))
        if i % 2 == 0:
            row = row[::-1]
        zig.append(row[0] if i % 2 == 0 else row[-1])
    return [zig[2 * n - 1] for n in range(1, nmax + 1)]


def test_criterion_8_bernoulli():
    cache = BernoulliCache()
    cache.ensure(60)
    tang = _boustrophedon_tangents(30)
    assert tang[:5] == [1, 2, 16, 272, 7936]
    ok = True
    for n in range(1, 31):
        expected = Fraction((-1) ** (n - 1) * 2 * n * tang[n - 1],
                            4 ** n * (4 ** n - 1))
        if cache.get(2 * n) != expected:
            ok = False
            break
        if cache.get(2 * n).denominator != vsc_denominator(2 * n):
            ok = False
            break
    report(8, ok, "B_2..B_60 match the independent zigzag-triangle oracle "
                  "and carry von Staudt-Clausen denominators exactly")
