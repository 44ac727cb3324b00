"""Exact polynomial layer: products against schoolbook, Taylor-shift
equivalence, the product tree and the engines' remainder tree against
Horner, bivariate ring axioms, and the text form round trip."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holoeval.balls as bl
import holoeval.poly as pm
from holoeval.balls import Ball
from holoeval.engines import (OpCounter, PowerTable, _ball_node, _fix_form,
                              _fix_mat_mul, _fix_multipoint)
from holoeval.poly import (BiPoly, UniPoly, bipoly_from_text, bipoly_to_text,
                           product_tree, taylor_shift_basecase,
                           taylor_shift_convolution)


def _values(F, points, p):
    """The ball matrices of the remainder tree's values F(x) at the points."""
    return [_ball_node(v, p)
            for v in _fix_multipoint(F, points, p, 2, OpCounter())]


def rand_poly(rng, maxdeg, bound=50):
    return UniPoly([rng.randint(-bound, bound) for _ in range(rng.randint(0, maxdeg + 1))])


class TestUniMul:
    def test_simple(self):
        one_x = UniPoly([1, 1])
        assert (one_x * one_x).coeffs == [1, 2, 1]
        assert (rand_poly(random.Random(0), 5) * UniPoly.zero()).is_zero()

    def test_against_schoolbook(self):
        rng = random.Random(42)
        for _ in range(20):
            a = rand_poly(rng, 20)
            b = rand_poly(rng, 20)
            if a.is_zero() or b.is_zero():
                continue
            out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
            for i, ai in enumerate(a.coeffs):
                for j, bj in enumerate(b.coeffs):
                    out[i + j] += ai * bj
            assert (a * b).coeffs == out

    def test_kronecker_path(self):
        rng = random.Random(1)
        mixed_a = [rng.randint(-10 ** 9, 10 ** 9) for _ in range(90)]
        mixed_b = [rng.randint(-10 ** 9, 10 ** 9) for _ in range(80)]
        pos_a = [abs(c) for c in mixed_a]
        neg_b = [-abs(c) for c in mixed_b]
        # one factor of each sign pattern against the other: nonnegative,
        # nonpositive and mixed coefficients, so product coefficients of both
        # signs land in the packed slots
        for ca, cb in ((mixed_a, mixed_b), (pos_a, neg_b), (pos_a, mixed_b),
                       (mixed_a, neg_b), ([-c for c in pos_a], neg_b)):
            a, b = UniPoly(ca), UniPoly(cb)
            save = pm._KRON_THRESHOLD
            try:
                pm._KRON_THRESHOLD = 10 ** 12
                slow = a * b
                pm._KRON_THRESHOLD = 1
                fast = a * b
            finally:
                pm._KRON_THRESHOLD = save
            assert slow == fast


class TestTaylorShift:
    def test_square_shift(self):
        p = UniPoly([0, 0, 1])
        assert taylor_shift_basecase(p, 1).coeffs == [1, 2, 1]
        assert taylor_shift_convolution(p, 1).coeffs == [1, 2, 1]

    def test_shift_zero(self):
        p = UniPoly([3, -1, 4])
        assert taylor_shift_basecase(p, 0) == p
        assert taylor_shift_convolution(p, 0) == p

    def test_cubic(self):
        p = UniPoly([0, -1, 0, 1])  # x^3 - x
        assert taylor_shift_basecase(p, 2).coeffs == [6, 11, 6, 1]

    def test_constant(self):
        p = UniPoly([9])
        assert taylor_shift_convolution(p, 5) == p

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=60, deadline=None)
    def test_convolution_equals_basecase(self, seed):
        rng = random.Random(seed)
        p = rand_poly(rng, 64)
        c = rng.randint(-20, 20)
        assert taylor_shift_basecase(p, c) == taylor_shift_convolution(p, c)

    def test_large_degree_agreement(self):
        rng = random.Random(77)
        p = rand_poly(rng, 256, bound=10 ** 6)
        c = 13
        assert taylor_shift_basecase(p, c) == taylor_shift_convolution(p, c)

    def test_shift_composition(self):
        rng = random.Random(3)
        for _ in range(20):
            p = rand_poly(rng, 24)
            a, b = rng.randint(-9, 9), rng.randint(-9, 9)
            lhs = taylor_shift_basecase(taylor_shift_basecase(p, a), b)
            assert lhs == taylor_shift_basecase(p, a + b)

    def test_fraction_coeffs(self):
        p = UniPoly([Fraction(1, 3), Fraction(-2, 7), Fraction(5, 2)])
        c = Fraction(1, 2)
        assert taylor_shift_basecase(p, c) == taylor_shift_convolution(p, c)


class TestProductTreeMultipoint:
    def test_tree_examples(self):
        assert product_tree([0, 1]).poly.coeffs == [0, -1, 1]
        assert product_tree([5]).poly.coeffs == [-5, 1]
        w, m = 4, 3
        pts = [i * m for i in range(w)]
        direct = UniPoly([1])
        for p0 in pts:
            direct = direct * UniPoly([-p0, 1])
        assert product_tree(pts).poly == direct

    @pytest.mark.parametrize("w", [5, 8])
    def test_remainder_tree_against_horner(self, w):
        # the multipoint engine's remainder tree on exact integer balls, at
        # its points 0, m, 2m, ...: every value is Horner's, exactly
        rng = random.Random(11 + w)
        m = 4
        polys = [[rand_poly(rng, 3 * w, 100) for _ in range(2)] for _ in range(2)]
        polys[1][0] = UniPoly.zero()
        U = [[[Ball.from_int(c) for c in e.coeffs] for e in row] for row in polys]
        pts = [i * m for i in range(w)]
        values = _values(_fix_form(U, 4096, Ball.zero()), pts, 4096)
        assert len(values) == w
        for x0, mat in zip(pts, values):
            for erow, vrow in zip(polys, mat):
                for e, v in zip(erow, vrow):
                    assert v.is_exact() and v.mid_fraction() == e.eval_at(x0)

    @pytest.mark.parametrize("w", [5, 8])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_product_and_remainder_tree_contain_horner(self, w, kind):
        # p-bit balls of random rationals, real and complex: the fixed-point
        # product A B, whose low bits go into the radius, and the remainder
        # tree give balls that contain the exact A(x) B(x)
        rng = random.Random(31 + w)
        m, p, spread = 5, 96, 8
        parts = 1 if kind == "real" else 2

        def rand_entry():  # coefficient lists of the real and imaginary part
            length = rng.randint(1, 2 * w)
            return [[Fraction(rng.randint(-10 ** 6, 10 ** 6),
                              rng.randint(1, 999)) for _ in range(length)]
                    for _ in range(parts)]

        def to_balls(X):
            bs = [[[[Ball.from_fraction(q, p) for q in cs] for cs in e]
                   for e in row] for row in X]
            if kind == "real":
                return [[e[0] for e in row] for row in bs]
            return [[[bl.ComplexBall(*c) for c in zip(*e)] for e in row]
                    for row in bs]

        A, B = ([[rand_entry() for _ in range(2)] for _ in range(2)]
                for _ in range(2))
        A[1][0] = [[]] * parts
        like = Ball.zero() if kind == "real" else bl.ComplexBall.zero()
        F = _fix_mat_mul(*(_fix_form(to_balls(X), p + spread, like)
                           for X in (A, B)), p, spread, 2, OpCounter())
        pts = [i * m for i in range(w)]
        values = _values(F, pts, p)
        def cmul(x, y):  # (re, im) pairs
            return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

        for x0, mat in zip(pts, values):
            a, b = ([[[UniPoly(cs).eval_at(x0) for cs in e] + [0]
                      for e in row] for row in X] for X in (A, B))
            for i in range(2):
                for j in range(2):
                    exact = [sum(col) for col in zip(*(
                        cmul(a[i][t], b[t][j]) for t in range(2)))]
                    assert mat[i][j].contains(*exact[:parts]), (x0, i, j)

    @pytest.mark.parametrize("spread, rad", [(0, 1 << 30), (0, 0), (2, 0)])
    def test_product_radius_covers_the_corner(self, spread, rad):
        # positive coefficients whose exact values are the upper ends of
        # their balls: then A(x) B(x) at a point x >= 0 is the largest value
        # that the balls allow, and the radius that a leaf of the remainder
        # tree takes, the radius polynomial at x, must reach it.  With
        # exact balls the radius is what the product floors (p-bit
        # exponents) or the fixed-point form floors (exponents spread over
        # 2p bits), and the values keep 2p bits so that no rounding hides it
        rng = random.Random(41)
        p, m = 96, 5

        def rand_entry():
            return [Ball(rng.getrandbits(p - 1) | 1 << (p - 1),
                         -p - rng.randint(0, spread * p),
                         rng.randint(1, rad) if rad else 0, -p - 10)
                    for _ in range(rng.randint(1, 9))]

        def upper(e, x0):  # the entry's polynomial of upper ends at x0
            return sum((b.mid_fraction() + b.rad_fraction()) * x0 ** a
                       for a, b in enumerate(e))

        A, B = ([[rand_entry() for _ in range(2)] for _ in range(2)]
                for _ in range(2))
        F = _fix_mat_mul(*(_fix_form(X, p + 8, Ball.zero()) for X in (A, B)),
                         p, 8, 2, OpCounter())
        pts = [0, m, 2 * m]
        for x0, mat in zip(pts, _values(F, pts, 2 * p)):
            for i in range(2):
                for j in range(2):
                    corner = sum(upper(A[i][t], x0) * upper(B[t][j], x0)
                                 for t in range(2))
                    assert mat[i][j].contains(corner), (x0, i, j)


def rand_bipoly(rng, maxd=3, bound=9):
    nx = rng.randint(1, maxd + 1)
    return BiPoly([[rng.randint(-bound, bound) for _ in range(rng.randint(1, maxd + 1))]
                   for _ in range(nx)])


class TestBiPoly:
    def test_mul_examples(self):
        xk = BiPoly.x_plus_k()
        xmk = bipoly_from_text("x - k")
        assert xk * xmk == bipoly_from_text("x^2 - k^2")
        assert xk * BiPoly.const(1) == xk
        assert xk * bipoly_from_text("x + k + 1") == bipoly_from_text(
            "x^2 + 2*x*k + k^2 + x + k")

    def test_ring_axioms(self):
        rng = random.Random(4)
        for _ in range(25):
            a, b, c = (rand_bipoly(rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a

    def test_eval_k(self):
        p = bipoly_from_text("x^2 - k^2")
        assert p.eval_k(2).coeffs == [-4, 0, 1]
        q = bipoly_from_text("3*x*k + 2*k^2 + x + 5")
        assert q.eval_k(0).coeffs == [5, 1]

    def test_shifts(self):
        p = BiPoly.x_plus_k()
        assert p.shift_k(3) == bipoly_from_text("x + k + 3")
        assert p.shift_x(-1) == bipoly_from_text("x + k - 1")
        rng = random.Random(6)
        for _ in range(10):
            q = rand_bipoly(rng)
            assert q.shift_k(2).shift_k(-2) == q
            assert q.shift_x(5).shift_x(-5) == q

    def test_text_roundtrip(self):
        rng = random.Random(8)
        for _ in range(30):
            p = rand_bipoly(rng)
            assert bipoly_from_text(bipoly_to_text(p)) == p
        assert bipoly_from_text("  x + k ") == BiPoly.x_plus_k()
        with pytest.raises(ValueError):
            bipoly_from_text("x + **k")
        with pytest.raises(ValueError):
            bipoly_from_text("")
        with pytest.raises(ValueError):
            bipoly_from_text("y + 1")

    def test_text_roundtrip_long_coefficients_at_default_digit_limit(self):
        # spec files may carry coefficients beyond plain int's 4300-digit
        # str()/int() limit; the text form must not depend on raising it
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            c = 7 ** 6000
            p = bipoly_from_text("%s*x*k^2 - %s" % (bl._int_to_str(c),
                                                   bl._int_to_str(3 * c)))
            assert p == BiPoly([[-3 * c, 0, 0], [0, 0, c]])
            assert bipoly_from_text(bipoly_to_text(p)) == p
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(old)


class TestPowerTableEval:
    def test_linear(self):
        t = PowerTable(Ball.from_int(3), 4, 64)
        assert t.eval_int_poly([1, 2]).contains(7)

    def test_constant(self):
        t = PowerTable(Ball.from_int(3), 2, 64)
        v = t.eval_int_poly([9])
        assert v.is_exact() and v.contains(9)

    def test_giant_step_row(self):
        z = Ball.from_fraction(Fraction(1, 2), 96)
        t = PowerTable(z, 3, 96)
        v = t.eval_int_poly([840, 632, 168, 16])
        assert v.contains(1200)

    def test_contains_exact_rational(self):
        rng = random.Random(10)
        for _ in range(20):
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            coeffs = [rng.randint(-50, 50) for _ in range(7)]
            t = PowerTable(Ball.from_fraction(q, 80), 6, 80)
            exact = sum(c * q ** j for j, c in enumerate(coeffs))
            assert t.eval_int_poly(coeffs).contains(exact)

    def test_degree_overflow_is_error(self):
        t = PowerTable(Ball.from_int(2), 2, 64)
        with pytest.raises(IndexError):
            t.eval_int_poly([1, 0, 0, 5])
