"""Ball arithmetic: containment against exact rational oracles, exactness
of the membership test, decimal round trips, and the elementary functions
checked against mpmath."""

import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holoeval.balls as bl
from holoeval.balls import Ball, BallDomainError, ComplexBall


def frac_ball(q, p=64):
    return Ball.from_fraction(Fraction(q), p)


class TestBasicOps:
    def test_add_interval(self):
        a = bl.parse_decimal("1.0 ± 0.1", 64)
        b = bl.parse_decimal("2.0 ± 0.2", 64)
        s = bl.add(a, b, 64)
        assert s.contains(3)
        assert s.rad_fraction() >= Fraction(3, 10)

    def test_add_identity(self):
        x = frac_ball(Fraction(7, 8))
        s = bl.add(x, Ball.zero(), 64)
        assert s.contains(Fraction(7, 8))

    def test_add_thirds(self):
        a = frac_ball(Fraction(1, 3), 53)
        s = bl.add(a, a, 53)
        assert s.contains(Fraction(2, 3))

    def test_mul_exact(self):
        p = bl.mul(Ball.from_int(2), Ball.from_int(3), 64)
        assert p.is_exact() and p.contains(6)

    def test_mul_spread(self):
        a = bl.parse_decimal("1 ± 0.1", 64)
        p = bl.mul(a, a, 64)
        assert p.rad_fraction() >= Fraction(21, 100)
        assert p.contains(Fraction(81, 100)) and p.contains(Fraction(121, 100))

    def test_mul_sqrt2(self):
        r = bl.sqrt(Ball.from_int(2), 128)
        assert bl.mul(r, r, 128).contains(2)

    def test_scalar_mul(self):
        b = bl.mul_int(frac_ball(Fraction(3, 2)), 632, 64)
        assert b.contains(948)
        assert bl.mul_int(frac_ball(5), 0, 64).is_zero()
        # the m=4 giant-step coefficient times z = 1/2
        c = bl.mul_int(frac_ball(Fraction(1, 2)), 632, 64)
        assert c.contains(316)

    def test_division(self):
        q = bl.div(Ball.from_int(1), Ball.from_int(3), 64)
        assert q.contains(Fraction(1, 3))
        with pytest.raises(BallDomainError):
            bl.div(Ball.from_int(1), bl.parse_decimal("0 ± 1", 64), 64)

    def test_contains_exact(self):
        b = bl.parse_decimal("0.333333333 ± 1e-9", 64)
        assert b.contains(Fraction(1, 3))
        assert not frac_ball(Fraction(1, 2)).contains(Fraction(1, 3))
        v = bl.div(Ball.from_int(1), Ball.from_int(3), 64)
        # boundary: |mid - x| == rad must count as inside
        edge = Ball(v.man, v.exp, 0, 0)
        diff = abs(edge.mid_fraction() - Fraction(1, 3))
        rm, re = bl._u_from_fraction_upper(diff) if diff else (0, 0)
        within = Ball(edge.man, edge.exp, rm, re)
        assert within.contains(Fraction(1, 3))

    def test_rising_product_contains(self):
        z = frac_ball(Fraction(1, 2), 64)
        acc = Ball.one()
        for i in range(5):
            acc = bl.mul(acc, bl.add_int(z, i, 64), 64)
        assert acc.contains(Fraction(945, 32))


def random_fraction(rng, bound=9):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def build_expr(rng, depth):
    """Random expression tree; returns (ball evaluator, exact evaluator)."""
    if depth == 0 or rng.random() < 0.3:
        q = random_fraction(rng)
        return ("leaf", q)
    op = rng.choice(["add", "sub", "mul", "smul"])
    if op == "smul":
        return ("smul", rng.randint(-50, 50), build_expr(rng, depth - 1))
    return (op, build_expr(rng, depth - 1), build_expr(rng, depth - 1))


def eval_exact(node):
    if node[0] == "leaf":
        return node[1]
    if node[0] == "smul":
        return node[1] * eval_exact(node[2])
    a, b = eval_exact(node[1]), eval_exact(node[2])
    return {"add": a + b, "sub": a - b, "mul": a * b}[node[0]]


def eval_ball(node, p):
    if node[0] == "leaf":
        return Ball.from_fraction(node[1], p)
    if node[0] == "smul":
        return bl.mul_int(eval_ball(node[2], p), node[1], p)
    a, b = eval_ball(node[1], p), eval_ball(node[2], p)
    return {"add": bl.add, "sub": bl.sub, "mul": bl.mul}[node[0]](a, b, p)


class TestContainmentProperty:
    @given(st.integers(0, 10 ** 9), st.integers(2, 12))
    @settings(max_examples=120, deadline=None)
    def test_expression_trees(self, seed, depth):
        rng = random.Random(seed)
        tree = build_expr(rng, depth)
        exact = eval_exact(tree)
        for p in (24, 64):
            assert eval_ball(tree, p).contains(exact)

    def test_precision_monotonicity_statistical(self):
        # doubling precision should (statistically) not grow radii
        rng = random.Random(5)
        worse = 0
        trials = 60
        for _ in range(trials):
            tree = build_expr(rng, 8)
            r1 = eval_ball(tree, 32).rad_fraction()
            r2 = eval_ball(tree, 64).rad_fraction()
            if r2 > 2 * r1:
                worse += 1
        assert worse <= trials // 10


class TestComplex:
    def test_mul_contains(self):
        z = ComplexBall(frac_ball(Fraction(1, 3)), frac_ball(Fraction(1, 7)))
        w = bl.c_mul(z, z, 64)
        assert w.re.contains(Fraction(1, 9) - Fraction(1, 49))
        assert w.im.contains(2 * Fraction(1, 21))

    def test_div_roundtrip(self):
        z = ComplexBall(frac_ball(Fraction(2, 5)), frac_ball(Fraction(-3, 4)))
        w = ComplexBall(frac_ball(Fraction(1, 3)), frac_ball(Fraction(5, 9)))
        q = bl.c_div(bl.c_mul(z, w, 96), w, 96)
        assert q.re.contains(Fraction(2, 5)) and q.im.contains(Fraction(-3, 4))


def _mp_fraction(value, digits):
    return Fraction(mpmath.nstr(value, digits))


class TestElementaryFunctions:
    @pytest.mark.parametrize("p", [64, 256, 2048])
    def test_exp_log_against_mpmath(self, p):
        mpmath.mp.prec = p + 60
        digits = int(p * 0.301) + 10
        x = Ball.from_fraction(Fraction(7, 3), p)
        e = bl.exp(x, p)
        target = _mp_fraction(mpmath.exp(mpmath.mpf(7) / 3), digits)
        assert abs(e.mid_fraction() - target) <= e.rad_fraction() + Fraction(1, 10 ** (digits - 5))
        assert e.rel_accuracy_bits() >= p - 8
        l = bl.log(x, p)
        target = _mp_fraction(mpmath.log(mpmath.mpf(7) / 3), digits)
        assert abs(l.mid_fraction() - target) <= l.rad_fraction() + Fraction(1, 10 ** (digits - 5))

    def test_exp_functional_equation(self):
        p = 192
        a = Ball.from_fraction(Fraction(3, 7), p)
        b = Ball.from_fraction(Fraction(-9, 5), p)
        lhs = bl.exp(bl.add(a, b, p), p)
        rhs = bl.mul(bl.exp(a, p), bl.exp(b, p), p)
        assert lhs.overlaps(rhs)

    def test_log_inverts_exp(self):
        p = 256
        x = Ball.from_fraction(Fraction(11, 4), p)
        assert bl.log(bl.exp(x, p), p).contains(Fraction(11, 4))

    def test_pi_log2(self):
        mpmath.mp.prec = 1200
        pi_b = bl.pi(1024)
        target = _mp_fraction(mpmath.mp.pi, 330)
        assert abs(pi_b.mid_fraction() - target) <= pi_b.rad_fraction() + Fraction(1, 10 ** 325)
        assert pi_b.rel_accuracy_bits() >= 1024 - 4
        l2 = bl.log2_const(1024)
        target = _mp_fraction(mpmath.log(2), 330)
        assert abs(l2.mid_fraction() - target) <= l2.rad_fraction() + Fraction(1, 10 ** 325)

    def test_log_2pi_cache_high_low_higher(self):
        mpmath.mp.prec = 3300
        target = _mp_fraction(mpmath.log(2 * mpmath.mp.pi), 990)
        saved = bl._const_cache.pop("log2pi", None)
        try:
            for p in (2048, 256, 3072):
                v = bl.log_2pi(p)
                assert abs(v.mid_fraction() - target) <= v.rad_fraction() + Fraction(1, 10 ** 985)
                assert v.rel_accuracy_bits() >= p - 4
            assert bl._const_cache["log2pi"][0] == 3072
        finally:
            if saved is not None:
                bl._const_cache["log2pi"] = saved

    def test_power(self):
        p = 128
        v = bl.power(Ball.from_int(5), Ball.from_fraction(Fraction(1, 2), p), p)
        assert bl.mul(v, v, p).contains(5)

    def test_complex_exp_log(self):
        for re_q, im_q, p in [
            (Fraction(5, 4), Fraction(1, 3), 256),
            (Fraction(1, 5), Fraction(-2, 7), 256),    # q = 0: |Re| < ln 2 / 2
            (Fraction(-3, 2), Fraction(5, 6), 256),    # Re < 0
            (Fraction(1, 2), Fraction(22, 5), 256),    # |Im| > pi
            (Fraction(-7, 3), Fraction(-9, 2), 1024),
        ]:
            mpmath.mp.prec = p + 60
            z = ComplexBall(Ball.from_fraction(re_q, p), Ball.from_fraction(im_q, p))
            w = mpmath.mpc(mpmath.mpf(re_q.numerator) / re_q.denominator,
                           mpmath.mpf(im_q.numerator) / im_q.denominator)
            digits = int(p * 0.301)
            eps = Fraction(1, 10 ** (digits - 5))
            for got, mv in ((bl.exp(z, p), mpmath.exp(w)), (bl.log(z, p), mpmath.log(w))):
                assert abs(got.re.mid_fraction() - _mp_fraction(mv.real, digits)) <= got.re.rad_fraction() + eps
                assert abs(got.im.mid_fraction() - _mp_fraction(mv.imag, digits)) <= got.im.rad_fraction() + eps
                assert got.rel_accuracy_bits() >= p - 16

    def test_complex_log_domain_errors(self):
        around_zero = ComplexBall(bl.parse_decimal("0.25 ± 0.5", 64),
                                  bl.parse_decimal("-0.125 ± 0.25", 64))
        negative_axis = ComplexBall(Ball.from_int(-2), bl.parse_decimal("0 ± 0.01", 64))
        for box in (around_zero, negative_axis, ComplexBall.from_int(-3)):
            with pytest.raises(BallDomainError):
                bl.log(box, 64)

    def test_log_tiny_and_huge(self):
        # the float seed must scale midpoints far from 1 into float range
        mpmath.mp.prec = 256
        eps = Fraction(1, 10 ** 60)
        two = mpmath.mpf(2)
        for p in (64, 1024):
            for re_e, im_e in [(-2000, None), (-1100, None), (3000, None),
                               (-2000, -2000), (-2000, -2003), (-2003, 1)]:
                x = Ball.from_man_exp(1, re_e)
                if im_e is None:
                    cases = [(x, mpmath.log(two ** re_e)),
                             (ComplexBall.from_ball(x), mpmath.log(mpmath.mpc(two ** re_e)))]
                else:
                    cases = [(ComplexBall(x, Ball.from_man_exp(1, im_e)),
                              mpmath.log(mpmath.mpc(two ** re_e, two ** im_e)))]
                for arg, mv in cases:
                    got = bl.log(arg, p)
                    parts = ((got.re, mv.real), (got.im, mv.imag)) \
                        if isinstance(got, ComplexBall) else ((got, mv),)
                    for b, v in parts:
                        assert abs(b.mid_fraction() - _mp_fraction(v, 70)) <= b.rad_fraction() + eps
                        # relative to |log|, which the real part dominates here
                        assert b.rad_fraction() * 2 ** (p - 16) <= abs(parts[0][0].mid_fraction())

    def test_domain_errors(self):
        with pytest.raises(BallDomainError):
            bl.log(Ball.from_int(-2), 64)
        with pytest.raises(BallDomainError):
            bl.sqrt(Ball.from_int(-1), 64)
        with pytest.raises(BallDomainError):
            bl.exp(Ball.from_man_exp(1, 60), 64)


def _contains_mp(b, v, prec):
    """Whether the real ball b contains the value that the mpmath number v,
    computed at prec bits, approximates (within one unit of its last bit).
    Compared on integers scaled to the smallest exponent involved, so that
    values like e^(2^47) need no Fraction of their size."""
    man, e = v.man_exp
    if v < 0:
        man = -man
    terms = [(b.man, b.exp), (man, e)]
    tol = (1, e + max(0, int(abs(man)).bit_length() - prec) + 1)
    rads = [tol] + ([(b.rm, b.re)] if b.rm else [])
    e0 = min(x for _, x in terms + rads)
    mid, val = ((int(m) << (x - e0)) for m, x in terms)
    return abs(mid - val) <= sum(int(m) << (x - e0) for m, x in rads)


def _contains_mpc(got, v, prec):
    if isinstance(got, ComplexBall):
        w = mpmath.mpc(v)
        return _contains_mp(got.re, w.real, prec) and _contains_mp(got.im, w.imag, prec)
    return _contains_mp(got, v, prec)


# (name, argument as a ball at precision p, the argument for mpmath)
_GRID = [
    ("0", lambda p: Ball.zero(), lambda: mpmath.mpf(0)),
    ("2^-3000", lambda p: Ball.from_man_exp(1, -3000), lambda: mpmath.ldexp(1, -3000)),
    ("-2^-3000", lambda p: Ball.from_man_exp(-1, -3000), lambda: -mpmath.ldexp(1, -3000)),
    ("1/3", lambda p: frac_ball(Fraction(1, 3), p), lambda: mpmath.mpf(1) / 3),
    ("-1/3", lambda p: frac_ball(Fraction(-1, 3), p), lambda: mpmath.mpf(-1) / 3),
    ("22/7", lambda p: frac_ball(Fraction(22, 7), p), lambda: mpmath.mpf(22) / 7),
    ("-700", lambda p: Ball.from_int(-700), lambda: mpmath.mpf(-700)),
    ("2^47-1", lambda p: Ball.from_int(2 ** 47 - 1), lambda: mpmath.mpf(2 ** 47 - 1)),
    ("1/2+22/5i", lambda p: ComplexBall(frac_ball(Fraction(1, 2), p), frac_ball(Fraction(22, 5), p)),
     lambda: mpmath.mpc(mpmath.mpf(1) / 2, mpmath.mpf(22) / 5)),
    ("-7/3-9/2i", lambda p: ComplexBall(frac_ball(Fraction(-7, 3), p), frac_ball(Fraction(-9, 2), p)),
     lambda: mpmath.mpc(mpmath.mpf(-7) / 3, mpmath.mpf(-9) / 2)),
    # parts 3000 binary orders apart: too wide for one fixed-point sum
    ("2^-3000+5i", lambda p: ComplexBall(Ball.from_man_exp(1, -3000), Ball.from_int(5)),
     lambda: mpmath.mpc(mpmath.ldexp(1, -3000), 5)),
]


class TestExpLogRectangularSplitting:
    @pytest.mark.parametrize("p", [64, 128, 1024, 8192, 20000])
    def test_grid_contains_mpmath(self, p):
        mpmath.mp.prec = p + 64
        for name, ball, mp_arg in _GRID:
            x, w = ball(p), mp_arg()
            complex_arg = isinstance(x, ComplexBall)
            got = bl.exp(x, p)
            assert _contains_mpc(got, mpmath.exp(w), p + 64), ("exp", name, p)
            # Im: k squarings of a box lose up to k bits there
            assert got.rel_accuracy_bits() >= p - (6 if complex_arg else 2), ("exp", name, p)
            if not complex_arg and w <= 0:
                continue
            got = bl.log(x, p)
            assert _contains_mpc(got, mpmath.log(w), p + 64), ("log", name, p)
            assert got.rel_accuracy_bits() >= p - 1, ("log", name, p)

    @pytest.mark.parametrize("p", [64, 1024, 8192])
    def test_input_radius_is_propagated(self, p):
        mpmath.mp.prec = p + 64
        x = bl.parse_decimal("1.25 ± 1e-12", p)
        lo, hi = mpmath.mpf(5) / 4 - mpmath.mpf("1e-12"), mpmath.mpf(5) / 4 + mpmath.mpf("1e-12")
        for f, mf in ((bl.exp, mpmath.exp), (bl.log, mpmath.log)):
            got = f(x, p)
            for v in (mf(lo), mf(mpmath.mpf(5) / 4), mf(hi)):
                assert _contains_mp(got, v, p + 64)
            assert 35 <= got.rel_accuracy_bits() <= 45
        z = ComplexBall(x, bl.parse_decimal("-4 ± 1e-12", p))
        got = bl.exp(z, p)
        for dr in (-1, 1):
            for di in (-1, 1):
                w = mpmath.mpc(mpmath.mpf(5) / 4 + dr * mpmath.mpf("1e-12"),
                               -4 + di * mpmath.mpf("1e-12"))
                assert _contains_mpc(got, mpmath.exp(w), p + 64)

    # accuracy bits of the term-by-term series with sqrt(p) halvings and of
    # the full Newton ladder, on the cases of TestElementaryFunctions,
    # recorded as p minus the figure: (function, argument, p, deficit)
    _BEFORE = [
        ("exp", Fraction(7, 3), 64, 2), ("log", Fraction(7, 3), 64, 1),
        ("exp", Fraction(7, 3), 256, 2), ("log", Fraction(7, 3), 256, 1),
        ("exp", Fraction(7, 3), 2048, 2), ("log", Fraction(7, 3), 2048, 1),
        ("exp", (Fraction(5, 4), Fraction(1, 3)), 256, 1),
        ("log", (Fraction(5, 4), Fraction(1, 3)), 256, 1),
        ("exp", (Fraction(1, 5), Fraction(-2, 7)), 256, 1),
        ("log", (Fraction(1, 5), Fraction(-2, 7)), 256, 1),
        ("exp", (Fraction(-3, 2), Fraction(5, 6)), 256, 1),
        ("log", (Fraction(-3, 2), Fraction(5, 6)), 256, 0),
        ("exp", (Fraction(1, 2), Fraction(22, 5)), 256, 5),
        ("log", (Fraction(1, 2), Fraction(22, 5)), 256, 1),
        ("exp", (Fraction(-7, 3), Fraction(-9, 2)), 1024, 5),
        ("log", (Fraction(-7, 3), Fraction(-9, 2)), 1024, 0),
    ] + [("log", e, p, 0) for e in (-2000, -1100, 3000) for p in (64, 1024)] + [
        ("log", (a, b), p, d)
        for a, b, d in ((-2000, -2000, 0), (-2000, -2003, 1), (-2003, 1, 0))
        for p in (64, 1024)]

    @pytest.mark.parametrize("fn, arg, p, deficit", _BEFORE)
    def test_accuracy_no_worse_than_before(self, fn, arg, p, deficit):
        def ball(a):  # an int e stands for 2^e
            if isinstance(a, tuple):
                return ComplexBall(ball(a[0]), ball(a[1]))
            return Ball.from_man_exp(1, a) if isinstance(a, int) else frac_ball(a, p)

        assert getattr(bl, fn)(ball(arg), p).rel_accuracy_bits() >= p - deficit

    def test_ball_products_at_8192(self, monkeypatch):
        p = 8192
        bl.log2_const(p + 256)
        calls = [0]
        real_mul = bl.mul

        def counting(a, b, prec):
            calls[0] += 1
            return real_mul(a, b, prec)

        monkeypatch.setattr(bl, "mul", counting)
        for q in (Fraction(1, 3), Fraction(22, 7), Fraction(-700)):
            calls[0] = 0
            bl.exp(frac_ball(q, p), p)
            assert calls[0] <= 60, ("exp", q, calls[0])
        for q in (Fraction(1, 3), Fraction(22, 7), Fraction(2 ** 47 - 1)):
            calls[0] = 0
            bl.log(frac_ball(q, p), p)
            assert calls[0] <= 260, ("log", q, calls[0])

    def test_radius_sum_across_64_binary_orders(self):
        # the rounding error of a midpoint has mantissa 1: adding a radius
        # far below it must not double it
        rm, re = bl._rad_add(1, 0, 3, -100)
        total = Fraction(rm) * Fraction(2) ** re
        assert 1 + Fraction(3, 2 ** 100) <= total <= 1 + Fraction(1, 2 ** 31)
        rm, re = bl._rad_add(5, -200, 1 << 40, -300)
        assert Fraction(rm) * Fraction(2) ** re >= 5 * Fraction(2) ** -200 + Fraction(2) ** -260


class TestLogNearOne:
    """log(1 +- 2^-e): the working precision grows by the e leading zeros
    of x - 1, so the logarithm, about 2^-e, keeps its relative accuracy."""

    @pytest.mark.parametrize("e", [30, 100, 500, 2000])
    @pytest.mark.parametrize("p", [64, 1024])
    def test_real_and_complex_contain_mpmath(self, e, p):
        prec = p + 2 * e + 64
        mpmath.mp.prec = prec
        for sign in (1, -1):
            d = sign * mpmath.ldexp(1, -e)
            x = Ball.from_man_exp((1 << e) + sign, -e)
            got = bl.log(x, p)
            assert _contains_mp(got, mpmath.log(1 + d), prec), (e, p, sign)
            assert got.rel_accuracy_bits() >= p - 2, (e, p, sign)
            z = ComplexBall(x, Ball.from_man_exp(sign, -e))
            got = bl.log(z, p)
            assert _contains_mpc(got, mpmath.log(mpmath.mpc(1 + d, d)), prec)
            assert got.rel_accuracy_bits() >= p - 2, (e, p, sign)


class TestDecimal:
    def test_exact_display(self):
        assert bl.to_decimal(Ball.from_int(24)) == "24"
        assert bl.to_decimal(bl.parse_decimal("29.53125", 64)) == "29.53125"
        assert bl.to_decimal(Ball.from_int(-3)) == "-3"
        assert bl.to_decimal(Ball.zero()) == "0"

    def test_inexact_display_contains(self):
        v = bl.div(Ball.from_int(1), Ball.from_int(7), 64)
        s = bl.to_decimal(v)
        assert "±" in s
        mid_s, rad_s = s.split("±")
        mid = Fraction(bl._decimal_fraction(mid_s.strip()))
        rad = Fraction(bl._decimal_fraction(rad_s.strip()))
        assert abs(mid - Fraction(1, 7)) <= rad

    def test_parse_forms(self):
        assert bl.parse_decimal("3/4", 64).contains(Fraction(3, 4))
        assert bl.parse_decimal("-2.5e3", 64).contains(-2500)
        b = bl.parse_decimal("1.5 ± 1e-10", 64)
        assert b.contains(Fraction(3, 2)) and b.rad_fraction() >= Fraction(1, 10 ** 10)

    def test_large_values_at_default_digit_limit(self):
        # plain int refuses str()/int() beyond 4300 digits by default; the
        # conversions must work there without raising the limit
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            third = bl.div(Ball.from_int(1), Ball.from_int(3), 20000)
            s = bl.to_decimal(third)
            assert len(s.split(" ± ")[0]) > 6000
            assert bl.parse_decimal(s, 20100).contains(Fraction(1, 3))
            big = 3 ** 20000
            assert bl.parse_decimal(bl.to_decimal(Ball.from_int(-big)), 64).contains(-big)
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(old)

    def test_roundtrip_through_string(self):
        rng = random.Random(9)
        for _ in range(40):
            q = random_fraction(rng, 999)
            b = Ball.from_fraction(q, 96)
            s = bl.to_decimal(b)
            again = bl.parse_decimal(s, 96)
            assert again.contains(q)


class TestAccuracy:
    def test_rel_accuracy(self):
        assert Ball.from_int(5).rel_accuracy_bits() > 10 ** 6
        v = bl.div(Ball.from_int(1), Ball.from_int(3), 200)
        assert 190 <= v.rel_accuracy_bits() <= 210
