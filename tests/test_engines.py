"""Engines: agreement of all algorithms with the exact rational oracle,
tuning formulas, operation-count and storage instrumentation, and error
behavior."""

import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holoeval.balls as bl
from holoeval.balls import Ball, ComplexBall
from holoeval.poly import BiPoly, bipoly_from_text, taylor_shift_basecase
from holoeval.recmat import (DenominatorZeroError, RecMatrix,
                             ScalarRecurrence, companion,
                             rising_factorial_matrix, unroll_rational)
import holoeval
import holoeval.engines as engines
import holoeval.intmul as intmul
from holoeval.engines import (ALGORITHMS, PowerTable, bivariate_delta,
                              eval_dispatch, make_plan, mantissa_bits)
from holoeval.special import hyp1f1_gamma_matrix

RISING = rising_factorial_matrix()


def rising_exact(z, n):
    acc = Fraction(1)
    for i in range(n):
        acc *= z + i
    return acc


HALF = Ball.from_fraction(Fraction(1, 2), 64)


class TestChooseM:
    """The engine and the step length that make_plan chooses."""

    def test_rect_split_formula(self):
        for alg in ("rect-split", "rect-delta"):
            assert make_plan(RISING, HALF, 10 ** 4, 4 * 10 ** 4, alg).m == 13

    def test_multipoint_formula(self):
        assert make_plan(RISING, HALF, 10 ** 4, 1000, "multipoint").m == 100

    def test_clamp(self):
        for alg in ALGORITHMS:
            assert make_plan(RISING, HALF, 1, 64, alg).m == 1

    def test_rect_ps_subn(self):
        plan = make_plan(RISING, HALF, 10 ** 4, 10 ** 4, "rect-ps")
        assert plan.subn == min(int(2 * 100), int(10 * (10 ** 4) ** 0.25))
        assert plan.m == int(plan.subn ** 0.5)

    def test_binsplit_exact_is_one_subproduct(self):
        # rows of isqrt(n deg_x) + 1 coefficients of the one subproduct
        fib_k = companion(ScalarRecurrence([bipoly_from_text("-1"),
                                            bipoly_from_text("-x^2 k"),
                                            bipoly_from_text("1")]))
        for M, n, m in ((RISING, 100, 11), (RISING, 257, 17), (fib_k, 64, 12)):
            plan = make_plan(M, HALF, n, 128, "binsplit-exact")
            assert (plan.subn, plan.m) == (n, m)

    def test_full_mantissa_formula(self):
        # a z whose mantissa fills more than half of the working precision
        # makes every nonscalar product p x p bits, and the step grows to
        # 0.5 p^0.4
        p = 4 * 10 ** 4
        full, half = (Ball.from_fraction(Fraction(1, 3), q) for q in (p, p // 2))
        assert mantissa_bits(half) <= p // 2
        for alg in ("rect-split", "rect-delta"):
            assert make_plan(RISING, full, 10 ** 4, p, alg).m == 34
            assert make_plan(RISING, half, 10 ** 4, p, alg).m == 13
            assert make_plan(RISING, full, 100, p, alg).m == 10  # sqrt(n) cap
        assert mantissa_bits(Ball.from_fraction(Fraction(1, 3), p)) > p // 2
        assert mantissa_bits(Ball.from_fraction(Fraction(3, 64), p)) == 2
        assert mantissa_bits(Ball.zero()) == 0
        z = ComplexBall(Ball.from_fraction(Fraction(1, 4), p),
                        Ball.from_fraction(Fraction(2, 7), p))
        assert mantissa_bits(z) == mantissa_bits(z.im) > p // 2

    def test_dyadic_rising_short_keeps_m(self):
        # (2^-k)_n at p = 4n: the nonscalar products are p x 1 bits, and
        # the step stays int(min(0.2 p^0.4, sqrt n))
        seed_m = {4096: 9, 8192: 12, 16384: 16, 32768: 22}
        for n, m in seed_m.items():
            for k in range(1, 5):
                z = Ball.from_fraction(Fraction(1, 2 ** k), 4 * n)
                for alg in ("rect-split", "rect-delta"):
                    plan = make_plan(RISING, z, n, 4 * n, alg)
                    assert plan.m == m, (n, k, alg)

    def test_default_engine_follows_the_symmetry(self):
        # rect-split where the matrix is shift-symmetric, rect-delta where
        # it is not, naive below 32 factors, at any n
        fib_k = companion(ScalarRecurrence([bipoly_from_text("-1"),
                                            bipoly_from_text("-k"),
                                            bipoly_from_text("1")]))
        z = Ball.from_fraction(Fraction(1, 3), 128)
        for M in (RISING, hyp1f1_gamma_matrix(10)):
            for n in (32, 999, 1000):
                assert make_plan(M, z, n, 128).algorithm == "rect-split"
        for n in (32, 1000):
            assert make_plan(fib_k, z, n, 128).algorithm == "rect-delta"
        for M in (RISING, fib_k):
            assert make_plan(M, z, 31, 128).algorithm == "naive"
        # algorithm= and m= override the plan
        plan = make_plan(fib_k, z, 1000, 128, "rect-split", m=9)
        assert (plan.algorithm, plan.m) == ("rect-split", 9)
        assert not plan.symmetric
        rep = eval_dispatch(RISING, z, 40, 128, algorithm="rect-delta", m=3)
        assert (rep.plan.algorithm, rep.plan.m) == ("rect-delta", 3)
        assert make_plan(RISING, z, 1000, 128, m=4).m == 4
        with pytest.raises(ValueError):
            make_plan(RISING, z, 40, 128, "rect-fast")


class TestSmallExamples:
    def test_multipoint_factorial(self):
        M = companion(ScalarRecurrence([bipoly_from_text("-1-k"),
                                        bipoly_from_text("1")]))
        rep = eval_dispatch(M, Ball.zero(), 4, 64, algorithm="multipoint", m=2)
        assert rep.matrix[0][0].contains(24)

    def test_multipoint_n_equals_m_equals_1(self):
        z = Ball.from_fraction(Fraction(1, 2), 64)
        rep = eval_dispatch(RISING, z, 1, 64, algorithm="multipoint", m=1)
        assert rep.matrix[0][0].contains(Fraction(1, 2))

    def test_multipoint_rising_100(self):
        z = Ball.from_fraction(Fraction(1, 2), 256)
        rep = eval_dispatch(RISING, z, 100, 256, algorithm="multipoint")
        assert rep.matrix[0][0].contains(rising_exact(Fraction(1, 2), 100))

    @pytest.mark.parametrize("zq, n, lost", [(Fraction(1, 3), 256, 49),
                                             (Fraction(1, 3), 1024, 160),
                                             (Fraction(1, 8), 4096, 0)])
    def test_multipoint_bits_lost(self, zq, n, lost):
        # bounds from a remainder tree that divided the radii too, widening
        # them by its node coefficients (47 and 158 bits lost on (1/3)_n at
        # p = 4n, plus 2); it now divides the exact midpoints only and loses
        # 2-3 bits (test_multipoint_keeps_p_bits).  A dyadic z makes every
        # product of the fixed-point form exact, and loses nothing
        p = 4 * n
        rep = eval_dispatch(RISING, Ball.from_fraction(zq, p), n, p,
                            algorithm="multipoint")
        assert rep.matrix[0][0].contains(rising_exact(zq, n))
        assert rep.accuracy_bits >= p - lost

    @pytest.mark.parametrize("n", [256, 1024, 2048])
    def test_multipoint_keeps_p_bits(self, n):
        # the leaves take the radius polynomial at x >= 0, not radii carried
        # down the remainder tree, which lost 47, 158 and 263 bits here
        p, zq = 4 * n, Fraction(1, 3)
        rep = eval_dispatch(RISING, Ball.from_fraction(zq, p), n, p,
                            algorithm="multipoint")
        assert rep.matrix[0][0].contains(rising_exact(zq, n))
        assert rep.accuracy_bits >= p - 8

    def test_rect_ps_rising_8(self):
        # n = 8: one subproduct of length int(2 sqrt 8) = 5 and a leftover
        # of 3; n = 4: one subproduct of length n, rows of m = 3
        z = Ball.from_fraction(Fraction(1, 2), 128)
        rep = eval_dispatch(RISING, z, 8, 128, algorithm="rect-ps", m=3)
        assert (rep.plan.m, rep.plan.subn) == (3, 5)
        assert rep.matrix[0][0].contains(Fraction(2027025, 256))
        rep = eval_dispatch(RISING, z, 4, 128, algorithm="rect-ps", m=3)
        assert (rep.plan.m, rep.plan.subn) == (3, 4)
        assert rep.matrix[0][0].contains(Fraction(105, 16))

    def test_rect_ps_trivial(self):
        z = Ball.from_fraction(Fraction(1, 2), 64)
        rep = eval_dispatch(RISING, z, 1, 64, algorithm="rect-ps")
        assert (rep.plan.m, rep.plan.subn) == (1, 1)
        assert rep.matrix[0][0].contains(Fraction(1, 2))

    def test_rect_split_degenerate_m1(self):
        z = Ball.from_fraction(Fraction(1, 2), 96)
        rep = eval_dispatch(RISING, z, 5, 96, algorithm="rect-split", m=1)
        assert rep.matrix[0][0].contains(Fraction(945, 32))

    def test_rect_split_exact_point(self):
        rep = eval_dispatch(RISING, Ball.from_int(3), 6, 96,
                            algorithm="rect-split", m=2)
        assert rep.matrix[0][0].contains(20160)

    def test_rect_delta_16(self):
        z = Ball.from_fraction(Fraction(1, 2), 128)
        rep = eval_dispatch(RISING, z, 16, 128, algorithm="rect-delta", m=4)
        assert rep.matrix[0][0].contains(rising_exact(Fraction(1, 2), 16))

    def test_rect_delta_single_block(self):
        z = Ball.from_fraction(Fraction(1, 2), 64)
        rep = eval_dispatch(RISING, z, 4, 64, algorithm="rect-delta", m=4)
        assert rep.matrix[0][0].contains(rising_exact(Fraction(1, 2), 4))

    def test_empty_product_every_engine(self):
        z = Ball.from_fraction(Fraction(1, 2), 64)
        for alg in ALGORITHMS:
            rep = eval_dispatch(RISING, z, 0, 64, algorithm=alg)
            assert rep.matrix[0][0].is_exact()
            assert rep.matrix[0][0].contains(1)
            assert rep.accuracy_bits == 64

    def test_parameter_free_agreement(self):
        fib = companion(ScalarRecurrence([bipoly_from_text("-1"),
                                          bipoly_from_text("-1"),
                                          bipoly_from_text("1")]))
        mats = [eval_dispatch(fib, Ball.zero(), 12, 64, algorithm=a).matrix
                for a in ("rect-ps", "multipoint", "rect-split")]
        for mat in mats:
            assert mat[1][1].contains(233)  # F_13
            assert mat[1][1].is_exact()


class TestTaylorVariant:
    """rect-split makes the giant steps of a matrix with
    M(x, k+1) = M(x+1, k) from a difference table, with no caller-side
    switch, and records which update it used."""

    def test_rising_matches_rect_split(self):
        z = Ball.from_fraction(Fraction(1, 2), 400)
        rep = eval_dispatch(RISING, z, 100, 400, algorithm="rect-split", m=7)
        assert rep.counter.giant_step == "difference table"
        a = rep.matrix
        b = eval_dispatch(RISING, z, 100, 400, algorithm="naive").matrix
        exact = rising_exact(Fraction(1, 2), 100)
        assert a[0][0].contains(exact) and b[0][0].contains(exact)
        assert a[0][0].overlaps(b[0][0])

    def test_constant_matrix_is_symmetric(self):
        # D = 0: every giant step is the first, a table of one sum each
        fib = companion(ScalarRecurrence([bipoly_from_text("-1"),
                                          bipoly_from_text("-1"),
                                          bipoly_from_text("1")]))
        rep = eval_dispatch(fib, Ball.zero(), 30, 64, algorithm="rect-split",
                            m=5)
        assert rep.counter.giant_step == "difference table"
        assert rep.matrix[1][1].contains(1346269)  # F_31

    def test_hyp1f1_matrix_symmetry(self):
        # 1 + k + x is symmetric under (k -> k+m) vs (x -> x+m), and the
        # constant entry is invariant, so the difference table applies
        M = hyp1f1_gamma_matrix(17)
        assert M.shift_symmetry_holds()
        z = Ball.from_fraction(Fraction(5, 4), 128)
        rep = eval_dispatch(M, z, 40, 128, algorithm="rect-split", m=5)
        assert rep.counter.giant_step == "difference table"
        ref = eval_dispatch(M, z, 40, 128, algorithm="naive")
        for i in range(2):
            for j in range(2):
                assert rep.matrix[i][j].overlaps(ref.matrix[i][j])

    def test_asymmetric_matrix_contains(self):
        # M(x, k+4) != M(x+4, k): a shifted first giant step would give a
        # ball (midpoint 7962624) that misses 20!
        M = RecMatrix([[bipoly_from_text("1 + k")]])
        assert not M.shift_symmetry_holds()
        rep = eval_dispatch(M, Ball.one(), 20, 64, algorithm="rect-split", m=4)
        assert rep.counter.giant_step == "exact product"
        assert rep.matrix[0][0].contains(math.factorial(20))


def _ball_key(b):
    if isinstance(b, ComplexBall):
        return _ball_key(b.re), _ball_key(b.im)
    return int(b.man), b.exp, b.rm, b.re


def _matrix_key(A):
    """A node as it is, a ball matrix by _ball_key."""
    return A if isinstance(A, tuple) else [[_ball_key(e) for e in r] for r in A]


class _ExactSteps(RecMatrix):
    """The same matrix with the shift symmetry hidden, so that rect-split
    makes every giant step as the exact product of its factors."""

    def shift_symmetry_holds(self) -> bool:
        return False


def _exact_step_reference(M, z, n, p, m, row=None):
    rep = eval_dispatch(_ExactSteps(M.entries, M.den), z, n, p,
                        algorithm="rect-split", m=m, row=row)
    assert rep.counter.giant_step == "exact product"
    return rep


class TestDifferenceTable:
    """The giant steps from the difference table are bit-identical to the
    per-step exact products at the same m, in order and (for one row of the
    product) last first, where the coefficients of U_0 keep one sign."""

    def _same_as_exact_steps(self, M, z, n, p, m, update="difference table",
                             row=None):
        rep = eval_dispatch(M, z, n, p, algorithm="rect-split", m=m, row=row)
        assert rep.counter.giant_step == update
        ref = _exact_step_reference(M, z, n, p, m, row)
        for mat, rmat in ((rep.numerator, ref.numerator), (rep.matrix, ref.matrix)):
            assert [[_ball_key(e) for e in row] for row in mat] == \
                [[_ball_key(e) for e in row] for row in rmat]
        return rep

    @pytest.mark.parametrize("zq", [Fraction(1, 3), Fraction(2, 7),
                                    Fraction(1, 4), Fraction(-7, 2)])
    @pytest.mark.parametrize("n, p, m", [(100, 256, 7), (1000, 1024, 13),
                                         (2000, 4096, 30)])
    def test_rising_real(self, zq, n, p, m):
        rep = self._same_as_exact_steps(RISING, Ball.from_fraction(zq, p),
                                        n, p, m)
        assert rep.matrix[0][0].contains(rising_exact(zq, n))

    def test_rising_complex(self):
        p = 512
        z = ComplexBall(Ball.from_fraction(Fraction(3, 2), p),
                        Ball.from_fraction(Fraction(-5, 7), p))
        self._same_as_exact_steps(RISING, z, 300, p, 9)

    def test_rising_tiny_z_takes_the_exact_product(self):
        # the powers of 2^-3000 span too wide a range for a fixed-point
        # table at p = 64, so there are no integer sums to difference
        z = Ball.from_man_exp(1, -3000)
        table = PowerTable(z, 8, 64 + engines.guard_bits(200))
        assert table._fix is None
        self._same_as_exact_steps(RISING, z, 200, 64, 8,
                                  update="exact product")

    @pytest.mark.parametrize("zq", [Fraction(4, 3), Fraction(5, 4)])
    def test_hyp1f1(self, zq):
        M = hyp1f1_gamma_matrix(300)
        for n, p, m in ((400, 256, 9), (1500, 1024, 20)):
            self._same_as_exact_steps(M, Ball.from_fraction(zq, p), n, p, m)

    @pytest.mark.parametrize("row", [None, 0])
    def test_mixed_signs_at_inexact_z_take_the_table(self, row):
        # prod (x + i - 3) changes sign in its coefficients: the radius sums
        # take the absolute Taylor coefficients, a bound of the exact
        # products' radii, not their bits; they lose at most a bit
        M = RecMatrix([[bipoly_from_text("x + k - 3")]])
        assert M.shift_symmetry_holds()
        zq, p = Fraction(1, 3), 256
        z = Ball.from_fraction(zq, p)
        rep = eval_dispatch(M, z, 100, p, algorithm="rect-split", m=7, row=row)
        assert rep.counter.giant_step == "difference table"
        ref = _exact_step_reference(M, z, 100, p, 7, row)
        assert rep.matrix[0][0].contains(rising_exact(zq - 3, 100))
        assert rep.accuracy_bits >= ref.accuracy_bits - 1

    @pytest.mark.parametrize("row", [None, 0])
    def test_mixed_signs_at_exact_z_take_the_table(self, row):
        # the powers of 1/4 are exact, so every radius sum is 0
        M = RecMatrix([[bipoly_from_text("x + k - 3")]])
        zq = Fraction(1, 4)
        rep = self._same_as_exact_steps(M, Ball.from_fraction(zq, 256), 100,
                                        256, 7, row=row)
        assert rep.matrix[0][0].contains(rising_exact(zq - 3, 100))

    def test_zero_sequences_take_no_differences(self):
        # a midpoint sum k^2 + 1 and a radius sum that is 0 at every step
        # (an exact z): only the first is differenced and counted
        counter = engines.OpCounter()
        table = PowerTable(Ball.from_fraction(Fraction(1, 4), 64), 1, 64)
        seq = [(k * k + 1, 0) for k in range(4)]
        diffs = engines._difference_table([[None]], lambda e: iter(seq),
                                          table, counter, 0)
        assert diffs == [[[[1, 1, 2], [0]]]]
        assert counter.adds == 4 * 3 // 2

    @pytest.mark.parametrize("n", [21, 23])
    def test_degree_at_least_w_uses_w_sums(self, n):
        # w = 3 giant steps of degree 7: the table holds the 3 sums that
        # are needed, not 8; n = 23 leaves 2 factors over
        rep = self._same_as_exact_steps(
            RISING, Ball.from_fraction(Fraction(1, 3), 128), n, 128, 7)
        assert rep.matrix[0][0].contains(rising_exact(Fraction(1, 3), n))

    @pytest.mark.parametrize("M, n", [(RISING, 10), (RISING, 7),
                                      (hyp1f1_gamma_matrix(30), 12)])
    def test_one_giant_step(self, M, n):
        # n < 2m: a single giant step, from a table of one sum per part
        self._same_as_exact_steps(M, Ball.from_fraction(Fraction(5, 4), 128),
                                  n, 128, 7)

    @pytest.mark.parametrize("M, zq, n, p, m, row", [
        (RISING, Fraction(1, 3), 1000, 1024, 13, 0),
        (RISING, Fraction(-7, 2), 100, 256, 7, 0),
        (RISING, Fraction(1, 3), 23, 128, 7, 0),  # degree >= w, 2 left over
        (hyp1f1_gamma_matrix(300), Fraction(4, 3), 400, 256, 9, 0),
        (hyp1f1_gamma_matrix(300), Fraction(5, 4), 1500, 1024, 20, 1),
        (hyp1f1_gamma_matrix(30), Fraction(5, 4), 12, 128, 7, 0)])
    def test_reversed_steps(self, M, zq, n, p, m, row):
        # the table starts from U_0(x + (w-1) m) and shifts by -m
        rep = self._same_as_exact_steps(M, Ball.from_fraction(zq, p), n, p,
                                        m, row=row)
        exact = unroll_rational(M, zq, n)[row]
        assert all(v.contains(e) for v, e in zip(rep.matrix[0], exact))

    def test_reversed_steps_complex(self):
        p = 512
        z = ComplexBall(Ball.from_fraction(Fraction(3, 2), p),
                        Ball.from_fraction(Fraction(-5, 7), p))
        self._same_as_exact_steps(RISING, z, 300, p, 9, row=0)

    def test_shift_symmetric_order_two_gets_the_longer_step(self):
        # a 2 x 2 shift-symmetric matrix steps by 1.5 p^0.4 for a short and
        # a full-mantissa z alike; the rising factorial and matrices
        # without the symmetry keep the scalar rule
        p, n = 8192, 20000
        z = Ball.from_fraction(Fraction(5, 4), p)
        for zq in (Fraction(5, 4), Fraction(4, 3)):
            rep = eval_dispatch(hyp1f1_gamma_matrix(10),
                                Ball.from_fraction(zq, 64), 100, 64,
                                algorithm="rect-split")
            assert rep.plan.m == int(1.5 * 64 ** 0.4) == 7
        fib_k = companion(ScalarRecurrence([bipoly_from_text("-1"),
                                            bipoly_from_text("-k"),
                                            bipoly_from_text("1")]))
        assert not fib_k.shift_symmetry_holds()
        rep = eval_dispatch(fib_k, z, 40, 64, algorithm="rect-split")
        assert rep.plan.m == 1
        M = hyp1f1_gamma_matrix(10)
        for zq in (Fraction(0), Fraction(5, 4), Fraction(1, 3)):
            zb = Ball.from_fraction(zq, p)
            assert make_plan(M, zb, n, p, "rect-split").m == 55
        assert make_plan(fib_k, z, n, p, "rect-split").m == int(0.2 * p ** 0.4)
        assert make_plan(M, z, n, p, "rect-delta").m == int(0.2 * p ** 0.4)


class TestTaylorSums:
    """rect-split's first sums of each entry of U_0, made from the dot sums
    of its Taylor coefficients and Horner in the shift, are the dot sums of
    U_0 shifted by each step's start, in both orders; rect-delta's steps
    taken last first are its forward steps, bit for bit."""

    CPX = ComplexBall(Ball.from_fraction(Fraction(3, 2), 512),
                      Ball.from_fraction(Fraction(-5, 7), 512))

    CASES = [
        (RISING, Fraction(1, 3), 23, 7),     # w = 3 < D + 1 = 8
        (RISING, Fraction(1, 3), 100, 7),    # w = 14 > D + 1
        (RISING, Fraction(5, 4), 23, 7),
        (RISING, CPX, 300, 9),
        (hyp1f1_gamma_matrix(300), Fraction(4, 3), 400, 9),  # a zero entry
        (hyp1f1_gamma_matrix(300), Fraction(5, 4), 30, 7),
        (hyp1f1_gamma_matrix(300), CPX, 200, 11),
        (RecMatrix([[bipoly_from_text("-x - k")]]), Fraction(2, 7), 100, 7),
        (RecMatrix([[bipoly_from_text("-x - k")]]), Fraction(2, 7), 20, 9),
        (RecMatrix([[bipoly_from_text("x + k - 3")]]), Fraction(1, 4), 100, 7),
        (RecMatrix([[bipoly_from_text("x + k - 3")]]), Fraction(1, 4), 30, 7)]

    @staticmethod
    def _z(z):
        return ((512, z) if isinstance(z, ComplexBall)
                else (256, Ball.from_fraction(z, 256)))

    @pytest.mark.parametrize("row", [None, 0])
    @pytest.mark.parametrize("M, z, n, m", CASES)
    def test_sums_are_those_of_the_shifted_entries(self, monkeypatch, M, z,
                                                   n, m, row):
        seen = []

        def spy(grid, sums, table, counter, live):
            seen.append((grid, sums, table))
            return real(grid, sums, table, counter, live)

        real = engines._difference_table
        monkeypatch.setattr(engines, "_difference_table", spy)
        p, zb = self._z(z)
        rep = eval_dispatch(M, zb, n, p, algorithm="rect-split", m=m, row=row)
        assert rep.counter.giant_step == "difference table"
        grid, sums, table = seen[0]  # rect-split's, before the leftovers
        w = n // m
        start, step = (0, m) if row is None else ((w - 1) * m, -m)
        entries = [e for r in grid for e in r]
        assert any(e.is_zero() for e in entries) == (M.r == 2)
        for e in entries:
            count = max(1, min(len(e.coeffs), w))
            ref = [bl.n_dot_sums(taylor_shift_basecase(e, start + i * step)
                                 .coeffs, table._fix) for i in range(count)]
            assert list(sums(e)) == ref

    @pytest.mark.parametrize("M, z, n, m", CASES + [
        (companion(ScalarRecurrence([bipoly_from_text("x + k^2"),
                                     bipoly_from_text("x - k + 2"),
                                     bipoly_from_text("1 + k")])),
         Fraction(1, 3), 100, 7)])
    def test_rect_delta_last_first(self, M, z, n, m):
        # row mode starts at (w - 1) m and steps by -m; the sums are exact,
        # also on a companion matrix with mixed k-rows
        p, zb = self._z(z)
        plan = make_plan(M, zb, n, p, "rect-delta", m)
        steps = [[_matrix_key(S) for S in engines._ENGINES["rect-delta"](
            M, zb, n, plan, engines.OpCounter(), reverse)[2]]
            for reverse in (False, True)]
        assert len(steps[0]) == n // m
        assert steps[1] == steps[0][::-1]


def _eval_k_steps(E, ks, table, p):
    """The reference for _bivariate_steps on a table with a fixed-point
    form: [[e(z, k)]] for each k by eval_k and the table's dot, one index at
    a time, with the radius sums of e's x^a rows made absolute and evaluated
    at k: on a real table the node of the dot sums, on a complex one their
    balls."""
    fix = table._fix
    parts = fix if len(fix) == 2 else (fix,)

    def sums(e, k):
        cs = e.eval_k(k).coeffs
        bounds = [sum(abs(c) * k ** b for b, c in enumerate(r))
                  for r in e.grid]
        return [s for mids, rads, _ in parts for s in (
            sum(c * x for c, x in zip(cs, mids)),
            0 if rads is None else sum(c * x for c, x in zip(bounds, rads)))]

    for k in ks:
        sums_k = [[sums(e, k) for e in row] for row in E]
        yield ([[bl.n_ball_from_sums(s, fix, p) for s in row]
                for row in sums_k] if len(fix) == 2 else
               ([[s[0] for s in row] for row in sums_k],
                fix[1] and [[s[1] for s in row] for row in sums_k], fix[2]))


def _horner_steps(E, ks, table, p):
    """_eval_k_steps, ball matrices by _ball_key."""
    return [_matrix_key(S) for S in _eval_k_steps(E, ks, table, p)]


def _count_dots(monkeypatch):
    """A list that counts the fused dots made: the calls of
    PowerTable.eval_int_poly and of engines._dot_sums."""
    calls = []
    dot, sums = PowerTable.eval_int_poly, engines._dot_sums

    def counted(self, *args, **kwargs):
        calls.append(1)
        return dot(self, *args, **kwargs)

    monkeypatch.setattr(PowerTable, "eval_int_poly", counted)
    monkeypatch.setattr(engines, "_dot_sums",
                        lambda *args: calls.append(1) or sums(*args))
    return calls


class TestBivariateDifferences:
    """rect-delta's Delta_m(z, i m) and the factors _run multiplies in one
    at a time come from a difference table of their fused-dot sums on every
    table with a fixed-point form, bit for bit the balls of eval_k and the
    table's dot with the radius sums of the absolute k-rows (_eval_k_steps),
    which are those of the dot itself where each row keeps one sign."""

    # every x^a row of a_0 and a_1 of one sign, and so of Delta_m
    ONE_SIGNED = companion(ScalarRecurrence([
        bipoly_from_text("-x - k^2 - 1"), bipoly_from_text("1 + k")]))
    # order 2, every x^a row of M of one sign, but not of Delta_m; the
    # companion's entry (0, 0) is zero
    ONE_SIGNED_2 = companion(ScalarRecurrence([
        bipoly_from_text("x + k^2"), bipoly_from_text("-2 - x - 3*k"),
        bipoly_from_text("1 + k")]))
    # x^0 row of a_1 is 2 - k
    MIXED = companion(ScalarRecurrence([
        bipoly_from_text("x + k^2"), bipoly_from_text("x - k + 2"),
        bipoly_from_text("1 + k")]))
    # a zero off the diagonal and entries of different k-degrees
    DIAGONAL = RecMatrix([[bipoly_from_text("x + k"), BiPoly.zero()],
                          [BiPoly.zero(), bipoly_from_text("2*x + k^3 + 1")]])

    ZS = {"inexact": Ball.from_fraction(Fraction(1, 3), 256),
          "exact": Ball.from_fraction(Fraction(-7, 4), 256),
          "complex inexact": ComplexBall(
              Ball.from_fraction(Fraction(3, 2), 256),
              Ball.from_fraction(Fraction(-5, 7), 256)),
          "complex exact": ComplexBall(
              Ball.from_fraction(Fraction(1, 4), 256),
              Ball.from_fraction(Fraction(3, 8), 256))}

    MATRICES = [RISING, ONE_SIGNED, ONE_SIGNED_2, MIXED, DIAGONAL]

    @staticmethod
    def _by_table(table):
        return table._fix is not None

    @pytest.mark.parametrize("M", MATRICES)
    @pytest.mark.parametrize("zname", list(ZS))
    @pytest.mark.parametrize("m, count", [(5, 2), (5, 4), (5, 9)])
    def test_delta_steps_match_eval_k(self, M, zname, m, count):
        # count Delta steps below and above deg_k Delta + 1 (5 for RISING)
        z, p = self.ZS[zname], 256
        table = PowerTable(z, m * M.deg_x(), p)
        delta = bivariate_delta(M, m)
        by_table, steps = engines._bivariate_steps(
            delta, 0, m, count, table, p, engines.OpCounter())
        assert by_table == self._by_table(table)
        assert [_matrix_key(S) for S in steps] \
            == _horner_steps(delta, range(0, count * m, m), table, p)

    @pytest.mark.parametrize("M", MATRICES)
    @pytest.mark.parametrize("zname", list(ZS))
    @pytest.mark.parametrize("first, step, count", [
        (10, 1, 1), (10, 1, 3), (7, 1, 12), (9, -1, 2), (20, -1, 9)])
    def test_factors_match_eval_k(self, M, zname, first, step, count):
        # leftover counts below and above deg_k + 1, in both orders
        z, p = self.ZS[zname], 256
        table = PowerTable(z, M.deg_x(), p)
        by_table, steps = engines._bivariate_steps(
            M.entries, first, step, count, table, p, engines.OpCounter())
        assert by_table == self._by_table(table)
        ks = range(first, first + count * step, step)
        assert [_matrix_key(S) for S in steps] \
            == _horner_steps(M.entries, ks, table, p)

    def _same_as_eval_k(self, monkeypatch, M, z, n, p, m, alg, row=None,
                        update="difference table"):
        rep = eval_dispatch(M, z, n, p, algorithm=alg, m=m, row=row)
        if alg == "rect-delta":
            assert rep.counter.giant_step == (update if n // m > 1 else None)
        with monkeypatch.context() as mp:
            # the reference: every step of _bivariate_steps by _eval_k_steps
            mp.setattr(engines, "_bivariate_steps", lambda E, first, step,
                       count, table, p, counter: (False, _eval_k_steps(
                           E, range(first, first + count * step, step),
                           table, p)))
            ref = eval_dispatch(M, z, n, p, algorithm=alg, m=m, row=row)
        for mat, rmat in ((rep.numerator, ref.numerator),
                          (rep.matrix, ref.matrix)):
            assert [[_ball_key(e) for e in r] for r in mat] == \
                [[_ball_key(e) for e in r] for r in rmat]
        assert _ball_key(rep.denominator) == _ball_key(ref.denominator)
        return rep

    @pytest.mark.parametrize("zq", [Fraction(1, 3), Fraction(1, 4),
                                    Fraction(-7, 2), Fraction(2, 7)])
    @pytest.mark.parametrize("n, m", [(20, 7), (99, 7), (104, 7),
                                      (1000, 13)])
    @pytest.mark.parametrize("row", [None, 0])
    def test_rising(self, monkeypatch, zq, n, m, row):
        # w - 1 = 1 < m and 13 > m Delta steps; 1 < 2 and 6 > 2 leftover
        p = 4 * n
        for alg in ("rect-delta", "naive"):
            rep = self._same_as_eval_k(monkeypatch, RISING,
                                       Ball.from_fraction(zq, p), n, p, m,
                                       alg, row)
            assert rep.matrix[0][0].contains(rising_exact(zq, n))

    @pytest.mark.parametrize("zname", list(ZS))
    @pytest.mark.parametrize("row", [None, 0, 1])
    def test_matrices(self, monkeypatch, zname, row):
        z, m = self.ZS[zname], 5
        for M in self.MATRICES[1:]:
            if row is not None and row >= M.r:
                continue
            for alg in ("rect-delta", "rect-split", "naive"):
                for n in (6, 23, 50):
                    self._same_as_eval_k(monkeypatch, M, z, n, 256, m, alg,
                                         row)

    def test_mixed_signs_at_inexact_z_take_the_table(self, monkeypatch):
        M, n, m = self.MIXED, 23, 5

        def setup(E):  # a table's dots: one per k^b column of each entry
            return sum(max(1, e.deg_k() + 1) for row in E for e in row)

        calls = _count_dots(monkeypatch)
        for zname in ("inexact", "complex inexact", "exact"):
            calls.clear()
            rep = eval_dispatch(M, self.ZS[zname], n, 256, algorithm="naive")
            # naive: every factor is a leftover one, from the table's dots
            # (4 per factor without it)
            assert len(calls) == setup(M.entries) < 4 * n
            calls.clear()
            rep = eval_dispatch(M, self.ZS[zname], n, 256,
                                algorithm="rect-delta", m=m)
            assert rep.counter.giant_step == "difference table"
            # the tables of the giant steps G(z, i m) and of the leftover
            # factors, and no other dot
            assert len(calls) == setup(engines._giant_step_poly(
                M, m, engines.OpCounter())) \
                + setup(M.entries)

    # shift-symmetric, with the mixed x^0 rows k - 3 and 2 - k
    SYMMETRIC_MIXED = RecMatrix([
        [bipoly_from_text("x + k - 3"), bipoly_from_text("-2")],
        [bipoly_from_text("1"), bipoly_from_text("2 - x - k")]])

    @pytest.mark.parametrize("cpx", [False, True])
    @pytest.mark.parametrize("alg", ["naive", "rect-delta", "rect-split"])
    def test_mixed_signs_contain_the_exact_product(self, alg, cpx):
        # the absolute-row radius sums hold the exact values, at an inexact
        # real and complex z, on both matrices with mixed rows
        assert self.SYMMETRIC_MIXED.shift_symmetry_holds()
        p = 128
        zq = (_Gaussian(Fraction(3, 2), Fraction(-5, 7)) if cpx
              else Fraction(-2, 3))
        z = TestShortZTree._ball(zq, p)
        for M in (self.MIXED, self.SYMMETRIC_MIXED):
            for n in (7, 64, 257):
                rep = eval_dispatch(M, z, n, p, algorithm=alg)
                if n > 7 and alg != "naive":
                    assert rep.counter.giant_step == (
                        "exact product" if alg == "rect-split"
                        and M is self.MIXED else "difference table")
                exact = unroll_rational(M, zq, n)
                assert all(_contains(v, e) for vrow, erow in zip(
                    rep.matrix, exact) for v, e in zip(vrow, erow)), (M, n)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("zname", ["inexact", "complex inexact"])
    @pytest.mark.parametrize("M", [RecMatrix([[bipoly_from_text("x + k - 3")]]),
                                   SYMMETRIC_MIXED, hyp1f1_gamma_matrix(300)])
    def test_rect_split_and_rect_delta_make_the_same_steps(self, M, zname,
                                                           reverse):
        # on a shift-symmetric matrix U_0(x + k) = prod_{t<m} M(x, k + t):
        # both engines hand the one kernel the same G, so their steps are
        # the same nodes or balls, radii included where G's k-rows change
        # sign, in both orders
        assert M.shift_symmetry_holds()
        z, p, n, m = self.ZS[zname], 256, 100, 7
        steps = []
        for alg in ("rect-split", "rect-delta"):
            counter = engines.OpCounter()
            _, covered, S = engines._ENGINES[alg](
                M, z, n, make_plan(M, z, n, p, alg, m), counter, reverse)
            assert counter.giant_step == "difference table"
            assert covered == n // m * m
            steps.append([_matrix_key(X) for X in S])
        assert len(steps[0]) == n // m
        assert steps[0] == steps[1]

    def test_tiny_z_falls_back(self):
        # no fixed-point form of the powers of 2^-3000 at p = 64
        z = Ball.from_man_exp(1, -3000)
        rep = eval_dispatch(RISING, z, 40, 64, algorithm="rect-delta", m=8)
        assert rep.counter.giant_step == "exact product"

    def test_one_giant_step_records_no_update(self):
        z = Ball.from_fraction(Fraction(1, 3), 128)
        rep = eval_dispatch(RISING, z, 10, 128, algorithm="rect-delta", m=7)
        assert rep.counter.giant_step is None

    @pytest.mark.parametrize("alg", ["rect-delta", "naive"])
    def test_counts_on_the_rising_factorial(self, monkeypatch, alg):
        # one dot per k^b column, against eval_k and a dot at every index on
        # a table with no fixed-point form; a step adds about as many
        # differences as the dot had coefficients (one for x + k at an exact
        # z, where the radius sums are 0), and the set-up adds Horner in k at
        # deg_k + 1 indices (m + 1 = 14 for rect-delta's G)
        z, n, p = Ball.from_fraction(Fraction(1, 4), 4096), 1000, 4096
        rep = eval_dispatch(RISING, z, n, p, algorithm=alg, m=13)
        with monkeypatch.context() as mp:
            mp.setattr(bl, "n_fixed_point", lambda *_: None)
            ref = eval_dispatch(RISING, z, n, p, algorithm=alg, m=13)
        assert rep.counter.giant_step == (
            "difference table" if alg == "rect-delta" else None)
        assert rep.counter.nonscalar == ref.counter.nonscalar
        assert rep.counter.coeff < ref.counter.coeff / 4
        assert rep.counter.scalar < ref.counter.scalar / 4
        assert ref.counter.adds == 0
        assert rep.counter.adds < (1.3 if alg == "rect-delta" else 0.6) \
            * ref.counter.scalar


def rand_bipoly(rng, maxdeg=2, bound=5):
    return BiPoly([[rng.randint(-bound, bound)
                    for _ in range(rng.randint(1, maxdeg + 1))]
                   for _ in range(rng.randint(1, maxdeg + 1))])


def random_valid_recurrence(rng, nmax):
    while True:
        order = rng.randint(1, 3)
        coeffs = [rand_bipoly(rng) for _ in range(order + 1)]
        if coeffs[-1].is_zero():
            continue
        z = Fraction(rng.randint(-7, 7), rng.randint(1, 7))
        M = companion(ScalarRecurrence(coeffs))
        try:
            exact = unroll_rational(M, z, nmax)
        except DenominatorZeroError:
            continue
        return M, z, exact


class _Gaussian:
    """Exact a + b i over Q, with what unroll_rational needs of a number."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def lift(v):
        return v if isinstance(v, _Gaussian) else _Gaussian(v)

    def __add__(self, o):
        o = self.lift(o)
        return _Gaussian(self.re + o.re, self.im + o.im)

    def __mul__(self, o):
        o = self.lift(o)
        return _Gaussian(self.re * o.re - self.im * o.im,
                         self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        o = self.lift(o)
        d = o.re ** 2 + o.im ** 2
        return _Gaussian((self.re * o.re + self.im * o.im) / d,
                         (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, o):
        return self.lift(o) / self

    def __eq__(self, o):
        o = self.lift(o)
        return self.re == o.re and self.im == o.im

    __radd__ = __add__
    __rmul__ = __mul__


def _boundary_ns(m):
    """No giant step, one step and nothing over, one step and a tail of
    one, two steps and a tail of one, and n = 0."""
    return sorted({0, 1, m - 1, m, m + 1, 2 * m + 1})


class TestDriverBoundaries:
    """Every engine through the one loop at the edges of its giant steps,
    against the exact oracle; n = 0 is the exact identity."""

    # an x-dependent leading coefficient (the denominator) and
    # M(x, k+1) != M(x+1, k): no engine leans on the shift symmetry
    COMPANION = companion(ScalarRecurrence([bipoly_from_text("x - 2*k + 1"),
                                            bipoly_from_text("-3 - x*k"),
                                            bipoly_from_text("2 + x + k^2")]))

    @pytest.mark.parametrize("m", [0, -7, True, False, 2.0, "3"])
    def test_step_length_must_be_a_positive_int(self, m):
        # m = -7 and m = True once ran as m = 1
        with pytest.raises(ValueError, match="m must be"):
            make_plan(RISING, HALF, 100, 64, "rect-split", m)
        with pytest.raises(ValueError, match="m must be"):
            eval_dispatch(RISING, HALF, 100, 64, m=m)
        assert make_plan(RISING, HALF, 100, 64, "rect-split", 7).m == 7

    @pytest.mark.parametrize("m", [1, 3, 4])
    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_companion_complex_z(self, alg, m):
        M = self.COMPANION
        assert not M.shift_symmetry_holds() and M.den.deg_x() == 1
        zq = _Gaussian(Fraction(3, 2), Fraction(-5, 7))
        z = ComplexBall(Ball.from_fraction(zq.re, 128),
                        Ball.from_fraction(zq.im, 128))
        for n in _boundary_ns(m):
            rep = eval_dispatch(M, z, n, 128, algorithm=alg, m=m)
            exact = unroll_rational(M, zq, n)
            for i in range(2):
                for j in range(2):
                    v, e = rep.matrix[i][j], _Gaussian.lift(exact[i][j])
                    assert v.contains(e.re, e.im), (alg, m, n, i, j)
                    assert v.is_exact() or n

    @pytest.mark.parametrize("m", [1, 3, 4])
    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_rising(self, alg, m):
        zq = Fraction(1, 3)
        z = Ball.from_fraction(zq, 128)
        for n in _boundary_ns(m):
            v = eval_dispatch(RISING, z, n, 128, algorithm=alg, m=m).matrix[0][0]
            assert v.contains(unroll_rational(RISING, zq, n)[0][0]), (alg, m, n)
            assert v.is_exact() or n

    def test_precision_below_two_is_refused(self):
        for p in (1, 0, -3):
            with pytest.raises(ValueError, match="p must be"):
                eval_dispatch(RISING, Ball.one(), 5, p)


def _contains(v, e):
    if isinstance(v, ComplexBall):
        e = _Gaussian.lift(e)
        return v.contains(e.re, e.im)
    return v.contains(e)


class TestRowMode:
    """eval_dispatch(..., row=r) returns row r of the product as a 1 x r
    matrix, from the factors taken last first, on every engine: it holds
    the exact row, at the edges of the giant steps and for n = 0."""

    # order 3, x-dependent and pure-k denominators; neither is shift
    # symmetric
    COMPANION_X = companion(ScalarRecurrence([
        bipoly_from_text("x - 2*k + 1"), bipoly_from_text("-3 - x*k"),
        bipoly_from_text("1 + k^2"), bipoly_from_text("2 + x + k^2")]))
    COMPANION_K = companion(ScalarRecurrence([
        bipoly_from_text("x^2 - k"), bipoly_from_text("3 + x"),
        bipoly_from_text("-1 + x*k"), bipoly_from_text("1 + k")]))

    def _check(self, M, zq, z, m, p=128):
        for alg in ALGORITHMS:
            for n in _boundary_ns(m):
                exact = unroll_rational(M, zq, n)
                for r in range(M.r):
                    rep = eval_dispatch(M, z, n, p, algorithm=alg, m=m, row=r)
                    row, = rep.matrix
                    assert len(row) == M.r
                    assert all(_contains(v, e) for v, e in zip(row, exact[r])), \
                        (alg, m, n, r)
                    assert n or all(v.is_exact() for v in row)

    @pytest.mark.parametrize("m", [3, 4])
    def test_rising(self, m):
        zq = Fraction(1, 3)
        self._check(RISING, zq, Ball.from_fraction(zq, 128), m)

    @pytest.mark.parametrize("m", [3, 5])
    def test_hyp1f1(self, m):
        zq = Fraction(5, 4)
        self._check(hyp1f1_gamma_matrix(30), zq, Ball.from_fraction(zq, 128), m)

    @pytest.mark.parametrize("M", [COMPANION_X, COMPANION_K])
    def test_companion(self, M):
        assert M.den.deg_x() == (1 if M is self.COMPANION_X else 0)
        zq = Fraction(3, 2)
        self._check(M, zq, Ball.from_fraction(zq, 128), 3)

    @pytest.mark.parametrize("row", [2, -1, True, 1.0, "0"])
    def test_row_out_of_range(self, row):
        M = hyp1f1_gamma_matrix(30)
        with pytest.raises(ValueError, match="row"):
            eval_dispatch(M, Ball.one(), 10, 64, row=row)
        assert len(eval_dispatch(M, Ball.one(), 10, 64, row=1).matrix) == 1

    @pytest.mark.parametrize("M", [COMPANION_X, TestDriverBoundaries.COMPANION,
                                   RISING])
    def test_complex_z(self, M):
        zq = _Gaussian(Fraction(3, 2), Fraction(-5, 7))
        z = ComplexBall(Ball.from_fraction(zq.re, 128),
                        Ball.from_fraction(zq.im, 128))
        self._check(M, zq, z, 3)

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_row_keeps_the_accuracy_of_the_matrix(self, alg):
        # steps ~ (700/m)^m times larger at the end than at the start: a
        # last-first update that subtracted from the largest step would
        # lose those bits (26 of 256 here for rect-delta)
        M, p = hyp1f1_gamma_matrix(180), 256
        z = Ball.from_fraction(Fraction(69, 50), p)
        full = eval_dispatch(M, z, 700, p, algorithm=alg).matrix[0]
        row, = eval_dispatch(M, z, 700, p, algorithm=alg, row=0).matrix
        for a, b in zip(full, row):
            assert b.rel_accuracy_bits() >= a.rel_accuracy_bits() - 2

    def test_hyp1f1_row_makes_three_products_per_factor(self):
        # a factor S = [[a, b], [0, N^m]] costs R0 a, R0 b and R1 N^m on a
        # row; on the matrix, S V for an upper triangular V makes 4 of the
        # 8 products (the other 4 have an exact-zero factor)
        M = hyp1f1_gamma_matrix(300)
        for n in (700, 703):
            z = Ball.from_fraction(Fraction(4, 3), 512)
            for row, per_factor in ((0, 3), (None, 4)):
                rep = eval_dispatch(M, z, n, 512, algorithm="rect-split",
                                    row=row)
                m = rep.plan.m
                factors = n // m + n % m  # giant steps and the tail
                assert rep.counter.nonscalar == (m - 1) + per_factor * (factors - 1)


def _dense_mat_mul(A, B, p):
    """A B with every product made, exact zeros included."""
    return [[functools.reduce(lambda acc, t: bl.n_add(acc, t, p),
                              [bl.n_mul(a, brow[j], p) for a, brow in zip(arow, B)])
             for j in range(len(B))] for arow in A]


class TestBallMatMul:
    @pytest.mark.parametrize("z", [
        Ball.from_fraction(Fraction(3, 7), 200),
        ComplexBall(Ball.from_fraction(Fraction(3, 2), 200),
                    Ball.from_fraction(Fraction(-5, 7), 200))])
    def test_skipping_exact_zeros_is_bit_identical(self, z):
        # companion factors hold exact zeros off the last row; the products
        # of their running product and of one of its rows
        M = TestRowMode.COMPANION_X
        p = 200
        table = PowerTable(z, M.deg_x(), p)
        factors = [[[table.eval_int_poly(e.coeffs) for e in r]
                    for r in engines._factor(M, i, engines.OpCounter())]
                   for i in range(6)]
        V = factors[0]
        for S in factors[1:]:
            counter = engines.OpCounter()
            for A, B in ((S, V), ([V[1]], S)):
                got = engines.ball_mat_mul(A, B, p, counter)
                ref = _dense_mat_mul(A, B, p)
                assert [[_ball_key(e) for e in r] for r in got] == \
                    [[_ball_key(e) for e in r] for r in ref]
            made = sum(not (engines._ball_is_exact_zero(a)
                            or engines._ball_is_exact_zero(brow[j]))
                       for A, B in ((S, V), ([V[1]], S))
                       for arow in A for j in range(3)
                       for a, brow in zip(arow, B))
            assert counter.nonscalar == made < 36
            V = engines.ball_mat_mul(S, V, p)


def _rand_node(rng, r, spread, top, exact):
    """A node of r x r entries whose nonzero ones have top - spread + 1 to
    top bits, a quarter of them exact zeros, with radii (rads None if exact)
    of up to 40 bits, some 0 and some on a zero midpoint."""
    def mid():
        if rng.random() < 0.25:
            return 0
        k = rng.randint(max(1, top - spread + 1), top)
        return rng.choice((-1, 1)) * (rng.getrandbits(k) | 1 << (k - 1))

    mids = [[mid() for _ in range(r)] for _ in range(r)]
    rads = None if exact else [[rng.choice((0, rng.getrandbits(40)))
                                for _ in range(r)] for _ in range(r)]
    return mids, rads, rng.randint(-60, 60)


def _vertex(rng, X):
    """A vertex of the box of a node: integers v with v 2^e in the node."""
    mids, rads, _ = X
    return [[c + rng.choice((-1, 0, 1)) * r for c, r in zip(*rows)]
            for rows in zip(mids, engines._rads(X))]


def _holds(C, V, e):
    """Whether the values V 2^e lie in C, a node or a ball matrix."""
    if not isinstance(C, tuple):
        return all(b.contains(Fraction(v) * Fraction(2) ** e)
                   for brow, vrow in zip(C, V) for b, v in zip(brow, vrow))
    d = C[2] - e
    return d >= 0 and all(abs(v - (c << d)) <= r << d for vrow, crow, rrow in
                          zip(V, C[0], engines._rads(C))
                          for v, c, r in zip(vrow, crow, rrow))


class TestNode:
    """The node product (engines, Fixed point) against exact integers at the
    vertices of the operands' boxes."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(1, 3),
           st.sampled_from([16, 64, 200, 1 << 17]), st.booleans(),
           st.booleans())
    def test_product_and_sum_contain_the_exact_values(self, seed, r, p, ea,
                                                      eb):
        # the exact product of sampled vertices of the operands' boxes lies
        # in the node product; entries span up to the cap of p bits, and 1 x 1 operands at p = 2^17 lie
        # on both sides of FFT_MIN_BITS (one `*`, or intmul.mat_mul)
        rng = random.Random(seed)
        fft = p > intmul.FFT_MIN_BITS and r == 1
        top = (rng.choice((intmul.FFT_MIN_BITS - 1, intmul.FFT_MIN_BITS + 8))
               if fft else rng.randint(1, 2 * p))
        A, B = (_rand_node(rng, r, 1 if fft else p, top, exact)
                for exact in (ea, eb))
        counter = engines.OpCounter()
        C = engines._node_mul(A, B, p, counter)
        (am, ar), (bm, br) = ((X[0], engines._rads(X)) for X in (A, B))
        made = sum(bool(am[i][t] or ar[i][t]) and bool(bm[t][j] or br[t][j])
                   for i in range(r) for j in range(r) for t in range(r))
        exact = not any(map(any, ar + br))
        assert counter.nonscalar == made
        assert counter.exact_merges == (made if exact else 0)
        for _ in range(4):
            a, b = _vertex(rng, A), _vertex(rng, B)
            prod = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
                    for row in a]
            assert _holds(C, prod, A[2] + B[2])
        if isinstance(C, tuple):
            tops = [max(c.bit_length(), x.bit_length()) for rows in
                    zip(C[0], engines._rads(C)) for c, x in zip(*rows) if c or x]
            # the smallest nonzero entry keeps p bits (one more if its radius
            # rounded up to a power of 2) once the product is rounded, and the
            # entries span at most p bits
            low = min(tops, default=0)
            assert (low <= p if C[2] == A[2] + B[2] else p <= low <= p + 1)
            assert max(tops, default=0) - min(tops, default=0) <= p
            if exact and C[2] == A[2] + B[2]:
                assert C[1] is None

    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("above", [False, True])
    def test_inexact_merge_takes_the_exact_radius(self, monkeypatch, r,
                                                  above):
        # before rounding, an r x r merge of inexact nodes has the midpoints
        # A B and the radii |A| R_B + R_A (|B| + R_B), entry by entry, with
        # operands below and above intmul's crossover FFT_MIN_BITS / r, of
        # far more than p bits: upper bounds to p + 32 bits would be wider
        rng = random.Random(r + 2 * above)
        top = intmul.FFT_MIN_BITS // r + (8 if above else -1)
        A, B = (_rand_node(rng, r, 1, top, False) for _ in range(2))
        for X in (A, B):
            X[1][0][0] |= 1  # an inexact node
        seen, ffts = [], []
        monkeypatch.setattr(engines, "_node_round",
                            lambda *args: seen.append(args) or args[:3])
        fft = intmul._fft_mat_mul
        monkeypatch.setattr(intmul, "_fft_mat_mul",
                            lambda *args: ffts.append(1) or fft(*args))
        engines._node_mul(A, B, 64, engines.OpCounter())
        (am, ar, ea), (bm, br, eb) = A, B
        cols = list(zip(*bm)), list(zip(*br))
        assert seen == [(
            [[sum(x * y for x, y in zip(row, col)) for col in cols[0]]
             for row in am],
            [[sum(abs(x) * v + u * (abs(y) + v)
                  for x, u, y, v in zip(arow, urow, bcol, vcol))
              for bcol, vcol in zip(*cols)] for arow, urow in zip(am, ar)],
            ea + eb, 64)]
        # above it the midpoints take the FFT; the radius products have a
        # short factor (radii of up to 40 bits) and never do
        assert len(ffts) == (1 if above and intmul.FFT_ACTIVE else 0)

    @pytest.mark.parametrize("text", [("1", "0", "0", "x^2"),
                                      ("x^2", "x", "1", "0")])
    @pytest.mark.parametrize("p, n", [(64, 5), (64, 40), (200, 5), (200, 40)])
    def test_multipoint_keeps_the_bits_of_unequal_entries(self, text, p, n):
        # at a tiny inexact z the entries differ by up to 200 bits in size;
        # multipoint's one exponent must still keep p bits of the smallest
        M = RecMatrix([[bipoly_from_text(t) for t in text[:2]],
                       [bipoly_from_text(t) for t in text[2:]]])
        zq = Fraction(1, 3) / 2 ** 100
        z = Ball.from_fraction(zq, p)
        rep, ref = (eval_dispatch(M, z, n, p, algorithm=alg)
                    for alg in ("multipoint", "naive"))
        assert rep.accuracy_bits >= ref.accuracy_bits - 2
        assert all(v.contains(e) for vrow, erow in zip(
            rep.matrix, unroll_rational(M, zq, n)) for v, e in zip(vrow, erow))

    @pytest.mark.parametrize("text", [("1", "0", "0", "x^2"),
                                      ("x^2", "x", "1", "0")])
    @pytest.mark.parametrize("alg", ["naive", "rect-ps", "rect-split",
                                     "rect-delta"])
    def test_wide_spread_steps_keep_the_ball_accuracy(self, alg, text,
                                                      monkeypatch):
        # at an inexact tiny z the entries of a step span more than p bits;
        # such a step must merge as balls, since bounds taken relative to
        # its largest entry would swamp the smallest (0 bits or fewer kept)
        M = RecMatrix([[bipoly_from_text(t) for t in text[:2]],
                       [bipoly_from_text(t) for t in text[2:]]])
        zq = Fraction(1, 3) / 2 ** 100
        for p, n in ((64, 5), (64, 40), (200, 40)):
            z = Ball.from_fraction(zq, p)
            rep = eval_dispatch(M, z, n, p, algorithm=alg)
            with monkeypatch.context() as mp:
                TestShortZTree._ball_tree(mp)
                ref = eval_dispatch(M, z, n, p, algorithm=alg)
            assert rep.accuracy_bits >= max(ref.accuracy_bits, p - 8), \
                (alg, p, n)
            assert all(v.contains(e) for vrow, erow in zip(
                rep.matrix, unroll_rational(M, zq, n))
                for v, e in zip(vrow, erow)), (alg, p, n)


def _dyadic_companions():
    """Companions of order 1, 2 and 3 shaped like the benchmark's
    recurrences (coefficients of degree 2 in x and in k, entries +-5), their
    grids drawn in turn from random.Random(5)."""
    rng = random.Random(5)
    return {order: companion(ScalarRecurrence(
        [BiPoly([[rng.choice((-5, 5)) for _ in range(3)] for _ in range(3)])
         for _ in range(order + 1)])) for order in (1, 2, 3)}


class TestShortZTree:
    """For a short z (2 mantissa_bits(z) <= p) and a complex z, _run
    multiplies the giant steps and the leftover factors as a balanced tree;
    for a full-mantissa real z, and in row mode, it keeps the left-to-right
    product."""

    COMPANIONS = _dyadic_companions()
    # accuracy_bits of the left-to-right product at z = 3/4, per engine in
    # the order of ALGORITHMS (None: not run), for (order, p, n)
    CHAIN_BITS = {
        (2, 128, 64): (128, 119, 128, 128, 128, 128),
        (2, 128, 257): (128, -1, -5, 128, 128, 128),
        (2, 4096, 64): (4096,) * 6,
        (2, 4096, 257): (4096, 3967, 4096, 4096, 4096, 4096),
        (3, 128, 64): (128,) * 6,
        (3, 128, 257): (64, 103, -13, 128, 64, 64),
        (3, 4096, 64): (4096,) * 6,
        (3, 4096, 257): (4096, 4071, 4096, 4096, 4096, 4096),
        (3, 4096, 1024): (3815, None, None, 4096, 4055, 4055),
    }

    @staticmethod
    def _ball(zq, p):
        if isinstance(zq, _Gaussian):
            return ComplexBall(Ball.from_fraction(zq.re, p),
                               Ball.from_fraction(zq.im, p))
        return Ball.from_fraction(zq, p)

    @pytest.mark.parametrize("zq", [
        Fraction(1, 2), Fraction(1, 16), Fraction(5, 4),
        _Gaussian(Fraction(3, 8), Fraction(-5, 4))])
    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_rising(self, alg, zq):
        for n in (37, 300):
            p = 4 * n
            rep = eval_dispatch(RISING, self._ball(zq, p), n, p, algorithm=alg)
            assert _contains(rep.matrix[0][0],
                             unroll_rational(RISING, zq, n)[0][0]), (alg, n)
            assert rep.accuracy_bits == p  # as the left-to-right product

    @pytest.mark.parametrize("case", sorted(CHAIN_BITS))
    def test_dyadic_companion(self, case):
        order, p, n = case
        M, zq = self.COMPANIONS[order], Fraction(3, 4)
        exact = unroll_rational(M, zq, n)
        for alg, chain_bits in zip(ALGORITHMS, self.CHAIN_BITS[case]):
            if chain_bits is None:
                continue
            rep = eval_dispatch(M, Ball.from_fraction(zq, p), n, p,
                                algorithm=alg)
            assert all(v.contains(e) for vrow, erow in zip(rep.matrix, exact)
                       for v, e in zip(vrow, erow)), (alg, case)
            assert rep.accuracy_bits >= chain_bits, (alg, case)
            # the chain lost up to 281 bits here (naive, order 3, n = 1024)
            if alg not in ("binsplit-exact", "multipoint"):
                assert rep.accuracy_bits == p, (alg, case)

    @staticmethod
    def _recorded(monkeypatch):
        """The (A, B, p, A B) of every matrix product that _run makes: by
        ball_mat_mul, or on the whole product by _node_mul, whose own calls
        of ball_mat_mul are not recorded again."""
        calls = []
        depth = [0]

        def recorder(mul):
            def recording(A, B, p, counter=None):
                depth[0] += 1
                try:
                    out = mul(A, B, p, counter)
                finally:
                    depth[0] -= 1
                if not depth[0]:
                    calls.append((A, B, p, out))
                return out
            return recording

        for name in ("ball_mat_mul", "_node_mul"):
            monkeypatch.setattr(engines, name,
                                recorder(getattr(engines, name)))
        return calls

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_full_mantissa_and_row_keep_the_chain(self, alg, monkeypatch):
        # a pure-k denominator: every product recorded is the numerator's
        M, n = TestRowMode.COMPANION_K, 50
        mul, node_mul = engines.ball_mat_mul, engines._node_mul
        calls = self._recorded(monkeypatch)
        for zq, row in ((Fraction(3, 7), None), (Fraction(3, 4), 1),
                        (Fraction(3, 7), 2), (Fraction(3, 4), None)):
            z = Ball.from_fraction(zq, 200)
            calls.clear()
            num = eval_dispatch(M, z, n, 200, algorithm=alg, m=4,
                                row=row).numerator
            if not calls:  # binsplit-exact: one step, no product
                assert alg == "binsplit-exact"
                continue
            if zq == Fraction(3, 4) and row is None:
                # the tree: some merge takes a partial product that is not
                # the running one
                assert any(B is not prev[3]
                           for prev, (_, B, _, _) in zip(calls, calls[1:]))
                continue
            # the left-to-right product of the same steps, bit for bit: of
            # nodes for the whole product, of balls for a row
            V = calls[0][1] if row is None else calls[0][0]
            for A, B, p, _ in list(calls):
                if row is None:
                    assert _matrix_key(B) == _matrix_key(V)
                    V = node_mul(A, V, p, engines.OpCounter())
                else:
                    assert _matrix_key(A) == _matrix_key(V)
                    V = mul(V, B, p)
            assert _matrix_key(num) == \
                _matrix_key(engines._ball_node(V, p)), (alg, zq, row)

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_complex_z_takes_the_tree(self, alg, monkeypatch):
        # a full-mantissa complex z: its merges are ball products, whose
        # axis-aligned boxes widen with every merge, so the whole product
        # takes the tree, not the chain
        p, n = 128, 50
        z = ComplexBall(Ball.from_fraction(Fraction(1, 3), p),
                        Ball.from_fraction(Fraction(5, 2), p))
        assert not make_plan(RISING, z, n, p, alg).short_z
        calls = self._recorded(monkeypatch)
        rep = eval_dispatch(RISING, z, n, p, algorithm=alg, m=4)
        if alg == "binsplit-exact":  # one step, no product
            assert not calls
        else:
            assert any(B is not prev[3]
                       for prev, (_, B, _, _) in zip(calls, calls[1:]))
        re, im = _rising_exact_gaussian(2, 15, 6, n)
        assert rep.matrix[0][0].contains(re, im)

    def test_step_and_tree_take_one_short_z(self, monkeypatch):
        # p < 2 mantissa_bits(z) <= p + guard: z is short at the working
        # precision and not at p; the step and the loop must both read the
        # plan's one decision, the short-z step and the tree
        p = n = 1024
        d = 2 ** 520
        a = d // 3 | 1
        z = Ball.from_fraction(Fraction(a, d), p)
        assert p < 2 * mantissa_bits(z) <= p + engines.guard_bits(n)
        exact = Fraction(math.prod(a + i * d for i in range(n)), d ** n)
        tests = []
        short_z = engines._short_z
        monkeypatch.setattr(engines, "_short_z",
                            lambda *args: tests.append(args) or short_z(*args))

        class Counted(RecMatrix):
            def shift_symmetry_holds(self):
                tests.append(None)
                return super().shift_symmetry_holds()

        M = Counted(RISING.entries, RISING.den)
        calls = self._recorded(monkeypatch)
        for alg in ("rect-split", "rect-delta"):
            tests.clear()
            calls.clear()
            rep = eval_dispatch(M, z, n, p, algorithm=alg)
            # one symmetry test and one short-z test per evaluation
            assert len(tests) == 2 and rep.plan.short_z
            assert rep.plan.m == int(min(0.2 * p ** 0.4, n ** 0.5)) == 3
            # the tree: some merge takes a partial product that is not the
            # running one
            assert any(B is not prev[3]
                       for prev, (_, B, _, _) in zip(calls, calls[1:]))
            assert rep.matrix[0][0].contains(exact)

    @staticmethod
    def _ball_tree(mp):
        """Make _run's tree of ball steps and ball_mat_mul merges alone."""
        mul, ball = engines.ball_mat_mul, engines._ball_node
        mp.setattr(engines, "_node_mul", lambda A, B, p, counter: mul(
            ball(A, p), ball(B, p), p, counter))

    # 2^600 + i has more than p bits, so has a step of 8 factors at p = 16:
    # they are rounded first; at z = 0 every product with z is skipped
    @pytest.mark.parametrize("zq", [Fraction(1, 2), Fraction(1, 16),
                                    Fraction(5, 4), Fraction(2 ** 600),
                                    Fraction(0)])
    @pytest.mark.parametrize("alg", ["naive", "rect-split", "rect-delta"])
    def test_exact_tree_is_the_ball_tree(self, alg, zq, monkeypatch):
        # r = 1: the node tree makes the ball tree's products, so the counts
        # are the ball tree's, and it is no less accurate
        for n, p, m in ((37, 148, None), (300, 1200, None),
                        (1024, 4096, None), (300, 16, 8)):
            z = Ball.from_fraction(zq, p)
            rep = eval_dispatch(RISING, z, n, p, algorithm=alg, m=m)
            with monkeypatch.context() as mp:
                self._ball_tree(mp)
                ref = eval_dispatch(RISING, z, n, p, algorithm=alg, m=m)
            assert rep.accuracy_bits >= ref.accuracy_bits, (alg, n)
            assert rep.matrix[0][0].contains(rising_exact(zq, n))
            c, d = rep.counter, ref.counter
            assert (c.nonscalar, c.scalar, c.adds, c.coeff) == \
                (d.nonscalar, d.scalar, d.adds, d.coeff), (alg, n)
            assert d.exact_merges == 0 < c.exact_merges or zq > 2 or p < 20

    def test_exact_tree_past_the_fft_crossover(self, monkeypatch):
        # (5/4)_16384 has about 239k bits: the top merges multiply factors
        # of more than FFT_MIN_BITS, which go through intmul.mat_mul, and
        # stay exact below p = 2^18
        n, p, zq = 16384, 1 << 18, Fraction(5, 4)
        z = Ball.from_fraction(zq, p)
        big, mat_mul = [], intmul.mat_mul
        with monkeypatch.context() as mp:
            mp.setattr(intmul, "mat_mul", lambda A, B: big.append(
                min(A[0][0].bit_length(), B[0][0].bit_length()))
                or mat_mul(A, B))
            rep = eval_dispatch(RISING, z, n, p, algorithm="naive")
        assert big and min(big) >= intmul.FFT_MIN_BITS
        with monkeypatch.context() as mp:
            self._ball_tree(mp)
            ref = eval_dispatch(RISING, z, n, p, algorithm="naive")
        assert _matrix_key(rep.matrix) == _matrix_key(ref.matrix)
        assert rep.matrix[0][0].contains(rising_exact(zq, n))
        assert rep.counter.nonscalar == ref.counter.nonscalar

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_inexact_short_z_keeps_its_radius(self, alg):
        # a short midpoint with a radius: the steps are inexact balls, and
        # a merge that took them for exact ones would lose 2^-80
        z = Ball(5, -2, 1, -80)
        for n in (64, 300):
            p = 4 * n
            rep = eval_dispatch(RISING, z, n, p, algorithm=alg)
            assert rep.plan.short_z
            v = rep.matrix[0][0]
            for zq in (Fraction(5, 4) - Fraction(1, 2 ** 80),
                       Fraction(5, 4) + Fraction(1, 2 ** 80)):
                assert v.contains(rising_exact(zq, n)), (alg, n, zq)

    @pytest.mark.parametrize("order", [2, 3])
    def test_exact_merges_on_companions(self, order, monkeypatch):
        # the exact tree of r x r nodes is contained and no less accurate
        # than the ball tree
        M, zq, n, p = self.COMPANIONS[order], Fraction(3, 4), 257, 128
        exact = unroll_rational(M, zq, n)
        z = Ball.from_fraction(zq, p)
        for alg in ("naive", "rect-split", "rect-delta"):
            rep = eval_dispatch(M, z, n, p, algorithm=alg)
            with monkeypatch.context() as mp:
                self._ball_tree(mp)
                ref = eval_dispatch(M, z, n, p, algorithm=alg)
            assert rep.counter.exact_merges > 0, alg
            assert rep.accuracy_bits >= ref.accuracy_bits, alg
            assert all(v.contains(e) for vrow, erow in zip(rep.matrix, exact)
                       for v, e in zip(vrow, erow)), alg

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_tree_makes_as_many_products_on_1x1(self, alg, monkeypatch):
        # criterion 5's set-up: (1/2)_n, p = 4n, m = ceil(sqrt(n))
        counts = []
        for short in (engines._short_z, lambda zbits, p: False):
            monkeypatch.setattr(engines, "_short_z", short)
            counts.append([])
            for k in range(4, 11):
                n = 2 ** k
                z = Ball.from_fraction(Fraction(1, 2), 4 * n)
                rep = eval_dispatch(RISING, z, n, 4 * n, algorithm=alg,
                                    m=math.isqrt(n - 1) + 1)
                assert rep.matrix[0][0].contains(
                    rising_exact(Fraction(1, 2), n))
                counts[-1].append(rep.counter.nonscalar)
        assert counts[0] == counts[1]


class TestCrossAlgorithmAgreement:
    @pytest.mark.parametrize("zq", [Fraction(2, 7), Fraction(-5, 3)])
    @pytest.mark.parametrize("order", [2, 3])
    def test_multipoint_keeps_rect_delta_bits(self, order, zq):
        # companions drawn as the recurrences workload draws them, p = 128:
        # radii divided down the remainder tree left multipoint at -123 to
        # -86 bits here, where rect-delta kept -3 to 116
        M = _workload_companions(random.Random(24))[order - 1]
        p, n = 128, 257
        exact = unroll_rational(M, zq, n)
        mp, rd = (eval_dispatch(M, Ball.from_fraction(zq, p), n, p,
                                algorithm=alg) for alg in ("multipoint",
                                                           "rect-delta"))
        assert all(v.contains(e) for vrow, erow in zip(mp.matrix, exact)
                   for v, e in zip(vrow, erow))
        assert mp.accuracy_bits >= rd.accuracy_bits - 8

    def test_containment_all_engines(self):
        rng = random.Random(2024)
        for _ in range(12):
            n = rng.choice([7, 64, 257, 500])
            M, z, exact = random_valid_recurrence(rng, n)
            zb = Ball.from_fraction(z, 192)
            for alg in ALGORITHMS:
                rep = eval_dispatch(M, zb, n, 192, algorithm=alg)
                for i in range(M.r):
                    for j in range(M.r):
                        assert rep.matrix[i][j].contains(exact[i][j]), (alg, n)

    def test_naive_vs_rect_split_overlap(self):
        z = Ball.from_fraction(Fraction(1, 3), 256)
        a = eval_dispatch(RISING, z, 300, 256, algorithm="naive").matrix
        b = eval_dispatch(RISING, z, 300, 256, algorithm="rect-split").matrix
        assert a[0][0].overlaps(b[0][0])

    def test_complex_parameter(self):
        z = ComplexBall(Ball.from_fraction(Fraction(1, 2), 128),
                        Ball.from_fraction(Fraction(1, 3), 128))
        exact_re, exact_im = Fraction(1), Fraction(0)
        zre, zim = Fraction(1, 2), Fraction(1, 3)
        for i in range(20):
            nre = exact_re * (zre + i) - exact_im * zim
            nim = exact_re * zim + exact_im * (zre + i)
            exact_re, exact_im = nre, nim
        for alg in ALGORITHMS:
            rep = eval_dispatch(RISING, z, 20, 128, algorithm=alg)
            v = rep.matrix[0][0]
            assert v.re.contains(exact_re) and v.im.contains(exact_im), alg


def _workload_companions(rng):
    """Companions of orders 1-3 drawn as the recurrences workload draws
    them: a_j(x, k) of degree 2 in x and in k with entries +-5 of seeded
    signs."""
    return [companion(ScalarRecurrence(
        [BiPoly([[rng.choice((-5, 5)) for _ in range(3)] for _ in range(3)])
         for _ in range(order + 1)])) for order in (1, 2, 3)]


class TestDenominators:
    def test_pure_k_denominator_exact(self):
        M = RecMatrix([[bipoly_from_text("2")]], bipoly_from_text("1 + k"))
        rep = eval_dispatch(M, Ball.one(), 6, 96, algorithm="rect-split")
        assert rep.matrix[0][0].contains(Fraction(2 ** 6, math.factorial(6)))

    def test_x_dependent_denominator(self):
        M = RecMatrix([[bipoly_from_text("x + k + 5")]],
                      bipoly_from_text("1 + k + x"))
        z = Fraction(1, 2)
        exact = Fraction(1)
        for i in range(50):
            exact *= (z + i + 5) / (1 + i + z)
        zb = Ball.from_fraction(z, 160)
        for alg in ALGORITHMS:
            rep = eval_dispatch(M, zb, 50, 160, algorithm=alg)
            assert rep.matrix[0][0].contains(exact), alg

    def test_vanishing_reported(self):
        M = RecMatrix([[bipoly_from_text("1")]], bipoly_from_text("k - 3"))
        for alg in ("naive", "rect-split", "rect-delta"):
            with pytest.raises(DenominatorZeroError) as err:
                eval_dispatch(M, Ball.one(), 10, 64, algorithm=alg)
            assert err.value.index == 3

    @pytest.mark.parametrize("z", [Ball.from_int(3), Ball(3, 0, 1, -62)],
                             ids=["exact", "64-bit"])
    def test_x_dependent_vanishing_reported(self, z):
        # q(x, k) = x - k vanishes at k = 3 for z = 3; the 64-bit ball
        # 3 +- 2^-62 contains that zero
        M = RecMatrix([[bipoly_from_text("1")]], bipoly_from_text("x - k"))
        for alg in ALGORITHMS:
            with pytest.raises(DenominatorZeroError) as err:
                eval_dispatch(M, z, 10, 64, algorithm=alg)
            assert err.value.index == 3, alg

    COMPANIONS = _workload_companions(random.Random(24))

    @staticmethod
    def _exact_den(q, re, im, n):
        """prod_{i<n} q(z, i) for z = re + im i, as (real, imaginary)
        Fractions: Gaussian integers over the common denominator d^deg_x."""
        d = re.denominator * im.denominator
        a, c, dx = int(re * d), int(im * d), q.deg_x()
        pows = [(1, 0)]
        for _ in range(dx):
            u, v = pows[-1]
            pows.append((u * a - v * c, u * c + v * a))
        pr, pi = 1, 0
        for i in range(n):
            col = q.eval_k(i).coeffs
            fr = sum(g * u * d ** (dx - j) for j, (g, (u, _)) in
                     enumerate(zip(col, pows)))
            fi = sum(g * v * d ** (dx - j) for j, (g, (_, v)) in
                     enumerate(zip(col, pows)))
            pr, pi = pr * fr - pi * fi, pr * fi + pi * fr
        return Fraction(pr, d ** (dx * n)), Fraction(pi, d ** (dx * n))

    @pytest.mark.parametrize("p", [128, 1024])
    @pytest.mark.parametrize("zq", [(Fraction(2, 7), Fraction(0)),
                                    (Fraction(3, 8), Fraction(-5, 4))],
                             ids=["real", "complex"])
    def test_x_dependent_product_by_the_difference_table(self, monkeypatch,
                                                         zq, p):
        # an x-dependent q makes no exact subproduct: its steps come off
        # rect-delta's difference table; the reference is the rect-split
        # plan on [q], an exact subproduct per step (q is not
        # shift-symmetric).  At a full-mantissa complex z either path loses
        # bits in proportion to the ball merges of its chain (none left at
        # n = 1024, p = 128), so the complex z here is short.
        re, im = zq
        z = (Ball.from_fraction(re, p) if not im else
             ComplexBall(Ball.from_fraction(re, p), Ball.from_fraction(im, p)))
        calls = []
        spied = engines._subproduct_steps
        monkeypatch.setattr(engines, "_subproduct_steps",
                            lambda *a, **k: calls.append(1) or spied(*a, **k))
        for M in self.COMPANIONS:
            sub = RecMatrix([[M.den]])
            for n in (7, 64, 257, 1024):
                plan = make_plan(M, z, n, p)
                den = engines._den_product(M, z, n, plan,
                                           engines.OpCounter())
                assert not calls, (M.r, n)
                ere, eim = self._exact_den(M.den, re, im, n)
                assert (den.contains(ere, eim) if im else
                        den.contains(ere)), (M.r, n)
                ref = engines._run(sub, z, n, make_plan(sub, z, n, p,
                                                        "rect-split"),
                                   engines.OpCounter())[0][0]
                calls.clear()
                assert (den.rel_accuracy_bits()
                        >= ref.rel_accuracy_bits() - 1), (M.r, n)


    def test_complex_chain_denominator(self):
        # q(z, i) at a full-mantissa complex z: a chain of n ball merges
        # widened the product's boxes until it contained zero at n = 1024,
        # on every engine; the tree keeps more than 100 of the 128 bits
        q = bipoly_from_text("-5 + 5*k - 5*k^2 - 5*x - 5*x*k - 5*x*k^2"
                             " - 5*x^2 + 5*x^2*k - 5*x^2*k^2")
        M, p, n = RecMatrix([[bipoly_from_text("1")]], q), 128, 1024
        re, im = Fraction(1, 3), Fraction(5, 2)
        z = ComplexBall(Ball.from_fraction(re, p), Ball.from_fraction(im, p))
        ere, eim = self._exact_den(q, re, im, n)
        norm = ere ** 2 + eim ** 2
        for alg in ALGORITHMS:
            rep = eval_dispatch(M, z, n, p, algorithm=alg)
            assert rep.matrix[0][0].contains(ere / norm, -eim / norm), alg
            assert rep.accuracy_bits >= 100, alg


class TestInstrumentation:
    def test_nonscalar_bound_sweep(self):
        for k in range(2, 13):
            n = 2 ** k
            m = math.isqrt(n)
            if m * m < n:
                m += 1
            z = Ball.from_fraction(Fraction(1, 2), 4 * n)
            rep = eval_dispatch(RISING, z, n, 4 * n, algorithm="rect-split", m=m)
            c = rep.counter
            assert c.nonscalar <= 4 * (m + n / m), n
            assert c.scalar + c.adds <= 8 * n, n

    def test_storage_linear_in_m(self):
        n = 2 ** 10
        z = Ball.from_fraction(Fraction(1, 2), 1024)
        peaks = {}
        for m in (8, 16, 32):
            rep = eval_dispatch(RISING, z, n, 1024, algorithm="rect-split", m=m)
            peaks[m] = rep.counter.peak_coeffs
        assert peaks[16] <= 3 * peaks[8]
        assert peaks[32] <= 3 * peaks[16]

    def test_rect_delta_nonscalar_count(self):
        # power table m - 1, giant steps w - 1, leftover n - m w: every giant
        # step G(z, i m) comes from the table by scalar operations
        for n, m in ((16, 4), (100, 7), (1000, 13), (37, 1), (5, 5)):
            w = n // m
            for z in (Fraction(1, 8), Fraction(2, 3)):
                rep = eval_dispatch(RISING, Ball.from_fraction(z, 4 * n), n,
                                    4 * n, algorithm="rect-delta", m=m)
                assert rep.counter.nonscalar == (m - 1) + (w - 1) + (n - m * w), (n, m)
                assert rep.matrix[0][0].contains(rising_exact(z, n))

    @pytest.mark.parametrize("n", [16, 100, 1024])
    def test_multipoint_op_counts(self, n):
        # (1/2)_n at m = 4, w = n / m steps: scalar counts the two nonzero
        # coefficients of x + k at z, the m - 1 Taylor shifts of x + k (one
        # step each) and m Horner steps of the degree-m U at each of the w
        # points; nonscalar counts U's coefficient products (two 2 x 2 and
        # one 3 x 3) and the w - 1 merges of the steps
        m, w, p = 4, n // 4, 4 * n
        rep = eval_dispatch(RISING, Ball.from_fraction(Fraction(1, 2), p), n,
                            p, algorithm="multipoint", m=m)
        assert rep.counter.scalar == 2 + (m - 1) + w * m
        assert rep.counter.nonscalar == 2 * 4 + 9 + (w - 1)
        assert rep.matrix[0][0].contains(rising_exact(Fraction(1, 2), n))

    def test_positivity_stability(self):
        # all-positive inputs: accuracy loss stays O(log n)
        for n in (10, 100, 1000):
            p = 4 * n
            z = Ball.from_fraction(Fraction(1, 2), p)
            rep = eval_dispatch(RISING, z, n, p, algorithm="rect-split")
            loss = p - rep.accuracy_bits
            assert loss <= 4 * math.log2(n) + 16, (n, loss)


def _rising_exact_gaussian(a, b, d, n):
    """(z)_n for z = (a + b i) / d as (real, imaginary) Fractions, by
    binary splitting over the Gaussian integers."""
    def prod(lo, hi):
        if hi - lo == 1:
            return a + lo * d, b
        mid = (lo + hi) // 2
        (p, q), (r, s) = prod(lo, mid), prod(mid, hi)
        return p * r - q * s, p * s + q * r
    re, im = prod(0, n)
    return Fraction(re, d ** n), Fraction(im, d ** n)


class TestFullMantissa:
    """rect-split and rect-delta at a z whose mantissa fills the precision,
    with the longer step the m rule picks there: the exact rational value
    stays inside, and the loss stays within criterion 6's bound."""

    @pytest.mark.parametrize("n", (1024, 4096))
    @pytest.mark.parametrize("alg", ("rect-split", "rect-delta"))
    def test_real(self, alg, n):
        p = 4 * n
        z = Ball.from_fraction(Fraction(1, 3), p)
        rep = eval_dispatch(RISING, z, n, p, algorithm=alg)
        assert rep.plan.m == int(min(0.5 * p ** 0.4, n ** 0.5))
        assert rep.plan.m > make_plan(RISING, HALF, n, p, alg).m
        re, _ = _rising_exact_gaussian(1, 0, 3, n)
        assert rep.matrix[0][0].contains(re)
        assert p - rep.accuracy_bits <= 4 * math.log2(n) + 16

    @pytest.mark.parametrize("n", (1024, 4096))
    @pytest.mark.parametrize("alg", ("rect-split", "rect-delta"))
    def test_complex(self, alg, n):
        p = 4 * n
        z = ComplexBall(Ball.from_fraction(Fraction(1, 3), p),
                        Ball.from_fraction(Fraction(2, 7), p))
        rep = eval_dispatch(RISING, z, n, p, algorithm=alg)
        assert rep.plan.m == int(min(0.5 * p ** 0.4, n ** 0.5))
        re, im = _rising_exact_gaussian(7, 6, 21, n)
        assert rep.matrix[0][0].contains(re, im)
        assert p - rep.accuracy_bits <= 4 * math.log2(n) + 16


def _per_term_radius(coeffs, powers):
    """sum |c_j| rad(z^j) accumulated term by term in the radius format,
    each step rounded up."""
    rm = re = 0
    for c, b in zip(coeffs, powers):
        if c and b.rm:
            t = bl._rad_mul(*bl._u_from_abs(c, 0), b.rm, b.re)
            rm, re = bl._rad_add(rm, re, t[0], t[1])
    return Fraction(rm) * Fraction(2) ** re


class TestFusedDot:
    def test_wide_radii_signed(self):
        # |z| ~ 2^-200, so the radii of z^0 .. z^16 span more than 3000
        # binary orders, and the midpoints stay within the fixed-point span
        rng = random.Random(5)
        p = 1024
        z = Ball(bl._Z(rng.getrandbits(p) | (1 << (p - 1))), -p - 200,
                 rng.getrandbits(30) | 1, -p - 230)
        table = PowerTable(z, 16, p)
        assert table._fix is not None and table._fix[1] is not None
        tops = [b.re + b.rm.bit_length() for b in table.powers if b.rm]
        assert max(tops) - min(b.re for b in table.powers if b.rm) > 3000
        zq = z.mid_fraction()
        for _ in range(20):
            coeffs = [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(0, 200))
                      for _ in range(17)]
            coeffs[rng.randrange(17)] = 0
            # p large enough that the midpoint sum is not rounded: the
            # radius is the radius sum alone
            out = table.eval_int_poly(coeffs, 8 * p)
            assert out.contains(sum(c * zq ** j for j, c in enumerate(coeffs)))
            bound = _per_term_radius(coeffs, table.powers)
            assert out.rad_fraction() <= bound * (1 + Fraction(1, 2 ** 30))

    def test_exact_table_has_zero_radius(self):
        coeffs = [5, -3, 0, 7, 11, -2, 1]
        zq = Fraction(3, 8)
        out = PowerTable(Ball.from_fraction(zq, 64), 6, 256).eval_int_poly(coeffs)
        assert out.is_exact()
        assert out.mid_fraction() == sum(c * zq ** j for j, c in enumerate(coeffs))
        z = ComplexBall(Ball.from_int(2), Ball.from_fraction(Fraction(-1, 4), 64))
        assert PowerTable(z, 6, 256).eval_int_poly(coeffs).is_exact()


class TestDeltaGeneric:
    def test_delta_m4_constant_row(self):
        d = bivariate_delta(RISING, 4)[0][0]
        assert d.eval_k(0).coeffs == [840, 632, 168, 16]

    def test_dispatch_default_follows_the_symmetry(self):
        # the rising factorial takes rect-split below 1000 factors too; a
        # matrix without the symmetry takes rect-delta above it
        z = Ball.from_fraction(Fraction(1, 2), 64)
        rep = eval_dispatch(RISING, z, 999, 64)
        assert rep.plan.algorithm == "rect-split"
        assert rep.counter.giant_step == "difference table"
        assert rep.matrix[0][0].contains(rising_exact(Fraction(1, 2), 999))
        M = RecMatrix([[bipoly_from_text("1 + k")]])
        rep = eval_dispatch(M, Ball.one(), 1000, 64)
        assert rep.plan.algorithm == "rect-delta"
        assert rep.matrix[0][0].contains(math.factorial(1000))


def test_public_names_resolve():
    for name in holoeval.__all__:
        assert hasattr(holoeval, name), name
