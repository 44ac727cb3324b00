"""Recurrence matrices: companion construction, factor evaluation,
exact and naive products, and the exact rational oracle."""

import random
from fractions import Fraction

import pytest

from holoeval.balls import Ball
from holoeval.engines import eval_dispatch
from holoeval.poly import BiPoly, bipoly_from_text
from holoeval.recmat import (DenominatorZeroError, RecMatrix,
                             ScalarRecurrence, apply_to_vector, companion,
                             eval_factor, mat_mul_exact, product_binsplit_exact,
                             rising_factorial_matrix, unroll_rational)
from holoeval.special import hyp1f1_gamma_matrix


def naive(M, z, n, p):
    return eval_dispatch(M, z, n, p, algorithm="naive")


def product_fold_exact(factors):
    """Reference sequential product, newest factor multiplied on the left."""
    acc = factors[0]
    for f in factors[1:]:
        acc = mat_mul_exact(f, acc)
    return acc


def fib_matrix():
    return companion(ScalarRecurrence([bipoly_from_text("-1"),
                                       bipoly_from_text("-1"),
                                       bipoly_from_text("1")]))


class TestCompanion:
    def test_fibonacci(self):
        M = fib_matrix()
        assert M.entries[0][0].is_zero()
        assert M.entries[0][1] == BiPoly.const(1)
        assert M.entries[1][0] == BiPoly.const(1)
        assert M.entries[1][1] == BiPoly.const(1)
        assert M.has_trivial_den()

    def test_factorial(self):
        M = companion(ScalarRecurrence([bipoly_from_text("-1-k"),
                                        bipoly_from_text("1")]))
        assert M.r == 1
        assert M.entries[0][0] == bipoly_from_text("1+k")
        assert M.has_trivial_den()

    def test_rising(self):
        M = rising_factorial_matrix()
        assert M.entries[0][0] == BiPoly.x_plus_k()
        assert M.has_trivial_den()

    def test_rejects_zero_lead(self):
        with pytest.raises(ValueError):
            ScalarRecurrence([bipoly_from_text("1"), BiPoly.zero()])


class TestEvalFactor:
    def test_rising_at_3(self):
        grid, den = eval_factor(rising_factorial_matrix(), 3)
        assert grid[0][0].coeffs == [3, 1]
        assert den.coeffs == [1]

    def test_fibonacci_constant(self):
        M = fib_matrix()
        for i in (0, 5, 100):
            grid, _ = eval_factor(M, i)
            assert [[p.coeffs for p in row] for row in grid] == [
                [[], [1]], [[1], [1]]]

    def test_hyp1f1_at_zero(self):
        M = hyp1f1_gamma_matrix(77)
        grid, den = eval_factor(M, 0)
        # [[1+z, 1+z], [0, N]] with denominator 1+z (z is the x variable)
        assert grid[0][0].coeffs == [1, 1]
        assert grid[0][1].coeffs == [1, 1]
        assert grid[1][0].is_zero()
        assert grid[1][1].coeffs == [77]
        # the cleared denominator is carried by the top-left entry
        assert M.entries[0][0] == bipoly_from_text("1 + k + x")


class TestShiftSymmetry:
    @pytest.mark.parametrize("text, holds", [
        ("x + k", True), ("x^2 + 2*x*k + k^2 - 3*x - 3*k + 5", True),
        ("7", True), ("1 + k", False), ("x*k", False), ("x + 2*k", False)])
    def test_step_one_decides_every_step(self, text, holds):
        # M(x, k+1) = M(x+1, k) holds exactly when M(x, k+m) = M(x+m, k)
        # holds for some, and then every, m >= 1
        e = bipoly_from_text(text)
        assert RecMatrix([[e]]).shift_symmetry_holds() is holds
        for m in range(1, 5):
            assert (e.shift_k(m) == e.shift_x(m)) is holds
        den = RecMatrix([[bipoly_from_text("x + k")]], e)
        assert den.shift_symmetry_holds() is holds


class TestProducts:
    def test_binsplit_scalars(self):
        fs = [[[c]] for c in (1, 2, 3, 4)]
        assert product_binsplit_exact(fs) == [[24]]
        assert product_binsplit_exact([[[7]]]) == [[7]]

    def test_binsplit_order(self):
        A = [[1, 1], [0, 1]]
        B = [[1, 0], [1, 1]]
        # product is B . A (newest factor on the left)
        assert product_binsplit_exact([A, B]) == mat_mul_exact(B, A)
        assert product_binsplit_exact([A, B]) != mat_mul_exact(A, B)

    def test_binsplit_matches_fold(self):
        rng = random.Random(2)
        for length in (1, 2, 3, 7, 16, 33, 64):
            fs = [[[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
                  for _ in range(length)]
            assert product_binsplit_exact(fs) == product_fold_exact(fs)

    def test_naive_fibonacci(self):
        rep = naive(fib_matrix(), Ball.zero(), 10, 64)
        v = apply_to_vector(rep.matrix, [Ball.zero(), Ball.one()], 64)
        assert v[0].contains(55) and v[1].contains(89)
        assert rep.denominator.contains(1)

    def test_naive_factorial(self):
        M = companion(ScalarRecurrence([bipoly_from_text("-1-k"),
                                        bipoly_from_text("1")]))
        rep = naive(M, Ball.zero(), 5, 64)
        assert rep.matrix[0][0].contains(120)

    def test_naive_rising(self):
        z = Ball.from_fraction(Fraction(1, 2), 64)
        rep = naive(rising_factorial_matrix(), z, 5, 64)
        assert rep.matrix[0][0].contains(Fraction(945, 32))

    def test_naive_denominator_zero(self):
        # denominator k - 3 vanishes at i = 3
        M = RecMatrix([[bipoly_from_text("1")]], bipoly_from_text("k - 3"))
        with pytest.raises(DenominatorZeroError) as err:
            naive(M, Ball.from_int(1), 10, 64)
        assert err.value.index == 3


def rand_bipoly(rng, maxdeg=2, bound=5):
    return BiPoly([[rng.randint(-bound, bound)
                    for _ in range(rng.randint(1, maxdeg + 1))]
                   for _ in range(rng.randint(1, maxdeg + 1))])


def random_valid_recurrence(rng, order, nmax):
    """A random recurrence whose leading coefficient provably stays nonzero
    below nmax for the sampled rational z; returns (rec, matrix, z)."""
    while True:
        coeffs = [rand_bipoly(rng) for _ in range(order + 1)]
        if coeffs[-1].is_zero():
            continue
        z = Fraction(rng.randint(-7, 7), rng.randint(1, 7))
        rec = ScalarRecurrence(coeffs)
        M = companion(rec)
        try:
            unroll_rational(M, z, nmax)
        except DenominatorZeroError:
            continue
        return rec, M, z


def eval_xk(poly: BiPoly, x, k) -> Fraction:
    """poly(x, k) exactly, for rationals x and k."""
    return sum((Fraction(c) * Fraction(x) ** a * Fraction(k) ** b
                for a, row in enumerate(poly.grid) for b, c in enumerate(row)),
               Fraction(0))


class TestCompanionCorrectness:
    def test_against_scalar_unrolling(self):
        rng = random.Random(31)
        n = 25
        for _ in range(20):
            order = rng.randint(1, 3)
            rec, M, z = random_valid_recurrence(rng, order, n)
            init = [Fraction(rng.randint(-4, 4)) for _ in range(order)]
            # unroll the scalar recurrence sum a_j(z,i) c(i+j) = 0 directly
            seq = list(init)
            for i in range(n):
                s = sum(eval_xk(rec.coeffs[j], z, i) * seq[i + j]
                        for j in range(order))
                a_r = eval_xk(rec.coeffs[order], z, i)
                seq.append(-s / a_r)
            vec = unroll_rational(M, z, n, init)
            assert vec == seq[n:n + order]

    def test_denominator_separation(self):
        rng = random.Random(13)
        for _ in range(10):
            _, M, z = random_valid_recurrence(rng, 2, 20)
            p = 192
            zb = Ball.from_fraction(z, p)
            rep = naive(M, zb, 20, p)
            num, den = rep.numerator, rep.denominator
            exact_num = [[Fraction(1) if i == j else Fraction(0)
                          for j in range(2)] for i in range(2)]
            exact_den = Fraction(1)
            for i in range(20):
                grid, dpoly = eval_factor(M, i)
                dval = sum(Fraction(c) * z ** a for a, c in enumerate(dpoly.coeffs))
                fac = [[sum(Fraction(c) * z ** a for a, c in enumerate(e.coeffs))
                        for e in row] for row in grid]
                exact_num = mat_mul_exact(fac, exact_num)
                exact_den *= dval
            for i in range(2):
                for j in range(2):
                    assert num[i][j].contains(exact_num[i][j])
            assert den.contains(exact_den)
