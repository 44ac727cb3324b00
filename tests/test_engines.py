"""Engines: agreement of all algorithms with the exact rational oracle,
tuning formulas, operation-count and storage instrumentation, and error
behavior."""

import math
import random
from fractions import Fraction

import pytest

import holoeval.balls as bl
from holoeval.balls import Ball, ComplexBall
from holoeval.poly import BiPoly, bipoly_from_text
from holoeval.recmat import (DenominatorZeroError, RecMatrix,
                             ScalarRecurrence, companion,
                             rising_factorial_matrix, unroll_rational)
import holoeval
import holoeval.engines as engines
from holoeval.engines import (ALGORITHMS, PowerTable, bivariate_delta,
                              choose_m, default_algorithm, eval_dispatch,
                              make_plan, mantissa_bits)
from holoeval.special import hyp1f1_gamma_matrix

RISING = rising_factorial_matrix()


def rising_exact(z, n):
    acc = Fraction(1)
    for i in range(n):
        acc *= z + i
    return acc


class TestChooseM:
    def test_rect_split_formula(self):
        m, _ = choose_m("rect-split", 10 ** 4, 4 * 10 ** 4)
        assert m == 13
        m, _ = choose_m("rect-delta", 10 ** 4, 4 * 10 ** 4)
        assert m == 13

    def test_multipoint_formula(self):
        assert choose_m("multipoint", 10 ** 4, 1000)[0] == 100

    def test_clamp(self):
        for alg in ALGORITHMS:
            assert choose_m(alg, 1, 64)[0] == 1

    def test_rect_ps_subn(self):
        m, subn = choose_m("rect-ps", 10 ** 4, 10 ** 4)
        assert subn == min(int(2 * 100), int(10 * (10 ** 4) ** 0.25))
        assert m == int(subn ** 0.5)

    def test_full_mantissa_formula(self):
        # a z whose mantissa fills more than half of p makes every
        # nonscalar product p x p bits, and the step grows to 0.5 p^0.4
        p = 4 * 10 ** 4
        for alg in ("rect-split", "rect-delta"):
            assert choose_m(alg, 10 ** 4, p, zbits=p)[0] == 34
            assert choose_m(alg, 10 ** 4, p, zbits=p // 2)[0] == 13
            assert choose_m(alg, 100, p, zbits=p)[0] == 10  # sqrt(n) cap
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
                    plan = make_plan(alg, n, 4 * n, zbits=mantissa_bits(z))
                    assert plan.m == m, (n, k, alg)

    def test_default_policy(self):
        assert default_algorithm(31) == "naive"
        assert default_algorithm(32) == "rect-delta"
        assert default_algorithm(999) == "rect-delta"
        assert default_algorithm(1000) == "rect-split"


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

    def test_rect_ps_rising_8(self):
        z = Ball.from_fraction(Fraction(1, 2), 128)
        rep = eval_dispatch(RISING, z, 8, 128, algorithm="rect-ps", m=3,
                            subn=8)
        assert rep.matrix[0][0].contains(Fraction(2027025, 256))

    def test_rect_ps_trivial(self):
        z = Ball.from_fraction(Fraction(1, 2), 64)
        rep = eval_dispatch(RISING, z, 1, 64, algorithm="rect-ps", m=1, subn=1)
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
    M(x, k+m) = M(x+m, k) from shifts of the first one, with no caller-side
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
        # D = 0: every giant step is the first, and no shift is made
        fib = companion(ScalarRecurrence([bipoly_from_text("-1"),
                                          bipoly_from_text("-1"),
                                          bipoly_from_text("1")]))
        rep = eval_dispatch(fib, Ball.zero(), 30, 64, algorithm="rect-split",
                            m=5)
        assert rep.counter.giant_step == "difference table"
        assert rep.matrix[1][1].contains(1346269)  # F_31

    def test_hyp1f1_matrix_symmetry(self):
        # 1 + k + x is symmetric under (k -> k+m) vs (x -> x+m), and the
        # constant entry is invariant, so the shift update applies
        M = hyp1f1_gamma_matrix(17)
        assert M.shift_symmetry_holds(4)
        z = Ball.from_fraction(Fraction(5, 4), 128)
        rep = eval_dispatch(M, z, 40, 128, algorithm="rect-split", m=5)
        assert rep.counter.giant_step == "difference table"
        ref = eval_dispatch(M, z, 40, 128, algorithm="naive")
        for i in range(2):
            for j in range(2):
                assert rep.matrix[i][j].overlaps(ref.matrix[i][j])

    def test_asymmetric_matrix_contains(self):
        # M(x, k+4) != M(x+4, k): a shift update of the giant step would
        # give a ball (midpoint 7962624) that misses 20!
        M = RecMatrix([[bipoly_from_text("1 + k")]])
        assert not M.shift_symmetry_holds(4)
        rep = eval_dispatch(M, Ball.one(), 20, 64, algorithm="rect-split", m=4)
        assert rep.counter.giant_step == "exact product"
        assert rep.matrix[0][0].contains(math.factorial(20))


def _ball_key(b):
    if isinstance(b, ComplexBall):
        return _ball_key(b.re), _ball_key(b.im)
    return int(b.man), b.exp, b.rm, b.re


class _ExactSteps(RecMatrix):
    """The same matrix with the shift symmetry hidden, so that rect-split
    makes every giant step as the exact product of its factors."""

    def shift_symmetry_holds(self, m: int = 1) -> bool:
        return False


def _exact_step_reference(M, z, n, p, m):
    rep = eval_dispatch(_ExactSteps(M.entries, M.den), z, n, p,
                        algorithm="rect-split", m=m)
    assert rep.counter.giant_step == "exact product"
    return rep


class TestDifferenceTable:
    """The giant steps from the difference table are bit-identical to the
    per-step exact products at the same m."""

    def _same_as_exact_steps(self, M, z, n, p, m, update="difference table"):
        rep = eval_dispatch(M, z, n, p, algorithm="rect-split", m=m)
        assert rep.counter.giant_step == update
        ref = _exact_step_reference(M, z, n, p, m)
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

    def test_rising_tiny_z_takes_the_taylor_shift(self):
        # the powers of 2^-3000 span too wide a range for a fixed-point
        # table at p = 64, so there are no integer sums to difference
        z = Ball.from_man_exp(1, -3000)
        table = PowerTable(z, 8, 64 + engines.guard_bits(200))
        assert table._fix is None
        self._same_as_exact_steps(RISING, z, 200, 64, 8, update="taylor shift")

    @pytest.mark.parametrize("zq", [Fraction(4, 3), Fraction(5, 4)])
    def test_hyp1f1(self, zq):
        M = hyp1f1_gamma_matrix(300)
        for n, p, m in ((400, 256, 9), (1500, 1024, 20)):
            self._same_as_exact_steps(M, Ball.from_fraction(zq, p), n, p, m)

    def test_mixed_signs_take_the_taylor_shift(self):
        # prod (x + i - 3) changes sign in its coefficients: the radius sum
        # over |c_j| is no polynomial in the step index
        M = RecMatrix([[bipoly_from_text("x + k - 3")]])
        assert M.shift_symmetry_holds(1)
        zq = Fraction(1, 3)
        rep = self._same_as_exact_steps(M, Ball.from_fraction(zq, 256), 100,
                                        256, 7, update="taylor shift")
        assert rep.matrix[0][0].contains(rising_exact(zq - 3, 100))

    def test_degree_at_least_w_takes_the_taylor_shift(self):
        # w = 3 giant steps of degree 7 would need 8 values for the table
        z = Ball.from_fraction(Fraction(1, 3), 128)
        self._same_as_exact_steps(RISING, z, 21, 128, 7, update="taylor shift")

    def test_shift_symmetric_order_two_gets_the_longer_step(self):
        # a 2 x 2 shift-symmetric matrix steps by p^0.4; the rising
        # factorial and matrices without the symmetry keep the scalar rule
        p, n = 8192, 20000
        z = Ball.from_fraction(Fraction(5, 4), p)
        rep = eval_dispatch(hyp1f1_gamma_matrix(10), z, 40, 64,
                            algorithm="rect-split")
        assert rep.plan.m == int(64 ** 0.4) == 5
        fib_k = companion(ScalarRecurrence([bipoly_from_text("-1"),
                                            bipoly_from_text("-k"),
                                            bipoly_from_text("1")]))
        assert not fib_k.shift_symmetry_holds(1)
        rep = eval_dispatch(fib_k, z, 40, 64, algorithm="rect-split")
        assert rep.plan.m == 1
        assert make_plan("rect-split", n, p, r=2).m == int(p ** 0.4)
        assert make_plan("rect-split", n, p).m == int(0.2 * p ** 0.4)
        assert make_plan("rect-delta", n, p, r=2).m == int(0.2 * p ** 0.4)


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


class TestCrossAlgorithmAgreement:
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
            assert c.scalar <= 8 * n, n

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
        # power table m - 1, giant steps w - 1, leftover n - m w: the first
        # giant step C_0 is an exact product evaluated by scalar operations
        for n, m in ((16, 4), (100, 7), (1000, 13), (37, 1), (5, 5)):
            w = n // m
            for z in (Fraction(1, 8), Fraction(2, 3)):
                rep = eval_dispatch(RISING, Ball.from_fraction(z, 4 * n), n,
                                    4 * n, algorithm="rect-delta", m=m)
                assert rep.counter.nonscalar == (m - 1) + (w - 1) + (n - m * w), (n, m)
                assert rep.matrix[0][0].contains(rising_exact(z, n))

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
        assert rep.plan.m == choose_m(alg, n, p, zbits=p)[0]
        assert rep.plan.m > choose_m(alg, n, p)[0]
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
        assert rep.plan.m == choose_m(alg, n, p, zbits=p)[0]
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
        assert table._fix is not None and table._fix[2] is not None
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

    def test_dispatch_policy_example(self):
        rep = eval_dispatch(RISING, Ball.from_fraction(Fraction(1, 2), 64),
                            999, 64)
        assert rep.plan.algorithm == "rect-delta"
        rep = eval_dispatch(RISING, Ball.from_fraction(Fraction(1, 2), 64),
                            1000, 64)
        assert rep.plan.algorithm == "rect-split"


def test_public_names_resolve():
    for name in holoeval.__all__:
        assert hasattr(holoeval, name), name
