"""Rising factorials, the giant-step difference coefficient tables,
Bernoulli numbers, and both gamma algorithms at small/medium precision."""

import math
import random
import sys
import time
from fractions import Fraction

import mpmath
import pytest

import holoeval.balls as bl
import holoeval.special as special
from holoeval.balls import Ball, BallDomainError, ComplexBall
from holoeval.engines import bivariate_delta, eval_dispatch
from holoeval.poly import BiPoly
from holoeval.recmat import rising_factorial_matrix, unroll_rational
from holoeval.special import (BernoulliCache, bernoulli_even, gamma_1f1,
                              gamma_stirling, hyp1f1_gamma_matrix,
                              rising_delta_coeffs, rising_factorial,
                              rising_factorial_report,
                              stirling_params)


def contains_ball(outer, inner) -> bool:
    """Exact test whether inner's interval is a subset of outer's."""
    d = abs(outer.mid_fraction() - inner.mid_fraction())
    return d + inner.rad_fraction() <= outer.rad_fraction()


def vsc_denominator(two_k: int) -> int:
    """von Staudt-Clausen, index by index: the product of the primes p with
    (p - 1) | 2k, found by trial division (the library sieves once)."""
    return math.prod(p for p in range(2, two_k + 2)
                     if two_k % (p - 1) == 0
                     and all(p % d for d in range(2, math.isqrt(p) + 1)))


def delta_recurrence_holds(c) -> bool:
    """(v+1) C(v+1, i) == (i+1) C(v, i+1) wherever both sides exist, for
    the table c of rising_delta_coeffs."""
    return all((v + 1) * c.rows[v + 1][i] == (i + 1) * c.rows[v][i + 1]
               for v in range(c.m - 1) for i in range(len(c.rows[v + 1])))


def delta_as_bipoly(c) -> BiPoly:
    return BiPoly([list(row) for row in c.rows])


def rising_exact(z, n):
    acc = Fraction(1)
    for i in range(n):
        acc *= z + i
    return acc


class TestRisingFactorial:
    def test_basic_values(self):
        assert rising_factorial(Ball.from_int(1), 5, 64).contains(120)
        v = rising_factorial(Ball.from_fraction(Fraction(7, 3), 64), 0, 64)
        assert v.is_exact() and v.contains(1)
        v = rising_factorial(Ball.from_fraction(Fraction(1, 2), 96), 9, 96)
        assert v.contains(Fraction(34459425, 512))

    @pytest.mark.parametrize("alg", ["naive", "rect-split", "rect-delta",
                                     "rect-ps", "multipoint"])
    def test_algorithms_agree(self, alg):
        z = Fraction(1, 2)
        v = rising_factorial(Ball.from_fraction(z, 128), 50, 128, algorithm=alg)
        assert v.contains(rising_exact(z, 50))

    def test_delta_fast_path_small_blocks(self):
        z = Fraction(3, 7)
        for n in (1, 2, 3, 5, 12, 13, 100):
            for m in (1, 2, 4, 7):
                v = rising_factorial(Ball.from_fraction(z, 128), n, 128,
                                     algorithm="rect-delta", m=m)
                assert v.contains(rising_exact(z, n)), (n, m)

    def test_report_is_the_generic_engine(self):
        rising = rising_factorial_matrix()
        for z in (Fraction(1, 8), Fraction(-3, 4), Fraction(1, 3), Fraction(22, 7)):
            for n, m in ((1, 1), (13, 2), (64, 8), (100, 7), (257, None)):
                p = 4 * n + 64
                zb = Ball.from_fraction(z, p)
                val, plan, counter, acc = rising_factorial_report(
                    zb, n, p, algorithm="rect-delta", m=m)
                rep = eval_dispatch(rising, zb, n, p, algorithm="rect-delta", m=m)
                got = rep.matrix[0][0]
                assert (val.man, val.exp, val.rm, val.re) == (got.man, got.exp, got.rm, got.re)
                assert (plan, counter, acc) == (rep.plan, rep.counter, rep.accuracy_bits)
                assert val.contains(rising_exact(z, n)), (z, n, m)

    def test_functional_equation(self):
        rng = random.Random(17)
        for _ in range(10):
            z = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            a, b = rng.randint(0, 20), rng.randint(0, 20)
            assert rising_exact(z, a + b) == rising_exact(z, a) * rising_exact(z + a, b)
            whole = rising_factorial(Ball.from_fraction(z, 128), a + b, 128)
            left = rising_factorial(Ball.from_fraction(z, 128), a, 128)
            right = rising_factorial(Ball.from_fraction(z + a, 128), b, 128)
            assert whole.overlaps(bl.mul(left, right, 128))

    def test_negative_argument(self):
        z = Fraction(-7, 2)
        v = rising_factorial(Ball.from_fraction(z, 96), 9, 96)
        assert v.contains(rising_exact(z, 9))


class TestDeltaCoeffs:
    def test_smith_m4(self):
        c = rising_delta_coeffs(4)
        assert c.rows == ((840, 632, 168, 16), (632, 336, 48), (168, 48), (16,))

    def test_kauers_identity_display(self):
        c = rising_delta_coeffs(4)
        assert 1 * c.coeff(1, 0) == 1 * c.coeff(0, 1) == 632

    def test_m2_by_hand(self):
        # (x+k+2)(x+k+3) - (x+k)(x+k+1) = 6 + 4k + 4x
        c = rising_delta_coeffs(2)
        assert c.rows == ((6, 4), (4,))

    def test_recurrence_all_m(self):
        for m in range(1, 13):
            assert delta_recurrence_holds(rising_delta_coeffs(m))

    def test_matches_generic_bivariate(self):
        for m in range(1, 13):
            generic = bivariate_delta(rising_factorial_matrix(), m)[0][0]
            assert generic == delta_as_bipoly(rising_delta_coeffs(m))


class TestBernoulli:
    def test_small_values(self):
        cache = BernoulliCache()
        assert cache.get(0) == 1
        assert cache.get(2) == Fraction(1, 6)
        assert cache.get(4) == Fraction(-1, 30)
        assert cache.get(12) == Fraction(-691, 2730)
        assert cache.get(30) == Fraction(8615841276005, 14322)

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            BernoulliCache().get(3)

    def test_cache_monotone_extension(self):
        cache = BernoulliCache()
        cache.ensure(20)
        first = cache.get(20)
        cache.ensure(60)
        assert cache.get(20) == first
        assert cache.max_index() >= 60

    def test_vsc_denominator(self):
        assert vsc_denominator(2) == 6
        assert vsc_denominator(12) == 2730
        assert vsc_denominator(30) == 14322
        cache = bernoulli_even(40, BernoulliCache())
        for k in range(1, 21):
            assert cache.get(2 * k).denominator == vsc_denominator(2 * k)

    def test_persistence_roundtrip(self, tmp_path):
        cache = BernoulliCache()
        cache.ensure(40)
        path = tmp_path / "bernoulli.txt"
        cache.save(path)
        fresh = BernoulliCache()
        fresh.load(path)
        assert fresh.max_index() == cache.max_index()
        for k in range(0, 41, 2):
            assert fresh.get(k) == cache.get(k)

    @pytest.mark.parametrize("corrupt", ["numerator", "denominator", "sign"])
    def test_load_refuses_a_corrupted_entry(self, tmp_path, corrupt):
        source = BernoulliCache()
        source.ensure(40)
        path = tmp_path / "bernoulli.txt"
        source.save(path)
        lines = path.read_text().splitlines()
        idx, num, den = lines[7].split()  # B_14 = 7/6
        num, den = int(num), int(den)
        if corrupt == "numerator":
            num += 1
        elif corrupt == "denominator":
            den *= 2  # numerators of B_2k (k >= 1) are odd: stays reduced
        else:
            num = -num
        lines[7] = "%s %d %d" % (idx, num, den)
        path.write_text("\n".join(lines) + "\n")
        cache = BernoulliCache()
        cache.ensure(10)
        before = [cache.get(k) for k in range(0, 11, 2)]
        with pytest.raises(ValueError, match="B_14"):
            cache.load(path)
        assert cache.max_index() == 10
        assert [cache.get(k) for k in range(0, 11, 2)] == before

    def test_load_refuses_a_wrong_b0(self, tmp_path):
        path = tmp_path / "bernoulli.txt"
        path.write_text("0 2 1\n2 1 6\n")
        with pytest.raises(ValueError, match="B_0"):
            BernoulliCache().load(path)

    def test_load_refuses_a_numerator_off_by_its_denominator(self, tmp_path):
        # B_14 = 7/6 saved as 13/6 passes the denominator, integrality and
        # sign checks; only its magnitude gives it away
        source = BernoulliCache()
        source.ensure(40)
        path = tmp_path / "bernoulli.txt"
        source.save(path)
        lines = path.read_text().splitlines()
        assert lines[7] == "14 7 6"
        lines[7] = "14 13 6"
        path.write_text("\n".join(lines) + "\n")
        cache = BernoulliCache()
        cache.ensure(10)
        before = [cache.get(k) for k in range(0, 11, 2)]
        with pytest.raises(ValueError, match="B_14"):
            cache.load(path)
        assert [cache.get(k) for k in range(0, 11, 2)] == before
        assert cache.max_index() == 10

    def test_load_refuses_a_hole_before_sizing_by_the_top(self, tmp_path):
        # the untrusted top index 2000000 must not size the prime sieve
        path = tmp_path / "bernoulli.txt"
        path.write_text("0 1 1\n2000000 1 6\n")
        cache = BernoulliCache()
        cache.ensure(10)
        before = [cache.get(k) for k in range(0, 11, 2)]
        t0 = time.perf_counter()
        cache.load(path)
        assert time.perf_counter() - t0 < 0.2
        assert cache.max_index() == 10
        assert [cache.get(k) for k in range(0, 11, 2)] == before


def triangle_bernoulli(upto_2n: int, monkeypatch) -> list:
    """B_0 .. B_upto_2n from the tangent triangle alone."""
    with monkeypatch.context() as m:
        m.setattr(special, "_ZETA_FROM", 10 ** 9)
        cache = BernoulliCache()
        cache.ensure(upto_2n)
    return [cache.get(k) for k in range(0, upto_2n + 1, 2)]


class Spy:
    """Wraps a function and records its first argument on each call."""

    def __init__(self, fn):
        self.fn, self.args = fn, []

    def __call__(self, *args):
        self.args.append(args[0])
        return self.fn(*args)


class TestBernoulliZeta:
    """Above special._ZETA_FROM, BernoulliCache.ensure computes B_2k from
    zeta(2k), from the top index down, and keeps an index only where a
    proved error bound leaves one integer."""

    def test_equals_the_triangle_up_to_1000(self, monkeypatch):
        expected = triangle_bernoulli(2000, monkeypatch)
        tangents = Spy(special._tangent_numbers)
        monkeypatch.setattr(special, "_tangent_numbers", tangents)
        cache = BernoulliCache()
        cache.ensure(2000)
        # the zeta path made every index above the crossover: no fallback
        assert tangents.args == [special._ZETA_FROM]
        assert [cache.get(k) for k in range(0, 2001, 2)] == expected
        # highly composite 2k, where the denominator d_k jumps
        for two_k in (720, 840):
            d = cache.get(two_k).denominator
            assert d == vsc_denominator(two_k)
            assert d > 2 ** 40 * cache.get(two_k - 2).denominator

    def test_no_guard_bits_falls_back_to_the_triangle(self, monkeypatch):
        expected = triangle_bernoulli(800, monkeypatch)
        tangents = Spy(special._tangent_numbers)
        monkeypatch.setattr(special, "_tangent_numbers", tangents)
        monkeypatch.setattr(special, "_ZETA_GUARD", 0)
        cache = BernoulliCache()
        cache.ensure(800)
        assert tangents.args[0] > special._ZETA_FROM  # the bound failed
        assert [cache.get(k) for k in range(0, 801, 2)] == expected

    def test_extension_computes_only_the_new_indices(self, monkeypatch):
        checked = Spy(special._check_bernoulli)
        tangents = Spy(special._tangent_numbers)
        monkeypatch.setattr(special, "_check_bernoulli", checked)
        monkeypatch.setattr(special, "_tangent_numbers", tangents)
        cache = BernoulliCache()
        cache.ensure(1400)
        assert checked.args == list(range(2, 1401, 2))
        del checked.args[:], tangents.args[:]
        cache.ensure(1480)
        assert sorted(checked.args) == list(range(1402, 1481, 2))
        assert tangents.args == []
        fresh = BernoulliCache()
        fresh.ensure(1480)
        assert [cache.get(k) for k in range(0, 1481, 2)] == \
            [fresh.get(k) for k in range(0, 1481, 2)]
        # below the crossover the triangle reruns, for the new indices only
        small = BernoulliCache()
        small.ensure(40)
        del checked.args[:]
        small.ensure(60)
        assert sorted(checked.args) == list(range(42, 61, 2))


class TestBernoulliPersistence:
    def test_roundtrip_beyond_default_digit_limit(self, tmp_path):
        # B_2400 has a numerator of about 5200 decimal digits
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            cache = BernoulliCache()
            cache.ensure(2400)
            path = tmp_path / "bernoulli.txt"
            cache.save(path)
            fresh = BernoulliCache()
            fresh.load(path)
            assert fresh.get(2400) == cache.get(2400)
            assert abs(cache.get(2400).numerator) > 10 ** 4300
        finally:
            sys.set_int_max_str_digits(old)


# series lengths N of stirling_params(1, p) under the former shift target
# Re w ~ 0.22 p
NTERMS_AT_022P = {128: 18, 1024: 134, 4096: 531, 8192: 1061}


class TestStirlingParams:
    def test_shift_example(self):
        # Re w ~ p / 2: 1 + 166 = 167 for p = 333
        sp = stirling_params(Ball.from_int(1), 333)
        assert sp.n == 166
        assert sp.nterms == 31

    @pytest.mark.parametrize("p", sorted(NTERMS_AT_022P))
    def test_series_no_longer_than_at_022p(self, p):
        from holoeval.special import _stirling_remainder_ok
        sp = stirling_params(Ball.from_int(1), p)
        assert sp.nterms <= NTERMS_AT_022P[p]
        w = bl.add_int(Ball.from_int(1), sp.n, 64)
        assert _stirling_remainder_ok(w, sp.nterms, p)

    def test_nterms_bisection_equals_the_scan(self):
        # the first N of the float model below the target, by a plain scan
        def scan(t, secfac, target, nmax):
            for nn in range(1, nmax + 1):
                val = (math.log(2 * 1.645) + math.lgamma(2 * nn + 1)
                       - 2 * nn * math.log(2 * math.pi)
                       - (2 * nn - 1) * math.log(t)
                       - math.log(2 * nn * (2 * nn - 1))
                       + nn * math.log(secfac))
                if val / math.log(2) < -(target + 4):
                    return nn
            return None

        for target in (2, 8, 64, 333, 1024, 4096, 8192, 16384):
            nmax = max(16 * special._bernoulli_cap(target), target)
            for t in {max(4.0, c * target) for c in (0, 0.1, 0.5, 0.52)}:
                for secfac in (1.0, 1.3, 4.0, math.inf):
                    assert (special._stirling_nterms_float(t, secfac, target,
                                                           nmax)
                            == scan(t, secfac, target, nmax)), (t, secfac)

    def test_no_shift_needed(self):
        sp = stirling_params(Ball.from_int(10), 8)
        assert sp.n == 0

    def test_remainder_bound_justifies_n(self):
        sp = stirling_params(Ball.from_int(1), 333)
        from holoeval.special import _stirling_remainder_ok
        w = bl.add_int(Ball.from_int(1), sp.n, 64)
        assert _stirling_remainder_ok(w, sp.nterms, 333)
        assert not _stirling_remainder_ok(w, max(1, sp.nterms // 4), 333)

    def test_remainder_bound_outside_its_domain(self):
        from holoeval.special import _stirling_remainder_bound, log_gamma_stirling
        assert _stirling_remainder_bound(Ball.from_int(-1), 5) is None
        # Re(w) < 0 with |Im w| far below the 64-bit resolution of |w| + Re w
        w = ComplexBall(Ball.from_int(-10), Ball.from_fraction(Fraction(1, 10 ** 10), 128))
        assert _stirling_remainder_bound(w, 5) is None
        with pytest.raises(BallDomainError):
            log_gamma_stirling(w, 5, 128)

    def test_pole_rejected(self):
        with pytest.raises(BallDomainError):
            stirling_params(Ball.from_int(0), 64)
        with pytest.raises(BallDomainError):
            stirling_params(Ball.from_int(-3), 64)


class TestGamma:
    def test_gamma5(self):
        g = gamma_stirling(Ball.from_int(5), 128)
        assert g.contains(24)
        assert g.rad_fraction() < Fraction(1, 2 ** 120)

    def test_gamma_half_sqrt_pi(self):
        g = gamma_stirling(Ball.from_fraction(Fraction(1, 2), 256), 256)
        sq = bl.sqrt(bl.pi(320), 320)
        assert g.overlaps(sq) and contains_ball(g, sq)

    def test_gamma_15_1f1(self):
        g = gamma_1f1(Ball.from_fraction(Fraction(3, 2), 192), 192)
        half_sqrt_pi = bl.mul_2exp(bl.sqrt(bl.pi(256), 256), -1)
        assert g.overlaps(half_sqrt_pi)

    def test_beyond_float_range_is_a_domain_error(self):
        # 10^400 has no float midpoint: a domain error for both methods,
        # like Gamma(10^20) by Stirling, whose value overflows the
        # exponent range
        for x in (Ball.from_int(10 ** 400),
                  Ball.from_fraction(Fraction(-2 * 10 ** 400 - 1, 2), 2000),
                  ComplexBall(Ball.from_int(2), Ball.from_int(10 ** 400))):
            for gamma in (gamma_stirling, gamma_1f1):
                with pytest.raises(BallDomainError):
                    gamma(x, 64)
        with pytest.raises(BallDomainError):
            gamma_stirling(Ball.from_int(10 ** 20), 64)

    def test_1f1_refuses_a_long_shift(self):
        # the shift into [1, 2] costs a rising factorial of about x factors
        for x in (Ball.from_int(10 ** 20),
                  Ball.from_fraction(Fraction(-2 * 10 ** 20 + 1, 2), 128)):
            t0 = time.perf_counter()
            with pytest.raises(BallDomainError):
                gamma_1f1(x, 64)
            assert time.perf_counter() - t0 < 1

    # rel_accuracy_bits of gamma_1f1 at x = j + 1/3 and j + 1/4 for
    # p = 2048, 4096, 8192, when it took the whole product matrix
    ACCURACY_1F1 = {Fraction(4, 3): (2043, 4091, 8187),
                    Fraction(7, 3): (2043, 4091, 8187),
                    Fraction(10, 3): (2042, 4090, 8186),
                    Fraction(5, 4): (2048, 4096, 8192),
                    Fraction(9, 4): (2048, 4096, 8192),
                    Fraction(13, 4): (2048, 4096, 8192)}

    def test_1f1_on_the_benchmark_inputs(self):
        # gamma_1f1 takes row 0 of the product and N^(nsum+1) by powering:
        # the balls still meet Stirling's, and keep their accuracy
        cache = BernoulliCache()
        for x, accs in self.ACCURACY_1F1.items():
            for p, acc in zip((2048, 4096, 8192), accs):
                xb = Ball.from_fraction(x, p)
                b = gamma_1f1(xb, p)
                assert b.overlaps(gamma_stirling(xb, p, cache=cache)), (x, p)
                got = b.rel_accuracy_bits()
                assert got >= p - 64 and abs(got - acc) <= 2, (x, p, got)

    @pytest.mark.parametrize("p", [128, 256])
    @pytest.mark.parametrize("x", [Fraction(5, 4), Fraction(7, 3)])
    def test_1f1_at_low_precision(self, monkeypatch, x, p):
        # a product of fewer than 1000 factors still takes rect-split, with
        # the step of a shift-symmetric order-2 matrix
        plans = []

        def spy(*args, **kwargs):
            rep = eval_dispatch(*args, **kwargs)
            plans.append(rep.plan)
            return rep

        monkeypatch.setattr(special, "eval_dispatch", spy)
        xb = Ball.from_fraction(x, p)
        b = gamma_1f1(xb, p)
        assert plans[0].algorithm == "rect-split" and plans[0].m > 1
        mpmath.mp.prec = p + 64
        ref = _mpf_fraction(mpmath.gamma(mpmath.mpf(x.numerator)
                                         / x.denominator))
        assert abs(b.mid_fraction() - ref) \
            <= b.rad_fraction() + ref / 2 ** (p + 56)
        assert b.overlaps(gamma_stirling(xb, p))
        assert b.rel_accuracy_bits() >= p - 8

    def test_gamma2_is_one(self):
        assert gamma_1f1(Ball.from_int(2), 128).contains(1)
        assert gamma_stirling(Ball.from_int(2), 128).contains(1)

    def test_methods_agree_random(self):
        rng = random.Random(23)
        for _ in range(6):
            x = Fraction(rng.randint(101, 199), 100)
            for p in (64, 256):
                a = gamma_stirling(Ball.from_fraction(x, p), p)
                b = gamma_1f1(Ball.from_fraction(x, p), p)
                assert a.overlaps(b), (x, p)
                assert min(a.rel_accuracy_bits(), b.rel_accuracy_bits()) >= p - 16

    def test_recurrence_identity(self):
        rng = random.Random(29)
        for _ in range(5):
            x = Fraction(rng.randint(110, 290), 100)
            p = 128
            xb = Ball.from_fraction(x, p)
            lhs = gamma_stirling(bl.add_int(xb, 1, p), p)
            rhs = bl.mul(xb, gamma_stirling(xb, p), p)
            assert lhs.overlaps(rhs)

    def test_small_and_negative_arguments(self):
        # reduction handles arguments below 1 (and negative non-integers)
        g = gamma_stirling(Ball.from_fraction(Fraction(1, 4), 128), 128)
        h = gamma_stirling(Ball.from_fraction(Fraction(5, 4), 128), 128)
        assert h.overlaps(bl.mul(g, Ball.from_fraction(Fraction(1, 4), 132), 128))
        gn = gamma_stirling(Ball.from_fraction(Fraction(-1, 2), 128), 128)
        # Gamma(-1/2) = -2 sqrt(pi)
        target = bl.mul_int(bl.sqrt(bl.pi(160), 160), -2, 160)
        assert gn.overlaps(target)

    def test_pole_error(self):
        for method in (gamma_stirling, gamma_1f1):
            with pytest.raises(BallDomainError):
                method(Ball.from_int(-2), 64)

    def test_complex_gamma(self):
        p = 128
        x = ComplexBall(Ball.from_fraction(Fraction(3, 2), p),
                        Ball.from_fraction(Fraction(1, 4), p))
        a = gamma_stirling(x, p)
        b = gamma_1f1(x, p)
        assert a.overlaps(b)
        assert min(a.rel_accuracy_bits(), b.rel_accuracy_bits()) >= p - 24
        # |Gamma(1.5 + 0.25i)|^2 against mpmath
        import mpmath
        mpmath.mp.prec = 160
        mv = mpmath.gamma(mpmath.mpc(1.5, 0.25))
        assert abs(a.re.mid_float() - float(mv.real)) < 1e-12
        assert abs(a.im.mid_float() - float(mv.imag)) < 1e-12


GAMMA_ARGS = ((Fraction(5, 4), 0), (Fraction(7, 3), 0), (Fraction(1, 2), 0),
              (Fraction(31, 3), 0), (Fraction(3, 2), Fraction(-5, 7)))
# rel_accuracy_bits of gamma_stirling on GAMMA_ARGS with the former shift
# target Re w ~ 0.22 p and every Horner step at the working precision
ACCURACY_AT_022P = {
    64: (64, 60, 64, 58, 56),
    333: (333, 329, 333, 327, 325),
    1024: (1024, 1019, 1024, 1017, 1015),
    4096: (4096, 4091, 4096, 4089, 4086),
}


def _mpf_fraction(v):
    man, exp = v.man_exp  # the magnitude
    q = Fraction(man) * Fraction(2) ** exp
    return -q if v < 0 else q


def _gamma_arg(re, im, p):
    if im:
        return ComplexBall(Ball.from_fraction(re, p), Ball.from_fraction(im, p))
    return Ball.from_fraction(re, p)


class TestStirlingAccuracy:
    @pytest.mark.parametrize("p", sorted(ACCURACY_AT_022P))
    def test_contains_mpmath_and_keeps_accuracy(self, p):
        mpmath.mp.prec = p + 64
        for (re, im), old_bits in zip(GAMMA_ARGS, ACCURACY_AT_022P[p]):
            g = gamma_stirling(_gamma_arg(re, im, p), p)
            ref = mpmath.gamma(mpmath.mpc(mpmath.mpf(re.numerator) / re.denominator,
                                          mpmath.mpf(im.numerator) / im.denominator))
            parts = (g.re, g.im) if im else (g,)
            values = (ref.real, ref.imag) if im else (ref.real,)
            slack = Fraction(1, 2 ** (p + 56)) * (1 + abs(_mpf_fraction(abs(ref))))
            for part, value in zip(parts, values):
                target = _mpf_fraction(value)
                assert abs(part.mid_fraction() - target) <= part.rad_fraction() + slack, (re, im, p)
            assert g.rel_accuracy_bits() >= old_bits - 2, (re, im, p)

    def test_fresh_and_warm_cache_give_identical_balls(self):
        p = 1024
        warm = BernoulliCache()
        warm.ensure(600)
        for re, im in ((Fraction(7, 3), 0), (Fraction(3, 2), Fraction(-5, 7))):
            x = _gamma_arg(re, im, p)
            a = gamma_stirling(x, p, cache=BernoulliCache())
            b = gamma_stirling(x, p, cache=warm)
            pairs = ((a.re, b.re), (a.im, b.im)) if im else ((a, b),)
            for u, v in pairs:
                assert (u.man, u.exp, u.rm, u.re) == (v.man, v.exp, v.rm, v.re)


# w of the fixed-point Horner test: (Re w, Im w)
HORNER_W = ((Fraction(1000, 3), 0), (Fraction(4099, 4), 0),
            (Fraction(10 ** 6, 7), 0), (Fraction(55, 7), 0),
            (Fraction(55, 7), Fraction(-3, 2)))


def _horner_exact(cache, nterms, y):
    """sum_{k=1}^{N-1} c_k y^(k-1) for a complex rational y = (re, im)."""
    re, im = Fraction(0), Fraction(0)
    yr, yi = y
    for k in range(nterms - 1, 0, -1):
        re, im = re * yr - im * yi, re * yi + im * yr
        re += cache.get(2 * k) / (2 * k * (2 * k - 1))
    return re, im


class TestStirlingHorner:
    """special._stirling_series alone, before the division by w, which
    swamps the loop's own error: the ball of the raw sum contains the exact
    sum at both ends and the middle of each part of y."""

    @pytest.mark.parametrize("rad_exp", [None, -51])  # exact, 2^-50 wide
    @pytest.mark.parametrize("p", [64, 128, 333])
    @pytest.mark.parametrize("w", HORNER_W, ids=str)
    def test_contains_the_exact_sum(self, w, p, rad_exp):
        cache = bernoulli_even(60, BernoulliCache())
        re_w, im_w = w
        mod2 = re_w * re_w + im_w * im_w  # 1/w^2 = conj(w)^2 / |w|^4
        exact = ((re_w * re_w - im_w * im_w) / mod2 ** 2,
                 -2 * re_w * im_w / mod2 ** 2)
        parts = []
        for q in exact[:2 if im_w else 1]:
            b = Ball.from_fraction(q, p)
            parts.append(Ball(b.man, b.exp, *((1, rad_exp) if rad_exp
                                              else (0, 0))))
        y = ComplexBall(*parts) if im_w else parts[0]
        grids = [sorted({b.mid_fraction() + s * b.rad_fraction()
                         for s in (-1, 0, 1)}) for b in parts] + [[0]]
        for nterms in (5, 13, 30):
            out = special._stirling_series(y, nterms, p, math.log2(re_w),
                                           cache)
            out_parts = (out.re, out.im) if im_w else (out,)
            for yr in grids[0]:
                for yi in grids[1]:
                    value = _horner_exact(cache, nterms, (yr, yi))
                    for part, v in zip(out_parts, value):
                        assert part.contains(v), (w, p, rad_exp, nterms, yr, yi)


class TestGammaSweep:
    def test_overlap_50_random_arguments(self):
        # both methods agree on [1, 2] across the precision ladder
        rng = random.Random(41)
        xs = [Fraction(rng.randint(100, 200), 100) for _ in range(50)]
        for p in (64, 256, 1024, 4096):
            for x in xs:
                a = gamma_stirling(Ball.from_fraction(x, p), p)
                b = gamma_1f1(Ball.from_fraction(x, p), p)
                assert a.overlaps(b), (x, p)

    def test_gamma_third_cross_method_p3333(self):
        p = 3333
        x = Ball.from_fraction(Fraction(1, 3), p)
        a = gamma_stirling(x, p)
        b = gamma_1f1(x, p)
        assert a.overlaps(b)
        assert min(a.rel_accuracy_bits(), b.rel_accuracy_bits()) >= p - 20

    def test_rising_1000_rect_delta_vs_naive(self):
        n, p = 1000, 4000
        z = Ball.from_fraction(Fraction(1, 2), p)
        a = rising_factorial(z, n, p, algorithm="rect-delta")
        b = rising_factorial(z, n, p, algorithm="naive")
        assert a.overlaps(b)
        assert a.contains(rising_exact(Fraction(1, 2), n))


class TestCacheConcurrency:
    def test_concurrent_readers_and_extension(self):
        import threading
        cache = BernoulliCache()
        cache.ensure(40)
        snapshot = {k: cache.get(k) for k in range(0, 41, 2)}
        errors = []

        def reader():
            try:
                for _ in range(200):
                    for k in range(0, 41, 2):
                        if cache.get(k) != snapshot[k]:
                            raise AssertionError("value changed under reader")
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        def extender():
            try:
                for upto in (80, 120, 160):
                    cache.ensure(upto)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=extender))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cache.max_index() >= 160


class TestHyp1f1Series:
    def test_partial_sum_matches_exact_rationals(self):
        # s_n = sum_{k=0}^{n} N^k / (z (z+1) ... (z+k)) at z = 1 equals
        # sum N^k/(k+1)!;  the matrix product carries the denominators in
        # its top-left entry
        nbig, n = 4, 10
        M = hyp1f1_gamma_matrix(nbig)
        z = Fraction(1)
        num = unroll_rational(M, z, n + 1)
        q = num[0][0]
        s = num[0][1] / (z * q)
        expected = sum(Fraction(nbig ** k, math.factorial(k + 1))
                       for k in range(n + 1))
        assert s == expected
        # denominator product equals the top-left numerator entry
        assert q == rising_exact(z + 1, n + 1)
