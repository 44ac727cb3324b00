"""Checks of the benchmark's own references against mpmath, and of its
enclosure tests on hand-made balls.

    python3 -m pytest perfbench/test_perfbench_refs.py
"""

import random
from fractions import Fraction

import pytest

import refs

mpmath = pytest.importorskip("mpmath")


class FakeBall:
    """The four integer fields the checks read: midpoint man 2^exp,
    radius rm 2^re."""

    def __init__(self, man, exp, rm, re):
        self.man, self.exp, self.rm, self.re = man, exp, rm, re


def _to_mpf(lo, hi, den):
    return mpmath.mpf(lo) / den, mpmath.mpf(hi) / den


@pytest.mark.parametrize("bits", [64, 700, 1100])
@pytest.mark.parametrize("base,shift", [(Fraction(1, 3), 0), (Fraction(1, 3), 2),
                                        (Fraction(1, 4), 0), (Fraction(1, 4), 3)])
def test_gamma_reference_brackets_mpmath(base, shift, bits):
    lo, hi, den = refs.gamma_reference(base, shift, bits)
    with mpmath.workprec(bits + 200):
        exact = mpmath.gamma(mpmath.mpf(base.numerator) / base.denominator + shift)
        a, b = _to_mpf(lo, hi, den)
        assert a <= exact <= b
        assert (b - a) / exact < mpmath.mpf(2) ** -(bits + 40)


def test_pi_fixed_point():
    w = 1000
    with mpmath.workprec(w + 100):
        err = abs(mpmath.mpf(refs.fix_pi(w)) / 2 ** w - mpmath.pi) * 2 ** w
    assert err < refs.fix_err(w)


def test_rising_exact():
    for z in (Fraction(1, 3), Fraction(5, 7), Fraction(3, 8)):
        for n in (0, 1, 9, 40):
            expect = Fraction(1)
            for i in range(n):
                expect *= z + i
            assert Fraction(*refs.rising_exact(z, n)) == expect


def test_companion_products_match_the_recurrence():
    """Applied to initial values, the product steps the recurrence forward."""
    rng = random.Random(5)
    for order in (1, 2, 3):
        grids = [[[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
                 for _ in range(order + 1)]
        grids[-1][2][2] = 3
        z = Fraction(2, 7)
        out = refs.companion_products(grids, z, (0, 5, 11))
        assert out is not None

        def a(j, k):
            return sum(c * z ** x * k ** y for x, row in enumerate(grids[j])
                       for y, c in enumerate(row))

        seq = [Fraction(rng.randint(-9, 9)) for _ in range(order)]
        for i in range(11):
            seq.append(-sum(a(j, i) * seq[i + j] for j in range(order))
                       / a(order, i))
        for n in (0, 5, 11):
            num, den = out[n]
            assert den > 0
            got = [sum(Fraction(num[r][c], den) * seq[c] for c in range(order))
                   for r in range(order)]
            assert got == seq[n:n + order]


def test_companion_products_detect_vanishing_leading_coefficient():
    # a_1(x, k) = k - 2 vanishes at index 2
    grids = [[[1]], [[-2, 1]]]
    assert refs.companion_products(grids, Fraction(1, 3), (7,)) is None


def test_enclosure_checks():
    # midpoint 5/4, radius 1/8: [9/8, 11/8]
    b = FakeBall(5, -2, 1, -3)
    assert refs.contains(b, 9, 8) and refs.contains(b, 11, 8)
    assert not refs.contains(b, 1376, 1000)
    assert refs.encloses(b, 10, 11, 8)
    assert not refs.encloses(b, 8, 11, 8)
    assert refs.overlap(b, FakeBall(3, -1, 1, -3))      # [11/8, 13/8]
    assert not refs.overlap(b, FakeBall(3, -1, 1, -4))  # [23/16, 25/16]
    big = FakeBall(-3, 40, 1, 30)
    assert refs.contains(big, -3 * 2 ** 40 + 2 ** 30)
    assert refs.accuracy_bits(b) == (-2 + 3) - (-3 + 1)
    assert refs.accuracy_bits(FakeBall(7, 0, 0, 0)) == 1 << 30
