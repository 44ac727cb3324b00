"""Independent reference values and enclosure checks.

Nothing here uses holoeval's arithmetic: the references are exact rationals,
kept as unreduced pairs (numerator, denominator > 0) so that their cost does
not depend on common factors, or integer fixed-point values with an explicit
error bound, and the checks
read a ball's four integer fields (midpoint man * 2^exp, radius rm * 2^re)
and compare with integers only.
"""

from __future__ import annotations

import math
from fractions import Fraction


def fix_err(w: int) -> int:
    """Error allowance, in units of 2^-w, for the fixed-point Gamma values.

    Machin's series truncates each of its fewer than w/2 terms by less than
    2 units, so pi is off by less than 16 w units; the AGM steps, roots and
    products add a few units each, and no step amplifies an error by more
    than about 13 (the derivative of Gamma(1/3)^3 in pi).  The total stays
    below 256 w units; the allowance is 2^16 w."""
    return w << 16


# ---------------------------------------------------------------------------
# exact rationals
# ---------------------------------------------------------------------------

def int_product(vals, a=0, b=None):
    """Product of vals[a:b] by binary splitting."""
    if b is None:
        b = len(vals)
    if b - a <= 8:
        out = 1
        for v in vals[a:b]:
            out *= v
        return out
    m = (a + b) // 2
    return int_product(vals, a, m) * int_product(vals, m, b)


def rising_exact(z: Fraction, n: int):
    """(z)_n = prod_{i<n} (a + i b) / b^n for z = a/b, as (num, den)."""
    a, b = z.numerator, z.denominator
    return int_product([a + i * b for i in range(n)]), b ** n


def _bipoly_at(grid, z: Fraction, k: int) -> Fraction:
    """sum_a sum_b grid[a][b] z^a k^b."""
    acc = Fraction(0)
    for row in reversed(grid):
        acc = acc * z + sum(c * k ** j for j, c in enumerate(row))
    return acc


def companion_products(coeffs, z: Fraction, sizes):
    """Exact prod_{i<n} M(z, i) / a_r(z, i) for every n in sizes, where M is
    the companion matrix of a_r c(i+r) + ... + a_0 c(i) = 0: a_r on the
    superdiagonal and -a_0 .. -a_{r-1} in the bottom row.

    coeffs are the integer grids of a_0 .. a_r (grid[a][b] multiplies
    x^a k^b).  Returns {n: (r x r matrix of numerators, den)}, or None when
    a_r(z, i) vanishes for some i < max(sizes)."""
    r = len(coeffs) - 1
    out = {}
    num = [[int(i == j) for j in range(r)] for i in range(r)]
    den = 1
    scale = z.denominator ** max(len(g) for g in coeffs)
    for i in range(max(sizes)):
        if i in sizes:
            out[i] = _positive_den(num, den)
        vals = [int(_bipoly_at(g, z, i) * scale) for g in coeffs]
        if vals[r] == 0:
            return None
        fac = [[0] * r for _ in range(r)]
        for t in range(r - 1):
            fac[t][t + 1] = vals[r]
        fac[r - 1] = [-v for v in vals[:r]]
        num = [[sum(fac[a][t] * num[t][b] for t in range(r)) for b in range(r)]
               for a in range(r)]
        den *= vals[r]
    out[max(sizes)] = _positive_den(num, den)
    return out


def _positive_den(num, den):
    if den < 0:
        return [[-v for v in row] for row in num], -den
    return num, den


# ---------------------------------------------------------------------------
# fixed-point constants: value * 2^w, truncated
# ---------------------------------------------------------------------------

def _arctan_inv(x: int, w: int) -> int:
    """arctan(1/x) * 2^w, each series term truncated."""
    total = 0
    term = (1 << w) // x
    x2 = x * x
    k = 0
    while term:
        total += term // (2 * k + 1) if k % 2 == 0 else -(term // (2 * k + 1))
        term //= x2
        k += 1
    return total


def fix_pi(w: int) -> int:
    """Machin: pi = 16 arctan(1/5) - 4 arctan(1/239)."""
    return 16 * _arctan_inv(5, w) - 4 * _arctan_inv(239, w)


def _mul(a: int, b: int, w: int) -> int:
    return (a * b) >> w


def _div(a: int, b: int, w: int) -> int:
    return (a << w) // b


def _sqrt(a: int, w: int) -> int:
    return math.isqrt(a << w)


def _iroot(v: int, k: int) -> int:
    """floor(v^(1/k)) for v >= 0, by Newton's method from above."""
    if v < 2:
        return v
    x = 1 << -(-v.bit_length() // k)
    while True:
        y = ((k - 1) * x + v // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _agm(a: int, b: int, w: int) -> int:
    while abs(a - b) > 1:
        a, b = (a + b) >> 1, math.isqrt(a * b)
    return b


def fix_gamma_quarter(w: int) -> int:
    """Gamma(1/4) * 2^w, from Gamma(1/4)^2 = 2 sqrt(2 pi) pi / AGM(1, sqrt 2)."""
    one = 1 << w
    pi = fix_pi(w)
    agm = _agm(one, _sqrt(2 * one, w), w)
    sq = 2 * _mul(_sqrt(2 * pi, w), pi, w)
    return _sqrt(_div(sq, agm, w), w)


def fix_gamma_third(w: int) -> int:
    """Gamma(1/3) * 2^w, from
    Gamma(1/3)^3 = 2^(4/3) pi^2 / (3^(1/4) AGM(1, (sqrt 6 + sqrt 2) / 4))."""
    one = 1 << w
    pi = fix_pi(w)
    agm = _agm(one, (_sqrt(6 * one, w) + _sqrt(2 * one, w)) >> 2, w)
    two_4_3 = _iroot(16 << (3 * w), 3)
    three_1_4 = _iroot(3 << (4 * w), 4)
    cube = _div(_mul(two_4_3, _mul(pi, pi, w), w), _mul(three_1_4, agm, w), w)
    return _iroot(cube << (2 * w), 3)


def gamma_reference(base: Fraction, shift: int, bits: int):
    """Gamma(base + shift) for base in {1/3, 1/4} as an interval
    (lo, hi, den): lo/den <= Gamma <= hi/den, with hi - lo about
    2^-bits of the value."""
    w = bits + 96
    if base == Fraction(1, 3):
        g = fix_gamma_third(w)
    elif base == Fraction(1, 4):
        g = fix_gamma_quarter(w)
    else:
        raise ValueError("no reference for Gamma(%s)" % base)
    rn, rd = rising_exact(base, shift)  # Gamma(b + s) = Gamma(b) (b)_s
    err = fix_err(w)
    return (g - err) * rn, (g + err) * rn, rd << w


# ---------------------------------------------------------------------------
# checks on a ball's integer fields
# ---------------------------------------------------------------------------

def _scaled(ball):
    """(X, R, e) with midpoint X 2^e and radius R 2^e, e <= 0."""
    e = min(ball.exp, ball.re, 0)
    return ball.man << (ball.exp - e), ball.rm << (ball.re - e), e


def encloses(ball, lo: int, hi: int, den: int) -> bool:
    """The ball contains the whole interval [lo/den, hi/den] (den > 0)."""
    x, r, e = _scaled(ball)
    return (x - r) * den <= lo << -e and hi << -e <= (x + r) * den


def contains(ball, num: int, den: int = 1) -> bool:
    """The ball contains num/den (den > 0)."""
    return encloses(ball, num, num, den)


def overlap(a, b) -> bool:
    e = min(a.exp, a.re, b.exp, b.re)
    xa, ra = a.man << (a.exp - e), a.rm << (a.re - e)
    xb, rb = b.man << (b.exp - e), b.rm << (b.re - e)
    return abs(xa - xb) <= ra + rb


def accuracy_bits(ball) -> int:
    """Top bit of the midpoint minus top bit of the radius; huge if exact."""
    if ball.rm == 0:
        return 1 << 30
    if ball.man == 0:
        return 0
    return (ball.exp + abs(ball.man).bit_length()) - (ball.re + ball.rm.bit_length())
