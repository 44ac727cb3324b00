"""Rigorous midpoint-radius ("ball") arithmetic over big integers.

A real ball is a pair (mid, rad) standing for the interval
[mid - rad, mid + rad].  The midpoint is an arbitrary-precision dyadic
number man * 2**exp; the radius is a low-precision nonnegative dyadic
rad_man * 2**rad_exp that is always rounded upward.  Every operation takes
an explicit working precision ``p`` (bits of midpoint mantissa) and
guarantees *containment*: the output interval contains the exact
mathematical image of the input intervals.  Midpoints are rounded to
nearest, with the rounding error absorbed into the radius.

Complex balls are rectangular: a pair of real balls for the real and
imaginary parts.

Mantissas use gmpy2.mpz when available (plain int otherwise), so large
multiplications go through GMP.  Exponents are plain Python ints and are
unbounded, so there is no overflow; an exact zero is man == 0, rad == 0.

Elementary functions (sqrt, exp, log, powers, pi, log 2) are implemented
here with explicit tail and propagation bounds, since the gamma-function
code needs them at precisions far beyond hardware floats.
"""

from __future__ import annotations

import math
import operator
import threading
from fractions import Fraction

try:
    import gmpy2

    _Z = gmpy2.mpz
    _isqrt = gmpy2.isqrt
    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _Z = int
    _isqrt = math.isqrt
    HAVE_GMPY2 = False

_ZERO = _Z(0)
_ONE = _Z(1)

# Radius mantissas are kept below 2**32 and rounded up on normalization.
_RAD_BITS = 32
_RAD_CAP = 1 << _RAD_BITS


class BallDomainError(ArithmeticError):
    """Raised when an operation leaves its mathematical domain
    (division by a ball containing zero, log of a nonpositive ball, ...)."""


# ---------------------------------------------------------------------------
# low-level radius arithmetic (upward rounded, tiny mantissas)
# ---------------------------------------------------------------------------

def _rnorm(rm: int, re: int):
    if rm < _RAD_CAP:
        return rm, re
    s = rm.bit_length() - _RAD_BITS
    return (rm >> s) + 1, re + s


def _rad_add(rm1, re1, rm2, re2):
    if rm1 == 0:
        return rm2, re2
    if rm2 == 0:
        return rm1, re1
    if re1 < re2:
        rm1, re1, rm2, re2 = rm2, re2, rm1, re1
    d = re1 - re2
    if d > 64:
        if rm1 < 0x10000 and re2 + rm2.bit_length() <= re1 - 32:
            # a short mantissa, such as the 1 of a rounding error: add one
            # unit 32 bits below it instead of doubling it
            return _rnorm((rm1 << 32) + 1, re1 - 32)
        return _rnorm(rm1 + 1, re1)
    return _rnorm((rm1 << d) + rm2, re2)


def _rad_mul(rm1, re1, rm2, re2):
    if rm1 == 0 or rm2 == 0:
        return 0, 0
    return _rnorm(rm1 * rm2, re1 + re2)


def _u_from_abs(man, exp: int):
    """Upper bound of |man * 2**exp| as a radius pair."""
    if man == 0:
        return 0, 0
    if man < 0:
        man = -man
    bl = man.bit_length()
    if bl <= _RAD_BITS:
        return int(man), exp
    s = bl - _RAD_BITS
    return int(man >> s) + 1, exp + s


def _l_from_abs(man, exp: int):
    """Lower bound of |man * 2**exp| as a (mantissa, exponent) pair."""
    if man == 0:
        return 0, 0
    if man < 0:
        man = -man
    bl = man.bit_length()
    if bl <= _RAD_BITS:
        return int(man), exp
    s = bl - _RAD_BITS
    return int(man >> s), exp + s


def _rad_div_upper(num_rm, num_re, den_lm, den_le):
    """Upper bound of (num radius) / (den lower bound)."""
    if num_rm == 0:
        return 0, 0
    if den_lm == 0:
        raise BallDomainError("division by zero lower bound")
    return _rnorm((num_rm << 40) // den_lm + 1, num_re - den_le - 40)


# ---------------------------------------------------------------------------
# the Ball type
# ---------------------------------------------------------------------------

def _round_man(man, exp: int, p: int):
    """Round man*2**exp to p mantissa bits; returns man, exp and error radius."""
    bl = man.bit_length()
    if bl <= p:
        return man, exp, 0, 0
    tz = (man & -man).bit_length() - 1
    if tz:
        man >>= tz
        exp += tz
        bl -= tz
        if bl <= p:
            return man, exp, 0, 0
    s = bl - p
    half = _ONE << (s - 1)
    if man >= 0:
        q = (man + half) >> s
    else:
        q = -((-man + half) >> s)
    return q, exp + s, 1, exp + s - 1


class Ball:
    """A real number known to lie in [mid - rad, mid + rad]."""

    __slots__ = ("man", "exp", "rm", "re")

    def __init__(self, man, exp, rm, re):
        self.man = man
        self.exp = exp
        self.rm = rm
        self.re = re

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_int(n) -> "Ball":
        return Ball(_Z(n), 0, 0, 0)

    @staticmethod
    def from_man_exp(man, exp: int) -> "Ball":
        return Ball(_Z(man), exp, 0, 0)

    @staticmethod
    def from_fraction(q: Fraction, p: int) -> "Ball":
        num, den = _Z(q.numerator), _Z(q.denominator)
        if den == 1:
            return Ball(num, 0, 0, 0)
        if num == 0:
            return Ball(_ZERO, 0, 0, 0)
        s = p + 2 - num.bit_length() + den.bit_length()
        if s < 0:
            s = 0
        quot, rem = divmod(num << s, den)
        rm, re = (1, -s) if rem else (0, 0)
        return _make(quot, -s, rm, re, p)

    @staticmethod
    def from_float(x: float) -> "Ball":
        if x != x or x in (math.inf, -math.inf):
            raise ValueError("cannot make a ball from nan/inf")
        m, e = math.frexp(x)
        man = int(m * (1 << 53))
        return Ball(_Z(man), e - 53, 0, 0)

    @staticmethod
    def zero() -> "Ball":
        return Ball(_ZERO, 0, 0, 0)

    @staticmethod
    def one() -> "Ball":
        return Ball(_ONE, 0, 0, 0)

    # -- predicates & views ---------------------------------------------

    def is_exact(self) -> bool:
        return self.rm == 0

    def is_zero(self) -> bool:
        return self.man == 0 and self.rm == 0

    def mid_fraction(self) -> Fraction:
        e = self.exp
        if e >= 0:
            return Fraction(int(self.man) << e)
        return Fraction(int(self.man), 1 << (-e))

    def rad_fraction(self) -> Fraction:
        e = self.re
        if e >= 0:
            return Fraction(self.rm << e)
        return Fraction(self.rm, 1 << (-e))

    def mid_float(self) -> float:
        man, exp = self.man, self.exp
        if man == 0:
            return 0.0
        bl = man.bit_length()
        if bl > 53:
            man >>= bl - 53
            exp += bl - 53
        try:
            return math.ldexp(int(man), exp)
        except OverflowError:
            return math.inf if man > 0 else -math.inf

    def contains_zero(self) -> bool:
        man = self.man
        if man == 0:
            return True
        if self.rm == 0:
            return False
        if man < 0:
            man = -man
        tm = self.exp + man.bit_length()
        tr = self.re + self.rm.bit_length()
        if tr < tm - 1:
            # rad < 2**tr <= 2**(tm-1) <= |mid|
            return False
        d = self.re - self.exp
        if d >= 0:
            return self.rm << d >= man
        return self.rm >= man << (-d)

    def is_positive(self) -> bool:
        """True iff every point of the ball is > 0."""
        return self.man > 0 and not self.contains_zero()

    def contains(self, x) -> bool:
        """Exact test whether the rational (or integer) x lies in the ball."""
        q = Fraction(x)
        return abs(self.mid_fraction() - q) <= self.rad_fraction()

    def overlaps(self, other: "Ball") -> bool:
        d = abs(self.mid_fraction() - other.mid_fraction())
        return d <= self.rad_fraction() + other.rad_fraction()

    def rel_accuracy_bits(self) -> int:
        """Bits of relative accuracy: position of the top bit of the midpoint
        minus the position of the top bit of the radius.  Exact balls report
        a very large value."""
        if self.rm == 0:
            return 1 << 30
        if self.man == 0:
            return 0
        return (self.exp + self.man.bit_length()) - (self.re + self.rm.bit_length())

    def abs_upper(self):
        """Upper bound of |ball| as a radius pair."""
        return _rad_add(*_u_from_abs(self.man, self.exp), self.rm, self.re)

    def abs_lower(self):
        """Lower bound of |ball| as a pair, (0, 0) if the ball contains 0."""
        if self.man == 0:
            return 0, 0
        lm, le = _l_from_abs(self.man, self.exp)
        if self.rm == 0:
            return lm, le
        d = le - self.re
        if d > 64:
            # rad <= 2**(re+32) <= 2**(le-32); lose one bit at most
            return 2 * lm - 1, le - 1
        if d >= 0:
            v = (lm << d) - self.rm
            if v <= 0:
                return 0, 0
            return _l_from_abs(v, self.re)
        v = lm - ((self.rm >> (-d)) + 1)
        if v <= 0:
            return 0, 0
        return v, le

    def __neg__(self) -> "Ball":
        return Ball(-self.man, self.exp, self.rm, self.re)

    def __repr__(self):
        return "Ball(%s)" % to_decimal(self, max_digits=20)

    def __eq__(self, other):
        if not isinstance(other, Ball):
            return NotImplemented
        return (self.mid_fraction() == other.mid_fraction()
                and self.rad_fraction() == other.rad_fraction())

    def __hash__(self):
        return hash((self.mid_fraction(), self.rad_fraction()))


def _make(man, exp, rm, re, p) -> Ball:
    man, exp, erm, ere = _round_man(man, exp, p)
    if erm:
        rm, re = _rad_add(rm, re, erm, ere)
    if man == 0:
        exp = 0
    return Ball(man, exp, rm, re)


def reduce(b: Ball, p: int) -> Ball:
    """Round the midpoint to p bits, widening the radius accordingly."""
    return _make(b.man, b.exp, b.rm, b.re, p)


# ---------------------------------------------------------------------------
# field operations
# ---------------------------------------------------------------------------

def add(a: Ball, b: Ball, p: int) -> Ball:
    rm, re = _rad_add(a.rm, a.re, b.rm, b.re)
    am, bm = a.man, b.man
    if am == 0:
        man, exp = bm, b.exp
    elif bm == 0:
        man, exp = am, a.exp
    else:
        ta = a.exp + am.bit_length()
        tb = b.exp + bm.bit_length()
        if ta >= tb:
            hi, lo, tlo = a, b, tb
            thi = ta
        else:
            hi, lo, tlo = b, a, ta
            thi = tb
        if tlo < thi - (p + 16):
            # the small term fits inside one ulp of the large one
            man, exp = hi.man, hi.exp
            rm, re = _rad_add(rm, re, *_u_from_abs(lo.man, lo.exp))
        else:
            d = a.exp - b.exp
            if d >= 0:
                man, exp = (am << d) + bm, b.exp
            else:
                man, exp = am + (bm << (-d)), a.exp
    return _make(man, exp, rm, re, p)


def sub(a: Ball, b: Ball, p: int) -> Ball:
    return add(a, -b, p)


def add_int(a: Ball, n, p: int) -> Ball:
    if n == 0:
        return a
    return add(a, Ball.from_int(n), p)


def mul(a: Ball, b: Ball, p: int) -> Ball:
    man = a.man * b.man
    exp = a.exp + b.exp
    rm = re = 0
    if b.rm:
        rm, re = _rad_mul(*_u_from_abs(a.man, a.exp), b.rm, b.re)
    if a.rm:
        t = _rad_mul(a.rm, a.re, *_u_from_abs(b.man, b.exp))
        rm, re = _rad_add(rm, re, *t)
        if b.rm:
            t = _rad_mul(a.rm, a.re, b.rm, b.re)
            rm, re = _rad_add(rm, re, *t)
    return _make(man, exp, rm, re, p)


def mul_int(a: Ball, c, p: int) -> Ball:
    """Scalar multiplication by an exact integer."""
    if c == 0:
        return Ball.zero()
    rm, re = (0, 0) if a.rm == 0 else _rad_mul(a.rm, a.re, *_u_from_abs(c, 0))
    return _make(a.man * c, a.exp, rm, re, p)


def mul_2exp(a: Ball, e: int) -> Ball:
    """Exact scaling by 2**e."""
    if a.man == 0 and a.rm == 0:
        return a
    return Ball(a.man, a.exp + e, a.rm, a.re + e)


def div(a: Ball, b: Ball, p: int) -> Ball:
    lm, le = b.abs_lower()
    if lm == 0:
        raise BallDomainError("division by a ball containing zero")
    am, bm = a.man, b.man
    if am == 0:
        q, qe, rm, re = _ZERO, 0, 0, 0
    else:
        s = p + 4 - am.bit_length() + bm.bit_length()
        if s < 0:
            s = 0
        q, r = divmod(am << s, bm)
        qe = a.exp - b.exp - s
        rm, re = (1, qe) if r else (0, 0)
    if a.rm or b.rm:
        n1 = _rad_mul(a.rm, a.re, *_u_from_abs(bm, b.exp))
        n2 = _rad_mul(*_u_from_abs(am, a.exp), b.rm, b.re)
        num = _rad_add(*n1, *n2)
        dlm, dle = _l_from_abs(bm, b.exp)
        den_m, den_e = dlm * lm, dle + le
        prop = _rad_div_upper(num[0], num[1], den_m, den_e)
        rm, re = _rad_add(rm, re, *prop)
    return _make(q, qe, rm, re, p)


def div_int(a: Ball, c, p: int) -> Ball:
    if c == 0:
        raise ZeroDivisionError("ball division by integer zero")
    if c < 0:
        return div_int(-a, -c, p)
    man = a.man
    s = p + 4 - man.bit_length() + c.bit_length() if man else 0
    if s < 0:
        s = 0
    q, r = divmod(man << s, _Z(c))
    qe = a.exp - s
    rm, re = (1, qe) if r else (0, 0)
    if a.rm:
        lc, lce = _l_from_abs(c, 0)
        rm, re = _rad_add(rm, re, *_rad_div_upper(a.rm, a.re, lc, lce))
    return _make(q, qe, rm, re, p)


def inv(a: Ball, p: int) -> Ball:
    return div(Ball.one(), a, p)


def pow_int(a: Ball, k: int, p: int) -> Ball:
    """a**k by binary powering (k >= 0)."""
    if k < 0:
        return inv(pow_int(a, -k, p), p)
    acc = Ball.one()
    base = a
    while k:
        if k & 1:
            acc = mul(acc, base, p)
        k >>= 1
        if k:
            base = mul(base, base, p)
    return acc


def sqrt(a: Ball, p: int) -> Ball:
    """Square root.  The ball must not contain negative numbers."""
    if a.man < 0 and not a.contains_zero():
        raise BallDomainError("sqrt of a negative ball")
    lm, le = a.abs_lower() if a.man > 0 else (0, 0)
    if lm == 0:
        # touches zero (from above): enclose [0, sqrt(upper)]
        um, ue = a.abs_upper()
        if um == 0:
            return Ball.zero()
        if ue & 1:
            um <<= 1
            ue -= 1
        root = int(_isqrt(_Z(um))) + 1
        h = ue // 2
        return _make(_Z(root), h - 1, root, h - 1, p)
    man, exp = a.man, a.exp
    if exp & 1:
        man <<= 1
        exp -= 1
    t = 2 * (p + 4) - man.bit_length()
    if t < 0:
        t = 0
    if t & 1:
        t += 1
    root = _isqrt(man << t)
    qe = (exp - t) // 2
    rm, re = 1, qe
    if a.rm:
        # |sqrt(x) - sqrt(mid)| <= rad / (2 sqrt(lower))
        le2 = le - 40
        if le2 & 1:
            sl = _isqrt(_Z(lm) << 41)
            le2 -= 1
        else:
            sl = _isqrt(_Z(lm) << 40)
        prop = _rad_div_upper(a.rm, a.re, int(sl), le2 // 2)
        prop = _rnorm(prop[0] + 1, prop[1] - 1)
        rm, re = _rad_add(rm, re, *prop)
    return _make(root, qe, rm, re, p)


# ---------------------------------------------------------------------------
# constants (binary splitting, cached per precision)
# ---------------------------------------------------------------------------

_const_lock = threading.Lock()
_const_cache: dict = {}


def _chud_bsplit(a: int, b: int):
    """Binary splitting for the Chudnovsky series; returns (P, Q, T) with
    sum_{k=a}^{b-1} t_k = T / Q."""
    if b - a == 1:
        if a == 0:
            pab = qab = _ONE
        else:
            pab = _Z(6 * a - 5) * (2 * a - 1) * (6 * a - 1)
            qab = _Z(a) ** 3 * 10939058860032000  # C^3 / 24
        tab = (13591409 + 545140134 * _Z(a)) * pab
        if a & 1:
            tab = -tab
        return pab, qab, tab
    m = (a + b) // 2
    p1, q1, t1 = _chud_bsplit(a, m)
    p2, q2, t2 = _chud_bsplit(m, b)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def _cached_const(name: str, p: int, compute) -> Ball:
    """The constant `name` to about p bits: rounded from the most precise
    value computed so far, or computed as compute(p + 32) and kept."""
    with _const_lock:
        cached = _const_cache.get(name)
        if cached is not None and cached[0] >= p:
            return reduce(cached[1], p)
    value = compute(p + 32)
    with _const_lock:
        cached = _const_cache.get(name)
        if cached is None or cached[0] < p:
            _const_cache[name] = (p, value)
    return reduce(value, p)


def _pi_chudnovsky(wp: int) -> Ball:
    # |t_k| <= (A + B k) 2^(-47k), so the tail after n terms is below
    # 2 (A + B n) 2^(-47n)
    n = (wp + 80) // 47 + 2
    _, q, t = _chud_bsplit(0, n)
    s = div(Ball.from_man_exp(t, 0), Ball.from_man_exp(q, 0), wp)
    tail = _u_from_abs(2 * (13591409 + 545140134 * n), -47 * n)
    s = Ball(s.man, s.exp, *_rad_add(s.rm, s.re, *tail))
    return div(mul_int(sqrt(Ball.from_int(10005), wp), 426880, wp), s, wp)


def pi(p: int) -> Ball:
    """A ball containing pi, accurate to about p bits."""
    return _cached_const("pi", p, _pi_chudnovsky)


def _atanh_bsplit(a: int, b: int):
    """(T, Q) with sum_{k=a}^{b-1} 1/((2k+1) 9^(k-a)) = T/Q."""
    if b - a == 1:
        return _ONE, _Z(2 * a + 1)
    m = (a + b) // 2
    t1, q1 = _atanh_bsplit(a, m)
    t2, q2 = _atanh_bsplit(m, b)
    nine = _Z(9) ** (m - a)
    return t1 * q2 * nine + t2 * q1, q1 * q2 * nine


def _log2_atanh(wp: int) -> Ball:
    n = wp // 3 + 4
    t, q = _atanh_bsplit(0, n)
    s = div(Ball.from_man_exp(t, 1), mul_int(Ball.from_man_exp(q, 0), 3, wp), wp)
    # tail of (2/3) sum 1/((2k+1) 9^k) after n terms is below 9^-n < 2^-3n
    return Ball(s.man, s.exp, *_rad_add(s.rm, s.re, 1, -3 * n))


def log2_const(p: int) -> Ball:
    """A ball containing log 2 (natural log), accurate to about p bits."""
    return _cached_const("log2", p, _log2_atanh)


def log_2pi(p: int) -> Ball:
    """A ball containing log(2 pi), accurate to about p bits."""
    return _cached_const("log2pi", p,
                         lambda wp: add(log2_const(wp), log(pi(wp), wp), wp))


# ---------------------------------------------------------------------------
# complex balls (rectangular: independent real/imaginary balls)
# ---------------------------------------------------------------------------

class ComplexBall:
    """A complex number inside an axis-aligned box re +/- rad, im +/- rad."""

    __slots__ = ("re", "im")

    def __init__(self, re: Ball, im: Ball):
        self.re = re
        self.im = im

    @staticmethod
    def from_ball(b: Ball) -> "ComplexBall":
        return ComplexBall(b, Ball.zero())

    @staticmethod
    def from_int(n) -> "ComplexBall":
        return ComplexBall(Ball.from_int(n), Ball.zero())

    @staticmethod
    def one() -> "ComplexBall":
        return ComplexBall(Ball.one(), Ball.zero())

    @staticmethod
    def zero() -> "ComplexBall":
        return ComplexBall(Ball.zero(), Ball.zero())

    def is_exact(self) -> bool:
        return self.re.is_exact() and self.im.is_exact()

    def contains_zero(self) -> bool:
        return self.re.contains_zero() and self.im.contains_zero()

    def contains(self, re_q, im_q=0) -> bool:
        return self.re.contains(re_q) and self.im.contains(im_q)

    def overlaps(self, other: "ComplexBall") -> bool:
        return self.re.overlaps(other.re) and self.im.overlaps(other.im)

    def abs_upper(self):
        """Upper bound of the modulus (via |re| + |im|)."""
        return _rad_add(*self.re.abs_upper(), *self.im.abs_upper())

    def rel_accuracy_bits(self) -> int:
        return min(self.re.rel_accuracy_bits(), self.im.rel_accuracy_bits())

    def __neg__(self):
        return ComplexBall(-self.re, -self.im)

    def __repr__(self):
        return "ComplexBall(%s, %s)" % (
            to_decimal(self.re, max_digits=20),
            to_decimal(self.im, max_digits=20),
        )


def c_add(a: ComplexBall, b: ComplexBall, p: int) -> ComplexBall:
    return ComplexBall(add(a.re, b.re, p), add(a.im, b.im, p))


def c_sub(a: ComplexBall, b: ComplexBall, p: int) -> ComplexBall:
    return ComplexBall(sub(a.re, b.re, p), sub(a.im, b.im, p))


def c_mul(a: ComplexBall, b: ComplexBall, p: int) -> ComplexBall:
    ac = mul(a.re, b.re, p)
    bd = mul(a.im, b.im, p)
    ad = mul(a.re, b.im, p)
    bc = mul(a.im, b.re, p)
    return ComplexBall(sub(ac, bd, p), add(ad, bc, p))


def c_mul_int(a: ComplexBall, c, p: int) -> ComplexBall:
    return ComplexBall(mul_int(a.re, c, p), mul_int(a.im, c, p))


def c_mul_2exp(a: ComplexBall, e: int) -> ComplexBall:
    return ComplexBall(mul_2exp(a.re, e), mul_2exp(a.im, e))


def c_div_int(a: ComplexBall, c, p: int) -> ComplexBall:
    return ComplexBall(div_int(a.re, c, p), div_int(a.im, c, p))


def c_div(a: ComplexBall, b: ComplexBall, p: int) -> ComplexBall:
    wp = p + 8
    den = add(mul(b.re, b.re, wp), mul(b.im, b.im, wp), wp)
    num = c_mul(a, ComplexBall(b.re, -b.im), wp)
    return ComplexBall(div(num.re, den, p), div(num.im, den, p))


def c_add_int(a: ComplexBall, n, p: int) -> ComplexBall:
    return ComplexBall(add_int(a.re, n, p), a.im)


# ---------------------------------------------------------------------------
# generic dispatch over H = real or complex balls
# ---------------------------------------------------------------------------

def n_add(a, b, p):
    if isinstance(a, ComplexBall):
        return c_add(a, b, p)
    return add(a, b, p)


def n_sub(a, b, p):
    if isinstance(a, ComplexBall):
        return c_sub(a, b, p)
    return sub(a, b, p)


def n_mul(a, b, p):
    if isinstance(a, ComplexBall):
        return c_mul(a, b, p)
    return mul(a, b, p)


def n_mul_int(a, c, p):
    if isinstance(a, ComplexBall):
        return c_mul_int(a, c, p)
    return mul_int(a, c, p)


def n_div(a, b, p):
    if isinstance(a, ComplexBall):
        return c_div(a, b, p)
    return div(a, b, p)


def n_one(like):
    return ComplexBall.one() if isinstance(like, ComplexBall) else Ball.one()


def n_zero(like):
    return ComplexBall.zero() if isinstance(like, ComplexBall) else Ball.zero()


def n_from_int(n, like):
    return ComplexBall.from_int(n) if isinstance(like, ComplexBall) else Ball.from_int(n)


def n_reduce(a, p):
    if isinstance(a, ComplexBall):
        return ComplexBall(reduce(a.re, p), reduce(a.im, p))
    return reduce(a, p)


def n_add_int(a, n, p):
    if isinstance(a, ComplexBall):
        return c_add_int(a, n, p)
    return add_int(a, n, p)


def n_mul_2exp(a, e):
    if isinstance(a, ComplexBall):
        return c_mul_2exp(a, e)
    return mul_2exp(a, e)


def n_div_int(a, c, p):
    if isinstance(a, ComplexBall):
        return c_div_int(a, c, p)
    return div_int(a, c, p)


def n_from_ball(b: Ball, like):
    """The real ball b, as a complex ball when like is complex."""
    return ComplexBall.from_ball(b) if isinstance(like, ComplexBall) else b


def n_real(a) -> Ball:
    """The real part."""
    return a.re if isinstance(a, ComplexBall) else a


def n_widen(a, rm, re):
    """a with the radius of each part widened by rm * 2^re."""
    if isinstance(a, ComplexBall):
        return ComplexBall(n_widen(a.re, rm, re), n_widen(a.im, rm, re))
    return Ball(a.man, a.exp, *_rad_add(a.rm, a.re, rm, re))


def _mid(a):
    """The midpoint as an exact ball (of each part)."""
    if isinstance(a, ComplexBall):
        return ComplexBall(_mid(a.re), _mid(a.im))
    return Ball(a.man, a.exp, 0, 0)


# ---------------------------------------------------------------------------
# fused integer dot products sum_j c_j b_j over fixed balls b_j
# ---------------------------------------------------------------------------

def _align(pairs, p):
    """(ints, e) with ints[j] * 2**e == man_j * 2**exp_j for the pairs
    (man_j, exp_j); None when the nonzero values span more than 8p + 1024
    bits, which makes one fixed-point sum wasteful."""
    live = [(man, exp) for man, exp in pairs if man]
    if not live:
        return [0] * len(pairs), 0
    e = min(exp for _, exp in live)
    if max(exp + man.bit_length() for man, exp in live) - e > 8 * p + 1024:
        return None
    return [man << (exp - e) if man else 0 for man, exp in pairs], e


def _fixed_point(balls, p):
    """(mids, e, rads, re): the real balls' midpoints are mids[j] * 2**e and
    their radii rads[j] * 2**re, exactly; rads is None when every ball is
    exact.  None when either spread is too wide."""
    mids = _align([(b.man, b.exp) for b in balls], p)
    rads = _align([(b.rm, b.re) for b in balls], p)
    if mids is None or rads is None:
        return None
    if not any(rads[0]):
        rads = None, 0
    return mids + rads


def _fused_dot(coeffs, table, p) -> Ball:
    """sum_j coeffs[j] * b_j for the integers coeffs and a table of
    _fixed_point: one integer sum for the midpoint, one for the radius."""
    mids, e, rads, re = table
    man = sum(map(operator.mul, coeffs, mids))
    if rads is None:
        return _make(man, e, 0, 0, p)
    rad = sum(map(operator.mul, map(abs, coeffs), rads))
    return _make(man, e, *_u_from_abs(rad, re), p)


def n_fixed_point(balls, p):
    """The fixed-point form of the real or complex balls for n_int_dot: the
    table of _fixed_point, one per part of complex balls; None when a
    part's values span too wide a range for one integer sum."""
    if isinstance(balls[0], ComplexBall):
        re = _fixed_point([b.re for b in balls], p)
        im = _fixed_point([b.im for b in balls], p)
        return None if re is None or im is None else (re, im)
    return _fixed_point(balls, p)


def n_int_dot(coeffs, balls, fix, p):
    """sum_j coeffs[j] * balls[j] for exact integers coeffs, with
    fix = n_fixed_point(balls, ...): one integer sum for the midpoint and
    one for the radius of each part, or term by term when fix is None.
    Both are exact rescalings of the balls, so containment is kept."""
    if fix is None:
        acc = n_zero(balls[0])
        for c, b in zip(coeffs, balls):
            if c:
                acc = n_add(acc, n_mul_int(b, c, p), p)
        return acc
    if isinstance(balls[0], ComplexBall):
        return ComplexBall(_fused_dot(coeffs, fix[0], p),
                           _fused_dot(coeffs, fix[1], p))
    return _fused_dot(coeffs, fix, p)


def _fix_parts(fix):
    """The part tables of n_fixed_point's result: a complex one is a pair,
    a real one a single table (a 4-tuple)."""
    return fix if len(fix) == 2 else (fix,)


def n_dot_sums(coeffs, fix):
    """The integer sums behind n_int_dot(coeffs, balls, fix, p) for a fix
    that is not None: [mid, rad] per part, with mid = sum c_j mids_j and
    rad = sum |c_j| rads_j (0 for an exact part).  n_ball_from_sums makes
    the same ball from them, bit for bit, so a caller may get the sums by
    other exact means (the engines' difference table does)."""
    out = []
    for mids, _, rads, _ in _fix_parts(fix):
        out.append(sum(map(operator.mul, coeffs, mids)))
        out.append(0 if rads is None
                   else sum(map(operator.mul, map(abs, coeffs), rads)))
    return out


def n_ball_from_sums(sums, fix, p):
    """The ball of n_int_dot from its sums (see n_dot_sums): the rounding
    of _fused_dot, part by part."""
    parts = [_make(sums[2 * k], e, *_u_from_abs(sums[2 * k + 1], re), p)
             for k, (_, e, _, re) in enumerate(_fix_parts(fix))]
    return ComplexBall(*parts) if len(parts) == 2 else parts[0]


# ---------------------------------------------------------------------------
# exp / log / pow
# ---------------------------------------------------------------------------

_EXP_ARG_BITS = 48  # |argument| must stay below 2**48


def _exp_series_terms(k: int, target_bits: int) -> int:
    """Smallest N with (2^-k)^(N+1)/(N+1)! below 2^-target."""
    n = 1
    log2fac = 0.0
    while True:
        log2fac += math.log2(n + 1)
        if k * (n + 1) + log2fac > target_bits + 2:
            return n
        n += 1


def _u_pow(rm, re, k):
    """Upper bound of (rm*2^re)**k."""
    m, e = 1, 0
    bm, be = rm, re
    while k:
        if k & 1:
            m, e = _rad_mul(m, e, bm, be)
        k >>= 1
        if k:
            bm, be = _rad_mul(bm, be, bm, be)
    return m, e


def _u_inv_factorial(n: int):
    """Upper bound of 1/n! as a radius pair."""
    f = math.factorial(n)
    bl = f.bit_length()
    return ((1 << (bl + 34)) // f) + 1, -(bl + 34)


def _top(a, zero):
    """An exponent e with |a| < 2^e; zero when a is exactly 0."""
    um, ue = a.abs_upper()
    return ue + um.bit_length() if um else zero


def exp(x, p: int):
    """Exponential of a real or complex ball (no explicit trigonometric
    functions), with rigorous rounding and tail bounds.

    x = q log 2 + r.  The series argument is t = r / 2^k, halved so that
    |t| < 2^-h with h = p^(1/3): for a real x, k is about h, as
    |r| <= log(2)/2.
    The Taylor series of e^t is summed by rectangular splitting (Smith):
    L = R m terms with m about sqrt(L).  Row i is
    sum_j t^j / (mi + j)! = P_i(t) / (mi + m - 1)!, where P_i has the
    integer coefficients prod_{l = mi+j+1}^{mi+m-1} l and is one integer
    dot product over the powers 1 .. t^(m-1) (n_int_dot).  The rows are
    combined by Horner in t^m, with one division by an integer per row and
    one by (m - 1)! at the end.  The ball products are the powers
    t^2 .. t^m, R - 1 Horner steps and k squarings: for x = 1/3 that is 25
    at p = 1024 (h = 10, L = 74, m = R = 9), 53 at p = 8192 (h = 20,
    L = 309, m = R = 18) and 133 at p = 110772, where summing term by term
    after sqrt(p) halvings took 63, 177 and 659."""
    top = _top(x, 0)
    if top > _EXP_ARG_BITS:
        raise BallDomainError("exp argument too large")
    h = max(4, round(p ** (1 / 3)))
    # k squarings lose k <= h + max(0, top) + 1 bits, and the reduction
    # loses max(0, top) bits of r
    wp = p + h + 2 * max(0, top) + 48
    l2 = log2_const(wp + _EXP_ARG_BITS + 16)
    q = int(round(n_real(x).mid_float() / 0.6931471805599453))
    r = n_sub(x, n_from_ball(mul_int(l2, q, wp + 16), x), wp + 16) if q else x
    et = _top(r, -wp)
    k = max(0, et + h)
    et -= k  # |t| < 2^et <= 2^-h
    t = n_mul_2exp(r, -k)
    terms = _exp_series_terms(-et, wp + 8) + 1
    m = math.isqrt(terms - 1) + 1
    rows = -(-terms // m)
    powers = [n_one(x), t]
    for j in range(2, m + 1):
        powers.append(n_mul(powers[j // 2], powers[(j + 1) // 2], wp))
    tm = powers.pop()  # t^m; powers holds 1 .. t^(m-1)
    fix = n_fixed_point(powers, wp)
    s = None
    for i in range(rows - 1, -1, -1):
        coeffs = [1] * m
        for j in range(m - 2, -1, -1):
            coeffs[j] = coeffs[j + 1] * (m * i + j + 1)
        row = n_int_dot(coeffs, powers, fix, wp)
        if s is None:
            s = row
        else:
            step = math.prod(range(m * i + m, m * i + 2 * m))
            s = n_add(row, n_div_int(n_mul(tm, s, wp), step, wp), wp)
    s = n_div_int(s, math.factorial(m - 1), wp)
    # the terms from n = R m on: below 2 |t|^(Rm) / (Rm)!
    utm, ute = t.abs_upper()
    tail = _rad_mul(*_u_pow(utm, ute, rows * m), *_u_inv_factorial(rows * m))
    s = n_widen(s, tail[0] * 2, tail[1])
    for _ in range(k):
        s = n_mul(s, s, wp)
    if q:
        s = n_mul_2exp(s, q)
    return n_reduce(s, p)


def _log_seed(x, d):
    """log of the nonzero midpoint in float precision.  Near 1, d = x - 1
    and log|x| = log1p(2a + a^2 + b^2)/2 (a + bi = d) keeps the digits of
    a tiny logarithm; otherwise x is scaled by 2^-s first (s the top
    exponent of its larger part) so that no float overflows or underflows
    to zero."""
    parts = (x.re, x.im) if isinstance(x, ComplexBall) else (x, Ball.zero())
    if d is None:
        s = max(b.exp + b.man.bit_length() for b in parts if b.man)
        fr, fi = (Ball(b.man, b.exp - s, 0, 0).mid_float() for b in parts)
        lr = math.log(math.hypot(fr, fi)) + s * 0.6931471805599453
    else:
        a, b = (n_real(d).mid_float(),
                d.im.mid_float() if isinstance(d, ComplexBall) else 0.0)
        fr, fi = 1.0 + a, b
        lr = 0.5 * math.log1p(a * (2.0 + a) + b * b)
    y = Ball.from_float(lr)
    if isinstance(x, ComplexBall):
        return ComplexBall(y, Ball.from_float(math.atan2(fi, fr)))
    return y


def log(x, p: int):
    """Natural logarithm of a strictly positive real ball, or the principal
    logarithm of a complex box that excludes zero and stays off the branch
    cut (our complex callers always have positive real part).

    Newton's iteration y <- y + x e^(-y) - 1 on midpoints, from a float
    seed, doubles the precision up to about wp/2 + 16 bits (wp = p + 48).
    A last step at wp with the error bound |r|^2 of r = x e^(-y) - 1 makes
    the result rigorous, so only one exp runs at wp: for x = 1/3 at
    p = 8192 log makes 232 ball products, where a ladder up to wp and the
    term-by-term exp made 799.  r is resolved to 2^-wp absolutely, so for
    x within 2^-s of 1, where log x is about 2^-s, wp grows by s bits
    (once s > 16, which the guard bits no longer cover) and the seed is
    taken from log1p."""
    if isinstance(x, ComplexBall):
        if x.contains_zero():
            raise BallDomainError("log of a complex ball containing zero")
        if x.re.man <= 0 and x.im.contains_zero():
            raise BallDomainError("complex log too close to the branch cut")
    elif not x.is_positive():
        raise BallDomainError("log of a ball not provably positive")
    wp = p + 48
    d = n_add_int(x, -1, 64)
    s = -_top(d, 0)
    if s > 16:
        wp += s
    else:
        d = None
    # Newton ladder on midpoints, seeded from a float log, up to about wp/2
    # bits: the wrap below is the last Newton step
    precs = [wp // 2 + 16]
    while precs[-1] > 64:
        precs.append(precs[-1] // 2 + 16)
    precs.reverse()
    y = _log_seed(x, d)
    xmid = _mid(x)
    one = n_one(x)
    for pr in precs:
        e = exp(-y, pr + 8)
        r = n_sub(n_mul(xmid, _mid(e), pr + 8), one, pr + 8)
        y = _mid(n_reduce(n_add(y, _mid(r), pr + 8), pr + 8))
    # rigorous wrap: log x = y + log(x e^-y);  |log(1+r) - r| <= |r|^2/(2(1-|r|))
    e = exp(-y, wp)
    r = n_sub(n_mul(x, e, wp), one, wp)
    urm, ure = r.abs_upper()
    if urm and ure + urm.bit_length() >= -1:
        raise BallDomainError("log correction did not converge")
    err = _rad_mul(urm, ure, urm, ure)
    return n_reduce(n_widen(n_add(y, r, wp), *err), p)


# the complex names of exp and log, kept for callers that look them up
c_exp = exp
c_log = log


def power(x: Ball, y: Ball, p: int) -> Ball:
    """x**y = exp(y log x) for positive x."""
    return exp(mul(log(x, p + 16), y, p + 16), p)


# ---------------------------------------------------------------------------
# decimal conversion
# ---------------------------------------------------------------------------

# decimal digits handled by one str()/int() call: far below CPython's
# default limit of 4300 on int <-> str conversion, which therefore never
# applies and is never raised
_STR_CHUNK = 1000


def _int_to_str(n) -> str:
    """Decimal digits of an integer, by divide and conquer on the powers
    10^(_STR_CHUNK 2^j)."""
    if HAVE_GMPY2:
        return _Z(n).digits(10)
    n = int(n)
    if n < 0:
        return "-" + _int_to_str(-n)
    pows = [10 ** _STR_CHUNK]
    while pows[-1] <= n:
        pows.append(pows[-1] * pows[-1])

    def padded(v, j):  # v < pows[j], as exactly _STR_CHUNK 2^j digits
        if j == 0:
            return str(v).zfill(_STR_CHUNK)
        hi, lo = divmod(v, pows[j - 1])
        return padded(hi, j - 1) + padded(lo, j - 1)

    return padded(n, len(pows) - 1).lstrip("0") or "0"


def _str_to_int(s: str) -> int:
    """int(s) for an optionally signed decimal literal of any length."""
    s = s.strip()
    if len(s) <= _STR_CHUNK:
        return int(s)
    body = s[1:] if s[0] in "+-" else s
    if not body.isdigit():
        raise ValueError("invalid integer literal: %r" % s[:40])
    k = len(body) // 2
    v = _str_to_int(body[:-k]) * 10 ** k + _str_to_int(body[-k:])
    return -v if s[0] == "-" else v


def _pow10(k: int):
    return _Z(10) ** k


def to_decimal(b: Ball, max_digits: int | None = None) -> str:
    """Decimal form "m ± r".  The printed interval contains the ball.

    Exact balls print as an exact decimal (dyadic numbers always have
    one), trimmed of trailing zeros; inexact balls print the number of
    digits justified by the radius (capped by max_digits)."""
    if b.man == 0 and b.rm == 0:
        return "0"
    if b.rm == 0:
        man, e = int(b.man), b.exp
        if e >= 0:
            if e + man.bit_length() > 400000:
                return _inexact_decimal(b, max_digits)
            return ("-" if man < 0 else "") + _int_to_str(abs(man) << e)
        k = -e
        if k > 400000 or (max_digits is not None and int(k * 0.302) > max_digits + 12):
            return _inexact_decimal(b, max_digits)
        s = _int_to_str(abs(man) * (_Z(5) ** k))
        s = s.rjust(k + 1, "0")
        out = (s[:-k] + "." + s[-k:]).rstrip("0").rstrip(".")
        return ("-" if man < 0 else "") + out
    return _inexact_decimal(b, max_digits)


def _inexact_decimal(b: Ball, max_digits: int | None) -> str:
    tm = b.exp + b.man.bit_length() if b.man else 0
    tr = b.re + b.rm.bit_length() if b.rm else tm - (max_digits or 20) * 4
    good_bits = max(0, tm - tr)
    digits = max(1, int(good_bits * 0.30103) + 1)
    if max_digits is not None:
        digits = min(digits, max_digits)
    mid_str, err_rm, err_re = _mid_to_decimal(b.man, b.exp, digits)
    rm, re = _rad_add(b.rm, b.re, err_rm, err_re)
    return "%s ± %s" % (mid_str, _rad_to_decimal(rm, re))


def _floor_scaled(man, exp: int, k: int):
    """floor(man * 2^exp * 10^k) for man > 0, with inexactness flag."""
    num = man * _pow10(k) if k >= 0 else man
    den = _ONE if k >= 0 else _pow10(-k)
    if exp >= 0:
        num <<= exp
    else:
        den <<= -exp
    q, r = divmod(num, den)
    return int(q), bool(r)


def _mid_to_decimal(man, exp: int, digits: int):
    """Round man*2^exp to `digits` significant decimal digits.
    Returns (string, err_rm, err_re) covering the decimal truncation."""
    if man == 0:
        return "0", 0, 0
    neg = man < 0
    if neg:
        man = -man
    dexp = int(math.floor((exp + man.bit_length()) * 0.301029995663981)) + 1
    k = digits - dexp
    d, inexact = _floor_scaled(man, exp, k)
    for _ in range(4):
        nd = len(_int_to_str(d))
        if d and nd == digits:
            break
        k += digits - nd
        d, inexact = _floor_scaled(man, exp, k)
    # value = d * 10^-k + err with 0 <= err < 10^-k
    if inexact:
        err_rm, err_re = _u_from_fraction_upper(
            Fraction(1, 10 ** k) if k >= 0 else Fraction(10 ** (-k)))
    else:
        err_rm, err_re = 0, 0
    s = _int_to_str(d)
    point = len(s) - k
    if 0 < point <= len(s):
        out = s[:point] + ("." + s[point:] if point < len(s) else "")
    elif -20 <= point <= 0:
        out = "0." + "0" * (-point) + s
    elif len(s) < point <= len(s) + 20:
        out = s + "0" * (point - len(s))
    else:
        # scientific notation for extreme magnitudes
        out = s[0] + ("." + s[1:] if len(s) > 1 else "") + "e%+d" % (point - 1)
    return ("-" if neg else "") + out, err_rm, err_re


def _u_from_fraction_upper(q: Fraction):
    if q == 0:
        return 0, 0
    num, den = q.numerator, q.denominator
    s = 40 + den.bit_length()
    v = (num << s) // den + 1
    return _rnorm(int(v), -s)


def _rad_to_decimal(rm, re) -> str:
    if rm == 0:
        return "0"
    # upper-round to two significant decimal digits
    v = Fraction(rm) * (Fraction(2) ** re if re >= 0 else Fraction(1, 2 ** (-re)))
    dexp = 0
    while v >= 100:
        v /= 10
        dexp += 1
    while v < 10:
        v *= 10
        dexp -= 1
    mant = int(v) + (0 if v == int(v) else 1)
    if mant >= 100:
        mant = 10
        dexp += 1
    return "%de%d" % (mant, dexp)


def parse_decimal(s: str, p: int) -> Ball:
    """Parse a decimal (optionally scientific) or rational literal, or a
    "mid ± rad" pair, into a ball at precision p."""
    s = s.strip()
    for sep in ("±", "+/-"):
        if sep in s:
            mid_s, rad_s = s.split(sep, 1)
            mid = parse_decimal(mid_s, p)
            rad = parse_decimal(rad_s.strip(), 32)
            um, ue = rad.abs_upper()
            return Ball(mid.man, mid.exp, *_rad_add(mid.rm, mid.re, um, ue))
    if "/" in s:
        num, den = s.split("/", 1)
        return Ball.from_fraction(Fraction(_str_to_int(num), _str_to_int(den)), p)
    q = _decimal_fraction(s)
    return Ball.from_fraction(q, p)


def _decimal_fraction(s: str) -> Fraction:
    s = s.strip().lower()
    mant = s
    e = 0
    if "e" in s:
        mant, es = s.split("e", 1)
        e = int(es)
    if "." in mant:
        intpart, frac = mant.split(".", 1)
        digits = (intpart + frac).lstrip("+")
        e -= len(frac)
    else:
        digits = mant.lstrip("+")
    if digits in ("", "-"):
        raise ValueError("empty decimal literal: %r" % s)
    val = Fraction(_str_to_int(digits))
    if e >= 0:
        return val * 10 ** e
    return val / 10 ** (-e)

