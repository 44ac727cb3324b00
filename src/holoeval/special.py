"""Applications of the engines: rising factorials, Bernoulli numbers, and
two independent high-precision gamma-function algorithms (asymptotic series
with argument reduction, and a confluent hypergeometric partial sum).
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from . import balls as bl
from .balls import Ball, BallDomainError, ComplexBall, _Z
from .poly import BiPoly
from .recmat import RecMatrix, rising_factorial_matrix
from .engines import eval_dispatch


# ---------------------------------------------------------------------------
# rising factorials
# ---------------------------------------------------------------------------

def rising_poly_coeffs(m: int):
    """Coefficients of x(x+1)...(x+m-1), ascending; the entries are the
    unsigned Stirling numbers of the first kind."""
    coeffs = [_Z(1)]
    for i in range(m):
        nxt = [coeffs[0] * i if coeffs else _Z(0)]
        for j in range(1, len(coeffs)):
            nxt.append(coeffs[j - 1] + coeffs[j] * i)
        nxt.append(coeffs[-1])
        coeffs = nxt
    return coeffs


@dataclass(frozen=True)
class RisingDeltaCoeffs:
    """Integer table C(v, i) of the difference of giant steps
    (x+k+m)(x+k+m+1)...(x+k+2m-1) - (x+k)(x+k+1)...(x+k+m-1)
    = sum_v x^v sum_i k^i C(v, i)."""

    m: int
    rows: tuple  # rows[v][i], 0 <= v < m, 0 <= i < m - v

    def coeff(self, v: int, i: int) -> int:
        return self.rows[v][i]


def rising_delta_coeffs(m: int) -> RisingDeltaCoeffs:
    """The table C_m(v, i): the v = 0 row from the closed form with unsigned
    Stirling numbers, the remaining rows propagated by the index/degree
    exchange recurrence."""
    if m < 1:
        raise ValueError("m must be >= 1")
    stirling = rising_poly_coeffs(m)  # stirling[j] multiplies x^j
    row0 = []
    for i in range(m):
        acc = _Z(0)
        for j in range(i + 1, m + 1):
            acc += _Z(m) ** (j - i) * stirling[j] * math.comb(j, i)
        row0.append(acc)
    rows = [row0]
    for v in range(m - 1):
        prev = rows[-1]
        nxt = []
        for i in range(m - v - 1):
            num = (i + 1) * prev[i + 1]
            q, r = divmod(num, v + 1)
            if r:
                raise ArithmeticError("inexact division in coefficient recurrence")
            nxt.append(q)
        rows.append(nxt)
    return RisingDeltaCoeffs(m, tuple(tuple(int(c) for c in r) for r in rows))


def rising_factorial_report(z, n: int, prec: int, algorithm: str | None = None,
                            m: int | None = None):
    """z^(rising n) plus the plan and instrumentation used: the 1 x 1
    recurrence (z + k) through the engines, like any other recurrence."""
    rep = eval_dispatch(rising_factorial_matrix(), z, n, prec,
                        algorithm=algorithm, m=m)
    return rep.matrix[0][0], rep.plan, rep.counter, rep.accuracy_bits


def rising_factorial(z, n: int, prec: int, algorithm: str | None = None,
                     m: int | None = None):
    """Ball containing z (z+1) ... (z+n-1); the empty product is exactly 1."""
    return rising_factorial_report(z, n, prec, algorithm, m)[0]


# ---------------------------------------------------------------------------
# Bernoulli numbers (exact rationals, tangent-number recurrence)
# ---------------------------------------------------------------------------

def _tangent_numbers(nmax: int):
    """Tangent numbers T_1..T_nmax by the in-place triangle recurrence."""
    T = [_Z(0)] * (nmax + 1)
    if nmax >= 1:
        T[1] = _Z(1)
    for k in range(2, nmax + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, nmax + 1):
        for j in range(k, nmax + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return T[1:]


def _primes_upto(n: int):
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = b"\x00" * len(sieve[p * p::p])
    return [i for i, v in enumerate(sieve) if v]


def _vsc_primes(nmax: int):
    """ps[n] = the primes p with (p-1) | 2n for 1 <= n <= nmax, from one
    sieve: p = 2 divides every denominator, an odd p those of the multiples
    of (p-1)/2."""
    ps = [[] for _ in range(nmax + 1)]
    for p in _primes_upto(2 * nmax + 1):
        step = max(1, (p - 1) // 2)
        for n in range(step, nmax + 1, step):
            ps[n].append(p)
    return ps


def _check_bernoulli(two_k: int, b: Fraction, primes) -> None:
    """Raise ValueError unless b can be B_2k: B_0 = 1; otherwise the
    denominator d of b is the product of the von Staudt-Clausen primes,
    b + sum 1/p over them is an integer, and b has the sign (-1)^(k+1)."""
    if two_k == 0:
        ok = b == 1
    else:
        d = math.prod(primes)
        ok = (b.denominator == d
              and (b.numerator + sum(d // p for p in primes)) % d == 0
              and (b > 0) == (two_k % 4 == 2))
    if not ok:
        raise ValueError("B_%d fails the Bernoulli number checks" % two_k)


# B_2k for k above _ZETA_FROM come from zeta(2k) in reverse order, below it
# from the tangent triangle: its cost grows as k^3, but a scan of the
# crossover at K = 120 ... 736 numbers was flat from 30 to 70 and rose
# beyond 80.  _ZETA_GUARD bits are carried below the units of d_k B_2k.
_ZETA_FROM = 64
_ZETA_GUARD = 32


def _fixed(b: Ball, q: int):
    """(m, e) with |b 2^q - m| <= e: b in fixed point with q fraction bits."""
    s, t = b.exp + q, b.re + q
    return (b.man << s if s >= 0 else b.man >> -s,
            (b.rm << t if t >= 0 else -(-b.rm >> -t)) + (s < 0))


def _bernoulli_zeta(top: int, bottom: int, primes):
    """B_2k for k = top, top - 1, ..., bottom + 1 from d_k |B_2k| =
    d_k G_k zeta(2k), G_k = 2 (2k)! / (2 pi)^(2k), rounded only where a
    proved error bound leaves one integer; the list stops at the first k
    where it does not.

    Each quantity is an integer m in fixed point with an error count e in
    units of its last place.  G_k has Q fraction bits, the largest d_k's
    bits plus guard bits, and is stepped down by (2 pi)^2 / (2k (2k-1)).
    zeta(2k) (1 - 2^-2k) - 1 is the sum S of n^-2k over odd n >= 3, each
    term stepped by n^2 and all at P fraction bits, as many as G_k has bits.
    P falls with k by about log2(4k^2 / (2 pi)^2) bits a step, more than
    the log2(n^2) by which a term kept grows, so no term loses relative
    accuracy when multiplied up.  The tail after the last n kept, T, is
    below T^-2k (1 + (T+2) / (2k-1))."""
    if top <= bottom:
        return []
    Q = max(math.prod(primes[k]).bit_length()
            for k in range(bottom + 1, top + 1)) + _ZETA_GUARD
    wp = Q + 16 + int(math.lgamma(2 * top + 1) / math.log(2)
                      - 2 * top * math.log2(2 * math.pi))
    cball = bl.mul_2exp(bl.mul(bl.pi(wp), bl.pi(wp), wp), 2)  # (2 pi)^2
    g, eg = _fixed(bl.div(Ball.from_int(2 * math.factorial(2 * top)),
                          bl.pow_int(cball, top, wp), wp), Q)
    c, ec = _fixed(cball, wp)
    P = g.bit_length() + 4
    terms = []
    for n in range(3, 1 << P, 2):
        terms.append([n * n, (1 << P) // n ** (2 * top), 1])
        if terms[-1][1] <= 1:
            break
    out = []
    for k in range(top, bottom, -1):
        if k < top:
            sh = max(0, wp - g.bit_length() - 8)
            ck, eck, q = c >> sh, (ec >> sh) + 2, (2 * k + 2) * (2 * k + 1)
            g, eg = (((g * ck) >> (wp - sh)) // q,
                     (((eg * (ck + eck) + g * eck) >> (wp - sh)) + 1) // q + 2)
            sh = P - g.bit_length() - 4
            P -= sh
            for term in terms:
                term[1] = (term[1] * term[0]) >> sh
                term[2] = ((term[2] * term[0]) >> sh) + 2
            while len(terms) > 1 and terms[-2][1] <= 1:
                terms.pop()
        n2, t, e = terms[-1]
        z = sum(term[1] for term in terms) + (1 << (P - 2 * k))
        ez = (sum(term[2] for term in terms) + 1
              + (t + e) * (2 * k + 1 + math.isqrt(n2)) // (2 * k - 1))
        # (S + 2^-2k) / (1 - 2^-2k) = zeta(2k) - 1: z / (2^2k - 1) is the
        # sum of the shifts z >> 2kj, each one unit low, and a rest below 2
        shifts = range(2 * k, z.bit_length(), 2 * k)
        z, ez = (z + sum(z >> j for j in shifts),
                 ez + (ez >> (2 * k - 1)) + len(shifts) + 3)
        h = ((g >> 2 * k) * z) >> (P - 2 * k)
        eh = ((eg * (z + ez) + g * ez + (z << 2 * k)) >> P) + 2
        d = math.prod(primes[k])
        x, ex = d * (g + h), d * (eg + eh)
        num = (x + (1 << (Q - 1))) >> Q
        if abs(x - (num << Q)) + ex >= 1 << (Q - 1):
            break
        out.append(Fraction(int(num) if k % 2 else -int(num), d))
    return out


class BernoulliCache:
    """Exact even-index Bernoulli numbers B_0, B_2, ..., grown on demand.

    Extension never invalidates previously returned values; concurrent
    readers are safe, extension takes a lock."""

    def __init__(self):
        self._even = [Fraction(1)]  # B_0
        self._lock = threading.Lock()

    def max_index(self) -> int:
        return 2 * (len(self._even) - 1)

    def ensure(self, upto_2n: int) -> None:
        """Extend the cache through B_upto_2n.  Only the new indices are
        computed: from zeta(2k) above _ZETA_FROM, from the tangent triangle
        below it and wherever the zeta path cannot prove its rounding."""
        need = upto_2n // 2
        if need < len(self._even):
            return
        with self._lock:
            old = len(self._even) - 1
            if need <= old:
                return
            primes = _vsc_primes(need)
            new = _bernoulli_zeta(need, max(old, _ZETA_FROM), primes)[::-1]
            low = need - len(new)
            if low > old:
                tang = _tangent_numbers(low)
                for n in range(low, old, -1):  # B_2n from 2n T_n / 4^n (4^n-1)
                    d = math.prod(primes[n])
                    num, rem = divmod(2 * n * tang[n - 1] * d,
                                      (_Z(4) ** n) * ((_Z(4) ** n) - 1))
                    if rem:
                        raise ArithmeticError("tangent-number identity violated")
                    new.insert(0, Fraction(int(num) if n % 2 else -int(num), d))
            for n, b in enumerate(new, old + 1):
                _check_bernoulli(2 * n, b, primes[n])
            self._even = self._even + new

    def get(self, two_k: int) -> Fraction:
        if two_k % 2 == 1:
            raise ValueError("only even indices are cached (odd ones vanish)")
        self.ensure(two_k)
        return self._even[two_k // 2]

    def save(self, path) -> None:
        with open(path, "w") as fh:
            for k, b in enumerate(self._even):
                fh.write("%d %s %s\n" % (2 * k, bl._int_to_str(b.numerator),
                                          bl._int_to_str(b.denominator)))

    def load(self, path) -> None:
        """Replace the cache by the numbers in the file when they reach
        further and leave no hole.  The file is untrusted: a file with a
        hole is ignored, the first entry that cannot be a Bernoulli number
        raises ValueError, and either way the cache stays as it was."""
        entries = {}
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                idx_s, num_s, den_s = line.split()
                k = int(idx_s)
                if k < 0 or k % 2:
                    raise ValueError("index %d in the file is not even" % k)
                entries[k] = Fraction(bl._str_to_int(num_s),
                                      bl._str_to_int(den_s))
        top = max(entries) if entries else -1
        if len(entries) != top // 2 + 1:
            return  # a hole: refuse the file before any work its top sets
        primes = _vsc_primes(max(top, 0) // 2)
        c = bl.mul_2exp(bl.mul(bl.pi(64), bl.pi(64), 64), 2)  # (2 pi)^2
        g = Ball.from_int(2)  # 2 k! / (2 pi)^k
        for k in range(0, top + 2, 2):
            _check_bernoulli(k, entries[k], primes[k // 2])
            if k:  # |B_k| = g zeta(k), zeta(k) in [1, 1 + 2^(2-k)]
                g = bl.div(bl.mul_int(g, k * (k - 1), 64), c, 64)
                if not bl.mul(g, Ball((1 << (k - 1)) + 1, 1 - k, 1, 1 - k),
                              64).contains(abs(entries[k])):
                    raise ValueError("|B_%d| in the file is out of range" % k)
        with self._lock:
            if top >= self.max_index():
                self._even = [entries[k] for k in range(0, top + 2, 2)]


_shared_bernoulli = BernoulliCache()


def bernoulli_even(upto_2n: int, cache: BernoulliCache | None = None) -> BernoulliCache:
    """Ensure B_0..B_{2n} are available; returns the cache."""
    cache = cache if cache is not None else _shared_bernoulli
    cache.ensure(upto_2n)
    return cache


# ---------------------------------------------------------------------------
# Stirling-series gamma
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StirlingParams:
    """Shift n and series length N for a target of p bits."""

    p: int
    n: int
    nterms: int


# shift target: Re(x) + n ~ _SHIFT_SLOPE * p.  The rising factorial of the
# shift runs on rect-split and stays cheap as n grows, while a larger Re(w)
# shortens the series and the exact Bernoulli numbers behind it.
_SHIFT_SLOPE = 0.5


# series-term cap: beyond this many exact Bernoulli numbers their generation
# (from zeta(2k), about N products of N log N bits) dominates a cold call, so
# the shift n is enlarged instead
def _bernoulli_cap(p: int) -> int:
    return 1024 + p // 22


def _contains_nonpositive_integer(x) -> bool:
    if isinstance(x, ComplexBall):
        return x.im.contains_zero() and _contains_nonpositive_integer(x.re)
    lo = x.mid_fraction() - x.rad_fraction()
    hi = x.mid_fraction() + x.rad_fraction()
    k = min(math.floor(hi), 0)
    return lo <= k <= hi


def _re_mid_float(x) -> float:
    """Re x's midpoint as a float; a part beyond the float range is a
    domain error (its Gamma is far outside any exponent range)."""
    mids = [b.mid_float() for b in
            ((x.re, x.im) if isinstance(x, ComplexBall) else (x,))]
    if not all(map(math.isfinite, mids)):
        raise BallDomainError("gamma argument beyond the float range")
    return mids[0]


def _sec_half_arg_factor(w) -> float:
    """Float upper estimate of sec^2(arg(w)/2) = 2|w| / (|w| + Re w)."""
    if not isinstance(w, ComplexBall):
        return 1.0
    re = w.re.mid_float()
    im = w.im.mid_float()
    mod = math.hypot(re, im)
    if mod + re <= 0:
        return math.inf
    return 2 * mod / (mod + re) * (1 + 1e-9)


def _stirling_nterms_float(t: float, secfac: float, target_bits: int,
                           nmax: int) -> int | None:
    """Smallest N <= nmax with the float model of the remainder below
    2^-target.  The model's first difference, log(2N (2N-1)) - 2 log(2 pi t)
    + log secfac, grows with N, so that N lies where the model still falls,
    and a doubling search with bisection finds the first N that is below
    the target or past the model's minimum."""
    def below(nn):
        val = (math.log(2 * 1.645) + math.lgamma(2 * nn + 1)
               - 2 * nn * math.log(2 * math.pi) - (2 * nn - 1) * math.log(t)
               - math.log(2 * nn * (2 * nn - 1)) + nn * math.log(secfac))
        return val / math.log(2) < -(target_bits + 4)

    def stop(nn):
        return below(nn) or (math.log(2 * nn * (2 * nn - 1)) + math.log(secfac)
                             >= 2 * math.log(2 * math.pi * t))
    lo, hi = 0, 1
    while hi < nmax and not stop(hi):
        lo, hi = hi, 2 * hi
    hi = min(hi, nmax)
    nn = bisect.bisect_left(range(lo + 1, hi + 1), True, key=stop) + lo + 1
    return nn if nn <= hi and below(nn) else None


def _stirling_remainder_bound(w, nterms: int):
    """Upper bound (man, exp) of |R_N(w)| by 64-bit ball arithmetic with
    |B_2N| <= 2 zeta(2) (2N)! / (2pi)^(2N), or None where the bound does not
    apply (w not provably in the right half-plane)."""
    wp = 64
    two_n = 2 * nterms
    if isinstance(w, ComplexBall):
        mod2 = bl.add(bl.mul(w.re, w.re, wp), bl.mul(w.im, w.im, wp), wp)
        mod = bl.sqrt(mod2, wp)
        if not mod.is_positive():
            return None
        den = bl.add(mod, w.re, wp)
        if not den.is_positive():
            return None
        sec2 = bl.div(bl.mul_int(mod, 2, wp), den, wp)
        secn = bl.pow_int(sec2, nterms, wp)
        wabs = mod
    else:
        if not w.is_positive():
            return None
        secn = Ball.one()
        wabs = w
    fac = Ball.from_int(math.factorial(two_n))
    zeta2_up = Ball.from_fraction(Fraction(16449342, 10 ** 7), wp)
    two_pi_lo = Ball.from_fraction(Fraction(62831853, 10 ** 7), wp)
    bound = bl.mul(bl.mul_int(zeta2_up, 2, wp), fac, wp)
    bound = bl.div(bound, bl.pow_int(two_pi_lo, two_n, wp), wp)
    bound = bl.div_int(bound, two_n * (two_n - 1), wp)
    bound = bl.div(bound, bl.pow_int(wabs, two_n - 1, wp), wp)
    bound = bl.mul(bound, secn, wp)
    return bound.abs_upper()


def _stirling_remainder_ok(w, nterms: int, target_bits: int) -> bool:
    """Rigorous check |R_N(w)| < 2^-target."""
    bound = _stirling_remainder_bound(w, nterms)
    if bound is None:
        return False
    um, ue = bound
    return um == 0 or ue + um.bit_length() < -target_bits


def stirling_params(x, p: int) -> StirlingParams:
    """Choose the argument shift n and the series length N so that the
    remainder is rigorously below 2^-p.

    The default shift aims at Re(x) + n ~ p / 2; at very high precision
    the shift is enlarged further to keep the number of exact Bernoulli
    numbers manageable (N of them cost about N products of N log N bits).
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    if _contains_nonpositive_integer(x):
        raise BallDomainError("gamma argument contains a pole")
    re_mid = _re_mid_float(x)
    secfac = _sec_half_arg_factor(x)  # arg shrinks as n grows; this is safe
    cap = _bernoulli_cap(p)
    nmax = max(16 * cap, p)
    t = max(_SHIFT_SLOPE * p, re_mid, 4.0)
    while True:
        nn = _stirling_nterms_float(t, secfac, p, nmax)
        if nn is not None and nn <= cap:
            break
        t *= 1.25
    n = max(0, math.ceil(t - re_mid))
    w_approx = max(re_mid + n, 4.0)
    nterms = _stirling_nterms_float(w_approx, secfac, p, nmax)
    if nterms is None:
        raise BallDomainError("cannot reach the target precision: "
                              "shift too small for the asymptotic series")
    wball = bl.n_add_int(x, n, 64)
    while not _stirling_remainder_ok(wball, nterms, p):
        if nterms >= 2 * nmax:
            raise BallDomainError("remainder bound does not reach the target "
                                  "(argument too wide or too close to a pole)")
        nterms += max(1, nterms // 32)
    return StirlingParams(p=p, n=n, nterms=nterms)


def _stirling_series(y, nterms: int, wp: int, log2w, cache: BernoulliCache):
    """sum_{k=1}^{N-1} c_k y^(k-1) with c_k = B_2k / (2k (2k-1)), by Horner
    on integers in fixed point.  For y = 1/w^2 step k carries the terms from
    k on, whose sum is near c_k / w^(2k-2): drop_k bits below the leading
    c_1, so c_k gets prec_k = wp - drop_k plus guard bits, and the step runs
    at c_k's last place.  The drop is estimated with log2w = log2 Re w <=
    log2 |w|, which never overstates it; with log2w None every step runs at
    wp.  acc and y are lists of parts (one real, two for re and im) with
    one count of the error of each part in units of the last place."""
    parts = (y.re, y.im) if isinstance(y, ComplexBall) else (y,)
    fy = wp - max((b.exp + b.man.bit_length() for b in parts if b.man),
                  default=0)
    ys = [_fixed(b, fy) for b in parts]
    ey, ys = max(e for _, e in ys), [m for m, _ in ys]
    ybits = max(v.bit_length() for v in ys)
    guard = 16 + nterms.bit_length()
    acc, e, f = [0] * len(ys), 0, 0
    for k in range(nterms - 1, 0, -1):
        b = cache.get(2 * k)
        num, d = b.numerator, b.denominator * 2 * k * (2 * k - 1)
        prec = wp
        if log2w is not None:
            log2ck = (num.bit_length() - b.denominator.bit_length()
                      - math.log2(2 * k * (2 * k - 1)))
            drop = -math.log2(12) - log2ck + (2 * k - 2) * log2w
            prec = min(wp, max(64, wp - int(drop) + guard))
        fk = prec - num.bit_length() + d.bit_length()  # c_k 2^fk has prec bits
        if k < nterms - 1:  # acc y, y cut to prec bits, at 2^-fk
            s = max(0, ybits - prec)
            yk, eyk = [v >> s for v in ys], -(-ey >> s) + (s > 0)
            fk = min(fk, f + fy - s)
            prod = ([acc[0] * yk[0] - acc[1] * yk[1], acc[0] * yk[1]
                     + acc[1] * yk[0]] if len(yk) == 2 else [acc[0] * yk[0]])
            err = (sum(map(abs, acc)) * eyk
                   + e * (sum(map(abs, yk)) + len(yk) * eyk))
            t = f + fy - s - fk
            acc, e = [v >> t for v in prod], -(-err >> t) + (t > 0)
        # floor(c_k 2^fk); for fk < 0 the shift first keeps the divisor small
        acc[0] += (num << fk) // d if fk >= 0 else (num >> -fk) // d
        e, f = e + 1, fk
    out = [bl._make(v, -f, *bl._u_from_abs(e, -f), wp) for v in acc]
    return ComplexBall(*out) if len(out) == 2 else out[0]


def log_gamma_stirling(w, nterms: int, wp: int,
                       cache: BernoulliCache | None = None):
    """log Gamma(w) for Re(w) large, by the asymptotic series with N terms
    and a rigorous remainder inflation."""
    # the remainder bound is recomputed here so that the enclosure never
    # depends on the caller's check
    rad = _stirling_remainder_bound(w, nterms)
    if rad is None:
        raise BallDomainError("Stirling remainder bound needs Re(w) > 0")
    cache = bernoulli_even(2 * (nterms - 1) if nterms > 1 else 0, cache)
    one_half = Ball.from_fraction(Fraction(1, 2), wp)
    logw = bl.log(w, wp)
    out = bl.n_mul(bl.n_sub(w, bl.n_from_ball(one_half, w), wp), logw, wp)
    out = bl.n_sub(out, w, wp)
    l2pi_half = bl.mul_2exp(bl.log_2pi(wp), -1)
    out = bl.n_add(out, bl.n_from_ball(l2pi_half, w), wp)
    re = bl.n_real(w).mid_float()
    log2w = math.log2(re) if re > 1 else None
    y = bl.n_div(bl.n_one(w), bl.n_mul(w, w, wp), wp)
    series = _stirling_series(y, nterms, wp, log2w, cache)
    out = bl.n_add(out, bl.n_div(series, w, wp), wp)
    return bl.n_widen(out, *rad)


def gamma_stirling(x, p: int, cache: BernoulliCache | None = None):
    """Gamma(x) via the asymptotic series for Gamma(x + n) divided by the
    rising factorial x (x+1) ... (x+n-1)."""
    params = stirling_params(x, p + 16)
    t_est = max(bl.n_real(x).mid_float() + params.n, 4.0)
    wp = p + 48 + int(t_est * math.log(t_est) + 2).bit_length()
    w = bl.n_add_int(x, params.n, wp)
    lg = log_gamma_stirling(w, params.nterms, wp, cache)
    gw = bl.exp(lg, wp)
    if params.n:
        rf = rising_factorial(x, params.n, wp)
        out = bl.n_div(gw, rf, wp)
    else:
        out = gw
    return bl.n_reduce(out, p)


# ---------------------------------------------------------------------------
# gamma via the confluent hypergeometric partial sum
# ---------------------------------------------------------------------------

def hyp1f1_gamma_matrix(nbig: int) -> RecMatrix:
    """Order-2 matrix advancing (s_k, t_{k+1}): upper-left entries equal the
    cleared denominator 1+k+z, so the denominator product is read off the
    numerator product instead of being evaluated separately."""
    e = BiPoly([[1, 1], [1]])  # 1 + k + x
    return RecMatrix([[e, e], [BiPoly.zero(), BiPoly.const(nbig)]])


def _gamma_1f1_params(p: int):
    p2 = p + 2 * max(0, math.ceil(math.log2(p + 2))) + 24
    nbig = math.ceil(p2 * math.log(2)) + 1
    nsum = max(2 * nbig + 8, math.ceil(math.e * math.log(2) * p2))
    return nbig, nsum


# the shift of 1F1's argument into [1, 2] costs a rising factorial of that
# many factors, linear in the shift (about 6 s for 10^6 factors at p = 64)
_1F1_MAX_SHIFT = 1 << 20


def gamma_1f1(x, p: int):
    """Gamma(x) via the truncated series for the lower incomplete gamma,
    evaluated as an order-2 parametric matrix product.  An argument that
    needs a shift of more than _1F1_MAX_SHIFT factors is a domain error."""
    if p < 2:
        raise ValueError("p must be >= 2")
    if _contains_nonpositive_integer(x):
        raise BallDomainError("gamma argument contains a pole")
    re_mid = _re_mid_float(x)
    shift = math.floor(re_mid) - 1
    if abs(shift) > _1F1_MAX_SHIFT:
        raise BallDomainError("1F1 shifts the argument by over 2^20 factors")
    nbig, nsum = _gamma_1f1_params(p)
    wp = p + 64 + max(0, shift).bit_length() + nsum.bit_length()
    z = bl.n_add_int(x, -shift, wp)
    if not bl.n_real(z).is_positive():
        raise BallDomainError("argument too wide to shift into [1, 2]")
    M = hyp1f1_gamma_matrix(nbig)
    # row 0 of the product is enough: its lower-right entry is N^(nsum+1)
    q00, s_num = eval_dispatch(M, z, nsum + 1, wp, row=0).matrix[0]
    zq = bl.n_mul(z, q00, wp)
    s_n = bl.n_div(s_num, zq, wp)
    nterm = bl.pow_int(Ball.from_int(nbig), nsum + 1, wp)
    t_next = bl.n_div(bl.n_from_ball(nterm, z), zq, wp)
    # tail of the series: |sum_{k>n} t_k| <= 2 |t_{n+1}| once the term
    # ratio N/(z+k+1) has dropped below 1/2 (guaranteed by nsum >= 2N+8)
    tail = _tail_ball(t_next, z)
    s_tot = bl.n_add(s_n, tail, wp)
    # gamma(z, N) = N^z e^-N * s
    logn = bl.log(Ball.from_int(nbig), wp)
    arg = bl.n_add_int(bl.n_mul(z, bl.n_from_ball(logn, z), wp), -nbig, wp)
    pref = bl.exp(arg, wp)
    gz = bl.n_mul(pref, s_tot, wp)
    # upper incomplete gamma gap: |Gamma(z) - gamma(z,N)| <= (N+1) e^-N
    gap = bl.mul_int(bl.exp(Ball.from_int(-nbig), 64), nbig + 1, 64)
    gz = bl.n_widen(gz, *gap.abs_upper())
    # undo the integer shift
    if shift > 0:
        rf = rising_factorial(z, shift, wp)
        out = bl.n_mul(gz, rf, wp)
    elif shift < 0:
        rf = rising_factorial(x, -shift, wp)
        out = bl.n_div(gz, rf, wp)
    else:
        out = gz
    return bl.n_reduce(out, p)


def _tail_ball(t_next, like):
    """A ball covering [0, 2 t] (resp. the complex disc of radius 2|t|)."""
    um, ue = t_next.abs_upper()
    if isinstance(like, ComplexBall):
        return bl.n_widen(ComplexBall.zero(), *bl._rnorm(2 * um, ue))
    return bl.n_widen(t_next, um, ue)
