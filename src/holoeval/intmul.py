"""Exact products of large integers.

`mat_mul(A, B)` is the exact product of square integer matrices, and of two
integers for 1 x 1 matrices.  With gmpy2 installed the mantissa type is
`gmpy2.mpz`, `mat_mul` uses its multiplication and numpy is never reached.
With plain Python ints and numpy importable, factors of at least
`FFT_MIN_BITS` bits are multiplied instead by floating-point FFT convolution
of their 8-bit limbs, which beats CPython's Karatsuba from about 10^5 bits
on.  The transform length is the smallest 2^a 3^b at least the limb count of
the product, not the next power of two: numpy's pocketfft runs such lengths
at about the same cost per point, and they are on average far fuller.
`mat_mul` then transforms every entry once and sums the products of each
output entry in the frequency domain, before one inverse transform per
entry, whose rounded limb sums stay below 2^38: 5 bytes of each rebuild it.
Below the crossover, as for the engines' small node products, one scan per
matrix finds the largest entry and each entry is `sum(map(mul, row, col))`.

The FFT products are exact: their rounding error is proven below 1/2 for
every transform length and matrix size that they accept (bound below), and
every result is checked modulo 2^61 - 1 before it is returned.  A failed
check recomputes the entry with `*`.  A product of two integers too long
for one transform is split into pieces that fit (Karatsuba), each of them
an FFT product with its own check; a larger matrix product above the caps
makes its entry products one at a time in the same way.
"""

from __future__ import annotations

import operator
from itertools import chain

from .balls import _Z

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is an optional extra
    _np = None

FFT_ACTIVE = _Z is int and _np is not None

# Crossover measured with Python 3.11 and numpy 2.4 on an Intel Xeon (2 CPUs),
# FFT product against the entrywise `*`, best of 7 interleaved runs: a single
# product takes 1.6x the time of `*` at 2^14 bits per factor, ties at 2^15,
# and takes 0.55-0.65x at 2^16, 0.7-0.9x at 70000 and 10^5 bits (lengths
# 2^11 3^2 and 2^2 3^8, where a power of two would be 1.8x and 1.25x longer),
# 0.7x at 2^17 and 0.27x at 2^20.  mat_mul needs 3 r^2 transforms for r^3
# products, so for r x r matrices the crossover is taken as FFT_MIN_BITS / r:
# a 3 x 3 product ties with `*` at 2^13 bits and takes 0.55x at 2^14, 0.3x at
# 2^16 and 70000 bits and 0.23x at 2^17.
FFT_MIN_BITS = 1 << 16

# Rounding-error bound (C. Percival, "Rapid multiplication modulo the sum and
# difference of highly composite numbers", Math. Comp. 72 (2003); R. Brent and
# P. Zimmermann, Modern Computer Arithmetic, section 3.3).  For a convolution
# of real vectors x, y computed through floating-point FFTs of length N = 2^n,
# with unit roundoff eps and roots of unity accurate to beta,
#
#   |z' - z|_inf
#       < |x|_2 |y|_2 ((1+eps)^(3n) (1+eps sqrt5)^(3n+1) (1+beta)^(3n) - 1).
#
# Each of the three transforms contributes n levels of radix-2 butterflies.
# numpy's pocketfft (since numpy 1.17) runs a real transform of length
# N = 2^a 3^b by radix-4, radix-2 and radix-3 passes.  A radix-3 pass makes
# each output from three inputs by two complex additions and products by
# twiddle factors, and its gain sqrt3 is below the gain 2 of two radix-2
# levels; it is charged as two levels, so the bound holds with n = a + 2b.
# For N not a power of two the inverse transform's final scaling by 1/N is
# not exact: 1/N rounded and the product rounded add two factors (1+eps).
#
# Summing r products in the frequency domain before the inverse transform
# adds at most r - 1 roundings to each spectral value, so the error of the
# sum is below  sum_t |x_t|_2 |y_t|_2 ((1+eps)^(3n+r+1) (...)(...) - 1).
#
# With 8-bit limbs, x has n_x limbs and y has n_y limbs, all at most 255, and
# n_x + n_y - 1 <= N, so |x|_2 |y|_2 <= sqrt(n_x n_y) 255^2 <= ((N+1)/2) 255^2.
# Take eps = 2^-53 (float64) and beta = 32 eps, a wide allowance for the
# twiddle factors.  The FFT path takes N <= 2^22 and 2 r^2 N <= _FFT_MAX_WORDS
# = 2^25.  Over all such N = 2^a 3^b and r (r <= 2^12, since N >= 1) the
# bound  r ((N+1)/2) 255^2 ((1+eps)^(3n+r+1) (...)(...) - 1)  is then largest
# at r = 2, N = 2^6 3^10 = 3779136 (n = 26), where it is 0.0751 < 1/2 (for
# r = 1 it is 0.0375; at N = 2^22 it is 0.0706 and 0.0353), so rounding
# every output to the nearest integer is exact; tests/test_intmul.py
# evaluates the bound for every admitted (N, r).  The rounded output, a sum
# of r products of limb vectors, has magnitude at most r ((N+1)/2) 255^2,
# largest at r = 2, N = 2^22 and below 2^38 there, so 5 bytes of it hold
# its value (_from_limb_sums).  The bound holds only for 8-bit limbs: with
# 16-bit limbs one product could not exceed N = 2^10.
_FFT_MAX_LEN = 1 << 22  # products of up to 2^25 bits in one transform
# The transforms of mat_mul, 2 r^2 spectra of N float64 words, are all kept;
# above this many words it multiplies entry by entry.
_FFT_MAX_WORDS = 1 << 25
_CHECK_MOD = (1 << 61) - 1


def mat_mul(A, B):
    """Exact product A B of square integer matrices; a 1 x 1 product is one
    multiplication."""
    r = len(A)
    size = _fft_size(A, B, cap=False)
    if size and _admitted(size, r):
        return _fft_mat_mul(A, B, size)
    mul = operator.mul
    if size:
        # over the caps: split a 1 x 1 product, and make each entry product
        # of a larger one by _mul, which splits it if need be
        mul = _split_mul if r == 1 else _mul
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in cols] for row in A]


def _fft_size(A, B, cap=True):
    """Transform length for A B on the FFT path: the smallest 2^a 3^b at
    least the limb count of the product.  0 when that path is off, when
    either factor is below the crossover, or, if cap, when the product
    exceeds the length cap or the memory limit that the bound is proven for."""
    if not FFT_ACTIVE:
        return 0
    bits_a = max(map(abs, chain.from_iterable(A))).bit_length()
    bits_b = max(map(abs, chain.from_iterable(B))).bit_length()
    if min(bits_a, bits_b) * len(A) < FFT_MIN_BITS:
        return 0
    need = ((bits_a + 7) >> 3) + ((bits_b + 7) >> 3) - 1
    size, t = 2 * need, 1
    while t < size:  # t = 3^b times the least power of two reaching need
        size = min(size, t << (-(-need // t) - 1).bit_length())
        t *= 3
    return 0 if cap and not _admitted(size, len(A)) else size


def _admitted(size, r):
    """Whether the bound above covers r x r products at this length."""
    return size <= _FFT_MAX_LEN and 2 * r * r * size <= _FFT_MAX_WORDS


def _split_mul(x, y):
    """x y for factors whose product is longer than _FFT_MAX_LEN limbs:
    split at a byte boundary and multiply the pieces by mat_mul, which
    splits them again until each product fits one checked FFT product.
    Balanced factors take three products (Karatsuba), a factor that fits
    below the split point two."""
    neg = (x < 0) != (y < 0)
    x, y = abs(x), abs(y)
    if x < y:
        x, y = y, x
    h = 8 * ((x.bit_length() + 15) >> 4)  # bits below the split, bytewise
    mask = (1 << h) - 1
    x1, x0 = x >> h, x & mask
    if y >> h:
        y1, y0 = y >> h, y & mask
        hi, lo = _mul(x1, y1), _mul(x0, y0)
        mid = _mul(x1 + x0, y1 + y0) - hi - lo
        z = (hi << 2 * h) + (mid << h) + lo
    else:
        z = (_mul(x1, y) << h) + _mul(x0, y)
    return -z if neg else z


def _mul(x, y):
    return mat_mul([[x]], [[y]])[0][0]


def _fft_mat_mul(A, B, size):
    r = len(A)
    fa = [[_spectrum(x, size) for x in row] for row in A]
    fb = [[_spectrum(x, size) for x in row] for row in B]
    m = _CHECK_MOD
    ra = [[x % m for x in row] for row in A]
    rb = [[x % m for x in row] for row in B]
    out = []
    for i in range(r):
        row = []
        for j in range(r):
            acc = None
            for t in range(r):
                if fa[i][t] is None or fb[t][j] is None:
                    continue
                if acc is None:
                    acc = fa[i][t] * fb[t][j]
                else:
                    acc += fa[i][t] * fb[t][j]
            z = 0 if acc is None else _from_limb_sums(_np.fft.irfft(acc, size))
            if z % m != sum(ra[i][t] * rb[t][j] for t in range(r)) % m:
                z = sum(A[i][t] * B[t][j] for t in range(r))
            row.append(z)
        out.append(row)
    return out


def _spectrum(x, size):
    """Real FFT of the 8-bit limbs of |x|, negated for x < 0; None for 0."""
    if not x:
        return None
    ax = abs(x)
    limbs = _np.frombuffer(ax.to_bytes((ax.bit_length() + 7) >> 3, "little"),
                           _np.uint8)
    f = _np.fft.rfft(limbs, size)
    return -f if x < 0 else f


def _from_limb_sums(v):
    """sum_j round(v[j]) 2^(8j) as an int.

    Every rounded entry c has |c| < 2^38 (bound above), so its low 5 bytes
    (int64, two's complement) are c mod 2^40.  Byte k of every entry forms
    one integer, shifted by 8k bits, for k < 5.  A negative entry c reads as
    c + 2^40 there, so 2^40 is taken off again at each negative position."""
    conv = _np.rint(v).astype("<i8")
    cols = conv.view(_np.uint8).reshape(-1, 8)
    z = 0
    for k in range(5):
        col = cols[:, k]
        if col.any():
            z += int.from_bytes(col.tobytes(), "little") << (8 * k)
    neg = conv < 0
    if neg.any():
        z -= int.from_bytes(neg.view(_np.uint8).tobytes(), "little") << 40
    return z
