"""Dense exact polynomial arithmetic: univariate over a generic exact
coefficient ring (int, Fraction) and bivariate in (x, k) over the integers.

All arithmetic here is exact; numerical (ball-coefficient) polynomial work
lives with the evaluation engines.  Integer-coefficient products go through
Kronecker substitution, so that the big-integer backend does the
multiplication, wherever the cost model _kron_pays finds that it pays.
"""

from __future__ import annotations

import re as _re
from itertools import chain
from operator import mul

from . import intmul
from .balls import _Z, _int_to_str, _str_to_int

# _kron_pays's costs, in bit products of CPython's schoolbook multiplication
# (0.6 ps each on the 2-CPU Xeon of the README's scan table), fit by
# tools/kron_scan.py to the benchmark workloads' products
_PAIR, _CALL, _SLOT, _KRON_MIN = 1 << 17, 1 << 24, 1 << 20, 128
_bit_length = int.bit_length if _Z is int else (lambda c: c.bit_length())


def _kron_pays(r, A, B):
    """Whether Kronecker packing (_kron_mat_mul) is cheaper than schoolbook
    for the r x r product A B of integer-coefficient lists (False if one is
    not an integer, or if r la lb < _KRON_MIN, la and lb the longest entries
    of A and B).  Schoolbook pays _PAIR and the bit products per product of
    nonzero coefficients, summed entry by entry; packing pays _CALL, _SLOT
    per slot packed or unpacked and the bit products of its r^3 products."""
    la = max(map(len, chain(*A)))
    lb = max(map(len, chain(*B)))
    if r * la * lb < _KRON_MIN:
        return False
    try:  # coefficient bits per column of A and per row of B
        cols = [list(map(_bit_length, chain(*col))) for col in zip(*A)]
        rows = [list(map(_bit_length, chain(*row))) for row in B]
    except (TypeError, AttributeError):  # not an integer
        return False
    ca, cb = max(chain(*cols), default=0), max(chain(*rows), default=0)
    w, k = 8 * _slot_bytes(r, la, lb, ca, cb), _karatsuba(min(ca, cb))
    school = sum(_PAIR * (len(a) - a.count(0)) * (len(b) - b.count(0))
                 + k * sum(a) * sum(b) for a, b in zip(cols, rows))
    return school > (_CALL + _SLOT * r * r * (la + lb) + r ** 3 * la * lb
                     * w * w * _karatsuba(min(la, lb) * w))


def _karatsuba(m):
    """Share of its m^2 bit products that an m-bit product costs."""
    return min(1.0, (2048 / max(m, 1)) ** 0.5)


def _trim(coeffs: list) -> list:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    del coeffs[n:]
    return coeffs


class UniPoly:
    """Dense univariate polynomial, coefficients in ascending degree order.

    The zero polynomial has an empty coefficient list."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = _trim(list(coeffs))

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly([])

    @staticmethod
    def const(c) -> "UniPoly":
        return UniPoly([c])

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return UniPoly(_list_mul(self.coeffs, other.coeffs))

    def eval_at(self, x0):
        """Horner evaluation in the coefficient ring (exact)."""
        if not self.coeffs:
            return 0 * x0 if not isinstance(x0, int) else 0
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x0 + c
        return acc

    def __repr__(self):
        return "UniPoly(%r)" % (self.coeffs,)


# ---------------------------------------------------------------------------
# coefficient-list kernels
# ---------------------------------------------------------------------------

def _list_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    if len(a) == 1:
        c = a[0]
        return [c * x for x in b]
    if len(b) == 1:
        c = b[0]
        return [c * x for x in a]
    if len(a) * len(b) >= _KRON_MIN and _kron_pays(1, [[a]], [[b]]):
        return _kron_mul(a, b)
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _kron_mul(a: list, b: list) -> list:
    """Product of two integer-coefficient lists: the 1 x 1 case of
    _kron_mat_mul, so a single big multiplication."""
    return _kron_mat_mul([[a]], [[b]])[0][0]


def mat_mul_kron(A, B):
    """A B for square matrices of UniPoly entries by _kron_mat_mul, or None
    where _kron_pays declines."""
    ca = [[e.coeffs for e in row] for row in A]
    cb = [[e.coeffs for e in row] for row in B]
    if not _kron_pays(len(ca), ca, cb):
        return None
    return [[UniPoly(c) for c in row] for row in _kron_mat_mul(ca, cb)]


def _kron_mat_mul(A, B):
    """Product of square matrices whose entries are integer-coefficient
    lists, by Kronecker substitution; entries of the result have
    la + lb - 1 coefficients.

    Every entry is packed into one signed integer sum_i c_i 2^(w i) (see
    _pack) with a common slot width w, the packed matrices are multiplied by
    `intmul.mat_mul`, which shares transforms between the products, and
    every entry of the result is unpacked into its slots.  The width: let
    la, ca be the largest length and coefficient bit size among A's entries,
    lb, cb among B's.  A product coefficient is a sum of r polynomial
    products, each coefficient of which is a sum of at most min(la, lb)
    terms of absolute value below 2^(ca + cb); so it lies strictly between
    -2^(w-1) and 2^(w-1)."""
    r = len(A)
    la, lb = (max(map(len, chain(*M))) for M in (A, B))
    nbytes = _slot_bytes(r, la, lb, *(max(map(_bit_length, chain(*chain(*M))),
                                          default=0) for M in (A, B)))
    PA = [[_pack(c, nbytes) for c in row] for row in A]
    PB = [[_pack(c, nbytes) for c in row] for row in B]
    if r * min(la, lb) * 8 * nbytes >= intmul.FFT_MIN_BITS:
        PC = intmul.mat_mul(PA, PB)
    else:  # below intmul's crossover: no scan for the FFT size
        PC = [[sum(map(mul, row, col)) for col in zip(*PB)] for row in PA]
    return [[_unpack(v, la + lb - 1, nbytes) for v in row] for row in PC]


def _slot_bytes(r, la, lb, ca, cb):
    """Bytes of the slot width w above."""
    return (ca + cb + min(la, lb).bit_length() + r.bit_length() + 8) >> 3


def _bias(n, nbytes):
    """sum_{i<n} 2^(w-1) 2^(w i) for slots of w = 8*nbytes bits."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * n, "little")


def _pack(cs, nbytes):
    """sum_i cs[i] 2^(w i) for |cs[i]| < 2^(w-1), w = 8*nbytes.

    Bias: adding 2^(w-1) to every slot turns each into a digit in
    [0, 2^w), so the biased value is written byte by byte with no borrow
    between slots; the bias sum_i 2^(w-1) 2^(w i) is then subtracted.
    _unpack adds it back and subtracts 2^(w-1) from every slot."""
    half = 1 << (8 * nbytes - 1)
    raw = b"".join([(int(c) + half).to_bytes(nbytes, "little") for c in cs])
    return _Z(int.from_bytes(raw, "little") - _bias(len(cs), nbytes))


def _unpack(v, n, nbytes):
    """Inverse of _pack for n slots whose values lie in (-2^(w-1), 2^(w-1))."""
    half, size = 1 << (8 * nbytes - 1), n * nbytes
    raw = memoryview((int(v) + _bias(n, nbytes)).to_bytes(size, "little"))
    return [int.from_bytes(raw[i:i + nbytes], "little") - half
            for i in range(0, size, nbytes)]


# ---------------------------------------------------------------------------
# Taylor shifts
# ---------------------------------------------------------------------------

def taylor_shift_basecase(p: UniPoly, c) -> UniPoly:
    """p(x + c) by the Horner/Pascal-triangle scheme, O(d^2) ring ops."""
    if not c or p.is_zero():
        return p
    out = [p.coeffs[-1]]
    for a in reversed(p.coeffs[:-1]):
        # out <- out*(x+c) + a
        nxt = [a + c * out[0]]
        for j in range(1, len(out)):
            nxt.append(out[j - 1] + c * out[j])
        nxt.append(out[-1])
        out = nxt
    return UniPoly(out)


def taylor_shift_convolution(p: UniPoly, c) -> UniPoly:
    """p(x + c) by the divided-factorial convolution, using one fast
    polynomial product.  Exact over the integers and over the rationals."""
    if not c or p.is_zero():
        return p
    n = p.degree()
    if n == 0:
        return p
    facs = [1] * (n + 1)
    for i in range(2, n + 1):
        facs[i] = facs[i - 1] * i
    nf = facs[n]
    u = [p.coeffs[i] * facs[i] for i in range(n + 1)]  # a_i * i!
    v = [None] * (n + 1)  # c^t * n!/t!
    ct = 1
    for t in range(n + 1):
        v[t] = ct * (nf // facs[t]) if isinstance(ct, int) else ct * nf / facs[t]
        ct = ct * c
    conv = _list_mul(list(reversed(u)), v)
    out = []
    for j in range(n + 1):
        w = conv[n - j]  # sum_i a_i i! c^(i-j) n!/(i-j)!
        d = nf * facs[j]
        if isinstance(w, int) or isinstance(w, type(_Z(0))):
            q, r = divmod(w, d)
            if r:
                raise ArithmeticError("inexact division in integral Taylor shift")
            out.append(q)
        else:
            out.append(w / d)
    return UniPoly(out)


# ---------------------------------------------------------------------------
# product trees
# ---------------------------------------------------------------------------

class ProductTree:
    """Binary subproduct tree over monic linear factors (x - point)."""

    __slots__ = ("poly", "left", "right")

    def __init__(self, poly, left=None, right=None):
        self.poly = poly
        self.left = left
        self.right = right


def product_tree(points: list) -> ProductTree:
    """Tree with leaves (x - p_i); the root polynomial has degree len(points)."""
    if not points:
        raise ValueError("product tree needs at least one point")
    if len(points) == 1:
        return ProductTree(UniPoly([-points[0], 1]))
    m = len(points) // 2
    left = product_tree(points[:m])
    right = product_tree(points[m:])
    return ProductTree(left.poly * right.poly, left, right)


# ---------------------------------------------------------------------------
# bivariate polynomials in (x, k) over the integers
# ---------------------------------------------------------------------------

class BiPoly:
    """Dense bivariate integer polynomial: grid[a][b] is the coefficient of
    x^a k^b.  Trailing zero rows and columns are trimmed."""

    __slots__ = ("grid",)

    def __init__(self, grid):
        rows = [_trim(list(r)) for r in grid]
        while rows and not rows[-1]:
            rows.pop()
        self.grid = rows

    @staticmethod
    def zero() -> "BiPoly":
        return BiPoly([])

    @staticmethod
    def const(c) -> "BiPoly":
        return BiPoly([[c]])

    @staticmethod
    def x_plus_k() -> "BiPoly":
        return BiPoly([[0, 1], [1]])

    def is_zero(self) -> bool:
        return not self.grid

    def deg_x(self) -> int:
        return len(self.grid) - 1

    def deg_k(self) -> int:
        return max((len(r) for r in self.grid), default=0) - 1

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self.grid == other.grid

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.grid))

    def __neg__(self):
        return BiPoly([[-c for c in r] for r in self.grid])

    def __add__(self, other):
        ga, gb = self.grid, other.grid
        if len(ga) < len(gb):
            ga, gb = gb, ga
        out = [list(r) for r in ga]
        for i, r in enumerate(gb):
            row = out[i]
            if len(row) < len(r):
                row.extend([0] * (len(r) - len(row)))
            for j, c in enumerate(r):
                row[j] = row[j] + c
        return BiPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        ga, gb = self.grid, other.grid
        if not ga or not gb:
            return BiPoly.zero()
        nk = max(map(len, ga)) + max(map(len, gb)) - 1
        if sum(map(len, ga)) * sum(map(len, gb)) >= _KRON_MIN:
            # 2-D Kronecker: x^a k^b is t^(b + a*nk) in the flat lists
            fa, fb = _flatten(ga, nk), _flatten(gb, nk)
            if _kron_pays(1, [[fa]], [[fb]]):
                p = _kron_mul(fa, fb)
                return BiPoly([p[i:i + nk] for i in range(0, len(p), nk)])
        out = [[0] * nk for _ in range(len(ga) + len(gb) - 1)]
        for i, ra in enumerate(ga):
            for j, rb in enumerate(gb):
                row = out[i + j]
                for s, cs in enumerate(ra):
                    if not cs:
                        continue
                    for t, ct in enumerate(rb):
                        row[s + t] += cs * ct
        return BiPoly(out)

    def eval_k(self, k0) -> UniPoly:
        """Substitute k = k0 exactly; result is a polynomial in x."""
        out = []
        for row in self.grid:
            acc = 0
            for c in reversed(row):
                acc = acc * k0 + c
            out.append(acc)
        return UniPoly(out)

    def shift_x(self, c) -> "BiPoly":
        """Substitute x -> x + c."""
        if self.is_zero() or not c:
            return self
        nk = self.deg_k() + 1
        cols = []
        for b in range(nk):
            col = UniPoly([row[b] if b < len(row) else 0 for row in self.grid])
            cols.append(taylor_shift_basecase(col, c).coeffs)
        nx = max((len(c) for c in cols), default=0)
        grid = [[cols[b][a] if a < len(cols[b]) else 0 for b in range(nk)]
                for a in range(nx)]
        return BiPoly(grid)

    def shift_k(self, c) -> "BiPoly":
        """Substitute k -> k + c."""
        if self.is_zero() or not c:
            return self
        grid = [taylor_shift_basecase(UniPoly(row), c).coeffs for row in self.grid]
        return BiPoly(grid)

    def coeff(self, a: int, b: int):
        if a >= len(self.grid):
            return 0
        row = self.grid[a]
        return row[b] if b < len(row) else 0

    def __repr__(self):
        return "BiPoly(%s)" % bipoly_to_text(self)


def _flatten(grid, nk):
    out = []
    for row in grid:
        out.extend(row)
        out.extend([0] * (nk - len(row)))
    return out


# ---------------------------------------------------------------------------
# text form: sums of  c | c*x^a | c*k^b | c*x^a*k^b
# ---------------------------------------------------------------------------

_TERM_RE = _re.compile(
    r"^(\d+)?"
    r"(?:\*?(x)(?:\^(\d+))?)?"
    r"(?:\*?(k)(?:\^(\d+))?)?$"
)


def bipoly_from_text(text: str) -> BiPoly:
    """Parse the whitespace-insensitive sum-of-terms form, e.g.
    "840 + 632*x + 168*x^2 + 16*x^3" or "x+k"."""
    s = "".join(text.split())
    if not s:
        raise ValueError("empty polynomial text")
    terms = []
    cur = ""
    for i, ch in enumerate(s):
        if ch in "+-" and i > 0 and s[i - 1] not in "+-*^":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    result = BiPoly.zero()
    for t in terms:
        sign = 1
        if t[:1] in ("+", "-"):
            sign = -1 if t[0] == "-" else 1
            t = t[1:]
        m = _TERM_RE.match(t)
        if not t or not m or (m.group(1) is None and m.group(2) is None
                              and m.group(4) is None):
            raise ValueError("malformed polynomial term %r in %r" % (t, text))
        coeff = 1 if m.group(1) is None else _str_to_int(m.group(1))
        a = 0 if m.group(2) is None else int(m.group(3) or 1)
        b = 0 if m.group(4) is None else int(m.group(5) or 1)
        grid = [[0] * (b + 1) for _ in range(a + 1)]
        grid[a][b] = sign * coeff
        result = result + BiPoly(grid)
    return result


def bipoly_to_text(p: BiPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for a, row in enumerate(p.grid):
        for b, c in enumerate(row):
            if not c:
                continue
            mono = []
            if a:
                mono.append("x" if a == 1 else "x^%d" % a)
            if b:
                mono.append("k" if b == 1 else "k^%d" % b)
            if not mono:
                term = _int_to_str(c)
            elif c == 1:
                term = "*".join(mono)
            elif c == -1:
                term = "-" + "*".join(mono)
            else:
                term = _int_to_str(c) + "*" + "*".join(mono)
            parts.append(term)
    out = parts[0]
    for t in parts[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out
