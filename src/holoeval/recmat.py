"""Parametric recurrences as polynomial matrices.

A recurrence c(i+1) = (M(i)/q(i)) c(i) is stored as an r x r matrix of
integer bivariate polynomials in (x, k) together with a cleared denominator
polynomial q.  Products are always taken in the order
M(b-1) ... M(a+1) M(a): matrix multiplication does not commute and every
routine here multiplies new factors on the left.
"""

from __future__ import annotations

from fractions import Fraction

from . import balls as bl
from . import intmul
from .poly import BiPoly, UniPoly, mat_mul_kron


class DenominatorZeroError(ArithmeticError):
    """A denominator value was (or may be) zero at some index."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class ScalarRecurrence:
    """Coefficients a_0 .. a_r of
    a_r(x,i) c(i+r) + ... + a_0(x,i) c(i) = 0, each a BiPoly in (x, k=i)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) < 2:
            raise ValueError("a recurrence needs order >= 1")
        if coeffs[-1].is_zero():
            raise ValueError("leading coefficient a_r must not be identically zero")
        self.coeffs = coeffs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


class RecMatrix:
    """Matrix form of a parametric holonomic recurrence.

    entries[i][j] are BiPoly in (x, k); den is the common denominator (a
    BiPoly, constant 1 when the recurrence is polynomial)."""

    __slots__ = ("r", "entries", "den")

    def __init__(self, entries, den=None):
        self.entries = [list(row) for row in entries]
        self.r = len(self.entries)
        for row in self.entries:
            if len(row) != self.r:
                raise ValueError("recurrence matrix must be square")
        self.den = BiPoly.const(1) if den is None else den
        if self.den.is_zero():
            raise ValueError("denominator must not be identically zero")

    def deg_x(self) -> int:
        d = max((e.deg_x() for row in self.entries for e in row), default=0)
        return max(d, self.den.deg_x(), 0)

    def deg_k(self) -> int:
        d = max((e.deg_k() for row in self.entries for e in row), default=0)
        return max(d, self.den.deg_k(), 0)

    def has_trivial_den(self) -> bool:
        return self.den == BiPoly.const(1)

    def shift_symmetry_holds(self) -> bool:
        """Symbolic check of M(x, k+1) == M(x+1, k) (including the
        denominator), which makes the giant-step products shifts of one
        another: U_i(x) = U_0(x + i m) for every step length m.

        The check for m = 1 is the one for every m >= 1: write an entry as
        P(x + k, x); M(x, k+m) == M(x+m, k) says P(s, x) == P(s, x + m),
        and a polynomial that is m-periodic in x does not depend on x."""
        for row in self.entries:
            for e in row:
                if e.shift_k(1) != e.shift_x(1):
                    return False
        return self.den.shift_k(1) == self.den.shift_x(1)

    def __eq__(self, other):
        return (isinstance(other, RecMatrix) and self.entries == other.entries
                and self.den == other.den)

    def __repr__(self):
        return "RecMatrix(r=%d, den=%r)" % (self.r, self.den)


def companion(rec: ScalarRecurrence) -> RecMatrix:
    """Companion matrix: superdiagonal a_r, bottom row (-a_0, ..., -a_{r-1}),
    denominator a_r."""
    r = rec.order
    a = rec.coeffs
    entries = [[BiPoly.zero() for _ in range(r)] for _ in range(r)]
    for i in range(r - 1):
        entries[i][i + 1] = a[r]
    for j in range(r):
        entries[r - 1][j] = -a[j]
    return RecMatrix(entries, a[r])


def rising_factorial_matrix() -> RecMatrix:
    """The 1x1 matrix [x + k] of the rising-factorial recurrence."""
    return RecMatrix([[BiPoly.x_plus_k()]])


def eval_factor(M: RecMatrix, i):
    """Substitute k = i exactly: (r x r grid of UniPoly in x, den UniPoly)."""
    grid = [[e.eval_k(i) for e in row] for row in M.entries]
    return grid, M.den.eval_k(i)


# ---------------------------------------------------------------------------
# exact matrix products
# ---------------------------------------------------------------------------

def mat_mul_exact(A, B):
    """Schoolbook product of square matrices over any exact ring; on the FFT
    path of plain ints, one Kronecker packing where poly._kron_pays finds
    that it pays (for r >= 2: a 1 x 1 product is UniPoly's, same rule)."""
    if intmul.FFT_ACTIVE and len(A) > 1 and isinstance(A[0][0], UniPoly):
        out = mat_mul_kron(A, B)
        if out is not None:
            return out
    r = len(A)
    out = []
    for i in range(r):
        row = []
        Ai = A[i]
        for j in range(r):
            acc = Ai[0] * B[0][j]
            for t in range(1, r):
                acc = acc + Ai[t] * B[t][j]
            row.append(acc)
        out.append(row)
    return out


def product_binsplit_exact(factors, mul=None):
    """Product of a nonempty factor list in right-to-left order
    (factors[-1] ... factors[1] factors[0]) by balanced recursion, with the
    product mul(hi, lo) (mat_mul_exact by default)."""
    if not factors:
        raise ValueError("empty factor list")

    def rec(a, b):
        if b - a == 1:
            return factors[a]
        m = (a + b) // 2
        lo = rec(a, m)
        hi = rec(m, b)
        return mul(hi, lo)

    mul = mul or mat_mul_exact  # looked up per call, as tracing tools wrap it
    return rec(0, len(factors))


def apply_to_vector(mat, vec, p):
    """mat . vec with ball entries."""
    r = len(mat)
    out = []
    for i in range(r):
        acc = bl.n_mul(mat[i][0], vec[0], p)
        for t in range(1, r):
            acc = bl.n_add(acc, bl.n_mul(mat[i][t], vec[t], p), p)
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# exact rational oracle (used by tests and cross-checks)
# ---------------------------------------------------------------------------

def unroll_rational(M: RecMatrix, z: Fraction, n: int, initial=None):
    """Exact rational evaluation of prod_{i=0}^{n-1} (M(z,i)/q(z,i)) applied
    to the initial vector (defaults to the identity's columns: returns the
    full matrix when initial is None).

    Raises DenominatorZeroError if q(z, i) == 0 for some i < n."""
    r = M.r
    mat = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
    for i in range(n):
        grid, den_poly = eval_factor(M, i)
        q = _eval_unipoly_fraction(den_poly, z)
        if q == 0:
            raise DenominatorZeroError("denominator vanishes at index %d" % i,
                                       index=i)
        fac = [[_eval_unipoly_fraction(e, z) / q for e in row] for row in grid]
        mat = mat_mul_exact(fac, mat)
    if initial is None:
        return mat
    return [sum(mat[i][j] * initial[j] for j in range(r)) for i in range(r)]


def _eval_unipoly_fraction(poly: UniPoly, z: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(poly.coeffs):
        acc = acc * z + c
    return acc
