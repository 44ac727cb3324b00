"""The evaluation engines: interchangeable algorithms for computing
prod_{i=0}^{n-1} M(z, i) over ball arithmetic, plus tuning heuristics.

Algorithms
----------
naive           one factor at a time, O(n) full-precision multiplications
binsplit-exact  exact product over Z[x], one polynomial evaluation at z
multipoint      giant-step polynomial built over ball coefficients,
                evaluated at 0, m, 2m, ... by a remainder tree
rect-ps         exact subproducts of length ~n~ evaluated entrywise by
                Paterson-Stockmeyer baby-step giant-step
rect-split      giant-step products kept at degree O(m) in x, evaluated
                through a power table with scalar operations only
rect-delta      differences of successive giant-step products, expanded
                once as a bivariate polynomial

Cost classes are counted per evaluation: "nonscalar" multiplications are
ball x ball products at working precision; "scalar" operations multiply a
ball by an exact integer coefficient (or add the integer sums of such
products); "coeff" operations stay in Z.

rect-split's giant steps
------------------------
Step i evaluates U_i = prod_{t<m} M(x, i m + t) at z.  The power table's
fused dot reduces U_i(z) to two integer sums per part of z, the midpoint
sum_j c_j mid_j and the radius sum_j |c_j| rad_j, then rounds once.
When M(x, k+m) = M(x+m, k) (shift symmetry), U_i(x) = U_0(x + i m): every
coefficient c_j of U_i is a polynomial in i, and so is the midpoint sum,
of degree D = deg U_0.  If an entry's coefficients all have one sign, so
have those of every U_i (a shift by i m >= 0 keeps it), and its radius
sum is a polynomial in i as well.  The sums at i = 0 .. D come from D
Taylor shifts of U_0, streamed one entry at a time, and their exact
forward differences then give each later step with D big-integer
additions per sum and no dot.  The sums are the dot's integers and the
rounding is the same, so each step's ball is bit-identical to the dot of
the exact product.  Otherwise the update falls back to a Taylor shift of
the previous step followed by the dot: when an entry has coefficients of
both signs, when the powers of z have no fixed-point form, or when
D >= n/m.  A matrix without the symmetry multiplies each step's factors
exactly.  OpCounter.giant_step records the update that ran.  On a
shift-symmetric matrix of order >= 2, choose_m takes the longer step
m = p^0.4, whatever z (see there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import balls as bl
from .balls import Ball, ComplexBall
# taylor_shift_convolution is not called here (the basecase shift is faster
# at every giant-step degree), but stays importable from this module, where
# tracing tools look up the Taylor shifts
from .poly import (UniPoly, product_tree, taylor_shift_basecase,  # noqa: F401
                   taylor_shift_convolution)
from .recmat import (DenominatorZeroError, RecMatrix, eval_factor,
                     product_binsplit_exact)

ALGORITHMS = ("naive", "binsplit-exact", "multipoint", "rect-ps",
              "rect-split", "rect-delta")

# default selection thresholds: naive below the first bound, rect-delta up
# to the second, rect-split beyond
DEFAULT_THRESHOLDS = (32, 1000)


@dataclass
class OpCounter:
    """Instrumentation for one evaluation."""

    nonscalar: int = 0
    scalar: int = 0
    coeff: int = 0
    peak_coeffs: int = 0
    # how rect-split made the giant steps of the numerator product after
    # the first: "difference table", "taylor shift" or "exact product"
    giant_step: str | None = None

    def note_live_coeffs(self, count: int):
        if count > self.peak_coeffs:
            self.peak_coeffs = count


@dataclass(frozen=True)
class EvalPlan:
    """Algorithm selection plus tuning parameters for one evaluation."""

    algorithm: str
    m: int
    prec: int
    guard: int
    subn: int | None = None  # rect-ps subproduct length

    @property
    def work_prec(self) -> int:
        return self.prec + self.guard


def guard_bits(n: int) -> int:
    return 10 + 2 * math.ceil(math.log2(n + 2))


def mantissa_bits(z) -> int:
    """Bits of the midpoint mantissa of z without its trailing zeros; the
    larger of the two parts of a complex ball."""
    if isinstance(z, ComplexBall):
        return max(mantissa_bits(z.re), mantissa_bits(z.im))
    man = z.man
    if not man:
        return 0
    return man.bit_length() - (man & -man).bit_length() + 1


def choose_m(algorithm: str, n: int, p: int, zbits: int = 0, r: int = 1):
    """Step-length heuristics; returns (m, subn).  zbits is the mantissa
    size of the evaluation point (see mantissa_bits); r is the order of the
    matrix if it is shift-symmetric (M(x, k+m) = M(x+m, k)), and 1 for every
    other matrix, which keeps the rule of a scalar recurrence."""
    if n < 1:
        return 1, None
    if algorithm == "multipoint":
        m = int(n ** 0.5)
    elif algorithm == "rect-ps":
        subn = int(min(2 * n ** 0.5, 10 * p ** 0.25))
        subn = max(1, min(subn, n))
        m = max(1, int(subn ** 0.5))
        return m, subn
    elif algorithm in ("rect-split", "rect-delta"):
        # a giant step costs one nonscalar product of the accumulated
        # p-bit value by the evaluated step; that step has O(m log n) bits
        # for a short z, but p bits once z's mantissa fills the precision,
        # and the dearer product pays for a longer step
        c = 0.5 if 2 * zbits > p else 0.2
        if algorithm == "rect-split" and r > 1:
            # with rect-split's difference table a giant step of a
            # shift-symmetric matrix costs r^3 nonscalar products and
            # O(r^2 m) additions, so the step grows to p^0.4 whatever z
            c = 1.0
        m = int(min(c * p ** 0.4, n ** 0.5))
    else:
        m = 1
    return max(1, min(m, n)), None


def default_algorithm(n: int) -> str:
    lo, hi = DEFAULT_THRESHOLDS
    if n < lo:
        return "naive"
    if n < hi:
        return "rect-delta"
    return "rect-split"


def make_plan(algorithm: str, n: int, p: int, m: int | None = None,
              subn: int | None = None, zbits: int = 0, r: int = 1) -> EvalPlan:
    if algorithm not in ALGORITHMS:
        raise ValueError("unknown algorithm %r (choose from %s)"
                         % (algorithm, ", ".join(ALGORITHMS)))
    auto_m, auto_subn = choose_m(algorithm, n, p, zbits, r)
    if m is None:
        m = auto_m
    m = max(1, min(m, max(n, 1)))
    if algorithm == "rect-ps":
        if subn is None:
            subn = auto_subn if auto_subn is not None else m
        subn = max(m, min(subn, max(n, 1)))
    else:
        subn = None
    return EvalPlan(algorithm, m, p, guard_bits(n), subn)


# ---------------------------------------------------------------------------
# power table with a fused scalar dot product
# ---------------------------------------------------------------------------

class PowerTable:
    """Powers z^0 .. z^D of the evaluation point.

    Besides the ball powers, the table keeps their fixed-point form
    (balls.n_fixed_point), so that sum c_j z^j collapses into one integer
    dot product for the midpoint and one for the radius (all scalar
    operations)."""

    def __init__(self, z, max_exp: int, p: int, counter: OpCounter | None = None):
        self.z = z
        self.p = p
        self.D = max_exp
        powers = [bl.n_one(z)]
        if max_exp >= 1:
            powers.append(z)
        for j in range(2, max_exp + 1):
            powers.append(bl.n_mul(powers[j // 2], powers[(j + 1) // 2], p))
            if counter is not None:
                counter.nonscalar += 1
        self.powers = powers
        self._fix = bl.n_fixed_point(powers, p)

    def power(self, j: int):
        return self.powers[j]

    def eval_int_poly(self, coeffs, p: int | None = None,
                      counter: OpCounter | None = None):
        """sum_j coeffs[j] * z^j using scalar operations only."""
        if p is None:
            p = self.p
        if len(coeffs) > self.D + 1:
            raise IndexError("degree %d exceeds the table's %d"
                             % (len(coeffs) - 1, self.D))
        out = bl.n_int_dot(coeffs, self.powers, self._fix, p)
        if counter is not None:
            counter.scalar += len(coeffs) - coeffs.count(0)
        return out


# ---------------------------------------------------------------------------
# ball matrices
# ---------------------------------------------------------------------------

def ball_identity(r: int, like):
    one = bl.n_one(like)
    zero = bl.n_zero(like)
    return [[one if i == j else zero for j in range(r)] for i in range(r)]


def ball_mat_mul(A, B, p, counter: OpCounter | None = None):
    r = len(A)
    out = []
    for i in range(r):
        row = []
        for j in range(r):
            acc = bl.n_mul(A[i][0], B[0][j], p)
            for t in range(1, r):
                acc = bl.n_add(acc, bl.n_mul(A[i][t], B[t][j], p), p)
            row.append(acc)
        out.append(row)
    if counter is not None:
        counter.nonscalar += r * r * r
    return out


def _accumulate(V, S, p, counter):
    """V <- S x V with an identity-skipping sentinel."""
    if V is None:
        return S
    return ball_mat_mul(S, V, p, counter)


# ---------------------------------------------------------------------------
# denominator products
# ---------------------------------------------------------------------------

def _den_product(M: RecMatrix, z, n: int, plan: EvalPlan, counter: OpCounter):
    """Product of the denominator values q(z, i), i < n.

    Pure-k denominators are multiplied exactly over Z (coefficient work
    only); x-dependent denominators are evaluated as a 1x1 parametric
    product."""
    if M.has_trivial_den() or n == 0:
        return bl.n_one(z)
    den = M.den
    if den.deg_x() <= 0:
        kpoly = UniPoly(den.grid[0] if den.grid else [])
        vals = []
        for i in range(n):
            v = kpoly.eval_at(i)
            if v == 0:
                raise DenominatorZeroError(
                    "denominator vanishes at index %d" % i, index=i)
            vals.append(v)
        counter.coeff += n
        prod = _int_binsplit(vals, 0, len(vals))
        return bl.n_from_int(prod, z)
    sub = RecMatrix([[den]])
    # the 1x1 denominator product must be provably nonzero, so it always
    # goes through the stable scalar-only engine: the multipoint remainder
    # tree can lose O(n) bits, and the full exact product evaluates a
    # degree-n polynomial whose coefficients dwarf a tiny value
    m_den = choose_m("rect-split", n, plan.prec, mantissa_bits(z))[0]
    # sign-changing denominators can cost O(m) extra bits in expanded form;
    # escalate the guard until the product separates from zero
    boost = 64 + m_den * (den.deg_k() * max(n, 2).bit_length() + 8)
    for attempt in range(3):
        eff = EvalPlan("rect-split", m_den, plan.prec,
                       plan.guard + attempt * boost)
        step = counter.giant_step
        mat = _rect_split_core(sub, z, n, eff, counter)
        counter.giant_step = step
        val = mat[0][0]
        if not val.contains_zero():
            return val
    idx = _find_zero_index(sub, z, n, plan.work_prec)
    raise DenominatorZeroError(
        "denominator product contains zero (first suspect index %s)" % idx,
        index=idx)


def _int_binsplit(vals, a, b):
    if b - a == 1:
        return vals[a]
    m = (a + b) // 2
    return _int_binsplit(vals, a, m) * _int_binsplit(vals, m, b)


def _find_zero_index(M: RecMatrix, z, n: int, p: int):
    dx = M.deg_x()
    table = PowerTable(z, dx, min(p, 128))
    for i in range(n):
        grid, _ = eval_factor(M, i)
        v = table.eval_int_poly(grid[0][0].coeffs, min(p, 128))
        if v.contains_zero():
            return i
    return None


# ---------------------------------------------------------------------------
# the engines (numerator products)
# ---------------------------------------------------------------------------

def _naive_leftover(M, z, V, start, count, table, p, counter):
    """V <- M(z, start+count-1) ... M(z, start) V, one factor at a time;
    V = None stands for the identity."""
    for i in range(start, start + count):
        grid, _ = eval_factor(M, i)
        counter.coeff += sum(len(e.coeffs) for row in grid for e in row)
        S = [[table.eval_int_poly(e.coeffs, p, counter) for e in row]
             for row in grid]
        V = _accumulate(V, S, p, counter)
    return V


def _exact_factor_matrices(M: RecMatrix, start: int, count: int, counter):
    out = []
    for i in range(start, start + count):
        grid, _ = eval_factor(M, i)
        counter.coeff += sum(len(e.coeffs) for row in grid for e in row)
        out.append(grid)
    return out


def _binsplit_core(M: RecMatrix, z, n: int, plan: EvalPlan, counter: OpCounter):
    p = plan.work_prec
    factors = _exact_factor_matrices(M, 0, n, counter)
    U = product_binsplit_exact(factors)
    counter.coeff += sum(len(e.coeffs) for row in U for e in row)
    deg = max(e.degree() for row in U for e in row)
    m = max(1, math.isqrt(max(deg, 0)) + 1)
    table = PowerTable(z, m, p, counter)
    return [[_ps_eval(e.coeffs, table, m, p, counter) for e in row] for row in U]


def _ps_eval(coeffs, table: PowerTable, m: int, p: int, counter: OpCounter):
    """Paterson-Stockmeyer: rows of length m via the table (scalar only),
    rows combined by Horner with z^m (one nonscalar product per row)."""
    if not coeffs:
        return bl.n_zero(table.z)
    rows = [coeffs[t:t + m] for t in range(0, len(coeffs), m)]
    zm = table.power(m)
    acc = table.eval_int_poly(rows[-1], p, counter)
    for row in reversed(rows[:-1]):
        acc = bl.n_mul(acc, zm, p)
        counter.nonscalar += 1
        acc = bl.n_add(acc, table.eval_int_poly(row, p, counter), p)
    return acc


def _multipoint_core(M: RecMatrix, z, n: int, plan: EvalPlan,
                     counter: OpCounter):
    p = plan.work_prec
    m = plan.m
    w = n // m
    xtable = PowerTable(z, M.deg_x(), p, counter)
    V = None
    if w > 0:
        base = _substitute_x(M, xtable, p, counter)
        # T_j = base(k + j), shifts over ball coefficients (scalar work)
        tmats = [base]
        for j in range(1, m):
            tmats.append(_bpmat_shift(base, j, p, counter))
        U = _bpmat_binsplit(tmats, 0, m, p, counter)
        points = [i * m for i in range(w)]
        values = _bpmat_multipoint(U, points, p, counter, z)
        for S in values:
            V = _accumulate(V, S, p, counter)
    return _naive_leftover(M, z, V, m * w, n - m * w, xtable, p, counter)


def _substitute_x(M: RecMatrix, xtable: PowerTable, p, counter):
    """Entries of M as polynomials in k with ball coefficients."""
    out = []
    for row in M.entries:
        orow = []
        for e in row:
            nk = e.deg_k() + 1 if not e.is_zero() else 0
            coeffs = []
            for b in range(nk):
                col = [e.coeff(a, b) for a in range(e.deg_x() + 1)]
                coeffs.append(xtable.eval_int_poly(col, p, counter))
            orow.append(coeffs)
        out.append(orow)
    return out


def _ball_is_exact_zero(b) -> bool:
    if isinstance(b, ComplexBall):
        return _ball_is_exact_zero(b.re) and _ball_is_exact_zero(b.im)
    return b.man == 0 and b.rm == 0


def _bp_shift(coeffs, c: int, p, counter: OpCounter):
    """Ball-coefficient Taylor shift by the integer c (Horner scheme)."""
    if not coeffs or not c:
        return list(coeffs)
    out = [coeffs[-1]]
    for a in reversed(coeffs[:-1]):
        nxt = [bl.n_add(a, bl.n_mul_int(out[0], c, p), p)]
        for j in range(1, len(out)):
            nxt.append(bl.n_add(out[j - 1], bl.n_mul_int(out[j], c, p), p))
        nxt.append(out[-1])
        counter.scalar += len(out)
        out = nxt
    return out


def _bpmat_shift(mat, c, p, counter):
    return [[_bp_shift(e, c, p, counter) for e in row] for row in mat]


def _bp_mul(a, b, p, counter: OpCounter):
    """Schoolbook product of ball-coefficient polynomials (nonscalar)."""
    if not a or not b:
        return []
    out = [None] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            t = bl.n_mul(ai, bj, p)
            out[i + j] = t if out[i + j] is None else bl.n_add(out[i + j], t, p)
    counter.nonscalar += len(a) * len(b)
    return out


def _bp_add(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = bl.n_add(out[i], c, p)
    return out


def _bpmat_mul(A, B, p, counter):
    r = len(A)
    out = []
    for i in range(r):
        row = []
        for j in range(r):
            acc = _bp_mul(A[i][0], B[0][j], p, counter)
            for t in range(1, r):
                acc = _bp_add(acc, _bp_mul(A[i][t], B[t][j], p, counter), p)
            row.append(acc)
        out.append(row)
    return out


def _bpmat_binsplit(mats, a, b, p, counter):
    if b - a == 1:
        return mats[a]
    mid = (a + b) // 2
    lo = _bpmat_binsplit(mats, a, mid, p, counter)
    hi = _bpmat_binsplit(mats, mid, b, p, counter)
    return _bpmat_mul(hi, lo, p, counter)


def _bp_rem_monic(coeffs, node: UniPoly, p, counter: OpCounter):
    """Remainder of a ball-coefficient polynomial by a monic integer
    polynomial (synthetic division, scalar operations only)."""
    d = node.degree()
    if len(coeffs) - 1 < d:
        return list(coeffs)
    rem = list(coeffs)
    nc = node.coeffs
    for i in range(len(rem) - 1 - d, -1, -1):
        lead = rem[i + d]
        if _ball_is_exact_zero(lead):
            continue
        for j in range(d):
            c = nc[j]
            if c:
                rem[i + j] = bl.n_sub(rem[i + j], bl.n_mul_int(lead, c, p), p)
        counter.scalar += d
    return rem[:d]


def _bpmat_multipoint(U, points, p, counter, like):
    """Values of a ball-poly matrix at integer points via a remainder tree
    over the exact integer product tree."""
    tree = product_tree(points)
    zero = bl.n_zero(like)
    out = []

    def descend(node, mat):
        if node.left is None:
            out.append([[e[0] if e else zero for e in row] for row in mat])
            return
        lmat = [[_bp_rem_monic(e, node.left.poly, p, counter) for e in row]
                for row in mat]
        rmat = [[_bp_rem_monic(e, node.right.poly, p, counter) for e in row]
                for row in mat]
        descend(node.left, lmat)
        descend(node.right, rmat)

    root = [[_bp_rem_monic(e, tree.poly, p, counter) for e in row] for row in U]
    descend(tree, root)
    return out


def _rect_ps_core(M: RecMatrix, z, n: int, plan: EvalPlan, counter: OpCounter):
    p = plan.work_prec
    subn = plan.subn or n
    m = plan.m
    table = PowerTable(z, max(m, M.deg_x()), p, counter)
    V = None
    i = 0
    while i + subn <= n:
        factors = _exact_factor_matrices(M, i, subn, counter)
        U = product_binsplit_exact(factors)
        counter.note_live_coeffs(sum(len(e.coeffs) for row in U for e in row))
        S = [[_ps_eval(e.coeffs, table, m, p, counter) for e in row] for row in U]
        V = _accumulate(V, S, p, counter)
        i += subn
    return _naive_leftover(M, z, V, i, n - i, table, p, counter)


def _rect_split_core(M: RecMatrix, z, n: int, plan: EvalPlan,
                     counter: OpCounter):
    p = plan.work_prec
    m = plan.m
    w = n // m
    dx = M.deg_x()
    table = PowerTable(z, max(m * dx, dx), p, counter)
    V = None
    if w:
        U = product_binsplit_exact(_exact_factor_matrices(M, 0, m, counter))
        shift = w > 1 and M.shift_symmetry_holds(m)
        diffs = _difference_table(U, m, w, table, counter) if shift else None
        if diffs is not None:
            counter.giant_step = "difference table"
            steps = _difference_steps(diffs, w, table, p, counter)
        else:
            counter.giant_step = "taylor shift" if shift else "exact product"
            steps = _updated_steps(M, U, m, w, shift, table, p, counter)
        for S in steps:
            V = _accumulate(V, S, p, counter)
    return _naive_leftover(M, z, V, m * w, n - m * w, table, p, counter)


def _updated_steps(M, U, m, w, shift, table, p, counter):
    """The giant steps S_i = U_i(z), i < w, each evaluated by one fused
    dot per entry: U_i = U_0(x + i m) by a Taylor shift of U_(i-1) when
    shift, else the exact product of its m factors."""
    for i in range(w):
        if i and shift:
            U = [[taylor_shift_basecase(e, m) for e in row] for row in U]
            counter.coeff += sum((e.degree() + 1) ** 2 for row in U for e in row)
        elif i:
            U = product_binsplit_exact(_exact_factor_matrices(M, i * m, m, counter))
        live = sum(len(e.coeffs) for row in U for e in row)
        counter.note_live_coeffs(live + table.D + 1)
        yield [[table.eval_int_poly(e.coeffs, p, counter) for e in row] for row in U]


def _difference_table(U, m, w, table, counter):
    """Forward differences in i of the integer sums (bl.n_dot_sums) behind
    the fused dots of the giant steps U_i(z) = U_0(z + i m): per entry of
    U_0 and per sum, [Delta^0, Delta^1, ...] at i = 0, with trailing zero
    differences dropped.  None where a sum need not be a polynomial in i
    (an entry's coefficients change sign, so its radius sum over |c_j| is
    not) or the table would not pay (a degree >= w, or no fixed-point
    form)."""
    fix = table._fix
    if fix is None or max(e.degree() for row in U for e in row) >= w:
        return None
    if any(min(e.coeffs) < 0 < max(e.coeffs) for row in U for e in row
           if e.coeffs):
        return None
    diffs = []
    for row in U:
        drow = []
        for e in row:
            # the sums at i = 0 .. deg e, one Taylor shift apart: only one
            # shifted polynomial is live at a time
            vals = []
            for i in range(max(1, len(e.coeffs))):
                if i:
                    e = taylor_shift_basecase(e, m)
                    counter.coeff += len(e.coeffs) ** 2
                vals.append(bl.n_dot_sums(e.coeffs, fix))
                counter.scalar += len(e.coeffs) - e.coeffs.count(0)
            seqs = [list(s) for s in zip(*vals)]
            for s in seqs:
                for k in range(1, len(s)):
                    for j in range(len(s) - 1, k - 1, -1):
                        s[j] -= s[j - 1]
                while len(s) > 1 and not s[-1]:
                    s.pop()
            drow.append(seqs)
        diffs.append(drow)
    size = sum(len(s) for row in diffs for seqs in row for s in seqs)
    live = sum(len(e.coeffs) for row in U for e in row)
    counter.note_live_coeffs(size + live + table.D + 1)
    return diffs


def _difference_steps(diffs, w, table, p, counter):
    """The giant steps S_i = U_i(z), i < w, from the difference table: one
    rounding per part of each entry, then Delta^j <- Delta^j + Delta^(j+1)
    for j = 0, 1, ... (exact integer additions, counted as scalar
    operations) moves every sum from i to i + 1."""
    fix = table._fix
    for i in range(w):
        yield [[bl.n_ball_from_sums([s[0] for s in seqs], fix, p)
                for seqs in row] for row in diffs]
        if i + 1 < w:
            for row in diffs:
                for seqs in row:
                    for s in seqs:
                        for j in range(len(s) - 1):
                            s[j] += s[j + 1]
                        counter.scalar += len(s) - 1


def _rect_delta_core(M: RecMatrix, z, n: int, plan: EvalPlan,
                     counter: OpCounter):
    p = plan.work_prec
    m = plan.m
    w = n // m
    dx = M.deg_x()
    table = PowerTable(z, max(m * dx, dx), p, counter)
    V = None
    if w > 0:
        # S = C_0 = prod_{i<m} M(z, i): one exact product over Z[x], then
        # scalar operations only (products of table powers would carry the
        # table's exponent into every later nonscalar product)
        C0 = product_binsplit_exact(_exact_factor_matrices(M, 0, m, counter))
        S = [[table.eval_int_poly(e.coeffs, p, counter) for e in row] for row in C0]
        V = S
        delta = bivariate_delta(M, m, counter) if w > 1 else []
        step_coeff = sum(len(kr) for row in delta for e in row for kr in e.grid)
        counter.note_live_coeffs(step_coeff + table.D + 1)
        for i in range(w - 1):
            k0 = m * i
            counter.coeff += step_coeff
            S = [[bl.n_add(s, table.eval_int_poly(e.eval_k(k0).coeffs, p, counter), p)
                  for s, e in zip(srow, drow)] for srow, drow in zip(S, delta)]
            V = ball_mat_mul(S, V, p, counter)
    return _naive_leftover(M, z, V, m * w, n - m * w, table, p, counter)


def bivariate_delta(M: RecMatrix, m: int, counter: OpCounter | None = None):
    """Delta_m = prod_{i<m} M(x, k+m+i) - prod_{i<m} M(x, k+i), expanded by
    exact bivariate binary splitting; the second product is the first
    shifted by k -> k + m."""
    lo_factors = [[[e.shift_k(i) for e in row] for row in M.entries]
                  for i in range(m)]
    lo = product_binsplit_exact(lo_factors)
    hi = [[e.shift_k(m) for e in row] for row in lo]
    r = M.r
    if counter is not None:
        counter.coeff += sum(sum(len(kr) for kr in lo[i][j].grid)
                             + sum(len(kr) for kr in hi[i][j].grid)
                             for i in range(r) for j in range(r))
    return [[hi[i][j] - lo[i][j] for j in range(r)] for i in range(r)]


_CORES = {
    "naive": lambda M, z, n, plan, counter: _naive_leftover(
        M, z, None, 0, n, PowerTable(z, M.deg_x(), plan.work_prec, counter),
        plan.work_prec, counter),
    "binsplit-exact": _binsplit_core,
    "multipoint": _multipoint_core,
    "rect-ps": _rect_ps_core,
    "rect-split": _rect_split_core,
    "rect-delta": _rect_delta_core,
}


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    """Result of one engine run: the transition-matrix product
    prod (M(z,i)/q(z,i)) plus instrumentation."""

    matrix: list
    numerator: list
    denominator: object
    plan: EvalPlan
    counter: OpCounter
    accuracy_bits: int


def _is_one(v) -> bool:
    if isinstance(v, ComplexBall):
        return _is_one(v.re) and _ball_is_exact_zero(v.im)
    return v.man == 1 and v.exp == 0 and v.rm == 0


def eval_dispatch(M: RecMatrix, z, n: int, p: int, algorithm: str | None = None,
                  m: int | None = None, subn: int | None = None) -> EvalReport:
    """The entry point of every engine: select a plan (unless overridden),
    run the engine and report the divided product with the achieved
    accuracy."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if algorithm is None:
        algorithm = default_algorithm(n)
    # rect-split steps further on a shift-symmetric matrix of order >= 2;
    # the symmetry for m = 1 is the one for every m >= 1: both say that
    # every entry is a polynomial in x + k
    r = M.r if (algorithm == "rect-split" and M.r > 1
                and M.shift_symmetry_holds(1)) else 1
    plan = make_plan(algorithm, n, p, m=m, subn=subn, zbits=mantissa_bits(z),
                     r=r)
    counter = OpCounter()
    # the cores take n >= 1 and return None for the identity
    num = _CORES[plan.algorithm](M, z, n, plan, counter) if n else None
    if num is None:
        num = ball_identity(M.r, z)
    den = _den_product(M, z, n, plan, counter)
    wp = plan.work_prec
    if isinstance(den, (Ball, ComplexBall)) and not _is_one(den):
        mat = [[bl.n_div(e, den, wp) for e in row] for row in num]
        counter.nonscalar += M.r * M.r
    else:
        mat = num
    mat = [[bl.n_reduce(e, p) for e in row] for row in mat]
    acc = min(min(e.rel_accuracy_bits() for e in row) for row in mat)
    return EvalReport(mat, num, den, plan, counter, min(acc, p))
