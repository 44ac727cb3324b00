"""The evaluation engines: interchangeable algorithms for computing
prod_{i=0}^{n-1} M(z, i) over ball arithmetic, plus tuning heuristics.

Algorithms
----------
naive           one factor at a time, O(n) full-precision multiplications
binsplit-exact  rect-ps with one subproduct: the exact product of all n
                factors over Z[x], evaluated once at z
multipoint      giant-step polynomial in fixed point, evaluated at 0, m,
                2m, ... by a remainder tree of its integer midpoints
rect-ps         exact subproducts of length ~n~ evaluated entrywise by
                Paterson-Stockmeyer baby-step giant-step
rect-split      giant-step products kept at degree O(m) in x, evaluated
                through a power table with scalar operations only
rect-delta      differences of successive giant-step products, expanded
                once as a bivariate polynomial

Cost classes are counted per evaluation: "nonscalar" multiplications are
matrix-entry products at working precision; "scalar" operations multiply a
ball by an exact integer coefficient; "adds" are the exact additions of a
difference table and its set-up; "coeff" operations stay in Z.

Fixed point
-----------
A node (mids, rads, e) is a matrix whose entry (i, j) lies in
(mids[i][j] +- rads[i][j]) 2^e, with integer midpoints and radii on one
exponent; rads is None for an exact node.  Multipoint's form is the same
with polynomials in k for entries, coefficient by coefficient (_fix_form).
One argument keeps every value inside.  A product takes the midpoints
exactly, and for a in a_m +- a_r, b in b_m +- b_r,
|a b - a_m b_m| <= |a_m| b_r + a_r (|b_m| + b_r); sums add these terms.  A
node product takes this radius exactly, by two integer matrix products
|A_m| R_B + R_A (|B_m| + R_B); multipoint's polynomial entries bound it by
u_a 2^s_a b_r + a_r u_b 2^s_b, u_a 2^s_a >= |a_m| + a_r, u_b 2^s_b >= |b_m|
(_fix_upper).  Rounding (_fix_floor) writes c = (c >> s) 2^s + d with
0 <= d < 2^s, keeps c >> s and adds d to the radius, rounded up to the
unit 2^(e + s); a ball is put at 2^e alike (_fix_form).  Addition on one
exponent is exact, and a shift k -> k + c, c > 0, moves midpoints and radii
alike (_fix_shift).  So a polynomial in k lies within R(k) of its midpoint
polynomial at every k >= 0, R its radius polynomial (coefficients >= 0):
the one radius rule, C_a(k) of the difference tables too.  Multipoint's
remainder tree divides exact midpoints only; a leaf x takes R(x).  A node
keeps p bits of its smallest nonzero entry, no fewer than p-bit balls
would, and becomes a ball matrix past the spread cap, entries that span
more than p bits (_node_round).

The engine loop
---------------
Every engine runs in one driver, _run.  The engine builds its power table
and hands over its giant steps, in order, and the number of factors they
cover; the factors left over follow one at a time through the table.  A
step of a real z is a node: the integer sums of a difference table or of
an exact subproduct's one fused dot (_dot_step), a remainder-tree leaf,
or ball steps converted once (_node), each rounded by _node_round, so that
every operand of a merge is within the cap: at a tiny inexact z a step's
entries can span more than p bits, and rounding them on one exponent would
swamp the smallest.  Every merge of the whole product is one node product
(_node_mul), exact before rounding: one `*` on 1 x 1 below
intmul.FFT_MIN_BITS, else intmul.mat_mul.  A complex z, and a node past
the cap, merge by ball_mat_mul.  _run chooses only the order: for a
full-mantissa real z the chain V <- S V, since a tree's dense merges cost
more on sparse companion factors; for a short z (_short_z), whose steps
have O(m log n) bits, a balanced tree, a stack merged like a binary
counter, whose operands stay short, and exact, up to the top levels (on
1 x 1 it makes as many products as the chain); for a complex z the tree
too, as a merge of axis-aligned boxes can widen them by sqrt 2, and the
tree puts log n merges above a factor, the chain n.  For one row r of the
product the order turns round: the leftover factors from i = n - 1 down,
then the steps last first, R <- R S on balls from R = row r of the first.
ball_mat_mul makes no product with an exact-zero factor, so on the 1F1
matrix [[a, b], [0, N^m]] a step costs two p x p products where S V makes
three, and the row's entries span up to p + 39 bits (1F1 at p = 2048 and
8192).  Exact subproducts over Z[x] are evaluated by Paterson-Stockmeyer
(_subproduct_steps); rows as long as the table make one fused dot.  An
x-dependent denominator q is rect-delta's loop on [q] (_den_product), its
steps off the difference table.

Difference tables
-----------------
Every giant step of rect-split and rect-delta and every leftover factor
comes from one kernel, _bivariate_steps, handed a grid of integer
polynomials G(x, k) = sum_b k^b g_b(x) and the indices k = first,
first + step, ... (all >= 0).  The fused dot of the power table makes two
integer sums per part of z, sum_a c_a mid_a and sum_a |c_a| rad_a.  For
c_a = g_a(k) the radius takes C_a(k) = sum_b |g_ab| k^b >= |g_a(k)| (equal
on a k-row of one sign), and both sums are polynomials in k whose
coefficients are the sums of one dot per column g_b.  Integer Horner in k
gives them at the first deg_k + 1 indices, their exact forward differences
(_difference_table) every later step by deg_k additions per sum and no dot
(_difference_steps).  Without a fixed-point form of the table each step is
eval_k and a dot.  The users differ only in G:
- rect-split on a shift-symmetric matrix (M(x, k+m) = M(x+m, k)):
  U_i(x) = U_0(x + i m), so G = U_0(x + k), its columns C(a + b, b) u_(a+b)
  made one at a time; otherwise each step is the exact U_i;
- rect-delta: G = prod_{t<m} M(x, k + t) (_giant_step_poly), S_i = G(z, i m);
- the factors _run multiplies in one at a time: G = M.
The sums are exact, so a step has the same bits in either order; one row of
the product starts at the last step.  OpCounter.giant_step records the
update of rect-split and rect-delta.

The plan
--------
make_plan reads the structure of one evaluation once: the shift symmetry
of M, its order, whether z is short at the working precision, and n deg_x.
The default engine follows the symmetry: naive for n < 32, rect-split on a
shift-symmetric matrix (its difference table), rect-delta otherwise; on a
shift-symmetric matrix of order >= 2, rect-split takes the longer step
m = 1.5 p^0.4, whatever z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from itertools import chain, repeat, zip_longest
from operator import or_

from . import balls as bl
from . import intmul
from .balls import ComplexBall
# the convolution shift is not called here, but stays importable from this
# module, where tracing tools look up the Taylor shifts
from .poly import (UniPoly, product_tree, taylor_shift_basecase,  # noqa: F401
                   taylor_shift_convolution)
from .recmat import (DenominatorZeroError, RecMatrix, eval_factor,
                     mat_mul_exact, product_binsplit_exact)

ALGORITHMS = ("naive", "binsplit-exact", "multipoint", "rect-ps",
              "rect-split", "rect-delta")


@dataclass
class OpCounter:
    """Instrumentation for one evaluation.  nonscalar counts the entry
    products made (none with an exact-zero factor), exact_merges those made
    by merges of two exact nodes; scalar counts a dot's nonzero coefficients;
    adds counts the exact integer additions of a difference table, its set-up
    included: the Horner steps in k of its first sums, and the differences;
    coeff counts work in Z."""

    nonscalar: int = 0
    scalar: int = 0
    adds: int = 0
    coeff: int = 0
    exact_merges: int = 0
    peak_coeffs: int = 0
    # how the giant steps of the numerator product were made: "difference
    # table", else "exact product"
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
    subn: int | None = None  # subproduct length (rect-ps, binsplit-exact)
    short_z: bool = False  # _short_z at the working precision
    symmetric: bool = False  # M(x, k+1) = M(x+1, k)

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


def _short_z(zbits: int, p: int) -> bool:
    """z of mantissa size zbits (mantissa_bits) is short at precision p:
    a giant step then has O(m log n) bits, not p."""
    return 2 * zbits <= p


def make_plan(M: RecMatrix, z, n: int, p: int, algorithm: str | None = None,
              m: int | None = None) -> EvalPlan:
    """The plan of prod_{i<n} M(z, i) at precision p: the engine (unless
    algorithm is given), the step length m (unless given) and, for the
    engines of exact subproducts, their length subn."""
    if algorithm is not None and algorithm not in ALGORITHMS:
        raise ValueError("unknown algorithm %r (choose from %s)"
                         % (algorithm, ", ".join(ALGORITHMS)))
    if m is not None and (isinstance(m, bool) or not isinstance(m, int)
                          or m < 1):
        raise ValueError("m must be None or an int >= 1")
    symmetric = M.shift_symmetry_holds()
    guard = guard_bits(n)
    short = _short_z(mantissa_bits(z), p + guard)
    if algorithm is None:
        algorithm = ("naive" if n < 32
                     else "rect-split" if symmetric else "rect-delta")
    subn = None
    if n < 1:
        step = 1
    elif algorithm == "multipoint":
        step = int(n ** 0.5)
    elif algorithm == "rect-ps":
        subn = max(1, min(int(min(2 * n ** 0.5, 10 * p ** 0.25)), n))
        step = int(subn ** 0.5)
    elif algorithm == "binsplit-exact":
        # one subproduct of all n factors, of degree at most n deg_x, in
        # Paterson-Stockmeyer rows of about its square root
        subn, step = n, math.isqrt(n * M.deg_x()) + 1
    elif algorithm in ("rect-split", "rect-delta"):
        # a giant step has O(m log n) bits for a short z, and _run's tree
        # makes p-bit products only at its top levels; once z's mantissa
        # fills the precision every step is a p x p product of the chain,
        # and the dearer product pays for a longer step
        c = 0.2 if short else 0.5
        if algorithm == "rect-split" and symmetric and M.r > 1:
            # with rect-split's difference table a giant step of a
            # shift-symmetric matrix costs at most r^3 nonscalar products
            # and O(r^2 m) additions, so the step grows to 1.5 p^0.4
            # whatever z (the scan in README, Step length)
            c = 1.5
        step = int(min(c * p ** 0.4, n ** 0.5))
    else:
        step = 1
    m = max(1, min(step if m is None else m, max(n, 1)))
    if subn is not None:
        subn = max(m, subn)
    return EvalPlan(algorithm, m, p, guard, subn, short, symmetric)


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

    def eval_int_poly(self, coeffs, p: int | None = None,
                      counter: OpCounter | None = None):
        """sum_j coeffs[j] * z^j using scalar operations only."""
        if p is None:
            p = self.p
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
    """A B for an r x r ball matrix B and A an r x r matrix or a 1 x r row.
    A product with an exact-zero factor is not made: the exact zero that
    n_mul would give takes its place in the sum, so the result is the dense
    product's, bit for bit."""
    zero = bl.n_zero(B[0][0])
    r = len(B)
    bnz = [[not _ball_is_exact_zero(b) for b in brow] for brow in B]
    made = 0
    out = []
    for arow in A:
        anz = [not _ball_is_exact_zero(a) for a in arow]
        row = []
        for j in range(r):
            acc = None
            for t in range(r):
                if anz[t] and bnz[t][j]:
                    x = bl.n_mul(arow[t], B[t][j], p)
                    made += 1
                else:
                    x = zero
                acc = x if acc is None else bl.n_add(acc, x, p)
            row.append(acc)
        out.append(row)
    if counter is not None:
        counter.nonscalar += made
    return out


# ---------------------------------------------------------------------------
# fixed-point matrices (nodes, see Fixed point)
# ---------------------------------------------------------------------------

def _fix_upper(mids, rads, bits):
    """(u, s) with u 2^s >= |m| + r for the integer lists m of the grid mids
    and r of rads (0 if rads is None), entry by entry, and the largest u of
    about bits bits."""
    rads = rads or [[repeat(0)] * len(row) for row in mids]
    vals = [[[abs(c) + r for c, r in zip(*es)] for es in zip(*rows)]
            for rows in zip(mids, rads)]
    top = max((v.bit_length() for row in vals for vs in row for v in vs),
              default=0)
    s = max(0, top - bits)
    return [[[-(-v >> s) for v in vs] for vs in row] for row in vals], s


def _fix_floor(mids, rads, s):
    """The grids mids, rads of integer lists at 2^e taken to 2^(e + s): each
    midpoint floored, its dropped bits added to its radius, rounded up."""
    low = (1 << s) - 1
    return ([[[c >> s for c in cs] for cs in row] for row in mids],
            [[[-(-(r + (c & low)) >> s) for c, r in zip(*es)]
              for es in zip(*rows)] for rows in zip(mids, rads)])


def _node(X, p):
    """The node of a real ball matrix, _fix_form of its entries rounded by
    _node_round; X itself if complex or past the spread cap."""
    if isinstance(X[0][0], ComplexBall):
        return X
    tops = [bl._top(b, 0) for row in X for b in row if b.man or b.rm]
    spread = max(tops, default=0) - min(tops, default=0)
    if spread > p:
        return X
    mids, rads, e = _fix_form([[[b] for b in row] for row in X], p + spread,
                              X[0][0])
    return _node_round(*([[cs[0] for cs in row] for row in g]
                         for g in (mids, rads)), e, p)


def _rads(X):
    """The radii of a node; None stands for the zeros of an exact one."""
    return X[1] or [[0] * len(cs) for cs in X[0]]


def _ball_node(X, p):
    """The ball matrix of a node, rounded to p bits; a ball matrix as it is."""
    if not isinstance(X, tuple):
        return X
    return [[bl._make(c, X[2], *bl._u_from_abs(r, X[2]), p)
             for c, r in zip(*rows)] for rows in zip(X[0], _rads(X))]


def _dot_step(coeffs, table, p, counter):
    """The step [[sum_j c_j z^j]] for a grid of coefficient lists by one
    fused dot per entry: _sums_step of the dot sums, else (no fixed-point
    form) the balls of eval_int_poly."""
    if table._fix is None:
        return [[table.eval_int_poly(cs, p, counter) for cs in row]
                for row in coeffs]
    return _sums_step([[[[s] for s in _dot_sums(cs, table, counter)]
                        for cs in row] for row in coeffs], table._fix, p)


def _sums_step(diffs, fix, p):
    """The step of a grid of difference tables of fused-dot sums
    (bl.n_dot_sums, one table per sum, _difference_table; a dot's own sums
    are tables of one step) at their current step, on the table form fix:
    the node of the midpoint and radius sums on a real table (one
    exponent), else their balls."""
    if len(fix) == 2:
        return [[bl.n_ball_from_sums([s[0] for s in seqs], fix, p)
                 for seqs in row] for row in diffs]
    return ([[seqs[0][0] for seqs in row] for row in diffs],
            fix[1] and [[seqs[1][0] for seqs in row] for row in diffs], fix[2])


def _node_round(mids, rads, e, p):
    """The node floored so that its smallest nonzero entry keeps p bits (rads
    None if all 0), or its ball matrix past the spread cap."""
    node = mids, rads if rads and any(map(any, rads)) else None, e
    tops = [(abs(c) | r).bit_length() for rows in zip(mids, _rads(node))
            for c, r in zip(*rows)]
    low = min(filter(None, tops), default=0)
    if max(tops) - low > p:
        return _ball_node(node, p)
    if low <= p:
        return node
    (mids,), (rads,) = _fix_floor([mids], [_rads(node)], low - p)
    return mids, rads, e + low - p


def _node_mul(A, B, p, counter: OpCounter):
    """A B for two steps or partial products of _run, by ball_mat_mul unless
    both are nodes; counted as ball_mat_mul counts, and in exact_merges too
    for two exact nodes."""
    if not (isinstance(A, tuple) and isinstance(B, tuple)):
        return ball_mat_mul(_ball_node(A, p), _ball_node(B, p), p, counter)
    (am, ar, ea), (bm, br, eb) = A, B
    if len(am) == 1:
        (a,), (b,) = am[0], bm[0]
        # below the FFT crossover one `*`: mat_mul's size checks and the
        # general steps below made naive up to three times slower
        v = (a * b if min(a.bit_length(), b.bit_length()) < intmul.FFT_MIN_BITS
             else intmul.mat_mul(am, bm)[0][0])
        ra, rb = ar[0][0] if ar else 0, br[0][0] if br else 0
        made = bool(a or ra) and bool(b or rb)
        counter.nonscalar += made
        if not (ra or rb):
            counter.exact_merges += made
            if v.bit_length() <= p:
                return [[v]], None, ea + eb
        # on 1 x 1 the radius |a| r_b + r_a |b| + r_a r_b is taken exactly
        return _node_round([[v]], [[abs(a) * rb + ra * abs(b) + ra * rb]],
                           ea + eb, p)
    ar, br = _rads(A), _rads(B)
    # sum_t (nonzeros in column t of A) (in row t of B), from flags c | r
    # (r >= 0) made once per operand at C level
    r = len(am)
    fa, fb = (list(map(or_, chain(*X), chain(*R)))
              for X, R in ((am, ar), (bm, br)))
    made = sum([(r - fa[t::r].count(0)) * (r - fb[t * r:t * r + r].count(0))
                for t in range(r)])
    counter.nonscalar += made
    if not any(map(any, ar + br)):
        counter.exact_merges += made
        return _node_round(intmul.mat_mul(am, bm), None, ea + eb, p)
    # the radius |A| R_B + R_A (|B| + R_B) exactly, as on 1 x 1
    rads = [[x + y for x, y in zip(*rows)] for rows in zip(
        intmul.mat_mul([[abs(c) for c in row] for row in am], br),
        intmul.mat_mul(ar, [[abs(c) + r for c, r in zip(*rows)]
                            for rows in zip(bm, br)]))]
    return _node_round(intmul.mat_mul(am, bm), rads, ea + eb, p)


# ---------------------------------------------------------------------------
# denominator products
# ---------------------------------------------------------------------------

def _den_product(M: RecMatrix, z, n: int, plan: EvalPlan, counter: OpCounter):
    """Product of the denominator values q(z, i), i < n.

    Pure-k denominators are multiplied exactly over Z (coefficient work
    only); x-dependent denominators are evaluated as a 1x1 parametric
    product by rect-delta, whose steps G(z, i m), G = prod_{t<m} q(x, k + t),
    come off the difference table by additions; rect-split takes an exact
    subproduct per step unless q(x, k) is a polynomial in x + k."""
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
            vals.append([[v]])
        counter.coeff += n
        return bl.n_from_int(product_binsplit_exact(vals)[0][0], z)
    sub = RecMatrix([[den]])
    # the 1x1 denominator product must be provably nonzero, so it always
    # goes through a scalar-only engine, whatever the numerator's: the
    # full exact product and multipoint's one exponent evaluate
    # polynomials whose coefficients can dwarf a tiny value
    den_plan = make_plan(sub, z, n, plan.prec, "rect-delta")
    # sign-changing denominators can cost O(m) extra bits in expanded form;
    # escalate the guard until the product separates from zero
    boost = 64 + den_plan.m * (den.deg_k() * max(n, 2).bit_length() + 8)
    for attempt in range(3):
        eff = replace(den_plan, guard=den_plan.guard + attempt * boost)
        step = counter.giant_step
        mat = _run(sub, z, n, eff, counter)
        counter.giant_step = step
        val = mat[0][0]
        if not val.contains_zero():
            return val
    idx = _find_zero_index(sub, z, n, plan.work_prec)
    raise DenominatorZeroError(
        "denominator product contains zero (first suspect index %s)" % idx,
        index=idx)


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

def _run(M: RecMatrix, z, n: int, plan: EvalPlan, counter: OpCounter,
         row: int | None = None):
    """P = prod_{i<n} M(z, i), or with row = r its row r as a 1 x r matrix
    (see The engine loop): each step and leftover factor S makes R <- R S on
    balls, or goes as a node on a stack of partial products that merges its
    top two while the top covers at least as many factors as the one below
    (the tree) or always (the chain)."""
    if not n:
        one = ball_identity(M.r, z)
        return one if row is None else [one[row]]
    p = plan.work_prec
    table, covered, steps = _ENGINES[plan.algorithm](M, z, n, plan, counter,
                                                    row is not None)
    _, tail = _bivariate_steps(M.entries, covered if row is None else n - 1,
                               1 if row is None else -1, n - covered, table,
                               p, counter)
    if row is not None:
        V = None
        for S in map(_ball_node, chain(tail, steps), repeat(p)):
            V = [S[row]] if V is None else ball_mat_mul(V, S, p, counter)
        return V
    tree = plan.short_z or isinstance(z, ComplexBall)
    stack = []  # (factors covered, product)
    for k, S in chain(zip(repeat(plan.subn or plan.m), steps),
                      zip(repeat(1), tail)):
        # every operand of a merge within the cap (a 1 x 1 step spans 0
        # bits, and _node_mul rounds its product; _node_round there made
        # naive twice as slow on a short z)
        if not isinstance(S, tuple):
            S = _node(S, p)
        elif len(S[0]) > 1:
            S = _node_round(*S, p)
        while stack and (not tree or stack[-1][0] <= k):
            c, P = stack.pop()
            S, k = _node_mul(S, P, p, counter), k + c
        stack.append((k, S))
    V = stack.pop()[1]
    while stack:  # later factors on the left
        V = _node_mul(V, stack.pop()[1], p, counter)
    return _ball_node(V, p)


def _factor(M: RecMatrix, i: int, counter: OpCounter):
    """M(x, i) as a grid of UniPoly in x (coefficient work)."""
    grid, _ = eval_factor(M, i)
    counter.coeff += sum(len(e.coeffs) for row in grid for e in row)
    return grid


def _exact_product(M: RecMatrix, start: int, count: int, counter: OpCounter):
    """M(x, start+count-1) ... M(x, start) over Z[x]."""
    return product_binsplit_exact(
        [_factor(M, i, counter) for i in range(start, start + count)])


def _subproduct_steps(M, length, order, table, row, p, counter, U=None):
    """The giant steps U_i(z) for i in order, with U_i the exact product of
    the length factors from i * length on (U_0 = U when given), each entry
    evaluated by _ps_eval in rows of row coefficients: row = table.D + 1
    makes it one fused dot (_dot_step)."""
    for i in order:
        Ui = (U if i == 0 and U is not None
              else _exact_product(M, i * length, length, counter))
        live = sum(len(e.coeffs) for r in Ui for e in r)
        counter.note_live_coeffs(live + table.D + 1)
        yield (_dot_step([[e.coeffs for e in r] for r in Ui], table, p, counter)
               if row > table.D else
               [[_ps_eval(e.coeffs, table, row, p, counter) for e in r]
                for r in Ui])
        Ui = None


def _ps_eval(coeffs, table: PowerTable, m: int, p: int, counter: OpCounter):
    """Paterson-Stockmeyer: rows of length m via the table (scalar only),
    rows combined by Horner with z^m (one nonscalar product per row)."""
    top = max(len(coeffs) - 1, 0) // m * m
    acc = table.eval_int_poly(coeffs[top:], p, counter)
    for t in range(top - m, -1, -m):
        acc = bl.n_mul(acc, table.powers[m], p)
        counter.nonscalar += 1
        acc = bl.n_add(acc, table.eval_int_poly(coeffs[t:t + m], p, counter), p)
    return acc


def _naive(M: RecMatrix, z, n: int, plan: EvalPlan, counter: OpCounter,
           reverse: bool):
    return PowerTable(z, M.deg_x(), plan.work_prec, counter), 0, ()


def _multipoint(M: RecMatrix, z, n: int, plan: EvalPlan, counter: OpCounter,
                reverse: bool):
    p = plan.work_prec
    m = plan.m
    w = n // m
    xtable = PowerTable(z, M.deg_x(), p, counter)
    if not w:
        return xtable, 0, ()
    # bits kept under the top coefficient beyond p (8 guard bits): U has
    # degree m deg_k, and its coefficient of k^t is multiplied by up to n^t;
    # on one exponent, a product of m factors compounds m times the size
    # ratio of the nonzero entries
    grid = _substitute_x(M, xtable, p, counter)
    tops = {max(map(bl._top, es, repeat(-math.inf)), default=-math.inf)
            for row in grid for es in row} - {-math.inf} or {0}
    spread = m * (M.deg_k() * n.bit_length() + max(tops) - min(tops)) + 8
    base = _fix_form(grid, p + spread, z)
    tmats = [base] + [_fix_shift(base, j, M.r, counter) for j in range(1, m)]
    U = product_binsplit_exact(
        tmats, lambda A, B: _fix_mat_mul(A, B, p, spread, M.r, counter))
    steps = _fix_multipoint(U, [i * m for i in range(w)], p, M.r, counter)
    return xtable, m * w, steps[::-1] if reverse else steps


def _substitute_x(M: RecMatrix, xtable: PowerTable, p, counter):
    """Entries of M as polynomials in k with ball coefficients."""
    return [[[xtable.eval_int_poly([e.coeff(a, b) for a in range(e.deg_x() + 1)],
                                   p, counter)
              for b in range(0 if e.is_zero() else e.deg_k() + 1)]
             for e in row] for row in M.entries]


def _ball_is_exact_zero(b) -> bool:
    if isinstance(b, ComplexBall):
        return _ball_is_exact_zero(b.re) and _ball_is_exact_zero(b.im)
    return b.man == 0 and b.rm == 0


def _fix_form(grid, prec, like):
    """The fixed-point form (mids, rads, e) of a grid of ball-coefficient
    lists (see Fixed point): exact if it can be, else prec bits of the top
    coefficient.  A complex matrix re + i im is the real one
    [[re, -im], [im, re]], whose products are those of the complex matrices;
    op counts read its top left block, the r0 x r0 of the complex matrix.
    Every list keeps the length of the ball polynomial it stands for, so the
    counts are those of balls."""
    if isinstance(like, ComplexBall):
        re, im, neg = ([[[f(b) for b in es] for es in row] for row in grid]
                       for f in (bl.n_real, lambda b: b.im, lambda b: -b.im))
        grid = ([a + b for a, b in zip(re, neg)]
                + [a + b for a, b in zip(im, re)])
    balls = [b for row in grid for es in row for b in es]
    top = max((b.exp + b.man.bit_length() for b in balls if b.man), default=0)
    e = max(top - prec, min([b.exp for b in balls if b.man]
                            + [b.re for b in balls if b.rm], default=0))

    def at(b):  # (mid, rad) of the ball b at 2^e
        d = b.exp - e
        mid = b.man << d if d >= 0 else b.man >> -d
        rad = b.rm << (b.re - e) if b.re >= e else -(-b.rm >> (e - b.re))
        return mid, rad + (d < 0 and mid << -d != b.man)

    pairs = [[tuple(map(list, zip(*map(at, es)))) if es else ([], [])
              for es in row] for row in grid]
    return (*([[x[k] for x in row] for row in pairs] for k in (0, 1)), e)


def _fix_shift(F, c: int, r0: int, counter: OpCounter):
    """F(k + c) for an integer c > 0 by Taylor shifts of the midpoints and,
    since c > 0, of the radii (exact)."""
    mids, rads, e = F
    counter.scalar += sum(len(cs) * (len(cs) - 1) // 2
                          for row in mids[:r0] for cs in row[:r0])
    return (*([[_pad(taylor_shift_basecase(UniPoly(cs), c).coeffs, len(cs))
                for cs in row] for row in g] for g in (mids, rads)), e)


def _pad(cs, length):
    return cs + [0] * (length - len(cs))


def _fix_mat_mul(A, B, p, spread, r0: int, counter: OpCounter):
    """A B in fixed point: the midpoints exactly by mat_mul_exact (Kronecker
    products), the radius by two products with upper bounds of |a| + r_a
    and |b| to spread + 32 bits (a shorter bound would widen the
    coefficients spread bits below the top); then the midpoint bits more
    than p + spread below the top coefficient are floored into the radius.
    nonscalar counts the coefficient products of the schoolbook product."""
    (am, ar, ea), (bm, br, eb) = A, B
    counter.nonscalar += sum(len(am[i][t]) * len(bm[t][j]) for i in range(r0)
                             for j in range(r0) for t in range(r0))
    (ua, sa), (ub, sb) = (_fix_upper(m, r, spread + 32)
                          for m, r in ((am, ar), (bm, None)))
    mids, rb, ra = (_poly_mat_mul(X, Y)
                    for X, Y in ((am, bm), (ua, br), (ar, ub)))
    rads = [[[(x << sa) + (y << sb) for x, y in zip(*es)] for es in zip(*rows)]
            for rows in zip(rb, ra)]
    s = max([0] + [c.bit_length() - p - spread
                   for row in mids for cs in row for c in cs])
    return (*_fix_floor(mids, rads, s), ea + eb + s)


def _poly_mat_mul(A, B):
    """A B for matrices of integer coefficient lists, each entry as long as
    the schoolbook product makes it."""
    C = mat_mul_exact(*([[UniPoly(cs) for cs in row] for row in X]
                        for X in (A, B)))
    return [[_pad(c.coeffs, max([len(a) + len(b) - 1 for a, b in
                                 zip(arow, bcol) if a and b], default=0))
             for c, bcol in zip(crow, zip(*B))] for crow, arow in zip(C, A)]


def _fix_rem(cs, node: UniPoly, counter):
    """The integer list cs mod a monic node, by exact synthetic division."""
    *nc, _ = node.coeffs
    cs, d = list(cs), len(nc)
    for i in range(len(cs) - 1, d - 1, -1):
        if cs[i]:
            for j, c in enumerate(nc, i - d):
                cs[j] -= cs[i] * c
            counter.scalar += d
    return cs[:d]


def _fix_multipoint(F, points, p, r0: int, counter: OpCounter):
    """F(x) at the integer points x >= 0 (see Fixed point), as nodes at F's
    exponent, or for a complex F (r0 less than its order) complex ball
    matrices: the midpoints by a remainder tree, the radii by Horner."""
    out = []
    # all-zero radius polynomials (every one at an exact z) are skipped
    rads = [[rs if any(rs) else () for rs in row] for row in F[1]]

    def descend(node, mids):
        mids = [[_fix_rem(cs, node.poly,
                          counter if max(i, j) < r0 else OpCounter())
                 for j, cs in enumerate(row)] for i, row in enumerate(mids)]
        if node.left is not None:
            descend(node.left, mids)
            return descend(node.right, mids)
        x = -node.poly.coeffs[0]  # the leaf is k - x
        leaf = _node_round(
            [[cs[0] if cs else 0 for cs in row] for row in mids],
            [[reduce(lambda acc, c: acc * x + c, reversed(rs), 0)
              for rs in row] for row in rads], F[2], p)
        if len(mids) > r0:  # re + i im from [[re, -im], [im, re]]
            vals = _ball_node(leaf, p)
            leaf = [[ComplexBall(a, b) for a, b in zip(vals[i], vals[i + r0])]
                    [:r0] for i in range(r0)]
        out.append(leaf)

    descend(product_tree(points), F[0])
    return out


def _order(w: int, reverse: bool):
    return range(w - 1, -1, -1) if reverse else range(w)


def _rect_ps(M: RecMatrix, z, n: int, plan: EvalPlan, counter: OpCounter,
             reverse: bool):
    subn = plan.subn or n
    w = n // subn
    table = PowerTable(z, max(plan.m, M.deg_x()), plan.work_prec, counter)
    return table, subn * w, _subproduct_steps(M, subn, _order(w, reverse),
                                              table, plan.m, plan.work_prec,
                                              counter)


def _rect(M: RecMatrix, z, n: int, plan: EvalPlan, counter: OpCounter,
          reverse: bool):
    """rect-split and rect-delta: the w = n // m giant steps G(z, i m) of
    _bivariate_steps, with G = U_0(x + k) for rect-split on a
    shift-symmetric matrix (U_i(x) = U_0(x + i m); U_0's UniPoly entries
    stand for it) and rect-delta's _giant_step_poly; rect-split otherwise
    makes every step as the exact U_i."""
    p, m = plan.work_prec, plan.m
    w = n // m
    table = PowerTable(z, m * M.deg_x(), p, counter)
    if not w:
        return table, 0, ()
    delta = plan.algorithm == "rect-delta"
    G = (_giant_step_poly(M, m, counter) if delta
         else _exact_product(M, 0, m, counter))
    if not (delta or plan.symmetric and table._fix is not None):
        counter.giant_step = "exact product"
        return table, m * w, _subproduct_steps(M, m, _order(w, reverse), table,
                                               table.D + 1, p, counter, G)
    by_table, steps = _bivariate_steps(G, *((w - 1) * m, -m) if reverse
                                       else (0, m), w, table, p, counter)
    if w > 1 or not delta:  # one step of rect-delta is no update
        counter.giant_step = "difference table" if by_table else "exact product"
    return table, m * w, steps


def _dot_sums(coeffs, table, counter):
    """bl.n_dot_sums of coeffs on the table's fixed-point form."""
    counter.scalar += len(coeffs) - coeffs.count(0)
    return bl.n_dot_sums(coeffs, table._fix)


def _difference_table(grid, sums, table, counter, live):
    """Per entry e of grid and per sum of its fused dot (bl.n_dot_sums),
    [Delta^0, Delta^1, ...] at the first step, trailing zeros dropped, from
    the sums that sums(e) yields at consecutive steps: d + 1 of them for
    sums of degree d, and any w give back those w steps exactly."""
    diffs = []
    for row in grid:
        drow = []
        for e in row:
            # an all-zero sequence (a radius sum at an exact z) is [0]
            seqs = [list(s) if any(s) else [0] for s in zip(*sums(e))]
            for s in seqs:
                for k in range(1, len(s)):
                    for j in range(len(s) - 1, k - 1, -1):
                        s[j] -= s[j - 1]
                counter.adds += len(s) * (len(s) - 1) // 2
                while len(s) > 1 and not s[-1]:
                    s.pop()
            drow.append(seqs)
        diffs.append(drow)
    size = sum(len(s) for row in diffs for seqs in row for s in seqs)
    counter.note_live_coeffs(size + live + table.D + 1)
    return diffs


def _difference_steps(diffs, w, table, p, counter):
    """The w steps from the difference table, each made from its sums by
    _sums_step; then Delta^j <- Delta^j + Delta^(j+1) for j = 0, 1, ...
    (exact integer additions, counted in adds) moves every sum on to the
    next step."""
    fix = table._fix
    sums = [s for row in diffs for seqs in row for s in seqs if len(s) > 1]
    adds = sum(len(s) - 1 for s in sums)
    yield _sums_step(diffs, fix, p)
    for _ in range(w - 1):
        for s in sums:
            for j in range(len(s) - 1):
                s[j] += s[j + 1]
        counter.adds += adds
        yield _sums_step(diffs, fix, p)


def _k_columns(e):
    """The columns g_b, b = 0, 1, ..., of an entry G(x, k) =
    sum_b k^b g_b(x) of _bivariate_steps, as x-coefficient lists: a
    BiPoly's own, or for a UniPoly u those of u(x + k),
    g_b = [C(a + b, b) u_(a+b)]_a, made one at a time; at least one."""
    if isinstance(e, UniPoly):
        u = e.coeffs
        return ([math.comb(a, b) * u[a] for a in range(b, len(u))]
                for b in range(max(1, len(u))))
    return zip_longest(*e.grid or [[0]], fillvalue=0)


def _bivariate_steps(E, first, step, count, table, p, counter):
    """(by_table, steps): the count steps [[G(z, k)]] for k = first,
    first + step, ... (all k >= 0), over a grid E of G(x, k): BiPoly, or a
    UniPoly u for u(x + k) (_k_columns; by_table only).  by_table: from a
    difference table, on a table with a fixed-point form (see Difference
    tables); else each step is eval_k and a dot (_dot_step)."""
    if not count:
        return False, ()
    ks = range(first, first + count * step, step)
    live = sum(len(e.coeffs) if isinstance(e, UniPoly)
               else sum(map(len, e.grid)) for row in E for e in row)
    if table._fix is None:  # eval_k reads every coefficient at each index
        counter.coeff += count * live
        counter.note_live_coeffs(live + table.D + 1)
        return False, (_dot_step([[e.eval_k(k).coeffs for e in row]
                                  for row in E], table, p, counter) for k in ks)

    def sums(e):  # the column sums as polynomials in k, all-zero ones cut
        cols = []
        for g in _k_columns(e):
            counter.coeff += len(g)
            cols.append(_dot_sums(g, table, counter))
        polys = [P if any(P) else (0,) for P in zip(*cols)]
        starts = ks[:len(cols)]
        counter.adds += len(starts) * sum(len(P) - 1 for P in polys)
        for k in starts:
            yield [reduce(lambda acc, c: acc * k + c, reversed(P))
                   for P in polys]

    return True, _difference_steps(_difference_table(E, sums, table, counter,
                                                     live),
                                   count, table, p, counter)


def _giant_step_poly(M: RecMatrix, m: int, counter: OpCounter):
    """G(x, k) = prod_{t<m} M(x, k + t), later factors on the left, expanded
    over Z[x, k] by exact bivariate binary splitting: rect-delta's giant
    step S_i is G(z, i m)."""
    G = product_binsplit_exact([[[e.shift_k(t) for e in row]
                                 for row in M.entries] for t in range(m)])
    counter.coeff += sum(len(kr) for row in G for e in row for kr in e.grid)
    return G


def bivariate_delta(M: RecMatrix, m: int, counter: OpCounter | None = None):
    """Delta_m = prod_{i<m} M(x, k+m+i) - prod_{i<m} M(x, k+i), that is
    G(x, k + m) - G(x, k) for rect-delta's G (_giant_step_poly)."""
    return [[e.shift_k(m) - e for e in row]
            for row in _giant_step_poly(M, m, counter or OpCounter())]


_ENGINES = {"naive": _naive, "binsplit-exact": _rect_ps,
            "multipoint": _multipoint, "rect-ps": _rect_ps,
            "rect-split": _rect, "rect-delta": _rect}


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
                  m: int | None = None, row: int | None = None) -> EvalReport:
    """The entry point of every engine: select a plan (unless overridden),
    run the engine and report the divided product with the achieved
    accuracy; with row = r, only row r of it, as a 1 x r matrix."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if p < 2:
        raise ValueError("p must be >= 2")
    if row is not None and (isinstance(row, bool) or not isinstance(row, int)
                            or not 0 <= row < M.r):
        raise ValueError("row must be None or an int in [0, %d)" % M.r)
    plan = make_plan(M, z, n, p, algorithm, m)
    counter = OpCounter()
    num = _run(M, z, n, plan, counter, row)
    den = _den_product(M, z, n, plan, counter)
    mat = num
    if not _is_one(den):
        mat = [[bl.n_div(e, den, plan.work_prec) for e in r] for r in num]
        counter.nonscalar += len(num) * M.r
    mat = [[bl.n_reduce(e, p) for e in r] for r in mat]
    acc = min(min(e.rel_accuracy_bits() for e in r) for r in mat)
    return EvalReport(mat, num, den, plan, counter, min(acc, p))
