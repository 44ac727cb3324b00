"""The four workloads: seeded inputs, their references, and one round of
calls into holoeval's public functions.

Every workload calls every kind of entry point, so that every end-to-end
metric is measured on every workload; each workload puts its weight on the
kind of work named in its description, and the other calls are small.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import refs

ENGINES = ("naive", "binsplit-exact", "multipoint", "rect-ps", "rect-split",
           "rect-delta")
GAMMA_METRICS = ("gamma_stirling_s", "gamma_stirling_first_s", "gamma_1f1_s")

# Sizes n of the direct engine calls of the rising workloads (p = 4n).
# binsplit-exact stops at 2^10: above it the exact product leaves the FFT
# path of intmul (n = 2^11 takes about 14 s), see README.md.
RISING_FULL_SIZES = {
    "naive": (256, 512, 1024, 2048),
    "binsplit-exact": (256, 512, 1024),
    "multipoint": (256, 512, 1024, 2048),
    "rect-ps": (256, 512, 1024, 2048),
    "rect-split": (256, 512, 1024, 2048, 4096),
    "rect-delta": (256, 512, 1024, 2048, 4096),
}
RISING_SHORT_SIZES = {
    "naive": (4096, 8192, 16384),
    "binsplit-exact": (256, 512),
    "multipoint": (4096, 8192, 16384, 32768),
    "rect-ps": (1024, 2048, 4096),
    "rect-split": (4096, 8192, 16384, 32768),
    "rect-delta": (4096, 8192, 16384, 32768),
}
GAMMA_PRECS = (2048, 4096, 8192)
GAMMA_COLD_PREC = 4096
GAMMA_ENGINE_SIZES = dict.fromkeys(ENGINES, (512, 768, 1024))
GAMMA_ENGINE_SIZES["binsplit-exact"] = (512,)
REC_PREC = 128
REC_SIZES = (7, 64, 257)
REC_ORDERS = (1, 2, 3)


def metric_of(algorithm: str) -> str:
    return algorithm.replace("-", "_") + "_s"


@dataclass
class Op:
    """One timed call.  kind selects the check: "rising" and "recurrence"
    outputs carry an OpCounter, "gamma" outputs are balls paired by key."""

    metric: str
    entry: str       # the public function called, for the trace
    call: object     # no-argument callable
    kind: str
    ref: object      # reference value, matrix or interval
    prec: int
    key: tuple = ()


class Workload:
    """Inputs, references and the op list of one workload for one seed."""

    def __init__(self, name, seed, hv):
        self.name = name
        self.hv = hv
        self.rng = random.Random("%s:%d" % (name, seed))
        self.ops = []
        self.inputs = {}
        self.cache = None
        self.max_gamma_prec = 0
        getattr(self, "_make_" + name.replace("-", "_"))()
        self.ops = _spread_by_metric(self.ops)

    # -- building blocks --------------------------------------------------

    def _rising_ops(self, z: Fraction, sizes, prec_of):
        hv = self.hv
        exact = {}
        for alg in ENGINES:
            for n in sizes[alg]:
                p = prec_of(n)
                if n not in exact:
                    exact[n] = refs.rising_exact(z, n)
                zb = hv.balls.Ball.from_fraction(z, p)
                self.ops.append(Op(
                    metric_of(alg), "special.rising_factorial_report",
                    _bind(hv.special.rising_factorial_report, zb, n, p,
                          algorithm=alg),
                    "rising", exact[n], p))

    def _gamma_ops(self, base: Fraction, shift: int, precs, cold_prec=None):
        hv = self.hv
        sp = hv.special
        x = base + shift
        for p in precs:
            xb = hv.balls.Ball.from_fraction(x, p)
            ref = refs.gamma_reference(base, shift, p)
            key = (x, p)
            self.ops.append(Op("gamma_stirling_s", "special.gamma_stirling",
                               _bind(self._stirling_warm, xb, p), "gamma",
                               ref, p, key))
            self.ops.append(Op("gamma_1f1_s", "special.gamma_1f1",
                               _bind(sp.gamma_1f1, xb, p), "gamma", ref, p,
                               key))
            if p == cold_prec:
                self.ops.append(Op("gamma_stirling_first_s",
                                   "special.gamma_stirling",
                                   _bind(self._stirling_cold, xb, p), "gamma",
                                   ref, p, key))
            self.max_gamma_prec = max(self.max_gamma_prec, p)
        self.inputs.setdefault("gamma_x", []).append(str(x))

    def _stirling_warm(self, x, p):
        return self.hv.special.gamma_stirling(x, p, cache=self.cache)

    def _stirling_cold(self, x, p):
        hv = self.hv
        return hv.special.gamma_stirling(x, p, cache=hv.special.BernoulliCache())

    def _gamma_set(self, prec):
        """Gamma(j + 1/3) (full mantissa) and Gamma(j + 1/4) (dyadic) for
        three seeded shifts j each, by every method, at one precision."""
        for base in (Fraction(1, 3), Fraction(1, 4)):
            for j in sorted(self.rng.sample(range(1, 6), 3)):
                self._gamma_ops(base, j, (prec,), cold_prec=prec)

    # -- the workloads ----------------------------------------------------

    def _make_rising_full(self):
        b = self.rng.choice((3, 5, 7, 11, 13))
        z = Fraction(self.rng.randint(1, b - 1), b)
        self.inputs["z"] = str(z)
        self._rising_ops(z, RISING_FULL_SIZES, lambda n: 4 * n)
        self._gamma_set(1024)

    def _make_rising_short(self):
        z = Fraction(1, 2 ** self.rng.randint(1, 4))
        self.inputs["z"] = str(z)
        self._rising_ops(z, RISING_SHORT_SIZES, lambda n: 4 * n)
        self._gamma_set(1024)

    def _make_gamma(self):
        j3, j4 = self.rng.randint(1, 3), self.rng.randint(1, 3)
        self._gamma_ops(Fraction(1, 3), j3, GAMMA_PRECS,
                        cold_prec=GAMMA_COLD_PREC)
        self._gamma_ops(Fraction(1, 4), j4, GAMMA_PRECS)
        # the engines on rising factorials of the length that Stirling's
        # argument reduction needs at p = 4096 (a shift of about 900)
        self._rising_ops(Fraction(1, 3) + j3, GAMMA_ENGINE_SIZES,
                         lambda n: 4096)

    def _make_recurrences(self):
        hv = self.hv
        recs = []
        while len(recs) < len(REC_ORDERS):
            order = REC_ORDERS[len(recs)]
            grids = [self._rand_grid() for _ in range(order + 1)]
            z = Fraction(self.rng.choice((-1, 1)) * self.rng.randint(1, 7),
                         self.rng.choice((3, 5, 7)))
            if z.denominator == 1:  # keep z non-dyadic: a full p-bit ball
                continue
            exact = refs.companion_products(grids, z, REC_SIZES)
            if exact is None:  # a_r(z, i) = 0 for some index
                continue
            recs.append((grids, z, exact))
        self.inputs["recurrences"] = [
            {"z": str(z), "coeffs": grids} for grids, z, _ in recs]
        for grids, z, exact in recs:
            M = hv.recmat.companion(hv.recmat.ScalarRecurrence(
                [hv.poly.BiPoly(g) for g in grids]))
            zb = hv.balls.Ball.from_fraction(z, REC_PREC)
            for alg in ENGINES:
                for n in REC_SIZES:
                    self.ops.append(Op(
                        metric_of(alg), "engines.eval_dispatch",
                        _bind(hv.engines.eval_dispatch, M, zb, n, REC_PREC,
                              algorithm=alg),
                        "recurrence", exact[n], REC_PREC))
        self._gamma_set(REC_PREC)

    def _rand_grid(self):
        """Coefficient a_j(x, k) of degree 2 in x and in k with entries
        +-5 of seeded signs: the seed changes signs and z but not the sizes
        that set the cost of the exact products."""
        return [[self.rng.choice((-5, 5)) for _ in range(3)] for _ in range(3)]

    # -- set-up and checks --------------------------------------------------

    def fill_caches(self):
        """The warm Bernoulli cache of the Stirling calls, filled as far as
        the largest precision needs, and the pi and log 2 constants that
        balls caches at the highest precision used."""
        hv = self.hv
        self.cache = hv.special.BernoulliCache()
        top = 0
        for op in self.ops:
            if op.metric == "gamma_stirling_s":
                xb = hv.balls.Ball.from_fraction(op.key[0], op.prec)
                prm = hv.special.stirling_params(xb, op.prec + 16)
                top = max(top, 2 * (prm.nterms - 1))
        hv.special.bernoulli_even(top, self.cache)
        wp = 2 * self.max_gamma_prec + 1024
        hv.balls.pi(wp)
        hv.balls.log2_const(wp)


def _spread_by_metric(ops):
    """Order the ops so that the calls of each metric are spread evenly over
    the round: a slow phase of the machine then falls on every metric alike
    instead of on the few calls that happen to run during it."""
    count = {}
    for op in ops:
        count[op.metric] = count.get(op.metric, 0) + 1
    seen = dict.fromkeys(count, 0)
    keyed = []
    for op in ops:
        i = seen[op.metric]
        seen[op.metric] += 1
        keyed.append(((i + 0.5) / count[op.metric], op))
    return [op for _, op in sorted(keyed, key=lambda t: t[0])]


def _bind(fn, *args, **kwargs):
    return lambda: fn(*args, **kwargs)


def check(op: Op, out):
    """(ok, counter or None, bits lost) for one output."""
    if op.kind == "rising":
        val, _plan, counter, acc = out
        return refs.contains(val, *op.ref), counter, op.prec - acc
    if op.kind == "recurrence":
        num, den = op.ref
        ok = all(refs.contains(e, q, den) for row, qrow in zip(out.matrix, num)
                 for e, q in zip(row, qrow))
        return ok, out.counter, op.prec - out.accuracy_bits
    lo, hi, den = op.ref
    return refs.encloses(out, lo, hi, den), None, 0


def check_gamma_pairs(outputs):
    """Stirling and 1F1 values of one (x, p) overlap, and each has at least
    p - 64 bits of accuracy.  outputs: {(x, p): [ball, ...]}."""
    for (_x, p), balls in outputs.items():
        for a in balls:
            if refs.accuracy_bits(a) < p - 64:
                return False
            if not all(refs.overlap(a, b) for b in balls):
                return False
    return True
