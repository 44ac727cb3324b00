"""Command-line interface: evaluate recurrences from spec files, compute
rising factorials and gamma values.  Benchmarks live in perfbench/.

Exit codes: 0 success, 2 spec-file parse error, 3 vanishing denominator,
4 domain error (poles, nonpositive logs, unreachable targets).
"""

from __future__ import annotations

import argparse
import math
import sys

from . import balls as bl
from .balls import Ball, BallDomainError
from .poly import BiPoly, bipoly_from_text
from .recmat import DenominatorZeroError, RecMatrix, apply_to_vector
from .engines import ALGORITHMS, eval_dispatch
from . import special

EXIT_PARSE = 2
EXIT_DENOMINATOR = 3
EXIT_DOMAIN = 4


class SpecFileError(ValueError):
    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = "line %d: %s" % (line_no, message)
        super().__init__(message)
        self.line_no = line_no


# ---------------------------------------------------------------------------
# recurrence spec files
# ---------------------------------------------------------------------------

def parse_spec_file(text: str, prec: int = 64):
    """Line-oriented format:

        order R
        den <poly in k (and x)>
        entry i j <poly in x, k>
        init i <rational or decimal>
        # comment

    Returns (RecMatrix, initial vector of Balls)."""
    order = None
    den = None
    entries = {}
    inits = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        key = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        try:
            if key == "order":
                order = int(rest)
                if order < 1:
                    raise ValueError("order must be >= 1")
            elif key == "den":
                den = bipoly_from_text(rest)
            elif key == "entry":
                i_s, j_s, poly_s = rest.split(None, 2)
                entries[(int(i_s), int(j_s))] = bipoly_from_text(poly_s)
            elif key == "init":
                i_s, val_s = rest.split(None, 1)
                inits[int(i_s)] = bl.parse_decimal(val_s, prec)
            else:
                raise ValueError("unknown directive %r" % key)
        except SpecFileError:
            raise
        except (ValueError, ArithmeticError) as exc:
            raise SpecFileError(str(exc), line_no) from exc
    if order is None:
        raise SpecFileError("missing 'order' directive")
    for (i, j) in entries:
        if not (0 <= i < order and 0 <= j < order):
            raise SpecFileError("entry (%d, %d) outside order-%d matrix" % (i, j, order))
    grid = [[entries.get((i, j), BiPoly.zero()) for j in range(order)]
            for i in range(order)]
    mat = RecMatrix(grid, den)
    vec = [inits.get(i, Ball.zero()) for i in range(order)]
    return mat, vec


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _prec_from_args(args) -> int:
    if getattr(args, "digits", None):
        return int(math.ceil(args.digits * math.log2(10))) + 2
    return args.prec_bits


def cmd_eval(args) -> int:
    prec = _prec_from_args(args)
    try:
        with open(args.spec) as fh:
            mat, vec = parse_spec_file(fh.read(), prec)
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    z = bl.parse_decimal(args.z, prec) if args.z is not None else Ball.zero()
    rep = eval_dispatch(mat, z, args.n, prec, algorithm=args.algorithm, m=args.m)
    out = apply_to_vector(rep.matrix, vec, prec + 16)
    for i, v in enumerate(out):
        print("c_%d(%d) = %s" % (i, args.n, bl.to_decimal(bl.reduce(v, prec))))
    print("accuracy: %d bits (algorithm %s, m=%d)"
          % (rep.accuracy_bits, rep.plan.algorithm, rep.plan.m), file=sys.stderr)
    return 0


def cmd_rising(args) -> int:
    prec = _prec_from_args(args)
    z = bl.parse_decimal(args.z, prec)
    val, plan, counter, acc = special.rising_factorial_report(
        z, args.n, prec, algorithm=args.algorithm, m=args.m)
    print(bl.to_decimal(val))
    print("accuracy: %d bits (algorithm %s, m=%d, nonscalar=%d, scalar=%d)"
          % (acc, plan.algorithm, plan.m, counter.nonscalar, counter.scalar),
          file=sys.stderr)
    return 0


def cmd_gamma(args) -> int:
    prec = _prec_from_args(args)
    x = bl.parse_decimal(args.x, prec)
    if args.method == "stirling":
        val = special.gamma_stirling(x, prec)
    else:
        val = special.gamma_1f1(x, prec)
    print(bl.to_decimal(val))
    print("accuracy: %d bits" % min(val.rel_accuracy_bits(), prec), file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="holoeval",
        description="Evaluate terms of parametric holonomic sequences with "
                    "rigorous ball arithmetic.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_prec(p):
        g = p.add_mutually_exclusive_group()
        g.add_argument("--prec-bits", type=int, default=64,
                       help="working precision in bits (default 64)")
        g.add_argument("--digits", type=int,
                       help="decimal digits (converted to bits)")

    p = sub.add_parser("eval", help="evaluate c(z, n) from a recurrence spec file")
    p.add_argument("spec", help="path to the recurrence spec file")
    p.add_argument("n", type=int)
    p.add_argument("--z", help="parameter value (decimal or rational)", default=None)
    p.add_argument("--algorithm", choices=ALGORITHMS, default=None)
    p.add_argument("--m", type=int, default=None, help="step length override")
    add_prec(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("rising", help="rising factorial z (z+1) ... (z+n-1)")
    p.add_argument("z")
    p.add_argument("n", type=int)
    p.add_argument("--algorithm", choices=ALGORITHMS, default=None)
    p.add_argument("--m", type=int, default=None)
    add_prec(p)
    p.set_defaults(func=cmd_rising)

    p = sub.add_parser("gamma", help="gamma function of a real argument")
    p.add_argument("x")
    p.add_argument("--method", choices=("stirling", "1f1"), default="stirling")
    add_prec(p)
    p.set_defaults(func=cmd_gamma)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecFileError as exc:
        print("spec error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except DenominatorZeroError as exc:
        print("denominator error: %s" % exc, file=sys.stderr)
        return EXIT_DENOMINATOR
    except BallDomainError as exc:
        print("domain error: %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
