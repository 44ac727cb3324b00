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
    order = den = None
    given = {}  # (directive, index): (value, line number)
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
                index, value = (int(i_s), int(j_s)), bipoly_from_text(poly_s)
            elif key == "init":
                i_s, val_s = rest.split(None, 1)
                index, value = (int(i_s),), bl.parse_decimal(val_s, prec)
            else:
                raise ValueError("unknown directive %r" % key)
            if key in ("entry", "init"):
                if (key, index) in given:
                    raise ValueError("%s %s repeats line %d" % (
                        key, " ".join(map(str, index)), given[key, index][1]))
                given[key, index] = value, line_no
        except (ValueError, ArithmeticError) as exc:
            raise SpecFileError(str(exc), line_no) from exc
    if order is None:
        raise SpecFileError("missing 'order' directive")
    for (key, index), (_, line_no) in given.items():
        if not all(0 <= i < order for i in index):
            raise SpecFileError("%s %s outside the order-%d matrix" % (
                key, " ".join(map(str, index)), order), line_no)
    grid = [[given.get(("entry", (i, j)), (BiPoly.zero(),))[0]
             for j in range(order)] for i in range(order)]
    mat = RecMatrix(grid, den)
    vec = [given.get(("init", (i,)), (Ball.zero(),))[0] for i in range(order)]
    return mat, vec


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _prec_from_args(args) -> int:
    if args.digits is not None:
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
    _print_counts(rep.accuracy_bits, rep.plan, rep.counter)
    return 0


def _print_counts(acc, plan, c):
    print("accuracy: %d bits (algorithm %s, m=%d, nonscalar=%d, scalar=%d, "
          "adds=%d, exact_merges=%d)" % (acc, plan.algorithm, plan.m,
          c.nonscalar, c.scalar, c.adds, c.exact_merges), file=sys.stderr)


def cmd_rising(args) -> int:
    prec = _prec_from_args(args)
    z = bl.parse_decimal(args.z, prec)
    val, plan, counter, acc = special.rising_factorial_report(
        z, args.n, prec, algorithm=args.algorithm, m=args.m)
    print(bl.to_decimal(val))
    _print_counts(acc, plan, counter)
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

def _int_at_least(lo: int):
    """argparse type: an integer >= lo."""
    def check(text):
        if int(text) < lo:
            raise argparse.ArgumentTypeError("%s is below %d" % (text, lo))
        return int(text)
    check.__name__ = "int"  # argparse names the type in its messages
    return check


def _number(text):
    """argparse type: a literal that parse_decimal reads (checked at a low
    precision; the command reads it again at its own)."""
    try:
        bl.parse_decimal(text, 2)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError("%r: %s" % (text, exc))
    return text


ALGORITHM_HELP = ("engine (default: from the recurrence: naive for n < 32, "
                  "rect-split if M(x, k+1) = M(x+1, k), else rect-delta)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="holoeval",
        description="Evaluate terms of parametric holonomic sequences with "
                    "rigorous ball arithmetic.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_prec(p):
        g = p.add_mutually_exclusive_group()
        g.add_argument("--prec-bits", type=_int_at_least(2), default=64,
                       help="working precision in bits (default 64)")
        g.add_argument("--digits", type=_int_at_least(1),
                       help="decimal digits (converted to bits)")

    p = sub.add_parser("eval", help="evaluate c(z, n) from a recurrence spec file")
    p.add_argument("spec", help="path to the recurrence spec file")
    p.add_argument("n", type=_int_at_least(0))
    p.add_argument("--z", type=_number, default=None,
                   help="parameter value (decimal or rational)")
    p.add_argument("--algorithm", choices=ALGORITHMS, default=None,
                   help=ALGORITHM_HELP)
    p.add_argument("--m", type=_int_at_least(1), help="step length override")
    add_prec(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("rising", help="rising factorial z (z+1) ... (z+n-1)")
    p.add_argument("z", type=_number)
    p.add_argument("n", type=_int_at_least(0))
    p.add_argument("--algorithm", choices=ALGORITHMS, default=None,
                   help=ALGORITHM_HELP)
    p.add_argument("--m", type=_int_at_least(1))
    add_prec(p)
    p.set_defaults(func=cmd_rising)

    p = sub.add_parser("gamma", help="gamma function of a real argument")
    p.add_argument("x", type=_number)
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
