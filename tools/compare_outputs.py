"""Output audit: the exact bits of every benchmark output, and their diff.

    python3 tools/compare_outputs.py dump OUT.json
    python3 tools/compare_outputs.py diff A.json B.json

Run from the root of a source tree; holoeval is imported from its src/ and
the workloads from its perfbench/.  dump runs every op of seeds 1-3 of the
four workloads once and writes, per op, the (man, exp, rm, re) of every
output ball (mantissas in hex) and the output's accuracy in bits; it exits
1 if any output misses its reference (workloads.check, and for Gamma the
pair check), or if an op raises.  diff lists the ops of two dumps whose
bits or accuracy differ, each with its accuracy change, then a tally line:
the ops lower in accuracy (with the worst loss), those higher, and those of
equal accuracy whose bits changed; then one line per metric with such ops,
the same three counts; it exits 1 if any op differs.  The keys are
workload:seed:index in the workload's op order.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402
from refs import accuracy_bits  # noqa: E402

SEEDS = (1, 2, 3)


def _balls(out):
    """The output balls of one op, a list of real balls in a fixed order."""
    if isinstance(out, tuple):  # rising_factorial_report
        out = out[0]
    if hasattr(out, "matrix"):  # EvalReport
        return [b for row in out.matrix for e in row for b in _balls(e)]
    if hasattr(out, "im"):  # ComplexBall
        return [out.re, out.im]
    return [out]


def _accuracy(out):
    if isinstance(out, tuple):
        return out[3]
    if hasattr(out, "accuracy_bits"):
        return out.accuracy_bits
    return accuracy_bits(out)


def dump(path):
    hv = run.import_program()
    records, bad = {}, []
    for name in run.WORKLOADS:
        for seed in SEEDS:
            wl = workloads.Workload(name, seed, hv)
            wl.fill_caches()
            gamma_out = {}
            for i, op in enumerate(wl.ops):
                key = "%s:%d:%d" % (name, seed, i)
                try:
                    out = op.call()
                except ArithmeticError as exc:
                    records[key] = {"metric": op.metric, "error": repr(exc)}
                    bad.append(key)
                    continue
                if not workloads.check(op, out)[0]:
                    bad.append(key)
                if op.kind == "gamma":
                    gamma_out.setdefault(op.key, []).append(out)
                records[key] = {
                    "metric": op.metric,
                    "bits": [[hex(b.man), b.exp, hex(b.rm), b.re]
                             for b in _balls(out)],
                    "accuracy_bits": _accuracy(out)}
            if not workloads.check_gamma_pairs(gamma_out):
                bad.append("%s:%d gamma pairs" % (name, seed))
    with open(path, "w") as fh:
        json.dump(records, fh, indent=0)
    print("%d ops dumped to %s" % (len(records), path))
    for key in bad:
        print("FAILED %s" % key)
    return 1 if bad else 0


def diff(path_a, path_b):
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    keys = a.keys() | b.keys()
    changed, lower = 0, []
    per_metric = {}  # metric: [higher, lower, equal with changed bits]
    for key in sorted(keys):
        ra, rb = a.get(key), b.get(key)
        if ra == rb:
            continue
        changed += 1
        if ra is None or rb is None:
            print("%s: only in %s" % (key, path_a if rb is None else path_b))
            continue
        same_bits = ra.get("bits") == rb.get("bits")
        acc_a, acc_b = ra.get("accuracy_bits"), rb.get("accuracy_bits")
        change = None if acc_a is None or acc_b is None else acc_b - acc_a
        print("%s %s: %s, accuracy_bits %s -> %s%s"
              % (key, ra["metric"], "bits same" if same_bits else "bits differ",
                 acc_a, acc_b, "" if change is None else " (%+d)" % change))
        if change is None:
            continue
        if change < 0:
            lower.append((change, key))
        if change or not same_bits:
            counts = per_metric.setdefault(ra["metric"], [0, 0, 0])
            counts[0 if change > 0 else 1 if change < 0 else 2] += 1
    higher, _, same = (sum(c) for c in zip([0, 0, 0], *per_metric.values()))
    worst = " (worst %+d, %s)" % min(lower) if lower else ""
    print("%d of %d ops differ: %d lower in accuracy%s, %d higher, %d equal "
          "with changed bits" % (changed, len(keys), len(lower), worst,
                                 higher, same))
    for metric in sorted(per_metric):
        print("%s: %d higher, %d lower, %d equal with changed bits"
              % (metric, *per_metric[metric]))
    return 1 if changed else 0


def main(argv):
    if len(argv) == 2 and argv[0] == "dump":
        return dump(argv[1])
    if len(argv) == 3 and argv[0] == "diff":
        return diff(argv[1], argv[2])
    sys.exit(__doc__.strip().split("\n\n")[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
