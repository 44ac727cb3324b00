"""Benchmark of holoeval: one workload, one process, one thread.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source tree; holoeval is imported from its src/.
The workload's inputs and their independent references are made from the
seed, then whole rounds of the workload's calls run until S seconds have
passed.  Every output is checked against its reference.  The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics (end to end with --trace 0, per layer with --trace 1).  Each time
metric is the median over the rounds of the run, in seconds scaled to a
fixed machine speed (see CAL_NOMINAL_S).  The line before it is the
environment block, and perfbench/out/ receives the whole record of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rising-full", "rising-short", "gamma", "recurrences")
SETUP_REPEATS = 3

TIME_METRICS = (tuple(workloads.metric_of(a) for a in workloads.ENGINES)
                + workloads.GAMMA_METRICS)
SPAN_METRICS = (
    "balls.mul.s", "balls.mul.calls", "balls.mul.bits", "balls.add.s",
    "balls.div.s", "balls.elementary.s",
    "intmul.mat_mul.s", "intmul.mat_mul.calls", "intmul.mat_mul.bits",
    "poly.mul.s", "poly.mul.calls", "poly.mat_mul_kron.s",
    "poly.taylor_shift.s", "poly.taylor_shift.calls", "poly.product_tree.s",
    "recmat.product_binsplit_exact.s", "recmat.mat_mul_exact.s",
    "recmat.mat_mul_exact.calls", "recmat.eval_factor.s",
    "recmat.eval_factor.calls",
    "engines.eval_dispatch.s", "engines.eval_int_poly.s",
    "engines.eval_int_poly.calls", "engines.ball_mat_mul.s",
    "engines.power_table.s", "engines.bivariate_delta.s",
    "special.rising_factorial_report.s", "special.bernoulli.s",
    "special.rising_factorial.s",
    "special.stirling_params.s", "special.log_gamma_stirling.s",
    "special.rising_delta_coeffs.s",
)
COUNT_METRICS = ("engines.nonscalar", "engines.scalar", "engines.coeff",
                 "engines.bits_lost")
UNITS = {"s": "s", "calls": "count", "bits": "bits"}

# Time metrics are reported at the machine speed at which calibration()
# takes this long, its typical time on the reference machine in a quiet
# phase.  On a shared machine the speed of one thread changes by up to 2x
# for minutes at a time; scaling every call by the calibrations timed around
# it removes that from the figures.  The unscaled seconds are kept in the
# record under perfbench/out/.
CAL_NOMINAL_S = 0.001
_CAL_INT = (1 << 8192) // 3


def import_program():
    """holoeval from this tree's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import holoeval
        from holoeval import balls, engines, intmul, poly, recmat, special  # noqa: F401
    except ImportError as exc:
        sys.exit("perfbench: cannot import holoeval from %s: %s" % (src, exc))
    if not os.path.abspath(holoeval.__file__).startswith(src + os.sep):
        sys.exit("perfbench: holoeval came from %s, not from %s"
                 % (holoeval.__file__, src))
    return holoeval


def environment(hv):
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "integer_backend": "gmpy2" if hv.balls.HAVE_GMPY2 else "int",
        "fft_active": hv.intmul.FFT_ACTIVE,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "holoeval": hv.__version__,
    }


def calibration():
    """Seconds taken by a fixed piece of work that uses nothing of holoeval:
    an interpreted loop over small ints and fifteen 8192-bit products."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1500):
        acc += (i * 2654435761) % 7
    y = _CAL_INT
    for _ in range(15):
        y = (y * _CAL_INT) >> 8192
    return time.perf_counter() - t0


def scaled(seconds, cal_before, cal_after):
    """seconds converted to the machine speed at which calibration() takes
    CAL_NOMINAL_S, from the calibrations timed just before and after."""
    return seconds * 2 * CAL_NOMINAL_S / (cal_before + cal_after)


def run_round(wl, calls):
    """One pass over the workload's ops; returns the round's record."""
    raw = dict.fromkeys(TIME_METRICS, 0.0)
    times = dict.fromkeys(TIME_METRICS, 0.0)
    counts = dict.fromkeys(COUNT_METRICS, 0)
    failed = 0
    ok = True
    gamma_out = {}
    cal_before = calibration()
    for op, call in zip(wl.ops, calls):
        t0 = time.perf_counter()
        try:
            out = call()
        except ArithmeticError as exc:
            out = exc
        dt = time.perf_counter() - t0
        cal_after = calibration()
        raw[op.metric] += dt
        times[op.metric] += scaled(dt, cal_before, cal_after)
        cal_before = cal_after
        if isinstance(out, ArithmeticError):
            failed += 1
            print("perfbench: %s failed: %r" % (op.entry, out), file=sys.stderr)
            continue
        good, counter, lost = workloads.check(op, out)
        ok = ok and good
        if counter is not None:
            counts["engines.nonscalar"] += counter.nonscalar
            counts["engines.scalar"] += counter.scalar
            counts["engines.coeff"] += counter.coeff
            counts["engines.bits_lost"] += lost
        if op.kind == "gamma":
            gamma_out.setdefault(op.key, []).append(out)
    ok = ok and workloads.check_gamma_pairs(gamma_out)
    times["wall_s"] = sum(times.values())
    raw["wall_s"] = sum(raw.values())
    return {"times": times, "raw_times": raw, "counts": counts,
            "failed": failed, "ok": ok}


def _median(rows, key):
    return statistics.median(r[key] for r in rows)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cal = calibration()
    t0 = time.perf_counter()
    hv = import_program()
    import_raw = time.perf_counter() - t0
    cal_after = calibration()
    import_s = scaled(import_raw, cal, cal_after)
    cal = cal_after

    setups = []
    setups_raw = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = workloads.Workload(args.workload, args.seed, hv)
        wl.fill_caches()
        setups_raw.append(time.perf_counter() - t0)
        cal_after = calibration()
        setups.append(scaled(setups_raw[-1], cal, cal_after))
        cal = cal_after
    setup_s = import_s + statistics.median(setups)

    plain = [op.call for op in wl.ops]
    tracer = traced = None
    if args.trace:
        tracer = spans.Tracer(spans.span_table(hv))
        traced = [tracer.wrap(op.entry, op.call) for op in wl.ops]

    rounds = []
    start = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced rounds
        use_trace = tracer is not None and len(rounds) % 2 == 1
        if use_trace:
            tracer.reset()
            tracer.install()
            try:
                rec = run_round(wl, traced)
            finally:
                tracer.remove()
            rec["spans"] = {k: list(v) for k, v in tracer.stats.items()}
            rec["edges"] = {"%s>%s" % k: v for k, v in tracer.edges.items()}
        else:
            rec = run_round(wl, plain)
        rec["traced"] = use_trace
        rounds.append(rec)
        done = time.perf_counter() - start >= args.seconds
        if done and (tracer is None or len(rounds) >= 2):
            break

    attempted = len(rounds) * len(wl.ops)
    failed = sum(r["failed"] for r in rounds)
    correct = all(r["ok"] for r in rounds)
    plain_rounds = [r["times"] for r in rounds if not r["traced"]]
    if tracer is None:
        metrics = {k: {"value": _median(plain_rounds, k), "unit": "s"}
                   for k in TIME_METRICS + ("wall_s",)}
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mib"] = {"value": rss, "unit": "MiB"}
    else:
        traced_rounds = [r for r in rounds if r["traced"]]
        metrics = {}
        for name in SPAN_METRICS:
            span, field = name.rsplit(".", 1)
            col = {"s": 0, "calls": 1, "bits": 2}[field]
            vals = [r["spans"].get(span, [0, 0, 0])[col] for r in traced_rounds]
            value = statistics.median(vals)
            metrics[name] = {"value": value / 1e9 if field == "s" else value,
                             "unit": UNITS[field]}
        for name in COUNT_METRICS:
            value = statistics.median(r["counts"][name] for r in traced_rounds)
            metrics[name] = {"value": value,
                             "unit": "bits" if name.endswith("lost") else "count"}
        overhead = (_median([r["times"] for r in traced_rounds], "wall_s")
                    - _median(plain_rounds, "wall_s"))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}

    env = environment(hv)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "inputs": wl.inputs,
              "setup_runs_s": setups, "setup_runs_raw_s": setups_raw,
              "import_s": import_s, "import_raw_s": import_raw,
              "cal_nominal_s": CAL_NOMINAL_S,
              "rounds": rounds, "metrics": metrics}
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
