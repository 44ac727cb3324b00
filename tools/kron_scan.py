"""Kronecker packing against schoolbook on the benchmark's exact products.

    python3 tools/kron_scan.py [--workload W] [--seed N] [--repeat K]

Run from the root of a source tree; holoeval is imported from its src/ and
the workloads from its perfbench/.  For each workload (all four by default,
--workload repeats) one round of its ops runs once while every exact
product over Z[x] is recorded: each `recmat.mat_mul_exact` of integer
UniPoly matrices, each `BiPoly.__mul__`, and each `poly._list_mul` of
integer lists made outside of those.  Each product is then replayed through
the same function three times: with `poly._kron_pays` forced to schoolbook,
forced to packing, and as the program runs it; the three results must be
equal.  The table has one row per bucket (kind, r, la*lb, bits): r is the
matrix order, la and lb the longest entries of the factors (a BiPoly
flattened as in its product), both rounded down to a power of two, and
bits the largest coefficient of either factor, likewise.  Each row gives
the products in one round, their total seconds (best of K each) by
schoolbook, by packing and as the program runs, packed over schoolbook,
and the share of the products that the program packs whole; the
workload's last line gives the totals, and the total if each product took
the faster of schoolbook and packing.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402


def _int_lists(M):
    """The coefficient lists of a matrix of integer UniPoly, else None."""
    cs = [[e.coeffs for e in row] for row in M]
    ok = all(type(c) is int for row in cs for es in row for c in es)
    return cs if ok else None


def record(hv, calls):
    """Run the calls and return their exact products as (kind, A, B):
    kind "mat" with A, B matrices of UniPoly, "bi" with two BiPoly, "list"
    with two integer lists."""
    poly, recmat, engines = hv.poly, hv.recmat, hv.engines
    saved = (recmat.mat_mul_exact, engines.mat_mul_exact, poly._list_mul,
             poly.BiPoly.__mul__)
    mat_mul_exact, _, list_mul, bi_mul = saved
    products, depth = [], [0]

    def inside(fn, *args):
        depth[0] += 1
        try:
            return fn(*args)
        finally:
            depth[0] -= 1

    def rec_mat(A, B):
        if not depth[0] and isinstance(A[0][0], poly.UniPoly) and \
                _int_lists(A) is not None and _int_lists(B) is not None:
            products.append(("mat", A, B))
            return inside(mat_mul_exact, A, B)
        return mat_mul_exact(A, B)

    def rec_bi(a, b):
        if not depth[0] and a.grid and b.grid:
            products.append(("bi", a, b))
            return inside(bi_mul, a, b)
        return bi_mul(a, b)

    def rec_list(a, b):
        if not depth[0] and len(a) > 1 and len(b) > 1 and all(
                type(c) is int for c in a + b):
            products.append(("list", a, b))
        return list_mul(a, b)

    recmat.mat_mul_exact = engines.mat_mul_exact = rec_mat
    poly._list_mul, poly.BiPoly.__mul__ = rec_list, rec_bi
    try:
        for call in calls:
            call()
    finally:
        (recmat.mat_mul_exact, engines.mat_mul_exact, poly._list_mul,
         poly.BiPoly.__mul__) = saved
    return products


def shape(hv, kind, A, B):
    """(r, la, lb, bits) of a recorded product."""
    if kind == "mat":
        A, B = _int_lists(A), _int_lists(B)
    elif kind == "bi":
        nk = max(map(len, A.grid)) + max(map(len, B.grid)) - 1
        A, B = ([[hv.poly._flatten(X.grid, nk)]] for X in (A, B))
    else:
        A, B = [[A]], [[B]]
    la = max(len(c) for row in A for c in row)
    lb = max(len(c) for row in B for c in row)
    bits = max(abs(c).bit_length() for M in (A, B) for row in M for cs in row
               for c in cs)
    return len(A), la, lb, bits


def _call(hv, kind, A, B):
    if kind == "mat":
        return hv.recmat.mat_mul_exact(A, B)
    if kind == "bi":
        return A * B
    return hv.poly._list_mul(A, B)


def _packed(hv, kind, A, B):
    if kind == "mat":  # past mat_mul_exact's FFT_ACTIVE gate
        return hv.poly.mat_mul_kron(A, B)
    return _call(hv, kind, A, B)


def _best(fn, repeat):
    best, out = None, None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, out


def replay(hv, products, repeat=3):
    """Times each product by schoolbook, by packing and as the program runs;
    returns a list of (kind, r, la, lb, bits, school_s, packed_s, rule_s,
    packed whole).  Raises AssertionError if the results differ."""
    poly = hv.poly
    pays, kron_min, kron_mat_mul = (poly._kron_pays, poly._KRON_MIN,
                                    poly._kron_mat_mul)
    orders = []  # the orders of the packed products of one call

    def watched(A, B):
        orders.append(len(A))
        return kron_mat_mul(A, B)

    rows = []
    try:
        for kind, A, B in products:
            r, la, lb, bits = shape(hv, kind, A, B)
            poly._kron_pays = lambda *args: False
            ts, slow = _best(lambda: _call(hv, kind, A, B), repeat)
            # packing forced, past the callers' count tests too
            poly._kron_pays, poly._KRON_MIN = (lambda *args: True), 0
            tp, fast = _best(lambda: _packed(hv, kind, A, B), repeat)
            poly._kron_pays, poly._KRON_MIN = pays, kron_min
            tr, out = _best(lambda: _call(hv, kind, A, B), repeat)
            orders.clear()
            poly._kron_mat_mul = watched
            _call(hv, kind, A, B)
            poly._kron_mat_mul = kron_mat_mul
            if not fast == slow == out:
                raise AssertionError("packed != schoolbook: %s r=%d la=%d "
                                     "lb=%d bits=%d" % (kind, r, la, lb, bits))
            rows.append((kind, r, la, lb, bits, ts, tp, tr, r in orders))
    finally:
        poly._kron_pays, poly._KRON_MIN = pays, kron_min
        poly._kron_mat_mul = kron_mat_mul
    return rows


def _floor2(n):
    return 1 << (n.bit_length() - 1) if n else 0


def table(rows):
    """Lines of the bucket table and the totals line."""
    buckets = {}
    for kind, r, la, lb, bits, ts, tp, tr, packs in rows:
        key = (kind, r, _floor2(la * lb), _floor2(bits))
        b = buckets.setdefault(key, [0, 0.0, 0.0, 0.0, 0])
        for i, v in enumerate((1, ts, tp, tr, packs)):
            b[i] += v
    out = ["%-5s %3s %8s %6s %6s %10s %10s %6s %10s %6s"
           % ("kind", "r", "la*lb", "bits", "count", "school_s", "packed_s",
              "ratio", "rule_s", "packs")]
    for key in sorted(buckets):
        n, ts, tp, tr, packs = buckets[key]
        out.append("%-5s %3d %8d %6d %6d %10.6f %10.6f %6.2f %10.6f %5.0f%%"
                   % (*key, n, ts, tp, tp / ts if ts else 0, tr,
                      100 * packs / n))
    school, packed, rule = (sum(row[i] for row in rows) for i in (5, 6, 7))
    best = sum(min(row[5], row[6]) for row in rows)
    out.append("total: schoolbook %.4f s, packed %.4f s, rule %.4f s, "
               "best %.4f s" % (school, packed, rule, best))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=run.WORKLOADS, action="append")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args(argv)
    hv = run.import_program()
    print("integer backend %s, FFT_ACTIVE %s"
          % ("gmpy2" if hv.balls.HAVE_GMPY2 else "int", hv.intmul.FFT_ACTIVE))
    for name in args.workload or run.WORKLOADS:
        wl = workloads.Workload(name, args.seed, hv)
        wl.fill_caches()
        products = record(hv, [op.call for op in wl.ops])
        print("\n%s, seed %d: %d products" % (name, args.seed, len(products)))
        for line in table(replay(hv, products, args.repeat)):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
