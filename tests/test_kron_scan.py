"""The Kronecker scan (tools/kron_scan.py) on a few calls of the
recurrences workload: it records matrix products of every order and
bivariate products, the rule packs some of them and declines others, and
every replayed packed product equals its schoolbook product."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "kron_scan.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("kron_scan", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_replayed_products_are_equal():
    ks = _load_tool()
    hv = ks.run.import_program()
    wl = ks.workloads.Workload("recurrences", 1, hv)
    calls = [op.call for op in wl.ops
             if op.metric in ("rect_ps_s", "multipoint_s", "rect_delta_s")]
    products = ks.record(hv, calls)
    rows = ks.replay(hv, products, repeat=1)  # raises if any product differs
    assert len(rows) == len(products)
    assert {(kind, r) for kind, r, *_ in rows} >= {
        ("mat", 1), ("mat", 2), ("mat", 3), ("bi", 1)}
    assert {row[-1] for row in rows} == {False, True}
    lines = ks.table(rows)
    assert lines[0].split()[:4] == ["kind", "r", "la*lb", "bits"]
    assert lines[-1].startswith("total: schoolbook ")
