"""The benchmark's span table (perfbench/spans.py) names functions of the
package by attribute; a function deleted or renamed in src/ must fail here
instead of in a traced benchmark run."""

import importlib.util
import pathlib

import holoeval
import holoeval.intmul  # noqa: F401  (span_table reads hv.intmul)

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_span_table_resolves():
    spans = _load_spans()
    table = spans.span_table(holoeval)
    for owner, attr, name, _bits in table:
        assert callable(owner.__dict__.get(attr)), (name, owner, attr)
    tracer = spans.Tracer(table)
    before = [owner.__dict__[attr] for owner, attr, _, _ in table]
    tracer.install()
    tracer.remove()
    assert [owner.__dict__[attr] for owner, attr, _, _ in table] == before
