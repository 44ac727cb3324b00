"""The output audit's diff (tools/compare_outputs.py) on two small
hand-written dumps: one line per differing op with its accuracy change,
then the tally line and one line per metric, and exit code 1 when any op
differs."""

import importlib.util
import json
import pathlib

TOOL = (pathlib.Path(__file__).resolve().parents[1] / "tools"
        / "compare_outputs.py")


def _load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _record(bits, acc, metric="rect_delta_s"):
    return {"metric": metric, "bits": [[hex(bits), -10, "0x1", -130]],
            "accuracy_bits": acc}


def _write(path, records):
    path.write_text(json.dumps(records))
    return str(path)


def test_diff_prints_changes_and_tally(tmp_path, capsys):
    a = {"w:1:0": _record(5, 120), "w:1:1": _record(7, 119),
         "w:1:2": _record(9, 100), "w:1:3": _record(11, 90),
         "w:1:4": _record(13, 110), "w:1:5": _record(15, 80)}
    b = dict(a)
    b["w:1:1"] = _record(6, 118)   # one bit lower
    b["w:1:3"] = _record(12, 87)   # three bits lower, the worst
    b["w:1:4"] = _record(14, 112)  # higher
    b["w:1:5"] = _record(16, 80)   # same accuracy, other bits
    tool = _load_tool()
    assert tool.diff(_write(tmp_path / "a.json", a),
                     _write(tmp_path / "b.json", b)) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[:4] == [
        "w:1:1 rect_delta_s: bits differ, accuracy_bits 119 -> 118 (-1)",
        "w:1:3 rect_delta_s: bits differ, accuracy_bits 90 -> 87 (-3)",
        "w:1:4 rect_delta_s: bits differ, accuracy_bits 110 -> 112 (+2)",
        "w:1:5 rect_delta_s: bits differ, accuracy_bits 80 -> 80 (+0)"]
    assert lines[4:] == [
        "4 of 6 ops differ: 2 lower in accuracy (worst -3, w:1:3), 1 higher, "
        "1 equal with changed bits",
        "rect_delta_s: 1 higher, 2 lower, 1 equal with changed bits"]


def test_diff_counts_per_metric(tmp_path, capsys):
    # two metrics change, a third does not: one line each for the two, in
    # the order of their names, after the tally line
    a = {"w:1:0": _record(5, 120, "multipoint_s"),
         "w:1:1": _record(7, 90, "multipoint_s"),
         "w:1:2": _record(9, 100, "multipoint_s"),
         "w:1:3": _record(11, 100, "naive_s"),
         "w:1:4": _record(13, 110, "binsplit_exact_s"),
         "w:2:0": _record(15, 80, "naive_s")}
    b = dict(a)
    b["w:1:0"] = _record(6, 125, "multipoint_s")   # higher
    b["w:1:1"] = _record(8, 101, "multipoint_s")   # higher
    b["w:1:2"] = _record(10, 100, "multipoint_s")  # same accuracy, other bits
    b["w:1:4"] = _record(14, 104, "binsplit_exact_s")  # lower
    tool = _load_tool()
    assert tool.diff(_write(tmp_path / "a.json", a),
                     _write(tmp_path / "b.json", b)) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[4:] == [
        "4 of 6 ops differ: 1 lower in accuracy (worst -6, w:1:4), 2 higher, "
        "1 equal with changed bits",
        "binsplit_exact_s: 0 higher, 1 lower, 0 equal with changed bits",
        "multipoint_s: 2 higher, 0 lower, 1 equal with changed bits"]


def test_diff_of_equal_dumps(tmp_path, capsys):
    a = {"w:1:0": _record(5, 120), "w:2:0": _record(7, 119)}
    tool = _load_tool()
    assert tool.diff(_write(tmp_path / "a.json", a),
                     _write(tmp_path / "b.json", a)) == 0
    assert capsys.readouterr().out.strip() == (
        "0 of 2 ops differ: 0 lower in accuracy, 0 higher, 0 equal with "
        "changed bits")


def test_diff_of_missing_and_failed_ops(tmp_path, capsys):
    # an op only in one dump, and one that raised on one side, differ but
    # carry no accuracy change
    a = {"w:1:0": _record(5, 120),
         "w:1:1": {"metric": "naive_s", "error": "DenominatorZeroError()"}}
    b = {"w:1:1": _record(7, 119, "naive_s"), "w:1:2": _record(9, 100)}
    pa, pb = _write(tmp_path / "a.json", a), _write(tmp_path / "b.json", b)
    tool = _load_tool()
    assert tool.diff(pa, pb) == 1
    assert capsys.readouterr().out.strip().splitlines() == [
        "w:1:0: only in %s" % pa,
        "w:1:1 naive_s: bits differ, accuracy_bits None -> 119",
        "w:1:2: only in %s" % pb,
        "3 of 3 ops differ: 0 lower in accuracy, 0 higher, 0 equal with "
        "changed bits"]
