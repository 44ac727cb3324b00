"""Command-line interface: spec-file round trips, command output and exit
codes."""

import math
from fractions import Fraction

import pytest

import holoeval.balls as bl
from holoeval.balls import Ball
from holoeval.cli import SpecFileError, main, parse_spec_file
from holoeval.poly import bipoly_to_text
from holoeval.recmat import unroll_rational


def serialize_spec_file(mat, init=None) -> str:
    """The spec-file text of a matrix and an initial vector, the inverse of
    parse_spec_file."""
    lines = ["order %d" % mat.r]
    if not mat.has_trivial_den():
        lines.append("den %s" % bipoly_to_text(mat.den))
    for i in range(mat.r):
        for j in range(mat.r):
            e = mat.entries[i][j]
            if not e.is_zero():
                lines.append("entry %d %d %s" % (i, j, bipoly_to_text(e)))
    if init is not None:
        for i, v in enumerate(init):
            lines.append("init %d %s" % (i, bl.to_decimal(v)))
    return "\n".join(lines) + "\n"


FIB_SPEC = """\
# Fibonacci
order 2
entry 0 1 1
entry 1 0 1
entry 1 1 1
init 0 0
init 1 1
"""

RISING_SPEC = """\
order 1
entry 0 0 x+k
init 0 1
"""

DEN_SPEC = """\
order 1
den k - 3
entry 0 0 1
init 0 1
"""


class TestSpecFile:
    def test_roundtrip(self):
        mat, vec = parse_spec_file(FIB_SPEC)
        text = serialize_spec_file(mat, vec)
        mat2, vec2 = parse_spec_file(text)
        assert mat2 == mat
        assert all(a == b for a, b in zip(vec, vec2))

    def test_roundtrip_with_den(self):
        mat, vec = parse_spec_file("order 1\nden 1+k+x\nentry 0 0 x+k+5\ninit 0 1/3\n")
        mat2, vec2 = parse_spec_file(serialize_spec_file(mat, vec))
        assert mat2 == mat and vec2[0].contains(Fraction(1, 3))

    def test_missing_entries_are_zero(self):
        mat, _ = parse_spec_file("order 2\nentry 0 0 1\n")
        assert mat.entries[0][1].is_zero()
        assert mat.entries[1][1].is_zero()

    def test_init_exponent_bound(self):
        with pytest.raises(SpecFileError, match="line 3"):
            parse_spec_file("order 1\nentry 0 0 1\ninit 0 1e999999999\n")

    def test_errors_carry_line_numbers(self):
        with pytest.raises(Exception) as err:
            parse_spec_file("order 1\nentry 0 0 x+**k\n")
        assert "line 2" in str(err.value)
        with pytest.raises(Exception):
            parse_spec_file("entry 0 0 1\n")  # no order
        with pytest.raises(Exception):
            parse_spec_file("order 2\nentry 5 0 1\n")  # out of range

    @pytest.mark.parametrize("text, line", [
        ("order 2\nentry 0 0 1\ninit 5 7\n", 3),
        ("order 2\ninit -1 3\nentry 0 0 1\n", 2),
        ("init 2 1\norder 2\n", 1),  # the order may come later
        ("order 2\nentry 5 0 1\n", 2),
        ("order 2\nentry 0 1 k\nentry 1 1 1\nentry 0 1 x\n", 4),
        ("order 2\ninit 1 3\ninit 0 1\ninit 1 4\n", 4)])
    def test_index_out_of_range_or_repeated(self, text, line, tmp_path,
                                            capsys):
        # an index outside [0, order) or given twice is an error of its
        # line, not dropped or overridden
        with pytest.raises(SpecFileError, match="line %d" % line):
            parse_spec_file(text)
        spec = tmp_path / "bad.spec"
        spec.write_text(text)
        assert main(["eval", str(spec), "5"]) == 2
        assert "line %d" % line in capsys.readouterr().err


class TestCommands:
    def test_eval_fibonacci(self, tmp_path, capsys):
        spec = tmp_path / "fib.spec"
        spec.write_text(FIB_SPEC)
        assert main(["eval", str(spec), "10"]) == 0
        out = capsys.readouterr().out
        assert "55" in out and "89" in out

    def test_eval_rising(self, tmp_path, capsys):
        spec = tmp_path / "rising.spec"
        spec.write_text(RISING_SPEC)
        assert main(["eval", str(spec), "5", "--z", "0.5", "--prec-bits", "64"]) == 0
        out = capsys.readouterr().out
        assert "29.53125" in out

    def test_eval_malformed_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_text("order 1\nentry 0 0 x+**k\n")
        assert main(["eval", str(spec), "5"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_eval_denominator_zero_exits_3(self, tmp_path, capsys):
        spec = tmp_path / "den.spec"
        spec.write_text(DEN_SPEC)
        assert main(["eval", str(spec), "10", "--z", "1"]) == 3

    def test_gamma_domain_error_exits_4(self, capsys):
        assert main(["gamma", "0"]) == 4

    def test_gamma_value(self, capsys):
        assert main(["gamma", "5", "--prec-bits", "64"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("24.0") or out.startswith("24 ")

    def test_gamma_sqrt_pi(self, capsys):
        assert main(["gamma", "0.5", "--prec-bits", "256"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("1.7724538509055160")

    def test_gamma_digits_option(self, capsys):
        assert main(["gamma", "1.25", "--digits", "50", "--method", "1f1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("0.90640247705547707")
        # the digits and radius printed when 1F1 took the whole product
        assert out.strip() == ("0.906402477055477077982671288966918000748791"
                               "920720015 ± 17e-52")

    def test_rising_factorial_100(self, capsys):
        assert main(["rising", "1", "100", "--prec-bits", "600"]) == 0
        mid = capsys.readouterr().out.split("±")[0].strip()
        # contains the exact factorial
        val = bl.parse_decimal(mid, 600)
        assert abs(val.mid_fraction() - math.factorial(100)) < Fraction(1, 10)

    def test_engine_and_step_on_stderr(self, tmp_path, capsys):
        # the default engine follows the recurrence: (z)_n is shift
        # symmetric, c(k+1) = (k+1) c(k) is not; binsplit-exact reports
        # the row length of its one subproduct, isqrt(n deg_x) + 1
        assert main(["rising", "1/3", "100"]) == 0
        assert "algorithm rect-split" in capsys.readouterr().err
        spec = tmp_path / "factorial.spec"
        spec.write_text("order 1\nentry 0 0 1+k\ninit 0 1\n")
        assert main(["eval", str(spec), "40", "--prec-bits", "200"]) == 0
        out, err = capsys.readouterr()
        assert "algorithm rect-delta" in err
        assert str(math.factorial(40)) in out
        assert main(["rising", "1/3", "100", "--algorithm",
                     "binsplit-exact"]) == 0
        assert "algorithm binsplit-exact, m=11," in capsys.readouterr().err

    def test_counts_on_stderr(self, tmp_path, capsys):
        # rising and eval print the same count line; at the short z = 1/4
        # the naive tree makes its 99 products as exact integer merges
        # (the product has fewer than 1024 bits), at z = 1/3 none; the
        # factors x + k take one dot per k-column (scalar 2); adds are
        # Horner at 2 indices of the midpoint sum, its one difference and 99
        # steps (the radius sum, all zero at the exact z, takes none)
        spec = tmp_path / "rising.spec"
        spec.write_text(RISING_SPEC)
        lines = []
        for argv in (["rising", "1/4", "100"], ["rising", "1/3", "100"],
                     ["eval", str(spec), "100", "--z", "1/4"]):
            assert main(argv + ["--algorithm", "naive",
                                "--prec-bits", "1024"]) == 0
            lines.append(capsys.readouterr().err.strip())
        assert lines[0].endswith("nonscalar=99, scalar=2, adds=102, "
                                 "exact_merges=99)")
        assert lines[1].endswith(", exact_merges=0)")
        assert lines[2] == lines[0]

    def test_rising_n0(self, capsys):
        assert main(["rising", "2.5", "0"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_printed_ball_contains_oracle(self, tmp_path, capsys):
        spec = tmp_path / "rising.spec"
        spec.write_text(RISING_SPEC)
        assert main(["eval", str(spec), "9", "--z", "1/2", "--prec-bits", "96"]) == 0
        out = capsys.readouterr().out.strip().splitlines()[0]
        printed = out.split("=", 1)[1].strip()
        ball = bl.parse_decimal(printed, 128)
        mat, _ = parse_spec_file(RISING_SPEC)
        exact = unroll_rational(mat, Fraction(1, 2), 9)[0][0]
        assert ball.contains(exact)


class TestArguments:
    """Out-of-range numbers and unreadable literals are argument errors:
    argparse's usage message and exit 2, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["rising", "1/3", "5", "--prec-bits", "1"],
        ["gamma", "2", "--prec-bits", "-3"],
        ["rising", "1/3", "5", "--digits", "0"],
        ["rising", "1/3", "-1"],
        ["eval", "fib.spec", "-1"],
        ["rising", "1/3", "5", "--m", "0"],
        ["eval", "fib.spec", "5", "--m", "0"],
        ["rising", "abc", "3"],
        ["eval", "fib.spec", "5", "--z", "1/0"],
        ["gamma", "1e999999999"],
    ])
    def test_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "error: argument" in capsys.readouterr().err

    def test_smallest_accepted_values(self, capsys):
        # --digits 1 is 6 bits, not the 64-bit default
        assert main(["rising", "1/3", "2", "--digits", "1", "--m", "1"]) == 0
        acc = int(capsys.readouterr().err.split("accuracy:")[1].split()[0])
        assert 0 < acc <= 6
        assert main(["gamma", "2", "--prec-bits", "2"]) == 0

    def test_gamma_beyond_float_range_exits_4(self, capsys):
        assert main(["gamma", "1e400"]) == 4
        assert main(["gamma", "1e400", "--method", "1f1"]) == 4

    def test_gamma_1f1_long_shift_exits_4(self, capsys):
        assert main(["gamma", "1e20", "--method", "1f1"]) == 4
        assert "2^20" in capsys.readouterr().err
