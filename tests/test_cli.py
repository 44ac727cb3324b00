"""Command-line interface: spec-file round trips, command output and exit
codes."""

import math
from fractions import Fraction

import pytest

import holoeval.balls as bl
from holoeval.balls import Ball
from holoeval.cli import main, parse_spec_file
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

    def test_errors_carry_line_numbers(self):
        with pytest.raises(Exception) as err:
            parse_spec_file("order 1\nentry 0 0 x+**k\n")
        assert "line 2" in str(err.value)
        with pytest.raises(Exception):
            parse_spec_file("entry 0 0 1\n")  # no order
        with pytest.raises(Exception):
            parse_spec_file("order 2\nentry 5 0 1\n")  # out of range


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

    def test_rising_factorial_100(self, capsys):
        assert main(["rising", "1", "100", "--prec-bits", "600"]) == 0
        mid = capsys.readouterr().out.split("±")[0].strip()
        # contains the exact factorial
        val = bl.parse_decimal(mid, 600)
        assert abs(val.mid_fraction() - math.factorial(100)) < Fraction(1, 10)

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
