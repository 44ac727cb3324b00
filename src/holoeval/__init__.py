"""holoeval: evaluation of parametric holonomic sequences with rigorous
ball arithmetic.

A holonomic sequence satisfies a linear recurrence with polynomial
coefficients; here the coefficients may additionally involve a real or
complex parameter.  The package evaluates the n-th term by six
interchangeable algorithms (naive iteration, exact binary splitting, fast
multipoint evaluation, and three rectangular-splitting variants) behind one
entry point, eval_dispatch, and uses them for rising factorials and
very-high-precision gamma computation.
"""

from .balls import (Ball, BallDomainError, ComplexBall, add, add_int, div,
                    div_int, exp, inv, log, log2_const, mul, mul_2exp,
                    mul_int, parse_decimal, pi, pow_int, reduce, sqrt,
                    sub, to_decimal)
from .poly import (BiPoly, UniPoly, bipoly_from_text, bipoly_to_text,
                   product_tree, taylor_shift_basecase,
                   taylor_shift_convolution)
from .recmat import (DenominatorZeroError, RecMatrix, ScalarRecurrence,
                     apply_to_vector, companion, eval_factor,
                     product_binsplit_exact, rising_factorial_matrix,
                     unroll_rational)
from .engines import (ALGORITHMS, EvalPlan, EvalReport, OpCounter, PowerTable,
                      bivariate_delta, eval_dispatch, make_plan)
from .special import (BernoulliCache, RisingDeltaCoeffs, StirlingParams,
                      bernoulli_even, gamma_1f1, gamma_stirling,
                      hyp1f1_gamma_matrix, rising_delta_coeffs,
                      rising_factorial, rising_factorial_report,
                      stirling_params)

__version__ = "0.1.0"

__all__ = [
    "Ball", "ComplexBall", "BallDomainError", "DenominatorZeroError",
    "UniPoly", "BiPoly", "RecMatrix", "ScalarRecurrence",
    "EvalPlan", "EvalReport", "OpCounter", "PowerTable",
    "BernoulliCache", "RisingDeltaCoeffs", "StirlingParams",
    "ALGORITHMS",
    "add", "add_int", "sub", "mul", "mul_int", "mul_2exp", "div", "div_int",
    "inv", "sqrt", "exp", "log", "pow_int", "pi", "log2_const",
    "reduce", "to_decimal", "parse_decimal",
    "taylor_shift_basecase", "taylor_shift_convolution", "product_tree",
    "bipoly_from_text", "bipoly_to_text",
    "companion", "eval_factor", "product_binsplit_exact",
    "apply_to_vector", "unroll_rational", "rising_factorial_matrix",
    "make_plan", "eval_dispatch",
    "bivariate_delta",
    "rising_factorial", "rising_factorial_report", "rising_delta_coeffs",
    "bernoulli_even", "stirling_params", "gamma_stirling",
    "gamma_1f1", "hyp1f1_gamma_matrix",
]
