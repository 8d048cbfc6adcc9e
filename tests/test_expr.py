"""Expression parsing, Taylor-mode derivatives, evaluation, and printing.

sympy acts as the independent oracle: it reparses the same text with its own
grammar and supplies reference values and derivatives.
"""
import math
import random
import warnings

import numpy as np
import pytest
import sympy as sp
from hypothesis import given
from hypothesis import strategies as st

from evolutes.errors import DomainError, ParseError
from evolutes.expr import evaluate, jets, parse, parse_curve, to_source

SAMPLES = [
    "1 + 2*t",
    "t^3 - 4*t",
    "sin(t)*cos(2*t)",
    "exp(-t^2)",
    "log(t + 3)/sqrt(t + 2)",
    "tan(t/4)",
    "1/(1 + t^2)",
    "-t^2 + 2^3",
    "t^0.5 * t^1.5",
    "(t + 1)^4 / (t + 2)",
]

_T = sp.Symbol("t")


def _oracle(text):
    return sp.sympify(text.replace("^", "**"), locals={"t": _T})


@pytest.mark.parametrize("text", SAMPLES)
def test_evaluate_matches_sympy(text):
    e = parse(text)
    ref = sp.lambdify(_T, _oracle(text), "numpy")
    ts = np.linspace(0.2, 2.5, 23)
    got = evaluate(e, ts)
    assert np.allclose(got, ref(ts), rtol=1e-12, atol=1e-12)
    # a float is evaluated as a one-element array
    for t in (0.2, 1.0, 2.5):
        assert math.isclose(evaluate(e, t), float(ref(t)),
                            rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("text", SAMPLES)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_derivatives_match_sympy(text, order):
    ref = sp.lambdify(_T, sp.diff(_oracle(text), _T, order), "numpy")
    ts = np.linspace(0.2, 2.5, 11)
    want = np.asarray(ref(ts), dtype=float)
    got = jets((parse(text),), ts, order)[order, :, 0]
    assert np.allclose(got, want,
                       rtol=1e-10, atol=1e-10 * (1 + np.abs(want).max()))


def test_roundtrip_preserves_bitwise_values():
    ts = np.linspace(0.1, 2.9, 100)
    for text in SAMPLES:
        e = parse(text)
        again = parse(to_source(e))
        a, b = evaluate(e, ts), evaluate(again, ts)
        assert np.array_equal(a, b), text


def test_interning_shares_nodes():
    e = parse("sin(t)*sin(t)")
    assert e.lhs is e.rhs


def test_constant_exponent_folds():
    assert to_source(parse("t^(1+1)")) == "t^2"


@pytest.mark.parametrize("text,offset", [
    ("cos(", 4),
    ("", 0),
    ("t +", 3),
    ("(t", 2),
    ("t ^ t", 4),
    ("2t", 1),
    ("q+1", 0),
    ("t, t", 1),
])
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.offset == offset
    assert isinstance(info.value, ValueError)


def test_parse_curve_offsets_are_global():
    for text, offset in (("t, t, cos(", 10), ("t,,t", 2),
                         ("sin(t, t), t, t", 5)):
        with pytest.raises(ParseError) as info:
            parse_curve(text)
        assert info.value.offset == offset
    with pytest.raises(ParseError):
        parse_curve("t, t")


@pytest.mark.parametrize("text,t", [
    ("log(t)", -1.0),
    ("log(t)", 0.0),
    ("sqrt(t)", -2.0),
    ("1/t", 0.0),
    ("t^0.5", -1.0),
    ("t^-1", 0.0),
])
def test_domain_errors(text, t):
    with pytest.raises(DomainError, match=f"at t={t:.9g}$"):
        evaluate(parse(text), t)


@pytest.mark.parametrize("text, order", [
    ("sqrt(t)", 1), ("t^0.5", 1), ("(t*t)^0.75", 1), ("t^1.5", 2),
    ("(t*t + t)^2.5", 3), ("t^4.5", 5), ("(2*t)^4.5", 5),
])
def test_zero_base_has_no_derivative(text, order):
    # f^p at a zero of f: the derivatives below p are 0, those above p
    # do not exist
    e = parse(text)
    below = jets((e,), np.array([0.0]), order - 1)
    assert np.array_equal(below, np.zeros((order, 1, 1)))
    with pytest.raises(DomainError, match="at t=0"):
        jets((e,), np.array([1.0, 0.0]), order)


def test_cusp_curve_stack_is_exact_at_zero():
    # closed form (t^n) and repeated products ((t*t)^2) alike
    want = np.zeros((7, 3))
    want[2, 0], want[3, 1], want[4, 2] = 2.0, 6.0, 24.0
    for text in ("t^2, t^3, t^4", "t^2, t*t*t, (t*t)^2"):
        stack = jets(parse_curve(text), 0.0, 6)[:, 0, :]
        assert np.array_equal(stack, want), text


def test_overflow_saturates_to_inf():
    assert evaluate(parse("exp(t)"), 1e4) == math.inf
    assert evaluate(parse("-exp(t)"), 1e4) == -math.inf


def test_a_float_gives_the_arrays_value_bit_for_bit():
    for text in SAMPLES:
        e = parse(text)
        ts = np.linspace(0.3, 2.2, 17)
        point = [evaluate(e, float(t)) for t in ts]
        assert all(type(v) is float for v in point), text
        np.testing.assert_array_equal(point, evaluate(e, ts), err_msg=text)


def test_a_constant_subtree_folds_to_numpys_value():
    ts = np.linspace(-3.0, 3.0, 13)
    np.testing.assert_array_equal(evaluate(parse("sin(0.7)*t"), ts),
                                  np.sin(0.7) * ts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert evaluate(parse("exp(1000)"), 2.0) == math.inf
        assert evaluate(parse("exp(1000) + 0*t"), ts).tolist() == [math.inf] * 13
        assert parse("t^exp(1000)").exponent == math.inf    # folded at parse


# ----------------------------------------------------------------- fuzzing

_FUNCS = ("sin", "cos", "tan", "exp", "log", "sqrt")
_OPS = ("+", "-", "*", "/")


def random_expression(rng: random.Random, depth: int = 0) -> str:
    """Random expression text over the full grammar, bounded depth."""
    if depth >= 3 or rng.random() < 0.3:
        kind = rng.random()
        if kind < 0.45:
            return "t"
        if kind < 0.8:
            return repr(round(rng.uniform(-3, 3), 3))
        return repr(rng.randint(1, 5))
    kind = rng.random()
    if kind < 0.55:
        op = rng.choice(_OPS)
        return (f"({random_expression(rng, depth + 1)} {op} "
                f"{random_expression(rng, depth + 1)})")
    if kind < 0.75:
        fn = rng.choice(_FUNCS)
        return f"{fn}({random_expression(rng, depth + 1)})"
    if kind < 0.9:
        return f"{random_expression(rng, depth + 1)}^{rng.randint(1, 3)}"
    return f"-{random_expression(rng, depth + 1)}"


def check_fuzzed(text: str, pts=None) -> int:
    """Derivative-vs-FD plus round-trip on one expression; returns #points."""
    e = parse(text)
    again = parse(to_source(e))
    used = 0
    h = 1e-5
    for t in pts if pts is not None else np.linspace(0.31, 2.71, 9):
        t = float(t)
        try:
            val = evaluate(e, t)
            lo, hi = evaluate(e, t - h), evaluate(e, t + h)
            lo2, hi2 = evaluate(e, t - h / 2), evaluate(e, t + h / 2)
            slope = float(jets((e,), t, 1)[1, 0, 0])
        except DomainError:
            continue
        assert evaluate(again, t) == val
        if not all(map(math.isfinite, (val, lo, hi, lo2, hi2, slope))):
            continue
        if max(abs(val), abs(lo), abs(hi), abs(slope)) > 1e5:
            continue
        fd1 = (hi - lo) / (2 * h)
        fd2 = (hi2 - lo2) / h
        tol = 1e-6 * (1 + abs(val)) + 1e-4 * abs(slope)
        if abs(fd1 - fd2) > tol / 2:
            continue    # FD itself unreliable here (steep higher derivatives)
        fd = (4.0 * fd2 - fd1) / 3.0
        assert abs(slope - fd) <= tol, (text, t, slope, fd)
        used += 1
    return used


@given(st.integers(min_value=0, max_value=10 ** 9))
def test_fuzzed_expressions(seed):
    rng = random.Random(seed)
    check_fuzzed(random_expression(rng))
