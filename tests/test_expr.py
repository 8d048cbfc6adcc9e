"""Expression parsing, Taylor-mode derivatives, evaluation, and printing.

sympy acts as the independent oracle: it reparses the same text with its own
grammar and supplies reference values and derivatives.  Parse-time folding
of subtrees free of t is checked against ``UnfoldedPass``, the pass that
computes every such subtree again; ``check_fold`` runs that check on any
number of fuzzed expressions:

    PYTHONPATH=src:tests python -c 'import test_expr as t; t.check_fold(10**4)'
"""
import math
import random
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import given
from hypothesis import strategies as st

from evolutes import expr
from evolutes.cli import entry
from evolutes.errors import DomainError, ParseError
from evolutes.expr import (Binary, Const, Pow, Unary, _Pass, evaluate, jets,
                           parse, parse_curve, to_source)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

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


@pytest.mark.parametrize("text, offset, what", [
    ("t^(exp(1000))", 2, "exponent"),
    ("t^(0*exp(1000))", 2, "exponent"),
    ("1e999*t", 0, "number"),
])
def test_a_number_that_is_not_finite_is_refused(text, offset, what):
    # to_source would print it as inf or nan, which no parse reads back
    with pytest.raises(ParseError, match=f"^{what} is not finite") as info:
        parse(text)
    assert info.value.offset == offset


def test_a_constant_that_is_not_finite_is_kept_as_its_tree():
    e = parse("exp(1000)*t")
    assert to_source(e) == "exp(1000) * t"
    assert evaluate(parse(to_source(e)), 1.0) == math.inf


def test_cli_refuses_an_exponent_that_is_not_finite(tmp_path, capsys):
    argv = ["frenet", "--expr", "t^(exp(1000)),t,t^2", "--range", "1:2",
            "--out", str(tmp_path / "f.csv")]
    assert entry(argv) == 2
    assert capsys.readouterr().err == (
        "usage error: exponent is not finite (offset 2)\n")


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


# ----------------------------------------------------------------- folding

class UnfoldedPass(_Pass):
    """The pass as it ran before parse-time folding: every node but a Const
    is computed at every pass, whether it depends on t or not."""

    def jet(self, e):
        if type(e) is Const:
            return e.value
        got = self.memo.get(e)
        if got is None:
            got = self.memo[e] = self._node(e)
        return got


def unfolded_jets(exprs, t, order: int) -> np.ndarray:
    """``jets`` through one UnfoldedPass (at most expr._SLICE parameters)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    assert len(t) <= expr._SLICE
    out = np.zeros((order + 1, len(t), len(exprs)))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        run = UnfoldedPass(t, order)
        for i, e in enumerate(exprs):
            jet = run.jet(e)
            if isinstance(jet, float):
                out[0, :, i] = jet
            else:
                out[:, :, i] = jet
    return out


def _outcome(fn, *args):
    """The bytes of fn's jets, or the message of its DomainError."""
    try:
        return fn(*args).tobytes()
    except DomainError as exc:
        return f"DomainError: {exc}"


def assert_fold_exact(exprs, ts):
    """jets at orders 0-5 equal the unfolded pass's bit for bit, or both
    raise the same DomainError."""
    for order in range(6):
        assert _outcome(jets, exprs, ts, order) == \
            _outcome(unfolded_jets, exprs, ts, order), \
            ([to_source(e) for e in exprs], order)


def _children(e):
    if isinstance(e, Unary):
        return (e.arg,)
    if isinstance(e, Binary):
        return (e.lhs, e.rhs)
    if isinstance(e, Pow):
        return (e.base,)
    return ()


def assert_folds_every_defined_constant(exprs) -> int:
    """A node is folded exactly when it is free of t and the unfolded pass
    over no parameters computes it; returns the number folded, Consts
    aside."""
    free = {}       # id -> whether the node is free of t

    def visit(e):
        if id(e) not in free:
            kids = [visit(c) for c in _children(e)]
            free[id(e)] = not isinstance(e, expr.Var) and all(kids)
            want = None
            if free[id(e)] and not isinstance(e, Const):
                try:
                    want = UnfoldedPass(np.empty(0), 0).jet(e)
                except DomainError:
                    pass
                if want is not None:
                    assert type(e.fold) is float, to_source(e)
                    assert (np.float64(e.fold).tobytes()
                            == np.float64(want).tobytes()), to_source(e)
                    folded.append(e)
            if want is None and not isinstance(e, Const):
                assert e.fold is None, to_source(e)
        return free[id(e)]

    folded = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for e in exprs:
            visit(e)
    return len(folded)


FOLD_SAMPLES = [
    "sqrt(2)*t + sin(1)*cos(t)",
    "sqrt(1.37 + ((1.95 + 1.08^2)^1.5)^2)/1.001",   # a fresh-curves curvature
    "tan(0.3)*t^2 - exp(-1)/log(3)",
    "(1 + 2)^0.5 * t + cos(1)*sin(1)",
    "sqrt(0)*t + 0^0.5",
    "-(2^3)/t + (t + sin(2))^2.5",
    "log(-1)*t",
    "t + 1/(1 - 1)",
    "sqrt(-2) + t",
    "(-8)^(1/3) * t",
]


@pytest.mark.parametrize("text", SAMPLES + FOLD_SAMPLES)
def test_folded_jets_match_the_unfolded_pass(text):
    e = parse(text)
    assert_folds_every_defined_constant((e,))
    assert_fold_exact((e,), np.linspace(0.2, 2.5, 11))


def check_fold(count: int, seed: int = 26) -> int:
    """Fold checks on count fuzzed expressions: every defined subtree free
    of t is folded, jets at orders 0-5 are the unfolded pass's bit for bit,
    and the printed text reparses to the same jets; returns the number of
    folded nodes."""
    rng = random.Random(seed)
    ts = np.linspace(0.31, 2.71, 9)
    folded = 0
    for _ in range(count):
        e = parse(random_expression(rng))
        folded += assert_folds_every_defined_constant((e,))
        assert_fold_exact((e,), ts)
        again = parse(to_source(e))
        assert to_source(again) == to_source(e)
        assert _outcome(jets, (again,), ts, 5) == _outcome(jets, (e,), ts, 5)
    return folded


def test_folded_jets_match_the_unfolded_pass_on_fuzzed_expressions():
    assert check_fold(300) > 100


def test_folded_jets_match_the_unfolded_pass_on_the_fresh_curves_draw():
    folded = 0
    for seed, curves, degenerate in ((7, 8, False), (1, 40, True)):
        draw = workloads.FreshCurves(seed, curves, degenerate)
        for twin in draw.twins:
            flag, text, _, span = twin.source(draw.scale(0))
            exprs = (parse_curve(text) if flag == "--expr"
                     else tuple(map(parse, text.split(";"))))
            folded += assert_folds_every_defined_constant(exprs)
            a, b = map(float, span.split(":"))
            assert_fold_exact(exprs, np.linspace(a, b, 17))
    assert folded > 0


def test_a_pass_makes_no_kernel_call_for_a_folded_subtree(monkeypatch):
    e = parse("sqrt(2)*t + sin(1)*cos(t)")
    calls = []
    for name in ("jet_sqrt", "jet_sin_cos"):
        def counted(x, kernel=getattr(expr, name), name=name):
            calls.append((name, x.shape))
            return kernel(x)
        monkeypatch.setattr(expr, name, counted)
    ts = np.linspace(0.5, 1.5, 5)
    jets((e,), ts, 3)
    assert calls == [("jet_sin_cos", (4, 5))]          # cos(t) alone
    calls.clear()
    unfolded_jets((e,), ts, 3)
    assert sorted(calls) == [("jet_sin_cos", (1,)), ("jet_sin_cos", (4, 5)),
                             ("jet_sqrt", (1,))]


@pytest.mark.parametrize("text, printed", [
    ("sqrt(2)*t + sin(1)*cos(t)", "sqrt(2) * t + sin(1) * cos(t)"),
    ("sqrt(1.37 + ((1.95 + 1.08^2)^1.5)^2)/1.001",
     "sqrt(1.37 + ((1.95 + 1.08^2)^1.5)^2) / 1.001"),
    ("-(2^3)/t + (t + sin(2))^2.5", "-2^3 / t + (t + sin(2))^2.5"),
    ("log(-1)*t", "log(-1) * t"),
    ("t^(1/4)", "t^0.25"),
])
def test_folding_keeps_the_printed_tree(text, printed):
    e = parse(text)
    assert to_source(e) == printed
    assert repr(e) == f"<expr {printed}>"


@pytest.mark.parametrize("argv, message", [
    (("frenet", "--expr", "log(-1)*t,t,t^2", "--range", "1:2"),
     "log of non-positive value at t=1"),
    (("evolute", "--ktau", "1/0;1", "--range", "0:1"),
     "division by zero at t=0"),
    # an exponent must fold at parse, so its failure names its offset
    (("frenet", "--expr", "t^(log(-1)),t,t^2", "--range", "1:2"),
     "log of non-positive value (offset 2)"),
])
def test_an_undefined_constant_keeps_its_message(argv, message, tmp_path,
                                                 capsys):
    assert entry([*argv, "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
