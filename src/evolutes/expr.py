"""Tiny expression layer for curve components.

Supports one free variable t, the functions sin/cos/tan/exp/log/sqrt, the
four arithmetic operators, and powers with constant exponent.  Expressions
are parsed by recursive descent with conventional precedence
(pow > unary minus > mul/div > add/sub, binary operators left associative,
no implicit multiplication).

Derivatives come from one forward pass through the tree (``jets``): every
node becomes its truncated Taylor jet, the stack of its derivatives
0..order at the query parameters, built with the kernels of ``taylor``.
``evaluate`` is the order-0 case of the same pass.  Domain errors are
decided on the values and name the first offending parameter.

Within one parse (``parse_curve`` is one parse for all three components)
nodes are interned: structurally equal subtrees are the same object, so a
pass computes each shared subtree once.  A subtree free of t is folded as
the parser makes it: its float is computed once, by the pass's own scalar
branches, and kept on the node (``fold``), so no pass visits it; the tree
itself is kept for printing.  Nothing is kept between parses.  Angles are
radians.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import DomainError, ParseError
from .taylor import (jet_div, jet_exp, jet_log, jet_mul, jet_pow, jet_sin_cos,
                     jet_sqrt)

__all__ = [
    "Expr", "Const", "Var", "Unary", "Binary", "Pow",
    "parse", "parse_curve", "jets", "evaluate", "to_source",
]

_FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt")


class Expr:
    # fold: the node's float when it does not depend on t (a Const's value,
    # or a subtree folded at parse), else None.  A subtree free of t whose
    # value raises DomainError is not folded: every pass raises it and names
    # the parameter, as for a subtree that depends on t.
    __slots__ = ("fold",)

    def __repr__(self):
        return f"<expr {to_source(self)}>"


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = self.fold = float(value)


class Var(Expr):
    __slots__ = ()

    def __init__(self):
        self.fold = None


class Unary(Expr):
    __slots__ = ("op", "arg")

    def __init__(self, op, arg):
        self.op = op
        self.arg = arg
        self.fold = None


class Binary(Expr):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op, lhs, rhs):
        self.op = op
        self.lhs = lhs
        self.rhs = rhs
        self.fold = None


class Pow(Expr):
    """base ** exponent with a constant real exponent."""

    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        self.base = base
        self.exponent = float(exponent)
        self.fold = None


# ---------------------------------------------------------------------------
# tokenizer

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            m = _NUMBER.match(text, i)
            if not m:
                raise ParseError("malformed number", i)
            value = float(m.group())
            if not math.isfinite(value):
                raise ParseError("number is not finite", i)
            tokens.append(("num", value, i))
            i = m.end()
            continue
        if ch.isalpha() or ch == "_":
            m = _IDENT.match(text, i)
            tokens.append(("ident", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^(),":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    """Recursive descent over one text; ``pool`` interns the nodes it makes,
    for every expression of the text, and ``constants``, a pass over no
    parameters, folds those free of t."""

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.pool = {}
        self.constants = _Pass(np.empty(0), 0)

    def node(self, cls, *fields):
        # children are keyed by identity: the pool keeps them alive
        key = (cls,) + tuple(id(f) if isinstance(f, Expr) else repr(f)
                             for f in fields)
        got = self.pool.get(key)
        if got is None:
            got = self.pool[key] = cls(*fields)
            children = [f for f in fields if isinstance(f, Expr)]
            if children and all(c.fold is not None for c in children):
                try:
                    got.fold = self.constants.jet(got)
                except DomainError:
                    pass        # left to every pass, which names t
        return got

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        return tok

    # expr := term (('+'|'-') term)*
    def expr(self):
        node = self.term()
        while self.peek()[0] in "+-":
            op = self.next()[0]
            node = self.node(Binary, op, node, self.term())
        return node

    # term := factor (('*'|'/') factor)*
    def term(self):
        node = self.factor()
        while self.peek()[0] in "*/":
            op = self.next()[0]
            node = self.node(Binary, op, node, self.factor())
        return node

    # factor := '-' factor | power      (pow binds tighter than unary minus)
    def factor(self):
        if self.peek()[0] == "-":
            self.next()
            return self.node(Unary, "neg", self.factor())
        return self.power()

    # power := atom ('^' factor)?       (right associative, constant exponent)
    def power(self):
        node = self.atom()
        if self.peek()[0] == "^":
            self.next()
            off = self.peek()[2]
            exponent = self.factor()
            value = exponent.fold
            if value is None:
                # t in the exponent, or a value that raises: the pass over
                # no parameters raises the DomainError of the latter, which
                # is refused at the exponent's offset
                try:
                    self.constants.jet(exponent)
                except DomainError as exc:
                    raise ParseError(str(exc), off) from None
                raise ParseError("exponent must be constant", off)
            if not math.isfinite(value):
                raise ParseError("exponent is not finite", off)
            return self.node(Pow, node, value)
        return node

    def atom(self):
        kind, value, off = self.next()
        if kind == "num":
            return self.node(Const, value)
        if kind == "ident":
            if value == "t":
                if self.peek()[0] == "(":
                    raise ParseError("'t' is not a function", off)
                return self.node(Var)
            if value in _FUNCTIONS:
                self.expect("(", "'(' after function name")
                arg = self.expr()
                self.expect(")", "')'")
                return self.node(Unary, value, arg)
            raise ParseError(f"unknown identifier {value!r}", off)
        if kind == "(":
            node = self.expr()
            self.expect(")", "')'")
            return node
        if kind == "end":
            raise ParseError("unexpected end of input", off)
        raise ParseError(f"unexpected token {value!r}", off)


def _parse(text: str, commas: bool) -> list:
    """The expressions of the text, separated by top-level commas if
    commas is set."""
    parser = _Parser(text)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        nodes = [parser.expr()]
        while commas and parser.peek()[0] == ",":
            parser.next()
            nodes.append(parser.expr())
    kind, value, off = parser.peek()
    if kind != "end":
        raise ParseError(f"expected operator before {value!r}", off)
    return nodes


def parse(text: str) -> Expr:
    """Parse expression text into an AST; raises ParseError with offset."""
    return _parse(text, commas=False)[0]


def parse_curve(text: str):
    """Parse 'x,y,z' (top-level commas) into a component Expr triple."""
    nodes = _parse(text, commas=True)
    if len(nodes) != 3:
        raise ParseError(f"expected 3 comma-separated components, got {len(nodes)}", 0)
    return tuple(nodes)


# ---------------------------------------------------------------------------
# Taylor-mode evaluation

class _Pass:
    """One forward pass at the parameters t (1-D) up to the given order.

    A node's jet is an array of shape (order+1, N), or a float when the
    node does not depend on t; such a constant folds through the same
    kernels as the arrays, at order 0, and a node folded at parse is its
    fold.  The memo holds the jet of each node that is not, and the sin/cos
    pair of each argument, for the length of the pass.
    """

    def __init__(self, t, order: int):
        self.t = t
        self.order = order
        self.memo = {}

    def jet(self, e):
        if e.fold is not None:
            return e.fold
        got = self.memo.get(e)
        if got is None:
            got = self.memo[e] = self._node(e)
        return got

    def check(self, bad, what):
        """Raise DomainError where the boolean value row bad holds, naming
        the first offending parameter (a pass over none names none)."""
        if isinstance(bad, np.ndarray):
            if not bad.any():
                return
            t = self.t[np.argmax(bad)]
        elif not bad:
            return
        elif len(self.t):
            t = self.t[0]       # a value free of t fails at every parameter
        else:
            raise DomainError(what)
        raise DomainError(f"{what} at t={t:.9g}")

    def _node(self, e):
        kind = type(e)
        if kind is Binary:
            return self._binary(e.op, self.jet(e.lhs), self.jet(e.rhs))
        if kind is Unary:
            x = self.jet(e.arg)
            return -x if e.op == "neg" else self._function(e.op, e.arg, x)
        if kind is Pow:
            return self._power(self.jet(e.base), e.exponent)
        if kind is Var:
            out = np.zeros((self.order + 1, len(self.t)))
            out[0] = self.t
            if self.order:
                out[1] = 1.0
            return out
        raise TypeError(e)

    def _function(self, op, arg, x):
        scalar = isinstance(x, float)
        value = x if scalar else x[0]
        if op == "log":
            self.check(value <= 0.0, "log of non-positive value")
        elif op == "sqrt":
            self.check(value < 0.0, "sqrt of negative value")
            if self.order and not scalar:
                self.check(value == 0.0, "sqrt of zero has no derivative")
        if scalar:      # a constant folds through the kernels at order 0
            x = np.array([x])
        if op in ("sin", "cos", "tan"):
            key = ("sin_cos", arg)
            pair = self.memo.get(key)
            if pair is None:
                pair = self.memo[key] = jet_sin_cos(x)
            out = jet_div(*pair) if op == "tan" else pair[op == "cos"]
            if op == "tan":
                out[0] = np.tan(value)
        else:
            out = {"exp": jet_exp, "log": jet_log, "sqrt": jet_sqrt}[op](x)
        return out[0].item() if scalar else out

    def _binary(self, op, a, b):
        a_scalar, b_scalar = isinstance(a, float), isinstance(b, float)
        if op == "*":
            return a * b if a_scalar or b_scalar else jet_mul(a, b)
        if op == "/":
            self.check(b == 0.0 if b_scalar else b[0] == 0.0, "division by zero")
            if b_scalar:
                return a / b
            if a_scalar:
                num = np.zeros_like(b)
                num[0] = a
                a = num
            return jet_div(a, b)
        if op == "-":
            b = -b
        if a_scalar == b_scalar:
            return a + b
        out = (b if a_scalar else a).copy()
        out[0] += a if a_scalar else b
        return out

    def _power(self, x, p):
        scalar = isinstance(x, float)
        value = x if scalar else x[0]
        if not p.is_integer():
            self.check(value < 0.0, "negative base with non-integer exponent")
        if p < 0.0:
            self.check(value == 0.0, "zero base with negative exponent")
        elif p < self.order and not (scalar or p.is_integer()):
            self.check(value == 0.0, "non-integer power of zero has no "
                       f"derivative of order {math.ceil(p)}")
        if scalar:
            return jet_pow(np.array([x]), p)[0].item()
        return jet_pow(x, p)


# Parameters per pass: a pass holds the jet of every node at once, so long
# parameter arrays go through in slices of this many points.
_SLICE = 4096


def jets(exprs, t, order: int) -> np.ndarray:
    """Derivatives 0..order of each expression at the parameters t, shape
    (order+1, N, len(exprs)); subtrees the expressions share are computed
    once per pass.  Raises DomainError as needed."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros((order + 1, len(t), len(exprs)))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(0, len(t), _SLICE):
            run = _Pass(t[lo:lo + _SLICE], order)
            for i, e in enumerate(exprs):
                jet = run.jet(e)
                if isinstance(jet, float):
                    out[0, lo:lo + _SLICE, i] = jet
                else:
                    out[:, lo:lo + _SLICE, i] = jet
    return out


def evaluate(e: Expr, t):
    """Evaluate e at t (float or ndarray): the order-0 jets, a float for a
    float.  Raises DomainError as needed."""
    t = np.asarray(t, dtype=float)
    out = jets((e,), t.ravel(), 0)[0, :, 0].reshape(t.shape)
    return out if t.ndim else out.item()


# ---------------------------------------------------------------------------
# printing; minimal parentheses, evaluation-faithful on reparse

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e):
    if isinstance(e, Const):
        return _PREC_NEG if e.value < 0.0 else _PREC_ATOM
    if isinstance(e, Var):
        return _PREC_ATOM
    if isinstance(e, Unary):
        return _PREC_NEG if e.op == "neg" else _PREC_ATOM
    if isinstance(e, Binary):
        return _PREC_ADD if e.op in "+-" else _PREC_MUL
    return _PREC_POW


def _wrap(e, minimum):
    s = to_source(e)
    return f"({s})" if _prec(e) < minimum else s


def _fmt_number(v):
    return str(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)


def to_source(e: Expr) -> str:
    """Render e as parseable text; reparse evaluates identically."""
    if isinstance(e, Const):
        return _fmt_number(e.value)
    if isinstance(e, Var):
        return "t"
    if isinstance(e, Unary):
        if e.op == "neg":
            return "-" + _wrap(e.arg, _PREC_NEG)
        return f"{e.op}({to_source(e.arg)})"
    if isinstance(e, Binary):
        level = _prec(e)
        left = _wrap(e.lhs, level)
        # parenthesize an equal-precedence right operand: binary operators
        # associate left and float arithmetic is not associative
        right = _wrap(e.rhs, level + 1)
        return f"{left} {e.op} {right}"
    if isinstance(e, Pow):
        return f"{_wrap(e.base, _PREC_ATOM)}^{_fmt_number(e.exponent)}"
    raise TypeError(e)
