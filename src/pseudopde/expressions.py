"""Small arithmetic expression language for drivers f(t,x,y,z) and terminal g(x).

Grammar (EBNF):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' factor)?
    base   := number | ident | ident '(' expr (',' expr)? ')' | '(' expr ')'

Precedence: ^  >  unary -  >  * /  >  + -, with ^ right-associative.
Identifiers: t, y, z, x1..xd and the function names below; each role reads
only its own variables (``as_driver_fn`` t, y and z, ``as_coefficient_fn``
t, ``as_function_of_x`` none besides x1..xd).  Evaluation is
vectorized over numpy arrays and raises on domain errors (log/sqrt of a
negative, division by zero) instead of returning non-finite values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ExpressionDomainError, ExpressionSyntaxError, InputError

UNARY_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs", "tanh")
BINARY_FUNCTIONS = ("max", "min")


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    child: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


Node = Union[Const, Var, Neg, BinOp, Call]


_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            # skip pure whitespace tail
            if text[pos:].strip() == "":
                break
            raise ExpressionSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, dimension: int):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = {"t", "y", "z"} | {f"x{k}" for k in range(1, dimension + 1)}

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ExpressionSyntaxError(f"expected {op!r}", off)
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, text, off = self.peek()
        if kind != "eof":
            raise ExpressionSyntaxError(f"unexpected trailing input {text!r}", off)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.factor())
        node = self.base()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return BinOp("^", node, self.factor())
        return node

    def base(self) -> Node:
        kind, text, off = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "ident":
            nk, ntext, _ = self.peek()
            if nk == "op" and ntext == "(":
                return self.call(text, off)
            if text not in self.variables:
                raise ExpressionSyntaxError(f"unknown identifier {text!r}", off)
            return Var(text)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionSyntaxError("expected expression", off)

    def call(self, name: str, off: int) -> Node:
        if name not in UNARY_FUNCTIONS and name not in BINARY_FUNCTIONS:
            raise ExpressionSyntaxError(f"unknown function {name!r}", off)
        self.expect_op("(")
        args = [self.expr()]
        kind, text, _ = self.peek()
        if kind == "op" and text == ",":
            self.advance()
            args.append(self.expr())
        self.expect_op(")")
        want = 2 if name in BINARY_FUNCTIONS else 1
        if len(args) != want:
            raise ExpressionSyntaxError(
                f"{name} takes {want} argument{'s' if want > 1 else ''}, got {len(args)}", off
            )
        return Call(name, tuple(args))


def parse(text: str, dimension: int = 1) -> Node:
    """Parse ``text`` into an expression tree over t, y, z, x1..xd."""
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    return _Parser(text, dimension).parse()


def variables(node: Node) -> set[str]:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Neg):
        return variables(node.child)
    if isinstance(node, BinOp):
        return variables(node.left) | variables(node.right)
    if isinstance(node, Call):
        out = set()
        for a in node.args:
            out |= variables(a)
        return out
    return set()


def _checked(value, node):
    arr = np.asarray(value)
    if not np.all(np.isfinite(arr)):
        raise ExpressionDomainError(
            f"non-finite value from {pretty(node)!r}", node
        )
    return arr


def evaluate(node: Node, env: dict):
    """Evaluate with env mapping variable names to scalars or numpy arrays."""
    out = _eval(node, env)
    arr = np.asarray(out, dtype=float)
    return float(arr) if arr.ndim == 0 else arr


def _eval(node: Node, env: dict):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        if node.name not in env:
            raise InputError(f"environment missing variable {node.name!r}")
        return env[node.name]
    if isinstance(node, Neg):
        return -np.asarray(_eval(node.child, env))
    if isinstance(node, BinOp):
        a = np.asarray(_eval(node.left, env), dtype=float)
        b = np.asarray(_eval(node.right, env), dtype=float)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if np.any(b == 0.0):
                raise ExpressionDomainError(f"division by zero in {pretty(node)!r}", node)
            return a / b
        if node.op == "^":
            with np.errstate(all="ignore"):
                return _checked(np.power(a, b), node)
        raise InputError(f"unknown operator {node.op!r}")  # pragma: no cover
    if isinstance(node, Call):
        args = [np.asarray(_eval(a, env), dtype=float) for a in node.args]
        if node.fn == "max":
            return np.maximum(args[0], args[1])
        if node.fn == "min":
            return np.minimum(args[0], args[1])
        x = args[0]
        if node.fn == "log":
            if np.any(x <= 0.0):
                raise ExpressionDomainError(f"log of non-positive value in {pretty(node)!r}", node)
            return np.log(x)
        if node.fn == "sqrt":
            if np.any(x < 0.0):
                raise ExpressionDomainError(f"sqrt of negative value in {pretty(node)!r}", node)
            return np.sqrt(x)
        if node.fn == "exp":
            with np.errstate(all="ignore"):
                return _checked(np.exp(x), node)
        if node.fn == "sin":
            return np.sin(x)
        if node.fn == "cos":
            return np.cos(x)
        if node.fn == "abs":
            return np.abs(x)
        if node.fn == "tanh":
            return np.tanh(x)
    raise InputError(f"unknown node {node!r}")  # pragma: no cover


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(node: Node) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _PREC["neg"]
    return _PREC["atom"]


def pretty(node: Node) -> str:
    """Minimal-parenthesis rendering; parse(pretty(tree)) reproduces tree."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = pretty(node.child)
        if _prec(node.child) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.fn}({', '.join(pretty(a) for a in node.args)})"
    if isinstance(node, BinOp):
        p = _PREC[node.op]
        left = pretty(node.left)
        right = pretty(node.right)
        # left-associative chains keep the left child unparenthesized at equal
        # precedence, except ^ which is right-associative
        if _prec(node.left) < p or (node.op == "^" and _prec(node.left) <= p):
            left = f"({left})"
        if _prec(node.right) < p or (node.op != "^" and _prec(node.right) == p):
            right = f"({right})"
        return f"{left} {node.op} {right}" if node.op != "^" else f"{left}^{right}"
    raise InputError(f"unknown node {node!r}")  # pragma: no cover


def _as_function(node: Node, dimension: int, allowed: tuple):
    """Wrap an expression that may read ``allowed`` of t, y, z besides
    x1..xd as fn(points (n,d), **values of allowed) -> (n,)."""
    extra = variables(node) & ({"t", "y", "z"} - set(allowed))
    if extra:
        xs = "x1" if dimension == 1 else f"x1..x{dimension}"
        raise InputError(
            f"may not use {', '.join(sorted(extra))} (allowed: {', '.join((*allowed, xs))})"
        )

    def fn(points, **env):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        env.update({f"x{k + 1}": points[:, k] for k in range(dimension)})
        out = evaluate(node, env)
        return np.broadcast_to(np.asarray(out, dtype=float), (points.shape[0],)).copy()

    return fn


def as_function_of_x(node: Node, dimension: int):
    """Wrap an x-only expression as fn(points (n,d)) -> (n,): a terminal
    condition, or a coefficient of the distributional drift."""
    return _as_function(node, dimension, ())


def as_driver_fn(node: Node, dimension: int):
    """Wrap an expression as fn(t, x (n,d), y (n,), z (n,)) -> (n,)."""
    fn = _as_function(node, dimension, ("t", "y", "z"))
    return lambda t, x, y, z: fn(
        x, t=t, y=np.asarray(y, dtype=float), z=np.asarray(z, dtype=float)
    )


def as_coefficient_fn(node: Node, dimension: int):
    """Wrap a t/x-only expression as fn(t, points (n,d)) -> (n,)."""
    fn = _as_function(node, dimension, ("t",))
    return lambda t, points: fn(points, t=t)
