"""Closed-form expression language for metric components.

The grammar is deliberately tiny: arithmetic, integer powers and a fixed
set of smooth elementary functions.  That is enough to write down any
metric we care about in closed form, and it keeps truncated-Taylor
evaluation exact (no branch cuts, no conditionals).  ``bump`` is the
smooth cutoff exp(1 - 1/(1 - s)) for s < 1 and 0 otherwise: C-infinity on
the whole line, so a perturbation localized with it needs no conditional.

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | ident | '(' expr ')' | func '(' expr ')' | '-' base
    func   := 'sin'|'cos'|'tan'|'exp'|'log'|'sqrt'|'atan'|'bump'
    number := a decimal literal within the float range

There is one parser and it builds through a :class:`Builder`, one callable
per reduction.  :data:`TREE`, the node constructors, gives the parse tree;
``lcwcheck.jets.JetTape`` passes its own builder, which turns each entry
straight into sums of jet-tape terms, so a metric is read in one pass with
no tree.  Trees serve the walk :func:`eval_expr`, ``==`` and printing.

Evaluation is generic over the scalar type: plain ``float`` or any object
implementing the arithmetic operators plus ``sin()``, ``exp()``, ... methods
(see ``lcwcheck.jets.Jet3``).  All parse and evaluation errors carry the byte
offset of the offending token or node.  Parsing and evaluation each keep
their own stack instead of recursing, so any nesting depth is accepted, and
``==`` compares two trees' shape and values (not positions) at any depth.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "atan", "bump")


def bump(s: float) -> float:
    """The smooth cutoff: exp(1 - 1/(1 - s)) for s < 1, else 0 (NaN gives NaN).

    It is 1 at s = 0 and vanishes with all its derivatives as s rises to 1.
    """
    if s >= 1.0:
        return 0.0
    return math.exp(1.0 - 1.0 / (1.0 - s))


_MATH_FUNCS = {name: bump if name == "bump" else getattr(math, name) for name in FUNCTIONS}


class ExprError(ValueError):
    """Base error for this module; ``pos`` is a byte offset into the source."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (offset {pos})")
        self.message = message
        self.pos = pos


class ParseError(ExprError):
    pass


class EvalError(ExprError):
    pass


# --- AST ----------------------------------------------------------------
# ``pos`` is excluded from equality so that "structurally identical" means the
# same tree shape and values regardless of source layout.  Nodes are slotted, not
# frozen (a frozen __init__ builds ~3x slower); nothing changes one after parsing.


@dataclass(slots=True, eq=False)
class Node:
    pos: int = field(compare=False)

    def __eq__(self, other):
        """Same shape and values, positions ignored, on a stack: any depth."""
        if not isinstance(other, Node):
            return NotImplemented
        todo = [(self, other)]
        while todo:
            x, y = todo.pop()
            if type(x) is not type(y):
                return False
            for f in fields(x):
                u, v = getattr(x, f.name), getattr(y, f.name)
                if isinstance(u, Node):
                    todo.append((u, v))
                elif f.compare and u != v:
                    return False
        return True


@dataclass(slots=True, eq=False)
class Const(Node):
    value: float


@dataclass(slots=True, eq=False)
class Var(Node):
    name: str


@dataclass(slots=True, eq=False)
class Neg(Node):
    child: Node


@dataclass(slots=True, eq=False)
class Call(Node):
    func: str
    arg: Node


@dataclass(slots=True, eq=False)
class BinOp(Node):
    op: str  # '+', '-', '*', '/'
    left: Node
    right: Node


@dataclass(slots=True, eq=False)
class Pow(Node):
    base: Node
    exponent: int


# --- tokenizer ----------------------------------------------------------

_OPERATORS = set("+-*/^(),")

# A number's extent from its first digit; an empty fraction or exponent is malformed.
_NUMBER = re.compile(r"\d+(?:(\.)(\d*))?(?:([eE])[+-]?(\d*))?")


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, offset) triples. Kinds: num, ident, op, end."""
    tokens = []
    append = tokens.append
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c in _OPERATORS:
            append(("op", c, i))
            i += 1
        elif c.isdecimal():
            number = _NUMBER.match(source, i)
            dot, fraction, e, exponent = number.groups()
            if dot and not fraction:
                raise ParseError("malformed number", i)
            if e and not exponent:
                raise ParseError("malformed exponent in number", i)
            append(("num", number.group(), i))
            i = number.end()
        elif c.isalpha() or c == "_":
            start = i
            i += 1
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            append(("ident", source[start:i], start))
        elif c.isspace():
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    append(("end", "", n))
    return tokens


# --- parser -------------------------------------------------------------


class Builder(NamedTuple):
    """What :func:`parse_expr` makes of each reduction.  Each is called with
    the offset its tree node carries, then as the node constructors are:
    ``number(pos, value)``, ``coordinate(pos, name)``, ``negation(pos,
    operand)``, ``call(pos, func, argument)``, ``power(pos, base, exponent)``
    and ``binary(pos, op, left, right)``; operands are earlier results."""

    number: Callable
    coordinate: Callable
    negation: Callable
    call: Callable
    power: Callable
    binary: Callable


TREE = Builder(Const, Var, Neg, Call, Pow, BinOp)

# Precedence climbing on one explicit stack.  An entry is ("neg", pos) for a
# pending unary minus, ("(", pos) for an open parenthesis, (func, pos) for an
# open call, or (op, pos, left) for a binary operator awaiting its right
# operand, ``pos`` being the offset of ``left``.

_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2}


def parse_expr(source: str, coords, builder: Builder = TREE):
    """Parse ``source`` against the declared coordinate names, into a tree
    or into what ``builder`` makes of it.

    One pass over the tokens, left to right, without recursion: an error is
    the first one in source order, and any nesting depth parses.
    Reductions come in post-order, operands left to right.
    """
    coords = tuple(coords)
    number, coordinate, negation, call, power, binary = builder
    tokens = _tokenize(source)
    stack = []
    k = 0
    while True:
        # an operand: prefix tokens up to a number, coordinate or opener
        kind, text, pos = tokens[k]
        k += 1
        if kind == "num":
            value = float(text)
            if value == math.inf:
                raise ParseError("number out of range", pos)
            node = number(pos, value)
        elif kind == "ident" and tokens[k][1] != "(":
            if text not in coords:
                raise ParseError(f"unknown identifier {text!r}", pos)
            node = coordinate(pos, text)
        elif kind == "ident":
            if text not in FUNCTIONS:
                raise ParseError(f"unknown function {text!r}", pos)
            k += 1
            if tokens[k][1] == ")":
                raise ParseError(f"function {text!r} takes exactly one argument", tokens[k][2])
            stack.append((text, pos))
            continue
        elif kind == "op" and text in "-(":
            stack.append(("neg" if text == "-" else "(", pos))
            continue
        else:
            raise ParseError(f"expected expression, found {text!r}" if text else "unexpected end of input", pos)
        at = pos  # the offset of ``node``
        # ``node`` is a base: negate it, raise it to a power, then reduce the
        # operators that bind tighter than the next one
        while True:
            while stack and stack[-1][0] == "neg":
                at = stack.pop()[1]
                node = negation(at, node)
            kind, text, pos = tokens[k]
            k += 1
            if text == "^":
                negative = tokens[k][1] == "-"
                kind, text, pos = tokens[k + negative]
                if kind != "num" or not text.isdecimal():
                    raise ParseError("exponent must be an integer", pos)
                try:
                    exponent = int(text)
                except ValueError:  # past the interpreter's integer-string limit
                    raise ParseError("exponent has too many digits", pos) from None
                node = power(at, node, -exponent if negative else exponent)
                kind, text, pos = tokens[k + negative + 1]
                k += negative + 2
            # 0 for a token that ends the operand; openers rank below it
            level = _LEVEL.get(text, 0)
            while stack and _LEVEL.get(stack[-1][0], -1) >= level:
                op, at, left = stack.pop()
                node = binary(at, op, left, node)
            if level:
                stack.append((text, at, node))
                break
            if not stack:
                if kind != "end":
                    raise ParseError(f"unexpected trailing input {text!r}", pos)
                return node
            opener, opener_pos = stack.pop()
            if opener != "(" and text == ",":
                raise ParseError(f"function {opener!r} takes exactly one argument", pos)
            if text != ")":
                raise ParseError("expected ')'", pos)
            if opener != "(":
                at = opener_pos
                node = call(at, opener, node)


# --- evaluation ---------------------------------------------------------


def apply(op, pos: int, operands):
    """The value of an operation given the values of its operands.  ``op``
    is ``"neg"``, a function name, an int exponent or one of ``+ - * /``;
    a domain error raises :class:`EvalError` at offset ``pos``."""
    if type(op) is int:
        base = operands[0]
        try:
            if isinstance(base, (int, float)):
                return float(base) ** op
            return base ** op
        except (ZeroDivisionError, ArithmeticError) as exc:
            raise EvalError(f"domain error in power: {exc}", pos) from None
    if op == "neg":
        return -operands[0]
    if op in _MATH_FUNCS:
        x = operands[0]
        try:
            return _MATH_FUNCS[op](x) if isinstance(x, (int, float)) else getattr(x, op)()
        except (ArithmeticError, ValueError) as exc:
            raise EvalError(f"domain error in {op}: {exc}", pos) from None
    left, right = operands
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        return left / right
    except (ZeroDivisionError, ArithmeticError) as exc:
        raise EvalError(f"domain error: {exc}", pos) from None


def _operation(node: Node) -> tuple:
    """An operator node's operation, as :func:`apply` takes it, and its
    operands, left to right."""
    if isinstance(node, BinOp):
        return node.op, (node.left, node.right)
    if isinstance(node, Neg):
        return "neg", (node.child,)
    if isinstance(node, Call):
        return node.func, (node.arg,)
    if isinstance(node, Pow):
        return node.exponent, (node.base,)
    raise TypeError(f"unknown node {node!r}")  # pragma: no cover


def eval_expr(node: Node, env: dict):
    """Evaluate over any scalar type supporting the grammar's arithmetic.

    ``env`` maps coordinate names to scalars (floats or jets).  Division by
    zero and elementary-function domain violations raise :class:`EvalError`
    annotated with the node's source offset.  The walk keeps its own stack,
    so a tree of any depth evaluates, operands left to right as written.
    """
    values = []
    todo = [node]
    while todo:
        item = todo.pop()
        if isinstance(item, tuple):  # an operator whose operands are on ``values``
            op, pos, arity = item
            operands = values[-arity:]
            del values[-arity:]
            values.append(apply(op, pos, operands))
        elif isinstance(item, Const):
            values.append(item.value)
        elif isinstance(item, Var):
            values.append(env[item.name])
        else:
            op, kids = _operation(item)
            todo.append((op, item.pos, len(kids)))
            todo.extend(reversed(kids))
    return values[0]
