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
per reduction, with no tree.  ``lcwcheck.jets.JetTape`` passes a builder
that turns each entry straight into sums of jet-tape terms, so a metric is
read in one pass; :func:`evaluate` passes one that applies each operation
as it is reduced, so an entry is evaluated as it is parsed.

Evaluation is generic over the scalar type: plain ``float`` or any object
implementing the arithmetic operators plus ``sin()``, ``exp()``, ... methods
(see ``lcwcheck.jets.Jet3``).  All parse and evaluation errors carry the byte
offset of the offending token or subexpression.  The parser keeps its own
stack instead of recursing, so any nesting depth is accepted.
"""

from __future__ import annotations

import math
import re
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
    the offset of its subexpression, then with its parts:
    ``number(pos, value)``, ``coordinate(pos, name)``, ``negation(pos,
    operand)``, ``call(pos, func, argument)``, ``power(pos, base, exponent)``
    and ``binary(pos, op, left, right)``; operands are earlier results."""

    number: Callable
    coordinate: Callable
    negation: Callable
    call: Callable
    power: Callable
    binary: Callable


# Precedence climbing on one explicit stack.  An entry is ("neg", pos) for a
# pending unary minus, ("(", pos) for an open parenthesis, (func, pos) for an
# open call, or (op, pos, left) for a binary operator awaiting its right
# operand, ``pos`` being the offset of ``left``.

_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2}


def parse_expr(source: str, coords, builder: Builder):
    """Parse ``source`` against the declared coordinate names into what
    ``builder`` makes of it.

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


def evaluate(source: str, coords, env: dict):
    """Evaluate ``source`` as it parses, over floats or jets: ``env`` maps
    coordinate names to scalars.  Each reduction applies its operation with
    :func:`apply` when it is made, post-order and operands left to right,
    so a domain error is the first in that order, an :class:`EvalError` at
    its subexpression's offset.  Nothing recurses: any depth evaluates."""
    return parse_expr(source, coords, Builder(
        lambda pos, value: value,
        lambda pos, name: env[name],
        lambda pos, x: apply("neg", pos, (x,)),
        lambda pos, func, x: apply(func, pos, (x,)),
        lambda pos, x, exponent: apply(exponent, pos, (x,)),
        lambda pos, op, x, y: apply(op, pos, (x, y))))
