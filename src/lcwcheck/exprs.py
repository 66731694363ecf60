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

Evaluation is generic over the scalar type: plain ``float`` or any object
implementing the arithmetic operators plus ``sin()``, ``exp()``, ... methods
(see ``lcwcheck.jets.Jet3``).  All parse and evaluation errors carry the byte
offset of the offending token or node.  Parsing and evaluation each keep
their own stack instead of recursing, so any nesting depth is accepted, and
``==`` compares two trees' shape and values (not positions) at any depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

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


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, offset) triples. Kinds: num, ident, op, end."""
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPERATORS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdecimal():
            start = i
            while i < n and source[i].isdecimal():
                i += 1
            if i < n and source[i] == ".":
                i += 1
                if i >= n or not source[i].isdecimal():
                    raise ParseError("malformed number", start)
                while i < n and source[i].isdecimal():
                    i += 1
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j >= n or not source[j].isdecimal():
                    raise ParseError("malformed exponent in number", start)
                i = j
                while i < n and source[i].isdecimal():
                    i += 1
            tokens.append(("num", source[start:i], start))
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(("ident", source[start:i], start))
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


# --- parser -------------------------------------------------------------
#
# Precedence climbing on one explicit stack.  An entry is ("neg", pos) for a
# pending unary minus, ("(", pos) for an open parenthesis, (func, pos) for an
# open call, or (op, left) for a binary operator awaiting its right operand.

_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2}


def parse_expr(source: str, coords) -> Node:
    """Parse ``source`` against the declared coordinate names.

    One pass over the tokens, left to right, without recursion: an error is
    the first one in source order, and any nesting depth parses.
    """
    coords = tuple(coords)
    tokens = _tokenize(source)
    stack = []
    k = 0
    while True:
        # an operand: prefix tokens up to a number, coordinate or opener
        kind, text, pos = tokens[k]
        k += 1
        if kind == "num":
            node = Const(pos, float(text))
            if node.value == math.inf:
                raise ParseError("number out of range", pos)
        elif kind == "ident" and tokens[k][1] != "(":
            if text not in coords:
                raise ParseError(f"unknown identifier {text!r}", pos)
            node = Var(pos, text)
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
        # ``node`` is a base: negate it, raise it to a power, then reduce the
        # operators that bind tighter than the next one
        while True:
            while stack and stack[-1][0] == "neg":
                node = Neg(stack.pop()[1], node)
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
                node = Pow(node.pos, node, -exponent if negative else exponent)
                kind, text, pos = tokens[k + negative + 1]
                k += negative + 2
            # 0 for a token that ends the operand; openers rank below it
            level = _LEVEL.get(text, 0)
            while stack and _LEVEL.get(stack[-1][0], -1) >= level:
                op, left = stack.pop()
                node = BinOp(left.pos, op, left, node)
            if level:
                stack.append((text, node))
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
                node = Call(opener_pos, opener, node)


# --- evaluation ---------------------------------------------------------


def _call_scalar(func: str, x, pos: int):
    try:
        return _MATH_FUNCS[func](x) if isinstance(x, (int, float)) else getattr(x, func)()
    except (ArithmeticError, ValueError) as exc:
        raise EvalError(f"domain error in {func}: {exc}", pos) from None


def children(node: Node) -> tuple:
    """The operands of an operator node, left to right; () for a leaf."""
    if isinstance(node, BinOp):
        return node.left, node.right
    if isinstance(node, Neg):
        return (node.child,)
    if isinstance(node, Call):
        return (node.arg,)
    if isinstance(node, Pow):
        return (node.base,)
    if isinstance(node, (Const, Var)):
        return ()
    raise TypeError(f"unknown node {node!r}")  # pragma: no cover


def apply_op(node: Node, operands):
    """The value of an operator node given the values of its operands."""
    if isinstance(node, Neg):
        return -operands[0]
    if isinstance(node, Call):
        return _call_scalar(node.func, operands[0], node.pos)
    if isinstance(node, Pow):
        base = operands[0]
        try:
            if isinstance(base, (int, float)):
                return float(base) ** node.exponent
            return base ** node.exponent
        except (ZeroDivisionError, ArithmeticError) as exc:
            raise EvalError(f"domain error in power: {exc}", node.pos) from None
    left, right = operands
    try:
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        return left / right
    except (ZeroDivisionError, ArithmeticError) as exc:
        raise EvalError(f"domain error: {exc}", node.pos) from None


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
            item, arity = item
            operands = values[-arity:]
            del values[-arity:]
            values.append(apply_op(item, operands))
        elif isinstance(item, Const):
            values.append(item.value)
        elif isinstance(item, Var):
            values.append(env[item.name])
        else:
            kids = children(item)
            todo.append((item, len(kids)))
            todo.extend(reversed(kids))
    return values[0]
