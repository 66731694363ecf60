"""Closed-form expression language for metric components.

The grammar is deliberately tiny: arithmetic, integer powers and a fixed
set of smooth elementary functions.  That is enough to write down any
metric we care about in closed form, and it keeps truncated-Taylor
evaluation exact (no branch cuts, no conditionals).

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | ident | '(' expr ')' | func '(' expr ')' | '-' base
    func   := 'sin'|'cos'|'tan'|'exp'|'log'|'sqrt'|'atan'

Evaluation is generic over the scalar type: plain ``float`` or any object
implementing the arithmetic operators plus ``sin()``, ``exp()``, ... methods
(see ``lcwcheck.jets.Jet3``).  All parse and evaluation errors carry the byte
offset of the offending token or node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "atan")

_MATH_FUNCS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "atan": math.atan,
}


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
#
# ``pos`` is excluded from equality so that "structurally identical" means
# the same tree shape and values regardless of source layout.


@dataclass(frozen=True)
class Node:
    pos: int = field(compare=False)


@dataclass(frozen=True)
class Const(Node):
    value: float


@dataclass(frozen=True)
class Var(Node):
    name: str


@dataclass(frozen=True)
class Neg(Node):
    child: Node


@dataclass(frozen=True)
class Call(Node):
    func: str
    arg: Node


@dataclass(frozen=True)
class BinOp(Node):
    op: str  # '+', '-', '*', '/'
    left: Node
    right: Node


@dataclass(frozen=True)
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
        if c.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            if i < n and source[i] == ".":
                i += 1
                if i >= n or not source[i].isdigit():
                    raise ParseError("malformed number", start)
                while i < n and source[i].isdigit():
                    i += 1
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j >= n or not source[j].isdigit():
                    raise ParseError("malformed exponent in number", start)
                i = j
                while i < n and source[i].isdigit():
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


# Open parentheses, calls and unary minuses around a token.  Each level
# takes up to four Python frames, so the limit keeps the recursive
# descent well inside Python's recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, source: str, coords: tuple[str, ...]):
        self.tokens = _tokenize(source)
        self.coords = coords
        self.k = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(node.pos, text, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(node.pos, text, node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        node = self.base()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Pow(node.pos, node, self.integer())
        return node

    def integer(self) -> int:
        sign = 1
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            sign = -1
            kind, text, pos = self.peek()
        if kind != "num":
            raise ParseError("exponent must be an integer", pos)
        if "." in text or "e" in text or "E" in text:
            raise ParseError("exponent must be an integer", pos)
        self.advance()
        return sign * int(text)

    def base(self) -> Node:
        kind, text, pos = self.advance()
        if kind == "num":
            return Const(pos, float(text))
        if kind == "ident" and self.peek()[1] != "(":
            if text not in self.coords:
                raise ParseError(f"unknown identifier {text!r}", pos)
            return Var(pos, text)
        if self.nesting == MAX_NESTING:
            raise ParseError("expression nested too deeply", pos)
        self.nesting += 1
        if kind == "op" and text == "-":
            node = Neg(pos, self.base())
        elif kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
        elif kind == "ident":  # a call
            if text not in FUNCTIONS:
                raise ParseError(f"unknown function {text!r}", pos)
            self.advance()
            inner_kind, inner_text, inner_pos = self.peek()
            if inner_kind == "op" and inner_text == ")":
                raise ParseError(f"function {text!r} takes exactly one argument", inner_pos)
            arg = self.expr()
            sep_kind, sep_text, sep_pos = self.peek()
            if sep_kind == "op" and sep_text == ",":
                raise ParseError(f"function {text!r} takes exactly one argument", sep_pos)
            self.expect_op(")")
            node = Call(pos, text, arg)
        else:
            raise ParseError(f"expected expression, found {text!r}" if text else "unexpected end of input", pos)
        self.nesting -= 1
        return node


def parse_expr(source: str, coords) -> Node:
    """Parse ``source`` against the declared coordinate names."""
    return _Parser(source, tuple(coords)).parse()


# --- pretty printer -----------------------------------------------------
#
# Emits the minimal parenthesization that reparses to an identical tree.
# Levels follow the grammar: 1 = expr, 2 = term, 3 = factor, 4 = base.

_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2}


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _print(node: Node, level: int) -> str:
    if isinstance(node, Const):
        if node.value < 0:
            raise ValueError("parser never produces negative literals")
        text, own = _fmt_number(node.value), 4
    elif isinstance(node, Var):
        text, own = node.name, 4
    elif isinstance(node, Call):
        text, own = f"{node.func}({_print(node.arg, 1)})", 4
    elif isinstance(node, Neg):
        text, own = "-" + _print(node.child, 4), 4
    elif isinstance(node, Pow):
        text, own = _print(node.base, 4) + "^" + str(node.exponent), 3
    elif isinstance(node, BinOp):
        own = _LEVEL[node.op]
        # left operand may sit at the operator's own level; the right one
        # must be strictly tighter, otherwise associativity is lost.
        text = _print(node.left, own) + node.op + _print(node.right, own + 1)
    else:  # pragma: no cover
        raise TypeError(f"unknown node {node!r}")
    if own < level:
        return "(" + text + ")"
    return text


def to_source(node: Node) -> str:
    """Render an AST back to grammar text; reparses to an identical tree."""
    return _print(node, 1)


# --- evaluation ---------------------------------------------------------


def _call_scalar(func: str, x, pos: int):
    if isinstance(x, (int, float)):
        try:
            return _MATH_FUNCS[func](x)
        except (ValueError, OverflowError) as exc:
            raise EvalError(f"domain error in {func}: {exc}", pos) from None
    try:
        return getattr(x, func)()
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


def same_tree(a: Node, b: Node) -> bool:
    """``a == b``, the same shape and values with positions ignored, for
    trees of any depth."""
    todo = [(a, b)]
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
