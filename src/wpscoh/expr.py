"""A small expression language for ring elements.

Grammar (whitespace insignificant):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' nat)?
    atom   := nat | symbol | '(' expr ')'
    symbol := 'u' | 'g' nat | 'a' nat

Precedence is ^ over unary minus over * over + and -; * is
left-associative and ^ does not associate (a^2^3 is a syntax error).
Exponents are literal non-negative integers.  A digit is a decimal
digit that int() reads; a literal with more digits than int() converts
is a ParseError at its position.  Symbol validity is the target ring's
business, checked at evaluation time.

Parentheses and unary minus may nest at most ``MAX_NESTING`` deep;
deeper input is a ParseError rather than a blown interpreter stack.
Chains of + - * are loops in the parser, in ``unparse`` and in
``evaluate``, and the inner AST nodes compare, hash and print by a loop
over the tree, so the length of a chain is not bounded.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

MAX_NESTING = 100


class ParseError(ValueError):
    """Lexical or syntactic error, carrying the 0-based input position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(ValueError):
    """A parsed expression that the target ring cannot interpret."""


# -- AST ---------------------------------------------------------------------
# Leaf positions are kept for error messages but excluded from equality,
# so pretty-printed round trips compare equal.


@dataclass(frozen=True)
class Lit:
    value: int
    pos: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Sym:
    name: str
    pos: int = field(default=0, compare=False, repr=False)


class _Inner:
    """Structural ``==``, ``hash`` and ``repr`` of an inner node.

    The dataclass-generated methods would recurse once per level, so a
    3000-term chain would exhaust the interpreter stack.  These walk the
    tree with an explicit stack; ``==`` and ``repr`` give what the
    generated methods give, and equal trees hash alike.
    """

    __slots__ = ()

    def _preorder(self):
        """The tree in preorder, each inner node as its type: two trees
        are equal exactly when these lists are."""
        flat, todo = [], [self]
        while todo:
            x = todo.pop()
            if isinstance(x, _Inner):
                flat.append(type(x))
                todo.extend(getattr(x, name) for name in x.__match_args__)
            else:
                flat.append(x)
        return flat

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._preorder() == other._preorder()

    def __hash__(self):
        return hash(tuple(self._preorder()))

    def __repr__(self):
        # (is text, item) pairs; an item that is not text is a field value
        out, todo = [], [(False, self)]
        while todo:
            is_text, x = todo.pop()
            if is_text:
                out.append(x)
            elif isinstance(x, _Inner):
                pieces = [(True, type(x).__name__ + "(")]
                for k, name in enumerate(x.__match_args__):
                    pieces += [(True, (", " if k else "") + name + "="),
                               (False, getattr(x, name))]
                pieces.append((True, ")"))
                todo.extend(reversed(pieces))
            else:
                out.append(repr(x))
        return "".join(out)


@dataclass(frozen=True, eq=False, repr=False)
class Neg(_Inner):
    operand: object


@dataclass(frozen=True, eq=False, repr=False)
class Add(_Inner):
    left: object
    right: object


@dataclass(frozen=True, eq=False, repr=False)
class Sub(_Inner):
    left: object
    right: object


@dataclass(frozen=True, eq=False, repr=False)
class Mul(_Inner):
    left: object
    right: object


@dataclass(frozen=True, eq=False, repr=False)
class Pow(_Inner):
    base: object
    exponent: int


# -- lexer ---------------------------------------------------------------------
# Digits are read with str.isdecimal, the characters int() reads;
# str.isdigit would also take superscripts such as '²', which it rejects.


def _integer(digits: str, position: int) -> int:
    """The value of a run of digits, or a ParseError when it has more
    digits than int() converts (sys.get_int_max_str_digits)."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"{len(digits)}-digit number is too long", position) from None


def tokenize(text: str) -> list:
    """Token stream of (kind, value, position) triples, ending with 'end'."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            start = i
            while i < len(text) and text[i].isdecimal():
                i += 1
            tokens.append(("int", _integer(text[start:i], start), start))
            continue
        if ch == "u":
            tokens.append(("sym", "u", i))
            i += 1
            continue
        if ch in "ga":
            start = i
            i += 1
            if i >= len(text) or not text[i].isdecimal():
                raise ParseError(f"expected digits after '{ch}'", start)
            while i < len(text) and text[i].isdecimal():
                i += 1
            _integer(text[start + 1:i], start + 1)  # an index int() cannot read
            tokens.append(("sym", text[start:i], start))
            continue
        if ch in "+-*^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


# -- parser ---------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0  # open parentheses and unary minuses

    def nested(self, parse, pos):
        """Run a sub-parser one nesting level down, within MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"expression nests deeper than {MAX_NESTING} levels", pos)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            node = Mul(node, self.factor())
        return node

    def factor(self):
        if self.peek()[0] == "-":
            pos = self.advance()[2]
            return Neg(self.nested(self.factor, pos))
        node = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            kind, value, pos = self.peek()
            if kind != "int":
                raise ParseError(f"expected integer exponent, got {_describe(kind, value)}", pos)
            self.advance()
            node = Pow(node, value)
            if self.peek()[0] == "^":
                raise ParseError("exponents do not chain; parenthesize", self.peek()[2])
        return node

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "int":
            return Lit(value, pos)
        if kind == "sym":
            return Sym(value, pos)
        if kind == "(":
            node = self.nested(self.expr, pos)
            kind, value, pos = self.advance()
            if kind != ")":
                raise ParseError(f"expected ')', got {_describe(kind, value)}", pos)
            return node
        raise ParseError(f"expected a value, got {_describe(kind, value)}", pos)


def _describe(kind, value):
    return "end of input" if kind == "end" else repr(str(value))


def parse(text: str):
    """Parse an expression; raises ParseError with a position on bad input.

    >>> parse("a2*a3 + u^2")
    Add(left=Mul(left=Sym(name='a2'), right=Sym(name='a3')), right=Pow(base=Sym(name='u'), exponent=2))
    """
    p = _Parser(tokenize(text))
    node = p.expr()
    kind, value, pos = p.peek()
    if kind != "end":
        raise ParseError(f"expected end of input, got {_describe(kind, value)}", pos)
    return node


# -- printer ----------------------------------------------------------------------

# binding strength of each node; children below the required strength
# get parenthesized so the round trip preserves the tree
_LEVEL = {Add: 1, Sub: 1, Mul: 2, Neg: 3, Pow: 4, Lit: 5, Sym: 5}


def _wrap(node, minimum):
    text = unparse(node)
    return f"({text})" if _LEVEL[type(node)] < minimum else text


# infix text of each binary node: its left operand must bind at least as
# tightly as the node itself, its right operand more tightly
_INFIX = {Add: " + ", Sub: " - ", Mul: "*"}


def unparse(node) -> str:
    """Render an AST so that parse(unparse(t)) == t.

    >>> unparse(parse("2*(a4 - 1)"))
    '2*(a4 - 1)'
    """
    # a chain such as x + y - z*w is a left spine: walk it in a loop
    spine = []
    while type(node) in _INFIX:
        spine.append(node)
        node = node.left
        if _LEVEL[type(node)] < _LEVEL[type(spine[-1])]:
            break
    if spine:
        text = _wrap(node, _LEVEL[type(spine[-1])])
        for op in reversed(spine):
            text += _INFIX[type(op)] + _wrap(op.right, _LEVEL[type(op)] + 1)
        return text
    if isinstance(node, Lit):
        return str(node.value)
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, Neg):
        return "-" + _wrap(node.operand, 3)
    if isinstance(node, Pow):
        return f"{_wrap(node.base, 5)}^{node.exponent}"
    raise TypeError(f"not an expression node: {node!r}")


# -- evaluator -----------------------------------------------------------------------

_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def evaluate(node, ring):
    """Evaluate an AST in a ring exposing from_int, one and symbol_element.

    Integer literals become multiples of the unit; symbols are resolved
    by the ring, which rejects ones it does not own.
    """
    if isinstance(node, Lit):
        return ring.from_int(node.value)
    if isinstance(node, Sym):
        try:
            return ring.symbol_element(node.name)
        except ValueError as exc:
            raise EvalError(f"{exc} (at position {node.pos})") from None
    if isinstance(node, Neg):
        return -evaluate(node.operand, ring)
    if type(node) in _BINARY:
        # a chain such as x + y - z*w is a left spine: walk it in a loop
        spine = []
        while type(node) in _BINARY:
            spine.append(node)
            node = node.left
        value = evaluate(node, ring)
        for op in reversed(spine):
            value = _BINARY[type(op)](value, evaluate(op.right, ring))
        return value
    if isinstance(node, Pow):
        return evaluate(node.base, ring) ** node.exponent
    raise TypeError(f"not an expression node: {node!r}")
