"""Tiny recursive-descent parser for polynomial and field-element strings.

Evaluates expressions like "X^2-X-Z", "t+1", "(Z^2+1)/(Z+1)" over arbitrary
values: the caller supplies a table mapping identifiers to values and a
lifting function for integer literals, and the values themselves carry the
ring operations through the usual Python operators.  Adjacent factors
multiply, so "2X" and "(t+1)Z^2" parse as expected.

Every string is parsed twice: first over degree bounds (_Degree), then
over the caller's values.  An exponent, or a degree some subexpression can
reach, above MAX_EXPONENT raises CapExceededError in the first pass, before
any value is built, so "X^40000000" and "(X^4096)^4096" fail at once
instead of exhausting memory.  A caller may also cap the degree in one
variable (var_cap): analyze-ad's --poly refuses "(X+Z+1)^729" over
GF(727)(Z) there, before the power that would take minutes is built.  Both
are caps on upper bounds, not on the degree of the value: "X^40-X^40" is
bounded by 40 though it is 0.  Parentheses nest at most MAX_NESTING deep,
checked before the parser recurses into them, so a deeply nested string
is refused instead of overflowing Python's recursion limit.

int_literal converts the decimal literals of expressions and field specs:
one longer than Python's int-string limit (sys.get_int_max_str_digits(),
4300 digits by default) is an InputError, not a ValueError.
"""

import re

from .errors import CapExceededError, InputError

MAX_EXPONENT = 4096
MAX_NESTING = 100


def int_literal(digits):
    """The int of a decimal literal, raising InputError rather than Python's
    ValueError when it is over the int-string limit."""
    try:
        return int(digits)
    except ValueError:
        raise InputError(
            f"integer literal of {len(digits)} digits is over Python's int-string limit"
        ) from None


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|(\*\*|[-+*/^()]))")


def _tokenize(s):
    tokens = []
    pos = 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m or m.end() == pos:
            if s[pos:].strip():
                raise InputError(f"cannot parse {s!r} at position {pos}")
            break
        if m.group(1) is not None:
            tokens.append(("int", int_literal(m.group(1))))
        elif m.group(2) is not None:
            tokens.append(("ident", m.group(2)))
        else:
            op = "^" if m.group(3) == "**" else m.group(3)
            tokens.append(("op", op))
        pos = m.end()
    return tokens


class _Degree:
    """Upper bounds on the degree of a parsed value: d in all identifiers
    together, x in the capped variable alone (cap = (name, limit, message),
    or None).  Identifiers count 1 (in x only the capped one), integers 0,
    sums take the larger bound, products and quotients add them, powers
    multiply."""

    __slots__ = ("d", "x", "cap")

    def __init__(self, d, x, cap):
        if d > MAX_EXPONENT:
            raise CapExceededError(f"degree {d} exceeds cap {MAX_EXPONENT}")
        if cap is not None and x > cap[1]:
            raise CapExceededError(cap[2])
        self.d, self.x, self.cap = d, x, cap

    def __add__(self, other):
        return _Degree(max(self.d, other.d), max(self.x, other.x), self.cap)

    __sub__ = __add__

    def __mul__(self, other):
        return _Degree(self.d + other.d, self.x + other.x, self.cap)

    __truediv__ = __mul__

    def __neg__(self):
        return self

    def __pow__(self, n):
        if n > MAX_EXPONENT:
            raise CapExceededError(f"exponent {n} exceeds cap {MAX_EXPONENT}")
        return _Degree(self.d * n, self.x * n, self.cap)


class _Parser:
    def __init__(self, tokens, atoms, make_int):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.atoms = atoms
        self.make_int = make_int

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self):
        kind, val = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.next()
            negate = val == "-"
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                acc = acc - rhs if val == "-" else acc + rhs
            else:
                return acc

    def term(self):
        acc = self.power()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.power()
                if val == "*":
                    acc = acc * rhs
                else:
                    try:
                        acc = acc / rhs
                    except ZeroDivisionError:
                        raise InputError("division by zero") from None
            elif kind in ("int", "ident") or (kind == "op" and val == "("):
                acc = acc * self.power()  # juxtaposition
            else:
                return acc

    def power(self):
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, exp = self.next()
            if kind != "int":
                raise InputError("exponent must be a nonnegative integer")
            base = base ** exp
        return base

    def atom(self):
        kind, val = self.next()
        if kind == "int":
            return self.make_int(val)
        if kind == "ident":
            if val not in self.atoms:
                raise InputError(f"unknown symbol {val!r}")
            return self.atoms[val]
        if kind == "op" and val == "(":
            if self.depth >= MAX_NESTING:
                raise CapExceededError(f"parentheses nest deeper than cap {MAX_NESTING}")
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            kind, val = self.next()
            if (kind, val) != ("op", ")"):
                raise InputError("unbalanced parentheses")
            return inner
        raise InputError(f"unexpected token {val!r}")


def parse_expression(s, atoms, make_int, var_cap=None):
    """Parse s into a value, resolving identifiers through atoms.  With
    var_cap = (name, limit, message), a bound above limit on the degree in
    the identifier name raises CapExceededError(message) before any value
    is built."""
    tokens = _tokenize(s)
    if not tokens:
        raise InputError("empty expression")
    name = var_cap[0] if var_cap else None
    bounds = {a: _Degree(1, int(a == name), var_cap) for a in atoms}
    _Parser(tokens, bounds, lambda i: _Degree(0, 0, var_cap)).expr()
    parser = _Parser(tokens, atoms, make_int)
    result = parser.expr()
    if parser.pos != len(tokens):
        raise InputError(f"trailing garbage in {s!r}")
    return result
