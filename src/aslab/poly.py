"""Univariate polynomials over any supported field, plus the characteristic-p
structure operations: separable decomposition, complete factorization over
finite fields, and minimal polynomials in quotient rings.

The zero polynomial has degree MINUS_INFINITY (a genuine minus infinity, so
degree comparisons behave), never -1.

Kernels shared with acceptance, ad_analyzer, cli, dickson, irred and linalg
live here: gas_poly (builds X^(p^(n+e)) - X^(p^e) - a, the one place the
paper's polynomial is constructed) and gas_shape (reads
X^(p^n) - X - a off the coefficients), _monic_divisors (divisors from a
factorization), and the row algebra of the incremental echelon,
_row_algebra.  That echelon is the only Gaussian elimination in aslab, and
the row algebra is its only interface: min_poly_in_quotient, linalg's
ranks and invariant factors, _kernel (the Berlekamp split's and
linalg's kernels) and _span_basis (ad_analyzer's eigenspaces, in the
basis _kernel would give) pack their vectors once and call it directly.  The
echelon is a dict from pivot to (row, combination), whose representation
is chosen per field: over GF(2) a Python int with bit i holding coordinate
i, reduced by XOR at the vector's set bits (_BitRows); over every other
field a list of payloads, reduced by the one payload echelon step,
_PayloadRows.extend, on two row kernels that each kind supplies: through
the field's methods over GF(p^n) and K(Z) (_PayloadRows), inline mod p
over GF(p), p odd (_PrimeRows).  apply, one per representation, is the
only sum c * vec of linalg and ad_analyzer.  The
same algebra is F[X] for linalg's Smith finish and analyze's
multiplicities: _PayloadRows inherits _ringops.PolyRing and _PrimeRows
PrimeRing, and over GF(2) bit i holds the coefficient of X^i, with gcd,
divide_out and multiplicity borrowed from PolyRing.  The factorization
code takes _ringops.ring(field) itself.  Poly.from_string reads
its constants from the field's parse atoms (FieldDescriptor.atoms).
Poly's binary operators are one body, _binary, over Poly._coerce, and
compose, pow_mod and gcd read their operand through Poly._operand: the
one refusal of an operand that is not a Poly, FieldElement or int is
NotImplemented from an operator and InputError elsewhere.  The module
functions (gcd, separable_part, is_irreducible_finite, factor_finite,
roots_in_finite_field, min_poly_in_quotient) refuse a polynomial argument
that is not a Poly with the same InputError (_unreadable).
Irreducibility comes from fields.ben_or_irreducible, whose rule, the gcd
with x^(q^d) - x at each d, _factor_raw applies too, on the same Frobenius
chain; Berlekamp's x^q mod g is the chain's first element, reduced.
"""

import operator

from . import _ringops as rp
from ._exprparse import parse_expression
from .errors import CapExceededError, ConsistencyError, InputError
from .fields import FieldElement, _raw_poly_str, _raw_roots, ben_or_irreducible, p_power_split

MINUS_INFINITY = float("-inf")

FACTOR_MAX_DEGREE = 64


def _binary(name, reflected=False):
    """The Poly operator running _ringops.<name> on the two coefficient
    tuples, the operands swapped when reflected.  The operand goes through
    Poly._coerce; one it cannot read gets NotImplemented.  The name is
    looked up at each call, so a tracer that rebinds it sees it."""

    def op(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        a, b = (r, self.raw) if reflected else (self.raw, r)
        return Poly.from_raw(self.field, getattr(rp, name)(self.field, a, b))

    return op


class Poly:
    """Dense univariate polynomial; coefficients live in a single field."""

    __slots__ = ("field", "raw")

    def __init__(self, field, coeffs):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "raw", rp.trim(field, [field.payload_of(c) for c in coeffs]))

    def __setattr__(self, *args):
        raise AttributeError("Poly is immutable")

    @classmethod
    def from_raw(cls, field, raw):
        obj = object.__new__(cls)
        object.__setattr__(obj, "field", field)
        object.__setattr__(obj, "raw", rp.trim(field, raw))
        return obj

    @classmethod
    def zero(cls, field):
        return cls.from_raw(field, ())

    @classmethod
    def one(cls, field):
        return cls.from_raw(field, (field.one,))

    @classmethod
    def x(cls, field):
        return cls.from_raw(field, (field.zero, field.one))

    @classmethod
    def constant(cls, field, c):
        return cls(field, [c])

    @classmethod
    def x_power(cls, field, n):
        if n < 0:
            raise InputError(f"negative exponent {n}")
        return cls.from_raw(field, (field.zero,) * n + (field.one,))

    @classmethod
    def from_string(cls, field, s, var="X", degree_cap=None):
        """The polynomial in var that s spells over field.  degree_cap =
        (limit, message) refuses, with CapExceededError(message), a string
        whose degree bound in var is over limit before anything is built;
        the bound is the parser's upper bound (_exprparse)."""
        atoms = {name: cls.constant(field, c) for name, c in field.atoms().items()}
        atoms[var] = cls.x(field)
        var_cap = None if degree_cap is None else (var, *degree_cap)
        return parse_expression(s, atoms, lambda i: cls(field, [i]), var_cap)

    @property
    def coeffs(self):
        return tuple(FieldElement(self.field, c) for c in self.raw)

    def coeff(self, i):
        if i < len(self.raw):
            return FieldElement(self.field, self.raw[i])
        return FieldElement(self.field, self.field.zero)

    def degree(self):
        return len(self.raw) - 1 if self.raw else MINUS_INFINITY

    def is_zero(self):
        return not self.raw

    def is_monic(self):
        return bool(self.raw) and self.raw[-1] == self.field.one

    def leading_coeff(self):
        if not self.raw:
            raise InputError("zero polynomial has no leading coefficient")
        return FieldElement(self.field, self.raw[-1])

    def monic(self):
        if not self.raw:
            raise InputError("cannot normalize the zero polynomial")
        return Poly.from_raw(self.field, rp.monic(self.field, self.raw))

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.field != self.field:
                raise InputError("polynomials over different fields do not mix")
            return other.raw
        if isinstance(other, (FieldElement, int)):
            return rp.trim(self.field, (self.field.payload_of(other),))
        return None

    def _operand(self, other):
        """_coerce for the methods that cannot hand an operand back to
        Python: InputError for anything but a Poly, a FieldElement or an
        int."""
        r = self._coerce(other)
        if r is None:
            raise _unreadable(other)
        return r

    __add__ = __radd__ = _binary("add")
    __sub__ = _binary("sub")
    __rsub__ = _binary("sub", reflected=True)
    __mul__ = __rmul__ = _binary("mul")

    def __neg__(self):
        return Poly.from_raw(self.field, rp.neg(self.field, self.raw))

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return Poly.from_raw(self.field, rp.power(self.field, self.raw, n))

    def __divmod__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        q, m = rp.divmod_(self.field, self.raw, r)
        return Poly.from_raw(self.field, q), Poly.from_raw(self.field, m)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __truediv__(self, other):
        """Exact division; raises if the division leaves a remainder."""
        q, r = divmod(self, other)
        if not r.is_zero():
            raise InputError("division is not exact")
        return q

    def __eq__(self, other):
        # a Poly equals only a Poly: an int or constant branch could not
        # agree with the hash (see FieldElement.__eq__)
        if isinstance(other, Poly):
            return self.field == other.field and self.raw == other.raw
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.raw))

    def __bool__(self):
        return bool(self.raw)

    def evaluate(self, x):
        if not isinstance(x, (FieldElement, int)):
            raise InputError("can only evaluate at a field element")
        return FieldElement(self.field, rp.evaluate(self.field, self.raw, self.field.payload_of(x)))

    def __call__(self, x):
        return self.evaluate(x)

    def compose(self, other):
        """self(other(X))."""
        return Poly.from_raw(self.field, rp.compose(self.field, self.raw, self._operand(other)))

    def shifted(self, b):
        """self(X + b)."""
        return self.compose(Poly(self.field, [b, 1]))

    def derivative(self):
        return Poly.from_raw(self.field, rp.derivative(self.field, self.raw))

    def substitute_x_power(self, k):
        """self(X^k), for k >= 1."""
        if k < 1:
            raise InputError(f"X -> X^k needs k >= 1, got {k}")
        # the zero polynomial gives [zero] * (1 - k), trimmed to zero
        out = [self.field.zero] * ((len(self.raw) - 1) * k + 1)
        for i, c in enumerate(self.raw):
            out[i * k] = c
        return Poly.from_raw(self.field, out)

    def pow_mod(self, n, modulus):
        if n < 0:
            raise InputError(f"negative exponent {n}")
        return Poly.from_raw(self.field, rp.pow_mod(self.field, self.raw, n, self._operand(modulus)))

    def sort_key(self):
        return _raw_sort_key(self.field, self.raw)

    def to_string(self, var="X"):
        return _raw_poly_str(self.field, self.raw, var)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"Poly({self.field.spec_string()}, {self})"


def _unreadable(value):
    """The one refusal of a value that is not a polynomial."""
    return InputError(f"cannot read a {type(value).__name__} as a polynomial")


def _require_polys(*values):
    """InputError, through _unreadable, for the first value that is not a
    Poly: the module functions' check of their polynomial arguments."""
    for value in values:
        if not isinstance(value, Poly):
            raise _unreadable(value)


def gcd(a: Poly, b) -> Poly:
    _require_polys(a)
    return Poly.from_raw(a.field, rp.gcd(a.field, a.raw, a._operand(b)))


class SeparableDecomposition:
    """Separable q and exponent e with h(X) = q(X^(p^e))."""

    __slots__ = ("q", "e")

    def __init__(self, q, e):
        self.q = q
        self.e = e

    def recompose(self):
        p = self.q.field.char
        return self.q.substitute_x_power(p**self.e)

    def __repr__(self):
        return f"SeparableDecomposition(q={self.q}, e={self.e})"


def separable_part(h: Poly) -> SeparableDecomposition:
    """Maximal e and separable q with h(X) = q(X^(p^e)).

    The contraction replaces exponents i*p^e by i and keeps coefficients
    untouched, so no coefficient roots are ever extracted.  Raises if the
    fully contracted polynomial still has repeated roots, in which case no
    such decomposition exists.
    """
    _require_polys(h)
    if not h.is_monic():
        raise InputError("separable_part expects a monic polynomial")
    if h.degree() < 1:
        raise InputError("separable_part expects degree >= 1")
    p = h.field.char
    field = h.field
    raw = h.raw
    e = 0
    while len(raw) > p and all(
        c == field.zero for i, c in enumerate(raw) if i % p != 0
    ):
        raw = tuple(raw[i] for i in range(0, len(raw), p))
        e += 1
    q = Poly.from_raw(field, raw)
    if rp.gcd(field, raw, rp.derivative(field, raw)) != (field.one,):
        raise InputError("polynomial is not of the form q(X^(p^e)) with q separable")
    return SeparableDecomposition(q, e)


def is_irreducible_finite(f: Poly) -> bool:
    """Deterministic irreducibility test over a finite field."""
    _require_polys(f)
    if f.field.order is None:
        raise InputError("irreducibility test requires a finite field")
    return ben_or_irreducible(f.field, rp.monic(f.field, f.raw))


def gas_poly(field, n, e, a) -> Poly:
    """X^(p^(n+e)) - X^(p^e) - a over field, p its characteristic: the
    generalized Artin-Schreier polynomial, X^(p^n) - X - a when e = 0."""
    p = field.char
    return Poly.x_power(field, p ** (n + e)) - Poly.x_power(field, p**e) - Poly.constant(field, a)


def gas_shape(q: Poly):
    """(p, n, a) when q = X^(p^n) - X - a with n >= 1, otherwise None,
    read off q's coefficients."""
    field, raw = q.field, q.raw
    if len(raw) < 3 or raw[-1] != field.one or raw[1] != field.neg(field.one):
        return None
    n, rest = p_power_split(len(raw) - 1, field.char)
    if rest != 1 or raw[2:-1].count(field.zero) != len(raw) - 3:
        return None
    return field.char, n, -q.coeff(0)


def factor_finite(f: Poly):
    """Complete factorization over a finite field.

    Returns a list of (monic irreducible Poly, multiplicity) pairs in a
    canonical deterministic order.  The product of the factors times the
    leading coefficient of f reconstructs f.
    """
    _require_polys(f)
    field = f.field
    if field.order is None:
        raise InputError("factor_finite requires a finite field")
    if f.is_zero():
        raise InputError("cannot factor the zero polynomial")
    if f.degree() > FACTOR_MAX_DEGREE:
        raise CapExceededError(f"degree {f.degree()} exceeds cap {FACTOR_MAX_DEGREE}")
    return [
        (Poly.from_raw(field, g), m)
        for g, m in _factor_raw(field, rp.monic(field, f.raw))
    ]


def _factor_raw(field, m):
    """(raw monic irreducible, multiplicity) pairs, canonically sorted: the
    degree-d ones split out of gcd(x^(q^d) - x, m), d = 1, 2, ..., on one
    Frobenius chain (_ringops.frobenius_chain), sent each cofactor, with
    the gcds and divisions in one _ringops.ring.  The chain's first
    element, x^q mod the input, serves every Berlekamp split."""
    found, x, ring = [], (field.zero, field.one), rp.ring(field)
    chain, cofactor = rp.frobenius_chain(field, m), None
    d = 1
    while 2 * d <= len(m) - 1:
        # send(None) is next: a new cofactor is sent only when a step needs it
        h, cofactor = chain.send(cofactor), None
        xq = h if d == 1 else xq
        g = ring.gcd(ring.sub(h, x), m)
        if len(g) > 1:
            for piece in _equal_degree_split(field, g, d, xq):
                m, mult = ring.divide_out(m, piece)
                found.append((piece, mult))
            cofactor = m
        d += 1
    if len(m) > 1:
        found.append((m, 1))
    found.sort(key=lambda fm: _raw_sort_key(field, fm[0]))
    return found


def _raw_sort_key(field, a):
    """Sort key of a raw polynomial: by degree, then coefficientwise from the
    constant term up."""
    return (len(a), tuple(field.sort_key(c) for c in a))


def _monic_divisors(field, factors, deg=None):
    """Monic divisors of the product of a complete factorization's
    (piece, multiplicity) pairs, only those of degree deg if it is given.

    Divisors come in lexicographic order of their exponent vectors, the
    first piece's exponent varying slowest; irred's oracle relies on it.
    """
    cap = float("inf") if deg is None else deg
    divisors = [(field.one,)]
    for piece, mult in factors:
        grown = []
        for cur in divisors:
            for take in range(mult + 1):
                grown.append(cur)
                if take == mult or len(cur) + len(piece) - 2 > cap:
                    break
                cur = rp.mul(field, cur, piece)
        divisors = grown
    return [d for d in divisors if deg is None or len(d) - 1 == deg]


def _equal_degree_split(field, g, d, xq):
    """Split a squarefree product of degree-d irreducibles into its factors;
    xq is x^q modulo a multiple of g."""
    if len(g) - 1 == d:
        return [g]
    if d == 1:
        return [(field.neg(a), field.one) for a in _raw_roots(field, g)]
    return _berlekamp_split(field, g, d, xq)


def _berlekamp_split(field, g, d, xq):
    """Deterministic Berlekamp splitting: sweep gcd(g, b - s) over all s;
    xq is x^q modulo a multiple of g."""
    n, ring = len(g) - 1, rp.ring(field)
    # columns of the Frobenius-minus-identity matrix acting on F_q[X]/(g)
    xq = ring.rem(xq, g)
    columns = []
    for i, xi in zip(range(n), rp.powers_mod(field, xq, g)):
        col = list(xi) + [field.zero] * (n - len(xi))
        col[i] = field.sub(col[i], field.one)
        columns.append(col)
    basis = _kernel(field, columns)
    pieces = [g]
    for b in basis:
        btrim = rp.trim(field, b)
        if len(btrim) <= 1:
            continue  # constants do not split anything
        # the useful shift values s are the roots of the minimal polynomial
        # of b in F_q[X]/(g); scan only those instead of the whole field
        shifts = _raw_roots(field, _min_dependence(field, btrim, g))
        next_pieces = []
        for piece in pieces:
            if len(piece) - 1 == d:
                next_pieces.append(piece)
                continue
            remaining = piece
            for s in shifts:
                h = ring.gcd(ring.sub(btrim, (s,)), remaining)
                # a proper divisor only, so remaining keeps degree >= 1
                if 1 < len(h) < len(remaining):
                    next_pieces.append(h)
                    remaining = ring.divmod(remaining, h)[0]
            next_pieces.append(remaining)
        pieces = next_pieces
        if all(len(piece) - 1 == d for piece in pieces):
            return pieces
    raise ConsistencyError(
        "Berlekamp sweep failed to separate equal-degree factors:"
        f" a degree-{n} product of degree-{d} irreducibles over GF({field.order}),"
        f" {len(pieces)} pieces after {len(basis)} kernel vectors"
    )


def roots_in_finite_field(f: Poly):
    """Roots with multiplicities over a finite coefficient field, by scan."""
    _require_polys(f)
    field = f.field
    if field.order is None:
        raise InputError("root scan requires a finite field")
    if f.is_zero():
        raise InputError("cannot scan the roots of the zero polynomial")
    ring = rp.ring(field)
    return [
        (FieldElement(field, a), ring.multiplicity(f.raw, (field.neg(a), field.one)))
        for a in _raw_roots(field, f.raw)
    ]


def min_poly_in_quotient(u: Poly, q: Poly) -> Poly:
    """Monic minimal polynomial over F of the class of u in F[X]/(q).

    Found as the first linear dependence among 1, u, u^2, ... reduced mod q,
    by incremental Gaussian elimination with exact arithmetic.
    """
    _require_polys(u, q)
    if not q.is_monic() or q.degree() < 1:
        raise InputError("quotient modulus must be monic of degree >= 1")
    if u.field != q.field:
        raise InputError("u and q must live over the same field")
    return Poly.from_raw(q.field, _min_dependence(q.field, rp.rem(q.field, u.raw, q.raw), q.raw))


def _min_dependence(field, u, m):
    """Monic raw minimal polynomial of the reduced raw u in field[X]/(m), m
    monic: the first linear dependence among 1, u, u^2, ... reduced mod m.

    Each echelon row carries the combination of powers of u it stands for,
    so the dependence is read off the reduced combination directly.
    """
    n = len(m) - 1
    rows = _row_algebra(field)
    echelon = {}
    for j, power in zip(range(n + 1), rp.powers_mod(field, u, m)):
        vec = rows.pack(list(power) + [field.zero] * (n - len(power)))
        added, combo = rows.extend(echelon, vec, rows.unit(j, j + 1))
        if not added:
            # combo[j] is still one: already monic
            return tuple(rows.unpack(combo, j + 1))
    name = field.spec_string() if field.order is None else f"GF({field.order})"
    raise ConsistencyError(
        "no linear dependence found within the dimension bound:"
        f" the powers of a residue mod a degree-{n} modulus over {name}"
    )


def _kernel(field, columns):
    """Kernel basis, as payload tuples, of the matrix with these columns.

    The columns enter the incremental echelon in order, each with the unit
    combination e_c.  A column that reduces to zero leaves e_c minus its
    unique dependence on the earlier independent columns: the free-column
    vector of the reduced row echelon form, so the basis is canonical.
    """
    rows = _row_algebra(field)
    n = len(columns)
    echelon = {}
    basis = []
    for c, col in enumerate(columns):
        added, combo = rows.extend(echelon, rows.pack(col), rows.unit(c, c + 1))
        if not added:
            basis.append(tuple(rows.unpack(combo, n)))
    return basis


def _span_basis(field, vectors):
    """The basis of the span of these payload vectors that _kernel gives for
    the same subspace: the reduced echelon form with each vector's pivot at
    its last nonzero coordinate, a one, where every other vector is zero.
    Dependent vectors give fewer basis vectors.

    The vectors enter the echelon reversed, so that pivot is the echelon's
    lowest; its rows then enter a second echelon from the last pivot down,
    so each is reduced at the pivots after its own (back-substitution) and
    keeps its unit pivot.
    """
    rows = _row_algebra(field)
    n = len(vectors[0])
    echelon = {}
    for vec in vectors:
        rows.extend(echelon, rows.pack(vec[::-1]), None)
    reduced = {}
    for piv in sorted(echelon, reverse=True):
        rows.extend(reduced, rows.expand(echelon[piv][0], n), None)
    return [tuple(rows.unpack(rows.expand(row, n), n)[::-1]) for row, _ in reduced.values()]


def _row_algebra(field):
    """The echelon's rows, vectors and combos and linalg's Smith finish's F[X]
    over field, the one place the echelon's field kinds are told apart:
    packed ints over GF(2), payload lists with inline mod-p row kernels on
    _ringops.PrimeRing over GF(p) for odd p, and payload lists through the
    field's methods on _ringops.PolyRing over every other field."""
    if field.kind == "prime":
        return _BIT_ROWS if field.p == 2 else _PrimeRows(field)
    return _PayloadRows(field)


class _PayloadRows(rp.PolyRing):
    """Vectors as lists of payloads.  The echelon maps each pivot to its
    (row, combo), both stored as their nonzero (index, value) pairs, so
    sparse rows cost only their nonzeros; a combo is updated in place.
    extend is the one echelon step on payloads, on the row kernels
    subtract_row and scaled_pairs, and apply the matrix-vector product, of
    any shape; here both use the field's methods.  As F[X] for the Smith
    finish it is the _ringops.PolyRing it inherits.
    """

    def pack(self, vec):
        """vec, a sequence of payloads, in this representation."""
        return vec

    def unpack(self, v, n):
        """v as a list of n payloads."""
        return list(v) + [self.k.zero] * (n - len(v))

    def unit(self, i, n):
        """The i-th unit vector of length n."""
        v = [self.k.zero] * n
        v[i] = self.k.one
        return v

    def low(self, v):
        """Index of the first nonzero coordinate of v, None when v is zero."""
        zero = self.k.zero
        return next((i for i, a in enumerate(v) if a != zero), None)

    def segment(self, v, lo, hi):
        """Coordinates lo .. hi-1 of v as a polynomial, lo the constant term."""
        return rp.trim(self.k, v[lo:hi])

    def extend(self, echelon, v, c):
        """(whether v is independent of the echelon, c reduced alike); an
        independent v is appended, scaled to a unit pivot."""
        zero, subtract_row = self.k.zero, self.subtract_row
        v = list(v)
        # in insertion order: a row is zero at the pivots of earlier rows
        for piv, (row, ecombo) in echelon.items():
            a = v[piv]
            if a != zero:
                subtract_row(v, a, row)
                if c is not None:
                    subtract_row(c, a, ecombo)
        piv = self.low(v)
        if piv is None:
            return False, c
        inv = self.k.inv(v[piv])
        echelon[piv] = (
            self.scaled_pairs(v, inv),
            None if c is None else self.scaled_pairs(c, inv),
        )
        return True, c

    def expand(self, row, n):
        """An echelon row, kept as its nonzero (index, value) pairs, as a
        vector of length n."""
        v = [self.k.zero] * n
        for i, x in row:
            v[i] = x
        return v

    def subtract_row(self, v, a, row):
        """v - a * row in place, row as its nonzero (index, value) pairs."""
        field = self.k
        if a == field.one:
            for i, y in row:
                v[i] = field.sub(v[i], y)
            return
        for i, y in row:
            v[i] = field.sub(v[i], field.mul(a, y))

    def scaled_pairs(self, v, c):
        """The nonzero (index, x * c) pairs of v, c nonzero."""
        field = self.k
        if c == field.one:
            return [(i, x) for i, x in enumerate(v) if x != field.zero]
        return [(i, field.mul(x, c)) for i, x in enumerate(v) if x != field.zero]

    def reshape(self, v, m):
        """The m*m coordinates of v as m rows of m, row-major."""
        return [v[i:i + m] for i in range(0, m * m, m)]

    def columns(self, vectors):
        """These payload vectors as apply's columns: nonzero (row, entry) pairs."""
        zero = self.k.zero
        return [[(i, a) for i, a in enumerate(vec) if a != zero] for vec in vectors]

    def apply(self, columns, v, n):
        """The n x len(v) matrix with these columns times v: the sum of
        a * column over the nonzero coordinates a of v, a product by one
        skipped."""
        field = self.k
        out = [field.zero] * n
        for a, col in zip(v, columns):
            if a == field.one:
                for i, y in col:
                    out[i] = field.add(out[i], y)
            elif a != field.zero:
                for i, y in col:
                    out[i] = field.add(out[i], field.mul(a, y))
        return out


class _PrimeRows(rp.PrimeRing, _PayloadRows):
    """_PayloadRows over GF(p), p odd, with the row kernels and apply written
    inline: payloads are the ints 0 .. p-1, so they reduce (v[i] - a * y) % p
    and (v[i] + a * y) % p with no method call.  Rows, combos, the pivot
    dict, extend and low are those of _PayloadRows (zero is 0); the pivot
    inverse PrimeField.inv is pow(a, p - 2, p).  F[X] is _ringops.PrimeRing."""

    def subtract_row(self, v, a, row):
        p = self.k.p
        for i, y in row:
            v[i] = (v[i] - a * y) % p

    def scaled_pairs(self, v, c):
        p = self.k.p
        return [(i, x * c % p) for i, x in enumerate(v) if x]

    def apply(self, columns, v, n):
        p = self.k.p
        out = [0] * n
        for a, col in zip(v, columns):
            if a:
                for i, y in col:
                    out[i] = (out[i] + a * y) % p
        return out


# GF(2) payloads 0 and 1 to the binary digits int(_, 2) reads, and back
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


class _BitRows:
    """GF(2) vectors packed into Python ints, bit i holding coordinate i,
    as the rows of M4RI (Albrecht, Bard and Hart, "Algorithm 898: Efficient
    multiplication of dense matrices over GF(2)", ACM TOMS 37, 2010).  A
    pivot is the lowest set bit and already a unit, so a reduction step is
    one XOR of the row and one of its combo; no combo is the empty combo 0.
    The echelon maps each pivot bit to its (row, combo), so a reduction
    looks up only the set bits of the vector.  The same packing is GF(2)[X]
    for the Smith finish, bit i the coefficient of X^i: subtraction is XOR,
    multiplication and division shift and XOR, every nonzero polynomial is
    monic, and size is the coefficient count (0 for zero); gcd, divide_out
    and multiplicity are _ringops.PolyRing's on these.
    """

    @staticmethod
    def pack(vec):
        return int(bytes(vec[::-1]).translate(_TO_DIGITS) or b"0", 2)

    @staticmethod
    def unpack(v, n):
        # format writes zero as one digit even at width 0
        digits = format(v, f"0{n}b") if v else "0" * n
        return list(digits[::-1].encode().translate(_FROM_DIGITS))

    @staticmethod
    def unit(i, n):
        return 1 << i

    @staticmethod
    def expand(row, n):
        return row

    @staticmethod
    def low(v):
        """Index of the lowest set bit of the nonzero v."""
        return (v & -v).bit_length() - 1

    @staticmethod
    def segment(v, lo, hi):
        return v >> lo & (1 << hi - lo) - 1

    def extend(self, echelon, v, c):
        # w holds the set bits of v not yet visited, lowest first; the row
        # at pivot b clears bit b and touches only the bits above it
        c = c or 0
        w = v
        while w:
            low = w & -w
            entry = echelon.get(low.bit_length() - 1)
            if entry is None:
                w ^= low
            else:
                row, ecombo = entry
                w ^= row
                v ^= row
                c ^= ecombo
        if not v:
            return False, c
        echelon[self.low(v)] = (v, c)
        return True, c

    @staticmethod
    def reshape(v, m):
        mask = (1 << m) - 1
        return [v >> i & mask for i in range(0, m * m, m)]

    def columns(self, vectors):
        return [self.pack(vec) for vec in vectors]

    @staticmethod
    def apply(columns, v, n):
        """XOR of the columns at the set bits of v."""
        out = 0
        while v:
            low = v & -v
            out ^= columns[low.bit_length() - 1]
            v ^= low
        return out

    zero, one = 0, 1
    size = staticmethod(int.bit_length)
    sub = operator.xor
    monic = operator.pos

    @staticmethod
    def mul(a, b):
        if a.bit_length() < b.bit_length():
            a, b = b, a
        out = 0
        while b:
            low = b & -b
            out ^= a << low.bit_length() - 1
            b ^= low
        return out

    @staticmethod
    def divmod(a, b):
        n = b.bit_length()
        if not n:
            raise ZeroDivisionError("division by zero polynomial")
        q, shift = 0, a.bit_length() - n
        while shift >= 0:
            q |= 1 << shift
            a ^= b << shift
            shift = a.bit_length() - n
        return q, a

    rem = staticmethod(lambda a, b: _BitRows.divmod(a, b)[1])
    gcd, divide_out, multiplicity = rp.PolyRing.gcd, rp.PolyRing.divide_out, rp.PolyRing.multiplicity


_BIT_ROWS = _BitRows()
