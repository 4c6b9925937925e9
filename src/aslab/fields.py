"""Exact arithmetic for GF(p), GF(p^n) and rational function fields K(Z).

A field is described by a FieldDescriptor; elements are immutable
FieldElement wrappers around canonical payloads:

  * GF(p)      -- integers in [0, p)
  * GF(p^n)    -- length-n tuples of integers, coefficients of the residue
                  class modulo a fixed monic irreducible, low degree first
  * K(Z)       -- reduced fractions (num, den) of coefficient tuples over the
                  finite base field K, denominator monic, gcd(num, den) = 1;
                  a linear denominator is reduced by one Horner pass at its
                  root, a longer one by Euclid's gcd, and none is taken
                  where lowest terms are known: a sum with a polynomial,
                  an inverse, a constant numerator; a product reduces each
                  numerator against the other factor's denominator

Two descriptors denote the same field exactly when they are structurally
equal (same p, n, modulus, base), and elements of structurally different
fields never mix.  Field specs are parsed from strings such as "GF(2)",
"GF(4)", "GF(2^3; mod=t^3+t^2+1)" and "GF(3)(Z)"; when the modulus is
omitted it defaults to the lexicographically smallest monic irreducible
(coefficient vectors compared low-degree-first), so a given spec always
produces the same field on every machine.  An element equals only an
element of the same field with the same payload, never an int (in GF(3)
both 1 and 4 would equal F(1)), so equal values hash equally; Poly
equality is the same.

FieldDescriptor.payload_of is the single point where values from outside
(FieldElements, ints, element strings, payloads) are checked and turned
into payloads; element, Poly(...) and Matrix(...) all go through it, and
code that computes payloads itself skips it (Poly.from_raw,
Matrix.from_raw).  FieldElement's binary operators are one body, _binary:
an int or FieldElement operand goes through payload_of, and any other
gets the one refusal, NotImplemented.  Element strings are read by the one
FieldDescriptor.parse_element over each kind's parse atoms, atoms(): none
for GF(p), t for GF(p^n), Z plus the base field's atoms for K(Z);
Poly.from_string reads the same table.

Finite fields are capped at 3^6 = 729 elements, checked before any
primality test, divisor search or power (_check_field_size, on
power_exceeds, which never forms a huge p^n).  GF(p^n) arithmetic runs
through exp/log/Zech-log tables built once per (k, modulus) (see
_build_log_tables): a product, inverse or power is one dict lookup and one
list lookup, and a sum goes through the Zech table, log(1 + g^k), with g
the first primitive element in enumeration order.  _first_generator is the
one search loop for an element of full multiplicative order; acceptance
runs it on elements with its default pow tests, and the tables with a test
on the subgroup generated by T: one walk of T's powers gives ord T and
log_T, and each candidate costs one power of small exponent, looked up in
it (_generator_on_t).  The tables are built on residue indices, the places
of the payloads in residues: the powers of T and of g are walked on split
indices, four lookups a step, over every base, GF(2) included
(_split_powers), and every entry is one of residues' tuples.  A modulus of
degree 1 keeps the pow tests and _ringops.powers_mod.

The finite-field kernels shared by the package live here: _least_divisor,
the one trial division (is_prime, and the p of a field order q = p^n),
p_power_split (n = m * p^s), ben_or_irreducible (for monic raw
polynomials over any finite descriptor: the gcd of f with x^(q^d) - x at
each d <= deg f / 2, the rule of poly._factor_raw, on one Frobenius chain,
_ringops.frobenius_chain; poly.is_irreducible_finite wraps it),
monic_irreducibles (the search for the oracle's moduli, behind a locked
cache that starts with default_modulus's table), default_modulus (a
constant table, _DEFAULT_MODULI: the search's first answer for each
GF(p^n) under the cap, so a default field is built with no search; every
log-table build re-verifies its entry, and a custom modulus keeps Ben-Or's
test), the tables of _log_tables, _TabulatedField, the one k[T]/(m) field
on those tables (the oracle's K[Z]/(m), with kind "quotient" and a sort
key on the coefficients lowest first; ExtensionField is its subclass, with
its own kind and the reversed key), and residues, the enumeration order of every
such field.  memoised is the one build-once cache: the log tables, the
index tables, the embedding tables, the specialisation points and
dickson's symbolic forms are each built once per argument tuple, also
under threads.  _index_table is the one residue index of a prime or
extension field: its payloads in enumeration order (the log tables' own
tuples), their sort keys and the map back, read by _digits, the degree-1
log tables, dickson's spans and _embedding of a field into itself; the
spans step on _index_shift, the digitwise index sum, split above 256.
_embedding is the one embedding of GF(p^m) into GF(p^n) or into
GF(p^n)(Z): a table from each payload of the small field to its image,
built once per field pair, each image c_0 + c_1 r + ... evaluated by
_ringops.evaluate at a root r (embed_subfield wraps it for elements,
always through the table; dickson and specialisation_points read it on
payloads).  r is the first root of _raw_roots, the one root scan of a raw
polynomial over a finite field (poly's root and equal-degree splitting
code and analyze's eigenvalues read it too).  The scan makes no method
call per point: Horner on ints over GF(p), in the log domain over a
tabulated field, with the roots in enumeration order either way, so the
first root, and so every embedding, is the one a scan of the elements in
order finds.  Beside it, _linear_product is the one product of linear
factors prod (Y + b) over a finite field (dickson's f_R), written the same
way: one pass per factor, on ints over GF(p) and in the log domain over a
tabulated field.  _subfield_check is the one test whether a finite set of
payloads holding 0 is a subfield (analyze's c2 and SubspaceR.is_subfield).

residues is also the one payload form of every tabulated field: coefficient
tuples of full length d, zeros included.  Each field kind has one power,
pow_int: Python's pow in GF(p), a table lookup in a tabulated field, and a
power of numerator and denominator in K(Z); inv of a finite field, and
frobenius and pth_root of a tabulated one, are pow_int at -1, p and q/p,
and every field divides by the one FieldDescriptor.div, a * b^-1.
pth_roots is the one p-th-root test, verified by a p-th power
(is_pth_power_coeffs and irred's criterion).  A modulus string is parsed
as a polynomial in t over GF(p)(t).

specialise is the one map Z -> z0 from K(Z) into a tabulated field, at the
points of specialisation_points (all of K, then GF(|K|^2) through
_embedding's table, at most SPECIALISATION_TRIES); it reports a pole as None.
"""

import functools
import itertools
import math
import operator
import re
import threading

from . import _ringops as rp
from ._exprparse import int_literal, parse_expression
from .errors import CapExceededError, ConsistencyError, InputError

MAX_FIELD_SIZE = 729


def memoised(cache):
    """Decorator: build(*args), never None, is built once per argument tuple
    and kept in the dict cache under that tuple.  The build runs outside
    the lock and setdefault keeps the first value stored, so threads that
    race on an empty entry all return the one object."""
    lock = threading.Lock()

    def decorate(build):
        @functools.wraps(build)
        def cached(*args):
            with lock:
                value = cache.get(args)
            if value is None:
                value = build(*args)
                with lock:
                    value = cache.setdefault(args, value)
            return value

        return cached

    return decorate


def p_power_split(n, p):
    """(s, m) with n = m * p^s and p not dividing m, for n >= 1 and p >= 2."""
    if n < 1 or p < 2:
        raise InputError(f"p_power_split needs n >= 1 and p >= 2, got n = {n}, p = {p}")
    s = 0
    while n % p == 0:
        n //= p
        s += 1
    return s, n


def power_exceeds(p, n, bound):
    """Whether p**n > bound, for p >= 2 and n >= 0, without forming a huge
    power: 2**n already exceeds bound once n reaches its bit length."""
    return n >= bound.bit_length() or p**n > bound


def _check_field_size(p, n):
    """Refuse a field of p^n elements over MAX_FIELD_SIZE, and an exponent
    n < 1.  Run before any primality test, divisor search or power, so a
    huge p or n costs nothing; p < 2 passes, for the callers' own messages."""
    if n < 1:
        raise InputError("extension degree must be at least 2; use GF(p) for n=1")
    if p >= 2 and power_exceeds(p, n, MAX_FIELD_SIZE):
        size = p if n == 1 else f"{p}^{n}"
        raise CapExceededError(f"field size {size} exceeds cap {MAX_FIELD_SIZE}")


def _least_divisor(n):
    """The least divisor f >= 2 of n >= 2: n itself when none is at most sqrt(n)."""
    return next((f for f in range(2, math.isqrt(n) + 1) if n % f == 0), n)


def is_prime(n):
    return n >= 2 and _least_divisor(n) == n


def _needs_parens(s):
    return "+" in s or "-" in s or "/" in s


def _raw_poly_str(k, a, var):
    """Render a trimmed coefficient tuple over descriptor k."""
    if not a:
        return "0"
    parts = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if c == k.zero:
            continue
        if i == 0:
            parts.append(k.payload_str(c))
            continue
        xpart = var if i == 1 else f"{var}^{i}"
        if c == k.one:
            parts.append(xpart)
        else:
            cs = k.payload_str(c)
            if _needs_parens(cs):
                cs = "(" + cs + ")"
            parts.append(cs + "*" + xpart)
    return "+".join(parts)


def _binary(name, reflected=False):
    """The FieldElement operator running the descriptor's method name on
    the two payloads, the operands swapped when reflected.  An int or a
    FieldElement operand goes through payload_of; any other operand gets
    NotImplemented, so Python tries the other side (a Poly, say).  The
    method is looked up at each call, so a class-level wrapper on the
    descriptor sees it."""

    def op(self, other):
        if not isinstance(other, (FieldElement, int)):
            return NotImplemented
        field = self.field
        a, b = self.payload, field.payload_of(other)
        if reflected:
            a, b = b, a
        return FieldElement(field, getattr(field, name)(a, b))

    return op


class FieldElement:
    """Immutable element of a field, supporting the usual operators."""

    __slots__ = ("field", "payload")

    def __init__(self, field, payload):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, *args):
        raise AttributeError("FieldElement is immutable")

    __add__ = __radd__ = _binary("add")
    __sub__ = _binary("sub")
    __rsub__ = _binary("sub", reflected=True)
    __mul__ = __rmul__ = _binary("mul")
    __truediv__ = _binary("div")
    __rtruediv__ = _binary("div", reflected=True)

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.payload))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return FieldElement(self.field, self.field.pow_int(self.payload, n))

    def __eq__(self, other):
        # no int branch: in GF(3), 1 and 4 would both equal F(1), and no
        # hash could agree with that
        if isinstance(other, FieldElement):
            return self.field == other.field and self.payload == other.payload
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.payload))

    def __bool__(self):
        return self.payload != self.field.zero

    def __str__(self):
        return self.field.payload_str(self.payload)

    def __repr__(self):
        return f"{self.field.spec_string()}:{self}"

    def sort_key(self):
        return self.field.sort_key(self.payload)


class FieldDescriptor:
    """Base class; concrete kinds are prime, extension and rational-function."""

    kind = None

    def payload_of(self, value):
        """Canonical payload of a FieldElement of this field, an int, an
        element string or a payload; raises InputError for anything else,
        a bool included (JSON true is not a field element)."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise InputError("element belongs to a different field")
            return value.payload
        if isinstance(value, str):
            return self.parse_element(value).payload
        if isinstance(value, int) and not isinstance(value, bool):
            return self.from_int(value)
        return self.validate_payload(value)

    def element(self, value):
        """Build an element from a payload, int, string or FieldElement."""
        return FieldElement(self, self.payload_of(value))

    def __call__(self, value):
        return self.element(value)

    def parse_element(self, s):
        """The element an expression string such as "t+1" or "(Z+1)/Z"
        denotes, over the identifiers of atoms()."""
        return parse_expression(s, self.atoms(), lambda i: FieldElement(self, self.from_int(i)))

    def zero_element(self):
        return FieldElement(self, self.zero)

    def one_element(self):
        return FieldElement(self, self.one)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def __repr__(self):
        return self.spec_string()


class PrimeField(FieldDescriptor):
    kind = "prime"

    def __init__(self, p):
        _check_field_size(p, 1)
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
        self.p = p
        self.n = 1
        self.order = p
        self.char = p
        self.zero = 0
        self.one = 1

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        return self.pow_int(a, -1)

    def pow_int(self, a, n):
        if a == 0 and n < 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, n, self.p)

    def from_int(self, i):
        return i % self.p

    def validate_payload(self, a):
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.p:
            raise InputError(f"invalid GF({self.p}) payload {a!r}")
        return a

    def frobenius(self, a):
        return a

    def pth_root(self, a):
        return a

    def enumerate_payloads(self):
        return range(self.p)

    def random_payload(self, rng):
        return rng.randrange(self.p)

    def random_payloads(self, rng, count):
        """count random_payload draws, as a tuple, by the same rng calls."""
        return tuple(map(rng.randrange, (self.p,) * count))

    def sort_key(self, a):
        return (a,)

    def payload_str(self, a):
        return str(a)

    def atoms(self):
        """Identifiers of element strings and their values: none for GF(p)."""
        return {}

    def spec_string(self):
        return f"GF({self.p})"


def ben_or_irreducible(k, f):
    """Ben-Or's test: whether the monic raw polynomial f of degree n is
    irreducible over the finite field k of q elements, that is n >= 1 and
    gcd(x^(q^d) - x, f) = 1 for d = 1, ..., n // 2 (a reducible f has a
    factor of degree at most n/2, and x^(q^d) - x is the product of the
    monic irreducibles of degree dividing d).  Every x^(q^d) is read off one
    Frobenius chain mod f (_ringops.frobenius_chain), each gcd in
    _ringops.ring(k), and the walk stops at the first common factor (Ben-Or,
    "Probabilistic algorithms in finite fields", FOCS 1981; Gao and
    Panario, "Tests and constructions of irreducible polynomials over
    finite fields", FoCM 1997)."""
    n = len(f) - 1
    x, ring = (k.zero, k.one), rp.ring(k)
    for _, h in zip(range(n // 2), rp.frobenius_chain(k, f)):
        if ring.gcd(ring.sub(h, x), f) != ring.one:
            return False
    return n >= 1


# the lexicographically smallest monic irreducible of degree n over GF(p),
# low degree first, for every n >= 2 with p^n <= MAX_FIELD_SIZE: what
# monic_irreducibles(PrimeField(p), n, 1)[0] finds, kept as data as
# table-based finite-field systems keep their defining polynomials (Heath
# and Loehr, J. Symbolic Comput. 38, 2004); every log-table build checks
# its entry again (_generator_on_t)
_DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 0, 1, 1),
    (2, 4): (1, 0, 0, 1, 1),
    (2, 5): (1, 0, 0, 1, 0, 1),
    (2, 6): (1, 0, 0, 0, 0, 1, 1),
    (2, 7): (1, 0, 0, 0, 0, 0, 1, 1),
    (2, 8): (1, 0, 0, 0, 1, 1, 0, 1, 1),
    (2, 9): (1, 0, 0, 0, 0, 0, 0, 0, 1, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 0, 2, 1),
    (3, 4): (1, 0, 1, 1, 1),
    (3, 5): (1, 0, 0, 0, 2, 1),
    (3, 6): (1, 0, 0, 0, 1, 1, 1),
    (5, 2): (1, 1, 1),
    (5, 3): (1, 0, 1, 1),
    (5, 4): (1, 0, 1, 1, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (1, 0, 1, 1),
    (11, 2): (1, 0, 1),
    (13, 2): (1, 3, 1),
    (17, 2): (1, 1, 1),
    (19, 2): (1, 0, 1),
    (23, 2): (1, 0, 1),
}

# the search's cache starts with the table's answers
_irreducible_cache = {(PrimeField(p), n): [m] for (p, n), m in _DEFAULT_MODULI.items()}
_irreducible_lock = threading.Lock()


def monic_irreducibles(k, degree, count):
    """First `count` monic irreducible raw polynomials of the degree over the
    finite field k, in enumeration order of their coefficient tails.

    The scan may pass many candidates before its first find.  At degree 8
    over GF(2^j) the first q^2 candidates with a nonzero constant term c are
    X^8 + a X^7 + b X^6 + c, and none is irreducible: reversed, c X^8 +
    b X^2 + a X + 1 is a square (a = 0) or an affine 2-polynomial, whose 8
    roots are a coset of a 3-dimensional GF(2)-space; Frobenius acts on it
    as an element of AGL(3, 2), of order 1, 2, 3, 4, 6 or 7, never 8 (Lidl
    and Niederreiter, Finite Fields, ch. 3).  Over GF(512) that is 262,144
    candidates."""
    key = (k, degree)
    with _irreducible_lock:
        cached = _irreducible_cache.get(key, [])
    if len(cached) >= count:
        return cached[:count]
    out, payloads = [], list(k.enumerate_payloads())
    # X divides a tail with constant term zero, and only X itself is
    # irreducible; the constant term varies slowest, so the scan starts at
    # its first nonzero value
    constants = payloads if degree < 2 else [c for c in payloads if c != k.zero]
    for tail in itertools.product(constants, *[payloads] * (degree - 1)):
        cand = tail + (k.one,)
        if ben_or_irreducible(k, cand):
            out.append(cand)
            if len(out) == count:
                break
    with _irreducible_lock:
        if len(out) > len(_irreducible_cache.get(key, [])):
            _irreducible_cache[key] = out
    return list(out)


def default_modulus(p, n):
    """Lexicographically smallest monic irreducible of degree n >= 2 over
    GF(p), p^n within the cap: the entry of _DEFAULT_MODULI, with no search.
    A wrong entry cannot pass unseen: the log tables of a reducible modulus
    raise ConsistencyError."""
    return _DEFAULT_MODULI[p, n]


# log of zero: far enough below every log that a sum or difference with it
# stays negative, so one sign test catches a zero operand
_LOG_ZERO = -(1 << 30)

_table_cache = {}


def residues(k, d):
    """The residues of k[T]/(m), m of degree d over the finite k, in
    enumeration order: the coefficients of a polynomial of degree < d,
    lowest first, zeros included up to length d, the lowest coefficient
    varying fastest.  Every tabulated field enumerates its payloads here."""
    # itertools.product varies its last slot fastest; reversed, the lowest
    # coefficient varies fastest
    return map(_REVERSED, itertools.product(k.enumerate_payloads(), repeat=d))


_REVERSED = operator.itemgetter(slice(None, None, -1))


def _first_generator(candidates, order, power, one, primitive=None):
    """The first nonzero candidate g that passes primitive(g): an element of
    multiplicative order `order` when the candidates lie in a field with
    order + 1 elements and the test is exact.  The default test is
    power(g, order // l) != one for every prime l dividing order (Lidl and
    Niederreiter, Finite Fields, Thm 2.8); the log tables pass their own,
    on the subgroup generated by T (_generator_on_t)."""
    if primitive is None:
        ells = [ell for ell in range(2, order + 1) if order % ell == 0 and is_prime(ell)]

        def primitive(g):
            return all(power(g, order // ell) != one for ell in ells)

    for g in candidates:
        if g and primitive(g):
            return g
    raise ConsistencyError(f"no element of multiplicative order {order}")


@memoised({})
def _digits(k):
    """k's elements as the digits 0 .. |k|-1 of residue indices, in
    enumeration order: (pos, add, mul), pos[c] the digit of the element c
    (c itself over GF(p)), add[a][b] and mul[a][b] the digits of the sum
    and the product.  A residue of k[T]/(m) with coefficient digits x_i has
    index sum x_i |k|^i, its place in residues(k, d).  Built only for a k
    that is the base of a degree d >= 2, so |k| <= 27, and kept as bytes
    rows."""
    if k.kind == "prime":
        p = k.p
        add = [bytes((a + b) % p for b in range(p)) for a in range(p)]
        mul = [bytes(a * b % p for b in range(p)) for a in range(p)]
        return range(p), add, mul
    table = _index_table(k)
    els, pos = table.payloads, table.index
    add = [bytes(pos[k.add(a, b)] for b in els) for a in els]
    mul = [bytes(pos[k.mul(a, b)] for b in els) for a in els]
    return pos, add, mul


@memoised({})
def _digit_sums(k, s):
    """sums[a][b]: the index of the digitwise sum of the s-digit residue
    indices a and b (_digits), at most 256 rows of bytes (s = 8 over
    GF(2), for the index table of GF(256)).

    With B = |k|^(s-1), a = lo + B top and b = lo' + B top', the sum is
    lower[lo][lo'] + B add[top][top'], lower the (s-1)-digit table: row a
    is the row lower[lo] once per top', each copy shifted by one
    bytes.translate, every index below 256."""
    add = _digits(k)[1]
    if s == 1:
        return add
    lower = _digit_sums(k, s - 1)
    big = len(lower)
    # shifts[t] adds big * t to every byte
    shifts = [bytes(range(c, 256)) + bytes(range(c)) for c in range(0, big * len(add), big)]
    return [b"".join([low.translate(shifts[t]) for t in row]) for row in add for low in lower]


def _split_powers(columns, sums, mul):
    """The residue indices of 1, g, g^2, ... without end, over a k with the
    digit tables of _digits, columns[i] the digits of g T^i mod m (i < d)
    and sums = _digit_sums(k, h), h = ceil(d/2).

    A product by g is linear over k, so on an index x = lo + B hi, lo its
    low h digits and B = |k|^h, it is the digitwise sum of the images of lo
    and of B hi.  Both images are tabulated once, split into the same two
    halves, so each step is four lookups and two digitwise sums, whatever
    g is."""
    size, h = len(mul), (len(columns) + 1) // 2
    weights = [size**i for i in range(h)]

    def split(v):
        # digits -> the indices of the low h digits and of the rest
        return sum(map(operator.mul, v[:h], weights)), sum(map(operator.mul, v[h:], weights))

    def images(cols):
        # the halves of the image of every index below size^len(cols), in
        # index order: the digit of cols[j] varies slowest when added last
        table = [(0, 0)]
        for col in cols:
            scaled = [split([mul[c][x] for x in col]) for c in range(size)]
            table = [(sums[a][u], sums[b][w]) for u, w in scaled for a, b in table]
        return list(zip(*table))

    (ll, lh), (hl, hh), big = images(columns[:h]), images(columns[h:]), size**h
    x = 1
    while True:
        yield x
        hi, lo = divmod(x, big)
        x = sums[ll[lo]][hl[hi]] + big * sums[lh[lo]][hh[hi]]


def _generator_on_t(k, modulus, res):
    """The residue indices of 1, g, g^2, ... in k[T]/(modulus) of degree
    d >= 2, g the first primitive element in enumeration order.

    T is walked once: its powers give o = ord T and log_T on H = <T>, the
    elements of order dividing o.  With r = (q - 1) / o, c = g^e is
    primitive iff gcd(e, q - 1) = 1, that is iff gcd(log_T(c^r), o) = 1
    and c^(r/l) is not in H for each prime l of r that does not divide o;
    so every power in the search has an exponent at most r, and a
    candidate in k, never primitive, is skipped.  A primitive T (r = 1)
    takes the same search, and g gets a walk of its own.  Every walk steps
    on split indices (_split_powers), over GF(2) as over any other k.

    The walk and the search also test the modulus.  If T returns to 1 after
    o steps, o dividing q - 1, and c passes the test, then c has order
    q - 1 in any commutative ring: ord(c^r) = o fixes the l-part of ord c
    for each prime l of o, and c^(r/l) outside H for each other prime l of
    r.  So k[T]/(modulus) has q - 1 units and is a field.  A reducible
    modulus fails one of the three, and raises ConsistencyError."""
    d, size = len(modulus) - 1, k.order
    q1 = size**d - 1
    pos, add, mul = _digits(k)
    tail = [pos[k.neg(c)] for c in modulus[:-1]]
    sums = _digit_sums(k, (d + 1) // 2)

    def powers(g):
        v, columns = [g // size**i % size for i in range(d)], []
        for _ in range(d):
            columns.append(v)
            v = [add[a][mul[v[-1]][t]] for a, t in zip([0] + v, tail)]
        return _split_powers(columns, sums, mul)

    t_powers = powers(size)  # T is the residue of index |k|
    walk = [next(t_powers)]
    for x in itertools.islice(t_powers, q1):
        if x == 1:
            break
        walk.append(x)
    o = len(walk)
    if x != 1:
        raise _not_irreducible(k, d, f"no power of T is 1 up to the expected {q1}")
    if q1 % o:
        raise _not_irreducible(k, d, f"T of order {o}, not a divisor of the expected {q1}")
    log_t = [-1] * (q1 + 1)
    for i, x in enumerate(walk):
        log_t[x] = i
    r = q1 // o
    weights = [size**i for i in range(d)]

    def log_of_power(c, e):
        a = rp.pow_mod(k, rp.trim(k, res[c]), e, modulus)
        return log_t[sum(pos[x] * w for x, w in zip(a, weights))]

    others = [ell for ell in range(2, r + 1) if r % ell == 0 and o % ell and is_prime(ell)]

    def primitive(c):
        y = log_of_power(c, r)
        return y >= 0 and math.gcd(y, o) == 1 and all(log_of_power(c, r // ell) < 0 for ell in others)

    try:
        g = _first_generator(range(size, q1 + 1), q1, None, None, primitive)
    except ConsistencyError:
        raise _not_irreducible(k, d, f"T of order {o} and no generator of the expected {q1}") from None
    return powers(g)


def _not_irreducible(k, d, found):
    """The error of a reducible modulus of degree d over k, naming what the
    build found."""
    return ConsistencyError(
        f"log tables: the modulus is not irreducible: degree {d} over GF({k.order}), {found}"
    )


def _build_log_tables(k, modulus):
    """Exp/log/Zech-log tables of the field k[T]/(modulus), built once per
    (k, modulus) and shared (Huber, IEEE Trans. IT 1990).

    k is a finite descriptor and modulus a monic irreducible raw polynomial
    of degree d over it.  Payloads are the length-d coefficient tuples of
    residues, each table entry one of its tuples.  Returns (q1, exp, log,
    zech, neg) with q1 = k.order^d - 1 and g the first primitive element in
    enumeration order:
      exp[i] = g^i for 0 <= i < 2*q1 (doubled: a sum of two logs needs no
               modulo);
      log[a] = i with g^i = a, and _LOG_ZERO for zero, inserted in exp
               order;
      zech[j] = log(1 + g^j), with period q1 and length 2*q1, so that every
               difference of logs in (-2*q1, 2*q1) indexes it directly;
      neg = log(-1).
    There is no addition table: a q x q table would hold 531441 entries at
    q = 729, where these hold about 5q.

    The tables are built on residue indices, the places of the payloads in
    residues.  For d >= 2, g and its powers come from _generator_on_t: one
    search on the subgroup generated by T and split-index walks of T and g
    over every base k, GF(2) included; it raises ConsistencyError for a
    reducible modulus.  For d = 1, g is found by _first_generator's pow
    tests and its powers by _ringops.powers_mod.
    """
    d = len(modulus) - 1
    q1 = k.order**d - 1
    res = list(residues(k, d))
    if d == 1:
        pos = _index_table(k).index
        g = _first_generator(range(1, q1 + 1), q1, lambda c, e: rp.pow_mod(k, res[c], e, modulus), (k.one,))
        powers = (pos[a[0]] for a in rp.powers_mod(k, res[g], modulus))
        inc = [pos[k.add(c, k.one)] for c in pos]
    else:
        powers = _generator_on_t(k, modulus, res)
        inc = [row[1] for row in _digits(k)[1]]
    exp = list(itertools.islice(powers, q1))
    logs = list(range(q1))  # one int per log, shared by log and zech
    log = dict(zip(map(res.__getitem__, exp), logs))
    log[res[0]] = _LOG_ZERO
    log_index = [_LOG_ZERO] * (q1 + 1)
    for i, x in zip(logs, exp):
        log_index[x] = i
    size = k.order
    # 1 + x changes only the constant digit x % size, to inc[x % size]
    zech = [log_index[x - x % size + inc[x % size]] for x in exp]
    exp = [res[x] for x in exp]
    neg = log_index[inc.index(0)]
    return q1, exp + exp, log, zech + zech, neg


_log_tables = memoised(_table_cache)(_build_log_tables)


class _TabulatedField:
    """The field k[T]/(modulus), modulus monic irreducible over the finite
    field k, with its operations on the tables of _log_tables.  It is the
    oracle's K[Z]/(m) as it stands; ExtensionField adds the GF(p^n)
    interface."""

    kind = "quotient"

    def __init__(self, k, modulus):
        d = len(modulus) - 1
        self.base = k
        self.order = k.order**d
        self.char = k.char
        self.zero = (k.zero,) * d
        self.one = (k.one,) + self.zero[1:]
        self._q1, self._exp, self._log, self._zech, self._neg = _log_tables(k, modulus)

    def from_int(self, i):
        return (self.base.from_int(i),) + self.zero[1:]

    def enumerate_payloads(self):
        return residues(self.base, len(self.zero))

    def add(self, a, b):
        log = self._log
        la = log[a]
        lb = log[b]
        if la < 0:
            return b
        if lb < 0:
            return a
        s = la + self._zech[lb - la]
        return self._exp[s] if s >= 0 else self.zero

    def sub(self, a, b):
        log = self._log
        la = log[a]
        lb = log[b] + self._neg  # log(-b), below 2*q1
        if lb < 0:
            return a
        if la < 0:
            return self._exp[lb]
        s = la + self._zech[lb - la]
        return self._exp[s] if s >= 0 else self.zero

    def neg(self, a):
        s = self._log[a] + self._neg
        return self._exp[s] if s >= 0 else self.zero

    def mul(self, a, b):
        log = self._log
        s = log[a] + log[b]
        return self._exp[s] if s >= 0 else self.zero

    def inv(self, a):
        return self.pow_int(a, -1)

    div = FieldDescriptor.div

    def pow_int(self, a, n):
        la = self._log[a]
        if la < 0:
            if n < 0:
                raise ZeroDivisionError("inverse of zero")
            return self.one if n == 0 else self.zero
        return self._exp[la * n % self._q1]

    def sort_key(self, a):
        return tuple(self.base.sort_key(c) for c in a)

    def frobenius(self, a):
        return self.pow_int(a, self.char)

    def pth_root(self, a):
        # Frobenius is bijective: the inverse is x -> x^(q/p).
        return self.pow_int(a, self.order // self.char)


class ExtensionField(_TabulatedField, FieldDescriptor):
    kind = "extension"

    def __init__(self, p, n, modulus=None):
        _check_field_size(p, n)
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
        if n < 2:
            raise InputError("extension degree must be at least 2; use GF(p) for n=1")
        self.p = p
        self.n = n
        base = PrimeField(p)
        if modulus is None:
            modulus = default_modulus(p, n)
        else:
            modulus = rp.trim(base, tuple(c % p for c in modulus))
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise InputError("modulus must be monic of the stated degree")
            if not ben_or_irreducible(base, modulus):
                raise InputError("modulus is reducible over the prime field")
        self.modulus = modulus
        _TabulatedField.__init__(self, base, modulus)

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.p == self.p
            and other.n == self.n
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("extension", self.p, self.n, self.modulus))

    def validate_payload(self, a):
        if (
            not isinstance(a, (tuple, list))
            or len(a) != self.n
            or not all(
                isinstance(c, int) and not isinstance(c, bool) and 0 <= c < self.p for c in a
            )
        ):
            raise InputError(f"invalid GF({self.p}^{self.n}) payload {a!r}")
        return tuple(a)

    def gen(self):
        return FieldElement(self, (0, 1) + (0,) * (self.n - 2))

    def random_payload(self, rng):
        return tuple(map(rng.randrange, (self.p,) * self.n))

    def random_payloads(self, rng, count):
        # one iterator of count * n coefficients, grouped n at a time by zip
        return tuple(zip(*[map(rng.randrange, (self.p,) * (self.n * count))] * self.n))

    def sort_key(self, a):
        # consistent with enumeration order (low coefficient least significant)
        return tuple(reversed(a))

    def payload_str(self, a):
        return _raw_poly_str(self.base, rp.trim(self.base, a), "t")

    def atoms(self):
        return {"t": self.gen()}

    def spec_string(self):
        if self.modulus == default_modulus(self.p, self.n):
            return f"GF({self.order})"
        return f"GF({self.p}^{self.n}; mod={_raw_poly_str(self.base, self.modulus, 't')})"


class RationalFunctionField(FieldDescriptor):
    kind = "rational-function"

    def __init__(self, base):
        if base.kind == "rational-function":
            raise InputError("nested rational function fields are not supported")
        self.base = base
        self.p = base.p
        self.n = base.n
        self.char = base.char
        self.order = None
        self.zero = ((), (base.one,))
        self.one = ((base.one,), (base.one,))

    def __eq__(self, other):
        return isinstance(other, RationalFunctionField) and other.base == self.base

    def __hash__(self):
        return hash(("rational-function", self.base))

    def _canon(self, num, den):
        k = self.base
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return ((), (k.one,))
        if len(den) == 1:
            if den[0] != k.one:
                num = rp.scale(k, num, k.inv(den[0]))
            return (num, (k.one,))
        if len(den) == 2:
            return self._canon_linear(num, den)
        # a constant numerator is coprime to den
        g = rp.gcd(k, num, den) if len(num) > 1 else (k.one,)
        if len(g) > 1:
            num = rp.divmod_(k, num, g)[0]
            den = rp.divmod_(k, den, g)[0]
        lead = den[-1]
        if lead != k.one:
            c = k.inv(lead)
            num = rp.scale(k, num, c)
            den = rp.scale(k, den, c)
        return (num, den)

    def _canon_linear(self, num, den):
        """_canon for a linear denominator d1 * (Z - r): the gcd is Z - r
        exactly when num(r) = 0, so one Horner pass at r, which is also the
        synthetic division by Z - r, takes the place of Euclid's gcd."""
        k = self.base
        c = k.inv(den[1])
        r = k.neg(k.mul(den[0], c))
        # partial sums: the quotient's coefficients from the top, then num(r)
        acc = k.zero
        sums = []
        for x in reversed(num):
            acc = k.add(k.mul(acc, r), x)
            sums.append(acc)
        if acc == k.zero:
            num, den = tuple(reversed(sums[:-1])), (k.one,)
        else:
            den = (k.neg(r), k.one)
        if c != k.one:
            num = rp.scale(k, num, c)
        return (num, den)

    def fraction(self, num, den):
        """Element from raw coefficient tuples over the base field."""
        k = self.base
        return FieldElement(self, self._canon(rp.trim(k, num), rp.trim(k, den)))

    def _add_or_sub(self, a, b, op):
        """a + b or a - b, for op rp.add or rp.sub."""
        k = self.base
        an, ad = a
        bn, bd = b
        if len(ad) == 1 and len(bd) == 1:
            return (op(k, an, bn), (k.one,))
        # with one denominator 1 the sum keeps the other: gcd(an + bn * ad,
        # ad) = gcd(an, ad) = 1, and the numerator is not zero, since ad is
        # not constant and cannot divide an
        if len(bd) == 1:
            return (op(k, an, rp.mul(k, bn, ad)), ad)
        if len(ad) == 1:
            return (op(k, rp.mul(k, an, bd), bn), bd)
        return self._canon(op(k, rp.mul(k, an, bd), rp.mul(k, bn, ad)), rp.mul(k, ad, bd))

    def add(self, a, b):
        return self._add_or_sub(a, b, rp.add)

    def sub(self, a, b):
        return self._add_or_sub(a, b, rp.sub)

    def neg(self, a):
        return (rp.neg(self.base, a[0]), a[1])

    def mul(self, a, b):
        k = self.base
        an, ad = a
        bn, bd = b
        if not an or not bn:
            return self.zero
        if len(ad) == 1 and len(bd) == 1:
            return (rp.mul(k, an, bn), (k.one,))
        # both factors are in lowest terms, so the product is once each
        # numerator is reduced against the other factor's (monic) denominator
        an, bd = self._canon(an, bd)
        bn, ad = self._canon(bn, ad)
        return (rp.mul(k, an, bn), rp.mul(k, ad, bd))

    def inv(self, a):
        an, ad = a
        if not an:
            raise ZeroDivisionError("inverse of zero")
        # (ad, an) is already coprime: only an is made monic
        k = self.base
        if an[-1] == k.one:
            return (ad, an)
        c = k.inv(an[-1])
        return (rp.scale(k, ad, c), rp.scale(k, an, c))

    def pow_int(self, a, n):
        # a coprime pair stays coprime, a monic denominator monic: no gcd
        num, den = self.inv(a) if n < 0 else a
        return (rp.power(self.base, num, abs(n)), rp.power(self.base, den, abs(n)))

    def from_int(self, i):
        v = self.base.from_int(i)
        num = () if v == self.base.zero else (v,)
        return (num, (self.base.one,))

    def validate_payload(self, a):
        if not (
            isinstance(a, (tuple, list))
            and len(a) == 2
            and all(isinstance(part, (tuple, list)) for part in a)
        ):
            raise InputError(f"invalid {self.spec_string()} payload {a!r}")
        k = self.base
        num, den = (tuple(k.validate_payload(c) for c in part) for part in a)
        if not rp.trim(k, den):
            raise InputError("fraction payload has a zero denominator")
        canon = self._canon(rp.trim(k, num), rp.trim(k, den))
        if canon != (num, den):
            raise InputError("fraction payload is not in reduced canonical form")
        return canon

    def constant(self, value):
        """Embed an element (or payload) of the base field as a constant."""
        if isinstance(value, FieldElement):
            if value.field != self.base:
                raise InputError("constant must come from the base field")
            value = value.payload
        num = rp.trim(self.base, (value,))
        return FieldElement(self, (num, (self.base.one,)))

    def gen(self):
        k = self.base
        return FieldElement(self, ((k.zero, k.one), (k.one,)))

    def random_raw(self, rng):
        """random_payload's draw before _canon: (num, den), trimmed, den
        nonzero and of degree at most 1, but neither reduced nor monic.  It
        is the same element of K(Z) and makes the same rng calls."""
        k = self.base
        num = rp.trim(k, k.random_payloads(rng, rng.randrange(1, 4)))
        den = ()
        while not den:
            den = rp.trim(k, k.random_payloads(rng, rng.randrange(1, 3)))
        return num, den

    def random_payload(self, rng):
        return self._canon(*self.random_raw(rng))

    def sort_key(self, a):
        num, den = a
        return (
            tuple(self.base.sort_key(c) for c in num),
            tuple(self.base.sort_key(c) for c in den),
        )

    def payload_str(self, a):
        num, den = a
        ns = _raw_poly_str(self.base, num, "Z")
        if den == (self.base.one,):
            return ns
        ds = _raw_poly_str(self.base, den, "Z")
        if _needs_parens(ns):
            ns = "(" + ns + ")"
        if _needs_parens(ds) or "*" in ds or "^" in ds:
            ds = "(" + ds + ")"
        return f"{ns}/{ds}"

    def atoms(self):
        atoms = {"Z": self.gen()}
        atoms.update((name, self.constant(c)) for name, c in self.base.atoms().items())
        return atoms

    def spec_string(self):
        return self.base.spec_string() + "(Z)"


_FIELD_RE = re.compile(r"^GF\(\s*(\d+)(?:\s*\^\s*(\d+))?\s*(?:;\s*mod\s*=\s*([^)]+))?\)$")


def make_field(spec):
    """Build a field descriptor from a spec string.

    Accepted forms: "GF(p)", "GF(q)" for a prime power q, "GF(p^n)",
    "GF(p^n; mod=<monic irreducible in t>)" and any of those followed by
    "(Z)" for the rational function field over it.
    """
    spec = spec.strip()
    if spec.endswith("(Z)"):
        return RationalFunctionField(make_field(spec[:-3]))
    m = _FIELD_RE.match(spec)
    if not m:
        raise InputError(f"malformed field spec {spec!r}")
    q = int_literal(m.group(1))
    n = int_literal(m.group(2)) if m.group(2) else None
    modstr = m.group(3)
    if n is None:
        # "GF(q)": factor q as p^n
        _check_field_size(q, 1)
        p, n = _prime_power(q)
    else:
        p = q
        _check_field_size(p, n)
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
    if n == 1:
        if modstr is not None:
            raise InputError("prime fields take no modulus")
        return PrimeField(p)
    modulus = None
    if modstr is not None:
        if "/" in modstr:
            raise InputError("a modulus cannot contain '/'")
        # a polynomial in t over GF(p) is the numerator of a GF(p)(t) element
        ft = RationalFunctionField(PrimeField(p))
        modulus = parse_expression(modstr, {"t": ft.gen()}, ft.element).payload[0]
    return ExtensionField(p, n, modulus)


def _prime_power(q):
    if q < 2:
        raise InputError(f"{q} is not a prime power")
    p = _least_divisor(q)
    n, rest = p_power_split(q, p)
    if rest != 1:
        raise InputError("field order is not a prime power")
    return p, n


def frobenius(x: FieldElement) -> FieldElement:
    """x -> x^p on a finite field."""
    if x.field.kind == "rational-function":
        raise InputError("frobenius is restricted to finite fields")
    return FieldElement(x.field, x.field.frobenius(x.payload))


def enumerate_elements(field):
    """All elements of a finite field, lexicographic in coefficient vectors."""
    if field.order is None:
        raise InputError("cannot enumerate an infinite field")
    return [FieldElement(field, p) for p in field.enumerate_payloads()]


def pth_roots(k, payloads):
    """The p-th roots of the payloads in the finite field k, in order, or
    None when one is not a p-th power.  The Frobenius of a finite field is
    onto, but each root is verified by its p-th power, so the test stays
    meaningful if an imperfect coefficient ring is ever added."""
    roots = [k.pth_root(c) for c in payloads]
    verified = all(k.pow_int(r, k.char) == c for r, c in zip(roots, payloads))
    return roots if verified else None


def is_pth_power_coeffs(g) -> bool:
    """Whether every coefficient of g lies in K^p (K the coefficient field)."""
    field = g.field
    if field.kind == "rational-function":
        raise InputError("is_pth_power_coeffs expects a polynomial over a finite field")
    return pth_roots(field, g.raw) is not None


def _subfield_check(field, payloads):
    """Is this finite set of payloads of field, 0 among them, a subfield?
    Returns (bool, witness).  Both callers hold 0: analyze's eigenvalues
    (ad A kills the identity, so X divides mu_ad) and a span
    (SubspaceR.is_subfield).  The closure runs through the descriptor's sub
    and mul, and a witness is written with payload_str."""
    have = set(payloads)
    if field.one not in have:
        return False, "eigenvalue set does not contain 1"
    sub, mul, text = field.sub, field.mul, field.payload_str
    for a in payloads:
        for b in payloads:
            if sub(a, b) not in have:
                return False, f"not closed under subtraction: ({text(a)}) - ({text(b)}) missing"
            if mul(a, b) not in have:
                return False, f"not closed under multiplication: ({text(a)}) * ({text(b)}) missing"
    return True, None


def _raw_roots(field, f):
    """Roots in a finite field of a raw polynomial, in enumeration order:
    every element for the zero polynomial.

    One Horner pass per point, with no method call.  Over GF(p) on ints
    over range(p).  Over a tabulated field in the log domain, over the
    nonzero elements g^i in exp order: with acc the log of the value so far
    (negative for zero), acc * g^i + c has log acc + i + zech[log c - acc - i];
    those roots are then put in enumeration order, on the base field's
    sort key (which follows its own enumeration order) from the top
    coefficient down, after zero."""
    if not f:
        return list(field.enumerate_payloads())
    top, rest = f[-1], f[-2::-1]
    roots = []
    if field.kind == "prime":
        p = field.p
        for x in range(p):
            acc = top
            for c in rest:
                acc = (acc * x + c) % p
            if not acc:
                roots.append(x)
        return roots
    q1, log, zech = field._q1, field._log, field._zech
    top, rest = log[top], [log[c] for c in rest]
    for i in range(q1):
        acc = top
        for lc in rest:
            if acc < 0:
                acc = lc
            else:
                acc = (acc + i) % q1
                if lc >= 0:
                    acc += zech[lc - acc]
        if acc < 0:
            roots.append(field._exp[i])
    base = field.base
    roots.sort(key=lambda a: [base.sort_key(c) for c in reversed(a)])
    return [field.zero] + roots if f[0] == field.zero else roots


def _linear_product(field, payloads):
    """The raw monic polynomial prod (Y + b) over b in payloads, over a
    finite field.

    One pass per factor, with no method call: the step is
    new[i] = acc[i-1] + b acc[i].  Over GF(p) on ints with % p.  Over a
    tabulated field in the log domain, acc holding the logs of the
    coefficients below q1 (negative for zero): b = 0 shifts acc up by one,
    and otherwise with u = acc[i-1] and y = log b + acc[i], new[i] has log
    u + zech[y - u] (negative when the two cancel), or y when u is zero,
    reduced below q1."""
    if field.kind == "prime":
        p = field.p
        acc = [1]
        for b in payloads:
            acc = [(u + b * a) % p for u, a in zip([0] + acc, acc + [0])]
        return tuple(acc)
    q1, log, zech = field._q1, field._log, field._zech
    acc = [0]
    for b in payloads:
        lb = log[b]
        if lb < 0:
            acc = [_LOG_ZERO] + acc
            continue
        new, u = [], _LOG_ZERO
        for a in acc:
            if a < 0:
                new.append(u)
            else:
                # y < 2*q1 and 0 <= u < q1: zech (length 2*q1) takes y - u
                y = a + lb
                if u >= 0:
                    y = u + zech[y - u]
                new.append(y - q1 if y >= q1 else y)
            u = a
        new.append(u)
        acc = new
    exp, zero = field._exp, field.zero
    return tuple(exp[a] if a >= 0 else zero for a in acc)


class _IndexTable:
    """A prime or extension field k on residue indices, the places of its
    payloads in residues (the payload itself over GF(p)), which follow its
    sort key: payloads[i] and keys[i] are the payload and the sort key of
    index i, and index is the inverse map."""

    __slots__ = ("payloads", "keys", "index")

    def __init__(self, k):
        if k.kind == "prime":
            self.payloads = self.index = range(k.p)
            self.keys = tuple((c,) for c in self.payloads)
        else:
            # the log tables' own payload tuples, sorted once by their keys
            self.keys, self.payloads = zip(*sorted(zip(map(k.sort_key, k._log), k._log)))
            self.index = dict(zip(self.payloads, range(k.order)))


@memoised({})
def _index_shift(k):
    """The digitwise sum of residue indices of the finite field k,
    (layer, x) -> [v + x for v in layer], built once per field: (v + x) % p
    over GF(p), a row of _digit_sums(GF(p), n) up to 256 elements, and
    above that the sums of the low and high halves of the digits, as
    _split_powers takes them, so no table is q x q."""
    if k.kind == "prime":
        p = k.p
        return lambda layer, x: [(v + x) % p for v in layer]
    if k.order <= 256:
        rows = _digit_sums(k.base, k.n)
        return lambda layer, x: list(map(rows[x].__getitem__, layer))
    h = (k.n + 1) // 2
    sums, big = _digit_sums(k.base, h), k.p**h

    def shift(layer, x):
        lo, hi = sums[x % big], sums[x // big]
        return [lo[v % big] + big * hi[v // big] for v in layer]

    return shift


@memoised({})
def _index_table(k):
    """The one _IndexTable of the finite field k, built once per field."""
    if k.order is None:
        raise InputError("subspaces need a finite field")
    return _IndexTable(k)


_embedding_cache = {}


@memoised(_embedding_cache)
def _embedding(small, big):
    """The embedding GF(p^m) -> F for m | n as a table: {payload of small:
    its image in big}, where big is F = GF(p^n) or GF(p^n)(Z).

    GF(p) maps by from_int, and a field into itself by the identity (t is
    the first root of its own modulus), keyed on its log tables' payloads.
    Otherwise t maps to r, the first
    root in enumeration order of small's modulus in big (_raw_roots), and
    c_0 + c_1 t + ... to c_0 + c_1 r + ..., by _ringops.evaluate at r.
    Into K(Z), the base's table is taken as constants.  Built once per
    descriptor pair."""
    if small.kind == "rational-function":
        raise InputError("subfield embeddings are defined for finite fields only")
    if big.kind == "rational-function":
        one = (big.base.one,)
        return {c: (rp.trim(big.base, (u,)), one) for c, u in _embedding(small, big.base).items()}
    if small.char != big.char or big.n % small.n != 0:
        raise InputError(f"{small.spec_string()} does not embed in {big.spec_string()}")
    if small.kind == "prime":
        return {c: big.from_int(c) for c in small.enumerate_payloads()}
    if small == big:
        # keyed on the log tables' own payload tuples, in enumeration order
        return {c: c for c in _index_table(small).payloads}
    # m | n, so small's modulus splits in big
    r = _raw_roots(big, tuple(big.from_int(c) for c in small.modulus))[0]
    return {x: rp.evaluate(big, [big.from_int(c) for c in x], r) for x in small.enumerate_payloads()}


def embed_subfield(small, big):
    """Embedding GF(p^m) -> F for m | n, as a callable on elements (or ints,
    element strings and payloads of small), where F is GF(p^n) or
    GF(p^n)(Z): the element of F that _embedding's table gives."""
    table = _embedding(small, big)

    def embed(x):
        if isinstance(x, FieldElement) and x.field != small:
            raise InputError("element does not belong to the small field")
        return FieldElement(big, table[small.payload_of(x)])

    return embed


SPECIALISATION_TRIES = 32

_points_cache = {}


@memoised(_points_cache)
def specialisation_points(k):
    """The points z0 at which K(Z) values over the finite field k are
    specialised, in a fixed order: every element of k, then the elements
    outside k of GF(|k|^2) when it fits MAX_FIELD_SIZE (the least extension
    of degree >= 2 that does), at most SPECIALISATION_TRIES in all.

    A point is (target, coeff, z0): z0 is a payload of target, k itself or
    GF(|k|^2), and coeff is the table _embedding(k, target) of each
    payload of k to its image in target.  Cached per k."""
    points = [(k, _embedding(k, k), z0) for z0 in k.enumerate_payloads()]
    if not power_exceeds(k.order, 2, MAX_FIELD_SIZE):
        big = ExtensionField(k.p, 2 * k.n)
        coeff = _embedding(k, big)
        image = set(coeff.values())
        points += [(big, coeff, z0) for z0 in big.enumerate_payloads() if z0 not in image]
    return points[:SPECIALISATION_TRIES]


def specialise(field, payloads, point):
    """The K(Z) payloads at Z = z0, as payloads of the point's target field
    (a point of specialisation_points(field.base)), or None when a
    denominator vanishes at z0.  Where no denominator vanishes, Z -> z0 is
    a ring map, so it commutes with sums, products and determinants:
    det(M)(z0) = det(M(z0)), and an invertible M(z0) proves M invertible.
    A payload (num, den) need not be in lowest terms.  Each distinct
    payload is evaluated once per call; the first pole returns None."""
    target, coeff, z0 = point
    add, mul, zero = target.add, target.mul, target.zero
    out = []
    seen = {}  # a vector repeats its entries, zero above all
    for a in payloads:
        x = seen.get(a)
        if x is None:
            # num(z0) / den(z0) by Horner, on the images of the coefficients
            num, den = a
            d = zero
            for c in reversed(den):
                d = add(mul(d, z0), coeff[c])
            if d == zero:
                return None
            x = zero
            for c in reversed(num):
                x = add(mul(x, z0), coeff[c])
            x = seen[a] = target.div(x, d)
        out.append(x)
    return out
