"""Galois structure of the splitting field of q = X^(p^n) - X - a.

With q irreducible over F and alpha a root, K = F[alpha] is Galois over F
with group isomorphic to the additive group of the subfield E of p^n
elements: b acts by alpha -> alpha + b.  Subgroups correspond to GF(p)-
subspaces R of E, and each intermediate field is generated by the single
element

    alpha_R = prod over b in R of (alpha + b),

a monic p-polynomial in alpha of degree p^dim(R): alpha_R = f_R(alpha) for
f_R(Y) = prod (Y + b) = sum c_j Y^(p^j), whose coefficients c_j are the
classical Dickson invariants evaluated at any basis of R.  This module
enumerates the subspaces, computes f_R along two independent routes over
GF(p^n) (the expanded product, multiplied out on the Zech tables by
fields._linear_product, and the Dickson recursion on the coefficient
vector), embeds it into F[X]/(q) once, certifies the degree law
[F[alpha_R] : F] = p^(n-m), and tests "property P": all c_j lie in the
prime field exactly when R is invariant under x -> x^p.  f_r_polynomial
returns f_R alone; primitive_element reads property P off the recursion,
and SubspaceR.is_frobenius_invariant is the other side.  q is taken as
given: no irreducibility test runs here (the CLI's --certify runs
irred.irreducible first), and this module does not import irred.

The recursion is written once, _dickson_recursion, over any coefficient
descriptor: primitive_element runs it over GF(p^n) on a basis of R, and
dickson_phi over GF(p)[A, B_1..B_m] (_MvRing) on B_1..B_m, which gives the
symbolic forms.

The degree law comes in closed form, with no linear algebra over F: f_R
right-divides Y^(p^n) - Y under composition, Y^(p^n) - Y = g_R(f_R(Y))
(Ore), and _linearized_cofactor solves for g_R over GF(p^n), its leftover
equations checking the division.  So g_R(X) - a annihilates alpha_R, and
for m < n the powers 1, alpha_R, ..., alpha_R^(p^(n-m)-1) have distinct
X-degrees below deg q, which bounds the degree from below: g_R(X) - a is
the minimal polynomial.  poly.min_poly_in_quotient stays the tests'
independent route.

The test-only intermediate_minpoly_product certifies that the coefficients
of mu lie in F[alpha_R] by two ranks (Matrix.rank), and computes mu and the
conjugate product with _ringops over the coefficient ring
F[alpha] = F[X]/(q) (_ringops.PolyRing).  Both map payloads of GF(p^n)
into F by a lookup in fields._embedding, the one table per field pair,
whether F is finite or K(Z); elements are wrapped only at the boundary.
A subspace is spanned once, by the one helper _span on residue indices
(fields._index_table, one per field: its payloads in enumeration order
and their sort keys; the span steps on fields._index_shift, the digitwise
index sum), whether it comes from enumerate_subspaces's echelon rows, a
basis or its elements; SubspaceR keeps the span's payloads and sort keys,
in order, both shared with the table, for f_R, its sort key, equality,
hash, Frobenius test and subfield test, and wraps its elements only when
they are read.  SubspaceR.is_subfield is fields._subfield_check on those
payloads, the test analyze applies to eigenvalue payloads.
"""

import itertools

from . import _ringops as rp
from .errors import CapExceededError, ConsistencyError, InputError
from .fields import (
    FieldElement,
    _embedding,
    _index_shift,
    _index_table,
    _linear_product,
    _subfield_check,
    _raw_poly_str,
    memoised,
)
from .linalg import Matrix
from .poly import Poly, gas_shape


# ---------------------------------------------------------------------------
# the Dickson recursion, over GF(p^n) and over GF(p)[A, B_1..B_m]

def _dickson_recursion(k, basis):
    """c_0..c_m of f(Y) = prod over b in span(basis) of (Y + b)
    = sum c_j Y^(p^j), with c_m = 1.

    k is a coefficient descriptor of characteristic p with zero, one, add,
    sub, mul, pow_int and frobenius, and the basis lies in k.  Starting from
    phi = Y, each b replaces phi(Y) by phi(Y)^p - phi(b)^(p-1) phi(Y), which
    vanishes on the span grown by b; on the coefficient vector,
    phi[j] <- phi[j-1]^p - s^(p-1) phi[j] with s = sum phi[j] b^(p^j).
    """
    p = k.char
    phi = [k.one]
    for b in basis:
        s, b_pj = k.zero, b
        for c in phi:
            s = k.add(s, k.mul(c, b_pj))
            b_pj = k.frobenius(b_pj)
        s_pow = k.pow_int(s, p - 1)
        phi = [
            k.sub(k.frobenius(prev), k.mul(s_pow, c))
            for prev, c in zip([k.zero] + phi, phi + [k.zero])
        ]
    return phi


class _MvRing:
    """GF(p)[A, B_1..B_m] as a coefficient descriptor for _dickson_recursion:
    elements are {monomial: coefficient} dicts without zero coefficients,
    a monomial the exponent tuple of (A, B_1, ..., B_m)."""

    def __init__(self, p, m):
        self.char = p
        self.width = m + 1
        self.zero = {}
        self.one = {(0,) * self.width: 1}

    def variable(self, slot, c=1):
        """c A for slot 0, c B_i for slot i."""
        return {tuple(int(i == slot) for i in range(self.width)): c}

    def _collect(self, terms):
        out = {}
        for mono, c in terms:
            out[mono] = out.get(mono, 0) + c
        return {mono: c % self.char for mono, c in out.items() if c % self.char}

    def add(self, a, b):
        return self._collect(itertools.chain(a.items(), b.items()))

    def neg(self, a):
        return {mono: -c % self.char for mono, c in a.items()}

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return self._collect(
            (tuple(x + y for x, y in zip(m1, m2)), c1 * c2)
            for m1, c1 in a.items()
            for m2, c2 in b.items()
        )

    def pow_int(self, a, e):
        out = rp.square_and_multiply(a, e, self.mul)
        return self.one if out is None else out

    def frobenius(self, a):
        # coefficients live in GF(p), so (sum c m)^p = sum c m^p
        return {tuple(e * self.char for e in mono): c for mono, c in a.items()}


def _mv_eval(a, values, field):
    """Evaluate at field elements (one per slot)."""
    acc = field.zero_element()
    for mono, c in a.items():
        term = field.element(c)
        for v, e in zip(values, mono):
            if e:
                term = term * v**e
        acc = acc + term
    return acc


def _mv_string(a, names):
    if not a:
        return "0"
    parts = []
    for mono in sorted(a, reverse=True):
        c = a[mono]
        factors = []
        for name, e in zip(names, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append(str(c) + "*" + "*".join(factors))
    return "+".join(parts)


class DicksonForm:
    """Symbolic expansion of prod (A + s_1 B_1 + ... + s_m B_m) over GF(p).

    The product over all s in GF(p)^m collapses onto the powers A^(p^j); the
    B-coefficients f_j generate the GL_m(GF(p))-invariant ring and are what
    primitive-element computations evaluate.
    """

    __slots__ = ("m", "p", "phi", "fs")

    def __init__(self, m, p, phi, fs):
        self.m = m
        self.p = p
        self.phi = phi
        self.fs = fs

    def coefficient_string(self, j):
        names = ["A"] + [f"B_{i}" for i in range(1, self.m + 1)]
        return _mv_string(self.fs[j], names)

    def phi_string(self):
        names = ["A"] + [f"B_{i}" for i in range(1, self.m + 1)]
        return _mv_string(self.phi, names)

    def evaluate_coefficient(self, j, basis):
        """f_j at concrete basis values (field elements)."""
        field = basis[0].field
        values = [field.zero_element()] + list(basis)
        return _mv_eval(self.fs[j], values, field)

    def expanded_product(self):
        """Direct expansion of the defining product, for cross-checks."""
        ring = _MvRing(self.p, self.m)
        acc = ring.one
        for s in itertools.product(range(self.p), repeat=self.m):
            form = ring.variable(0)
            for i, si in enumerate(s, start=1):
                if si:
                    form = ring.add(form, ring.variable(i, si))
            acc = ring.mul(acc, form)
        return acc


_dickson_cache = {}


def dickson_phi(m: int, p: int) -> DicksonForm:
    """Dickson form of rank m over GF(p): _dickson_recursion over
    GF(p)[A, B_1..B_m] on the basis B_1..B_m, built once per (m, p);
    capped at m <= 4 and p in {2, 3} (the expansions grow fast).
    """
    if p not in (2, 3):
        raise CapExceededError("Dickson forms are computed for p in {2, 3}")
    if m < 0:
        raise InputError(f"Dickson form rank must be m >= 0, got {m}")
    if m > 4:
        raise CapExceededError("Dickson forms are capped at m <= 4")
    return _dickson_form(m, p)


@memoised(_dickson_cache)
def _dickson_form(m, p):
    ring = _MvRing(p, m)
    coeffs = _dickson_recursion(ring, [ring.variable(i) for i in range(1, m + 1)])
    phi = {(p**j,) + mono[1:]: c for j, cj in enumerate(coeffs) for mono, c in cj.items()}
    return DicksonForm(m, p, phi, coeffs[:m])


# ---------------------------------------------------------------------------
# subspaces of GF(p^n) over GF(p)

def _span(field, basis):
    """(independent, span): the residue indices of basis (fields._index_table)
    that enlarge the GF(p)-span in the finite field, in order, and that
    span as a list of indices.  Each vector x that enlarges it appends
    p - 1 translates, span + x, span + 2x, ..., each the one before it
    shifted by x on the field's digitwise index sum (fields._index_shift)."""
    shift = _index_shift(field)
    span, have, independent = [0], {0}, []
    for x in basis:
        if x not in have:
            independent.append(x)
            layer, grown = span, list(span)
            for _ in range(field.char - 1):
                layer = shift(layer, x)
                grown += layer
            span = grown
            have.update(span)
    return independent, span


class SubspaceR:
    """GF(p)-subspace of a finite field: a basis, and the payloads of its
    elements in sort-key order with their sort keys, each shared with the
    field's fields._index_table, made from the basis and span indices that
    _span returns.  The elements are wrapped on first read."""

    __slots__ = ("ambient", "dim", "basis", "payloads", "_keys", "_elements")

    def __init__(self, ambient, table, basis, span):
        payloads, span = table.payloads, sorted(span)
        self.ambient = ambient
        self.basis = tuple(FieldElement(ambient, payloads[i]) for i in basis)
        self.dim = len(self.basis)
        self.payloads = tuple(map(payloads.__getitem__, span))
        self._keys = tuple(map(table.keys.__getitem__, span))
        self._elements = None

    @property
    def elements(self):
        if self._elements is None:
            ambient = self.ambient
            self._elements = tuple(FieldElement(ambient, c) for c in self.payloads)
        return self._elements

    @classmethod
    def from_basis(cls, ambient, basis):
        table = _index_table(ambient)
        basis = [table.index[ambient.payload_of(b)] for b in basis]
        independent, span = _span(ambient, basis)
        if len(independent) != len(basis):
            raise InputError("basis is linearly dependent over the prime field")
        return cls(ambient, table, basis, span)

    @classmethod
    def from_elements(cls, ambient, elements):
        table = _index_table(ambient)
        seen = sorted({table.index[ambient.payload_of(u)] for u in elements})
        basis, span = _span(ambient, seen)
        # span holds every index seen, so only a larger span is not closed
        if len(span) != len(seen):
            raise InputError("element set is not closed under addition and scaling")
        return cls(ambient, table, basis, span)

    def is_frobenius_invariant(self):
        payloads = set(self.payloads)
        return set(map(self.ambient.frobenius, payloads)) == payloads

    def is_subfield(self):
        return _subfield_check(self.ambient, self.payloads)[0]

    def sort_key(self):
        return self._keys

    def __eq__(self, other):
        if not isinstance(other, SubspaceR):
            return NotImplemented
        return self.ambient == other.ambient and self.sort_key() == other.sort_key()

    def __hash__(self):
        return hash((self.ambient, self.sort_key()))

    def __repr__(self):
        return f"SubspaceR(dim={self.dim}, basis=[{', '.join(str(b) for b in self.basis)}])"


def _check_subspace_caps(field, m):
    if field.order is None:
        raise InputError("subspace enumeration needs a finite field")
    n = field.n
    if not 0 <= m <= n:
        raise InputError("subspace dimension out of range")
    if n > 4 and not (field.char == 3 and n == 6 and m <= 2):
        raise CapExceededError("subspace sweeps are capped at n <= 4 (n = 6 only for p = 3, m <= 2)")


def enumerate_subspaces(field, m: int):
    """All m-dimensional GF(p)-subspaces, via reduced-row-echelon bases,
    each row taken as its residue index sum_c row[c] p^c."""
    _check_subspace_caps(field, m)
    n = field.n
    p = field.char
    table = _index_table(field)
    out = []
    for pivots in itertools.combinations(range(n), m):
        free_positions = []
        for r, pc in enumerate(pivots):
            for c in range(pc + 1, n):
                if c not in pivots:
                    free_positions.append((r, p**c))
        for assignment in itertools.product(range(p), repeat=len(free_positions)):
            basis = [p**pc for pc in pivots]
            for (r, weight), v in zip(free_positions, assignment):
                basis[r] += v * weight
            out.append(SubspaceR(field, table, basis, _span(field, basis)[1]))
    out.sort(key=lambda s: s.sort_key())
    return out


def gaussian_binomial(n, m, p):
    """Number of m-dimensional subspaces of GF(p)^n."""
    num = den = 1
    for i in range(m):
        num *= p ** (n - i) - 1
        den *= p ** (m - i) - 1
    return num // den


def f_r_polynomial(r: SubspaceR):
    """The product f_R(Y) = prod over b in R of (Y + b), expanded over the
    ambient field GF(p^n) by fields._linear_product (on the Zech tables,
    or on ints over GF(p)): route 1 of primitive_element, whose Dickson
    recursion must reproduce it coefficient by coefficient.  Returns f_R
    as a Poly over the ambient field.
    """
    field = r.ambient
    return Poly.from_raw(field, _linear_product(field, r.payloads))


# ---------------------------------------------------------------------------
# primitive elements

class PrimitiveElementResult:
    """alpha_R with its p-polynomial coefficients and certified degree."""

    __slots__ = (
        "subspace",
        "alpha_h",
        "coefficients",
        "degree_over_f",
        "property_p",
        "minimal_polynomial",
    )

    def __init__(self, subspace, alpha_h, coefficients, degree_over_f, property_p_flag, minimal_polynomial):
        self.subspace = subspace
        self.alpha_h = alpha_h
        self.coefficients = tuple(coefficients)
        self.degree_over_f = degree_over_f
        self.property_p = property_p_flag
        self.minimal_polynomial = minimal_polynomial

    def __repr__(self):
        return (
            f"PrimitiveElementResult(dim={self.subspace.dim}, "
            f"degree={self.degree_over_f}, property_p={self.property_p})"
        )


def _gas_parameters(r: SubspaceR, q: Poly):
    """(p, n, a) of q = X^(p^n) - X - a, with R checked to live in GF(p^n)."""
    shape = gas_shape(q)
    if shape is None:
        raise InputError("expected the shape X^(p^n) - X - a")
    p, n, _a = shape
    if r.ambient.char != p or r.ambient.order != p**n:
        raise InputError("subspace must live in the subfield of p^n elements")
    return shape


def _linearized_cofactor(k, f, n):
    """g_0..g_(n-m), payloads of the finite field k, with
    Y^(p^n) - Y = g(f(Y)) for g(Y) = sum g_i Y^(p^i) and the monic
    p-polynomial f(Y) = sum f_j Y^(p^j) given by f_0..f_m.

    The coefficient of Y^(p^t) in g(f(Y)) is the sum over i + j = t of
    g_i f_j^(p^i).  Solved top-down from t = n, each equation fixes
    g_(t-m), since f_m = 1; the m equations t < m are left over and check
    that f right-divides Y^(p^n) - Y (Ore): ConsistencyError if one fails.
    """
    p, m = k.char, len(f) - 1
    g = [k.zero] * (n - m + 1)
    for t in range(n, -1, -1):
        want = k.one if t == n else k.neg(k.one) if t == 0 else k.zero
        for i in range(max(t - m + 1, 0), min(t, n - m) + 1):
            want = k.sub(want, k.mul(g[i], k.pow_int(f[t - i], p**i)))
        if t >= m:
            g[t - m] = want
        elif want != k.zero:
            raise ConsistencyError(
                f"right division of Y^({p}^{n}) - Y by f_R fails at the "
                f"coefficient of Y^({p}^{t}), f_R of degree {p}^{m}: "
                f"f_R = {_raw_poly_str(k, _spread(k, f, p), 'Y')} over {k.spec_string()}"
            )
    return g


def _inconsistent(check, name, r, q):
    """The ConsistencyError of a failed check in name, naming F and R."""
    return ConsistencyError(f"{check}: {name} over {q.field.spec_string()}, {r}")


def _spread(k, coeffs, p):
    """The raw polynomial sum coeffs[j] Y^(p^j) over k."""
    out = [k.zero] * (p ** (len(coeffs) - 1) + 1)
    for j, c in enumerate(coeffs):
        out[p**j] = c
    return tuple(out)


def primitive_element(r: SubspaceR, q: Poly) -> PrimitiveElementResult:
    """Primitive element alpha_R of the fixed field attached to R.

    Both routes run over GF(p^n), on the p-polynomial
    f_R(Y) = prod over b in R of (Y + b) = sum c_j Y^(p^j): route 1 expands
    the product (f_r_polynomial), route 2 runs _dickson_recursion on a
    basis of R.  The two must agree coefficient by coefficient.  F is
    touched once, at the end: alpha_R = f_R(alpha) is sum c_j X^(p^j)
    embedded into F[X] and reduced mod q, which changes it only for
    dim R = n.  The degree over F
    is certified to be p^(n - dim R) by the minimal polynomial g_R(X) - a,
    with Y^(p^n) - Y = g_R(f_R(Y)) (_linearized_cofactor).
    """
    field, k = q.field, r.ambient
    p, n, a = _gas_parameters(r, q)
    to_f = _embedding(k, field)
    m = r.dim

    # route 1: the product of (Y + b) over all b in R
    fr = f_r_polynomial(r)

    # route 2: the Dickson recursion on the p-polynomial coefficients,
    # checked against the product; a stray coefficient at a degree that is
    # not a power of p also shows here
    phi = _dickson_recursion(k, [b.payload for b in r.basis])
    if _spread(k, phi, p) != fr.raw:
        raise _inconsistent("product route and Dickson recursion disagree", "primitive_element", r, q)
    coeffs = [FieldElement(k, c) for c in phi[:m]]

    # alpha_R = f_R(alpha), the one step over F
    prod = rp.rem(field, _spread(field, [to_f[c] for c in phi], p), q.raw)

    # the minimal polynomial g_R(X) - a.  alpha_R = f_R(alpha), so
    # g_R(alpha_R) = alpha^(p^n) - alpha = a, and g_R(X) - a, monic of
    # degree p^(n-m), annihilates alpha_R.  For m < n, alpha_R has X-degree
    # p^m, so 1, alpha_R, ..., alpha_R^(p^(n-m)-1) have the distinct
    # X-degrees i p^m < p^n = deg q: none is reduced mod q, they are
    # independent over F, and no polynomial of lower degree annihilates
    # alpha_R.  For m = n, alpha_R = a and the degree 1 needs no bound.
    if m < n and len(prod) - 1 != p**m:
        raise _inconsistent(
            f"lower bound on [F(alpha_R):F]: alpha_R has X-degree {len(prod) - 1}, "
            f"expected {p}^{m}", "primitive_element", r, q
        )
    g = _linearized_cofactor(k, phi, n)  # phi[m] = 1
    degree = p ** (n - m)
    mp = (field.neg(a.payload),) + _spread(field, [to_f[gi] for gi in g], p)[1:]
    prime_flag = all(k.frobenius(c) == c for c in phi)
    return PrimitiveElementResult(
        r, Poly.from_raw(field, prod), coeffs, degree, prime_flag, Poly.from_raw(field, mp)
    )


def intermediate_minpoly_product(r: SubspaceR, q: Poly):
    """Minimal polynomial of alpha over the fixed field E, and the product
    of its conjugates over coset representatives.

    Verifies that every coefficient of mu(X) = prod over b in R of
    (X - (alpha + b)) lies in F[alpha_R] (adding them to the powers
    1, alpha_R, ..., alpha_R^(p^(n-m) - 1) leaves the rank p^(n-m)), and
    that the product of the Galois shifts of mu over coset representatives
    of R reconstructs q.
    Returns a dict with the rendered mu and the verification flags.
    """
    field = q.field
    p, n, _a = _gas_parameters(r, q)
    ambient = r.ambient
    to_f = _embedding(ambient, field)
    qraw = q.raw
    m = r.dim
    fa = rp.PolyRing(field, qraw)  # F[alpha] = F[X]/(q)
    where = "intermediate_minpoly_product"

    def mu_for_shift(c_payload):
        # prod over b in R of X - (alpha + b + c), over F[alpha]
        acc = (fa.one,)
        for b in r.payloads:
            shift = field.add(to_f[b], c_payload)
            acc = rp.mul(fa, acc, (fa.neg((shift, field.one)), fa.one))
        return acc

    mu = mu_for_shift(field.zero)

    # coefficients of mu must lie in the span of powers of alpha_R
    alpha_r = primitive_element(r, q).alpha_h
    dim_e = p ** (n - m)
    powers = list(itertools.islice(rp.powers_mod(field, alpha_r.raw, qraw), dim_e))

    def rank(vecs):
        return Matrix.from_raw(field, [v + (field.zero,) * (p**n - len(v)) for v in vecs]).rank()

    if rank(powers) != dim_e:
        raise _inconsistent("powers of alpha_R are linearly dependent too early", where, r, q)
    coeffs_in_e = rank(powers + list(mu)) == dim_e
    if not coeffs_in_e:
        raise _inconsistent("a coefficient of mu lies outside F[alpha_R]", where, r, q)

    # product over coset representatives must reconstruct q
    covered = set()
    reps = []
    for c in ambient.enumerate_payloads():
        if c in covered:
            continue
        reps.append(c)
        covered.update(ambient.add(v, c) for v in r.payloads)
    big = (fa.one,)
    for c in reps:
        big = rp.mul(fa, big, mu_for_shift(to_f[c]))
    ok_product = big == tuple(rp.trim(field, (c,)) for c in qraw)
    if not ok_product:
        raise _inconsistent("conjugate product does not reconstruct q", where, r, q)

    mu_str_parts = []
    for i in range(len(mu) - 1, -1, -1):
        c = rp.trim(field, mu[i])
        if not c:
            continue
        cs = _raw_poly_str(field, c, "a")
        if i == 0:
            mu_str_parts.append(cs if len(c) == 1 else f"({cs})")
        else:
            xp = "X" if i == 1 else f"X^{i}"
            if c == (field.one,):
                mu_str_parts.append(xp)
            else:
                mu_str_parts.append((cs if len(c) == 1 and "+" not in cs else f"({cs})") + "*" + xp)
    return {
        "mu": "+".join(mu_str_parts),
        "mu_degree": len(mu) - 1,
        "coefficients_in_fixed_field": coeffs_in_e,
        "reconstructs_q": ok_product,
        "cosets": len(reps),
    }
