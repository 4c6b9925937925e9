"""Galois structure of the splitting field of q = X^(p^n) - X - a.

With q irreducible over F and alpha a root, K = F[alpha] is Galois over F
with group isomorphic to the additive group of the subfield E of p^n
elements: b acts by alpha -> alpha + b.  Subgroups correspond to GF(p)-
subspaces R of E, and each intermediate field is generated by the single
element

    alpha_R = prod over b in R of (alpha + b),

a monic p-polynomial in alpha of degree p^dim(R) whose coefficients c_j are
the classical Dickson invariants evaluated at any basis of R.  This module
enumerates the subspaces, computes alpha_R along two independent routes
(direct product in F[X]/(q) and the Dickson recursion), certifies the
degree law [F[alpha_R] : F] = p^(n-m), and tests "property P": all c_j lie
in the prime field exactly when R is invariant under x -> x^p, in which
case alpha_R = f_R(alpha) for f_R(Y) = prod (Y + b).

The degrees come from poly.min_poly_in_quotient; the test-only
intermediate_minpoly_product certifies that the coefficients of mu lie in
F[alpha_R] by two ranks (Matrix.rank), and computes mu and the conjugate
product with _ringops over the coefficient ring F[alpha] = F[X]/(q)
(_ringops.PolyRing).  Both map R's elements into F with
fields.embed_subfield, whether F is finite or K(Z).  A subspace is spanned
by the one helper _span, whether it comes from a basis or from its
elements, and SubspaceR.is_subfield is fields._subfield_check, the test
analyze applies to eigenvalue sets.
"""

import itertools
import threading

from . import _ringops as rp
from .errors import CapExceededError, ConsistencyError, InputError
from .fields import (
    FieldElement,
    _subfield_check,
    _raw_poly_str,
    embed_subfield,
    enumerate_elements,
    frobenius,
    p_power_split,
)
from .irred import irreducible
from .linalg import Matrix
from .poly import Poly, gas_shape, min_poly_in_quotient


# ---------------------------------------------------------------------------
# multivariate polynomials over GF(p), for the symbolic Dickson forms
# slot 0 is A, slots 1..m are B_1..B_m; monomial -> coefficient dicts

def _mv_add(a, b, p):
    out = dict(a)
    for mono, c in b.items():
        v = (out.get(mono, 0) + c) % p
        if v:
            out[mono] = v
        else:
            out.pop(mono, None)
    return out


def _mv_mul(a, b, p):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple(x + y for x, y in zip(m1, m2))
            v = (out.get(mono, 0) + c1 * c2) % p
            if v:
                out[mono] = v
            else:
                out.pop(mono, None)
    return out


def _mv_neg(a, p):
    return {m: (-c) % p for m, c in a.items()}


def _mv_frobenius(a, p):
    # coefficients live in GF(p), so (sum c m)^p = sum c m^p
    return {tuple(e * p for e in mono): c for mono, c in a.items()}


def _mv_subst_a(a, slot, p):
    """Substitute A := B_slot (move the slot-0 exponent onto B_slot)."""
    out = {}
    for mono, c in a.items():
        lst = list(mono)
        lst[slot] += lst[0]
        lst[0] = 0
        mono2 = tuple(lst)
        out[mono2] = (out.get(mono2, 0) + c) % p
    return {m: c for m, c in out.items() if c}


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

    def coefficient(self, j):
        """f_j as a monomial dict in B_1..B_m (slot 0 unused)."""
        return self.fs[j]

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
        p, m = self.p, self.m
        width = m + 1
        acc = {(0,) * width: 1}
        unit = [0] * width
        for s in itertools.product(range(p), repeat=m):
            mono_a = tuple([1] + unit[:-1])
            form = {mono_a: 1}
            for i, si in enumerate(s, start=1):
                if si:
                    mono_b = [0] * width
                    mono_b[i] = 1
                    form = _mv_add(form, {tuple(mono_b): si}, p)
            acc = _mv_mul(acc, form, p)
        return acc


_dickson_cache = {}
_dickson_lock = threading.Lock()


def dickson_phi(m: int, p: int) -> DicksonForm:
    """Dickson form of rank m over GF(p), by the Frobenius recursion.

    Starts from A and applies phi -> phi^p - phi(B_i, ...)^(p-1) * phi at
    each level; capped at m <= 4 and p in {2, 3} (the expansions grow fast).
    """
    if p not in (2, 3):
        raise CapExceededError("Dickson forms are computed for p in {2, 3}")
    if not 0 <= m <= 4:
        raise CapExceededError("Dickson forms are capped at m <= 4")
    key = (m, p)
    with _dickson_lock:
        cached = _dickson_cache.get(key)
    if cached is not None:
        return cached
    width = m + 1
    phi = {tuple([1] + [0] * m): 1}  # A
    for i in range(1, m + 1):
        at_bi = _mv_subst_a(phi, i, p)
        scaler = at_bi
        for _ in range(p - 2):
            scaler = _mv_mul(scaler, at_bi, p)
        correction = _mv_mul(scaler, phi, p)
        phi = _mv_add(_mv_frobenius(phi, p), _mv_neg(correction, p), p)
    fs = {}
    for mono, c in phi.items():
        j, rest = p_power_split(mono[0], p) if mono[0] else (0, 0)
        if rest != 1 or j > m:
            raise ConsistencyError("Dickson expansion has an unexpected A-power")
        bmono = (0,) + mono[1:]
        fs.setdefault(j, {})[bmono] = c
    for j in range(m):
        fs.setdefault(j, {})
    top = fs.pop(m, {(0,) * width: 1})
    if top != {(0,) * width: 1}:
        raise ConsistencyError("Dickson expansion is not monic in A^(p^m)")
    form = DicksonForm(m, p, phi, fs)
    with _dickson_lock:
        _dickson_cache[key] = form
    return form


# ---------------------------------------------------------------------------
# subspaces of GF(p^n) over GF(p)

def _span(ambient, vectors):
    """(basis, span): the vectors that enlarge the GF(p)-span, in order, and
    that span as {sort key: element}, grown one vector at a time."""
    zero = ambient.zero_element()
    span, basis = {zero.sort_key(): zero}, []
    for x in vectors:
        if x.sort_key() not in span:
            basis.append(x)
            steps = [x * c for c in range(1, ambient.char)]
            span.update((u.sort_key(), u) for u in [v + w for v in span.values() for w in steps])
    return basis, span


class SubspaceR:
    """GF(p)-subspace of a finite field, with basis and materialized elements."""

    __slots__ = ("ambient", "dim", "basis", "elements")

    def __init__(self, ambient, basis, elements):
        self.ambient = ambient
        self.basis = tuple(basis)
        self.dim = len(self.basis)
        self.elements = tuple(sorted(elements, key=lambda v: v.sort_key()))
        if len(self.elements) != ambient.char**self.dim:
            raise InputError("element count does not match the basis dimension")

    @classmethod
    def from_basis(cls, ambient, basis):
        basis = [ambient.element(b) for b in basis]
        independent, span = _span(ambient, basis)
        if len(independent) != len(basis):
            raise InputError("basis is linearly dependent over the prime field")
        return cls(ambient, basis, span.values())

    @classmethod
    def from_elements(cls, ambient, elements):
        elements = [ambient.element(x) for x in elements]
        seen = {x.sort_key(): x for x in elements}
        basis, span = _span(ambient, sorted(seen.values(), key=lambda v: v.sort_key()))
        if set(span) != set(seen):
            raise InputError("element set is not closed under addition and scaling")
        return cls(ambient, basis, span.values())

    def is_frobenius_invariant(self):
        image = {frobenius(v).sort_key() for v in self.elements}
        return image == {v.sort_key() for v in self.elements}

    def is_subfield(self):
        return _subfield_check(self.elements)[0]

    def sort_key(self):
        return tuple(v.sort_key() for v in self.elements)

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


def _from_vector(field, vec):
    if field.kind == "prime":
        return FieldElement(field, vec[0])
    return FieldElement(field, tuple(vec))


def enumerate_subspaces(field, m: int):
    """All m-dimensional GF(p)-subspaces, via reduced-row-echelon bases."""
    _check_subspace_caps(field, m)
    n = field.n
    p = field.char
    if m == 0:
        return [SubspaceR(field, [], [field.zero_element()])]
    out = []
    for pivots in itertools.combinations(range(n), m):
        free_positions = []
        for r, pc in enumerate(pivots):
            for c in range(pc + 1, n):
                if c not in pivots:
                    free_positions.append((r, c))
        for assignment in itertools.product(range(p), repeat=len(free_positions)):
            rows = [[0] * n for _ in range(m)]
            for r, pc in enumerate(pivots):
                rows[r][pc] = 1
            for (r, c), v in zip(free_positions, assignment):
                rows[r][c] = v
            basis = [_from_vector(field, tuple(row)) for row in rows]
            out.append(SubspaceR.from_basis(field, basis))
    out.sort(key=lambda s: s.sort_key())
    return out


def gaussian_binomial(n, m, p):
    """Number of m-dimensional subspaces of GF(p)^n."""
    num = den = 1
    for i in range(m):
        num *= p ** (n - i) - 1
        den *= p ** (m - i) - 1
    return num // den


def property_p(r: SubspaceR) -> bool:
    """Frobenius invariance of the subspace (elementwise x -> x^p)."""
    return r.is_frobenius_invariant()


def f_r_polynomial(r: SubspaceR):
    """The product f_R(Y) = prod over b in R of (Y + b), expanded.

    Returns (poly, prime_coefficients) where the flag records whether every
    coefficient lies in the prime field.
    """
    field = r.ambient
    acc = (field.one,)
    for b in r.elements:
        acc = rp.mul(field, acc, (b.payload, field.one))
    poly = Poly.from_raw(field, acc)
    in_prime = all(field.frobenius(c) == c for c in acc)
    return poly, in_prime


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
    """(p, n) of q = X^(p^n) - X - a, with R checked to live in GF(p^n)."""
    shape = gas_shape(q)
    if shape is None:
        raise InputError("expected the shape X^(p^n) - X - a")
    p, n, _a = shape
    if r.ambient.char != p or r.ambient.order != p**n:
        raise InputError("subspace must live in the subfield of p^n elements")
    return p, n


def primitive_element(r: SubspaceR, q: Poly, check_irreducible=False) -> PrimitiveElementResult:
    """Primitive element alpha_R of the fixed field attached to R.

    Computes the product over R in F[X]/(q) and, independently, the Dickson
    recursion evaluated at (alpha, basis); the two must agree, the
    p-polynomial coefficients are read off f_R, and the degree over F is
    certified to be p^(n - dim R) through a minimal polynomial computation.
    """
    field = q.field
    p, n = _gas_parameters(r, q)
    ambient = r.ambient
    if check_irreducible and not irreducible(q):
        raise InputError("q is reducible; the Galois correspondence does not apply")
    to_f = embed_subfield(ambient, field)
    m = r.dim
    qraw = q.raw

    # route 1: product of (alpha + b) over all b in R
    prod = (field.one,)
    for b in r.elements:
        bf = to_f(b)
        prod = rp.mul(field, prod, (bf.payload, field.one))
    prod = rp.rem(field, prod, qraw)

    # route 2: Dickson recursion, evaluated numerically in F[X]/(q);
    # scalar_values[j] carries phi_i(b_(j+1), b_1..b_i) along the levels
    phi_alpha = rp.rem(field, (field.zero, field.one), qraw)
    scalar_values = [to_f(b) for b in r.basis]  # phi_0 of each b_i
    for i in range(m):
        s = scalar_values[i]  # phi_i evaluated at b_(i+1)
        s_pow = s ** (p - 1)
        phi_alpha = rp.sub(
            field,
            rp.pow_mod(field, phi_alpha, p, qraw),
            rp.scale(field, phi_alpha, s_pow.payload),
        )
        for j in range(i + 1, m):
            v = scalar_values[j]
            scalar_values[j] = v**p - s_pow * v

    if phi_alpha != prod:
        raise ConsistencyError("product route and Dickson recursion disagree")

    # coefficients from the expanded f_R, cross-checked as a third route
    fr, _ = f_r_polynomial(r)
    coeffs = []
    rebuilt = [field.zero] * (p**m + 1)
    t = 1
    for j in range(m):
        c = fr.coeff(t)
        coeffs.append(c)
        rebuilt[t] = to_f(c).payload
        t *= p
    rebuilt[p**m] = field.one
    for i, c in enumerate(fr.raw):
        if c != ambient.zero and i not in {p**j for j in range(m + 1)}:
            raise ConsistencyError("f_R is not a p-polynomial")
    if rp.rem(field, rp.trim(field, rebuilt), qraw) != prod:
        raise ConsistencyError("p-polynomial coefficients do not rebuild alpha_R")

    alpha_h = Poly.from_raw(field, prod)
    mp = min_poly_in_quotient(alpha_h, q)
    expected_degree = p ** (n - m)
    if mp.degree() != expected_degree:
        raise ConsistencyError(
            f"degree of alpha_R over F is {mp.degree()}, expected {expected_degree}"
        )
    prime_flag = all(ambient.frobenius(c.payload) == c.payload for c in coeffs)
    return PrimitiveElementResult(r, alpha_h, coeffs, expected_degree, prime_flag, mp)


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
    p, n = _gas_parameters(r, q)
    ambient = r.ambient
    to_f = embed_subfield(ambient, field)
    qraw = q.raw
    m = r.dim
    fa = rp.PolyRing(field, qraw)  # F[alpha] = F[X]/(q)

    def mu_for_shift(c_payload):
        # prod over b in R of X - (alpha + b + c), over F[alpha]
        acc = (fa.one,)
        for b in r.elements:
            shift = field.add(to_f(b).payload, c_payload)
            acc = rp.mul(fa, acc, (fa.neg((shift, field.one)), fa.one))
        return acc

    mu = mu_for_shift(field.zero)

    # coefficients of mu must lie in the span of powers of alpha_R
    alpha_r = primitive_element(r, q).alpha_h
    dim_e = p ** (n - m)
    powers = []
    cur = (field.one,)
    for _ in range(dim_e):
        powers.append(cur)
        cur = fa.mul(cur, alpha_r.raw)

    def rank(vecs):
        return Matrix.from_raw(field, [v + (field.zero,) * (p**n - len(v)) for v in vecs]).rank()

    if rank(powers) != dim_e:
        raise ConsistencyError("powers of alpha_R are linearly dependent too early")
    coeffs_in_e = rank(powers + list(mu)) == dim_e
    if not coeffs_in_e:
        raise ConsistencyError("a coefficient of mu lies outside F[alpha_R]")

    # product over coset representatives must reconstruct q
    covered = set()
    reps = []
    for c in enumerate_elements(ambient):
        if c.sort_key() in covered:
            continue
        reps.append(c)
        for v in r.elements:
            covered.add((v + c).sort_key())
    big = (fa.one,)
    for c in reps:
        big = rp.mul(fa, big, mu_for_shift(to_f(c).payload))
    ok_product = big == tuple(rp.trim(field, (c,)) for c in qraw)
    if not ok_product:
        raise ConsistencyError("conjugate product does not reconstruct q")

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
