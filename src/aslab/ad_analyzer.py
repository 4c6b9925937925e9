"""Two-way analysis of the commutator operator ad A : B -> AB - BA.

analyze(A) tests three conditions over the base field F:

  c1  every eigenvalue of ad A lies in F (the characteristic polynomial of
      ad A splits into linear factors over F, certified through the
      invariant factors);
  c2  the eigenvalues form a subfield of F (contain 0 and 1, closed under
      subtraction and multiplication);
  c3  the centralizer of A is a field (A is cyclic and its minimal
      polynomial is irreducible).

When all three hold the analyzer recovers the defining data: the minimal
polynomial h of A, its separable part q = X^(p^n) - X - a with maximal
exponent e, and certifies the full expected structure -- the eigenvalue set
is the subfield of p^n elements, every eigenspace of ad A has dimension
p^(n+e), the invariant factors of ad A are p^(n+e) copies of
X^(p^(n+e)) - X^(p^e), ad A is diagonalizable exactly when e = 0, and every
eigenvector of ad A is invertible.  Any certification failure raises
ConsistencyError since it would contradict a proven statement.

c3 is decided first, from the invariant factors of A, so an oracle refusal
comes before ad A is built; at e = 0 its verdict on mu_A = q also certifies
q, and only e >= 1 asks again whether q is irreducible.  The invariant
factors of ad A give c1 and every eigenspace dimension; when all three
conditions hold, each eigenspace is also built as a kernel, whose basis
must have that dimension, and its vectors feed the invertibility sweep.
The sweep runs one loop over coefficient vectors per eigenvalue, the unit
vectors (each basis vector) and then 10 seeded combinations, and tests
each combination, reshaped to an m x m matrix, with linalg.invertible.
Over K(Z) that first specialises it at Z = z0 for a fixed, bounded list of
points z0 (fields.specialisation_points: all of K, then GF(|K|^2)).  Where
no denominator vanishes, det(M)(z0) = det(M(z0)), so an invertible M(z0)
certifies M: the deterministic, one-sided half of Schwartz (J. ACM 27,
1980).  Only a matrix that no point certifies is built and ranked exactly
over K(Z), so a singular one is still found and reported.

build_gas_companion goes the other way: from (p, n, e, a) it constructs the
companion matrix of X^(p^(n+e)) - X^(p^e) - a.
"""

import math
import random

from . import _ringops as rp
from .errors import CapExceededError, ConsistencyError, InputError
from .fields import FieldElement, _raw_roots, _subfield_check, specialise
from .irred import _clear_denominators, irreducible
from .linalg import (
    Matrix,
    ad_matrix,
    companion,
    eigenspace,
    invariant_factors,
    invertible,
    similar,
)
from .poly import (
    Poly,
    _divide_out,
    _factor_raw,
    _monic_divisors,
    _raw_sort_key,
    _row_algebra,
    gas_poly,
    gas_shape,
    separable_part,
)

MAX_DIM_FINITE = 32
MAX_DIM_RATIONAL = 9
_ROOT_CANDIDATE_CAP = 4096


class InvertibilityVerdict:
    """Outcome of the eigenvector invertibility sweep."""

    __slots__ = ("all_invertible", "checked", "sampled", "failures")

    def __init__(self, all_invertible, checked, sampled, failures):
        self.all_invertible = all_invertible
        self.checked = checked
        self.sampled = sampled
        self.failures = failures

    def to_json_dict(self):
        return {
            "all_invertible": self.all_invertible,
            "checked": self.checked,
            "sampled": self.sampled,
            "failures": list(self.failures),
        }


class AdReport:
    """Structured verdict of the ad-operator analysis."""

    __slots__ = (
        "field",
        "size",
        "c1",
        "c2",
        "c3",
        "eigenvalues",
        "eigenvalue_set_is_subfield",
        "eigenspace_dims",
        "invariant_factors",
        "diagonalizable",
        "recovered",
        "eigenvector_invertibility",
        "failures",
    )

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])

    def passed(self):
        return self.c1 and self.c2 and self.c3

    def to_json_dict(self):
        rec = None
        if self.recovered is not None:
            rec = {
                "p": self.recovered["p"],
                "n": self.recovered["n"],
                "e": self.recovered["e"],
                "a": str(self.recovered["a"]),
                "q": str(self.recovered["q"]),
                "h": str(self.recovered["h"]),
            }
        return {
            "field": self.field.spec_string(),
            "size": self.size,
            "c1": self.c1,
            "c2": self.c2,
            "c3": self.c3,
            "eigenvalues": [str(v) for v in self.eigenvalues],
            "eigenvalue_set_is_subfield": self.eigenvalue_set_is_subfield,
            "eigenspace_dims": [[str(v), d] for v, d in self.eigenspace_dims],
            "invariant_factors": [str(f) for f in self.invariant_factors],
            "diagonalizable": self.diagonalizable,
            "recovered": rec,
            "eigenvector_invertibility": (
                None
                if self.eigenvector_invertibility is None
                else self.eigenvector_invertibility.to_json_dict()
            ),
            "failures": list(self.failures),
        }


def _poly_roots_in_field(f: Poly):
    """Roots of f in its coefficient field."""
    if f.field.order is not None:
        return [FieldElement(f.field, a) for a in _raw_roots(f.field, f.raw)]
    return _rational_roots(f)


def _rational_roots(f: Poly):
    """Roots in K(Z) of a polynomial over K(Z), by bounded divisor search:
    X is divided out (the zero root), then every u * nd / dd is tried, nd and
    dd monic divisors of the cleared constant term and lead, u in K*, after
    the count is capped.  The sorted divisors put nd = dd = 1 first, so the
    constants follow zero in enumeration order."""
    F = f.field
    roots = []
    work, mult = _divide_out(F, f.raw, (F.zero, F.one))
    if mult:
        roots.append(F.zero_element())
    cols, k = _clear_denominators(Poly.from_raw(F, work))
    const, lead = cols[0], cols[-1]
    if not const:
        raise ConsistencyError("zero root should have been removed already")
    factorisations = [_factor_raw(k, rp.monic(k, a)) for a in (const, lead)]
    # a product of distinct irreducible pieces has prod (mult + 1) monic
    # divisors: count them before expanding and sorting any
    count = math.prod(mult + 1 for pieces in factorisations for _, mult in pieces)
    if count * (k.order - 1) > _ROOT_CANDIDATE_CAP:
        raise CapExceededError("root candidate count exceeds the search cap")
    num_divs, den_divs = (
        sorted(_monic_divisors(k, pieces), key=lambda d: _raw_sort_key(k, d))
        for pieces in factorisations
    )
    units = [u for u in k.enumerate_payloads() if u != k.zero]
    for nd in num_divs:
        for dd in den_divs:
            for u in units:
                cand = F.fraction(rp.scale(k, nd, u), dd)
                work, mult = _divide_out(F, work, (F.neg(cand.payload), F.one))
                if mult:
                    roots.append(cand)
    return roots


def size_cap(field):
    """(largest matrix size analyze takes over field, its refusal past it)."""
    if field.kind == "rational-function":
        return MAX_DIM_RATIONAL, f"matrix size exceeds cap {MAX_DIM_RATIONAL} over K(Z)"
    return MAX_DIM_FINITE, f"matrix size exceeds cap {MAX_DIM_FINITE}"


def _check_caps(a: Matrix):
    if not a.is_square():
        raise InputError("analysis needs a square matrix")
    limit, message = size_cap(a.field)
    if a.nrows > limit:
        raise CapExceededError(message)


def analyze(a: Matrix, seed: int = 0) -> AdReport:
    """Full ad-operator analysis of a square matrix over F finite or K(Z)."""
    _check_caps(a)
    field = a.field
    m = a.nrows
    # c3 first: over K(Z) it may end in the oracle's cap, which is then
    # refused before ad A is built
    inv_a = invariant_factors(a)
    cyclic = len(inv_a) == 1
    mu_a = inv_a.minimal_polynomial()
    c3 = cyclic and irreducible(mu_a)

    ad = ad_matrix(a)
    inv_ad = invariant_factors(ad)

    mu_ad = inv_ad.minimal_polynomial()
    eigenvalues = sorted(_poly_roots_in_field(mu_ad), key=lambda v: v.sort_key())

    # one pass over the (eigenvalue v, invariant factor f) pairs: c1 counts
    # the multiplicity of X - v in each f, and every f that X - v divides is
    # one cyclic summand F[X]/(f) adding one dimension to ker(ad - vI)
    ring = _row_algebra(field)
    packed = [ring.pack(f.raw) for f in inv_ad]
    accounted = 0
    dims = []
    for v in eigenvalues:
        lin = ring.pack((field.neg(v.payload), field.one))
        mults = [ring.multiplicity(f, lin) for f in packed]
        accounted += sum(mults)
        dims.append((v, sum(1 for mult in mults if mult)))
    c1 = accounted == m * m
    diagonalizable = sum(d for _, d in dims) == m * m

    c2, c2_witness = _subfield_check(eigenvalues)

    failures = []
    if not c1:
        failures.append(
            f"c1: characteristic polynomial of ad A accounts for degree "
            f"{accounted} of {m * m} over the base field"
        )
    if not c2:
        failures.append(f"c2: {c2_witness}")
    if not c3:
        if not cyclic:
            failures.append(f"c3: matrix is not cyclic ({len(inv_a)} invariant factors)")
        else:
            failures.append(f"c3: minimal polynomial {mu_a} is reducible")

    recovered = None
    invertibility = None
    if c1 and c2 and c3:
        recovered = _recover_and_certify(
            a, field, m, mu_a, eigenvalues, dims, inv_ad, diagonalizable
        )
        invertibility = _eigenvector_invertibility(a, _eigenspaces(ad, dims), seed)
        if not invertibility.all_invertible:
            raise ConsistencyError(
                "certified matrix has a non-invertible ad eigenvector: "
                + "; ".join(invertibility.failures)
            )

    return AdReport(
        field=field,
        size=m,
        c1=c1,
        c2=c2,
        c3=c3,
        eigenvalues=tuple(eigenvalues),
        eigenvalue_set_is_subfield=c2,
        eigenspace_dims=tuple(dims),
        invariant_factors=inv_ad,
        diagonalizable=diagonalizable,
        recovered=recovered,
        eigenvector_invertibility=invertibility,
        failures=failures,
    )


def _recover_and_certify(a, field, m, mu_a, eigenvalues, dims, inv_ad, diagonalizable):
    if mu_a.degree() != m:
        raise ConsistencyError("cyclic matrix whose minimal polynomial degree differs from its size")
    sep = separable_part(mu_a)
    q, e = sep.q, sep.e
    shape = gas_shape(q)
    if shape is None:
        raise ConsistencyError(f"separable part {q} is not of the form X^(p^n) - X - a")
    p, n, a_const = shape
    deg_q = q.degree()
    if len(eigenvalues) != deg_q:
        raise ConsistencyError(
            f"eigenvalue count {len(eigenvalues)} differs from p^n = {deg_q}"
        )
    for v in eigenvalues:
        if v ** deg_q != v:
            raise ConsistencyError(f"eigenvalue {v} lies outside the subfield of {deg_q} elements")
    pne = p ** (n + e)
    for v, d in dims:
        if d != pne:
            raise ConsistencyError(f"eigenspace at {v} has dimension {d}, expected {pne}")
    expected_factor = gas_poly(field, n, e, 0)
    if len(inv_ad) != pne or any(f != expected_factor for f in inv_ad):
        raise ConsistencyError("invariant factors of ad A differ from the certified shape")
    if diagonalizable != (e == 0):
        raise ConsistencyError("diagonalizability disagrees with the separability exponent")
    # at e = 0, q is mu_A, whose irreducibility c3 has just decided
    if e and not irreducible(q):
        raise ConsistencyError(f"recovered polynomial {q} is reducible")
    return {"p": p, "n": n, "e": e, "a": a_const, "q": q, "h": mu_a}


def check_eigenvector_invertibility(a: Matrix, seed: int = 0) -> InvertibilityVerdict:
    """Reshape every ad-eigenvector to an m x m matrix and test invertibility.

    Checks each basis vector of every eigenspace plus 10 seeded random
    nonzero combinations per eigenvalue; failures are reported as witnesses,
    never raised, so the reducible cases can be inspected too.
    """
    _check_caps(a)
    ad = ad_matrix(a)
    mu = invariant_factors(ad).minimal_polynomial()
    bases = [(r, eigenspace(ad, r)) for r in _poly_roots_in_field(mu)]
    return _eigenvector_invertibility(a, bases, seed)


def _eigenspaces(ad, dims):
    """(v, eigenspace basis) for each (v, dim) read off the invariant
    factors; the kernel is a second route to that dimension."""
    bases = []
    for v, d in dims:
        basis = eigenspace(ad, v)
        if len(basis) != d:
            raise ConsistencyError(
                f"eigenspace at {v} has a basis of {len(basis)} vectors, but "
                f"the invariant factors of ad A give dimension {d}"
            )
        bases.append((v, basis))
    return bases


def _eigenvector_invertibility(a, bases, seed):
    """check_eigenvector_invertibility on given (eigenvalue, basis) pairs.

    One loop per eigenvalue over coefficient vectors, the unit vectors and
    then 10 seeded draws, each through linalg.invertible: at a K(Z)
    specialisation point the combination is formed from the specialised
    coefficients and basis (each vector specialised once per point).  The
    basis is independent and no draw is all zero, so every combination is
    nonzero; checks draw nothing from the rng, so the draws come first."""
    field = a.field
    m = a.nrows
    rng = random.Random(seed)
    failures = []
    checked = 0
    sampled = 0
    zero = field.zero
    for v, basis in bases:
        basis = [[x.payload for x in vec] for vec in basis]
        basis_at = _specialised_basis(field, basis)
        vectors = []
        for idx in range(len(basis)):
            unit = [zero] * len(basis)
            unit[idx] = field.one
            vectors.append((f"basis vector {idx}", unit))
        for _ in range(10 if basis else 0):
            coeffs = [field.random_payload(rng) for _ in basis]
            if all(c == zero for c in coeffs):
                coeffs[0] = field.one
            vectors.append(("sampled combination", coeffs))
        checked += len(basis)
        sampled += len(vectors) - len(basis)
        for label, coeffs in vectors:
            if not invertible(
                field,
                m,
                lambda: _combination(field, coeffs, basis),
                lambda i, point: _combination_at(field, coeffs, basis_at(i, point), point),
            ):
                failures.append(f"{label} at eigenvalue {v} is singular")
    return InvertibilityVerdict(not failures, checked, sampled, failures)


def _specialised_basis(field, basis):
    """basis_at(i, point): the K(Z) basis at the i-th specialisation point,
    None for a vector with a pole there, computed once per point."""
    at_point = {}

    def basis_at(i, point):
        if i not in at_point:
            at_point[i] = [specialise(field, vec, point) for vec in basis]
        return at_point[i]

    return basis_at


def _combination_at(field, coeffs, vecs, point):
    """sum c * vec over the K(Z) coefficients and the specialised vectors
    at the point, or None when a term cannot be specialised there."""
    cs = specialise(field, coeffs, point)
    # a nonzero coefficient that vanishes at z0 still needs its vector there
    if cs is None or any(vec is None for c, vec in zip(coeffs, vecs) if c != field.zero):
        return None
    return _combination(point[0], cs, vecs)


def _combination(field, coeffs, vecs):
    """sum c * vec over the field, skipping zero coefficients (whose vectors
    may be None); None when every coefficient is zero."""
    combo = None
    for c, vec in zip(coeffs, vecs):
        if c != field.zero:
            term = [field.mul(c, x) for x in vec]
            combo = term if combo is None else [field.add(s, t) for s, t in zip(combo, term)]
    return combo


def check_similarity_shift(a: Matrix, b) -> bool:
    """Whether A is similar to A + b*I.

    Equal invariant factors decide this outright, so no precondition on the
    minimal polynomial is needed; when mu_A(X) != mu_A(X+b) the answer is
    False for free.
    """
    if not a.is_square():
        raise InputError("similarity shift needs a square matrix")
    return similar(a, a.scalar_shift(a.field.element(b)))


def contains_subfield(field, n) -> bool:
    """Whether GF(p^n) embeds in the field: n divides the degree of the
    finite field, or of the base of K(Z), over GF(p) (Lidl and
    Niederreiter, Finite Fields, Thm 2.6)."""
    return n >= 1 and field.n % n == 0


def build_gas_companion(field, n: int, e: int, a) -> Matrix:
    """Companion matrix of X^(p^(n+e)) - X^(p^e) - a over the given field."""
    if n < 1 or e < 0:
        raise InputError("need n >= 1 and e >= 0")
    if not contains_subfield(field, n):
        raise InputError(
            f"{field.spec_string()} does not contain the subfield of {field.char}^{n} elements"
        )
    return companion(gas_poly(field, n, e, a))
