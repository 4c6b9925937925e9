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

A's invariant factors name its similarity class, and ad(P A P^(-1)) is
ad A conjugated by Y -> P Y P^(-1), so all but the eigenvectors is work per
class: _ad_of_class, memoised process-wide on the invariant factors (an
lru_cache of AD_CLASS_MEMO_SIZE entries), gives c1-c3, ad A's invariant
factors and spectrum on either route below, the c2 check and, when all
three hold, the recovered data and their certification.  Per matrix are
A's own invariant factors, the memo's key, and for a certified A the
conjugator eigenspaces and the seeded invertibility sweep, which depend on
A and the seed.

Two routes give the invariant factors of ad A, and with them c1 and every
eigenspace dimension; the field decides which runs.  Over a finite field
ad A is never built (_ad_by_divisors).  A's invariant factors give its
elementary divisors pi^r: one factorization of mu_A, then each prime's
multiplicity in each factor (linalg._elementary_divisors).
linalg.ad_elementary_divisors turns them into those of ad A: on each
Hom(V_j, V_i), a semisimple Sylvester part from the pair of primes and a
nilpotent part of type λ(r_i, r_j), the paper's tensor problem
(linalg.nilpotent_tensor_type).  linalg.invariant_factors_from_elementary
assembles them with no Smith form.  c3 is then one prime in mu_A, of
multiplicity 1, in a cyclic A, with no separate irreducibility test.  Over
K(Z), which is not perfect and has no factorization, c3 is decided first,
from the invariant factors of A and the oracle, so an oracle refusal comes
before ad A's; then ad A comes from A's invariant factors f_i, again with
no ad_matrix (_ad_by_sylvester): ad A is the direct sum over pairs (i, j)
of Y -> C(f_i) Y - Y C(f_j), whose invariant factors are the Smith form of
the block diagonal of the f_i(C(f_j) + T) over K(Z)[T]
(linalg.sylvester_invariant_factors).  One reader, _spectrum, gives the
spectrum on every route from the exponents of ad A's linear elementary
divisors X - v: the finite route passes the exponents it assembled; the
K(Z) route, like the tests' reference route, Krylov on the m^2 x m^2
ad_matrix (_ad_by_krylov), passes the exponent of X - v in each invariant
factor for each root v of the last one (_linear_exponents).  At e = 0 the
verdict of c3 on mu_A = q also certifies q, and only e >= 1 asks again
whether q is irreducible.  When all three conditions hold, each
eigenspace is also built from the paper's conjugator, with no kernel of
the m^2 x m^2 ad A (_conjugator_eigenspaces):
h(X + v) = h(X) for every eigenvalue v, so the Pascal matrix S_v of
linalg.pascal_similarity(h, -v) has C S_v = S_v (C + v), C the companion
of h = mu_A, and with the Krylov basis P of e_0 (A P = P C) the
v-eigenspace is spanned by A^i P S_v P^(-1), i < m.  Reduced by
poly._span_basis this is the basis the kernel would give, and its rank m
must equal the dimension the invariant factors give; its vectors feed the
invertibility sweep.  check_eigenvector_invertibility, for any matrix,
still takes kernels (linalg.eigenspace).  Every sum c * vec here (Krylov
vectors, left powers A^i T, the sweep's combinations) is one apply of
poly._row_algebra.  The sweep runs one loop per eigenvalue over its
combinations, the unit vectors (each basis vector, read off the basis) and
then 10 seeded combinations, and tests each as an m x m matrix
(linalg.full_rank, a dense elimination that stops at the first column with
no pivot).  Over K(Z) the coefficients are raw draws
(fields.RationalFunctionField.random_raw: random_payload's element and rng
calls, with no canonical form), and each combination is first specialised
at Z = z0 for a fixed, bounded list of points z0
(fields.specialisation_points: all of K, then GF(|K|^2)), the basis once
per point and eigenvalue, each coefficient vector once per point it meets,
tried cyclically from the point that certified the previous combination of
any eigenvalue (linalg.certifying_point).  Where no denominator vanishes,
det(M)(z0) = det(M(z0)), so an invertible M(z0) certifies M: the
deterministic, one-sided half of Schwartz (J. ACM 27, 1980).  Only a matrix
that no point certifies is built from canonical coefficients and ranked
exactly over K(Z) (linalg.full_rank), so a singular one is still found and
reported.
Every ConsistencyError names the instance (field and size) and the check
that failed.

build_gas_companion goes the other way: from (p, n, e, a) it constructs the
companion matrix of X^(p^(n+e)) - X^(p^e) - a.
"""

import functools
import math
import random

from . import _ringops as rp
from .errors import CapExceededError, ConsistencyError, InputError
from .fields import FieldElement, _raw_roots, _subfield_check, specialisation_points, specialise
from .irred import _clear_denominators, irreducible
from .linalg import (
    InvariantFactorList,
    Matrix,
    _elementary_divisors,
    _exponents,
    _pascal_matrix,
    ad_elementary_divisors,
    ad_matrix,
    certifying_point,
    companion,
    eigenspace,
    full_rank,
    invariant_factors,
    invariant_factors_from_elementary,
    sylvester_invariant_factors,
)
from .poly import (
    Poly,
    _factor_raw,
    _kernel,
    _monic_divisors,
    _raw_sort_key,
    _row_algebra,
    _span_basis,
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
    constants follow zero in enumeration order.

    Before its exact division a candidate c is evaluated at the
    specialisation points where neither f nor c has a pole: Z -> z0 is a
    ring map there, so a root c gives f(z0)(c(z0)) = 0, and a nonzero value
    rules c out (_rules_out).  f is specialised at every point once, before
    the first candidate.  The exact division decides every candidate
    kept."""
    F = f.field
    ring = rp.ring(F)
    points = specialisation_points(F.base)
    f_points = [specialise(F, f.raw, point) for point in points]
    roots = []
    work, mult = ring.divide_out(f.raw, (F.zero, F.one))
    if mult:
        roots.append(F.zero_element())
    cols, k = _clear_denominators(Poly.from_raw(F, work))
    const, lead = cols[0], cols[-1]
    if not const:
        raise ConsistencyError(
            f"zero root should have been removed already: root search over "
            f"{F.spec_string()}, degree {f.degree()}"
        )
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
                if _rules_out(F, points, f_points, cand.payload):
                    continue
                work, mult = ring.divide_out(work, (F.neg(cand.payload), F.one))
                if mult:
                    roots.append(cand)
    return roots


def _rules_out(field, points, f_points, c):
    """Whether some specialisation point z0 of points, where neither the
    payload c over K(Z) nor f has a pole, has f(z0)(c(z0)) != 0; f_points
    holds f's coefficients at each point, None at a pole."""
    for point, coeffs in zip(points, f_points):
        if coeffs is None:
            continue
        value = specialise(field, (c,), point)
        if value is not None and rp.evaluate(point[0], coeffs, value[0]) != point[0].zero:
            return True
    return False


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
    """Full ad-operator analysis of a square matrix over F finite or K(Z).
    A's invariant factors are its own work; everything they determine comes
    from the class memo (_ad_of_class), and a certified A adds its
    conjugator eigenspaces and the seeded sweep."""
    _check_caps(a)
    field = a.field
    m = a.nrows
    inv_a = invariant_factors(a)
    c1, c2, c3, eigenvalues, dims, inv_ad, diagonalizable, recovered, failures = _ad_of_class(inv_a)
    invertibility = None
    if recovered is not None:
        recovered = dict(recovered)
        invertibility = _eigenvector_invertibility(
            a, _conjugator_eigenspaces(a, recovered["h"], dims), seed
        )
        if not invertibility.all_invertible:
            raise ConsistencyError(
                f"{_instance(field, m)}: certified matrix has a non-invertible ad eigenvector: "
                + "; ".join(invertibility.failures)
            )

    return AdReport(
        field=field,
        size=m,
        c1=c1,
        c2=c2,
        c3=c3,
        eigenvalues=eigenvalues,
        eigenvalue_set_is_subfield=c2,
        eigenspace_dims=dims,
        invariant_factors=inv_ad,
        diagonalizable=diagonalizable,
        recovered=recovered,
        eigenvector_invertibility=invertibility,
        failures=list(failures),
    )


# bound of _ad_of_class' memo: an entry holds about 1.5 KB on the
# benchmark's inputs, 6-10 KB for a random 32 x 32 matrix over GF(2) or
# GF(3) and 77 KB for 32 distinct diagonal entries over GF(729) (567
# eigenvalues; at most 729), so a full memo takes about 0.4 MB, 25 MB at
# worst; one pass of a benchmark workload fills at most 182 entries
AD_CLASS_MEMO_SIZE = 256


@functools.lru_cache(maxsize=AD_CLASS_MEMO_SIZE)
def _ad_of_class(inv_a):
    """(c1, c2, c3, eigenvalues, eigenspace dims, invariant factors of ad A,
    diagonalizable, recovered data as (key, value) pairs or None, failures)
    for every A with these invariant factors: they name A's similarity
    class, and ad(P A P^(-1)) is ad A conjugated by Y -> P Y P^(-1), so
    the spectrum, the eigenspace dimensions, the invariant factors of ad A
    and c1-c3 are the class's.

    Memoised process-wide on inv_a, in an lru_cache of AD_CLASS_MEMO_SIZE
    entries (bounded: its keys are data, as linalg._sylvester_divisors'
    are), and made of immutable values only, so reports can share them.
    An exception (an oracle refusal, a ConsistencyError) is not cached."""
    field = inv_a[0].field
    m = sum(f.degree() for f in inv_a)
    cyclic = len(inv_a) == 1
    mu_a = inv_a.minimal_polynomial()
    if field.order is None:
        # c3 first: it may end in the oracle's cap, which is then refused
        # before ad A is built
        c3 = cyclic and irreducible(mu_a)
        inv_ad = _ad_by_sylvester(field, inv_a)
        spectrum = _spectrum(field, _linear_exponents(inv_ad))
    else:
        c3, inv_ad, spectrum = _ad_by_divisors(field, inv_a)
    eigenvalues = tuple(v for v, _, _ in spectrum)
    dims = tuple((v, d) for v, _, d in spectrum)
    accounted = sum(mult for _, mult, _ in spectrum)
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
    if c1 and c2 and c3:
        recovered = tuple(
            _recover_and_certify(field, m, mu_a, eigenvalues, dims, inv_ad, diagonalizable).items()
        )
    return c1, c2, c3, eigenvalues, dims, inv_ad, diagonalizable, recovered, tuple(failures)


def _ad_by_krylov(a):
    """(invariant factors of ad A, spectrum) from Krylov on the m^2 x m^2
    ad_matrix(a): the tests' reference route, which analyze does not take."""
    inv_ad = invariant_factors(ad_matrix(a))
    return inv_ad, _spectrum(a.field, _linear_exponents(inv_ad))


def _ad_by_sylvester(field, inv_a):
    """The invariant factors of ad A over K(Z), with no ad_matrix: ad A is
    the direct sum over pairs (f_i, f_j) of A's invariant factors of
    Y -> C(f_i) Y - Y C(f_j) on Hom(V_j, V_i), whose invariant factors come
    from one Smith form of the matrices f_i(C(f_j) + T) over K(Z)[T]
    (linalg.sylvester_invariant_factors)."""
    raw = [f.raw for f in inv_a]
    return InvariantFactorList(
        Poly.from_raw(field, f) for f in sylvester_invariant_factors(field, raw, raw)
    )


def _linear_exponents(inv_ad):
    """The exponents of X - v in inv_ad, v over the roots of its last factor."""
    field = inv_ad[0].field
    lins = [(field.neg(v.payload), field.one) for v in _poly_roots_in_field(inv_ad[-1])]
    return _exponents(rp.ring(field), [f.raw for f in inv_ad], lins)


def _spectrum(field, exponents):
    """(v, multiplicity of X - v in the characteristic polynomial,
    eigenspace dimension) by eigenvalue v in sort order, from the exponents
    ({g: [t, ...]}) of ad A's elementary divisors g = X - v: each t is one
    summand F[X]/((X - v)^t), adding one dimension to ker(ad - vI)."""
    linear = [(g, ts) for g, ts in exponents.items() if len(g) == 2]
    spectrum = [(FieldElement(field, field.neg(g[0])), sum(ts), len(ts)) for g, ts in linear]
    return sorted(spectrum, key=lambda entry: entry[0].sort_key())


def _ad_by_divisors(field, inv_a):
    """(c3, invariant factors of ad A, spectrum) over a finite field, from
    A's invariant factors inv_a, with no ad_matrix: one factorization of
    mu_A gives A's elementary divisors (linalg._elementary_divisors), and
    ad A's, from ad_elementary_divisors, give its invariant factors and the
    spectrum.  c3 is one prime in mu_A, of multiplicity 1, in a cyclic A."""
    m = sum(f.degree() for f in inv_a)
    raw = [f.raw for f in inv_a]
    primes = _factor_raw(field, raw[-1])
    c3 = len(raw) == 1 and [mult for _, mult in primes] == [1]
    exponents = ad_elementary_divisors(
        field, _elementary_divisors(field, raw, [g for g, _ in primes])
    )
    inv_ad = invariant_factors_from_elementary(
        field, exponents, m * m, f"{_instance(field, m)}: ad A"
    )
    return c3, inv_ad, _spectrum(field, exponents)


def _instance(field, m):
    """The instance a ConsistencyError of analyze names."""
    return f"analyze over {field.spec_string()}, {m} x {m}"


def _recover_and_certify(field, m, mu_a, eigenvalues, dims, inv_ad, diagonalizable):
    where = _instance(field, m)
    if mu_a.degree() != m:
        raise ConsistencyError(
            f"{where}: cyclic matrix whose minimal polynomial degree {mu_a.degree()} "
            f"differs from its size"
        )
    sep = separable_part(mu_a)
    q, e = sep.q, sep.e
    shape = gas_shape(q)
    if shape is None:
        raise ConsistencyError(f"{where}: separable part {q} is not of the form X^(p^n) - X - a")
    p, n, a_const = shape
    deg_q = q.degree()
    if len(eigenvalues) != deg_q:
        raise ConsistencyError(
            f"{where}: eigenvalue count {len(eigenvalues)} differs from p^n = {deg_q}"
        )
    for v in eigenvalues:
        if v ** deg_q != v:
            raise ConsistencyError(
                f"{where}: eigenvalue {v} lies outside the subfield of {deg_q} elements"
            )
    pne = p ** (n + e)
    for v, d in dims:
        if d != pne:
            raise ConsistencyError(f"{where}: eigenspace at {v} has dimension {d}, expected {pne}")
    expected_factor = gas_poly(field, n, e, 0)
    if len(inv_ad) != pne or any(f != expected_factor for f in inv_ad):
        raise ConsistencyError(
            f"{where}: invariant factors of ad A differ from the certified shape, "
            f"{pne} copies of {expected_factor}"
        )
    if diagonalizable != (e == 0):
        raise ConsistencyError(
            f"{where}: diagonalizability ({diagonalizable}) disagrees with the "
            f"separability exponent e = {e}"
        )
    # at e = 0, q is mu_A, whose irreducibility c3 has just decided
    if e and not irreducible(q):
        raise ConsistencyError(f"{where}: recovered polynomial {q} is reducible")
    return {"p": p, "n": n, "e": e, "a": a_const, "q": q, "h": mu_a}


def check_eigenvector_invertibility(a: Matrix, seed: int = 0) -> InvertibilityVerdict:
    """Reshape every ad-eigenvector to an m x m matrix and test invertibility.

    Checks each basis vector of every eigenspace, a kernel of ad A, plus 10
    seeded random nonzero combinations per eigenvalue; failures are
    reported as witnesses, never raised, so the reducible cases can be
    inspected too.
    """
    _check_caps(a)
    ad = ad_matrix(a)
    mu = invariant_factors(ad).minimal_polynomial()
    bases = [
        (r, [[x.payload for x in vec] for vec in eigenspace(ad, r)])
        for r in _poly_roots_in_field(mu)
    ]
    return _eigenvector_invertibility(a, bases, seed)


def _conjugator_eigenspaces(a, mu_a, dims):
    """(v, eigenspace basis) for each (v, d) that the invariant factors of
    ad A give, built from the paper's conjugator, with no kernel of the
    m^2 x m^2 ad A; the basis is the one that kernel would give (poly.
    _span_basis), as payload vectors.

    h = mu_A has h(X - v) = h(X) for each eigenvalue v, so the Pascal
    matrix S_v of linalg.pascal_similarity(h, -v) has C S_v = S_v (C + v),
    C the companion of h.  mu_A is irreducible of degree m (c3), so e_0 is
    cyclic: its Krylov basis P has rank m and A P = P C, both checked.  Then
    T_v = P S_v P^(-1) has A T_v = T_v (A + v), checked (this one check
    certifies T_v whatever built it), so it is a v-eigenvector of ad A, and
    so is Y T_v for each Y in the centralizer of A, which is F[A] and has
    dimension m (Frobenius's formula for a cyclic matrix).  So A^i T_v,
    i < m, lie in the eigenspace and span it once their rank is d, the
    dimension the invariant factors give: rank m is the second route to d."""
    field, m = a.field, a.nrows
    where = _instance(field, m)
    c = companion(mu_a)
    rows = _row_algebra(field)
    a_columns = rows.matrix_columns(a.rows)
    # the Krylov vectors A^i e_0 are the left powers of e_0, an m x 1 matrix
    e_0 = Matrix.from_raw(field, [[field.one]] + [[field.zero]] * (m - 1))
    krylov = _left_powers(rows, a_columns, e_0)
    p_mat = Matrix.from_raw(field, list(zip(*krylov)))
    identity = Matrix.identity(field, m)
    # a companion A has P = I, where A P = P C reads A = C
    if (a != c) if p_mat == identity else (a * p_mat != p_mat * c):
        raise ConsistencyError(f"{where}: the Krylov basis P of e_0 has A P != P C")
    p_inv = None
    if p_mat != identity:
        # [P | I] has the kernel vectors (-P^(-1) e_i, e_i) when P has rank m
        kernel = _kernel(field, krylov + [list(row) for row in identity.rows])
        if len(kernel) != m:
            raise ConsistencyError(
                f"{where}: the Krylov basis of e_0 has rank {2 * m - len(kernel)}, not {m}"
            )
        inverse_columns = [[field.neg(x) for x in vec[:m]] for vec in kernel]
        p_inv = Matrix.from_raw(field, list(zip(*inverse_columns)))
    bases = []
    for v, d in dims:
        s = _pascal_matrix(field, m, field.neg(v.payload))
        t = s if p_inv is None else p_mat * s * p_inv
        if a * t != t * a.scalar_shift(v):
            raise ConsistencyError(f"{where}: T_v is not an eigenvector of ad A at {v}")
        basis = _span_basis(field, _left_powers(rows, a_columns, t))
        if len(basis) != d:
            raise ConsistencyError(
                f"{where}: eigenspace at {v} has a basis of {len(basis)} vectors, but "
                f"the invariant factors of ad A give dimension {d}"
            )
        bases.append((v, basis))
    return bases


def _left_powers(rows, a_columns, t):
    """T, A T, ..., A^(m-1) T, T m x k, as row-major payload vectors: each
    column of A^(i+1) T is apply of A's columns (a_columns) to A^i T's, and
    T's columns are its apply columns expanded to vectors."""
    m = t.nrows
    powers = [[rows.expand(col, m) for col in rows.matrix_columns(t.rows)]]
    while len(powers) < m:
        powers.append([rows.apply(a_columns, col, m) for col in powers[-1]])
    # each power's packed columns as its rows, flattened
    return [[x for row in zip(*(rows.unpack(c, m) for c in cols)) for x in row] for cols in powers]


def _eigenvector_invertibility(a, bases, seed):
    """check_eigenvector_invertibility on given (eigenvalue, basis) pairs,
    each basis vector a sequence of payloads.

    One loop per eigenvalue over its combinations: the unit vectors, each
    a basis vector read off the basis, then 10 seeded draws of
    coefficients.  The draws come first; checks draw nothing from the rng.
    Over K(Z) a draw is RationalFunctionField.random_raw's (num, den): the
    element and the rng calls of random_payload, with no canonical form.
    Each combination is first tried at the specialisation points
    (linalg.certifying_point), formed from the specialised coefficients
    and basis (_basis_sums): the basis once per point and eigenvalue, the
    coefficients once per point they meet.  The points are tried
    cyclically from the one that certified the previous combination, of
    any eigenvalue.  Only a combination that no point certifies, and every
    combination over a finite field, is formed over the field, from
    canonical coefficients, and ranked exactly (linalg.full_rank).  The
    basis is independent and no draw is all zero, so every combination is
    nonzero."""
    field = a.field
    m = a.nrows
    rational = field.kind == "rational-function"
    rng = random.Random(seed)
    rows = _row_algebra(field)
    draw = field.random_raw if rational else field.random_payload
    # a raw draw is zero when its numerator is
    is_zero = (lambda c: not c[0]) if rational else (lambda c: c == field.zero)
    failures = []
    checked = 0
    sampled = 0
    first = 0
    for v, basis in bases:
        combos = [(f"basis vector {i}", i) for i in range(len(basis))]
        for _ in range(10 if basis else 0):
            coeffs = [draw(rng) for _ in basis]
            if all(map(is_zero, coeffs)):
                coeffs[0] = field.one
            combos.append(("sampled combination", coeffs))
        checked += len(basis)
        sampled += len(combos) - len(basis)
        exact, at = _basis_sums(field, basis, m * m)
        for label, combo in combos:
            if rational:
                point = certifying_point(field, m, functools.partial(at, combo), first)
                if point is not None:
                    first = point
                    continue
                if not isinstance(combo, int):
                    combo = [field.fraction(*c).payload for c in combo]
            vec = rows.pack(basis[combo]) if isinstance(combo, int) else exact(rows.pack(combo))
            if not full_rank(field, m, vec):
                failures.append(f"{label} at eigenvalue {v} is singular")
    return InvertibilityVerdict(not failures, checked, sampled, failures)


def _basis_sums(field, basis, n):
    """(exact, at): the sweep's sums c * vec of the basis (vectors of n
    payloads) for coeffs packed in the field's row algebra, exact(coeffs)
    over the field, and at(combo, i, point) at the i-th specialisation
    point of K(Z), packed in the row algebra of the point's field, or None
    where a vector with a nonzero coefficient has a pole.  combo is a list
    of payloads, reduced or not, or an index: that basis vector itself.
    Each sum is one apply, packed, on the basis as columns, specialised
    once per point."""
    rows = _row_algebra(field)
    exact = functools.partial(rows.apply, rows.columns(basis), n=n)
    at_point = {}

    def at(combo, i, point):
        if i not in at_point:
            vecs = [specialise(field, vec, point) for vec in basis]
            point_rows = _row_algebra(point[0])
            # a vector with a pole enters as a zero column
            at_point[i] = (
                point_rows,
                [None if vec is None else point_rows.pack(vec) for vec in vecs],
                point_rows.columns(vec or () for vec in vecs),
                [j for j, vec in enumerate(vecs) if vec is None],
            )
        point_rows, packed, columns, poles = at_point[i]
        if isinstance(combo, int):
            return packed[combo]
        cs = specialise(field, combo, point)
        # a nonzero coefficient that vanishes at z0 still needs its vector there
        if cs is None or any(combo[j][0] for j in poles):
            return None
        return point_rows.apply(columns, point_rows.pack(cs), n)

    return exact, at


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
