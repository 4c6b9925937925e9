import hashlib
import json
import random
import time

import pytest

from aslab import ad_analyzer, irred
from aslab.acceptance import FORWARD_GRID
from aslab.ad_analyzer import (
    analyze,
    build_gas_companion,
    check_eigenvector_invertibility,
    contains_subfield,
)
from aslab.errors import CapExceededError, ConsistencyError, InputError
from aslab.fields import make_field, specialisation_points, specialise
from aslab.linalg import (
    Matrix,
    ad_matrix,
    companion,
    direct_sum,
    eigenspace,
    jordan_block,
    similar,
)
from aslab.poly import Poly, _row_algebra, factor_finite


# ---------------------------------------------------------------------------
# building companions of the defining polynomials

def test_build_gas_companion_n1_e0():
    f2z = make_field("GF(2)(Z)")
    a = build_gas_companion(f2z, 1, 0, "Z")
    assert a == companion(Poly.from_string(f2z, "X^2-X-Z"))


def test_build_gas_companion_n2_e0():
    f4z = make_field("GF(4)(Z)")
    a = build_gas_companion(f4z, 2, 0, "Z")
    assert a.nrows == 4
    assert a == companion(Poly.from_string(f4z, "X^4-X-Z"))


def test_build_gas_companion_n1_e1():
    f2z = make_field("GF(2)(Z)")
    a = build_gas_companion(f2z, 1, 1, "Z")
    assert a == companion(Poly.from_string(f2z, "X^4-X^2-Z"))


def test_build_gas_companion_requires_subfield():
    f2z = make_field("GF(2)(Z)")
    assert contains_subfield(f2z, 1)
    assert not contains_subfield(f2z, 2)
    with pytest.raises(InputError):
        build_gas_companion(f2z, 2, 0, "Z")


# ---------------------------------------------------------------------------
# the forward direction

def test_analyze_certifies_basic_instance():
    f2z = make_field("GF(2)(Z)")
    rep = analyze(build_gas_companion(f2z, 1, 0, "Z"))
    assert rep.c1 and rep.c2 and rep.c3
    assert [str(v) for v in rep.eigenvalues] == ["0", "1"]
    assert [d for _, d in rep.eigenspace_dims] == [2, 2]
    expected = Poly.from_string(f2z, "X^2-X")
    assert len(rep.invariant_factors) == 2
    assert all(f == expected for f in rep.invariant_factors)
    assert rep.diagonalizable
    rec = rep.recovered
    assert (rec["p"], rec["n"], rec["e"]) == (2, 1, 0)
    assert rec["a"] == f2z.element("Z")
    assert rec["q"] == Poly.from_string(f2z, "X^2-X-Z")
    assert rep.eigenvector_invertibility.all_invertible


def test_analyze_inseparable_instance():
    f2z = make_field("GF(2)(Z)")
    rep = analyze(build_gas_companion(f2z, 1, 1, "Z"))
    assert rep.passed()
    assert [d for _, d in rep.eigenspace_dims] == [4, 4]
    expected = Poly.from_string(f2z, "X^4-X^2")
    assert len(rep.invariant_factors) == 4
    assert all(f == expected for f in rep.invariant_factors)
    assert not rep.diagonalizable
    assert rep.recovered["e"] == 1


@pytest.mark.parametrize("poly, e, calls", [("X^2-X-Z", 0, 1), ("X^4-X^2-Z", 1, 2)])
def test_recovery_asks_irreducibility_again_only_when_e_is_positive(monkeypatch, poly, e, calls):
    # at e = 0 the separable part q is mu_A, which c3 has just decided
    f2z = make_field("GF(2)(Z)")
    asked = []
    decide = ad_analyzer.irreducible
    monkeypatch.setattr(ad_analyzer, "irreducible", lambda f: asked.append(f) or decide(f))
    rep = analyze(companion(Poly.from_string(f2z, poly)))
    assert rep.passed() and rep.recovered["e"] == e
    assert len(asked) == calls


def test_analyze_scalar_matrix_fails_c3():
    f2 = make_field("GF(2)")
    rep = analyze(Matrix.identity(f2, 2))
    assert not rep.c3
    assert rep.recovered is None
    assert any(f.startswith("c3") for f in rep.failures)
    # ad I = 0, so the only eigenvalue is 0 and the set is not a subfield
    assert not rep.c2


def test_analyze_reducible_cyclic_matrix():
    f2 = make_field("GF(2)")
    d = Matrix(f2, [[0, 0], [0, 1]])
    rep = analyze(d)
    assert rep.c1 and rep.c2 and not rep.c3
    assert "reducible" in rep.failures[0]


@pytest.mark.parametrize(
    "spec, entries, eigenvalues, dims",
    [
        ("GF(2)(Z)", [["Z", "0"], ["0", "0"]], ["0", "Z"], [["0", 2], ["Z", 2]]),
        (
            "GF(3)(Z)",
            [["Z", "1"], ["0", "Z/(Z+1)"]],
            ["0", "Z^2/(Z+1)", "2*Z^2/(Z+1)"],
            [["0", 2], ["Z^2/(Z+1)", 1], ["2*Z^2/(Z+1)", 1]],
        ),
    ],
)
def test_analyze_finds_nonconstant_rational_eigenvalues(spec, entries, eigenvalues, dims):
    rep = analyze(Matrix(make_field(spec), entries)).to_json_dict()
    assert rep["eigenvalues"] == eigenvalues
    assert rep["eigenspace_dims"] == dims
    assert rep["c1"] and not rep["c2"]


@pytest.mark.parametrize(
    "spec, roots, rootless",
    [
        ("GF(2)(Z)", ["0", "1", "1", "Z", "Z+1", "1/Z", "(Z+1)/Z", "(Z+1)/Z"], "X^2+X+1"),
        ("GF(2)(Z)", ["1", "Z", "Z", "1/Z"], "X^2+X+1"),
        ("GF(3)(Z)", ["0", "0", "2", "1", "Z", "Z+1", "1/Z", "(Z+1)/Z"], "X^2+1"),
        ("GF(3)(Z)", ["2", "2", "(Z+1)/Z", "Z", "1"], "X^2+X+2"),
        ("GF(3)(Z)", ["0", "Z+1", "1/Z", "1/Z"], "X^2+1"),
    ],
)
def test_rational_roots_are_exactly_the_linear_factors(spec, roots, rootless):
    # zero comes first, then the constants in enumeration order, whatever
    # the order of the factors; check_eigenvector_invertibility draws its
    # combinations in this order
    F = make_field(spec)
    f = Poly.from_string(F, rootless)
    for r in roots:
        f = f * Poly.from_string(F, f"X-({r})")
    found = [str(v) for v in ad_analyzer._poly_roots_in_field(f)]
    constants = [str(F.constant(c)) for c in F.base.enumerate_payloads()]
    expected_constants = [c for c in constants if c in roots]
    assert found[:len(expected_constants)] == expected_constants
    assert sorted(found) == sorted({str(F.parse_element(r)) for r in roots})


def test_rational_root_candidates_are_capped():
    # 9 monic divisors of Z^2+Z times 728 units of GF(729) exceed 4096
    f729z = make_field("GF(729)(Z)")
    with pytest.raises(CapExceededError, match="root candidate"):
        analyze(Matrix(f729z, [["Z^2+Z", "0"], ["0", "0"]]))


def test_rational_root_cap_is_checked_before_the_divisors(monkeypatch):
    # (Z^11 - Z)^2 has 3^11 monic divisors over GF(11): the count comes from
    # the factorisation, so no divisor is expanded or sorted before the cap
    # refuses (expanding them first took 2.3 s on a 2-core Xeon VM)
    def expand(*args):
        raise AssertionError("divisors expanded before the cap check")

    monkeypatch.setattr(ad_analyzer, "_monic_divisors", expand)
    f11z = make_field("GF(11)(Z)")
    t0 = time.perf_counter()
    with pytest.raises(CapExceededError, match="root candidate"):
        analyze(Matrix(f11z, [["Z^11-Z", "0"], ["0", "0"]]))
    assert time.perf_counter() - t0 < 1.0


def _reference_contains_subfield(field, n):
    """The root count that contains_subfield used to make: GF(p^n) embeds
    when X^(p^n) - X has p^n roots in the (base) field."""
    target = field.char**n
    k = field if field.order is not None else field.base
    return sum(1 for c in k.enumerate_payloads() if k.pow_int(c, target) == c) == target


def test_contains_subfield_matches_the_root_count():
    specs = ("GF(2)", "GF(4)", "GF(8)", "GF(16)", "GF(64)", "GF(3)", "GF(9)", "GF(729)",
             "GF(2^3; mod=t^3+t^2+1)", "GF(2)(Z)", "GF(9)(Z)")
    for spec in specs:
        field = make_field(spec)
        for n in range(1, 9):
            assert contains_subfield(field, n) == _reference_contains_subfield(field, n), (spec, n)
    assert not contains_subfield(make_field("GF(4)"), 0)


def test_analyze_caps():
    f2z = make_field("GF(2)(Z)")
    with pytest.raises(CapExceededError):
        analyze(Matrix.zeros(f2z, 10))


def test_analyze_gf2_20x20_in_bounded_time():
    # ad of a 20 x 20 matrix is 400 x 400; Krylov on it took 4.6-5.8 s on
    # payload-list rows and about 0.2 s on packed GF(2) rows (2-core Xeon
    # VM); analyze now reads it off A's elementary divisors
    f2 = make_field("GF(2)")
    rng = random.Random(20)
    a = Matrix(f2, [[rng.randrange(2) for _ in range(20)] for _ in range(20)])
    t0 = time.perf_counter()
    report = analyze(a)
    elapsed = time.perf_counter() - t0
    assert sum(f.degree() for f in report.invariant_factors) == 400
    assert elapsed < 3.0


def _report_digest(report):
    data = json.dumps(report.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode()).hexdigest()[:16]


def _seeded(spec, seed, m):
    field = make_field(spec)
    rng = random.Random(seed)
    return Matrix(field, [[rng.randrange(field.p) for _ in range(m)] for _ in range(m)])


@pytest.mark.parametrize(
    "build, digest",
    [
        # 88 s before the Smith finish ran on packed GF(2)[X] (2-core Xeon VM)
        (lambda: _seeded("GF(2)", 32003, 32), "c0917713b154a9b5"),
        # 49-56 s before
        (lambda: _seeded("GF(2)", 32000, 32), "ba4242353a3acaac"),
        (lambda: companion(Poly.from_string(make_field("GF(2)"), "X^32+X^7+X^3+X^2+1")),
         "36cca3231d6f2e6a"),
    ],
    ids=["random-32003", "random-32000", "irreducible-companion"],
)
def test_analyze_gf2_at_the_32x32_cap_in_bounded_time(build, digest):
    # ad of a 32 x 32 matrix is 1024 x 1024, the largest the cap admits;
    # the digests are those of the reports before the packed Smith finish
    a = build()
    t0 = time.perf_counter()
    report = analyze(a)
    elapsed = time.perf_counter() - t0
    assert _report_digest(report) == digest
    assert elapsed < 15.0


@pytest.mark.parametrize(
    "spec, m, digest",
    [("GF(3)", 16, "1c3c608d9d0b14db"), ("GF(5)", 14, "b4f3fd5894460f5e"),
     ("GF(727)", 12, "574c2d9b5a6500e6")],
    ids=["gf3-16", "gf5-14", "gf727-12"],
)
def test_analyze_odd_prime_reports_in_bounded_time(spec, m, digest):
    # random.Random(m)'s m x m matrix; the digests are those of the reports
    # of Krylov on ad A over payload-list rows (1.1-1.9 s there, 0.4-0.8 s
    # on the inline mod-p rows, on a 2-core Xeon VM)
    a = _seeded(spec, m, m)
    t0 = time.perf_counter()
    report = analyze(a)
    elapsed = time.perf_counter() - t0
    assert _report_digest(report) == digest
    assert elapsed < 5.0


def test_c3_is_decided_before_ad_is_built(monkeypatch):
    # the oracle refuses mu_A = X^9 - X^3 - 1/(Z+1) at its total-degree cap;
    # that refusal comes before ad A and its invariant factors are computed
    def no_ad(*args):
        raise AssertionError("ad A built before c3 was decided")

    monkeypatch.setattr(ad_analyzer, "ad_matrix", no_ad)
    a = build_gas_companion(make_field("GF(3)(Z)"), 1, 1, "1/(Z+1)")
    with pytest.raises(CapExceededError, match="total degree"):
        analyze(a)


def test_c3_is_false_without_the_oracle_when_x_divides_mu(monkeypatch):
    # X^2 + (Z^2+Z+1)^7 X has total degree 16, over the oracle's cap 12, but
    # X divides it, so it is reducible and the oracle is never asked
    def no_oracle(*args):
        raise AssertionError("oracle asked about a polynomial that X divides")

    monkeypatch.setattr(irred, "bivariate_irreducible_oracle", no_oracle)
    f = Poly.from_string(make_field("GF(3)(Z)"), "X^2+(Z^2+Z+1)^7*X")
    report = analyze(companion(f))
    assert report.c1 and not report.c3
    assert "reducible" in report.failures[-1]


def test_analyze_json_is_stable():
    f2z = make_field("GF(2)(Z)")

    a = build_gas_companion(f2z, 1, 0, "Z")
    d1 = json.dumps(analyze(a, seed=4).to_json_dict())
    d2 = json.dumps(analyze(a, seed=4).to_json_dict())
    assert d1 == d2


# ---------------------------------------------------------------------------
# eigenspace dimensions, read off the invariant factors of ad A

def _eigenspace_dims_by_rank(a, eigenvalues):
    ad = ad_matrix(a)
    return [(v, a.nrows**2 - ad.scalar_shift(-v).rank()) for v in eigenvalues]


def test_eigenspace_dims_equal_corank_of_ad_shift():
    rng = random.Random(2024)
    mats = []
    for spec, sizes in (("GF(2)", (1, 2, 3, 4, 5)), ("GF(3)", (2, 3, 4)),
                        ("GF(4)", (2, 3, 4)), ("GF(9)", (2, 3))):
        field = make_field(spec)
        for size in sizes:
            mats += [
                Matrix(field, [[field.random_payload(rng) for _ in range(size)]
                               for _ in range(size)])
                for _ in range(4)
            ]
            mats += [Matrix.identity(field, size), jordan_block(field, 1, size)]
        mats.append(direct_sum(jordan_block(field, 0, 2), jordan_block(field, 1, 1)))
    for spec, e in (("GF(2)(Z)", 0), ("GF(2)(Z)", 1), ("GF(3)(Z)", 0)):
        mats.append(build_gas_companion(make_field(spec), 1, e, "Z"))
    for a in mats:
        rep = analyze(a)
        assert list(rep.eigenspace_dims) == _eigenspace_dims_by_rank(a, rep.eigenvalues), a
        assert rep.diagonalizable == (sum(d for _, d in rep.eigenspace_dims) == a.nrows**2)


def test_eigenspace_basis_short_of_the_invariant_factor_dimension(monkeypatch):
    # the mutant of the conjugator route drops one basis vector
    real = ad_analyzer._span_basis

    def short_basis(field, vectors):
        return real(field, vectors)[:-1]

    monkeypatch.setattr(ad_analyzer, "_span_basis", short_basis)
    f2z = make_field("GF(2)(Z)")
    with pytest.raises(
        ConsistencyError,
        match=r"GF\(2\)\(Z\), 2 x 2: eigenspace at 0 .* 1 vectors.* dimension 2",
    ):
        analyze(build_gas_companion(f2z, 1, 0, "Z"))


# ---------------------------------------------------------------------------
# eigenspaces from the paper's conjugator

def _kernel_bases(a, report):
    """The route check_eigenvector_invertibility takes: a kernel of ad A
    per eigenvalue."""
    ad = ad_matrix(a)
    return [
        (v, [tuple(x.payload for x in vec) for vec in eigenspace(ad, v)])
        for v, _ in report.eigenspace_dims
    ]


def _assert_conjugator_bases_are_the_kernels(a):
    report = analyze(a)
    assert report.passed(), a
    bases = ad_analyzer._conjugator_eigenspaces(a, report.recovered["h"], report.eigenspace_dims)
    assert bases == _kernel_bases(a, report)


@pytest.mark.parametrize("p, n, e", FORWARD_GRID)
def test_conjugator_bases_are_the_kernels_on_the_forward_grid(p, n, e):
    _assert_conjugator_bases_are_the_kernels(
        build_gas_companion(make_field(f"GF({p**n})(Z)"), n, e, "Z")
    )


@pytest.mark.parametrize(
    "spec, a",
    [("GF(2)", 1), ("GF(3)", 1), ("GF(4)", "t"), ("GF(5)", 1), ("GF(7)", 1), ("GF(9)", 1),
     ("GF(13)", 1)],
)
def test_conjugator_bases_are_the_kernels_on_finite_companions(spec, a):
    # X^p - X - a with a of nonzero trace: certified, and the Krylov basis
    # of a companion is the identity
    _assert_conjugator_bases_are_the_kernels(build_gas_companion(make_field(spec), 1, 0, a))


def _seeded_conjugate(c, seed):
    """Q C Q^(-1) for Q a product of seeded elementary matrices I + x E_ij,
    each inverted as I - x E_ij."""
    field, m = c.field, c.nrows
    rng = random.Random(seed)
    a = c
    for _ in range(3):
        i, j = rng.sample(range(m), 2)
        x = field.random_payload(rng) if field.order is None else rng.randrange(1, field.p)
        unit = Matrix.from_raw(field, [[x if (r, s) == (i, j) else field.zero
                                        for s in range(m)] for r in range(m)])
        q = Matrix.identity(field, m) + unit
        q_inv = Matrix.identity(field, m) - unit
        a = q * a * q_inv
    return a


@pytest.mark.parametrize(
    "spec, poly, seed",
    [("GF(2)", "X^2-X-1", 1), ("GF(2)", "X^2-X-1", 2), ("GF(3)", "X^3-X-1", 1),
     ("GF(3)", "X^3-X-1", 2), ("GF(3)(Z)", "X^3-X-Z", 1), ("GF(3)(Z)", "X^3-X-Z", 2)],
)
def test_conjugator_bases_are_the_kernels_on_seeded_conjugates(spec, poly, seed):
    c = companion(Poly.from_string(make_field(spec), poly))
    a = _seeded_conjugate(c, seed)
    assert a != c  # the Krylov basis is not the identity
    _assert_conjugator_bases_are_the_kernels(a)


def test_certified_conjugate_sweep_over_gf3z():
    # the matrix of CI's non-companion sweep step: a conjugate of the
    # X^3 - X - Z companion
    f = make_field("GF(3)(Z)")
    a = Matrix(f, [["2*Z", "2", "Z+1"], ["0", "2", "1"], ["2*Z", "0", "Z+1"]])
    assert similar(a, companion(Poly.from_string(f, "X^3-X-Z")))
    verdict = analyze(a).eigenvector_invertibility
    assert verdict.all_invertible
    assert (verdict.checked, verdict.sampled) == (9, 30)


def test_analyze_builds_no_kernel_of_ad(monkeypatch):
    monkeypatch.setattr(ad_analyzer, "eigenspace", lambda *args: pytest.fail("kernel of ad A"))
    report = analyze(build_gas_companion(make_field("GF(3)(Z)"), 1, 1, "Z"))
    assert report.eigenvector_invertibility.all_invertible


def test_a_wrong_companion_breaks_the_krylov_conjugation(monkeypatch):
    # the mutant: C is the companion of X^2 - X - (Z + 1), not of mu_A
    f2z = make_field("GF(2)(Z)")
    a = build_gas_companion(f2z, 1, 0, "Z")
    monkeypatch.setattr(
        ad_analyzer, "companion", lambda f: companion(Poly.from_string(f2z, "X^2-X-Z-1"))
    )
    with pytest.raises(ConsistencyError, match=r"GF\(2\)\(Z\), 2 x 2: .* A P != P C"):
        analyze(a)


def test_a_singular_krylov_basis_is_caught(monkeypatch):
    # the mutant: the kernel of [P | I] gains a vector, as when P has rank 2
    real = ad_analyzer._kernel

    def one_more(field, columns):
        kernel = real(field, columns)
        return kernel[:1] + kernel

    monkeypatch.setattr(ad_analyzer, "_kernel", one_more)
    a = _seeded_conjugate(companion(Poly.from_string(make_field("GF(3)"), "X^3-X-1")), 1)
    with pytest.raises(ConsistencyError, match=r"GF\(3\), 3 x 3: .* rank 2, not 3"):
        analyze(a)


def test_a_pascal_matrix_of_another_eigenvalue_is_caught(monkeypatch):
    # the mutant: S is taken at the shift of v + 1, a (v + 1)-eigenvector
    real = ad_analyzer._pascal_matrix
    monkeypatch.setattr(
        ad_analyzer, "_pascal_matrix", lambda field, m, b: real(field, m, field.sub(b, field.one))
    )
    f3z = make_field("GF(3)(Z)")
    with pytest.raises(
        ConsistencyError, match=r"GF\(3\)\(Z\), 3 x 3: T_v is not an eigenvector of ad A at 0"
    ):
        analyze(build_gas_companion(f3z, 1, 0, "Z"))


# ---------------------------------------------------------------------------
# eigenvector invertibility

def test_invertibility_on_certified_instance():
    f2z = make_field("GF(2)(Z)")
    a = build_gas_companion(f2z, 1, 0, "Z")
    verdict = check_eigenvector_invertibility(a, seed=3)
    assert verdict.all_invertible
    assert verdict.checked >= 4  # two eigenvalues, two basis vectors each


def test_invertibility_fails_for_split_diagonal():
    # diag(0, 1): the ad eigenvector E_12 is a rank-one matrix
    f2 = make_field("GF(2)")
    d = Matrix(f2, [[0, 0], [0, 1]])
    verdict = check_eigenvector_invertibility(d)
    assert not verdict.all_invertible
    assert any("eigenvalue 1" in f for f in verdict.failures)


def test_zero_eigenspace_of_certified_matrix_is_a_field():
    # nonzero elements of the centralizer F[A] are invertible
    f2z = make_field("GF(2)(Z)")
    a = build_gas_companion(f2z, 1, 0, "Z")
    verdict = check_eigenvector_invertibility(a, seed=9)
    assert verdict.all_invertible


@pytest.mark.parametrize(
    "spec, seed, counts, singular",
    [
        # (checked, sampled), then per eigenvalue: singular basis vectors
        # (the first ones) and singular sampled combinations
        ("GF(2)(Z)", 0, (4, 20), [("0", 2, 7), ("Z", 2, 1)]),
        ("GF(2)(Z)", 5, (4, 20), [("0", 2, 7), ("Z", 2, 5)]),
        ("GF(3)(Z)", 1, (4, 30), [("0", 2, 2), ("Z", 1, 10), ("2*Z", 1, 10)]),
    ],
)
def test_reducible_kz_witnesses_are_kept_by_the_fallback(spec, seed, counts, singular):
    # diag(0, Z): E_12 and E_21 are rank one, so no point certifies them
    # and the exact rank reports every witness, as before specialisation
    f = make_field(spec)
    verdict = check_eigenvector_invertibility(Matrix(f, [[0, 0], [0, "Z"]]), seed=seed)
    assert not verdict.all_invertible
    assert (verdict.checked, verdict.sampled) == counts
    expected = []
    for v, basis, combos in singular:
        expected += [f"basis vector {i} at eigenvalue {v} is singular" for i in range(basis)]
        expected += [f"sampled combination at eigenvalue {v} is singular"] * combos
    assert verdict.failures == expected


@pytest.mark.parametrize("spec, n, e", [("GF(3)(Z)", 1, 0), ("GF(3)(Z)", 1, 1), ("GF(4)(Z)", 2, 0)])
def test_certified_kz_sweep_needs_no_exact_rank(spec, n, e, monkeypatch):
    a = build_gas_companion(make_field(spec), n, e, "Z")
    # the sweep's exact rank over K(Z); certifying_point ranks at the points
    # through linalg's own full_rank
    monkeypatch.setattr(ad_analyzer, "full_rank", lambda *args: pytest.fail("exact rank reached"))
    verdict = check_eigenvector_invertibility(a, seed=4)
    assert verdict.all_invertible and verdict.failures == []
    assert verdict.sampled == 10 * a.field.char**n  # 10 per eigenvalue


def _reference_combination(field, coeffs, vecs):
    """sum c * vec by field method calls, as the sweep formed it before the
    row algebra: zero coefficients (whose vectors may be None) skipped,
    None when every coefficient is zero."""
    combo = None
    for c, vec in zip(coeffs, vecs):
        if c != field.zero:
            term = vec if c == field.one else [field.mul(c, x) for x in vec]
            combo = term if combo is None else [field.add(s, t) for s, t in zip(combo, term)]
    return combo


def _reference_combination_at(field, coeffs, basis, point):
    """_reference_combination at a specialisation point, None when a term
    cannot be specialised there, and the zero vector when every coefficient
    vanishes there (which certifies nothing either)."""
    vecs = [specialise(field, vec, point) for vec in basis]
    cs = specialise(field, coeffs, point)
    if cs is None or any(vec is None for c, vec in zip(coeffs, vecs) if c != field.zero):
        return None
    combo = _reference_combination(point[0], cs, vecs)
    return [point[0].zero] * len(basis[0]) if combo is None else combo


@pytest.mark.parametrize("spec", ["GF(2)", "GF(3)", "GF(9)", "GF(2)(Z)", "GF(3)(Z)", "GF(4)(Z)"])
def test_sweep_combinations_match_the_field_method_sums(spec):
    # seeded bases of m^2-vectors and coefficient vectors, mostly 0 and 1,
    # packed as the sweep packs them (payload lists over K(Z)); over K(Z)
    # the denominators of degree 1 put poles at some points
    field, rng = make_field(spec), random.Random(189)
    rational = field.kind == "rational-function"
    points = specialisation_points(field.base) if rational else []
    poles = 0
    for d, n in ((1, 1), (1, 4), (2, 4), (3, 9), (4, 16)):
        basis = [[field.random_payload(rng) for _ in range(n)] for _ in range(d)]
        exact, at = ad_analyzer._basis_sums(field, basis, n)
        for _ in range(6):
            coeffs = [rng.choice([field.zero, field.one, field.random_payload(rng)]) for _ in basis]
            if all(c == field.zero for c in coeffs):
                coeffs[0] = field.one
            expected = _reference_combination(field, coeffs, basis)
            rows = _row_algebra(field)
            assert rows.unpack(exact(rows.pack(coeffs)), n) == expected, (spec, basis, coeffs)
            for i, point in enumerate(points):
                expected = _reference_combination_at(field, coeffs, basis, point)
                got = at(coeffs, i, point)
                if expected is None:
                    poles += 1
                    assert got is None, (spec, basis, coeffs, i)
                else:
                    assert _row_algebra(point[0]).unpack(got, n) == expected, (spec, basis, coeffs, i)
        # an index is that basis vector, read off the specialised basis
        for i, point in enumerate(points):
            for j, vec in enumerate(basis):
                expected = specialise(field, vec, point)
                got = at(j, i, point)
                assert (got if got is None else _row_algebra(point[0]).unpack(got, n)) == expected
    assert poles or not rational


# specialisation tries (entries_at calls) of the seed-0 sweeps of the forward
# suite's GF(2)(Z) and GF(3)(Z) companions, at most, as measured with the
# points tried cyclically from the last certifying one: 26, 30, 43 and 61
# of 24, 28, 39 and 57 combinations.  Restarting each eigenvalue at point 0
# and trying the others in order made 30, 35, 71 and 91, and restarting
# every combination at point 0 made 46, 55, 73 and 142
SWEEP_TRY_BUDGET = {(2, 1, 0): 26, (2, 1, 1): 30, (3, 1, 0): 43, (3, 1, 1): 61}


@pytest.mark.parametrize("p, n, e", sorted(SWEEP_TRY_BUDGET))
def test_sweep_specialisation_tries_stay_within_budget(p, n, e, monkeypatch):
    tries = []
    real = ad_analyzer.certifying_point

    def counted(field, m, entries_at, first=0):
        return real(field, m, lambda i, point: tries.append(i) or entries_at(i, point), first)

    monkeypatch.setattr(ad_analyzer, "certifying_point", counted)
    report = analyze(build_gas_companion(make_field(f"GF({p})(Z)"), n, e, "Z"), seed=0)
    assert report.eigenvector_invertibility.all_invertible
    assert len(tries) <= SWEEP_TRY_BUDGET[p, n, e]


@pytest.mark.parametrize(
    "spec, n, e, a",
    [(f"GF({p**n})(Z)", n, e, "Z") for p, n, e in FORWARD_GRID] + [("GF(9)", 1, 0, 1)],
)
def test_sweep_checks_every_basis_vector_and_ten_draws_per_eigenvalue(spec, n, e, a):
    report = analyze(build_gas_companion(make_field(spec), n, e, a), seed=2)
    verdict = report.eigenvector_invertibility
    assert verdict.all_invertible and verdict.failures == []
    assert verdict.checked == sum(d for _, d in report.eigenspace_dims)
    assert verdict.sampled == 10 * len(report.eigenvalues)


# ---------------------------------------------------------------------------
# shift similarity

def test_similarity_shift_examples():
    f2z = make_field("GF(2)(Z)")
    a = companion(Poly.from_string(f2z, "X^2-X-Z"))
    assert similar(a, a.scalar_shift(f2z.element(1)))
    assert similar(a, a.scalar_shift(f2z.element(0)))
    f3 = make_field("GF(3)")
    j = jordan_block(f3, 0, 2)
    assert not similar(j, j.scalar_shift(f3.element(1)))


# ---------------------------------------------------------------------------
# the converse direction, sampled

def test_converse_on_seeded_matrices():
    rng = random.Random(777)
    for spec in ("GF(2)", "GF(3)"):
        field = make_field(spec)
        passing = 0
        for i in range(60):
            size = 2 + (i % 3)
            a = Matrix(
                field,
                [[field.random_payload(rng) for _ in range(size)] for _ in range(size)],
            )
            rep = analyze(a)
            if rep.passed():
                passing += 1
                rec = rep.recovered
                q = rec["q"]
                # independent irreducibility certificate via factorization
                factors = factor_finite(q)
                assert len(factors) == 1 and factors[0][1] == 1
                p = field.char
                assert q == (
                    Poly.x_power(field, p ** rec["n"])
                    - Poly.x(field)
                    - Poly.constant(field, rec["a"])
                )
            else:
                assert rep.failures
        # the sample is fixed, so this is a deterministic regression guard
        assert passing >= 1 or spec == "GF(3)"


def test_known_passing_2x2_over_gf2():
    # companion of X^2+X+1, the irreducible quadratic
    f2 = make_field("GF(2)")
    a = companion(Poly.from_string(f2, "X^2+X+1"))
    rep = analyze(a)
    assert rep.passed()
    assert rep.recovered["n"] == 1 and rep.recovered["e"] == 0
    assert rep.recovered["a"] == f2.element(1)
    assert rep.diagonalizable


def test_known_passing_3x3_over_gf3():
    f3 = make_field("GF(3)")
    a = companion(Poly.from_string(f3, "X^3-X-1"))
    rep = analyze(a)
    assert rep.passed()
    assert rep.recovered["n"] == 1 and rep.recovered["e"] == 0
    assert [d for _, d in rep.eigenspace_dims] == [3, 3, 3]


def test_known_failing_4x4_over_gf2():
    # X^4 - X^2 - 1 = (X^2+X+1)^2 over GF(2), so c3 must fail for its companion
    f2 = make_field("GF(2)")
    a = companion(Poly.from_string(f2, "X^4-X^2-1"))
    rep = analyze(a)
    assert not rep.passed()
    assert not rep.c3


def test_constant_term_variations_over_kz():
    # certification tracks irreducibility of q: polynomial and fraction
    # constants work, while a = Z^2+Z makes X^2-X-a = (X-Z)(X-Z-1) split
    f2z = make_field("GF(2)(Z)")
    for a_str in ("Z+1", "1/(Z+1)"):
        rep = analyze(build_gas_companion(f2z, 1, 0, a_str))
        assert rep.passed(), a_str
        assert rep.recovered["a"] == f2z.element(a_str)
    rep = analyze(build_gas_companion(f2z, 1, 0, "Z^2+Z"))
    assert not rep.c3 and rep.recovered is None
