"""Acceptance grids: one runner per criterion, shared by tests and the CLI.

Each runner returns a JSON-serializable dict with a top-level "passed" flag
and per-instance check records.  Runners are pure and deterministic for a
fixed seed, so rerunning a suite must reproduce its output byte for byte;
the determinism suite does exactly that comparison.
"""

import itertools
import json
import random

from .ad_analyzer import analyze, build_gas_companion
from .dickson import (
    SubspaceR,
    enumerate_subspaces,
    f_r_polynomial,
    gaussian_binomial,
    primitive_element,
)
from .errors import InputError
from .fields import _first_generator, enumerate_elements, make_field, p_power_split
from .irred import GasInstance, bivariate_irreducible_oracle, gas_irreducible
from .linalg import (
    Matrix,
    companion,
    elementary_divisors_from_invariant,
    invariant_factors,
    pascal_similarity,
    similar,
    verify_companion_composition,
)
from .poly import Poly, factor_finite, gas_poly
from .tensor import (
    TensorInstance,
    ad_elementary_divisors_blocksum,
    binomial_divisibility,
    blocksum_ad_matrix,
    tensor_jordan_type_formula,
    tensor_jordan_type_oracle,
)

FORWARD_GRID = ((2, 1, 0), (2, 1, 1), (2, 2, 0), (3, 1, 0), (3, 1, 1))
CONVERSE_COUNT = 200  # random matrices per field


def _check(records, name, ok, **detail):
    rec = {"check": name, "ok": bool(ok)}
    rec.update(detail)
    records.append(rec)
    return ok


def run_forward_suite(seed=0):
    """Certified structure of ad on generalized Artin-Schreier companions."""
    records = []
    for p, n, e in FORWARD_GRID:
        field = make_field(f"GF({p**n})(Z)")
        a = build_gas_companion(field, n, e, "Z")
        rep = analyze(a, seed=seed)
        tag = f"p={p},n={n},e={e}"
        _check(records, f"{tag}: c1&c2&c3", rep.passed())
        expected_eigs = sorted(
            (field.constant(x) for x in enumerate_elements(field.base)),
            key=lambda v: v.sort_key(),
        )
        _check(
            records,
            f"{tag}: eigenvalue set is the subfield of {p**n} elements",
            list(rep.eigenvalues) == expected_eigs,
            eigenvalues=[str(v) for v in rep.eigenvalues],
        )
        pne = p ** (n + e)
        _check(
            records,
            f"{tag}: all eigenspace dims equal {pne}",
            all(d == pne for _, d in rep.eigenspace_dims),
            dims=[d for _, d in rep.eigenspace_dims],
        )
        expected_factor = gas_poly(field, n, e, 0)
        _check(
            records,
            f"{tag}: invariant factors are {pne} copies of {expected_factor}",
            len(rep.invariant_factors) == pne
            and all(f == expected_factor for f in rep.invariant_factors),
        )
        _check(records, f"{tag}: diagonalizable iff e=0", rep.diagonalizable == (e == 0))
        inv = rep.eigenvector_invertibility
        _check(
            records,
            f"{tag}: all sampled eigenvectors invertible",
            inv is not None and inv.all_invertible,
            checked=None if inv is None else inv.checked,
            sampled=None if inv is None else inv.sampled,
        )
    return _result("forward", seed, records)


def run_converse_suite(seed=0):
    """Random matrices: recovery succeeds exactly on certified inputs."""
    records = []
    for spec in ("GF(2)", "GF(3)"):
        field = make_field(spec)
        rng = random.Random((seed, spec).__repr__())
        passing = 0
        inconsistencies = 0
        for i in range(CONVERSE_COUNT):
            size = 2 + (i % 3)
            mat = Matrix.from_raw(
                field,
                [
                    [field.random_payload(rng) for _ in range(size)]
                    for _ in range(size)
                ],
            )
            rep = analyze(mat, seed=seed)
            if rep.passed():
                passing += 1
                rec = rep.recovered
                q = rec["q"]
                factors = factor_finite(q)
                if len(factors) != 1 or factors[0][1] != 1:
                    inconsistencies += 1
            else:
                if not rep.failures:
                    inconsistencies += 1
        _check(
            records,
            f"{spec}: {CONVERSE_COUNT} matrices, every pass recovers an irreducible q "
            "and every failure names a violated condition",
            inconsistencies == 0,
            passing=passing,
            inconsistencies=inconsistencies,
        )
        _check(records, f"{spec}: at least one matrix passes", passing > 0, passing=passing)
    return _result("converse", seed, records)


def run_tensor_suite(seed=0):
    """Closed formula vs invariant-factor oracle for Jordan block tensors."""
    records = []
    mismatches = []
    total = 0
    for p in (2, 3):
        e = 0
        while p**e <= 9:
            m = p**e
            for n in range(1, m + 1):
                total += 1
                inst = TensorInstance(p, n, m)
                if tensor_jordan_type_formula(inst) != tensor_jordan_type_oracle(inst):
                    mismatches.append((p, n, m))
            e += 1
    _check(records, "formula equals oracle on the full grid", not mismatches,
           instances=total, mismatches=[list(x) for x in mismatches])

    sl2_contrast = tensor_jordan_type_oracle(TensorInstance(2, 2, 2))
    _check(records, "J_2 x J_2 over GF(2) splits as [2, 2]",
           sl2_contrast.sizes() == [2, 2], sizes=sl2_contrast.sizes())
    j23 = tensor_jordan_type_oracle(TensorInstance(2, 2, 3))
    _check(records, "J_2 x J_3 over GF(2) splits as [4, 2]",
           j23.sizes() == [4, 2], sizes=j23.sizes())

    shift_ok = True
    for p in (2, 3):
        for n, m in ((2, p), (p, p)):
            base = tensor_jordan_type_oracle(TensorInstance(p, min(n, m), max(n, m))).sizes()
            for a in range(p):
                for b in range(p):
                    inst = TensorInstance(p, min(n, m), max(n, m), a, b)
                    if tensor_jordan_type_oracle(inst).sizes() != base:
                        shift_ok = False
    _check(records, "block sizes independent of the eigenvalues", shift_ok)

    div_ok = all(
        binomial_divisibility(p, e, i)
        for p in (2, 3, 5)
        for e in range(4)
        for i in range(1, p**e)
    )
    _check(records, "p divides C(p^e, i) for 0 < i < p^e, p in {2,3,5}, e <= 3", div_ok)
    return _result("tensor", seed, records)


def run_blocksum_suite(seed=0):
    """Elementary divisor formula vs explicit ad computation on block sums."""
    records = []
    failures = []
    total = 0
    for p in (2, 3):
        field = make_field(f"GF({p})")
        for e in (0, 1):
            for s in (1, 2, 3):
                for eig_tuple in itertools.product(range(p), repeat=s):
                    total += 1
                    eigs = [field.element(v) for v in eig_tuple]
                    formula = {
                        (str(lin), pe): mult
                        for lin, pe, mult in ad_elementary_divisors_blocksum(eigs, e, p)
                    }
                    mat = blocksum_ad_matrix(eigs, e, p)
                    direct = {
                        (str(prime), exp): mult
                        for (prime, exp), mult in elementary_divisors_from_invariant(
                            invariant_factors(mat)
                        )
                    }
                    if formula != direct:
                        failures.append((p, e, list(eig_tuple)))
    _check(records, "formula matches the explicit ad matrix on the full grid",
           not failures, instances=total, failures=failures)
    return _result("blocksum", seed, records)


def run_dickson_suite(seed=0):
    """Primitive elements for every subspace, with the property-P equivalence."""
    records = []
    for p, nmax in ((2, 4), (3, 4)):
        for n in range(1, nmax + 1):
            ambient = make_field(f"GF({p**n})")
            field = make_field(f"GF({p**n})(Z)")
            q = gas_poly(field, n, 0, field.gen())
            a_elem = field.gen()
            tag = f"p={p},n={n}"
            bad_degree = []
            bad_equiv = []
            subfield_checked = 0
            count = 0
            for m in range(n + 1):
                subs = enumerate_subspaces(ambient, m)
                if len(subs) != gaussian_binomial(n, m, p):
                    _check(records, f"{tag},m={m}: subspace count", False,
                           got=len(subs), expected=gaussian_binomial(n, m, p))
                    continue
                for r in subs:
                    count += 1
                    res = primitive_element(r, q)
                    if res.degree_over_f != p ** (n - m):
                        bad_degree.append((m, [str(b) for b in r.basis]))
                    if res.property_p != r.is_frobenius_invariant():
                        bad_equiv.append((m, [str(b) for b in r.basis]))
                    if r.is_subfield():
                        subfield_checked += 1
                        alpha_pm = gas_poly(field, m, 0, 0) % q
                        if Poly.from_raw(field, res.alpha_h.raw) != alpha_pm % q:
                            _check(records, f"{tag},m={m}: subfield alpha_R form", False)
                        cs = res.coefficients
                        if m >= 1 and (
                            cs[0] != -ambient.one_element()
                            or any(c != ambient.zero_element() for c in cs[1:])
                        ):
                            _check(records, f"{tag},m={m}: subfield coefficients", False,
                                   coefficients=[str(c) for c in cs])
                    if m == n:
                        if res.alpha_h != Poly.constant(field, a_elem) % q:
                            _check(records, f"{tag}: alpha_G equals a", False,
                                   alpha=str(res.alpha_h))
            _check(records, f"{tag}: degree law on all {count} subspaces",
                   not bad_degree, failures=bad_degree)
            _check(records, f"{tag}: three-way property-P equivalence",
                   not bad_equiv, failures=bad_equiv)
            _check(records, f"{tag}: subfield cases exercised",
                   subfield_checked >= 1, count=subfield_checked)

    # the large-field example: roots of the product of all degree-p
    # Artin-Schreier polynomials form a plane, invariant but not a field
    f729 = make_field("GF(729)")
    zero = f729.zero_element()
    roots = [x for x in enumerate_elements(f729) if x**9 + x**3 + x == zero]
    ok_example = len(roots) == 9
    detail = {}
    if ok_example:
        r = SubspaceR.from_elements(f729, roots)
        fr = f_r_polynomial(r)
        expected = (
            Poly.x_power(f729, 9) + Poly.x_power(f729, 3) + Poly.x(f729)
        )
        detail = {
            "f_R": fr.to_string("Y"),
            "dim": r.dim,
            "frobenius_invariant": r.is_frobenius_invariant(),
            "is_subfield": r.is_subfield(),
        }
        ok_example = (
            fr == expected
            and r.dim == 2
            and r.is_frobenius_invariant()
            and not r.is_subfield()
        )
    _check(
        records,
        "GF(3^6): product of the degree-3 additive shifts has root plane "
        "with prime-field f_R = Y^9+Y^3+Y",
        ok_example,
        **detail,
    )
    return _result("dickson", seed, records)


def _generator_element(field):
    """Smallest multiplicative generator, by enumeration order."""
    return _first_generator(enumerate_elements(field), field.order - 1, pow, field.one_element())


def run_irred_suite(seed=0):
    """Criterion vs oracle on the full grid, plus the named instances."""
    records = []
    disagreements = []
    total = 0
    for p in (2, 3):
        for kspec in (f"GF({p})", f"GF({p**2})"):
            K = make_field(kspec)
            gen = _generator_element(K)
            g_options = []
            for gs in ("Z", "Z+1"):
                g_options.append(Poly.from_string(K, gs, var="Z"))
            g_c = Poly(K, [K.zero_element(), gen])
            if all(g_c != g for g in g_options):
                g_options.append(g_c)
            rs = sorted(set((1, 2, 3, p, 2 * p)))
            for n in (1, 2):
                for e in (0, 1):
                    for r in rs:
                        for g in g_options:
                            inst = GasInstance(K, n, e, r, g)
                            if not inst.oracle_reaches():
                                continue
                            total += 1
                            verdict = gas_irreducible(inst)
                            oracle = bivariate_irreducible_oracle(inst.build_h())
                            if bool(verdict) != oracle:
                                disagreements.append(
                                    [kspec, n, e, r, g.to_string("Z")]
                                )
    _check(records, "criterion agrees with the oracle on the full grid",
           not disagreements, instances=total, disagreements=disagreements)

    for p, n, kspec in ((2, 1, "GF(2)"), (2, 2, "GF(2)"), (2, 2, "GF(4)"), (3, 1, "GF(3)")):
        K = make_field(kspec)
        inst = GasInstance(K, n, 0, 1, "Z")
        ok = bool(gas_irreducible(inst)) and bivariate_irreducible_oracle(inst.build_h())
        _check(records, f"X^(p^n)-X-Z irreducible for p={p}, n={n} over {kspec}", ok)

    f2z = make_field("GF(2)(Z)")
    h_counter = Poly.from_string(f2z, "X^2-X-(Z^2-Z)")
    _check(records, "X^2-X-(Z^2-Z) is reducible",
           not bivariate_irreducible_oracle(h_counter))
    try:
        GasInstance(make_field("GF(2)"), 1, 0, 1, "Z^2-Z")
        hypothesis_rejected = False
    except InputError:
        hypothesis_rejected = True
    _check(records, "degree of g divisible by p is rejected by the criterion",
           hypothesis_rejected)

    h_sq = Poly.from_string(f2z, "X^4-X^2-Z^2")
    base = Poly.from_string(f2z, "X^2-X-Z")
    _check(records, "X^4-X^2-Z^2 equals (X^2-X-Z)^2 and is reducible",
           (base * base == h_sq) and not bivariate_irreducible_oracle(h_sq))

    profile_failures = []
    for spec in ("GF(4)", "GF(9)"):
        K = make_field(spec)
        n = 2
        for a in enumerate_elements(K):
            q = gas_poly(K, n, 0, a)
            degs = {f.degree() for f, _ in factor_finite(q)}
            if len(degs) != 1:
                profile_failures.append([spec, str(a), sorted(degs)])
                continue
            if p_power_split(degs.pop(), K.char)[1] != 1:
                profile_failures.append([spec, str(a), "degree not a p-power"])
    _check(records, "factor degrees of X^(p^2)-X-a are equal p-powers over GF(4), GF(9)",
           not profile_failures, failures=profile_failures)
    return _result("irred", seed, records)


def run_similarity_suite(seed=0):
    """Seeded shift-similarity, Pascal identity, and composition checks."""
    records = []
    rng = random.Random((seed, "similarity").__repr__())
    field_specs = ("GF(2)", "GF(3)", "GF(5)", "GF(4)", "GF(9)")
    shift_failures = []
    for i in range(20):
        field = make_field(field_specs[i % len(field_specs)])
        deg = 1 + (i % 4)
        f = Poly.from_raw(
            field, tuple(field.random_payload(rng) for _ in range(deg)) + (field.one,)
        )
        b = field.element(field.random_payload(rng))
        s = pascal_similarity(f, b)  # raises on identity failure
        shift_ok = similar(companion(f), companion(f.shifted(b)).scalar_shift(b))
        if not (shift_ok and s.nrows == f.degree()):
            shift_failures.append(i)
    _check(records, "20 seeded shift/Pascal pairs verified", not shift_failures,
           failures=shift_failures)

    comp_failures = []
    done = 0
    while done < 10:
        field = make_field(field_specs[done % len(field_specs)])
        m = rng.choice((1, 2))
        d = rng.choice((2, 3, 4))
        if m * d > 8:
            continue
        f = Poly.from_raw(
            field, tuple(field.random_payload(rng) for _ in range(m)) + (field.one,)
        )
        graw = [field.random_payload(rng) for _ in range(d)]
        lead = field.random_payload(rng)
        while lead == field.zero:
            lead = field.random_payload(rng)
        g = Poly.from_raw(field, tuple(graw) + (lead,))
        if not verify_companion_composition(f, g):
            comp_failures.append(done)
        done += 1
    _check(records, "10 seeded composition-block pairs verified", not comp_failures,
           failures=comp_failures)
    return _result("similarity", seed, records)


SUITES = {
    "forward": run_forward_suite,
    "converse": run_converse_suite,
    "tensor": run_tensor_suite,
    "blocksum": run_blocksum_suite,
    "dickson": run_dickson_suite,
    "irred": run_irred_suite,
    "similarity": run_similarity_suite,
}

QUICK_SUITES = ("tensor", "similarity")


def _result(name, seed, records):
    return {
        "suite": name,
        "seed": seed,
        "passed": all(r["ok"] for r in records),
        "checks": records,
    }


def run_all(seed=0, suites=None):
    chosen = SUITES if suites is None else {k: SUITES[k] for k in suites}
    results = [runner(seed=seed) for runner in chosen.values()]
    return {
        "schema_version": 1,
        "seed": seed,
        "passed": all(r["passed"] for r in results),
        "suites": results,
    }


def suite_json(name, seed=0):
    """Canonical JSON bytes of one suite run (for determinism checks)."""
    return json.dumps(SUITES[name](seed=seed), separators=(",", ":")).encode()
