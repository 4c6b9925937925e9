"""ad A over a finite field from A's elementary divisors and λ(r, s), and
over K(Z) from the Smith form of the f_i(C(f_j) + T), against the reference
route: Krylov on the m^2 x m^2 ad_matrix(a)."""

import collections
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aslab import _ringops as rp
from aslab import ad_analyzer, linalg
from aslab.acceptance import FORWARD_GRID
from aslab.ad_analyzer import analyze, build_gas_companion
from aslab.errors import CapExceededError, ConsistencyError
from aslab.fields import FieldElement, make_field, monic_irreducibles
from aslab.linalg import (
    Matrix,
    ad_matrix,
    companion,
    direct_sum,
    invariant_factors,
    jordan_block,
    kron,
    nilpotent_tensor_type,
)
from aslab.poly import Poly, _factor_raw, _min_dependence, is_irreducible_finite
from aslab.tensor import TensorInstance, tensor_jordan_type_oracle

FIELDS = ["GF(2)", "GF(3)", "GF(4)", "GF(5)", "GF(7)", "GF(8)", "GF(9)", "GF(25)", "GF(27)"]
KZ_FIELDS = ["GF(2)(Z)", "GF(3)(Z)", "GF(4)(Z)", "GF(5)(Z)"]


def _random_matrix(field, m, rng):
    return Matrix.from_raw(field, [[field.random_payload(rng) for _ in range(m)] for _ in range(m)])


def _primes(field, rng, count):
    """count monic irreducibles of degree 1-3 over field, drawn with repeats
    from the first few of each degree."""
    pool = [g for d in (1, 2, 3) for g in monic_irreducibles(field, d, 4)]
    return [rng.choice(pool) for _ in range(count)]


def _companion_sum(field, blocks):
    """The direct sum of the companions of pi^e for (pi raw, e) in blocks."""
    return direct_sum(*(companion(Poly.from_raw(field, pi) ** e) for pi, e in blocks))


def _companion_sums(field, rng, count):
    out = []
    for _ in range(count):
        blocks, size = [], 0
        for pi in _primes(field, rng, 4):
            e = rng.randint(1, 4)
            if size + (len(pi) - 1) * e <= 9:
                blocks.append((pi, e))
                size += (len(pi) - 1) * e
        out.append(_companion_sum(field, blocks))
    return out


def _jordan_pairs(field, rng):
    return [
        direct_sum(
            jordan_block(field, FieldElement(field, field.random_payload(rng)), r),
            jordan_block(field, FieldElement(field, field.random_payload(rng)), s),
        )
        for r in range(1, 5)
        for s in range(1, 5)
    ]


def _inputs(spec):
    field = make_field(spec)
    rng = random.Random(f"ad divisors {spec}")
    return (
        [_random_matrix(field, rng.randint(1, 7), rng) for _ in range(16)]
        + _companion_sums(field, rng, 16)
        + _jordan_pairs(field, rng)
    )


def _reference(a):
    """(c3, invariant factors of ad A, [(v, multiplicity, dim)]) on the
    reference route: Krylov on ad_matrix(a) and Ben-Or's test of mu_A."""
    inv_a = invariant_factors(a)
    c3 = len(inv_a) == 1 and is_irreducible_finite(inv_a[0])
    return (c3,) + ad_analyzer._ad_by_krylov(a)


def _by_divisors(a):
    return ad_analyzer._ad_by_divisors(a.field, invariant_factors(a))


def _same(route, reference):
    (c3, inv, spectrum), (ref_c3, ref_inv, ref_spectrum) = route, reference
    return c3 == ref_c3 and inv == ref_inv and spectrum == ref_spectrum


@pytest.mark.parametrize("spec", FIELDS)
def test_route_equals_krylov_on_seeded_inputs(spec):
    for a in _inputs(spec):
        assert _same(_by_divisors(a), _reference(a)), a


@pytest.mark.parametrize("spec", ["GF(2)", "GF(3)", "GF(4)", "GF(9)"])
def test_ad_divisors_do_not_depend_on_the_pair_order(spec):
    # ad_elementary_divisors pairs each divisor with the later ones; in
    # _factor_raw's degree-ascending order a linear second prime means a
    # linear first one, reversed a (nonlinear, linear) pair takes
    # _sylvester_divisors' coprime-degree branch
    field = make_field(spec)
    mixed = 0
    for a in _inputs(spec):
        raw = [f.raw for f in invariant_factors(a)]
        primes = [g for g, _ in _factor_raw(field, raw[-1])]
        divisors = linalg._elementary_divisors(field, raw, primes)
        degrees = {len(pi) - 1 for pi, _ in divisors}
        mixed += 1 in degrees and len(degrees) > 1
        results = []
        for items in (list(divisors.items()), list(reversed(divisors.items()))):
            exponents = linalg.ad_elementary_divisors(field, dict(items))
            inv = linalg.invariant_factors_from_elementary(field, exponents, a.nrows ** 2, spec)
            results.append((inv, ad_analyzer._spectrum(field, exponents)))
        assert results[0] == results[1], (spec, a)
    assert mixed >= 5, (spec, mixed)


@pytest.mark.parametrize("spec", FIELDS)
def test_analyze_report_equals_the_reference_route(spec):
    for a in _inputs(spec)[::4]:
        report = analyze(a)
        c3, inv, spectrum = _reference(a)
        m = a.nrows
        assert report.c3 == c3 and report.invariant_factors == inv
        assert list(report.eigenvalues) == [v for v, _, _ in spectrum]
        assert list(report.eigenspace_dims) == [(v, d) for v, _, d in spectrum]
        assert report.c1 == (sum(mult for _, mult, _ in spectrum) == m * m)


def _partitions(n):
    """table[k]: the partitions of k <= n, largest part first, built by a
    loop over k."""
    table = [[()]]
    for k in range(1, n + 1):
        table.append(
            [(a,) + rest for a in range(k, 0, -1) for rest in table[k - a] if not rest or rest[0] <= a]
        )
    return table


def similarity_classes(field, largest):
    """Every similarity class of m x m matrices over the finite field, m from
    1 to largest, as its elementary divisors: a tuple of (pi, r), pi raw
    monic irreducible, whose exponents r for each pi form a partition.  A
    loop over the primes extends every class built so far, so it needs no
    recursion."""
    parts = _partitions(largest)
    classes = [((), 0)]  # (blocks, size)
    for d in range(1, largest + 1):
        for pi in monic_irreducibles(field, d, field.order**d):
            classes += [
                (blocks + tuple((pi, r) for r in lam), size + d * k)
                for blocks, size in classes
                for k in range(1, (largest - size) // d + 1)
                for lam in parts[k]
            ]
    return [blocks for blocks, size in classes if size]


def class_mismatches(spec, largest):
    """(number of classes, those on which _ad_by_divisors and _ad_by_krylov
    differ in c3, the invariant factors or the spectrum), A the direct sum
    of the companions of the pi^r of each class."""
    field = make_field(spec)
    classes = similarity_classes(field, largest)
    wrong = []
    for blocks in classes:
        a = _companion_sum(field, blocks)
        if not _same(_by_divisors(a), _reference(a)):
            wrong.append(blocks)
    return len(classes), wrong


@pytest.mark.parametrize("spec, largest, count", [("GF(2)", 4, 56), ("GF(3)", 3, 54), ("GF(4)", 3, 108)])
def test_every_similarity_class_takes_both_routes_alike(spec, largest, count):
    # 2 + 6 + 14 + 34 classes over GF(2), 3 + 12 + 39 over GF(3) and
    # 4 + 20 + 84 over GF(4): the class numbers of M_m(GF(q))
    assert class_mismatches(spec, largest) == (count, [])


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    spec=st.sampled_from(FIELDS),
    picks=st.lists(
        st.tuples(st.integers(1, 3), st.integers(0, 3), st.integers(1, 4)), min_size=1, max_size=3
    ),
)
def test_route_equals_krylov_on_direct_sums_of_prime_powers(spec, picks):
    field = make_field(spec)
    blocks = []
    for d, index, e in picks:
        pool = monic_irreducibles(field, d, 4)  # GF(2) has fewer than 4 at degrees 1 and 2
        pi = pool[index % len(pool)]
        if sum((len(g) - 1) * f for g, f in blocks) + d * e <= 10:
            blocks.append((pi, e))
    a = _companion_sum(field, blocks or [((field.zero, field.one), 1)])
    assert _same(_by_divisors(a), _reference(a))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 31])
def test_lambda_equals_the_oracle_and_the_rank_sequence(p):
    # every r * s <= 64 for p <= 7; past that only the pairs of the
    # Clebsch-Gordan rule, r + s <= p + 1
    k = make_field(f"GF({p})")
    for r in range(1, 65):
        for s in range(1, 64 // r + 1):
            if p > 7 and r + s > p + 1:
                continue
            lam = list(nilpotent_tensor_type(p, r, s))
            assert lam == tensor_jordan_type_oracle(TensorInstance(p, r, s)).sizes(), (p, r, s)
            if r <= s:
                # J_r(0) (x) I - I (x) J_s(0), ranked power by power
                nil = kron(jordan_block(k, 0, r), Matrix.identity(k, s)) - kron(
                    Matrix.identity(k, r), jordan_block(k, 0, s)
                )
                assert lam == _rank_sequence_sizes(nil), (p, r, s)


def _rank_sequence_sizes(n):
    """Block sizes of the nilpotent n: rank(N^(k-1)) - rank(N^k) blocks
    have size at least k."""
    ranks, power = [n.nrows, n.rank()], n
    while ranks[-1]:
        power = power * n
        ranks.append(power.rank())
    at_least = [a - b for a, b in zip(ranks, ranks[1:])] + [0]
    return [k for k in range(len(at_least) - 1, 0, -1) for _ in range(at_least[k - 1] - at_least[k])]


@pytest.mark.parametrize("p", [2, 3])
def test_lambda_equals_the_oracle_at_nonzero_eigenvalues(p):
    # every r * s <= 256: Heller's reduction past r * s = 64, and the
    # oracle shifted off 0 by alpha + beta
    rng = random.Random(f"lambda {p}")
    for r in range(1, 257):
        for s in range(1, 256 // r + 1):
            inst = TensorInstance(p, r, s, rng.randrange(1, p), rng.randrange(1, p))
            assert list(nilpotent_tensor_type(p, r, s)) == tensor_jordan_type_oracle(inst).sizes(), inst


def test_lambda_at_the_cap_builds_no_kronecker_operator(monkeypatch):
    monkeypatch.setattr(linalg, "kron", lambda *args: pytest.fail("Kronecker operator built"))
    monkeypatch.setattr(linalg, "invariant_factors", lambda *args: pytest.fail("Krylov run"))
    for p in (2, 3, 5, 7):
        lam = nilpotent_tensor_type(p, 32, 32)
        # 32 blocks of dimension 1024, none past 2 * 32 - 1 or past the
        # least power of p that is at least 32
        q = min(p**e for e in range(6) if p**e >= 32)
        assert (len(lam), sum(lam)) == (32, 1024) and max(lam) <= min(q, 63), p
    # J_32(0) over GF(2) is a free GF(2)[C_32]-module: 32 blocks of size 32
    assert nilpotent_tensor_type(2, 32, 32) == (32,) * 32


@pytest.mark.parametrize("spec", FIELDS)
def test_analyze_builds_no_ad_matrix_over_a_finite_field(spec, monkeypatch):
    def no_ad(*args):
        raise AssertionError("ad_matrix built over a finite field")

    monkeypatch.setattr(ad_analyzer, "ad_matrix", no_ad)
    monkeypatch.setattr(linalg, "ad_matrix", no_ad)
    field = make_field(spec)
    for a in _inputs(spec)[::8]:
        analyze(a)
    # a certified companion: c1, c2 and c3 hold, and the sweep runs
    report = analyze(build_gas_companion(field, 1, 0, 1))
    assert report.c1 and report.c2 and report.c3 == (field.n % field.char != 0)


def _random_kz_matrix(field, m, rng):
    """Entries a + b Z or (a + b Z) / (c + Z), a, b, c in K: small enough
    that the c3 oracle and the root search take every 2 x 2 input."""
    k = field.base

    def entry():
        den = rng.choice([(k.one,), (k.random_payload(rng), k.one)])
        return field.fraction((k.random_payload(rng), k.random_payload(rng)), den)

    return Matrix(field, [[entry() for _ in range(m)] for _ in range(m)])


def _kz_inputs(spec, largest=3):
    """Seeded random matrices of size 1 to largest, the forward grid's
    companions over this field, and non-cyclic direct sums."""
    field = make_field(spec)
    rng = random.Random(f"kz sylvester {spec}")
    out = [_random_kz_matrix(field, rng.randint(1, largest), rng) for _ in range(6)]
    out += [
        build_gas_companion(field, n, e, "Z")
        for p, n, e in FORWARD_GRID
        if make_field(f"GF({p**n})(Z)") == field
    ]
    z = field.element("Z")
    out += [
        direct_sum(jordan_block(field, z, 2), jordan_block(field, z, 1)),
        direct_sum(jordan_block(field, 0, 1), jordan_block(field, 1, 1), jordan_block(field, z, 1)),
        direct_sum(*[companion(Poly.from_string(field, "X^2-X-Z"))] * 2),
    ]
    return out


def _spectrum_or_refusal(inv_ad):
    try:
        return ad_analyzer._spectrum(inv_ad[0].field, ad_analyzer._linear_exponents(inv_ad))
    except CapExceededError as refusal:
        return str(refusal)


@pytest.mark.parametrize("spec", KZ_FIELDS)
def test_ad_over_kz_equals_krylov_on_ad_matrix(spec):
    for a in _kz_inputs(spec):
        inv_ad = ad_analyzer._ad_by_sylvester(a.field, invariant_factors(a))
        reference = invariant_factors(ad_matrix(a))
        assert inv_ad == reference, a
        assert _spectrum_or_refusal(inv_ad) == _spectrum_or_refusal(reference), a


def test_rational_roots_point_filter_keeps_every_root(monkeypatch):
    # the filter rules candidates out before their exact division, and
    # with it off the roots are the same
    field = make_field("GF(3)(Z)")
    f = Poly.from_string(field, "X*(X-Z)*(X+Z)*(X-1/Z)*(X-(Z+1)/(Z+2))*(X^2+Z)")
    real, verdicts = ad_analyzer._rules_out, []
    monkeypatch.setattr(ad_analyzer, "_rules_out", lambda *args: verdicts.append(real(*args)) or verdicts[-1])
    filtered = ad_analyzer._rational_roots(f)
    assert verdicts.count(True) > len(verdicts) // 2
    monkeypatch.setattr(ad_analyzer, "_rules_out", lambda *args: False)
    assert filtered == ad_analyzer._rational_roots(f)
    assert sorted(str(v) for v in filtered) == sorted(["0", "Z", "2*Z", "1/Z", "(Z+1)/(Z+2)"])


def test_analyze_builds_no_ad_matrix_over_kz(monkeypatch):
    def no_ad(*args):
        raise AssertionError("ad_matrix built over K(Z)")

    monkeypatch.setattr(ad_analyzer, "ad_matrix", no_ad)
    monkeypatch.setattr(linalg, "ad_matrix", no_ad)
    for spec in KZ_FIELDS:
        for a in _kz_inputs(spec, largest=2):
            analyze(a)
        # a certified companion: c1, c2 and c3 hold, and the sweep runs
        assert analyze(build_gas_companion(make_field(spec), 1, 0, "Z")).passed()
    assert analyze(build_gas_companion(make_field("GF(2)(Z)"), 1, 1, "Z")).passed()


def test_degrees_short_of_m_squared_raise_a_named_consistency_error(monkeypatch):
    # the mutant drops the last block of λ(r, s)
    real = linalg.nilpotent_tensor_type
    monkeypatch.setattr(linalg, "nilpotent_tensor_type", lambda p, r, s: real(p, r, s)[:-1] or (1,))
    a = jordan_block(make_field("GF(3)"), 0, 4)
    with pytest.raises(ConsistencyError, match=r"analyze over GF\(3\), 4 x 4: ad A: .* 16"):
        analyze(a)


# the invariant_factors calls, and the sum of their dimensions, of the
# seed-0 GF(2) and GF(3) analyze calls below: 74 on A itself and 10 on the
# small Sylvester operators of two distinct primes; λ(r, s) runs none.
# Krylov on ad_matrix(a) made 148 calls of dimension sum 2,482, and λ by
# the Kronecker operator 94 calls of dimension sum 647
INVARIANT_FACTORS_BUDGET = {"calls": 84, "dim_sum": 465}


def _budget_inputs():
    out = []
    for spec in ("GF(2)", "GF(3)"):
        field = make_field(spec)
        rng = random.Random(0)
        out += [_random_matrix(field, m, rng) for m in range(2, 9) for _ in range(5)]
        out += [jordan_block(field, 0, 6), build_gas_companion(field, 1, 0, 1)]
    return out


def test_invariant_factors_stay_within_budget(monkeypatch):
    dims = []
    real = linalg.invariant_factors

    def counted(m):
        dims.append(m.nrows)
        return real(m)

    monkeypatch.setattr(linalg, "invariant_factors", counted)
    monkeypatch.setattr(ad_analyzer, "invariant_factors", counted)
    for a in _budget_inputs():
        analyze(a)
    assert len(dims) <= INVARIANT_FACTORS_BUDGET["calls"], dims
    assert sum(dims) <= INVARIANT_FACTORS_BUDGET["dim_sum"], sum(dims)


def test_analyze_reports_are_the_same_cold_and_warm():
    # linalg._sylvester_divisors and ad_analyzer._ad_of_class are memoised
    # process-wide: each report with both memos emptied first, then every
    # report again with them full, when each class is a hit and its primes
    # never reach the Sylvester memo
    memos, inputs = (linalg._sylvester_divisors, ad_analyzer._ad_of_class), _budget_inputs()
    cold = []
    for a in inputs:
        for memo in memos:
            memo.cache_clear()
        cold.append(json.dumps(analyze(a).to_json_dict()))
    for a in inputs:
        analyze(a)
    classes = ad_analyzer._ad_of_class.cache_info()
    assert [json.dumps(analyze(a).to_json_dict()) for a in inputs] == cold
    after = ad_analyzer._ad_of_class.cache_info()
    assert after.misses == classes.misses and after.hits == classes.hits + len(inputs)


def _conjugator(field, m, rng):
    """(P, P^(-1)) for a seeded invertible m x m P: a product of 2m
    transvections I + c E_ij, i != j, and a diagonal of units, each with
    its inverse at hand; the units are the field's, GF(p)'s over K(Z)."""
    if field.order is None:
        units = [field.from_int(i) for i in range(1, field.char)]
    else:
        units = [u for u in field.enumerate_payloads() if u != field.zero]
    p = p_inv = Matrix.identity(field, m)
    for _ in range(2 * m):
        i, j = rng.sample(range(m), 2)
        c = rng.choice(units)
        rows = [list(row) for row in Matrix.identity(field, m).rows]
        inverse = [list(row) for row in rows]
        rows[i][j], inverse[i][j] = c, field.neg(c)
        p, p_inv = p * Matrix.from_raw(field, rows), Matrix.from_raw(field, inverse) * p_inv
    d = [rng.choice(units) for _ in range(m)]
    diagonal = [[d[i] if i == j else field.zero for j in range(m)] for i in range(m)]
    inverse = [[field.inv(d[i]) if i == j else field.zero for j in range(m)] for i in range(m)]
    return p * Matrix.from_raw(field, diagonal), Matrix.from_raw(field, inverse) * p_inv


def _similar_pairs():
    """(A, P A P^(-1)) over GF(2), GF(3), GF(4) and GF(9), random and
    certified A, plus a certified companion over GF(3)(Z)."""
    pairs = []
    for spec in ("GF(2)", "GF(3)", "GF(4)", "GF(9)"):
        field, rng = make_field(spec), random.Random(spec)
        inputs = [_random_matrix(field, m, rng) for m in (2, 3, 4, 5)]
        inputs += [
            jordan_block(field, 0, 3),
            direct_sum(companion(Poly.from_string(field, "X^2")), jordan_block(field, 1, 2)),
        ]
        if spec != "GF(4)":
            inputs.append(build_gas_companion(field, 1, 0, 1))
        for a in inputs:
            p, p_inv = _conjugator(field, a.nrows, rng)
            assert p * p_inv == Matrix.identity(field, a.nrows)
            pairs.append((a, p * a * p_inv))
    field = make_field("GF(3)(Z)")
    a = companion(Poly.from_string(field, "X^3-X-Z"))
    p, p_inv = _conjugator(field, 3, random.Random(3))
    assert p * p_inv == Matrix.identity(field, 3)
    pairs.append((a, p * a * p_inv))
    return pairs


def test_similar_matrices_share_one_class_entry():
    # ad(P A P^(-1)) is ad A conjugated by Y -> P Y P^(-1): B = P A P^(-1)
    # after A is one hit on A's entry, and its report is its cold one
    memo, certified, moved = ad_analyzer._ad_of_class, 0, 0
    for a, b in _similar_pairs():
        moved += a != b
        memo.cache_clear()
        cold = json.dumps(analyze(b).to_json_dict())
        memo.cache_clear()
        certified += analyze(a).passed()
        assert json.dumps(analyze(b).to_json_dict()) == cold, b
        info = memo.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1), (a, info)
    assert (certified, moved) == (5, 27)


@pytest.mark.parametrize(
    "spec, first, second",
    [("GF(2)", ["X^2", "X^2"], ["X", "X", "X^2"]), ("GF(3)", ["X-1", "X^2-2*X+1"], ["X^2-2*X+1"])],
)
def test_classes_with_one_minimal_polynomial_keep_their_own_entries(spec, first, second):
    # mu_A alone does not name the class: each report, warm, is its cold one
    field, memo = make_field(spec), ad_analyzer._ad_of_class
    a, b = (direct_sum(*(companion(Poly.from_string(field, f)) for f in fs)) for fs in (first, second))
    cold = []
    for m in (a, b):
        memo.cache_clear()
        cold.append(json.dumps(analyze(m).to_json_dict()))
    assert cold[0] != cold[1]
    memo.cache_clear()
    assert [json.dumps(analyze(m).to_json_dict()) for m in (a, b, a, b)] == cold + cold
    assert memo.cache_info().currsize == 2


@pytest.mark.parametrize("spec", ["GF(2)", "GF(3)", "GF(4)"])
def test_sylvester_memo_returns_tuples_equal_to_the_function_it_wraps(spec):
    # every ordered pair of monic irreducibles of degree <= 3, the
    # (nonlinear, linear) pairs that ad_elementary_divisors never asks for
    # included
    field, memo = make_field(spec), linalg._sylvester_divisors
    primes = [pi for d in (1, 2, 3) for pi in monic_irreducibles(field, d, field.order**d)]
    for pi in primes:
        for pj in primes:
            got = memo(field, pi, pj)
            assert all(isinstance(pair, tuple) and isinstance(pair[0], tuple) for pair in got)
            assert isinstance(got, tuple) and got == memo.__wrapped__(field, pi, pj), (pi, pj)
            assert memo(field, pi, pj) is got
    assert memo.cache_info().currsize == len(primes) ** 2


def _frobenius_loop(field, pi):
    """[g_1, ..., g_(d-1)]: the minimal polynomial of x - x^(q^k) mod pi for
    every k < d, each x^(q^k) off the Frobenius chain."""
    d, x, ring = len(pi) - 1, (field.zero, field.one), rp.ring(field)
    chain = zip(range(d - 1), rp.frobenius_chain(field, pi))
    return [_min_dependence(field, ring.sub(x, h), pi) for _, h in chain]


# (field, largest degree) of the equal-prime sweep: every monic irreducible
EQUAL_PRIME_SWEEP = (("GF(2)", 7), ("GF(3)", 5), ("GF(4)", 4), ("GF(5)", 4), ("GF(7)", 3), ("GF(9)", 3))


def test_equal_prime_divisors_equal_the_full_frobenius_loop():
    # g_(d-k) is g_k(-X) made monic, since h_(d-k) = -σ^(-k)(h_k); the
    # branch walks the chain for k <= d / 2 only and must give the loop's
    # divisors in the loop's order
    pairs = 0
    for spec, largest in EQUAL_PRIME_SWEEP:
        field = make_field(spec)
        for d in range(1, largest + 1):
            for pi in monic_irreducibles(field, d, field.order**d):
                gs = _frobenius_loop(field, pi)
                for k in range(1, d):
                    assert gs[d - k - 1] == linalg._negated(field, gs[k - 1]), (spec, pi, k)
                pairs += d - 1
                counts = collections.Counter({(field.zero, field.one): d})
                for g in gs:
                    counts[g] += d // (len(g) - 1)
                assert linalg._sylvester_divisors.__wrapped__(field, pi, pi) == tuple(counts.items()), (spec, pi)
    assert pairs == 1983
