import collections
import functools
import itertools
import random
import sys
import threading
import time

import pytest

from aslab import _ringops as rp
from aslab import fields
from aslab._exprparse import parse_expression
from aslab.errors import CapExceededError, ConsistencyError, InputError
from aslab.fields import (
    FieldElement,
    ben_or_irreducible,
    embed_subfield,
    enumerate_elements,
    frobenius,
    is_pth_power_coeffs,
    make_field,
)
from aslab.poly import Poly


# ---------------------------------------------------------------------------
# field construction

def test_make_field_prime():
    f = make_field("GF(2)")
    assert f.kind == "prime" and f.p == 2 and f.n == 1 and f.order == 2


def test_make_field_gf4_modulus_is_the_unique_irreducible_quadratic():
    # independent check: a quadratic over GF(2) is irreducible iff it has no
    # roots; enumerate all four monic quadratics
    candidates = []
    for c0 in (0, 1):
        for c1 in (0, 1):
            if all((x * x + c1 * x + c0) % 2 != 0 for x in (0, 1)):
                candidates.append((c0, c1, 1))
    assert candidates == [(1, 1, 1)]
    f4 = make_field("GF(4)")
    assert f4.modulus == (1, 1, 1)


def _mobius(n):
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    return -result if n > 1 else result


@pytest.mark.parametrize(
    "spec, max_degree", [("GF(2)", 4), ("GF(3)", 4), ("GF(4)", 4), ("GF(9)", 2)]
)
def test_rabin_test_counts_match_gauss_formula(spec, max_degree):
    # Gauss: GF(q) has (1/d) * sum over j | d of mu(d/j) q^j monic
    # irreducibles of degree d; count what Ben-Or's test accepts
    k = make_field(spec)
    q = k.order
    for d in range(1, max_degree + 1):
        expected = sum(_mobius(d // j) * q**j for j in range(1, d + 1) if d % j == 0) // d
        accepted = sum(
            ben_or_irreducible(k, tail + (k.one,))
            for tail in itertools.product(k.enumerate_payloads(), repeat=d)
        )
        assert accepted == expected, (spec, d)


@pytest.mark.parametrize(
    "spec",
    [
        "GF(256)", "GF(512)", "GF(625)", "GF(727)", "GF(729)",
        "GF(2^9; mod=t^9+t^4+1)", "GF(23^2; mod=t^2+22*t+15)",
    ],
)
def test_rabin_test_at_degrees_2_and_3_is_having_no_root(spec):
    # a quadratic or cubic is irreducible exactly when it has no root
    k = make_field(spec)
    rng = random.Random(spec)
    verdicts = set()
    for d in (2, 3):
        for _ in range(200):
            f = tuple(k.random_payload(rng) for _ in range(d)) + (k.one,)
            irreducible = ben_or_irreducible(k, f)
            assert irreducible == (not fields._raw_roots(k, f)), (spec, f)
            verdicts.add((d, irreducible))
    assert len(verdicts) == 4, verdicts


def _reference_rabin(k, f):
    """Rabin's test with each x^(q^i) by a fresh pow_mod."""
    n = len(f) - 1
    q, x = k.order, rp.rem(k, (k.zero, k.one), f)
    if rp.pow_mod(k, x, q**n, f) != x:
        return False
    for ell in range(2, n + 1):
        if n % ell == 0 and fields.is_prime(ell):
            h = rp.pow_mod(k, x, q ** (n // ell), f)
            if rp.gcd(k, rp.sub(k, h, x), f) != (k.one,):
                return False
    return True


def _rabin_chain_field(name):
    if name == "GF(4)[Z]/(m)":
        gf4 = make_field("GF(4)")
        return fields._TabulatedField(gf4, fields.monic_irreducibles(gf4, 2, 1)[0])
    return make_field(name)


def _rabin_chain_inputs(k, n, rng):
    """Seeded monic polynomials of degree n over k, two irreducibles by the
    reference, and for each prime l dividing n the product of l distinct
    irreducibles of degree n/l: x^(q^n) = x mod that product, and only the
    gcd at n/l shows it reducible."""
    pays = list(k.enumerate_payloads())

    def monic(d):
        return tuple(rng.choice(pays) for _ in range(d)) + (k.one,)

    def irreducibles(d, count):
        if d == 1:
            return [(c, k.one) for c in pays[:count]]
        out = set()
        for _ in range(50 * d * count):
            if len(out) == count:
                break
            f = monic(d)
            if _reference_rabin(k, f):
                out.add(f)
        return sorted(out)

    inputs = [monic(n) for _ in range(20)] + irreducibles(n, 2)
    for ell in range(2, n + 1):
        if n % ell == 0 and fields.is_prime(ell):
            factors = irreducibles(n // ell, ell)
            if len(factors) == ell:
                inputs.append(functools.reduce(lambda a, b: rp.mul(k, a, b), factors))
    return inputs


@pytest.mark.parametrize("name", ["GF(2)", "GF(3)", "GF(4)", "GF(9)", "GF(4)[Z]/(m)"])
def test_rabin_test_on_the_chain_matches_fresh_powers(name):
    k, rng = _rabin_chain_field(name), random.Random(name)
    verdicts = collections.Counter()
    for n in range(4, 10):
        for f in _rabin_chain_inputs(k, n, rng):
            expected = _reference_rabin(k, f)
            assert ben_or_irreducible(k, f) == expected, (name, f)
            verdicts[expected] += 1
    assert verdicts[True] >= 12 and verdicts[False] >= 12, verdicts


@pytest.mark.parametrize(
    "spec, max_degree", [("GF(2)", 5), ("GF(3)", 5), ("GF(4)", 5), ("GF(5)", 5), ("GF(9)", 3)]
)
def test_ben_or_test_matches_rabin_on_every_small_polynomial(spec, max_degree):
    # Ben-Or's gcds at d <= n/2 against Rabin's test on fresh powers, on
    # every monic polynomial of each degree, constant term zero included
    k = make_field(spec)
    verdicts = collections.Counter()
    for d in range(1, max_degree + 1):
        for tail in itertools.product(k.enumerate_payloads(), repeat=d):
            f = tail + (k.one,)
            expected = _reference_rabin(k, f)
            assert ben_or_irreducible(k, f) == expected, (spec, f)
            verdicts[d, expected] += 1
    assert all(verdicts[d, True] and verdicts[d, False] for d in range(2, max_degree + 1)), verdicts


class _CountedChain:
    """rp.frobenius_chain that counts the elements drawn from it."""

    def __init__(self, real, k, m):
        self.chain, self.steps = real(k, m), 0

    def __iter__(self):
        return self

    def __next__(self):
        self.steps += 1
        return next(self.chain)


@pytest.mark.parametrize("name", ["GF(2)", "GF(3)", "GF(4)", "GF(727)", "GF(4)[Z]/(m)"])
def test_ben_or_test_stops_at_the_first_common_factor(name, monkeypatch):
    # at most n // 2 steps, all of them on an irreducible input; one step
    # when f has a root, two on a product of two irreducible quadratics
    k, rng = _rabin_chain_field(name), random.Random(("ben-or-steps", name).__repr__())
    pays = list(k.enumerate_payloads())
    # GF(2) has one irreducible quadratic
    quadratics = (fields.monic_irreducibles(k, 2, 2) * 2)[:2]
    cases = [(f, None) for n in range(1, 10) for f in _rabin_chain_inputs(k, n, rng)]
    for n in range(2, 8):
        root = (rng.choice(pays), k.one)
        cofactor = tuple(rng.choice(pays) for _ in range(n - 1)) + (k.one,)
        cases.append((rp.mul(k, root, cofactor), 1))
    for g, h in [quadratics, quadratics[:1] * 2]:
        cases.append((rp.mul(k, g, h), 2))
    expected = [_reference_rabin(k, f) for f, _ in cases]
    chains, real = [], rp.frobenius_chain
    monkeypatch.setattr(
        rp, "frobenius_chain", lambda k, m: chains.append(_CountedChain(real, k, m)) or chains[-1]
    )
    for (f, steps), irreducible in zip(cases, expected):
        chains.clear()
        assert ben_or_irreducible(k, f) == irreducible, (name, f)
        n, (chain,) = len(f) - 1, chains
        assert chain.steps <= n // 2, (name, f, chain.steps)
        if irreducible:
            assert chain.steps == n // 2, (name, f)
        if steps is not None:
            assert not irreducible and chain.steps == steps, (name, f, chain.steps)
    assert sum(expected) >= 10 and len(expected) - sum(expected) >= 10


@pytest.mark.parametrize("name", ["GF(2)", "GF(3)", "GF(727)"])
def test_rabin_test_over_gf_p_stays_on_ints(name, refuse_prime_ringops, monkeypatch):
    # the gcds at d <= n/2 and their subtractions run in _ringops.PrimeRing,
    # on reducible inputs that only one gcd shows and on irreducible ones
    k, rng = make_field(name), random.Random(("prime-rabin", name).__repr__())
    cases = [
        (f, _reference_rabin(k, f)) for n in range(4, 10) for f in _rabin_chain_inputs(k, n, rng)
    ]
    gcds, real_gcd = [], rp.PolyRing.gcd
    monkeypatch.setattr(
        rp.PolyRing, "gcd", lambda ring, a, b: gcds.append(type(ring)) or real_gcd(ring, a, b)
    )
    refuse_prime_ringops()
    for f, expected in cases:
        assert ben_or_irreducible(k, f) == expected, (name, f)
    verdicts = collections.Counter(expected for _, expected in cases)
    assert verdicts[True] >= 6 and verdicts[False] >= 6, verdicts
    assert gcds and set(gcds) == {rp.PrimeRing}


@pytest.mark.parametrize(
    "spec, divisor, cofactor",
    [("GF(2)", "X^9+X^4+1", "X^5+X^2+1"), ("GF(727)", "X^4-X-5", "X^7+3*X+11")],
)
def test_frobenius_chain_send_over_gf_p_stays_on_ints(spec, divisor, cofactor, refuse_prime_ringops):
    # the reductions of h_1 and h_i mod a sent m' run in _ringops.PrimeRing
    k = make_field(spec)
    m2 = Poly.from_string(k, divisor).raw
    m = rp.mul(k, m2, Poly.from_string(k, cofactor).raw)
    x = (k.zero, k.one)
    expected = [rp.pow_mod(k, x, k.order**i, m) for i in (1, 2, 3)]
    expected += [rp.pow_mod(k, x, k.order**i, m2) for i in range(4, 10)]
    refuse_prime_ringops()
    chain = rp.frobenius_chain(k, m)
    got = [next(chain) for _ in range(3)] + [chain.send(m2)] + [next(chain) for _ in range(5)]
    assert got == expected, spec


def test_frobenius_chain_steps_by_the_cheaper_method(monkeypatch):
    # each element is x^(q^i) mod f; square-and-multiply runs for h_1 and
    # for each step where the q-th power needs fewer products than Horner's
    # composition with h_1 (deg h_i of them)
    real, exponents = rp.square_and_multiply, []

    def counting(a, n, times):
        exponents.append(n)
        return real(a, n, times)

    monkeypatch.setattr(rp, "square_and_multiply", counting)
    cases = [
        ("GF(729)", "X^2-X-t", [729]),  # compose: deg h <= 1 < 14 products
        ("GF(727)", "X^3-X-5", [727]),  # compose: deg h <= 2 < 15
        ("GF(2)", "X^9+X^4+1", [2] * 6),  # power: 1 squaring < deg h
        ("GF(9)", "X^4+X+t", [9]),  # compose: deg h <= 3 < 4 products
    ]
    for spec, text, steps in cases:
        k = make_field(spec)
        f = Poly.from_string(k, text).raw
        chain = rp.frobenius_chain(k, f)
        exponents.clear()
        got = [next(chain) for _ in range(6)]
        assert exponents == steps, spec
        assert got == [rp.pow_mod(k, (k.zero, k.one), k.order**i, f) for i in range(1, 7)]


def test_frobenius_chain_goes_on_modulo_a_sent_divisor(monkeypatch):
    # after send(m') every element is x^(q^i) mod m', and every product mod
    # m' takes operands already reduced mod m' (h_1 and h_i included); the
    # step after the send is the power over GF(2), the composition with h_1
    # over GF(729) and GF(727)
    real_power, exponents = rp.square_and_multiply, []
    monkeypatch.setattr(
        rp, "square_and_multiply", lambda a, n, times: exponents.append(n) or real_power(a, n, times)
    )
    products = []

    def checked_mulmod(real):
        def mulmod(ring, m):
            times = real(ring, m)

            def checked(a, b):
                assert len(a) <= len(m) - 1 and len(b) <= len(m) - 1, (a, b, m)
                products.append(type(ring))
                return times(a, b)

            return checked

        return mulmod

    # the product mod m of every ring, the inline GF(p) one included
    for ring_class in (rp.PolyRing, rp.PrimeRing):
        monkeypatch.setattr(ring_class, "mulmod", checked_mulmod(ring_class.mulmod))
    cases = [
        ("GF(2)", "X^9+X^4+1", "X^5+X^2+1", [2]),
        ("GF(729)", "X^5-X-t", "X^6+t*X^2+1", []),
        ("GF(727)", "X^4-X-5", "X^7+3*X+11", []),
    ]
    for spec, divisor, cofactor, steps in cases:
        k = make_field(spec)
        m2 = Poly.from_string(k, divisor).raw
        m = rp.mul(k, m2, Poly.from_string(k, cofactor).raw)
        x = (k.zero, k.one)
        chain = rp.frobenius_chain(k, m)
        assert [next(chain) for _ in range(3)] == [rp.pow_mod(k, x, k.order**i, m) for i in (1, 2, 3)]
        exponents.clear()
        got = [chain.send(m2)] + [next(chain) for _ in range(5)]
        assert exponents == steps * 6, spec
        assert got == [rp.pow_mod(k, x, k.order**i, m2) for i in range(4, 10)], spec
    assert set(products) == {rp.PolyRing, rp.PrimeRing}


@pytest.mark.parametrize("spec", ["GF(729)", "GF(727)"])
def test_monic_irreducibles_skips_zero_constants_at_once(spec):
    # the q^7 tails with constant term zero come first at degree 8; they are
    # skipped, not stepped through (over GF(729) that took beyond 20 s)
    k, result = make_field(spec), []
    fields._irreducible_cache.pop((k, 8), None)
    worker = threading.Thread(
        target=lambda: result.append(fields.monic_irreducibles(k, 8, 1)), daemon=True
    )
    worker.start()
    worker.join(5.0)
    assert not worker.is_alive() and result, spec
    ((f,),) = result
    assert len(f) == 9 and f[0] != k.zero and ben_or_irreducible(k, f)


def test_monic_irreducibles_skipping_constant_zero_matches_full_scan():
    # the reference scans every tail, constant term zero included
    def full_scan(k, degree, count):
        out = []
        for tail in itertools.product(k.enumerate_payloads(), repeat=degree):
            cand = tuple(tail) + (k.one,)
            if ben_or_irreducible(k, cand):
                out.append(cand)
                if len(out) == count:
                    break
        return out

    for spec, max_degree in (("GF(2)", 8), ("GF(3)", 5), ("GF(5)", 3)):
        k = make_field(spec)
        for d in range(1, max_degree + 1):
            for count in (1, 3):
                # drop the cached list so that the enumeration itself runs
                fields._irreducible_cache.pop((k, d), None)
                assert fields.monic_irreducibles(k, d, count) == full_scan(k, d, count), (
                    spec, d, count,
                )


@pytest.mark.parametrize("spec", ["GF(4)", "GF(8)", "GF(16)"])
def test_degree_8_family_over_gf_2_power_has_no_irreducible(spec):
    # X^8 + a X^7 + b X^6 + c reversed is c X^8 + b X^2 + a X + 1, a square
    # or an affine 2-polynomial whose roots Frobenius moves by an element of
    # AGL(3, 2), which has no element of order 8: these are the first q^2
    # candidates of monic_irreducibles at degree 8 for each constant term
    k = make_field(spec)
    pays = list(k.enumerate_payloads())
    zeros = (k.zero,) * 5
    for c in pays[1:]:
        for b, a in itertools.product(pays, repeat=2):
            f = (c,) + zeros + (b, a, k.one)
            assert not ben_or_irreducible(k, f), (spec, f)


def test_first_degree_8_irreducible_over_gf4_comes_after_the_family():
    k = make_field("GF(4)")
    fields._irreducible_cache.pop((k, 8), None)
    (f,) = fields.monic_irreducibles(k, 8, 1)
    assert f[0] == k.one and f[5] != k.zero and ben_or_irreducible(k, f)


@pytest.mark.parametrize(
    "spec, modulus",
    [
        ("GF(2)", "(t^3+t+1)*(t^6+t+1)"),
        ("GF(3)", "(t^2+1)^2"),
        ("GF(3)", "(t^2+1)*(t^3-t+1)"),
        ("GF(5)", "t^2-1"),
    ],
)
def test_log_tables_of_a_reducible_modulus_name_the_instance(spec, modulus):
    # the build is called directly, past ExtensionField's own test and the
    # memoised cache
    k = make_field(spec)
    m = Poly.from_string(k, modulus.replace("t", "X")).raw
    d = len(m) - 1
    with pytest.raises(ConsistencyError, match="log tables: the modulus is not irreducible") as err:
        fields._build_log_tables(k, m)
    assert f"degree {d} over GF({k.order})" in str(err.value)
    assert f"expected {k.order**d - 1}" in str(err.value)


def test_irreducible_cache_under_threads():
    # more threads than cores fill and read the shared cache at once, with a
    # tiny switch interval; each must get the sequential answer and the
    # cache must end up holding the longest list asked for
    k = make_field("GF(3)")
    expected = {c: fields.monic_irreducibles(k, 3, c) for c in (1, 4, 8)}
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            fields._irreducible_cache.clear()
            results = []
            threads = [
                threading.Thread(
                    target=lambda c=c: results.append((c, fields.monic_irreducibles(k, 3, c)))
                )
                for c in (1, 4, 8) * 3
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert sorted(c for c, _ in results) == sorted((1, 4, 8) * 3)
            assert all(res == expected[c] for c, res in results)
            assert fields._irreducible_cache[(k, 3)] == expected[8]
    finally:
        sys.setswitchinterval(old_interval)


def test_default_modulus_lex_smallest_low_degree_first():
    # rebuild the rule independently: scan coefficient vectors (c0, c1, ...)
    # in lexicographic order with c0 compared first, keep the first monic
    # polynomial with no nontrivial monic divisor
    def brute_irreducible(coeffs, p):
        n = len(coeffs) - 1
        for d in range(1, n):
            for tail in itertools.product(range(p), repeat=d):
                div = list(tail) + [1]
                # long division of coeffs by div mod p
                rem = list(coeffs)
                for i in range(n - d, -1, -1):
                    c = rem[i + d] % p
                    if c:
                        for j, dv in enumerate(div):
                            rem[i + j] = (rem[i + j] - c * dv) % p
                if all(v % p == 0 for v in rem):
                    return False
        return True

    for p, n, spec in ((2, 3, "GF(8)"), (3, 2, "GF(9)"), (2, 4, "GF(16)")):
        first = None
        for tail in itertools.product(range(p), repeat=n):
            if brute_irreducible(list(tail) + [1], p):
                first = tuple(tail) + (1,)
                break
        assert make_field(spec).modulus == first


def test_make_field_rational():
    f = make_field("GF(3)(Z)")
    assert f.kind == "rational-function" and f.base.p == 3 and f.order is None
    assert f.spec_string() == "GF(3)(Z)"


def test_make_field_explicit_modulus_roundtrip():
    f = make_field("GF(2^3; mod=t^3+t+1)")
    assert f.modulus == (1, 1, 0, 1)
    assert "mod=" in f.spec_string()
    assert make_field(f.spec_string()) == f


def test_make_field_errors():
    with pytest.raises(InputError):
        make_field("GF(6)")
    with pytest.raises(InputError):
        make_field("GF(1)")
    with pytest.raises(InputError):
        make_field("GF(4; mod=t^2+1)")  # (t+1)^2, reducible
    with pytest.raises(InputError):
        make_field("GF(4; mod=t^3+t+1)")  # wrong degree
    with pytest.raises(InputError):
        make_field("gf(4)")
    with pytest.raises(CapExceededError):
        make_field("GF(2^10)")


def test_descriptor_structural_equality():
    assert make_field("GF(4)") == make_field("GF(2^2)")
    assert make_field("GF(4)") != make_field("GF(9)")
    x = make_field("GF(4)").element("t")
    y = make_field("GF(4)").element("t")
    assert x == y and x + y == make_field("GF(2^2)")(0)


# ---------------------------------------------------------------------------
# frobenius

def test_frobenius_fixes_prime_field():
    f2 = make_field("GF(2)")
    for x in enumerate_elements(f2):
        assert frobenius(x) == x


def test_frobenius_on_gf4_generator():
    f4 = make_field("GF(4)")
    t = f4.element("t")
    assert frobenius(t) == f4.element("t+1")
    assert frobenius(f4.element(0)) == f4.element(0)


def test_frobenius_additive_multiplicative_small_fields():
    for spec in ("GF(4)", "GF(8)", "GF(16)", "GF(9)", "GF(27)", "GF(81)"):
        field = make_field(spec)
        elems = enumerate_elements(field)
        for x in elems:
            for y in elems:
                assert frobenius(x + y) == frobenius(x) + frobenius(y)
                assert frobenius(x * y) == frobenius(x) * frobenius(y)


def test_frobenius_rejects_rational_function_field():
    with pytest.raises(InputError):
        frobenius(make_field("GF(2)(Z)").element("Z"))


# ---------------------------------------------------------------------------
# enumeration

def test_enumerate_elements_examples():
    assert [str(x) for x in enumerate_elements(make_field("GF(2)"))] == ["0", "1"]
    assert [str(x) for x in enumerate_elements(make_field("GF(4)"))] == ["0", "1", "t", "t+1"]
    assert [str(x) for x in enumerate_elements(make_field("GF(3)"))] == ["0", "1", "2"]


def test_enumerate_elements_rejects_infinite():
    with pytest.raises(InputError):
        enumerate_elements(make_field("GF(2)(Z)"))


# ---------------------------------------------------------------------------
# axioms and arithmetic

FIELDS_FOR_AXIOMS = ("GF(5)", "GF(9)", "GF(27)", "GF(2)(Z)", "GF(4)(Z)", "GF(3)(Z)")


def test_field_axioms_on_seeded_triples():
    rng = random.Random(20240817)
    for spec in FIELDS_FOR_AXIOMS:
        field = make_field(spec)
        for _ in range(25):
            x, y, z = (field.element(field.random_payload(rng)) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x + (-x) == field(0)
            if y != field(0):
                assert y * (1 / y) == field(1)
                assert (x / y) * y == x


def test_fraction_canonical_form_after_ops():
    rng = random.Random(99)
    field = make_field("GF(3)(Z)")
    base = field.base
    for _ in range(200):
        x = field.element(field.random_payload(rng))
        y = field.element(field.random_payload(rng))
        for v in (x + y, x * y, x - y) + ((x / y,) if y != field(0) else ()):
            num, den = v.payload
            assert den[-1] == base.one  # monic denominator
            if num:
                assert rp.gcd(base, num, den) == (base.one,)
            else:
                assert den == (base.one,)


def _canon_by_gcd(field, num, den):
    """RationalFunctionField._canon's general body: divide out the gcd,
    then make the denominator monic."""
    k = field.base
    if not num:
        return ((), (k.one,))
    g = rp.gcd(k, num, den)
    if len(g) > 1:
        num = rp.divmod_(k, num, g)[0]
        den = rp.divmod_(k, den, g)[0]
    lead = den[-1]
    if lead != k.one:
        c = k.inv(lead)
        num = rp.scale(k, num, c)
        den = rp.scale(k, den, c)
    return (num, den)


@pytest.mark.parametrize("spec", ["GF(2)", "GF(3)", "GF(4)", "GF(7)", "GF(9)", "GF(727)"])
def test_linear_denominators_canonicalise_as_the_gcd_does(spec):
    # one Horner pass at the root of d1 * Z + d0 replaces Euclid's gcd;
    # d1 runs over every unit, so most denominators are not monic, and a
    # third of the numerators are multiples of the denominator
    field = make_field(spec + "(Z)")
    k = field.base
    rng = random.Random(spec)
    units = [u for u in k.enumerate_payloads() if u != k.zero]
    cases = 0
    for _ in range(600):
        den = (k.random_payload(rng), rng.choice(units))
        kind = rng.randrange(3)
        if kind == 0:
            quotient = rp.trim(k, tuple(k.random_payload(rng) for _ in range(rng.randrange(4))))
            num = rp.mul(k, quotient, den)
        elif kind == 1:
            num = rp.trim(k, (k.random_payload(rng),))  # zero or a constant
        else:
            num = rp.trim(k, tuple(k.random_payload(rng) for _ in range(rng.randrange(1, 6))))
        got = field._canon(num, den)
        assert got == _canon_by_gcd(field, num, den), (num, den)
        cases += bool(num) and rp.divmod_(k, num, den)[1] == ()
    assert cases >= 100  # the divisible path is exercised


@pytest.mark.parametrize("spec", ["GF(2)", "GF(3)", "GF(4)", "GF(7)", "GF(9)", "GF(727)"])
def test_fraction_arithmetic_matches_the_gcd_route(spec):
    # add, sub, mul and inv skip the gcd where lowest terms are known (a
    # polynomial summand, cross-cancelled factors, an inverted pair, a
    # constant numerator); each must give the pair the gcd route gives
    field = make_field(spec + "(Z)")
    k = field.base
    rng = random.Random(spec + "ops")

    def draw():
        num = rp.trim(k, tuple(k.random_payload(rng) for _ in range(rng.randrange(5))))
        den = ()
        while not den:
            den = rp.trim(k, tuple(k.random_payload(rng) for _ in range(rng.randrange(1, 5))))
        return _canon_by_gcd(field, num, den)

    for _ in range(300):
        (an, ad), (bn, bd) = a, b = draw(), draw()
        cross = (rp.mul(k, an, bd), rp.mul(k, bn, ad))
        assert field.add(a, b) == _canon_by_gcd(field, rp.add(k, *cross), rp.mul(k, ad, bd))
        assert field.sub(a, b) == _canon_by_gcd(field, rp.sub(k, *cross), rp.mul(k, ad, bd))
        assert field.mul(a, b) == _canon_by_gcd(field, rp.mul(k, an, bn), rp.mul(k, ad, bd))
        if an:
            assert field.inv(a) == _canon_by_gcd(field, ad, an)


@pytest.mark.parametrize("spec", ["GF(2)(Z)", "GF(3)(Z)", "GF(9)(Z)"])
def test_a_sum_with_a_polynomial_keeps_the_denominator_without_a_gcd(spec, monkeypatch):
    field = make_field(spec)
    k = field.base
    rng = random.Random(spec)
    pairs = []
    while len(pairs) < 150:
        num = rp.trim(k, tuple(k.random_payload(rng) for _ in range(rng.randrange(1, 5))))
        den = rp.trim(k, tuple(k.random_payload(rng) for _ in range(rng.randrange(3, 5))))
        poly = rp.trim(k, tuple(k.random_payload(rng) for _ in range(rng.randrange(4))))
        a = _canon_by_gcd(field, num, den) if num and den else None
        if a is not None and len(a[1]) > 1:
            pairs.append((a, (poly, (k.one,))))
    expected = [
        (_canon_by_gcd(field, rp.add(k, a[0], rp.mul(k, b[0], a[1])), a[1]),
         _canon_by_gcd(field, rp.sub(k, rp.mul(k, b[0], a[1]), a[0]), a[1]))
        for a, b in pairs
    ]
    monkeypatch.setattr(rp, "gcd", lambda *args: pytest.fail("gcd in a sum with a polynomial"))
    assert [(field.add(a, b), field.sub(b, a)) for a, b in pairs] == expected


def test_random_payload_denominators_are_at_most_linear(monkeypatch):
    # so no draw of the eigenvector sweep runs a gcd
    monkeypatch.setattr(rp, "gcd", lambda *args: pytest.fail("gcd in random_payload"))
    rng = random.Random(5)
    for spec in ("GF(2)(Z)", "GF(3)(Z)", "GF(9)(Z)"):
        field = make_field(spec)
        for _ in range(300):
            num, den = field.random_payload(rng)
            assert len(den) <= 2 and den[-1] == field.base.one


def test_element_parse_print_roundtrip():
    rng = random.Random(7)
    for spec in ("GF(7)", "GF(9)", "GF(16)", "GF(2)(Z)", "GF(9)(Z)"):
        field = make_field(spec)
        for _ in range(40):
            x = field.element(field.random_payload(rng))
            assert field.element(str(x)) == x


def test_trailing_whitespace_is_read_as_the_stripped_input():
    # the tokenizer stops at trailing whitespace, in every parse path
    f3 = make_field("GF(3)")
    assert Poly.from_string(f3, "X^2+1  ") == Poly.from_string(f3, "X^2+1")
    f4 = make_field("GF(4)")
    assert f4.parse_element("t+1 ") == f4.parse_element("t+1")
    assert make_field("GF(2^3; mod=t^3+t+1 )") == make_field("GF(2^3; mod=t^3+t+1)")


def test_division_by_zero():
    f = make_field("GF(9)")
    with pytest.raises(ZeroDivisionError):
        f.element(1) / f.element(0)


def test_elements_of_different_fields_do_not_mix():
    with pytest.raises(InputError):
        make_field("GF(4)").element(1) + make_field("GF(9)").element(1)


def test_bool_is_not_a_field_element():
    for spec, payload in (("GF(2)", True), ("GF(4)", (True, False)), ("GF(2)(Z)", ((True,), (1,)))):
        k = make_field(spec)
        with pytest.raises(InputError):
            k.element(True)
        with pytest.raises(InputError):
            k.payload_of(payload)
    f2 = make_field("GF(2)")
    with pytest.raises(InputError):
        f2.element(1) + True
    # an element or polynomial equals no bool (nor int), and comparing
    # never raises
    assert f2.element(1) != True and not f2.element(1) == True  # noqa: E712
    assert Poly.one(f2) != True and Poly.zero(f2) != False  # noqa: E712


# ---------------------------------------------------------------------------
# p-th powers of coefficients

def test_is_pth_power_coeffs_over_perfect_fields():
    f2 = make_field("GF(2)")
    assert is_pth_power_coeffs(Poly.from_string(f2, "Z", var="Z"))
    f4 = make_field("GF(4)")
    assert is_pth_power_coeffs(Poly.from_string(f4, "t*Z+1", var="Z"))
    assert is_pth_power_coeffs(Poly.zero(f2))


def test_is_pth_power_coeffs_rejects_rational_coefficients():
    with pytest.raises(InputError):
        is_pth_power_coeffs(Poly.from_string(make_field("GF(2)(Z)"), "X"))


# ---------------------------------------------------------------------------
# subfield embeddings

def test_embed_prime_into_extension():
    f2, f16 = make_field("GF(2)"), make_field("GF(16)")
    emb = embed_subfield(f2, f16)
    assert emb(f2.element(1)) == f16.element(1)


def test_embed_gf4_into_gf16_is_a_ring_hom():
    f4, f16 = make_field("GF(4)"), make_field("GF(16)")
    emb = embed_subfield(f4, f16)
    for x in enumerate_elements(f4):
        for y in enumerate_elements(f4):
            assert emb(x + y) == emb(x) + emb(y)
            assert emb(x * y) == emb(x) * emb(y)
    # the image of t satisfies the small modulus t^2 + t + 1
    im = emb(f4.element("t"))
    assert im * im + im + 1 == f16(0)


def test_embed_cache_is_stable():
    f4, f16 = make_field("GF(4)"), make_field("GF(16)")
    e1 = embed_subfield(f4, f16)
    e2 = embed_subfield(f4, f16)
    t = f4.element("t")
    assert e1(t) == e2(t)


def test_embedding_cache_under_threads():
    # threads that embed GF(9) into an uncached GF(729) at once all get the
    # one cached table
    f9, f729 = make_field("GF(9)"), make_field("GF(729)")
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            fields._embedding_cache.clear()
            results = []
            threads = [
                threading.Thread(target=lambda: results.append(fields._embedding(f9, f729)))
                for _ in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert len(results) == 6
            assert all(table is fields._embedding_cache[(f9, f729)] for table in results)
    finally:
        sys.setswitchinterval(old_interval)


def test_embed_rejects_non_divisible_degrees():
    with pytest.raises(InputError):
        embed_subfield(make_field("GF(4)"), make_field("GF(8)"))


@pytest.mark.parametrize("spec", ["GF(2)(Z)", "GF(9)(Z)"])
def test_embed_refuses_a_rational_function_field_into_itself(spec):
    # K(Z) is no finite field, so it has no subfield embedding, itself
    # included: embed_subfield has no shortcut for small == big
    field = make_field(spec)
    with pytest.raises(InputError, match="finite fields only"):
        embed_subfield(field, field)


# ---------------------------------------------------------------------------
# log/Zech tables against the polynomial reference

def _extension_specs():
    specs = []
    for p in range(2, 30):
        if fields.is_prime(p):
            n = 2
            while p**n <= fields.MAX_FIELD_SIZE:
                specs.append(f"GF({p}^{n})")
                n += 1
    # non-default moduli: the default for GF(8) is t^3+t+1, for GF(9) t^2+1
    return specs + ["GF(2^3; mod=t^3+t^2+1)", "GF(3^2; mod=t^2+t+2)"]


class _Reference:
    """Field operations of k[T]/(m) straight from _ringops, on raw (trimmed)
    polynomials, returning payloads in the tabulated form: coefficient
    tuples of length width = deg m."""

    def __init__(self, k, modulus, width):
        self.k, self.m, self.width = k, modulus, width

    def raw(self, a):
        return rp.trim(self.k, a)

    def payload(self, raw):
        return tuple(raw) + (self.k.zero,) * (self.width - len(raw))

    def add(self, a, b):
        return self.payload(rp.add(self.k, self.raw(a), self.raw(b)))

    def sub(self, a, b):
        return self.payload(rp.sub(self.k, self.raw(a), self.raw(b)))

    def neg(self, a):
        return self.payload(rp.neg(self.k, self.raw(a)))

    def mul(self, a, b):
        return self.payload(rp.rem(self.k, rp.mul(self.k, self.raw(a), self.raw(b)), self.m))

    def inv(self, a):
        g, s, _ = rp.xgcd(self.k, self.raw(a), self.m)
        assert g == (self.k.one,)
        return self.payload(s)

    def pow_int(self, a, n):
        # square-and-multiply on this class's own mul, not rp.pow_mod, so the
        # reference does not share the GF(p) power kernel it checks
        if n < 0:
            a, n = self.inv(a), -n
        result = self.payload((self.k.one,))
        while n:
            if n & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            n >>= 1
        return result


def _check_against_reference(field, ref, pairs, exponents):
    for a, b in pairs:
        assert field.add(a, b) == ref.add(a, b)
        assert field.sub(a, b) == ref.sub(a, b)
        assert field.mul(a, b) == ref.mul(a, b)
        if b != field.zero:
            assert field.div(a, b) == ref.mul(a, ref.inv(b))
    for a in {a for a, _ in pairs}:
        assert field.neg(a) == ref.neg(a)
        for n in exponents:
            if a != field.zero or n >= 0:
                assert field.pow_int(a, n) == ref.pow_int(a, n)
        if a != field.zero:
            assert field.inv(a) == ref.inv(a)


def _pairs(field, rng):
    elems = list(field.enumerate_payloads())
    if len(elems) <= 27:
        return list(itertools.product(elems, repeat=2))
    return [(rng.choice(elems), rng.choice(elems)) for _ in range(40)] + [
        (field.zero, rng.choice(elems)), (rng.choice(elems), field.zero)
    ]


@pytest.mark.parametrize("spec", _extension_specs())
def test_extension_tables_match_polynomial_reference(spec):
    field = make_field(spec)
    ref = _Reference(field.base, field.modulus, field.n)
    rng = random.Random(spec)
    exponents = (-field.order, -3, -1, 0, 1, 2, field.p, field.order - 1, field.order + 5)
    _check_against_reference(field, ref, _pairs(field, rng), exponents)
    q_over_p = field.order // field.p
    for a in rng.sample(list(field.enumerate_payloads()), min(field.order, 20)):
        assert field.frobenius(a) == ref.pow_int(a, field.p)
        assert field.pth_root(a) == ref.pow_int(a, q_over_p)
        assert field.frobenius(field.pth_root(a)) == a


@pytest.mark.parametrize(
    "name",
    ["GF(2)", "GF(3)", "GF(727)", "GF(4)", "GF(8)", "GF(9)", "GF(27)", "GF(625)", "GF(729)",
     "GF(2^3; mod=t^3+t^2+1)", "GF(9)[Z]/d2"],
)
def test_inverse_frobenius_and_pth_root_on_every_element(name):
    for field in _root_scan_fields(name):
        p, one = field.char, field.one
        with pytest.raises(ZeroDivisionError, match="inverse of zero"):
            field.inv(field.zero)
        for a in field.enumerate_payloads():
            fa = field.frobenius(a)
            assert fa == field.pow_int(a, p), a
            assert field.pth_root(fa) == a, a
            if p <= 5:
                # the p-th power as p - 1 products, independent of pow_int
                assert fa == functools.reduce(field.mul, [a] * p), a
            if a != field.zero:
                assert field.mul(a, field.inv(a)) == one, a


def test_table_zero_cases():
    for spec in ("GF(4)", "GF(9)", "GF(729)"):
        field = make_field(spec)
        zero, one = field.zero, field.one
        with pytest.raises(ZeroDivisionError):
            field.inv(zero)
        with pytest.raises(ZeroDivisionError):
            field.pow_int(zero, -1)
        with pytest.raises(ZeroDivisionError):
            field.div(one, zero)
        assert field.pow_int(zero, 0) == one
        assert field.pow_int(zero, 5) == zero
        assert field.mul(zero, one) == zero and field.div(zero, one) == zero
        assert field.add(one, field.neg(one)) == zero
        assert field.sub(one, one) == zero


def test_gf9_generator_search_skips_t():
    # the default modulus t^2 + 1 makes t a fourth root of unity, so the
    # tables must find another generator: t + 1, the next in enumeration order
    field = make_field("GF(9)")
    t = (0, 1)
    assert field.modulus == (1, 0, 1)
    assert field.pow_int(t, 4) == field.one and field.pow_int(t, 2) != field.one
    q1, exp, log, zech, neg = fields._log_tables(field.base, field.modulus)
    assert q1 == 8 and exp[1] == (1, 1)
    assert sorted(exp[:q1]) == sorted(a for a in field.enumerate_payloads() if a != field.zero)
    assert len(exp) == 2 * q1 and len(zech) == 2 * q1 and len(log) == 9
    assert exp[neg] == (2, 0)


@pytest.mark.parametrize("spec", ["GF(3)", "GF(4)", "GF(9)"])
def test_from_int_is_the_base_constant_on_every_tabulated_field(spec):
    from aslab.fields import _TabulatedField

    k = make_field(spec)
    tabulated = [_TabulatedField(k, m) for m in fields.monic_irreducibles(k, 2, 2)]
    if k.kind == "extension":
        tabulated.append(k)
    for f in tabulated:
        d = len(f.zero)
        for i in (-1, 0, 1, k.char, k.char + 1):
            assert f.from_int(i) == (f.base.from_int(i),) + (f.base.zero,) * (d - 1), (f, i)
    if k.kind == "extension":
        # independent of the shared constructor: i mod p in the constant slot
        for i in (-1, 0, 1, k.char, k.char + 1):
            assert k.from_int(i) == (i % k.p,) + (0,) * (k.n - 1)


@pytest.mark.parametrize("p, d", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
def test_quotient_over_a_prime_field_is_set_up_as_the_extension(p, d):
    from aslab.fields import _TabulatedField

    k = make_field(f"GF({p})")
    for m in fields.monic_irreducibles(k, d, 2):
        quot = _TabulatedField(k, m)
        ext = fields.ExtensionField(p, d, m)
        # independent of the shared constructor
        expected = (p**d, p, (0,) * d, (1,) + (0,) * (d - 1))
        assert (quot.order, quot.char, quot.zero, quot.one) == expected
        assert (ext.order, ext.char, ext.zero, ext.one) == expected
        assert list(quot.enumerate_payloads()) == list(ext.enumerate_payloads())


@pytest.mark.parametrize("spec", ["GF(4)", "GF(9)"])
def test_quotient_field_tables_match_polynomial_reference(spec):
    from aslab.fields import _TabulatedField

    k = make_field(spec)
    rng = random.Random(spec)
    for d in (1, 2, 3):
        if k.order**d > fields.MAX_FIELD_SIZE:
            continue
        for m in fields.monic_irreducibles(k, d, 2 if d < 3 else 1):
            quot = _TabulatedField(k, m)
            ref = _Reference(k, m, d)
            exponents = (-quot.order, -2, -1, 0, 1, 3, quot.order)
            _check_against_reference(quot, ref, _pairs(quot, rng), exponents)


def test_log_table_cache_under_threads():
    # threads that build the same field at once must all end up with the one
    # cached table object, equal to a sequential build
    expected = fields._build_log_tables(make_field("GF(3)"), fields.default_modulus(3, 6))
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            fields._table_cache.clear()
            results = []
            threads = [
                threading.Thread(target=lambda: results.append(make_field("GF(729)")))
                for _ in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert len(results) == 6
            assert len(fields._table_cache) == 1
            (cached,) = fields._table_cache.values()
            assert cached == expected
            assert all(f._exp is cached[1] and f._log is cached[2] for f in results)
    finally:
        sys.setswitchinterval(old_interval)


# ---------------------------------------------------------------------------
# one residue enumeration, one subfield embedding, one p-power split


def _reference_residues(k, d):
    """The divmod enumeration that ExtensionField and the oracle's quotient
    fields each used to carry: residue i has the base-|k| digits of i as its
    coefficients, lowest first, all d of them."""
    basepays = list(k.enumerate_payloads())
    for i in range(k.order**d):
        digits = []
        for _ in range(d):
            i, r = divmod(i, k.order)
            digits.append(basepays[r])
        yield tuple(digits)


def test_residue_enumeration_matches_divmod_reference_on_every_extension():
    for spec in _extension_specs():
        field = make_field(spec)
        expected = list(_reference_residues(field.base, field.n))
        assert list(field.enumerate_payloads()) == expected, spec
        assert [x.payload for x in enumerate_elements(field)] == expected, spec


def test_residue_enumeration_matches_divmod_reference_on_quotient_fields():
    from aslab.fields import _TabulatedField

    for spec in ("GF(2)", "GF(3)", "GF(4)", "GF(5)", "GF(7)", "GF(8)", "GF(9)"):
        k = make_field(spec)
        for d in (1, 2, 3):
            if k.order**d > fields.MAX_FIELD_SIZE:
                continue
            for m in fields.monic_irreducibles(k, d, 2):
                quot = _TabulatedField(k, m)
                expected = list(_reference_residues(k, d))
                assert list(quot.enumerate_payloads()) == expected, (spec, m)


def _reference_root_embedding(small, big):
    """The first-root search and Horner map of embed_subfield, without its
    shortcut for a field into itself.  GF(p) is read as GF(p)[t]/(t)."""
    modulus = tuple(big.from_int(c) for c in getattr(small, "modulus", (0, 1)))
    root = next(
        c for c in big.enumerate_payloads() if rp.evaluate(big, modulus, c) == big.zero
    )
    powers = [big.one]
    for _ in range(small.n - 1):
        powers.append(big.mul(powers[-1], root))

    def embed(x):
        acc = big.zero
        coeffs = x.payload if small.kind == "extension" else (x.payload,)
        for c, w in zip(coeffs, powers):
            acc = big.add(acc, big.mul(big.from_int(c), w))
        return acc

    return embed


def test_embedding_table_matches_the_root_search_on_every_pair():
    primes = [p for p in range(2, fields.MAX_FIELD_SIZE + 1) if fields.is_prime(p)]
    finite = [make_field(spec) for spec in [f"GF({p})" for p in primes] + _extension_specs()]
    pairs = 0
    for small in finite:
        for big in finite:
            if small.char != big.char or big.n % small.n:
                continue
            reference = _reference_root_embedding(small, big)
            expected = {x.payload: reference(x) for x in enumerate_elements(small)}
            assert fields._embedding(small, big) == expected, (small, big)
            kz = fields.RationalFunctionField(big)
            constants = {c: kz.constant(u).payload for c, u in expected.items()}
            assert fields._embedding(small, kz) == constants, (small, kz)
            pairs += 1
    # GF(p) into itself for the 129 primes p <= 729; the m | n pairs into
    # each GF(p^n), n >= 2: 22 for p = 2, 13 for 3, 7 for 5, 4 for 7 and 2
    # for each of 11..23; each custom GF(8) and GF(9) from GF(p), itself
    # and the default field of its order, and into that field and the two
    # larger ones (GF(64) and GF(512), GF(81) and GF(729))
    assert pairs == 129 + 22 + 13 + 7 + 4 + 5 * 2 + 6 + 6


def test_embedding_of_a_field_into_itself_is_the_root_search_identity():
    # t is the first root of its own modulus in enumeration order
    for spec in _extension_specs():
        field = make_field(spec)
        embed = embed_subfield(field, field)
        reference = _reference_root_embedding(field, field)
        for x in enumerate_elements(field):
            assert embed(x) == x and reference(x) == x.payload, (spec, x)


def _reference_constant_embedding(ambient, field):
    """dickson._constant_embedding, which embed_subfield replaced: a finite
    field into its own K(Z), or into a K(Z) over an extension of it."""
    if field == ambient:
        return lambda x: x
    if field.kind == "rational-function":
        if field.base == ambient:
            return field.constant
        if field.base.char == ambient.char and field.base.n % ambient.n == 0:
            emb = embed_subfield(ambient, field.base)
            return lambda x: field.constant(emb(x))
        raise InputError("subspace field does not embed in the coefficient field")
    return embed_subfield(ambient, field)


@pytest.mark.parametrize(
    "small, big",
    [
        ("GF(4)", "GF(4)(Z)"),
        ("GF(4)", "GF(16)(Z)"),
        ("GF(2)", "GF(8)(Z)"),
        ("GF(2^3; mod=t^3+t^2+1)", "GF(2^3; mod=t^3+t^2+1)(Z)"),
        ("GF(9)", "GF(729)(Z)"),
        ("GF(4)", "GF(16)"),
    ],
)
def test_embed_subfield_matches_the_constant_embedding(small, big):
    small, big = make_field(small), make_field(big)
    embed = embed_subfield(small, big)
    reference = _reference_constant_embedding(small, big)
    for x in enumerate_elements(small):
        assert embed(x) == reference(x)
        assert embed(x).field == big


def test_embed_subfield_reads_its_argument_as_the_small_field_does():
    f4, f16, f4z = make_field("GF(4)"), make_field("GF(16)"), make_field("GF(4)(Z)")
    t16 = embed_subfield(f4, f16)(f4.gen())
    for big, t_image in ((f16, t16), (f4z, f4z.constant(f4.gen()))):
        embed = embed_subfield(f4, big)
        # (5, 7) is no GF(4) payload: no corrupt element, no wrong image
        with pytest.raises(InputError, match="invalid GF\\(2\\^2\\) payload"):
            embed((5, 7))
        assert embed(7) == big.one_element()
        assert embed("t") == t_image == embed((0, 1))
        with pytest.raises(InputError, match="does not belong to the small field"):
            embed(f16.gen())
        with pytest.raises(InputError):
            embed(1.5)


def test_embed_into_a_rational_function_field_checks_the_base():
    with pytest.raises(InputError):
        embed_subfield(make_field("GF(8)"), make_field("GF(4)(Z)"))
    with pytest.raises(InputError):
        embed_subfield(make_field("GF(4)(Z)"), make_field("GF(16)(Z)"))


def test_p_power_split_matches_brute_force():
    for p in (2, 3, 5, 7):
        for n in range(1, 5001):
            s = max(j for j in range(13) if n % p**j == 0)
            assert fields.p_power_split(n, p) == (s, n // p**s), (n, p)


def test_prime_power_of_field_orders():
    powers = {p**n: (p, n) for p in range(2, 5001) if fields.is_prime(p) for n in range(1, 13)}
    for q in range(2, 5001):
        if q in powers:
            assert fields._prime_power(q) == powers[q]
        else:
            with pytest.raises(InputError, match="not a prime power"):
                fields._prime_power(q)


def _brute_force_prime(n):
    return n >= 2 and all(n % f for f in range(2, n))


def test_one_trial_division_matches_brute_force():
    # is_prime and _prime_power both read fields._least_divisor
    for n in range(-2, 3000):
        assert fields.is_prime(n) == _brute_force_prime(n), n
    for n in range(2, 3000):
        assert fields._least_divisor(n) == next(f for f in range(2, n + 1) if n % f == 0), n
    primes = [p for p in range(3000) if _brute_force_prime(p)]
    powers = {p**n: (p, n) for p in primes for n in range(1, 12) if p**n < 3000}
    for q in range(2, 3000):
        if q in powers:
            assert fields._prime_power(q) == powers[q], q
        else:
            with pytest.raises(InputError, match="^field order is not a prime power$"):
                fields._prime_power(q)
    for q in (-2, -1, 0, 1):
        with pytest.raises(InputError, match=f"^{q} is not a prime power$"):
            fields._prime_power(q)


def test_minus_in_a_modulus():
    field = make_field("GF(3^2; mod=t^2-t-1)")
    assert field.modulus == (2, 2, 1)
    assert field.spec_string() == "GF(3^2; mod=t^2+2*t+2)"
    assert make_field("GF(3^2; mod=-2*t^2-t-1)") == field


def test_p_power_split_rejects_n_below_1_and_p_below_2():
    # both used to loop forever
    for n, p in ((0, 2), (-3, 2), (5, 1), (5, 0), (0, 1)):
        with pytest.raises(InputError, match="n >= 1 and p >= 2"):
            fields.p_power_split(n, p)


def test_power_exceeds_matches_the_power():
    for p in (2, 3, 5, 7, 10**18 + 3):
        for n in range(0, 40):
            for bound in (-5, 0, 1, 2, 11, 12, 729, 730, 65536):
                assert fields.power_exceeds(p, n, bound) == (p**n > bound), (p, n, bound)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: make_field("GF(1000000007)"), "field size 1000000007 exceeds cap 729"),
        (lambda: make_field("GF(1000000000000000003^2)"),
         "field size 1000000000000000003^2 exceeds cap 729"),
        (lambda: make_field("GF(3^100000000)"), "field size 3^100000000 exceeds cap 729"),
        (lambda: make_field("GF(2^1000000000000)(Z)"), "field size 2^1000000000000 exceeds cap"),
        (lambda: fields.PrimeField(10**18 + 3), "field size 1000000000000000003 exceeds cap"),
        (lambda: fields.ExtensionField(3, 10**8), "field size 3^100000000 exceeds cap"),
        (lambda: make_field("GF(1024)"), "field size 1024 exceeds cap 729"),
    ],
    ids=["prime-1e9", "huge-prime-squared", "3-to-the-1e8", "kz-huge-n", "prime-field",
         "extension-field", "gf-1024"],
)
def test_field_size_cap_comes_before_primality_and_divisor_search(build, message):
    t0 = time.perf_counter()
    with pytest.raises(CapExceededError, match=message.replace("^", r"\^")):
        build()
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize(
    "spec, message",
    [
        ("GF(4^2)", "4 is not prime"),
        ("GF(1^5)", "1 is not prime"),
        ("GF(0^3)", "0 is not prime"),
        ("GF(0)", "0 is not a prime power"),
        ("GF(1)", "1 is not a prime power"),
        ("GF(6)", "not a prime power"),
        ("GF(2^0)", "extension degree must be at least 2"),
        ("GF(4^1; mod=t)", "4 is not prime"),
    ],
)
def test_small_bad_specs_keep_their_messages(spec, message):
    with pytest.raises(InputError, match=message.replace("^", r"\^")) as info:
        make_field(spec)
    assert not isinstance(info.value, CapExceededError)


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_field("GF(1000000000000000003^0)"),
        lambda: make_field("GF(1000000000000000003^0)(Z)"),
        lambda: fields.ExtensionField(10**18 + 3, 0),
    ],
    ids=["spec", "kz-spec", "extension-field"],
)
def test_degree_zero_is_refused_before_the_primality_test(build):
    # trial division of this prime up to its square root never ends
    t0 = time.perf_counter()
    with pytest.raises(InputError, match="extension degree must be at least 2") as info:
        build()
    assert not isinstance(info.value, CapExceededError)
    assert time.perf_counter() - t0 < 1.0


def test_embed_subfield_takes_the_first_of_the_raw_roots():
    for small, big in (("GF(4)", "GF(16)"), ("GF(8)", "GF(64)"), ("GF(9)", "GF(729)")):
        small, big = make_field(small), make_field(big)
        modulus = tuple(big.from_int(c) for c in small.modulus)
        roots = fields._raw_roots(big, modulus)
        # the modulus splits into distinct linear factors over the big field
        assert len(roots) == small.n and all(rp.evaluate(big, modulus, a) == big.zero for a in roots)
        assert embed_subfield(small, big)(small.gen()).payload == roots[0]


# ---------------------------------------------------------------------------
# one power per field kind, one modulus parser, one p-th-root test, and
# the value contract


def _square_and_multiply(field, a, n):
    """The generic power every field kind without its own pow_int used to
    inherit, on mul and inv only."""
    if n < 0:
        a, n = field.inv(a), -n
    result = field.one
    while n:
        if n & 1:
            result = field.mul(result, a)
        a = field.mul(a, a)
        n >>= 1
    return result


@pytest.mark.parametrize(
    "spec", ["GF(2)", "GF(3)", "GF(5)", "GF(7)", "GF(2)(Z)", "GF(9)(Z)"]
)
def test_pow_int_matches_square_and_multiply(spec):
    field = make_field(spec)
    rng = random.Random(spec)
    values = [field.zero, field.one] + [field.random_payload(rng) for _ in range(12)]
    for a in values:
        for n in range(-6, 13):
            if a == field.zero and n < 0:
                with pytest.raises(ZeroDivisionError):
                    field.pow_int(a, n)
                continue
            got = field.pow_int(a, n)
            assert got == _square_and_multiply(field, a, n), (a, n)
            # canonical without a gcd of its own: validate_payload checks
            assert field.validate_payload(got) == got
    assert field.pow_int(field.zero, 0) == field.one


class _ModulusPoly:
    """The polynomial value that make_field used to parse a modulus with:
    its own add, sub, mul, neg and power over GF(p), refusing '/'."""

    __slots__ = ("coeffs", "k")

    def __init__(self, coeffs, k):
        self.coeffs = rp.trim(k, coeffs)
        self.k = k

    def __add__(self, other):
        return _ModulusPoly(rp.add(self.k, self.coeffs, other.coeffs), self.k)

    def __sub__(self, other):
        return _ModulusPoly(rp.sub(self.k, self.coeffs, other.coeffs), self.k)

    def __mul__(self, other):
        return _ModulusPoly(rp.mul(self.k, self.coeffs, other.coeffs), self.k)

    def __neg__(self):
        return _ModulusPoly(rp.neg(self.k, self.coeffs), self.k)

    def __truediv__(self, other):
        raise InputError("a modulus cannot contain '/'")

    def __pow__(self, n):
        return _ModulusPoly(rp.power(self.k, self.coeffs, n), self.k)


def _reference_modulus(p, text):
    k = make_field(f"GF({p})")
    return parse_expression(
        text,
        {"t": _ModulusPoly((k.zero, k.one), k)},
        lambda i: _ModulusPoly((i % p,) if i % p else (), k),
    ).coeffs


def test_modulus_parse_matches_the_reference_on_every_default_modulus():
    for spec in _extension_specs():
        default = make_field(spec)
        text = fields._raw_poly_str(default.base, default.modulus, "t")
        field = make_field(f"GF({default.p}^{default.n}; mod={text})")
        assert field.modulus == _reference_modulus(default.p, text) == default.modulus, spec
        assert field == default


@pytest.mark.parametrize(
    "p, n, text",
    [
        (2, 3, "t^3+t^2+1"),
        (3, 2, "t^2-t-1"),
        (5, 2, "t^2-2"),
        (7, 2, "t^2 - 3"),
        (5, 2, "-3+t^2"),
        (3, 2, "t^2+2t+2"),
        (2, 4, "t t^3+t+1"),
        (3, 3, "t^3 - t - 1 + 3t^2 + 2t^0 - 2"),
        (2, 3, "1t^3+t^2t^0+3"),
        (3, 2, "t^2 + 4"),
        (7, 2, "t^2+7t+4"),
    ],
)
def test_custom_modulus_parse_matches_the_reference(p, n, text):
    expected = _reference_modulus(p, text)
    assert make_field(f"GF({p}^{n}; mod={text})").modulus == expected


def test_modulus_refuses_division_with_the_same_message():
    # _FIELD_RE admits no ')' in a modulus, so every '/' here is unparenthesised
    for text in ("t^2+t+1/t", "t^2/1+t+1", "t^2+t+1/0"):
        with pytest.raises(InputError, match="a modulus cannot contain '/'"):
            _reference_modulus(2, text)
        with pytest.raises(InputError, match="a modulus cannot contain '/'"):
            make_field(f"GF(2^2; mod={text})")


@pytest.mark.parametrize("spec", ["GF(4)", "GF(8)", "GF(9)", "GF(25)", "GF(27)", "GF(729)"])
def test_pth_roots_on_extension_fields(spec):
    field = make_field(spec)
    payloads = list(field.enumerate_payloads())
    roots = fields.pth_roots(field, payloads)
    assert [field.pow_int(r, field.p) for r in roots] == payloads
    assert roots == [field.pth_root(a) for a in payloads]
    assert fields.pth_roots(field, []) == []


def test_pth_roots_reports_a_coefficient_without_a_root():
    # a field whose pth_root is the identity has no verified root of t over GF(4)
    f4 = make_field("GF(4)")

    class NoRoots(type(f4)):
        def pth_root(self, a):
            return a

    broken = NoRoots(2, 2)
    assert fields.pth_roots(broken, [f4.zero, f4.one]) == [f4.zero, f4.one]
    assert fields.pth_roots(broken, [f4.one, f4.gen().payload]) is None


@pytest.mark.parametrize("spec", ["GF(2)", "GF(3)", "GF(4)", "GF(9)", "GF(27)", "GF(3)(Z)", "GF(4)(Z)"])
def test_equal_values_hash_equally(spec):
    field = make_field(spec)
    rng = random.Random(spec)
    elements = [field(i) for i in range(-1, 5)]
    elements += [field.element(field.random_payload(rng)) for _ in range(10)]
    # the same values again, built by arithmetic instead of from payloads
    rebuilt = [(x + field(1)) - field(1) for x in elements]
    polys = [Poly.constant(field, x) for x in elements] + [Poly.x(field) + x for x in rebuilt]
    values = elements + rebuilt + polys + list(range(-1, 5)) + [True, False]
    for x in values:
        for y in values:
            if x == y:
                assert hash(x) == hash(y), (x, y)
                assert y == x and not x != y
    assert len({field(1), 1}) == 2 and field(1) != 1 and 1 != field(1)
    assert Poly.constant(field, field(1)) != field(1)
    assert len(set(elements) | set(rebuilt)) == len(set(elements))


@pytest.mark.parametrize("spec", ["GF(2)(Z)", "GF(3)(Z)", "GF(4)(Z)", "GF(9)(Z)"])
def test_rational_function_sub_is_add_of_the_negation(spec):
    field = make_field(spec)
    rng = random.Random(17)
    for _ in range(200):
        a, b = field.random_payload(rng), field.random_payload(rng)
        assert field.sub(a, b) == field.add(a, field.neg(b))
    assert field.sub(field.one, field.one) == field.zero


@pytest.mark.parametrize(
    "spec, k_points, ext_order",
    [("GF(2)", 2, 4), ("GF(3)", 3, 9), ("GF(4)", 4, 16), ("GF(27)", 27, 729), ("GF(31)", 31, None)],
)
def test_specialisation_points_are_k_then_the_quadratic_extension(spec, k_points, ext_order):
    k = make_field(spec)
    points = fields.specialisation_points(k)
    assert points is fields.specialisation_points(k)  # cached
    # all of k, and the rest of the extension: ext_order points in all
    assert len(points) == min(ext_order or k_points, fields.SPECIALISATION_TRIES)
    assert [z0 for target, _, z0 in points[:k_points]] == list(k.enumerate_payloads())
    assert all(target == k for target, _, _ in points[:k_points])
    ext = points[k_points:]
    assert all(target.order == ext_order for target, _, _ in ext)
    if ext:
        big, coeff, _ = ext[0]
        image = set(coeff.values())
        assert len(image) == k.order
        assert all(z0 not in image for _, _, z0 in ext)
        # the coefficient map is the field embedding
        for a in k.enumerate_payloads():
            for b in k.enumerate_payloads():
                assert coeff[k.add(a, b)] == big.add(coeff[a], coeff[b])
                assert coeff[k.mul(a, b)] == big.mul(coeff[a], coeff[b])


@pytest.mark.parametrize("spec", ["GF(2)(Z)", "GF(3)(Z)", "GF(4)(Z)"])
def test_specialise_is_a_ring_map_where_the_denominators_live(spec):
    field = make_field(spec)
    rng = random.Random(23)
    usable = 0
    for point in fields.specialisation_points(field.base):
        target = point[0]
        for _ in range(20):
            a, b = field.random_payload(rng), field.random_payload(rng)
            at = fields.specialise(field, [a, b], point)
            both = [field.add(a, b), field.sub(a, b), field.mul(a, b)]
            if at is None:
                continue
            usable += 1
            x, y = at
            assert fields.specialise(field, both, point) == [
                target.add(x, y), target.sub(x, y), target.mul(x, y)
            ]
            if b != field.zero and y != target.zero:
                assert fields.specialise(field, [field.div(a, b)], point) == [target.div(x, y)]
    assert usable >= 20


def test_specialise_refuses_a_pole():
    f3z = make_field("GF(3)(Z)")
    x = f3z.parse_element("1/(Z+1)").payload
    points = fields.specialisation_points(f3z.base)
    assert [fields.specialise(f3z, [x], pt) for pt in points[:3]] == [[1], [2], None]
    assert fields.specialise(f3z, [], points[0]) == []


# ---------------------------------------------------------------------------
# one k[T]/(m) field class, one generator search, one power sequence mod m


def _tabulated_to_729():
    """(field, modulus) for every GF(p^n) spec up to 729, custom moduli
    included, and for K[Z]/(m) over GF(4) and GF(9), two m of each degree."""
    out = [(f, f.modulus) for f in map(make_field, _extension_specs())]
    for spec in ("GF(4)", "GF(9)"):
        k = make_field(spec)
        for d in (1, 2, 3):
            if k.order**d <= fields.MAX_FIELD_SIZE:
                out += [(fields._TabulatedField(k, m), m) for m in fields.monic_irreducibles(k, d, 2)]
    return out


def _first_of_full_order(candidates, order, mul, one):
    """The first nonzero candidate whose powers first reach one at the
    order-th, by repeated multiplication."""
    for a in candidates:
        if a in ((), 0):
            continue
        acc, k = a, 1
        while acc != one:
            acc, k = mul(acc, a), k + 1
        if k == order:
            return a
    raise AssertionError("no element of full order")


def test_generator_search_matches_brute_force_order_on_every_field_to_729():
    for p in range(2, fields.MAX_FIELD_SIZE + 1):
        if fields.is_prime(p):
            f = make_field(f"GF({p})")
            expected = _first_of_full_order(range(p), p - 1, lambda a, b: a * b % p, 1)
            got = fields._first_generator(enumerate_elements(f), p - 1, pow, f.one_element())
            assert got.payload == expected, p
    for f, m in _tabulated_to_729():
        k, d, order = f.base, len(f.zero), f.order - 1
        # raw polynomial arithmetic mod m, independent of the tables
        raw = [rp.trim(k, a) for a in fields.residues(k, d)]
        found = _first_of_full_order(raw, order, lambda a, b: rp.rem(k, rp.mul(k, a, b), m), (k.one,))
        expected = found + (k.zero,) * (d - len(found))
        elements = [FieldElement(f, a) for a in f.enumerate_payloads()]
        one = FieldElement(f, f.one)
        assert fields._first_generator(elements, order, pow, one).payload == expected, (f, m)
        assert f._exp[1] == expected, (f, m)


def _powers_mod_ring(name):
    """(coefficient ring, a, m): a of degree above deg m, m not irreducible."""
    if name == "gf2-quotient-ring":
        # GF(2)[T]/(T^3+T+1) as the coefficients, m = Y^3 + (1+T)Y + 1 over it
        ring = rp.PolyRing(make_field("GF(2)"), (1, 1, 0, 1))
        return ring, ((0, 1), (1,), (), (1, 1), (0, 0, 1)), ((1,), (1, 1), (), (1,))
    k, deg = make_field(name), {"GF(2)": 5, "GF(3)": 4, "GF(9)": 3, "GF(727)": 6}[name]
    rng = random.Random(7)
    m = tuple(k.random_payload(rng) for _ in range(deg)) + (k.one,)
    return k, tuple(k.random_payload(rng) for _ in range(deg + 2)), m


def _repeated_products(k, a, count, m):
    """1, a, a^2, ... mod m, count of them, one rp.rem(rp.mul(...)) each:
    the method-call path, independent of the GF(p) power kernels."""
    cur, out = rp.rem(k, (k.one,), m), []
    for _ in range(count):
        out.append(cur)
        cur = rp.rem(k, rp.mul(k, cur, a), m)
    return out


@pytest.mark.parametrize("name", ["GF(2)", "GF(3)", "GF(9)", "GF(727)", "gf2-quotient-ring"])
def test_powers_mod_is_pow_mod_term_by_term(name):
    k, a, m = _powers_mod_ring(name)
    powers = list(itertools.islice(rp.powers_mod(k, a, m), 20))
    assert powers == [rp.pow_mod(k, a, j, m) for j in range(20)]
    assert powers == _repeated_products(k, a, 20, m)
    assert len(set(powers)) > 3


@pytest.mark.parametrize("spec", ["GF(2)", "GF(3)", "GF(727)", "GF(4)", "GF(9)"])
def test_pow_mod_edge_cases_match_repeated_products(spec):
    k = make_field(spec)
    rng = random.Random(spec)
    monic = tuple(k.random_payload(rng) for _ in range(4)) + (k.one,)
    non_monic = monic[:-1] + (k.from_int(-1),)  # monic again over GF(2)
    long_a = tuple(k.random_payload(rng) for _ in range(9)) + (k.one,)
    cases = [
        (long_a, monic),  # deg a >= deg m
        ((), monic),  # a = 0
        ((k.from_int(-1),), monic),  # a nonzero constant
        (long_a, non_monic),
        ((k.zero, k.one), non_monic),
        (long_a, (k.from_int(-1),)),  # a constant m: every residue is 0
        ((k.zero, k.one), (k.one, k.one)),  # deg m = 1
    ]
    for a, m in cases:
        expected = _repeated_products(k, a, 12, m)
        assert [rp.pow_mod(k, a, n, m) for n in range(12)] == expected, (a, m)
        # pow_mod is one body on _mulmod's product: also the power reduced once
        assert expected == [rp.rem(k, rp.power(k, a, n), m) for n in range(12)], (a, m)
        assert rp.pow_mod(k, a, 0, m) == rp.rem(k, (k.one,), m)
        if len(m) > 1:
            assert list(itertools.islice(rp.powers_mod(k, a, m), 12)) == expected, (a, m)
    # a large exponent, against square-and-multiply on the reference products
    ref, n = _Reference(k, non_monic, len(non_monic) - 1), k.order**5 + 3
    assert ref.payload(rp.pow_mod(k, long_a, n, non_monic)) == ref.pow_int(long_a, n)
    with pytest.raises(ZeroDivisionError):
        rp.pow_mod(k, long_a, 3, ())


@pytest.mark.parametrize("name", ["GF(9)", "GF(4)[Z]/d2"])
def test_generic_pow_mod_makes_one_product_per_squaring_and_extra_bit(name, monkeypatch):
    # square-and-multiply needs bit_length(n) - 1 squarings and popcount(n) - 1
    # further products: none before the first bit, none past the top one
    k = _root_scan_fields(name)[0]
    rng = random.Random(name)
    elems = list(k.enumerate_payloads())
    m = tuple(rng.choice(elems) for _ in range(3)) + (k.one,)
    a = tuple(rng.choice(elems) for _ in range(4)) + (k.one,)
    ref = _Reference(k, m, 3)
    exponents = (1, 2, 9, 729)
    expected = [ref.pow_int(a, n) for n in exponents]
    calls, real_mul = [], rp.mul
    monkeypatch.setattr(rp, "mul", lambda *args: calls.append(1) or real_mul(*args))
    for n, want in zip(exponents, expected):
        calls.clear()
        assert ref.payload(rp.pow_mod(k, a, n, m)) == want, n
        assert len(calls) == n.bit_length() - 1 + bin(n).count("1") - 1, n


def _reference_log_tables(k, modulus):
    """The log tables as they were built on the _ringops method-call path:
    trimmed powers of the first generator by repeated products, the Zech
    entries from those, then padded.  Independent of pow_mod, powers_mod
    and _first_generator."""
    d = len(modulus) - 1
    q1 = k.order**d - 1
    one = (k.one,)
    raw = [rp.trim(k, a) for a in fields.residues(k, d)]
    g = _first_of_full_order(raw, q1, lambda a, b: rp.rem(k, rp.mul(k, a, b), modulus), one)
    powers = _repeated_products(k, g, q1, modulus)
    raw_log = {a: i for i, a in enumerate(powers)}
    zech = [raw_log.get(rp.add(k, one, a), fields._LOG_ZERO) for a in powers]
    neg = raw_log[rp.neg(k, one)]
    powers = [a + (k.zero,) * (d - len(a)) for a in powers]
    log = {a: i for i, a in enumerate(powers)}
    log[(k.zero,) * d] = fields._LOG_ZERO
    return q1, powers + powers, log, zech + zech, neg


def _log_table_cases():
    """(k, modulus): every GF(p^n) up to 729 with up to 3 moduli each, and
    quotients of degree 1 to 3 over GF(4), GF(8) and GF(9)."""
    cases = []
    for q in range(4, fields.MAX_FIELD_SIZE + 1):
        p = next(f for f in range(2, q + 1) if q % f == 0)
        n, rest = fields.p_power_split(q, p)
        if rest == 1 and n >= 2:
            k = make_field(f"GF({p})")
            cases += [(k, m) for m in fields.monic_irreducibles(k, n, 3)]
    for spec in ("GF(4)", "GF(8)", "GF(9)"):
        k = make_field(spec)
        for d in (1, 2, 3):
            if k.order**d <= fields.MAX_FIELD_SIZE:
                cases += [(k, m) for m in fields.monic_irreducibles(k, d, 3)]
    return cases


def test_log_tables_match_the_method_call_reference_on_every_field_to_729():
    cases = _log_table_cases()
    assert len(cases) > 80
    for k, m in cases:
        tables, expected = fields._build_log_tables(k, m), _reference_log_tables(k, m)
        assert tables == expected, (k, m)
        # the log dict in the same insertion order: exp order, zero last
        assert list(tables[2]) == list(expected[2]), (k, m)
    # and _exp[1], the first generator, on the cached fields themselves
    for spec in ("GF(9)", "GF(625)", "GF(729)"):
        f = make_field(spec)
        assert f._exp[1] == _reference_log_tables(f.base, f.modulus)[1][1]


def _scan_roots(field, f):
    """The per-point root scan: rp.evaluate at every element, in
    enumeration order."""
    return [a for a in field.enumerate_payloads() if rp.evaluate(field, f, a) == field.zero]


ROOT_SCAN_FIELDS = ("GF(2)", "GF(3)", "GF(727)", "GF(4)", "GF(9)", "GF(512)", "GF(625)",
                    "GF(729)", "GF(2^3; mod=t^3+t^2+1)",
                    # K[Z]/(m) for the first two monic irreducibles m of degree d
                    "GF(4)[Z]/d1", "GF(9)[Z]/d1", "GF(4)[Z]/d2", "GF(9)[Z]/d2")


def _root_scan_fields(name):
    if "/" not in name:
        return [make_field(name)]
    spec, d = name.split("[Z]/d")
    k = make_field(spec)
    return [fields._TabulatedField(k, m) for m in fields.monic_irreducibles(k, int(d), 2)]


@pytest.mark.parametrize("name", ROOT_SCAN_FIELDS)
def test_raw_roots_match_the_per_point_scan(name):
    for field in _root_scan_fields(name):
        _check_raw_roots(field, random.Random(name))


def _check_raw_roots(field, rng):
    elems = list(field.enumerate_payloads())
    nonzero = elems[1:]
    polys = [(), (field.one,), (rng.choice(nonzero),)]
    for deg in (1, 2, 3, 5):
        # products of linear factors, roots repeated, times a nonzero constant
        for _ in range(3):
            f = (rng.choice(nonzero),)
            for r in [rng.choice(elems) for _ in range(deg)] + [rng.choice(elems)] * 2:
                f = rp.mul(field, f, (field.neg(r), field.one))
            polys.append(f)
        polys += [rp.trim(field, tuple(rng.choice(elems) for _ in range(deg)) + (rng.choice(nonzero),))
                  for _ in range(3)]
    # the zero element as a root, and a zero coefficient in the middle
    polys += [(field.zero, field.one), (field.one, field.zero, field.one), (field.zero, field.zero, field.one)]
    for f in polys:
        roots = fields._raw_roots(field, f)
        # the same list: the same roots in the same (enumeration) order
        assert roots == _scan_roots(field, f), f
    # (X^q - X) / (X - b) vanishes at every element but b: each point of the
    # scan is checked, not only the few roots of the polynomials above
    b = rng.choice(elems)
    every = (field.zero, field.neg(field.one)) + (field.zero,) * (len(elems) - 2) + (field.one,)
    quotient, remainder = rp.divmod_(field, every, (field.neg(b), field.one))
    assert not remainder
    assert fields._raw_roots(field, quotient) == [a for a in elems if a != b]
    # the zero polynomial: every element, in enumeration order
    assert fields._raw_roots(field, ()) == elems
    assert fields._raw_roots(field, (field.one,)) == []
    # the order was tested on more than single roots
    assert sum(1 for f in polys if len(fields._raw_roots(field, f)) > 1) > 3


def test_quotient_kind_and_forward_sort_key_beside_the_extension():
    for spec in ("GF(3)", "GF(4)"):
        k = make_field(spec)
        m = fields.monic_irreducibles(k, 2, 1)[0]
        quot = fields._TabulatedField(k, m)
        pays = list(quot.enumerate_payloads())
        assert quot.kind == "quotient"
        # coefficientwise, the constant term most significant
        assert [quot.sort_key(a) for a in pays[:3]] == [
            (k.sort_key(k.zero), k.sort_key(k.zero)),
            (k.sort_key(k.one), k.sort_key(k.zero)),
            (k.sort_key(pays[2][0]), k.sort_key(k.zero)),
        ]
        assert sorted(pays, key=quot.sort_key) == sorted(
            pays, key=lambda a: [k.sort_key(c) for c in a]
        )
        assert sorted(pays, key=quot.sort_key) != pays
    ext = make_field("GF(9)")
    assert ext.kind == "extension"
    # reversed: the top coefficient most significant, so the key sorts the
    # enumeration order, lowest coefficient fastest
    assert ext.sort_key((2, 1)) == (1, 2)
    assert sorted(ext.enumerate_payloads(), key=ext.sort_key) == list(ext.enumerate_payloads())


# ---------------------------------------------------------------------------
# the operand path of FieldElement's binary operators

@pytest.mark.parametrize("spec, value", [("GF(3)", 2), ("GF(9)", "t+1"), ("GF(3)(Z)", "(Z+1)/Z")])
def test_int_on_the_left_swaps_the_operands(spec, value):
    field = make_field(spec)
    x = field.element(value)
    one, two, three = (field.from_int(i) for i in (1, 2, 3))
    assert 1 - x == FieldElement(field, field.sub(one, x.payload))
    assert 1 / x == FieldElement(field, field.div(one, x.payload))
    assert 3 * x == FieldElement(field, field.mul(three, x.payload))
    assert 2 + x == FieldElement(field, field.add(two, x.payload))


def test_a_foreign_operand_falls_back_to_python():
    f9 = make_field("GF(9)")
    x = f9.element("t")
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__"):
        assert getattr(x, op)(1.5) is NotImplemented
    with pytest.raises(TypeError):
        x + 1.5
    with pytest.raises(TypeError):
        1.5 / x
    # the reflected fallback: Poly.__rmul__ takes the element
    p = Poly.from_string(f9, "X+t")
    assert x * p == Poly.from_string(f9, "t*X+t^2")


def test_elements_of_two_fields_do_not_mix():
    f3, f9 = make_field("GF(3)"), make_field("GF(9)")
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b, lambda a, b: a / b):
        with pytest.raises(InputError):
            op(f3.one_element(), f9.one_element())
        with pytest.raises(InputError):
            op(f9.one_element(), f3.one_element())


def test_operators_look_up_the_descriptor_method_at_each_call(monkeypatch):
    f9 = make_field("GF(9)")
    x, y = f9.element("t"), f9.element("t+1")
    calls = []
    original = fields.ExtensionField.mul

    def counting(self, a, b):
        calls.append((a, b))
        return original(self, a, b)

    monkeypatch.setattr(fields.ExtensionField, "mul", counting)
    assert x * y == FieldElement(f9, original(f9, x.payload, y.payload))
    assert calls == [(x.payload, y.payload)]
