import itertools
import random
import sys
import threading
import time

import pytest

from aslab import _ringops as rp
from aslab import fields
from aslab.errors import CapExceededError, InputError
from aslab.fields import (
    embed_subfield,
    enumerate_elements,
    frobenius,
    is_pth_power_coeffs,
    make_field,
    rabin_irreducible,
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
    # irreducibles of degree d; count what the Rabin test accepts
    k = make_field(spec)
    q = k.order
    for d in range(1, max_degree + 1):
        expected = sum(_mobius(d // j) * q**j for j in range(1, d + 1) if d % j == 0) // d
        accepted = sum(
            rabin_irreducible(k, tail + (k.one,))
            for tail in itertools.product(k.enumerate_payloads(), repeat=d)
        )
        assert accepted == expected, (spec, d)


def test_monic_irreducibles_skipping_constant_zero_matches_full_scan():
    # the reference scans every tail, constant term zero included
    def full_scan(k, degree, count):
        out = []
        for tail in itertools.product(k.enumerate_payloads(), repeat=degree):
            cand = tuple(tail) + (k.one,)
            if rabin_irreducible(k, cand):
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
    assert x == y and x + y == 0


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
    assert frobenius(f4.element(0)) == 0


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
            assert x + (-x) == 0
            if y != 0:
                assert y * (1 / y) == 1
                assert (x / y) * y == x


def test_fraction_canonical_form_after_ops():
    rng = random.Random(99)
    field = make_field("GF(3)(Z)")
    base = field.base
    for _ in range(200):
        x = field.element(field.random_payload(rng))
        y = field.element(field.random_payload(rng))
        for v in (x + y, x * y, x - y) + ((x / y,) if y != 0 else ()):
            num, den = v.payload
            assert den[-1] == base.one  # monic denominator
            if num:
                assert rp.gcd(base, num, den) == (base.one,)
            else:
                assert den == (base.one,)


def test_element_parse_print_roundtrip():
    rng = random.Random(7)
    for spec in ("GF(7)", "GF(9)", "GF(16)", "GF(2)(Z)", "GF(9)(Z)"):
        field = make_field(spec)
        for _ in range(40):
            x = field.element(field.random_payload(rng))
            assert field.element(str(x)) == x


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
    # equality with a bool compares as int equality does and never raises
    assert f2.element(1) == True  # noqa: E712
    assert Poly.one(f2) == True and Poly.zero(f2) != True  # noqa: E712


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
    assert im * im + im + 1 == 0


def test_embed_cache_is_stable():
    f4, f16 = make_field("GF(4)"), make_field("GF(16)")
    e1 = embed_subfield(f4, f16)
    e2 = embed_subfield(f4, f16)
    t = f4.element("t")
    assert e1(t) == e2(t)


def test_embed_rejects_non_divisible_degrees():
    with pytest.raises(InputError):
        embed_subfield(make_field("GF(4)"), make_field("GF(8)"))


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
    polynomials, with the payload convention of the field under test."""

    def __init__(self, k, modulus, width):
        self.k, self.m, self.width = k, modulus, width

    def raw(self, a):
        return rp.trim(self.k, a)

    def payload(self, raw):
        if self.width is None:
            return raw
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
        if n < 0:
            a, n = self.inv(a), -n
        return self.payload(rp.pow_mod(self.k, self.raw(a), n, self.m))


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
    q1, exp, log, zech, neg = fields._log_tables(field.base, field.modulus, True)
    assert q1 == 8 and exp[1] == (1, 1)
    assert sorted(exp[:q1]) == sorted(a for a in field.enumerate_payloads() if a != field.zero)
    assert len(exp) == 2 * q1 and len(zech) == 2 * q1 and len(log) == 9
    assert exp[neg] == (2, 0)


@pytest.mark.parametrize("spec", ["GF(4)", "GF(9)"])
def test_quotient_field_tables_match_polynomial_reference(spec):
    from aslab.irred import _QuotientFieldOps

    k = make_field(spec)
    rng = random.Random(spec)
    for d in (1, 2, 3):
        if k.order**d > fields.MAX_FIELD_SIZE:
            continue
        for m in fields.monic_irreducibles(k, d, 2 if d < 3 else 1):
            quot = _QuotientFieldOps(k, m)
            ref = _Reference(k, m, None)
            exponents = (-quot.order, -2, -1, 0, 1, 3, quot.order)
            _check_against_reference(quot, ref, _pairs(quot, rng), exponents)


def test_log_table_cache_under_threads():
    # threads that build the same field at once must all end up with the one
    # cached table object, equal to a sequential build
    expected = fields._build_log_tables(make_field("GF(3)"), fields.default_modulus(3, 6), True)
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


def test_raw_poly_power_matches_repeated_multiplication():
    k = make_field("GF(3)")
    base = fields._RawPoly((1, 2, 1), k)
    acc = fields._RawPoly((1,), k)
    for n in range(12):
        assert (base**n).coeffs == acc.coeffs
        acc = acc * base


# ---------------------------------------------------------------------------
# one residue enumeration, one subfield embedding, one p-power split


def _reference_residues(k, d, padded):
    """The divmod enumeration that ExtensionField and the oracle's quotient
    fields each used to carry: residue i has the base-|k| digits of i as its
    coefficients, lowest first."""
    basepays = list(k.enumerate_payloads())
    for i in range(k.order**d):
        digits = []
        for _ in range(d):
            i, r = divmod(i, k.order)
            digits.append(basepays[r])
        yield tuple(digits) if padded else rp.trim(k, digits)


def test_residue_enumeration_matches_divmod_reference_on_every_extension():
    for spec in _extension_specs():
        field = make_field(spec)
        expected = list(_reference_residues(field.base, field.n, padded=True))
        assert list(field.enumerate_payloads()) == expected, spec
        assert [x.payload for x in enumerate_elements(field)] == expected, spec


def test_residue_enumeration_matches_divmod_reference_on_quotient_fields():
    from aslab.irred import _QuotientFieldOps

    for spec in ("GF(2)", "GF(3)", "GF(4)", "GF(5)", "GF(7)", "GF(8)", "GF(9)"):
        k = make_field(spec)
        for d in (1, 2, 3):
            if k.order**d > fields.MAX_FIELD_SIZE:
                continue
            for m in fields.monic_irreducibles(k, d, 2):
                quot = _QuotientFieldOps(k, m)
                expected = list(_reference_residues(k, d, padded=False))
                assert list(quot.enumerate_payloads()) == expected, (spec, m)


def _reference_root_embedding(small, big):
    """The first-root search and Horner map of embed_subfield, without its
    shortcut for a field into itself."""
    modulus = tuple(big.from_int(c) for c in small.modulus)
    root = next(
        c for c in big.enumerate_payloads() if rp.evaluate(big, modulus, c) == big.zero
    )
    powers = [big.one]
    for _ in range(small.n - 1):
        powers.append(big.mul(powers[-1], root))

    def embed(x):
        acc = big.zero
        for c, w in zip(x.payload, powers):
            acc = big.add(acc, big.mul(big.from_int(c), w))
        return acc

    return embed


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


def test_embed_subfield_takes_the_first_of_the_raw_roots():
    for small, big in (("GF(4)", "GF(16)"), ("GF(8)", "GF(64)"), ("GF(9)", "GF(729)")):
        small, big = make_field(small), make_field(big)
        modulus = tuple(big.from_int(c) for c in small.modulus)
        roots = fields._raw_roots(big, modulus)
        # the modulus splits into distinct linear factors over the big field
        assert len(roots) == small.n and all(rp.evaluate(big, modulus, a) == big.zero for a in roots)
        assert embed_subfield(small, big)(small.gen()).payload == roots[0]
