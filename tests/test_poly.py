import collections
import itertools
import random

import pytest

from aslab import _ringops as rp
from aslab import fields, poly
from aslab.errors import CapExceededError, ConsistencyError, InputError
from aslab.fields import ben_or_irreducible, enumerate_elements, make_field, p_power_split
from aslab.poly import (
    MINUS_INFINITY,
    Poly,
    _BIT_ROWS,
    _PayloadRows,
    _PrimeRows,
    _equal_degree_split,
    factor_finite,
    gas_poly,
    gas_shape,
    gcd,
    is_irreducible_finite,
    min_poly_in_quotient,
    roots_in_finite_field,
    separable_part,
)


def random_poly(field, deg, rng, monic=False):
    coeffs = [field.random_payload(rng) for _ in range(deg)]
    coeffs.append(field.one if monic else field.random_payload(rng))
    while coeffs[-1] == field.zero:
        coeffs[-1] = field.random_payload(rng)
    return Poly.from_raw(field, coeffs)


# ---------------------------------------------------------------------------
# basics

def test_zero_degree_is_minus_infinity():
    f2 = make_field("GF(2)")
    z = Poly.zero(f2)
    assert z.degree() == MINUS_INFINITY
    assert z.degree() < 0 and z.degree() < Poly.one(f2).degree()


def test_parse_print_roundtrip_seeded():
    rng = random.Random(11)
    for spec in ("GF(2)", "GF(9)", "GF(4)(Z)"):
        field = make_field(spec)
        for _ in range(30):
            f = random_poly(field, rng.randrange(5), rng)
            assert Poly.from_string(field, str(f)) == f


def test_parse_exponent_cap():
    from aslab._exprparse import MAX_EXPONENT

    f3 = make_field("GF(3)")
    assert Poly.from_string(f3, "X^729-X").degree() == 729
    assert Poly.from_string(f3, f"X^{MAX_EXPONENT}").degree() == MAX_EXPONENT
    for s in (
        f"X^{MAX_EXPONENT + 1}", "(X+1)^40000000", "X^2-X^30000001", "2^40000000",
        f"(X^{MAX_EXPONENT})^{MAX_EXPONENT}", f"((X^{MAX_EXPONENT})^{MAX_EXPONENT})^0",
        f"X^{MAX_EXPONENT}*X", f"X^{MAX_EXPONENT}/X",
    ):
        with pytest.raises(CapExceededError):
            Poly.from_string(f3, s)
    with pytest.raises(CapExceededError):
        make_field(f"GF(2^3; mod=t^{MAX_EXPONENT + 1}+t+1)")
    # a cap on the degree in X alone: Z counts only toward MAX_EXPONENT,
    # and every subexpression's bound is checked, not just the result's
    f3z = make_field("GF(3)(Z)")
    cap = (9, "degree over 9")
    assert Poly.from_string(f3z, "(X+Z+1)^9", degree_cap=cap).degree() == 9
    assert Poly.from_string(f3z, "Z^100*X^9+(Z+1)/Z", degree_cap=cap).degree() == 9
    for s in ("(X+Z+1)^10", "X^9*X", "X^10/X", "((X+1)^10)^0", "X^10-X^10"):
        with pytest.raises(CapExceededError, match="degree over 9"):
            Poly.from_string(f3z, s, degree_cap=cap)


def test_parse_examples():
    f2z = make_field("GF(2)(Z)")
    h = Poly.from_string(f2z, "X^2-X-Z")
    assert h.degree() == 2 and h.is_monic()
    assert h.coeff(0) == -f2z.element("Z") and h.coeff(1) == f2z.element(1)


def test_unary_minus():
    f3z = make_field("GF(3)(Z)")
    assert str(Poly.from_string(f3z, "-X^2-Z")) == "2*X^2+2*Z"
    assert str(Poly.from_string(f3z, "-(X-1)")) == "2*X+1"
    assert str(f3z.parse_element("-Z")) == "2*Z"


def test_power_matches_repeated_multiplication():
    rng = random.Random(3)
    for spec in ("GF(2)", "GF(3)", "GF(9)", "GF(3)(Z)"):
        field = make_field(spec)
        for a in [(), (field.one,)] + [random_poly(field, d, rng).raw for d in (1, 2, 3)]:
            acc = (field.one,)
            for n in range(21):
                assert rp.power(field, a, n) == acc, (spec, a, n)
                acc = rp.mul(field, acc, a)


def test_square_and_multiply_counts_and_leaves_n_zero_to_the_caller():
    assert rp.square_and_multiply(3, 0, lambda x, y: pytest.fail("a product for n = 0")) is None
    for n in range(1, 70):
        calls = []
        got = rp.square_and_multiply(3, n, lambda x, y: calls.append(1) or x * y)
        assert got == 3**n, n
        assert len(calls) == n.bit_length() - 1 + bin(n).count("1") - 1, n
    # a negative exponent used to shift forever: -1 >> 1 is -1; the Poly
    # boundary refuses it as bad input before _ringops sees it
    field = make_field("GF(3)")
    with pytest.raises(InputError, match="negative exponent"):
        Poly.x(field).pow_mod(-1, Poly.from_string(field, "X^2+1"))
    with pytest.raises(ValueError, match="negative exponent"):
        rp.power(field, (0, 1), -2)


def test_divmod_property_seeded():
    rng = random.Random(5)
    for spec in ("GF(3)", "GF(4)", "GF(2)(Z)"):
        field = make_field(spec)
        for _ in range(25):
            f = random_poly(field, rng.randrange(6), rng)
            g = random_poly(field, rng.randrange(3), rng)
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.degree() < g.degree()


def test_gcd_divides_both_and_is_monic():
    rng = random.Random(6)
    field = make_field("GF(9)")
    for _ in range(25):
        a = random_poly(field, rng.randrange(1, 5), rng)
        b = random_poly(field, rng.randrange(1, 5), rng)
        g = gcd(a, b)
        assert g.is_monic()
        assert (a % g).is_zero() and (b % g).is_zero()


def test_compose_shift_derivative():
    f3 = make_field("GF(3)")
    f = Poly.from_string(f3, "X^2+X+1")
    assert f.shifted(1) == Poly.from_string(f3, "X^2+3*X+3") + Poly.from_string(f3, "0")
    assert f.shifted(1)(0) == f(1)
    assert f.derivative() == Poly.from_string(f3, "2*X+1")
    g = Poly.from_string(f3, "X^2")
    assert f.compose(g) == Poly.from_string(f3, "X^4+X^2+1")
    assert f.substitute_x_power(3) == Poly.from_string(f3, "X^6+X^3+1")


@pytest.mark.parametrize("spec, s", [("GF(2)", "X+1"), ("GF(3)", "X^2+X+1"), ("GF(3)", "0")])
@pytest.mark.parametrize("k", [0, -1])
def test_substitute_x_power_refuses_k_below_1(spec, s, k):
    # X -> X^0 would sum the coefficients (X+1 over GF(2) is 0 at X = 1),
    # not overwrite them; no caller needs k < 1, so it is refused
    with pytest.raises(InputError, match="k >= 1"):
        Poly.from_string(make_field(spec), s).substitute_x_power(k)


def test_negative_exponents_are_refused_at_the_poly_boundary():
    f3 = make_field("GF(3)")
    x = Poly.x(f3)
    with pytest.raises(InputError, match="negative exponent"):
        Poly.x_power(f3, -1)
    with pytest.raises(InputError, match="negative exponent"):
        x.pow_mod(-1, Poly.from_string(f3, "X^2+1"))
    assert x.__pow__(-1) is NotImplemented
    with pytest.raises(TypeError):
        x ** -1


# ---------------------------------------------------------------------------
# separable decomposition

def test_separable_part_examples():
    f2z = make_field("GF(2)(Z)")
    d = separable_part(Poly.from_string(f2z, "X^4-X^2-Z"))
    assert d.q == Poly.from_string(f2z, "X^2-X-Z") and d.e == 1

    d2 = separable_part(Poly.from_string(f2z, "X^2-X-Z"))
    assert d2.q == Poly.from_string(f2z, "X^2-X-Z") and d2.e == 0

    f3z = make_field("GF(3)(Z)")
    d3 = separable_part(Poly.from_string(f3z, "X^9-X^3-Z"))
    assert d3.q == Poly.from_string(f3z, "X^3-X-Z") and d3.e == 1


def test_separable_part_roundtrip_seeded():
    rng = random.Random(13)
    for spec in ("GF(2)", "GF(3)", "GF(4)", "GF(3)(Z)"):
        field = make_field(spec)
        p = field.char
        built = 0
        while built < 15:
            q = random_poly(field, rng.randrange(1, 4), rng, monic=True)
            if gcd(q, q.derivative()).degree() != 0:
                continue  # not separable, resample
            e = rng.randrange(3)
            h = q.substitute_x_power(p**e)
            d = separable_part(h)
            assert d.q == q and d.e == e
            assert d.recompose() == h
            built += 1


def test_separable_part_rejects_impossible_input():
    f3 = make_field("GF(3)")
    # (X-1)^2 has a repeated root but is not a polynomial in X^3
    with pytest.raises(InputError):
        separable_part(Poly.from_string(f3, "X^2+X+1"))
    with pytest.raises(InputError):
        separable_part(Poly.from_string(f3, "2*X^2+1"))  # not monic


# ---------------------------------------------------------------------------
# factorization over finite fields

def brute_force_monic_divisors(f, max_deg):
    """Independent exhaustive divisor search (test-local oracle)."""
    field = f.field
    found = []
    elems = [x.payload for x in enumerate_elements(field)]
    for d in range(1, max_deg + 1):
        for tail in itertools.product(elems, repeat=d):
            cand = Poly(field, list(tail) + [1])
            if (f % cand).is_zero():
                found.append(cand)
    return found


def test_factor_x2_minus_x_over_gf2():
    f2 = make_field("GF(2)")
    factors = factor_finite(Poly.from_string(f2, "X^2-X"))
    assert [(str(p), m) for p, m in factors] == [("X", 1), ("X+1", 1)]


def test_factor_cubic_irreducible_over_gf3():
    f3 = make_field("GF(3)")
    f = Poly.from_string(f3, "X^3-X-1")
    # independent: no roots in GF(3) and degree 3 force irreducibility
    assert all(f(x) != f3(0) for x in enumerate_elements(f3))
    factors = factor_finite(f)
    assert len(factors) == 1 and factors[0][0] == f and factors[0][1] == 1
    assert is_irreducible_finite(f)


def test_factor_quartic_over_gf4_all_degree_two():
    f4 = make_field("GF(4)")
    f = Poly.from_string(f4, "X^4+X+t")
    # independent divisor search: no linear factors, so both factors quadratic
    divisors = brute_force_monic_divisors(f, 2)
    assert all(d.degree() == 2 for d in divisors)
    factors = factor_finite(f)
    assert sorted(p.degree() for p, _ in factors) == [2, 2]
    prod = Poly.one(f4)
    for p, m in factors:
        prod = prod * p**m
    assert prod == f


def test_factor_reconstruction_and_irreducibility_seeded():
    rng = random.Random(17)
    for spec in ("GF(2)", "GF(3)", "GF(4)", "GF(9)"):
        field = make_field(spec)
        for _ in range(10):
            f = random_poly(field, rng.randrange(1, 7), rng)
            factors = factor_finite(f)
            prod = Poly.constant(field, f.leading_coeff())
            for p, m in factors:
                prod = prod * p**m
                assert p.is_monic()
                # independent irreducibility: no monic divisor up to half degree
                assert not brute_force_monic_divisors(p, p.degree() // 2)
            assert prod == f


def test_factor_degrees_of_artin_schreier_polys():
    # over a finite field containing the p^n-element subfield, the factors
    # of X^(p^n) - X - a all share one degree, a power of p; with no root
    # the common degree is exactly p
    for spec, n in (("GF(4)", 2), ("GF(9)", 2), ("GF(8)", 1)):
        field = make_field(spec)
        p = field.char
        for a in enumerate_elements(field):
            q = Poly.x_power(field, p**n) - Poly.x(field) - Poly.constant(field, a)
            degs = {f.degree() for f, _ in factor_finite(q)}
            assert len(degs) == 1
            d = degs.pop()
            while d % p == 0:
                d //= p
            assert d == 1
            has_root = any(q(x) == field(0) for x in enumerate_elements(field))
            if not has_root:
                assert {f.degree() for f, _ in factor_finite(q)} == {p}


def test_factor_caps():
    f2 = make_field("GF(2)")
    with pytest.raises(CapExceededError):
        factor_finite(Poly.x_power(f2, 65) - Poly.one(f2))
    with pytest.raises(InputError):
        factor_finite(Poly.zero(f2))


def test_factor_berlekamp_path_on_larger_field():
    # two distinct irreducible quadratics over GF(729), X^2 - a and
    # X^2 - X - b with the first constants in enumeration order that make
    # them irreducible; their product splits by the Berlekamp sweep
    field = make_field("GF(729)")
    xs = enumerate_elements(field)
    x2 = Poly.x_power(field, 2)
    families = (
        (x2 - Poly.constant(field, a) for a in xs),
        (x2 - Poly.x(field) - Poly.constant(field, b) for b in xs),
    )
    f1, f2 = (next((f for f in fam if is_irreducible_finite(f)), None) for fam in families)
    assert f1 is not None and f2 is not None
    factors = factor_finite(f1 * f2)
    assert sorted((str(p), m) for p, m in factors) == sorted([(str(f1), 1), (str(f2), 1)])


def _exhaustive_equal_degree_split(field, g, d):
    """Reference: the search over every monic degree-d candidate in
    enumeration order that once served small fields."""
    out = []
    count = (len(g) - 1) // d
    for tail in itertools.product(field.enumerate_payloads(), repeat=d):
        cand = rp.trim(field, tail + (field.one,))
        quo, remdr = rp.divmod_(field, g, cand)
        if not remdr:
            out.append(cand)
            g = quo
            if len(out) == count:
                break
    assert len(out) == count
    return out


@pytest.mark.parametrize("spec", ["GF(2)", "GF(3)", "GF(4)", "GF(8)", "GF(9)", "GF(27)"])
def test_equal_degree_split_matches_exhaustive_search(spec):
    # seeded products of 2-3 distinct degree-d irreducibles; every (field, d)
    # with at most 50000 candidates, the range the exhaustive search covered
    field = make_field(spec)
    rng = random.Random(spec)
    for d in range(2, 5):
        if field.order**d > 50_000:
            continue
        for _ in range(3):
            # GF(2) has one irreducible quadratic and two cubics, so the
            # draws are bounded and a single piece is skipped
            want = rng.randrange(2, 4)
            pieces = set()
            for _ in range(200):
                cand = tuple(field.random_payload(rng) for _ in range(d)) + (field.one,)
                if ben_or_irreducible(field, cand):
                    pieces.add(cand)
                    if len(pieces) == want:
                        break
            if len(pieces) < 2:
                continue
            g = (field.one,)
            for piece in pieces:
                g = rp.mul(field, g, piece)
            # x^q mod g by its own pow_mod, not the Frobenius chain's
            xq = rp.pow_mod(field, (field.zero, field.one), field.order, g)
            split = _equal_degree_split(field, g, d, xq)
            assert len(split) == len(pieces)
            assert set(split) == pieces == set(_exhaustive_equal_degree_split(field, g, d))


def _reference_factor_raw(field, m):
    """Distinct-degree factorization with a fresh pow_mod(xq, q, m) per
    degree on the current cofactor, as it ran before the Frobenius chain."""
    q, x = field.order, (field.zero, field.one)
    found, d, xq = [], 1, None
    while len(m) - 1 > 0:
        if 2 * d > len(m) - 1:
            found.append((m, 1))
            break
        if xq is None:
            xq = rp.pow_mod(field, x, q**d, m)
        else:
            xq = rp.pow_mod(field, xq, q, m)
        g = rp.gcd(field, rp.sub(field, xq, x), m)
        if len(g) > 1:
            for piece in _equal_degree_split(field, g, d, rp.pow_mod(field, x, q, g)):
                m, mult = rp.PolyRing(field).divide_out(m, piece)
                found.append((piece, mult))
        d += 1
    found.sort(key=lambda fm: poly._raw_sort_key(field, fm[0]))
    return found


def _factor_field(name):
    if name == "GF(4)[Z]/(m)":
        gf4 = make_field("GF(4)")
        return fields._TabulatedField(gf4, fields.monic_irreducibles(gf4, 2, 1)[0])
    return make_field(name)


def _product(field, factors):
    out = (field.one,)
    for f in factors:
        out = rp.mul(field, out, f)
    return out


def _factor_inputs(field, rng):
    """Seeded monic polynomials of degree 1 to 64 over field: random ones,
    squared and cubed factors times a random cofactor, and products of
    several distinct irreducibles of one degree, drawn by seeded search."""
    pays = list(field.enumerate_payloads())

    def monic(d):
        return tuple(rng.choice(pays) for _ in range(d)) + (field.one,)

    def irreducibles(d, count):
        # bounded: GF(2) has one irreducible quadratic and two cubics
        out = set()
        for _ in range(100 * count):
            f = monic(d)
            if len(out) < count and ben_or_irreducible(field, f):
                out.add(f)
        return sorted(out)

    small = field.order <= 9
    inputs = [monic(d) for d in (1, 2, 3, 4, 5, 6, 8, 11, 16, 24, 64)]
    for d in (1, 2, 3):
        g, h = (irreducibles(d, 2) * 2)[:2]
        inputs.append(_product(field, [g, g, h, h, h, monic(rng.randrange(1, 7))]))
    for d, count in ((2, 3), (3, 4), (4, 2), (8, 8 if small else 3)):
        inputs.append(_product(field, irreducibles(d, count)))
    return inputs


class _WatchedChain:
    """rp.frobenius_chain that checks each element, x^(q^i) mod the current
    modulus, against the q-th power of the one before by a fresh pow_mod,
    and logs "next" or "send" per step."""

    def __init__(self, real, log, k, m):
        self.chain, self.log, self.k, self.m = real(k, m), log, k, m
        self.h = (k.zero, k.one)

    def send(self, m):
        self.log.append("next" if m is None else "send")
        self.m = self.m if m is None else m
        want = rp.pow_mod(self.k, self.h, self.k.order, self.m)
        self.h = self.chain.send(m)
        assert self.h == want
        return self.h

    def __next__(self):
        return self.send(None)


@pytest.mark.parametrize(
    "name", ["GF(2)", "GF(3)", "GF(4)", "GF(9)", "GF(81)", "GF(727)", "GF(729)", "GF(4)[Z]/(m)"]
)
def test_factor_raw_on_the_chain_matches_fresh_powers(name, monkeypatch):
    field, rng = _factor_field(name), random.Random(name)
    inputs = _factor_inputs(field, rng)
    expected = [_reference_factor_raw(field, f) for f in inputs]
    log, real = [], rp.frobenius_chain
    monkeypatch.setattr(rp, "frobenius_chain", lambda k, m: _WatchedChain(real, log, k, m))
    stepped_after_send = 0
    for f, want in zip(inputs, expected):
        log.clear()
        assert poly._factor_raw(field, f) == want, (name, f)
        # a cofactor was sent and the chain then went on modulo it
        stepped_after_send += "send" in log[:-1]
    assert stepped_after_send >= 1
    assert {len(f) - 1 for f in inputs} >= {1, 16, 24} and any(
        m > 1 for want in expected for _, m in want
    )


def test_factor_raw_over_gf3_stays_on_ints(refuse_prime_ringops, monkeypatch):
    # the chain's gcds, the cofactor divisions and Berlekamp's gcd sweep
    # run in _ringops.PrimeRing
    field, rng = make_field("GF(3)"), random.Random("prime-factor")
    inputs = _factor_inputs(field, rng)
    expected = [_reference_factor_raw(field, f) for f in inputs]
    splits, real_split = [], poly._berlekamp_split
    monkeypatch.setattr(poly, "_berlekamp_split", lambda *args: splits.append(args) or real_split(*args))
    refuse_prime_ringops()
    for f, want in zip(inputs, expected):
        assert poly._factor_raw(field, f) == want, f
    assert splits


@pytest.mark.parametrize("spec", ["GF(3)", "GF(9)", "GF(625)"])
def test_factor_finite_takes_x_to_the_q_off_the_chain(spec, monkeypatch):
    # Berlekamp's x^q mod g is the chain's first element, reduced mod g, so
    # no pow_mod runs; every equal-degree piece has degree >= 2, and a
    # squared quadratic leaves one piece of its degree unsplit
    field = make_field(spec)
    quad, cub = (fields.monic_irreducibles(field, d, 3) for d in (2, 3))
    cases = [quad, cub[:2] + quad[:1] * 2, quad[:2] + cub]
    cases = [(collections.Counter(pieces), _product(field, pieces)) for pieces in cases]
    splits, real_split = [], poly._berlekamp_split
    monkeypatch.setattr(poly, "_berlekamp_split", lambda *args: splits.append(args) or real_split(*args))
    monkeypatch.setattr(rp, "pow_mod", lambda *args: pytest.fail("_ringops.pow_mod called"))
    for want, f in cases:
        got = factor_finite(Poly.from_raw(field, f))
        assert {g.raw: m for g, m in got} == dict(want), spec
    assert [len(args[1]) - 1 for args in splits] == [6, 6, 4, 9], spec


@pytest.mark.parametrize("spec", ["GF(3)", "GF(9)"])
def test_berlekamp_sweep_failure_names_the_field_and_the_degrees(spec, monkeypatch):
    # a mutant root scan that finds no shift splits nothing
    field = make_field(spec)
    f = _product(field, fields.monic_irreducibles(field, 2, 3))
    monkeypatch.setattr(poly, "_raw_roots", lambda *args: [])
    with pytest.raises(
        ConsistencyError, match="Berlekamp sweep failed to separate equal-degree factors"
    ) as err:
        factor_finite(Poly.from_raw(field, f))
    assert f"a degree-6 product of degree-2 irreducibles over GF({field.order})" in str(err.value)


@pytest.mark.parametrize(
    "spec, modulus, u",
    [("GF(2)(Z)", "X^2-X-Z", "X"), ("GF(3)", "X^3-X-1", "X^2+1"), ("GF(9)", "X^3-X-t", "X^2+t")],
)
def test_min_dependence_failure_names_the_field_and_the_degree(spec, modulus, u, monkeypatch):
    # a mutant echelon step that takes every vector finds no dependence
    field = make_field(spec)
    q, u = Poly.from_string(field, modulus), Poly.from_string(field, u)
    monkeypatch.setattr(_PayloadRows, "extend", lambda self, echelon, vec, combo: (True, combo))
    with pytest.raises(
        ConsistencyError, match="no linear dependence found within the dimension bound"
    ) as err:
        min_poly_in_quotient(u, q)
    assert f"a degree-{q.degree()} modulus over {spec}" in str(err.value)


# ---------------------------------------------------------------------------
# minimal polynomials in quotient rings

def test_min_poly_generator():
    f2z = make_field("GF(2)(Z)")
    q = Poly.from_string(f2z, "X^2-X-Z")
    assert min_poly_in_quotient(Poly.x(f2z), q) == q


def test_min_poly_constant_class():
    f2z = make_field("GF(2)(Z)")
    q = Poly.from_string(f2z, "X^2-X-Z")
    assert min_poly_in_quotient(Poly.one(f2z), q) == Poly.from_string(f2z, "X-1")


def test_min_poly_alpha_square_plus_alpha():
    # in GF(4)(Z)[X]/(X^4-X-Z): u = alpha^2 + alpha satisfies
    # u^2 + u = alpha^4 + alpha = Z exactly, giving X^2+X+Z
    f4z = make_field("GF(4)(Z)")
    q = Poly.from_string(f4z, "X^4-X-Z")
    u = Poly.from_string(f4z, "X^2-X")
    mp = min_poly_in_quotient(u, q)
    assert mp == Poly.from_string(f4z, "X^2+X+Z")
    assert mp.degree() == 2
    # certification: mp(u) = 0 in the quotient and u is not in the base field
    composed = mp.compose(u) % q
    assert composed.is_zero()


def test_min_poly_divides_dimension():
    rng = random.Random(23)
    f9 = make_field("GF(9)")
    q = Poly.from_string(f9, "X^3-X-1")
    assert is_irreducible_finite(q)
    for _ in range(10):
        u = random_poly(f9, rng.randrange(3), rng)
        mp = min_poly_in_quotient(u, q)
        assert 3 % mp.degree() == 0
        assert (mp.compose(u) % q).is_zero()


def _reference_min_poly(field, u, m):
    """The first dependence among 1, u, u^2, ... mod m by an echelon of
    payload lists with unit pivots, each row carrying its combination of
    powers: the loop min_poly_in_quotient ran before it called the row
    algebra, written out with no code shared with poly's echelon."""
    n = len(m) - 1
    zero = field.zero
    echelon = []
    power = (field.one,)
    for j in range(n + 1):
        vec = list(power) + [zero] * (n - len(power))
        combo = [zero] * j + [field.one]
        for row, piv, row_combo in echelon:
            a = vec[piv]
            if a != zero:
                vec = [field.sub(x, field.mul(a, y)) for x, y in zip(vec, row)]
                for i, y in enumerate(row_combo):
                    combo[i] = field.sub(combo[i], field.mul(a, y))
        piv = next((i for i, x in enumerate(vec) if x != zero), None)
        if piv is None:
            return tuple(combo)
        inv = field.inv(vec[piv])
        echelon.append(([field.mul(x, inv) for x in vec], piv, [field.mul(x, inv) for x in combo]))
        power = rp.rem(field, rp.mul(field, power, u), m)
    raise AssertionError("no dependence within the dimension bound")


@pytest.mark.parametrize("spec", ["GF(2)", "GF(3)", "GF(9)", "GF(3)(Z)"])
def test_min_poly_matches_payload_echelon_reference(spec):
    field = make_field(spec)
    rng = random.Random(31)
    max_degree = 3 if field.order is None else 7
    for _ in range(25):
        q = random_poly(field, rng.randrange(1, max_degree + 1), rng, monic=True)
        u = random_poly(field, rng.randrange(2 * q.degree()), rng)
        expected = _reference_min_poly(field, rp.rem(field, u.raw, q.raw), q.raw)
        assert min_poly_in_quotient(u, q) == Poly.from_raw(field, expected), (spec, str(u), str(q))


# ---------------------------------------------------------------------------
# the generalized Artin-Schreier polynomial

@pytest.mark.parametrize(
    "spec, constants",
    [
        ("GF(2)", ["0", "1"]),
        ("GF(9)", ["0", "1", "t", "2*t+1"]),
        ("GF(3)(Z)", ["0", "2", "Z", "(Z+1)/Z^2"]),
        ("GF(4)(Z)", ["0", "t", "Z", "t*Z+1", "1/(Z+t)"]),
    ],
)
def test_gas_poly_matches_coefficient_list(spec, constants):
    field = make_field(spec)
    p = field.char
    for n, e, text in itertools.product((1, 2), (0, 1), constants):
        a = field.element(text)
        coeffs = [field.zero_element()] * (p ** (n + e) + 1)
        coeffs[-1] = field.one_element()
        coeffs[p**e] = coeffs[p**e] - 1
        coeffs[0] = coeffs[0] - a
        assert gas_poly(field, n, e, a) == Poly(field, coeffs), (spec, n, e, text)
        if e == 0:
            assert gas_shape(gas_poly(field, n, 0, a)) == (p, n, a)
    # below degree 2, or of a degree that is not a power of p, no shape
    for text in ("0", "1", "X", "X-1", "X^6-X", f"X^{p}+X^2-X", f"X^{p * p}-X^{p}-1"):
        assert gas_shape(Poly.from_string(field, text)) is None, (spec, text)


def _reference_gas_shape(q):
    """gas_shape as the comparison with a rebuilt gas_poly."""
    field = q.field
    if q.degree() < 2:
        return None
    n, rest = p_power_split(q.degree(), field.char)
    a = -q.coeff(0)
    return (field.char, n, a) if rest == 1 and q == gas_poly(field, n, 0, a) else None


def test_gas_shape_matches_rebuilt_reference():
    # GAS polynomials as built, or with one coefficient changed, extra top
    # terms or their top terms cut off, against the comparison with gas_poly
    rng = random.Random(5)
    shaped = 0
    for spec in ("GF(2)", "GF(3)", "GF(4)", "GF(5)", "GF(9)", "GF(2)(Z)", "GF(3)(Z)", "GF(4)(Z)"):
        field = make_field(spec)
        p = field.char
        for _ in range(60):
            n = rng.randint(1, 2 if p < 5 else 1)
            a = field.element(field.random_payload(rng))
            raw = list(gas_poly(field, n, 0, a).raw)
            case = rng.randrange(4)
            if case == 1:
                raw[rng.randrange(len(raw))] = field.random_payload(rng)
            elif case == 2:
                raw += [field.random_payload(rng) for _ in range(rng.randint(1, 3))]
            elif case == 3:
                raw = raw[: rng.randrange(len(raw))]
            q = Poly.from_raw(field, raw)
            shape = gas_shape(q)
            assert shape == _reference_gas_shape(q), (spec, str(q))
            shaped += shape is not None
    # both answers are exercised: 182 of the 480 cases keep the shape
    assert 100 < shaped < 380


def _one_power_at_a_time(k, f, d):
    """The loop divide_out ran before it squared: one division per power."""
    mult = 0
    while len(f) >= len(d):
        quo, remdr = rp.divmod_(k, f, d)
        if remdr:
            break
        f, mult = quo, mult + 1
    return f, mult


@pytest.mark.parametrize("spec", ["GF(2)", "GF(3)", "GF(9)", "GF(3)(Z)"])
def test_divide_out_matches_one_power_at_a_time(spec):
    # d^mult times a random quadratic, d monic of degree 1-3 (linear over
    # K(Z)); the cofactor may hold d again, so only >= mult is known; over
    # a prime field every row algebra's F[X] that divide_out runs on, over
    # GF(2) the packed one on f and d packed and the quotient unpacked, and
    # the field's _ringops.ring on raw tuples
    field = make_field(spec)
    rings = [_PayloadRows(field)]
    if field.kind == "prime":
        rings.append(_BIT_ROWS if field.p == 2 else _PrimeRows(field))
    rng = random.Random(7)
    for mult in range(41):
        d = random_poly(field, 1 if field.order is None else 1 + mult % 3, rng, monic=True).raw
        f = rp.mul(field, rp.power(field, d, mult), random_poly(field, 2, rng).raw)
        for ring in rings:
            quo, got = ring.divide_out(ring.pack(f), ring.pack(d))
            quo = tuple(ring.unpack(quo, ring.size(quo)))
            assert (quo, got) == _one_power_at_a_time(field, f, d)
            assert got >= mult
        assert rp.ring(field).divide_out(f, d) == _one_power_at_a_time(field, f, d)


# ---------------------------------------------------------------------------
# the operand path of Poly's binary operators and of compose, pow_mod, gcd

def test_int_on_the_left_of_a_poly_swaps_the_operands():
    f3 = make_field("GF(3)")
    p = Poly.from_string(f3, "X^2+2*X")
    assert 1 - p == Poly.from_raw(f3, rp.sub(f3, (1,), p.raw))
    assert 2 * p == Poly.from_raw(f3, rp.mul(f3, (2,), p.raw))
    assert f3.element(2) - p == 2 - p


def test_a_poly_refuses_a_foreign_operand():
    f3 = make_field("GF(3)")
    p = Poly.from_string(f3, "X+1")
    assert p.__mul__("X") is NotImplemented and p.__rsub__(1.5) is NotImplemented
    with pytest.raises(TypeError):
        p * "X"
    with pytest.raises(TypeError):
        1.5 - p
    for call in (lambda: p.pow_mod(2, "X"), lambda: gcd(p, "X"), lambda: p.compose(1.5)):
        with pytest.raises(InputError, match="cannot read"):
            call()


def test_polys_over_two_fields_do_not_mix():
    p3 = Poly.from_string(make_field("GF(3)"), "X+1")
    p9 = Poly.from_string(make_field("GF(9)"), "X+1")
    calls = (lambda: p3 + p9, lambda: p9 - p3, lambda: p3 * p9, lambda: divmod(p3, p9),
             lambda: p3.compose(p9), lambda: p3.pow_mod(2, p9), lambda: gcd(p3, p9))
    for call in calls:
        with pytest.raises(InputError, match="do not mix"):
            call()


def test_poly_operators_look_up_ringops_at_each_call(monkeypatch):
    f9 = make_field("GF(9)")
    p, q = Poly.from_string(f9, "X+t"), Poly.from_string(f9, "X^2+1")
    calls = []
    original = rp.mul

    def counting(k, a, b):
        calls.append((a, b))
        return original(k, a, b)

    monkeypatch.setattr(rp, "mul", counting)
    assert p * q == Poly.from_raw(f9, original(f9, p.raw, q.raw))
    assert calls == [(p.raw, q.raw)]


def test_roots_of_the_zero_polynomial_are_refused():
    for spec in ("GF(2)", "GF(9)"):
        with pytest.raises(InputError, match="zero polynomial"):
            roots_in_finite_field(Poly.zero(make_field(spec)))


# each module function with a non-Poly polynomial argument, given a Poly q,
# and the type name its refusal reads
NON_POLY_CALLS = {
    "gcd": (lambda q: gcd("X", q), "str"),
    "min_poly_in_quotient": (lambda q: min_poly_in_quotient(1.5, q), "float"),
    "min_poly_in_quotient-modulus": (lambda q: min_poly_in_quotient(q, 1.5), "float"),
    "factor_finite": (lambda q: factor_finite(2), "int"),
    "roots_in_finite_field": (lambda q: roots_in_finite_field(2), "int"),
    "is_irreducible_finite": (lambda q: is_irreducible_finite("X"), "str"),
    "separable_part": (lambda q: separable_part(2), "int"),
}


@pytest.mark.parametrize("name", sorted(NON_POLY_CALLS))
def test_module_functions_refuse_a_non_poly_argument(name):
    # the one InputError of Poly._operand, not an AttributeError from
    # reading .field or .is_monic off the argument
    call, type_name = NON_POLY_CALLS[name]
    q = Poly.from_string(make_field("GF(3)"), "X^3-X-1")
    with pytest.raises(InputError, match=f"^cannot read a {type_name} as a polynomial$"):
        call(q)
