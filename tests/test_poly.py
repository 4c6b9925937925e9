import itertools
import random

import pytest

from aslab import _ringops as rp
from aslab.errors import CapExceededError, InputError
from aslab.fields import enumerate_elements, make_field, rabin_irreducible
from aslab.poly import (
    MINUS_INFINITY,
    Poly,
    _equal_degree_split,
    factor_finite,
    gas_poly,
    gas_shape,
    gcd,
    is_irreducible_finite,
    min_poly_in_quotient,
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
    for spec in ("GF(2)", "GF(9)", "GF(3)(Z)"):
        field = make_field(spec)
        for a in [(), (field.one,)] + [random_poly(field, d, rng).raw for d in (1, 2, 3)]:
            acc = (field.one,)
            for n in range(13):
                assert rp.power(field, a, n) == acc, (spec, a, n)
                acc = rp.mul(field, acc, a)


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
    assert all(f(x) != 0 for x in enumerate_elements(f3))
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
            has_root = any(q(x) == 0 for x in enumerate_elements(field))
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
                if rabin_irreducible(field, cand):
                    pieces.add(cand)
                    if len(pieces) == want:
                        break
            if len(pieces) < 2:
                continue
            g = (field.one,)
            for piece in pieces:
                g = rp.mul(field, g, piece)
            split = _equal_degree_split(field, g, d)
            assert len(split) == len(pieces)
            assert set(split) == pieces == set(_exhaustive_equal_degree_split(field, g, d))


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
