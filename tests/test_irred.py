import itertools
import random
import time

import pytest

from aslab import _ringops as rp
from aslab import irred
from aslab.errors import CapExceededError, InputError
from aslab.fields import FieldElement, make_field
from aslab.irred import (
    GasInstance,
    bivariate_irreducible_oracle,
    coprime_difference_irreducible,
    gas_irreducible,
    irreducible,
    oracle_factor,
)
from aslab.poly import Poly, is_irreducible_finite


# ---------------------------------------------------------------------------
# instance validation

def test_gas_instance_rejects_bad_degrees():
    f2 = make_field("GF(2)")
    with pytest.raises(InputError):
        GasInstance(f2, 1, 0, 1, "Z^2-Z")  # degree divisible by p
    with pytest.raises(InputError):
        GasInstance(f2, 1, 0, 1, "1")  # constant g
    with pytest.raises(InputError):
        GasInstance(f2, 0, 0, 1, "Z")
    with pytest.raises(InputError):
        GasInstance(make_field("GF(2)(Z)"), 1, 0, 1, "Z")  # K must be finite


def test_r_decomposition():
    f3 = make_field("GF(3)")
    inst = GasInstance(f3, 1, 0, 18, "Z")
    assert inst.r_decomposition() == (2, 2)  # 18 = 2 * 3^2


# ---------------------------------------------------------------------------
# the criterion

def test_criterion_r_coprime():
    f2 = make_field("GF(2)")
    v = gas_irreducible(GasInstance(f2, 1, 0, 1, "Z"))
    assert v.irreducible and v.condition == "r-coprime-to-p"


def test_criterion_pth_power_witness():
    f2 = make_field("GF(2)")
    v = gas_irreducible(GasInstance(f2, 1, 1, 2, "Z"))
    assert not v.irreducible and v.condition == "pth-power"
    h = GasInstance(f2, 1, 1, 2, "Z").build_h()
    assert v.witness**2 == h
    assert str(v.witness) == "X^2+X+Z"


def test_criterion_e_zero():
    f4 = make_field("GF(4)")
    v = gas_irreducible(GasInstance(f4, 2, 0, 3, "Z"))
    assert v.irreducible
    v2 = gas_irreducible(GasInstance(f4, 2, 0, 2, "Z"))
    assert v2.irreducible and v2.condition == "separable-exponent-zero"


def test_criterion_surfaces_r0_and_s():
    f3 = make_field("GF(3)")
    v = gas_irreducible(GasInstance(f3, 1, 1, 6, "Z"))
    assert (v.r0, v.s) == (2, 1)
    assert not v.irreducible


# ---------------------------------------------------------------------------
# the search oracle

def test_oracle_basic_irreducible():
    f2z = make_field("GF(2)(Z)")
    assert bivariate_irreducible_oracle(Poly.from_string(f2z, "X^2-X-Z"))


def test_oracle_counterexample_with_linear_factor():
    f2z = make_field("GF(2)(Z)")
    h = Poly.from_string(f2z, "X^2-X-(Z^2-Z)")
    factor = oracle_factor(h)
    assert factor is not None and not bivariate_irreducible_oracle(h)
    assert (h % factor).is_zero()
    # X - Z divides: substituting X = Z kills the polynomial
    assert (h % Poly.from_string(f2z, "X-Z")).is_zero()


def test_oracle_perfect_square():
    f2z = make_field("GF(2)(Z)")
    h = Poly.from_string(f2z, "X^4-X^2-Z^2")
    base = Poly.from_string(f2z, "X^2-X-Z")
    assert base * base == h
    assert not bivariate_irreducible_oracle(h)


def test_oracle_univariate_fallback():
    f2z = make_field("GF(2)(Z)")
    assert bivariate_irreducible_oracle(Poly.from_string(f2z, "X^2+X+1"))
    assert not bivariate_irreducible_oracle(Poly.from_string(f2z, "X^2+1"))


@pytest.mark.parametrize("spec", ["GF(2)", "GF(3)", "GF(4)"])
def test_oracle_on_constant_coefficients_matches_rabin(spec):
    # constant coefficients take the CRT search with one modulus of degree
    # 1, monicized like every input; Ben-Or's test over K is the other route
    k = make_field(spec)
    F = make_field(f"{spec}(Z)")
    elements = list(k.enumerate_payloads())
    units = [c for c in elements if c != k.zero]
    rng = random.Random(20)
    inputs = [tuple(rng.choice(elements) for _ in range(d)) + (rng.choice(units),)
              for d in (2, 3, 4, 5, 6) for _ in range(12)]
    if k.order == 3:
        inputs += [(1, 1, 0, 2), (1, 0, 2), (2, 0, 2), (0, 1, 0, 0, 2)]  # 2*X^3+X+1, ...
    for raw in inputs:
        h = Poly(F, [F.constant(FieldElement(k, c)) for c in raw])
        factor = oracle_factor(h)
        verdict = is_irreducible_finite(Poly(k, list(raw)))
        assert bivariate_irreducible_oracle(h) == verdict == (factor is None), raw
        if not verdict:
            assert factor.is_monic() and 1 <= factor.degree() < h.degree(), raw
            assert (h % factor).is_zero(), raw


def test_oracle_caps():
    f2z = make_field("GF(2)(Z)")
    with pytest.raises(CapExceededError):
        bivariate_irreducible_oracle(Poly.from_string(f2z, "X^13-X-Z"))
    f16z = make_field("GF(16)(Z)")
    with pytest.raises(CapExceededError):
        bivariate_irreducible_oracle(Poly.from_string(f16z, "X^2-X-Z"))


def _literal_enumeration_oracle(h):
    """Direct coefficient enumeration over GF(2), for tiny instances only."""
    F = h.field
    k = F.base
    assert k.order == 2
    cols = []
    for num, den in h.raw:
        assert den == (k.one,)
        cols.append(num)
    degx = len(cols) - 1
    degz = max((len(c) - 1 for c in cols if c), default=0)
    for kdeg in range(1, degx // 2 + 1):
        for flat in itertools.product((0, 1), repeat=kdeg * (degz + 1)):
            cand = []
            for j in range(kdeg):
                chunk = flat[j * (degz + 1) : (j + 1) * (degz + 1)]
                cand.append(rp.trim(k, chunk))
            cand.append((k.one,))
            # long division of cols by cand in GF(2)[Z][X]
            num = [list(c) for c in cols]
            ok = True
            for i in range(degx - kdeg, -1, -1):
                c = rp.trim(k, num[i + kdeg])
                if not c:
                    continue
                for j in range(kdeg + 1):
                    if cand[j]:
                        num[i + j] = list(
                            rp.sub(k, rp.trim(k, num[i + j]), rp.mul(k, c, cand[j]))
                        )
            if all(not rp.trim(k, col) for col in num):
                return False
    return True


LITERAL_INSTANCES = (
    "X^2-X-Z",
    "X^2-X-(Z^2-Z)",
    "X^2+Z*X+1",
    "X^2+Z*X+Z",
    "X^3+X+Z",
    "X^3+Z*X+Z^2",
    "X^4-X^2-Z^2",
    "X^4-X^2-Z",
    "X^4+X^2+Z^2+Z",
    "X^4+Z^2*X+Z",
    "X^2+(Z^2+Z)*X+Z^2",
    "X^3+(Z+1)*X^2+X+Z",
)


def test_oracle_against_literal_enumeration():
    f2z = make_field("GF(2)(Z)")
    for s in LITERAL_INSTANCES:
        h = Poly.from_string(f2z, s)
        assert bivariate_irreducible_oracle(h) == _literal_enumeration_oracle(h), s


def test_rational_poly_irreducible_wrapper():
    # irreducible() dispatches: the oracle over K(Z), Ben-Or's test over a finite field
    f3z = make_field("GF(3)(Z)")
    assert irreducible(Poly.from_string(f3z, "X^3-X-Z"))
    assert not irreducible(Poly.from_string(f3z, "X^2-Z^2"))
    f3 = make_field("GF(3)")
    assert irreducible(Poly.from_string(f3, "X^3-X-1"))
    assert not irreducible(Poly.from_string(f3, "X^3-X"))


def test_oracle_handles_fraction_coefficients():
    # clearing denominators leaves a non-unit lead; the monicizing
    # substitution X -> Y/lead reduces to the polynomial case
    f2z = make_field("GF(2)(Z)")
    f = Poly.from_string(f2z, "X^2 - (1/Z)*X")
    factor = oracle_factor(f)
    assert factor.is_monic() and (f % factor).is_zero()

    h = Poly.from_string(f2z, "X^4 - X^2 - Z^2/(Z+1)^2")
    base = Poly.from_string(f2z, "X^2-X-Z/(Z+1)")
    assert base * base == h
    factor = oracle_factor(h)
    assert factor.is_monic() and (h % factor).is_zero()

    assert bivariate_irreducible_oracle(Poly.from_string(f2z, "X^2-X-1/Z"))


# ---------------------------------------------------------------------------
# criterion vs oracle, seeded slice (the full grid runs in the acceptance suite)

def test_criterion_oracle_agreement_sample():
    rng = random.Random(2718)
    specs = ("GF(2)", "GF(3)", "GF(4)")
    checked = 0
    while checked < 15:
        K = make_field(specs[rng.randrange(len(specs))])
        p = K.char
        n = rng.choice((1, 2))
        e = rng.choice((0, 1))
        r = rng.choice((1, 2, 3, p, 2 * p))
        g = Poly.from_raw(K, (K.random_payload(rng), K.one))
        if g.degree() % p == 0:
            continue
        if p ** (n + e) + r > 12:
            continue
        inst = GasInstance(K, n, e, r, g)
        checked += 1
        assert bool(gas_irreducible(inst)) == bivariate_irreducible_oracle(inst.build_h())


# ---------------------------------------------------------------------------
# difference polynomials with coprime degrees

def test_coprime_difference_examples():
    f5 = make_field("GF(5)")
    assert coprime_difference_irreducible(
        Poly.from_string(f5, "X^2-X"), Poly.from_string(f5, "Z^3", var="Z")
    )
    f2 = make_field("GF(2)")
    assert coprime_difference_irreducible(
        Poly.from_string(f2, "X^4-X^2"), Poly.from_string(f2, "Z^3", var="Z")
    )


def test_coprime_difference_rejects_common_degree_factor():
    f3 = make_field("GF(3)")
    with pytest.raises(InputError):
        coprime_difference_irreducible(
            Poly.from_string(f3, "X^2"), Poly.from_string(f3, "Z^2", var="Z")
        )


# ---------------------------------------------------------------------------
# _ringops over K[Z]; the oracle's reach decided from the parameters

def _column_divides(k, num_cols, div_cols):
    """The deleted column-by-column K[Z][X] division test, as reference."""
    num = [list(c) for c in num_cols]
    nd = len(num) - 1
    dd = len(div_cols) - 1
    if dd > nd:
        return False
    for i in range(nd - dd, -1, -1):
        c = rp.trim(k, num[i + dd])
        if not c:
            continue
        for j in range(dd + 1):
            if div_cols[j]:
                num[i + j] = list(rp.sub(k, rp.trim(k, num[i + j]), rp.mul(k, c, div_cols[j])))
    return all(not rp.trim(k, col) for col in num)


@pytest.mark.parametrize("spec", ["GF(2)", "GF(3)", "GF(4)"])
def test_divmod_over_kz_matches_the_deleted_division_test(spec):
    k = make_field(spec)
    kz = rp.PolyRing(k)
    rng = random.Random(spec)

    def kz_poly(deg):
        return rp.trim(k, tuple(k.random_payload(rng) for _ in range(deg + 1)))

    divides = 0
    for _ in range(300):
        div = [kz_poly(rng.randrange(3)) for _ in range(rng.randrange(1, 3))] + [kz.one]
        cof = [kz_poly(rng.randrange(3)) for _ in range(rng.randrange(0, 3))] + [kz.one]
        num = rp.mul(kz, cof, div)
        if rng.random() < 0.5:
            num = rp.add(kz, num, (kz_poly(2),))
        num = list(num)
        quo, rem = rp.divmod_(kz, num, div)
        assert (not rem) == _column_divides(k, num, div)
        assert rp.add(kz, rp.mul(kz, quo, div), rem) == tuple(num)
        divides += not rem
    assert 0 < divides < 300


def test_poly_ring_with_a_modulus_reduces_products():
    k = make_field("GF(3)")
    m = (1, 0, 1)  # T^2 + 1, irreducible over GF(3)
    ring = rp.PolyRing(k, m)
    t = (0, 1)
    assert ring.mul(t, t) == (2,)  # T^2 = -1
    assert rp.mul(ring, (t, ring.one), (t, ring.one)) == ((2,), (0, 2), ring.one)


def test_oracle_reach_matches_the_built_polynomial():
    # the decision the CLI made from h's payloads, on a grid around the cap
    for spec in ("GF(2)", "GF(3)", "GF(4)", "GF(9)", "GF(16)"):
        K = make_field(spec)
        for n, e, r, g in itertools.product((1, 2, 3), (0, 1), (1, 2, 3, 6), ("Z", "Z^2+Z+1")):
            if Poly.from_string(K, g, var="Z").degree() % K.char == 0:
                continue
            inst = GasInstance(K, n, e, r, g)
            if inst.p ** (n + e) > 64:
                assert not inst.oracle_reaches()
                continue
            h = inst.build_h()
            degz = max((len(num) - 1 for num, _den in h.raw if num), default=0)
            expected = K.order <= 9 and h.degree() + degz <= 12
            assert inst.oracle_reaches() == expected, inst


def test_oracle_reach_needs_no_power():
    t0 = time.perf_counter()
    inst = GasInstance(make_field("GF(2)"), 10**12, 10**12, 1, "Z")
    assert not inst.oracle_reaches()
    assert gas_irreducible(inst).condition == "r-coprime-to-p"
    assert time.perf_counter() - t0 < 1.0


def test_witness_caps_refuse_before_building():
    f2 = make_field("GF(2)")
    assert gas_irreducible(GasInstance(f2, 15, 1, 2, "Z")).condition == "pth-power"
    with pytest.raises(CapExceededError, match="X-degree 2\\^17, over cap 65536"):
        gas_irreducible(GasInstance(f2, 16, 1, 2, "Z"))
    assert gas_irreducible(GasInstance(f2, 1, 1, 1024, "Z")).condition == "pth-power"
    with pytest.raises(CapExceededError, match="Z-degree r \\* deg g = 1026, over cap 1024"):
        gas_irreducible(GasInstance(f2, 1, 1, 342, "Z^3+Z+1"))


# ---------------------------------------------------------------------------
# the CRT loop of oracle_factor: columns reduced mod the product of the
# moduli, with the top column 1

def _kz_columns(k, rng, degx, degz, lead):
    """Raw K[Z] columns of a polynomial of X-degree degx whose non-lead
    columns have Z-degree at most degz, at least one of them non-constant;
    the top column is lead."""
    while True:
        cols = [rp.trim(k, tuple(k.random_payload(rng) for _ in range(degz + 1)))
                for _ in range(degx)]
        if any(len(col) > 1 for col in cols):
            return cols + [lead]


def _monicized_total_degree(cols):
    """X-degree plus Z-degree of the input after X -> Y / lead, as the
    oracle's cap reads it."""
    degx, lead_deg = len(cols) - 1, len(cols[-1]) - 1
    return degx + max(len(col) - 1 + (degx - 1 - j) * lead_deg
                      for j, col in enumerate(cols[:-1]) if col)


def _seeded_products(spec):
    """Eight products f * g over spec(Z), with non-constant Z-coefficients
    in both; a third of the factors have the Z-lead Z + c, so the product
    takes the monicizing substitution."""
    k = make_field(spec)
    F = make_field(f"{spec}(Z)")
    kz = rp.PolyRing(k)
    units = [c for c in k.enumerate_payloads() if c != k.zero]
    rng = random.Random(("crt", spec).__repr__())
    found = 0
    while found < 8:
        factors = []
        for degx in (rng.choice((1, 2)), rng.choice((1, 2))):
            lead = (rng.choice(units), k.one) if rng.randrange(3) == 0 else (k.one,)
            factors.append(_kz_columns(k, rng, degx, rng.choice((1, 2)), lead))
        cols = list(rp.mul(kz, *factors))
        if _monicized_total_degree(cols) > 12:
            continue
        found += 1
        yield Poly(F, [F.fraction(col, (k.one,)) for col in cols])


def _gf2_monic_inputs():
    """Forty polynomials over GF(2)(Z), monic in X, deg_X <= 4 and
    deg_Z <= 2, reducible and irreducible."""
    k = make_field("GF(2)")
    F = make_field("GF(2)(Z)")
    rng = random.Random(31)
    for _ in range(40):
        cols = _kz_columns(k, rng, rng.randrange(2, 5), rng.randrange(1, 3), (k.one,))
        yield Poly(F, [F.fraction(col, (k.one,)) for col in cols])


@pytest.mark.parametrize("spec", ["GF(2)", "GF(3)", "GF(4)"])
def test_oracle_factor_finds_a_factor_of_seeded_products(spec):
    non_unit_leads = 0
    for h in _seeded_products(spec):
        factor = oracle_factor(h)
        assert factor is not None, h
        assert factor.is_monic() and 1 <= factor.degree() < h.degree(), (h, factor)
        assert (h % factor).is_zero(), (h, factor)
        non_unit_leads += not h.is_monic()
    assert non_unit_leads > 0


def test_oracle_factor_over_gf2_matches_literal_enumeration():
    verdicts = []
    for h in _gf2_monic_inputs():
        factor = oracle_factor(h)
        assert (factor is None) == _literal_enumeration_oracle(h), h
        if factor is not None:
            assert factor.is_monic() and (h % factor).is_zero(), (h, factor)
        verdicts.append(factor is None)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("spec, poly", [("GF(2)(Z)", "X+Z"), ("GF(3)(Z)", "X+Z^2+1")])
def test_oracle_factor_of_degree_one_is_none(spec, poly):
    h = Poly.from_string(make_field(spec), poly)
    assert oracle_factor(h) is None
    assert bivariate_irreducible_oracle(h)


# ---------------------------------------------------------------------------
# the constant-column test before each trial division: f(0) | h(0)

def test_divides_in_kz_matches_the_remainder():
    k = make_field("GF(3)")
    rng = random.Random(32)
    polys = [()] + [rp.trim(k, tuple(rng.randrange(3) for _ in range(rng.randrange(1, 5))))
                    for _ in range(20)]
    for a in polys:
        for d in polys:
            expected = not rp.divmod_(k, a, d)[1] if d else not a
            assert irred._divides(k, d, a) == expected, (d, a)


def _oracle_inputs():
    yield from (h for spec in ("GF(2)", "GF(3)", "GF(4)") for h in _seeded_products(spec))
    f2z = make_field("GF(2)(Z)")
    yield from (Poly.from_string(f2z, s) for s in LITERAL_INSTANCES)
    yield from _gf2_monic_inputs()


def test_constant_column_test_keeps_the_first_factor(monkeypatch):
    # every true factor passes the test, so oracle_factor finds the factor
    # (or None) that it finds with the test switched off; the test must rule
    # some candidates out, or it is not exercised
    real_divides = irred._divides
    ruled_out = []

    def counted(k, d, a):
        ok = real_divides(k, d, a)
        ruled_out.append(not ok)
        return ok

    for h in _oracle_inputs():
        with monkeypatch.context() as patch:
            patch.setattr(irred, "_divides", lambda k, d, a: True)
            expected = oracle_factor(h)
        with monkeypatch.context() as patch:
            patch.setattr(irred, "_divides", counted)
            assert oracle_factor(h) == expected, h
    assert any(ruled_out) and not all(ruled_out)
