import itertools
import random

import pytest

from aslab import _ringops as rp
from aslab.errors import CapExceededError, InputError
from aslab.fields import make_field
from aslab.irred import (
    GasInstance,
    bivariate_irreducible_oracle,
    coprime_difference_irreducible,
    gas_irreducible,
    irreducible,
)
from aslab.poly import Poly


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
    verdict, factor = bivariate_irreducible_oracle(h, return_factor=True)
    assert not verdict
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


def test_oracle_against_literal_enumeration():
    f2z = make_field("GF(2)(Z)")
    instances = [
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
    ]
    for s in instances:
        h = Poly.from_string(f2z, s)
        assert bivariate_irreducible_oracle(h) == _literal_enumeration_oracle(h), s


def test_rational_poly_irreducible_wrapper():
    # irreducible() dispatches: the oracle over K(Z), Rabin over a finite field
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
    verdict, factor = bivariate_irreducible_oracle(f, return_factor=True)
    assert not verdict and (f % factor).is_zero()

    h = Poly.from_string(f2z, "X^4 - X^2 - Z^2/(Z+1)^2")
    base = Poly.from_string(f2z, "X^2-X-Z/(Z+1)")
    assert base * base == h
    verdict, factor = bivariate_irreducible_oracle(h, return_factor=True)
    assert not verdict and (h % factor).is_zero()

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
