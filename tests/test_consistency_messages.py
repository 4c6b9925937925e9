"""Every ConsistencyError of the Dickson routes, the p-th-power witness and
the K(Z) root search keeps its check's text first and then names the
instance: the field, and the subspace, the GAS instance or the search.
Each case forces its error with a monkeypatched helper."""

import types

import pytest

from aslab import ad_analyzer, dickson, irred
from aslab.dickson import SubspaceR, intermediate_minpoly_product, primitive_element
from aslab.errors import ConsistencyError
from aslab.fields import make_field
from aslab.irred import GasInstance, gas_irreducible
from aslab.poly import Poly, gas_poly


def _gf9_line():
    """(R, q): the line R spanned by 1 in GF(9), q = X^9 - X - Z over GF(9)(Z)."""
    f9z = make_field("GF(9)(Z)")
    return SubspaceR.from_basis(f9z.base, [f9z.base.element(1)]), gas_poly(f9z, 2, 0, f9z.gen())


def _gf4_line():
    """(R, q): the line R spanned by 1 in GF(4), q = X^4 - X - Z over GF(4)(Z)."""
    f4z = make_field("GF(4)(Z)")
    return SubspaceR.from_basis(f4z.base, [f4z.base.element(1)]), gas_poly(f4z, 2, 0, f4z.gen())


def _cofactor(monkeypatch):
    # both routes agree on f_R = Y^3 - cY for a non-square c of GF(9), which
    # does not right-divide Y^9 - Y
    r, q = _gf9_line()
    k = r.ambient
    c = next(x for x in k.enumerate_payloads() if x != k.zero and k.pow_int(x, 4) != k.one)
    phi = [k.neg(c), k.one]
    monkeypatch.setattr(dickson, "_dickson_recursion", lambda field, basis: phi)
    monkeypatch.setattr(
        dickson, "f_r_polynomial", lambda subspace: Poly.from_raw(k, dickson._spread(k, phi, 3))
    )
    primitive_element(r, q)


def _product(monkeypatch):
    r, q = _gf9_line()
    real = dickson.f_r_polynomial
    monkeypatch.setattr(dickson, "f_r_polynomial", lambda subspace: real(subspace) + 1)
    primitive_element(r, q)


def _lower_bound(monkeypatch):
    # alpha_R built from f_R without its top coefficient has X-degree 1
    r, q = _gf9_line()
    real = dickson._spread
    monkeypatch.setattr(
        dickson,
        "_spread",
        lambda k, coeffs, p: real(k, coeffs[:-1] if k.order is None else coeffs, p),
    )
    primitive_element(r, q)


def _fake_alpha(text):
    def force(monkeypatch):
        r, q = _gf4_line()
        fake = types.SimpleNamespace(alpha_h=Poly.from_string(q.field, text))
        monkeypatch.setattr(dickson, "primitive_element", lambda *args: fake)
        intermediate_minpoly_product(r, q)

    return force


def _reconstruct(monkeypatch):
    # one coset representative: the product is mu alone, not q
    r, q = _gf4_line()
    real = dickson.enumerate_elements
    monkeypatch.setattr(dickson, "enumerate_elements", lambda field: list(real(field))[:1])
    intermediate_minpoly_product(r, q)


def _witness(monkeypatch):
    # g = Z over GF(4), r = 2, e = 1: every condition fails, and a wrong
    # p-th root of g's coefficients gives a witness whose square is not h
    k = make_field("GF(4)")
    real = irred.pth_roots
    monkeypatch.setattr(
        irred, "pth_roots", lambda field, coeffs: tuple(k.add(c, k.one) for c in real(field, coeffs))
    )
    gas_irreducible(GasInstance(k, 1, 1, 2, "Z"))


def _zero_root(monkeypatch):
    f = Poly.from_string(make_field("GF(3)(Z)"), "X^2-Z")
    real = ad_analyzer._clear_denominators
    monkeypatch.setattr(
        ad_analyzer, "_clear_denominators", lambda h: ([()] + real(h)[0][1:], real(h)[1])
    )
    ad_analyzer._rational_roots(f)


GF9_LINE = r"over GF\(9\)\(Z\), SubspaceR\(dim=1, basis=\[1\]\)$"
GF4_LINE = r"intermediate_minpoly_product over GF\(4\)\(Z\), SubspaceR\(dim=1, basis=\[1\]\)$"


@pytest.mark.parametrize(
    "force, message",
    [
        (_cofactor, r"^right division of Y\^\(3\^2\) - Y by f_R fails at the coefficient of "
                    r"Y\^\(3\^0\), f_R of degree 3\^1: f_R = Y\^3\+.*Y over GF\(9\)$"),
        (_product, r"^product route and Dickson recursion disagree: primitive_element " + GF9_LINE),
        (_lower_bound, r"^lower bound on \[F\(alpha_R\):F\]: alpha_R has X-degree 1, "
                       r"expected 3\^1: primitive_element " + GF9_LINE),
        (_fake_alpha("1"), r"^powers of alpha_R are linearly dependent too early: " + GF4_LINE),
        (_fake_alpha("X^2"), r"^a coefficient of mu lies outside F\[alpha_R\]: " + GF4_LINE),
        (_reconstruct, r"^conjugate product does not reconstruct q: " + GF4_LINE),
        (_witness, r"^constructed p-th root does not recompose the input: "
                   r"GasInstance\(K=GF\(4\), n=1, e=1, r=2, g=Z\)$"),
        (_zero_root, r"^zero root should have been removed already: root search over "
                     r"GF\(3\)\(Z\), degree 2$"),
    ],
    ids=["cofactor", "product", "lower-bound", "dependent", "outside", "reconstruct",
         "witness", "zero-root"],
)
def test_consistency_error_names_the_check_and_the_instance(force, message, monkeypatch):
    with pytest.raises(ConsistencyError, match=message):
        force(monkeypatch)
