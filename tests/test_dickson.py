import itertools
import types

import pytest

from aslab import dickson
from aslab.dickson import (
    SubspaceR,
    dickson_phi,
    enumerate_subspaces,
    f_r_polynomial,
    gaussian_binomial,
    intermediate_minpoly_product,
    primitive_element,
    property_p,
)
from aslab.errors import CapExceededError, ConsistencyError, InputError
from aslab.fields import enumerate_elements, frobenius, make_field
from aslab.poly import Poly, gas_poly


def standard_q(field, n):
    return gas_poly(field, n, 0, field.gen())


# ---------------------------------------------------------------------------
# symbolic Dickson forms

def test_phi_0_is_a():
    form = dickson_phi(0, 2)
    assert form.phi_string() == "A"


def test_phi_1_coefficient():
    # f_0 = -B_1^(p-1)
    form2 = dickson_phi(1, 2)
    assert form2.coefficient_string(0) == "B_1"
    form3 = dickson_phi(1, 3)
    assert form3.coefficient_string(0) == "2*B_1^2"


def test_phi_2_matches_direct_product():
    for p in (2, 3):
        form = dickson_phi(2, p)
        assert form.phi == form.expanded_product()


def test_phi_3_matches_direct_product_char2():
    form = dickson_phi(3, 2)
    assert form.phi == form.expanded_product()


def test_phi_rejects_out_of_cap():
    with pytest.raises(CapExceededError):
        dickson_phi(5, 2)
    with pytest.raises(CapExceededError):
        dickson_phi(2, 5)


def test_phi_value_depends_only_on_the_span():
    # evaluating the full form at two bases of one plane gives equal values
    f9 = make_field("GF(9)")
    form = dickson_phi(2, 3)
    b1, b2 = f9.element(1), f9.element("t")
    alt1, alt2 = f9.element("t+1"), f9.element("2*t")  # 1 + t and 2t span the same plane
    r1 = SubspaceR.from_basis(f9, [b1, b2])
    r2 = SubspaceR.from_basis(f9, [alt1, alt2])
    assert r1 == r2
    for x in enumerate_elements(f9):
        v1 = _eval_phi(form, x, [b1, b2])
        v2 = _eval_phi(form, x, [alt1, alt2])
        assert v1 == v2


def _eval_phi(form, a_val, basis):
    from aslab.dickson import _mv_eval

    field = a_val.field
    return _mv_eval(form.phi, [a_val] + list(basis), field)


def test_phi_with_dependent_arguments_breaks_the_coefficient_pattern():
    # with b1 = b2 = 1 over GF(2) the expansion is (A^2+A)^2 = A^4 + A^2,
    # so f_1 evaluates to 1 instead of 0
    form = dickson_phi(2, 2)
    f2 = make_field("GF(2)")
    one = f2.element(1)
    assert form.evaluate_coefficient(1, [one, one]) == 1
    assert form.evaluate_coefficient(0, [one, one]) == 0


def test_symbolic_coefficients_match_product_route():
    # f_j evaluated at a basis equals the coefficient read off the expanded
    # product, for planes of GF(27) and a 3-dimensional subspace of GF(81)
    f27 = make_field("GF(27)")
    f27z = make_field("GF(27)(Z)")
    q27 = standard_q(f27z, 3)
    form2 = dickson_phi(2, 3)
    for r in enumerate_subspaces(f27, 2)[:6]:
        res = primitive_element(r, q27)
        for j in range(2):
            assert form2.evaluate_coefficient(j, list(r.basis)) == res.coefficients[j]
    f81 = make_field("GF(81)")
    f81z = make_field("GF(81)(Z)")
    q81 = standard_q(f81z, 4)
    form3 = dickson_phi(3, 3)
    r3 = enumerate_subspaces(f81, 3)[0]
    res = primitive_element(r3, q81)
    for j in range(3):
        assert form3.evaluate_coefficient(j, list(r3.basis)) == res.coefficients[j]


# ---------------------------------------------------------------------------
# subspace enumeration

def test_lines_of_gf4():
    f4 = make_field("GF(4)")
    subs = enumerate_subspaces(f4, 1)
    assert len(subs) == 3
    assert sorted(str(s.basis[0]) for s in subs) == ["1", "t", "t+1"]


def test_zero_subspace():
    f4 = make_field("GF(4)")
    subs = enumerate_subspaces(f4, 0)
    assert len(subs) == 1 and subs[0].dim == 0
    assert [str(x) for x in subs[0].elements] == ["0"]


def test_lines_of_gf8():
    assert len(enumerate_subspaces(make_field("GF(8)"), 1)) == 7
    assert gaussian_binomial(3, 1, 2) == 7


def test_subspace_counts_match_gaussian_binomials():
    for spec, n, p in (("GF(8)", 3, 2), ("GF(16)", 4, 2), ("GF(27)", 3, 3)):
        field = make_field(spec)
        for m in range(n + 1):
            assert len(enumerate_subspaces(field, m)) == gaussian_binomial(n, m, p)


def test_subspace_cap():
    with pytest.raises(CapExceededError):
        enumerate_subspaces(make_field("GF(729)"), 3)


def test_from_elements_requires_closure():
    f4 = make_field("GF(4)")
    with pytest.raises(InputError):
        SubspaceR.from_elements(f4, [f4.element(0), f4.element(1), f4.element("t")])


def test_from_basis_rejects_dependent_vectors():
    f4 = make_field("GF(4)")
    with pytest.raises(InputError):
        SubspaceR.from_basis(f4, [f4.element(1), f4.element(1)])


# ---------------------------------------------------------------------------
# f_R and property P

def test_f_r_of_zero_subspace():
    f9 = make_field("GF(9)")
    poly, in_prime = f_r_polynomial(SubspaceR.from_basis(f9, []))
    assert poly.to_string("Y") == "Y" and in_prime


def test_f_r_of_subfield_is_additive_power():
    f9 = make_field("GF(9)")
    r = SubspaceR.from_basis(f9, [f9.element(1)])
    poly, in_prime = f_r_polynomial(r)
    assert poly == Poly.x_power(f9, 3) - Poly.x(f9)
    assert in_prime


def test_property_p_for_subfields():
    f16 = make_field("GF(16)")
    r = SubspaceR.from_elements(
        f16, [x for x in enumerate_elements(f16) if x**4 == x]
    )
    assert r.dim == 2 and r.is_subfield()
    assert property_p(r)


def test_property_p_nonfield_line_in_gf9():
    # roots of Y^3 - cY for c != 0, 1: Frobenius-invariant but not a field.
    # enumerate usable c and record which produce such a line
    f9 = make_field("GF(9)")
    usable = []
    for c in (2,):
        roots = [x for x in enumerate_elements(f9) if x**3 - x * c == 0]
        if len(roots) == 3:
            r = SubspaceR.from_elements(f9, roots)
            if property_p(r) and not r.is_subfield():
                usable.append(c)
    assert usable == [2]


def test_property_p_fails_for_some_line_and_coefficients_leave_prime_field():
    f9 = make_field("GF(9)")
    f9z = make_field("GF(9)(Z)")
    q = standard_q(f9z, 2)
    findings = []
    for r in enumerate_subspaces(f9, 1):
        res = primitive_element(r, q)
        assert property_p(r) == res.property_p
        if not property_p(r):
            findings.append(res)
    assert findings  # some line is not Frobenius-invariant
    assert any(c != 0 and frobenius(c) != c for res in findings for c in res.coefficients)


# ---------------------------------------------------------------------------
# primitive elements

def test_alpha_for_full_group_is_the_constant_term():
    for spec, n in (("GF(2)(Z)", 1), ("GF(4)(Z)", 2)):
        field = make_field(spec)
        q = standard_q(field, n)
        ambient = field.base
        r = SubspaceR.from_elements(ambient, enumerate_elements(ambient))
        res = primitive_element(r, q)
        assert res.alpha_h == Poly.constant(field, field.gen())
        assert res.degree_over_f == 1


def test_alpha_for_subfield_is_power_difference():
    f4z = make_field("GF(4)(Z)")
    q = standard_q(f4z, 2)
    f4 = f4z.base
    r = SubspaceR.from_basis(f4, [f4.element(1)])  # the prime subfield
    res = primitive_element(r, q)
    assert res.alpha_h == (Poly.x_power(f4z, 2) - Poly.x(f4z)) % q
    assert res.degree_over_f == 2
    assert res.property_p


def test_subfield_basis_gives_minus_one_and_zeros():
    # coefficients of alpha_R for R a subfield: c_0 = -1, the rest vanish
    f16z = make_field("GF(16)(Z)")
    q = standard_q(f16z, 4)
    f16 = f16z.base
    subfield_elems = [x for x in enumerate_elements(f16) if x**4 == x]
    r = SubspaceR.from_elements(f16, subfield_elems)
    assert r.dim == 2
    res = primitive_element(r, q)
    assert res.coefficients[0] == -f16.one_element()
    assert all(c == 0 for c in res.coefficients[1:])
    # cross-check via the symbolic Dickson form at the same basis
    form = dickson_phi(2, 2)
    assert form.evaluate_coefficient(0, list(r.basis)) == -f16.one_element()
    assert form.evaluate_coefficient(1, list(r.basis)) == 0


def test_degree_law_over_gf8():
    f8z = make_field("GF(8)(Z)")
    q = standard_q(f8z, 3)
    f8 = f8z.base
    for m in range(4):
        for r in enumerate_subspaces(f8, m):
            res = primitive_element(r, q)
            assert res.degree_over_f == 2 ** (3 - m)
            assert (res.minimal_polynomial.compose(res.alpha_h) % q).is_zero()


def test_primitive_element_certify_flag():
    f2z = make_field("GF(2)(Z)")
    q = standard_q(f2z, 1)
    f2 = f2z.base
    r = SubspaceR.from_basis(f2, [f2.element(1)])
    res = primitive_element(r, q, check_irreducible=True)
    assert res.degree_over_f == 1
    # a reducible q is rejected when certification is requested
    bad = Poly.from_string(f2z, "X^2-X-(Z^2-Z)")
    with pytest.raises(InputError):
        primitive_element(r, bad, check_irreducible=True)


def test_primitive_element_rejects_wrong_ambient():
    f4z = make_field("GF(4)(Z)")
    q = standard_q(f4z, 2)
    f9 = make_field("GF(9)")
    with pytest.raises(InputError):
        primitive_element(SubspaceR.from_basis(f9, [f9.element(1)]), q)


# ---------------------------------------------------------------------------
# galois action

def test_shift_action_is_additive():
    # sigma_b(alpha) = alpha + b: composing two shifts adds the shifts, and
    # every shift fixes q
    f4z = make_field("GF(4)(Z)")
    q = standard_q(f4z, 2)
    f4 = f4z.base
    for b in enumerate_elements(f4):
        bz = f4z.constant(b)
        shifted = q.compose(Poly(f4z, [bz, 1])) % q
        assert shifted == q % q  # q(alpha + b) = 0 in the quotient
        for c in enumerate_elements(f4):
            cz = f4z.constant(c)
            once = Poly(f4z, [bz, 1]).compose(Poly(f4z, [cz, 1]))
            direct = Poly(f4z, [bz + cz, 1])
            assert once == direct


# ---------------------------------------------------------------------------
# minimal polynomials over intermediate fields

def test_minpoly_product_trivial_subgroup():
    f2z = make_field("GF(2)(Z)")
    q = standard_q(f2z, 1)
    f2 = f2z.base
    rep = intermediate_minpoly_product(SubspaceR.from_basis(f2, []), q)
    assert rep["mu_degree"] == 1
    assert rep["reconstructs_q"] and rep["coefficients_in_fixed_field"]


def test_minpoly_product_full_group():
    f2z = make_field("GF(2)(Z)")
    q = standard_q(f2z, 1)
    f2 = f2z.base
    rep = intermediate_minpoly_product(
        SubspaceR.from_elements(f2, enumerate_elements(f2)), q
    )
    assert rep["mu_degree"] == 2 and rep["cosets"] == 1
    assert rep["reconstructs_q"]


def test_minpoly_product_gf4_example():
    f4z = make_field("GF(4)(Z)")
    q = standard_q(f4z, 2)
    f4 = f4z.base
    rep = intermediate_minpoly_product(SubspaceR.from_basis(f4, [f4.element(1)]), q)
    assert rep["mu"] == "X^2+X+(a^2+a)"
    assert rep["reconstructs_q"] and rep["coefficients_in_fixed_field"]


@pytest.mark.parametrize(
    "fake_alpha, message",
    [
        # powers of a constant repeat at once
        ("1", "linearly dependent too early"),
        # 1 and alpha^2 are independent, but mu's constant alpha^2 + alpha
        # lies outside their span
        ("X^2", "outside F\\[alpha_R\\]"),
    ],
)
def test_minpoly_product_span_certificate_rejects_a_wrong_alpha(monkeypatch, fake_alpha, message):
    f4z = make_field("GF(4)(Z)")
    q = standard_q(f4z, 2)
    r = SubspaceR.from_basis(f4z.base, [f4z.base.element(1)])
    fake = types.SimpleNamespace(alpha_h=Poly.from_string(f4z, fake_alpha))
    monkeypatch.setattr(dickson, "primitive_element", lambda *args: fake)
    with pytest.raises(ConsistencyError, match=message):
        intermediate_minpoly_product(r, q)


# ---------------------------------------------------------------------------
# the large-field example

def test_root_plane_of_additive_product_in_gf729():
    f729 = make_field("GF(729)")
    roots = [x for x in enumerate_elements(f729) if x**9 + x**3 + x == 0]
    assert len(roots) == 9
    r = SubspaceR.from_elements(f729, roots)
    assert r.dim == 2
    assert r.is_frobenius_invariant()
    assert not r.is_subfield()
    poly, in_prime = f_r_polynomial(r)
    assert in_prime
    assert poly == Poly.x_power(f729, 9) + Poly.x_power(f729, 3) + Poly.x(f729)
    # and the product of the three degree-3 additive shifts reproduces it
    prod = Poly.one(f729)
    for j in range(3):
        prod = prod * (
            Poly.x_power(f729, 3) - Poly.x(f729) - Poly.constant(f729, f729.element(j))
        )
    assert prod == poly


# ---------------------------------------------------------------------------
# one span, one subfield test: the deleted loops as references

def _product_span(ambient, basis):
    """The span by the product over coefficient tuples that from_basis ran."""
    out = {}
    for coeffs in itertools.product(range(ambient.char), repeat=len(basis)):
        acc = ambient.zero_element()
        for c, b in zip(coeffs, basis):
            if c:
                acc = acc + b * c
        out[acc.sort_key()] = acc
    return out


def _loop_is_subfield(r):
    """The multiplication loop that SubspaceR.is_subfield ran."""
    keys = {v.sort_key() for v in r.elements}
    if r.ambient.one_element().sort_key() not in keys:
        return False
    return all((x * y).sort_key() in keys for x in r.elements for y in r.elements)


@pytest.mark.parametrize("spec", ["GF(4)", "GF(8)", "GF(9)", "GF(16)", "GF(27)", "GF(25)"])
def test_span_and_subfield_test_match_the_deleted_loops(spec):
    ambient = make_field(spec)
    subfields = 0
    for m in range(ambient.n + 1):
        for r in enumerate_subspaces(ambient, m):
            span = _product_span(ambient, list(r.basis))
            assert tuple(sorted(span.values(), key=lambda v: v.sort_key())) == r.elements
            again = SubspaceR.from_elements(ambient, reversed(r.elements))
            assert again == r and again.dim == m
            assert r.is_subfield() == _loop_is_subfield(r)
            subfields += r.is_subfield()
    # GF(p^n) has one subfield per divisor of n
    assert subfields == sum(1 for d in range(1, ambient.n + 1) if ambient.n % d == 0)


def test_from_basis_and_from_elements_keep_their_messages():
    f9 = make_field("GF(9)")
    t = f9.gen()
    with pytest.raises(InputError, match="linearly dependent"):
        SubspaceR.from_basis(f9, [t, t * 2])
    with pytest.raises(InputError, match="not closed under addition"):
        SubspaceR.from_elements(f9, [f9.zero_element(), t, t * 2, f9.one_element()])
