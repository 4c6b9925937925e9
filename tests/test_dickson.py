import hashlib
import itertools
import json
import random
import sys
import threading
import types

import pytest

from aslab import _ringops as rp
from aslab import dickson, fields
from aslab.dickson import (
    SubspaceR,
    dickson_phi,
    enumerate_subspaces,
    f_r_polynomial,
    gaussian_binomial,
    intermediate_minpoly_product,
    primitive_element,
)
from aslab.errors import CapExceededError, ConsistencyError, InputError
from aslab.fields import embed_subfield, enumerate_elements, frobenius, make_field
from aslab.poly import Poly, gas_poly, min_poly_in_quotient


def standard_q(field, n):
    return gas_poly(field, n, 0, field.gen())


def in_prime_field(poly):
    """Whether every coefficient of poly is fixed by Frobenius."""
    return all(poly.field.frobenius(c) == c for c in poly.raw)


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


def test_phi_matches_direct_product():
    # the other forms within the cap but (4, 3), whose expansion takes about
    # 20 s; test_rank_4_char_3_coefficients_match_product_route checks it
    checked_above = {(2, 2), (2, 3), (3, 2)}
    for m, p in itertools.product(range(5), (2, 3)):
        if (m, p) != (4, 3) and (m, p) not in checked_above:
            form = dickson_phi(m, p)
            assert form.phi == form.expanded_product(), (m, p)


def test_rank_4_char_3_coefficients_match_product_route():
    # f_j at a basis of a 4-dimensional subspace of GF(729) is the
    # coefficient of Y^(3^j) in the expanded product over its 81 elements
    f729 = make_field("GF(729)")
    form = dickson_phi(4, 3)
    rng = random.Random(17)
    checked = 0
    while checked < 3:
        basis = [f729.element(f729.random_payload(rng)) for _ in range(4)]
        try:
            r = SubspaceR.from_basis(f729, basis)
        except InputError:
            continue
        fr = f_r_polynomial(r)
        for j in range(4):
            assert form.evaluate_coefficient(j, basis) == fr.coeff(3**j), (j, r)
        checked += 1


def test_forms_within_the_cap_are_pinned():
    # the printed strings of all ten forms within the cap
    rows = [
        [p, m, f.phi_string(), [f.coefficient_string(j) for j in range(m)]]
        for p in (2, 3)
        for m in range(5)
        for f in [dickson_phi(m, p)]
    ]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
    assert digest == "6797d7e33794f1b3"


def test_form_cache_under_threads():
    # threads that ask for one uncached form at once all get the cached object
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            dickson._dickson_cache.pop((4, 3), None)
            results = []
            threads = [
                threading.Thread(target=lambda: results.append(dickson_phi(4, 3)))
                for _ in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert len(results) == 6
            assert all(form is dickson._dickson_cache[(4, 3)] for form in results)
    finally:
        sys.setswitchinterval(old_interval)


def test_phi_rejects_out_of_cap():
    with pytest.raises(CapExceededError):
        dickson_phi(5, 2)
    with pytest.raises(CapExceededError):
        dickson_phi(2, 5)


def test_phi_negative_rank_is_bad_input_not_a_cap():
    with pytest.raises(InputError, match="m >= 0") as info:
        dickson_phi(-1, 2)
    assert not isinstance(info.value, CapExceededError)


@pytest.mark.parametrize("p", [2, 3])
def test_mv_ring_pow_int_matches_repeated_products(p):
    ring = dickson._MvRing(p, 2)
    a = ring.add(ring.add(ring.variable(0), ring.variable(1, p - 1)), ring.one)
    for x in (ring.zero, ring.one, ring.variable(2), a, ring.mul(a, ring.variable(1))):
        acc = ring.one
        for e in range(6):
            assert ring.pow_int(x, e) == acc, (x, e)
            acc = ring.mul(acc, x)


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
    assert form.evaluate_coefficient(1, [one, one]) == one
    assert form.evaluate_coefficient(0, [one, one]) == f2(0)


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
    poly = f_r_polynomial(SubspaceR.from_basis(f9, []))
    assert poly.to_string("Y") == "Y" and in_prime_field(poly)


def test_f_r_of_subfield_is_additive_power():
    f9 = make_field("GF(9)")
    r = SubspaceR.from_basis(f9, [f9.element(1)])
    poly = f_r_polynomial(r)
    assert poly == Poly.x_power(f9, 3) - Poly.x(f9)
    assert in_prime_field(poly)


# ---------------------------------------------------------------------------
# route 1 on the Zech tables: fields._linear_product, the rp.mul loop that
# f_r_polynomial ran as its reference

def _mul_product(field, payloads):
    """prod (Y + b) by one rp.mul per factor."""
    acc = (field.one,)
    for b in payloads:
        acc = rp.mul(field, acc, (b, field.one))
    return acc


@pytest.mark.parametrize("spec", ["GF(2)", "GF(3)", "GF(4)", "GF(8)", "GF(2^3; mod=t^3+t^2+1)",
                                  "GF(9)", "GF(16)", "GF(25)", "GF(27)"])
def test_linear_product_matches_the_mul_loop_on_every_subspace(spec):
    field = make_field(spec)
    for m in range(field.n + 1):
        for r in enumerate_subspaces(field, m):
            payloads = [b.payload for b in r.elements]
            expected = _mul_product(field, payloads)
            assert fields._linear_product(field, payloads) == expected, r
            assert f_r_polynomial(r).raw == expected, r


@pytest.mark.parametrize("spec", ["GF(4)", "GF(9)", "GF(625)", "GF(729)", "GF(727)"])
def test_linear_product_matches_the_mul_loop_on_random_lists(spec):
    field = make_field(spec)
    rng = random.Random(spec)
    elems = list(field.enumerate_payloads())
    lists = [[], [field.zero], [field.zero] * 3, [field.one] * field.char]
    for length in (1, 2, 5, 9, 17):
        draw = [rng.choice(elems) for _ in range(length)]
        lists.append(draw)
        # repeated payloads and zeros
        lists.append(draw + draw[:3] + [field.zero])
        # b beside -b: the coefficient of Y cancels in (Y + b)(Y - b)
        signed = draw + [field.neg(b) for b in draw]
        rng.shuffle(signed)
        lists.append(signed)
    for payloads in lists:
        expected = _mul_product(field, payloads)
        assert fields._linear_product(field, payloads) == expected, payloads
    # over every element the product is Y^q - Y: all but two of the
    # coefficients cancel, checked here against the closed form
    every = (field.zero, field.neg(field.one)) + (field.zero,) * (len(elems) - 2) + (field.one,)
    assert fields._linear_product(field, elems) == every


def test_f_r_polynomial_makes_no_field_method_call(monkeypatch):
    f81 = make_field("GF(81)")
    (r,) = enumerate_subspaces(f81, 4)
    calls = []
    for name in ("add", "mul"):
        original = getattr(fields.ExtensionField, name)

        def counting(self, a, b, original=original, name=name):
            calls.append(name)
            return original(self, a, b)

        monkeypatch.setattr(fields.ExtensionField, name, counting)
    poly = f_r_polynomial(r)
    assert calls == []
    # the product over all of GF(81) is Y^81 - Y
    assert poly == Poly.x_power(f81, 81) - Poly.x(f81) and in_prime_field(poly)


def test_property_p_for_subfields():
    f16 = make_field("GF(16)")
    r = SubspaceR.from_elements(
        f16, [x for x in enumerate_elements(f16) if x**4 == x]
    )
    assert r.dim == 2 and r.is_subfield()
    assert r.is_frobenius_invariant()


def test_property_p_nonfield_line_in_gf9():
    # roots of Y^3 - cY for c != 0, 1: Frobenius-invariant but not a field.
    # enumerate usable c and record which produce such a line
    f9 = make_field("GF(9)")
    usable = []
    for c in (2,):
        roots = [x for x in enumerate_elements(f9) if x**3 - x * c == f9(0)]
        if len(roots) == 3:
            r = SubspaceR.from_elements(f9, roots)
            if r.is_frobenius_invariant() and not r.is_subfield():
                usable.append(c)
    assert usable == [2]


def test_property_p_fails_for_some_line_and_coefficients_leave_prime_field():
    f9 = make_field("GF(9)")
    f9z = make_field("GF(9)(Z)")
    q = standard_q(f9z, 2)
    findings = []
    for r in enumerate_subspaces(f9, 1):
        res = primitive_element(r, q)
        assert r.is_frobenius_invariant() == res.property_p
        if not res.property_p:
            findings.append(res)
    assert findings  # some line is not Frobenius-invariant
    assert any(c != f9(0) and frobenius(c) != c for res in findings for c in res.coefficients)


def _fields_up_to_81():
    """Every GF(p^n) with p^n <= 81 whose subspaces enumerate_subspaces
    sweeps (n <= 4: GF(32) and GF(64) are over that cap)."""
    primes = [p for p in range(2, 82) if all(p % d for d in range(2, p))]
    return [f"GF({p**n})" for p in primes for n in range(1, 5) if p**n <= 81]


@pytest.mark.parametrize("spec", _fields_up_to_81())
def test_property_p_three_ways_on_every_subspace(spec):
    # primitive_element reads property P off the Dickson recursion; the
    # subspace's Frobenius test and the product's coefficients are the
    # other two ways, and all three must agree
    ambient = make_field(spec)
    field = make_field(f"{spec}(Z)")
    q = standard_q(field, ambient.n)
    for m in range(ambient.n + 1):
        for r in enumerate_subspaces(ambient, m):
            flag = primitive_element(r, q).property_p
            assert flag == r.is_frobenius_invariant() == in_prime_field(f_r_polynomial(r)), r


# ---------------------------------------------------------------------------
# primitive elements

def test_alpha_for_full_group_is_the_constant_term():
    # m = n: alpha_R = alpha^(p^n) - alpha = a, with minimal polynomial X - a
    for spec, n, a_spec in (
        ("GF(2)(Z)", 1, "Z"),
        ("GF(4)(Z)", 2, "Z"),
        ("GF(9)(Z)", 2, "t*Z+1"),
        ("GF(8)(Z)", 3, "(Z+1)/(Z^2+Z+1)"),
        ("GF(4)", 2, "0"),
    ):
        field = make_field(spec)
        a = field.parse_element(a_spec)
        ambient = field.base if field.order is None else field
        r = SubspaceR.from_elements(ambient, enumerate_elements(ambient))
        res = primitive_element(r, gas_poly(field, n, 0, a))
        assert res.alpha_h == Poly.constant(field, a)
        assert res.degree_over_f == 1
        assert res.minimal_polynomial == Poly.x(field) - Poly.constant(field, a)


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
    assert all(c == f16(0) for c in res.coefficients[1:])
    # cross-check via the symbolic Dickson form at the same basis
    form = dickson_phi(2, 2)
    assert form.evaluate_coefficient(0, list(r.basis)) == -f16.one_element()
    assert form.evaluate_coefficient(1, list(r.basis)) == f16(0)


def test_degree_law_over_gf8():
    f8z = make_field("GF(8)(Z)")
    q = standard_q(f8z, 3)
    f8 = f8z.base
    for m in range(4):
        for r in enumerate_subspaces(f8, m):
            res = primitive_element(r, q)
            assert res.degree_over_f == 2 ** (3 - m)
            assert (res.minimal_polynomial.compose(res.alpha_h) % q).is_zero()


def _product_over_f(r, q):
    """alpha_R as the product of (X + b) over F itself, reduced mod q: the
    product route primitive_element ran before both routes moved to GF(p^n)."""
    field = q.field
    to_f = embed_subfield(r.ambient, field)
    prod = (field.one,)
    for b in r.elements:
        prod = rp.mul(field, prod, (to_f(b).payload, field.one))
    return Poly.from_raw(field, rp.rem(field, prod, q.raw))


@pytest.mark.parametrize("a_spec", ["Z", "Z+1", "t*Z+1", "(Z+1)/(Z^2+Z+1)"])
@pytest.mark.parametrize("spec, n", [("GF(8)", 3), ("GF(16)", 4), ("GF(27)", 3), ("GF(81)", 4)])
def test_minimal_polynomial_matches_the_krylov_chain(spec, n, a_spec):
    # g_R(X) - a against the first linear dependence among the powers of
    # alpha_R mod q (min_poly_in_quotient), and alpha_R against the product
    # over F, for every subspace
    ambient = make_field(spec)
    field = make_field(spec + "(Z)")
    q = gas_poly(field, n, 0, field.parse_element(a_spec))
    for m in range(n + 1):
        for r in enumerate_subspaces(ambient, m):
            res = primitive_element(r, q)
            assert res.alpha_h == _product_over_f(r, q)
            assert str(res.minimal_polynomial) == str(min_poly_in_quotient(res.alpha_h, q))
            assert res.minimal_polynomial.degree() == res.degree_over_f == ambient.char ** (n - m)


@pytest.mark.parametrize("spec, sub, n", [("GF(16)", "GF(4)", 2), ("GF(64)", "GF(8)", 3), ("GF(81)", "GF(9)", 2)])
def test_minimal_polynomial_over_a_finite_field_matches_the_krylov_chain(spec, sub, n):
    # F strictly contains GF(p^n) and a lies in F, 0 first; q is reducible
    # for some a (for a = 0 it splits completely); alpha_R is still the
    # product over F, and the law still holds in F[X]/(q)
    field, ambient = make_field(spec), make_field(sub)
    elements = enumerate_elements(field)
    for a in elements[:3] + elements[-2:]:
        q = gas_poly(field, n, 0, a)
        for m in range(n + 1):
            for r in enumerate_subspaces(ambient, m):
                res = primitive_element(r, q)
                assert res.alpha_h == _product_over_f(r, q)
                assert str(res.minimal_polynomial) == str(min_poly_in_quotient(res.alpha_h, q))


@pytest.mark.parametrize(
    "degree",
    [1, 3, 9, 0, 2, 4, 8],
    ids=["Y", "Y^3", "Y^9", "Y^0", "Y^2", "Y^4", "Y^8"],
)
def test_a_changed_product_is_refused(monkeypatch, degree):
    # f_R of a plane of GF(27) with one coefficient moved, at a power of 3
    # (a wrong c_j, or a wrong leading 1) or at any other degree (a product
    # that is no p-polynomial): the recursion no longer matches it
    f27z = make_field("GF(27)(Z)")
    f27 = f27z.base
    q = standard_q(f27z, 3)
    r = enumerate_subspaces(f27, 2)[5]
    assert primitive_element(r, q).degree_over_f == 3
    product = f_r_polynomial

    def changed(subspace):
        raw = list(product(subspace).raw)
        raw[degree] = f27.add(raw[degree], f27.one)
        return Poly.from_raw(f27, raw)

    monkeypatch.setattr(dickson, "f_r_polynomial", changed)
    with pytest.raises(ConsistencyError, match="product route and Dickson recursion disagree"):
        primitive_element(r, q)


def test_linearized_cofactor_composes_back():
    # g_R(f_R(Y)) = Y^(p^n) - Y, by composing the two polynomials over GF(p^n)
    f27 = make_field("GF(27)")
    for m in range(4):
        for r in enumerate_subspaces(f27, m)[:5]:
            fr = f_r_polynomial(r)
            fs = [fr.raw[3**j] for j in range(m + 1)]
            g = dickson._linearized_cofactor(f27, fs, 3)
            raw = [f27.zero] * (3 ** (3 - m) + 1)
            for i, gi in enumerate(g):
                raw[3**i] = gi
            assert Poly.from_raw(f27, raw).compose(fr) == Poly.x_power(f27, 27) - Poly.x(f27)


def test_linearized_cofactor_refuses_a_non_divisor():
    # Y^3 - cY has the roots 0 and the square roots of c; for c a non-square
    # of GF(9) they lie outside GF(9), so Y^3 - cY does not right-divide
    # Y^9 - Y and the leftover equation at Y^(3^0) fails
    f9 = make_field("GF(9)")
    c = next(x for x in enumerate_elements(f9) if x != f9(0) and x**4 != f9.one_element())
    with pytest.raises(ConsistencyError, match="right division .* coefficient of Y\\^\\(3\\^0\\)"):
        dickson._linearized_cofactor(f9, [(-c).payload, f9.one], 2)
    # for the square c^2, Y^3 - c^2 Y = f_R for R = {0, c, -c}, and
    # g_R = Y^3 + c^6 Y
    s = c * c
    assert dickson._linearized_cofactor(f9, [(-s).payload, f9.one], 2) == [(s**3).payload, f9.one]


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
    roots = [x for x in enumerate_elements(f729) if x**9 + x**3 + x == f729(0)]
    assert len(roots) == 9
    r = SubspaceR.from_elements(f729, roots)
    assert r.dim == 2
    assert r.is_frobenius_invariant()
    assert not r.is_subfield()
    poly = f_r_polynomial(r)
    assert in_prime_field(poly)
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


@pytest.mark.parametrize(
    "spec",
    ["GF(3)", "GF(4)", "GF(8)", "GF(9)", "GF(16)", "GF(27)", "GF(25)", "GF(2)",
     "GF(2^3; mod=t^3+t^2+1)"],
)
def test_span_and_subfield_test_match_the_deleted_loops(spec):
    # enumerate_subspaces spans its echelon rows directly; the checked
    # constructors must build the same subspace, keys and order included
    ambient = make_field(spec)
    subfields = 0
    for m in range(ambient.n + 1):
        for r in enumerate_subspaces(ambient, m):
            span = _product_span(ambient, list(r.basis))
            assert tuple(sorted(span.values(), key=lambda v: v.sort_key())) == r.elements
            assert r.sort_key() == tuple(v.sort_key() for v in r.elements)
            by_basis = SubspaceR.from_basis(ambient, r.basis)
            assert by_basis.basis == r.basis
            again = SubspaceR.from_elements(ambient, reversed(r.elements))
            assert again.dim == m
            for other in (by_basis, again):
                assert other.elements == r.elements and other.sort_key() == r.sort_key()
                assert other == r and hash(other) == hash(r)
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
