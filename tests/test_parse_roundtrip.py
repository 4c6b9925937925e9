"""Parse/print round trips of field elements and polynomials, as hypothesis
properties: what str() and to_string() print, parse_element and
Poly.from_string read back to the same value."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from aslab import _ringops as rp  # noqa: E402
from aslab.fields import make_field  # noqa: E402
from aslab.poly import Poly  # noqa: E402

SPECS = ("GF(2)", "GF(7)", "GF(9)", "GF(2^3; mod=t^3+t^2+1)", "GF(3)(Z)", "GF(9)(Z)")
VARIABLES = ("X", "Y", "Z", "t")


def _payload(draw, field):
    if field.order is not None:
        return draw(st.sampled_from(list(field.enumerate_payloads())))
    k = field.base
    coeffs = st.lists(st.sampled_from(list(k.enumerate_payloads())), max_size=4)
    num = rp.trim(k, tuple(draw(coeffs)))
    den = rp.trim(k, tuple(draw(coeffs)))
    return field.fraction(num, den or (k.one,)).payload


@st.composite
def field_and_element(draw):
    field = make_field(draw(st.sampled_from(SPECS)))
    return field, field.element(_payload(draw, field))


@st.composite
def field_and_poly(draw):
    field = make_field(draw(st.sampled_from(SPECS)))
    size = draw(st.integers(0, 5))
    return field, Poly.from_raw(field, tuple(_payload(draw, field) for _ in range(size)))


@settings(max_examples=200, deadline=None)
@given(field_and_element())
def test_element_round_trip(fe):
    field, x = fe
    assert field.parse_element(str(x)) == x


@settings(max_examples=200, deadline=None)
@given(field_and_poly(), st.sampled_from(VARIABLES))
def test_poly_round_trip(fp, var):
    field, f = fp
    # a variable named like one of the field's own atoms would shadow it
    if var not in field.atoms():
        assert Poly.from_string(field, f.to_string(var), var=var) == f
