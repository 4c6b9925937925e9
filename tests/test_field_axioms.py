"""Field axioms on the tabulated finite fields, as hypothesis properties."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from aslab.fields import make_field  # noqa: E402

SPECS = ("GF(4)", "GF(8)", "GF(9)", "GF(25)", "GF(27)", "GF(2^3; mod=t^3+t^2+1)", "GF(729)")


@st.composite
def field_and_elements(draw, count):
    field = make_field(draw(st.sampled_from(SPECS)))
    elems = list(field.enumerate_payloads())
    picks = [draw(st.integers(0, field.order - 1)) for _ in range(count)]
    return field, [field.element(elems[i]) for i in picks]


@settings(max_examples=150, deadline=None)
@given(field_and_elements(3))
def test_ring_axioms(fe):
    _, (a, b, c) = fe
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a
    assert a + b == b + a and a * b == b * a


@settings(max_examples=150, deadline=None)
@given(field_and_elements(1))
def test_inverse_and_pth_root(fe):
    field, (a,) = fe
    if a != field(0):
        assert a * (1 / a) == field(1)
        assert a ** -1 == 1 / a
    root = field.element(field.pth_root(a.payload))
    assert field.frobenius(root.payload) == a.payload
    assert root ** field.char == a
