"""Refusal guards: one case per input check, each asserting InputError (or a
subclass) and a fragment of its message.  These guards reject inputs that
the rest of the suite and the benchmark workloads never send.  Beside them,
the edge inputs that a guard answers instead of refusing, each with its
answer."""

import re

import pytest

from aslab import ad_analyzer, dickson, irred, linalg, poly, tensor
from aslab.errors import InputError
from aslab.fields import ExtensionField, RationalFunctionField, make_field
from aslab.linalg import Matrix
from aslab.poly import Poly


def px(spec, s, var="X"):
    return Poly.from_string(make_field(spec), s, var=var)


def mat(spec, rows):
    return Matrix(make_field(spec), rows)


SQUARE = [[1, 0], [0, 1]]
WIDE = [[1, 0, 1], [0, 1, 1]]

CASES = {
    # _exprparse
    "parse: unknown character": (lambda: px("GF(2)", "X$"), "cannot parse"),
    "parse: symbolic exponent": (
        lambda: px("GF(2)", "X^Y"), "exponent must be a nonnegative integer"),
    "parse: open parenthesis": (lambda: px("GF(2)", "(X"), "unbalanced parentheses"),
    "parse: close parenthesis": (lambda: px("GF(2)", "X)"), "trailing garbage"),
    # poly
    "poly: leading_coeff of zero": (
        lambda: px("GF(3)", "0").leading_coeff(), "no leading coefficient"),
    "poly: monic of zero": (
        lambda: px("GF(3)", "0").monic(), "cannot normalize the zero polynomial"),
    "poly: inexact division": (lambda: px("GF(3)", "X/(X+1)"), "division is not exact"),
    "poly: evaluate at a string": (
        lambda: px("GF(3)", "X+1").evaluate("1"), "can only evaluate at a field element"),
    "poly: separable_part of 1": (
        lambda: poly.separable_part(px("GF(3)", "1")), "expects degree >= 1"),
    "poly: is_irreducible_finite over K(Z)": (
        lambda: poly.is_irreducible_finite(px("GF(2)(Z)", "X^2+Z")), "requires a finite field"),
    "poly: factor_finite over K(Z)": (
        lambda: poly.factor_finite(px("GF(2)(Z)", "X^2+Z")), "requires a finite field"),
    "poly: roots_in_finite_field over K(Z)": (
        lambda: poly.roots_in_finite_field(px("GF(2)(Z)", "X^2+Z")), "requires a finite field"),
    "poly: min_poly_in_quotient of a non-monic modulus": (
        lambda: poly.min_poly_in_quotient(px("GF(3)", "X"), px("GF(3)", "2*X^2+1")),
        "must be monic of degree >= 1"),
    "poly: min_poly_in_quotient over two fields": (
        lambda: poly.min_poly_in_quotient(px("GF(2)", "X"), px("GF(3)", "X^2+1")), "same field"),
    # linalg
    "linalg: sum of two shapes": (
        lambda: mat("GF(2)", SQUARE) + mat("GF(2)", WIDE), "matrix shapes differ"),
    "linalg: sum over two fields": (
        lambda: mat("GF(2)", SQUARE) + mat("GF(3)", SQUARE), "must share the field"),
    "linalg: product of mismatched inner dimensions": (
        lambda: mat("GF(2)", WIDE) * mat("GF(2)", SQUARE), "inner dimensions differ"),
    "linalg: scalar_shift of a non-square matrix": (
        lambda: mat("GF(2)", WIDE).scalar_shift(make_field("GF(2)").element(1)),
        "scalar shift needs a square matrix"),
    "linalg: ad_matrix of a non-square matrix": (
        lambda: linalg.ad_matrix(mat("GF(2)", WIDE)), "ad is defined for square matrices"),
    "linalg: eigenspace of a non-square matrix": (
        lambda: linalg.eigenspace(mat("GF(2)", WIDE), 0), "eigenspace needs a square matrix"),
    "linalg: invariant_factors of a non-square matrix": (
        lambda: linalg.invariant_factors(mat("GF(2)", WIDE)),
        "invariant factors need a square matrix"),
    "linalg: companion of 1": (
        lambda: linalg.companion(px("GF(2)", "1")), "companion matrix needs degree >= 1"),
    "linalg: direct_sum of nothing": (lambda: linalg.direct_sum(), "direct sum of nothing"),
    "linalg: direct_sum over mixed fields": (
        lambda: linalg.direct_sum(mat("GF(2)", SQUARE), mat("GF(3)", SQUARE)),
        "direct sum over mixed fields"),
    "linalg: kron over mixed fields": (
        lambda: linalg.kron(mat("GF(2)", SQUARE), mat("GF(3)", SQUARE)),
        "Kronecker product over mixed fields"),
    "linalg: poly_at_matrix over two fields": (
        lambda: linalg.poly_at_matrix(px("GF(3)", "X+1"), mat("GF(2)", SQUARE)),
        "polynomial and matrix fields differ"),
    "linalg: poly_at_matrix of a non-square matrix": (
        lambda: linalg.poly_at_matrix(px("GF(2)", "X+1"), mat("GF(2)", WIDE)),
        "needs a square matrix"),
    "linalg: similar over two fields": (
        lambda: linalg.similar(mat("GF(2)", SQUARE), mat("GF(3)", SQUARE)),
        "over the same field"),
    "linalg: similar of two sizes": (
        lambda: linalg.similar(mat("GF(2)", SQUARE), mat("GF(2)", [[1]])),
        "square matrices of equal size"),
    "linalg: pascal_similarity of a non-monic polynomial": (
        lambda: linalg.pascal_similarity(px("GF(3)", "2*X^2+1"), 1),
        "needs a monic polynomial of degree >= 1"),
    "linalg: verify_companion_composition of a non-monic f": (
        lambda: linalg.verify_companion_composition(px("GF(3)", "2*X+1"), px("GF(3)", "X")),
        "f must be monic"),
    "linalg: verify_companion_composition of a constant g": (
        lambda: linalg.verify_companion_composition(px("GF(3)", "X"), px("GF(3)", "2")),
        "g must have degree >= 1"),
    "linalg: verify_companion_composition over two fields": (
        lambda: linalg.verify_companion_composition(px("GF(3)", "X"), px("GF(2)", "X")),
        "f and g must share a field"),
    "linalg: JordanType with a size-0 block": (
        lambda: linalg.JordanType([(0, 0)]), "Jordan block sizes must be positive"),
    # fields
    "fields: ExtensionField(4, 2)": (lambda: ExtensionField(4, 2), "4 is not prime"),
    "fields: ExtensionField(3, 1)": (
        lambda: ExtensionField(3, 1), "extension degree must be at least 2"),
    "fields: nested K(Z)": (
        lambda: RationalFunctionField(make_field("GF(2)(Z)")), "nested rational function fields"),
    "fields: constant from another field": (
        lambda: make_field("GF(2)(Z)").constant(make_field("GF(3)").element(1)),
        "constant must come from the base field"),
    "fields: GF(5; mod=t)": (lambda: make_field("GF(5; mod=t)"), "prime fields take no modulus"),
    # dickson
    "dickson: enumerate_subspaces over K(Z)": (
        lambda: dickson.enumerate_subspaces(make_field("GF(4)(Z)"), 1), "needs a finite field"),
    "dickson: SubspaceR.from_basis over K(Z)": (
        lambda: dickson.SubspaceR.from_basis(make_field("GF(4)(Z)"), []),
        "subspaces need a finite field"),
    "dickson: SubspaceR.from_elements over K(Z)": (
        lambda: dickson.SubspaceR.from_elements(make_field("GF(4)(Z)"), []),
        "subspaces need a finite field"),
    "dickson: enumerate_subspaces with m out of range": (
        lambda: dickson.enumerate_subspaces(make_field("GF(4)"), 3),
        "subspace dimension out of range"),
    "dickson: primitive_element on X^4+X^2": (
        lambda: dickson.primitive_element(
            dickson.SubspaceR.from_basis(make_field("GF(4)"), [1]), px("GF(4)(Z)", "X^4+X^2")),
        "expected the shape X^(p^n) - X - a"),
    # irred
    "irred: GasInstance with g over another field": (
        lambda: irred.GasInstance(make_field("GF(2)"), 1, 0, 1, px("GF(3)", "Z", var="Z")),
        "g must be a polynomial over K"),
    "irred: oracle on a GF(2) polynomial": (
        lambda: irred.bivariate_irreducible_oracle(px("GF(2)", "X^2+X+1")),
        "rational function field"),
    "irred: oracle on a constant": (
        lambda: irred.bivariate_irreducible_oracle(px("GF(2)(Z)", "Z")),
        "oracle expects positive degree in X"),
    # ad_analyzer
    "ad_analyzer: analyze of a non-square matrix": (
        lambda: ad_analyzer.analyze(mat("GF(2)", WIDE)), "analysis needs a square matrix"),
    "ad_analyzer: build_gas_companion with n = 0": (
        lambda: ad_analyzer.build_gas_companion(make_field("GF(2)"), 0, 0, 1),
        "need n >= 1 and e >= 0"),
    # tensor
    "tensor: TensorInstance(2, 0, 1)": (
        lambda: tensor.TensorInstance(2, 0, 1), "block sizes must be >= 1"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_guard_refuses_with_its_message(case):
    call, fragment = CASES[case]
    with pytest.raises(InputError, match=re.escape(fragment)):
        call()


ANSWERS = {
    "linalg: is_invertible of a non-square matrix": (
        lambda: mat("GF(2)", WIDE).is_invertible(), False),
    "linalg: -M": (lambda: -mat("GF(3)", [[1, 2], [0, 1]]), mat("GF(3)", [[2, 1], [0, 2]])),
    "linalg: int * M": (lambda: 2 * mat("GF(3)", [[1, 2], [0, 1]]), mat("GF(3)", [[2, 1], [0, 2]])),
    "linalg: element * M": (
        lambda: make_field("GF(9)").element("t") * mat("GF(9)", [[1, "t"], [0, 1]]),
        mat("GF(9)", [["t", "t^2"], [0, "t"]])),
    "poly: coeff past the degree": (
        lambda: px("GF(3)", "X^2+1").coeff(3), make_field("GF(3)").element(0)),
    "poly: coeffs": (
        lambda: px("GF(3)", "X^2+1").coeffs, tuple(map(make_field("GF(3)").element, (1, 0, 1)))),
    "poly: bool of zero": (lambda: bool(px("GF(3)", "0")), False),
    "poly: floor division": (
        lambda: px("GF(3)", "X^2+1") // px("GF(3)", "X+1"), px("GF(3)", "X+2")),
    # degree + 1, then the coefficients' keys from the constant up
    "poly: sort_key": (lambda: px("GF(9)", "t*X+2").sort_key(), (2, ((0, 2), (1, 0)))),
    # an operand of another type gets NotImplemented
    "linalg: Matrix == int": (lambda: mat("GF(3)", SQUARE).__eq__(1), NotImplemented),
    "linalg: JordanType == int": (lambda: linalg.JordanType([]).__eq__(1), NotImplemented),
    "linalg: InvariantFactorList == int": (
        lambda: linalg.InvariantFactorList([]).__eq__(1), NotImplemented),
    "dickson: SubspaceR == int": (
        lambda: dickson.SubspaceR.from_basis(make_field("GF(4)"), []).__eq__(1), NotImplemented),
    "fields: element ** float": (
        lambda: make_field("GF(3)").element(2).__pow__(1.5), NotImplemented),
    # reprs
    "linalg: repr of a Matrix": (lambda: repr(mat("GF(3)", WIDE)), "Matrix(GF(3), 2x3)"),
    "linalg: repr of a JordanType": (
        lambda: repr(linalg.JordanType(
            [(make_field("GF(3)").element(c), size) for c, size in ((1, 1), (0, 2))])),
        "JordanType[J_2(0), J_1(1)]"),
    "linalg: repr of an InvariantFactorList": (
        lambda: repr(linalg.invariant_factors(mat("GF(3)", [[1, 0, 0], [0, 1, 0], [0, 0, 2]]))),
        "[X+2, X^2+2]"),
    "poly: repr of a SeparableDecomposition": (
        lambda: repr(poly.separable_part(px("GF(3)", "X^3+1"))),
        "SeparableDecomposition(q=X+1, e=1)"),
    "irred: repr of a GasIrreducibility": (
        lambda: repr(irred.gas_irreducible(irred.GasInstance(make_field("GF(2)"), 1, 0, 1, "Z"))),
        "GasIrreducibility(True, 'r-coprime-to-p')"),
    "tensor: repr of a TensorInstance": (
        lambda: repr(tensor.TensorInstance(3, 2, 3, 1, 2)),
        "TensorInstance(p=3, n=2, m=3, alpha=1, beta=2)"),
    "dickson: repr of a PrimitiveElementResult": (
        lambda: repr(dickson.primitive_element(
            dickson.SubspaceR.from_basis(make_field("GF(4)"), [1]), px("GF(4)(Z)", "X^4+X+Z"))),
        "PrimitiveElementResult(dim=1, degree=2, property_p=True)"),
}


@pytest.mark.parametrize("case", list(ANSWERS))
def test_edge_input_gets_its_answer(case):
    call, expected = ANSWERS[case]
    assert call() == expected
