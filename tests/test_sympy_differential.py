"""Differential tests against sympy, an implementation that shares no code
with aslab: complete factorization over GF(p) and invariant factors of
matrices over GF(p), on seeded inputs.  Test-only; skipped without sympy."""

import random
import warnings

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.matrices.normalforms import invariant_factors as sympy_invariant_factors  # noqa: E402

from aslab.fields import make_field  # noqa: E402
from aslab.linalg import Matrix, invariant_factors  # noqa: E402
from aslab.poly import Poly, factor_finite  # noqa: E402

X = sympy.symbols("x")
PRIMES = (2, 3, 5, 7)


def _monic_residues(expr, p):
    """Coefficients of a sympy polynomial over GF(p), low degree first, in
    [0, p) and divided by the leading one (sympy prints symmetric residues)."""
    coeffs = [int(c) % p for c in reversed(sympy.Poly(expr, X, modulus=p).all_coeffs())]
    inv = pow(coeffs[-1], p - 2, p)
    return tuple(c * inv % p for c in coeffs)


def _sympy_factors(raw, p):
    expr = sum(c * X**i for i, c in enumerate(raw))
    with warnings.catch_warnings():
        # sympy 1.13+ warns about its own ordered comparisons of residues
        warnings.simplefilter("ignore", DeprecationWarning)
        _, factors = sympy.factor_list(expr, X, modulus=p)
    return sorted((_monic_residues(f, p), m) for f, m in factors)


@pytest.mark.parametrize("p", PRIMES)
def test_factor_finite_matches_sympy(p):
    field = make_field(f"GF({p})")
    rng = random.Random(1000 + p)
    for _ in range(40):
        degree = rng.randrange(1, 13)
        raw = [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]
        if rng.random() < 0.3:
            # a repeated factor, so the multiplicities are exercised
            square = [rng.randrange(p) for _ in range(rng.randrange(1, 3))] + [1]
            raw = list((Poly.from_raw(field, raw[: max(1, degree - 4)] + [1])
                        * Poly.from_raw(field, square) ** 2).raw)
        ours = sorted((tuple(g.raw), m) for g, m in factor_finite(Poly.from_raw(field, raw)))
        assert ours == _sympy_factors(raw, p), (p, raw)


def _sympy_invariant_factors(rows, p):
    ring = sympy.GF(p)[X]
    m = len(rows)
    char_matrix = [
        [ring.convert(X if i == j else 0) - ring.convert(rows[i][j]) for j in range(m)]
        for i in range(m)
    ]
    factors = sympy_invariant_factors(DomainMatrix(char_matrix, (m, m), ring))
    out = [_monic_residues(ring.to_sympy(f), p) for f in factors]
    return [f for f in out if len(f) > 1]  # drop the units


@pytest.mark.parametrize("p", PRIMES)
def test_invariant_factors_match_sympy(p):
    field = make_field(f"GF({p})")
    rng = random.Random(2000 + p)
    for trial in range(30):
        m = rng.randrange(1, 7)
        if trial % 3 == 0:
            # scalar and nearly scalar blocks: several invariant factors
            c = rng.randrange(p)
            rows = [[c if i == j else 0 for j in range(m)] for i in range(m)]
            rows[0][m - 1] = rng.randrange(p)
        else:
            rows = [[rng.randrange(p) for _ in range(m)] for _ in range(m)]
        ours = [tuple(f.raw) for f in invariant_factors(Matrix.from_raw(field, rows))]
        assert ours == _sympy_invariant_factors(rows, p), (p, rows)
