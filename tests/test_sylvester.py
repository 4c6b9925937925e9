"""linalg.sylvester_invariant_factors, the Smith form of f(C_g + T) over
F[T], against Krylov on the explicit Kronecker operators it replaces: the
helper against invariant_factors(kron(C_f, I) - kron(I, C_g)), and the
tensor oracle against the shifted J_n(alpha) ⊗ I + I ⊗ J_m(beta).  ad A
over K(Z), its other caller, is checked in test_ad_divisors.py."""

import random

import pytest

from aslab import linalg, tensor
from aslab.fields import make_field, monic_irreducibles
from aslab.linalg import (
    JordanType,
    Matrix,
    companion,
    direct_sum,
    invariant_factors,
    jordan_block,
    kron,
    nilpotent_jordan_type,
    sylvester_invariant_factors,
)
from aslab.poly import Poly
from aslab.tensor import TensorInstance, tensor_jordan_type_oracle


def _kronecker_reference(field, fs, gs):
    """The raw invariant factors of the direct sum of kron(C_f, I) -
    kron(I, C_g), by Krylov."""
    blocks = []
    for f in fs:
        for g in gs:
            cf, cg = companion(Poly.from_raw(field, f)), companion(Poly.from_raw(field, g))
            blocks.append(
                kron(cf, Matrix.identity(field, cg.nrows)) - kron(Matrix.identity(field, cf.nrows), cg)
            )
    return [f.raw for f in invariant_factors(direct_sum(*blocks))]


def _prime_powers(field, rng, count):
    """count raw pi^e, pi monic irreducible of degree 1-3, e <= 3, deg <= 6."""
    pool = [g for d in (1, 2, 3) for g in monic_irreducibles(field, d, 4)]
    out = []
    while len(out) < count:
        pi, e = rng.choice(pool), rng.randint(1, 3)
        if (len(pi) - 1) * e <= 6:
            out.append((Poly.from_raw(field, pi) ** e).raw)
    return out


@pytest.mark.parametrize("spec", ["GF(2)", "GF(3)", "GF(4)", "GF(9)"])
def test_helper_equals_krylov_on_the_kronecker_operator(spec):
    # GF(2) runs the helper's Smith form on packed ints (poly._BitRows)
    field = make_field(spec)
    rng = random.Random(f"sylvester {spec}")
    for _ in range(24):
        fs = _prime_powers(field, rng, rng.randint(1, 2))
        gs = _prime_powers(field, rng, rng.randint(1, 2))
        got = [tuple(f) for f in sylvester_invariant_factors(field, fs, gs)]
        assert got == _kronecker_reference(field, fs, gs), (fs, gs)


def test_helper_is_not_symmetric_in_f_and_g():
    # C_f Y - Y C_g has the eigenvalues a - b, so swapping f and g negates
    # X: over GF(3) (X - 1)(X) against (X + 1)(X) tells the sign apart
    field = make_field("GF(3)")
    f, g = (2, 1), (0, 1)  # X - 1 and X
    assert sylvester_invariant_factors(field, [f], [g]) == [(2, 1)]
    assert sylvester_invariant_factors(field, [g], [f]) == [(1, 1)]


def _shifted_kronecker_oracle(inst):
    """The Jordan type of J_n(alpha) ⊗ I + I ⊗ J_m(beta), read off the
    invariant factors of the explicit operator shifted by -(alpha + beta):
    the tensor oracle's body before it took the Smith form of f(C_g + T)."""
    k = inst.field
    a = kron(jordan_block(k, inst.alpha, inst.n), Matrix.identity(k, inst.m))
    b = kron(Matrix.identity(k, inst.n), jordan_block(k, inst.beta, inst.m))
    ev = inst.alpha + inst.beta
    jt = nilpotent_jordan_type((a + b).scalar_shift(-ev))
    return JordanType([(ev, sz) for _, sz in jt])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_oracle_equals_the_shifted_kronecker_operator(p):
    rng = random.Random(f"oracle {p}")
    for n in range(1, 65):
        for m in range(1, 64 // n + 1):
            inst = TensorInstance(p, n, m, rng.randrange(1, p), rng.randrange(1, p))
            assert tensor_jordan_type_oracle(inst) == _shifted_kronecker_oracle(inst), inst


def test_oracle_builds_no_kronecker_operator(monkeypatch):
    inst = TensorInstance(3, 16, 16, 1, 2)
    expected = _shifted_kronecker_oracle(inst).sizes()
    monkeypatch.setattr(linalg, "kron", lambda *args: pytest.fail("Kronecker operator built"))
    monkeypatch.setattr(linalg, "invariant_factors", lambda *args: pytest.fail("Krylov run"))
    assert not hasattr(tensor, "kron")
    assert tensor_jordan_type_oracle(inst).sizes() == expected
