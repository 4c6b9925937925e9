"""Documented caps reached at their edge in a bounded time, and refused past
it before any work: README "Size caps", one row at a time.  So far four
rows: factor_finite at degree 64 over finite fields to 729; analyze at the
32 x 32 cap over finite fields (seeded random matrices over GF(2), GF(3),
GF(9) and GF(727), the irreducible degree-32 companion over GF(3), and
J_32(0) over GF(2), GF(3), GF(5) and GF(729)); the certified analyze of
the largest companion a finite field certifies under that cap (m = p <=
31), X^31 - X - 1 over GF(31); and analyze of a seeded random 4 x 4
matrix over GF(3)(Z)."""

import functools
import random
import time

import pytest

from aslab import _ringops as rp
from aslab import linalg, poly
from aslab.ad_analyzer import MAX_DIM_FINITE, analyze, build_gas_companion
from aslab.errors import CapExceededError
from aslab.fields import ben_or_irreducible, make_field
from aslab.linalg import Matrix, companion, jordan_block
from aslab.poly import FACTOR_MAX_DEGREE, Poly, factor_finite

CAP_FIELDS = ["GF(729)", "GF(512)", "GF(625)", "GF(727)"]

# measured 0.14-2.0 s per input on a 2-core VM
FACTOR_BOUND_S = 10.0

# measured 3.1-5.3 s, cold and warm, on a 2-core VM
CERTIFIED_BOUND_S = 15.0

# measured 0.002-0.9 s per input on a 2-core VM, J_32(0) 0.002-0.04 s
# (0.8-2.0 s while λ(32, 32) came off the Kronecker operator); Krylov on
# the 1024 x 1024 ad_matrix took 20.4 s at GF(3) alone
ANALYZE_BOUND_S = 10.0


# measured 0.1-0.2 s on a 2-core VM; Krylov on the 16 x 16 ad_matrix over
# K(Z) and an exact division per root candidate took 36 s
KZ_ANALYZE_BOUND_S = 2.0

# a seeded random GF(3)(Z) matrix: the last invariant factor of ad A has
# degree 13 and 1,345 root candidates, of which only 0 is a root
KZ_4X4 = [
    ["0", "0", "2", "0"],
    ["0", "2*Z^2+2*Z", "0", "0"],
    ["2*Z^2+1", "(2*Z^2+Z+2)/Z", "Z/(Z+2)", "2*Z+2"],
    ["1", "2*Z^2+2*Z+2", "2*Z^2+2*Z+1", "0"],
]


def _monic(k, d, rng):
    return tuple(k.random_payload(rng) for _ in range(d)) + (k.one,)


def _irreducibles(k, d, count, rng):
    """count distinct monic irreducibles of degree d by seeded random
    search (monic_irreducibles steps through tails in order, which over
    GF(512) at degree 8 passes 262,144 reducible candidates first)."""
    out = set()
    while len(out) < count:
        f = _monic(k, d, rng)
        if ben_or_irreducible(k, f):
            out.add(f)
    return sorted(out)


def _product(k, factors):
    return functools.reduce(lambda a, b: rp.mul(k, a, b), factors, (k.one,))


def _edge_input(k, kind, rng):
    """A monic polynomial of degree FACTOR_MAX_DEGREE over k."""
    if kind == "random":
        return _monic(k, FACTOR_MAX_DEGREE, rng)
    if kind == "32 quadratics":
        return _product(k, _irreducibles(k, 2, 32, rng))
    d = {"squared degree 8": 8, "squared degree 16": 16}[kind]
    pieces = _irreducibles(k, d, FACTOR_MAX_DEGREE // (2 * d), rng)
    return _product(k, pieces + pieces)


@pytest.mark.parametrize("kind", ["random", "32 quadratics", "squared degree 8", "squared degree 16"])
@pytest.mark.parametrize("spec", CAP_FIELDS)
def test_factor_finite_at_the_degree_cap_in_bounded_time(spec, kind):
    k = make_field(spec)
    f = _edge_input(k, kind, random.Random(f"{spec} {kind}"))
    assert len(f) - 1 == FACTOR_MAX_DEGREE
    start = time.perf_counter()
    factors = factor_finite(Poly.from_raw(k, f))
    elapsed = time.perf_counter() - start
    assert elapsed < FACTOR_BOUND_S, (spec, kind, elapsed)
    assert _product(k, [g.raw for g, m in factors for _ in range(m)]) == f
    assert all(ben_or_irreducible(k, g.raw) for g, _ in factors)
    if kind != "random":
        assert len(factors) == {"32 quadratics": 32, "squared degree 8": 4}.get(kind, 2)


@pytest.mark.parametrize("spec", CAP_FIELDS)
def test_factor_finite_refuses_degree_65_before_any_work(spec, monkeypatch):
    k = make_field(spec)
    f = Poly.from_raw(k, _monic(k, FACTOR_MAX_DEGREE + 1, random.Random(spec)))
    for name in ("_factor_raw", "_equal_degree_split"):
        monkeypatch.setattr(poly, name, lambda *args: pytest.fail("work before the cap check"))
    monkeypatch.setattr(rp, "monic", lambda *args: pytest.fail("work before the cap check"))
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="degree 65 exceeds cap 64"):
        factor_finite(f)
    assert time.perf_counter() - start < 0.1


def test_certified_analyze_of_the_gf31_companion_in_bounded_time():
    # X^31 - X - 1 is irreducible over GF(31) (a = 1 has trace 1), so c1, c2
    # and c3 hold: 31 eigenspaces of dimension 31, each swept whole
    a = build_gas_companion(make_field("GF(31)"), 1, 0, 1)
    start = time.perf_counter()
    report = analyze(a)
    elapsed = time.perf_counter() - start
    assert elapsed < CERTIFIED_BOUND_S, elapsed
    assert report.passed() and report.eigenspace_dims[0][1] == 31
    assert [report.recovered[key] for key in ("p", "n", "e")] == [31, 1, 0]
    verdict = report.eigenvector_invertibility
    assert verdict.all_invertible and (verdict.checked, verdict.sampled) == (961, 310)


def _analyze_edge_input(spec, kind):
    """A 32 x 32 matrix over spec: seeded random, the companion of a seeded
    irreducible of degree 32, or J_32(0)."""
    k, m = make_field(spec), MAX_DIM_FINITE
    rng = random.Random(f"{spec} {kind}")
    if kind == "random":
        return Matrix.from_raw(k, [[k.random_payload(rng) for _ in range(m)] for _ in range(m)])
    if kind == "irreducible companion":
        return companion(Poly.from_raw(k, _irreducibles(k, m, 1, rng)[0]))
    return jordan_block(k, 0, m)


@pytest.mark.parametrize(
    "spec, kind",
    [("GF(2)", "random"), ("GF(3)", "random"), ("GF(9)", "random"), ("GF(727)", "random"),
     ("GF(3)", "irreducible companion"), ("GF(2)", "J_32(0)"), ("GF(3)", "J_32(0)"),
     ("GF(5)", "J_32(0)"), ("GF(729)", "J_32(0)")],
)
def test_analyze_at_the_32x32_cap_in_bounded_time(spec, kind):
    a = _analyze_edge_input(spec, kind)
    start = time.perf_counter()
    report = analyze(a)
    elapsed = time.perf_counter() - start
    assert elapsed < ANALYZE_BOUND_S, (spec, kind, elapsed)
    factors = report.invariant_factors
    assert sum(f.degree() for f in factors) == MAX_DIM_FINITE**2
    if kind == "random":
        return
    # A is cyclic, so its centralizer F[A] has dimension 32: 32 invariant
    # factors, X divides each, and 0 is the only eigenvalue in F (the
    # irreducible companion's others are x - x^(3^k), k = 1..31, outside F)
    assert len(factors) == MAX_DIM_FINITE and report.c3 == (kind == "irreducible companion")
    assert [(str(v), d) for v, d in report.eigenspace_dims] == [("0", MAX_DIM_FINITE)]
    if kind == "J_32(0)":
        # ad J_32(0) is nilpotent of type λ(32, 32) in the field's characteristic
        k = a.field
        assert sorted(f.degree() for f in factors) == sorted(linalg.nilpotent_tensor_type(k.char, 32, 32))
        assert all(f.raw == (k.zero,) * f.degree() + (k.one,) for f in factors)


def test_analyze_of_a_random_kz_4x4_in_bounded_time():
    a = Matrix.from_json_dict({"entries": KZ_4X4}, make_field("GF(3)(Z)"))
    start = time.perf_counter()
    report = analyze(a)
    elapsed = time.perf_counter() - start
    assert elapsed < KZ_ANALYZE_BOUND_S, elapsed
    assert [f.degree() for f in report.invariant_factors] == [1, 1, 1, 13]
    assert [str(v) for v in report.eigenvalues] == ["0"]
