"""Documented caps reached at their edge in a bounded time, and refused past
it before any work: README "Size caps", one row at a time.  So far two
rows: factor_finite at degree 64 over finite fields to 729, and the
certified analyze of the largest companion a finite field certifies under
the 32 x 32 cap (m = p <= 31), X^31 - X - 1 over GF(31)."""

import functools
import random
import time

import pytest

from aslab import _ringops as rp
from aslab import poly
from aslab.ad_analyzer import analyze, build_gas_companion
from aslab.errors import CapExceededError
from aslab.fields import make_field, rabin_irreducible
from aslab.poly import FACTOR_MAX_DEGREE, Poly, factor_finite

CAP_FIELDS = ["GF(729)", "GF(512)", "GF(625)", "GF(727)"]

# measured 0.14-2.0 s per input on a 2-core VM
FACTOR_BOUND_S = 10.0

# measured 3.1-5.3 s, cold and warm, on a 2-core VM
CERTIFIED_BOUND_S = 15.0


def _monic(k, d, rng):
    return tuple(k.random_payload(rng) for _ in range(d)) + (k.one,)


def _irreducibles(k, d, count, rng):
    """count distinct monic irreducibles of degree d by seeded random
    search (monic_irreducibles steps through tails in order, which over
    GF(512) at degree 8 does not end in minutes)."""
    out = set()
    while len(out) < count:
        f = _monic(k, d, rng)
        if rabin_irreducible(k, f):
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
    assert all(rabin_irreducible(k, g.raw) for g, _ in factors)
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
