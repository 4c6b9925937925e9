"""Tensor products of Jordan blocks in characteristic p.

For blocks J_n(alpha) and J_m(beta) over GF(p) with m = p^e and n <= m, the
product splits as n isomorphic indecomposables of dimension p^e with the
single eigenvalue alpha + beta; tensor_jordan_type_formula returns that
closed answer.  tensor_jordan_type_oracle computes the decomposition for
arbitrary block sizes, up to n*m = 256, with no Kronecker operator: the
product is the Sylvester operator of (X - alpha)^n and (X + beta)^m, whose
invariant factors are the Smith form of the min(n, m) x min(n, m) matrix
f(C_g + T) over GF(p)[T] (linalg.sylvester_invariant_factors).  It serves
as the check of analyze's λ(r, s) (linalg.nilpotent_tensor_type), which
takes the same Smith form only where no closed form or Heller's reduction
applies: the oracle reads the eigenvalues on every call, and the tests
check it against the explicit shifted Kronecker operator.  It also covers
sizes with no closed form, e.g. J_2 tensor J_3 over GF(2) splits as
[4, 2], and the characteristic-0 Clebsch-Gordan pattern (m+n-1, m+n-3,
...) fails here.  The closed answer lists n blocks, so it
is capped at FORMULA_MAX_BLOCKS, checked before the list is built.

ad_elementary_divisors_blocksum gives the elementary divisors of the
commutator operator on a direct sum of equal-size blocks J_(p^e)(alpha_i):
(X - gamma)^(p^e) with multiplicity p^e * #{(i, j) : alpha_i - alpha_j = gamma}.
"""

import math

from . import _ringops as rp
from .errors import CapExceededError, ConsistencyError, InputError
from .fields import PrimeField, make_field, p_power_split
from .linalg import (
    JordanType,
    Matrix,
    ad_matrix,
    direct_sum,
    jordan_block,
    sylvester_invariant_factors,
)
from .poly import Poly

ORACLE_MAX_DIM = 256
# at this edge decompose-tensor lists 65536 blocks in about 0.3 s (2-core
# Xeon VM, Python 3.11)
FORMULA_MAX_BLOCKS = 1 << 16


class TensorInstance:
    """Block sizes n, m and eigenvalues alpha, beta over GF(p)."""

    __slots__ = ("p", "n", "m", "alpha", "beta", "field")

    def __init__(self, p, n, m, alpha=0, beta=0):
        if n < 1 or m < 1:
            raise InputError("block sizes must be >= 1")
        self.field = PrimeField(p)
        self.p = p
        self.n = n
        self.m = m
        self.alpha = self.field.element(alpha)
        self.beta = self.field.element(beta)

    def __repr__(self):
        return f"TensorInstance(p={self.p}, n={self.n}, m={self.m}, alpha={self.alpha}, beta={self.beta})"


def closed_formula_applies(p, n, m) -> bool:
    """Whether the closed decomposition applies: m a p-power and n <= m."""
    return p_power_split(m, p)[1] == 1 and n <= m


def tensor_jordan_type_formula(inst: TensorInstance) -> JordanType:
    """Closed form for n <= m = p^e: n blocks of size p^e at alpha + beta."""
    if not closed_formula_applies(inst.p, inst.n, inst.m):
        raise InputError(f"no closed formula: needs n <= m and m a power of {inst.p}")
    if inst.n > FORMULA_MAX_BLOCKS:
        raise CapExceededError(f"{inst.n} blocks exceed cap {FORMULA_MAX_BLOCKS}")
    ev = inst.alpha + inst.beta
    return JordanType([(ev, inst.m)] * inst.n)


def tensor_jordan_type_oracle(inst: TensorInstance) -> JordanType:
    """Jordan type of J_n(alpha) ⊗ I + I ⊗ J_m(beta), n*m at most
    ORACLE_MAX_DIM, with no Kronecker operator.

    The operator is x + y on F[x]/((x - alpha)^n) ⊗ F[y]/((y - beta)^m),
    that is x - y' with y' = -y a root of g = (X + beta)^m: the Sylvester
    operator of f = (X - alpha)^n and g, whose invariant factors are the
    Smith form of the deg g x deg g matrix f(C_g + T)
    (linalg.sylvester_invariant_factors).  The two blocks enter
    symmetrically, so the smaller one is g.  Each factor must be a power of
    X - (alpha + beta), and its degree is one block size."""
    if inst.n * inst.m > ORACLE_MAX_DIM:
        raise CapExceededError(f"dimension {inst.n * inst.m} exceeds cap {ORACLE_MAX_DIM}")
    k = inst.field
    (a, n), (b, m) = sorted(((inst.alpha, inst.n), (inst.beta, inst.m)), key=lambda e: -e[1])
    f = rp.power(k, (k.neg(a.payload), k.one), n)
    g = rp.power(k, (b.payload, k.one), m)
    ev = inst.alpha + inst.beta
    lin = (k.neg(ev.payload), k.one)
    blocks = []
    for h in sylvester_invariant_factors(k, [f], [g]):
        if h != rp.power(k, lin, len(h) - 1):
            raise ConsistencyError(
                f"tensor oracle on {inst}: invariant factor {Poly.from_raw(k, h)} is not a "
                f"power of X - ({ev})"
            )
        blocks.append((ev, len(h) - 1))
    return JordanType(blocks)


def binomial_divisibility(p, e, i) -> bool:
    """p divides C(p^e, i) for all 0 < i < p^e."""
    return math.comb(p**e, i) % p == 0


def _eigenvalue_field(eigs, p):
    """The field of the block eigenvalues: that of the first one when it is a
    field element, GF(p) when they are ints."""
    if not eigs:
        raise InputError("need at least one block eigenvalue")
    field = eigs[0].field if hasattr(eigs[0], "field") else make_field(f"GF({p})")
    if field.order is None or field.char != p:
        raise InputError("eigenvalues must lie in a finite field of characteristic p")
    return field


def ad_elementary_divisors_blocksum(eigs, e, p):
    """Elementary divisors of ad on a direct sum of blocks J_(p^e)(alpha_i).

    Returns a sorted list of ((X - gamma) Poly, p^e, multiplicity) triples:
    one per distinct eigenvalue difference gamma, with multiplicity
    p^e * m(gamma) where m(gamma) counts ordered pairs achieving gamma.
    """
    field = _eigenvalue_field(eigs, p)
    eigs = [field.element(a) for a in eigs]
    pe = p**e
    counts = {}
    for a in eigs:
        for b in eigs:
            g = a - b
            counts[g.sort_key()] = (g, counts.get(g.sort_key(), (g, 0))[1] + 1)
    out = []
    for key in sorted(counts):
        gamma, m_gamma = counts[key]
        lin = Poly(field, [-gamma, 1])
        out.append((lin, pe, pe * m_gamma))
    return out


def blocksum_ad_matrix(eigs, e, p) -> Matrix:
    """The explicit ad matrix of the direct sum, for cross-checking."""
    field = _eigenvalue_field(eigs, p)
    blocks = [jordan_block(field, a, p**e) for a in eigs]
    return ad_matrix(direct_sum(*blocks))
