import time

import pytest

from aslab.errors import CapExceededError, InputError
from aslab.fields import make_field
from aslab.linalg import elementary_divisors_from_invariant, invariant_factors
from aslab.tensor import (
    FORMULA_MAX_BLOCKS,
    TensorInstance,
    ad_elementary_divisors_blocksum,
    binomial_divisibility,
    blocksum_ad_matrix,
    closed_formula_applies,
    tensor_jordan_type_formula,
    tensor_jordan_type_oracle,
)


# ---------------------------------------------------------------------------
# closed formula

def test_formula_single_row():
    jt = tensor_jordan_type_formula(TensorInstance(2, 1, 4, alpha=0, beta=1))
    assert jt.sizes() == [4]
    ev, _ = jt.blocks[0]
    assert ev == make_field("GF(2)")(1)


def test_formula_two_blocks_of_four():
    jt = tensor_jordan_type_formula(TensorInstance(2, 2, 4))
    assert jt.sizes() == [4, 4]


def test_formula_three_nines():
    jt = tensor_jordan_type_formula(TensorInstance(3, 3, 9))
    assert jt.sizes() == [9, 9, 9]


def test_formula_rejects_non_p_power_and_large_n():
    with pytest.raises(InputError):
        tensor_jordan_type_formula(TensorInstance(2, 2, 3))
    with pytest.raises(InputError):
        tensor_jordan_type_formula(TensorInstance(2, 5, 4))


def test_formula_block_cap_is_checked_before_the_list():
    edge = tensor_jordan_type_formula(TensorInstance(2, FORMULA_MAX_BLOCKS, 1 << 17))
    assert edge.sizes() == [1 << 17] * FORMULA_MAX_BLOCKS
    for n, m in ((FORMULA_MAX_BLOCKS + 1, 1 << 17), (10**8, 1 << 27), (2**60, 2**64)):
        t0 = time.perf_counter()
        with pytest.raises(CapExceededError, match=f"{n} blocks exceed cap"):
            tensor_jordan_type_formula(TensorInstance(2, n, m))
        assert time.perf_counter() - t0 < 0.1


# ---------------------------------------------------------------------------
# invariant-factor oracle

def test_oracle_j2_tensor_j3():
    assert tensor_jordan_type_oracle(TensorInstance(2, 2, 3)).sizes() == [4, 2]


def test_oracle_natural_square_in_char_two():
    # the tensor square of the 2-dimensional module splits into two
    # indecomposables here, unlike the characteristic-zero pattern [3, 1]
    jt = tensor_jordan_type_oracle(TensorInstance(2, 2, 2))
    assert jt.sizes() == [2, 2]
    assert jt.sizes() != [3, 1]


def test_oracle_trivial_product():
    jt = tensor_jordan_type_oracle(TensorInstance(3, 1, 1, alpha=1, beta=2))
    assert jt.sizes() == [1]
    ev, _ = jt.blocks[0]
    assert ev == make_field("GF(3)")(0)  # 1 + 2 = 0 in GF(3)


def test_oracle_cap():
    with pytest.raises(CapExceededError):
        tensor_jordan_type_oracle(TensorInstance(2, 17, 17))


def test_oracle_at_its_cap_in_bounded_time():
    # n*m = 256 = ORACLE_MAX_DIM: ranks of dense matrix powers took 15-20 s
    # on a 2-core Xeon VM, Krylov on the 256 x 256 operator 0.05-0.44 s, and
    # the Smith form of the 16 x 16 f(C_g + T) over GF(3)[T] takes about 0.01 s
    t0 = time.perf_counter()
    jt = tensor_jordan_type_oracle(TensorInstance(3, 16, 16))
    elapsed = time.perf_counter() - t0
    assert jt.dimension() == 256
    assert elapsed < 2.0
    with pytest.raises(CapExceededError):
        tensor_jordan_type_oracle(TensorInstance(3, 17, 16))


def test_formula_equals_oracle_small_grid():
    for p in (2, 3):
        for e in range(3):
            m = p**e
            if m > 9:
                continue
            for n in range(1, m + 1):
                inst = TensorInstance(p, n, m)
                assert tensor_jordan_type_formula(inst) == tensor_jordan_type_oracle(inst)


def test_block_sizes_independent_of_eigenvalues():
    base = tensor_jordan_type_oracle(TensorInstance(3, 2, 3)).sizes()
    for a in range(3):
        for b in range(3):
            inst = TensorInstance(3, 2, 3, alpha=a, beta=b)
            jt = tensor_jordan_type_oracle(inst)
            assert jt.sizes() == base
            ev, _ = jt.blocks[0]
            assert ev == make_field("GF(3)")((a + b) % 3)


# ---------------------------------------------------------------------------
# binomial divisibility

def test_binomial_divisibility_lemma():
    for p in (2, 3, 5):
        for e in range(4):
            for i in range(1, p**e):
                assert binomial_divisibility(p, e, i)


def test_binomial_divisibility_fails_off_p_powers():
    import math

    # C(6, 2) = 15 is not divisible by 2, so the p-power hypothesis matters
    assert math.comb(6, 2) % 2 != 0


# ---------------------------------------------------------------------------
# elementary divisors of ad on block sums

def test_blocksum_single_block():
    f2 = make_field("GF(2)")
    out = ad_elementary_divisors_blocksum([f2.element(0)], 1, 2)
    assert [(str(lin), pe, mult) for lin, pe, mult in out] == [("X", 2, 2)]


def test_blocksum_two_eigenvalues_e0():
    f2 = make_field("GF(2)")
    out = ad_elementary_divisors_blocksum([f2.element(0), f2.element(1)], 0, 2)
    assert [(str(lin), pe, mult) for lin, pe, mult in out] == [("X", 1, 2), ("X+1", 1, 2)]


def test_blocksum_two_eigenvalues_e1():
    f2 = make_field("GF(2)")
    out = ad_elementary_divisors_blocksum([f2.element(0), f2.element(1)], 1, 2)
    assert [(str(lin), pe, mult) for lin, pe, mult in out] == [("X", 2, 4), ("X+1", 2, 4)]


def test_blocksum_formula_matches_explicit_ad():
    f3 = make_field("GF(3)")
    eigs = [f3.element(0), f3.element(1)]
    formula = {
        (str(lin), pe): mult
        for lin, pe, mult in ad_elementary_divisors_blocksum(eigs, 1, 3)
    }
    mat = blocksum_ad_matrix(eigs, 1, 3)
    direct = {
        (str(prime), exp): mult
        for (prime, exp), mult in elementary_divisors_from_invariant(
            invariant_factors(mat)
        )
    }
    assert formula == direct


def test_blocksum_rejects_empty():
    f3 = make_field("GF(3)")
    for build in (ad_elementary_divisors_blocksum, blocksum_ad_matrix):
        with pytest.raises(InputError):
            build([], 0, 2)
        with pytest.raises(InputError, match="characteristic p"):
            build([f3.element(1)], 0, 2)


def test_closed_formula_applies_refuses_m_0_and_p_1():
    # p_power_split looped forever on both
    t0 = time.perf_counter()
    for p, n, m in ((2, 1, 0), (1, 1, 1), (1, 2, 5), (3, 1, -9)):
        with pytest.raises(InputError, match="n >= 1 and p >= 2"):
            closed_formula_applies(p, n, m)
    assert time.perf_counter() - t0 < 1.0
    assert closed_formula_applies(2, 3, 4) and not closed_formula_applies(2, 5, 4)
