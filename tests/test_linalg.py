import json
import random

import pytest

from aslab import _ringops as rp
from aslab import ad_analyzer, fields, linalg, poly
from aslab.errors import CapExceededError, ConsistencyError, InputError
from aslab.fields import SPECIALISATION_TRIES, enumerate_elements, make_field, specialise
from aslab.linalg import (
    InvariantFactorList,
    Matrix,
    _smith_diagonal,
    ad_matrix,
    certifying_point,
    companion,
    direct_sum,
    eigenspace,
    elementary_divisors_from_invariant,
    invariant_factors,
    jordan_block,
    kron,
    nilpotent_jordan_type,
    pascal_similarity,
    poly_at_matrix,
    similar,
    verify_companion_composition,
)
from aslab.poly import (
    Poly,
    _kernel,
    _min_dependence,
    gas_poly,
    min_poly_in_quotient,
    roots_in_finite_field,
)
from aslab.tensor import blocksum_ad_matrix


def random_matrix(field, size, rng):
    return Matrix(
        field, [[field.random_payload(rng) for _ in range(size)] for _ in range(size)]
    )


def random_monic(field, deg, rng):
    return Poly.from_raw(
        field, tuple(field.random_payload(rng) for _ in range(deg)) + (field.one,)
    )


# ---------------------------------------------------------------------------
# companion matrices

def test_companion_1x1():
    f5 = make_field("GF(5)")
    c = companion(Poly.from_string(f5, "X-3"))
    assert c.nrows == 1 and c.entry(0, 0) == f5(3)


def test_companion_convention_example():
    f2z = make_field("GF(2)(Z)")
    c = companion(Poly.from_string(f2z, "X^2-X-Z"))
    assert c.entry(0, 0) == f2z(0) and c.entry(0, 1) == f2z.element("Z")
    assert c.entry(1, 0) == f2z(1) and c.entry(1, 1) == f2z(1)


def test_companion_characteristic_polynomial_seeded():
    # defining property: the only nontrivial invariant factor of C_f is f
    rng = random.Random(31)
    for spec in ("GF(2)", "GF(5)", "GF(9)"):
        field = make_field(spec)
        for _ in range(10):
            f = random_monic(field, rng.randrange(1, 5), rng)
            inv = invariant_factors(companion(f))
            assert len(inv) == 1 and inv[0] == f


def test_companion_rejects_non_monic():
    f3 = make_field("GF(3)")
    with pytest.raises(InputError):
        companion(Poly.from_string(f3, "2*X+1"))


# ---------------------------------------------------------------------------
# the ad operator

def test_ad_of_zero_and_identity():
    f3 = make_field("GF(3)")
    assert ad_matrix(Matrix.zeros(f3, 2)).is_zero()
    assert ad_matrix(Matrix.identity(f3, 3)).is_zero()


def test_ad_of_nilpotent_jordan_block_rank():
    # ad of the 2x2 nilpotent block: kernel is spanned by I and the block
    # itself, so the rank of the 4x4 operator matrix is exactly 2
    f2 = make_field("GF(2)")
    j = jordan_block(f2, 0, 2)
    assert ad_matrix(j).rank() == 2


def test_ad_matches_bracket_on_matrix_units():
    f3 = make_field("GF(3)")
    rng = random.Random(41)
    a = random_matrix(f3, 3, rng)
    ad = ad_matrix(a)
    m = 3
    for k in range(m):
        for l in range(m):
            unit = Matrix(f3, [[1 if (i, j) == (k, l) else 0 for j in range(m)] for i in range(m)])
            bracket = a * unit - unit * a
            col = k * m + l
            for i in range(m):
                for j in range(m):
                    assert ad.entry(i * m + j, col) == bracket.entry(i, j)


# ---------------------------------------------------------------------------
# rank and kernel against a full Gauss-Jordan reduction

def _reference_rref(k, rows):
    """Reduced row echelon form by full Gauss-Jordan elimination: (rows,
    pivot columns)."""
    mat = [list(r) for r in rows]
    pivots = []
    for c in range(len(mat[0])):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != k.zero), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = k.inv(mat[r][c])
        mat[r] = [k.mul(v, inv) for v in mat[r]]
        for i, row in enumerate(mat):
            if i != r and row[c] != k.zero:
                f = row[c]
                mat[i] = [k.sub(a, k.mul(f, b)) for a, b in zip(row, mat[r])]
        pivots.append(c)
    return mat, pivots


def _reference_kernel(k, mat, pivots):
    """One vector per free column c of the RREF: e_c minus column c's
    entries in the pivot rows, placed at the pivot columns."""
    basis = []
    for c in range(len(mat[0])):
        if c in pivots:
            continue
        vec = [k.zero] * len(mat[0])
        vec[c] = k.one
        for r, pc in enumerate(pivots):
            vec[pc] = k.neg(mat[r][c])
        basis.append(tuple(vec))
    return basis


def _rank_kernel_cases(k, rng):
    def rand(r, c, density=0.7):
        return [
            [k.random_payload(rng) if rng.random() < density else k.zero for _ in range(c)]
            for _ in range(r)
        ]

    dup_row = rand(4, 4)
    dup_row[2] = list(dup_row[0])
    dup_col = rand(3, 5)
    for row in dup_col:
        row[4] = row[1]
    cases = [rand(2, 5), rand(5, 2), rand(1, 4), rand(4, 1), [[k.zero] * 3] * 2, dup_row, dup_col]
    cases += [rand(rng.randrange(1, 6), rng.randrange(1, 6), rng.random()) for _ in range(25)]
    return cases


def test_rank_and_kernel_match_full_gauss_jordan_reference():
    rng = random.Random(61)
    for spec in ("GF(2)", "GF(3)", "GF(4)", "GF(9)", "GF(3)(Z)"):
        k = make_field(spec)
        for rows in _rank_kernel_cases(k, rng):
            m = Matrix(k, rows)
            mat, pivots = _reference_rref(k, rows)
            assert m.rank() == len(pivots), (spec, str(m))
            kernel = [tuple(x.payload for x in vec) for vec in m.kernel_basis()]
            assert kernel == _reference_kernel(k, mat, pivots), (spec, str(m))


# ---------------------------------------------------------------------------
# GF(2) against GF(4): the packed GF(2) rows against the payload-list rows

def _gf2_cases(rng):
    """Square 0/1 matrices: random ones of sizes 1-9, 64, 65 and 130, their
    block sum, and the zero, identity, nilpotent and duplicate-row cases."""
    f2 = make_field("GF(2)")
    rand = lambda n, density=0.5: [
        [int(rng.random() < density) for _ in range(n)] for _ in range(n)
    ]
    small = [rand(n, rng.choice((0.2, 0.5, 0.8))) for n in range(1, 10)]
    cases = small + [rand(64), rand(65, 0.1), rand(130)]
    cases.append(direct_sum(*(Matrix(f2, rows) for rows in small)).rows)
    cases += [[[0] * 65] * 65, Matrix.identity(f2, 65).rows, jordan_block(f2, 0, 130).rows]
    for n in (9, 65):
        dup = rand(n)
        dup[n - 1] = list(dup[0])
        dup[n // 2] = list(dup[1])
        cases.append(dup)
    return cases


def test_gf2_linear_algebra_matches_the_same_matrix_over_gf4():
    # rank, the RREF kernel basis, the Smith form over F[X] and minimal
    # polynomials do not change under field extension; over GF(4) the rows
    # are payload lists, so this compares the two row algebras
    f2, f4 = make_field("GF(2)"), make_field("GF(4)")
    lift = lambda raw: tuple((v, 0) for v in raw)
    rng = random.Random(88)
    for rows in _gf2_cases(rng):
        m2 = Matrix(f2, rows)
        m4 = Matrix(f4, [lift(row) for row in rows])
        label = f"{m2.nrows}x{m2.ncols}"
        assert m2.rank() == m4.rank(), label
        kernel2 = [lift(x.payload for x in vec) for vec in m2.kernel_basis()]
        assert kernel2 == [tuple(x.payload for x in vec) for vec in m4.kernel_basis()], label
        inv2 = [lift(f.raw) for f in invariant_factors(m2)]
        assert inv2 == [f.raw for f in invariant_factors(m4)], label
    for d in list(range(1, 10)) + [64, 65]:
        q = [rng.randrange(2) for _ in range(d)] + [1]
        for u in ([rng.randrange(2) for _ in range(d)], [0], [1], [0, 1]):
            for modulus in (q, [0] * d + [1]):
                mp2 = min_poly_in_quotient(Poly(f2, u), Poly(f2, modulus))
                mp4 = min_poly_in_quotient(Poly(f4, lift(u)), Poly(f4, lift(modulus)))
                assert lift(mp2.raw) == mp4.raw, (d, u, modulus)


# ---------------------------------------------------------------------------
# eigenspaces

def test_eigenspace_identity():
    f2 = make_field("GF(2)")
    basis = eigenspace(Matrix.identity(f2, 3), 1)
    assert len(basis) == 3


def test_eigenspace_jordan_block():
    f3 = make_field("GF(3)")
    basis = eigenspace(jordan_block(f3, 0, 2), 0)
    assert len(basis) == 1


def test_eigenspace_of_ad_on_artin_schreier_companion():
    f2z = make_field("GF(2)(Z)")
    m = ad_matrix(companion(Poly.from_string(f2z, "X^2-X-Z")))
    assert len(eigenspace(m, f2z.element(1))) == 2


def test_eigenspace_vectors_are_actual_eigenvectors():
    rng = random.Random(43)
    f5 = make_field("GF(5)")
    a = random_matrix(f5, 4, rng)
    for lam in enumerate_elements(f5):
        shifted = a.scalar_shift(-lam)
        for vec in eigenspace(a, lam):
            image = [
                sum((shifted.entry(i, j) * vec[j] for j in range(4)), f5.zero_element())
                for i in range(4)
            ]
            assert all(x == 0 for x in image)


# ---------------------------------------------------------------------------
# invariant factors

def test_invariant_factors_jordan_sum():
    f2 = make_field("GF(2)")
    m = direct_sum(jordan_block(f2, 0, 2), jordan_block(f2, 0, 1))
    inv = invariant_factors(m)
    assert [str(f) for f in inv] == ["X", "X^2"]


def test_invariant_factors_of_ad_on_artin_schreier_companion():
    f2z = make_field("GF(2)(Z)")
    m = ad_matrix(companion(Poly.from_string(f2z, "X^2-X-Z")))
    inv = invariant_factors(m)
    expected = Poly.from_string(f2z, "X^2-X")
    assert len(inv) == 2 and all(f == expected for f in inv)


def test_invariant_factor_chain_and_degree_sum_seeded():
    rng = random.Random(47)
    for spec in ("GF(2)", "GF(3)", "GF(4)"):
        field = make_field(spec)
        for _ in range(15):
            size = rng.randrange(2, 6)
            a = random_matrix(field, size, rng)
            inv = invariant_factors(a)
            assert sum(f.degree() for f in inv) == size
            for f, g in zip(inv, inv.factors[1:]):
                assert (g % f).is_zero()
            assert all(f.is_monic() for f in inv)


def _smith_of_xi_minus(m):
    """Nontrivial Smith diagonal of the full n x n matrix XI - m over F[X]."""
    k = m.field
    rows = []
    for i, row in enumerate(m.rows):
        entries = {}
        for j, a in enumerate(row):
            e = rp.trim(k, (k.neg(a), k.one) if i == j else (k.neg(a),))
            if e:
                entries[j] = e
        rows.append(entries)
    return [Poly.from_raw(k, d) for d in _raw_smith_diagonal(k, rows) if len(d) > 1]


def _raw_smith_diagonal(k, rows):
    """_smith_diagonal in k's row algebra on rows of raw tuple entries:
    the entries are packed and the diagonal comes back as raw tuples."""
    ring = poly._row_algebra(k)
    packed = [{j: ring.pack(e) for j, e in row.items()} for row in rows]
    return [tuple(ring.unpack(d, ring.size(d))) for d in _smith_diagonal(ring, packed)]


def _adversarial_matrices(field, rng):
    one = field.one_element()
    lam = field.element(field.random_payload(rng))
    yield Matrix.zeros(field, 4)
    yield Matrix.identity(field, 4) * lam
    yield direct_sum(
        jordan_block(field, lam, 2), jordan_block(field, 0, 3),
        jordan_block(field, lam, 2), jordan_block(field, lam, 1),
    )
    sparse = [[field.zero] * 6 for _ in range(6)]
    for _ in range(5):
        sparse[rng.randrange(6)][rng.randrange(6)] = field.random_payload(rng)
    yield Matrix(field, sparse)
    yield ad_matrix(direct_sum(jordan_block(field, 0, 2), jordan_block(field, one, 1)))
    yield random_matrix(field, 5, rng)


def test_invariant_factors_agree_with_full_smith_and_jordan_ranks():
    # two routes: the Smith form of the full XI - M, which skips the Krylov
    # chains, and Jordan block counts from ranks of (M - lam)^j, which share
    # no code with any Smith form
    rng = random.Random(73)
    for spec in ("GF(2)", "GF(3)", "GF(4)", "GF(9)", "GF(3)(Z)"):
        field = make_field(spec)
        if field.order is not None:
            lambdas = list(enumerate_elements(field))
        else:
            lambdas = [field.element(s) for s in ("0", "1", "Z", "Z+1")]
        for m in _adversarial_matrices(field, rng):
            inv = invariant_factors(m)
            assert list(inv) == _smith_of_xi_minus(m)
            assert poly_at_matrix(inv.minimal_polynomial(), m).is_zero()
            n = m.nrows
            for lam in lambdas:
                shifted = m.scalar_shift(-lam)
                root = Poly.from_raw(field, (field.neg(lam.payload), field.one))
                power, prev_rank = Matrix.identity(field, n), n
                for j in range(1, n + 1):
                    power = power * shifted
                    rank = power.rank()
                    divisible = sum(1 for f in inv if (f % root**j).is_zero())
                    assert divisible == prev_rank - rank, (spec, str(lam), j)
                    if rank == prev_rank:
                        break
                    prev_rank = rank


def _reference_smith_diagonal(k, rows):
    """Reference Smith finish, with no coprime-base closure: eliminate pivot
    by pivot (smallest degree, leftmost column, topmost row)
    and accept a pivot only once it divides every entry of the trailing
    block, adding an offending row to the pivot row otherwise."""
    n = len(rows)
    diag = []
    for s in range(n):
        while True:
            best = min(
                ((len(e), j, i) for i in range(s, n) for j, e in rows[i].items()),
                default=None,
            )
            if best is None:
                diag.append(())
                break
            _, bj, bi = best
            rows[s], rows[bi] = rows[bi], rows[s]
            if bj != s:
                for row in rows[s:]:
                    a, b = row.pop(s, None), row.pop(bj, None)
                    if a:
                        row[bj] = a
                    if b:
                        row[s] = b
            top = rows[s]
            piv = top[s]
            dirty = False
            for row in rows[s + 1:]:
                if s in row:
                    q, r = rp.divmod_(k, row[s], piv)
                    if q:
                        for j, e in top.items():
                            _put_entry(row, j, rp.sub(k, row.get(j, ()), rp.mul(k, q, e)))
                    if r:
                        dirty = True
            for j in [j for j in top if j != s]:
                q, r = rp.divmod_(k, top[j], piv)
                if q:
                    for row in rows[s:]:
                        if s in row:
                            _put_entry(row, j, rp.sub(k, row.get(j, ()), rp.mul(k, q, row[s])))
                if r:
                    dirty = True
            if dirty:
                continue
            offender = next(
                (row for row in rows[s + 1:] if any(rp.rem(k, e, piv) for e in row.values())),
                None,
            )
            if offender is None:
                diag.append(rp.monic(k, piv))
                break
            for j, e in offender.items():
                _put_entry(top, j, rp.add(k, top.get(j, ()), e))
    return diag


def _put_entry(row, j, e):
    if e:
        row[j] = e
    else:
        row.pop(j, None)


def _smith_test_matrices(k, rng):
    """Sparse polynomial matrices, one {column: raw entry} dict per row."""
    x = (k.zero, k.one)
    b = (k.one, k.one)  # X + 1
    shared = [
        b, rp.mul(k, b, b), rp.mul(k, x, b),
        rp.mul(k, x, rp.trim(k, (k.from_int(2), k.one))),  # X(X+1), X(X+2)
        rp.mul(k, x, rp.mul(k, b, b)),
    ]

    if k.order is None:
        # over K(Z), coefficients from a few polynomials in Z keep the
        # reference's elimination from growing large fractions
        small = [k.element(c).payload for c in ("0", "1", "2", "Z", "Z+1", "2*Z")]

        def coeff():
            return rng.choice(small)
    else:

        def coeff():
            return k.random_payload(rng)

    def unit():
        while True:
            c = coeff()
            if c != k.zero:
                return (c,)

    def entry():
        # a unit, a non-monic multiple of a shared entry, or degree <= 2
        choice = rng.randrange(4)
        if choice == 0:
            return unit()
        if choice == 1:
            return rp.scale(k, rng.choice(shared), unit()[0])
        return rp.trim(k, tuple(coeff() for _ in range(rng.randrange(1, 4))))

    def diagonal(entries):
        return [{i: e} if e else {} for i, e in enumerate(entries)]

    # repeated and factor-sharing entries, units and zeros, all on the diagonal
    yield diagonal(shared + shared[:2] + [unit(), unit(), (), ()])
    yield diagonal([rp.scale(k, rng.choice(shared), unit()[0]) for _ in range(7)])
    yield diagonal([shared[2], shared[3]])
    for _ in range(6):
        n = rng.randrange(3, 8)
        rows = diagonal([entry() for _ in range(n)])
        # couple a few rows; the rest stay isolated diagonal rows
        coupled = rng.sample(range(n), rng.randrange(2, n + 1))
        for _ in range(rng.randrange(1, 2 * n)):
            i, j = rng.choice(coupled), rng.choice(coupled)
            e = entry()
            if e:
                rows[i][j] = e
        yield rows
    # singular: zero diagonal entries inside the coupled block, a repeated row
    rows = diagonal([shared[0], (), shared[2], (), unit()])
    rows[1][2] = shared[3]
    rows[3] = dict(rows[2])
    yield rows


def _smith_cases():
    rng = random.Random(89)
    for spec in ("GF(2)", "GF(3)", "GF(9)", "GF(3)(Z)"):
        k = make_field(spec)
        for rows in _smith_test_matrices(k, rng):
            yield spec, k, rows


def test_smith_diagonal_matches_reference_finish():
    for spec, k, rows in _smith_cases():
        expected = _reference_smith_diagonal(k, [dict(r) for r in rows])
        assert _raw_smith_diagonal(k, [dict(r) for r in rows]) == expected, (spec, rows)


def _is_chain(ring, diag):
    entries = sorted((ring.monic(d) for d in diag if d), key=ring.size)
    return not any(ring.divmod(b, a)[1] for a, b in zip(entries, entries[1:]))


def test_close_diagonal_matches_refinement_on_the_reference_diagonals(monkeypatch):
    # every diagonal that the reference-finish test hands the closing,
    # closed by the chain exit and by factor refinement alone
    close, seen = linalg._close_diagonal, []

    def recording(ring, diag):
        seen.append((ring, list(diag)))
        return close(ring, diag)

    monkeypatch.setattr(linalg, "_close_diagonal", recording)
    cases = 0
    for _, k, rows in _smith_cases():
        _raw_smith_diagonal(k, rows)
        cases += 1
    assert len(seen) == cases
    for ring, diag in seen:
        entries = sorted((ring.monic(d) for d in diag if d), key=ring.size)
        refined = linalg._refine_diagonal(ring, entries) + [ring.zero] * (len(diag) - len(entries))
        assert close(ring, diag) == refined, diag
    chains = sum(_is_chain(ring, diag) for ring, diag in seen)
    assert 0 < chains < len(seen), (chains, len(seen))


@pytest.mark.parametrize("spec, unit", [("GF(2)", "1"), ("GF(3)", "2"), ("GF(9)", "t"), ("GF(3)(Z)", "Z+1")])
def test_close_diagonal_on_hand_made_diagonals(spec, unit, monkeypatch):
    k = make_field(spec)
    ring = poly._row_algebra(k)
    refinements = []
    coprime_base = linalg._coprime_base

    def counting(ring, polys):
        refinements.append(polys)
        return coprime_base(ring, polys)

    monkeypatch.setattr(linalg, "_coprime_base", counting)

    def packed(texts):
        return [ring.pack(Poly.from_string(k, t).raw) for t in texts]

    cases = [
        # not chains: refined
        (["X", "X+1"], ["1", "X^2+X"], False),
        (["X^2", "X+1", "X"], ["1", "X", "X^3+X^2"], False),
        ([f"({unit})*(X+1)", "X", "X+1"], ["1", "X+1", "X^2+X"], False),
        (["0", f"({unit})*X", "X^2+1", "0", unit], ["1", "1", "X^3+X", "0", "0"], False),
        # chains, duplicates, units and zeros: returned as they stand
        ([f"({unit})*X", "X^2", "X", unit], ["1", "X", "X", "X^2"], True),
        (["X^2+X", "0", f"({unit})*(X+1)", "X+1"], ["X+1", "X+1", "X^2+X", "0"], True),
        (["0", "0"], ["0", "0"], True),
        ([unit, unit], ["1", "1"], True),
        ([], [], True),
    ]
    for diag, expected, chain in cases:
        refinements.clear()
        assert linalg._close_diagonal(ring, packed(diag)) == packed(expected), (spec, diag)
        assert (not refinements) == chain, (spec, diag)


def test_invariant_factor_list_validates_chain():
    f2 = make_field("GF(2)")
    with pytest.raises(Exception):
        InvariantFactorList([Poly.from_string(f2, "X+1"), Poly.from_string(f2, "X^2+X+1")])


def test_a_broken_chain_names_the_field_the_size_and_the_factors():
    f3 = make_field("GF(3)")
    factors = [Poly.from_string(f3, s) for s in ("X", "X^2", "X^2+1")]
    with pytest.raises(
        ConsistencyError,
        match=r"invariant factor chain broken over GF\(3\), size 5: factor 1 \(X\^2\) "
        r"does not divide factor 2 \(X\^2\+1\)",
    ):
        InvariantFactorList(factors)


def test_smith_degrees_short_of_the_size_name_the_instance(monkeypatch):
    # the mutant: the Smith diagonal loses its last entry
    real = linalg._smith_diagonal
    monkeypatch.setattr(linalg, "_smith_diagonal", lambda ring, rows: real(ring, rows)[:-1])
    f2z = make_field("GF(2)(Z)")
    with pytest.raises(
        ConsistencyError,
        match=r"Smith normal form degrees do not sum to the size: 0 against 2 x 2 over GF\(2\)\(Z\)",
    ):
        invariant_factors(companion(Poly.from_string(f2z, "X^2-X-Z")))


def _krylov_min_poly(field, a):
    """Independent minimal polynomial: first dependence among I, A, A^2, ..."""
    n = a.nrows
    p = field.char
    flat = lambda m: [int(str(m.entry(i, j))) for i in range(n) for j in range(n)]
    powers = [Matrix.identity(field, n)]
    while True:
        vecs = [flat(m) for m in powers]
        count = len(vecs)
        ncols = n * n
        aug = [v[:] + [1 if i == j else 0 for j in range(count)] for i, v in enumerate(vecs)]
        r = 0
        for c in range(ncols):
            piv = next((i for i in range(r, count) if aug[i][c] % p), None)
            if piv is None:
                continue
            aug[r], aug[piv] = aug[piv], aug[r]
            inv = pow(aug[r][c], p - 2, p)
            aug[r] = [(v * inv) % p for v in aug[r]]
            for i in range(count):
                if i != r and aug[i][c] % p:
                    f = aug[i][c]
                    aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[r])]
            r += 1
        if r < count:
            for i in range(count):
                if all(v % p == 0 for v in aug[i][:ncols]):
                    combo = aug[i][ncols:]
                    deg = max(j for j, c in enumerate(combo) if c % p)
                    inv = pow(combo[deg], p - 2, p)
                    return Poly(field, [(c * inv) % p for c in combo[: deg + 1]])
        powers.append(powers[-1] * a)


def test_minimal_polynomial_matches_independent_krylov_computation():
    rng = random.Random(2024)
    for spec in ("GF(2)", "GF(3)", "GF(5)"):
        field = make_field(spec)
        for _ in range(8):
            size = rng.randrange(2, 6)
            a = random_matrix(field, size, rng)
            assert invariant_factors(a).minimal_polynomial() == _krylov_min_poly(field, a)


# ---------------------------------------------------------------------------
# similarity

def test_similar_reflexive_and_shift_lemma():
    rng = random.Random(53)
    for spec in ("GF(3)", "GF(5)", "GF(2)(Z)"):
        field = make_field(spec)
        for _ in range(8):
            f = random_monic(field, rng.randrange(1, 4), rng)
            a = companion(f)
            assert similar(a, a)
            b = field.element(field.random_payload(rng))
            assert similar(a, companion(f.shifted(b)).scalar_shift(b))


def test_similar_distinguishes_jordan_from_zero():
    f2 = make_field("GF(2)")
    assert not similar(jordan_block(f2, 0, 2), Matrix.zeros(f2, 2))


def test_similar_is_an_equivalence_on_seeded_triples():
    rng = random.Random(59)
    f3 = make_field("GF(3)")
    mats = [random_matrix(f3, 3, rng) for _ in range(6)]
    for a in mats:
        for b in mats:
            assert similar(a, b) == similar(b, a)
            for c in mats:
                if similar(a, b) and similar(b, c):
                    assert similar(a, c)


# ---------------------------------------------------------------------------
# Pascal similarity and compositions

def test_pascal_matrix_example():
    f5 = make_field("GF(5)")
    s = pascal_similarity(Poly.from_string(f5, "X^3"), 1)
    assert [[int(str(s.entry(i, j))) for j in range(3)] for i in range(3)] == [
        [1, 1, 1],
        [0, 1, 2],
        [0, 0, 1],
    ]


def test_pascal_identity_with_zero_shift_is_identity():
    f3 = make_field("GF(3)")
    s = pascal_similarity(Poly.from_string(f3, "X^4+X+1"), 0)
    assert s == Matrix.identity(f3, 4)


def test_pascal_identity_seeded():
    rng = random.Random(61)
    for spec in ("GF(5)", "GF(9)", "GF(2)(Z)"):
        field = make_field(spec)
        for _ in range(5):
            f = random_monic(field, rng.randrange(1, 5), rng)
            b = field.element(field.random_payload(rng))
            s = pascal_similarity(f, b)  # verifies the identity internally
            assert s.nrows == f.degree()


def test_a_failed_pascal_identity_names_f_b_and_the_field(monkeypatch):
    # the mutant: every shift also adds 1 to the constant term
    real = Poly.shifted
    monkeypatch.setattr(Poly, "shifted", lambda f, b: real(f, b) + 1)
    f3 = make_field("GF(3)")
    with pytest.raises(
        ConsistencyError,
        match=r"Pascal similarity identity failed for f = X\^3\+2\*X\+2, b = 1 over GF\(3\), 3 x 3",
    ):
        pascal_similarity(Poly.from_string(f3, "X^3-X-1"), 1)


def test_companion_composition_similarity():
    f5 = make_field("GF(5)")
    assert verify_companion_composition(
        Poly.from_string(f5, "X^2+1"), Poly.from_string(f5, "X^2")
    )
    # degree-1 outer polynomial reduces to plain similarity of companions
    assert verify_companion_composition(
        Poly.from_string(f5, "X^3+X+1"), Poly.from_string(f5, "X")
    )
    f2z = make_field("GF(2)(Z)")
    assert verify_companion_composition(
        Poly.from_string(f2z, "X^2-X-Z"), Poly.from_string(f2z, "X^2")
    )


# ---------------------------------------------------------------------------
# nilpotent Jordan types

def test_nilpotent_jordan_type_zero_and_single_block():
    f2 = make_field("GF(2)")
    assert nilpotent_jordan_type(Matrix.zeros(f2, 3)).sizes() == [1, 1, 1]
    assert nilpotent_jordan_type(jordan_block(f2, 0, 4)).sizes() == [4]


def _independent_rank_mod_p(rows, p):
    rows = [r[:] for r in rows]
    n = len(rows)
    m = len(rows[0])
    rank = 0
    for c in range(m):
        piv = next((i for i in range(rank, n) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for i in range(n):
            if i != rank and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_jordan_type_of_kronecker_action_vs_independent_oracle():
    # independent computation with plain integer arithmetic mod 2
    p = 2
    n, m = 2, 3
    big = [[0] * (n * m) for _ in range(n * m)]
    for i in range(n):
        for j in range(m):
            row = i * m + j
            if i + 1 < n:
                big[row][(i + 1) * m + j] ^= 1
            if j + 1 < m:
                big[row][i * m + (j + 1)] ^= 1
    ranks = [n * m]
    power = [r[:] for r in big]
    while True:
        r = _independent_rank_mod_p(power, p)
        ranks.append(r)
        if r == 0:
            break
        power = [
            [sum(power[i][k] * big[k][j] for k in range(n * m)) % p for j in range(n * m)]
            for i in range(n * m)
        ]
    sizes = []
    for k in range(1, len(ranks)):
        ge_k = ranks[k - 1] - ranks[k]
        ge_k1 = ranks[k] - ranks[k + 1] if k + 1 < len(ranks) else 0
        sizes += [k] * (ge_k - ge_k1)
    assert sorted(sizes, reverse=True) == [4, 2]

    f2 = make_field("GF(2)")
    op = kron(jordan_block(f2, 0, 2), Matrix.identity(f2, 3)) + kron(
        Matrix.identity(f2, 2), jordan_block(f2, 0, 3)
    )
    assert nilpotent_jordan_type(op).sizes() == [4, 2]


def test_nilpotent_jordan_type_rejects_non_nilpotent():
    f2 = make_field("GF(2)")
    f3 = make_field("GF(3)")
    f3z = make_field("GF(3)(Z)")
    with pytest.raises(InputError, match="square"):
        nilpotent_jordan_type(Matrix.zeros(f3, 2, 3))
    # the companion of X^2 + X and J_2(0) + I_1 are singular: X divides an
    # invariant factor that is not a power of X
    for n in (Matrix.identity(f2, 2),
              companion(Poly.from_string(f3, "X^2+X")),
              direct_sum(jordan_block(f3, 0, 2), Matrix.identity(f3, 1)),
              jordan_block(f3z, 0, 3).scalar_shift(f3z.element("Z"))):
        with pytest.raises(InputError, match="not nilpotent"):
            nilpotent_jordan_type(n)


def _rank_sequence_jordan_sizes(n):
    """Block sizes from the ranks of N, N^2, ...: the number of blocks of
    size at least k is rank(N^(k-1)) - rank(N^k)."""
    ranks = [n.nrows, n.rank()]
    power = n
    while ranks[-1]:
        power = power * n
        ranks.append(power.rank())
    at_least = [a - b for a, b in zip(ranks, ranks[1:])] + [0]
    sizes = []
    for k in range(1, len(at_least)):
        sizes += [k] * (at_least[k - 1] - at_least[k])
    return sorted(sizes, reverse=True)


def _strictly_upper(field, size, rng):
    return Matrix.from_raw(field, [
        [field.random_payload(rng) if j > i else field.zero for j in range(size)]
        for i in range(size)
    ])


def test_nilpotent_jordan_type_matches_rank_sequences():
    cases = []
    for p in (2, 3, 5, 7):
        k = make_field(f"GF({p})")
        for n in range(1, 25):
            for m in range(1, 24 // n + 1):
                cases.append(
                    kron(jordan_block(k, 0, n), Matrix.identity(k, m))
                    + kron(Matrix.identity(k, n), jordan_block(k, 0, m))
                )
    rng = random.Random(41)
    for spec, sizes in (("GF(4)", range(1, 9)), ("GF(9)", range(1, 9)),
                        ("GF(3)(Z)", range(1, 6))):
        k = make_field(spec)
        for size in sizes:
            cases += [Matrix.zeros(k, size), jordan_block(k, 0, size)]
            cases += [_strictly_upper(k, size, rng) for _ in range(3)]
    for n in cases:
        assert nilpotent_jordan_type(n).sizes() == _rank_sequence_jordan_sizes(n), n


# ---------------------------------------------------------------------------
# structural facts about ad

def test_centralizer_dimension_equals_zero_eigenspace_of_ad():
    # for a cyclic matrix the centralizer is F[A], of dimension m
    rng = random.Random(67)
    for spec in ("GF(2)", "GF(3)"):
        field = make_field(spec)
        for _ in range(8):
            f = random_monic(field, rng.randrange(2, 5), rng)
            a = companion(f)
            assert len(eigenspace(ad_matrix(a), 0)) == f.degree()


def test_eigenvalue_difference_law_over_finite_fields():
    # when the characteristic polynomial of A splits, the eigenvalues of
    # ad A are exactly the pairwise differences of those of A
    rng = random.Random(71)
    for spec in ("GF(2)", "GF(3)"):
        field = make_field(spec)
        checked = 0
        while checked < 6:
            size = rng.randrange(2, 5)
            a = random_matrix(field, size, rng)
            inv = invariant_factors(a)
            chi = Poly.one(field)
            for f in inv:
                chi = chi * f
            roots = roots_in_finite_field(chi)
            if sum(mult for _, mult in roots) != size:
                continue  # does not split; law not applicable
            checked += 1
            s_a = {r.sort_key() for r, _ in roots}
            ad = ad_matrix(a)
            ad_inv = invariant_factors(ad)
            ad_chi = Poly.one(field)
            for f in ad_inv:
                ad_chi = ad_chi * f
            ad_roots = {r.sort_key() for r, _ in roots_in_finite_field(ad_chi)}
            elems = {x.sort_key(): x for x in enumerate_elements(field)}
            diffs = {
                (elems[x] - elems[y]).sort_key() for x in s_a for y in s_a
            }
            assert ad_roots == diffs


# ---------------------------------------------------------------------------
# conversions and plumbing

def test_elementary_divisors_roundtrip():
    f3 = make_field("GF(3)")
    m = direct_sum(
        jordan_block(f3, 1, 2), jordan_block(f3, 0, 2), jordan_block(f3, 1, 1)
    )
    inv = invariant_factors(m)
    ed = elementary_divisors_from_invariant(inv)
    assert [(str(prime), exp, mult) for (prime, exp), mult in ed] == [
        ("X", 2, 1), ("X+2", 1, 1), ("X+2", 2, 1)
    ]


def test_poly_at_matrix():
    f5 = make_field("GF(5)")
    f = Poly.from_string(f5, "X^2+1")
    c = companion(f)
    assert poly_at_matrix(f, c).is_zero()  # Cayley-Hamilton for companions


def test_matrix_json_roundtrip():
    f4z = make_field("GF(4)(Z)")
    m = companion(Poly.from_string(f4z, "X^2+t*X+Z"))
    again = Matrix.from_json_dict(m.to_json_dict())
    assert again == m


def test_matrix_size_caps():
    f2z = make_field("GF(2)(Z)")
    with pytest.raises(CapExceededError):
        Matrix.zeros(f2z, 101)


def test_public_matrix_validates_and_from_raw_trusts_canonical_rows():
    f3, f9, f3z = make_field("GF(3)"), make_field("GF(9)"), make_field("GF(3)(Z)")
    bad = [
        (f3, [[f9.one_element()]], InputError),  # element of another field
        (f9, [[(1, 2, 0)]], InputError),  # payload of the wrong length
        (f9, [[None]], InputError),
        (f3z, [[((1,), (1,), (1,))]], InputError),  # three parts, not (num, den)
        (f3z, [[((2,), (2,))]], InputError),  # fraction with a non-monic denominator
        (f3z, [[((1, 1), (1, 1))]], InputError),  # fraction not in lowest terms
        (f3, [[1, 2], [0]], InputError),  # ragged rows
        (f3, [], InputError),
        (f3, [[]], InputError),
        (f3, [[0] * 1025], CapExceededError),
        (f3z, [[0]] * 101, CapExceededError),
    ]
    for field, rows, error in bad:
        with pytest.raises(error):
            Matrix(field, rows)
    with pytest.raises(InputError):
        Matrix.identity(f3, 2).scalar_shift(f9.one_element())
    rng = random.Random(5)
    for field in (f3, f9, f3z):
        for size in (1, 2, 3):
            rows = [[field.random_payload(rng) for _ in range(size + 1)] for _ in range(size)]
            assert Matrix.from_raw(field, rows) == Matrix(field, rows)
    assert Matrix(f3z, [["Z/(Z+1)", 2]]) == Matrix.from_raw(f3z, [[((0, 1), (1, 1)), ((2,), (1,))]])


def test_kron_shapes_and_values():
    f3 = make_field("GF(3)")
    a = Matrix(f3, [[1, 2], [0, 1]])
    b = Matrix(f3, [[2]])
    k = kron(a, b)
    assert k.nrows == 2 and k.entry(0, 1) == f3(1)  # 2*2 = 4 = 1 mod 3


# ---------------------------------------------------------------------------
# invertibility over K(Z): specialisation first, the exact rank as fallback

def _laplace_det(m):
    """Determinant by cofactor expansion over FieldElements: no elimination,
    so it shares no code with the rank or the specialisation."""

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = rows[0][0] - rows[0][0]
        for j, a in enumerate(rows[0]):
            term = a * det([r[:j] + r[j + 1:] for r in rows[1:]])
            total = total - term if j % 2 else total + term
        return total

    return det([[m.entry(i, j) for j in range(m.ncols)] for i in range(m.nrows)])


def _kz_matrices(field, seed):
    """Seeded K(Z) matrices of sizes 1-4, each followed by one made
    rank-deficient by construction: its last row a K(Z) combination of the
    others (the zero matrix at size 1)."""
    rng = random.Random(seed)
    out = []
    for size in (1, 2, 3, 4):
        for _ in range(6):
            rows = [[field.random_payload(rng) for _ in range(size)] for _ in range(size)]
            last = [field.zero] * size
            for row in rows[:-1]:
                c = field.random_payload(rng)
                last = [field.add(acc, field.mul(c, x)) for acc, x in zip(last, row)]
            out.append((Matrix.from_raw(field, rows), None))
            out.append((Matrix.from_raw(field, rows[:-1] + [last]), False))
    return out


def _invertibility_disagreements(spec, seed):
    """The seeded matrices on which is_invertible disagrees with the
    determinant, or with the construction."""
    field = make_field(spec)
    bad = []
    for m, expected in _kz_matrices(field, seed):
        got = m.is_invertible()
        if got != bool(_laplace_det(m)) or expected not in (None, got):
            bad.append(m)
    return bad


@pytest.mark.parametrize("spec", ["GF(2)(Z)", "GF(3)(Z)", "GF(4)(Z)"])
def test_kz_invertibility_matches_the_determinant(spec):
    assert _invertibility_disagreements(spec, 11) == []


@pytest.mark.parametrize("spec", ["GF(2)(Z)", "GF(3)(Z)", "GF(4)(Z)"])
def test_kz_invertibility_is_mostly_certified_without_the_exact_rank(spec, monkeypatch):
    field = make_field(spec)
    exact = []
    real_rank = Matrix.rank
    monkeypatch.setattr(Matrix, "rank", lambda self: exact.append(self) or real_rank(self))
    invertible = certified = 0
    for m, expected in _kz_matrices(field, 11):
        before = len(exact)
        if expected is None and m.is_invertible():
            invertible += 1
            certified += len(exact) == before
    assert invertible >= 16 and certified >= invertible * 3 // 4


@pytest.mark.parametrize("spec", ["GF(2)(Z)", "GF(3)(Z)", "GF(4)(Z)", "GF(3)", "GF(9)"])
def test_invertible_matches_the_determinant_and_builds_nothing_once_certified(spec, monkeypatch):
    # the same seeded construction serves the finite fields, where no
    # point is tried and the exact rank decides every matrix; once a point
    # certifies, is_invertible takes no exact rank
    field = make_field(spec)
    rational = field.kind == "rational-function"
    for m, expected in _kz_matrices(field, 17):
        with monkeypatch.context() as patch:
            if not rational:
                patch.setattr(
                    linalg, "certifying_point", lambda *args: pytest.fail("a point tried over a finite field")
                )
            elif _certifying_points(field, m.nrows, m.rows)[1]:
                patch.setattr(Matrix, "rank", lambda self: pytest.fail("exact rank after a point certified"))
            got = m.is_invertible()
        assert got == bool(_laplace_det(m)) and expected in (None, got)


def test_a_specialised_rank_that_overclaims_is_caught(monkeypatch):
    # the mutant: every specialised M(z0) has full rank, singular or not
    real = linalg._rank
    monkeypatch.setattr(
        linalg,
        "_rank",
        lambda algebra, rows: len(rows) if algebra.k.order is not None else real(algebra, rows),
    )
    assert _invertibility_disagreements("GF(3)(Z)", 11)


def _certifying_points(field, m, rows):
    """Indices of the points certifying_point tries, from the first, before
    it certifies the matrix of these payload rows, and whether one does."""
    tried = []
    entries = [x for row in rows for x in row]

    def at(i, point):
        tried.append(i)
        vec = specialise(field, entries, point)
        return None if vec is None else poly._row_algebra(point[0]).pack(vec)

    return tried, certifying_point(field, m, at) is not None


@pytest.mark.parametrize("spec", ["GF(2)", "GF(3)", "GF(9)", "GF(2)(Z)", "GF(3)(Z)"])
def test_one_rank_builds_one_row_algebra(spec, monkeypatch):
    # full_rank reshapes and ranks in the one algebra it looks up, and
    # Matrix.rank packs and ranks in one; both agree with the ranks taken
    # before the count
    rng = random.Random(spec)
    field = make_field(spec)
    pays = list(enumerate_elements(field)) if field.order else [field(0), field(1), field("Z")]
    mats = [Matrix(field, [[rng.choice(pays) for _ in range(m)] for _ in range(m)]) for m in (1, 2, 3, 4)]
    mats.append(Matrix(field, [[1, 1], [1, 1]]))
    packed = [(m, poly._row_algebra(field).pack([x for row in m.rows for x in row])) for m in mats]
    ranks = [m.rank() for m in mats]
    built, real = [], linalg._row_algebra
    monkeypatch.setattr(linalg, "_row_algebra", lambda k: built.append(k) or real(k))
    for (m, vec), rank in zip(packed, ranks):
        built.clear()
        assert linalg.full_rank(field, m.nrows, vec) == (rank == m.nrows), (spec, m)
        assert built == [field], spec
        built.clear()
        assert m.rank() == rank and built == [field], spec
    assert {rank == m.nrows for m, rank in zip(mats, ranks)} == {True, False}, ranks


@pytest.mark.parametrize("spec, det", [("GF(2)(Z)", "Z^2+Z"), ("GF(3)(Z)", "Z^3-Z")])
def test_a_determinant_vanishing_on_k_is_certified_at_the_extension_points(spec, det, monkeypatch):
    field = make_field(spec)
    m = Matrix(field, [[det]])
    k = field.base.order
    tried, verdict = _certifying_points(field, 1, m.rows)
    assert verdict and tried == list(range(k + 1))
    assert fields.specialisation_points(field.base)[k][0].order == k * k
    monkeypatch.setattr(Matrix, "rank", lambda self: pytest.fail("exact rank reached"))
    assert m.is_invertible()


def test_denominators_vanishing_on_k_skip_those_points(monkeypatch):
    f2z = make_field("GF(2)(Z)")
    # det = 1/(Z+1) - 1 = Z/(Z+1), nonzero; both points of GF(2) are poles
    m = Matrix(f2z, [["1/(Z^2+Z)", 1], [1, "Z"]])
    entries = [x for row in m.rows for x in row]
    points = fields.specialisation_points(f2z.base)
    assert [specialise(f2z, entries, pt) is None for pt in points] == [True, True, False, False]
    tried, verdict = _certifying_points(f2z, 2, m.rows)
    assert verdict and tried == [0, 1, 2]
    monkeypatch.setattr(Matrix, "rank", lambda self: pytest.fail("exact rank reached"))
    assert m.is_invertible()


def test_denominators_vanishing_everywhere_fall_back_to_the_exact_rank():
    f2z = make_field("GF(2)(Z)")
    # Z^4 + Z vanishes on all of GF(4), so no point is usable
    m = Matrix(f2z, [["1/(Z^4+Z)", 0], [0, 1]])
    entries = [x for row in m.rows for x in row]
    assert all(specialise(f2z, entries, pt) is None for pt in fields.specialisation_points(f2z.base))
    assert _certifying_points(f2z, 2, m.rows) == ([0, 1, 2, 3], False)
    assert m.is_invertible()
    assert not Matrix(f2z, [["1/(Z^4+Z)", 1], ["1/(Z^4+Z)", 1]]).is_invertible()


@pytest.mark.parametrize(
    "spec, tries",
    [("GF(2)(Z)", 4), ("GF(3)(Z)", 9), ("GF(4)(Z)", 16), ("GF(9)(Z)", SPECIALISATION_TRIES),
     ("GF(31)(Z)", 31), ("GF(729)(Z)", SPECIALISATION_TRIES)],
)
def test_a_singular_matrix_makes_the_capped_tries_then_one_exact_rank(spec, tries, monkeypatch):
    field = make_field(spec)
    # singular: the second row is Z times the first
    m = Matrix(field, [["Z+1", "1/Z"], ["Z^2+Z", 1]])
    specialised = []
    monkeypatch.setattr(
        linalg, "specialise", lambda *args: specialised.append(args) or specialise(*args)
    )
    exact = []
    real_rank = Matrix.rank
    monkeypatch.setattr(Matrix, "rank", lambda self: exact.append(self) or real_rank(self))
    assert not m.is_invertible()
    assert len(specialised) == tries <= SPECIALISATION_TRIES
    assert exact == [m]


# ---------------------------------------------------------------------------
# the packed GF(2) and inline GF(p) kernels against payload-list and tuple
# references: _PayloadRows(field), the row algebra over GF(p^n) and K(Z),
# stands in for the field's own (_BitRows over GF(2), _PrimeRows over odd p)

DIFFERENTIAL_FIELDS = ("GF(2)", "GF(3)", "GF(5)", "GF(7)", "GF(727)")


def _differential_matrices(field):
    """Seeded random ad matrices (m <= 12 over GF(2), m <= 8 over odd p, to
    keep the payload reference fast), three 196 x 196 block sums of seven
    size-2 Jordan blocks, and tensor's block sums of two or three
    J_(p^e)(a) of size at most 15, all over the prime field."""
    rng = random.Random(181)
    p = field.p
    for m in (1, 2, 3, 4, 5, 5, 6, 7, 8) + ((10, 12) if p == 2 else ()):
        yield ad_matrix(random_matrix(field, m, rng))
    for _ in range(3):
        blocks = [jordan_block(field, rng.randrange(p), 2) for _ in range(7)]
        yield ad_matrix(direct_sum(*blocks))
    for e in range(3):
        for count in (2, 3):
            if count * p**e <= 15:
                yield blocksum_ad_matrix([rng.randrange(p) for _ in range(count)], e, p)


def _with_payload_rows(monkeypatch, run):
    """run() with the echelon and the Smith finish on payload lists and
    tuples, over every field."""
    with monkeypatch.context() as patch:
        for module in (poly, linalg, ad_analyzer):
            patch.setattr(module, "_row_algebra", poly._PayloadRows)
        return run()


def test_pivot_table_echelon_matches_payload_rows(monkeypatch):
    for spec in DIFFERENTIAL_FIELDS:
        field = make_field(spec)
        for mat in _differential_matrices(field):
            columns = [list(col) for col in zip(*mat.rows)]

            def run():
                return (
                    mat.rank(),
                    _kernel(field, columns),
                    invariant_factors(mat),
                )

            assert run() == _with_payload_rows(monkeypatch, run), (spec, mat)
        rng = random.Random(182)
        for deg in (1, 2, 5, 17, 40) + ((64,) if field.p == 2 else ()):
            for _ in range(3):
                m = random_monic(field, deg, rng).raw
                u = rp.trim(field, tuple(field.random_payload(rng) for _ in range(deg)))

                def run():
                    return _min_dependence(field, u, m)

                assert run() == _with_payload_rows(monkeypatch, run), (spec, u, m)


def _reference_apply(field, rows, vec):
    """The matrix times vec, one dot product of field methods per row."""
    out = []
    for row in rows:
        acc = field.zero
        for a, b in zip(row, vec):
            acc = field.add(acc, field.mul(a, b))
        out.append(acc)
    return out


def _unit_heavy_rows(field, nrows, ncols, rng):
    """Seeded nrows x ncols payload rows, the first one zero, whose entries
    are mostly 0, 1 (whose product apply skips) and -1."""
    pool = [field.zero, field.one, field.neg(field.one)]
    rows = [[field.zero] * ncols]
    for _ in range(nrows - 1):
        rows.append([rng.choice(pool) if rng.random() < 0.7 else field.random_payload(rng)
                     for _ in range(ncols)])
    return rows


NON_SQUARE_SHAPES = ((4, 2), (9, 3), (16, 4), (2, 5), (5, 3), (1, 4), (3, 1))


def test_apply_matches_a_reference_matrix_vector_product():
    # apply is written once per representation; the field's own row
    # algebra and the payload lists against dot products,
    # on the differential matrices, on random matrices over GF(3)(Z), and on
    # non-square ones: m^2 x d, the sweep's combinations, and n x k
    cases = [
        (make_field(spec), mat.rows)
        for spec in DIFFERENTIAL_FIELDS
        for mat in _differential_matrices(make_field(spec))
    ]
    f3z, rng = make_field("GF(3)(Z)"), random.Random(187)
    cases += [(f3z, random_matrix(f3z, size, rng).rows) for size in (1, 2, 3, 4, 5)]
    for spec in ("GF(2)", "GF(3)", "GF(9)", "GF(3)(Z)"):
        field = make_field(spec)
        cases += [(field, _unit_heavy_rows(field, n, k, rng)) for n, k in NON_SQUARE_SHAPES]
    for field, rows in cases:
        n, k = len(rows), len(rows[0])
        minus_one = field.neg(field.one)
        vecs = [[field.zero] * k, [field.one] + [field.zero] * (k - 1), [minus_one] * k]
        vecs += [[field.random_payload(rng) for _ in range(k)] for _ in range(2)]
        expected = [_reference_apply(field, rows, vec) for vec in vecs]
        for algebra in (poly._row_algebra(field), poly._PayloadRows(field)):
            columns = algebra.columns(zip(*rows))
            got = [algebra.unpack(algebra.apply(columns, algebra.pack(v), n), n) for v in vecs]
            assert got == expected, (field, rows)


def _reference_product(a, b):
    """a * b by the triple loop of field methods."""
    k = a.field
    out = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = k.zero
            for t in range(a.ncols):
                acc = k.add(acc, k.mul(a.rows[i][t], b.rows[t][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


@pytest.mark.parametrize("spec", ["GF(2)", "GF(3)", "GF(9)", "GF(727)", "GF(3)(Z)"])
def test_matrix_product_matches_the_triple_loop(spec):
    field, rng = make_field(spec), random.Random(188)
    shapes = [(n, n, n) for n in (1, 2, 3, 5)]
    shapes += [(n, k, j) for n, k in NON_SQUARE_SHAPES for j in (1, 3)]
    for n, k, j in shapes:
        a = Matrix.from_raw(field, _unit_heavy_rows(field, n, k, rng))
        b = Matrix.from_raw(field, _unit_heavy_rows(field, k, j, rng))
        assert (a * b).rows == _reference_product(a, b), (spec, a, b)


def test_packed_segment_and_low_match_payload_rows():
    # an unmasked segment would still give the right invariant factors (it
    # adds X-shifted later chains to each entry, a unimodular column
    # operation), so segment is checked on its own
    f2 = make_field("GF(2)")
    bits, payloads = poly._BIT_ROWS, poly._PayloadRows(f2)
    rng = random.Random(186)
    for _ in range(200):
        n = rng.randrange(1, 150)
        vec = [rng.randrange(2) for _ in range(n)]
        vec[rng.randrange(n)] = 1
        packed = bits.pack(vec)
        assert bits.low(packed) == payloads.low(vec)
        lo = rng.randrange(n)
        hi = rng.randrange(lo, n + 1)
        seg = bits.segment(packed, lo, hi)
        assert rp.trim(f2, bits.unpack(seg, bits.size(seg))) == payloads.segment(vec, lo, hi)
    assert payloads.low([0, 0]) is None


def test_packed_unpack_matches_payload_rows():
    # format writes zero as one digit even at width 0, so the packed size-0
    # unpack once gave [0] where the payload algebra gives []
    f2 = make_field("GF(2)")
    bits, payloads = poly._BIT_ROWS, poly._PayloadRows(f2)
    assert bits.unpack(0, 0) == payloads.unpack((), 0) == []
    assert bits.unpack(bits.zero, bits.size(bits.zero)) == []
    assert payloads.unpack(payloads.zero, payloads.size(payloads.zero)) == []
    rng = random.Random(20)
    for n in (1, 2, 7, 64, 65, 150):
        for vec in ([0] * n, [1] * n, [rng.randrange(2) for _ in range(n)]):
            assert bits.unpack(bits.pack(vec), n) == payloads.unpack(vec, n) == vec


def test_analyze_report_matches_payload_rows(monkeypatch):
    # the whole analysis, the Krylov relations read off packed combos and
    # the eigenvalue multiplicities included, against the payload algebra;
    # the GAS companions are those of degree at most 9
    for spec in DIFFERENTIAL_FIELDS:
        field = make_field(spec)
        rng = random.Random(185)
        mats = [random_matrix(field, m, rng) for m in (1, 2, 3, 4, 5, 6, 7, 8, 8)]
        mats += [
            companion(gas_poly(field, n, e, a))
            for n, e in ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1))
            if field.p ** (n + e) <= 9
            for a in (0, 1)
        ]
        for a in mats:

            def run():
                report = ad_analyzer.analyze(a)
                return json.dumps(report.to_json_dict(), sort_keys=True)

            assert run() == _with_payload_rows(monkeypatch, run), (spec, a)


def _gf2_relation_matrices(rng):
    """Sparse GF(2)[X] matrices, one {column: raw entry} dict per row, with
    entries of degree up to about 200: random ones, and products of high
    powers of a few shared factors, so that the coprime base and the
    multiplicities work on multi-word ints."""
    k = make_field("GF(2)")
    shared = [(1, 1), (1, 1, 1), (1, 0, 0, 1, 1), (1, 1, 0, 0, 0, 0, 1)]

    def power_product():
        f = (1,)
        for g in rng.sample(shared, rng.randrange(1, 3)):
            f = rp.mul(k, f, rp.power(k, g, rng.randrange(1, 40)))
        return f

    def entry():
        if rng.randrange(3):
            return power_product()
        return rp.trim(k, tuple(rng.randrange(2) for _ in range(rng.randrange(1, 201))))

    for _ in range(8):
        n = rng.randrange(2, 5)
        rows = [{i: entry()} for i in range(n)]
        coupled = rng.sample(range(n), rng.randrange(2, n + 1))
        for _ in range(rng.randrange(1, 2 * n)):
            e = entry()
            if e:
                rows[rng.choice(coupled)][rng.choice(coupled)] = e
        yield rows
    # a zero and a unit on the diagonal, a repeated row
    big = power_product()
    yield [{0: big}, {}, {2: (1,)}, {0: big, 3: shared[1]}, {0: big, 3: shared[1]}]


def test_packed_smith_finish_matches_reference():
    k = make_field("GF(2)")
    rng = random.Random(183)
    for rows in _gf2_relation_matrices(rng):
        expected = _reference_smith_diagonal(k, [dict(r) for r in rows])
        got = _raw_smith_diagonal(k, [dict(r) for r in rows])
        assert got == expected, rows
        assert all(isinstance(d, tuple) for d in got)


def test_packed_gf2_polynomials_match_ringops():
    k = make_field("GF(2)")
    ring = poly._BIT_ROWS
    rng = random.Random(184)
    polys = [()] + [
        rp.trim(k, tuple(rng.randrange(2) for _ in range(rng.randrange(1, 260))))
        for _ in range(24)
    ]

    def unpack(d):
        return rp.trim(k, ring.unpack(d, ring.size(d)))

    for a, b in zip(polys, polys[1:] + polys[:1]):
        pa, pb = ring.pack(a), ring.pack(b)
        assert unpack(pa) == a and ring.size(pa) == len(a)
        assert unpack(ring.mul(pa, pb)) == rp.mul(k, a, b)
        assert unpack(ring.sub(pa, pb)) == rp.sub(k, a, b)
        if b:
            q, r = ring.divmod(pa, pb)
            assert (unpack(q), unpack(r)) == rp.divmod_(k, a, b)
            assert unpack(ring.gcd(pa, pb)) == rp.gcd(k, a, b)
        if len(b) > 1 and a:
            f = rp.mul(k, a, rp.power(k, b, 3))
            assert ring.multiplicity(ring.pack(f), pb) == _divide_out_count(k, f, b)


def _divide_out_count(k, f, d):
    mult = 0
    while True:
        q, r = rp.divmod_(k, f, d)
        if r:
            return mult
        f, mult = q, mult + 1


# ---------------------------------------------------------------------------
# _ringops.PrimeRing, the F[X] on ints of Ben-Or's test, factorization and
# _PrimeRows, against _ringops' method calls, and the Krylov loop's exit
# once the span is full

PRIME_RING_FIELDS = ("GF(2)", "GF(3)", "GF(5)", "GF(7)", "GF(727)")


def _random_raw(field, deg, rng, monic=False):
    """A raw polynomial of degree deg over GF(p), with a random nonzero lead
    unless monic."""
    lead = 1 if monic else rng.randrange(1, field.p)
    return tuple(rng.randrange(field.p) for _ in range(deg)) + (lead,)


@pytest.mark.parametrize("spec", PRIME_RING_FIELDS)
def test_prime_rows_polynomials_match_ringops(spec):
    field = make_field(spec)
    ring = rp.ring(field)
    assert type(ring) is rp.PrimeRing and isinstance(poly._PrimeRows(field), rp.PrimeRing)
    rng = random.Random(("prime-ring", spec).__repr__())
    polys = [(), (1,), (field.p - 1,)]
    polys += [_random_raw(field, rng.randrange(13), rng, rng.randrange(2)) for _ in range(30)]
    shorter = non_monic = inexact = 0
    for a in polys:
        assert ring.monic(a) == rp.monic(field, a)
        for b in rng.sample(polys, 8) + [(), a]:
            assert ring.sub(a, b) == rp.sub(field, a, b)
            assert ring.mul(a, b) == rp.mul(field, a, b)
            if not b:
                continue
            q, r = ring.divmod(a, b)
            assert (q, r) == rp.divmod_(field, a, b)
            assert ring.rem(a, b) == r
            # exact: a * b over b leaves a and no remainder
            assert ring.divmod(ring.mul(a, b), b) == (a, ())
            g = ring.gcd(a, b)
            assert g == rp.gcd(field, a, b) and g[-1] == 1
            shorter += len(a) < len(b)
            non_monic += b[-1] != 1
            inexact += bool(r)
    # every nonzero polynomial over GF(2) is monic
    assert shorter and inexact and (non_monic or field.p == 2)
    with pytest.raises(ZeroDivisionError):
        ring.divmod((1,), ())


@pytest.mark.parametrize("spec", PRIME_RING_FIELDS)
def test_prime_ring_mulmod_matches_rem_of_mul(spec):
    # every modulus degree from 0 (every product is 0) up, monic or not;
    # operands reduced (up to degree deg m - 1, the chain's case) and not
    field = make_field(spec)
    ring = rp.ring(field)
    rng = random.Random(("prime-mulmod", spec).__repr__())
    top = 0
    for deg in range(7):
        for monic in (True, False):
            m = _random_raw(field, deg, rng, monic)
            times = ring.mulmod(m)
            operands = [(), (1,)] + [_random_raw(field, rng.randrange(2 * deg + 2), rng) for _ in range(8)]
            operands += [_random_raw(field, deg - 1, rng) for _ in range(4) if deg >= 1]
            for a in operands:
                for b in operands:
                    got = times(a, b)
                    assert len(got) <= deg
                    assert rp.trim(field, got) == rp.rem(field, rp.mul(field, a, b), m), (a, b, m)
                    top += len(a) == len(b) == deg
    assert top


@pytest.mark.parametrize("spec", PRIME_RING_FIELDS)
def test_prime_rows_multiplicity_matches_one_division_at_a_time(spec):
    # past m = 8 divide_out divides by d^2, d^4, ...: m = 9 and 20 take
    # that path, m = 8 reaches it exactly
    field = make_field(spec)
    ring = rp.ring(field)
    rng = random.Random(("prime-multiplicity", spec).__repr__())
    for mult in (0, 1, 7, 8, 9, 20):
        for monic in (True, False):
            d = _random_raw(field, rng.randrange(1, 3), rng, monic)
            while True:
                cofactor = _random_raw(field, rng.randrange(4), rng)
                if rp.divmod_(field, cofactor, d)[1]:
                    break
            f = rp.mul(field, rp.power(field, d, mult), cofactor)
            assert ring.multiplicity(f, d) == mult == _divide_out_count(field, f, d)


@pytest.mark.parametrize(
    "spec, poly_str", [("GF(3)", "X^6+2*X^4+X+2"), ("GF(3)(Z)", "X^5+Z*X^2+2*X+Z^2+1")]
)
def test_invariant_factors_stop_once_the_span_is_full(spec, poly_str, monkeypatch):
    # the companion's chain from e_0 spans F^n after n vectors; the (n+1)-th
    # extend closes it, and e_1 .. e_(n-1) are never reduced
    field = make_field(spec)
    f = Poly.from_string(field, poly_str)
    n = f.degree()
    rows_class = type(poly._row_algebra(field))
    real_extend = rows_class.extend
    calls = []

    def counted(self, *args):
        calls.append(args)
        return real_extend(self, *args)

    monkeypatch.setattr(rows_class, "extend", counted)
    got = invariant_factors(companion(f))
    assert list(got) == [f]
    assert len(calls) == n + 1


@pytest.mark.parametrize("build", ["ad_matrix", "kron", "direct_sum"])
def test_matrix_builders_refuse_an_over_cap_result_before_allocating(build):
    import tracemalloc

    f2 = make_field("GF(2)")
    # 33^2, 40 * 40 and 1025 rows and columns, over the 1024 cap
    call = {
        "ad_matrix": lambda i33=Matrix.identity(f2, 33): ad_matrix(i33),
        "kron": lambda i40=Matrix.identity(f2, 40): kron(i40, i40),
        "direct_sum": lambda i1=Matrix.identity(f2, 1): direct_sum(*[i1] * 1025),
    }[build]
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
