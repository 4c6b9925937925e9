"""Dense exact linear algebra over the supported fields.

Provides companion / Kronecker / Pascal constructors, kernels and
eigenspaces by Gaussian elimination, invariant factors from Krylov chains
over F, similarity testing, and Jordan types of nilpotent matrices read off
their invariant factors.  All pivot choices are fixed, so every function is
deterministic.  This module has no Gaussian elimination and no polynomial
algebra of its own: ranks, kernels, the Krylov vectors of invariant_factors
and their Smith finish all run in poly's row algebra (_row_algebra, the
only interface to the incremental echelon, and _kernel on top of it, which
also serves poly's Berlekamp split), one representation per field: over
GF(2) a vector, a combination and a polynomial are each one Python int,
over every other field payload lists and the tuples of _ringops.ring, with
the mod-p arithmetic of both written inline over GF(p) for odd p.
invariant_factors runs the Smith normal form over F[X] (_smith_diagonal)
only on the small matrix of chain relations (Storjohann, "An O(n^3)
algorithm for the Frobenius normal form", ISSAC 1998), read off the
echelon's combinations.  That Smith form has two phases: row and column
sweeps reach some diagonal form, and the closing turns it into the
divisibility chain, so no pivot is tested against the rest of the matrix.
A diagonal whose entries, sorted by degree, already divide one another
is that chain; any other is closed by factor refinement of its entries
into a pairwise coprime base (Bach, Driscoll and Shallit, "Factor
refinement", J. Algorithms 1993).

Matrix(field, rows) converts and validates every entry (FieldDescriptor.
payload_of) and is meant for values from outside; every matrix computed
here from payloads is built with Matrix.from_raw, which checks only the
shape and the size caps: 100x100 over rational function fields (entry
growth), 1024x1024 over finite fields.

Every matrix-vector product (Matrix.__mul__, invariant_factors' Krylov
vectors, ad_analyzer's) is the row algebra's apply.  Matrix.is_invertible
over K(Z) tries the specialisations Z -> z0 first (certifying_point on
fields.specialise); an invertible M(z0) with no pole proves M invertible.
Only when no point certifies, or over a finite field, is M ranked exactly.
ad_analyzer's sweep calls certifying_point and full_rank, which ranks a
packed vector as its rows (reshape), so that it can start at the point
that certified its previous combination.
"""

import bisect
import collections
import itertools
import math

from . import _ringops as rp
from .errors import CapExceededError, ConsistencyError, InputError
from .fields import FieldElement, make_field, specialisation_points, specialise
from .poly import Poly, _kernel, _row_algebra, factor_finite

MAX_FINITE_DIM = 1024
MAX_RATIONAL_DIM = 100


class Matrix:
    """Immutable dense matrix with entries in one field."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows):
        rows = _checked_rows(field, rows)
        payload_of = field.payload_of
        self._fill(field, tuple(tuple(payload_of(v) for v in row) for row in rows))

    @classmethod
    def from_raw(cls, field, rows):
        """Matrix of payload rows computed inside aslab: the payloads are
        trusted, only the shape and the size cap are checked."""
        obj = object.__new__(cls)
        obj._fill(field, _checked_rows(field, rows))
        return obj

    def _fill(self, field, rows):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", len(rows[0]))

    def __setattr__(self, *args):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zeros(cls, field, n, m=None):
        m = n if m is None else m
        z = field.zero
        return cls.from_raw(field, [[z] * m for _ in range(n)])

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls.from_raw(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    def entry(self, i, j):
        return FieldElement(self.field, self.rows[i][j])

    def is_square(self):
        return self.nrows == self.ncols

    def is_zero(self):
        z = self.field.zero
        return all(v == z for row in self.rows for v in row)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.rows == other.rows

    def __hash__(self):
        return hash((self.field, self.rows))

    def __add__(self, other):
        return self._entrywise(other, self.field.add)

    def __sub__(self, other):
        return self._entrywise(other, self.field.sub)

    def _entrywise(self, other, op):
        self._check_same_shape(other)
        rows = zip(self.rows, other.rows)
        return Matrix.from_raw(self.field, [[op(a, b) for a, b in zip(r1, r2)] for r1, r2 in rows])

    def __neg__(self):
        k = self.field
        return Matrix.from_raw(k, [[k.neg(v) for v in row] for row in self.rows])

    def _check_same_shape(self, other):
        if not isinstance(other, Matrix) or other.field != self.field:
            raise InputError("matrix operands must share the field")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise InputError("matrix shapes differ")

    def __mul__(self, other):
        k = self.field
        if isinstance(other, Matrix):
            if other.field != k:
                raise InputError("matrix operands must share the field")
            if self.ncols != other.nrows:
                raise InputError("inner dimensions differ")
            # row i of the product: other's rows, as columns, times row i of self
            rows, n = _row_algebra(k), other.ncols
            columns = rows.columns(other.rows)
            return Matrix.from_raw(
                k, [rows.unpack(rows.apply(columns, rows.pack(row), n), n) for row in self.rows]
            )
        if isinstance(other, (FieldElement, int)):
            c = k.payload_of(other)
            return Matrix.from_raw(k, [[k.mul(v, c) for v in row] for row in self.rows])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (FieldElement, int)):
            return self.__mul__(other)
        return NotImplemented

    def scalar_shift(self, c):
        """self + c*I."""
        if not self.is_square():
            raise InputError("scalar shift needs a square matrix")
        k = self.field
        c = k.payload_of(c)
        out = [list(row) for row in self.rows]
        for i in range(self.nrows):
            out[i][i] = k.add(out[i][i], c)
        return Matrix.from_raw(k, out)

    def rank(self):
        rows = _row_algebra(self.field)
        return _rank(rows, map(rows.pack, self.rows))

    def is_invertible(self):
        """Whether the matrix is square and invertible.  Over K(Z) the
        specialisation points decide first (certifying_point); only when
        none certifies, or over a finite field, is it ranked exactly."""
        if not self.is_square():
            return False
        k, m = self.field, self.nrows
        if k.kind == "rational-function":
            entries = [x for row in self.rows for x in row]

            def entries_at(i, point):
                vec = specialise(k, entries, point)
                return None if vec is None else _row_algebra(point[0]).pack(vec)

            if certifying_point(k, m, entries_at) is not None:
                return True
        return self.rank() == m

    def kernel_basis(self):
        """Canonical kernel basis (one vector per free column of the RREF)."""
        k = self.field
        return [
            tuple(FieldElement(k, v) for v in vec)
            for vec in _kernel(k, list(zip(*self.rows)))
        ]

    def to_json_dict(self):
        return {
            "field": self.field.spec_string(),
            "entries": [[self.field.payload_str(v) for v in row] for row in self.rows],
        }

    @classmethod
    def from_json_dict(cls, data, field=None):
        """Matrix from {"field": spec, "entries": rows}; a field passed in
        stands for a missing "field" and must equal a present one."""
        entries = data.get("entries") if isinstance(data, dict) else None
        if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
            raise InputError('matrix JSON must be an object with an "entries" list of rows')
        if "field" in data or field is None:
            if not isinstance(data.get("field"), str):
                raise InputError('matrix JSON needs a "field" string')
            named = make_field(data["field"])
            if field is not None and named != field:
                raise InputError(
                    f'matrix JSON field {data["field"]} differs from {field.spec_string()}'
                )
            field = named
        return cls(field, entries)

    def __str__(self):
        return "[" + "; ".join(
            ", ".join(self.field.payload_str(v) for v in row) for row in self.rows
        ) + "]"

    def __repr__(self):
        return f"Matrix({self.field.spec_string()}, {self.nrows}x{self.ncols})"


def _rank(algebra, rows):
    """Rank of the rows, packed in the row algebra (poly._row_algebra)."""
    echelon = {}
    return sum(algebra.extend(echelon, row, None)[0] for row in rows)


def full_rank(field, m, vec):
    """Whether the m x m matrix of the m*m coordinates of vec, row-major,
    packed in poly._row_algebra(field), has rank m."""
    rows = _row_algebra(field)
    return _rank(rows, rows.reshape(vec, m)) == m


def certifying_point(field, m, entries_at, first=0):
    """The index of a specialisation point of the base field of K(Z) at
    which an m x m matrix over K(Z) is invertible, which proves it
    invertible (fields.specialise), or None.  entries_at(i, point) gives
    its m*m entries, row-major, at the i-th point, packed in the row algebra
    of the point's field, or None when a denominator vanishes there.  The
    point at index first is tried first, then the others in order.
    One-sided: a singular matrix never certifies, and it costs at most
    fields.SPECIALISATION_TRIES tries."""
    points = specialisation_points(field.base)
    for i in itertools.chain((first,), (i for i in range(len(points)) if i != first)):
        vec = entries_at(i, points[i])
        if vec is not None and full_rank(points[i][0], m, vec):
            return i
    return None


def _checked_rows(field, rows):
    """rows as a tuple of tuples, nonempty, rectangular and within the cap."""
    rows = tuple(map(tuple, rows))
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise InputError("ragged matrix rows")
    if not width:
        raise InputError("matrix must be nonempty")
    _check_size(field, len(rows), width)
    return rows


def _check_size(field, nrows, ncols):
    """Refuse an nrows x ncols matrix over field's size cap; the builders
    below call it before they allocate the result."""
    cap = MAX_RATIONAL_DIM if field.kind == "rational-function" else MAX_FINITE_DIM
    if nrows > cap or ncols > cap:
        raise CapExceededError(f"matrix size exceeds cap {cap}")


def companion(f: Poly) -> Matrix:
    """Companion matrix: ones on the subdiagonal, negated coefficients of f
    in the last column."""
    if not f.is_monic():
        raise InputError("companion matrix needs a monic polynomial")
    m = f.degree()
    if m < 1:
        raise InputError("companion matrix needs degree >= 1")
    k = f.field
    rows = [[k.zero] * m for _ in range(m)]
    for i in range(1, m):
        rows[i][i - 1] = k.one
    for i in range(m):
        rows[i][m - 1] = k.neg(f.raw[i] if i < len(f.raw) else k.zero)
    return Matrix.from_raw(k, rows)


def direct_sum(*mats) -> Matrix:
    if not mats:
        raise InputError("direct sum of nothing")
    k = mats[0].field
    if any(m.field != k for m in mats):
        raise InputError("direct sum over mixed fields")
    n = sum(m.nrows for m in mats)
    c = sum(m.ncols for m in mats)
    _check_size(k, n, c)
    out = [[k.zero] * c for _ in range(n)]
    ro = co = 0
    for m in mats:
        for i, row in enumerate(m.rows):
            for j, v in enumerate(row):
                out[ro + i][co + j] = v
        ro += m.nrows
        co += m.ncols
    return Matrix.from_raw(k, out)


def kron(a: Matrix, b: Matrix) -> Matrix:
    if a.field != b.field:
        raise InputError("Kronecker product over mixed fields")
    k = a.field
    _check_size(k, a.nrows * b.nrows, a.ncols * b.ncols)
    out = []
    for i in range(a.nrows):
        for ib in range(b.nrows):
            row = []
            for j in range(a.ncols):
                av = a.rows[i][j]
                row.extend(
                    k.mul(av, bv) if av != k.zero else k.zero for bv in b.rows[ib]
                )
            out.append(row)
    return Matrix.from_raw(k, out)


def jordan_block(field, eigenvalue, size) -> Matrix:
    """Upper triangular Jordan block."""
    lam = field.payload_of(eigenvalue)
    rows = [[field.zero] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = lam
        if i + 1 < size:
            rows[i][i + 1] = field.one
    return Matrix.from_raw(field, rows)


def poly_at_matrix(f: Poly, m: Matrix) -> Matrix:
    if f.field != m.field:
        raise InputError("polynomial and matrix fields differ")
    if not m.is_square():
        raise InputError("polynomial evaluation needs a square matrix")
    k = m.field
    result = Matrix.zeros(k, m.nrows)
    for c in reversed(f.raw):
        result = result * m
        if c != k.zero:
            result = result.scalar_shift(FieldElement(k, c))
    return result


def ad_matrix(a: Matrix) -> Matrix:
    """Matrix of B -> AB - BA on matrix units, row-major ordering."""
    if not a.is_square():
        raise InputError("ad is defined for square matrices")
    k = a.field
    m = a.nrows
    z = k.zero
    n2 = m * m
    _check_size(k, n2, n2)
    out = [[z] * n2 for _ in range(n2)]
    for i in range(m):
        for j in range(m):
            r = i * m + j
            for kk in range(m):
                # term A[i][kk] * E_(kk j): column index (kk, j) contributes to row (i, j)
                if a.rows[i][kk] != z:
                    out[r][kk * m + j] = k.add(out[r][kk * m + j], a.rows[i][kk])
                # term -E_(i kk) * A accounts for column (i, kk)
                if a.rows[kk][j] != z:
                    c = i * m + kk
                    out[r][c] = k.sub(out[r][c], a.rows[kk][j])
    return Matrix.from_raw(k, out)


def eigenspace(m: Matrix, lam) -> list:
    """Basis of ker(M - lam*I); empty when lam is not an eigenvalue."""
    if not m.is_square():
        raise InputError("eigenspace needs a square matrix")
    lam = m.field.element(lam)
    return m.scalar_shift(-lam).kernel_basis()


class InvariantFactorList:
    """Nontrivial invariant factors, each monic, each dividing the next."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = tuple(factors)
        if factors:
            field = factors[0].field
            ring = _row_algebra(field)
            packed = [ring.pack(f.raw) for f in factors]
            for i in range(len(packed) - 1):
                if ring.divmod(packed[i + 1], packed[i])[1]:
                    size = sum(f.degree() for f in factors)
                    raise ConsistencyError(
                        f"invariant factor chain broken over {field.spec_string()}, size "
                        f"{size}: factor {i} ({factors[i]}) does not divide factor {i + 1} "
                        f"({factors[i + 1]})"
                    )
        self.factors = factors

    def __iter__(self):
        return iter(self.factors)

    def __len__(self):
        return len(self.factors)

    def __getitem__(self, i):
        return self.factors[i]

    def __eq__(self, other):
        if not isinstance(other, InvariantFactorList):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def minimal_polynomial(self):
        return self.factors[-1]

    def __repr__(self):
        return "[" + ", ".join(str(f) for f in self.factors) + "]"


def invariant_factors(m: Matrix) -> InvariantFactorList:
    """Invariant factors of m from Krylov chains over its field.

    F^n splits into chains v, mv, m^2 v, ... started from e_0, e_1, ...,
    skipping every e_i already in the span, and the loop stops once the
    span is F^n: the span grows only inside a chain, so it can become full
    only as a chain closes, and every later e_i would reduce to zero,
    starting no chain and adding no relation.  Each new vector is reduced by
    the incremental echelon (poly._row_algebra), whose combination records
    what the reduced vector stands for, so chain j ends in one relation
    X^(d_j) v_j + sum_s c_s X^(l_s) v_(chain s) = 0.  These relations present
    F^n as an F[X]-module, so the Smith form of their k x k triangular
    matrix over F[X], k the number of chains, gives the invariant factors.

    The echelon indexes its vectors as they come, so chain s holds indices
    starts[s] .. starts[s+1]-1 in power order, and its F[X] entry in a
    relation is that segment of the combination.
    """
    if not m.is_square():
        raise InputError("invariant factors need a square matrix")
    k = m.field
    n = m.nrows
    rows = _row_algebra(k)
    columns = rows.columns(zip(*m.rows))
    echelon = {}
    starts = []  # echelon index of each chain's first vector
    relations = []
    for i in range(n):
        vec = rows.unit(i, n)
        start = len(echelon)
        while True:
            index = len(echelon)
            added, combo = rows.extend(echelon, vec, rows.unit(index, index + 1))
            if not added:
                break
            vec = rows.apply(columns, vec, n)
        # vec lies in the span: combo closes the chain, unless the chain is
        # empty because e_i itself was already spanned
        if index > start:
            starts.append(start)
            # combo touches the chains from the one holding its lowest
            # coordinate up to this one, which ends at the closing index
            first = bisect.bisect_right(starts, rows.low(combo)) - 1
            bounds = starts[first:] + [index + 1]
            relation = {}
            for s, (lo, hi) in enumerate(zip(bounds, bounds[1:]), first):
                entry = rows.segment(combo, lo, hi)
                if entry:
                    relation[s] = entry
            relations.append(relation)
            if len(echelon) == n:
                break
    nontrivial = [
        Poly.from_raw(k, rows.unpack(d, rows.size(d)))
        for d in _smith_diagonal(rows, relations)
        if rows.size(d) > 1
    ]
    total = sum(f.degree() for f in nontrivial)
    if total != n:
        raise ConsistencyError(
            f"Smith normal form degrees do not sum to the size: {total} against "
            f"{n} x {n} over {k.spec_string()}"
        )
    return InvariantFactorList(nontrivial)


def _smith_diagonal(ring, rows):
    """Smith normal form diagonal, monic, of a square polynomial matrix over
    ring, a poly._row_algebra, given as one {column: nonzero entry} dict per
    row; the entries in and the diagonal out are ring elements.

    Two phases.  Phase 1 reaches some diagonal form: a row whose only entry
    is on the diagonal, in a column no other row touches, is finished as it
    stands, and _diagonalize eliminates the rest.  Phase 2, _close_diagonal,
    turns that diagonal into the Smith diagonal; unit entries come first and
    zero entries last.  The Smith form is unique, so the pivot rule only
    steers phase 1 and never shows in the result.
    """
    uses = collections.Counter(j for row in rows for j in row)
    diag = []
    coupled = []
    for i, row in enumerate(rows):
        if len(row) == 1 and i in row and uses[i] == 1:
            diag.append(row[i])
        else:
            coupled.append(i)
    # coupled rows touch coupled columns only, so they form a square block
    col = {j: s for s, j in enumerate(coupled)}
    block = [{col[j]: e for j, e in rows[i].items()} for i in coupled]
    diag.extend(_diagonalize(ring, block))
    return _close_diagonal(ring, diag)


def _diagonalize(ring, rows):
    """Diagonal entries of some diagonal form of a square sparse polynomial
    matrix over ring, by row and column sweeps; the dicts are consumed.

    Pivot rule: smallest size, then leftmost column, then topmost row.  A
    pivot is accepted as soon as its row and column are clear; whether it
    divides the rest is left to _close_diagonal.  Rows are sparse so that
    each pivot search and sweep costs the nonzero entries only.  Every
    quotient of a sweep is nonzero: the pivot has the least size in the
    trailing block, and each entry it divides (below it in column s, or in
    its own row) lies in that block, untouched so far in this sweep.
    """
    size, zero = ring.size, ring.zero
    n = len(rows)
    diag = []
    for s in range(n):
        while True:
            # rows and columns before s are finished: all that is left lies
            # in the trailing block
            best = min(
                ((size(e), j, i) for i in range(s, n) for j, e in rows[i].items()),
                default=None,
            )
            if best is None:
                return diag + [zero] * (n - s)
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
            # clear column s, then row s; a nonzero remainder is a smaller
            # pivot candidate, so the search runs again
            dirty = False
            for row in rows[s + 1:]:
                if s in row:
                    q, r = ring.divmod(row[s], piv)
                    for j, e in top.items():
                        _put(row, j, ring.sub(row.get(j, zero), ring.mul(q, e)))
                    if r:
                        dirty = True
            for j in [j for j in top if j != s]:
                q, r = ring.divmod(top[j], piv)
                for row in rows[s:]:
                    if s in row:
                        _put(row, j, ring.sub(row.get(j, zero), ring.mul(q, row[s])))
                if r:
                    dirty = True
            if not dirty:
                diag.append(piv)
                break
    return diag


def _close_diagonal(ring, diag):
    """Smith diagonal, monic, over ring, equivalent to the diagonal matrix diag.

    The nonzero entries, made monic, are sorted by size; when each divides
    the next (k - 1 divisions), they are the Smith diagonal as they stand,
    as most diagonals of invariant_factors are.  Only otherwise are they
    refined (_refine_diagonal).  Zero entries go last.
    """
    entries = sorted((ring.monic(d) for d in diag if d), key=ring.size)
    zeros = [ring.zero] * (len(diag) - len(entries))
    if any(ring.divmod(b, a)[1] for a, b in zip(entries, entries[1:])):
        entries = _refine_diagonal(ring, entries)
    return entries + zeros


def _refine_diagonal(ring, entries):
    """Smith diagonal of the diagonal matrix of the monic nonzero entries.

    The distinct entries are refined into a pairwise coprime base
    (_coprime_base).  Each base element b occurs in each entry to some
    power; the i-th invariant factor takes b to the i-th smallest of those
    exponents, so each factor divides the next.
    """
    distinct = list(dict.fromkeys(entries))
    base = _coprime_base(ring, distinct)
    mults = {e: [ring.multiplicity(e, b) for b in base] for e in distinct}
    columns = [sorted(mults[e][t] for e in entries) for t in range(len(base))]
    out = []
    for i in range(len(entries)):
        f = ring.one
        for b, column in zip(base, columns):
            if column[i]:
                f = ring.mul(f, rp.square_and_multiply(b, column[i], ring.mul))
        out.append(f)
    return out


def _coprime_base(ring, polys):
    """Pairwise coprime monic nonconstant polynomials over ring such that each
    of the given monic polynomials is a product of their powers (factor
    refinement: Bach, Driscoll and Shallit, J. Algorithms 1993).

    Each split lowers the total degree of the base plus the pending work, so
    the loop ends.
    """
    base = []
    todo = list(polys)
    while todo:
        a = todo.pop()
        if ring.size(a) < 2:
            continue
        for i, b in enumerate(base):
            g = ring.gcd(a, b)
            if ring.size(g) < 2:
                continue
            if g == b:
                todo.append(ring.divmod(a, b)[0])
            else:
                del base[i]
                todo += [g, ring.divmod(b, g)[0], ring.divmod(a, g)[0]]
            break
        else:
            base.append(a)
    return base


def _put(row, j, e):
    if e:
        row[j] = e
    else:
        row.pop(j, None)


def similar(a: Matrix, b: Matrix) -> bool:
    """Similarity over the common field, decided by invariant factors."""
    if a.field != b.field:
        raise InputError("similarity needs matrices over the same field")
    if not (a.is_square() and b.is_square()) or a.nrows != b.nrows:
        raise InputError("similarity needs square matrices of equal size")
    return invariant_factors(a) == invariant_factors(b)


def pascal_similarity(f: Poly, b) -> Matrix:
    """Upper triangular Pascal matrix S with S^(-1) (C_{f(X+b)} + bI) S = C_f.

    The displayed identity is verified by direct multiplication; a failure
    would mean the companion convention and the Pascal matrix disagree, so it
    raises ConsistencyError.
    """
    if not f.is_monic() or f.degree() < 1:
        raise InputError("needs a monic polynomial of degree >= 1")
    k = f.field
    b = k.element(b)
    m = f.degree()
    s = _pascal_matrix(k, m, b.payload)
    lhs = companion(f.shifted(b)).scalar_shift(b) * s
    rhs = s * companion(f)
    if lhs != rhs:
        raise ConsistencyError(
            f"Pascal similarity identity failed for f = {f}, b = {b} over "
            f"{k.spec_string()}, {m} x {m}"
        )
    return s


def _pascal_matrix(field, m, b):
    """The upper triangular m x m Pascal matrix of pascal_similarity, entry
    (i, j) = C(j, i) b^(j - i) for the payload b, with no identity checked."""
    powers = [field.one]  # b^0 .. b^(m-1)
    for _ in range(m - 1):
        powers.append(field.mul(powers[-1], b))
    rows = [[field.zero] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            rows[i][j] = field.mul(field.from_int(math.comb(j, i)), powers[j - i])
    return Matrix.from_raw(field, rows)


def verify_companion_composition(f: Poly, g: Poly) -> bool:
    """Whether g evaluated at the companion of lead(g)^(-deg f) * f(g(X)) is
    similar to deg(g) diagonal copies of the companion of f."""
    if not f.is_monic() or f.degree() < 1:
        raise InputError("f must be monic of degree >= 1")
    if g.degree() < 1:
        raise InputError("g must have degree >= 1")
    if f.field != g.field:
        raise InputError("f and g must share a field")
    m = f.degree()
    d = g.degree()
    a = g.leading_coeff()
    composed = (f.compose(g) * (a ** (-m))).monic()
    c = companion(composed)
    gc = poly_at_matrix(g, c)
    blocks = direct_sum(*[companion(f) for _ in range(d)])
    return similar(gc, blocks)


class JordanType:
    """Multiset of (eigenvalue, block size) pairs."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        blocks = [(ev, int(sz)) for ev, sz in blocks]
        if any(sz < 1 for _, sz in blocks):
            raise InputError("Jordan block sizes must be positive")
        blocks.sort(key=lambda b: (-b[1], b[0].sort_key()))
        self.blocks = tuple(blocks)

    def sizes(self):
        return [sz for _, sz in self.blocks]

    def dimension(self):
        return sum(self.sizes())

    def __eq__(self, other):
        if not isinstance(other, JordanType):
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __repr__(self):
        return "JordanType[" + ", ".join(f"J_{sz}({ev})" for ev, sz in self.blocks) + "]"


def nilpotent_jordan_type(n: Matrix) -> JordanType:
    """Block sizes of a nilpotent matrix: the degrees of its invariant
    factors, each a power of X (one Jordan block per cyclic summand)."""
    if not n.is_square():
        raise InputError("Jordan type needs a square matrix")
    k = n.field
    zero = k.zero_element()
    blocks = []
    for f in invariant_factors(n):
        if any(c != k.zero for c in f.raw[:-1]):
            raise InputError("matrix is not nilpotent")
        blocks.append((zero, f.degree()))
    return JordanType(blocks)


def elementary_divisors_from_invariant(inv: InvariantFactorList):
    """Prime-power decomposition of the invariant factors (finite fields).

    Returns a sorted list of ((prime Poly, exponent), multiplicity).
    """
    counts = {}
    order = {}
    for f in inv:
        for prime, mult in factor_finite(f):
            key = (prime, mult)
            counts[key] = counts.get(key, 0) + 1
            order[key] = (prime.degree(), prime.sort_key(), mult)
    return sorted(counts.items(), key=lambda it: order[it[0]])
