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
refinement", J. Algorithms 1993): _exponents reads the exponent of each
base element in each entry, and _assemble, which also serves
invariant_factors_from_elementary, builds the chain from them.
_elementary_divisors counts each prime's exponents over an invariant
factor chain in one loop, one multiplicity per run of equal factors.

Over a finite field the invariant factors of ad A come without the m^2 x
m^2 ad A (ad_elementary_divisors, then invariant_factors_from_elementary).
A's elementary divisors pi^r come from one factorization of its last
invariant factor and each prime's multiplicity in every factor
(_elementary_divisors, which elementary_divisors_from_invariant reads
too).  Each pair of them gives a semisimple part from its two primes
(_sylvester_divisors: closed forms when the primes are equal or the first
is linear, a Krylov run on at most 256 dimensions otherwise; it depends on
the pair alone, so it is memoised process-wide on (field, pi, pj) in an
lru_cache of SYLVESTER_MEMO_SIZE entries, bounded because its keys are
data, unlike fields.memoised's, which the field cap bounds) and a nilpotent
part of type λ(r, s) (nilpotent_tensor_type: closed forms, Heller's
reduction, otherwise the Smith form below).  _assemble turns their
exponents into the invariant factors, so no Smith form runs on ad A.

Over any field, sylvester_invariant_factors gives the invariant factors of
a direct sum of Sylvester operators Y -> C_f Y - Y C_g from one Smith form
of the deg g x deg g matrices f(C_g + T) over F[T], with no Kronecker
operator: analyze reads ad A over K(Z) and the λ(r, s) no closed form
gives from it, and the tensor oracle its Jordan types.

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
ad_analyzer's sweep calls certifying_point and full_rank, which tests a
packed row-major vector by the row algebra's dense elimination
(poly._row_algebra(k).invertible, stopping at the first column with no
pivot), so that it can start at the point that certified its previous
combination.
"""

import bisect
import collections
import functools
import itertools
import math

from . import _ringops as rp
from .errors import CapExceededError, ConsistencyError, InputError
from .fields import (
    FieldElement,
    PrimeField,
    make_field,
    specialisation_points,
    specialise,
)
from .poly import (
    Poly,
    _factor_raw,
    _kernel,
    _min_dependence,
    _raw_sort_key,
    _row_algebra,
    factor_finite,
)

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
        rows, echelon = _row_algebra(self.field), {}
        return sum(rows.extend(echelon, rows.pack(row), None)[0] for row in self.rows)

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


def full_rank(field, m, vec):
    """Whether the m x m matrix of the m*m coordinates of vec, row-major,
    packed in poly._row_algebra(field), has rank m: the row algebra's dense
    elimination, which stops at the first column with no pivot."""
    return _row_algebra(field).invertible(vec, m)


def certifying_point(field, m, entries_at, first=0):
    """The index of a specialisation point of the base field of K(Z) at
    which an m x m matrix over K(Z) is invertible, which proves it
    invertible (fields.specialise), or None.  entries_at(i, point) gives
    its m*m entries, row-major, at the i-th point, packed in the row algebra
    of the point's field, or None when a denominator vanishes there.  The
    points are tried cyclically from the index first: first, first + 1,
    ..., the last, then 0 .. first - 1.  One-sided: a singular matrix never
    certifies, and it costs at most fields.SPECIALISATION_TRIES tries."""
    points = specialisation_points(field.base)
    for i in itertools.chain(range(first, len(points)), range(first)):
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
    """Nontrivial invariant factors, each monic, each dividing the next;
    immutable, like Poly, so one list can key a memo and be shared."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = tuple(factors)
        if factors:
            field = factors[0].field
            ring = _row_algebra(field)
            # a factor divides an equal one: one division per run of equals
            previous = ring.pack(factors[0].raw)
            for i in range(len(factors) - 1):
                if factors[i + 1].raw == factors[i].raw:
                    continue
                packed = ring.pack(factors[i + 1].raw)
                if ring.divmod(packed, previous)[1]:
                    size = sum(f.degree() for f in factors)
                    raise ConsistencyError(
                        f"invariant factor chain broken over {field.spec_string()}, size "
                        f"{size}: factor {i} ({factors[i]}) does not divide factor {i + 1} "
                        f"({factors[i + 1]})"
                    )
                previous = packed
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, *args):
        raise AttributeError("InvariantFactorList is immutable")

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
    columns = rows.matrix_columns(m.rows)
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
    # equal entries of the Smith diagonal are neighbours: one Poly per run
    nontrivial = []
    previous = None
    for d in _smith_diagonal(rows, relations):
        if rows.size(d) > 1:
            if d != previous:
                f, previous = Poly.from_raw(k, rows.unpack(d, rows.size(d))), d
            nontrivial.append(f)
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
    """Smith diagonal of the diagonal matrix of the monic nonzero entries,
    assembled from their exponents in a pairwise coprime base."""
    base = _coprime_base(ring, list(dict.fromkeys(entries)))
    return _assemble(ring, _exponents(ring, entries, base), len(entries))


def _exponents(ring, polys, base):
    """{b: [exponent of b in each poly that b divides]}, in the order of
    polys, for the elements b of base; one multiplicity per distinct poly."""
    distinct = dict.fromkeys(polys)
    mults = {b: {f: ring.multiplicity(f, b) for f in distinct} for b in base}
    return {b: [mult[f] for f in polys if mult[f]] for b, mult in mults.items()}


def _assemble(ring, exponents, count):
    """count factors over ring, each dividing the next, from exponents ({b:
    [t, ...]}): the i-th largest takes each b to its i-th largest exponent,
    or 0.  Each distinct exponent vector is built once."""
    columns = [(b, sorted(ts, reverse=True)) for b, ts in exponents.items()]
    built = {}
    factors = []
    for i in range(count):
        key = tuple(ts[i] if i < len(ts) else 0 for _, ts in columns)
        if key not in built:
            f = ring.one
            for (b, _), t in zip(columns, key):
                if t:
                    f = ring.mul(f, rp.square_and_multiply(b, t, ring.mul))
            built[key] = f
        factors.append(built[key])
    return factors[::-1]


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
    """Prime-power decomposition of the invariant factors (finite fields):
    the last factor is factored once (factor_finite, with its degree cap)
    and each prime's multiplicity is read off every factor
    (_elementary_divisors).

    Returns a sorted list of ((prime Poly, exponent), multiplicity).
    """
    field = inv[0].field
    primes = [g.raw for g, _ in factor_finite(inv.minimal_polynomial())]
    counts = _elementary_divisors(field, [f.raw for f in inv], primes)
    keys = sorted(counts, key=lambda key: (_raw_sort_key(field, key[0]), key[1]))
    return [((Poly.from_raw(field, g), r), counts[g, r]) for g, r in keys]


def _elementary_divisors(field, factors, primes):
    """{(prime, exponent): count} of the raw invariant factors, given the
    raw monic primes of the last one; one multiplicity per run of equal
    factors."""
    ring = rp.ring(field)
    counts = {}
    for g in primes:
        previous = None
        for f in factors:
            if f != previous:
                t, previous = ring.multiplicity(f, g), f
            if t:
                counts[g, t] = counts.get((g, t), 0) + 1
    return counts


def nilpotent_tensor_type(p, r, s):
    """λ(r, s): the block sizes, largest first, of the nilpotent
    J_r(0) ⊗ I + I ⊗ J_s(0) over GF(p), which has the type of
    J_r(0) ⊗ I - I ⊗ J_s(0) (J_s(0) is similar to -J_s(0)).  For r <= s:
    () or (s) when r = 0 or 1; the characteristic-0 Clebsch-Gordan sizes
    s + r - 1, s + r - 3, ..., s - r + 1 when r + s <= p + 1; Heller's
    reduction when r + s > q, the least power of p with q >= s: q repeated
    r + s - q times, then λ(q - s, q - r), since V_q is free over
    k[x]/(x^q), Ω(V_r) = V_(q - r) and Ω(M) ⊗ Ω(N) is M ⊗ N plus a free
    summand (Green, Illinois J. Math. 6 (1962); Renaud, J. Algebra 58
    (1979)); otherwise the invariant factors of the Sylvester operator of
    X^s and X^r, one Smith form over GF(p)[T] (sylvester_invariant_factors).
    No cap: analyze asks for r, s <= 32."""
    r, s = min(r, s), max(r, s)
    if r <= 1:
        return (s,) * r
    if r + s <= p + 1:
        return tuple(range(s + r - 1, s - r, -2))
    q = p
    while q < s:
        q *= p
    if r + s > q:
        return (q,) * (r + s - q) + nilpotent_tensor_type(p, q - s, q - r)
    k = PrimeField(p)
    f, g = ((k.zero,) * n + (k.one,) for n in (s, r))
    return tuple(len(h) - 1 for h in reversed(sylvester_invariant_factors(k, [f], [g])))


def ad_elementary_divisors(field, divisors):
    """{g: [t, ...]}: the elementary divisors g^t of ad A, with repeats, g
    raw monic irreducible, from A's elementary divisors over a finite field
    ({(pi, r): count}, raw, as _elementary_divisors gives them).

    F is perfect, so F[X]/(pi^r) is K[T]/(T^r), K = F[X]/(pi), with X acting
    as a root of pi plus T.  On each summand Hom(V_j, V_i) of gl(m), ad A is
    then S + N with commuting parts: S the Sylvester operator
    Y -> C(pi_i) Y - Y C(pi_j), semisimple, on r_i r_j copies of the
    d_i x d_j matrices, and N the nilpotent J_(r_i) ⊗ I - I ⊗ J_(r_j), of
    Jordan type λ(r_i, r_j) (nilpotent_tensor_type).  So each elementary
    divisor g of S (_sylvester_divisors) gives g^t for each t in
    λ(r_i, r_j) (Gantmacher, The Theory of Matrices I, ch. VIII).  The pair
    (j, i) is the pair (i, j) with X -> -X."""
    p = field.char
    exponents = collections.defaultdict(list)
    items = list(divisors.items())
    for a, ((pi, r), ci) in enumerate(items):
        for (pj, s), cj in items[a:]:
            lam = nilpotent_tensor_type(p, r, s)
            reverse = (pj, s) != (pi, r)
            for g, copies in _sylvester_divisors(field, pi, pj):
                ts = lam * (copies * ci * cj)
                exponents[g].extend(ts)
                if reverse:
                    exponents[_negated(field, g)].extend(ts)
    return exponents


# bound of _sylvester_divisors' memo: an entry holds about 0.5 KB on the
# benchmark's inputs and 12 KB for a degree-32 prime paired with itself,
# so a full memo takes about 0.5 MB, 12 MB at worst; one pass of a
# benchmark workload fills at most 347 entries
SYLVESTER_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=SYLVESTER_MEMO_SIZE)
def _sylvester_divisors(field, pi, pj):
    """((g, copies), ...): the elementary divisors of Y -> C(pi) Y - Y C(pj)
    on deg pi x deg pj matrices, pi and pj raw monic irreducible over the
    finite field, all of exponent 1 (the operator is semisimple).
    ad_elementary_divisors pairs each prime only with itself and the later
    ones of _factor_raw's order, degree ascending, so deg pi <= deg pj.

    The result depends on the pair alone, not on the matrix it came from,
    so it is memoised process-wide, keyed on (field, pi, pj), and returned
    as tuples that no caller can change.  The memo is an lru_cache of
    SYLVESTER_MEMO_SIZE entries, not fields.memoised: those caches are
    keyed by fields, which the field cap bounds, but this one is keyed by
    data, the primes of every matrix analyzed, and must be bounded.

    - pi = pj of degree d: K ⊗ K, K = F[X]/(pi), is d copies of K, on which
      the operator is multiplication by h_k = x - x^(q^k) mod pi, k < d.
      So d copies of X, and d / deg g_k copies of g_k, its minimal
      polynomial, for k = 1..d-1.  h_(d-k) = -σ^(-k)(h_k), σ the Frobenius
      of K, is conjugate to -h_k, so g_(d-k) is g_k(-X) made monic
      (_negated): only the x^(q^k) with k <= d / 2 come off
      _ringops.frobenius_chain, with their g_k from poly._min_dependence.
    - pi = X - a: the operator is a - x on F[X]/(pj), so one copy of
      pj(X + a) with X -> -X.  A linear pj after a nonlinear pi, in any
      other order, has coprime degrees and takes the branch below.
    - Otherwise from the invariant factors of the operator itself,
      kron(C(pi), I) - kron(I, C(pj)), at most 256 dimensions since
      deg pi + deg pj <= 32 under analyze's cap.  K_i ⊗ K_j is gcd(d_i, d_j)
      copies of GF(q^lcm(d_i, d_j)), so when d_i and d_j are coprime it is a
      field, every invariant factor is the one minimal polynomial of x ⊗ 1 -
      1 ⊗ x in it, and nothing is factored; otherwise the last invariant
      factor is factored and each prime counted in every factor."""
    k = field
    if pi == pj:
        d = len(pi) - 1
        x, ring = (k.zero, k.one), rp.ring(k)
        # g_1 .. g_(d // 2), then g_k = _negated(g_(d-k)) up to g_(d-1)
        chain = zip(range(d // 2), rp.frobenius_chain(k, pi))
        gs = [_min_dependence(k, ring.sub(x, h), pi) for _, h in chain]
        gs += [_negated(k, g) for g in reversed(gs[: (d - 1) // 2])]
        counts = collections.Counter({(k.zero, k.one): d})
        for g in gs:
            counts[g] += d // (len(g) - 1)
        return tuple(counts.items())
    if len(pi) == 2:
        return ((_negated(k, rp.compose(k, pj, (k.neg(pi[0]), k.one))), 1),)
    ci, cj = companion(Poly.from_raw(k, pi)), companion(Poly.from_raw(k, pj))
    op = kron(ci, Matrix.identity(k, cj.nrows)) - kron(Matrix.identity(k, ci.nrows), cj)
    factors = [f.raw for f in invariant_factors(op)]
    if math.gcd(len(pi) - 1, len(pj) - 1) == 1:
        return ((factors[-1], len(factors)),)
    primes = [g for g, _ in _factor_raw(k, factors[-1])]
    return tuple((g, count) for (g, _), count in _elementary_divisors(k, factors, primes).items())


def sylvester_invariant_factors(field, fs, gs):
    """The raw nontrivial invariant factors, each dividing the next, of the
    direct sum over f in fs and g in gs of Y -> C_f Y - Y C_g, the f and g
    raw monic of degree >= 1, with no Kronecker operator.

    As an F[T]-module, T acting as the operator, each summand is
    F[x, y]/(f(x), g(y)) with T = x - y (C_g is similar to its transpose).
    Putting x = y + T presents it as the cokernel of multiplication by
    f(y + T) on the free F[T]-module F[T][y]/(g): the deg g x deg g matrix
    f(C_g + T) over F[T] (Gantmacher, The Theory of Matrices I, ch. VIII).
    By the Hasse expansion f(y + T) = sum_t (D^t f)(y) T^t, its entry
    (r, c) has as coefficient of T^t the coordinate r of (D^t f)(y) y^c
    mod g.  One Smith form (_smith_diagonal) of the block diagonal of these
    matrices, entries packed in the field's row algebra, gives the
    invariant factors.  Its determinant, prod f(T + root of g), is monic of
    degree deg f deg g, so no diagonal entry is zero; ConsistencyError if
    the degrees do not sum to that."""
    k = field
    rows, ring = _row_algebra(k), rp.ring(k)
    matrix = []
    for f in fs:
        df = len(f) - 1
        # D^t f = sum_i C(i, t) f_i y^(i - t)
        hasse = [
            rp.trim(k, [k.mul(k.from_int(math.comb(i, t)), c) for i, c in enumerate(f[t:], t)])
            for t in range(df + 1)
        ]
        for g in gs:
            dg = len(g) - 1
            # images[t][c]: (D^t f)(y) y^c mod g, as dg coordinates
            images = []
            for h in hasse:
                h = ring.rem(h, g)
                image = []
                for _ in range(dg):
                    image.append(list(h) + [k.zero] * (dg - len(h)))
                    h = ring.rem((k.zero,) + h, g) if h else h
                images.append(image)
            offset = len(matrix)
            for r in range(dg):
                row = {}
                for c in range(dg):
                    entry = rp.trim(k, [image[c][r] for image in images])
                    if entry:
                        row[offset + c] = rows.pack(entry)
                matrix.append(row)
    diag = [d for d in _smith_diagonal(rows, matrix) if rows.size(d) > 1]
    factors = [tuple(rows.unpack(d, rows.size(d))) for d in diag]
    total = sum(len(f) - 1 for f in factors)
    expected = sum(len(f) - 1 for f in fs) * sum(len(g) - 1 for g in gs)
    if total != expected:
        raise ConsistencyError(
            f"Sylvester invariant factors over {k.spec_string()}: degrees sum to "
            f"{total} against dimension {expected}"
        )
    return factors


def _negated(field, g):
    """g(-X) made monic, for g raw monic: coefficient i changes sign when
    deg g - i is odd."""
    d = len(g) - 1
    return tuple(field.neg(c) if (d - i) % 2 else c for i, c in enumerate(g))


def invariant_factors_from_elementary(field, exponents, n, where):
    """The invariant factors, as an InvariantFactorList, of the F[X]-module
    of dimension n with the elementary divisors g^t of exponents ({g: [t,
    ...]}, raw): the i-th largest factor takes each g to its i-th largest
    exponent, so each factor divides the next and no Smith closing is
    needed.  Raises ConsistencyError, naming where, when the degrees do not
    sum to n."""
    total = sum((len(g) - 1) * sum(ts) for g, ts in exponents.items())
    if total != n:
        raise ConsistencyError(
            f"{where}: elementary divisors of degree {total} against dimension {n}"
        )
    factors = _assemble(rp.ring(field), exponents, max(map(len, exponents.values())))
    polys = {f: Poly.from_raw(field, f) for f in dict.fromkeys(factors)}
    return InvariantFactorList(map(polys.get, factors))
