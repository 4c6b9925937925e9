"""Seeded inputs and checked operations for the benchmark workloads.

A workload is a fixed list of operations built from the seed.  Each
operation is one call into aslab.  Its result is turned into canonical JSON
and hashed, and it is checked against invariants that hold for every seed:
criterion equals oracle, [F[alpha_R]:F] = p^(n - dim R), and the certified
structure of ad on generalized Artin-Schreier companions.  A failed check
returns (category, message) with category "wrong", "refused" or "errored".

Workloads (closed loop, one caller, no threads):

* ad-prime  -- ad_analyzer.analyze on random matrices and certified
  companions over GF(2), GF(3) and GF(p)(Z), the tensor oracle, and
  invariant factors of block-sum ad matrices.  The F[X] Smith form takes
  most of the time and holds the tail, and no GF(p^n) arithmetic runs, so a
  GF(p^n) change should not move it.
* ext-field -- primitive elements, the irreducibility criterion with its
  oracle, and factorization over GF(p^n).  GF(p^n) arithmetic takes most of
  the time, every GF(p^n) product goes through _ringops, and no invariant
  factors are computed, so a Smith-form change should not move it.
* cli-mix   -- in-process aslab.cli.main on a stream of short requests over
  many distinct fields, a tenth of them invalid.  analyze-ad over every
  prime power up to 729 takes most of the time; field construction,
  expression parsing, argument handling and JSON output take the rest.
"""

import contextlib
import hashlib
import io
import json
import random

from aslab import ad_analyzer, cli, dickson, fields, irred, linalg, poly, tensor
from aslab.errors import CapExceededError, InputError
from aslab.fields import FieldElement
from aslab.poly import Poly

WORKLOADS = ("ad-prime", "ext-field", "cli-mix")

# Nominal seconds of one pass (process start, set-up, operations, checks) on
# a 2-core Xeon VM.  A run makes round(--seconds / nominal) passes, at least
# MIN_PASSES: the count depends on --seconds only, never on the speed of the
# code measured, so two commits get the same number of samples.
NOMINAL_PASS_S = {"ad-prime": 10.0, "ext-field": 5.5, "cli-mix": 2.5}
MIN_PASSES = 3


def pass_count(workload, seconds):
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def digest(obj):
    """First 16 hex digits of the SHA-256 of the canonical JSON of obj."""
    data = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()[:16]


class Op:
    """One operation: run() calls aslab, canon() and check() judge the result."""

    __slots__ = ("kind", "key", "run", "canon", "check")

    def __init__(self, kind, key, run, canon, check):
        self.kind = kind
        self.key = digest(key)
        self.run = run
        self.canon = canon
        self.check = check


def outcome_of_exception(exc):
    """An exception escaping an operation: a cap refusal or an error."""
    if isinstance(exc, CapExceededError):
        return "refused", f"CapExceededError: {exc}"
    return "errored", f"{type(exc).__name__}: {exc}"


def build(workload, seed):
    if workload == "ad-prime":
        return _ad_prime(seed)
    if workload == "ext-field":
        return _ext_field(seed)
    if workload == "cli-mix":
        return _cli_mix(seed)
    raise ValueError(f"unknown workload {workload!r}")


def _rng(workload, seed):
    # string seeds hash through SHA-512, so the stream does not depend on
    # PYTHONHASHSEED or the platform
    return random.Random(f"{workload}/{seed}")


def _wrong(msg):
    return ("wrong", msg)


# ---------------------------------------------------------------------------
# ad-prime

def _check_report(rep, m, expect):
    """Invariants of an AdReport; expect = (p, e, a string) for companions."""
    if rep.size != m:
        return _wrong(f"report size {rep.size} != {m}")
    inv = rep.invariant_factors
    if sum(f.degree() for f in inv) != m * m:
        return _wrong("invariant factor degrees of ad A do not sum to m^2")
    if not all(f.is_monic() for f in inv):
        return _wrong("invariant factor not monic")
    dims = [d for _, d in rep.eigenspace_dims]
    if sum(dims) > m * m or rep.diagonalizable != (sum(dims) == m * m):
        return _wrong("eigenspace dimensions disagree with diagonalizability")
    passed = rep.c1 and rep.c2 and rep.c3
    if passed != (rep.recovered is not None) or passed != (not rep.failures):
        return _wrong("verdict, recovered data and failure list disagree")
    if expect is not None and not (rep.c1 and rep.c2):
        return _wrong("c1 and c2 hold for every GAS companion")
    if not passed:
        return None
    rec = rep.recovered
    p, n, e = rec["p"], rec["n"], rec["e"]
    pne = p ** (n + e)
    field = rep.field
    if len(rep.eigenvalues) != p**n or any(d != pne for d in dims):
        return _wrong("certified eigenvalue count or eigenspace dimension is off")
    factor = Poly.x_power(field, pne) - Poly.x_power(field, p**e)
    if len(inv) != pne or any(f != factor for f in inv):
        return _wrong("certified invariant factors are not p^(n+e) copies of X^(p^(n+e)) - X^(p^e)")
    if rep.diagonalizable != (e == 0):
        return _wrong("diagonalizable must hold exactly when e = 0")
    if not rep.eigenvector_invertibility.all_invertible:
        return _wrong("certified matrix has a singular ad eigenvector")
    if expect is not None:
        ep, ee, a_str = expect
        if (p, n, e) != (ep, 1, ee) or rec["a"] != field.element(a_str):
            return _wrong(f"recovered (p, n, e, a) = ({p}, {n}, {e}, {rec['a']})")
    return None


def _analyze_op(kind, key, mat, expect=None):
    m = mat.nrows
    return Op(
        kind,
        key,
        lambda: ad_analyzer.analyze(mat),
        lambda rep: rep.to_json_dict(),
        lambda rep: _check_report(rep, m, expect),
    )


def _tensor_op(p, n, m, alpha, beta):
    inst = tensor.TensorInstance(p, n, m, alpha, beta)

    def check(jt):
        sizes = jt.sizes()
        if sum(sizes) != n * m:
            return _wrong(f"block sizes {sizes} do not sum to {n * m}")
        if any(ev != inst.alpha + inst.beta for ev, _ in jt):
            return _wrong("block eigenvalue differs from alpha + beta")
        if tensor.closed_formula_applies(p, n, m):
            if sorted(sizes) != sorted(tensor.tensor_jordan_type_formula(inst).sizes()):
                return _wrong("oracle disagrees with the closed formula")
        return None

    return Op(
        "tensor.oracle",
        ["tensor", p, n, m, alpha, beta],
        lambda: tensor.tensor_jordan_type_oracle(inst),
        lambda jt: sorted(jt.sizes(), reverse=True),
        check,
    )


def _blocksum_op(p, e, eig_ints):
    field = fields.make_field(f"GF({p})")
    eigs = [field.element(v) for v in eig_ints]
    mat = tensor.blocksum_ad_matrix(eigs, e, p)

    def check(inv):
        formula = sorted(
            (str(lin), pe, mult) for lin, pe, mult in tensor.ad_elementary_divisors_blocksum(eigs, e, p)
        )
        direct = sorted(
            (str(prime), exp, mult)
            for (prime, exp), mult in linalg.elementary_divisors_from_invariant(inv)
        )
        if formula != direct:
            return _wrong("elementary divisors differ from the block-sum formula")
        return None

    return Op(
        "blocksum.invariant_factors",
        ["blocksum", p, e, eig_ints],
        lambda: linalg.invariant_factors(mat),
        lambda inv: [str(f) for f in inv],
        check,
    )


def _z_poly_str(coeffs):
    """String of sum coeffs[i] * Z^i (integers), highest degree first."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c:
            parts.append(str(c) if i == 0 else f"{c}*Z" if i == 1 else f"{c}*Z^{i}")
    return "+".join(parts) if parts else "0"


def _random_a(rng, p, shape):
    """Seeded constant a in GF(p)(Z): a linear or higher polynomial, or a quotient."""
    if shape == "linear":
        return _z_poly_str([rng.randrange(p), rng.randrange(1, p)])
    if shape == "poly":
        d = rng.choice((2, 3))
        return _z_poly_str([rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)])
    field = fields.make_field(f"GF({p})(Z)")
    while True:
        num = [rng.randrange(p) for _ in range(rng.randrange(0, 3))] + [rng.randrange(1, p)]
        den = [rng.randrange(p) for _ in range(rng.randrange(1, 3))] + [1]
        a = f"({_z_poly_str(num)})/({_z_poly_str(den)})"
        if len(field.element(a).payload[1]) > 1:  # still a quotient once reduced
            return a


# The GF(3)(Z), e = 1 companion is 9x9, an 81x81 ad matrix over K(Z).
# Certifying it takes 4-5 s, which would leave three passes per run, too few
# for a steady fastest-of-runs latency; the acceptance forward suite (traced
# run) times that case.  Its quotient slot keeps the 9x9 size: the oracle
# refuses it after the invariant factors of ad A are computed.
COMPANION_SHAPES = {
    (2, 0): ("linear", "poly", "quotient"),
    (2, 1): ("linear", "poly", "quotient"),
    (3, 0): ("linear", "poly", "quotient"),
    (3, 1): ("quotient",),
}


# field order -> (m, count).  The cost of analyze on a random matrix varies
# fivefold between draws of one size, so op_p50_ms is placed on one group:
# the median operation is a random 5x5 matrix over GF(2), near the middle of
# 72 of them, so that it is the median of many draws.  Random 9x9 draws take
# 0.8 to 3 s, which alone would move wall_s by 15% between seeds; the 9x9
# size comes from the GF(p)(Z) companions instead.
RANDOM_SIZES = {
    2: ((4, 12), (5, 72), (6, 2), (7, 1), (8, 1)),
    3: ((4, 12), (5, 18), (6, 2), (7, 1), (8, 1)),
}
# n*m of 20 to 30: the oracle runs rank sequences, not the Smith form, and is
# cubic in n*m (0.16 s at 60, 10-20 s at the 256 cap), so it is kept small
# and the Smith form keeps most of the time
TENSOR_SHAPES = ((4, 6), (6, 4), (5, 5), (3, 8), (8, 3), (5, 6))
# The tail is held by block sums of seven Jordan blocks of size 2 over
# GF(2): invariant factors of a 196x196 ad matrix, 0.26-0.30 s whatever the
# eigenvalues.  Fewer than 10 other operations take longer, so the op_tail_ms
# rank falls inside this group and measures the Smith form.
TAIL_BLOCKSUMS = 12
TAIL_BLOCKSUM_SHAPE = (2, 1, 7)  # (p, e, number of blocks)


def _ad_prime(seed):
    rng = _rng("ad-prime", seed)
    ops = []
    for p in (2, 3):
        field = fields.make_field(f"GF({p})")
        for m, count in RANDOM_SIZES[p]:
            for _ in range(count):
                entries = [[rng.randrange(p) for _ in range(m)] for _ in range(m)]
                mat = linalg.Matrix(field, entries)
                ops.append(_analyze_op("analyze.random", ["analyze", f"GF({p})", entries], mat))
    for p in (2, 3):
        field = fields.make_field(f"GF({p})")
        for e in (0, 1):
            for _ in range(2):
                a = str(rng.randrange(p))
                mat = ad_analyzer.build_gas_companion(field, 1, e, a)
                ops.append(_analyze_op(
                    "analyze.companion", ["companion", f"GF({p})", e, a], mat, (p, e, a)
                ))
    for (p, e), shapes in COMPANION_SHAPES.items():
        field = fields.make_field(f"GF({p})(Z)")
        for shape in shapes:
            a = _random_a(rng, p, shape)
            mat = ad_analyzer.build_gas_companion(field, 1, e, a)
            ops.append(_analyze_op(
                "analyze.companion", ["companion", f"GF({p})(Z)", e, a], mat, (p, e, a)
            ))
    # two shapes where the closed formula applies come first
    tensor_shapes = [(2, 4, 4), (3, 3, 9)]
    for _ in range(10):
        tensor_shapes.append((rng.choice((2, 3, 5)), *rng.choice(TENSOR_SHAPES)))
    for p, n, m in tensor_shapes:
        ops.append(_tensor_op(p, n, m, rng.randrange(p), rng.randrange(p)))
    for _ in range(6):
        p = rng.choice((2, 3))
        e = rng.choice((0, 1))
        s = rng.choice((2, 3))
        ops.append(_blocksum_op(p, e, [rng.randrange(p) for _ in range(s)]))
    p, e, s = TAIL_BLOCKSUM_SHAPE
    for _ in range(TAIL_BLOCKSUMS):
        ops.append(_blocksum_op(p, e, [rng.randrange(p) for _ in range(s)]))
    return ops


# ---------------------------------------------------------------------------
# ext-field

SWEEP = ((2, 3), (2, 4), (3, 3), (3, 4))


def _gas_q(field, n, a):
    p = field.char
    return Poly.x_power(field, p**n) - Poly.x(field) - Poly.constant(field, a)


def _enumerate_op(ambient, m):
    p, n = ambient.char, ambient.n

    def check(subs):
        keys = {r.sort_key() for r in subs}
        if len(keys) != len(subs) or len(subs) != dickson.gaussian_binomial(n, m, p):
            return _wrong("subspace count differs from the Gaussian binomial")
        if any(r.dim != m for r in subs):
            return _wrong("subspace of the wrong dimension")
        return None

    return Op(
        "dickson.enumerate",
        ["enumerate", ambient.spec_string(), m],
        lambda: dickson.enumerate_subspaces(ambient, m),
        lambda subs: [[str(b) for b in r.basis] for r in subs],
        check,
    )


def _primitive_op(r, q, a_str):
    field = q.field
    p, n, m = field.char, r.ambient.n, r.dim

    def check(res):
        expected = p ** (n - m)
        if res.degree_over_f != expected or res.minimal_polynomial.degree() != expected:
            return _wrong(f"[F[alpha_R]:F] is not p^(n - dim R) = {expected}")
        if res.property_p != r.is_frobenius_invariant():
            return _wrong("property P differs from Frobenius invariance of R")
        # alpha_R = f_R(alpha) as a p-polynomial: rebuild it from the coefficients
        rebuilt = Poly.x_power(field, p**m)
        for j, c in enumerate(res.coefficients):
            rebuilt = rebuilt + Poly.x_power(field, p**j) * field.constant(c)
        if rebuilt % q != res.alpha_h:
            return _wrong("p-polynomial coefficients do not rebuild alpha_R")
        return None

    return Op(
        "dickson.primitive_element",
        ["primitive", field.spec_string(), a_str, [str(b) for b in r.basis]],
        lambda: dickson.primitive_element(r, q),
        lambda res: {
            "alpha_h": str(res.alpha_h),
            "coefficients": [str(c) for c in res.coefficients],
            "degree": res.degree_over_f,
            "property_p": res.property_p,
            "minimal_polynomial": str(res.minimal_polynomial),
        },
        check,
    )


def _random_poly_str(rng, field, degree):
    """Seeded polynomial in Z of exact degree over a finite field, as a string."""
    coeffs = [field.random_payload(rng) for _ in range(degree)]
    lead = field.zero
    while lead == field.zero:
        lead = field.random_payload(rng)
    return Poly.from_raw(field, tuple(coeffs) + (lead,)).to_string("Z")


def _irred_op(K, n, e, r, g_str):
    def run():
        inst = irred.GasInstance(K, n, e, r, g_str)
        verdict = irred.gas_irreducible(inst)
        return inst, verdict, irred.bivariate_irreducible_oracle(inst.build_h())

    def check(res):
        inst, verdict, oracle = res
        if bool(verdict) != oracle:
            return _wrong("criterion and oracle disagree")
        if not verdict.irreducible and verdict.witness ** inst.p != inst.build_h():
            return _wrong("p-th power witness does not recompose the input")
        return None

    return Op(
        "irred.criterion_oracle",
        ["irred", K.spec_string(), n, e, r, g_str],
        run,
        lambda res: {
            "irreducible": res[1].irreducible,
            "condition": res[1].condition,
            "witness": None if res[1].witness is None else str(res[1].witness),
            "oracle": res[2],
        },
        check,
    )


# (field order, n, e, choices of r, choices of deg g).  Over GF(9) the
# oracle's cost swings from 5 ms to 0.8 s with r and deg g (the p-th power
# case, e = 1 and p | r, is the slowest), so GF(9) keeps r = deg g = 1 and
# the p-th power case is drawn over GF(4), where it takes 40 ms.  n = 2
# over GF(4) (20-30 ms) is left out: it would land among the slowest sweep
# operations and move the tail rank from seed to seed.
IRRED_STRATA = (
    (4, 1, 0, (1, 2, 3, 4), (1, 3)),
    (4, 1, 1, (1, 3), (1, 3)),
    (4, 1, 1, (2, 4), (1,)),
    (9, 1, 0, (1,), (1,)),
    (9, 1, 1, (1,), (1,)),
)


def _irred_instances(rng):
    out = []
    for q, n, e, rs, ds in IRRED_STRATA:
        K = fields.make_field(f"GF({q})")
        r, d = rng.choice([(r, d) for r in rs for d in ds if K.char ** (n + e) + d * r <= 12])
        out.append((K, n, e, r, _random_poly_str(rng, K, d)))
    return out


def _factor_op(field, a):
    p = field.char
    f = _gas_q(field, 2, FieldElement(field, a))

    def check(factors):
        prod = Poly.one(field)
        for g, mult in factors:
            if not g.is_monic() or not poly.is_irreducible_finite(g):
                return _wrong(f"factor {g} is not monic irreducible")
            prod = prod * g**mult
        if prod != f:
            return _wrong("factors do not multiply back to the input")
        if field.n % 2 == 0:
            # GF(p^2) lies in the field: all factors share one p-power degree
            degrees = {g.degree() for g, _ in factors}
            d = degrees.pop()
            while d % p == 0:
                d //= p
            if degrees or d != 1:
                return _wrong("factor degrees are not one common p-power")
        return None

    return Op(
        "poly.factor_finite",
        ["factor", field.spec_string(), field.payload_str(a)],
        lambda: poly.factor_finite(f),
        lambda factors: [[str(g), mult] for g, mult in factors],
        check,
    )


def _ext_field(seed):
    rng = _rng("ext-field", seed)
    ops = []
    for p, n in SWEEP:
        ambient = fields.make_field(f"GF({p**n})")
        field = fields.make_field(f"GF({p**n})(Z)")
        q = _gas_q(field, n, field.gen())
        for m in range(n + 1):
            ops.append(_enumerate_op(ambient, m))
            for r in dickson.enumerate_subspaces(ambient, m):
                ops.append(_primitive_op(r, q, "Z"))
    ambient = fields.make_field("GF(729)")
    field = fields.make_field("GF(729)(Z)")
    q = _gas_q(field, 6, field.gen())
    # two subspaces of GF(729): with the other seeded operations, fewer than
    # 10 operations outlast the GF(81) sweep, so the tail falls on the sweep,
    # whose inputs are the same for every seed
    for dim in (1, 2):
        while True:
            basis = [FieldElement(ambient, ambient.random_payload(rng)) for _ in range(dim)]
            try:
                r = dickson.SubspaceR.from_basis(ambient, basis)
            except InputError:
                continue  # dependent draw
            break
        ops.append(_primitive_op(r, q, "Z"))
    for K, n, e, r, g in _irred_instances(rng):
        ops.append(_irred_op(K, n, e, r, g))
    for spec in ("GF(27)", "GF(81)", "GF(243)", "GF(729)", "GF(64)"):
        K = fields.make_field(spec)
        a = K.zero
        while a == K.zero:
            a = K.random_payload(rng)
        ops.append(_factor_op(K, a))
    return ops


# ---------------------------------------------------------------------------
# cli-mix

def _prime_power(q):
    """(p, n) with q = p^n, or None."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    n = 0
    while q % p == 0:
        q //= p
        n += 1
    return (p, n) if q == 1 else None


PRIME_POWERS = [q for q in range(2, 730) if _prime_power(q)]


def _t_poly_str(coeffs):
    """String of a polynomial in t with integer coefficients, low degree first."""
    return _z_poly_str(coeffs).replace("Z", "t")


def _random_element_str(rng, q):
    p, n = _prime_power(q)
    if n == 1:
        return str(rng.randrange(p))
    return _t_poly_str([rng.randrange(p) for _ in range(n)])


def _random_monic_x(rng, q, degree):
    parts = [f"X^{degree}"]
    for i in range(degree - 1, -1, -1):
        c = _random_element_str(rng, q)
        if c != "0":
            parts.append(f"({c})" + ("" if i == 0 else "*X" if i == 1 else f"*X^{i}"))
    return "+".join(parts)


def _irreducible_modulus(rng, p, n):
    """Seeded monic irreducible of degree 2 or 3 over GF(p): one with no root."""
    while True:
        coeffs = [rng.randrange(p) for _ in range(n)] + [1]
        if coeffs[0] and all(
            sum(c * x**i for i, c in enumerate(coeffs)) % p for x in range(p)
        ):
            return _t_poly_str(coeffs)


def _independent(p, n, vectors):
    """Whether the vectors in GF(p)^n are linearly independent."""
    span = {(0,) * n}
    for v in vectors:
        span = {tuple((s + c * x) % p for s, x in zip(w, v)) for w in span for c in range(p)}
    return len(span) == p ** len(vectors)


def _valid_cli_check(sub, argv, expect):
    def check(res):
        code, out, err = res
        if code == 2:
            return ("refused", err.strip()[:200])
        if code != 0:
            return ("errored", f"exit {code}: {err.strip()[:200]}")
        try:
            doc = json.loads(out)
        except ValueError:
            return _wrong("stdout is not JSON")
        if doc.get("schema_version") != 1 or doc.get("command") != sub:
            return _wrong("missing schema_version or command")
        return expect(doc["result"]) if expect else None

    return check


def _invalid_cli_check(res):
    code, out, err = res
    lines = err.strip().splitlines()
    if code != 2 or out or len(lines) != 1 or not lines[0].startswith("error:"):
        return ("errored", f"invalid input ended with exit {code}, not exit 2 and one error line")
    return None


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_op(argv, expect=None, valid=True):
    sub = argv[0]
    return Op(
        f"cli.{sub}",
        ["cli", argv],
        lambda: _run_cli(argv),
        lambda res: {"exit": res[0], "result": json.loads(res[1])["result"] if res[0] == 0 else None},
        _valid_cli_check(sub, argv, expect) if valid else _invalid_cli_check,
    )


def _expect_tensor(n, m, formula):
    def expect(result):
        if sum(result["blocks"]) != n * m:
            return _wrong("tensor blocks do not sum to n*m")
        if formula and result["blocks"] != [m] * n:
            return _wrong("closed-formula case is not n blocks of size m")
        return None
    return expect


def _expect_degree(p, n, dim):
    def expect(result):
        if result["degree_over_f"] != p ** (n - dim) or result["dim"] != dim:
            return _wrong("[F[alpha_R]:F] is not p^(n - dim R)")
        return None
    return expect


def _expect_lattice(p, n):
    total = sum(dickson.gaussian_binomial(n, m, p) for m in range(n + 1))

    def expect(result):
        if result["subspace_count"] != total:
            return _wrong("subspace count differs from the Gaussian binomials")
        if any(s["degree_over_f"] != p ** (n - s["dim"]) for s in result["subspaces"]):
            return _wrong("[F[alpha_R]:F] is not p^(n - dim R)")
        return None
    return expect


def _expect_irreducible(result):
    if result["oracle_checked"] and not result["oracle_agrees"]:
        return _wrong("criterion and oracle disagree")
    return None


def _expect_analyze(size):
    def expect(result):
        if result["size"] != size:
            return _wrong("report size differs from the matrix size")
        if (result["c1"] and result["c2"] and result["c3"]) != (result["recovered"] is not None):
            return _wrong("verdict and recovered data disagree")
        return None
    return expect


# Request classes and their counts are the same for every seed; the seed
# draws their contents.  So each seed spends about the same time in each
# class, and the tail falls on analyze-ad over the largest fields, whose cost
# is set by the field size (every root candidate is tried).
MATRIX_SLOTS = ((2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (5, 3), (4, 2), (4, 3), (9, 2), (9, 3))
# companions of size 2 or 3 only: a 3x3 over GF(9)(Z) takes half a second.
# With analyze-ad over the three largest fields and the two certified
# primitive elements they make 15 requests of 30-45 ms, which hold the tail.
KZ_SLOTS = (2, 2, 2, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4)
# (field spec, p, n, dim R, --certify); certifying runs the bivariate
# oracle, milliseconds over GF(4)(Z) but seconds over GF(8)(Z)
PRIMITIVE_SLOTS = (
    ("GF(4)(Z)", 2, 2, 0, False), ("GF(4)(Z)", 2, 2, 1, True), ("GF(4)(Z)", 2, 2, 2, True),
    ("GF(8)(Z)", 2, 3, 1, False), ("GF(8)(Z)", 2, 3, 2, False), ("GF(8)(Z)", 2, 3, 3, False),
    ("GF(9)(Z)", 3, 2, 0, False), ("GF(9)(Z)", 3, 2, 1, False), ("GF(9)(Z)", 3, 2, 2, False),
    ("GF(2^3; mod=t^3+t^2+1)(Z)", 2, 3, 1, False), ("GF(2^3; mod=t^3+t^2+1)(Z)", 2, 3, 2, False),
    ("GF(27)(Z)", 3, 3, 1, False),
)
LATTICE_SLOTS = ((2, 1), (2, 2), (3, 1), (3, 2))
# (K, n, e, r, deg g): the cheap corner of the oracle, X- plus Z-degree <= 9
IRREDUCIBLE_SLOTS = (
    (2, 1, 0, 1, 1), (2, 1, 1, 2, 1), (2, 2, 0, 1, 1), (3, 1, 0, 1, 1), (3, 1, 0, 2, 1),
    (4, 1, 0, 1, 1), (4, 1, 1, 2, 1), (5, 1, 0, 1, 1), (7, 1, 0, 1, 1), (9, 1, 0, 1, 1),
)
# every Dickson form is asked for twice, so that dickson.dickson_phi.hit_ratio
# is 0.5 while dickson_phi caches its forms and 0 if it stops
DICKSON_SLOTS = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)) * 2
TENSOR_PRIMES = (2, 3, 5, 7) * 5
INVALID_EACH = 9


def _cli_mix(seed):
    rng = _rng("cli-mix", seed)
    reqs = []  # (argv, expect, valid)
    # every prime power up to 729: many small fields against a few big ones
    for q in PRIME_POWERS:
        reqs.append((["analyze-ad", "--field", f"GF({q})", "--poly", _random_monic_x(rng, q, 2)],
                     _expect_analyze(2), True))
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        for n in (2, 3):
            if p**n <= 729:
                spec = f"GF({p}^{n}; mod={_irreducible_modulus(rng, p, n)})"
                reqs.append((["analyze-ad", "--field", spec, "--poly",
                              _random_monic_x(rng, p**n, 2)], _expect_analyze(2), True))
    for q, size in MATRIX_SLOTS:
        doc = {"field": f"GF({q})",
               "entries": [[_random_element_str(rng, q) for _ in range(size)] for _ in range(size)]}
        reqs.append((["analyze-ad", "--field", f"GF({q})", "--matrix", json.dumps(doc)],
                     _expect_analyze(size), True))
    for q in KZ_SLOTS:
        p = _prime_power(q)[0]
        a = _z_poly_str([rng.randrange(p), rng.randrange(1, p)])
        reqs.append((["analyze-ad", "--field", f"GF({q})(Z)", "--poly", f"X^{p}-X-({a})"],
                     _expect_analyze(p), True))
    for p in TENSOR_PRIMES:
        n = rng.randrange(1, 5)
        m = rng.randrange(1, 24 // n + 1)  # n*m <= 24 keeps the oracle at milliseconds
        formula = tensor.closed_formula_applies(p, n, m)
        reqs.append((["decompose-tensor", "--p", str(p), "--n", str(n), "--m", str(m),
                      "--alpha", str(rng.randrange(p)), "--beta", str(rng.randrange(p))],
                     _expect_tensor(n, m, formula), True))
    for spec, p, n, dim, certify in PRIMITIVE_SLOTS:
        while True:
            vecs = [[rng.randrange(p) for _ in range(n)] for _ in range(dim)]
            if _independent(p, n, vecs):
                break
        argv = ["primitive-element", "--field", spec, "--n", str(n),
                "--a", rng.choice(("Z", "Z+1", "t*Z+1")),
                "--subspace", ",".join(_t_poly_str(v) for v in vecs)]
        if certify:
            argv.append("--certify")
        reqs.append((argv, _expect_degree(p, n, dim), True))
    for p, n in LATTICE_SLOTS:
        reqs.append((["subfield-lattice", "--p", str(p), "--n", str(n),
                      "--a", rng.choice(("Z", "Z+1"))], _expect_lattice(p, n), True))
    for q, n, e, r, d in IRREDUCIBLE_SLOTS:
        K = fields.make_field(f"GF({q})")
        reqs.append((["irreducible", "--K", f"GF({q})", "--n", str(n), "--e", str(e),
                      "--r", str(r), "--g", _random_poly_str(rng, K, d)], _expect_irreducible, True))
    for p, m in DICKSON_SLOTS:
        reqs.append((["dickson", "--p", str(p), "--m", str(m)], None, True))
    # invalid input whose contract is exit code 2 with a one-line error
    for _ in range(INVALID_EACH):
        q = rng.choice((2, 3, 5))
        doc = json.dumps({"field": f"GF({q})", "entries": [["1", "0"], ["0", "1"]]})
        cut = rng.randrange(1, len(doc) - 1)
        reqs.append((["analyze-ad", "--field", f"GF({q})", "--matrix", doc[:cut]], None, False))
    for _ in range(INVALID_EACH):
        p = rng.choice((2, 3, 5))
        c = rng.randrange(1, p)
        den = rng.choice(("Z-Z", f"{p}*Z", "Z^2-Z^2"))
        reqs.append((["analyze-ad", "--field", f"GF({p})(Z)", "--poly", f"X^2-X-{c}/({den})"],
                     None, False))
    for _ in range(INVALID_EACH):
        reqs.append((["decompose-tensor", "--p", str(rng.choice((1, 4, 6, 8, 9, 10, 12))),
                      "--n", str(rng.randrange(1, 4)), "--m", str(rng.randrange(1, 4))], None, False))
    rng.shuffle(reqs)
    return [_cli_op(argv, expect, valid) for argv, expect, valid in reqs]
