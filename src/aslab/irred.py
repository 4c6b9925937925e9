"""Irreducibility of X^(p^(n+e)) - X^(p^e) - g(Z^r) over K(Z), K finite.

gas_irreducible decides by criterion: the polynomial is irreducible exactly
when p does not divide r, or e = 0, or g has a coefficient outside K^p
(fields.pth_roots).
When all three fail it is a p-th power, and the p-th root is produced and
verified as a witness.

oracle_factor is the independent check: an exhaustive search for a
monic-in-X factor in K[Z][X], returning the factor found (lifted back to
K(Z)[X]) or None; bivariate_irreducible_oracle is "oracle_factor finds
none", the one verdict the criterion is compared with.  Candidate factors
are reconstructed by Chinese remaindering from complete univariate
factorizations of the input at enough irreducible moduli m(Z), then
confirmed by exact division in K[Z][X] (_ringops.divmod_ over the
coefficient ring _ringops.PolyRing(K)); a factor exists in K(Z)[X] iff
one is found this way (Gauss's lemma, the input being primitive with unit
leading coefficient).  Every input, made monic by X -> Y / lead, takes
this search, constant coefficients included (one modulus of degree 1): it
never reaches Ben-Or's test, so the oracle and the criterion are two
routes.  The moduli are the first monic irreducibles of the largest
degree d with |K|^d <= 729, plus one of the remaining degree, so their
degrees sum to deg_Z + 1.  So the CRT columns of a candidate need no
degree or lead test: each is reduced mod the product of the moduli, of
degree deg_Z + 1, and the top one is 1, since every divisor is monic and
the CRT basis sums to 1.  Caps: |K| <= 9 and total degree <= 12.  On a
GAS instance the one decision whether the oracle can run is
GasInstance.oracle_reaches, made from (K, p^(n+e), r * deg g) before h is
built; the oracle's own check after clearing denominators serves every
other input.  The p-th root witness is capped at X-degree
p^(n+e) <= WITNESS_MAX_X_DEGREE and Z-degree r * deg g <=
WITNESS_MAX_Z_DEGREE, checked before it is built.

The univariate factorizations run over K[Z]/(m), fields._TabulatedField
of (K, m), on the log tables cached per (K, m) as for GF(p^n); its
payloads are coefficient tuples of length deg m, the payload form of
GF(p^n).
"""

import itertools
import math

from . import _ringops as rp
from .errors import CapExceededError, ConsistencyError, InputError
from .fields import (
    MAX_FIELD_SIZE,
    FieldElement,
    RationalFunctionField,
    _TabulatedField,
    monic_irreducibles,
    p_power_split,
    power_exceeds,
    pth_roots,
)
from .poly import Poly, _factor_raw, _monic_divisors, gas_poly, is_irreducible_finite

ORACLE_MAX_FIELD = 9
ORACLE_MAX_TOTAL_DEGREE = 12
_COMBINATION_LIMIT = 500_000
# the p-th root witness of gas_irreducible, checked by Q^p == h: h has
# X-degree p^(n+e) and Z-degree r * deg g, and Q^p costs about the Z-degree
# times the number of terms of g
WITNESS_MAX_X_DEGREE = 1 << 16
WITNESS_MAX_Z_DEGREE = 1024


class GasInstance:
    """Parameters (K, n, e, r, g) of the polynomial X^(p^(n+e)) - X^(p^e) - g(Z^r)."""

    __slots__ = ("K", "p", "n", "e", "r", "g")

    def __init__(self, K, n, e, r, g):
        if K.order is None:
            raise InputError("K must be a finite field")
        if n < 1 or e < 0 or r < 1:
            raise InputError("need n >= 1, e >= 0, r >= 1")
        if isinstance(g, str):
            g = Poly.from_string(K, g, var="Z")
        if g.field != K:
            raise InputError("g must be a polynomial over K")
        d = g.degree()
        if d < 1:
            raise InputError("g must have degree >= 1 (constant g is univariate territory)")
        if d % K.char == 0:
            raise InputError("the degree of g must be coprime to the characteristic")
        self.K = K
        self.p = K.char
        self.n = n
        self.e = e
        self.r = r
        self.g = g

    def r_decomposition(self):
        """(r0, s) with r = r0 * p^s and p not dividing r0."""
        s, r0 = p_power_split(self.r, self.p)
        return r0, s

    def oracle_reaches(self):
        """Whether bivariate_irreducible_oracle runs on build_h(), from |K| and
        the total degree p^(n+e) + r * deg g, without building h."""
        budget = ORACLE_MAX_TOTAL_DEGREE - self.r * self.g.degree()
        return self.K.order <= ORACLE_MAX_FIELD and not power_exceeds(
            self.p, self.n + self.e, budget
        )

    def rational_field(self):
        return RationalFunctionField(self.K)

    def build_h(self) -> Poly:
        """The polynomial X^(p^(n+e)) - X^(p^e) - g(Z^r) over K(Z)."""
        F = self.rational_field()
        gzr = self.g.substitute_x_power(self.r)  # g(Z^r) as a poly in Z over K
        return gas_poly(F, self.n, self.e, F.fraction(gzr.raw, (self.K.one,)))

    def __repr__(self):
        return (
            f"GasInstance(K={self.K.spec_string()}, n={self.n}, e={self.e}, "
            f"r={self.r}, g={self.g.to_string('Z')})"
        )


class GasIrreducibility:
    """Criterion verdict with the satisfied condition or a p-th power witness."""

    __slots__ = ("irreducible", "condition", "reason", "witness", "r0", "s")

    def __init__(self, irreducible, condition, reason, witness, r0, s):
        self.irreducible = irreducible
        self.condition = condition
        self.reason = reason
        self.witness = witness
        self.r0 = r0
        self.s = s

    def __bool__(self):
        return self.irreducible

    def __repr__(self):
        return f"GasIrreducibility({self.irreducible}, {self.condition!r})"


def gas_irreducible(inst: GasInstance) -> GasIrreducibility:
    """Decide irreducibility of X^(p^(n+e)) - X^(p^e) - g(Z^r) over K(Z)."""
    p = inst.p
    r0, s = inst.r_decomposition()
    if s == 0:
        return GasIrreducibility(
            True,
            "r-coprime-to-p",
            f"p = {p} does not divide r = {inst.r} (r0 = {r0}, s = 0)",
            None,
            r0,
            s,
        )
    if inst.e == 0:
        return GasIrreducibility(
            True,
            "separable-exponent-zero",
            f"e = 0 while r = {r0} * {p}^{s}",
            None,
            r0,
            s,
        )
    K = inst.K
    roots = pth_roots(K, inst.g.raw)
    if roots is None:
        return GasIrreducibility(
            True,
            "coefficients-not-pth-powers",
            f"a coefficient of g lies outside K^{p} (r = {r0} * {p}^{s}, e = {inst.e})",
            None,
            r0,
            s,
        )
    # all conditions fail: h = Q^p with Q built from p-th roots of g; Q^p
    # is checked against h, so refuse before building either past the caps
    if power_exceeds(p, inst.n + inst.e, WITNESS_MAX_X_DEGREE):
        raise CapExceededError(
            f"the p-th power witness needs X-degree {p}^{inst.n + inst.e}, "
            f"over cap {WITNESS_MAX_X_DEGREE}"
        )
    if inst.r * inst.g.degree() > WITNESS_MAX_Z_DEGREE:
        raise CapExceededError(
            f"the p-th power witness needs Z-degree r * deg g = {inst.r * inst.g.degree()}, "
            f"over cap {WITNESS_MAX_Z_DEGREE}"
        )
    F = inst.rational_field()
    qg = Poly.from_raw(K, roots).substitute_x_power(r0 * p ** (s - 1))
    witness = gas_poly(F, inst.n, inst.e - 1, F.fraction(qg.raw, (K.one,)))
    if witness**p != inst.build_h():
        raise ConsistencyError("constructed p-th root does not recompose the input")
    return GasIrreducibility(
        False,
        "pth-power",
        f"r = {r0} * {p}^{s} with s >= 1, e = {inst.e} >= 1, and g has all "
        f"coefficients in K^{p}: the polynomial is a {p}-th power",
        witness,
        r0,
        s,
    )


def _clear_denominators(h: Poly):
    """Poly over K(Z) -> (columns of raw K[Z] polys, base field K)."""
    F = h.field
    if F.kind != "rational-function":
        raise InputError("expected a polynomial over a rational function field")
    k = F.base
    common = (k.one,)
    for num, den in h.raw:
        if len(den) > 1:
            common = rp.mul(k, common, rp.divmod_(k, den, rp.gcd(k, common, den))[0])
    return [rp.mul(k, num, rp.divmod_(k, common, den)[0]) for num, den in h.raw], k


def bivariate_irreducible_oracle(h: Poly) -> bool:
    """Irreducibility of h in K(Z)[X]: oracle_factor finds no factor."""
    return oracle_factor(h) is None


def oracle_factor(h: Poly):
    """A monic proper factor of h in K(Z)[X], or None when h is irreducible.

    Independent of the criterion: clears denominators, makes the input
    monic in X by one substitution, factors it at irreducible moduli m(Z)
    with degrees summing past its Z-degree, stitches candidate divisors by
    Chinese remaindering, and trial-divides.  Before the K[Z][X] division a
    candidate's constant term must divide h's in K[Z] (Abbott, Shoup and
    Zimmermann, ISSAC 2000: cheap tests before trial division); every true
    factor passes, so the first one found is the same.  Every input takes
    this path, constant coefficients included.
    """
    cols, k = _clear_denominators(h)
    if k.order > ORACLE_MAX_FIELD:
        raise CapExceededError(f"oracle supports |K| <= {ORACLE_MAX_FIELD}")
    degx = len(cols) - 1
    if degx < 1:
        raise InputError("oracle expects positive degree in X")
    lead = cols[-1]
    # lead^i for i < degx, shared by the monicization and _lift_factor
    lead_powers = list(
        itertools.accumulate([lead] * (degx - 1), lambda a, b: rp.mul(k, a, b), initial=(k.one,))
    )
    # monicize by the substitution X -> Y / lead: the coefficient of Y^j
    # becomes c_j * lead^(degx-1-j), a polynomial, and irreducibility over
    # K(Z) is unchanged; a constant lead keeps every column's Z-degree
    cols = [rp.mul(k, cols[j], lead_powers[degx - 1 - j]) for j in range(degx)]
    cols.append((k.one,))
    # monic in X, hence primitive in K[Z]
    degz = max(len(col) - 1 for col in cols if col)
    if degx + degz > ORACLE_MAX_TOTAL_DEGREE:
        raise CapExceededError(
            f"total degree {degx + degz} exceeds cap {ORACLE_MAX_TOTAL_DEGREE}"
        )
    if degx == 1:
        return None

    # choose moduli: degrees as large as the point-field cap allows, summing
    # to degz + 1
    dmax = 1
    while k.order ** (dmax + 1) <= MAX_FIELD_SIZE:
        dmax += 1
    full, rest = divmod(degz + 1, dmax)
    moduli = monic_irreducibles(k, dmax, full)
    if rest:
        moduli += monic_irreducibles(k, rest, 1)

    points = []
    for m in moduli:
        quot = _TabulatedField(k, m)
        # the residues of the columns, in the quotient's payload form
        rems = (rp.rem(k, col, m) for col in cols)
        himg = tuple(r + quot.zero[len(r):] for r in rems)
        factors = _factor_raw(quot, himg)
        points.append((quot, m, factors))

    # CRT scaffolding over K[Z]
    big_m = (k.one,)
    for m in moduli:
        big_m = rp.mul(k, big_m, m)
    crt_basis = []
    for m in moduli:
        mi = rp.divmod_(k, big_m, m)[0]
        _, inv_mi, _ = rp.xgcd(k, rp.rem(k, mi, m), m)
        crt_basis.append(rp.rem(k, rp.mul(k, mi, inv_mi), big_m))

    kz = rp.PolyRing(k)
    for kdeg in range(1, degx // 2 + 1):
        options = []
        total = 1
        for quot, m, factors in points:
            divs = _monic_divisors(quot, factors, kdeg)
            options.append(divs)
            total *= len(divs)
        if total > _COMBINATION_LIMIT:
            raise CapExceededError("candidate combination count exceeds the oracle cap")
        for combo in itertools.product(*options):
            cand_cols = []
            for j in range(kdeg):
                acc = ()
                for basis, divc in zip(crt_basis, combo):
                    # divc has degree kdeg; rp.mul trims its coefficient
                    acc = rp.add(k, acc, rp.mul(k, divc[j], basis))
                # deg big_m = degz + 1 bounds the column's Z-degree by degz
                cand_cols.append(rp.rem(k, acc, big_m))
            # every divc is monic and the CRT basis sums to 1 mod big_m
            cand_cols.append((k.one,))
            # a monic factor f of the monic h has f(0) | h(0) in K[Z]: one
            # K[Z] division rules most candidates out, and no factor
            if not _divides(k, cand_cols[0], cols[0]):
                continue
            # exact division in K[Z][X] by the monic-in-X candidate
            if not rp.divmod_(kz, cols, cand_cols)[1]:
                return _lift_factor(h.field, k, cand_cols, lead_powers)
    return None


def _divides(k, d, a):
    """Whether d divides a in K[Z], k = K: zero divides only zero."""
    return not a or bool(d) and not rp.divmod_(k, a, d)[1]


def _lift_factor(F, k, cand_cols, lead_powers):
    """Map a monic factor of the monicized polynomial back to F[X]: undo
    Y = lead * X, so the monic factor in X has coefficient
    cand[j] * lead^(j - kdeg) at X^j.  lead_powers[i] = lead^i for
    i < deg_X h, and kdeg <= deg_X h // 2 is below that."""
    kdeg = len(cand_cols) - 1
    den = lead_powers[kdeg]
    coeffs = [F.fraction(rp.mul(k, cand_cols[j], lead_powers[j]), den) for j in range(kdeg + 1)]
    return Poly(F, coeffs)


def irreducible(f: Poly) -> bool:
    """Irreducibility of f over its field: Ben-Or's test over a finite field;
    over K(Z), False when X divides f, else the bivariate oracle (unit X-lead)."""
    if f.field.order is not None:
        return is_irreducible_finite(f)
    if f.degree() >= 2 and f.raw[0] == f.field.zero:
        return False
    return bivariate_irreducible_oracle(f)


def coprime_difference_irreducible(f: Poly, g: Poly) -> bool:
    """Oracle verdict for f(X) - g(Z) when gcd(deg f, deg g) = 1.

    The classical criterion promises irreducibility; the caller asserts the
    returned verdict, keeping criterion and search independent.
    """
    if f.field != g.field or f.field.order is None:
        raise InputError("f and g must be polynomials over one finite field")
    if math.gcd(f.degree(), g.degree()) != 1:
        raise InputError("degrees of f and g must be coprime")
    K = f.field
    F = RationalFunctionField(K)
    h = Poly(F, [F.constant(FieldElement(K, c)) for c in f.raw])
    gz = F.fraction(g.raw, (K.one,))
    h = h - Poly.constant(F, gz)
    return bivariate_irreducible_oracle(h)
