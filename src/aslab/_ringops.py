"""Dense univariate polynomial arithmetic on raw coefficient tuples.

Polynomials are tuples of field payloads, lowest degree first, with no
trailing zeros; the zero polynomial is the empty tuple.  Every function takes
the coefficient field descriptor as its first argument and works on payloads
directly, so the fraction field and the public Poly class can share one set
of inner loops without wrapper overhead.

The coefficients may themselves be polynomials over the descriptor PolyRing,
k[T] or k[T]/(m): so these functions also run in K[Z][X] (the bivariate
oracle's trial division) and in F[alpha][X] with F[alpha] = F[X]/(q).

ring(k) is the one choice of F[X] by field kind: PrimeRing, the only F[X]
on ints with % p inline, over GF(p), 2 included, and PolyRing, these
functions over k, elsewhere.  pow_mod, powers_mod and frobenius_chain take
one ring per call, as do Rabin's test, poly's factorization and root
multiplicities, and poly's row algebras inherit them.  square_and_multiply
is the one power loop of the package, on a product passed in: power's,
pow_mod's, frobenius_chain's, dickson's multivariate pow_int and the Smith
diagonal's in linalg.  The module functions keep no field-kind test: every
call, GF(2) ones included, would pay it, and the inline path gained
nothing on analyze's Krylov and Smith loops.
"""

import itertools
import operator


def trim(k, a):
    i = len(a)
    while i > 0 and a[i - 1] == k.zero:
        i -= 1
    return tuple(a[:i])


def add(k, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = k.add(out[i], c)
    return trim(k, out)


def neg(k, a):
    return tuple(k.neg(c) for c in a)


def sub(k, a, b):
    return add(k, a, neg(k, b))


def scale(k, a, c):
    return trim(k, tuple(k.mul(x, c) for x in a))


def mul(k, a, b):
    if not a or not b:
        return ()
    out = [k.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == k.zero:
            continue
        for j, y in enumerate(b):
            if y != k.zero:
                out[i + j] = k.add(out[i + j], k.mul(x, y))
    return trim(k, out)


def mul_xpow(k, a, n):
    if not a:
        return ()
    return (k.zero,) * n + tuple(a)


def divmod_(k, a, b):
    """Quotient and remainder; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if len(a) < len(b):
        return (), tuple(a)
    binv = None if b[-1] == k.one else k.inv(b[-1])
    rem = list(a)
    q = [k.zero] * (len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = rem[i + len(b) - 1]
        if c == k.zero:
            continue
        if binv is not None:
            c = k.mul(c, binv)
        q[i] = c
        rem[i + len(b) - 1] = k.zero
        for j in range(len(b) - 1):
            y = b[j]
            if y != k.zero:
                rem[i + j] = k.sub(rem[i + j], k.mul(c, y))
    return trim(k, q), trim(k, rem)


def rem(k, a, b):
    return divmod_(k, a, b)[1]


def monic(k, a):
    if not a:
        return ()
    if a[-1] == k.one:
        return tuple(a)
    return scale(k, a, k.inv(a[-1]))


def gcd(k, a, b):
    return PolyRing(k).gcd(a, b)


def xgcd(k, a, b):
    """Return (g, s, t) with s*a + t*b = g, g monic."""
    a0, b0 = tuple(a), tuple(b)
    s, s1 = (k.one,), ()
    t, t1 = (), (k.one,)
    while b0:
        q, r = divmod_(k, a0, b0)
        a0, b0 = b0, r
        s, s1 = s1, sub(k, s, mul(k, q, s1))
        t, t1 = t1, sub(k, t, mul(k, q, t1))
    if a0 and a0[-1] != k.one:
        c = k.inv(a0[-1])
        a0, s, t = scale(k, a0, c), scale(k, s, c), scale(k, t, c)
    return a0, s, t


def evaluate(k, a, x):
    acc = k.zero
    for c in reversed(a):
        acc = k.add(k.mul(acc, x), c)
    return acc


def square_and_multiply(a, n, times):
    """a**n for n >= 1 on the product times(x, y), by square-and-multiply
    (Knuth, TAOCP vol. 2, 4.6.3): bit_length(n) - 1 squarings and
    popcount(n) - 1 further products.  None for n = 0, so that each caller
    supplies its own one; a negative n is refused (the shifts never end it)."""
    if n < 0:
        raise ValueError(f"negative exponent {n}")
    result = None
    while n:
        if n & 1:
            result = a if result is None else times(result, a)
        n >>= 1
        if n:
            a = times(a, a)
    return result


def power(k, a, n):
    """a**n for n >= 0, with no modulus."""
    result = square_and_multiply(a, n, lambda x, y: mul(k, x, y))
    return (k.one,) if result is None else result


def pow_mod(k, a, n, m):
    """a**n reduced modulo m (m nonzero), on the product ring(k).mulmod(m)."""
    r = ring(k)
    result = square_and_multiply(r.rem(a, m), n, r.mulmod(m))
    return r.rem(r.one, m) if result is None else trim(k, result)


def powers_mod(k, a, m):
    """1, a, a^2, ... reduced modulo m (degree at least 1), without end;
    each power costs one product mod m, when it is asked for."""
    return ring(k).powers_mod(a, m)


def frobenius_chain(k, m):
    """x^q, x^(q^2), x^(q^3), ... reduced modulo the monic m (degree at
    least 1) over the finite field k of q elements, without end.

    h_1 = x^q by square-and-multiply, and h_(i+1) = h_i^q = h_i(h_1): the
    q-power map is a ring map that fixes k (von zur Gathen and Shoup,
    "Computing Frobenius maps and factoring polynomials", Comput.
    Complexity 2, 1992).  Each step takes whichever needs fewer products
    mod m: the composition with h_1 by Horner, deg h_i products, or the
    q-th power, bit_length(q) - 1 squarings and popcount(q) - 1 products,
    each ring(k).mulmod(m)'s.  send(m'), m' a divisor of m, in place of
    next reduces h_1 and h_i mod m' in the same ring, and the chain goes on
    modulo m'."""
    q, r = k.order, ring(k)
    power_cost = q.bit_length() + bin(q).count("1") - 2
    times = r.mulmod(m)
    h1 = h = trim(k, square_and_multiply((k.zero, k.one), q, times))
    while True:
        m = yield h
        if m is not None:
            times, h1, h = r.mulmod(m), r.rem(h1, m), r.rem(h, m)
        if len(h) - 1 < power_cost:
            acc = h[-1:]
            for c in reversed(h[:-1]):
                acc = add(k, times(acc, h1), (c,))
            h = acc
        else:
            h = trim(k, square_and_multiply(h, q, times))


def _monic_tail(p, m):
    """The coefficients of T^d mod m over GF(p), d = deg m: the tail of m
    made monic and negated."""
    lead_inv = pow(m[-1], p - 2, p)
    return [-c * lead_inv % p for c in m[:-1]]


def _mul_prime(a, b):
    """a * b over GF(p) on int sequences, unreduced: a list of len(a) +
    len(b) - 1 sums of products that the caller takes % p."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _mulmod_prime(p, a, b, tail):
    """a * b mod m over GF(p) on int lists, as a list of at most d = deg m
    ints in [0, p); tail is _monic_tail(p, m).  Sums are taken % p only
    where a coefficient is read or returned."""
    d, out = len(tail), _mul_prime(a, b)
    for i in range(len(out) - 1, d - 1, -1):
        c = out[i] % p
        if c:
            for j, t in enumerate(tail, i - d):
                out[j] += c * t
    return [u % p for u in out[:d]]


def derivative(k, a):
    out = []
    for i in range(1, len(a)):
        out.append(k.mul(a[i], k.from_int(i)))
    return trim(k, out)


def compose(k, a, b):
    """a(b(X)): Horner in k[X], a's coefficients as constants."""
    return evaluate(PolyRing(k), [trim(k, (c,)) for c in a], b)


def ring(k):
    """k[X] on raw tuples: PrimeRing over GF(p), PolyRing over any other
    coefficient descriptor."""
    return PrimeRing(k) if getattr(k, "kind", None) == "prime" else PolyRing(k)


class PolyRing:
    """k[T], or k[T]/(modulus) for a monic modulus, as a coefficient
    descriptor: payloads are trimmed raw polynomials over k, reduced modulo
    the modulus when there is one.  It has no inv, so divmod_ over it needs
    a monic divisor.

    With no modulus it is also the ring k[X] of ring(k): sub, mul, divmod,
    rem, monic and mulmod (a product mod m) run the module functions, looked
    up at each call, and size is the coefficient count.  gcd, divide_out and
    multiplicity, written once on them, serve PrimeRing and _BitRows too."""

    size = len

    def __init__(self, k, modulus=None):
        self.k, self.modulus, self.zero, self.one = k, modulus, (), (k.one,)

    def add(self, a, b):
        return add(self.k, a, b)

    def sub(self, a, b):
        return sub(self.k, a, b)

    def neg(self, a):
        return neg(self.k, a)

    def mul(self, a, b):
        prod = mul(self.k, a, b)
        return prod if self.modulus is None else rem(self.k, prod, self.modulus)

    def divmod(self, a, b):
        return divmod_(self.k, a, b)

    def rem(self, a, b):
        return rem(self.k, a, b)

    def monic(self, a):
        return monic(self.k, a)

    def mulmod(self, m):
        """The product a * b mod m (m nonzero), maybe untrimmed."""
        k = self.k
        return lambda a, b: rem(k, mul(k, a, b), m)

    def powers_mod(self, a, m):
        return itertools.accumulate(itertools.repeat(a), self.mulmod(m), initial=self.one)

    def gcd(self, a, b):
        """The monic gcd of a and b, by Euclid."""
        while b:
            a, b = b, self.rem(a, b)
        return self.monic(a)

    def divide_out(self, f, d):
        """(f / d^m, m) for the largest m with d^m dividing the nonzero f.

        d is divided out one power at a time up to d^8, so m < 8, which is
        what the root and invariant-factor multiplicities of analyze nearly
        always see, costs m + 1 divisions and no squaring.  Beyond that f is
        divided by d^2, d^4, ... while they divide; what is left is below
        the first power that failed, and the powers below it take it out by
        its binary digits, so m in the thousands costs a few dozen
        divisions.
        """
        size, mult, powers = self.size, 0, [d]  # powers[i] = d^(2^i)
        while size(f) >= size(powers[-1]):
            quo, remdr = self.divmod(f, powers[-1])
            if remdr:
                break
            f, mult = quo, mult + (1 << len(powers) - 1)
            if mult >= 8:
                powers.append(self.mul(powers[-1], powers[-1]))
        for i in range(len(powers) - 2, -1, -1):
            if size(f) >= size(powers[i]):
                quo, remdr = self.divmod(f, powers[i])
                if not remdr:
                    f, mult = quo, mult + (1 << i)
        return f, mult

    def multiplicity(self, a, b):
        """The largest m with b^m dividing the nonzero a."""
        return self.divide_out(a, b)[1]


class PrimeRing(PolyRing):
    """GF(p)[X] with the arithmetic written inline on the ints 0 .. p-1, each
    sum taken % p only where a coefficient is read or returned: the module
    functions' trimmed tuples with no method call (mulmod's products are
    untrimmed lists, _mulmod_prime's)."""

    def sub(self, a, b):
        p = self.k.p
        return trim(self.k, [(x - y) % p for x, y in itertools.zip_longest(a, b, fillvalue=0)])

    def mul(self, a, b):
        # the operands are trimmed, so the top coefficient is nonzero
        if not a or not b:
            return ()
        p = self.k.p
        return tuple(u % p for u in _mul_prime(a, b))

    def divmod(self, a, b):
        if not b:
            raise ZeroDivisionError("division by zero polynomial")
        d = len(b) - 1
        if len(a) <= d:
            return (), a
        p = self.k.p
        binv, tail = pow(b[-1], p - 2, p), b[:-1]
        rem = list(a)
        q = [0] * (len(a) - d)
        for i in range(len(q) - 1, -1, -1):
            c = rem[i + d] * binv % p
            if c:
                q[i] = c
                for j, y in enumerate(tail, i):
                    rem[j] -= c * y
        # a's top coefficient over b's is nonzero, so q is trimmed
        return tuple(q), trim(self.k, [u % p for u in rem[:d]])

    def rem(self, a, b):
        return self.divmod(a, b)[1]

    def monic(self, a):
        if not a or a[-1] == 1:
            return a
        p = self.k.p
        inv = pow(a[-1], p - 2, p)
        return tuple(x * inv % p for x in a)

    def mulmod(self, m):
        p, tail = self.k.p, _monic_tail(self.k.p, m)
        return lambda a, b: _mulmod_prime(p, a, b, tail)

    def powers_mod(self, a, m):
        """The next power is cur * a mod m, a linear map of cur, so each
        coefficient is one dot product of cur with a column of the matrix
        whose rows are a * T^j mod m, j < deg m."""
        p, tail = self.k.p, _monic_tail(self.k.p, m)
        row, rows = _mulmod_prime(p, a, (1,), tail), []
        row += [0] * (len(tail) - len(row))
        for _ in tail:
            rows.append(row)
            row = [(u + row[-1] * t) % p for u, t in zip([0] + row[:-1], tail)]
        cols, times = list(zip(*rows)), operator.mul
        cur = [1] + [0] * (len(tail) - 1)
        yield self.one
        while True:
            cur = [sum(map(times, cur, col)) % p for col in cols]
            yield trim(self.k, cur)
