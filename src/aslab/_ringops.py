"""Dense univariate polynomial arithmetic on raw coefficient tuples.

Polynomials are tuples of field payloads, lowest degree first, with no
trailing zeros; the zero polynomial is the empty tuple.  Every function takes
the coefficient field descriptor as its first argument and works on payloads
directly, so the fraction field and the public Poly class can share one set
of inner loops without wrapper overhead.

The coefficients may themselves be polynomials over the descriptor PolyRing,
k[T] or k[T]/(m): so these functions also run in K[Z][X] (the bivariate
oracle's trial division) and in F[alpha][X] with F[alpha] = F[X]/(q).

square_and_multiply is the one power loop of the package, on a product
passed in: power's, pow_mod's, frobenius_chain's, dickson's multivariate
pow_int and the Smith diagonal's in linalg.  _mulmod is the one product
mod m of pow_mod and frobenius_chain, chosen once per modulus: over GF(p),
m of degree at least 1, _mulmod_prime on int lists with % p, else rem of
mul.  powers_mod keeps its own GF(p) step, dot products on int lists (the
log tables, Berlekamp's Frobenius columns, poly._min_dependence).  Rabin's
test and poly._factor_raw walk the Frobenius chain; _factor_raw sends it
each cofactor left after a factor is divided out.  _mul_prime, the
unreduced int product, is also poly._PrimeRows.mul's.  mul and divmod_
keep no field-kind test: every call, GF(2) ones included, would pay it,
and the inline path gained nothing on analyze's Krylov and Smith loops.
"""

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
    a, b = tuple(a), tuple(b)
    while b:
        a, b = b, rem(k, a, b)
    return monic(k, a)


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
    """a**n reduced modulo m (m nonzero), on the product _mulmod(k, m)."""
    result = square_and_multiply(rem(k, a, m), n, _mulmod(k, m))
    return rem(k, (k.one,), m) if result is None else trim(k, result)


def powers_mod(k, a, m):
    """1, a, a^2, ... reduced modulo m (degree at least 1), without end;
    each power costs one product and one reduction, when it is asked for."""
    if _prime_modulus(k, m):
        yield from _powers_mod_prime(k, a, m)
        return
    cur = (k.one,)
    while True:
        yield cur
        cur = rem(k, mul(k, cur, a), m)


def frobenius_chain(k, m):
    """x^q, x^(q^2), x^(q^3), ... reduced modulo the monic m (degree at
    least 1) over the finite field k of q elements, without end.

    h_1 = x^q by square-and-multiply, and h_(i+1) = h_i^q = h_i(h_1): the
    q-power map is a ring map that fixes k (von zur Gathen and Shoup,
    "Computing Frobenius maps and factoring polynomials", Comput.
    Complexity 2, 1992).  Each step takes whichever needs fewer products
    mod m: the composition with h_1 by Horner, deg h_i products, or the
    q-th power, bit_length(q) - 1 squarings and popcount(q) - 1 products,
    each _mulmod(k, m)'s.  send(m'), m' a divisor of m, in place of next
    reduces h_1 and h_i mod m', and the chain goes on modulo m'."""
    q = k.order
    power_cost = q.bit_length() + bin(q).count("1") - 2
    times = _mulmod(k, m)
    h1 = h = trim(k, square_and_multiply((k.zero, k.one), q, times))
    while True:
        m = yield h
        if m is not None:
            times, h1, h = _mulmod(k, m), rem(k, h1, m), rem(k, h, m)
        if len(h) - 1 < power_cost:
            acc = h[-1:]
            for c in reversed(h[:-1]):
                acc = add(k, times(acc, h1), (c,))
            h = acc
        else:
            h = trim(k, square_and_multiply(h, q, times))


def _mulmod(k, m):
    """a * b mod m (m nonzero), maybe untrimmed: _mulmod_prime on int lists
    when _prime_modulus(k, m), else rem of mul."""
    if _prime_modulus(k, m):
        p, tail = k.p, _monic_tail(k.p, m)
        return lambda a, b: _mulmod_prime(p, a, b, tail)
    return lambda a, b: rem(k, mul(k, a, b), m)


def _prime_modulus(k, m):
    """Whether k is a prime field GF(p) and m has degree at least 1."""
    return getattr(k, "kind", None) == "prime" and len(m) > 1


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


def _powers_mod_prime(k, a, m):
    """powers_mod over GF(p): the next power is cur * a mod m, a linear map
    of cur, so each coefficient is one dot product of cur with a column of
    the matrix whose rows are a * T^j mod m, j < deg m."""
    p, tail = k.p, _monic_tail(k.p, m)
    row, rows = _mulmod_prime(p, a, (1,), tail), []
    row += [0] * (len(tail) - len(row))
    for _ in tail:
        rows.append(row)
        row = [(u + row[-1] * t) % p for u, t in zip([0] + row[:-1], tail)]
    cols, times = list(zip(*rows)), operator.mul
    cur = [1] + [0] * (len(tail) - 1)
    yield (k.one,)
    while True:
        cur = [sum(map(times, cur, col)) % p for col in cols]
        yield trim(k, cur)


def derivative(k, a):
    out = []
    for i in range(1, len(a)):
        out.append(k.mul(a[i], k.from_int(i)))
    return trim(k, out)


def compose(k, a, b):
    """a(b(X)): Horner in k[X], a's coefficients as constants."""
    return evaluate(PolyRing(k), [trim(k, (c,)) for c in a], b)


class PolyRing:
    """k[T], or k[T]/(modulus) for a monic modulus, as a coefficient
    descriptor: payloads are trimmed raw polynomials over k, reduced modulo
    the modulus when there is one.  It has no inv, so divmod_ over it needs
    a monic divisor."""

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
