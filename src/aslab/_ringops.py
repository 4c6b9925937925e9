"""Dense univariate polynomial arithmetic on raw coefficient tuples.

Polynomials are tuples of field payloads, lowest degree first, with no
trailing zeros; the zero polynomial is the empty tuple.  Every function takes
the coefficient field descriptor as its first argument and works on payloads
directly, so the fraction field and the public Poly class can share one set
of inner loops without wrapper overhead.

The coefficients may themselves be polynomials over the descriptor PolyRing,
k[T] or k[T]/(m): so these functions also run in K[Z][X] (the bivariate
oracle's trial division) and in F[alpha][X] with F[alpha] = F[X]/(q).
"""


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
    if c == k.zero:
        return ()
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


def power(k, a, n):
    """a**n for n >= 0, by square-and-multiply with no modulus."""
    result = None
    while n:
        if n & 1:
            result = a if result is None else mul(k, result, a)
        n >>= 1
        if n:
            a = mul(k, a, a)
    return (k.one,) if result is None else result


def pow_mod(k, a, n, m):
    """a**n reduced modulo m (m nonzero)."""
    result = rem(k, (k.one,), m)
    base = rem(k, a, m)
    while n:
        if n & 1:
            result = rem(k, mul(k, result, base), m)
        base = rem(k, mul(k, base, base), m)
        n >>= 1
    return result


def powers_mod(k, a, m):
    """1, a, a^2, ... reduced modulo m (degree at least 1), without end;
    each power costs one product and one reduction, when it is asked for."""
    cur = (k.one,)
    while True:
        yield cur
        cur = rem(k, mul(k, cur, a), m)


def derivative(k, a):
    out = []
    for i in range(1, len(a)):
        out.append(k.mul(a[i], k.from_int(i)))
    return trim(k, out)


def compose(k, a, b):
    """a(b(X))."""
    acc = ()
    for c in reversed(a):
        acc = add(k, mul(k, acc, b), (c,) if c != k.zero else ())
    return acc


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
