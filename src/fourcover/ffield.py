"""Small finite fields F_{p^f} and polynomial arithmetic over them.

Field elements are encoded as integers in [0, p^f): the base-p digits of
the encoding, least significant first, are the coordinates with respect
to the power basis 1, a, ..., a^(f-1) of a fixed generator ``a``.  Every
field for a given (p, f) uses the lexicographically least monic
irreducible modulus, so encodings are stable across runs and processes.

Polynomials over a field are plain lists of element encodings, index =
degree, with no trailing zeros (the zero polynomial is ``[]``).
"""

from functools import lru_cache

from .errors import InvalidInput, ConstructionMismatch


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FF:
    """The field F_{p^f} with a deterministic modulus."""

    _cache = {}

    def __new__(cls, p, f=1):
        key = (p, f)
        if key not in cls._cache:
            obj = super().__new__(cls)
            obj._init(p, f)
            cls._cache[key] = obj
        return cls._cache[key]

    def _init(self, p, f):
        if not is_prime(p):
            raise InvalidInput("p must be prime, got %r" % (p,))
        if f < 1:
            raise InvalidInput("f must be >= 1")
        self.p = p
        self.f = f
        self.q = p ** f
        self.modulus = self._least_irreducible(p, f)
        self._pow_a = self._basis_reduction_table()

    def __repr__(self):
        return "FF(%d, %d)" % (self.p, self.f)

    # -- construction of the modulus ------------------------------------

    @staticmethod
    def _least_irreducible(p, f):
        """Lexicographically least monic irreducible of degree f over F_p.

        The order is by the integer encoding of the low coefficient vector
        (c_0, ..., c_{f-1}); for f = 1 the modulus is x (unused).
        """
        if f == 1:
            return (0, 1)
        for code in range(p ** f):
            low = [(code // p ** i) % p for i in range(f)]
            poly = low + [1]
            if _is_irreducible_mod_p(poly, p):
                return tuple(poly)
        raise ConstructionMismatch("no irreducible polynomial found")

    def _basis_reduction_table(self):
        # a^k for k in [f, 2f-2], as coefficient tuples, from the modulus
        p, f = self.p, self.f
        if f == 1:
            return []
        m = self.modulus
        table = []
        cur = [(-m[i]) % p for i in range(f)]  # a^f
        table.append(tuple(cur))
        for _ in range(f - 2):
            cur = [0] + cur
            top = cur.pop()
            if top:
                cur = [(cur[i] - top * m[i]) % p for i in range(f)]
            table.append(tuple(cur))
        return table

    # -- encoding helpers ------------------------------------------------

    def coords(self, x):
        p = self.p
        return [(x // p ** i) % p for i in range(self.f)]

    def encode(self, digits):
        p = self.p
        x = 0
        for i, d in enumerate(digits):
            x += (d % p) * p ** i
        return x

    def elements(self):
        return range(self.q)

    # -- arithmetic -------------------------------------------------------

    def add(self, x, y):
        if self.f == 1:
            return (x + y) % self.p
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.f):
            out += ((x % p + y % p) % p) * mult
            x //= p
            y //= p
            mult *= p
        return out

    def neg(self, x):
        if self.f == 1:
            return (-x) % self.p
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.f):
            out += ((-x) % p) * mult
            x //= p
            mult *= p
        return out

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        if self.f == 1:
            return (x * y) % self.p
        p, f = self.p, self.f
        xd = self.coords(x)
        yd = self.coords(y)
        conv = [0] * (2 * f - 1)
        for i, xi in enumerate(xd):
            if xi:
                for j, yj in enumerate(yd):
                    conv[i + j] += xi * yj
        res = [c % p for c in conv[:f]]
        for k in range(f, 2 * f - 1):
            c = conv[k] % p
            if c:
                red = self._pow_a[k - f]
                for i in range(f):
                    res[i] = (res[i] + c * red[i]) % p
        return self.encode(res)

    def smul(self, c, x):
        """Scalar multiple by an int c (mod p)."""
        p = self.p
        c %= p
        if self.f == 1:
            return (c * x) % p
        out = 0
        mult = 1
        for _ in range(self.f):
            out += ((x % p) * c % p) * mult
            x //= p
            mult *= p
        return out

    def pow(self, x, n):
        if n < 0:
            return self.pow(self.inv(x), -n)
        out = 1
        base = x
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def inv(self, x):
        if x == 0:
            raise InvalidInput("inverse of 0 in %r" % (self,))
        if self.f == 1:
            return pow(x, -1, self.p)
        return self.pow(x, self.q - 2)

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def pth_root(self, x):
        """The unique p-th root (Frobenius is bijective)."""
        return self.pow(x, self.p ** (self.f - 1)) if self.f > 1 else x

    def is_square(self, x):
        if x == 0:
            return True
        return self.pow(x, (self.q - 1) // 2) == 1

    def sqrt(self, x):
        """A square root of x, or None.  Deterministic (least encoding)."""
        if x == 0:
            return 0
        if not self.is_square(x):
            return None
        if self.q % 4 == 3:
            r = self.pow(x, (self.q + 1) // 4)
        else:
            r = self._tonelli_shanks(x)
        return min(r, self.neg(r))

    def _tonelli_shanks(self, x):
        q1 = self.q - 1
        s = 0
        while q1 % 2 == 0:
            q1 //= 2
            s += 1
        z = next(c for c in range(2, self.q) if not self.is_square(c))
        m, c = s, self.pow(z, q1)
        t, r = self.pow(x, q1), self.pow(x, (q1 + 1) // 2)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = self.mul(t2, t2)
                i += 1
            b = self.pow(c, 1 << (m - i - 1))
            m, c = i, self.mul(b, b)
            t, r = self.mul(t, c), self.mul(r, b)
        return r

    @lru_cache(maxsize=None)
    def generator(self):
        """Least multiplicative generator of F_q^*."""
        order = self.q - 1
        fac = _prime_factors(order)
        for g in range(1, self.q):
            if g == 0:
                continue
            if all(self.pow(g, order // r) != 1 for r in fac):
                return g
        raise ConstructionMismatch("no generator found")

    def dlog(self, x):
        """Discrete log base generator() (fields here are tiny)."""
        if x == 0:
            raise InvalidInput("dlog of 0")
        g = self.generator()
        cur = 1
        for k in range(self.q - 1):
            if cur == x:
                return k
            cur = self.mul(cur, g)
        raise ConstructionMismatch("dlog failed")

    def render(self, x):
        """Human form: ints for f=1, generator powers g^k for f>1."""
        if self.f == 1:
            return str(x)
        if x == 0:
            return "0"
        if x == 1:
            return "1"
        k = self.dlog(x)
        return "g" if k == 1 else "g^%d" % k

    def embedding_into(self, other):
        """Map F_{p^f} -> F_{p^F}, f | F: image of the generator a.

        Deterministic: least root of our modulus in the bigger field.
        Returns a function on encodings.
        """
        if other.p != self.p or other.f % self.f:
            raise InvalidInput("no embedding %r -> %r" % (self, other))
        if other is self:
            return lambda x: x
        mod = list(self.modulus)
        root = next(r for r in other.elements()
                    if _eval_int_poly(mod, r, other) == 0)

        def emb(x, _root=root):
            digs = self.coords(x)
            out = 0
            for i in reversed(range(len(digs))):
                out = other.add(other.mul(out, _root), digs[i] % other.p)
            return out

        return emb


def _eval_int_poly(coeffs, x, ff):
    out = 0
    for c in reversed(coeffs):
        out = ff.add(ff.mul(out, x), c % ff.p)
    return out


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible_mod_p(poly, p):
    """Irreducibility of a monic poly over F_p: squarefree, and its
    distinct-degree factorization is the poly itself in its own degree."""
    ff = FF(p, 1)
    f = pnormalize([c % p for c in poly])
    d = pderiv(ff, f)
    if pdeg(f) < 1 or not d or pdeg(pgcd(ff, f, d)) > 0:
        return False
    return _ddf(ff, f) == [(f, pdeg(f))]


# ---------------------------------------------------------------------------
# polynomials over FF: lists of encodings, index = degree, no trailing zeros
# ---------------------------------------------------------------------------

def pnormalize(poly):
    poly = list(poly)
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def pdeg(poly):
    return len(poly) - 1  # -1 for the zero polynomial


def padd(ff, a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out[i] = ff.add(x, y)
    return pnormalize(out)


def pneg(ff, a):
    return [ff.neg(c) for c in a]


def psub(ff, a, b):
    return padd(ff, a, pneg(ff, b))


def pscale(ff, c, a):
    if c == 0:
        return []
    return pnormalize([ff.mul(c, x) for x in a])


def pmul(ff, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = ff.add(out[i + j], ff.mul(x, y))
    return pnormalize(out)


def ppow(ff, a, n):
    out = [1]
    base = a
    while n:
        if n & 1:
            out = pmul(ff, out, base)
        base = pmul(ff, base, base)
        n >>= 1
    return out


def pdivmod(ff, a, b):
    if not b:
        raise InvalidInput("polynomial division by zero")
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = ff.inv(b[-1])
    while len(a) >= len(b) and pnormalize(a):
        a = pnormalize(a)
        if len(a) < len(b):
            break
        c = ff.mul(a[-1], inv_lead)
        k = len(a) - len(b)
        q[k] = c
        for i, bc in enumerate(b):
            a[k + i] = ff.sub(a[k + i], ff.mul(c, bc))
        a.pop()
    return pnormalize(q), pnormalize(a)


def pmod(ff, a, b):
    return pdivmod(ff, a, b)[1]


def pgcd(ff, a, b):
    a, b = pnormalize(a), pnormalize(b)
    while b:
        a, b = b, pmod(ff, a, b)
    return pmonic(ff, a)


def pmonic(ff, a):
    if not a or a[-1] == 1:
        return list(a)
    return pscale(ff, ff.inv(a[-1]), a)


def peval(ff, a, x):
    out = 0
    for c in reversed(a):
        out = ff.add(ff.mul(out, x), c)
    return out


def pderiv(ff, a):
    return pnormalize([ff.smul(i, a[i]) for i in range(1, len(a))])


def ppow_mod(ff, a, n, m):
    out = [1]
    base = pmod(ff, a, m)
    while n:
        if n & 1:
            out = pmod(ff, pmul(ff, out, base), m)
        base = pmod(ff, pmul(ff, base, base), m)
        n >>= 1
    return out


def proots(ff, a):
    """Roots of a in F_q, sorted by encoding (brute force, fields tiny)."""
    a = pnormalize(a)
    if not a:
        raise InvalidInput("roots of the zero polynomial")
    return [x for x in ff.elements() if peval(ff, a, x) == 0]


def p_is_pth_power(ff, a):
    """True iff every exponent with nonzero coefficient is divisible by p."""
    return all(c == 0 for i, c in enumerate(a) if i % ff.p)


def p_pth_root(ff, a):
    """Coefficient-wise p-th root of a p-th power polynomial."""
    out = [0] * (pdeg(pnormalize(a)) // ff.p + 1) if pnormalize(a) else []
    for i, c in enumerate(a):
        if c:
            out[i // ff.p] = ff.pth_root(c)
    return pnormalize(out)


def psquarefree_part_factors(ff, a):
    """Squarefree decomposition [(g_i, i)] with a = lc * prod g_i^i.

    Handles the char-p collapse f' = 0 by recursing on the p-th root.
    """
    a = pmonic(ff, a)
    if pdeg(a) < 1:
        return []
    d = pderiv(ff, a)
    if not d:
        inner = psquarefree_part_factors(ff, p_pth_root(ff, a))
        return [(g, m * ff.p) for g, m in inner]
    out = []
    c = pgcd(ff, a, d)
    w = pdivmod(ff, a, c)[0]
    i = 1
    while pdeg(w) > 0:
        y = pgcd(ff, w, c)
        z = pdivmod(ff, w, y)[0]
        if pdeg(z) > 0:
            out.append((z, i))
        w = y
        c = pdivmod(ff, c, y)[0]
        i += 1
    if pdeg(c) > 0:
        inner = psquarefree_part_factors(ff, p_pth_root(ff, c))
        for g, m in inner:
            out.append((g, m * ff.p))
    # merge duplicate multiplicities introduced by the recursion
    merged = {}
    for g, m in out:
        key = tuple(g)
        merged[key] = merged.get(key, 0) + m
    return [(list(k), m) for k, m in sorted(merged.items(),
                                            key=lambda km: (len(km[0]), km[0]))]


def _ddf(ff, a):
    """Distinct-degree factorization of a squarefree monic a."""
    out = []
    x = [0, 1]
    h = x
    v = list(a)
    d = 0
    while pdeg(v) >= 2 * (d + 1):
        d += 1
        h = ppow_mod(ff, h, ff.q, v)
        g = pgcd(ff, psub(ff, h, x), v)
        if pdeg(g) > 0:
            out.append((g, d))
            v = pdivmod(ff, v, g)[0]
            h = pmod(ff, h, v)
    if pdeg(v) > 0:
        out.append((v, pdeg(v)))
    return out


def _edf(ff, a, d):
    """Equal-degree factorization, deterministic candidate sweep (q odd)."""
    n = pdeg(a)
    if n == d:
        return [a]
    expo = (ff.q ** d - 1) // 2
    # sweep low-degree candidates in a fixed order
    for degc in range(1, n):
        for code in range(ff.q ** degc):
            t = [(code // ff.q ** i) % ff.q for i in range(degc)] + [1]
            h = ppow_mod(ff, t, expo, a)
            g = pgcd(ff, psub(ff, h, [1]), a)
            if 0 < pdeg(g) < n:
                return sorted(_edf(ff, g, d) + _edf(ff, pdivmod(ff, a, g)[0], d),
                              key=lambda f: (len(f), f))
    raise ConstructionMismatch("EDF sweep exhausted (should not happen)")


def pfactor(ff, a):
    """Factor into monic irreducibles: sorted list of (poly, multiplicity)."""
    a = pnormalize(a)
    if pdeg(a) < 1:
        return []
    res = {}
    for g, m in psquarefree_part_factors(ff, a):
        for h, d in _ddf(ff, pmonic(ff, g)):
            for irr in _edf(ff, h, d):
                key = tuple(irr)
                res[key] = res.get(key, 0) + m
    return [(list(k), mult) for k, mult in sorted(res.items(),
                                                  key=lambda km: (len(km[0]), km[0]))]


def prender(ff, a, var="x"):
    """Render a polynomial, highest degree first."""
    a = pnormalize(a)
    if not a:
        return "0"
    parts = []
    for i in reversed(range(len(a))):
        c = a[i]
        if c == 0:
            continue
        cs = ff.render(c)
        if i == 0:
            parts.append(cs)
        else:
            xs = var if i == 1 else "%s^%d" % (var, i)
            parts.append(xs if cs == "1" else "%s*%s" % (cs, xs))
    return " + ".join(parts)
