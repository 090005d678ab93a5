"""Small finite fields F_{p^f} and polynomial arithmetic over them.

Field elements are encoded as integers in [0, p^f): the base-p digits of
the encoding, least significant first, are the coordinates with respect
to the power basis 1, a, ..., a^(f-1) of a fixed generator ``a``.  Every
field for a given (p, f) uses the lexicographically least monic
irreducible modulus, so encodings are stable across runs and processes.

Arithmetic is by table lookup, the same for every f: each field builds
exp, log and Zech-logarithm tables of O(q) entries for its least
multiplicative generator once, and every operation is then a few list
indexings (Lidl-Niederreiter, *Finite Fields*, section 9.4).

Polynomials over a field are plain lists of element encodings, index =
degree, with no trailing zeros (the zero polynomial is ``[]``).
"""

import math

from .errors import InvalidInput, ConstructionMismatch

# The largest field order q = p^f that FF builds tables for.  It bounds
# the trial division in is_prime and the O(q) table build: the slowest
# field below it, F_(3^8), took 1.1 s and F_9973 0.13 s (2-core shared
# x86 host, Python 3.11).  Requests reach q <= 2401.
MAX_ORDER = 10 ** 4


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
    """The field F_{p^f} with a deterministic modulus.

    With g the least generator of F_q^* and n = q - 1, construction
    builds three tables, once per (p, f) and process:

    - ``_exp[k] = g^k`` for 0 <= k < 2n, so a sum of two logs indexes it;
    - ``_log[x]``, the inverse of ``_exp`` on nonzero encodings;
    - ``_zech[k] = log(1 + g^k)``, or None where 1 + g^k = 0.

    The tables take O(q) space.  Finding g walks the powers of each
    candidate until they return to 1, at most q - 2 coordinate products
    per candidate.  Orders q past MAX_ORDER are an InvalidInput.
    """

    _cache = {}

    def __new__(cls, p, f=1):
        key = (p, f)
        if key not in cls._cache:
            obj = super().__new__(cls)
            obj._init(p, f)
            cls._cache[key] = obj
        return cls._cache[key]

    def _init(self, p, f):
        if f < 1:
            raise InvalidInput("f must be >= 1")
        if p > MAX_ORDER or f > MAX_ORDER.bit_length() or p ** f > MAX_ORDER:
            raise InvalidInput("F_(%r^%r) has more than %d elements"
                               % (p, f, MAX_ORDER))
        if not is_prime(p):
            raise InvalidInput("p must be prime, got %r" % (p,))
        self.p = p
        self.f = f
        self.q = p ** f
        self.modulus = self._least_irreducible(p, f)
        self._build_tables()

    def __repr__(self):
        return "FF(%d, %d)" % (self.p, self.f)

    # -- construction ----------------------------------------------------

    @staticmethod
    def _least_irreducible(p, f):
        """Lexicographically least monic irreducible of degree f over F_p.

        The order is by the integer encoding of the low coefficient vector
        (c_0, ..., c_{f-1}).  For f = 1 the modulus is x, so a = 0 and an
        encoding is its own constant coordinate.
        """
        if f == 1:
            return (0, 1)
        for code in range(p ** f):
            low = [(code // p ** i) % p for i in range(f)]
            poly = low + [1]
            if _is_irreducible_mod_p(poly, p):
                return tuple(poly)
        raise ConstructionMismatch("no irreducible polynomial found")

    def _coord_mul(self, x, y):
        """x * y from coordinates: Horner in a, reducing a^f by the modulus."""
        p = self.p
        low = self.modulus[:self.f]
        ys = self.coords(y)
        out = [0] * self.f
        for xi in reversed(self.coords(x)):
            top = out[-1]
            out = [(s - top * m + xi * c) % p
                   for s, m, c in zip([0] + out[:-1], low, ys)]
        return self.encode(out)

    def _build_tables(self):
        # the least g whose powers return to 1 only after q - 1 steps
        n = self.q - 1
        for g in range(1, self.q):
            powers = [1]
            for _ in range(n - 1):
                nxt = self._coord_mul(powers[-1], g)
                if nxt == 1:
                    break
                powers.append(nxt)
            if len(powers) == n:
                break
        else:
            raise ConstructionMismatch("no generator of %r found" % (self,))
        self._exp = powers + powers
        self._log = [None] * self.q
        for k, x in enumerate(powers):
            self._log[x] = k
        p = self.p  # 1 + x adds 1 to the constant coordinate of x
        self._zech = [self._log[x - x % p + (x + 1) % p] for x in powers]

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
        if not x or not y:
            return x or y
        lx = self._log[x]
        z = self._zech[(self._log[y] - lx) % (self.q - 1)]
        return 0 if z is None else self._exp[lx + z]

    def neg(self, x):
        return self.mul(self.p - 1, x)

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        if not x or not y:
            return 0
        return self._exp[self._log[x] + self._log[y]]

    def smul(self, c, x):
        """Scalar multiple by an int c (mod p)."""
        return self.mul(c % self.p, x)

    def pow(self, x, n):
        if not x:
            if n < 0:
                raise InvalidInput("inverse of 0 in %r" % (self,))
            return 0 if n else 1
        return self._exp[self._log[x] * n % (self.q - 1)]

    def inv(self, x):
        return self.pow(x, -1)

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def pth_root(self, x):
        """The unique p-th root (Frobenius is bijective)."""
        return self.pow(x, self.q // self.p)

    def is_square(self, x):
        return not x or self._log[x] % math.gcd(2, self.q - 1) == 0

    def sqrt(self, x):
        """A square root of x, or None.  Deterministic (least encoding)."""
        if not x:
            return 0
        if not self.is_square(x):
            return None
        k = self._log[x]
        # an odd log of a square occurs only for q even, where q - 1 is odd
        r = self._exp[(k + k % 2 * (self.q - 1)) // 2]
        return min(r, self.neg(r))

    def generator(self):
        """Least multiplicative generator of F_q^*."""
        return self._exp[1]

    def dlog(self, x):
        """Discrete log base generator()."""
        if x == 0:
            raise InvalidInput("dlog of 0")
        return self._log[x]

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
        root = next(r for r in other.elements() if peval(other, mod, r) == 0)
        return lambda x: peval(other, self.coords(x), root)


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


def binary_power(base, n, mul):
    """base ** n for n >= 1 by repeated squaring with the product mul,
    lowest bit first: n.bit_length() - 1 squarings and popcount(n) - 1
    products.  n < 1 is an InvalidInput: the ladder has no product to
    start from, and shifting a negative n never reaches 0."""
    if n < 1:
        raise InvalidInput("binary_power needs an exponent >= 1, got %r" % (n,))
    while not n & 1:
        base = mul(base, base)
        n >>= 1
    out = base
    n >>= 1
    while n:
        base = mul(base, base)
        if n & 1:
            out = mul(out, base)
        n >>= 1
    return out


def ppow(ff, a, n, m=None):
    """a^n for n >= 0 by square-and-multiply, reduced modulo m if given.
    The result is a new list, never a itself.  n < 0 is an InvalidInput."""
    if n < 0:
        raise InvalidInput("ppow needs an exponent >= 0, got %r" % (n,))
    if n == 0:
        return [1]
    if m is None:
        return binary_power(pnormalize(a), n, lambda x, y: pmul(ff, x, y))
    return binary_power(pmod(ff, a, m), n,
                        lambda x, y: pmod(ff, pmul(ff, x, y), m))


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
    """Squarefree pieces [(g, i)] with a = lc * prod g^i, unsorted, and a
    piece may come twice; pfactor, the only caller, merges and sorts.

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
        out += [(g, m * ff.p) for g, m in inner]
    return out


def _ddf(ff, a):
    """Distinct-degree factorization of a squarefree monic a."""
    out = []
    x = [0, 1]
    h = x
    v = list(a)
    d = 0
    while pdeg(v) >= 2 * (d + 1):
        d += 1
        h = ppow(ff, h, ff.q, v)
        g = pgcd(ff, psub(ff, h, x), v)
        if pdeg(g) > 0:
            out.append((g, d))
            v = pdivmod(ff, v, g)[0]
            h = pmod(ff, h, v)
    if pdeg(v) > 0:
        out.append((v, pdeg(v)))
    return out


def _edf(ff, a, d):
    """Equal-degree factorization, deterministic candidate sweep.

    A candidate t splits a when gcd(h(t), a) is a proper factor.  For odd
    q, h(t) = t^((q^d - 1)/2) - 1 and the candidates are the monic t of
    degree 1 to deg a - 1, in the order of their encodings.  In
    characteristic 2 that exponent never splits, so h(t) is the trace
    t + t^2 + ... + t^(2^(kd - 1)) to F_2, q = 2^k.  It is F_2-linear and
    onto F_2 on each factor's residue field, so some t of any F_2-basis
    of F_q[x]/(a) gives two factors different traces: the candidates are
    c x^i for 1 <= i < deg a and c running over the basis 1, ..., a^(k-1)
    of F_q (constants never split).
    """
    n = pdeg(a)
    if n == d:
        return [a]
    q = ff.q
    if ff.p == 2:
        def h(t):
            out = square = t
            for _ in range(ff.f * d - 1):
                square = ppow(ff, square, 2, a)
                out = padd(ff, out, square)
            return out
        basis = [ff.encode([0] * j + [1]) for j in range(ff.f)]
        candidates = ([0] * i + [c] for i in range(1, n) for c in basis)
    else:
        def h(t):
            return psub(ff, ppow(ff, t, (q ** d - 1) // 2, a), [1])
        candidates = ([(code // q ** i) % q for i in range(degc)] + [1]
                      for degc in range(1, n) for code in range(q ** degc))
    for t in candidates:
        g = pgcd(ff, h(t), a)
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
