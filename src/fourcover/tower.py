"""Exact finite-precision arithmetic in ramified towers of the p-adics.

A tower is K = W[pi] where W is the unramified extension of Q_p of
degree f and pi satisfies pi^e = -p.  Valuations are normalized by
v(p) = 1, so v(pi) = 1/e and every valuation is an exact Fraction with
denominator dividing e.

Elements are stored as pi^s * U where U = sum_{j<e} U[j] pi^j is a unit
(its j = 0 coefficient is a unit of W) and each U[j] is an element of
W/p^N, represented as an integer (f = 1) or an f-tuple of integers
(f > 1) with respect to the power basis of a fixed monic lift of the
residue-field modulus.  Reduction uses pi^e = -p, which keeps every
symbolic token (powers of pi, tau, rationals) an exact pure pi-power
times a rational unit.

Elements constructed from rational tokens additionally carry the exact
pair (q, m) with value q * pi^m; arithmetic propagates exactness when
the result is again of that shape, so valuations of token-built data are
decided exactly even when they exceed the digit window.

Products work on the coefficient lists directly: one integer
convolution, one fold of pi^e by -p and, for f > 1, one reduction by the
modulus lift per pi-slot.  The inverse is an exact solve, not a
precision loop: multiplication by the unit part is an (e f) x (e f)
matrix over Z/p^N that is invertible mod p, and Gaussian elimination
with unit pivots gives every coordinate of the inverse in one pass.

Roots are lifted in one place, ``hensel_root``: Newton steps from a
simple residue root until the polynomial cannot be told from zero.  Square
roots go through it too.  The lifter divides nowhere: it carries an
approximate 1/P'(x), started from a residue-field inverse and refined by
its own Newton step, so no step runs a tower inverse.  The root's
precision is capped at that of the last residual P(x).

Powers start from the base at the lowest set bit of the exponent and
stop after the top bit, so they compute no product by one and no unused
square.
"""

import math
import re
from fractions import Fraction

from .errors import (
    InsufficientPrecision, NeedsExtension, NegativeValuation,
    DivisionByIndistinguishableZero, InvalidInput, ConstructionMismatch,
)
from .ffield import FF, is_prime

INF = math.inf
_EXACT_ZERO = (Fraction(0), 0)


def make_tower(p, e, f, precision):
    """Build the tower with v(pi) = 1/e and pi^e = -p.

    ``precision`` counts pi-digits carried by elements.  Rejects p that
    is not prime and nonpositive e, f, precision.
    """
    return Tower(p, e, f, precision)


class Tower:

    def __init__(self, p, e, f=1, prec=None):
        if not is_prime(p):
            raise InvalidInput("p must be a prime >= 2, got %r" % (p,))
        if not isinstance(e, int) or e < 1:
            raise InvalidInput("ramification index e must be >= 1, got %r" % (e,))
        if not isinstance(f, int) or f < 1:
            raise InvalidInput("residue degree f must be >= 1, got %r" % (f,))
        if prec is None:
            prec = 50 * e
        if not isinstance(prec, int) or prec < 1:
            raise InvalidInput("precision must be a positive integer")
        self.p = p
        self.e = e
        self.f = f
        self.prec = prec
        self.nl = -(-prec // e) + 2          # p-digit levels per W coefficient
        self.pmod = p ** self.nl
        self.ff = FF(p, f)
        # monic integer lift of the residue modulus, coefficients in [0, p)
        self.modulus = list(self.ff.modulus) if f > 1 else None
        self._ppow = [p ** k for k in range(self.nl + 1)]
        self._embed_roots = {}
        # the stored form of 1, canonicalized once; one() wraps it in a
        # new El, since an El kept here would tie the tower into a
        # reference cycle that only the cyclic collector frees
        one = self.from_exact_pair(Fraction(1), 0)
        self._one = (one.s, one.U, one.ap, one.exact)

    def __repr__(self):
        return "Tower(p=%d, e=%d, f=%d, prec=%d)" % (self.p, self.e, self.f, self.prec)

    # ------------------------------------------------------------------
    # unit parts: e coefficients in W/p^nl, each an int (f = 1) or an
    # f-tuple of ints; raw results may hold any integers until _canon
    # ------------------------------------------------------------------

    def _mask(self, U, window):
        """Reduce each U[j] to the p-digits that lie below pi^window.

        U[j] pi^j has its p-digit i at pi^(j + e i), so U[j] keeps
        ceil((window - j)/e) digits: q + 1 for j < r and q for j >= r,
        where window = q e + r.
        """
        q, r = divmod(window, self.e)
        hi = self._ppow[min(q + 1, self.nl)]
        lo = self._ppow[min(q, self.nl)]
        if self.f == 1:
            return [c % hi for c in U[:r]] + [c % lo for c in U[r:]]
        return ([tuple([c % hi for c in w]) for w in U[:r]]
                + [tuple([c % lo for c in w]) for w in U[r:]])

    def _shift_down(self, U, m):
        """Divide sum U[j] pi^j by pi^m (exact; requires v_pi >= m)."""
        q, r = divmod(m, self.e)
        # pi^(j - m) = pi^(j - r)/(-p)^q, or pi^(j - r + e)/(-p)^(q + 1) if j < r
        d, d1 = (-self.p) ** q, (-self.p) ** (q + 1)
        if self.f == 1:
            return [c // d for c in U[r:]] + [c // d1 for c in U[:r]]
        return ([tuple([c // d for c in w]) for w in U[r:]]
                + [tuple([c // d1 for c in w]) for w in U[:r]])

    def _shift_up(self, U, m):
        """Multiply sum U[j] pi^j by pi^m (m >= 0)."""
        q, r = divmod(m, self.e)
        k = self.e - r
        # pi^(j + m) = (-p)^q pi^(j + r), or (-p)^(q + 1) pi^(j + r - e) if j >= k
        d, d1 = (-self.p) ** q, (-self.p) ** (q + 1)
        if self.f == 1:
            return [c * d1 for c in U[k:]] + [c * d for c in U[:k]]
        return ([tuple([c * d1 for c in w]) for w in U[k:]]
                + [tuple([c * d for c in w]) for w in U[:k]])

    def _unit_product(self, A, B):
        """Coefficients of (sum A[j] pi^j)(sum B[k] pi^k), folded by
        pi^e = -p.  For f > 1 the coordinates are reduced by the modulus
        lift once per pi-slot of the product, not once per coefficient
        product."""
        p, e, f = self.p, self.e, self.f
        if f == 1:
            conv = [0] * (2 * e - 1)
            _convolve(conv, A, B)
            return [c - p * h for c, h in zip(conv, conv[e:])] + [conv[e - 1]]
        # one convolution per pair of coordinate planes: a^i A_i times a^l B_l
        planes = [[0] * (2 * e - 1) for _ in range(2 * f - 1)]
        Bt = list(zip(*B))
        for i, Ai in enumerate(zip(*A)):
            for l, Bl in enumerate(Bt, i):
                _convolve(planes[l], Ai, Bl)
        # a^k = -sum modulus[i] a^(k - f + i) for k >= f, top plane first
        pm = self.pmod
        for k in range(2 * f - 2, f - 1, -1):
            top = [c % pm for c in planes[k]]
            for i, m in enumerate(self.modulus[:f]):
                if m:
                    low = planes[k - f + i]
                    planes[k - f + i] = [c - m * t for c, t in zip(low, top)]
        planes = [[c - p * h for c, h in zip(P, P[e:])] + [P[e - 1]]
                  for P in planes[:f]]
        return list(zip(*planes))

    def _unit_inverse(self, U):
        """Coordinates of 1/u for the unit u = sum U[j] pi^j, exact in W/p^nl.

        Multiplication by u is an (e f) x (e f) matrix over Z/p^nl in the
        basis a^i pi^j (a the root of the modulus lift, pi^e = -p).  It is
        invertible mod p because u is a unit, so Gaussian elimination with
        a unit pivot in every column solves u z = 1 exactly.
        """
        p, e, f, pm = self.p, self.e, self.f, self.pmod
        if f == 1:
            # row t: the coefficient of pi^t in u pi^k for k = 0..e-1
            rows = [list(U[t::-1]) + [-p * c for c in U[:t:-1]]
                    for t in range(e)]
        else:
            # ua[j][l]: coordinates of U[j] a^l
            ua = []
            for w in U:
                powers = [list(w)]
                for _ in range(f - 1):
                    prev = powers[-1]
                    powers.append([c - prev[-1] * m for c, m in
                                   zip([0] + prev[:-1], self.modulus)])
                ua.append(powers)
            rows = [[ua[t - k][l][i] if k <= t else -p * ua[t - k + e][l][i]
                     for k in range(e) for l in range(f)]
                    for t in range(e) for i in range(f)]
        for row in rows:
            row.append(0)
        rows[0][-1] = 1  # the right-hand side: the coordinates of 1
        # Each step takes a unit pivot for the leading column, clears that
        # column from the other rows and drops it; pivots[c] keeps row c of
        # the resulting unit upper triangular system, without its diagonal.
        pivots = []
        for _ in range(e * f):
            r = next((r for r, row in enumerate(rows) if row[0] % p), None)
            if r is None:
                raise ConstructionMismatch(
                    "no unit pivot while inverting a unit; it is not canonical")
            row = rows.pop(r)
            inv = pow(row[0], -1, pm)
            pivot = [c * inv % pm for c in row[1:]]
            rows = [[(c - other[0] * b) % pm for c, b in zip(other[1:], pivot)]
                    if other[0] else other[1:] for other in rows]
            pivots.append(pivot)
        # back substitution, last coordinate first
        z = []
        for pivot in reversed(pivots):
            z.append((pivot[-1] - sum(map(int.__mul__, pivot, reversed(z)))) % pm)
        z.reverse()
        if f == 1:
            return z
        return [tuple(z[j:j + f]) for j in range(0, e * f, f)]

    # ------------------------------------------------------------------
    # element constructors
    # ------------------------------------------------------------------

    def _canon(self, s, U, ap, exact):
        """Canonicalize a raw pi^s * sum U[j] pi^j with digit window ap."""
        ap = min(ap, s + self.prec)
        window = ap - s
        p, e = self.p, self.e
        if window > 0:
            U = self._mask(U, window)
            u0 = U[0]
            if (u0 % p if self.f == 1 else any(c % p for c in u0)):
                return El(self, s, tuple(U), ap, exact)
            # pi-valuation: U[j] = p^v * unit sits at pi^(j + e v)
            vpi = INF
            for j, w in enumerate(U):
                for c in ((w,) if self.f == 1 else w):
                    if c:
                        v = j
                        while c % p == 0:
                            c //= p
                            v += e
                        vpi = min(vpi, v)
        else:
            vpi = INF
        if vpi >= window:
            if exact is not None:
                if exact[0] == 0:
                    return El(self, None, None, None, (Fraction(0), 0))
                # the value is known exactly but lies below the digit
                # window: re-expand from the exact form instead of
                # degrading to an indistinguishable zero
                return self.from_exact_pair(*exact)
            return El(self, None, None, ap, None)
        U = self._mask(self._shift_down(U, vpi), window - vpi)
        return El(self, s + vpi, tuple(U), ap, exact)

    def _constant(self, w):
        """The unit part of the W element w: [w, 0, ..., 0]."""
        return [w] + [0 if self.f == 1 else (0,) * self.f] * (self.e - 1)

    def zero(self):
        return El(self, None, None, None, _EXACT_ZERO)

    def one(self):
        return El(self, *self._one)

    def from_int(self, n):
        return self.from_rational(Fraction(n))

    def from_rational(self, q):
        """Embed a rational; exactness flag set for lossless re-expansion."""
        q = Fraction(q)
        return self.from_exact_pair(q, 0)

    def from_exact_pair(self, q, m):
        """The element q * pi^m for a rational q."""
        q = Fraction(q)
        if q == 0:
            return self.zero()
        t = 0
        num, den = q.numerator, q.denominator
        while num % self.p == 0:
            num //= self.p
            t += 1
        while den % self.p == 0:
            den //= self.p
            t -= 1
        # q*pi^m = (-1)^t * (num/den) * pi^(m + t e)
        s = m + t * self.e
        sign = -1 if t % 2 else 1
        unit = sign * num * pow(den, -1, self.pmod) % self.pmod
        w = unit if self.f == 1 else (unit,) + (0,) * (self.f - 1)
        return self._canon(s, self._constant(w), s + self.prec, (q, m))

    def pi_power(self, m):
        return self.from_exact_pair(Fraction(1), m)

    def pi(self):
        return self.pi_power(1)

    def tau(self, k=1):
        """tau^k = (-p)^(kp/(p-1)), a pure pi-power when (p-1) | e."""
        p, e = self.p, self.e
        if (k * e * p) % (p - 1):
            need = (p - 1) // math.gcd(k * p, p - 1)
            raise NeedsExtension(
                "tau^%d needs (p-1) | %d*e; enlarge e by a factor of %d"
                % (k, k, need), e=self.e * need)
        return self.pi_power(k * e * p // (p - 1))

    def tau_valuation(self):
        return Fraction(self.p, self.p - 1)

    def lift_ff(self, enc):
        """Lift a residue-field element to a unit digit (level 0)."""
        if enc == 0:
            return self.zero()
        w = enc % self.p if self.f == 1 else tuple(self.ff.coords(enc))
        return self._canon(0, self._constant(w), self.prec, None)

    def sqrt(self, x):
        """Square root; NeedsExtension when the value group or residue
        field is too small.

        Branch: the lift of the least square root of the residue, except
        that an exact rational square keeps its positive rational root (and
        its exactness flag).  Downstream constructions are
        branch-independent.
        """
        if self.p == 2:
            raise NeedsExtension("square roots at p=2 are outside this tower's scope")
        if x.is_zeroish():
            if x.is_true_zero():
                return self.zero()
            raise InsufficientPrecision("sqrt of an indistinguishable zero")
        s = x.pival()
        if s % 2:
            raise NeedsExtension("sqrt needs even pi-valuation; double e",
                                 e=2 * self.e, token="sqrt")
        exact = None
        if x.exact is not None:
            q, m = x.exact
            if m % 2 == 0 and q > 0:
                rn = _isqrt_exact(q.numerator)
                rd = _isqrt_exact(q.denominator)
                if rn is not None and rd is not None:
                    exact = (Fraction(rn, rd), m // 2)
        u = x * self.pi_power(-s)
        rr = self.ff.sqrt(u.residue())
        if rr is None:
            raise NeedsExtension("sqrt needs a quadratic residue extension",
                                 f=2 * self.f, token="sqrt")
        y = hensel_root(Poly(self, [-u, 0, 1]), rr) * self.pi_power(s // 2)
        if exact is not None:
            if not (y - self.from_exact_pair(*exact)).is_zeroish():
                y = -y
            y = El(self, y.s, y.U, y.ap, exact)
        return y

    # ------------------------------------------------------------------
    # tokens
    # ------------------------------------------------------------------

    _FACT_RE = re.compile(
        r"^\s*(?P<neg>-)?\s*(?:(?P<num>\d+)(?:/(?P<den>\d+))?|(?P<name>pi|tau))"
        r"(?:\^(?P<exp>-?\d+))?\s*$")

    def parse(self, text):
        """Parse a symbolic token: products of a/b, n^k, pi^k, tau^k."""
        if not isinstance(text, str) or not text.strip():
            raise InvalidInput("empty token")
        out = self.one()
        for part in text.split("*"):
            m = self._FACT_RE.match(part)
            if not m:
                raise InvalidInput("bad token factor %r" % part)
            exp = int(m.group("exp")) if m.group("exp") else 1
            if m.group("name") == "pi":
                fac = self.pi_power(exp)
            elif m.group("name") == "tau":
                fac = self.tau(exp)
            else:
                num = int(m.group("num"))
                den = int(m.group("den") or 1)
                if den == 0:
                    raise InvalidInput("zero denominator in %r" % part)
                base = Fraction(num, den)
                if base == 0 and exp < 0:
                    raise InvalidInput("zero to a negative power")
                fac = self.from_rational(base ** exp)
            if m.group("neg"):
                fac = -fac
            out = out * fac
        return out

    @staticmethod
    def token_e_requirement(p, text):
        """Minimal multiple of e needed so every tau^k factor is integral."""
        need = 1
        for part in str(text).split("*"):
            m = Tower._FACT_RE.match(part)
            if m and m.group("name") == "tau":
                k = int(m.group("exp")) if m.group("exp") else 1
                need = math.lcm(need, (p - 1) // math.gcd(abs(k) * p, p - 1))
        return need

    # ------------------------------------------------------------------
    # embedding into a bigger tower
    # ------------------------------------------------------------------

    def embed(self, x, big):
        """Map an element into a tower with e | e', f | f'."""
        if big is self:
            return x
        if big.p != self.p or big.e % self.e or big.f % self.f:
            raise InvalidInput("no embedding %r -> %r" % (self, big))
        r = big.e // self.e
        if x.exact is not None:
            q, m = x.exact
            return big.from_exact_pair(q, m * r)
        if x.is_zeroish():
            return El(big, None, None, x.ap * r, None)
        ahat = self._embedded_generator(big)
        out = big.zero()
        for j in range(self.e):
            w = x.U[j]
            coords = [w] if self.f == 1 else list(w)
            term = big.zero()
            for i, c in enumerate(coords):
                if c:
                    piece = big.from_int(c)
                    if i:
                        piece = piece * ahat ** i
                    term = term + piece
            if not term.is_zeroish():
                out = out + term * big.pi_power(r * (x.s + j))
        return El(big, out.s, out.U, min(out.ap, r * x.ap), None)

    def _embedded_generator(self, big):
        key = id(big)
        if key in self._embed_roots:
            return self._embed_roots[key]
        if self.f == 1:
            gen = big.one()
        else:
            emb = self.ff.embedding_into(big.ff)
            root0 = emb(self.ff.encode([0, 1] + [0] * (self.f - 2)))
            mpoly = Poly(big, [big.from_int(c) for c in self.modulus])
            gen = hensel_root(mpoly, root0)
        self._embed_roots[key] = gen
        return gen

    def extended(self, e_mult=1, f_mult=1):
        """A tower with e, f multiplied, carrying equivalent precision."""
        e2 = self.e * e_mult
        return Tower(self.p, e2, self.f * f_mult, prec=(self.nl - 1) * e2)


def _convolve(acc, A, B):
    """acc[j + k] += A[j] B[k] for integer lists."""
    n = len(B)
    for j, a in enumerate(A):
        if a:
            acc[j:j + n] = [c + a * b for c, b in zip(acc[j:j + n], B)]


def _binary_power(base, n):
    """base ** n for n >= 1 by repeated squaring, lowest bit first:
    n.bit_length() - 1 squarings and popcount(n) - 1 products."""
    while not n & 1:
        base = base * base
        n >>= 1
    out = base
    n >>= 1
    while n:
        base = base * base
        if n & 1:
            out = out * base
        n >>= 1
    return out


def _isqrt_exact(n):
    r = math.isqrt(n)
    return r if r * r == n else None


class El:
    """One element of a tower.  Immutable."""

    __slots__ = ("tw", "s", "U", "ap", "exact")

    def __init__(self, tw, s, U, ap, exact):
        self.tw = tw
        self.s = s          # pi-shift; None for (fuzzy or true) zero
        self.U = U          # tuple of e W-coefficients, canonical; None if zero
        self.ap = ap        # absolute precision in pi-units; None = infinite
        self.exact = exact  # optional (Fraction q, int m): value q*pi^m

    # -- state predicates ----------------------------------------------

    def is_true_zero(self):
        return self.exact is not None and self.exact[0] == 0

    def is_zeroish(self):
        """True zero, or indistinguishable from zero at current precision."""
        return self.s is None

    # -- valuation and residue -------------------------------------------

    def valuation(self):
        """Exact rational valuation; INF marker for true zero."""
        if self.is_true_zero():
            return INF
        if self.exact is not None:
            q, m = self.exact
            t = 0
            num, den = q.numerator, q.denominator
            while num % self.tw.p == 0:
                num //= self.tw.p
                t += 1
            while den % self.tw.p == 0:
                den //= self.tw.p
                t -= 1
            return Fraction(m + t * self.tw.e, self.tw.e)
        if self.s is None:
            raise InsufficientPrecision(
                "element is O(pi^%d); valuation undecidable" % self.ap)
        return Fraction(self.s, self.tw.e)

    def pival(self):
        """Valuation in pi-units (integer)."""
        v = self.valuation()
        if v is INF:
            return INF
        return int(v * self.tw.e)

    def residue(self):
        """Image in the residue field (encoding); requires v >= 0."""
        if self.is_true_zero():
            return 0
        if self.s is None:
            if self.ap >= 1:
                return 0
            raise InsufficientPrecision("residue of an O(pi^%d) element" % self.ap)
        if self.s > 0:
            return 0
        if self.s < 0:
            raise NegativeValuation("residue of an element with v < 0")
        u0 = self.U[0]
        if self.tw.f == 1:
            return u0 % self.tw.p
        return self.tw.ff.encode([c % self.tw.p for c in u0])

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, El):
            if other.tw is not self.tw:
                raise InvalidInput("elements of different towers")
            return other
        if isinstance(other, (int, Fraction)):
            return self.tw.from_rational(Fraction(other))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        tw = self.tw
        if self.is_true_zero():
            return other
        if other.is_true_zero():
            return self
        exact = None
        if self.exact is not None and other.exact is not None:
            q1, m1 = self.exact
            q2, m2 = other.exact
            d = m2 - m1
            if d % tw.e == 0:
                exact = (q1 + q2 * Fraction(-tw.p) ** (d // tw.e), m1)
            elif (-d) % tw.e == 0:
                exact = (q2 + q1 * Fraction(-tw.p) ** ((-d) // tw.e), m2)
        if self.s is None or other.s is None:
            if self.s is None and other.s is None:
                ap = min(self.ap, other.ap)
                if exact is not None and exact[0] == 0:
                    return tw.zero()
                return El(tw, None, None, ap, exact)
            known = self if self.s is not None else other
            fuzzy = other if self.s is not None else self
            ap = min(known.ap, fuzzy.ap)
            if known.s >= fuzzy.ap:
                return El(tw, None, None, ap, exact)
            return tw._canon(known.s, known.U, ap, exact)
        s = min(self.s, other.s)
        ap = min(self.ap, other.ap)
        U1 = self.U if self.s == s else tw._shift_up(self.U, self.s - s)
        U2 = other.U if other.s == s else tw._shift_up(other.U, other.s - s)
        if tw.f == 1:
            U = [a + b for a, b in zip(U1, U2)]
        else:
            U = [tuple([x + y for x, y in zip(a, b)]) for a, b in zip(U1, U2)]
        return tw._canon(s, U, ap, exact)

    __radd__ = __add__

    def __neg__(self):
        tw = self.tw
        exact = (-self.exact[0], self.exact[1]) if self.exact is not None else None
        if self.s is None:
            if self.is_true_zero():
                return self
            return El(tw, None, None, self.ap, exact)
        if tw.f == 1:
            U = [-c for c in self.U]
        else:
            U = [tuple([-c for c in w]) for w in self.U]
        return El(tw, self.s, tuple(tw._mask(U, self.ap - self.s)), self.ap, exact)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        tw = self.tw
        if self.is_true_zero() or other.is_true_zero():
            return tw.zero()
        exact = None
        if self.exact is not None and other.exact is not None:
            exact = (self.exact[0] * other.exact[0], self.exact[1] + other.exact[1])
        if self.s is None or other.s is None:
            a1 = self.ap if self.s is None else self.s
            a2 = other.ap if other.s is None else other.s
            return El(tw, None, None, a1 + a2, exact)
        ap = min(self.ap + other.s, other.ap + self.s)
        return tw._canon(self.s + other.s, tw._unit_product(self.U, other.U),
                         ap, exact)

    __rmul__ = __mul__

    def inverse(self):
        tw = self.tw
        if self.is_zeroish():
            raise DivisionByIndistinguishableZero(
                "inverse of zero or O(pi^%s)" % (self.ap,))
        exact = None
        if self.exact is not None:
            exact = (1 / self.exact[0], -self.exact[1])
        # u^-1 is known to the unit's window, min(ap - s, prec) pi-digits
        return tw._canon(-self.s, tw._unit_inverse(self.U),
                         self.ap - 2 * self.s, exact)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return self.tw.one()
        return _binary_power(self, n)

    # -- comparisons -------------------------------------------------------

    def same(self, other):
        """Indistinguishable at the shared precision."""
        other = self._coerce(other)
        return (self - other).is_zeroish()

    def __eq__(self, other):
        try:
            return self.same(other)
        except (InvalidInput, TypeError):
            return NotImplemented

    __hash__ = None

    # -- rendering ----------------------------------------------------------

    def digits(self, count=None):
        """Nonzero digits as (pi-level, residue encoding), lowest first."""
        if self.s is None:
            return []
        window = self.ap - self.s
        return list(self._digits(window if count is None else min(count, window)))

    def _digits(self, levels):
        """Yield the nonzero digits of the lowest ``levels`` pi-levels."""
        tw = self.tw
        for lev in range(levels):
            j, i = lev % tw.e, lev // tw.e
            if tw.f == 1:
                d = (self.U[j] // tw._ppow[i]) % tw.p
            else:
                d = tw.ff.encode([(c // tw._ppow[i]) % tw.p for c in self.U[j]])
            if d:
                yield (self.s + lev, d)

    def __repr__(self):
        return self.str(max_terms=6)

    def str(self, max_terms=8):
        if self.is_true_zero():
            return "0"
        if self.s is None:
            return "O(pi^%d)" % self.ap
        tw = self.tw
        parts = []
        # the digits are extracted lazily: at most max_terms + 1 of them
        for lev, d in self._digits(self.ap - self.s):
            if len(parts) >= max_terms:
                parts.append("...")
                break
            ds = tw.ff.render(d) if tw.f > 1 else str(d)
            if lev == 0:
                parts.append(ds)
            else:
                head = "" if ds == "1" else ds + "*"
                parts.append("%spi^%d" % (head, lev) if lev != 1 else "%spi" % head)
        return " + ".join(parts) + " + O(pi^%d)" % self.ap


# ---------------------------------------------------------------------------
# polynomials over a tower
# ---------------------------------------------------------------------------

class Poly:
    """Polynomial with tower coefficients, index = degree."""

    __slots__ = ("tw", "c")

    def __init__(self, tw, coeffs):
        self.tw = tw
        c = list(coeffs)
        while c and isinstance(c[-1], El) and c[-1].is_true_zero():
            c.pop()
        self.c = [x if isinstance(x, El) else tw.from_rational(Fraction(x))
                  for x in c]
        while self.c and self.c[-1].is_true_zero():
            self.c.pop()

    @classmethod
    def from_ints(cls, tw, ints):
        return cls(tw, [tw.from_int(n) for n in ints])

    @classmethod
    def x_power(cls, tw, n, coeff=None):
        c = [tw.zero()] * n + [coeff if coeff is not None else tw.one()]
        return cls(tw, c)

    @property
    def degree(self):
        return len(self.c) - 1

    def coeff(self, i):
        if 0 <= i < len(self.c):
            return self.c[i]
        return self.tw.zero()

    def __add__(self, other):
        n = max(len(self.c), len(other.c))
        return Poly(self.tw, [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other):
        n = max(len(self.c), len(other.c))
        return Poly(self.tw, [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self):
        return Poly(self.tw, [-x for x in self.c])

    def __mul__(self, other):
        if isinstance(other, El):
            return self.scale(other)
        if not self.c or not other.c:
            return Poly(self.tw, [])
        out = [self.tw.zero()] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if a.is_true_zero():
                continue
            for j, b in enumerate(other.c):
                if not b.is_true_zero():
                    out[i + j] = out[i + j] + a * b
        return Poly(self.tw, out)

    def __pow__(self, n):
        if n < 0:
            raise InvalidInput("negative power of a polynomial")
        if n == 0:
            return Poly(self.tw, [self.tw.one()])
        return _binary_power(self, n)

    def scale(self, el):
        return Poly(self.tw, [x * el for x in self.c])

    def divexact_el(self, el):
        inv = el.inverse()
        return Poly(self.tw, [x * inv for x in self.c])

    def eval(self, x):
        """Horner's rule from the leading coefficient: deg multiplies."""
        if not self.c:
            return self.tw.zero()
        out = self.c[-1]
        for a in reversed(self.c[:-1]):
            out = out * x + a
        return out

    def deriv(self):
        return Poly(self.tw, [self.c[i] * i for i in range(1, len(self.c))])

    def taylor(self, d, b=None):
        """Coefficients of f(d + b t) in t, by synthetic shift.

        The i-th output equals b^i f^(i)(d)/i! with no factorial division,
        so it is exact even when p divides i!.
        """
        n = len(self.c)
        a = list(self.c)
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                a[j] = a[j] + d * a[j + 1]
        if b is not None:
            bp = self.tw.one()
            for i in range(1, n):
                bp = bp * b
                a[i] = a[i] * bp
        return Poly(self.tw, a)

    def reverse(self, n=None):
        """x^n f(1/x); defaults to n = deg f."""
        if n is None:
            n = self.degree
        if n < self.degree:
            raise InvalidInput("reverse length below degree")
        out = [self.tw.zero()] * (n + 1)
        for i, a in enumerate(self.c):
            out[n - i] = a
        return Poly(self.tw, out)

    def gauss_valuation(self):
        """min over coefficient valuations (exact Fraction), INF for 0.

        Raises InsufficientPrecision when a fuzzy coefficient could lie
        below the smallest known valuation.
        """
        best = INF
        bound = INF
        for a in self.c:
            if a.is_true_zero():
                continue
            if a.s is None:
                bound = min(bound, Fraction(a.ap, self.tw.e))
            else:
                best = min(best, a.valuation())
        if best is INF and bound is INF:
            return INF
        if best <= bound:
            return best
        raise InsufficientPrecision(
            "Gauss valuation undecidable: known %s vs O-bound %s" % (best, bound))

    def is_zeroish(self):
        return all(a.is_zeroish() for a in self.c)

    def residue_poly(self):
        """Coefficient residues as an ffield polynomial (list of encodings)."""
        out = [a.residue() for a in self.c]
        while out and out[-1] == 0:
            out.pop()
        return out

    def __repr__(self):
        terms = []
        for i in reversed(range(len(self.c))):
            if not self.c[i].is_true_zero():
                terms.append("(%s)*x^%d" % (self.c[i].str(3), i))
        return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# root lifting
# ---------------------------------------------------------------------------

def hensel_root(P, residue_enc):
    """Lift a simple residue root (P' a unit there) to a root of P.

    This is the tower's one root lifter, and it divides nowhere.  Newton
    steps x <- x - P(x) z start from the lift of the residue root, where
    z approximates 1/P'(x) and starts as the lift of the residue-field
    inverse of P'(x0).  While P(x) can still be told from zero, z is
    refined by its own Newton step z <- z (2 - P'(x) z).  The number of
    correct pi-digits of both x and z doubles per step, so at most
    prec.bit_length() + 2 steps are taken.

    Precision rule: since P'(x) is a unit, the root lies within |P(x)| of
    x, so the result's ap is capped at the ap of the final P(x).  A root
    that is itself indistinguishable from zero is returned unchanged.
    """
    tw = P.tw
    Pd = P.deriv()
    x = tw.lift_ff(residue_enc)
    d = Pd.eval(x)
    if d.is_zeroish() or d.pival() != 0:
        raise ConstructionMismatch("residue root is not simple; Hensel fails")
    fx = P.eval(x)
    if not fx.is_zeroish() and fx.pival() <= 0:
        raise ConstructionMismatch("%r is not a root of the residue polynomial"
                                   % (residue_enc,))
    z = tw.lift_ff(tw.ff.inv(d.residue()))
    two = tw.from_int(2)
    for _ in range(tw.prec.bit_length() + 2):
        if fx.is_zeroish():
            break
        x = x - fx * z
        fx = P.eval(x)
        if not fx.is_zeroish():
            z = z * (two - Pd.eval(x) * z)
    if not fx.is_zeroish():
        raise InsufficientPrecision("Newton lifting did not converge")
    if x.is_zeroish() or fx.is_true_zero() or fx.ap >= x.ap:
        return x
    return tw._canon(x.s, x.U, fx.ap, x.exact)
