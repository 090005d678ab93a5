"""Exact finite-precision arithmetic in ramified towers of the p-adics.

A tower is K = W[pi] where W is the unramified extension of Q_p of
degree f and pi satisfies pi^e = -p.  Valuations are normalized by
v(p) = 1, so v(pi) = 1/e and every valuation is an exact Fraction with
denominator dividing e.

Elements are stored as pi^s * u where u = sum_{j<e} u_j pi^j is a unit
(u_0 is a unit of W) and each u_j is an element of W/p^N.  The unit part
U is one flat tuple of integers, whatever f is: U[j f + i] is the
coordinate of u_j on a^i, where a is the root of a fixed monic lift of
the residue-field modulus.  Slot j is U[j f : (j + 1) f]; at f = 1 it is
the single integer U[j].  U stops at its last nonzero pi-slot: it has
f (k + 1) coordinates, k the last slot holding a nonzero coordinate, so
a W-constant (a unit part in slot 0 alone, such as every token and every
pi-power) is f integers in every mask, sum, negation and product, and
only the operations that need all e slots (a shift that wraps past
pi^e, a dense inverse) pad it.  Reduction uses pi^e = -p, which keeps
every symbolic token (powers of pi, tau, rationals) an exact pure
pi-power times a rational unit.

Elements constructed from rational tokens additionally carry the exact
pair (q, m) with value q * pi^m; arithmetic propagates exactness when
the result is again of that shape, so valuations of token-built data are
decided exactly even when they exceed the digit window.  q is a Python
int exactly when it is an integer, and a reduced Fraction otherwise
(``_exact_q`` is the one place that decides), so products and sums of
integer pairs run as int arithmetic.  The split of a value into q and m
is kept as it was built: the p-part of q is not folded into m, since
``Tower.sqrt`` picks its root from the split and
``normalizer._is_exact_pth_power`` reads it too.

Digit windows are masked by one tuple of e f moduli per window, built
the first time the window is used and kept on the tower; a unit part
takes as many of them as it has coordinates.  The precision is bounded:
p^N, the modulus of every coordinate, may take at most TOKEN_DIGITS
decimal digits, checked before any power is taken.

Products work on the coefficient lists directly, and cost what the
operands' pi-slots cost: the integer convolution runs over the slots
each factor has, pi^e is folded by -p only when the product reaches
slot e, and for f > 1 the modulus lift reduces once per pi-slot.  Two
W-constants multiply as one f x f coordinate product (one integer
product at f = 1).  A unit part of exactly 1 (a pi-power) is a shift:
the product keeps the other factor's unit part and moves only s and ap.
The inverse is an exact solve, not a precision loop: multiplication by
the unit part is an (e f) x (e f) matrix over Z/p^N that is invertible
mod p, and Gaussian elimination with unit pivots gives every coordinate
of the inverse in one pass.  A W-constant maps each pi-slot to itself,
so its matrix is e copies of one f x f block, and the solve runs on that
block alone: at f = 1 it is one modular inverse.

Roots are lifted in one place, ``hensel_root``: Newton steps from a
simple residue root until the polynomial cannot be told from zero.  Square
roots go through it too.  The lifter divides nowhere: it carries an
approximate 1/P'(x), started from a residue-field inverse and refined by
its own Newton step, so no step runs a tower inverse.  The root's
precision is capped at that of the last residual P(x).  When P is
integral (every coefficient pi^s u with s >= 0, a fuzzy zero O(pi^k) with
k >= 1, or 0), its entry checks read the residue polynomial, and for a
nonzero residue root the Newton steps run on O_K/p^k coordinates: each
coefficient is its unit part shifted up by s, and products are
``_unit_product``.  The digits of the root double per step, so k doubles
too, and of the at most ceil(log2(e N)) steps only the last works on
full-width integers mod p^N.  Over W at f = 1 the coordinates are plain
integers.  The root the steps reach enters the element loop, where one
full-precision P(x) certifies it; a coefficient with s < 0 and the
residue root 0 take the element loop from the lift.

Powers start from the base at the lowest set bit of the exponent and
stop after the top bit, so they compute no product by one and no unused
square.
"""

import math
import operator
import re
from fractions import Fraction

from .errors import (
    InsufficientPrecision, NeedsExtension, NegativeValuation,
    DivisionByIndistinguishableZero, InvalidInput, ConstructionMismatch,
    PrecisionTooLarge,
)
from .ffield import FF, binary_power, peval, pderiv

INF = math.inf
_EXACT_ZERO = (0, 0)

# A token's exact pair may take at most this many decimal digits, the
# host's limit on one string-to-int conversion (see _token_int); p^N, the
# modulus of a tower's coordinates, is bounded by it too.
TOKEN_DIGITS = 4300


def make_tower(p, e, f, precision):
    """Build the tower with v(pi) = 1/e and pi^e = -p.

    ``precision`` counts pi-digits carried by elements.  Rejects p that
    is not prime, nonpositive e, f, precision, and a precision whose
    coordinate modulus p^N would pass TOKEN_DIGITS decimal digits.
    """
    return Tower(p, e, f, precision)


class Tower:

    def __init__(self, p, e, f=1, prec=None):
        if not isinstance(e, int) or e < 1:
            raise InvalidInput("ramification index e must be >= 1, got %r" % (e,))
        if not isinstance(f, int) or f < 1:
            raise InvalidInput("residue degree f must be >= 1, got %r" % (f,))
        if prec is None:
            prec = 50 * e
        if not isinstance(prec, int) or prec < 1:
            raise InvalidInput("precision must be a positive integer")
        self.ff = FF(p, f)  # rejects p that is not prime, or too large a field
        self.p = p
        self.e = e
        self.f = f
        self.prec = prec
        self.nl = -(-prec // e) + 2          # p-digit levels per W coefficient
        # p^nl has floor(nl log10 p) + 1 digits; _ppow below holds nl of
        # these powers, so the check comes before any of them is taken
        if self.nl * math.log10(p) >= TOKEN_DIGITS:
            raise PrecisionTooLarge(
                "precision %d needs p^%d, more than %d digits"
                % (prec, self.nl, TOKEN_DIGITS))
        self.pmod = p ** self.nl
        # monic integer lift of the residue modulus, coefficients in [0, p)
        self.modulus = list(self.ff.modulus)
        self._ppow = [p ** k for k in range(self.nl + 1)]
        self._moduli = {}   # window -> the e f moduli of _mask, filled lazily
        # the stored form of 1, canonicalized once; one() wraps it in a
        # new El, since an El kept here would tie the tower into a
        # reference cycle that only the cyclic collector frees
        one = self.from_exact_pair(1, 0)
        self._one = (one.s, one.U, one.ap, one.exact)

    def __repr__(self):
        return "Tower(p=%d, e=%d, f=%d, prec=%d)" % (self.p, self.e, self.f, self.prec)

    # ------------------------------------------------------------------
    # unit parts: f (k + 1) integers up to the last nonzero slot k, U[j f + i]
    # the coordinate of u_j on a^i, each in W/p^nl; raw results may hold
    # any integers, and any whole number of slots up to e, until _canon
    # ------------------------------------------------------------------

    def _mask(self, U, window):
        """Reduce each u_j to the p-digits that lie below pi^window."""
        mods = self._moduli.get(window)
        if mods is None:
            mods = self._window_moduli(window)
        return [c % m for c, m in zip(U, mods)]

    def _window_moduli(self, window):
        """The e f moduli that ``_mask`` reduces by, cached per window.

        u_j pi^j has its p-digit i at pi^(j + e i), so u_j keeps
        ceil((window - j)/e) digits: q + 1 for j < r and q for j >= r,
        where window = q e + r.
        """
        q, r = divmod(window, self.e)
        hi = self._ppow[min(q + 1, self.nl)]
        lo = self._ppow[min(q, self.nl)]
        mods = (hi,) * (r * self.f) + (lo,) * ((self.e - r) * self.f)
        self._moduli[window] = mods
        return mods

    def _shift_down(self, U, m):
        """Divide sum u_j pi^j by pi^m (exact; requires v_pi >= m)."""
        q, r = divmod(m, self.e)
        d = (-self.p) ** q
        if not r:
            return [c // d for c in U]
        # pi^(j - m) = pi^(j - r)/(-p)^q, or pi^(j - r + e)/(-p)^(q + 1) if
        # j < r: slots below r wrap to the top, so U takes all e slots
        full = self.e * self.f
        if len(U) < full:
            U = list(U) + [0] * (full - len(U))
        k = r * self.f
        d1 = -d * self.p
        return [c // d for c in U[k:]] + [c // d1 for c in U[:k]]

    def _shift_up(self, U, m):
        """Multiply sum u_j pi^j by pi^m (m >= 0)."""
        q, r = divmod(m, self.e)
        k = (self.e - r) * self.f
        # pi^(j + m) = (-p)^q pi^(j + r), or (-p)^(q + 1) pi^(j + r - e) if j >= e - r
        d = (-self.p) ** q
        if len(U) <= k:   # no slot wraps past pi^e
            return [0] * (r * self.f) + [c * d for c in U]
        d1 = -d * self.p
        return ([c * d1 for c in U[k:]] + [0] * (self.e * self.f - len(U))
                + [c * d for c in U[:k]])

    def _unit_product(self, A, B):
        """Unit part of the product of the unit parts A and B, folded by
        pi^e = -p.

        The cost follows the pi-slots the factors have: each is convolved
        over its own slots, and pi^e is folded only when the product
        reaches slot e.  Two W-constants (slot 0 alone) multiply as one
        f x f coordinate product.  For f > 1 the coordinates are reduced
        by the modulus lift once per pi-slot of the product, not once per
        coefficient product.
        """
        p, e, f = self.p, self.e, self.f
        n = (len(A) + len(B)) // f - 1   # pi-slots of the product before the fold
        if f == 1:
            if n == 1:   # two W-constants: one integer product
                return [A[0] * B[0]]
            conv = [0] * n
            _convolve(conv, A, B)
            return _fold(conv, n, e, p)
        if n == 1:
            return self._w_product(A, B)
        # one convolution per pair of coordinate planes: a^i A_i times a^l B_l,
        # where plane i of a unit part is its coordinates on a^i, A[i::f]
        planes = [[0] * n for _ in range(2 * f - 1)]
        Bt = [B[l::f] for l in range(f)]
        for i in range(f):
            Ai = A[i::f]
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
        out = [0] * (min(n, e) * f)
        for i, P in enumerate(planes[:f]):
            out[i::f] = _fold(P, n, e, p)
        return out

    def _w_product(self, A, B):
        """The f coordinates of the product of the W elements with
        coordinates A and B: one convolution, then a^k for k >= f reduced
        by the modulus lift, top first.  The low coordinates are left
        unreduced, as in the planes of ``_unit_product``."""
        f = self.f
        conv = [0] * (2 * f - 1)
        for i, a in enumerate(A):
            if a:
                for l, b in enumerate(B, i):
                    conv[l] += a * b
        pm = self.pmod
        for k in range(2 * f - 2, f - 1, -1):
            top = conv[k] % pm
            for i, m in enumerate(self.modulus[:f]):
                if m:
                    conv[k - f + i] -= m * top
        return conv[:f]

    def _unit_inverse(self, U):
        """Unit part of 1/u for the unit u with unit part U, exact in W/p^nl.

        Multiplication by u is an (e f) x (e f) matrix over Z/p^nl in the
        basis a^i pi^j (a the root of the modulus lift, pi^e = -p).  It is
        invertible mod p because u is a unit, so Gaussian elimination with
        a unit pivot in every column solves u z = 1 exactly.  When u is a
        W-constant (U is f coordinates) the matrix is e copies of the f x f
        block of u_0, and 1/u is the W-constant that solves that block: the
        same elimination runs with e = 1.  Any other U is padded to e slots.
        """
        p, e, f, pm = self.p, self.e, self.f, self.pmod
        if len(U) == f:
            e = 1
        elif len(U) < e * f:
            U = list(U) + [0] * (e * f - len(U))
        n = e * f
        # ua[l]: the coordinates of u_j a^l, slot j at ua[l][j f : (j + 1) f]
        ua = [U]
        for _ in range(f - 1):
            prev = ua[-1]
            ua.append([c - prev[j + f - 1] * m for j in range(0, n, f)
                       for c, m in zip([0, *prev[j:j + f - 1]], self.modulus)])
        # Row (t, i) lists the coordinate on a^i pi^t of u a^l pi^k over k < e,
        # l < f: that of u_(t-k) a^l for k <= t, of -p u_(t-k+e) a^l above.
        # cols[i] holds coordinate i of u_j a^l at j f + f - 1 - l, so the
        # row is cols[i] read backwards from s = t f + f - 1, then the rest
        # of it backwards times -p.
        cols = []
        for i in range(f):
            col = [0] * n
            for l, v in enumerate(ua):
                col[f - 1 - l::f] = v[i::f]
            cols.append(col)
        rows = [col[s::-1] + [-p * c for c in col[:s:-1]]
                for s in range(f - 1, n, f) for col in cols]
        for row in rows:
            row.append(0)
        rows[0][-1] = 1  # the right-hand side: the coordinates of 1
        # Each step takes a unit pivot for the leading column, clears that
        # column from the other rows and drops it; pivots[c] keeps row c of
        # the resulting unit upper triangular system, without its diagonal.
        pivots = []
        for _ in range(n):
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
        return z

    # ------------------------------------------------------------------
    # element constructors
    # ------------------------------------------------------------------

    def _canon(self, s, U, ap, exact):
        """Canonicalize a raw pi^s * u, u with unit part U, to digit window ap."""
        ap = min(ap, s + self.prec)
        window = ap - s
        p, e, f = self.p, self.e, self.f
        if window > 0:
            U = self._mask(U, window)
            # u_0 is a unit unless p divides all of its coordinates
            if (U[0] if f == 1 else math.gcd(*U[:f])) % p:
                # a dense U skips the call: this is every product's and sum's path
                return El(self, s, tuple(U) if U[-1] else _trimmed(U, f), ap, exact)
            # pi-valuation: a coordinate p^v * unit of u_j sits at pi^(j + e v)
            vpi = INF
            for k, c in enumerate(U):
                if c:
                    v = k // f
                    while c % p == 0:
                        c //= p
                        v += e
                    vpi = min(vpi, v)
        else:
            vpi = INF
        if vpi >= window:
            if exact is not None:
                if exact[0] == 0:
                    return El(self, None, None, None, _EXACT_ZERO)
                # the value is known exactly but lies below the digit
                # window: re-expand from the exact form instead of
                # degrading to an indistinguishable zero
                return self.from_exact_pair(*exact)
            return El(self, None, None, ap, None)
        U = self._mask(self._shift_down(U, vpi), window - vpi)
        return El(self, s + vpi, _trimmed(U, f), ap, exact)

    def zero(self):
        return El(self, None, None, None, _EXACT_ZERO)

    def one(self):
        return El(self, *self._one)

    def from_int(self, n):
        return self.from_exact_pair(n, 0)

    def from_rational(self, q):
        """Embed a rational; exactness flag set for lossless re-expansion."""
        return self.from_exact_pair(q, 0)

    def from_exact_pair(self, q, m):
        """The element q * pi^m for a rational q."""
        q = _exact_q(q)
        if q == 0:
            return self.zero()
        t = _vp(q, self.p)
        # q*pi^m = (-1)^t * (num/den) * pi^(m + t e), where num/den = q/p^t
        num = q.numerator // self.p ** max(t, 0)
        den = q.denominator // self.p ** max(-t, 0)
        s = m + t * self.e
        sign = -1 if t % 2 else 1
        unit = sign * num * pow(den, -1, self.pmod) % self.pmod
        return self._canon(s, [unit] + [0] * (self.f - 1), s + self.prec, (q, m))

    def pi_power(self, m):
        return self.from_exact_pair(1, m)

    def pi(self):
        return self.pi_power(1)

    def tau(self, k=1):
        """tau^k = (-p)^(kp/(p-1)), a pure pi-power when (p-1) | e."""
        return self.pi_power(self._tau_exponent(k))

    def _tau_exponent(self, k):
        """The m with tau^k = pi^m; NeedsExtension unless (p-1) | k e p."""
        p, e = self.p, self.e
        if (k * e * p) % (p - 1):
            need = (p - 1) // math.gcd(k * p, p - 1)
            raise NeedsExtension(
                "tau^%d needs (p-1) | %d*e; enlarge e by a factor of %d"
                % (k, k, need), e=self.e * need)
        return k * e * p // (p - 1)

    def tau_valuation(self):
        return Fraction(self.p, self.p - 1)

    def lift_ff(self, enc):
        """Lift a residue-field element to a unit digit (level 0)."""
        if enc == 0:
            return self.zero()
        return self._canon(0, self.ff.coords(enc), self.prec, None)

    def sqrt(self, x):
        """Square root; NeedsExtension when the value group or residue
        field is too small.

        Branch: when x carries an exact pair (q, m) with m even and q > 0
        the square of a rational, the root is the positive root of q times
        pi^(m/2), and it carries that pair.  The branch follows the split of
        the pair, not the value: at p = 5, e = 4 the tokens 25 and pi^8 are
        equal, and their roots are (5, 0) and (1, 4), that is 5 and -5.
        Every other x = pi^s u gets pi^(s/2) times the Hensel lift of the
        least-encoded square root of the residue of u.  Downstream
        constructions are branch-independent.
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
                                 e=2 * self.e)
        exact = None
        if x.exact is not None:
            q, m = x.exact
            if m % 2 == 0 and q > 0:
                rn = _isqrt_exact(q.numerator)
                rd = _isqrt_exact(q.denominator)
                if rn is not None and rd is not None:
                    exact = (_exact_q(Fraction(rn, rd)), m // 2)
        u = x * self.pi_power(-s)
        rr = self.ff.sqrt(u.residue())
        if rr is None:
            raise NeedsExtension("sqrt needs a quadratic residue extension",
                                 f=2 * self.f)
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
        """Parse a symbolic token: products of a/b, n^k, pi^k, tau^k.

        The token becomes one exact pair (q, m) with value q * pi^m.  Its
        size, the decimal digits of q's numerator and denominator and of
        p^(|m|/e), must stay within TOKEN_DIGITS; that is checked before
        any power is taken.
        """
        if not isinstance(text, str) or not text.strip():
            raise InvalidInput("empty token")
        sign, m, powers = 1, 0, []
        for part in text.split("*"):
            g = self._FACT_RE.match(part)
            if not g:
                raise InvalidInput("bad token factor %r" % part)
            exp = _token_int(g.group("exp") or "1")
            if g.group("name") == "pi":
                m += exp
            elif g.group("name") == "tau":
                m += self._tau_exponent(exp)
            else:
                num = _token_int(g.group("num"))
                den = _token_int(g.group("den") or "1")
                if den == 0:
                    raise InvalidInput("zero denominator in %r" % part)
                if num == 0 and exp < 0:
                    raise InvalidInput("zero to a negative power")
                powers.append((Fraction(num, den), exp))
            if g.group("neg"):
                sign = -sign
        room = float(TOKEN_DIGITS)
        sizes = [(m, math.log10(self.p) / self.e)]
        sizes += [(exp, math.log10(max(b.numerator, 1) * b.denominator))
                  for b, exp in powers]
        for n, digits in sizes:
            # compared as int against float, so a huge n cannot overflow
            if digits and abs(n) > room / digits:
                raise InvalidInput("token is larger than %d digits"
                                   % TOKEN_DIGITS)
            room -= abs(n) * digits
        q = Fraction(sign)
        for b, exp in powers:
            q *= b ** exp
        return self.from_exact_pair(q, m)

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
        f = self.f
        out = big.zero()
        for j in range(len(x.U) // f):
            term = big.zero()
            for i, c in enumerate(x.U[j * f:(j + 1) * f]):
                if c:
                    piece = big.from_int(c)
                    if i:
                        piece = piece * ahat ** i
                    term = term + piece
            if not term.is_zeroish():
                out = out + term * big.pi_power(r * (x.s + j))
        return big._canon(out.s, out.U, min(out.ap, r * x.ap), None)

    def _embedded_generator(self, big):
        if self.f == 1:
            return big.one()
        emb = self.ff.embedding_into(big.ff)
        root0 = emb(self.ff.encode([0, 1] + [0] * (self.f - 2)))
        mpoly = Poly(big, [big.from_int(c) for c in self.modulus])
        return hensel_root(mpoly, root0)

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


def _trimmed(U, f):
    """The masked unit part U as a tuple that stops at its last nonzero
    pi-slot; slot 0 of a unit is never zero.  A U whose last coordinate
    is nonzero, as a dense one, is kept whole without a scan, and one
    whose last slot is nonzero without a slice."""
    if U[-1]:
        return tuple(U)
    n = len(U)
    while not any(U[n - f:n]):
        n -= f
    return tuple(U[:n] if n < len(U) else U)


def _fold(conv, n, e, p):
    """A product plane of n slots with pi^(e + k) folded onto pi^k as -p;
    a plane that stops short of slot e is left as it is."""
    if n <= e:
        return conv
    return [c - p * h for c, h in zip(conv, conv[e:])] + conv[n - e:e]


def _times_int(c, i):
    """c * i for an int i > 0 without building an element for i.

    i = p^t i' with i' a unit is (-1)^t pi^(t e) i', so s and ap move by
    t e and the unit part is scaled by (-1)^t i' within its window ap - s,
    which every element keeps at most prec.
    """
    if c.s is None:   # the true zero is its own product; O(pi^ap) takes c * i
        return c if c.ap is None else c * i
    t = _vp(i, c.tw.p)
    u = (-1) ** t * i // c.tw.p ** t
    U = c.tw._mask([u * x for x in c.U], c.ap - c.s)
    return El(c.tw, c.s + t * c.tw.e, tuple(U), c.ap + t * c.tw.e,
              None if c.exact is None else (_exact_q(c.exact[0] * i), c.exact[1]))


def _exact_q(q):
    """The q of an exact pair: an int when q is an integer, otherwise a
    reduced Fraction.  Every producer of an exact pair passes q through
    here, so int arithmetic carries every integer pair."""
    if q.__class__ is int:
        return q
    if q.__class__ is not Fraction:
        q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def _vp(q, p):
    """The p-adic valuation of the nonzero rational q."""
    t = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        t += 1
    while den % p == 0:
        den //= p
        t -= 1
    return t


def _token_int(digits):
    """A token's digit group as an int.  A group longer than the host's
    limit on string-to-int conversion is an InvalidInput."""
    try:
        return int(digits)
    except ValueError:
        raise InvalidInput("digit group of %d digits is too long"
                           % len(digits)) from None


def _isqrt_exact(n):
    r = math.isqrt(n)
    return r if r * r == n else None


class El:
    """One element of a tower.  Immutable.

    Only the true zero has no precision bound: ap is None exactly when the
    value is 0, and every other element, a fuzzy zero O(pi^ap) included,
    carries an integer ap.
    """

    __slots__ = ("tw", "s", "U", "ap", "exact")

    def __init__(self, tw, s, U, ap, exact):
        self.tw = tw
        self.s = s          # pi-shift; None for (fuzzy or true) zero
        self.U = U          # unit part: f ints per pi-slot up to the last nonzero
                            # one, U[j f + i] on a^i pi^j; None if zero
        self.ap = ap        # absolute precision in pi-units; None = infinite
        self.exact = exact  # optional (q, int m): value q*pi^m, q an int when integral,
                            # else a non-integer Fraction

    # -- state predicates ----------------------------------------------

    def is_true_zero(self):
        return self.ap is None

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
            return Fraction(m + _vp(q, self.tw.p) * self.tw.e, self.tw.e)
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
        return self.tw.ff.encode(self.U[:self.tw.f])

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, El):
            if other.tw is not self.tw:
                raise InvalidInput("elements of different towers")
            return other
        if isinstance(other, (int, Fraction)):
            return self.tw.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        if other.__class__ is not El or other.tw is not self.tw:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        tw = self.tw
        if self.ap is None:
            return other
        if other.ap is None:
            return self
        exact = None
        if self.exact is not None and other.exact is not None:
            q1, m1 = self.exact
            q2, m2 = other.exact
            k, r = divmod(m2 - m1, tw.e)
            if not r:
                # q2 pi^(m2 - m1) = q2 (-p)^k, which divides when k < 0
                w = q2 * (-tw.p) ** k if k >= 0 else Fraction(q2, (-tw.p) ** -k)
                exact = (_exact_q(q1 + w), m1)
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
        if len(U1) < len(U2):
            U1, U2 = U2, U1
        U = [a + b for a, b in zip(U1, U2)]
        if len(U) < len(U1):   # the longer part's top slots pass unchanged
            U += U1[len(U):]
        return tw._canon(s, U, ap, exact)

    __radd__ = __add__

    def __neg__(self):
        tw = self.tw
        exact = None
        if self.exact is not None:
            exact = (_exact_q(-self.exact[0]), self.exact[1])
        if self.s is None:
            if self.is_true_zero():
                return self
            return El(tw, None, None, self.ap, exact)
        U = tw._mask([-c for c in self.U], self.ap - self.s)
        return El(tw, self.s, tuple(U), self.ap, exact)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not El or other.tw is not self.tw:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        tw = self.tw
        if self.ap is None or other.ap is None:
            return tw.zero()
        exact = None
        if self.exact is not None and other.exact is not None:
            exact = (_exact_q(self.exact[0] * other.exact[0]),
                     self.exact[1] + other.exact[1])
        if self.s is None or other.s is None:
            a1 = self.ap if self.s is None else self.s
            a2 = other.ap if other.s is None else other.s
            return El(tw, None, None, a1 + a2, exact)
        s = self.s + other.s
        ap = min(self.ap + other.s, other.ap + self.s)
        one = tw._one[1]
        if self.U == one or other.U == one:
            # a unit part of 1 is a pi-power: the product is the other
            # factor shifted, masked only where the window ap - s shrank
            # (it stays >= 1, so u_0 stays a unit and no _canon is needed)
            x = other if self.U == one else self
            U = x.U
            if ap - s < x.ap - x.s:
                U = _trimmed(tw._mask(U, ap - s), tw.f)
            return El(tw, s, U, ap, exact)
        return tw._canon(s, tw._unit_product(self.U, other.U), ap, exact)

    __rmul__ = __mul__

    def inverse(self):
        tw = self.tw
        if self.is_zeroish():
            raise DivisionByIndistinguishableZero(
                "inverse of zero or O(pi^%s)" % (self.ap,))
        exact = None
        if self.exact is not None:
            exact = (_exact_q(Fraction(1, self.exact[0])), -self.exact[1])
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
        return binary_power(self, n, operator.mul)

    # -- comparisons -------------------------------------------------------

    def same(self, other):
        """Indistinguishable at the shared precision."""
        coerced = self._coerce(other)
        if coerced is NotImplemented:
            raise InvalidInput("cannot compare an element with %r" % (other,))
        return (self - coerced).is_zeroish()

    def __eq__(self, other):
        try:
            return self.same(other)
        except InvalidInput:
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
        f = tw.f
        n = len(self.U)
        for lev in range(levels):
            j, i = lev % tw.e, lev // tw.e
            if j * f >= n:   # above the last nonzero slot
                continue
            if f == 1:
                d = (self.U[j] // tw._ppow[i]) % tw.p
            else:
                d = tw.ff.encode([c // tw._ppow[i] for c in self.U[j * f:(j + 1) * f]])
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
            ds = tw.ff.render(d)
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
        self.c = [x if isinstance(x, El) else tw.from_rational(x) for x in coeffs]
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
        return binary_power(self, n, operator.mul)

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
        return Poly(self.tw, [_times_int(c, i) for i, c in enumerate(self.c[1:], 1)])

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

    When P is integral (every coefficient the true zero, O(pi^ap) with
    ap >= 1, or pi^s u with s >= 0, dense or in W alike), the entry checks
    read P'(r) and P(r) from the residue polynomial, with the errors the
    element checks raise, and for a nonzero residue root the Newton steps
    run first on O_K/p^k coordinates (``_newton``).  There k follows the
    digits of the root: the step that makes it right to d pi-digits works
    mod p^ceil(d/e), d runs through ceil(e nl / 2^j) upwards, and so at
    most ceil(log2(e nl)) steps are taken, only the last at full width.
    The loop below starts from the root they reach: its first P(x) is then
    indistinguishable from zero and certifies the root, with the same cap
    and the same errors as the loop from the lift.  A lift that is a root
    mod p^nl is never moved by those steps.  Any other P (a coefficient with
    s < 0 or a fuzzy zero below pi^1) checks on elements, and it and the
    residue root 0 run the loop from the lift.
    """
    tw = P.tw
    ff = tw.ff
    Pd = None   # P', derived when an element step needs it
    coeffs = _coordinates(P)
    if coeffs is not None:
        rbar = P.residue_poly()
        dbar = peval(ff, pderiv(ff, rbar), residue_enc)
        if not dbar:
            raise ConstructionMismatch("residue root is not simple; Hensel fails")
        if peval(ff, rbar, residue_enc):
            raise ConstructionMismatch("%r is not a root of the residue polynomial"
                                       % (residue_enc,))
    else:
        Pd = P.deriv()
        d = Pd.eval(tw.lift_ff(residue_enc))
        if d.is_zeroish() or d.pival() != 0:
            raise ConstructionMismatch("residue root is not simple; Hensel fails")
        dbar = d.residue()
    zbar = ff.inv(dbar)
    if coeffs is not None and residue_enc:
        x, z = _newton(tw, coeffs, ff.coords(residue_enc), ff.coords(zbar))
    else:
        x, z = tw.lift_ff(residue_enc), tw.lift_ff(zbar)
    fx = P.eval(x)
    if coeffs is None and not fx.is_zeroish() and fx.pival() <= 0:
        raise ConstructionMismatch("%r is not a root of the residue polynomial"
                                   % (residue_enc,))
    two = tw.from_int(2)
    for _ in range(tw.prec.bit_length() + 2):
        if fx.is_zeroish():
            break
        x = x - fx * z
        fx = P.eval(x)
        if not fx.is_zeroish():
            if Pd is None:
                Pd = P.deriv()
            z = z * (two - Pd.eval(x) * z)
    if not fx.is_zeroish():
        raise InsufficientPrecision("Newton lifting did not converge")
    if x.is_zeroish() or fx.is_true_zero() or fx.ap >= x.ap:
        return x
    return tw._canon(x.s, x.U, fx.ap, x.exact)


def _coordinates(P):
    """The coefficients of P as unit parts in O_K/p^nl, ready for
    ``Tower._unit_product``, or None unless P is integral: pi^s u with
    s >= 0 has the coordinates of u shifted up by s, and the true zero
    and O(pi^ap) with ap >= 1 have those of 0."""
    tw = P.tw
    out = []
    for c in P.c:
        if c.s is None:
            if c.ap is not None and c.ap < 1:
                return None
            out.append([0] * tw.f)
        elif c.s < 0:
            return None
        else:
            out.append([u % tw.pmod for u in tw._shift_up(c.U, c.s)])
    return out


def _newton(tw, coeffs, x, z):
    """The Newton steps of ``hensel_root`` on O_K/p^k coordinates: x, the
    lift of a nonzero residue root, and z, that of 1/P'(x), are refined
    until P(x) = 0 mod p^nl.  Returns both as elements at full precision.

    x and z start right to one pi-digit (e of them when P lies over W, as
    its root then does), and each step doubles that.  The steps make them
    right to ceil(e nl / 2^j) pi-digits for j down to 0, at most
    ceil(log2(e nl)) steps, and the step that reaches d digits works on
    the coordinates below pi^d: mod p^ceil(d / e), and on the first d
    pi-slots while d < e.  So only the last step pays for full-width
    integers, and the one before it for half of them.  Over W at f = 1
    every coordinate list is one integer, and the steps run on plain ints.
    """
    e, f = tw.e, tw.f
    derivs = [[a * i for a in c] for i, c in enumerate(coeffs[1:], 1)]
    one = [1] + [0] * (f - 1)
    mul, add, neg = tw._unit_product, _sum_mod, _negated
    known = 1
    if all(len(c) == f for c in coeffs):
        # over W the root lies in W, so the lift is right mod p: e pi-digits
        known = e
        if f == 1:
            coeffs, derivs = [c for c, in coeffs], [c for c, in derivs]
            (x,), (z,), one = x, z, 1
            mul, add, neg = operator.mul, _int_sum_mod, operator.neg

    def value(cs, x, m, n):
        out = cs[-1]
        for c in reversed(cs[:-1]):
            out = add(mul(out, x), c, m, n)
        return out

    targets = []
    digits = e * tw.nl
    while digits > known:
        targets.append(digits)
        digits = -(-digits // 2)
    for digits in reversed(targets):
        m, n = tw._ppow[-(-digits // e)], min(digits, e) * f
        x = add(x, neg(mul(value(coeffs, x, m, n), z)), m, n)
        if digits < targets[0]:   # the last step needs no better z
            t = mul(value(derivs, x, m, n), z)   # P'(x) z, 1 mod pi^(digits/2)
            z = add(z, mul(z, add(one, neg(t), m, n)), m, n)
    if isinstance(x, int):
        x, z = [x], [z]
    return tw._canon(0, x, tw.prec, None), tw._canon(0, z, tw.prec, None)


def _sum_mod(A, B, m, n):
    """The first n coordinates of A + B, reduced mod m; the shorter of A
    and B is padded with zeros."""
    if len(A) < len(B):
        A, B = B, A
    A = A[:n]
    return [(a + b) % m for a, b in zip(A, B)] + [a % m for a in A[len(B):]]


def _int_sum_mod(a, b, m, n):
    """``_sum_mod`` for one coordinate held as a plain int."""
    return (a + b) % m


def _negated(A):
    return [-c for c in A]
