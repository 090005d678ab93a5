"""Function-field algebra over the residue field in characteristic p.

Covers T^p - T + u = 0 are handled through the reduced representative of
u modulo p-th-power-minus-itself adjustments: every pole order of the
reduced form is prime to p and additive constants are declared trivial
(the residue field emulates its algebraic closure; constants always lie
in the image of w -> w^p - w over the closure).  The reduction factors
u's denominator once: subtracting w^p - w for a w whose only pole is the
place P changes u only at P, so each place's pole order is lowered in
place (Stichtenoth, *Algebraic Function Fields and Codes*, Lemma 3.7.7).
That one factorization also gives the pole profile of the reduced u,
from which ``ASCurve`` reads the genus and the p-rank.

Purely inseparable covers T^p = t(x) of the line are rational curves:
k(x, t^(1/p)) embeds in k(x^(1/p)) which is rational, and the degrees
match, so their geometric genus is 0.
"""

from .errors import NotReduced, InvalidInput, ConstructionMismatch
from .ffield import (
    padd, psub, pneg, pmul, pdivmod, pmod, pgcd, peval, ppow, pfactor,
    pnormalize, pdeg, prender, pscale, p_is_pth_power as is_pth_power, shown,
)


class RatFunc:
    """Rational function over F_q in lowest terms with monic denominator."""

    __slots__ = ("ff", "num", "den")

    def __init__(self, ff, num, den=None):
        if den is None:
            den = [1]
        num = pnormalize(list(num))
        den = pnormalize(list(den))
        if not den:
            raise InvalidInput("rational function with a zero denominator")
        if not num:
            den = [1]
        g = pgcd(ff, num, den) if num else [1]
        if pdeg(g) > 0:
            if any(g[:-1]):
                num = pdivmod(ff, num, g)[0]
                den = pdivmod(ff, den, g)[0]
            else:   # the monic g is x^k: dividing drops k zero coefficients
                k = len(g) - 1
                num, den = num[k:], den[k:]
        if den[-1] != 1:
            c = ff.inv(den[-1])
            num = pscale(ff, c, num)
            den = pscale(ff, c, den)
        self.ff = ff
        self.num = num
        self.den = den

    def is_zero(self):
        return not self.num

    def is_poly(self):
        return pdeg(self.den) == 0

    def __eq__(self, other):
        return (isinstance(other, RatFunc) and self.ff is other.ff
                and self.num == other.num and self.den == other.den)

    __hash__ = None

    def __add__(self, other):
        other = self._coerce(other)
        num = padd(self.ff, pmul(self.ff, self.num, other.den),
                   pmul(self.ff, other.num, self.den))
        return RatFunc(self.ff, num, pmul(self.ff, self.den, other.den))

    def __neg__(self):
        return RatFunc(self.ff, pneg(self.ff, self.num), self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        return RatFunc(self.ff, pmul(self.ff, self.num, other.num),
                       pmul(self.ff, self.den, other.den))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise InvalidInput("division by the zero rational function")
        return RatFunc(self.ff, pmul(self.ff, self.num, other.den),
                       pmul(self.ff, self.den, other.num))

    def __pow__(self, n):
        if n < 0:
            return (RatFunc(self.ff, self.den, self.num)) ** (-n)
        return RatFunc(self.ff, ppow(self.ff, self.num, n),
                       ppow(self.ff, self.den, n))

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, list):
            return RatFunc(self.ff, other)
        if isinstance(other, int):
            return RatFunc(self.ff, [other % self.ff.p])
        raise InvalidInput("cannot coerce %s" % shown(other))

    def frobenius_shift(self):
        """self^p - self."""
        return self ** self.ff.p - self

    def eval(self, x):
        d = peval(self.ff, self.den, x)
        if d == 0:
            raise InvalidInput("evaluation at a pole")
        return self.ff.div(peval(self.ff, self.num, x), d)

    def render(self):
        n = prender(self.ff, self.num)
        if self.is_poly():
            return n
        return "(%s)/(%s)" % (n, prender(self.ff, self.den))

    def __repr__(self):
        return self.render()


INF_PLACE = "inf"


class ASReduction:
    """Result of as_reduce: u = reduced + (witness^p - witness) + constant.

    ``profile`` lists the poles of ``reduced`` as (place, order, degree):
    places are monic irreducible polynomials (coefficient tuples) in the
    order of ``pfactor``, then the marker "inf"; degree is the residue
    degree of the place.
    """

    __slots__ = ("reduced", "witness", "constant", "profile")

    def __init__(self, reduced, witness, constant, profile):
        self.reduced = reduced
        self.witness = witness
        self.constant = constant
        self.profile = profile


def as_reduce(u):
    """Artin-Schreier reduction of u in k(x).

    Returns an ASReduction whose ``reduced`` part has every pole order
    prime to p and no constant term.  The dropped constant is separately
    reported; over the algebraic closure it is always of the form
    w^p - w, so the reduced class of u is u - ℘(witness) - constant.

    The denominator is factored once.  At a finite place P with pole
    order kp, let A be the leading coefficient (u P^(kp)) mod P and B its
    p-th root in F_q[x]/(P); w = B/P^k has its only pole at P and
    vanishes at infinity, so u - ℘(w) has the same principal parts at
    every other place, the same polynomial part, and a lower pole order
    at P.  Each place is therefore finished in turn, its new order read
    off the degree of the new denominator, whose part prime to P is
    unchanged.  The final orders, with the degree of the reduced
    polynomial part at infinity, are the pole profile of the reduced
    part: the one factorization serves both.
    """
    ff = u.ff
    p = ff.p
    witness = RatFunc(ff, [])
    cur = u
    profile = []
    for P, order in pfactor(ff, u.den):
        # F_q[x]/(P) has n = q^deg(P) elements: 1/a = a^(n-2) and the
        # p-th root of a is a^(n/p)
        n = ff.q ** pdeg(P)
        rest = pdivmod(ff, cur.den, ppow(ff, P, order))[0]
        while order and order % p == 0:
            A = pmod(ff, pmul(ff, cur.num, ppow(ff, rest, n - 2, P)), P)
            w = RatFunc(ff, ppow(ff, A, n // p, P), ppow(ff, P, order // p))
            cur = cur - w.frobenius_shift()
            witness = witness + w
            order = (pdeg(cur.den) - pdeg(rest)) // pdeg(P)
        if order:
            profile.append((tuple(P), order, pdeg(P)))
    # polynomial part: lower a degree divisible by p, drop the constant
    poly_part, rem_num = pdivmod(ff, cur.num, cur.den)
    while pdeg(poly_part) > 0 and pdeg(poly_part) % p == 0:
        w = [0] * (pdeg(poly_part) // p) + [ff.pth_root(poly_part[-1])]
        poly_part = psub(ff, poly_part, psub(ff, ppow(ff, w, p), w))
        witness = witness + RatFunc(ff, w)
    constant = poly_part[0] if poly_part else 0
    if pdeg(poly_part) > 0:
        profile.append((INF_PLACE, pdeg(poly_part), 1))
    reduced = RatFunc(ff, rem_num, cur.den) + RatFunc(ff, [0] + poly_part[1:])
    return ASReduction(reduced, witness, constant, profile)


def as_irreducible(u):
    """Is T^p - T + u = 0 irreducible over k(x)?  True iff u reduces to
    something nonzero (constants count as trivial over the closure)."""
    return not as_reduce(u).reduced.is_zero()


class ASCurve:
    """The curve T^p - T + u = 0, built from the reduction ``red`` of u:
    NotReduced if u reduces to zero (the cover splits) or a pole order
    of ``red.profile`` is divisible by p."""

    __slots__ = ("ff", "u", "profile")

    def __init__(self, red):
        self.u = red.reduced
        self.ff = self.u.ff
        if self.u.is_zero():
            raise NotReduced("u reduces to zero; the cover is split")
        self.profile = red.profile
        for place, order, _ in self.profile:
            if order % self.ff.p == 0:
                raise NotReduced("pole order divisible by p at %r" % (place,))

    @property
    def p(self):
        return self.ff.p

    def genus(self):
        return as_genus(self)

    def branch_count(self):
        """Number of geometric branch points (poles, counted with degree)."""
        return sum(deg for _, _, deg in self.profile)

    def p_rank(self):
        return p_rank_DS(self.ff.p, self.branch_count())

    def render(self):
        return "T^%d - T + %s = 0" % (self.ff.p, self.u.render())

    def __repr__(self):
        return self.render()


class InsepCurve:
    """The purely inseparable cover T^p = t(x), t not a p-th power."""

    __slots__ = ("ff", "t")

    def __init__(self, ff, t):
        t = pnormalize(list(t))
        if is_pth_power(ff, t):
            raise InvalidInput("t is a p-th power; the cover is not reduced")
        self.ff = ff
        self.t = t

    def genus(self):
        return 0

    def p_rank(self):
        return 0

    def render(self):
        return "T^%d = %s" % (self.ff.p, prender(self.ff, self.t))

    def __repr__(self):
        return self.render()


def as_genus(c):
    """Genus of an Artin-Schreier cover of the line.

    Conductor formula over the poles P of the reduced u with orders d_P:
    g = (p-1)/2 * (sum deg(P) (d_P + 1) - 2).  When u is a polynomial of
    degree m prime to p the (m-1)(p-1)/2 shortcut applies and the two
    must agree.
    """
    if isinstance(c, RatFunc):
        c = ASCurve(as_reduce(c))
    p = c.ff.p
    total = sum(deg * (order + 1) for _, order, deg in c.profile)
    g = (p - 1) * (total - 2) // 2
    if c.u.is_poly():
        m = pdeg(c.u.num)
        if m % p:
            if (m - 1) * (p - 1) // 2 != g:
                raise ConstructionMismatch(
                    "conductor oracle disagrees with the degree formula")
    return g


def p_rank_DS(p, branch_count):
    """p-rank of a Z/p-cover of the line, all branch points wild:
    (p-1)(branch_count - 1), from the Deuring-Shafarevich formula."""
    if branch_count < 1:
        raise InvalidInput("branch_count must be >= 1")
    return (p - 1) * (branch_count - 1)

