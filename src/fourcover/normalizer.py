"""Normal form for p-cyclic covers of the line ramified at four points.

A cover z^p = c prod (x - b_i)^{a_i} (branch points allowed at infinity)
is moved by a Moebius transformation and a power of z to the shape

    z0^p = x0 (x0 - 1)^beta (x0 - lam)^gamma,

with 0 < beta, gamma < p, v(lam) >= 0 and residue(lam) != 1.  The slot
assignment starts from the input order; if v(lam) < 0 the 1-slot and the
lam-slot are exchanged (lam -> 1/lam), and if the residue is 1 the
0-slot and 1-slot are exchanged (lam -> 1 - lam).  One of the six
cross-ratio orbit values always satisfies both constraints, so at most
two moves are needed.

Every transformation carries an exact witness: the pulled-back equation
differs from the normal form by a constant and the p-th power of an
explicit rational function, and the factored identity is checked before
a NormalizedCover is returned.
"""

import math
from fractions import Fraction

from .errors import (
    CoalescingBranchPoints, NonCyclicExponent, InvalidInput, FourCoverError,
    InsufficientPrecision,
)
from .tower import INF


class _Infinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INFPT = _Infinity()


def pt_same(a, b):
    if a is INFPT or b is INFPT:
        return a is b
    return a.same(b)


def parse_point(tower, text):
    """Branch-point token: the element grammar of the tower, or ``inf``."""
    if isinstance(text, str) and text.strip() == "inf":
        return INFPT
    return tower.parse(text)


class Moebius:
    """x -> (a x + b)/(c x + d) with tower entries and a unit determinant."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        det = a * d - b * c
        if det.is_zeroish():
            raise InvalidInput("Moebius transformation is degenerate")
        self.a, self.b, self.c, self.d = a, b, c, d

    def apply(self, pt):
        if pt is INFPT:
            if self.c.is_zeroish():
                return INFPT
            return self.a / self.c
        den = self.c * pt + self.d
        if den.is_zeroish():
            return INFPT
        return (self.a * pt + self.b) / den

    def inverse(self):
        return Moebius(self.d, -self.b, -self.c, self.a)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __repr__(self):
        return "Moebius(%s, %s, %s, %s)" % tuple(x.str(3) for x in self.entries())


def moebius_to_01inf(tw, A, B, C):
    """The transformation sending (A, B, C) to (0, 1, inf)."""
    one = tw.one()
    if A is INFPT:
        return Moebius(tw.zero(), B - C, one, -C)
    if B is INFPT:
        return Moebius(one, -A, one, -C)
    if C is INFPT:
        return Moebius(one, -A, tw.zero(), B - A)
    return Moebius(B - C, -A * (B - C), B - A, -C * (B - A))


def cross_ratio(tw, A, B, C, D):
    return moebius_to_01inf(tw, A, B, C).apply(D)


def cross_ratio_orbit(lam):
    """The six relabeling values of lam, duplicates collapsed."""
    tw = lam.tw
    one = tw.one()
    vals = [lam, one / lam, one - lam, one / (one - lam),
            lam / (lam - one), (lam - one) / lam]
    out = []
    for v in vals:
        if not any(v.same(w) for w in out):
            out.append(v)
    return out


class CoverDatum:
    """A p-cyclic cover: branch points, exponents, optional constant."""

    def __init__(self, tower, points, exps, const=None):
        if len(points) != 4 or len(exps) != 4:
            raise InvalidInput("exactly four branch points are required")
        p = tower.p
        exps = [a % p for a in exps]
        if any(a == 0 for a in exps):
            raise NonCyclicExponent("every exponent must be nonzero mod p")
        if sum(exps) % p:
            raise InvalidInput("exponent sum must vanish mod p")
        for i in range(4):
            for j in range(i + 1, 4):
                a, b = points[i], points[j]
                if a is INFPT and b is INFPT:
                    raise CoalescingBranchPoints("two branch points at infinity")
                if a is not INFPT and b is not INFPT and (a - b).is_zeroish():
                    raise CoalescingBranchPoints(
                        "branch points %d and %d coincide at working precision"
                        % (i, j))
        self.tower = tower
        self.p = p
        self.points = list(points)
        self.exps = exps
        self.const = const if const is not None else tower.one()


def _eval_factored(const, factors, x):
    """const * prod (x - q)^k over the pairs (q, k) of factors."""
    out = const
    for q, k in factors:
        out = out * (x - q) ** k
    return out


class FactoredCover:
    """z^p = const * prod (x - q)^a over finite q; infinity implicit."""

    def __init__(self, tower, const, factors):
        self.tower = tower
        self.p = tower.p
        self.const = const
        self.factors = [(q, a % self.p) for q, a in factors if a % self.p]

    @classmethod
    def from_datum(cls, datum):
        finite = [(q, a) for q, a in zip(datum.points, datum.exps)
                  if q is not INFPT]
        return cls(datum.tower, datum.const, finite)

    def eval_rhs(self, x):
        return _eval_factored(self.const, self.factors, x)

    def moebius_pullback(self, m):
        """The cover in the coordinate x' with x = m(x').

        Returns (new_cover, witness) where witness is a FactoredRat r
        with  rhs_old(m(x')) = rhs_new(x') * r(x')^p  exactly: each
        exponent k of the pulled-back function splits into k mod p, kept
        in the cover, and k // p, moved to the witness.
        """
        rhs = FactoredRat(self.tower)
        rhs.const = self.const
        rhs.items = list(self.factors)
        pulled = rhs.pullback(m)
        wit = FactoredRat(self.tower)
        for q, k in pulled.items:
            wit.mul_point(q, k // self.p)
        return FactoredCover(self.tower, pulled.const, pulled.items), wit

    def z_rescale(self, u):
        """Exponents times the unit u mod p: z^p = rhs ->
        (z^u ...)^p = rhs^u; returns (new_cover, witness) with
        rhs_old^u = rhs_new * witness^p."""
        tw = self.tower
        p = self.p
        wit = FactoredRat(tw)
        new_factors = []
        for q, a in self.factors:
            ua = (u * a) % p
            new_factors.append((q, ua))
            wit.mul_point(q, (u * a - ua) // p)
        const = self.const ** u
        return FactoredCover(tw, const, new_factors), wit


class FactoredRat:
    """A rational function kept as point -> integer exponent, with constant."""

    def __init__(self, tw):
        self.tw = tw
        self.const = tw.one()
        self.items = []  # list of (point, exponent)

    def mul_point(self, q, k):
        if k:
            for i, (r, a) in enumerate(self.items):
                if pt_same(r, q):
                    self.items[i] = (r, a + k)
                    if self.items[i][1] == 0:
                        self.items.pop(i)
                    return
            self.items.append((q, k))

    def mul(self, other):
        self.const = self.const * other.const
        for q, k in other.items:
            self.mul_point(q, k)

    def eval(self, x):
        return _eval_factored(self.const, self.items, x)

    def pullback(self, m):
        """The composition self(m(x)) as a FactoredRat in x.

        With x = m(x') = (a x' + b)/(c x' + d), each factor x - q becomes
        (a - q c)(x' - q')/(c x' + d); the powers of c x' + d are gathered
        into one c^(-D) and one pole factor, placed last.  The map is a
        bijection, so the images of distinct points stay separate items.
        """
        a, b, c, d = m.entries()
        out = FactoredRat(self.tw)
        const = self.const
        if c.is_zeroish():
            # affine: m(x') = (a x' + b)/d
            scale = a / d
            for q, k in self.items:
                out.items.append(((q * d - b) / a, k))
                const = const * scale ** k
            out.const = const
            return out
        D = 0
        for q, k in self.items:
            lead = a - q * c
            if lead.is_zeroish():
                # q' = infinity: x - q = (b - q d)/(c x' + d)
                const = const * (b - q * d) ** k
            else:
                out.items.append(((q * d - b) / lead, k))
                const = const * lead ** k
            D += k
        # (c x' + d)^(-D) = c^(-D) (x' - pole)^(-D)
        if D:
            out.items.append((-d / c, -D))
        out.const = const * c ** (-D)
        return out

    def is_one(self):
        return self.const.same(self.tw.one()) and not self.items


class NormalizedCover:
    """The normal form z0^p = x0 (x0-1)^beta (x0-lam)^gamma."""

    def __init__(self, tower, beta, gamma, lam, moebius, u, const, witness,
                 constant_tokens=None):
        p = tower.p
        if not (0 < beta < p and 0 < gamma < p):
            raise InvalidInput("beta, gamma must lie in 1..p-1")
        if math.gcd(1 + beta + gamma, p) != 1:
            raise InvalidInput("(1 + beta + gamma, p) must be 1")
        v = lam.valuation()
        if v is INF or v < 0:
            raise InvalidInput("v(lam) must be >= 0 and lam nonzero")
        if v == 0 and lam.residue() == 1:
            raise InvalidInput("residue of lam must differ from 1")
        one = tower.one()
        if lam.same(one) or lam.is_zeroish():
            raise InvalidInput("lam must avoid {0, 1}")
        self.tower = tower
        self.p = p
        self.beta = beta
        self.gamma = gamma
        self.lam = lam
        self.moebius = moebius
        self.u = u
        self.const = const
        self.witness = witness
        self.constant_tokens = constant_tokens or []

    def cover(self):
        tw = self.tower
        return FactoredCover(tw, tw.one(), [
            (tw.zero(), 1), (tw.one(), self.beta), (self.lam, self.gamma)])

    def __repr__(self):
        return ("NormalizedCover(p=%d, beta=%d, gamma=%d, lam=%s)"
                % (self.p, self.beta, self.gamma, self.lam.str(4)))


def normalize(datum):
    """Bring a CoverDatum to the standard shape, with a verified witness.

    The returned object satisfies
        rhs_old(x)^u = const * witness(x)^p * rhs_new(m(x)),
    an identity of rational functions checked factor by factor.
    """
    tw = datum.tower
    p = datum.p
    order = [0, 1, 2, 3]
    for _ in range(4):
        A, B, C, D = (datum.points[i] for i in order)
        m = moebius_to_01inf(tw, A, B, C)
        lam = m.apply(D)
        if lam is INFPT:
            raise CoalescingBranchPoints("lambda lands at infinity")
        v = lam.valuation()
        if v is INF:
            raise CoalescingBranchPoints("lambda is zero")
        if v < 0:
            order = [order[0], order[3], order[2], order[1]]  # lam -> 1/lam
            continue
        if v == 0 and lam.residue() == 1:
            order = [order[1], order[0], order[2], order[3]]  # lam -> 1-lam
            continue
        break
    else:
        raise InvalidInput("normalization moves did not terminate")

    slot_exps = [datum.exps[i] for i in order]
    a0, a1, ainf, alam = slot_exps
    u = pow(a0, -1, p)
    beta = (u * a1) % p
    gamma = (u * alam) % p
    if (u * ainf) % p != (-(1 + beta + gamma)) % p:
        raise InvalidInput("exponent bookkeeping failed")

    old = FactoredCover.from_datum(datum)
    powered, wit1 = old.z_rescale(u)
    pulled, wit2 = powered.moebius_pullback(m.inverse())
    wit1.mul(wit2.pullback(m))  # transport to the source coordinate
    # pulled must equal const * normal form
    target = {"zero": 1, "one": beta, "lam": gamma}
    seen = dict((k, 0) for k in target)
    for q, a in pulled.factors:
        if q.is_zeroish():
            seen["zero"] = a
        elif q.same(tw.one()):
            seen["one"] = a
        elif q.same(lam):
            seen["lam"] = a
        else:
            raise InvalidInput("witness identity failed: stray factor at %s"
                               % q.str(4))
    if seen != target:
        raise InvalidInput("witness identity failed: exponents %r != %r"
                           % (seen, target))
    const = pulled.const

    tokens = []
    if not const.same(tw.one()):
        if not _is_exact_pth_power(const, p):
            tokens.append(("c^(1/%d)" % p, const.valuation()))

    n = NormalizedCover(tw, beta, gamma, lam, m, u, const, wit1,
                        constant_tokens=tokens)
    _verify_witness_by_sampling(datum, n)
    return n


def _is_exact_pth_power(el, p):
    if el.exact is None:
        return False
    q, m = el.exact
    if m % p:
        return False
    num = _int_nth_root(q.numerator, p)
    den = _int_nth_root(q.denominator, p)
    return num is not None and den is not None


def _int_nth_root(n, p):
    """The integer r with r^p = n, or None; exact for any size of n."""
    if n < 0:
        r = _int_nth_root(-n, p)
        return -r if r is not None and p % 2 else None
    lo, hi = 0, 1 << -(-n.bit_length() // p)    # hi^p > n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** p <= n:
            lo = mid
        else:
            hi = mid
    return lo if lo ** p == n else None


def _verify_witness_by_sampling(datum, n, samples=4):
    """Numeric spot check of rhs_old(x)^u = const * wit(x)^p * rhs_new(m(x))
    at ``samples`` points, out of at most 8 * samples candidates."""
    tw = datum.tower
    old = FactoredCover.from_datum(datum)
    new = n.cover()
    count = 0
    x = tw.from_int(2)
    step = tw.one()
    for _ in range(8 * samples):
        x = x + step + tw.pi()
        try:
            lhs = old.eval_rhs(x) ** n.u
            mx = n.moebius.apply(x)
            if mx is INFPT:
                continue
            rhs = n.const * n.witness.eval(x) ** tw.p * new.eval_rhs(mx)
        except FourCoverError:
            continue
        if lhs.is_zeroish() or rhs.is_zeroish():
            continue
        if not lhs.same(rhs):
            raise InvalidInput("witness identity failed at a sample point")
        count += 1
        if count == samples:
            return
    raise InsufficientPrecision(
        "witness check found %d of %d usable sample points" % (count, samples))


def j_numerator(n):
    """lam^2 (beta+1)^2 - 2 lam (beta+gamma+1-beta gamma) + (gamma+1)^2."""
    tw = n.tower
    b, g = n.beta, n.gamma
    return (n.lam ** 2 * (b + 1) ** 2
            - n.lam * 2 * (b + g + 1 - b * g)
            + tw.from_int((g + 1) ** 2))


def j_invariant(n):
    """j(lam) = p^(-2p/(3(p-1))) * j_numerator, in a tower containing it.

    Returns (value, valuation).  The exponent is read as 2p/(3(p-1)),
    consistent with v(b^2) for b = tau^(1/3) in the good-reduction chart.
    """
    tw = n.tower
    p = tw.p
    num = j_numerator(n)
    exp = Fraction(2 * p, 3 * (p - 1))
    vnum = num.valuation()
    if vnum is INF:
        return tw.zero(), INF
    v = vnum - exp
    need = exp.denominator
    mult = need // math.gcd(need, tw.e)
    big = tw if mult == 1 else tw.extended(e_mult=mult)
    value = tw.embed(num, big) * big.pi_power(-int(exp * big.e))
    return value, v
