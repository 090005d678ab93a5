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
explicit rational function.  The Moebius map sends the slots to 0, 1,
infinity and lam by construction, so ``normalize`` maps no branch point:
it computes the new constant and the witness, and the factored identity
is checked once, by ``_check_witness_identity``, before a
NormalizedCover is returned.
"""

import math

from .errors import (
    CoalescingBranchPoints, ConstructionMismatch, InsufficientPrecision,
    InvalidInput, NonCyclicExponent,
)
from .tower import INF, Tower
from .rational import Rational


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

    def pullback(self, m):
        """The composition self(m(x)) as a FactoredRat in x.

        With x = m(x') = (a x' + b)/(c x' + d), each factor x - q becomes
        (a - q c)(x' - q')/(c x' + d); the powers of c x' + d are gathered
        into one c^(-D) and one pole factor, placed last.  An affine map
        (c = 0) has lead a, never zero, and its c x' + d is the constant
        d, so the D powers give d^(-D) and no pole.  The map is a
        bijection, so the images of distinct points stay separate items.
        """
        a, b, c, d = m.entries()
        out = FactoredRat(self.tw)
        out.const, D, leads = self.pullback_const(m)
        for (q, k), lead in zip(self.items, leads):
            if lead is not None:
                out.items.append(((q * d - b) / lead, k))
        # (c x' + d)^(-D) = c^(-D) (x' - pole)^(-D)
        if D and not c.is_zeroish():
            out.items.append((-d / c, -D))
        return out

    def pullback_const(self, m):
        """The constant of ``pullback(m)``, its total exponent D and the
        lead a - q c of each item (a for an affine map), None for an item
        whose image is infinity, where x - q = (b - q d)/(c x' + d)."""
        a, b, c, d = m.entries()
        affine = c.is_zeroish()
        const, D, leads = self.const, 0, []
        for q, k in self.items:
            lead = a if affine else a - q * c
            if lead.is_zeroish():
                const = const * (b - q * d) ** k
                lead = None
            else:
                const = const * lead ** k
            leads.append(lead)
            D += k
        return const * (d if affine else c) ** (-D), D, leads


class FactoredCover(FactoredRat):
    """z^p = const * prod (x - q)^a over finite q, each a in 1..p-1;
    infinity implicit."""

    def __init__(self, tw, const, factors):
        super().__init__(tw)
        self.const = const
        self.items = [(q, a % tw.p) for q, a in factors if a % tw.p]

    @classmethod
    def from_datum(cls, datum):
        finite = [(q, a) for q, a in zip(datum.points, datum.exps)
                  if q is not INFPT]
        return cls(datum.tower, datum.const, finite)

    def moebius_pullback(self, m):
        """The cover in the coordinate x' with x = m(x').

        Returns (new_cover, witness) where witness is a FactoredRat r
        with  rhs_old(m(x')) = rhs_new(x') * r(x')^p  exactly: each
        exponent k of the pulled-back function splits into k mod p, kept
        in the cover, and k // p, moved to the witness.
        """
        pulled = self.pullback(m)
        wit = FactoredRat(self.tw)
        for q, k in pulled.items:
            wit.mul_point(q, k // self.tw.p)
        return FactoredCover(self.tw, pulled.const, pulled.items), wit

    def z_rescale(self, u):
        """Exponents times the unit u mod p: z^p = rhs ->
        (z^u ...)^p = rhs^u; returns (new_cover, witness) with
        rhs_old^u = rhs_new * witness^p."""
        wit = FactoredRat(self.tw)
        for q, a in self.items:
            wit.mul_point(q, u * a // self.tw.p)
        return (FactoredCover(self.tw, self.const ** u,
                              [(q, u * a) for q, a in self.items]), wit)


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
    an identity of rational functions.  m places the slots at 0, 1, inf
    and lam by construction, so no image of a branch point is computed:
    const comes from the leads of the pullback alone, the witness from
    z_rescale and the pole of m, and ``_check_witness_identity`` checks
    the whole identity, factor by factor, once.
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

    powered, wit = FactoredCover.from_datum(datum).z_rescale(u)
    # m places A, B, C, D at 0, 1, inf, lam by construction, so of the
    # cover pulled back by m^-1 only the constant is computed, not the
    # images of the branch points
    const, deg, _ = powered.pullback_const(m.inverse())
    if C is not INFPT:
        # the pullback's pole x' = m(inf) has exponent -deg = r - j p with
        # 0 <= r < p; the witness takes (x' - m(inf))^(-j), which is
        # (c^2/(b c - a d))^j (x - C)^j in the source coordinate
        a, b, c, d = m.entries()
        j = -(-deg // p)
        wit.const = wit.const * (c * c / (b * c - a * d)) ** j
        wit.mul_point(C, j)

    tokens = []
    if not const.same(tw.one()):
        if not _is_exact_pth_power(const, p):
            tokens.append(("c^(1/%d)" % p, const.valuation()))

    n = NormalizedCover(tw, beta, gamma, lam, m, u, const, wit,
                        constant_tokens=tokens)
    _check_witness_identity(datum, n)
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


def _check_witness_identity(datum, n):
    """Check rhs_old^u = const * witness^p * rhs_new(m(x)) as factored
    rational functions: the two sides' points, merged by pt_same, must
    cancel with no zero or pole left, and their constants must be the
    same element.  A failed identity raises InsufficientPrecision when it
    rests on digits that ran out (``_undecided``), which more digits mend,
    and ConstructionMismatch when it is certified."""
    p = datum.p
    old = FactoredCover.from_datum(datum)
    new = n.cover().pullback(n.moebius)
    quot = FactoredRat(datum.tower)
    for q, k in old.items:
        quot.mul_point(q, n.u * k)
    for q, k in n.witness.items:
        quot.mul_point(q, -p * k)
    for q, k in new.items:
        quot.mul_point(q, -k)
    if quot.items or not (old.const ** n.u).same(
            n.const * n.witness.const ** p * new.const):
        points = [q for q, _ in old.items + n.witness.items + new.items]
        if _undecided(datum, n, [q for q, _ in quot.items], points):
            raise InsufficientPrecision(
                "witness identity undecided at this precision")
        raise ConstructionMismatch("witness identity failed")


def _undecided(datum, n, left, points):
    """Whether a failed witness identity rests on a fuzzy zero, given its
    leftover points and all the points of its three sides.

    The pullback by m = (a x + b)/(c x + d) sends a point q of the normal
    form to infinity where its lead a - q c (a when c = 0) is zero; only
    the image m(inf) of a point of the cover at infinity may go there.  So a
    failure is undecided when the pullback took c for 0 and c is O(pi^k),
    or took more leads for 0 than the cover has points at infinity with
    one of them O(pi^k); and when one point of the identity cannot be told
    from two leftover points, which it may have been merged with on too
    few digits.
    """
    a, _, c, _ = n.moebius.entries()
    affine = c.is_zeroish()
    if affine and not c.is_true_zero():
        return True
    zeros = [lead for lead in (a if affine else a - q * c for q, _ in n.cover().items)
             if lead.is_zeroish()]
    # an affine m fixes infinity, so no point of the normal form goes there
    at_infinity = 0 if affine else sum(q is INFPT for q in datum.points)
    if len(zeros) > at_infinity and not all(lead.is_true_zero() for lead in zeros):
        return True
    return any(pt_same(r, q) and pt_same(r, s)
               for r in points for i, q in enumerate(left) for s in left[:i])


# the benchmark's trace (benchmarks/tracing.py) wraps the check by this name
_verify_witness_by_sampling = _check_witness_identity


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
    exp = Rational(2 * p, 3 * (p - 1))
    vnum = num.valuation()
    if vnum is INF:
        return tw.zero(), INF
    v = vnum - exp
    need = exp.denominator
    mult = need // math.gcd(need, tw.e)
    # e multiplied by mult, at the precision of the same p-digit levels
    e2 = tw.e * mult
    big = tw if mult == 1 else Tower(p, e2, tw.f, prec=(tw.nl - 1) * e2)
    value = tw.embed(num, big) * big.pi_power(-int(exp * big.e))
    return value, v
