"""Degeneration of mu_p-torsors z^p = f(x) over the tower.

The special fiber of the normalized model is governed by how closely f
can be approximated by a p-th power: with w = v(h^p - f) maximal over
h in R[x], the fiber splits into p lines when w > v(tau), is the
Artin-Schreier cover T^p - T + ((h^p-f)/tau)~ / h~^p = 0 when w = v(tau),
and is purely inseparable when w < v(tau).  Here tau = (-p)^(p/(p-1)).

``torsor_case`` certifies a case from a supplied h using only one-sided
criteria that do not require knowing that w is maximal; ``maximize_h_bruteforce``
is the independent digit-search oracle used to cross-check it at p = 3.
"""

from .errors import (
    DegenerateModel, InvalidInput, BudgetExceeded, InsufficientPrecision,
)
from .tower import Poly, INF
from .curves import RatFunc, ASCurve, InsepCurve, as_reduce, is_pth_power
from .ffield import ppow as ff_ppow, pnormalize


class TorsorOutcome:
    """One certified (or undecided) case of the torsor trichotomy."""

    SPLIT = "split"
    ARTIN_SCHREIER = "artin_schreier"
    INSEPARABLE = "inseparable"
    UNDECIDED = "undecided"

    __slots__ = ("case", "w", "h", "payload", "detail")

    def __init__(self, case, w, h, payload=None, detail=None):
        self.case = case
        self.w = w
        self.h = h
        self.payload = payload
        self.detail = detail or {}

    def __repr__(self):
        return "TorsorOutcome(%s, w=%s)" % (self.case, self.w)


def torsor_case(f, h):
    """Apply the trichotomy to the model z^p = f(x) with the witness h.

    f must be monic with integral coefficients.  Returns a certified
    TorsorOutcome, or one with case ``undecided`` when the supplied h
    does not settle the trichotomy (w_h = v(tau) with a split residue
    equation, or w_h < v(tau) with a p-th-power residue).
    """
    tw = f.tw
    if not f.c or not f.c[-1].same(tw.one()):
        raise InvalidInput("torsor_case requires a monic f")
    for c in f.c:
        if not c.is_zeroish() and c.valuation() < 0:
            raise InvalidInput("torsor_case requires integral coefficients")
    return _torsor_outcome(f, h)


def _torsor_outcome(f, h):
    """Shared certification core; accepts any integral f of unit content."""
    tw = f.tw
    p = tw.p
    r = (h ** p) - f
    if r.is_zeroish():
        raise DegenerateModel("h^p equals f to working precision; "
                              "the special fiber is not reduced")
    w = r.gauss_valuation()
    vt = tw.tau_valuation()
    if w > vt:
        return TorsorOutcome(TorsorOutcome.SPLIT, w, h)
    if w == vt:
        hbar = h.residue_poly()
        if not pnormalize(hbar):
            return TorsorOutcome(TorsorOutcome.UNDECIDED, w, h,
                                 detail={"reason": "h reduces to 0"})
        num = r.divexact_el(tw.tau()).residue_poly()
        u = RatFunc(tw.ff, num, ff_ppow(tw.ff, hbar, p))
        red = as_reduce(u)
        if red.reduced.is_zero():
            return TorsorOutcome(TorsorOutcome.UNDECIDED, w, h,
                                 detail={"reason": "equation (fi) splits"})
        curve = ASCurve(red)
        return TorsorOutcome(TorsorOutcome.ARTIN_SCHREIER, w, h, curve)
    # w < v(tau): normalize by p^floor(w) pi^(e frac(w)) and test k[x]^p
    wpi = int(w * tw.e)
    sign = -1 if (wpi // tw.e) % 2 else 1
    t = r.scale(tw.pi_power(-wpi) * tw.from_int(sign)).residue_poly()
    if not is_pth_power(tw.ff, t):
        curve = InsepCurve(tw.ff, t)
        return TorsorOutcome(TorsorOutcome.INSEPARABLE, w, h, curve)
    return TorsorOutcome(TorsorOutcome.UNDECIDED, w, h,
                         detail={"reason": "residue is a p-th power"})


def lemma_hh_check(f):
    """Does v(x^N - f) equal v(tau) for N = deg f?

    When true, h = x^(N/p) settles Proposition ap case 2 directly.  (The
    displayed coefficient hypothesis is checked through its conclusion.)
    """
    tw = f.tw
    xn = Poly.x_power(tw, f.degree)
    try:
        w = (xn - f).gauss_valuation()
    except InsufficientPrecision:
        return False
    return w == tw.tau_valuation()


def maximize_h_bruteforce(f, digit_budget=8):
    """Greedy exact digit search for h maximizing w = v(h^p - f).

    Intended as an oracle at p = 3 and small degree.  Single moves
    h <- h + pi^j D with D over the residue field of degree <= s are
    swept exhaustively (j <= digit_budget); improving w is a digit-by-
    digit condition, so the greedy search is exact within the budget.
    Returns (h, w); w = INF flags an exact p-th power (degenerate model
    upstream).  Search stops early once w > v(tau): the case tag no
    longer depends on the exact maximum.
    """
    tw = f.tw
    p = tw.p
    if f.degree % p:
        raise InvalidInput("maximize_h_bruteforce expects deg f = s*p")
    s = f.degree // p
    if not f.c[-1].same(tw.one()):
        raise InvalidInput("f must be monic")
    vt_pi = int(tw.tau_valuation() * tw.e)
    h = Poly.x_power(tw, s)
    max_rounds = (digit_budget + 2) * tw.e * p
    for _ in range(max_rounds):
        r = (h ** p) - f
        if r.is_zeroish():
            return h, INF
        w = r.gauss_valuation()
        wpi = int(w * tw.e)
        if wpi > vt_pi:
            return h, w
        improved = False
        for j in range(0, digit_budget + 1):
            for enc in range(tw.ff.q ** (s + 1)):
                if enc == 0:
                    continue
                digs = [(enc // tw.ff.q ** i) % tw.ff.q for i in range(s + 1)]
                D = Poly(tw, [tw.lift_ff(c) for c in digs])
                cand = h + D.scale(tw.pi_power(j))
                rc = (cand ** p) - f
                if rc.is_zeroish():
                    return cand, INF
                if rc.gauss_valuation() > w:
                    h = cand
                    improved = True
                    break
            if improved:
                break
        if not improved:
            return h, w
    raise BudgetExceeded("digit search did not stabilize within budget")


def induced_case(w, tw):
    """Trichotomy tag induced by a certified maximal w."""
    if w is INF:
        raise DegenerateModel("w is infinite")
    vt = tw.tau_valuation()
    if w > vt:
        return TorsorOutcome.SPLIT
    if w == vt:
        return TorsorOutcome.ARTIN_SCHREIER
    return TorsorOutcome.INSEPARABLE


class BlowupChart:
    """The model chart z2^p = sum_i b^i C^(i)(d)/(i! C(d)) x2^(N-i)."""

    __slots__ = ("center", "radius", "N", "poly", "coord", "h", "notes")

    def __init__(self, center, radius, N, poly, coord="x2", h=None, notes=None):
        self.center = center
        self.radius = radius
        self.N = N
        self.poly = poly
        self.coord = coord
        self.h = h
        self.notes = notes or {}

    def __repr__(self):
        return "BlowupChart(N=%d, coord=%s)" % (self.N, self.coord)


def blowup_chart(C, d, b, N=None, coord="x2"):
    """Blow up the point (x - d, b): substitute x = d + b/x2 and clear
    denominators into a monic degree-N equation (N = p ceil(deg C / p))."""
    tw = C.tw
    p = tw.p
    if N is None:
        N = p * (-(-C.degree // p))
    if N < C.degree:
        raise InvalidInput("chart degree below deg C")
    A = C.taylor(d, b)
    A0 = A.coeff(0)
    if A0.is_zeroish():
        raise DegenerateModel("C(d) is indistinguishable from 0")
    inv = A0.inverse()
    coeffs = [tw.zero()] * (N + 1)
    for i in range(A.degree + 1):
        coeffs[N - i] = A.coeff(i) * inv
    return BlowupChart(d, b, N, Poly(tw, coeffs), coord=coord)
