"""Stable reduction of the normalized cover z0^p = x0(x0-1)^beta(x0-lam)^gamma.

The decision tree (p > 3):

  v(lam) = 0:  v(j(lam)) >= 0        -> type 1a (good, p-rank 0)
               v(j(lam)) <  0        -> type 3 via the two critical disks
  v(lam) > 0:  gamma+1 != p          -> type 3 via the separated disks
               gamma+1  = p and
                 v(lam) = v(tau^2)   -> type 1b (good, p-rank p-1)
                 v(lam) > v(tau^2)   -> type 2 (Mumford)
                 v(lam) < v(tau^2)   -> type 3 via the symmetrized model

For p = 3 the v(lam) = 0 branch is always type 3 and the v(lam) > 0
branch is identical.  Every constructed chart is certified through the
torsor trichotomy, and each Artin-Schreier component's conductor genus
must be the genus its route predicts; a chart that fails either raises
ConstructionMismatch rather than being trusted.  ``verify_model`` then
checks the assembled model: the genera and the Betti number add up to
p - 1, each p-rank is the Deuring-Shafarevich count of its branch points,
each positive genus is a multiple of (p-1)/2, the other components are
rational, and the dual graph has the shape of the type.  Its
``component-i-genus-oracle`` check reruns ``as_genus`` on the stored
curve, so it guards the stored genus, not the conductor formula.

Every blow-up chart is read from the cover's linear factors
(``_factored_chart``), first in the rows the trichotomy reads, at the
precision it reads them, and in every row at full precision only when
that does not decide (``_blowup_trichotomy``).  The unblown charts, type
1b at x0/tau and the two lines and the annulus of the Mumford model, are
decided once, at full precision.

Chart centers.  Off the branch points, the critical points of
C = x(x-1)^beta(x-lam)^gamma are the roots of the critical quadratic g
of ``_critical_quadratic``.  Type 1a centers at the vertex of g, via-1b
at the two roots of g by the quadratic formula, and via-2a at the roots
of g on the unit disk and of g(lam x)/lam on the disk of radius lam.
The 2b3 centers of sub-case i are lifted from G/lambda^(1/2), G the
cubic numerator of the cover's logarithmic derivative, not from F' of
degree 2p - 1 (``_log_derivative_numerator``), and those of sub-case ii
from T0' (``_critical_2b3``).
Every center that lifts a residue root goes through ``_lift_centers``
(via-2a, and the finite centers of 2b3), except the flipped 2b3 center,
whose residue root is 0 and which ``hensel_root`` lifts directly from
the same polynomial of the flipped cover.  Both lift a center only to
the digits that rung 1 and the report read: rung 1 reads it to K0
pi-digits, and the report renders four nonzero digits and the ap that
``hensel_root`` certifies by the precision lemma.  The lifted center (a
``LiftedRoot``) runs the full-window lift only when rung 2 asks for it.
A 1a or via-1b center is an El, which serves rung 1, rung 2 and the
report as it is.
"""

import math
from functools import partial

from .errors import (
    FourCoverError, InsufficientPrecision, UnsupportedPrime, InvalidInput,
    ConstructionMismatch, DegenerateModel,
)
from .tower import Tower, El, Poly, INF, hensel_root, _times_int
from .rational import Rational
from .normalizer import (
    CoverDatum, FactoredCover, Moebius, normalize, j_numerator,
)
from . import torsor
from .torsor import TorsorOutcome, BlowupChart, lemma_hh_check
from .curves import as_genus, p_rank_DS, is_pth_power
from .ffield import FF, proots, pnormalize, peval, pderiv


TYPE_1A = "1a"
TYPE_1B = "1b"
TYPE_2 = "2"
TYPE_3 = "3"

VIA_1B = "via-1b"
VIA_2A = "via-2a"
VIA_2B3_I = "via-2b3-i"
VIA_2B3_II = "via-2b3-ii"


# The result records are plain slotted classes: importing dataclasses
# loads inspect, ast, dis and tokenize, about half of what every
# fourcover call spends before its arithmetic.
class Classification:
    """A reduction type and, for type 3, the route that reaches it.
    Immutable: it compares and hashes by (rtype, subroute)."""

    __slots__ = ("rtype", "subroute")

    def __init__(self, rtype, subroute=None):
        self.rtype = rtype
        self.subroute = subroute

    def __eq__(self, other):
        if other.__class__ is not Classification:
            return NotImplemented
        return self.rtype == other.rtype and self.subroute == other.subroute

    def __hash__(self):
        return hash((self.rtype, self.subroute))

    def __repr__(self):
        return "Classification(rtype=%r, subroute=%r)" % (self.rtype, self.subroute)

    def __str__(self):
        if self.subroute:
            return "%s (%s)" % (self.rtype, self.subroute)
        return self.rtype


class ExtensionSpec:
    __slots__ = ("e", "f", "tokens")

    def __init__(self, e, f, tokens):
        self.e = e
        self.f = f
        self.tokens = tokens

    def as_dict(self):
        return {"e": self.e, "f": self.f, "tokens": list(self.tokens)}


class Component:
    __slots__ = ("kind", "equation", "genus", "p_rank", "branch_points",
                 "chart", "payload")

    def __init__(self, kind, equation, genus, p_rank, branch_points,
                 chart=None, payload=None):
        self.kind = kind            # "artin_schreier" | "inseparable" | "line"
        self.equation = equation
        self.genus = genus
        self.p_rank = p_rank
        self.branch_points = branch_points
        self.chart = chart
        self.payload = payload

    def as_dict(self):
        chart = None
        if isinstance(self.chart, BlowupChart):
            chart = {
                "coord": self.chart.coord,
                "center": self.chart.center.str(4) if self.chart.center is not None else None,
                "radius_valuation": str(self.chart.radius.valuation())
                if self.chart.radius is not None else None,
                "degree": self.chart.N,
                "notes": dict(self.chart.notes),
            }
        elif isinstance(self.chart, dict):
            chart = dict(self.chart)
        return {
            "kind": self.kind,
            "equation": self.equation,
            "genus": self.genus,
            "p_rank": self.p_rank,
            "branch_points": self.branch_points,
            "chart": chart,
        }


class StableModel:
    __slots__ = ("classification", "components", "edges", "extension",
                 "checks", "normalized")

    def __init__(self, classification, components, edges, extension,
                 checks=None, normalized=None):
        self.classification = classification
        self.components = components
        self.edges = edges          # (i, j, multiplicity)
        self.extension = extension
        self.checks = [] if checks is None else checks
        self.normalized = normalized

    def betti(self):
        verts = len(self.components)
        edge_count = sum(m for _, _, m in self.edges)
        return edge_count - verts + 1 if verts else 0

    def genus_total(self):
        return sum(c.genus for c in self.components) + self.betti()


def classify(n):
    """The reduction type of a normalized cover (p > 2)."""
    p = n.p
    if p == 2:
        raise UnsupportedPrime("use deuring_good_reduction for p = 2")
    v = n.lam.valuation()
    if v == 0:
        if p == 3:
            return Classification(TYPE_3, VIA_1B)
        vnum = j_numerator(n).valuation()
        if vnum is INF or vnum >= Rational(2 * p, 3 * (p - 1)):
            return Classification(TYPE_1A)
        return Classification(TYPE_3, VIA_1B)
    if n.gamma + 1 != p:
        return Classification(TYPE_3, VIA_2A)
    vt2 = Rational(2 * p, p - 1)
    if v == vt2:
        return Classification(TYPE_1B)
    if v > vt2:
        return Classification(TYPE_2)
    half = v / 2
    if half <= Rational(p - 2, p - 1):
        return Classification(TYPE_3, VIA_2B3_I)
    return Classification(TYPE_3, VIA_2B3_II)


# ---------------------------------------------------------------------------
# required extension
# ---------------------------------------------------------------------------

def _even_pi_level(v, e):
    """Least multiple of e over which v becomes an even pi-level."""
    pl = v * e
    if pl.denominator != 1:
        e *= pl.denominator
        pl = v * e
    if int(pl) % 2:
        e *= 2
    return e


def _adjoin_sqrt(el, e, f):
    """(e, f) after adjoining a square root of el: an even pi-level for
    v(el), and a doubled residue degree if el's unit part has a
    non-square residue."""
    u = el * el.tw.pi_power(-el.pival())
    if not el.tw.ff.is_square(u.residue()):
        f *= 2
    return _even_pi_level(el.valuation(), e), f


def required_extension(n, cls):
    """Tokens and the least (e, f) over which the model charts exist."""
    tw = n.tower
    p = n.p
    e0, f0 = tw.e, tw.f
    tokens = []
    e_need = e0
    f_need = f0
    vt = Rational(p, p - 1)
    for label, vc in n.constant_tokens:
        tokens.append("%s, v(c) = %s" % (label, vc))
        e_need = math.lcm(e_need, (vc / p).denominator)

    if cls.rtype == TYPE_1A:
        tokens.append("tau^(1/3)")
        e_need = math.lcm(e_need, Rational(p, 3 * (p - 1)).denominator)

    elif cls.rtype == TYPE_1B:
        tokens.append("tau")
        e_need = math.lcm(e_need, p - 1)

    elif cls.rtype == TYPE_2:
        tokens.append("lambda^(1/2)")
        e_need, f_need = _adjoin_sqrt(n.lam, e_need, f_need)

    elif cls.subroute == VIA_2A:
        tokens.append("tau^(1/2)")
        e_need = math.lcm(e_need, Rational(p, 2 * (p - 1)).denominator)

    elif cls.subroute == VIA_1B:
        num = j_numerator(n)
        vnum = num.valuation()
        # centers: roots of the critical quadratic; need sqrt(disc), disc ~ jnum
        tokens.append("disc^(1/2) (disc = j-numerator)")
        vb = (vt - vnum / 2) / 2
        tokens.append("b with v(b^2 g''(d)) = v(tau), v(b) = %s" % vb)
        e_need = math.lcm(e_need, vb.denominator)
        e_need, f_need = _adjoin_sqrt(num, e_need, f_need)

    elif cls.subroute in (VIA_2B3_I, VIA_2B3_II):
        vlam = n.lam.valuation()
        tokens.append("lambda^(1/2)")
        vb = (vt - vlam / 2) / 2
        tokens.append("b with v(b^2 lambda^(1/2)) = v(tau), v(b) = %s" % vb)
        e_need = math.lcm(e_need, vb.denominator)
        e_need, f_need = _adjoin_sqrt(n.lam, e_need, f_need)
        # centers: roots of -(beta+1)x^2 + 2x - 1, discriminant -4*beta
        if (n.beta + 1) % p:
            ff2 = FF(p, f_need)
            disc = ff2.smul(-4, n.beta % p)
            if not ff2.is_square(disc):
                f_need *= 2

    return ExtensionSpec(e=e_need, f=f_need, tokens=tokens)


# ---------------------------------------------------------------------------
# the chart certifier
# ---------------------------------------------------------------------------

def _cover_to_poly(cover):
    """(C, const) with rhs = const * C(x), C integral of unit content.
    Each factor, (x - q)^a or, when v(q) < 0, (1 - x/q)^a with (-q)^a
    moved into const, is expanded by the binomial theorem."""
    tw = cover.tw
    C = Poly(tw, [tw.one()])
    const = cover.const
    for q, a in cover.items:
        v = q.valuation()
        if v is INF or v >= 0:
            C = C * Poly(tw, _binomial_rows(-q, a, a + 1))
        else:
            # the rows of (-1/q + T)^a, read backwards
            C = C * Poly(tw, _binomial_rows(-q.inverse(), a, a + 1)[::-1])
            const = const * (-q) ** a
    return C, const


def _chart_poly(cover, moebius=None):
    """(C, notes): the equation z^p = C of ``cover``, pulled back along
    ``moebius`` when one is given, with the chart constant folded in.

    The pi-power part of the constant must be a p-th power (it is, in
    every construction here); the unit part is folded into C, and its
    p-th root over the perfect residue field is left implicit.
    """
    if moebius is not None:
        cover, _ = cover.moebius_pullback(moebius)
    C, const = _cover_to_poly(cover)
    tw = C.tw
    if const.same(tw.one()):
        return C, {}
    return C.scale(const * tw.pi_power(-const.pival())), _chart_notes(cover)


def _chart_notes(cover):
    """The notes of ``_chart_poly(cover)``, read without building C: the
    chart constant const * prod_{v(q) < 0} (-q)^a of ``_cover_to_poly``
    has pi-power v(const) + sum_{v(q) < 0} a v(q)."""
    tw = cover.tw
    m = cover.const.pival()
    for q, a in cover.items:
        v = q.valuation()
        if v is not INF and v < 0:
            m += a * q.pival()
    if m % tw.p:
        return {"constant": "pi-power %d of the chart constant is not a "
                            "p-th power; root adjoined implicitly" % m}
    return {}


def _xp_witness(C, what):
    """h = rho x for a chart C whose residue is c x^p, with rho^p = c."""
    tw = C.tw
    p = tw.p
    red = pnormalize(C.residue_poly())
    if len(red) - 1 != p or any(red[:-1]):
        raise ConstructionMismatch("%s does not reduce to c*x^p" % what)
    return Poly(tw, [tw.zero(), tw.lift_ff(tw.ff.pth_root(red[p]))])


def _radius(tw, v):
    """The blow-up radius pi^(v e) of valuation v."""
    if (v * tw.e).denominator != 1:
        raise ConstructionMismatch("radius valuation %s not in the value group" % v)
    return tw.pi_power(int(v * tw.e))


def _integral_branch_residues(cover):
    out = set()
    for q, _ in cover.items:
        v = q.valuation()
        if v is INF or v >= 0:
            out.add(q.residue())
    return out


def _critical_quadratic(n, lam):
    """g = (1+beta+gamma) x^2 - (lam(beta+1)+gamma+1) x + lam, the numerator
    of C'/C for C = x(x-1)^beta(x-lam)^gamma: off the branch points, the
    critical points of C are the roots of g."""
    tw = lam.tw
    beta, gamma = n.beta, n.gamma
    return Poly(tw, [lam, -(lam * (beta + 1) + tw.from_int(gamma + 1)),
                     tw.from_int(beta + gamma + 1)])


def _lift_centers(S, exclude, want, where):
    """The chart centers on ``where``: the lifts of the simple residue roots
    of the integral polynomial S off the branch residues ``exclude``, of
    which there must be exactly ``want``."""
    ff = S.tw.ff
    rbar = S.residue_poly()
    if not pnormalize(rbar):
        raise ConstructionMismatch("critical polynomial reduces to zero on "
                                   "the %s" % where)
    der = pderiv(ff, rbar)
    roots = sorted(r for r in proots(ff, rbar)
                   if r not in exclude and peval(ff, der, r) != 0)
    if len(roots) != want:
        raise ConstructionMismatch(
            "expected %d critical residue root(s) on the %s, found %d"
            % (want, where, len(roots)))
    return [hensel_root(S, r, _rung_one_digits(S.tw)) for r in roots]


def _expect(out, case, label):
    """``out`` when the trichotomy certified ``case``; else ConstructionMismatch."""
    if out.case != case:
        raise ConstructionMismatch("%s: expected %s fiber, got %s (w = %s)"
                                   % (label, case, out.case, out.w))
    return out


def _artin_schreier(chart, out, expect_genus, label, notes=None):
    """Package the certified Artin-Schreier outcome ``out`` on ``chart``."""
    curve = _expect(out, TorsorOutcome.ARTIN_SCHREIER, label).payload
    chart.notes.update(w=str(out.w), label=label)
    chart.notes.update(notes or {})
    g = as_genus(curve)
    if g != expect_genus:
        raise ConstructionMismatch(
            "%s: genus %d from the conductor oracle, expected %d"
            % (label, g, expect_genus))
    bc = curve.branch_count()
    return Component(
        kind="artin_schreier",
        equation=curve.render(),
        genus=g,
        p_rank=p_rank_DS(curve.ff.p, bc),
        branch_points=bc,
        chart=chart,
        payload=curve,
    )


def _blowup_trichotomy(cover, h, d, b, N):
    """(chart, outcome): the trichotomy on the blow-up of ``cover`` at
    (x - d, b), with the witness h carried through the blow-up,
    x2^(N/p) h(d + b/x2)/h(d); h None is 1 there, which carries to
    x2^(N/p).  The chart keeps the center d, an El or a LiftedRoot; its
    poly is the chart of the rung that decided.

    The trichotomy compares w = v(h^p - C) with v(tau), so it reads a
    chart only in its rows of valuation up to K = floor(e v(tau)) + 1
    pi-digits.  Both rungs read the chart from the cover's linear factors
    (``_factored_chart``): rung 1 from the head of d cut to O(pi^K0),
    K0 = 2K, in the rows of valuation below K, and rung 2 in every row
    from d.full(), the full-precision center, which only rung 2 asks a
    lifted center for.  The witness is blown up as given, at the rung's
    center.  El tracks precision soundly, so every valuation and residue
    rung 1 reads is a true digit: a case it decides has the
    full-precision w and equation.  A FourCoverError or an undecided
    outcome at rung 1 runs rung 2, whose result or error stands.
    """
    tw = cover.tw

    def rung(dc, K):
        chart = _factored_chart(cover, dc, b, N, K)
        n = chart.N // tw.p
        hc = (Poly.x_power(tw, n) if h is None
              else torsor.blowup_chart(h, dc, b, N=n).poly)
        out = torsor.torsor_case(chart.poly, hc)
        chart.center = d
        return chart, out

    K0 = _rung_one_digits(tw)
    try:
        chart, out = rung(d.head + El(tw, None, None, K0, None), K0 // 2)
        if out.case != TorsorOutcome.UNDECIDED:
            return chart, out
    except FourCoverError:
        pass
    return rung(d.full(), None)


def _rung_one_digits(tw):
    """K0 = 2K, the pi-digits of a center that rung 1 reads, where
    K = floor(e v(tau)) + 1 bounds the chart rows the trichotomy reads."""
    return 2 * (math.floor(tw.e * tw.tau_valuation()) + 1)


def _factored_chart(cover, d, b, N, K=None):
    """The blow-up chart of ``cover`` at (x - d, b), x2^N C(d + b/x2)/C(d),
    in its rows of valuation below K pi-digits, or in every row when K is
    None; row i is the coefficient of x2^(N - i), and N defaults to
    p ceil(deg C / p).  DegenerateModel when C(d) cannot be told from 0.

    C(d + b t)/C(d) = prod_q (1 + (b/(d - q)) t)^a over the cover's
    factors, whether v(q) >= 0 or not, since the constants that
    ``_cover_to_poly`` moves out cancel.  So [t^i] has valuation at least
    i mu, mu = min_q v_pi(b/(d - q)), and the rows i with i mu >= K are
    O(pi^(i mu)).  The rows below, prod_q (d - q + T)^a mod T^k with
    T = b t, come from the binomial theorem and are divided by their row
    0, C(d), the chart's one inverse.
    """
    tw = cover.tw
    D = sum(a for _, a in cover.items)
    if N is None:
        N = tw.p * (-(-D // tw.p))
    if N < D:
        raise InvalidInput("chart degree below deg C")
    alphas = [(d - q, a) for q, a in cover.items]
    if any(alpha.is_zeroish() for alpha, _ in alphas):
        raise DegenerateModel("C(d) is indistinguishable from 0")
    mu = min(b.pival() - alpha.pival() for alpha, _ in alphas)
    k = D + 1 if K is None or mu <= 0 else min(D + 1, -(-K // mu))
    rows = None
    for alpha, a in alphas:
        factor = _binomial_rows(alpha, a, k)
        rows = factor if rows is None else _truncated_product(rows, factor, k)
    coeffs = [tw.zero()] * (N + 1)
    coeffs[N] = tw.one()
    scale = rows[0].inverse()
    for i in range(1, len(rows)):
        scale = scale * b
        coeffs[N - i] = rows[i] * scale
    for i in range(k, D + 1):
        coeffs[N - i] = El(tw, None, None, i * mu, None)
    return BlowupChart(d, b, N, Poly(tw, coeffs))


def _binomial_rows(alpha, a, k):
    """The coefficients of T^j, j < k, in (alpha + T)^a, a >= 1:
    C(a, j) alpha^(a - j).  A binomial coefficient divisible by p, as
    C(p, j) for 0 < j < p, moves its element's pi-shift and window up by
    its valuation (``_times_int``)."""
    top = min(a, k - 1)
    # pw holds alpha^(a - top), ..., alpha^a
    pw = [alpha ** (a - top)] if a > top else [alpha.tw.one(), alpha]
    while len(pw) <= top:
        pw.append(pw[-1] * alpha)
    return [pw[top]] + [_times_int(pw[top - j], math.comb(a, j))
                        for j in range(1, top + 1)]


def _truncated_product(A, B, k):
    """The product of the coefficient lists A and B mod T^k."""
    tw = A[0].tw
    out = [tw.zero()] * min(k, len(A) + len(B) - 1)
    for i, x in enumerate(A):
        for j, y in enumerate(B[:len(out) - i]):
            out[i + j] = out[i + j] + x * y
    return out


def _line_component(cover, moebius, coord, label):
    """A rational component of the Mumford model: the chart of ``cover``
    along ``moebius`` must be purely inseparable."""
    C, notes = _chart_poly(cover, moebius)
    out = _expect(torsor._torsor_outcome(C, Poly(C.tw, [])),
                  TorsorOutcome.INSEPARABLE, label)
    return Component(
        kind="inseparable",
        equation=out.payload.render(),
        genus=0,
        p_rank=0,
        branch_points=2,
        chart=dict(notes, coord=coord, w=str(out.w), label=label),
        payload=out.payload,
    )


# ---------------------------------------------------------------------------
# the routes: center, radius, h, expected genus and edges of each
# ---------------------------------------------------------------------------

def _build_good_1a(n, cover, lam, checks):
    tw = cover.tw
    p = tw.p
    C, _ = _chart_poly(cover)
    # the center is the vertex of g, the midpoint of its roots
    g = _critical_quadratic(n, lam)
    d = -g.c[1] / (g.c[2] * 2)
    b = _radius(tw, Rational(p, 3 * (p - 1)))
    # sufficiency bookkeeping: v(f'(d)) >= v(b^2), v(f''(d)) >= v(b^2)
    C1 = C.deriv()
    vd1 = C1.eval(d)
    vd2 = C1.deriv().eval(d)
    vb2 = (b * b).valuation()
    checks.append(_check("good-1a-derivative-depths",
                         (vd1.is_zeroish() or vd1.valuation() >= vb2)
                         and (vd2.is_zeroish() or vd2.valuation() >= vb2),
                         "v(f'(d))=%s, v(f''(d))=%s, v(b^2)=%s"
                         % (_vstr(vd1), _vstr(vd2), vb2)))
    comp = _artin_schreier(*_blowup_trichotomy(cover, None, d, b, None),
                           p - 1, "good-1a chart")
    checks.append(_check("good-1a-lemma-hh", lemma_hh_check(comp.chart.poly),
                         "v(x^N - chart) = v(tau)"))
    if comp.p_rank != 0:
        raise ConstructionMismatch("type 1a must have p-rank 0")
    # loop closure: one wild branch point of conductor-order 3
    orders = [(order, deg) for _, order, deg in comp.payload.profile]
    checks.append(_check("good-1a-pole-profile",
                         max(o for o, _ in orders) == 3
                         and sum(d for _, d in orders) == 1,
                         "single pole of order 3 gives genus p-1"))
    return [comp], []


def _build_via_1b(n, cover, lam, checks):
    tw = cover.tw
    p = tw.p
    # the centers solve g/g2 = x^2 + Bc x + Cc by the quadratic formula:
    # the two critical disks may share a residue, where Hensel fails
    g0, g1, g2 = _critical_quadratic(n, lam).c
    inv = g2.inverse()
    Bc, Cc = g1 * inv, g0 * inv
    disc = Bc * Bc - Cc * 4
    if disc.is_zeroish():
        raise InsufficientPrecision("critical discriminant indistinguishable from 0")
    sq = tw.sqrt(disc)
    inv2 = tw.from_rational(Rational(1, 2))
    centers = [(-Bc + sq) * inv2, (-Bc - sq) * inv2]
    v_sep = (centers[0] - centers[1]).valuation()
    comps = []
    for i, d in enumerate(centers):
        # C'/C = g/(x(x-1)(x-lam)), so at a root d of g
        # v(C''(d)) - v(C(d)) = v(g'(d)) - v(d) - v(d-1) - v(d-lam)
        dg = g2 * d * 2 + g1
        if dg.is_zeroish():
            raise ConstructionMismatch("degenerate second derivative at a center")
        v2 = (dg.valuation() - d.valuation() - (d - 1).valuation()
              - (d - lam).valuation())
        vb = (tw.tau_valuation() - v2) / 2
        b = _radius(tw, vb)
        if not v_sep < vb:
            raise ConstructionMismatch("critical disks are not separated")
        comps.append(_artin_schreier(*_blowup_trichotomy(cover, None, d, b, None),
                                     (p - 1) // 2, "type-3 chart %d (v(lam)=0)" % i))
    # a record, not a test: the loop above raised unless the centers lie
    # farther apart than each disk's radius, v_sep < v(b)
    checks.append(_check("via-1b-distinct-disks", True,
                         "two separated critical disks"))
    return comps, [(0, 1, 1)]


def _build_via_2a(n, cover, lam, checks):
    tw = cover.tw
    p = tw.p
    b = _radius(tw, Rational(p, 2 * (p - 1)))
    inner, _ = cover.moebius_pullback(Moebius(lam, tw.zero(), tw.zero(), tw.one()))
    # the critical points on the disk of radius lam are the roots of
    # g(lam x)/lam = lam g2 x^2 + g1 x + 1
    g = _critical_quadratic(n, lam)
    g_inner = Poly(tw, [tw.one(), g.c[1], lam * g.c[2]])
    comps = []
    for cvr, S, tag in ((cover, g, "unit disk"),
                        (inner, g_inner, "disk of radius lam")):
        [d] = _lift_centers(S, _integral_branch_residues(cvr), 1, tag)
        comps.append(_artin_schreier(*_blowup_trichotomy(cvr, None, d, b, None),
                                     (p - 1) // 2, "type-3 chart on the %s" % tag,
                                     _chart_notes(cvr)))
    # a record, not a test: _lift_centers raised unless each disk has
    # exactly one simple critical residue root
    checks.append(_check("via-2a-centers", True,
                         "one critical point per separated disk"))
    return comps, [(0, 1, 1)]


def _build_good_1b(n, cover, lam, checks):
    tw = cover.tw
    p = tw.p
    C, notes = _chart_poly(cover, Moebius(tw.tau(), tw.zero(), tw.zero(), tw.one()))
    # C is not monic, so the trichotomy runs without the chart checks
    out = torsor._torsor_outcome(C, _xp_witness(C, "smooth 1b model"))
    chart = BlowupChart(None, None, C.degree, C, coord="x0/tau", notes=notes)
    comp = _artin_schreier(chart, out, p - 1, "smooth model at x0/tau")
    if comp.branch_points != 2 or comp.p_rank != p - 1:
        raise ConstructionMismatch(
            "type 1b must have 2 branch points and p-rank p-1, got %d/%d"
            % (comp.branch_points, comp.p_rank))
    # a record, not a test: the raise above enforced two branch points
    checks.append(_check("good-1b-two-branch-points", True,
                         "special fiber branched at exactly two points"))
    return [comp], []


def _build_mumford_2(n, cover, lam, checks):
    tw = cover.tw
    p = tw.p
    comps = [
        _line_component(cover, None, "x0", "outer line (unit disk)"),
        _line_component(cover, Moebius(tw.zero(), lam, tw.one(), tw.zero()),
                        "lam/x0", "inner line (disk around the cluster {0, lam})"),
    ]
    # the annulus between them splits into p sheets: certify w > v(tau)
    C, _ = _chart_poly(cover, Moebius(tw.sqrt(lam), tw.zero(), tw.zero(), tw.one()))
    out = _expect(torsor._torsor_outcome(C, _xp_witness(C, "annulus model")),
                  TorsorOutcome.SPLIT, "annulus model")
    # a record, not a test: _expect raised unless the annulus chart split
    checks.append(_check("mumford-annulus-splits", True,
                         "v(h^p - annulus equation) = %s > v(tau) = %s"
                         % (out.w, tw.tau_valuation())))
    return comps, [(0, 1, p)]


def _build_via_2b3(n, cover, lam, checks, subcase):
    tw = cover.tw
    p = tw.p
    mu = tw.sqrt(lam)
    # symmetrized coordinate x0 = mu x1 / (1 - x1); the constant of the
    # pulled-back equation cancels in every chart and is dropped
    moved, _ = cover.moebius_pullback(Moebius(mu, tw.zero(), -tw.one(), tw.one()))
    F, _ = _cover_to_poly(moved)
    if F.degree != 2 * p or not F.c[-1].same(tw.one()):
        raise ConstructionMismatch("symmetrized equation is not monic of degree 2p")
    h = Poly(tw, [tw.zero(), -tw.one(), tw.one()])  # x(x-1)
    T0, S = _critical_2b3(F, h, mu, subcase)
    tbar = [tw.ff.neg(c) for c in T0.residue_poly()]
    checks.append(_check("2b3-inseparable-intermediate",
                         not is_pth_power(tw.ff, tbar),
                         "t(x1) = -((h^p-F)/lambda^(1/2))~ not a p-th power"))
    b = _radius(tw, (tw.tau_valuation() - mu.valuation()) / 2)
    want = 2 if (n.beta + 1) % p else 1
    if subcase == VIA_2B3_I:
        S = _level_quotient(_log_derivative_numerator(moved), mu, "F'")
    centers = _lift_centers(S, _integral_branch_residues(moved), want,
                            "symmetrized line")
    if want == 2:
        charts = [(moved, h, d, "x1 chart %d" % i) for i, d in enumerate(centers)]
    else:
        # the second singular point is at infinity: flip y = 1/x1 and
        # lift its residue root 0, which hensel_root requires to be simple
        hs = h.reverse(2)
        flipped, _ = moved.moebius_pullback(
            Moebius(tw.zero(), tw.one(), tw.one(), tw.zero()))
        if subcase == VIA_2B3_I:
            Ss = _level_quotient(_log_derivative_numerator(flipped), mu, "F'")
        else:
            _, Ss = _critical_2b3(F.reverse(2 * p), hs, mu, subcase)
        charts = [(moved, h, centers[0], "x1 finite chart"),
                  (flipped, hs, hensel_root(Ss, 0, _rung_one_digits(tw)),
                   "1/x1 chart")]
    comps = []
    for cvr, hc, d, coord in charts:
        # sub-case i certifies with x2^2; sub-case ii carries h through
        # the blow-up: x2^2 h(d + b/x2)/h(d), which for the quadratic h is
        # x2^2 + b h'(d)/h(d) x2 + b^2/h(d), while the flipped (degree-1)
        # h correctly loses the constant
        comps.append(_artin_schreier(
            *_blowup_trichotomy(cvr, None if subcase == VIA_2B3_I else hc, d, b, 2 * p),
            (p - 1) // 2, "2b3 %s chart at %s" % (subcase, coord), {"coord": coord}))
    return comps, [(0, 1, 1)]


def _level_quotient(P, mu, what):
    """P / lambda^(1/2), once v(P) = v(lambda^(1/2)) is checked."""
    v = P.gauss_valuation()
    if v != mu.valuation():
        raise ConstructionMismatch("v(%s) = %s, expected v(lambda^(1/2)) = %s"
                                   % (what, v, mu.valuation()))
    return P.divexact_el(mu)


def _critical_2b3(F, h, mu, subcase):
    """(T0, S) for z^p = F with witness h: T0 = (h^p - F)/mu, and S = T0',
    whose roots are the centers of sub-case ii.  S is None for sub-case i,
    which lifts its centers from G/mu, G of ``_log_derivative_numerator``
    of degree at most 3, not from F'/mu of degree 2p - 1.
    h is x(x - 1), whose h^p = x^p (x - 1)^p, or its flip 1 - x, whose
    (1 - x)^p is (x - 1)^p read backwards; (x - 1)^p comes from the
    binomial theorem."""
    tw = F.tw
    rows = _binomial_rows(-tw.one(), tw.p, tw.p + 1)
    hp = Poly(tw, [tw.zero()] * tw.p + rows if h.degree == 2 else rows[::-1])
    T0 = _level_quotient(hp - F, mu, "h^p - F")
    return T0, (None if subcase == VIA_2B3_I else T0.deriv())


def _log_derivative_numerator(cover):
    """G, whose roots off the branch points are the critical points of F,
    the C of ``_cover_to_poly(cover)``: a cubic for four finite branch
    points, where F' has degree 2p - 1.

    F = prod L_j^a_j over the unit-content linear factors L_j that
    ``_cover_to_poly`` expands (x - q, or 1 - x/q when v(q) < 0), so
    F' = F sum a_i L_i'/L_i = prod L_j^(a_j - 1) G with
    G = sum_i a_i L_i' prod_(j != i) L_j.  By Gauss's lemma v(G) = v(F'),
    and the other factor is a unit off the branch residues: G has the
    simple residue roots of F' there, and Hensel's root in each of their
    disks is the same.
    """
    tw = cover.tw
    lines = []   # (L, a L')
    for q, a in cover.items:
        v = q.valuation()
        if v is INF or v >= 0:
            lines.append((Poly(tw, [-q, tw.one()]), tw.from_int(a)))
        else:
            d = -q.inverse()
            lines.append((Poly(tw, [tw.one(), d]), _times_int(d, a)))
    G = Poly(tw, [])
    for i, (_, da) in enumerate(lines):
        term = Poly(tw, [da])
        for j, (L, _) in enumerate(lines):
            if j != i:
                term = term * L
        G = G + term
    return G


# ---------------------------------------------------------------------------
# assembly, verification, applications
# ---------------------------------------------------------------------------

def _vstr(el):
    v = el.valuation() if not el.is_zeroish() else INF
    return "inf" if v is INF else str(v)


def _check(name, passed, detail):
    return {"name": name, "passed": bool(passed), "detail": detail}


_BUILDERS = {
    (TYPE_1A, None): _build_good_1a,
    (TYPE_1B, None): _build_good_1b,
    (TYPE_2, None): _build_mumford_2,
    (TYPE_3, VIA_1B): _build_via_1b,
    (TYPE_3, VIA_2A): _build_via_2a,
    (TYPE_3, VIA_2B3_I): partial(_build_via_2b3, subcase=VIA_2B3_I),
    (TYPE_3, VIA_2B3_II): partial(_build_via_2b3, subcase=VIA_2B3_II),
}


def build_stable_model(n, cls=None):
    """Construct and certify the stable model of a normalized cover.

    Every route works on the standard cover x(x-1)^beta(x-lam)^gamma over
    the tower that ``required_extension`` asks for."""
    if cls is None:
        cls = classify(n)
    spec = required_extension(n, cls)
    big = Tower(n.p, spec.e, spec.f, prec=max(n.tower.nl - 2, 12) * spec.e)
    lam = n.tower.embed(n.lam, big)
    cover = FactoredCover(big, big.one(), [
        (big.zero(), 1), (big.one(), n.beta), (lam, n.gamma)])
    checks = []
    comps, edges = _BUILDERS[(cls.rtype, cls.subroute)](n, cover, lam, checks)
    model = StableModel(cls, comps, edges, spec, checks, normalized=n)
    model.checks.extend(verify_model(model))
    for c in model.checks:
        if not c["passed"]:
            raise ConstructionMismatch("model check failed: %s (%s)"
                                       % (c["name"], c["detail"]))
    return model


def verify_model(m):
    """Re-check every structural invariant; returns check records."""
    p = m.normalized.p if m.normalized else None
    checks = []
    total = m.genus_total()
    checks.append(_check(
        "genus-conservation", total == p - 1,
        "sum of genera + Betti = %d, expected p-1 = %d" % (total, p - 1)))
    for i, c in enumerate(m.components):
        if c.kind == "artin_schreier":
            g = as_genus(c.payload)
            checks.append(_check(
                "component-%d-genus-oracle" % i, g == c.genus,
                "conductor oracle gives %d, stored %d" % (g, c.genus)))
            checks.append(_check(
                "component-%d-p-rank" % i,
                c.p_rank == p_rank_DS(p, c.branch_points),
                "Deuring-Shafarevich from %d branch points" % c.branch_points))
            checks.append(_check(
                "component-%d-genus-multiple" % i,
                c.genus % ((p - 1) // 2) == 0,
                "positive genus is a multiple of (p-1)/2"))
        else:
            checks.append(_check(
                "component-%d-genus-zero" % i, c.genus == 0,
                "line / inseparable components are rational"))
    t = m.classification.rtype
    if t in (TYPE_1A, TYPE_1B):
        ok = len(m.components) == 1 and not m.edges
        checks.append(_check("shape-good", ok, "single smooth component"))
        want_rank = 0 if t == TYPE_1A else p - 1
        checks.append(_check("good-p-rank",
                             m.components[0].p_rank == want_rank,
                             "p-rank %d expected" % want_rank))
    elif t == TYPE_2:
        ok = (len(m.components) == 2
              and all(c.genus == 0 for c in m.components)
              and len(m.edges) == 1 and m.edges[0][2] == p)
        checks.append(_check("shape-mumford", ok,
                             "two rational components meeting in p points"))
        checks.append(_check("mumford-stability", p >= 3,
                             "rational components meet in p >= 3 points"))
        checks.append(_check("mumford-betti", m.betti() == p - 1,
                             "Betti number %d" % m.betti()))
    elif t == TYPE_3:
        ok = (len(m.components) == 2
              and all(c.genus == (p - 1) // 2 for c in m.components)
              and len(m.edges) == 1 and m.edges[0][2] == 1)
        checks.append(_check("shape-two-components", ok,
                             "two genus-(p-1)/2 components, one node"))
    return checks


def check_qwerty(tower, c1, c2):
    """The application cover z^p = (x-c1)^(p-1)(x+c1)(x-c2)^(p-1)(x+c2).

    Classifies it and asserts the type is never 1a.  Returns
    (classification, normalized cover, report)."""
    p = tower.p
    if p <= 3:
        raise UnsupportedPrime("the application requires p > 3")
    datum = CoverDatum(tower, [c1, -c1, c2, -c2], [p - 1, 1, p - 1, 1])
    n = normalize(datum)
    cls = classify(n)
    report = [_check("not-good-1a", cls.rtype != TYPE_1A,
                     "classified as %s" % cls)]
    if cls.rtype == TYPE_1A:
        raise ConstructionMismatch(
            "the application cover classified as 1a; this contradicts "
            "the impossibility argument")
    return cls, n, report


def deuring_good_reduction(lam):
    """Potentially good reduction of y^2 = x(x-1)(x-lam) at p = 2:
    true iff v(j(E)) >= 0 for j = 2^8 (lam^2-lam+1)^3 / (lam^2 (lam-1)^2)."""
    if lam.tw.p != 2:
        raise UnsupportedPrime("the Deuring criterion lives at p = 2")
    return deuring_j_valuation(lam) >= 0


def deuring_j_valuation(lam):
    """v(j(E)), INF when j = 0; lam in {0, 1}, where the curve
    degenerates and v(lam) or v(lam - 1) is infinite, is an InvalidInput."""
    tw = lam.tw
    one = tw.one()
    if lam.is_zeroish() or lam.same(one):
        raise InvalidInput("lambda must avoid {0, 1}")
    num = lam * lam - lam + one
    if num.is_zeroish():
        return INF
    return 8 + 3 * num.valuation() - 2 * lam.valuation() - 2 * (lam - one).valuation()
