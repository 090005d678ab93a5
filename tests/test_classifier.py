import gc
import math
import random
import weakref
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from fourcover.errors import (
    UnsupportedPrime, FourCoverError, InsufficientPrecision, InvalidInput,
)
from fourcover.ffield import peval, pderiv, pnormalize, proots
from fourcover.tower import make_tower, hensel_root, El, Poly, INF
from fourcover.normalizer import (
    CoverDatum, FactoredCover, INFPT, Moebius, normalize,
)
from fourcover.classifier import (
    classify, required_extension, build_stable_model, verify_model,
    check_qwerty, deuring_good_reduction, deuring_j_valuation,
    Classification, TYPE_1A, TYPE_1B, TYPE_2, TYPE_3,
    VIA_1B, VIA_2A, VIA_2B3_I, VIA_2B3_II,
    _chart_poly, _cover_to_poly, _critical_2b3, _critical_quadratic,
    _blowup_trichotomy, _factored_chart, _integral_branch_residues,
    _log_derivative_numerator,
)
from fourcover import classifier, cli, torsor, tower as tower_module
from fourcover.torsor import TorsorOutcome
from fourcover.normalizer import cross_ratio_orbit


def tower_for(p, levels=30):
    return make_tower(p, p - 1, 1, levels * (p - 1))


def norm(tw, beta, gamma, lam):
    p = tw.p
    d = CoverDatum(tw, [tw.zero(), tw.one(), INFPT, lam],
                   [1, beta, (-(1 + beta + gamma)) % p, gamma])
    return normalize(d)


class TestClassify:
    def test_good_1a(self):
        tw = tower_for(7)
        n = norm(tw, 1, 1, tw.from_int(3))
        assert classify(n) == Classification(TYPE_1A)

    def test_good_1b(self):
        tw = tower_for(5)
        n = norm(tw, 1, 4, tw.tau() ** 2)
        assert classify(n) == Classification(TYPE_1B)

    def test_mumford(self):
        tw = tower_for(5)
        n = norm(tw, 1, 4, tw.from_int(125))
        assert classify(n) == Classification(TYPE_2)

    def test_type3_2a(self):
        tw = tower_for(5)
        n = norm(tw, 2, 1, tw.from_int(5))
        assert classify(n) == Classification(TYPE_3, VIA_2A)

    def test_p3_unit_lambda(self):
        tw = tower_for(3)
        n = norm(tw, 1, 2, tw.from_int(2))
        assert classify(n) == Classification(TYPE_3, VIA_1B)

    def test_p2_unsupported(self):
        tw = tower_for(5)
        n = norm(tw, 1, 4, tw.tau() ** 2)
        n.p = 2
        with pytest.raises(UnsupportedPrime):
            classify(n)
        n.p = 5

    def test_boundary_exactness(self):
        tw = tower_for(5, levels=40)
        t2 = tw.tau() ** 2
        assert classify(norm(tw, 1, 4, t2 * (tw.one() + tw.pi()))).rtype == TYPE_1B
        assert classify(norm(tw, 1, 4, t2 * tw.pi())).rtype == TYPE_2
        assert classify(norm(tw, 1, 4, t2 / tw.pi())) == \
            Classification(TYPE_3, VIA_2B3_II)

    def test_2b3_subroute_split(self):
        tw = tower_for(5)
        # v(lam)/2 <= (p-2)/(p-1) = 3/4  <=>  v(lam) <= 3/2
        assert classify(norm(tw, 1, 4, tw.from_int(5))).subroute == VIA_2B3_I
        assert classify(norm(tw, 1, 4, tw.from_int(25))).subroute == VIA_2B3_II


class TestRequiredExtension:
    def test_1a_e18(self):
        tw = tower_for(7)
        n = norm(tw, 1, 1, tw.from_int(3))
        spec = required_extension(n, classify(n))
        assert spec.e == 18
        assert "tau^(1/3)" in spec.tokens

    def test_2a_e8(self):
        tw = tower_for(5)
        n = norm(tw, 2, 1, tw.from_int(5))
        spec = required_extension(n, classify(n))
        assert spec.e == 8
        assert "tau^(1/2)" in spec.tokens

    def test_1b_no_extra(self):
        tw = tower_for(5)
        n = norm(tw, 1, 4, tw.tau() ** 2)
        spec = required_extension(n, classify(n))
        assert spec.e == 4
        assert spec.tokens == ["tau"]


class TestModels:
    def test_good_1b_model(self):
        tw = tower_for(5)
        n = norm(tw, 1, 4, tw.tau() ** 2)
        m = build_stable_model(n)
        assert len(m.components) == 1 and not m.edges
        c = m.components[0]
        assert (c.genus, c.p_rank, c.branch_points) == (4, 4, 2)

    def test_mumford_model(self):
        tw = tower_for(5)
        n = norm(tw, 1, 4, tw.from_int(125))
        m = build_stable_model(n)
        assert [c.genus for c in m.components] == [0, 0]
        assert m.edges == [(0, 1, 5)]
        assert m.betti() == 4

    def test_2a_model(self):
        tw = tower_for(5)
        n = norm(tw, 2, 1, tw.from_int(5))
        m = build_stable_model(n)
        assert [c.genus for c in m.components] == [2, 2]
        assert m.edges == [(0, 1, 1)]

    def test_1a_model(self):
        tw = tower_for(7)
        n = norm(tw, 1, 1, tw.from_int(3))
        m = build_stable_model(n)
        c = m.components[0]
        assert (c.genus, c.p_rank, c.branch_points) == (6, 0, 1)
        assert any(ch["name"] == "good-1a-lemma-hh" and ch["passed"]
                   for ch in m.checks)

    def test_via_1b_model(self):
        tw = tower_for(7)
        n = norm(tw, 1, 1, tw.from_int(2))  # j-numerator a unit here
        cls = classify(n)
        assert cls == Classification(TYPE_3, VIA_1B)
        m = build_stable_model(n, cls)
        assert [c.genus for c in m.components] == [3, 3]

    def test_via_1b_deep_disc(self):
        # lam with residue 3 mod 7 kills the j-numerator residue
        # (lam^2 - lam + 1 = 0 there), and the pi-perturbation keeps its
        # valuation fractional: the two critical points collide mod pi
        tw = tower_for(7, levels=40)
        lam = tw.from_int(3) + tw.pi()
        n = norm(tw, 1, 1, lam)
        from fourcover.normalizer import j_numerator
        vnum = j_numerator(n).valuation()
        assert vnum == Fraction(1, 6)
        cls = classify(n)
        assert cls == Classification(TYPE_3, VIA_1B)
        m = build_stable_model(n, cls)
        assert [c.genus for c in m.components] == [3, 3]

    def test_2b3_flip_beta_p_minus_1(self):
        tw = tower_for(5)
        n = norm(tw, 4, 4, tw.from_int(5))
        cls = classify(n)
        assert cls.subroute == VIA_2B3_I
        m = build_stable_model(n, cls)
        assert [c.genus for c in m.components] == [2, 2]

    def test_2b3_flip_deep_subcase_ii(self):
        # beta = p-1 and v(lambda^(1/2)) > 1: the flipped equation has
        # degree 2p-1 and its transported h loses the constant term
        for p, k in [(3, 5), (5, 9)]:
            tw = tower_for(p, levels=24)
            n = norm(tw, p - 1, p - 1, tw.pi_power(k))
            cls = classify(n)
            assert cls.subroute == VIA_2B3_II
            m = build_stable_model(n, cls)
            assert [c.genus for c in m.components] == [(p - 1) // 2] * 2

    def test_2b3_subcase_boundary_agreement(self):
        # at v(lam^(1/2)) = (p-2)/(p-1) both constructions apply and agree
        tw = make_tower(5, 4, 1, 36 * 4)
        lam = tw.pi_power(6)  # v = 3/2, half = 3/4 = (p-2)/(p-1)
        n = norm(tw, 1, 4, lam)
        cls = classify(n)
        assert cls.subroute == VIA_2B3_I
        m1 = build_stable_model(n, cls)
        m2 = build_stable_model(n, Classification(TYPE_3, VIA_2B3_II))
        assert [c.genus for c in m1.components] == [c.genus for c in m2.components]
        assert [c.p_rank for c in m1.components] == [c.p_rank for c in m2.components]

    def test_unramified_extension_for_sqrt(self):
        # sqrt(7) needs F_49: the unit part of 7 = -pi^6 has residue -1,
        # a non-square mod 7
        tw = tower_for(7)
        n = norm(tw, 1, 6, tw.from_int(7))
        cls = classify(n)
        spec = required_extension(n, cls)
        assert (spec.e, spec.f) == (6, 2)
        m = build_stable_model(n, cls)
        assert [c.genus for c in m.components] == [3, 3]
        assert m.extension.f == 2

    def test_unramified_extension_for_disc(self):
        # beta = gamma = 1, lam = 2: j-numerator 12 has residue 2, a
        # non-square mod 5, so the critical points live over F_25
        tw = tower_for(5)
        n = norm(tw, 1, 1, tw.from_int(2))
        cls = classify(n)
        spec = required_extension(n, cls)
        assert spec.f == 2
        m = build_stable_model(n, cls)
        assert [c.genus for c in m.components] == [2, 2]

    def test_genus_conservation_sample(self):
        rng = random.Random(19)
        for p in (3, 5, 7):
            tw = tower_for(p, levels=24)
            done = 0
            while done < 6:
                beta = rng.randrange(1, p)
                gamma = rng.randrange(1, p)
                if math.gcd(1 + beta + gamma, p) != 1:
                    continue
                lam = tw.from_int(rng.choice([2, 3, p, p * p, -1, p ** 3]))
                if lam.same(tw.one()) or lam.is_zeroish():
                    continue
                try:
                    n = norm(tw, beta, gamma, lam)
                except FourCoverError:
                    continue
                m = build_stable_model(n)
                assert m.genus_total() == p - 1
                done += 1


def state(el):
    return el.s, el.U, el.ap, el.exact


def residue_center_roots(S, exclude):
    """The residue-root filter that ``_lift_centers`` replaced: the simple
    residue roots of S off ``exclude``."""
    ff = S.tw.ff
    rbar = S.residue_poly()
    assert pnormalize(rbar)
    roots = [r for r in proots(ff, rbar) if r not in exclude]
    der = pderiv(ff, rbar)
    return [r for r in roots if peval(ff, der, r) != 0]


def model_cover(n, big):
    """lam and the standard cover in ``big``, as ``build_stable_model``
    makes them."""
    lam = n.tower.embed(n.lam, big)
    return lam, FactoredCover(big, big.one(), [
        (big.zero(), 1), (big.one(), n.beta), (lam, n.gamma)])


def derivative_centers_2a(n, big):
    """The via-2a centers as they were found before the critical quadratic:
    on the unit disk and on the disk of radius lam, the Hensel lift of the
    one simple residue root of C' off the branch residues."""
    lam, cover = model_cover(n, big)
    inner, _ = cover.moebius_pullback(Moebius(lam, big.zero(), big.zero(), big.one()))
    centers = []
    for cvr in (cover, inner):
        S = _chart_poly(cvr)[0].deriv()
        [r] = residue_center_roots(S, _integral_branch_residues(cvr))
        centers.append(hensel_root(S, r))
    return centers


def symmetrized_cover(n, big):
    """mu = lam^(1/2) and the cover in the symmetrized coordinate
    x0 = mu x1/(1 - x1), as ``_build_via_2b3`` makes them."""
    lam, cover = model_cover(n, big)
    mu = big.sqrt(lam)
    moved, _ = cover.moebius_pullback(Moebius(mu, big.zero(), -big.one(), big.one()))
    return mu, moved


def derivative_quotient(F, mu):
    """F'/mu, the 2b3 sub-case i critical polynomial before the cover's
    logarithmic derivative, at the level that ``_level_quotient`` checks."""
    D = F.deriv()
    assert D.gauss_valuation() == mu.valuation()
    return D.divexact_el(mu)


def all_roots_flipped_center(n, big, subcase):
    """The flipped 2b3 center as it was found before: lift every simple
    residue root of the flipped critical polynomial (Fs'/mu in sub-case
    i, T0' in sub-case ii) off the flipped branch residues, then keep the
    one lift with residue 0."""
    p = n.p
    mu, moved = symmetrized_cover(n, big)
    F, _ = _cover_to_poly(moved)
    Fs = F.reverse(2 * p)
    if subcase == VIA_2B3_I:
        Ss = derivative_quotient(Fs, mu)
    else:
        h = Poly(big, [big.zero(), -big.one(), big.one()])
        _, Ss = _critical_2b3(Fs, h.reverse(2), mu, subcase)
    flip_res = {big.ff.inv(x) for x in _integral_branch_residues(moved) if x}
    lifted = [hensel_root(Ss, r)
              for r in sorted(residue_center_roots(Ss, flip_res))]
    [d] = [d for d in lifted if d.residue() == 0]
    return d


def derivative_centers_2b3_i(n, big):
    """The 2b3 sub-case i centers as they were lifted before the cover's
    logarithmic derivative, cut where ``_lift_centers`` cuts: the finite
    ones from F'/mu of degree 2p - 1, and for beta = p - 1 the flipped one
    from the residue root 0 of Fs'/mu, Fs = x^(2p) F(1/x)."""
    p = n.p
    mu, moved = symmetrized_cover(n, big)
    F, _ = _cover_to_poly(moved)
    cut = classifier._rung_one_digits(big)
    S = derivative_quotient(F, mu)
    roots = sorted(residue_center_roots(S, _integral_branch_residues(moved)))
    assert len(roots) == (2 if (n.beta + 1) % p else 1)
    centers = [hensel_root(S, r, cut) for r in roots]
    if len(roots) == 1:
        centers.append(hensel_root(derivative_quotient(F.reverse(2 * p), mu), 0, cut))
    return centers


@st.composite
def positive_tokens(draw, p, max_pi):
    """A lambda token u/w * pi^k, u/w * p^k or u/w * tau^k of positive
    valuation, with p prime to u and w."""
    unit = st.integers(1, 40).filter(lambda u: u % p)
    power = draw(st.one_of(
        st.integers(1, max_pi).map(lambda k: "pi^%d" % k),
        st.integers(1, 3).map(lambda k: "%d^%d" % (p, k)),
        st.integers(1, 2).map(lambda k: "tau^%d" % k)))
    sign = draw(st.sampled_from(["", "-"]))
    return "%s%d/%d*%s" % (sign, draw(unit), draw(unit), power)


def second_derivative_radius(n, center):
    """The via-1b radius valuation as it was found before the critical
    quadratic's derivative: (v(tau) - v(C''(d)) + v(C(d)))/2 from the
    expanded chart polynomial C and its second derivative."""
    big = center.tw
    _, cover = model_cover(n, big)
    C = _chart_poly(cover)[0]
    return (big.tau_valuation() - C.deriv().deriv().eval(center).valuation()
            + C.eval(center).valuation()) / 2


@st.composite
def via_1b_covers(draw):
    # a unit lambda u/w away from 0 and 1 mod p, or a pi-perturbation of a
    # residue where the critical quadratic's discriminant vanishes, so that
    # the two critical points collide mod pi and g'(d) is not a unit;
    # classify decides which of them go through via-1b
    p = draw(st.sampled_from([5, 7, 11, 13]))
    beta = draw(st.integers(1, p - 1))
    gamma = draw(st.integers(1, p - 1))
    assume((1 + beta + gamma) % p)
    tw = tower_for(p, levels=40)
    deep = [r for r in range(2, p) if ((r * (beta + 1) + gamma + 1) ** 2
                                       - 4 * (1 + beta + gamma) * r) % p == 0]
    if deep and draw(st.booleans()):
        lam = (tw.from_int(draw(st.sampled_from(deep)))
               + tw.pi_power(draw(st.integers(1, p - 2))))
    else:
        unit = st.integers(1, 60).filter(lambda u: u % p)
        lam = tw.parse("%d/%d" % (draw(unit), draw(unit)))
    assume(lam.residue() not in (0, 1))
    return norm(tw, beta, gamma, lam)


@st.composite
def via_2a_covers(draw):
    p = draw(st.sampled_from([3, 5, 7, 11]))
    pairs = [(b, g) for b in range(1, p) for g in range(1, p - 1)
             if (1 + b + g) % p]
    beta, gamma = draw(st.sampled_from(pairs))
    tw = tower_for(p, levels=24)
    return norm(tw, beta, gamma, tw.parse(draw(positive_tokens(p, 3 * (p - 1)))))


@st.composite
def flipped_2b3_covers(draw):
    # beta = gamma = p - 1 and 0 < v(lam) < v(tau^2) = 2p/(p-1)
    p = draw(st.sampled_from([3, 5, 7]))
    tw = tower_for(p, levels=24)
    lam = tw.parse(draw(positive_tokens(p, 2 * p - 1)))
    assume(lam.valuation() < 2 * tw.tau_valuation())
    return norm(tw, p - 1, p - 1, lam)


@st.composite
def via_2b3_i_covers(draw):
    # gamma = p - 1 and 0 < v(lam)/2 <= (p - 2)/(p - 1); beta = p - 1 puts
    # the second center at infinity, in the flipped chart
    p = draw(st.sampled_from([3, 5, 7]))
    beta = draw(st.sampled_from([p - 1, 1, p - 2]))
    tw = tower_for(p, levels=24)
    lam = tw.parse(draw(positive_tokens(p, 2 * (p - 2))))
    n = norm(tw, beta, p - 1, lam)
    assume(classify(n) == Classification(TYPE_3, VIA_2B3_I))
    return n


class TestRemovedCenterRoutes:
    """Each center or radius route that the critical quadratic and
    ``_lift_centers`` replaced, kept as the reference for the charts the
    models carry."""

    @settings(max_examples=25, deadline=None)
    @given(via_1b_covers())
    def test_via_1b_radius_matches_the_second_derivative(self, n):
        assume(classify(n) == Classification(TYPE_3, VIA_1B))
        m = build_stable_model(n)
        for c in m.components:
            got = c.chart.radius.valuation()
            assert got == second_derivative_radius(n, c.chart.center.full())

    @settings(max_examples=40, deadline=None)
    @given(via_2a_covers())
    def test_via_2a_centers_match_the_derivative_lift(self, n):
        assume(classify(n) == Classification(TYPE_3, VIA_2A))
        m = build_stable_model(n)
        got = [c.chart.center.full() for c in m.components]
        want = derivative_centers_2a(n, got[0].tw)
        assert [state(d) for d in got] == [state(d) for d in want]

    @settings(max_examples=25, deadline=None)
    @given(flipped_2b3_covers())
    def test_flipped_2b3_center_matches_the_all_roots_lift(self, n):
        cls = classify(n)
        assume(cls.subroute in (VIA_2B3_I, VIA_2B3_II)
               and n.beta == n.gamma == n.p - 1)
        m = build_stable_model(n, cls)
        got = m.components[1].chart.center.full()
        want = all_roots_flipped_center(n, got.tw, cls.subroute)
        assert state(got) == state(want)

    @settings(max_examples=30, deadline=None)
    @given(via_2b3_i_covers())
    def test_2b3_i_centers_match_the_derivative_lift(self, n):
        m = build_stable_model(n)
        assert m.extension.f <= 2
        got = [c.chart.center for c in m.components]
        want = derivative_centers_2b3_i(n, got[0].head.tw)
        assert [d.ap for d in got] == [d.ap for d in want]
        assert [state(d.full()) for d in got] == [state(d.full()) for d in want]


class TestClosedFormIdentities:
    """The generic pullback machinery must reproduce the closed forms the
    per-case constructions are based on."""

    def test_symmetrized_equation(self):
        # x0 = mu x1/(1-x1) turns x0(x0-1)^beta (x0-lam)^(p-1) into
        # x1 (x1-eps)^(p-1) (x1-1)^(p-beta) (x1-1+eps)^beta, eps = mu/(1+mu)
        from fourcover.normalizer import Moebius, FactoredCover
        from fourcover.classifier import _cover_to_poly
        from fourcover.tower import Poly
        for p, beta, f in [(5, 1, 1), (5, 3, 1), (7, 2, 2)]:
            tw = make_tower(p, 2 * (p - 1), f, 30 * 2 * (p - 1))
            lam = tw.from_int(p)
            mu = tw.sqrt(lam)
            eps = mu / (tw.one() + mu)
            cover = FactoredCover(tw, tw.one(), [
                (tw.zero(), 1), (tw.one(), beta), (lam, p - 1)])
            moved, _ = cover.moebius_pullback(
                Moebius(mu, tw.zero(), -tw.one(), tw.one()))
            F, _ = _cover_to_poly(moved)
            expect = Poly(tw, [tw.zero(), tw.one()]) \
                * Poly(tw, [-eps, tw.one()]) ** (p - 1) \
                * Poly(tw, [-tw.one(), tw.one()]) ** (p - beta) \
                * Poly(tw, [eps - tw.one(), tw.one()]) ** beta
            assert F.degree == 2 * p == expect.degree
            for i in range(2 * p + 1):
                assert F.coeff(i) == expect.coeff(i)

    def test_intermediate_inseparable_equation(self):
        # -((h^p - F)/lam^(1/2))~ = (x-1)^(p-1) x^(p-1) ((beta+1)x - 1)
        from fourcover.normalizer import Moebius, FactoredCover
        from fourcover.classifier import _cover_to_poly
        from fourcover.tower import Poly
        from fourcover.ffield import pmul, ppow
        for p, beta, f in [(5, 1, 1), (5, 2, 1), (7, 3, 2)]:
            tw = make_tower(p, 2 * (p - 1), f, 30 * 2 * (p - 1))
            lam = tw.from_int(p)
            mu = tw.sqrt(lam)
            cover = FactoredCover(tw, tw.one(), [
                (tw.zero(), 1), (tw.one(), beta), (lam, p - 1)])
            moved, _ = cover.moebius_pullback(
                Moebius(mu, tw.zero(), -tw.one(), tw.one()))
            F, _ = _cover_to_poly(moved)
            h = Poly(tw, [tw.zero(), -tw.one(), tw.one()])
            T0 = ((h ** p) - F).divexact_el(mu)
            t = [tw.ff.neg(c) for c in T0.residue_poly()]
            ff = tw.ff
            expect = pmul(ff, ppow(ff, [ff.neg(1), 1], p - 1),
                          ppow(ff, [0, 1], p - 1))
            expect = pmul(ff, expect, [ff.neg(1), (beta + 1) % p])
            assert t == expect

    def test_derivative_factorization(self):
        # f'(x) = (x-1)^(beta-1) (x-lam)^(gamma-1)
        #         ((beta+gamma+1)x^2 - x(beta lam + lam + gamma + 1) + lam)
        tw = tower_for(7, levels=30)
        lam = tw.from_int(3)
        for beta, gamma in [(1, 1), (2, 3), (4, 2)]:
            cover = FactoredCover(tw, tw.one(), [
                (tw.zero(), 1), (tw.one(), beta), (lam, gamma)])
            C, _ = _cover_to_poly(cover)
            quad = _critical_quadratic(SimpleNamespace(beta=beta, gamma=gamma), lam)
            expect = Poly(tw, [-tw.one(), tw.one()]) ** (beta - 1) \
                * Poly(tw, [-lam, tw.one()]) ** (gamma - 1) * quad
            got = C.deriv()
            for i in range(max(got.degree, expect.degree) + 1):
                assert got.coeff(i) == expect.coeff(i)

    @pytest.mark.parametrize("p, beta, token", [
        (3, 1, "3"), (5, 1, "5"), (5, 4, "5"), (7, 1, "7"), (7, 6, "-2/3*pi^3")])
    def test_log_derivative_numerator_divides_the_derivative(self, p, beta, token):
        # F' = prod L^(a-1) G over the linear factors L of _cover_to_poly,
        # on the symmetrized 2b3 cover and on its flip, and v(G) = v(F')
        tw = tower_for(p, levels=24)
        n = norm(tw, beta, p - 1, tw.parse(token))
        cls = classify(n)
        assert cls == Classification(TYPE_3, VIA_2B3_I)
        spec = required_extension(n, cls)
        big = make_tower(p, spec.e, spec.f, 24 * spec.e)
        one = big.one()
        _, moved = symmetrized_cover(n, big)
        flipped, _ = moved.moebius_pullback(Moebius(big.zero(), one, one, big.zero()))
        for cvr in (moved, flipped):
            D = _cover_to_poly(cvr)[0].deriv()
            G = _log_derivative_numerator(cvr)
            expect = G
            for q, a in cvr.items:
                v = q.valuation()
                L = (Poly(big, [-q, one]) if v is INF or v >= 0
                     else Poly(big, [one, -q.inverse()]))
                expect = expect * L ** (a - 1)
            assert G.degree <= 3 and D.degree == expect.degree
            for i in range(D.degree + 1):
                assert D.coeff(i).same(expect.coeff(i))
            assert G.gauss_valuation() == D.gauss_valuation()

    def test_vertex_value_is_j_numerator(self):
        # at the vertex d of g the value is -(j-numerator)/(4(beta+gamma+1)):
        # the j condition v(j) >= 0 is exactly v(g(d)) >= v(b^2)
        from fourcover.normalizer import j_numerator
        tw = tower_for(7, levels=30)
        for beta, gamma, lamv in [(1, 1, 3), (2, 2, 5), (3, 1, 10)]:
            n = norm(tw, beta, gamma, tw.from_int(lamv))
            g = _critical_quadratic(n, n.lam)
            nn = n.beta + n.gamma + 1
            d = -g.c[1] / (g.c[2] * 2)
            expect = -j_numerator(n) / tw.from_int(4 * nn)
            assert g.eval(d) == expect


class TestNormalizationInvariance:
    def test_classify_constant_on_orbit(self):
        rng = random.Random(55)
        tw = tower_for(5, levels=30)
        done = 0
        while done < 12:
            vals = rng.sample(range(-8, 14), 3)
            pts = [tw.from_int(v) for v in vals] + [INFPT]
            exps = [rng.randrange(1, 5) for _ in range(3)]
            last = (-sum(exps)) % 5
            if last == 0:
                continue
            exps.append(last)
            try:
                base = classify(normalize(CoverDatum(tw, pts, exps)))
            except FourCoverError:
                continue
            for _ in range(4):
                perm = list(range(4))
                rng.shuffle(perm)
                d2 = CoverDatum(tw, [pts[i] for i in perm],
                                [exps[i] for i in perm])
                assert classify(normalize(d2)) == base
            done += 1


class TestQwerty:
    def test_distinguished_cases(self):
        tw = tower_for(5, levels=40)
        cls, _, _ = check_qwerty(tw, tw.one(), tw.tau() ** 2)
        assert cls.rtype == TYPE_1B
        cls, _, _ = check_qwerty(tw, tw.one(), -tw.tau() - tw.one())
        assert cls.rtype == TYPE_1B

    def test_generic_not_1a(self):
        tw = tower_for(7, levels=30)
        cls, _, rep = check_qwerty(tw, tw.one(), tw.from_int(2))
        assert cls.rtype != TYPE_1A
        assert rep[0]["passed"]

    def test_randomized_never_1a(self):
        rng = random.Random(99)
        done = 0
        tw5 = tower_for(5, levels=30)
        tw7 = tower_for(7, levels=30)
        while done < 30:
            tw = rng.choice([tw5, tw7])
            a = rng.randrange(-30, 31)
            b = rng.randrange(-30, 31)
            if a == 0 or b == 0 or a == b or a == -b:
                continue
            try:
                cls, _, _ = check_qwerty(tw, tw.from_int(a), tw.from_int(b))
            except FourCoverError:
                continue
            assert cls.rtype != TYPE_1A
            done += 1

    def test_p3_rejected(self):
        tw = tower_for(3)
        with pytest.raises(UnsupportedPrime):
            check_qwerty(tw, tw.one(), tw.from_int(2))


class TestDeuring:
    def test_examples(self):
        tw = make_tower(2, 1, 1, 60)
        assert deuring_j_valuation(tw.from_int(2)) == 6
        assert deuring_good_reduction(tw.from_int(2))
        assert deuring_j_valuation(tw.from_int(32)) == -2
        assert not deuring_good_reduction(tw.from_int(32))

    def test_degenerate_lambda_is_invalid_input(self):
        # the curve degenerates at lam in {0, 1}, where v(lam) or
        # v(lam - 1) is infinite, so v(j) has no rational value there
        tw = make_tower(2, 1, 1, 60)
        for lam in (tw.zero(), tw.one(), tw.from_int(3) - tw.from_int(3)):
            for call in (deuring_j_valuation, deuring_good_reduction):
                with pytest.raises(InvalidInput):
                    call(lam)

    def test_orbit_invariance(self):
        tw = make_tower(2, 1, 1, 80)
        rng = random.Random(3)
        done = 0
        while done < 25:
            q = Fraction(rng.randrange(-64, 65), rng.randrange(1, 33))
            if q in (0, 1):
                continue
            lam = tw.from_rational(q)
            verdict = deuring_good_reduction(lam)
            for other in cross_ratio_orbit(lam):
                assert deuring_good_reduction(other) == verdict
            done += 1

    def test_wrong_prime(self):
        tw = tower_for(5)
        with pytest.raises(UnsupportedPrime):
            deuring_good_reduction(tw.from_int(3))


class TestVerifyModel:
    def test_all_checks_pass_and_are_reported(self):
        tw = tower_for(5)
        m = build_stable_model(norm(tw, 1, 4, tw.from_int(125)))
        names = {c["name"] for c in m.checks}
        assert "genus-conservation" in names
        assert "mumford-annulus-splits" in names
        assert all(c["passed"] for c in m.checks)

    def test_tampered_model_fails_verification(self):
        tw = tower_for(5)
        m = build_stable_model(norm(tw, 2, 1, tw.from_int(5)))
        m.components[0].genus = 1  # sabotage
        checks = verify_model(m)
        assert any(not c["passed"] for c in checks)


# ---------------------------------------------------------------------------
# the two-rung chart certifier
# ---------------------------------------------------------------------------

def rung_digits(tw):
    """K0, the pi-digits of the certifier's first rung."""
    return 2 * (math.floor(tw.e * tw.tau_valuation()) + 1)


def trichotomy_result(fn):
    """(case, w, rendered payload) of a trichotomy run, or its error type."""
    try:
        out = fn()
    except FourCoverError as exc:
        return type(exc)
    if isinstance(out, tuple):
        out = out[1]
    return out.case, out.w, None if out.payload is None else out.payload.render()


def recorded_results(monkeypatch, module, name):
    """The results that module.name returns from now on; None for a call
    that raised."""
    calls = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(None)
        calls[-1] = original(*args, **kwargs)
        return calls[-1]
    monkeypatch.setattr(module, name, recorded)
    return calls


def count_charts(monkeypatch):
    """The charts that ``torsor.blowup_chart`` returns from now on."""
    return recorded_results(monkeypatch, torsor, "blowup_chart")


def recorded_blowups(monkeypatch):
    """(cover, h, chart, outcome) of each ``_blowup_trichotomy`` call from
    now on."""
    calls = []
    original = classifier._blowup_trichotomy

    def recorded(cover, h, d, b, N):
        chart, out = original(cover, h, d, b, N)
        calls.append((cover, h, chart, out))
        return chart, out
    monkeypatch.setattr(classifier, "_blowup_trichotomy", recorded)
    return calls


def count_full_lifts(monkeypatch):
    """(polys, lifts): the polynomials whose chart centers the classifier
    lifts with a cut from now on, and the full-window lifts of those
    centers.  A full lift is the lift of P without a cut that a center's
    ``full()`` runs, and it certifies its root once (``_certified``), so
    ``lifts`` holds the polynomial once per certificate of such a lift."""
    polys, lifts, lifting = [], [], []
    short, relift = classifier.hensel_root, tower_module.hensel_root
    certify = tower_module._certified

    def recorded(P, r, cut=None):
        if cut is not None:
            polys.append(P)
        return short(P, r, cut)

    def full(P, r, cut=None):
        lifting.append(P)
        try:
            return relift(P, r, cut)
        finally:
            lifting.pop()

    def certified(*args):
        if lifting and any(lifting[-1] is S for S in polys):
            lifts.append(lifting[-1])
        return certify(*args)
    monkeypatch.setattr(classifier, "hensel_root", recorded)
    monkeypatch.setattr(tower_module, "hensel_root", full)
    monkeypatch.setattr(tower_module, "_certified", certified)
    return polys, lifts


def model_report(*argv):
    """The ``fourcover model --json`` report of argv and its exit code."""
    return cli.run(cli.build_parser().parse_args(["model", "--json", *argv]))


def count_cover_polys(monkeypatch):
    """The covers that ``classifier._cover_to_poly`` expands from now on."""
    calls = []
    original = classifier._cover_to_poly

    def counted(cover):
        calls.append(cover)
        return original(cover)
    monkeypatch.setattr(classifier, "_cover_to_poly", counted)
    return calls


@st.composite
def factored_charts(draw):
    """(cover, h, d, b, N): a FactoredCover of one to four points, each
    integral or of negative valuation, with exponents in 1..p-1, over
    p in {3, 5, 7}, f <= 2; a center d whose residue is off the integral
    points' residues; b = pi^j and N = p ceil(deg / p), or p more.  h is
    None (x^(N/p) on the chart) or a monic witness of degree N/p."""
    p = draw(st.sampled_from([3, 5, 7]))
    e = (p - 1) * draw(st.sampled_from([1, 2]))
    tw = make_tower(p, e, draw(st.sampled_from([1, 2])),
                    e * draw(st.sampled_from([8, 20, 50])))
    q = tw.ff.q

    def lift(lo=0):
        return tw.lift_ff(draw(st.integers(lo, q - 1)))

    r = draw(st.integers(0, q - 1))
    d = tw.lift_ff(r) + tw.pi() * lift() + tw.pi_power(e - 1) * lift()
    items = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            other = tw.lift_ff(draw(st.integers(0, q - 1).filter(lambda c: c != r)))
            point = other + tw.pi_power(draw(st.integers(1, 3))) * lift()
        else:
            point = tw.pi_power(-draw(st.integers(1, 2 * e))) * lift(1) + lift()
        items.append((point, draw(st.integers(1, p - 1))))
    cover = FactoredCover(tw, tw.pi_power(draw(st.integers(0, 3))) * lift(1), items)
    D = sum(a for _, a in items)
    N = p * (-(-D // p) + draw(st.integers(0, 1)))
    s = N // p
    h = None
    if draw(st.booleans()):
        h = Poly(tw, [lift() + tw.pi() * lift() for _ in range(s)] + [tw.one()])
    return cover, h, d, tw.pi_power(draw(st.integers(0, 3))), N


def full_chart_result(C, h, d, b, N):
    """The full-precision trichotomy of the blow-up of C at (x - d, b)."""
    tw = C.tw
    s = N // tw.p

    def run():
        chart = torsor.blowup_chart(C, d, b, N=N)
        return torsor.torsor_case(chart.poly, Poly.x_power(tw, s) if h is None
                                  else torsor.blowup_chart(h, d, b, N=s).poly)
    return trichotomy_result(run)


def reference_cover_to_poly(cover):
    """``_cover_to_poly`` before the binomial theorem: each linear factor
    raised to its power by binary ``Poly`` powering, kept as the
    reference for the expansion."""
    tw = cover.tw
    C = Poly(tw, [tw.one()])
    const = cover.const
    for q, a in cover.items:
        v = q.valuation()
        if v is math.inf or v >= 0:
            C = C * Poly(tw, [-q, tw.one()]) ** a
        else:
            C = C * Poly(tw, [tw.one(), -q.inverse()]) ** a
            const = const * (-q) ** a
    return C, const


@st.composite
def cover_points(draw):
    """A FactoredCover over p in {3, 5, 7}, e = (p - 1) or 2 (p - 1),
    f <= 2, of up to five points with exponents in 1..p-1: integral
    digits, digits of negative valuation, exact pairs with a Fraction q
    and any m, points truncated to a few digits, the point 0, and an
    O(pi^k), whose valuation both expansions must refuse alike."""
    p = draw(st.sampled_from([3, 5, 7]))
    e = (p - 1) * draw(st.sampled_from([1, 2]))
    tw = make_tower(p, e, draw(st.sampled_from([1, 2])),
                    e * draw(st.sampled_from([4, 8, 20])))
    q = tw.ff.q

    def lift(lo=0):
        return tw.lift_ff(draw(st.integers(lo, q - 1)))

    def point():
        kind = draw(st.sampled_from(["integral", "negative", "pair", "short",
                                     "zero", "fuzzy"]))
        if kind == "integral":
            return lift() + tw.pi_power(draw(st.integers(1, 3))) * lift()
        if kind == "negative":
            return tw.pi_power(-draw(st.integers(1, 2 * e))) * lift(1) + lift()
        if kind == "pair":
            num = draw(st.integers(-10 ** 3, 10 ** 3).filter(bool))
            return tw.from_exact_pair(Fraction(num, draw(st.integers(1, 50))),
                                      draw(st.integers(-2 * e, 2 * e)))
        if kind == "short":
            s = draw(st.integers(-e, e))
            U = [draw(st.integers(1, p - 1))] + [0] * (tw.f - 1)
            return tw._canon(s, U, s + draw(st.integers(1, 2 * e)), None)
        if kind == "zero":
            return tw.zero()
        return El(tw, None, None, draw(st.integers(1, 2 * e)), None)

    items = [(point(), draw(st.integers(1, p - 1)))
             for _ in range(draw(st.integers(0, 5)))]
    return FactoredCover(tw, tw.pi_power(draw(st.integers(-2, 3))) * lift(1), items)


def cover_poly_states(fn, cover):
    """Every coefficient of C and the constant as stored forms, or the
    type of the error fn raises."""
    try:
        C, const = fn(cover)
    except FourCoverError as exc:
        return type(exc)
    return [state(c) for c in C.c], state(const)


@given(cover_points())
@settings(max_examples=200, deadline=None)
def test_cover_to_poly_matches_poly_powers(cover):
    assert (cover_poly_states(_cover_to_poly, cover)
            == cover_poly_states(reference_cover_to_poly, cover))


class TestFactoredRung:
    """Both rungs of a blow-up read the chart from the cover's linear
    factors: rung 1 in the rows the trichotomy reads, rung 2 in every row."""

    @given(factored_charts())
    @settings(max_examples=150, deadline=None)
    def test_matches_full_precision(self, problem):
        cover, h, d, b, N = problem
        C, _ = _cover_to_poly(cover)
        want = full_chart_result(C, h, d, b, N)
        got = trichotomy_result(lambda: _blowup_trichotomy(cover, h, d, b, N))
        assert got == want
        if not isinstance(got, type):
            chart, _ = _blowup_trichotomy(cover, h, d, b, N)
            assert chart.N == N and chart.radius is b
            assert state(chart.center.full()) == state(d)

    @given(factored_charts())
    @settings(max_examples=100, deadline=None)
    def test_rows_agree_with_the_full_chart(self, problem):
        # every row of the rung-1 chart is the Taylor chart's row up to its
        # precision, and a row i with i mu >= K is O(pi^(i mu)), which the
        # Taylor chart's row i has valuation at least i mu to bear out;
        # the rung-2 chart, every row from the full-precision center, is
        # the Taylor chart row for row
        cover, _, d, b, N = problem
        tw = d.tw
        K = rung_digits(tw) // 2
        try:
            full = torsor.blowup_chart(_cover_to_poly(cover)[0], d, b, N=N).poly
            dc = d + El(tw, None, None, 2 * K, None)
            rung = _factored_chart(cover, dc, b, N, K).poly
            every = _factored_chart(cover, d, b, N).poly
        except FourCoverError:
            return
        assert rung.degree == full.degree == every.degree == N
        assert rung.c[N].same(tw.one()) and every.c[N].same(tw.one())
        for c, f, g in zip(rung.c, full.c, every.c):
            assert c.same(f) and g.same(f)
        mu = min(b.pival() - (d - q).pival() for q, _ in cover.items)
        D = sum(a for _, a in cover.items)
        left = [i for i in range(D + 1) if mu > 0 and i * mu >= K]
        for i in left:
            row, f = rung.coeff(N - i), full.coeff(N - i)
            assert row.is_zeroish() and row.ap == i * mu
            assert f.is_zeroish() or f.pival() >= i * mu
        for i in range(D + 1, N + 1):
            assert rung.coeff(N - i).is_true_zero()

    def test_rung_two_builds_no_c_and_no_taylor_chart(self, monkeypatch):
        # the point pi^10 and the center pi^12 agree to K0 = 8 pi-digits
        # at p = 3, e = 2, so rung 1 cannot tell d - q from 0; rung 2 reads
        # every row of the full-precision chart from the factors, with no
        # polynomial of the cover and no Taylor shift, and its row 1 has
        # valuation v(pi) = 1/2 < v(tau): inseparable
        tw = make_tower(3, 2, 1, 100)
        assert rung_digits(tw) == 8
        cover = FactoredCover(tw, tw.one(), [(tw.pi_power(10), 1), (tw.one(), 1),
                                             (-tw.one(), 1)])
        d, b = tw.pi_power(12), tw.pi_power(11)
        polys = count_cover_polys(monkeypatch)
        charts = count_charts(monkeypatch)
        chart, out = _blowup_trichotomy(cover, None, d, b, 3)
        assert polys == [] and charts == []
        assert out.case == TorsorOutcome.INSEPARABLE and out.w == Fraction(1, 2)
        assert chart.poly.c[0].ap > rung_digits(tw)
        monkeypatch.undo()
        assert trichotomy_result(lambda: (chart, out)) == full_chart_result(
            _cover_to_poly(cover)[0], None, d, b, 3)


# one certified chart per (route, e, f) shape of the p = 3 models at 24
# pi-digits, as (beta, gamma, lambda token, route, e, f): every f = 1 shape
# of the lambdas 2, 3, 9, tau^2, 27, pi^3, tau, tau^3, 4, 1/3, and the two
# cheapest f = 2 shapes (the digit search sweeps q^3 = 729 witnesses a digit
# there, 1.5-2 s a chart; the f = 2 shapes of 2b3-ii and 2b3-i at e = 6 take
# 2.2-4.6 s and are left out)
ORACLE_SHAPES = [
    (2, 1, "3", VIA_2A, 4, 1),
    (1, 2, "1/3", VIA_2A, 12, 1),
    (2, 2, "9", VIA_2B3_II, 4, 1),
    (2, 2, "tau", VIA_2B3_II, 8, 1),
    (2, 1, "4", VIA_2B3_I, 2, 1),
    (1, 2, "3", VIA_2B3_I, 2, 2),
    (1, 2, "2", VIA_1B, 4, 2),
]


class TestTrichotomyOracle:
    """The case of a chart that ``build_stable_model`` certified is the case
    that the digit-search oracle induces on the chart blown up again at full
    precision from its recorded center, radius and N."""

    @pytest.mark.parametrize("beta,gamma,token,route,e,f", ORACLE_SHAPES)
    def test_certified_chart_matches_the_oracle(self, monkeypatch, beta, gamma,
                                                token, route, e, f):
        certified = recorded_blowups(monkeypatch)
        tw = tower_for(3, 12)
        m = build_stable_model(norm(tw, beta, gamma, tw.parse(token)))
        monkeypatch.undo()
        cover, _, chart, out = certified[0]
        center = chart.center.full()
        big = center.tw
        assert (m.classification.subroute, big.e, big.f) == (route, e, f)
        assert chart is m.components[0].chart
        C, _ = _cover_to_poly(cover)
        full = torsor.blowup_chart(C, center, chart.radius, N=chart.N).poly
        _, w = torsor.maximize_h_bruteforce(full, digit_budget=6)
        assert torsor.induced_case(w, big) == out.case == TorsorOutcome.ARTIN_SCHREIER


class TestTwoRungCertifier:
    """A blow-up chart is decided at K0 pi-digits, and only falls back to
    the full-precision run when that does not decide; an unblown chart is
    decided once, at full precision."""

    def test_unblown_charts_take_one_full_precision_run(self, monkeypatch):
        # the Mumford model of lambda = 5^6 has no blow-up: its two lines and
        # its annulus are each one trichotomy on the full-precision chart
        charts = []
        original = torsor._torsor_outcome

        def recorded(f, h):
            charts.append(f)
            return original(f, h)
        monkeypatch.setattr(torsor, "_torsor_outcome", recorded)
        t5 = tower_for(5)
        m = build_stable_model(norm(t5, 1, 4, t5.parse("5^6")))
        assert m.classification.rtype == TYPE_2
        assert len(charts) == 3
        for C in charts:
            assert max(c.ap for c in C.c if c.ap is not None) > rung_digits(C.tw)

    def test_rung_one_makes_one_chart(self, monkeypatch):
        # a whole via-2a model certifies both charts at rung 1, read from
        # its covers' factors, with no polynomial of a cover and no blow-up,
        # and each is the Taylor chart's case; a 2b3-ii model blows up only
        # the witness of each of its two charts (degree N/p = 2)
        certified = recorded_blowups(monkeypatch)
        charts = count_charts(monkeypatch)
        polys = count_cover_polys(monkeypatch)
        t5 = tower_for(5)
        m = build_stable_model(norm(t5, 2, 1, t5.from_int(5)))
        assert m.classification.subroute == VIA_2A
        assert charts == [] and polys == []
        assert len(certified) == 2
        for cover, h, chart, out in certified:
            tw = cover.tw
            assert out.case == TorsorOutcome.ARTIN_SCHREIER
            assert max(c.ap for c in chart.poly.c[:-1] if c.ap is not None) < tw.prec
            assert trichotomy_result(lambda: out) == full_chart_result(
                _cover_to_poly(cover)[0], h, chart.center.full(), chart.radius,
                chart.N)
        del charts[:]
        m = build_stable_model(norm(t5, 1, 4, t5.from_int(25)))
        assert m.classification.subroute == VIA_2B3_II
        assert [c.N for c in charts] == [2, 2]

    @pytest.mark.parametrize("argv", [
        ("--p", "5", "--beta", "2", "--gamma", "1", "--lambda", "5"),
        ("--p", "7", "--beta", "1", "--gamma", "6", "--lambda", "7",
         "--precision", "1200"),
    ])
    def test_lifted_centers_take_no_full_lift(self, monkeypatch, argv):
        # a via-2a model, and the 2b3-i model whose two centers are dense
        # lifts at e = 6, f = 2 in a window of 1,200 pi-digits: rung 1
        # decides every chart and the report renders every center from the
        # head of its lift
        polys, lifts = count_full_lifts(monkeypatch)
        rep, code = model_report(*argv)
        assert code == 0 and len(rep["components"]) == 2
        assert len(polys) == 2 and lifts == []

    @pytest.mark.parametrize("argv,lifted", [
        (("--p", "5", "--beta", "2", "--gamma", "1", "--lambda", "5"), 2),
        (("--p", "5", "--beta", "4", "--gamma", "4", "--lambda", "5"), 2),
        (("--p", "3", "--beta", "2", "--gamma", "2", "--lambda", "pi^5"), 1),
    ])
    def test_rung_two_lifts_each_center_once(self, monkeypatch, argv, lifted):
        # with rung 1 made to fail, every chart of a via-2a model and of two
        # flipped 2b3 models is decided by rung 2, which runs the full lift
        # of each lifted center once, and the report is the same: the flipped
        # center of the first 2b3 model is c_0 t from the residue root 0, and
        # that of the p = 3 model is O(pi^390), the root at residue 0 of a
        # c_0 that is a fuzzy zero, which takes no lift
        want = model_report(*argv)
        _, lifts = count_full_lifts(monkeypatch)
        chart = classifier._factored_chart

        def rung_two_only(cover, d, b, N, K=None):
            if K is not None:
                raise InsufficientPrecision("rung 1 made to fail")
            return chart(cover, d, b, N, K)
        monkeypatch.setattr(classifier, "_factored_chart", rung_two_only)
        got = model_report(*argv)
        assert got == want and got[1] == 0 and len(got[0]["components"]) == 2
        assert len(lifts) == lifted

    def test_rungs_leave_no_reference_cycle(self):
        # with the cyclic collector off, a tower is freed as soon as its last
        # reference goes: the rungs' helpers hold it in no cycle, when rung 2
        # runs on the deep cover
        gc.disable()
        try:
            tw = make_tower(3, 2, 1, 100)
            d = tw.one()
            cover = FactoredCover(tw, tw.one(), [(d - tw.pi_power(10), 1),
                                                 (d + tw.pi_power(10), 1),
                                                 (tw.zero(), 1)])
            chart, out = _blowup_trichotomy(cover, None, d, tw.pi_power(11), 3)
            ref = weakref.ref(tw)
            del tw, d, cover, chart, out
            assert ref() is None
        finally:
            gc.enable()

    def test_deep_chart_value_takes_rung_two(self, monkeypatch):
        # three points at d - q = pi^10/u, u = 1, 1 + pi, 1 + 2pi + pi^2,
        # around d = 1 at p = 3, e = 2: v(d - q) = 5 lies above K0 = 8
        # pi-digits and below the precision, so rung 1 cannot tell C(d) from
        # 0, and rung 2 certifies the chart prod (x2 + pi u) read from the
        # factors at full precision
        tw = make_tower(3, 2, 1, 100)
        assert rung_digits(tw) == 8
        pi = tw.pi()
        d, b = tw.one(), tw.pi_power(11)
        units = [tw.one(), tw.one() + pi, tw.one() + pi * 2 + pi * pi]
        cover = FactoredCover(tw, tw.one(),
                              [(d - tw.pi_power(10) * u.inverse(), 1) for u in units])
        charts = recorded_results(monkeypatch, classifier, "_factored_chart")
        chart, out = _blowup_trichotomy(cover, None, d, b, 3)
        # the rung-1 chart raised DegenerateModel
        assert len(charts) == 2 and charts[0] is None and charts[1] is chart
        assert out.case == TorsorOutcome.ARTIN_SCHREIER
        assert chart.poly.c[0].ap > rung_digits(tw)
        monkeypatch.undo()
        assert trichotomy_result(lambda: (chart, out)) == full_chart_result(
            _cover_to_poly(cover)[0], None, d, b, 3)
