import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from fourcover.errors import UnsupportedPrime, FourCoverError
from fourcover.ffield import peval, pderiv, pnormalize, proots
from fourcover.tower import make_tower, hensel_root, Poly
from fourcover.normalizer import (
    CoverDatum, FactoredCover, INFPT, Moebius, normalize,
)
from fourcover.classifier import (
    classify, required_extension, build_stable_model, verify_model,
    check_qwerty, deuring_good_reduction, deuring_j_valuation,
    Classification, TYPE_1A, TYPE_1B, TYPE_2, TYPE_3,
    VIA_1B, VIA_2A, VIA_2B3_I, VIA_2B3_II,
    _chart_poly, _cover_to_poly, _critical_2b3, _critical_quadratic,
    _integral_branch_residues,
)
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


def all_roots_flipped_center(n, big, subcase):
    """The flipped 2b3 center as it was found before: lift every simple
    residue root of the flipped critical polynomial off the flipped branch
    residues, then keep the one lift with residue 0."""
    p = n.p
    lam, cover = model_cover(n, big)
    mu = big.sqrt(lam)
    moved, _ = cover.moebius_pullback(Moebius(mu, big.zero(), -big.one(), big.one()))
    F, _ = _cover_to_poly(moved)
    h = Poly(big, [big.zero(), -big.one(), big.one()])
    _, Ss = _critical_2b3(F.reverse(2 * p), h.reverse(2), mu, subcase)
    flip_res = {big.ff.inv(x) for x in _integral_branch_residues(moved) if x}
    lifted = [hensel_root(Ss, r)
              for r in sorted(residue_center_roots(Ss, flip_res))]
    [d] = [d for d in lifted if d.residue() == 0]
    return d


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
            assert got == second_derivative_radius(n, c.chart.center)

    @settings(max_examples=40, deadline=None)
    @given(via_2a_covers())
    def test_via_2a_centers_match_the_derivative_lift(self, n):
        assume(classify(n) == Classification(TYPE_3, VIA_2A))
        m = build_stable_model(n)
        got = [c.chart.center for c in m.components]
        want = derivative_centers_2a(n, got[0].tw)
        assert [state(d) for d in got] == [state(d) for d in want]

    @settings(max_examples=25, deadline=None)
    @given(flipped_2b3_covers())
    def test_flipped_2b3_center_matches_the_all_roots_lift(self, n):
        cls = classify(n)
        assume(cls.subroute in (VIA_2B3_I, VIA_2B3_II)
               and n.beta == n.gamma == n.p - 1)
        m = build_stable_model(n, cls)
        got = m.components[1].chart.center
        want = all_roots_flipped_center(n, got.tw, cls.subroute)
        assert state(got) == state(want)


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
