import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from fourcover.errors import (
    CoalescingBranchPoints, NonCyclicExponent, InvalidInput,
    InsufficientPrecision,
)
from fourcover.tower import make_tower, INF
from fourcover.normalizer import (
    INFPT, CoverDatum, FactoredCover, FactoredRat, Moebius, parse_point,
    cross_ratio, cross_ratio_orbit, normalize, j_invariant, j_numerator,
    _verify_witness_by_sampling,
)


def T(p=5, prec=48):
    return make_tower(p, p - 1, 1, prec)


def datum(tw, pts, exps, const=None):
    return CoverDatum(tw, pts, exps, const)


class TestParsePoint:
    def test_tokens(self):
        tw = T()
        assert parse_point(tw, "inf") is INFPT
        assert parse_point(tw, "3/7") == tw.from_rational(Fraction(3, 7))
        assert parse_point(tw, "tau^2") == tw.tau() ** 2


class TestCrossRatio:
    def test_standard(self):
        tw = T()
        lam = tw.from_int(3)
        assert cross_ratio(tw, tw.zero(), tw.one(), INFPT, lam) == lam

    def test_orbit_degenerate_two(self):
        tw = T(7)
        orb = cross_ratio_orbit(tw.from_int(2))
        vals = sorted(x.exact[0] for x in orb)
        assert vals == [Fraction(-1), Fraction(1, 2), Fraction(2)]

    def test_orbit_minus_one(self):
        tw = T(7)
        orb = cross_ratio_orbit(tw.from_int(-1))
        vals = sorted(x.exact[0] for x in orb)
        assert vals == [Fraction(-1), Fraction(1, 2), Fraction(2)]

    def test_orbit_generic(self):
        tw = T(7)
        orb = cross_ratio_orbit(tw.from_int(3))
        assert len(orb) == 6


class TestNormalize:
    def test_identity_witness(self):
        tw = T()
        lam = tw.from_int(3)
        d = datum(tw, [tw.zero(), tw.one(), INFPT, lam], [1, 2, 1, 1])
        n = normalize(d)
        assert n.lam == lam
        assert n.beta == 2 and n.gamma == 1
        assert n.u == 1
        assert n.witness.is_one()
        assert n.const.same(tw.one())

    def test_inversion_move(self):
        tw = T()
        d = datum(tw, [tw.zero(), tw.one(), INFPT, tw.from_rational(Fraction(1, 5))],
                  [1, 1, 2, 1])
        n = normalize(d)
        assert n.lam == tw.from_int(5)
        assert n.lam.valuation() == 1

    def test_one_minus_move(self):
        tw = T()
        lam = tw.one() + tw.from_int(5)  # residue 1
        d = datum(tw, [tw.zero(), tw.one(), INFPT, lam], [1, 1, 2, 1])
        n = normalize(d)
        assert n.lam == tw.from_int(-5)
        assert n.lam.valuation() == 1

    def test_qwerty_shape(self):
        tw = T()
        c1 = tw.one()
        c2 = tw.tau() ** 2
        p = tw.p
        d = datum(tw, [c1, -c1, c2, -c2], [p - 1, 1, p - 1, 1])
        n = normalize(d)
        # the admissible representative has v(lam) = v(tau^2) and gamma+1 = p
        assert n.lam.valuation() == Fraction(2 * p, p - 1)
        assert n.gamma == p - 1

    def test_errors(self):
        tw = T()
        with pytest.raises(NonCyclicExponent):
            datum(tw, [tw.zero(), tw.one(), INFPT, tw.from_int(3)], [5, 1, 2, 2])
        with pytest.raises(CoalescingBranchPoints):
            datum(tw, [tw.zero(), tw.zero(), INFPT, tw.from_int(3)], [1, 1, 2, 1])
        with pytest.raises(InvalidInput):
            datum(tw, [tw.zero(), tw.one(), INFPT, tw.from_int(3)], [1, 1, 2, 2])

    def test_random_covers_satisfy_invariants(self):
        tw = T()
        rng = random.Random(33)
        done = 0
        while done < 25:
            vals = rng.sample(range(-9, 12), 3)
            pts = [tw.from_int(v) for v in vals] + [INFPT]
            rng.shuffle(pts)
            exps = [rng.randrange(1, 5) for _ in range(3)]
            last = (-sum(exps)) % 5
            if last == 0:
                continue
            exps.append(last)
            try:
                d = datum(tw, pts, exps)
            except (CoalescingBranchPoints, InvalidInput):
                continue
            n = normalize(d)
            v = n.lam.valuation()
            assert v >= 0
            if v == 0:
                assert n.lam.residue() != 1
            assert 0 < n.beta < 5 and 0 < n.gamma < 5
            done += 1


class TestWitnessSampling:
    """Each fault below is transient, so an unbounded loop that swallows
    it would still finish: the tests fail rather than hang."""

    def setup_method(self):
        tw = T()
        pts = [tw.from_int(2), tw.from_int(7), INFPT, tw.from_int(-3)]
        self.datum = datum(tw, pts, [1, 2, 1, 1])
        self.n = normalize(self.datum)

    def _patch_apply(self, monkeypatch, fault, calls):
        real = Moebius.apply
        seen = []

        def apply(m, pt):
            seen.append(pt)
            if len(seen) <= calls:
                return fault()
            return real(m, pt)
        monkeypatch.setattr(Moebius, "apply", apply)

    def test_host_exception_propagates(self, monkeypatch):
        def fault():
            raise ZeroDivisionError("host fault")
        self._patch_apply(monkeypatch, fault, 1)
        with pytest.raises(ZeroDivisionError):
            _verify_witness_by_sampling(self.datum, self.n)

    def test_attempts_are_bounded(self, monkeypatch):
        self._patch_apply(monkeypatch, lambda: INFPT, 100)
        with pytest.raises(InsufficientPrecision):
            _verify_witness_by_sampling(self.datum, self.n)


class TestJInvariant:
    def test_closed_form_beta_gamma_one(self):
        # beta = gamma = 1: j = 4 p^(-2p/(3(p-1))) (lam^2 - lam + 1)
        tw = T(7)
        lam = tw.from_int(3)
        d = datum(tw, [tw.zero(), tw.one(), INFPT, lam], [1, 1, 4, 1])
        n = normalize(d)
        assert n.beta == 1 and n.gamma == 1
        num = j_numerator(n)
        assert num == tw.from_int(4 * (9 - 3 + 1))

    def test_valuation_2_9(self):
        tw = T(7)
        lam = tw.from_int(3)
        d = datum(tw, [tw.zero(), tw.one(), INFPT, lam], [1, 1, 4, 1])
        n = normalize(d)
        val, v = j_invariant(n)
        assert v == Fraction(2, 9)  # v_7(28) - 7/9
        assert val.valuation() == Fraction(2, 9)

    def test_negative_valuation_unit(self):
        tw = T(5)
        lam = tw.from_int(3)
        d = datum(tw, [tw.zero(), tw.one(), INFPT, lam], [1, 1, 2, 1])
        n = normalize(d)
        num = j_numerator(n)
        if num.valuation() == 0:
            _, v = j_invariant(n)
            assert v == -Fraction(2 * 5, 3 * 4)


class TestFactoredCover:
    def test_pullback_identity_sampling(self):
        tw = T()
        rng = random.Random(5)
        cover = FactoredCover(tw, tw.from_int(2),
                              [(tw.from_int(1), 2), (tw.from_int(3), 1),
                               (tw.from_int(-2), 2)])
        m = Moebius(tw.from_int(2), tw.from_int(3), tw.one(), tw.from_int(7))
        new, wit = cover.moebius_pullback(m)
        for _ in range(5):
            x = tw.from_int(rng.randrange(20, 200))
            lhs = cover.eval_rhs(m.apply(x))
            rhs = new.eval_rhs(x) * wit.eval(x) ** tw.p
            assert lhs.same(rhs)

    def test_rescale_identity(self):
        tw = T()
        cover = FactoredCover(tw, tw.from_int(3),
                              [(tw.from_int(1), 3), (tw.from_int(4), 4),
                               (tw.from_int(6), 3)])
        new, wit = cover.z_rescale(3)
        x = tw.from_int(11)
        assert (cover.eval_rhs(x) ** 3).same(new.eval_rhs(x) * wit.eval(x) ** tw.p)


def reference_pullback(cover, m):
    """The loop ``FactoredCover.moebius_pullback`` ran before it went
    through ``FactoredRat.pullback``, kept as the reference."""
    tw, p = cover.tower, cover.p
    a, b, c, d = m.entries()
    const = cover.const
    new_factors = []
    wit = FactoredRat(tw)
    if c.is_zeroish():
        scale = a / d
        for q, aa in cover.factors:
            new_factors.append(((q * d - b) / a, aa))
            const = const * scale ** aa
        return FactoredCover(tw, const, new_factors), wit
    pole = -d / c
    D = 0
    for q, aa in cover.factors:
        lead = a - q * c
        if lead.is_zeroish():
            const = const * (b - q * d) ** aa
        else:
            new_factors.append(((q * d - b) / lead, aa))
            const = const * lead ** aa
        D += aa
    r0 = (-D) % p
    if r0:
        new_factors.append((pole, r0))
    wit.mul_point(pole, (-D - r0) // p)
    const = const * c ** (-D)
    return FactoredCover(tw, const, new_factors), wit


def _rational(draw, tw):
    num = draw(st.integers(-10 ** 4, 10 ** 4).filter(bool))
    return tw.from_exact_pair(Fraction(num, draw(st.integers(1, 10 ** 4))),
                              draw(st.integers(0, tw.e)))


@st.composite
def covers_and_maps(draw):
    """A cover with three finite branch points over p in {3, 5, 7}, and an
    affine map, a map sending one branch point to infinity, or a general
    Moebius map."""
    p = draw(st.sampled_from([3, 5, 7]))
    tw = make_tower(p, p - 1, 1, draw(st.integers(8, 48)))
    pts = [_rational(draw, tw) for _ in range(3)]
    assume(not any(q.same(r) for i, q in enumerate(pts) for r in pts[:i]))
    exps = [draw(st.integers(1, p - 1)) for _ in pts]
    cover = FactoredCover(tw, _rational(draw, tw), list(zip(pts, exps)))
    kind = draw(st.sampled_from(["affine", "infinity", "general"]))
    a, b, d = (_rational(draw, tw) for _ in range(3))
    if kind == "affine":
        c = tw.zero()
    else:
        c = _rational(draw, tw)
        if kind == "infinity":
            a = draw(st.sampled_from(pts)) * c  # a - q c = 0
    if (a * d - b * c).is_zeroish():
        d = d + tw.one()
    return cover, Moebius(a, b, c, d)


class TestPullbackReference:
    @given(covers_and_maps())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, cm):
        cover, m = cm
        try:
            new, wit = cover.moebius_pullback(m)
        except InvalidInput:  # a degenerate map, rejected by both
            with pytest.raises(InvalidInput):
                reference_pullback(cover, m)
            return
        ref, rwit = reference_pullback(cover, m)
        for got, want in [(new.factors, ref.factors), (wit.items, rwit.items)]:
            assert len(got) == len(want)
            for (q, k), (r, j) in zip(got, want):
                assert q.same(r) and k == j
        for got, want in [(new.const, ref.const), (wit.const, rwit.const)]:
            assert (got.s, got.U, got.ap, got.exact) == (want.s, want.U, want.ap, want.exact)
