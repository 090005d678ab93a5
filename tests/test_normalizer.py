import copy
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from fourcover.errors import (
    CoalescingBranchPoints, NonCyclicExponent, InvalidInput,
    InsufficientPrecision, FourCoverError, ConstructionMismatch,
)
from fourcover.tower import make_tower, El, INF
from fourcover.normalizer import (
    INFPT, CoverDatum, FactoredCover, FactoredRat, Moebius, NormalizedCover,
    parse_point, cross_ratio_orbit, moebius_to_01inf, normalize, j_invariant,
    j_numerator, _check_witness_identity, _is_exact_pth_power,
)


def T(p=5, prec=48):
    return make_tower(p, p - 1, 1, prec)


def datum(tw, pts, exps, const=None):
    return CoverDatum(tw, pts, exps, const)


def cross_ratio(tw, A, B, C, D):
    """The image of D under the Moebius map taking A, B, C to 0, 1, inf."""
    return moebius_to_01inf(tw, A, B, C).apply(D)


def is_one(rat):
    """Whether the FactoredRat is the constant 1."""
    return rat.const.same(rat.tw.one()) and not rat.items


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
        assert is_one(n.witness)
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


def _eval(fr, x):
    """const * prod (x - q)^k of a FactoredRat, evaluated at x."""
    out = fr.const
    for q, k in fr.items:
        out = out * (x - q) ** k
    return out


def reference_sampling(datum, n, samples=4):
    """The numeric spot check that ``normalize`` ran before the exact
    identity: rhs_old(x)^u = const * wit(x)^p * rhs_new(m(x)) at
    ``samples`` points, out of at most 8 * samples candidates."""
    tw = datum.tower
    old = FactoredCover.from_datum(datum)
    new = n.cover()
    count = 0
    x = tw.from_int(2)
    step = tw.one()
    for _ in range(8 * samples):
        x = x + step + tw.pi()
        try:
            lhs = _eval(old, x) ** n.u
            mx = n.moebius.apply(x)
            if mx is INFPT:
                continue
            rhs = n.const * _eval(n.witness, x) ** tw.p * _eval(new, mx)
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


@st.composite
def classify_covers(draw):
    """A cover drawn as the classify benchmark draws them: p in {3, 5, 7},
    three distinct finite points n pi^k (k in {0, 1}) and infinity,
    exponents summing to 0 mod p, then relabeled at random."""
    p = draw(st.sampled_from([3, 5, 7]))
    tw = make_tower(p, p - 1, 1, draw(st.sampled_from([12, 50 * (p - 1)])))
    keys = draw(st.lists(st.tuples(st.integers(-20, 20), st.integers(0, 1)),
                         min_size=3, max_size=3,
                         unique_by=lambda nk: nk if nk[0] else 0))
    exps = draw(st.lists(st.integers(1, p - 1), min_size=3, max_size=3)
                .filter(lambda a: sum(a) % p))
    pts = [tw.from_int(n) * tw.pi_power(k) for n, k in keys] + [INFPT]
    exps.append(-sum(exps) % p)
    order = draw(st.permutations(range(4)))
    return datum(tw, [pts[i] for i in order], [exps[i] for i in order])


# covers with exponents (2, 2, 1, 1) at p = 3, e = 2 whose witness identity
# fails for want of digits at low precision
FAR_POINT = ("2*pi", "pi^-2", "2*pi^3", "2*pi^2")
CLOSE_POINTS = ("7336/2343*pi", "-514/487", "3727/1164*pi^2", "3907/1427")


class TestWitnessIdentity:
    def setup_method(self):
        tw = self.tw = T()
        pts = [tw.from_int(2), tw.from_int(7), INFPT, tw.from_int(-3)]
        self.datum = datum(tw, pts, [3, 2, 4, 1])
        self.n = normalize(self.datum)

    def check(self, const=1, bump=0, stray=None):
        """The exact check of the normalization with its constant times
        ``const``, its first witness exponent plus ``bump`` and, if given,
        one more witness point ``stray``."""
        n = copy.copy(self.n)
        n.const = self.n.const * const
        n.witness = FactoredRat(self.tw)
        n.witness.const = self.n.witness.const
        (q, k), *rest = self.n.witness.items
        n.witness.items = [(q, k + bump)] + rest
        if stray is not None:
            n.witness.mul_point(stray, 1)
        _check_witness_identity(self.datum, n)

    def test_untampered_witness_passes(self):
        self.check()

    @pytest.mark.parametrize("tamper", [
        {"bump": 1}, {"const": 2}, {"stray": 11}, {"stray": Fraction(1, 5)}])
    def test_tampered_witness_is_rejected(self, tamper):
        # every point and the constant keep 48 digits: the failure is
        # certified, not a shortfall of digits
        if "stray" in tamper:
            tamper = {"stray": self.tw.from_rational(tamper["stray"])}
        for _ in range(2):
            with pytest.raises(ConstructionMismatch):
                self.check(**tamper)

    def test_cover_without_usable_sample_points(self):
        tw = make_tower(5, 4, 1, 12)
        pts = [parse_point(tw, t) for t in ("16*pi", "1*pi", "-9*pi", "inf")]
        d = datum(tw, pts, [1, 1, 1, 2])
        n = normalize(d)
        assert (n.beta, n.gamma) == (1, 2)
        with pytest.raises(InsufficientPrecision):
            reference_sampling(d, n)

    @given(classify_covers())
    @settings(max_examples=100, deadline=None)
    def test_accepts_every_normalization(self, d):
        n = normalize(d)  # raises if the exact check fails
        _check_witness_identity(d, n)
        try:
            reference_sampling(d, n)
        except InsufficientPrecision:
            pass  # too few usable points, and every one found agreed
        bad = copy.copy(n)
        bad.const = n.const * 2
        with pytest.raises(ConstructionMismatch):
            _check_witness_identity(d, bad)

    # at 2 and 3 pi-digits the pullback's lead a - q c for the image of
    # pi^-2 is O(pi^k): it sends that image to infinity, and the identity
    # is left with the point pi^-2.  At 5 the image of a slot has one
    # digit, 2 + O(pi), and cannot be told from the two points
    # 2 + 2 pi^2 + O(pi^5) and 2 + O(pi^5): it merges with one of them,
    # and both are left over.  More digits place each point.
    @pytest.mark.parametrize("tokens, prec, outcome", [
        (FAR_POINT, 2, InsufficientPrecision), (FAR_POINT, 3, InsufficientPrecision),
        (FAR_POINT, 4, None),
        (CLOSE_POINTS, 5, InsufficientPrecision), (CLOSE_POINTS, 20, None)])
    def test_shortfall_is_insufficient_precision(self, tokens, prec, outcome):
        tw = make_tower(3, 2, 1, prec)
        d = datum(tw, [parse_point(tw, t) for t in tokens], [2, 2, 1, 1])
        if outcome is None:
            normalize(d)
        else:
            with pytest.raises(outcome):
                normalize(d)


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
            lhs = _eval(cover, m.apply(x))
            rhs = _eval(new, x) * _eval(wit, x) ** tw.p
            assert lhs.same(rhs)

    def test_rescale_identity(self):
        tw = T()
        cover = FactoredCover(tw, tw.from_int(3),
                              [(tw.from_int(1), 3), (tw.from_int(4), 4),
                               (tw.from_int(6), 3)])
        new, wit = cover.z_rescale(3)
        x = tw.from_int(11)
        assert (_eval(cover, x) ** 3).same(_eval(new, x) * _eval(wit, x) ** tw.p)


def reference_pullback(cover, m):
    """The loop ``FactoredCover.moebius_pullback`` ran before it went
    through ``FactoredRat.pullback``, kept as the reference."""
    tw, p = cover.tw, cover.tw.p
    a, b, c, d = m.entries()
    const = cover.const
    new_factors = []
    wit = FactoredRat(tw)
    if c.is_zeroish():
        scale = a / d
        for q, aa in cover.items:
            new_factors.append(((q * d - b) / a, aa))
            const = const * scale ** aa
        return FactoredCover(tw, const, new_factors), wit
    pole = -d / c
    D = 0
    for q, aa in cover.items:
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
        for got, want in [(new.items, ref.items), (wit.items, rwit.items)]:
            assert len(got) == len(want)
            for (q, k), (r, j) in zip(got, want):
                assert q.same(r) and k == j
        for got, want in [(new.const, ref.const), (wit.const, rwit.const)]:
            assert (got.s, got.U, got.ap, got.exact) == (want.s, want.U, want.ap, want.exact)


def reference_normalize(datum):
    """``normalize`` as it was built before m placed the slots by
    construction, kept as its reference: the cover pulled back by m^-1
    with the image of every point computed and matched against the three
    slots, and the witness of that pullback transported back to the source
    coordinate by ``pullback(m)``."""
    tw, p = datum.tower, datum.p
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
            order = [order[0], order[3], order[2], order[1]]
            continue
        if v == 0 and lam.residue() == 1:
            order = [order[1], order[0], order[2], order[3]]
            continue
        break
    else:
        raise InvalidInput("normalization moves did not terminate")
    a0, a1, ainf, alam = (datum.exps[i] for i in order)
    u = pow(a0, -1, p)
    beta = (u * a1) % p
    gamma = (u * alam) % p
    if (u * ainf) % p != (-(1 + beta + gamma)) % p:
        raise InvalidInput("exponent bookkeeping failed")
    powered, wit1 = FactoredCover.from_datum(datum).z_rescale(u)
    pulled, wit2 = powered.moebius_pullback(m.inverse())
    back = wit2.pullback(m)
    wit1.const = wit1.const * back.const
    for q, k in back.items:
        wit1.mul_point(q, k)
    target = {"zero": 1, "one": beta, "lam": gamma}
    seen = dict((k, 0) for k in target)
    for q, a in pulled.items:
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
    if not const.same(tw.one()) and not _is_exact_pth_power(const, p):
        tokens.append(("c^(1/%d)" % p, const.valuation()))
    n = NormalizedCover(tw, beta, gamma, lam, m, u, const, wit1,
                        constant_tokens=tokens)
    _check_witness_identity(datum, n)
    return n


def state(x):
    return (x.s, x.U, x.ap, x.exact)


def normalize_outcome(fn, d):
    """What fn(d) gives: the normal form's fields, with lambda and the
    constant by their stored form, or the class and message of its error."""
    try:
        n = fn(d)
    except FourCoverError as exc:
        return ("error", type(exc), str(exc))
    return ("cover", n.beta, n.gamma, n.u, state(n.lam), state(n.const),
            n.constant_tokens)


@st.composite
def general_covers(draw):
    """Four branch points over p in {3, 5, 7, 11}, e = p - 1: rational
    tokens n/d pi^k with infinity in any slot or in none (two of them may
    agree in every digit of the window), exponents summing to 0 mod p, and
    a precision from p - 1 pi-digits (one p-digit) up to 50 (p - 1), low
    ones as often as high."""
    p = draw(st.sampled_from([3, 5, 7, 11]))
    e = p - 1
    prec = draw(st.one_of(st.integers(e, 3 * e), st.integers(3 * e, 50 * e)))
    tw = make_tower(p, e, 1, prec)
    pts = [_rational(draw, tw) for _ in range(4)]
    slot = draw(st.sampled_from([0, 1, 2, 3, None]))
    if slot is not None:
        pts[slot] = INFPT
    exps = draw(st.lists(st.integers(1, p - 1), min_size=3, max_size=3)
                .filter(lambda a: sum(a) % p))
    exps.append(-sum(exps) % p)
    return tw, pts, exps


def apart_in_digits(tw, pts):
    """Whether the finite points differ within their digit windows, not
    only in their exact pairs."""
    finite = [El(tw, q.s, q.U, q.ap, None) for q in pts if q is not INFPT]
    return not any((a - b).is_zeroish()
                   for i, a in enumerate(finite) for b in finite[:i])


class TestNormalizeReference:
    @given(general_covers())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, cover):
        tw, pts, exps = cover
        try:
            d = datum(tw, pts, exps)
        except FourCoverError:
            return
        got = normalize_outcome(normalize, d)
        want = normalize_outcome(reference_normalize, d)
        # the reference's divisions for the images can lose the digits
        # that tell a slot apart, at a precision below 3 p-digits or when
        # two branch points agree in every digit and differ only in their
        # exact pairs; it then rejects a cover that the certificate may
        # accept.  What it normalizes stays the same at any precision.
        if want[0] == "cover" or (tw.prec >= 3 * (tw.p - 1)
                                  and apart_in_digits(tw, pts)):
            assert got == want


class TestPrecisionShortfall:
    @given(general_covers())
    @settings(max_examples=200, deadline=None)
    def test_apart_covers_normalize_or_need_digits(self, cover):
        # a cover whose points differ in their digits normalizes or raises
        # InsufficientPrecision, never InvalidInput or ConstructionMismatch,
        # and the shortfall is mended by more digits: mostly at 4x the
        # precision, and within three steps of 4x (a p = 3 cover at 2
        # pi-digits, with a point of valuation -5, normalizes at 32)
        tw, pts, exps = cover
        try:
            d = datum(tw, pts, exps)
        except FourCoverError:
            return
        if not apart_in_digits(tw, pts):
            return
        prec = tw.prec
        for _ in range(4):
            try:
                normalize(d)
                return
            except InsufficientPrecision:
                prec *= 4
                big = make_tower(tw.p, tw.e, 1, prec)
                d = datum(big, [q if q is INFPT else big.from_exact_pair(*q.exact)
                                for q in pts], exps)
        pytest.fail("no normal form at 64x the precision")
