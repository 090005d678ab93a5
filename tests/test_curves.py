import random

import pytest
from hypothesis import given, settings, strategies as st

from fourcover.errors import NotReduced, InvalidInput, ConstructionMismatch
from fourcover.ffield import (
    FF, pmul, ppow, pnormalize, pdeg, pdivmod, pmod, psub, pscale, pfactor,
    pgcd,
)
from fourcover import curves, torsor
from fourcover.curves import (
    RatFunc, ASReduction, as_reduce, as_irreducible, as_genus, p_rank_DS,
    is_pth_power, ASCurve, InsepCurve, INF_PLACE,
)
from fourcover.tower import make_tower, Poly


def rf(ff, num, den=None):
    return RatFunc(ff, num, den)


# ---------------------------------------------------------------------------
# references: the pole profile from a second factorization of the
# denominator, and the reduction that re-factors the denominator after
# every correction, with the inverse modulo P by extended Euclid
# ---------------------------------------------------------------------------

def pole_profile(u):
    """Poles of u as a sorted list of (place, order, degree).

    Places are monic irreducible polynomials (coefficient tuples) or the
    marker "inf"; degree is the residue degree of the place.
    """
    ff = u.ff
    out = []
    for (poly, mult) in pfactor(ff, u.den):
        out.append((tuple(poly), mult, pdeg(poly)))
    deg_inf = pdeg(u.num) - pdeg(u.den)
    if deg_inf > 0:
        out.append((INF_PLACE, deg_inf, 1))
    return out


def _inv_mod(ff, a, P):
    """Inverse of a modulo the irreducible P (extended Euclid)."""
    a = pmod(ff, a, P)
    r0, r1 = list(P), a
    s0, s1 = [], [1]
    while pnormalize(r1):
        q, r = pdivmod(ff, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, psub(ff, s0, pmul(ff, q, s1))
    # r0 = gcd (a unit since P irreducible and a != 0 mod P)
    c = ff.inv(r0[0])
    return pmod(ff, pscale(ff, c, s0), P)


def reference_as_reduce(u):
    ff = u.ff
    p = ff.p
    witness = RatFunc(ff, [])
    cur = u
    # kill p-divisible pole orders at finite places, one per restart
    changed = True
    while changed:
        changed = False
        for place, order, _deg in pole_profile(cur):
            if place == INF_PLACE or order % p:
                continue
            P = list(place)
            k = order // p
            den_rest = pdivmod(ff, cur.den, ppow(ff, P, order))[0]
            A = pmod(ff, pmul(ff, cur.num, _inv_mod(ff, den_rest, P)), P)
            # p-th root in F_q[x]/(P), which has p^m elements
            B = ppow(ff, A, ff.p ** (ff.f * pdeg(P) - 1), P)
            w = RatFunc(ff, B, ppow(ff, P, k))
            cur = cur - w.frobenius_shift()
            witness = witness + w
            changed = True
            break
    # polynomial part: reduce exponents divisible by p, drop the constant
    poly_part, rem_num = pdivmod(ff, cur.num, cur.den)
    frac = RatFunc(ff, rem_num, cur.den)
    while True:
        top = pdeg(poly_part)
        if top < 1:
            break
        if top % p == 0 and poly_part[top] != 0:
            c = ff.pth_root(poly_part[top])
            w = RatFunc(ff, [0] * (top // p) + [c])
            poly_part = psub(ff, poly_part,
                             psub(ff, ppow(ff, [0] * (top // p) + [c], p),
                                  [0] * (top // p) + [c]))
            witness = witness + w
        else:
            break
    constant = poly_part[0] if poly_part else 0
    if poly_part:
        poly_part = pnormalize(poly_part[:0] + [0] + poly_part[1:])
    reduced = frac + RatFunc(ff, poly_part)
    return ASReduction(reduced, witness, constant, pole_profile(reduced))


def _irreducible(ff, deg, code):
    """The first monic irreducible of degree deg at or after code, in
    the order of the encodings of its low coefficients."""
    for k in range(ff.q ** deg):
        c = (code + k) % ff.q ** deg
        P = [c // ff.q ** i % ff.q for i in range(deg)] + [1]
        if pfactor(ff, P) == [(P, 1)]:
            return P
    raise AssertionError("no irreducible of degree %d" % deg)


@st.composite
def as_inputs(draw):
    """u = N / prod P^order + a polynomial + ℘(w) over F_(p^f), p in
    {2, 3, 5, 7}, f <= 2.  The first place P has a p-divisible pole order,
    every place has degree 1 or 2, and the polynomial part's degree may
    be divisible by p.  w = M/P^2 + a polynomial of degree <= 2, so a
    place or the polynomial part may need more than one correction."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    ff = FF(p, draw(st.integers(1, 2)))
    coeff = st.integers(0, ff.q - 1)
    places = []
    for i in range(draw(st.integers(1, 2))):
        deg = draw(st.integers(1, 2))
        P = _irreducible(ff, deg, draw(st.integers(0, ff.q ** deg - 1)))
        places.append((P, draw(st.sampled_from([p, 2 * p] if i == 0 else [1, 2, p]))))
    den = [1]
    for P, order in places:
        den = pmul(ff, den, ppow(ff, P, order))
    num = [draw(coeff) for _ in range(draw(st.integers(1, pdeg(den) + 1)))]
    top = draw(st.sampled_from([0, 1, 2, p, 2 * p]))
    poly = [draw(coeff) for _ in range(top)] + [draw(st.integers(1, ff.q - 1))]
    P = places[0][0]
    w = (rf(ff, [draw(coeff) for _ in range(2 * pdeg(P))], ppow(ff, P, 2))
         + rf(ff, [draw(coeff) for _ in range(3)]))
    return rf(ff, num, den) + rf(ff, poly) + w.frobenius_shift()


class TestAsReduce:
    def test_x5_plus_x3(self):
        ff = FF(5, 1)
        u = rf(ff, [0, 0, 0, 1, 0, 1])  # x^5 + x^3
        red = as_reduce(u)
        assert red.reduced == rf(ff, [0, 1, 0, 1])  # x^3 + x
        assert red.witness == rf(ff, [0, 1])        # x

    def test_constant_dies(self):
        ff = FF(5, 1)
        red = as_reduce(rf(ff, [2]))  # 7 mod 5
        assert red.reduced.is_zero()
        assert red.constant == 2

    def test_pole_prime_to_p_untouched(self):
        ff = FF(5, 1)
        u = rf(ff, [ff.neg(1)], [0, 0, 0, 0, 1])  # -x^(1-p) = -1/x^4
        red = as_reduce(u)
        assert red.reduced == u
        assert red.witness.is_zero()

    @pytest.mark.parametrize("f", [1, 2])
    def test_characteristic_two(self, f):
        # factoring x^2 + x raised ConstructionMismatch in characteristic 2
        ff = FF(2, f)
        u = rf(ff, [1], [0, 1, 1])  # 1/(x^2 + x): simple poles at 0 and 1
        red = as_reduce(u)
        assert red.reduced == u
        assert red.witness.is_zero()
        # poles of order 2 at 0 and 1 lose their even part
        u = rf(ff, [1], ppow(ff, [0, 1, 1], 2))
        red = as_reduce(u)
        assert [order for _, order, _ in red.profile] == [1, 1]
        assert red.reduced + red.witness.frobenius_shift() + rf(ff, [red.constant]) == u

    def test_idempotent_random(self):
        ff = FF(3, 1)
        rng = random.Random(4)
        for _ in range(30):
            num = pnormalize([rng.randrange(3) for _ in range(rng.randrange(1, 8))])
            den = pnormalize([rng.randrange(3) for _ in range(rng.randrange(1, 6))])
            if not den:
                continue
            u = rf(ff, num, den)
            r1 = as_reduce(u).reduced
            r2 = as_reduce(r1)
            assert r2.reduced == r1
            assert r2.witness.is_zero()

    def test_identity_u_minus_reduced_is_wp_w_plus_const(self):
        ff = FF(5, 1)
        rng = random.Random(8)
        for _ in range(25):
            num = pnormalize([rng.randrange(5) for _ in range(rng.randrange(1, 9))])
            den = pnormalize([rng.randrange(5) for _ in range(rng.randrange(1, 6))])
            if not den:
                continue
            u = rf(ff, num, den)
            red = as_reduce(u)
            lhs = u - red.reduced - rf(ff, [red.constant] if red.constant else [])
            assert lhs == red.witness.frobenius_shift()

    def test_pole_orders_prime_to_p(self):
        ff = FF(3, 1)
        rng = random.Random(15)
        for _ in range(30):
            num = pnormalize([rng.randrange(3) for _ in range(rng.randrange(1, 9))])
            den = pnormalize([rng.randrange(3) for _ in range(rng.randrange(1, 8))])
            if not den:
                continue
            for _, order, _ in as_reduce(rf(ff, num, den)).profile:
                assert order % 3


    @settings(max_examples=60, deadline=None)
    @given(as_inputs())
    def test_matches_the_restarting_reference(self, u):
        red, ref = as_reduce(u), reference_as_reduce(u)
        assert (red.reduced, red.witness, red.constant, red.profile) == \
            (ref.reduced, ref.witness, ref.constant, ref.profile)

    @settings(max_examples=100, deadline=None)
    @given(as_inputs())
    def test_profile_is_the_pole_profile_of_the_reduced_part(self, u):
        red = as_reduce(u)
        assert red.profile == pole_profile(red.reduced)

    def test_artin_schreier_outcome_factors_once(self, monkeypatch):
        # h = x, f = x^3 - tau x: r = h^3 - f = tau x, so w = v(tau) and
        # u = x / x^3 reduces to 1/x^2, a pole of order 2 prime to p = 3
        tw = make_tower(3, 2, 1, 30)
        x = Poly(tw, [tw.zero(), tw.one()])
        f = Poly(tw, [tw.zero(), -tw.tau(), tw.zero(), tw.one()])
        calls = []
        original = curves.pfactor

        def counting(ff, a):
            calls.append(a)
            return original(ff, a)
        monkeypatch.setattr(curves, "pfactor", counting)
        out = torsor._torsor_outcome(f, x)
        assert out.case == torsor.TorsorOutcome.ARTIN_SCHREIER
        assert out.payload.profile == [((0, 1), 2, 1)]
        assert len(calls) == 1


class TestAsIrreducible:
    def test_examples(self):
        ff = FF(5, 1)
        assert as_irreducible(rf(ff, [ff.neg(1)], [0, 0, 0, 0, 1]))
        assert not as_irreducible(rf(ff, [0, ff.neg(1), 0, 0, 0, 1]))  # x^5 - x
        assert not as_irreducible(rf(ff, [3]))

    def test_invariance_under_wp_w(self):
        ff = FF(5, 1)
        rng = random.Random(2)
        for _ in range(20):
            num = pnormalize([rng.randrange(5) for _ in range(rng.randrange(1, 7))])
            den = pnormalize([rng.randrange(5) for _ in range(rng.randrange(1, 5))])
            if not den:
                continue
            u = rf(ff, num, den)
            w = rf(ff, [rng.randrange(5) for _ in range(3)],
                   [rng.randrange(5), 1])
            assert as_irreducible(u) == as_irreducible(u + w.frobenius_shift())


class TestGenus:
    def test_x3_at_p5(self):
        ff = FF(5, 1)
        assert as_genus(rf(ff, [0, 0, 0, 1])) == 4

    def test_two_simple_poles(self):
        ff = FF(5, 1)
        u = rf(ff, [1, 0, 1], [0, 1])  # x + 1/x
        assert as_genus(u) == 4

    def test_degree_one(self):
        for p in (3, 5, 7):
            ff = FF(p, 1)
            with pytest.raises(NotReduced):
                # u = x is reduced, genus 0; but u=x gives genus 0 fine
                ASCurve(as_reduce(rf(ff, [1])))  # constant reduces to zero
            assert as_genus(rf(ff, [0, 1])) == 0

    def test_stich_vs_conductor_grid(self):
        # exact agreement for p in {3,5,7}, m in 2..8 prime to p
        rng = random.Random(77)
        for p in (3, 5, 7):
            ff = FF(p, 1)
            for m in range(2, 9):
                if m % p == 0:
                    continue
                for _ in range(5):
                    poly = [rng.randrange(p) for _ in range(m)] + [1 + rng.randrange(p - 1)]
                    u = rf(ff, poly)
                    red = as_reduce(u).reduced
                    if red.is_zero():
                        continue
                    g = as_genus(red)
                    if red.is_poly() and pnormalize(red.num) and (len(red.num) - 1) % p:
                        mm = len(red.num) - 1
                        assert g == (mm - 1) * (p - 1) // 2

    def test_oracle_disagreement_raises(self):
        # the degree shortcut must hold without assert, which -O strips
        ff = FF(5, 1)
        c = ASCurve(as_reduce(rf(ff, [0, 0, 0, 1])))
        c.profile = [(INF_PLACE, 4, 1)]
        with pytest.raises(ConstructionMismatch):
            as_genus(c)

    def test_not_reduced_raises(self):
        # a reduction that claims the pole of 1/x^3 at p = 3 as reduced
        ff = FF(3, 1)
        red = ASReduction(rf(ff, [1], [0, 0, 0, 1]), rf(ff, []), 0,
                          [((0, 1), 3, 1)])
        with pytest.raises(NotReduced):
            ASCurve(red)


class TestPRank:
    def test_table(self):
        p = 5
        assert p_rank_DS(p, 1) == 0
        assert p_rank_DS(p, 2) == p - 1
        assert p_rank_DS(5, 3) == 8
        with pytest.raises(InvalidInput):
            p_rank_DS(5, 0)

    def test_p_rank_le_genus_sampled(self):
        ff = FF(5, 1)
        rng = random.Random(6)
        for _ in range(20):
            num = pnormalize([rng.randrange(5) for _ in range(rng.randrange(2, 8))])
            den = ppow(ff, [rng.randrange(5), 1], rng.randrange(0, 3))
            u = rf(ff, num, den)
            red = as_reduce(u)
            if red.reduced.is_zero():
                continue
            c = ASCurve(red)
            assert c.p_rank() <= c.genus()

    def test_p_rank_zeta_oracle(self):
        """Independent check of Deuring-Shafarevich on one small curve.

        For p = 3, u = x + 1/x (poles 0 and infinity, orders 1), the curve
        T^3 - T + u = 0 has genus 2 and DS predicts p-rank 2.  We count
        points over F_{3^k}, k = 1..4, recover the L-polynomial by Newton
        identities, and read the p-rank off as deg(L mod 3).
        """
        p = 3
        ff1 = FF(p, 1)
        u = rf(ff1, [1, 0, 1], [0, 1])
        curve = ASCurve(as_reduce(u))
        g = curve.genus()
        assert g == 2
        counts = []
        for k in range(1, 2 * g + 1):
            ffk = FF(p, k)
            emb = ff1.embedding_into(ffk)
            n = 0
            for x in range(1, ffk.q):  # affine x != 0
                ux = ffk.add(x, ffk.inv(x))
                # solutions T of T^p - T = -u(x): p if trace-zero else 0
                for t in range(ffk.q):
                    if ffk.sub(ffk.pow(t, p), t) == ffk.neg(ux):
                        n += 1
            n += 2  # one (totally ramified) point above each of 0, inf
            counts.append(n)
        # a_k = q^k + 1 - N_k = sum of alpha_i^k
        aks = [p ** k + 1 - counts[k - 1] for k in range(1, 2 * g + 1)]
        # Newton identities: e_1 = a_1; i e_i = sum_{j<i} (-1)^(j-1) e_{i-j} a_j
        es = [1]
        for i in range(1, 2 * g + 1):
            acc = 0
            for j in range(1, i + 1):
                acc += (-1) ** (j - 1) * es[i - j] * aks[j - 1]
            assert acc % i == 0
            es.append(acc // i)
        # L(T) = prod (1 - alpha_i T) = sum (-1)^i e_i T^i
        lcoeffs = [(-1) ** i * es[i] for i in range(2 * g + 1)]
        assert lcoeffs[0] == 1
        # functional equation sanity: leading coefficient = p^g
        assert abs(lcoeffs[2 * g]) == p ** g
        prank = max(i for i, c in enumerate(lcoeffs) if c % p)
        assert prank == p_rank_DS(p, curve.branch_count()) == 2


class TestPthPower:
    def test_examples(self):
        ff = FF(5, 1)
        assert is_pth_power(ff, [1] + [0] * 9 + [1])
        assert not is_pth_power(ff, [0, 0, 0, 1])

    def test_2b3_t_shape(self):
        # t(x) = (x-1)^(p-1) x^(p-1) ((b+1)x - 1) with b+1 != 0 is not in k[x]^p
        for p in (5, 7):
            ff = FF(p, 1)
            for beta in range(1, p - 1):  # beta+1 != 0 mod p
                t = pmul(ff, ppow(ff, [ff.neg(1), 1], p - 1),
                         ppow(ff, [0, 1], p - 1))
                t = pmul(ff, t, [ff.neg(1), (beta + 1) % p])
                assert not is_pth_power(ff, t)


class TestRatFuncCoerce:
    def test_int_is_the_prime_field_constant(self):
        ff = FF(5, 2)
        assert (rf(ff, [1]) + (-1)).is_zero()
        assert rf(ff, []) + 7 == rf(ff, [2])
        assert rf(ff, [0, 1]) * 6 == rf(ff, [0, 1])


def reference_lowest_terms(ff, num, den):
    """(num, den) as ``RatFunc`` reduced them when it divided by every gcd
    with ``pdivmod``, kept as the reference for the slice that divides by
    a gcd x^k."""
    num, den = pnormalize(num), pnormalize(den)
    if not num:
        den = [1]
    g = pgcd(ff, num, den) if num else [1]
    if pdeg(g) > 0:
        num = pdivmod(ff, num, g)[0]
        den = pdivmod(ff, den, g)[0]
    if den[-1] != 1:
        c = ff.inv(den[-1])
        num, den = pscale(ff, c, num), pscale(ff, c, den)
    return num, den


@st.composite
def ratfunc_parts(draw):
    """num = x^i A G and den = x^j B G over F_(p^f), p in {2, 3, 5, 7},
    f <= 2: a common factor G (often 1, so the gcd is a power of x alone),
    powers of x on both sides, and A possibly zero."""
    ff = FF(draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(1, 2)))
    coeffs = st.lists(st.integers(0, ff.q - 1), max_size=4)
    A, B, G = draw(coeffs), draw(coeffs), draw(st.one_of(st.just([1]), coeffs))
    B = B + [draw(st.integers(1, ff.q - 1))]
    G = G + [draw(st.integers(1, ff.q - 1))]
    i, j = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return (ff, [0] * i + pmul(ff, A, G), [0] * j + pmul(ff, B, G))


class TestRatFuncLowestTerms:
    @given(ratfunc_parts())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_pdivmod_reference(self, parts):
        ff, num, den = parts
        u = rf(ff, num, den)
        assert (u.num, u.den) == reference_lowest_terms(ff, num, den)


class TestRatFuncErrors:
    def test_zero_denominator(self):
        with pytest.raises(InvalidInput):
            rf(FF(5, 1), [1], [0])

    def test_division_by_zero(self):
        ff = FF(5, 1)
        with pytest.raises(InvalidInput):
            rf(ff, [1, 1]) / rf(ff, [])

    def test_pole_in_eval(self):
        ff = FF(5, 1)
        u = rf(ff, [1], [0, 1])  # 1/x
        assert u.eval(2) == ff.inv(2)
        with pytest.raises(InvalidInput):
            u.eval(0)


class TestRender:
    def test_curve_strings(self):
        ff = FF(5, 1)
        c = ASCurve(as_reduce(rf(ff, [ff.neg(1)], [0, 0, 0, 0, 1])))
        assert c.render() == "T^5 - T + (4)/(x^4) = 0"
        ic = InsepCurve(ff, [0, 0, 4])
        assert ic.render() == "T^5 = 4*x^2"
        assert ic.genus() == 0
