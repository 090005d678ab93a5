import random

import pytest

from fourcover.errors import NotReduced, InvalidInput, ConstructionMismatch
from fourcover.ffield import FF, pmul, ppow, pnormalize
from fourcover.curves import (
    RatFunc, as_reduce, as_irreducible, as_genus, p_rank_DS, is_pth_power,
    ASCurve, InsepCurve, pole_profile, INF_PLACE,
)


def rf(ff, num, den=None):
    return RatFunc(ff, num, den)


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
            red = as_reduce(rf(ff, num, den)).reduced
            for _, order, _ in pole_profile(red):
                assert order % 3


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
                ASCurve(ff, rf(ff, [1]))  # constant reduces to zero
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
        c = ASCurve(ff, rf(ff, [0, 0, 0, 1]))
        c.profile = [(INF_PLACE, 4, 1)]
        with pytest.raises(ConstructionMismatch):
            as_genus(c)

    def test_not_reduced_raises(self):
        ff = FF(3, 1)
        with pytest.raises(NotReduced):
            ASCurve(ff, rf(ff, [1], [0, 0, 0, 1]), already_reduced=True).genus()


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
            red = as_reduce(u).reduced
            if red.is_zero():
                continue
            c = ASCurve(ff, red, already_reduced=True)
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
        curve = ASCurve(ff1, u)
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
        c = ASCurve(ff, rf(ff, [ff.neg(1)], [0, 0, 0, 0, 1]))
        assert c.render() == "T^5 - T + (4)/(x^4) = 0"
        ic = InsepCurve(ff, [0, 0, 4])
        assert ic.render() == "T^5 = 4*x^2"
        assert ic.genus() == 0
