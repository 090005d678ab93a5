import random
from fractions import Fraction

import pytest

from fourcover.errors import DegenerateModel, InvalidInput
from fourcover.tower import make_tower, Poly, INF
from fourcover.torsor import (
    torsor_case, maximize_h_bruteforce, lemma_hh_check,
    blowup_chart, TorsorOutcome, induced_case,
)


def T5():
    return make_tower(5, 4, 1, 48)


def T3():
    return make_tower(3, 2, 1, 36)


class TestTaylorShift:
    def test_square(self):
        t = T5()
        f = Poly.from_ints(t, [0, 0, 1])
        out = f.taylor(t.from_int(1), t.from_int(3))
        assert [c.exact[0] for c in out.c] == [1, 6, 9]

    def test_b_zero(self):
        t = T5()
        f = Poly.from_ints(t, [1, 7, 0, 2])
        out = f.taylor(t.from_int(2), t.zero())
        assert out.degree == 0
        assert out.coeff(0) == f.eval(t.from_int(2))

    def test_xp_shift_by_pi(self):
        t = T5()
        f = Poly.x_power(t, 5)
        out = f.taylor(t.zero(), t.pi())
        assert out.coeff(5) == t.pi_power(5)
        assert all(out.coeff(i).is_true_zero() for i in range(5))

    def test_shift_invertibility(self):
        t = T5()
        rng = random.Random(10)
        for _ in range(10):
            f = Poly.from_ints(t, [rng.randrange(-20, 20) for _ in range(5)] + [1])
            d, b = t.from_int(rng.randrange(1, 9)), t.from_int(rng.randrange(1, 5))
            sh = f.taylor(d, b)
            back = sh.taylor(t.zero(), b.inverse()).taylor(-d, t.one())
            for i in range(f.degree + 1):
                assert back.coeff(i) == f.coeff(i)


class TestTorsorCase:
    def test_artin_schreier_example(self):
        t = T5()
        f = Poly(t, [t.zero(), t.tau(), t.zero(), t.zero(), t.zero(), t.one()])
        out = torsor_case(f, Poly.x_power(t, 1))
        assert out.case == TorsorOutcome.ARTIN_SCHREIER
        assert out.w == Fraction(5, 4)
        # u = -x/x^5 = -x^(1-5): pole of order 4 at 0
        assert out.payload.u.render() == "(4)/(x^4)"
        assert out.payload.genus() == 6  # (p-1)/2 * ((4+1) - 2)

    def test_inseparable_example(self):
        t = T5()
        f = Poly(t, [t.zero(), t.zero(), t.from_int(5), t.zero(), t.zero(), t.one()])
        out = torsor_case(f, Poly.x_power(t, 1))
        assert out.case == TorsorOutcome.INSEPARABLE
        assert out.w == 1
        # normalized by p^1: T^5 = -x^2
        assert out.payload.render() == "T^5 = 4*x^2"

    def test_split_example(self):
        t = T5()
        f = Poly(t, [t.zero(), t.tau() ** 2, t.zero(), t.zero(), t.zero(), t.one()])
        out = torsor_case(f, Poly.x_power(t, 1))
        assert out.case == TorsorOutcome.SPLIT
        assert out.w == Fraction(5, 2)

    def test_degenerate(self):
        t = T5()
        h = Poly(t, [t.pi(), t.one()])
        f = h ** 5
        with pytest.raises(DegenerateModel):
            torsor_case(f, h)

    def test_monic_required(self):
        t = T5()
        f = Poly(t, [t.zero(), t.one(), t.zero(), t.zero(), t.zero(), t.from_int(2)])
        with pytest.raises(InvalidInput):
            torsor_case(f, Poly.x_power(t, 1))

    def test_split_monotone_under_deep_noise(self):
        t = T5()
        base = Poly(t, [t.zero(), t.tau() ** 2, t.zero(), t.zero(), t.zero(), t.one()])
        out = torsor_case(base, Poly.x_power(t, 1))
        noisy = base + Poly(t, [t.pi_power(int(out.w * t.e) + 3)])
        out2 = torsor_case(noisy, Poly.x_power(t, 1))
        assert out2.case == TorsorOutcome.SPLIT


class TestLemmaHH:
    def test_examples(self):
        t = T5()
        n = 10
        f = Poly(t, [t.zero(), t.tau()] + [t.zero()] * (n - 3) + [t.zero(), t.one()])
        assert f.degree == n
        assert lemma_hh_check(f)
        g = Poly(t, [t.zero()] * (n - 1) + [t.from_int(5), t.one()])
        assert not lemma_hh_check(g)
        assert not lemma_hh_check(Poly.x_power(t, n))


class TestBruteforce:
    def test_degenerate_marker(self):
        t = T3()
        h = Poly(t, [t.pi(), t.one()])
        f = h ** 3
        hh, w = maximize_h_bruteforce(f, digit_budget=6)
        assert w is INF

    def test_tau_level(self):
        t = T3()
        f = Poly(t, [t.zero(), t.tau(), t.zero(), t.one()])
        h, w = maximize_h_bruteforce(f, digit_budget=6)
        assert w == Fraction(3, 2)

    def test_p_level(self):
        t = T3()
        f = Poly(t, [t.zero(), t.from_int(3), t.zero(), t.one()])
        h, w = maximize_h_bruteforce(f, digit_budget=6)
        assert w == 1
        assert w < t.tau_valuation()

    def test_agreement_with_torsor_case(self):
        t = T3()
        rng = random.Random(123)
        checked = 0
        for _ in range(40):
            deg = rng.choice([3, 6])
            coeffs = []
            for i in range(deg):
                val = rng.randrange(0, 4)
                coeffs.append(t.from_int(rng.randrange(-2, 3)) * t.pi_power(val))
            f = Poly(t, coeffs + [t.one()])
            h0 = Poly.x_power(t, deg // 3)
            try:
                out = torsor_case(f, h0)
            except DegenerateModel:
                continue
            if out.case == TorsorOutcome.UNDECIDED:
                continue
            hb, wb = maximize_h_bruteforce(f, digit_budget=8)
            assert wb is not INF
            assert induced_case(wb, t) == out.case
            checked += 1
        assert checked >= 10


class TestBlowupChart:
    def test_chart_is_monic_and_matches_taylor(self):
        t = T5()
        lam = t.from_int(3)
        # C = x (x-1) (x-3)^2, a toy quartic
        C = Poly(t, [t.zero(), t.one()]) * Poly(t, [t.from_int(-1), t.one()]) \
            * Poly(t, [t.from_int(-3), t.one()]) ** 2
        d = t.from_int(2)
        b = t.pi_power(3)
        ch = blowup_chart(C, d, b)
        assert ch.N == 5
        assert ch.poly.c[-1].same(t.one())
        # coefficient of x2^(N-1) must be b C'(d)/C(d)
        expect = b * C.deriv().eval(d) / C.eval(d)
        assert ch.poly.coeff(ch.N - 1) == expect
