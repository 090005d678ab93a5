import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fourcover.errors import (
    NeedsExtension, NegativeValuation, InsufficientPrecision,
    DivisionByIndistinguishableZero, InvalidInput, ConstructionMismatch,
)
from fourcover.tower import (
    make_tower, Tower, El, Poly, hensel_root, INF,
)


def state(y):
    """An element's whole stored form: two elements built the same way
    must agree on it, not only on their value."""
    return (y.s, y.U, y.ap, y.exact)


def outcome(fn, *args):
    """The stored form of fn(*args), or the type of the error it raises."""
    try:
        y = fn(*args)
    except Exception as exc:  # compared by type against the reference
        return type(exc)
    if isinstance(y, Poly):
        return [state(c) for c in y.c]
    return state(y)


def T(p=5, e=4, f=1, prec=50):
    return make_tower(p, e, f, prec)


class TestMakeTower:
    def test_examples(self):
        t = T(5, 4, 1, 50)
        assert t.tau().valuation() == Fraction(5, 4)
        assert t.tau() == t.pi_power(5)
        t2 = make_tower(7, 18, 1, 50)
        # tau^(1/3) = pi^7 since p/(3(p-1)) = 7/18
        assert t2.pi_power(7) ** 3 == t2.tau()
        with pytest.raises(InvalidInput):
            make_tower(2, 0, 1, 50)
        with pytest.raises(InvalidInput):
            make_tower(4, 1, 1, 50)

    def test_tau_needs_extension(self):
        t = make_tower(5, 3, 1, 30)
        with pytest.raises(NeedsExtension):
            t.tau()


class TestFromRational:
    def test_half_in_p5(self):
        t = T()
        x = t.from_rational(Fraction(1, 2))
        assert x.residue() == 3  # 2*3 = 1 mod 5

    def test_zero_marker(self):
        t = T()
        assert t.from_rational(0).valuation() == INF

    def test_p_squared(self):
        t = T()
        assert t.from_rational(25).valuation() == 2

    def test_roundtrip_reexpansion(self):
        lo = T(prec=20)
        hi = T(prec=40)
        rng = random.Random(3)
        for _ in range(25):
            q = Fraction(rng.randrange(-400, 400), rng.randrange(1, 120))
            if q == 0:
                continue
            a = lo.from_rational(q)
            b = hi.from_rational(q)
            assert a.digits() == b.digits(count=a.ap - a.s)


class TestValuation:
    def test_v_p(self):
        assert T().from_int(5).valuation() == 1

    def test_v_tau(self):
        t = T()
        assert t.tau().valuation() == Fraction(t.p, t.p - 1)

    def test_ultrametric_pi_plus_pi2(self):
        t = T()
        assert (t.pi() + t.pi_power(2)).valuation() == Fraction(1, 4)

    def test_insufficient(self):
        t = T(prec=8)
        x = t.pi_power(3) - t.pi_power(3)
        assert x.is_true_zero()
        y = t.one() + t.pi_power(20)  # beyond window once subtracted
        z = y - t.one() - t.pi_power(20)
        assert z.is_zeroish()

    def test_exact_cancellation_reexpands(self):
        # digit cancellation below the window, exact value survives
        t = T(prec=8)
        x = t.from_int(1) + t.from_int(624)  # 625 = 5^4
        assert x.valuation() == 4
        assert not x.is_zeroish()


class TestResidue:
    def test_basic(self):
        t = T()
        assert (t.one() + t.pi()).residue() == 1
        assert t.pi().residue() == 0
        with pytest.raises(NegativeValuation):
            t.from_rational(Fraction(1, 5)).residue()


class TestRingOps:
    def test_defining_relation(self):
        t = T()
        assert t.pi() * t.pi_power(t.e - 1) == t.from_int(-5)

    def test_sub_of_units(self):
        t = T()
        assert (t.one() + t.pi()) - t.one() == t.pi()

    def test_div_unit(self):
        t = T()
        for x in [t.from_int(7), t.one() + t.pi_power(3), t.from_rational(Fraction(2, 3))]:
            assert (x / x) == t.one()

    def test_div_by_zero(self):
        t = T()
        with pytest.raises(DivisionByIndistinguishableZero):
            t.one() / t.zero()

    def test_inverse_full_width_high_ramification(self):
        # on a heavily ramified f = 2 tower the inverse is a 48 x 48 solve;
        # it must still be exact across the whole window
        t = make_tower(7, 24, 2, 24 * 24)
        x = t.one() + t.pi_power(3) * t.lift_ff(5) + t.pi_power(17)
        prod = x * x.inverse()
        assert (prod - t.one()).is_zeroish()
        y = t.sqrt(t.from_int(2) + t.pi())  # 2 = 3^2 mod 7
        assert (y * y - (t.from_int(2) + t.pi())).is_zeroish()

    @given(st.integers(-200, 200), st.integers(-200, 200), st.integers(-3, 8))
    @settings(max_examples=60, deadline=None)
    def test_valuation_laws(self, a, b, k):
        t = T(prec=40)
        if a == 0 or b == 0:
            return
        x = t.from_rational(Fraction(a)) * t.pi_power(k)
        y = t.from_int(b)
        assert (x * y).valuation() == x.valuation() + y.valuation()
        s = x + y
        if x.valuation() != y.valuation():
            assert s.valuation() == min(x.valuation(), y.valuation())
        elif not s.is_zeroish():
            assert s.valuation() >= x.valuation()

    def test_residue_is_homomorphism(self):
        t = T(5, 4, 2, 40)
        rng = random.Random(9)
        for _ in range(20):
            x = t.lift_ff(rng.randrange(t.ff.q)) + t.pi() * rng.randrange(5)
            y = t.lift_ff(rng.randrange(t.ff.q)) + t.pi_power(2) * rng.randrange(5)
            assert (x * y).residue() == t.ff.mul(x.residue(), y.residue())
            assert (x + y).residue() == t.ff.add(x.residue(), y.residue())


def newton_inverse(x):
    """The Newton iteration z <- z (2 - u z) that ``El.inverse`` replaced,
    kept as the reference for the exact solve."""
    tw = x.tw
    exact = None
    if x.exact is not None:
        exact = (1 / x.exact[0], -x.exact[1])
    u = tw._canon(0, x.U, x.ap - x.s, None)
    z = tw.lift_ff(tw.ff.inv(u.residue()))
    two = tw.from_int(2)
    # accuracy starts at one pi-digit and doubles per round
    for _ in range(tw.prec.bit_length() + 2):
        z = z * (two - u * z)
    out = z * tw.pi_power(-x.s)
    return El(tw, out.s, out.U, min(out.ap, x.ap - 2 * x.s), exact)


def reference_product(x, y):
    """The per-coefficient product that ``El.__mul__`` replaced: each pair
    of W coefficients multiplied, reduced by the modulus lift and mod p^nl
    on its own, then pi^e folded by -p slot by slot."""
    tw = x.tw
    p, e, f, pm = tw.p, tw.e, tw.f, tw.pmod

    def wmul(u, v):
        if f == 1:
            return u * v % pm
        conv = [0] * (2 * f - 1)
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                conv[i + j] += a * b
        for k in range(2 * f - 2, f - 1, -1):
            c = conv[k] % pm
            for i in range(f):
                conv[k - f + i] -= c * tw.modulus[i]
        return tuple(c % pm for c in conv[:f])

    def wadd(u, v):
        if f == 1:
            return (u + v) % pm
        return tuple((a + b) % pm for a, b in zip(u, v))

    def wsmul(c, u):
        return c * u % pm if f == 1 else tuple(c * a % pm for a in u)

    conv = [0 if f == 1 else (0,) * f] * (2 * e - 1)
    for j, a in enumerate(x.U):
        for k, b in enumerate(y.U):
            conv[j + k] = wadd(conv[j + k], wmul(a, b))
    for t in range(2 * e - 2, e - 1, -1):
        conv[t - e] = wadd(conv[t - e], wsmul(-p, conv[t]))
    ap = min(x.ap + y.s, y.ap + x.s)
    return tw._canon(x.s + y.s, conv[:e], ap, None)


def reference_sum(x, y):
    """The per-coefficient sum that ``El.__add__`` replaced, for elements
    without an exact pair: each coefficient shifted to the smaller
    pi-valuation on its own, then added mod p^nl."""
    tw = x.tw
    p, e, f, pm = tw.p, tw.e, tw.f, tw.pmod

    def wadd(u, v):
        if f == 1:
            return (u + v) % pm
        return tuple((a + b) % pm for a, b in zip(u, v))

    def shifted(z, m):
        q, r = divmod(m, e)
        out = [0 if f == 1 else (0,) * f] * e
        for j, c in enumerate(z.U):
            t, qq = j + r, q
            if t >= e:
                t, qq = t - e, qq + 1
            scale = (-p) ** qq
            c = c * scale % pm if f == 1 else tuple(a * scale % pm for a in c)
            out[t] = wadd(out[t], c)
        return out

    s = min(x.s, y.s)
    U = [wadd(a, b) for a, b in zip(shifted(x, x.s - s), shifted(y, y.s - s))]
    return tw._canon(s, U, min(x.ap, y.ap), None)


def _tower_unit(draw, tw):
    s = draw(st.integers(-3 * tw.e, 3 * tw.e))
    p = tw.p
    if draw(st.booleans()):
        num = draw(st.integers(1, 10 ** 6).filter(lambda n: n % p))
        den = draw(st.integers(1, 10 ** 6).filter(lambda n: n % p))
        x = tw.from_exact_pair(Fraction(num, den), s)
    else:
        digits = st.integers(0, p ** tw.nl - 1)
        U = []
        for j in range(tw.e):
            coords = [draw(digits) for _ in range(tw.f)]
            if j == 0 and all(c % p == 0 for c in coords):
                coords[0] += 1
            U.append(coords[0] if tw.f == 1 else tuple(coords))
        x = tw._canon(s, U, s + draw(st.integers(1, tw.prec)), None)
    return -x if draw(st.booleans()) else x


@st.composite
def tower_units(draw, count):
    """``count`` elements pi^s u of one tower, u a unit with random digits
    (or an exact rational), with p in {2,3,5,7}, e <= 12, f <= 2 and a
    random pi-shift s and truncated ap."""
    e = draw(st.integers(1, 12))
    tw = make_tower(draw(st.sampled_from([2, 3, 5, 7])), e,
                    draw(st.integers(1, 2)), draw(st.integers(1, 8 * e)))
    return [_tower_unit(draw, tw) for _ in range(count)]


class TestInverse:
    @given(tower_units(1))
    @settings(max_examples=150, deadline=None)
    def test_matches_newton(self, xs):
        x, = xs
        y = x.inverse()
        ref = newton_inverse(x)
        assert (y.s, y.U, y.ap, y.exact) == (ref.s, ref.U, ref.ap, ref.exact)
        assert (x * y - x.tw.one()).is_zeroish()

    @given(tower_units(2))
    @settings(max_examples=100, deadline=None)
    def test_product_matches_reference(self, xs):
        x, y = xs
        z, ref = x * y, reference_product(x, y)
        assert (z.s, z.U, z.ap) == (ref.s, ref.U, ref.ap)

    @given(tower_units(3), st.integers(0, 30))
    @settings(max_examples=100, deadline=None)
    def test_sum_matches_reference(self, xs, k):
        x, y, w = [El(v.tw, v.s, v.U, v.ap, None) for v in xs]
        # y + w pi^k - x cancels the leading digits of -x against x
        for a, b in [(x, y), (x, -x + w * x.tw.pi_power(k))]:
            if b.is_zeroish():
                continue
            z, ref = a + b, reference_sum(a, b)
            assert (z.s, z.U, z.ap) == (ref.s, ref.U, ref.ap)

    def test_missing_pivot_is_typed(self):
        # a non-unit U[0] is never canonical, but the solve must still end
        # in a typed error rather than a host exception
        t = T(5, 3, 1, 30)
        with pytest.raises(ConstructionMismatch):
            t._unit_inverse([5, 1, 1])
        t2 = T(5, 3, 2, 30)
        with pytest.raises(ConstructionMismatch):
            t2._unit_inverse([(0, 5), (1, 0), (0, 1)])


def newton_sqrt(tw, x):
    """The fixed-step Newton loop y <- (y + u/y)/2 that ``Tower.sqrt``
    replaced, kept as the reference for its lift through ``hensel_root``."""
    if tw.p == 2:
        raise NeedsExtension("p = 2")
    if x.is_zeroish():
        if x.is_true_zero():
            return tw.zero()
        raise InsufficientPrecision("sqrt of an indistinguishable zero")
    s = x.pival()
    if s % 2:
        raise NeedsExtension("odd pi-valuation")
    exact = None
    if x.exact is not None:
        q, m = x.exact
        if m % 2 == 0 and q > 0:
            rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
            if rn * rn == q.numerator and rd * rd == q.denominator:
                exact = (Fraction(rn, rd), m // 2)
    u = x * tw.pi_power(-s)
    rr = tw.ff.sqrt(u.residue())
    if rr is None:
        raise NeedsExtension("non-square residue")
    y = tw.lift_ff(rr)
    inv2 = tw.from_rational(Fraction(1, 2))
    for _ in range(tw.prec.bit_length() + 2):
        y = (y + u / y) * inv2
    if not (y * y - u).is_zeroish():
        raise InsufficientPrecision("sqrt iteration did not close")
    if min(rr, tw.ff.neg(rr)) != rr:
        y = -y
    y = y * tw.pi_power(s // 2)
    if exact is not None:
        if not (y - tw.from_exact_pair(*exact)).is_zeroish():
            y = -y
        y = El(tw, y.s, y.U, y.ap, exact)
    return y


@st.composite
def sqrt_arguments(draw):
    """Squares over p in {3,5,7}, e <= 12, f <= 2: exact rational squares,
    squares of full-width units, and squares truncated to a short ap."""
    e = draw(st.integers(1, 12))
    tw = make_tower(draw(st.sampled_from([3, 5, 7])), e,
                    draw(st.integers(1, 2)), draw(st.integers(1, 8 * e)))
    kind = draw(st.sampled_from(["exact", "unit", "short"]))
    s = draw(st.integers(-2 * e, 2 * e))
    if kind == "exact":
        q = Fraction(draw(st.integers(1, 10 ** 6)), draw(st.integers(1, 10 ** 6)))
        return tw.from_exact_pair(q * q, 2 * s)
    y = _tower_unit(draw, tw)
    y = El(tw, y.s, y.U, y.ap, None) if kind == "unit" else y
    x = y * y
    if kind == "short" and not x.is_zeroish():
        x = tw._canon(x.s, x.U, x.s + draw(st.integers(1, 4)), x.exact)
    return x


class TestSqrt:
    @given(sqrt_arguments())
    @settings(max_examples=200, deadline=None)
    def test_matches_newton(self, x):
        ref = newton_sqrt(x.tw, x)
        y = x.tw.sqrt(x)
        assert (y.s, y.U, y.ap, y.exact) == (ref.s, ref.U, ref.ap, ref.exact)
        assert (y * y - x).is_zeroish()

    def test_sqrt9(self):
        t = T()
        r = t.sqrt(t.from_int(9))
        # exact rational squares keep the positive rational root (and the
        # exactness flag); inexact arguments use the least-residue branch
        assert r == t.from_int(3)
        assert r.exact is not None
        assert r * r == t.from_int(9)
        assert t.sqrt(t.from_int(4) + t.pi()).residue() == 2  # roots 2, 3

    def test_sqrt_needs_ramified(self):
        t = make_tower(5, 1, 1, 30)
        with pytest.raises(NeedsExtension) as ei:
            t.sqrt(t.from_int(5))
        assert ei.value.e == 2

    def test_sqrt_defining(self):
        t = make_tower(5, 2, 1, 30)
        r = t.sqrt(t.from_int(-5))
        assert r == t.pi() or r == -t.pi()

    def test_sqrt_unramified_extension(self):
        t = T()
        with pytest.raises(NeedsExtension) as ei:
            t.sqrt(t.from_int(2))  # 2 is not a square mod 5
        assert ei.value.f == 2

    def test_sqrt_precision_property(self):
        t = T(prec=40)
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randrange(1, 200)
            x = t.from_int(n * n)
            y = t.sqrt(x)
            assert (y * y - x).is_zeroish()


def reference_pow(x, n):
    """The square-and-multiply loop that ``El.__pow__`` replaced: it starts
    from one() and squares the base once more after the top bit."""
    if n < 0:
        return reference_pow(x.inverse(), -n)
    out = x.tw.one()
    base = x
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


def reference_poly_pow(P, n):
    """The same loop for ``Poly.__pow__``, from the constant polynomial 1."""
    out = Poly(P.tw, [P.tw.one()])
    base = P
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


def reference_eval(P, x):
    """Horner's rule from zero(), as ``Poly.eval`` ran it before."""
    out = P.tw.zero()
    for a in reversed(P.c):
        out = out * x + a
    return out


def division_hensel_root(P, residue_enc):
    """The Newton loop x <- x - P(x)/P'(x) that ``hensel_root`` replaced,
    with a full tower inverse in every step."""
    tw = P.tw
    Pd = P.deriv()
    x = tw.lift_ff(residue_enc)
    d = Pd.eval(x)
    if d.is_zeroish() or d.pival() != 0:
        raise ConstructionMismatch("residue root is not simple")
    fx = P.eval(x)
    if not fx.is_zeroish() and fx.pival() <= 0:
        raise ConstructionMismatch("not a residue root")
    for _ in range(tw.prec.bit_length() + 2):
        if fx.is_zeroish():
            break
        x = x - fx / Pd.eval(x)
        fx = P.eval(x)
    if not fx.is_zeroish():
        raise InsufficientPrecision("Newton lifting did not converge")
    if x.is_zeroish() or fx.is_true_zero() or fx.ap >= x.ap:
        return x
    return tw._canon(x.s, x.U, fx.ap, x.exact)


@st.composite
def elements(draw, tw):
    """A unit times a pi-power (full or truncated window, maybe negated),
    an exact token, a fuzzy zero O(pi^k) or a true zero."""
    kind = draw(st.sampled_from(["unit", "unit", "unit", "token", "fuzzy", "zero"]))
    if kind == "fuzzy":
        return El(tw, None, None, draw(st.integers(-tw.e, 2 * tw.prec)), None)
    if kind == "zero":
        return tw.zero()
    if kind == "token":
        q = Fraction(draw(st.integers(-10 ** 4, 10 ** 4).filter(bool)),
                     draw(st.integers(1, 10 ** 4)))
        return tw.from_exact_pair(q, draw(st.integers(-tw.e, 2 * tw.e)))
    return _tower_unit(draw, tw)


@st.composite
def towers(draw, primes=(2, 3, 5, 7), prec_per_e=8):
    """A tower with p in primes, e <= 12, f <= 2 and a random precision."""
    e = draw(st.integers(1, 12))
    return make_tower(draw(st.sampled_from(primes)), e, draw(st.integers(1, 2)),
                      draw(st.integers(1, prec_per_e * e)))


@st.composite
def polys(draw, max_degree):
    tw = draw(towers())
    d = draw(st.integers(-1, max_degree))
    return Poly(tw, [draw(elements(tw)) for _ in range(d + 1)])


@st.composite
def lift_problems(draw):
    """(P, r): P over p in {3,5,7}, e <= 12, f <= 2 and precision up to
    200 e, and a residue root r of P, simple unless P'(r) = 0 mod pi.
    Each c_i = lift(a_i) + t_i for i >= 1, with a random residue a_i
    lifted by ``lift_ff`` or as an exact integer, and
    c_0 = t_0 - sum c_i lift(r)^i.  The t_i come from ``elements``,
    moved up by a pi-power to a positive valuation when they have one."""
    tw = draw(towers(primes=(3, 5, 7), prec_per_e=200))
    r = draw(st.integers(0, tw.ff.q - 1))

    def term():
        t = draw(elements(tw))
        return t if t.is_zeroish() else t * tw.pi_power(max(0, 1 - t.pival()))

    def residue_lift():
        if exact:
            return tw.from_int(draw(st.integers(0, tw.p - 1)))
        return tw.lift_ff(draw(st.integers(0, tw.ff.q - 1)))

    exact = draw(st.booleans())
    coeffs = [tw.zero()] + [residue_lift() + term()
                            for _ in range(draw(st.integers(1, 4)))]
    coeffs[0] = term() - Poly(tw, coeffs).eval(tw.lift_ff(r))
    return Poly(tw, coeffs), r


class TestLadders:
    """The power, Horner and root-lifting loops against the loops they
    replaced: the same stored form (s, U, ap, exact) or the same error."""

    @given(towers().flatmap(elements), st.integers(-4, 40))
    @settings(max_examples=200, deadline=None)
    def test_pow_matches_reference(self, x, n):
        assert outcome(pow, x, n) == outcome(reference_pow, x, n)

    @given(polys(2), st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_poly_pow_matches_reference(self, P, n):
        assert outcome(pow, P, n) == outcome(reference_poly_pow, P, n)

    @given(polys(5), st.data())
    @settings(max_examples=150, deadline=None)
    def test_eval_matches_reference(self, P, data):
        x = data.draw(elements(P.tw))
        assert outcome(P.eval, x) == outcome(reference_eval, P, x)

    @given(lift_problems())
    @settings(max_examples=150, deadline=None)
    def test_hensel_matches_division_loop(self, problem):
        P, r = problem
        ref = P
        if r == 0 and all(c.exact is not None for c in P.c):
            # From the exact lift 0 of an exact P every iterate of the
            # division loop can stay an exact rational, whose P(x) never
            # reads as zero: that loop then ends in InsufficientPrecision,
            # after rationals that grow geometrically.  The reference runs
            # on the same digits without exact pairs instead.
            ref = Poly(P.tw, [c if c.is_zeroish() else El(c.tw, c.s, c.U, c.ap, None)
                              for c in P.c])
        assert outcome(hensel_root, P, r) == outcome(division_hensel_root, ref, r)


class TestCanonicalForm:
    """One value has one stored form: every result equals its own
    re-canonicalization, so results can be compared on (s, U, ap, exact)."""

    def test_negation_masks_to_the_window(self):
        t = T(5, 4, 1, 20)
        y = -t._canon(0, [1, 2, 3, 4], 6, None)
        assert y.U == (24, 23, 2, 1)

    @given(tower_units(2), st.integers(-3, 6))
    @settings(max_examples=150, deadline=None)
    def test_results_are_canonical(self, xs, n):
        x, y = xs
        tw = x.tw
        for z in (-x, x + y, x - y, x * y, x.inverse(), x ** n):
            if not z.is_zeroish():
                assert state(z) == state(tw._canon(z.s, list(z.U), z.ap, z.exact))

    @pytest.mark.parametrize("p,e,f,prec", [(2, 1, 1, 8), (5, 4, 1, 20), (3, 2, 2, 30)])
    def test_one_and_zero_are_built_once(self, p, e, f, prec, monkeypatch):
        tw = T(p, e, f, prec)
        canon = counted(monkeypatch, Tower, "_canon")
        ones, zeros = [tw.one() for _ in range(3)], [tw.zero() for _ in range(3)]
        assert canon == []
        unit, nil = (1, 0) if f == 1 else ((1,) + (0,) * (f - 1), (0,) * f)
        for one, zero in zip(ones, zeros):
            assert state(one) == (0, (unit,) + (nil,) * (e - 1), prec, (Fraction(1), 0))
            assert state(one) == state(tw.from_exact_pair(Fraction(1), 0))
            assert state(zero) == (None, None, None, (Fraction(0), 0))
            assert one.tw is tw and zero.tw is tw

    def test_tower_holds_no_element_of_itself(self):
        # a tower tied into a reference cycle would outlive its last use
        # until the cyclic collector runs, raising peak memory
        tw = T(5, 4, 1, 20)
        tw.one() + tw.zero()
        ref = weakref.ref(tw)
        del tw
        assert ref() is None


def counted(monkeypatch, cls, name):
    """Count the calls of cls.name for the rest of the test."""
    calls = []
    original = cls.__dict__[name]

    def wrapper(*args):
        calls.append(name)
        return original(*args)
    monkeypatch.setattr(cls, name, wrapper)
    return calls


class TestOperationCounts:
    def test_pow_multiplies(self, monkeypatch):
        t = T(5, 4, 1, 40)
        x = t.one() + t.pi()
        P = Poly(t, [t.zero(), x])
        muls = counted(monkeypatch, El, "__mul__")
        poly_muls = counted(monkeypatch, Poly, "__mul__")
        assert state(x ** 0) == state(t.one()) and (P ** 0).c[0].exact == (1, 0)
        assert not muls and not poly_muls
        for n in range(1, 65):
            # bit_length - 1 squarings and popcount - 1 products
            expected = n.bit_length() - 1 + bin(n).count("1") - 1
            del muls[:]
            x ** n
            assert len(muls) == expected
            del poly_muls[:]
            P ** n
            assert len(poly_muls) == expected

    def test_eval_multiplies(self, monkeypatch):
        t = T(5, 4, 1, 40)
        x = t.from_int(3) + t.pi()
        muls = counted(monkeypatch, El, "__mul__")
        for d in range(9):
            P = Poly(t, [t.from_int(k + 2) for k in range(d + 1)])
            del muls[:]
            P.eval(x)
            assert len(muls) == d

    def test_hensel_root_divides_nowhere(self, monkeypatch):
        t = make_tower(7, 12, 2, 600)
        u = t.from_int(2) + t.pi() * t.lift_ff(9)
        inverses = counted(monkeypatch, El, "inverse")
        y = hensel_root(Poly(t, [-u, 0, 1]), t.ff.sqrt(u.residue()))
        assert (y * y - u).is_zeroish()
        assert not inverses

    def test_negative_poly_power_is_typed(self):
        t = T()
        with pytest.raises(InvalidInput):
            Poly.from_ints(t, [1, 1]) ** -1


class TestTokens:
    def test_parse(self):
        t = T()
        assert t.parse("tau^2") == t.tau() ** 2
        assert t.parse("5^3") == t.from_int(125)
        assert t.parse("3/7*pi^2") == t.from_rational(Fraction(3, 7)) * t.pi_power(2)
        assert t.parse("-2") == t.from_int(-2)
        assert t.parse("tau^2*pi^-1") == t.tau() ** 2 / t.pi()
        with pytest.raises(InvalidInput):
            t.parse("spam")

    def test_e_requirement(self):
        assert Tower.token_e_requirement(5, "tau^2") == 2
        assert Tower.token_e_requirement(5, "tau") == 4
        assert Tower.token_e_requirement(5, "7/3") == 1
        assert Tower.token_e_requirement(7, "tau^3") == 2


class TestEmbed:
    def test_exact_embed(self):
        small = T(5, 4, 1, 30)
        big = make_tower(5, 8, 1, 60)
        x = small.parse("tau^2*3/7")
        y = small.embed(x, big)
        assert y.valuation() == x.valuation()
        assert y == big.parse("tau^2*3/7")

    def test_digit_embed(self):
        small = T(5, 4, 1, 30)
        big = make_tower(5, 8, 2, 60)
        x = small.one() + small.pi() + small.pi_power(3) * 4
        y = small.embed(x, big)
        # strip exactness to force the digit path
        from fourcover.tower import El
        xx = El(small, x.s, x.U, x.ap, None)
        y2 = small.embed(xx, big)
        assert y2 == big.one() + big.pi_power(2) + big.pi_power(6) * 4
        assert y == y2

    def test_f_embed_roundtrip(self):
        small = make_tower(5, 2, 2, 30)
        big = make_tower(5, 4, 4, 60)
        a_small = small.lift_ff(small.ff.encode([0, 1]))  # the generator of F_25
        img = small.embed(a_small + small.pi(), big)
        # the image must satisfy the same minimal polynomial mod pi
        mod = small.modulus  # full monic coefficient list
        acc = big.zero()
        ai = img - big.pi_power(2)  # subtract the embedded pi
        for i, c in enumerate(mod):
            acc = acc + big.from_int(c) * ai ** i
        assert acc.residue() == 0


class TestPoly:
    def test_taylor_known_values(self):
        t = T()
        f = Poly.from_ints(t, [0, 0, 1])  # x^2
        sh = f.taylor(t.from_int(1), t.from_int(3))
        assert [c.exact[0] for c in sh.c] == [1, 6, 9]
        g = Poly.from_ints(t, [2, 0, 5, 1])
        assert g.taylor(t.from_int(4), t.zero()).degree == 0
        assert g.taylor(t.from_int(4), t.zero()).coeff(0) == g.eval(t.from_int(4))
        h = Poly.x_power(t, 5)  # x^p, p = 5
        sh = h.taylor(t.zero(), t.pi())
        assert sh.coeff(5) == t.pi_power(5)
        assert all(sh.coeff(i).is_true_zero() for i in range(5))

    def test_taylor_inverse(self):
        t = T(prec=40)
        rng = random.Random(1)
        f = Poly.from_ints(t, [rng.randrange(-9, 9) for _ in range(6)] + [1])
        d = t.from_int(3)
        b = t.from_int(2)
        sh = f.taylor(d, b)
        # invert: shift by -d/b after unscaling
        back = sh.taylor(t.zero(), b.inverse()).taylor(-d, t.one())
        for i in range(f.degree + 1):
            assert back.coeff(i) == f.coeff(i)

    def test_gauss_valuation(self):
        t = T()
        f = Poly(t, [t.from_int(25), t.pi(), t.from_int(75)])
        assert f.gauss_valuation() == Fraction(1, 4)
        assert Poly(t, []).gauss_valuation() == INF

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=5),
           st.lists(st.integers(-20, 20), min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_gauss_multiplicative(self, ac, bc):
        t = T(prec=30)
        f = Poly.from_ints(t, ac)
        g = Poly.from_ints(t, bc)
        if not f.c or not g.c:
            return
        vf, vg = f.gauss_valuation(), g.gauss_valuation()
        assert (f * g).gauss_valuation() == vf + vg


class TestRoots:
    def test_hensel_simple(self):
        t = T()
        f = Poly.from_ints(t, [-2, 0, 1])  # x^2 - 2 has no root mod 5... use x^2 - 4
        f = Poly.from_ints(t, [-4, 0, 1])
        r = hensel_root(f, 2)
        assert r == t.from_int(2)

    def test_hensel_rejects_multiple_residue_root(self):
        t = T(prec=40)
        f = Poly(t, [t.from_int(6), t.from_int(-7), t.one()])  # (x-1)(x-6)
        with pytest.raises(ConstructionMismatch):
            hensel_root(f, 1)  # 1 = 6 mod 5 is a double residue root

    def test_hensel_precision_capped_by_residual(self):
        # P(2) = 4 - (4 + O(pi^3)) is already O(pi^3), so the root is only
        # known to pi^3, as Tower.sqrt of the same value reports
        t = T(5, 4, 1, 40)
        u = t.from_int(4) + El(t, None, None, 3, None)
        r = hensel_root(Poly(t, [-u, 0, 1]), 2)
        assert (r.s, r.ap) == (0, 3)
        assert r.str() == t.sqrt(u).str() == "2 + O(pi^3)"

    def test_hensel_exact_polynomial_from_zero(self):
        # x^2 - 6x + 5 = (x - 5)(x - 1): the root at residue 0 is 5, though
        # every division-loop iterate from the exact lift 0 is rational
        t = T(5, 2, 1, 40)
        r = hensel_root(Poly.from_ints(t, [5, -6, 1]), 0)
        assert r == t.from_int(5) and r.exact is None

    def test_hensel_zeroish_root_unchanged(self):
        # x (x - 1) + O(pi^3): the root at residue 0 is the lift 0 itself
        t = T(5, 4, 1, 40)
        f = Poly(t, [El(t, None, None, 3, None), -t.one(), t.one()])
        assert hensel_root(f, 0).is_true_zero()
