"""The library's exact rational type against the stdlib ``Fraction``.

Every result is compared by its numerator and denominator, not by value
alone, so a result that is not in lowest terms or keeps a negative
denominator fails even when it equals the reference.  Operands run past
10^308, the largest finite float: no comparison may convert them.
"""

import math
import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fourcover.errors import InvalidInput
from fourcover.rational import Rational

BIG = 10 ** 400

ints = st.one_of(st.integers(-60, 60), st.integers(-BIG, BIG))
nonzero = ints.filter(bool)
# (numerator, denominator), the denominator of either sign and unreduced
pairs = st.tuples(ints, nonzero)

ARITHMETIC = [operator.add, operator.sub, operator.mul, operator.truediv]
COMPARISONS = [operator.lt, operator.le, operator.eq, operator.ne,
               operator.gt, operator.ge]


def same(r, ref):
    """r is the library Rational in lowest terms of ref's value."""
    return (type(r) is Rational
            and (r.numerator, r.denominator) == (ref.numerator, ref.denominator)
            and type(r.numerator) is int and type(r.denominator) is int)


@st.composite
def operands(draw):
    """A value as a library Rational, an int or a stdlib Fraction, with
    its stdlib Fraction reference."""
    n, d = draw(pairs)
    kind = draw(st.sampled_from(["rational", "int", "fraction"]))
    if kind == "int":
        return n, Fraction(n)
    if kind == "fraction":
        return Fraction(n, d), Fraction(n, d)
    return Rational(n, d), Fraction(n, d)


class TestConstruction:

    @given(pairs)
    def test_lowest_terms_with_a_positive_denominator(self, nd):
        n, d = nd
        assert same(Rational(n, d), Fraction(n, d))
        assert same(Rational(n), Fraction(n))

    @given(pairs, pairs)
    def test_rational_arguments_convert_by_value(self, a, b):
        fa, fb = Fraction(*a), Fraction(*b)
        assert same(Rational(fa), fa)
        assert same(Rational(Rational(*a)), fa)
        if fb:
            assert same(Rational(Rational(*a), fb), fa / fb)
            assert same(Rational(fa, Rational(*b)), fa / fb)
            assert same(Rational(a[0], Rational(*b)), a[0] / fb)

    def test_booleans_are_ints(self):
        assert same(Rational(True, 2), Fraction(1, 2))


class TestArithmetic:

    @given(operands(), operands(), st.sampled_from(ARITHMETIC))
    @settings(max_examples=400)
    def test_matches_fraction(self, a, b, op):
        (x, fx), (y, fy) = a, b
        if type(x) is not Rational and type(y) is not Rational:
            x = Rational(fx)   # one side at least is the library type
        if op is operator.truediv and fy == 0:
            with pytest.raises(InvalidInput):
                op(x, y)
            return
        assert same(op(x, y), op(fx, fy))

    @given(operands())
    def test_negation(self, a):
        x, fx = a
        assert same(-Rational(fx), -fx)

    @given(pairs, st.one_of(st.integers(-12, 12), st.integers(-12, 12).map(Rational)))
    def test_integral_powers(self, nd, n):
        x, fx = Rational(*nd), Fraction(*nd)
        k = int(n)
        if fx == 0 and k < 0:
            with pytest.raises(InvalidInput):
                x ** n
            return
        assert same(x ** n, fx ** k)

    @given(pairs, st.sampled_from([Rational(1, 2), Fraction(-1, 3), 0.5, "2"]))
    def test_powers_that_are_no_rational_raise(self, nd, n):
        with pytest.raises(InvalidInput):
            Rational(*nd) ** n


def comparands():
    """Everything a Rational compares with: ints, Fractions, Rationals
    and floats, the infinities and nan included, with the value the
    stdlib Fraction reference compares against."""
    return st.one_of(
        operands(),
        st.floats().map(lambda v: (v, v)),
        st.sampled_from([math.inf, -math.inf]).map(lambda v: (v, v)))


class TestComparison:

    @given(pairs, comparands(), st.sampled_from(COMPARISONS))
    @settings(max_examples=400)
    def test_matches_fraction_in_both_directions(self, nd, b, op):
        x, fx = Rational(*nd), Fraction(*nd)
        y, fy = b
        assert op(x, y) is op(fx, fy)
        assert op(y, x) is op(fy, fx)

    @given(st.integers(BIG // 100, BIG).map(lambda n: Rational(n, 7)))
    def test_huge_values_against_the_infinities(self, x):
        assert x < math.inf and -x > -math.inf and x != math.inf
        assert math.inf > x and -math.inf < -x
        assert min(math.inf, x) is x and max(-math.inf, -x) == -x
        assert not x == math.nan and x != math.nan

    def test_an_operand_of_no_rational_value_is_unequal(self):
        assert Rational(1, 2) != "1/2" and Rational(0) != None  # noqa: E711
        assert Rational(1, 2) != [1, 2] and not Rational(1) == "1"


class TestConversion:

    @given(pairs)
    @settings(max_examples=300)
    def test_floor_int_str_hash_bool(self, nd):
        x, fx = Rational(*nd), Fraction(*nd)
        assert math.floor(x) == math.floor(fx) and type(math.floor(x)) is int
        assert int(x) == int(fx) and type(int(x)) is int
        assert str(x) == str(fx)
        assert hash(x) == hash(fx)
        assert bool(x) is bool(fx)

    def test_hash_where_the_modulus_divides_the_denominator(self):
        m = sys.hash_info.modulus
        for x in (Fraction(1, m), Fraction(-3, m), Fraction(-1, 1), Fraction(m, 1)):
            assert hash(Rational(x)) == hash(x)

    def test_equal_values_are_one_key(self):
        keys = {Rational(1, 2): "a", Fraction(2, 4): "b", Rational(3): "c", 3: "d"}
        assert keys == {Rational(1, 2): "b", 3: "d"}


class TestZeroDenominators:

    @given(pairs)
    def test_raise_invalid_input(self, nd):
        x, zero = Rational(*nd), Rational(0)
        calls = [lambda: Rational(nd[0], 0), lambda: Rational(Fraction(*nd), 0),
                 lambda: Rational(nd[0], Fraction(0)), lambda: Rational(x, zero),
                 lambda: x / 0, lambda: x / zero, lambda: x / Fraction(0),
                 lambda: nd[0] / zero, lambda: Fraction(*nd) / zero,
                 lambda: zero ** -1, lambda: zero ** Rational(-3)]
        for call in calls:
            with pytest.raises(InvalidInput):
                call()

    @pytest.mark.parametrize("bad", ["1/2", 0.5, None, math.inf, [1]])
    def test_an_operand_of_no_rational_value_is_invalid_input(self, bad):
        with pytest.raises(InvalidInput):
            Rational(bad)
        with pytest.raises(InvalidInput):
            Rational(1, bad)
