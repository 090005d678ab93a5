"""The exported API at its rational boundary: every call returns a value
or raises a ``FourCoverError``, never a host exception.

Operands are ints, stdlib Fractions and library Rationals (zero, negative
and past 10^400 included), elements (exact tokens, digit-only units,
fuzzy zeros O(pi^k) and the true zero) and foreign objects, at
p in {2, 3, 5, 7}.  They meet ``El`` ``+ - * / **`` from either side,
``same``, ``valuation``, ``from_rational`` and ``Poly`` construction.

Hypothesis's deadline is measured after a call returns, so it cannot stop
a hang.  Each test's whole batch of examples therefore runs under a
SIGALRM timer of BATCH_S seconds, far above the second or two a batch
takes; the timer raises a BaseException, which Hypothesis does not catch
to shrink, so a hang fails the test at once.
"""

import math
import operator
import signal
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fourcover import FourCoverError, InvalidInput, Poly, Rational, make_tower
from fourcover.curves import RatFunc
from fourcover.ffield import FF, binary_power, ppow

BATCH_S = 60
BIG = 10 ** 400
# an int whose str() passes the host's 4300-digit limit
HUGE = 10 ** 5000


class BatchTimeout(BaseException):
    """A batch of examples ran past BATCH_S seconds."""


@pytest.fixture(autouse=True)
def batch_timer():
    def expire(signum, frame):
        raise BatchTimeout("the batch ran past %d s" % BATCH_S)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, BATCH_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def typed(call, *args):
    """call(*args), or None when it raises a FourCoverError; any other
    exception fails the test."""
    try:
        return call(*args)
    except FourCoverError:
        return None


@st.composite
def towers(draw):
    e = draw(st.integers(1, 4))
    return make_tower(draw(st.sampled_from([2, 3, 5, 7])), e,
                      draw(st.integers(1, 2)), draw(st.integers(1, 12 * e)))


@st.composite
def rationals(draw):
    """An int, a stdlib Fraction or a library Rational."""
    num = draw(st.one_of(st.integers(-40, 40), st.integers(-BIG, BIG)))
    den = draw(st.one_of(st.integers(1, 40), st.integers(1, BIG)))
    kind = draw(st.sampled_from([int, Fraction, Rational]))
    return num if kind is int else kind(num, den)


# objects of no rational value, and two whose repr would pass Python's
# 4300-digit limit on int-to-str conversion, which no error message may
# trip over
FOREIGN = ["1/2", 0.5, -0.0, math.inf, math.nan, None, b"3", [1], 1j,
           [10 ** 4400], Fraction(10 ** 4400 + 1, 3)]


@st.composite
def elements(draw, tw):
    m = draw(st.integers(-3 * tw.e, 3 * tw.e))
    kind = draw(st.sampled_from(["exact", "digits", "fuzzy", "zero"]))
    if kind == "zero":
        return tw.zero()
    if kind == "exact":
        return typed(tw.from_exact_pair, draw(rationals()), m) or tw.one()
    unit = tw.lift_ff(draw(st.integers(1, tw.ff.q - 1)))
    if kind == "fuzzy":
        unit = unit - unit   # O(pi^prec), with no exact pair
    return unit * tw.pi_power(m)


def operands(tw):
    return st.one_of(rationals(), elements(tw), st.sampled_from(FOREIGN))


class TestElementOperators:

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_arithmetic_from_either_side(self, data):
        tw = data.draw(towers())
        x = data.draw(elements(tw))
        y = data.draw(operands(tw))
        for call in (lambda: x + y, lambda: y + x, lambda: x - y, lambda: y - x,
                     lambda: x * y, lambda: y * x, lambda: x / y, lambda: y / x):
            z = typed(call)
            if z is not None:
                typed(z.valuation)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_powers(self, data):
        tw = data.draw(towers())
        x = data.draw(elements(tw))
        n = data.draw(st.one_of(st.integers(-64, 64), st.integers(-BIG, BIG),
                                rationals(), st.sampled_from(FOREIGN)))
        z = typed(lambda: x ** n)
        if z is not None:
            typed(z.valuation)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_and_valuation(self, data):
        tw = data.draw(towers())
        x = data.draw(elements(tw))
        y = data.draw(st.one_of(operands(tw), elements(data.draw(towers()))))
        assert typed(x.same, y) in (True, False, None)
        typed(x.valuation)
        typed(x.pival)


class TestConstructors:

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_from_rational_and_polynomials(self, data):
        tw = data.draw(towers())
        q = data.draw(operands(tw))
        x = typed(tw.from_rational, q)
        if x is not None:
            typed(x.valuation)
        coeffs = data.draw(st.lists(operands(tw), max_size=4))
        P = typed(Poly, tw, coeffs)
        if P is not None:
            typed(P.gauss_valuation)


class TestHugeInts:
    """Ints past the host's limit on int-to-str conversion: each call ends
    in a typed error whose message gives the bit length, or, for a power
    of an exact element, in a value within a time bound."""

    @pytest.mark.parametrize("call", [
        lambda: binary_power(3, -HUGE, operator.mul),
        lambda: ppow(FF(3, 1), [1, 1], -HUGE),
        lambda: FF(HUGE, 1),
        lambda: FF(3, HUGE),
        lambda: RatFunc(FF(5, 1), [1]) + Fraction(HUGE + 1, 3),
        lambda: make_tower(3, -HUGE, 1, 10),
        lambda: make_tower(3, 1, HUGE, 10),
    ], ids=["binary_power", "ppow", "FF-p", "FF-f", "RatFunc-coerce",
            "tower-e", "tower-f"])
    def test_typed_failure_names_the_bit_length(self, call):
        with pytest.raises(InvalidInput, match="-bit int|a Fraction"):
            call()

    # e f coordinates per element, each tuple of _window_moduli among them:
    # only values that the check refuses are tried
    @pytest.mark.parametrize("e, f", [(10 ** 30, 1), (4301, 1), (2151, 2), (HUGE, 1)],
                             ids=["e-1e30", "e-4301", "e-2151-f-2", "e-huge"])
    def test_tower_refuses_e_f_past_token_digits(self, e, f):
        with pytest.raises(InvalidInput, match="coordinates per element"):
            make_tower(3, e, f, 10)

    def test_exact_power_past_token_digits_keeps_the_digits(self):
        tw = make_tower(5, 4, 1, 40)
        three = tw.from_int(3)
        assert (three ** 1000).exact == (3 ** 1000, 0)
        for n in (10 ** 6, -10 ** 6, BIG, HUGE):
            start = time.process_time()
            z = three ** n
            assert time.process_time() - start < 1.0
            assert z.exact is None
            assert z.same(tw.from_int(pow(3, n, tw.pmod)))
        # q = +-1 never grows: a pi-power keeps its pair at any exponent
        assert (tw.pi_power(1) ** BIG).exact == (1, BIG)
