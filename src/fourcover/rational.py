"""Exact rational numbers: valuations, radii and the q of an exact pair.

A ``Rational`` is n/d for ints n and d > 0 in lowest terms, with what the
library reads of a rational and no more: + - * / with ints and with
itself, ** by an integer, comparison, ``math.floor``, ``int``, ``str`` and
``hash``.  The stdlib ``Fraction`` would serve, but importing ``fractions``
loads ``decimal`` and ``numbers``, which cost more than the rest of
``import fourcover``.

An operand is an int, a Rational or any object with int ``numerator`` and
``denominator`` (a stdlib Fraction), taken by value; ``Rational(x)``
converts one.  Equal values compare and hash alike whatever their type,
and a Rational prints as a Fraction does.  Nothing becomes a float, so
comparing a huge value with ``math.inf`` cannot overflow.  A zero
denominator or a division by zero raises InvalidInput.  Instances are
never changed after they are made.
"""

import math
import operator
import sys

from .errors import InvalidInput

_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


class Rational:

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator, denominator=1):
        if numerator.__class__ is not int or denominator.__class__ is not int:
            a, b = _operand(numerator), _operand(denominator)
            if a is None or b is None:
                bad = numerator if a is None else denominator
                raise InvalidInput("not a rational number: a %s" % type(bad).__name__)
            numerator = a.numerator * b.denominator
            denominator = a.denominator * b.numerator
        if not denominator:
            raise InvalidInput("zero denominator")
        g = math.gcd(numerator, denominator)
        if denominator < 0:
            g = -g
        self.numerator = numerator // g
        self.denominator = denominator // g

    # -- arithmetic: Knuth's gcd splitting (TAOCP 4.5.1) keeps the
    #    intermediate products small and the result reduced ---------------

    def __add__(self, other):
        na, da = self.numerator, self.denominator
        if other.__class__ is int:
            return _new(na + other * da, da)
        if other.__class__ is not Rational:
            other = _operand(other)
            if other is None:
                return NotImplemented
        nb, db = other.numerator, other.denominator
        g = math.gcd(da, db)
        if g == 1:
            return _new(na * db + nb * da, da * db)
        s = da // g
        t = na * (db // g) + nb * s
        g2 = math.gcd(t, g)
        return _new(t // g2, s * (db // g2))

    __radd__ = __add__

    def __neg__(self):
        return _new(-self.numerator, self.denominator)

    def __sub__(self, other):
        if other.__class__ is int:
            return _new(self.numerator - other * self.denominator, self.denominator)
        if other.__class__ is not Rational:
            other = _operand(other)
            if other is None:
                return NotImplemented
        return self + _new(-other.numerator, other.denominator)

    def __rsub__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else other - self

    def __mul__(self, other):
        na, da = self.numerator, self.denominator
        if other.__class__ is int:
            g = math.gcd(other, da)
            return _new(na * (other // g), da // g)
        if other.__class__ is not Rational:
            other = _operand(other)
            if other is None:
                return NotImplemented
        nb, db = other.numerator, other.denominator
        g1 = math.gcd(na, db)
        g2 = math.gcd(nb, da)
        return _new((na // g1) * (nb // g2), (da // g2) * (db // g1))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is int:
            other = _new(other, 1)
        elif other.__class__ is not Rational:
            other = _operand(other)
            if other is None:
                return NotImplemented
        if not other.numerator:
            raise InvalidInput("division by zero")
        return self * _inverted(other)

    def __rtruediv__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else other / self

    def __pow__(self, other):
        n = _exponent(other)
        if n >= 0:
            return _new(self.numerator ** n, self.denominator ** n)
        if not self.numerator:
            raise InvalidInput("zero to a negative power")
        return _inverted(self) ** -n

    # -- comparison, exact against ints, rationals and floats -----------------

    def _cross(self, other):
        """(a, b) with self op other exactly when a op b, for every
        comparison op; None when other has no rational value."""
        if other.__class__ is int:
            return self.numerator, other * self.denominator
        if other.__class__ is float:
            if not math.isfinite(other):   # inf, -inf and nan decide alone
                return 0, other
            other = Rational(*other.as_integer_ratio())
        elif other.__class__ is not Rational:
            other = _operand(other)
            if other is None:
                return None
        return self.numerator * other.denominator, other.numerator * self.denominator

    def _comparison(op):
        def compare(self, other):
            ab = self._cross(other)
            return NotImplemented if ab is None else op(*ab)
        return compare

    __eq__ = _comparison(operator.eq)
    __lt__ = _comparison(operator.lt)
    __le__ = _comparison(operator.le)
    __gt__ = _comparison(operator.gt)
    __ge__ = _comparison(operator.ge)
    del _comparison

    def __hash__(self):
        """The numeric hash that int, float and Fraction share
        (the Python reference, "Hashing of numeric types")."""
        try:
            dinv = pow(self.denominator, -1, _HASH_MODULUS)
        except ValueError:   # the modulus divides the denominator
            h = _HASH_INF
        else:
            h = hash(hash(abs(self.numerator)) * dinv)
        h = h if self.numerator >= 0 else -h
        return -2 if h == -1 else h

    # -- conversion -----------------------------------------------------------

    def __bool__(self):
        return self.numerator != 0

    def __floor__(self):
        return self.numerator // self.denominator

    def __int__(self):
        """Truncated toward zero, as int() of a Fraction."""
        if self.numerator < 0:
            return -(-self.numerator // self.denominator)
        return self.numerator // self.denominator

    def __str__(self):
        if self.denominator == 1:
            return str(self.numerator)
        return "%d/%d" % (self.numerator, self.denominator)

    def __repr__(self):
        return "Rational(%d, %d)" % (self.numerator, self.denominator)


_object_new = object.__new__


def _new(n, d):
    """n/d for n and d > 0 already in lowest terms, with no gcd."""
    r = _object_new(Rational)
    r.numerator = n
    r.denominator = d
    return r


def _inverted(q):
    """1/q for a nonzero Rational q."""
    if q.numerator < 0:
        return _new(-q.denominator, -q.numerator)
    return _new(q.denominator, q.numerator)


def _operand(x):
    """x as a Rational when it is an int or has int numerator and
    denominator (a stdlib Fraction); None for any other operand."""
    if x.__class__ is Rational:
        return x
    n = getattr(x, "numerator", None)
    d = getattr(x, "denominator", None)
    if isinstance(n, int) and isinstance(d, int):
        return Rational(int(n), int(d))
    return None


def _exponent(n):
    """An integral exponent as an int; InvalidInput for any other, since
    a fractional power of a rational is no rational."""
    if n.__class__ is int:
        return n
    q = _operand(n)
    if q is None or q.denominator != 1:
        raise InvalidInput("rational power with a non-integral exponent")
    return q.numerator
