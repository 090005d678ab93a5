import functools
import random
import signal

import pytest
from hypothesis import given, settings, strategies as st

from fourcover.errors import FourCoverError, InvalidInput
from fourcover.ffield import (
    MAX_ORDER, FF, padd, pmul, pdivmod, pgcd, pfactor, proots, _is_irreducible_mod_p,
    p_is_pth_power, p_pth_root, ppow, pmod, prender, pnormalize, binary_power,
    pmonic, pdeg, psquarefree_part_factors, _ddf, _edf,
)


def test_field_axioms_f1():
    ff = FF(5, 1)
    assert ff.q == 5
    for x in ff.elements():
        assert ff.add(x, ff.neg(x)) == 0
        if x:
            assert ff.mul(x, ff.inv(x)) == 1


def test_field_axioms_f2():
    ff = FF(5, 2)
    assert ff.q == 25
    rng = random.Random(7)
    xs = [rng.randrange(ff.q) for _ in range(12)]
    for x in xs:
        for y in xs:
            assert ff.mul(x, y) == ff.mul(y, x)
            if y:
                assert ff.mul(ff.div(x, y), y) == x
    # distributivity spot check
    a, b, c = xs[0], xs[1], xs[2]
    assert ff.mul(a, ff.add(b, c)) == ff.add(ff.mul(a, b), ff.mul(a, c))


def test_modulus_deterministic():
    assert FF(3, 2).modulus == FF(3, 2).modulus
    # x^2 + 1 is the least irreducible over F_3
    assert FF(3, 2).modulus == (1, 0, 1)


def test_frobenius_and_sqrt():
    for (p, f) in [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 3)]:
        ff = FF(p, f)
        rng = random.Random(p * 10 + f)
        for _ in range(10):
            x = rng.randrange(ff.q)
            r = ff.pth_root(x)
            assert ff.pow(r, p) == x
            s = ff.sqrt(ff.mul(x, x))
            assert s is not None and ff.mul(s, s) == ff.mul(x, x)
        # non-squares have no root
        ns = [x for x in ff.elements() if x and not ff.is_square(x)]
        assert len(ns) == (ff.q - 1) // 2
        assert ff.sqrt(ns[0]) is None


def test_embedding():
    small, big = FF(5, 1), FF(5, 2)
    emb = small.embedding_into(big)
    for x in small.elements():
        for y in small.elements():
            assert emb(small.mul(x, y)) == big.mul(emb(x), emb(y))
            assert emb(small.add(x, y)) == big.add(emb(x), emb(y))
    m2, m4 = FF(3, 2), FF(3, 4)
    emb = m2.embedding_into(m4)
    for x in range(m2.q):
        for y in range(m2.q):
            assert emb(m2.mul(x, y)) == m4.mul(emb(x), emb(y))


def test_poly_divmod_and_gcd():
    ff = FF(7, 1)
    rng = random.Random(42)
    for _ in range(20):
        a = pnormalize([rng.randrange(7) for _ in range(rng.randrange(1, 8))])
        b = pnormalize([rng.randrange(7) for _ in range(rng.randrange(1, 5))])
        if not b:
            continue
        q, r = pdivmod(ff, a, b)
        assert padd(ff, pmul(ff, q, b), r) == a
        assert len(r) < len(b)
    g = pgcd(ff, pmul(ff, [1, 1], [3, 1]), pmul(ff, [1, 1], [5, 1]))
    assert g == [1, 1]


def test_factor_small():
    ff = FF(3, 1)
    # x^2 + 1 irreducible over F_3
    assert pfactor(ff, [1, 0, 1]) == [([1, 0, 1], 1)]
    # x^3 - x = x(x-1)(x+1)
    fac = pfactor(ff, [0, 2, 0, 1])
    assert sorted(f for f, _ in fac) == sorted([[0, 1], [2, 1], [1, 1]])
    # p-th powers factor with multiplicity p
    cube = ppow(ff, [1, 1], 3)
    assert pfactor(ff, cube) == [([1, 1], 3)]


def test_factor_random_roundtrip():
    ff = FF(5, 1)
    rng = random.Random(11)
    for _ in range(15):
        a = pnormalize([rng.randrange(5) for _ in range(rng.randrange(2, 9))])
        if len(a) < 2:
            continue
        prod = [ff.inv(a[-1])] if a[-1] != 1 else [1]
        prod = pmul(ff, [a[-1]], [1])
        acc = [a[-1]]
        for g, m in pfactor(ff, a):
            acc = pmul(ff, acc, ppow(ff, g, m))
        assert acc == a


def test_pth_power_detection():
    ff = FF(5, 1)
    assert p_is_pth_power(ff, [1] + [0] * 9 + [1])  # x^10 + 1
    assert not p_is_pth_power(ff, [0, 0, 0, 1])     # x^3
    t = ppow(ff, [2, 0, 1], 5)
    assert p_is_pth_power(ff, t)
    assert p_pth_root(ff, t) == [2, 0, 1]


def test_roots_and_render():
    ff = FF(7, 1)
    poly = pmul(ff, [6, 1], [3, 1])  # (x+6)(x+3) = (x-1)(x-4)
    assert proots(ff, poly) == [1, 4]
    assert prender(ff, [3, 0, 1]) == "x^2 + 3"
    f2 = FF(5, 2)
    g = f2.generator()
    assert f2.render(g) == "g"


def test_inverse_of_zero_is_typed():
    for ff in (FF(5, 1), FF(5, 2)):
        with pytest.raises(InvalidInput):
            ff.inv(0)
        with pytest.raises(InvalidInput):
            ff.div(1, 0)


def test_irreducible_counts():
    # monic irreducibles of degree n over F_p: (1/n) sum_{d | n} mu(d) p^(n/d)
    counts = {2: [2, 1, 2, 3], 3: [3, 3, 8, 18], 5: [5, 10, 40, 150]}
    for p, expected in counts.items():
        for n, want in enumerate(expected, 1):
            got = sum(_is_irreducible_mod_p(
                [(code // p ** i) % p for i in range(n)] + [1], p)
                for code in range(p ** n))
            assert got == want, (p, n)


def monic_irreducibles(ff, max_degree):
    """Every monic irreducible over ff of degree <= max_degree, by a sieve
    that needs no factoring: a monic polynomial is irreducible when no
    irreducible of at most half its degree divides it."""
    out = []
    for n in range(1, max_degree + 1):
        for code in range(ff.q ** n):
            P = [(code // ff.q ** i) % ff.q for i in range(n)] + [1]
            if all(pdivmod(ff, P, g)[1] for g in out if 2 * (len(g) - 1) <= n):
                out.append(P)
    return out


def factor_key(P):
    return (len(P), P)


def distinct_products(irr, max_degree):
    """Every nonempty set of distinct polynomials from irr whose degrees
    add up to at most max_degree."""
    out = [[]]
    for P in irr:
        out += [s + [P] for s in out
                if sum(len(Q) - 1 for Q in s) + len(P) - 1 <= max_degree]
    return out[1:]


@pytest.mark.parametrize("f", [1, 2])
def test_equal_degree_factoring_in_characteristic_two(f):
    # x^2 + x = x (x + 1) raised ConstructionMismatch, since the odd-q
    # exponent (q^d - 1)/2 never splits when q is even
    ff = FF(2, f)
    assert pfactor(ff, [0, 1, 1]) == [([0, 1], 1), ([1, 1], 1)]
    irr = monic_irreducibles(ff, 4)
    assert [sum(len(P) == n + 1 for P in irr) for n in range(1, 5)] == \
        {1: [2, 1, 2, 3], 2: [4, 6, 20, 60]}[f]
    if f == 1:
        # all 255 products of distinct irreducibles of degree <= 4 over F_2
        products = distinct_products(irr, 22)
    else:
        # over F_4: every squarefree product of total degree <= 4, and
        # every product of two distinct irreducibles of degree <= 4
        products = distinct_products(irr, 4)
        products += [[P, Q] for i, P in enumerate(irr) for Q in irr[i + 1:]
                     if len(P) + len(Q) > 6]
    for factors in products:
        a = functools.reduce(lambda x, y: pmul(ff, x, y), factors)
        assert pfactor(ff, a) == [(P, 1) for P in sorted(factors, key=factor_key)]


def test_invalid_requests_are_typed():
    ff = FF(5, 1)
    with pytest.raises(InvalidInput):
        FF(4)
    with pytest.raises(InvalidInput):
        ff.dlog(0)
    with pytest.raises(InvalidInput):
        FF(5, 2).embedding_into(FF(5, 3))
    with pytest.raises(InvalidInput):
        pdivmod(ff, [1, 1], [])
    with pytest.raises(InvalidInput):
        proots(ff, [])


# -- the coordinate arithmetic FF had before its tables, kept as references ---

@functools.lru_cache(maxsize=None)
def _reduction_table(ff):
    """a^k for k in [f, 2f - 2], as coordinate lists, from the modulus."""
    p, f, m = ff.p, ff.f, ff.modulus
    cur = [(-c) % p for c in m[:f]]
    table = [cur]
    for _ in range(f - 2):
        top = cur[-1]
        cur = [((cur[i - 1] if i else 0) - top * m[i]) % p for i in range(f)]
        table.append(cur)
    return table


def reference_add(ff, x, y):
    return ff.encode([a + b for a, b in zip(ff.coords(x), ff.coords(y))])


def reference_neg(ff, x):
    return ff.encode([-a for a in ff.coords(x)])


def reference_smul(ff, c, x):
    return ff.encode([c * a for a in ff.coords(x)])


def reference_mul(ff, x, y):
    """Convolution of coordinates, then a^k -> its reduction for k >= f."""
    f, ys = ff.f, ff.coords(y)
    conv = [0] * (2 * f - 1)
    for i, xi in enumerate(ff.coords(x)):
        for j, yj in enumerate(ys):
            conv[i + j] += xi * yj
    res = conv[:f]
    for c, red in zip(conv[f:], _reduction_table(ff)):
        res = [r + c * a for r, a in zip(res, red)]
    return ff.encode(res)


def reference_pow(ff, x, n):
    """Square-and-multiply; a negative n inverts by x^(q - 2) first."""
    if n < 0:
        x, n = reference_pow(ff, x, ff.q - 2), -n
    out = 1
    while n:
        if n & 1:
            out = reference_mul(ff, out, x)
        x = reference_mul(ff, x, x)
        n >>= 1
    return out


def reference_generator(ff):
    """Least g with g^((q - 1)/r) != 1 for every prime r | q - 1."""
    order = ff.q - 1
    primes = [r for r in range(2, order + 1)
              if order % r == 0 and all(r % d for d in range(2, r))]
    return next(g for g in range(1, ff.q)
                if all(reference_pow(ff, g, order // r) != 1 for r in primes))


def reference_dlog(ff, g, x):
    cur = 1
    for k in range(ff.q - 1):
        if cur == x:
            return k
        cur = reference_mul(ff, cur, g)
    raise AssertionError("no discrete log of %d" % x)


SMALL_FIELDS = [(p, f) for p in (2, 3, 5, 7, 11, 13) for f in range(1, 9)
                if p ** f <= 343]


@pytest.mark.parametrize("p,f", SMALL_FIELDS)
def test_tables_match_coordinate_arithmetic(p, f):
    ff = FF(p, f)
    q = ff.q
    g = reference_generator(ff)
    assert ff.generator() == g
    roots = {}
    for r in ff.elements():
        roots.setdefault(reference_mul(ff, r, r), []).append(r)
    for x in ff.elements():
        assert ff.neg(x) == reference_neg(ff, x)
        for c in (-1, 0, 2, p + 1):
            assert ff.smul(c, x) == reference_smul(ff, c, x)
        for n in (0, 1, 2, 5, q - 2, q + 3):
            assert ff.pow(x, n) == reference_pow(ff, x, n)
        assert ff.pth_root(x) == reference_pow(ff, x, q // p)
        # a square root is the least of its roots; at p = 2 every element
        # has exactly one, including in F_2, which has no non-square
        assert ff.is_square(x) == (x in roots)
        assert ff.sqrt(x) == (min(roots[x]) if x in roots else None)
        if x:
            assert ff.inv(x) == reference_pow(ff, x, -1)
            assert ff.pow(x, -3) == reference_pow(ff, x, -3)
            k = reference_dlog(ff, g, x)
            assert ff.dlog(x) == k
            if f > 1 and x != 1:
                assert ff.render(x) == ("g" if k == 1 else "g^%d" % k)
    # (x + y, y) and, for y != 0, (x * y, y) run over all pairs with x
    for x in ff.elements():
        for y in ff.elements():
            total, product = reference_add(ff, x, y), reference_mul(ff, x, y)
            assert ff.add(x, y) == total and ff.sub(total, y) == x
            assert ff.mul(x, y) == product
            assert not y or ff.div(product, y) == x


def reference_ppow(ff, a, n, m=None):
    """The ladder ppow had before it shared binary_power: it starts from
    [1] and squares once past the top bit of n."""
    def mul(x, y):
        xy = pmul(ff, x, y)
        return xy if m is None else pmod(ff, xy, m)
    out = [1]
    base = a if m is None else pmod(ff, a, m)
    while n:
        if n & 1:
            out = mul(out, base)
        base = mul(base, base)
        n >>= 1
    return out


@st.composite
def ppow_inputs(draw):
    """(ff, a, n, m) over F_(p^f), p in {2, 3, 5, 7}, f <= 2; a may carry
    trailing zeros; m is None or a nonzero polynomial of degree <= 3."""
    ff = FF(draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(1, 2)))
    coeff = st.integers(0, ff.q - 1)
    a = draw(st.lists(coeff, max_size=4))
    m = draw(st.none() | st.lists(coeff, min_size=1, max_size=4))
    if m is not None:
        m = pnormalize(m) or [1]
    return ff, a, draw(st.integers(0, 60)), m


@settings(max_examples=150, deadline=None)
@given(ppow_inputs())
def test_ppow_matches_the_old_ladder(args):
    ff, a, n, m = args
    out = ppow(ff, a, n, m)
    assert out == reference_ppow(ff, a, n, m)
    assert out is not a


def reference_pgcd(ff, a, b):
    """Euclid on the whole polynomials, the gcd before the powers of x
    were split off, kept as the reference for ``pgcd``."""
    a, b = pnormalize(a), pnormalize(b)
    while b:
        a, b = b, pmod(ff, a, b)
    return pmonic(ff, a)


def reference_pfactor(ff, a):
    """``pfactor`` before it recorded the factor x first: the squarefree,
    distinct- and equal-degree steps run on all of a, kept as its
    reference."""
    a = pnormalize(a)
    if pdeg(a) < 1:
        return []
    res = {}
    for g, m in psquarefree_part_factors(ff, a):
        for h, d in _ddf(ff, pmonic(ff, g)):
            for irr in _edf(ff, h, d):
                key = tuple(irr)
                res[key] = res.get(key, 0) + m
    return [(list(k), mult) for k, mult in sorted(res.items(),
                                                  key=lambda km: (len(km[0]), km[0]))]


def outcome_of(fn, *args):
    """fn(*args), or the type of the typed error it raises; any other
    exception fails the test."""
    try:
        return fn(*args)
    except FourCoverError as exc:
        return type(exc)


def _x_power_multiple(draw, ff):
    coeff = st.integers(0, ff.q - 1)
    R = draw(st.lists(coeff, max_size=3))
    S = draw(st.lists(coeff, max_size=3))
    Q = pmul(ff, ppow(ff, R, ff.p), S) if R else S
    k = draw(st.integers(0, 3 * ff.p))
    return [0] * k + Q + [0] * draw(st.integers(0, 2))


@st.composite
def x_power_multiples(draw, count=1):
    """(ff, [x^k Q, ...]) over F_(p^f), p in {2, 3, 5}, f <= 2, k <= 3p,
    so that x^k is a p-th power for some k.  Q is R^p S with R and S of
    degree at most 2 (a p-th power when S is a constant, the p-th-root
    recursion of the squarefree step) and may be zero, a constant or
    divisible by x itself; a list may carry trailing zeros."""
    ff = FF(draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 2)))
    return ff, [_x_power_multiple(draw, ff) for _ in range(count)]


@settings(max_examples=200, deadline=None)
@given(x_power_multiples(2))
def test_pgcd_matches_euclid(args):
    ff, (A, B) = args
    for u, v in [(A, B), (B, A), (A, pmul(ff, A, [1, 1])), (A, []), ([], A), (A, A)]:
        assert outcome_of(pgcd, ff, u, v) == outcome_of(reference_pgcd, ff, u, v)


@settings(max_examples=150, deadline=None)
@given(x_power_multiples())
def test_pfactor_matches_the_unsplit_factorization(args):
    ff, (A,) = args
    assert outcome_of(pfactor, ff, A) == outcome_of(reference_pfactor, ff, A)


def test_zero_and_bare_powers_of_x():
    # the zero polynomial and x^k alone: the x-adic split scans for the
    # first nonzero coefficient, and must not run off the end of a zero
    # list; both references say what the answer is
    for ff in (FF(2, 1), FF(3, 2), FF(5, 1)):
        for k in range(3 * ff.p + 1):
            xk = [0] * k + [1]
            for poly in ([], [0] * k, xk, xk + [0], [0] * k + [2 % ff.p or 1]):
                assert pfactor(ff, poly) == reference_pfactor(ff, poly)
                for other in ([], xk, [1], [0, 0, 1]):
                    assert pgcd(ff, poly, other) == reference_pgcd(ff, poly, other)
        assert pfactor(ff, [0, 0, 0, 1]) == [([0, 1], 3)]
        assert pgcd(ff, [0, 0, 1], [0, 1, 1]) == [0, 1]


def test_power_ladders_reject_exponents_they_cannot_reach():
    # the ladder shifts n right past its lowest set bit and then until it
    # is 0, which n = 0 and a negative n never reach; each call is bounded
    # by a 5 s timer, so a loop that spins fails the test instead of
    # hanging the suite
    def expire(signum, frame):
        raise TimeoutError("power ladder did not return")
    ff = FF(5, 1)
    calls = [lambda: ppow(ff, [1, 1], -1), lambda: ppow(ff, [1, 1], -3, [1, 0, 1]),
             lambda: binary_power(3, -1, lambda x, y: x * y),
             lambda: binary_power(3, 0, lambda x, y: x * y)]
    outcomes = []
    previous = signal.signal(signal.SIGALRM, expire)
    try:
        for call in calls:
            signal.setitimer(signal.ITIMER_REAL, 5.0)
            try:
                outcomes.append(call())
            except (InvalidInput, TimeoutError) as exc:
                outcomes.append(type(exc))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert outcomes == [InvalidInput] * len(calls)
    assert ppow(ff, [1, 1], 0) == [1]
    assert binary_power(3, 5, lambda x, y: x * y) == 243


def test_order_bound():
    # past MAX_ORDER no table is built and p is not trial-divided; a
    # prime whose trial division would not end is probed in test_cli
    for p, f in [(2, 14), (101, 2), (10007, 1)]:
        assert p ** f > MAX_ORDER
        with pytest.raises(InvalidInput):
            FF(p, f)
    assert FF(7, 4).q == 2401
