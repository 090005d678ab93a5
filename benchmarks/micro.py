"""Tower microbenchmarks on fixed seeded operands (p = 5).

Operands are built with public arithmetic only (``from_int``, ``lift_ff``,
``pi_power``, ``+``, ``*``), so they survive a change of the element
representation.  Each is a unit whose digits fill the whole precision
window and which carries no exact rational value.
"""

import random
import statistics
import time

import calibrate
from fourcover import tower

P = 5
OPERAND_SEED = 5
# name -> (e, f, pi-digits); the default precision is 50 pi-digits per unit of e
TOWERS = {
    "e4": (4, 1, 200),
    "e8": (8, 1, 400),
    "e12": (12, 1, 600),
    "e8f2": (8, 2, 400),
    "e8x4": (8, 1, 1600),
}
CASES = [("mul", t) for t in ("e4", "e8", "e12", "e8f2", "e8x4")]
CASES += [("add", t) for t in ("e4", "e8", "e12")]
CASES += [("inverse", t) for t in ("e4", "e8", "e12", "e8f2")]
CASES += [("sqrt", t) for t in ("e4", "e8", "e12")]
CASES += [("taylor", "e8")]
TAYLOR_DEGREE = 2 * P
REPEATS = 5


def unit(tw, rng):
    """A seeded unit with full-width digits in every residue coordinate."""
    big = tw.p ** (tw.prec // tw.e + 2)
    out = tw.zero()
    for j in range(tw.e):
        residue = rng.randrange(1, tw.ff.q)
        digits = rng.randrange(big) if j else rng.randrange(1, big, tw.p)
        out = out + tw.lift_ff(residue) * tw.from_int(digits) * tw.pi_power(j)
    return out


def operation(op, tw, rng):
    x, y = unit(tw, rng), unit(tw, rng)
    if op == "mul":
        return lambda: x * y
    if op == "add":
        return lambda: x + y
    if op == "inverse":
        return x.inverse
    if op == "sqrt":
        square = x * x
        return lambda: tw.sqrt(square)
    poly = tower.Poly(tw, [unit(tw, rng) for _ in range(TAYLOR_DEGREE + 1)])
    b = tw.pi_power(tw.e // 2)
    return lambda: poly.taylor(x, b)


def time_us(fn, min_batch_s=0.02, repeats=REPEATS):
    """Median over ``repeats`` batches of the calibrated CPU time per call,
    in us; a batch is as many calls as take ``min_batch_s``, and each is
    scaled by the reference timed next to it (calibrate.py)."""
    n = 1
    while True:
        t0 = time.process_time()
        for _ in range(n):
            fn()
        if time.process_time() - t0 >= min_batch_s:
            break
        n *= 2
    samples = []
    for _ in range(repeats):
        t0 = time.process_time()
        for _ in range(n):
            fn()
        took = time.process_time() - t0
        scale = calibrate.REFERENCE_S / calibrate.time_reference()
        samples.append(took / n * 1e6 * scale)
    return statistics.median(samples)


def run():
    rng = random.Random(OPERAND_SEED)
    out = {}
    for op, name in CASES:
        e, f, prec = TOWERS[name]
        tw = tower.make_tower(P, e, f, prec)
        out["tower.%s_us.%s" % (op, name)] = time_us(operation(op, tw, rng))
    return out
