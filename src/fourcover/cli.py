"""Command-line interface: classify covers, build models, run sweeps.

Exit codes: 0 success, 1 a sweep with failed rows or a failing selftest,
2 insufficient precision (after one retry at 4x), 3 invalid input,
4 failed chart certification.  JSON reports carry the
fixed keys {input, normalization, type, subroute, extension, components,
edges, checks, ms}; output is byte-identical across runs unless --timing
is given (ms is null by default for that reason).
"""

import argparse
import json
import math
import random
import sys
import time
from fractions import Fraction

from .errors import (
    FourCoverError, InsufficientPrecision, ConstructionMismatch, InvalidInput,
    NeedsExtension, DegenerateModel, CoalescingBranchPoints, NonCyclicExponent,
    UnsupportedPrime, NotReduced, PrecisionTooLarge,
)
from .tower import make_tower, Poly, INF
from .normalizer import CoverDatum, INFPT, normalize, cross_ratio_orbit
from .classifier import (
    classify, required_extension, build_stable_model, check_qwerty,
    deuring_good_reduction, deuring_j_valuation,
)
from .torsor import (
    torsor_case, maximize_h_bruteforce, induced_case, TorsorOutcome,
)
from .curves import as_genus, RatFunc
from .ffield import FF

_INVALID = (InvalidInput, NeedsExtension, DegenerateModel, UnsupportedPrime,
            CoalescingBranchPoints, NonCyclicExponent, NotReduced)


def _base_tower(p, precision, boost):
    # e = p - 1 makes every tau^k token a pure pi-power
    e = p - 1 if p > 2 else 1
    prec = (50 * e if precision is None else precision) * boost
    return make_tower(p, e, 1, prec)


def _fr(x):
    if x is INF:
        return "inf"
    return str(x)


def _normalization_dict(n):
    return {
        "beta": n.beta,
        "gamma": n.gamma,
        "lambda": n.lam.str(6),
        "v_lambda": _fr(n.lam.valuation()),
        "z_power": n.u,
        "moebius": [x.str(4) for x in n.moebius.entries()],
        "constant": n.const.str(4),
    }


def _report_skeleton(inp):
    return {
        "input": inp,
        "normalization": None,
        "type": None,
        "subroute": None,
        "extension": None,
        "components": [],
        "edges": [],
        "checks": [],
        "ms": None,
    }


def _fill_classification(rep, n, cls, extension):
    """Fill the report's normalization, type, subroute and extension."""
    rep["normalization"] = _normalization_dict(n)
    rep["type"] = cls.rtype
    rep["subroute"] = cls.subroute
    rep["extension"] = extension.as_dict()


def _standard_cover(tw, lam, beta, gamma):
    """The cover branched at [0, 1, inf, lam] with exponents
    [1, beta, -(1 + beta + gamma), gamma] mod p."""
    return CoverDatum(tw, [tw.zero(), tw.one(), INFPT, lam],
                      [1, beta, (-(1 + beta + gamma)) % tw.p, gamma])


def _check_exponents(p, beta, gamma):
    if beta is None or gamma is None or not (0 < beta < p and 0 < gamma < p):
        raise InvalidInput("beta and gamma must both lie in 1..p-1")


def _cover_from_args(tw, args):
    lam = tw.parse(args.lam)
    _check_exponents(tw.p, args.beta, args.gamma)
    return _standard_cover(tw, lam, args.beta, args.gamma)


def _run_classify(args, precision, boost):
    tw = _base_tower(args.p, precision, boost)
    rep = _report_skeleton({"command": "classify", "p": args.p,
                            "beta": args.beta, "gamma": args.gamma,
                            "lambda": args.lam, "precision": tw.prec})
    n = normalize(_cover_from_args(tw, args))
    cls = classify(n)
    _fill_classification(rep, n, cls, required_extension(n, cls))
    return rep


def _run_model(args, precision, boost):
    tw = _base_tower(args.p, precision, boost)
    rep = _report_skeleton({"command": "model", "p": args.p,
                            "beta": args.beta, "gamma": args.gamma,
                            "lambda": args.lam, "precision": tw.prec})
    n = normalize(_cover_from_args(tw, args))
    cls = classify(n)
    if not args.allow_extension:
        ext = required_extension(n, cls)
        if (ext.e, ext.f) != (tw.e, tw.f):
            raise NeedsExtension(
                "the model needs a tower extension; pass --allow-extension")
    m = build_stable_model(n, cls)
    _fill_classification(rep, n, cls, m.extension)
    rep["components"] = [c.as_dict() for c in m.components]
    rep["edges"] = [list(e) for e in m.edges]
    rep["checks"] = m.checks
    return rep


def _run_qwerty(args, precision, boost):
    tw = _base_tower(args.p, precision, boost)
    rep = _report_skeleton({"command": "qwerty", "p": args.p,
                            "c1": args.c1, "c2": args.c2,
                            "precision": tw.prec})
    cls, n, checks = check_qwerty(tw, tw.parse(args.c1), tw.parse(args.c2))
    _fill_classification(rep, n, cls, required_extension(n, cls))
    rep["checks"] = checks
    return rep


def _run_deuring(args, precision, boost):
    tw = _base_tower(2, precision, boost)
    rep = _report_skeleton({"command": "deuring", "p": 2,
                            "lambda": args.lam, "precision": tw.prec})
    lam = tw.parse(args.lam)
    good = deuring_good_reduction(lam)
    vj = deuring_j_valuation(lam)
    rep["type"] = "deuring"
    rep["good_reduction"] = good
    rep["checks"] = [{"name": "j-integral", "passed": good,
                      "detail": "v(j) = %s" % _fr(vj)}]
    return rep


def _admissible_bg(p):
    out = []
    for beta in range(1, p):
        for gamma in range(1, p):
            if math.gcd(1 + beta + gamma, p) == 1:
                out.append((beta, gamma))
    return out


def _parse_p_list(text):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise InvalidInput("--p-list must be comma-separated integers, got %r"
                           % text) from None


def _run_sweep(args, precision, boost):
    ps = _parse_p_list(args.p_list) if args.p_list else [args.p]
    lam_tokens = [t.strip() for t in args.lambdas.split(",") if t.strip()]
    pinned = args.beta is not None or args.gamma is not None
    for p in ps:  # a bad p, precision or pair fails before any row
        _base_tower(p, precision, boost)
        if pinned:
            _check_exponents(p, args.beta, args.gamma)
    rows = []
    counts = {}
    failures = 0
    for p in ps:
        pairs = [(args.beta, args.gamma)] if pinned else _admissible_bg(p)
        for beta, gamma in pairs:
            for tok in lam_tokens:
                row = {"p": p, "beta": beta, "gamma": gamma, "lambda": tok}
                try:
                    tw = _base_tower(p, precision, boost)
                    n = normalize(_standard_cover(tw, tw.parse(tok), beta, gamma))
                    cls = classify(n)
                    m = build_stable_model(n, cls)
                    ok = all(c["passed"] for c in m.checks)
                    row.update({
                        "type": cls.rtype,
                        "subroute": cls.subroute,
                        "genus_total": m.genus_total(),
                        "genus_conservation": m.genus_total() == p - 1,
                        "checks_passed": ok,
                        "extension": m.extension.as_dict(),
                    })
                    key = cls.rtype if not cls.subroute else \
                        "%s/%s" % (cls.rtype, cls.subroute)
                    counts[key] = counts.get(key, 0) + 1
                except FourCoverError as ex:
                    row.update({"error": type(ex).__name__,
                                "detail": str(ex)})
                    failures += 1
                rows.append(row)
    return {
        "input": {"command": "sweep", "p": ps, "lambdas": lam_tokens},
        "rows": rows,
        "counts": dict(sorted(counts.items())),
        "rows_total": len(rows),
        "rows_failed": failures,
        "ms": None,
    }


def _selftest_torsor(rng, checks):
    tw = make_tower(3, 2, 1, 36)
    agreed = tried = 0
    for _ in range(25):
        deg = rng.choice([3, 6])
        coeffs = [tw.from_int(rng.randrange(-2, 3)) * tw.pi_power(rng.randrange(0, 4))
                  for _ in range(deg)]
        f = Poly(tw, coeffs + [tw.one()])
        try:
            out = torsor_case(f, Poly.x_power(tw, deg // 3))
        except DegenerateModel:
            continue
        if out.case == TorsorOutcome.UNDECIDED:
            continue
        _, w = maximize_h_bruteforce(f, digit_budget=8)
        if w is INF:
            continue
        tried += 1
        if induced_case(w, tw) == out.case:
            agreed += 1
    checks.append({"name": "torsor-bruteforce-agreement",
                   "passed": tried > 0 and agreed == tried,
                   "detail": "%d/%d decidable cases agree" % (agreed, tried)})


def _selftest_genus(checks):
    ok = True
    detail = []
    for p in (3, 5, 7):
        ff = FF(p, 1)
        for m in range(2, 9):
            if m % p == 0:
                continue
            u = RatFunc(ff, [1] * m + [1])
            g = as_genus(u)
            if g != (m - 1) * (p - 1) // 2:
                ok = False
                detail.append("p=%d m=%d" % (p, m))
    checks.append({"name": "genus-shortcut-vs-conductor",
                   "passed": ok,
                   "detail": "mismatches: %s" % (detail or "none")})


def _selftest_orbit(rng, checks):
    tw = make_tower(5, 4, 1, 80)
    stable = tried = 0
    while tried < 15:
        vals = rng.sample(range(-9, 12), 3)
        pts = [tw.from_int(v) for v in vals] + [INFPT]
        exps = [rng.randrange(1, 5) for _ in range(3)]
        last = (-sum(exps)) % 5
        if last == 0:
            continue
        exps.append(last)
        try:
            base = classify(normalize(CoverDatum(tw, pts, exps)))
            perm = list(range(4))
            rng.shuffle(perm)
            other = classify(normalize(CoverDatum(
                tw, [pts[i] for i in perm], [exps[i] for i in perm])))
        except FourCoverError:
            continue
        tried += 1
        if base == other:
            stable += 1
    checks.append({"name": "normalization-orbit-invariance",
                   "passed": stable == tried,
                   "detail": "%d/%d permuted covers agree" % (stable, tried)})


def _selftest_deuring(rng, checks):
    tw = make_tower(2, 1, 1, 80)
    stable = tried = 0
    while tried < 20:
        q = Fraction(rng.randrange(-64, 65), rng.randrange(1, 33))
        if q in (0, 1):
            continue
        lam = tw.from_rational(q)
        tried += 1
        verdict = deuring_good_reduction(lam)
        if all(deuring_good_reduction(o) == verdict
               for o in cross_ratio_orbit(lam)):
            stable += 1
    checks.append({"name": "deuring-orbit-invariance",
                   "passed": stable == tried,
                   "detail": "%d/%d orbits constant" % (stable, tried)})


def _run_selftest(args, precision, boost):
    rng = random.Random(0)
    checks = []
    _selftest_torsor(rng, checks)
    _selftest_genus(checks)
    _selftest_orbit(rng, checks)
    _selftest_deuring(rng, checks)
    return {
        "input": {"command": "selftest"},
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
        "ms": None,
    }


_RUNNERS = {
    "classify": _run_classify,
    "model": _run_model,
    "qwerty": _run_qwerty,
    "deuring": _run_deuring,
    "sweep": _run_sweep,
    "selftest": _run_selftest,
}


def run(args):
    """Execute a request with the retry-once-at-4x precision policy."""
    runner = _RUNNERS[args.command]
    t0 = time.monotonic()
    try:
        try:
            rep = runner(args, args.precision, 1)
        except InsufficientPrecision as first:
            try:
                rep = runner(args, args.precision, 4)  # retry once at 4x precision
            except PrecisionTooLarge:
                raise first from None   # 4x is past the bound: report the first run
        if args.timing:
            rep["ms"] = int((time.monotonic() - t0) * 1000)
        return rep, 0
    except InsufficientPrecision as ex:
        return {"error": "InsufficientPrecision", "detail": str(ex)}, 2
    except ConstructionMismatch as ex:
        return {"error": "ConstructionMismatch", "detail": str(ex)}, 4
    except _INVALID as ex:
        return {"error": type(ex).__name__, "detail": str(ex)}, 3


def _emit_human(rep, out):
    if "error" in rep:
        out.write("error: %s: %s\n" % (rep["error"], rep["detail"]))
        return
    inp = rep.get("input", {})
    if inp.get("command") == "sweep":
        out.write("sweep over %d rows (%d failed)\n"
                  % (rep["rows_total"], rep["rows_failed"]))
        for key, cnt in rep["counts"].items():
            out.write("  type %-14s %d\n" % (key, cnt))
        for row in rep["rows"]:
            if "error" in row:
                out.write("  ! p=%(p)d beta=%(beta)d gamma=%(gamma)d "
                          "lambda=%(lambda)s: %(error)s\n" % row)
        return
    if inp.get("command") == "selftest":
        for c in rep["checks"]:
            out.write("%-36s %s  (%s)\n" % (
                c["name"], "pass" if c["passed"] else "FAIL", c["detail"]))
        out.write("selftest: %s\n" % ("pass" if rep["passed"] else "FAIL"))
        return
    if inp.get("command") == "deuring":
        out.write("good reduction: %s (%s)\n"
                  % (rep["good_reduction"], rep["checks"][0]["detail"]))
        return
    out.write("type %s%s\n" % (rep["type"],
                               " (%s)" % rep["subroute"] if rep["subroute"] else ""))
    if rep.get("normalization"):
        nz = rep["normalization"]
        out.write("normal form: z^p = x0 (x0-1)^%(beta)d (x0-lam)^%(gamma)d, "
                  "v(lam) = %(v_lambda)s\n" % nz)
    if rep.get("extension"):
        ext = rep["extension"]
        out.write("extension: e = %d, f = %d, tokens = %s\n"
                  % (ext["e"], ext["f"], ", ".join(ext["tokens"]) or "none"))
    for i, c in enumerate(rep.get("components", [])):
        out.write("component %d: genus %d, p-rank %d, %d branch point(s)\n"
                  "    %s\n" % (i, c["genus"], c["p_rank"],
                                c["branch_points"], c["equation"]))
    if rep.get("edges"):
        for a, b, m in rep["edges"]:
            out.write("edge: %d -- %d with multiplicity %d\n" % (a, b, m))
    bad = [c for c in rep.get("checks", []) if not c["passed"]]
    if rep.get("checks"):
        out.write("checks: %d passed, %d failed\n"
                  % (len(rep["checks"]) - len(bad), len(bad)))
    for c in bad:
        out.write("  FAIL %s: %s\n" % (c["name"], c["detail"]))


def build_parser():
    ap = argparse.ArgumentParser(
        prog="fourcover",
        description="Stable reduction of p-cyclic covers of the p-adic "
                    "line ramified at four points.")
    ap.add_argument("command", choices=sorted(_RUNNERS),
                    help="classify | model | qwerty | deuring | sweep | selftest")
    ap.add_argument("--p", type=int, default=5, help="the prime p")
    ap.add_argument("--beta", type=int, default=None)
    ap.add_argument("--gamma", type=int, default=None)
    ap.add_argument("--lambda", dest="lam", default=None,
                    help="symbolic token, e.g. 5^3, tau^2, tau^2*pi^-1, 3/7")
    ap.add_argument("--c1", default=None, help="token for the qwerty cover")
    ap.add_argument("--c2", default=None)
    ap.add_argument("--lambdas", default=None,
                    help="comma-separated lambda tokens for sweep")
    ap.add_argument("--p-list", dest="p_list", default=None,
                    help="comma-separated primes for sweep (overrides --p)")
    ap.add_argument("--precision", type=int, default=None,
                    help="pi-digits carried, a positive integer "
                         "(default 50 per unit of e)")
    ap.add_argument("--json", action="store_true", help="emit JSON")
    ap.add_argument("--timing", action="store_true",
                    help="fill the ms field (breaks byte-identical output)")
    ap.add_argument("--allow-extension", action=argparse.BooleanOptionalAction,
                    default=True,
                    help="permit automatic tower enlargement for model charts")
    return ap


def _validate(args):
    cmd = args.command
    if cmd in ("classify", "model"):
        if args.lam is None or args.beta is None or args.gamma is None:
            raise InvalidInput("%s needs --beta, --gamma and --lambda" % cmd)
    if cmd == "qwerty" and (args.c1 is None or args.c2 is None):
        raise InvalidInput("qwerty needs --c1 and --c2")
    if cmd == "deuring" and args.lam is None:
        raise InvalidInput("deuring needs --lambda")
    if cmd == "sweep" and not args.lambdas:
        raise InvalidInput("sweep needs --lambdas")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _validate(args)
    except InvalidInput as ex:
        sys.stderr.write(json.dumps({"error": "InvalidInput",
                                     "detail": str(ex)}) + "\n")
        return 3
    rep, code = run(args)
    if code:
        sys.stderr.write(json.dumps(rep, indent=2) + "\n")
        return code
    if args.json:
        sys.stdout.write(json.dumps(rep, indent=2) + "\n")
    else:
        _emit_human(rep, sys.stdout)
    if args.command == "selftest" and not rep["passed"]:
        return 1
    if args.command == "sweep" and rep["rows_failed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
