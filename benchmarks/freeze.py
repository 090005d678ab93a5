"""Regenerate ``expected/*.json``: every benchmark request with its answer.

    python3 benchmarks/freeze.py

The answers are the library's own output at the commit this is run on,
so run it only on a commit whose answers are trusted.  It refuses to
write a file when an answer breaks an invariant the benchmark checks.
"""

import itertools
import json
import math
import random

import workloads

POOL_SEED = 2004
POOL_COVERS = 64
RELABELINGS = 3
PERMUTATIONS = list(itertools.permutations(range(4)))


def sweep_argvs():
    """The grid p in {3,5,7} x (beta, gamma) with 1 + beta + gamma prime to
    p, as ``fourcover sweep`` runs it, x 6 lambdas."""
    out = []
    for p in (3, 5, 7):
        lams = ("2", "3", str(p), "%d^2" % p, "tau^2", "%d^3" % p)
        pairs = [(b, g) for b in range(1, p) for g in range(1, p)
                 if math.gcd(1 + b + g, p) == 1]
        for beta, gamma in pairs:
            for lam in lams:
                out.append(["model", "--p", str(p), "--beta", str(beta),
                            "--gamma", str(gamma), "--lambda", lam, "--json"])
    return out


# (p, beta, gamma, lambda, precision): the precision is 4x the default of
# 50 pi-digits per unit of the base e, i.e. what the precision retry uses.
DEEP = [
    (7, 1, 1, "3/5", 1200),          # via-1b, e=12, f=2
    (5, 2, 4, "25", 800),            # via-2b3-ii, e=8, f=2
    (7, 2, 6, "49", 1200),           # via-2b3-ii, e=12, f=2
    (5, 1, 4, "tau^2*pi^-1", 800),   # via-2b3-ii, e=16
    (7, 1, 6, "7", 1200),            # via-2b3-i, e=6, f=2
    (5, 1, 4, "125", 800),           # type 2
    (7, 1, 1, "3", 1200),            # type 1a, e=18
]


def deep_argvs():
    return [["model", "--p", str(p), "--beta", str(b), "--gamma", str(g),
             "--lambda", lam, "--precision", str(prec), "--json"]
            for p, b, g, lam, prec in DEEP]


def random_cover(rng):
    """Three distinct finite points n * pi^k (k in {0, 1}), plus infinity,
    with random exponents whose sum is 0 mod p."""
    p = rng.choice((3, 5, 7))
    seen, points = set(), []
    while len(points) < 3:
        n, k = rng.randint(-20, 20), rng.randint(0, 1)
        key = (n, k) if n else (0, 0)
        if key in seen:
            continue
        seen.add(key)
        points.append(str(n) if k == 0 else "%d*pi" % n)
    while True:
        exps = [rng.randint(1, p - 1) for _ in range(3)]
        if sum(exps) % p:
            break
    return p, points + ["inf"], exps + [(-sum(exps)) % p]


def classify_covers():
    rng = random.Random(POOL_SEED)
    execute = workloads.ClassifyWorkload([]).execute
    covers = []
    for _ in range(POOL_COVERS):
        p, points, exps = random_cover(rng)
        perms = [PERMUTATIONS[0]] + rng.sample(PERMUTATIONS[1:], RELABELINGS)
        labelings = []
        for perm in perms:
            pts = [points[i] for i in perm]
            ex = [exps[i] for i in perm]
            labelings.append({"points": pts, "exps": ex,
                              "answer": execute((p, pts, ex))})
        classes = {(lab["answer"]["type"], lab["answer"]["subroute"])
                   for lab in labelings}
        if len(classes) != 1:
            raise SystemExit("cover %r %r: class changes under relabeling: %r"
                             % (points, exps, classes))
        covers.append({"p": p, "labelings": labelings})
    return {"covers": covers}


def model_requests(argvs):
    wl = workloads.ModelWorkload([])
    out = []
    for argv in argvs:
        rep = json.loads(wl.execute(argv))
        answer = workloads.model_answer(rep)
        problem = workloads.genus_conservation_error(rep)
        if problem or not answer["checks_passed"]:
            raise SystemExit("%s: %s" % (" ".join(argv), problem or "check failed"))
        out.append({"argv": argv, "answer": answer})
    return {"requests": out}


def write(name, data):
    path = workloads.EXPECTED_DIR / ("%s.json" % name)
    path.parent.mkdir(exist_ok=True)
    (key, items), = data.items()
    lines = ",\n".join(json.dumps(item) for item in items)
    path.write_text('{"%s": [\n%s\n]}\n' % (key, lines))
    print("wrote %s" % path)


def main():
    write("deep", model_requests(deep_argvs()))
    write("sweep", model_requests(sweep_argvs()))
    write("classify", classify_covers())


if __name__ == "__main__":
    main()
