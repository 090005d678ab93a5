"""The benchmark's workloads: their requests, how one request runs against
the fourcover library, and how its answer is checked.

Every request and its expected answer are frozen in ``expected/<name>.json``
(written by ``freeze.py`` from the library as it stood when the benchmark
was defined).  A run's seed only decides the order in which requests are
sent, so every seed has an expected answer for every request.

Library entry points are always looked up through their module at call
time (``normalizer.normalize``, not a name imported once), so that the
traced run can wrap them.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from fourcover import classifier, cli, normalizer, tower  # noqa: E402

EXPECTED_DIR = BENCH_DIR / "expected"


class RequestFailed(Exception):
    """A request returned an error report instead of an answer."""


def encode_report(rep):
    """JSON-encode a report exactly as ``fourcover ... --json`` prints it."""
    return json.dumps(rep, indent=2)


def model_answer(rep):
    """The parts of a ``model`` report that the benchmark checks."""
    return {
        "type": rep["type"],
        "subroute": rep["subroute"],
        "e": rep["extension"]["e"],
        "f": rep["extension"]["f"],
        "components": [[c["genus"], c["p_rank"]] for c in rep["components"]],
        "edges": rep["edges"],
        "checks_passed": all(c["passed"] for c in rep["checks"]),
    }


def genus_conservation_error(rep):
    """Independent invariant: sum of genera + Betti number = p - 1."""
    comps, edges = rep["components"], rep["edges"]
    betti = sum(m for _, _, m in edges) - len(comps) + 1 if comps else 0
    total = sum(c["genus"] for c in comps) + betti
    p = rep["input"]["p"]
    if total != p - 1:
        return "genus sum + Betti = %d, expected p - 1 = %d" % (total, p - 1)
    return None


class Request:
    __slots__ = ("payload", "expected", "group")

    def __init__(self, payload, expected, group=None):
        self.payload = payload
        self.expected = expected
        self.group = group


class ModelWorkload:
    """``fourcover model --json`` requests sent through ``cli.run``."""

    def __init__(self, entries):
        self.requests = [Request(e["argv"], e["answer"]) for e in entries]
        self.parser = cli.build_parser()

    def execute(self, argv):
        rep, code = cli.run(self.parser.parse_args(argv))
        text = encode_report(rep)
        if code:
            raise RequestFailed("exit code %d: %s" % (code, text[:300]))
        return text

    def checker(self):
        return check_model


def check_model(request, text):
    """None when the answer is right, else why it is wrong."""
    rep = json.loads(text)
    got = model_answer(rep)
    if got != request.expected:
        return "answer %r, expected %r" % (got, request.expected)
    return genus_conservation_error(rep)


class ClassifyWorkload:
    """``make_tower`` -> ``normalize`` -> ``classify`` -> ``required_extension``
    on covers in general position, each also asked under relabelings."""

    def __init__(self, covers):
        self.requests = [
            Request((c["p"], lab["points"], lab["exps"]), lab["answer"], i)
            for i, c in enumerate(covers) for lab in c["labelings"]]

    def execute(self, payload):
        p, points, exps = payload
        tw = tower.make_tower(p, p - 1, 1, 50 * (p - 1))
        datum = normalizer.CoverDatum(
            tw, [normalizer.parse_point(tw, s) for s in points], exps)
        n = normalizer.normalize(datum)
        cls = classifier.classify(n)
        ext = classifier.required_extension(n, cls)
        return {"type": cls.rtype, "subroute": cls.subroute,
                "extension": ext.as_dict()}

    def checker(self):
        return RelabelingChecker()


class RelabelingChecker:
    """Checks answers, and that a cover's class is equal across relabelings."""

    def __init__(self):
        self.classes = {}

    def __call__(self, request, answer):
        if answer != request.expected:
            return "answer %r, expected %r" % (answer, request.expected)
        cls = (answer["type"], answer["subroute"])
        first = self.classes.setdefault(request.group, cls)
        if cls != first:
            return "class %r differs from %r under relabeling" % (cls, first)
        return None


def load(name):
    """The workload ``name`` with its frozen requests and answers."""
    data = json.loads((EXPECTED_DIR / ("%s.json" % name)).read_text())
    if name == "classify":
        return ClassifyWorkload(data["covers"])
    return ModelWorkload(data["requests"])
