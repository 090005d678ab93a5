"""Span recorder for the traced run, installed from outside the library.

Each public entry point of a layer is replaced, in every module namespace
that holds it (``fourcover.classifier.torsor_case`` as well as
``fourcover.torsor.torsor_case``), by a wrapper that records a span:
name, start, end, parent span and request id.  Spans stay in memory and
are written out when the run ends.  A layer's self time is its spans'
durations minus the time their child spans cover.

Tower operations are far too frequent for spans; they are only counted.
``remove()`` restores every original, so untraced code runs unwrapped.
"""

import json
import math
import sys
import time
from collections import Counter

from fourcover import classifier, tower


def _route(model):
    cls = model.classification
    return cls.subroute or cls.rtype


def _case(outcome):
    return outcome.case


# (module, function, span name, tag taken from the return value)
SPANS = [
    ("normalizer", "normalize", "normalizer.normalize", None),
    ("normalizer", "_verify_witness_by_sampling", "normalizer.witness_check", None),
    ("classifier", "classify", "classifier.classify", None),
    ("classifier", "required_extension", "classifier.required_extension", None),
    ("classifier", "build_stable_model", "classifier.build", _route),
    ("classifier", "verify_model", "classifier.verify_model", None),
    ("torsor", "blowup_chart", "torsor.blowup_chart", None),
    ("torsor", "torsor_case", "torsor.trichotomy", _case),
    ("torsor", "_torsor_outcome", "torsor.trichotomy", _case),
    ("curves", "as_reduce", "curves.as_reduce", None),
    ("curves", "as_genus", "curves.as_genus", None),
    ("ffield", "pfactor", "ffield.pfactor", None),
    ("ffield", "proots", "ffield.proots", None),
    ("tower", "hensel_root", "tower.hensel_root", None),
    ("cli", "run", "cli.run", None),
]

# (class, method, counter)
COUNTED = [
    (tower.El, "__mul__", "tower.mul"),
    (tower.El, "__rmul__", "tower.mul"),
    (tower.El, "inverse", "tower.inverse"),
    (tower.Tower, "sqrt", "tower.sqrt"),
]
COUNTERS = ("tower.mul", "tower.inverse", "tower.sqrt")

ROUTES = (classifier.TYPE_1A, classifier.TYPE_1B, classifier.TYPE_2,
          classifier.VIA_1B, classifier.VIA_2A, classifier.VIA_2B3_I,
          classifier.VIA_2B3_II)

# per-layer metric -> the spans whose self time it adds up
SELF_MS = {
    "tower.hensel_root_ms": ("tower.hensel_root",),
    "normalizer.normalize_ms": ("normalizer.normalize",),
    "normalizer.witness_check_ms": ("normalizer.witness_check",),
    "classifier.classify_ms": ("classifier.classify",),
    "classifier.required_extension_ms": ("classifier.required_extension",),
    "classifier.build_ms": ("classifier.build",),
    "classifier.verify_model_ms": ("classifier.verify_model",),
    "torsor.blowup_chart_ms": ("torsor.blowup_chart",),
    "torsor.trichotomy_ms": ("torsor.trichotomy",),
    "curves.as_reduce_ms": ("curves.as_reduce",),
    "curves.as_genus_ms": ("curves.as_genus",),
    "ffield.pfactor_ms": ("ffield.pfactor",),
    "ffield.proots_ms": ("ffield.proots",),
    "cli.report_ms": ("cli.run", "cli.json"),
}
# per-layer metric -> the spans whose outermost calls it counts
CALLS = {
    "torsor.trichotomy_calls": ("torsor.trichotomy",),
    "curves.as_genus_calls": ("curves.as_genus",),
    "ffield.calls": ("ffield.pfactor", "ffield.proots"),
}

NAME, START, END, PARENT, REQUEST, TAG = range(6)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, request, tag]
        self.counts = Counter()
        self.marks = []          # counter values when each request starts
        self._stack = []
        self._request = None
        self._undo = []

    # -- installation ---------------------------------------------------

    def install(self, extra_spans=()):
        """Wrap the library's entry points, plus ``extra_spans`` given as
        (module, function name, span name) from the benchmark's code."""
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "fourcover" or n.startswith("fourcover.")]
        namespaces += [ns for ns, _, _ in extra_spans]
        targets = [(sys.modules["fourcover." + mod], fn, name, tag)
                   for mod, fn, name, tag in SPANS]
        targets += [(ns, fn, name, None) for ns, fn, name in extra_spans]
        for module, fn, name, tag in targets:
            original = getattr(module, fn)
            wrapper = self._span(name, original, tag)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._undo.append((ns, attr, original))
                        setattr(ns, attr, wrapper)
        for cls, method, counter in COUNTED:
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, self._counting(counter, original))

    def remove(self):
        while self._undo:
            ns, attr, original = self._undo.pop()
            setattr(ns, attr, original)

    def _span(self, name, fn, tag):
        spans, stack = self.spans, self._stack
        clock = time.process_time

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None,
                   self._request, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
                if tag is not None:
                    rec[TAG] = tag(out)
                return out
            finally:
                rec[END] = clock()
                stack.pop()
        return wrapper

    def _counting(self, counter, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def requests(self, execute):
        """``execute`` wrapped so that each call is one request: a new
        request id and a root span named ``request``."""
        traced = self._span("request", execute, None)

        def wrapper(payload):
            self._request = len(self.marks)
            self.marks.append(tuple(self.counts[c] for c in COUNTERS))
            try:
                return traced(payload)
            finally:
                self._request = None
        return wrapper

    # -- results ----------------------------------------------------------

    def dump(self, path):
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "request", "tag"],
            "spans": self.spans,
        }) + "\n")

    def metrics(self, first_pass, scales):
        """Per-layer metrics.  Times are self times in ms per request over
        every traced request, each request's spans multiplied by its
        calibration factor in ``scales``.  Counts are per request over the
        first ``first_pass`` requests, one pass holding every request once,
        so they repeat exactly whatever the seed."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] is not None:
                child[rec[PARENT]] += rec[END] - rec[START]
        self_ms = Counter()
        route_ms, route_n = Counter(), Counter()
        calls = Counter()
        decided = 0
        for i, rec in enumerate(spans):
            ms = (rec[END] - rec[START] - child[i]) * 1e3 * scales[rec[REQUEST]]
            self_ms[rec[NAME]] += ms
            if rec[NAME] == "classifier.build":
                route_ms[rec[TAG]] += ms
                route_n[rec[TAG]] += 1
            nested = (rec[PARENT] is not None
                      and spans[rec[PARENT]][NAME] == rec[NAME])
            if rec[REQUEST] < first_pass and not nested:
                calls[rec[NAME]] += 1
                if rec[NAME] == "torsor.trichotomy" and rec[TAG] not in (
                        None, "undecided"):
                    decided += 1

        n = len(self.marks)
        out = {metric: math.fsum(self_ms[s] for s in names) / n
               for metric, names in SELF_MS.items()}
        for route in ROUTES:
            out["classifier.build_ms." + route] = (
                route_ms[route] / route_n[route] if route_n[route] else 0.0)
        for metric, names in CALLS.items():
            out[metric] = sum(calls[s] for s in names) / first_pass
        attempts = calls["torsor.trichotomy"]
        out["torsor.decided_frac"] = decided / attempts if attempts else 0.0
        marks = self.marks + [tuple(self.counts[c] for c in COUNTERS)]
        for counter, a, b in zip(COUNTERS, marks[0], marks[first_pass]):
            out[counter + "_calls"] = (b - a) / first_pass
        return out
