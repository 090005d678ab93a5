"""What ``import fourcover`` costs, and the records that keep it small.

Every ``fourcover`` call pays the import and the CLI parser before any
arithmetic, so the package imports no module it does not call.  The
footprint is read in a fresh ``-I -S`` interpreter: in this process
pytest and ``site`` have loaded those modules already.
"""

import os
import subprocess
import sys

from fourcover.classifier import Classification, StableModel

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

# dataclasses pulls in inspect, which pulls in ast, dis and tokenize;
# fractions pulls in decimal and numbers (the library has its own Rational)
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing",
         "fractions", "decimal", "numbers")

PROBE = """\
import sys
sys.path.insert(0, %r)
before = set(sys.modules)
import fourcover
import fourcover.cli
fourcover.cli.build_parser()
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_import_loads_no_heavy_module():
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", PROBE % SRC],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "fourcover.cli" in loaded
    assert not loaded & set(HEAVY), sorted(loaded & set(HEAVY))


def test_classification_compares_by_type_and_route():
    a = Classification("3", "via-1b")
    assert a == Classification("3", "via-1b")
    assert a != Classification("3", "via-2a")
    assert Classification("1a") != Classification("1b")
    assert a != ("3", "via-1b")
    assert hash(a) == hash(Classification("3", "via-1b"))
    assert len({a, Classification("3", "via-1b"), Classification("1a")}) == 2
    assert str(a) == "3 (via-1b)"
    assert str(Classification("1a")) == "1a"
    # as check_qwerty formats it: a tuple subclass would raise TypeError
    assert "classified as %s" % a == "classified as 3 (via-1b)"
    assert Classification("1a").subroute is None
    assert repr(a) == "Classification(rtype='3', subroute='via-1b')"


def test_stable_models_never_share_checks():
    cls = Classification("1a")
    m1 = StableModel(cls, [], [], None)
    m2 = StableModel(cls, [], [], None)
    m1.checks.append({"name": "x", "passed": True})
    assert m1.checks is not m2.checks
    assert m2.checks == []
    assert StableModel(cls, [], [], None, normalized=1).normalized == 1
