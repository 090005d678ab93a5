"""Golden corpus: the exact ``--json`` output of fixed CLI requests.

One request per reduction type and type-3 subroute (p = 3 and f = 2
cases included), requests whose centers lift on polynomials over the
unramified ring W, two at 4x precision whose centers lift on polynomials
with dense coefficients, plus one each of ``classify``, ``qwerty``,
``deuring`` and ``sweep``.  A refactor must leave every byte of these reports
unchanged; ``golden/freeze.py`` wrote them.
"""

import contextlib
import io
from pathlib import Path

import pytest

from fourcover.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _model(p, beta, gamma, lam, *extra):
    return ["model", "--p", str(p), "--beta", str(beta), "--gamma",
            str(gamma), "--lambda", lam, *extra, "--json"]


CASES = {
    "model_1a": _model(7, 1, 1, "3"),
    "model_1b": _model(5, 1, 4, "tau^2"),
    "model_2": _model(5, 1, 4, "5^3"),
    "model_via-1b_p3_f2": _model(3, 1, 2, "2"),
    "model_via-1b_e12_f2": _model(7, 1, 1, "3/5"),
    "model_via-2a": _model(5, 2, 1, "5"),
    "model_via-2b3-i_flipped": _model(5, 4, 4, "5"),
    "model_via-2b3-i_f2": _model(7, 1, 6, "7"),
    "model_via-2b3-ii": _model(5, 1, 4, "25"),
    "model_via-2b3-ii_e16": _model(5, 1, 4, "tau^2*pi^-1"),
    "model_via-2b3-ii_flipped_p3": _model(3, 2, 2, "pi^5"),
    # centers lifted from polynomials with every coefficient in W: a
    # degree-12 lift at e = 12, f = 2, a degree-11 lift with the flipped
    # residue-0 root, W-constant products at f = 2, and a request at 4x
    # the default precision
    "model_via-2b3-ii_w_lift_f2": _model(7, 1, 6, "7^2"),
    "model_via-2b3-ii_w_lift_flipped": _model(7, 6, 6, "7^2"),
    "model_via-1b_w_f2": _model(7, 1, 1, "2"),
    "model_via-2b3-ii_deep": _model(5, 2, 4, "25", "--precision", "800"),
    # centers lifted from polynomials with dense coefficients (pi-slots
    # above 0) at 4x the default precision: f = 2, and e = 16
    "model_via-2b3-i_f2_deep": _model(7, 1, 6, "7", "--precision", "1200"),
    "model_via-2b3-ii_e16_deep": _model(5, 1, 4, "tau^2*pi^-1", "--precision", "800"),
    "classify_1b": ["classify", "--p", "5", "--beta", "1", "--gamma", "4",
                    "--lambda", "tau^2", "--json"],
    "qwerty": ["qwerty", "--p", "5", "--c1", "1", "--c2", "tau^2", "--json"],
    "deuring": ["deuring", "--lambda", "32", "--json"],
    "sweep": ["sweep", "--p-list", "3,5", "--lambdas", "2,25", "--json"],
}


def render(argv):
    """Standard output of ``fourcover <argv>``; the exit code must be 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise AssertionError("%s exited with %d" % (" ".join(argv), code))
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name):
    expected = (GOLDEN_DIR / ("%s.json" % name)).read_text()
    assert render(CASES[name]) == expected
