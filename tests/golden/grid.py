"""Print one line per request of the model grid: its argv, its exit code
and the sha256 of its stdout, a NUL and its stderr.

    PYTHONPATH=src python3 tests/golden/grid.py > grid.txt

The grid is ``fourcover model --json`` for p in {3, 5, 7, 11}, every
(beta, gamma) in 1..p-1 (the ones with p | 1 + beta + gamma exit 3), the
twenty lambda tokens of ``TOKENS`` and the default precision and
``--precision 40``: 6,240 requests, run in-process through ``cli.main``
in 30 to 70 s, by host and Python version.  A change that must leave
every report as it was shows it by ``diff`` of this output before and
after; a changed line names the request whose output changed.
``grid.sha256`` holds the sha256 of the whole output, which CI recomputes
on every Python it tests:

    PYTHONPATH=src python3 tests/golden/grid.py | sha256sum
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from fourcover.cli import main as fourcover_main  # noqa: E402

PRIMES = (3, 5, 7, 11)
PRECISIONS = ((), ("--precision", "40"))


def tokens(p):
    """The lambda tokens: 2, 3, p, p^2, p^3, p^6, 1/p, -1, p^2 + 1, tau,
    tau^2, tau^3, tau^4, pi, pi^-2, tau^2 pi, tau^2 (p + 1), 3/5, 4, pi^3."""
    return ["2", "3", str(p), "%d^2" % p, "%d^3" % p, "%d^6" % p,
            "1/%d" % p, "-1", str(p * p + 1), "tau", "tau^2", "tau^3",
            "tau^4", "pi", "pi^-2", "tau^2*pi", "tau^2*%d" % (p + 1),
            "3/5", "4", "pi^3"]


def requests():
    for p in PRIMES:
        for beta in range(1, p):
            for gamma in range(1, p):
                for lam in tokens(p):
                    for extra in PRECISIONS:
                        yield ["model", "--p", str(p), "--beta", str(beta),
                               "--gamma", str(gamma), "--lambda", lam,
                               *extra, "--json"]


def run(argv):
    """The exit code of ``fourcover <argv>`` and the sha256 of its stdout,
    a NUL and its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fourcover_main(argv)
    text = out.getvalue() + "\0" + err.getvalue()
    return code, hashlib.sha256(text.encode()).hexdigest()


def main():
    for argv in requests():
        code, digest = run(argv)
        print("%s\t%d\t%s" % (" ".join(argv), code, digest))


if __name__ == "__main__":
    main()
