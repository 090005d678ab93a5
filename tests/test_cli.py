import json
import os
import resource
import subprocess
import sys

import pytest

import fourcover.cli as cli
from fourcover.cli import build_parser, run, main
from fourcover.errors import InsufficientPrecision

SCHEMA_KEYS = ["input", "normalization", "type", "subroute", "extension",
               "components", "edges", "checks", "ms"]


def invoke(argv):
    args = build_parser().parse_args(argv)
    return run(args)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def invoke_process(argv, timeout=60):
    """Run the CLI in a child process with 1 GB of address space, so that
    a hang fails the test at the timeout and a runaway allocation fails
    in the child instead of exhausting the host.  Each probe below exits
    in well under a second; 60 s leaves room for slow hosts."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "fourcover.cli"] + argv,
                          env=env, capture_output=True, text=True,
                          timeout=timeout, preexec_fn=limit)


class TestRun:
    def test_classify_1b(self):
        rep, code = invoke(["classify", "--p", "5", "--beta", "1",
                            "--gamma", "4", "--lambda", "tau^2"])
        assert code == 0
        assert rep["type"] == "1b"
        assert list(rep.keys()) == SCHEMA_KEYS

    def test_model_type3(self):
        rep, code = invoke(["model", "--p", "5", "--beta", "2",
                            "--gamma", "1", "--lambda", "5"])
        assert code == 0
        assert rep["type"] == "3"
        assert [c["genus"] for c in rep["components"]] == [2, 2]
        assert rep["edges"] == [[0, 1, 1]]
        assert all(c["passed"] for c in rep["checks"])

    def test_deuring(self):
        rep, code = invoke(["deuring", "--lambda", "32"])
        assert code == 0
        assert rep["good_reduction"] is False
        rep, code = invoke(["deuring", "--lambda", "2"])
        assert code == 0
        assert rep["good_reduction"] is True

    def test_invalid_lambda_one(self):
        rep, code = invoke(["classify", "--p", "5", "--beta", "1",
                            "--gamma", "4", "--lambda", "1"])
        assert code == 3
        assert "error" in rep

    def test_invalid_token(self):
        rep, code = invoke(["classify", "--p", "5", "--beta", "1",
                            "--gamma", "4", "--lambda", "bogus"])
        assert code == 3

    def test_overlong_digit_groups_are_typed(self):
        # past the host's 4300-digit limit on string-to-int conversion
        for lam in ("7" * 5000, "tau^" + "7" * 5000):
            rep, code = invoke(["classify", "--p", "5", "--beta", "1",
                                "--gamma", "1", "--lambda", lam])
            assert code == 3
            assert rep["error"] == "InvalidInput"

    def test_no_allow_extension_checks_the_residue_degree(self):
        # this model needs f = 2 at e = p - 1
        argv = ["model", "--p", "3", "--beta", "1", "--gamma", "2",
                "--lambda", "3"]
        rep, code = invoke(argv)
        assert code == 0
        assert (rep["extension"]["e"], rep["extension"]["f"]) == (2, 2)
        rep, code = invoke(argv + ["--no-allow-extension"])
        assert code == 3
        assert rep["error"] == "NeedsExtension"

    def test_bad_exponents(self):
        rep, code = invoke(["classify", "--p", "5", "--beta", "5",
                            "--gamma", "1", "--lambda", "3"])
        assert code == 3

    def test_byte_identical(self):
        argv = ["model", "--p", "5", "--beta", "1", "--gamma", "4",
                "--lambda", "5^3"]
        rep1, _ = invoke(argv)
        rep2, _ = invoke(argv)
        assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
        assert rep1["ms"] is None

    def test_sweep_counts(self):
        rep, code = invoke(["sweep", "--p", "3", "--lambdas", "2,3,27",
                            "--precision", "40"])
        assert code == 0
        assert rep["rows_total"] == 9
        assert rep["rows_failed"] == 0
        assert all(r["genus_conservation"] for r in rep["rows"] if "type" in r)

    def test_sweep_invalid_rows_collected(self):
        rep, code = invoke(["sweep", "--p", "3", "--lambdas", "1,2"])
        assert code == 0
        bad = [r for r in rep["rows"] if "error" in r]
        good = [r for r in rep["rows"] if "type" in r]
        assert len(bad) == 3 and len(good) == 3

    @pytest.mark.parametrize("pair", [
        ["--beta", "9", "--gamma", "9"],   # out of range for p = 5
        ["--beta", "0", "--gamma", "1"],
        ["--beta", "2"],                   # a lone value
        ["--gamma", "2"],
    ])
    def test_sweep_rejects_a_bad_pinned_pair(self, pair):
        rep, code = invoke(["sweep", "--p", "5", "--lambdas", "5"] + pair)
        assert code == 3
        assert rep["error"] == "InvalidInput"

    def test_sweep_checks_the_pinned_pair_for_every_p(self):
        argv = ["sweep", "--beta", "6", "--gamma", "1", "--lambdas", "5"]
        rep, code = invoke(argv + ["--p-list", "7"])
        assert code == 0
        assert [(r["beta"], r["gamma"]) for r in rep["rows"]] == [(6, 1)]
        rep, code = invoke(argv + ["--p-list", "7,5"])
        assert code == 3
        assert rep["error"] == "InvalidInput"

    @pytest.mark.parametrize("command", [
        ["model", "--beta", "2", "--gamma", "1", "--lambda", "5"],
        ["sweep", "--lambdas", "5"],
    ])
    @pytest.mark.parametrize("precision", ["0", "-1"])
    def test_precision_must_be_positive(self, command, precision):
        rep, code = invoke(command + ["--p", "5", "--precision", precision])
        assert code == 3
        assert rep["error"] == "InvalidInput"

    def test_qwerty_huge_exact_constant(self):
        # the normalized constant is an exact rational far past float range
        for c1, c2 in [("3^400", "2"), ("2^700", "3")]:
            rep, code = invoke(["qwerty", "--p", "5", "--c1", c1, "--c2", c2])
            assert code == 0
            assert (rep["type"], rep["subroute"]) == ("3", "via-1b")

    def test_empty_grid(self):
        rep, code = invoke(["sweep", "--p", "3", "--lambdas", " "])
        assert code == 0
        assert rep["rows_total"] == 0

    def test_selftest_passes(self):
        rep, code = invoke(["selftest"])
        assert code == 0
        names = [c["name"] for c in rep["checks"] if c["passed"]]
        assert names == ["torsor-bruteforce-agreement", "genus-shortcut-vs-conductor",
                         "normalization-orbit-invariance", "deuring-orbit-invariance"]
        assert rep["passed"]

    def test_precision_retry_then_exit_2(self, monkeypatch):
        calls = []

        def flaky(args, precision, boost):
            calls.append(boost)
            if len(calls) == 1:
                raise InsufficientPrecision("digits exhausted")
            return {"input": {"command": "classify"}, "ms": None}

        monkeypatch.setitem(cli._RUNNERS, "classify", flaky)
        rep, code = invoke(["classify", "--p", "5", "--beta", "1",
                            "--gamma", "4", "--lambda", "3"])
        assert code == 0
        assert calls == [1, 4]  # second attempt runs at 4x precision

        def hopeless(args, precision, boost):
            raise InsufficientPrecision("never enough")

        monkeypatch.setitem(cli._RUNNERS, "classify", hopeless)
        rep, code = invoke(["classify", "--p", "5", "--beta", "1",
                            "--gamma", "4", "--lambda", "3"])
        assert code == 2
        assert rep["error"] == "InsufficientPrecision"

    def test_retry_past_the_precision_bound_reports_the_first_run(self, monkeypatch):
        # 20000 pi-digits at p = 5 fit the bound on p^N; 4x of them do not,
        # so the retry's tower is rejected and the first failure is reported
        def short(args, precision, boost):
            if boost == 1:
                raise InsufficientPrecision("digits exhausted")
            cli._base_tower(args.p, precision, boost)
            raise AssertionError("the 4x tower was built")

        monkeypatch.setitem(cli._RUNNERS, "classify", short)
        rep, code = invoke(["classify", "--p", "5", "--beta", "1", "--gamma", "4",
                            "--lambda", "3", "--precision", "20000"])
        assert code == 2
        assert rep == {"error": "InsufficientPrecision", "detail": "digits exhausted"}

    def test_retry_does_not_stick_to_the_namespace(self, monkeypatch):
        # the 4x retry of one run must not raise the precision of the next
        # run of the same namespace
        real = cli._RUNNERS["classify"]
        boosts = []

        def retry_once(args, precision, boost):
            boosts.append(boost)
            if len(boosts) == 1:
                raise InsufficientPrecision("digits exhausted")
            return real(args, precision, boost)

        monkeypatch.setitem(cli._RUNNERS, "classify", retry_once)
        args = build_parser().parse_args(["classify", "--p", "5", "--beta", "1",
                                          "--gamma", "4", "--lambda", "3"])
        first, code = run(args)
        assert code == 0 and first["input"]["precision"] == 800
        second, code = run(args)
        assert code == 0 and second["input"]["precision"] == 200
        assert boosts == [1, 4, 1]

class TestMain:
    def test_missing_args(self, capsys):
        assert main(["classify", "--p", "5"]) == 3

    def test_json_output(self, capsys):
        rc = main(["classify", "--p", "5", "--beta", "1", "--gamma", "4",
                   "--lambda", "tau^2", "--json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["type"] == "1b"

    def test_human_output(self, capsys):
        rc = main(["model", "--p", "5", "--beta", "1", "--gamma", "4",
                   "--lambda", "5^3"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "type 2" in text
        assert "multiplicity 5" in text

    def test_sweep_bad_p_list_is_typed(self, capsys):
        assert main(["sweep", "--p-list", "3,x", "--lambdas", "5"]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidInput"

    def test_exit_code_3_on_stderr_json(self, capsys):
        rc = main(["classify", "--p", "5", "--beta", "1", "--gamma", "4",
                   "--lambda", "0"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "error" in json.loads(err)


class TestBoundedInputs:
    """Inputs whose exact size would exhaust time or memory are rejected
    as InvalidInput (exit 3) before any work proportional to it."""

    @pytest.mark.parametrize("lam", ["2^99999999999", "pi^99999999999",
                                     "pi^-99999999999", "tau^99999999999"])
    def test_huge_token(self, lam):
        res = invoke_process(["classify", "--p", "5", "--beta", "1",
                              "--gamma", "1", "--lambda", lam])
        assert res.returncode == 3
        assert json.loads(res.stderr)["error"] == "InvalidInput"

    @pytest.mark.parametrize("command", [
        ["classify", "--beta", "1", "--gamma", "1", "--lambda", "7"],
        ["sweep", "--lambdas", "7"],
    ])
    def test_huge_precision(self, command):
        # p^N for 10^9 pi-digits has about 1.75e8 digits, and the table of
        # its powers about N^2; both are refused before any is taken
        res = invoke_process(command + ["--p", "5", "--precision", "1000000000"])
        assert res.returncode == 3
        assert json.loads(res.stderr)["error"] == "PrecisionTooLarge"

    @pytest.mark.parametrize("command", [
        ["classify", "--beta", "1", "--gamma", "1", "--lambda", "7"],
        ["sweep", "--lambdas", "7"],
    ])
    def test_huge_prime(self, command):
        # 2^61 - 1 is prime; trial division to its square root never ends
        res = invoke_process(command + ["--p", str(2 ** 61 - 1)])
        assert res.returncode == 3
        assert json.loads(res.stderr)["error"] == "InvalidInput"
