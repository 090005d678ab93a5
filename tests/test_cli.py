import json

import fourcover.cli as cli
from fourcover.cli import build_parser, run, main
from fourcover.errors import InsufficientPrecision

SCHEMA_KEYS = ["input", "normalization", "type", "subroute", "extension",
               "components", "edges", "checks", "ms"]


def invoke(argv):
    args = build_parser().parse_args(argv)
    return run(args)


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

    def test_exit_code_3_on_stderr_json(self, capsys):
        rc = main(["classify", "--p", "5", "--beta", "1", "--gamma", "4",
                   "--lambda", "0"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "error" in json.loads(err)
