import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import chtri.cli
import chtri.cosearch
import chtri.reports
import chtri.trigroup
from chtri.candidates import ALL_IDS, parse_candidate
from chtri.exact import Cyclo

CMD = [sys.executable, "-m", "chtri.cli"]


def run(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, env=full_env
    )


class TestBuild:
    def test_build_json(self):
        r = run("build", "--p", "4", "--n", "4", "--m", "3")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["signature"] == "(2,1)"
        assert doc["exact"] is True
        # rho = 1 for the (4,3) candidate, and tr(S) = 0 exactly prints as zero
        assert doc["tr_S"] == {"exact": "0", "re": "0.0", "im": "0.0"}
        assert doc["warning"] is None

    def test_build_degenerate_warns(self):
        r = run("build", "--p", "3", "--n", "4", "--m", "3")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["signature"] == "degenerate"
        assert doc["warning"]

    @pytest.mark.parametrize("command", [["build"], ["verify"], ["classify", "--word", "1"]],
                             ids=["build", "verify", "classify"])
    def test_build_infeasible(self, command):
        r = run(*command, "--p", "3", "--n", "6", "--m", "3")
        assert r.returncode == 1
        assert "no such symmetric group" in r.stderr

    def test_feasibility_decided_beyond_the_exact_limit(self, capsys):
        # 2cos(pi/m) - cos(2pi/n) - 1 is -3.4e-12 at (1393, 985) and 7.7e-13 at (2786, 1970): within the
        # doubles' bound, and of conductors 2,744,210 and 5,488,420, above the exact limit, so 128 bits decide
        assert chtri.cli.main(["verify", "--p", "3", "--n", "1393", "--m", "985"]) == 1
        assert "no such symmetric group" in capsys.readouterr().err
        assert chtri.cli.main(["build", "--p", "3", "--n", "2786", "--m", "1970"]) == 0
        assert json.loads(capsys.readouterr().out)["exact"] is False

    def test_exact_reals_print_imaginary_part_zero(self, capsys):
        # 2 sin(pi/p) on the diagonal of H is real: its imaginary part prints 0, not rounding noise
        assert chtri.cli.main(["build", "--p", "5", "--n", "5", "--m", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        g = chtri.trigroup.build_symmetric(5, 5, 5)
        reals = 0
        for name in ("R1", "R2", "R3", "H", "S"):
            for row, printed in zip(getattr(g, name).rows, doc[name]):
                for x, d in zip(row, printed):
                    if x.is_real():
                        reals += 1
                        assert d["im"] == "0.0", (name, d)
                        assert d["re"] == "0.0" or not x.is_zero()
                    else:
                        assert d["im"] != "0.0", (name, d)
        assert reals and doc["H"][0][0]["im"] == "0.0"

    def test_output_file(self, tmp_path):
        out = tmp_path / "g.json"
        r = run("build", "--p", "2", "--n", "5", "--m", "5", "--out", str(out))
        assert r.returncode == 0
        assert json.loads(out.read_text())["p"] == 2


class TestVerify:
    def test_verify_passes(self):
        r = run("verify", "--p", "5", "--n", "3", "--m", "4")
        assert r.returncode == 0
        lines = [json.loads(l) for l in r.stdout.strip().splitlines()]
        summary = lines[-1]
        assert summary["summary"] and summary["passed"] == summary["checks"]
        braids = {l["check"]: l["got"] for l in lines
                  if l.get("check", "").startswith("br(")}
        assert braids == {
            "br(R1,R3)": 3,
            "br(R2,R3)": 3,
            "br(R1,R2)": 4,
            "br(R1,R3^-1R2R3)": 4,
        }

    def test_trace_mismatch_is_a_failing_check(self, monkeypatch, capsys):
        orig = chtri.trigroup._trace_pairs

        def mismatch(*args):
            traces, closed = orig(*args)
            return traces, (closed[0] + 1, *closed[1:])

        # a float group, so no cached candidate certificate is read or made with the perturbed closed form
        monkeypatch.setattr(chtri.trigroup, "_trace_pairs", mismatch)
        code = chtri.cli.main(["verify", "--p", "4", "--n", "5", "--m", "6"])
        assert code == 1
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        trace = [l for l in lines if l.get("check") == "trace_formulas"]
        assert len(trace) == 1 and trace[0]["pass"] is False
        summary = lines[-1]
        assert summary["summary"] and summary["passed"] == summary["checks"] - 1

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("im_sign", ["1", "-1"])
    def test_repeated_eigenvalue_passes_at_128_bits(self, n, im_sign, capsys):
        # at p = 3 and m = 6 the eigenvalue ub^2 of R1R2 equals -u e^{2i zeta}: a double root, where
        # the lemma still holds to the working precision
        code = chtri.cli.main(["verify", "--p", "3", "--n", str(n), "--m", "6", "--im-sign", im_sign,
                               "--prec", "128"])
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        lemma = [l for l in lines if l.get("check") == "eigenvalue_lemma"]
        assert code == 0 and len(lemma) == 1 and lemma[0]["pass"] is True
        assert lines[-1]["passed"] == lines[-1]["checks"]

    @pytest.mark.parametrize("prec", ["53", "64", "96"])
    def test_a_float_group_passes_at_low_precision(self, prec, capsys):
        # the float checks read tolerance(prec) = 2^-(prec // 2): a fixed 1e-30 is below the residuals
        # that 53 to 96 bits can reach, and failed 13 or 14 of the 15 checks of this valid group
        code = chtri.cli.main(["verify", "--p", "3", "--n", "5", "--m", "6", "--prec", prec])
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert code == 0 and all(l["pass"] for l in lines[:-1])
        assert (lines[-1]["checks"], lines[-1]["passed"]) == (15, 15)

    @pytest.mark.parametrize("n,m,more", [
        *(pytest.param(n, m, ["--p", "5"], id=f"{n}-{m}")
          for n, m in [(25, 25), (30, 30), (25, 26), (40, 40), (2786, 1970)]),
        # at 53 bits tolerance(53) = 2^-26 holds seven lengths around 2786: the nearest one is read
        *(pytest.param(2786, 1970, ["--p", "3", "--prec", prec], id=f"2786-1970-p3-prec{prec}")
          for prec in ("53", "64")),
    ])
    def test_braid_lengths_above_24_pass(self, n, m, more, capsys):
        # each braid length is read up to its expected one, (n, n, m, m); (25,26) and (2786,1970) are float groups
        assert chtri.cli.main(["verify", *more, "--n", str(n), "--m", str(m)]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert [(l["expected"], l["got"]) for l in lines if l.get("check", "").startswith("br(")] == [
            (n, n), (n, n), (m, m), (m, m)]

    def test_verify_json_lines(self):
        r = run("verify", "--p", "3", "--n", "6", "--m", "6")
        assert r.returncode == 0
        for line in r.stdout.strip().splitlines():
            json.loads(line)


def _verify_args(cid: str, p: int) -> list:
    n, m, im_sign = parse_candidate(cid)
    return ["--p", str(p), "--n", str(n), "--m", str(m)] + (["--im-sign", "-1"] if im_sign < 0 else [])


class TestVerifyGolden:
    # one (2,1) case, (3,3)- at p = 7 (signature (1,2)), (8,6) at p = 2 (degenerate), (4,4) and a float group,
    # then every candidate at p = 2 and p = 20
    CASES = (
        ["--p", "5", "--n", "5", "--m", "4"],
        ["--p", "7", "--n", "3", "--m", "3", "--im-sign", "-1"],
        ["--p", "2", "--n", "8", "--m", "6"],
        ["--p", "12", "--n", "4", "--m", "4"],
        ["--p", "4", "--n", "5", "--m", "6"],
        *(_verify_args(cid, p) for cid in ALL_IDS for p in (2, 20)),
    )

    def test_matches_the_golden_output(self, capsys):
        # pins every printed residual digit and braid length
        golden = pathlib.Path(__file__).parent / "data" / "verify_golden.jsonl"
        out = []
        for case in self.CASES:
            assert chtri.cli.main(["verify", *case]) == 0
            out.append(capsys.readouterr().out)
        assert "".join(out) == golden.read_text()


def _main_digest(argv: list) -> dict:
    """{argv, exit code, sha256 of stdout} of one in-process `chtri.cli.main` call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = chtri.cli.main(argv)
    return {"argv": argv, "exit": code, "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}


# every candidate at p = 2 and p = 7, and the float group (5,6) at p = 3
_GROUPS = (*(_verify_args(cid, p) for cid in ALL_IDS for p in (2, 7)), ["--p", "3", "--n", "5", "--m", "6"])
_WORDS = ("1 2", "1 -3 2 3", "1 2 -3")


class TestBuildClassifyGolden:
    CALLS = (*(["build", *g] for g in _GROUPS), *(["classify", "--word", w, *g] for g in _GROUPS for w in _WORDS))
    GOLDEN = pathlib.Path(__file__).parent / "data" / "build_classify_golden.jsonl"

    @classmethod
    def write_golden(cls):
        """Write the golden file from the code on the import path."""
        cls.GOLDEN.write_text("".join(json.dumps(_main_digest(argv)) + "\n" for argv in cls.CALLS))

    def test_matches_the_golden_output(self):
        # pins the bytes and exit code of build and classify on exact and float groups
        want = [json.loads(line) for line in self.GOLDEN.read_text().splitlines()]
        assert [_main_digest(argv) for argv in self.CALLS] == want


class TestVerifyDigests:
    # every candidate at p = 2..40, each Euclidean p (3, 4, 6) with it; the float groups of CI, of
    # tests/test_reachability.py and of the long braid lengths; the same groups at the reachability argv
    CALLS = (
        *(["verify", *_verify_args(cid, p)] for cid in ALL_IDS for p in range(2, 41)),
        *(["verify", "--p", p, "--n", n, "--m", m, *extra] for p, n, m, extra in (
            ("3", "5", "6", ()), ("4", "5", "6", ()), ("3", "4", "5", ()), ("3", "3", "7", ()),
            ("5", "25", "26", ()), ("3", "5", "6", ("--prec", "128")), ("3", "5", "6", ("--prec", "64")),
            ("3", "5", "6", ("--prec", "53")), ("3", "5", "6", ("--prec", "96")),
            ("3", "5", "6", ("--im-sign", "-1")), ("3", "2786", "1970", ()), ("5", "40", "40", ()),
            ("4", "5", "6", ("--im-sign", "1")))),
        *(["verify", "--p", "7", "--n", str(n), "--m", str(m), "--im-sign", str(s)]
          for n, m, s in map(parse_candidate, ALL_IDS)),
    )
    GOLDEN = pathlib.Path(__file__).parent / "data" / "verify_digests.jsonl"

    @classmethod
    def write_golden(cls):
        """Write the golden file from the code on the import path."""
        cls.GOLDEN.write_text("".join(json.dumps(_main_digest(argv)) + "\n" for argv in cls.CALLS))

    def test_matches_the_golden_output(self):
        # pins the bytes and exit code of verify, braid lengths included, at every p of the scan
        want = [json.loads(line) for line in self.GOLDEN.read_text().splitlines()]
        assert [_main_digest(argv) for argv in self.CALLS] == want


class TestVerifyCandidate:
    def test_a_cached_candidate_builds_no_group(self, monkeypatch, capsys):
        # checks and braid lengths from the certificate, signature from form_signature
        argv = ["verify", "--n", "3", "--m", "5", "--im-sign", "-1"]
        assert chtri.cli.main([*argv, "--p", "8"]) == 0  # caches the certificate and the generic H
        built = []
        for module, name in ((chtri.trigroup, "build_symmetric"), (chtri.trigroup, "build_group"),
                             (chtri.trigroup, "symmetry_matrix"), (chtri.cli, "build_symmetric")):
            monkeypatch.setattr(module, name, lambda *a, name=name, **k: built.append(name))
        capsys.readouterr()
        for p in ("8", "9", "2"):
            assert chtri.cli.main([*argv, "--p", p]) == 0
        assert built == []
        summaries = [json.loads(line) for line in capsys.readouterr().out.splitlines() if '"summary"' in line]
        assert [s["signature"] for s in summaries] == ["(1,2)", "(1,2)", "(2,1)"]
        assert [s["checks"] for s in summaries] == [12, 12, 15]

    @pytest.mark.parametrize("command", [["verify"], ["build"], ["classify", "--word", "1"]],
                             ids=["verify", "build", "classify"])
    def test_no_det_is_evaluated(self, command, monkeypatch, capsys):
        # only `tables` prints a det: the signature of (4,3) at p = 5 comes from the signs of its
        # invariants, and `verify` converts no exact value to mpmath
        for cached in (chtri.trigroup.generic_group, chtri.trigroup.form_invariants, chtri.trigroup._sign_terms,
                       chtri.trigroup.certificate, chtri.reports._det_terms, chtri.reports._t_powers):
            cached.cache_clear()
        calls = []
        for owner, name in ((chtri.reports, "float_det"), (chtri.reports, "_t_powers"), (Cyclo, "to_mpc")):
            monkeypatch.setattr(owner, name, lambda *a, f=getattr(owner, name), name=name, **k:
                                calls.append(name) or f(*a, **k))
        assert chtri.cli.main([command[0], "--p", "5", "--n", "4", "--m", "3", *command[1:]]) == 0
        assert "float_det" not in calls and "_t_powers" not in calls
        assert command != ["verify"] or calls == []

    def test_the_sign_terms_are_built_once_at_any_precision(self, capsys):
        # the sign terms are exact rationals: a second --prec reads the same cache entry
        chtri.trigroup._sign_terms.cache_clear()
        for prec in ("64", "512"):
            assert chtri.cli.main(["verify", "--p", "5", "--n", "4", "--m", "3", "--prec", prec]) == 0
        assert chtri.trigroup._sign_terms.cache_info().misses == 1

    @pytest.mark.parametrize("cid", ALL_IDS)
    def test_the_same_checks_as_verify_on_the_group(self, cid):
        n, m, im_sign = parse_candidate(cid)
        for p in (2, 3, 7):
            g = chtri.trigroup.build_symmetric(p, n, m, im_sign=im_sign)
            assert chtri.trigroup.verify_symmetric(p, n, m, im_sign) == (chtri.trigroup.verify(g), g.signature)

    @pytest.mark.parametrize("n, m", [(3, 3), (5, 6)], ids=["candidate", "float"])
    def test_p_below_2_is_a_usage_error(self, n, m, capsys):
        assert chtri.cli.main(["verify", "--p", "1", "--n", str(n), "--m", str(m)]) == 2
        assert "reflection order p must be >= 2" in capsys.readouterr().err


class TestImport:
    def test_cli_import_leaves_numpy_out(self):
        code = ("import sys, chtri.cli; "
                "code = chtri.cli.main(['search', '--den-max', '12', '--n-max', '6', '--m-max', '6', "
                "'--format', 'text']); "
                "sys.exit(code or any(m in sys.modules for m in ('numpy', 'sympy', 'hypothesis')))")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0 and "(4,3)" in r.stdout


class TestSearch:
    def test_search_json(self, tmp_path):
        out = tmp_path / "cands.json"
        r = run("search", "--den-max", "12", "--n-max", "8", "--m-max", "8",
                "--out", str(out))
        assert r.returncode == 0
        doc = json.loads(out.read_text())
        pairs = {(row["n"], row["m"]) for row in doc}
        assert (4, 3) in pairs and (6, 6) in pairs
        assert all(row["exact_confirmed"] for row in doc)
        assert set(doc[0]["a"]) == {"num", "den"}
        # s = 0 exactly for (4,3), so it prints as zero rather than float noise
        assert [row["s"] for row in doc if (row["n"], row["m"]) == (4, 3)] == [{"re": "0.0", "im": "0.0"}]

    def test_matches_the_golden_output(self, capsys):
        # pins the printed representative of every orbit and the 50-digit s
        golden = pathlib.Path(__file__).parent / "data" / "search_den90.json"
        argv = ["search", "--den-max", "90", "--n-max", "12", "--m-max", "12", "--format", "json"]
        assert chtri.cli.main(argv) == 0
        assert capsys.readouterr().out == golden.read_text()

    def test_den_max_only_filters_the_rows(self):
        golden = pathlib.Path(__file__).parent / "data" / "search_den90.json"
        r = run("search", "--den-max", "10000", "--n-max", "12", "--m-max", "12", "--format", "json")
        assert r.returncode == 0 and r.stdout == golden.read_text()

    def test_deterministic(self):
        a = run("search", "--den-max", "10", "--n-max", "6", "--m-max", "6")
        b = run("search", "--den-max", "10", "--n-max", "6", "--m-max", "6")
        assert a.stdout == b.stdout


class TestTables:
    def test_csv(self):
        r = run("tables", "--candidate", "(4,3)", "--p-max", "5", "--format", "csv")
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "candidate,p,detH,verdict"
        assert len(lines) == 5

    def test_unknown_candidate(self):
        r = run("tables", "--candidate", "(9,2)")
        assert r.returncode == 2

    def test_prec_changes_no_verdict(self, capsys):
        # detH is read at max(prec, 128) bits, so 64 bits prints the bytes of 256 bits;
        # verdicts, signatures and flags do not depend on --prec
        def table(prec, *rows):
            argv = ["tables", *(rows or ("--candidate", "all", "--p-max", "20")), "--format", "json",
                    "--prec", str(prec)]
            assert chtri.cli.main(argv) == 0
            return capsys.readouterr().out

        at_256 = table(256)
        assert table(64) == at_256
        # a row whose det evaluated at 64 bits would print differently
        row = ("--candidate", "(4,4)", "--p-min", "70", "--p-max", "70")
        assert table(64, *row) == table(256, *row)
        keep = ("candidate", "p", "verdict", "signature", "claimed", "flags")
        want = [{k: r[k] for k in keep} for r in json.loads(at_256)]
        assert len(want) == 190 and any(r["flags"] for r in want)
        for prec in (128, 512):
            assert [{k: r[k] for k in keep} for r in json.loads(table(prec))] == want, prec


class TestIdentities:
    def test_pass(self):
        r = run("identities", "--suite", "cosine-sums", "--trials", "5", "--seed", "1")
        assert r.returncode == 0
        summary = json.loads(r.stdout.strip().splitlines()[-1])
        assert summary["failed"] == 0

    def test_seeded_deterministic(self):
        a = run("identities", "--suite", "trace-table", "--trials", "5", "--seed", "7")
        b = run("identities", "--suite", "trace-table", "--trials", "5", "--seed", "7")
        assert a.stdout == b.stdout

    def test_matches_the_golden_output(self):
        # every suite, including the parametric rows and their draws from the seeded RNG
        golden = pathlib.Path(__file__).parent / "data" / "identities_t3_s5.jsonl"
        r = run("identities", "--trials", "3", "--seed", "5")
        assert r.returncode == 0
        assert r.stdout == golden.read_text()

    def test_matches_the_forty_trial_golden_output(self, capsys):
        golden = pathlib.Path(__file__).parent / "data" / "identities_t40_s11.jsonl"
        assert chtri.cli.main(["identities", "--trials", "40", "--seed", "11"]) == 0
        assert capsys.readouterr().out == golden.read_text()

    def test_a_false_identity_fails(self, monkeypatch, capsys):
        # cos(pi/3) = 1/2; with the target 1/3 the residual is 1/6, which the zero test must reject
        terms, _, parametric = chtri.cosearch._COSINE_SUMS["d"]
        monkeypatch.setitem(chtri.cosearch._COSINE_SUMS, "d", (terms, Fraction(1, 3), parametric))
        code = chtri.cli.main(["identities", "--suite", "cosine-sums", "--trials", "2", "--seed", "0"])
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert code == 1
        assert [l["check"] for l in lines if l.get("pass") is False] == ["cosine-sums:d"]
        assert lines[-1] == {"summary": True, "checks": len(lines) - 1, "failed": 1}


class TestClassify:
    def test_classify_word(self):
        r = run("classify", "--word", "1 2", "--p", "4", "--n", "4", "--m", "3")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["type"] == "regular-elliptic"
        assert doc["projective_order"] == 12

    @pytest.mark.parametrize("p,n,m,prec,order", [("5", "3", "4", "53", 5), ("3", "5", "6", "64", 3)])
    def test_low_precision_reads_a_looser_tolerance(self, p, n, m, prec, order, capsys):
        # R1 is a complex reflection of order p, of the candidate (3,4) converted to floats or of the float
        # group (5,6).  At 53 and 64 bits R1^p is w*I within about 1e-14 and 1e-19: above a fixed 1e-30,
        # below tolerance(prec) = 2^-(prec // 2)
        assert chtri.cli.main(["classify", "--word", "1", "--p", p, "--n", n, "--m", m, "--prec", prec]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["type"] == "boundary"
        assert doc["projective_order"] == order

    def test_bad_word(self):
        r = run("classify", "--word", "1 x", "--p", "4", "--n", "4", "--m", "3")
        assert r.returncode == 2
        r = run("classify", "--word", "4", "--p", "4", "--n", "4", "--m", "3")
        assert r.returncode == 2


class TestConfig:
    def test_low_precision_rejected(self):
        r = run("build", "--p", "4", "--n", "4", "--m", "3", "--prec", "10")
        assert r.returncode == 2

    def test_env_precision(self):
        r = run("build", "--p", "4", "--n", "4", "--m", "3", env={"CHTG_PREC": "128"})
        assert r.returncode == 0

    def test_missing_subcommand(self):
        r = run()
        assert r.returncode == 2

    def test_bad_env_precision_rejected(self):
        r = run("build", "--p", "4", "--n", "4", "--m", "3", env={"CHTG_PREC": "high"})
        assert r.returncode == 2
        assert "CHTG_PREC" in r.stderr and len(r.stderr.strip().splitlines()) == 1

    def test_env_precision_is_read_on_each_call(self, monkeypatch, capsys):
        argv = ["build", "--p", "4", "--n", "4", "--m", "3"]
        monkeypatch.setenv("CHTG_PREC", "high")
        assert chtri.cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "CHTG_PREC" in err and len(err.strip().splitlines()) == 1
        monkeypatch.setenv("CHTG_PREC", "40")
        assert chtri.cli.main(argv) == 2
        assert "precision must be >= 53 bits" in capsys.readouterr().err
        monkeypatch.setenv("CHTG_PREC", "64")
        assert chtri.cli.main(argv) == 0
        at_64 = capsys.readouterr().out
        monkeypatch.delenv("CHTG_PREC")
        assert chtri.cli.main(argv) == 0
        assert capsys.readouterr().out != at_64  # 256 bits print more correct digits
        monkeypatch.setenv("CHTG_PREC", "high")
        assert chtri.cli.main([*argv, "--prec", "128"]) == 0  # an explicit --prec wins

    @pytest.mark.parametrize("command,option,value", [
        ("build", "--tol", "30"), ("build", "--format", "json"),
        ("verify", "--tol", "30"), ("verify", "--format", "json"),
        ("classify", "--tol", "30"), ("classify", "--format", "json"),
        ("search", "--prec", "256"), ("search", "--tol", "30"),
        ("tables", "--tol", "30"),
        ("identities", "--prec", "256"), ("identities", "--tol", "30"),
        ("identities", "--format", "json"), ("verify", "--max-braid", "24"),
    ])
    def test_unread_option_rejected(self, command, option, value, capsys):
        needed = {
            "build": ["--p", "4", "--n", "4", "--m", "3"],
            "verify": ["--p", "4", "--n", "4", "--m", "3"],
            "classify": ["--p", "4", "--n", "4", "--m", "3", "--word", "1"],
        }.get(command, [])
        with pytest.raises(SystemExit) as exc:
            chtri.cli.main([command, *needed, option, value])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--den-max", "0"), ("--n-max", "2"), ("--m-max", "2"),
    ])
    def test_search_bounds_rejected(self, flag, value):
        args = {"--den-max": "4", "--n-max": "6", "--m-max": "6", flag: value}
        r = run("search", *(x for kv in args.items() for x in kv))
        assert r.returncode == 2
        assert len(r.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["identities", "--suite", "factorization", "--trials", "-3"],
    ], ids=["trials"])
    def test_bad_count_rejected(self, argv):
        r = run(*argv)
        assert r.returncode == 2 and r.stdout == ""
        assert len(r.stderr.strip().splitlines()) == 1
