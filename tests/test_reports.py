import csv
import dataclasses
import json
import pathlib

import mpmath
import pytest

from chtri import candidates, cli, reports, trigroup
from chtri.exact import Laurent, angle
from chtri.reports import (
    build_candidate,
    detH_closed_form,
    parse_candidate,
    scan_to_csv,
    scan_to_json,
    scan_to_text,
    signature_scan,
    parameter_table,
)

DATA = pathlib.Path(__file__).parent / "data"


class TestParsing:
    def test_parse(self):
        assert parse_candidate("(3,4)") == (3, 4, 1)
        assert parse_candidate("(3,5)-") == (3, 5, -1)
        assert parse_candidate("(7,7)") == (7, 7, 1)

    def test_unknown(self):
        for bad in ("(3,6)", "nope", "(2,2)"):
            with pytest.raises(ValueError):
                parse_candidate(bad)

    def test_build(self):
        g = build_candidate("(4,3)", 4)
        assert g.exact and g.params.p == 4


def claimed_verdict(cid: str, p: int):
    """The verdict recorded for `cid` at p, which `signature_scan` reports as `claimed`."""
    return candidates.claim(cid).verdict(p)


class TestClaims:
    def test_patterns(self):
        assert claimed_verdict("(3,3)", 2) == "(3,0)"
        assert claimed_verdict("(3,3)", 3) == "degenerate"
        assert claimed_verdict("(3,3)", 7) == "(2,1)"
        assert claimed_verdict("(3,3)-", 6) == "degenerate"
        assert claimed_verdict("(3,3)-", 9) == "(3,0)"
        assert claimed_verdict("(4,4)", 2) == "degenerate"
        assert claimed_verdict("(5,5)", 2) == "(2,1)"
        assert claimed_verdict("(3,5)-", 7) == "(2,1)"
        assert claimed_verdict("(3,5)-", 8) == "(3,0)"
        assert claimed_verdict("(8,6)", 2) == "(3,0)"
        assert claimed_verdict("(5,4)-", 4) is None


class TestSignatureScan:
    @pytest.mark.parametrize("table,cids", [
        ("table1.csv", ["(3,3)", "(4,4)", "(5,5)"]),
        ("table2.csv", ["(3,3)", "(3,3)-"]),
        ("table3.csv", ["(3,5)", "(3,5)-"]),
    ])
    def test_golden_tables(self, table, cids):
        reps = [signature_scan(c, 2, 10) for c in cids]
        got = scan_to_csv(reps)
        assert got == (DATA / table).read_text()

    def test_tables_match_claims(self):
        # tabulated verdict patterns reproduce with zero mismatches
        for cid in ("(3,3)", "(3,3)-", "(3,5)", "(3,5)-", "(4,4)", "(5,5)", "(4,3)", "(5,4)"):
            rep = signature_scan(cid, 2, 12)
            assert rep.mismatches == (), cid

    def test_known_discrepancies(self):
        # the recorded claims fail exactly at these points; the exact
        # determinant is authoritative and the rows carry flags
        rep34 = signature_scan("(3,4)", 2, 12)
        assert {r.p for r in rep34.mismatches} == {3, 4}
        rep86 = signature_scan("(8,6)", 2, 12)
        assert {r.p for r in rep86.mismatches} == {2}
        assert rep86.rows[0].verdict == "degenerate"

    def test_indefinite_flag(self):
        # det > 0 can hide signature (1,2); those rows are flagged
        rep = signature_scan("(3,3)-", 2, 10)
        flagged = {r.p for r in rep.rows if r.signature == "(1,2)"}
        assert flagged == {7, 8, 9, 10}
        for r in rep.rows:
            if r.p in flagged:
                assert r.flags

    def test_degenerate_detection_exact(self):
        for cid, degenerate_ps in [("(3,3)", {3}), ("(3,3)-", {6}), ("(4,4)", {2}),
                                   ("(4,3)", {3}), ("(8,6)", {2}), ("(5,5)", set())]:
            rep = signature_scan(cid, 2, 10)
            got = {r.p for r in rep.rows if r.verdict == "degenerate"}
            assert got == degenerate_ps, cid

    @pytest.mark.parametrize("cid", candidates.ALL_IDS)
    def test_verdict_is_the_exact_det_sign(self, cid):
        # oracle: the sign of the exact det(H), which the scan no longer computes
        for r in signature_scan(cid, 2, 20).rows:
            det = build_candidate(cid, r.p).H.det()
            want = "degenerate" if det.is_zero() else ("(2,1)" if det.real_sign() < 0 else "(3,0)")
            assert r.verdict == want, (cid, r.p)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            signature_scan("(3,3)", 5, 4)

    # (candidate, p, invariant) of each invariant whose sign the doubles cannot decide, in scan order:
    # tr H is decided in doubles on every row, c1 and det H only where they are not 0
    EXACT_ROWS = [("(3,3)", 3, "det"), ("(3,3)", 6, "c1"), ("(3,3)-", 6, "c1"), ("(3,3)-", 6, "det"),
                  ("(4,3)", 3, "det"), ("(8,6)", 2, "det"), ("(4,4)", 2, "det"), ("(4,4)", 4, "c1")]

    @staticmethod
    def _spy_exact_rows(monkeypatch):
        # the (candidate, p, invariant) of every exact evaluation of an invariant, at t = zeta_{6p}, in call order
        owner = {id(x): (cid, name) for cid in candidates.ALL_IDS
                 for name, x in zip(("tr", "c1", "det"), trigroup.form_invariants(*parse_candidate(cid)))}
        rows, at = [], Laurent.at

        def spy(x, n):
            cid, name = owner[id(x)]
            rows.append((cid, n // 6, name))
            return at(x, n)

        monkeypatch.setattr(Laurent, "at", spy)
        return rows

    def test_long_scan_golden_and_exact_fallback_rows(self, capsys, monkeypatch):
        # the whole p <= 60 scan byte for byte, and each invariant whose sign needed its exact value
        # at p, evaluated once: a slide back to the exact path, or a repeated exact evaluation, shows
        # up as a work count
        rows = self._spy_exact_rows(monkeypatch)
        assert cli.main(["tables", "--candidate", "all", "--p-min", "2", "--p-max", "60", "--format", "csv"]) == 0
        assert capsys.readouterr().out == (DATA / "scan_all_p2_60.csv").read_text()
        assert rows == self.EXACT_ROWS

    def test_the_t_powers_are_those_of_det_h(self, monkeypatch):
        # float_det reads t^k only for the exponents of det H, +-3 and +-9: 4 expjpi calls per p of a scan,
        # shared by every candidate, where t^0 and t^+-6 as well took 7
        for cid in candidates.ALL_IDS:
            signature_scan(cid, 2, 12)  # the det terms and their powers of zeta_N, cached
        reports._t_powers.cache_clear()
        calls, expjpi = [], mpmath.expjpi
        monkeypatch.setattr(mpmath, "expjpi", lambda x: calls.append(x) or expjpi(x))
        for cid in candidates.ALL_IDS:
            signature_scan(cid, 2, 12)
        assert len(calls) == 4 * 11

    def test_every_printed_det_digit_is_correct(self):
        # each nonzero detH of the p <= 60 scan agrees to 29 significant digits with the exact
        # det of the matrix H built at p, evaluated at 512 bits
        rows = list(csv.DictReader((DATA / "scan_all_p2_60.csv").read_text().splitlines()))
        params = {cid: trigroup.symmetric_params(*parse_candidate(cid)) for cid in candidates.ALL_IDS}
        checked = 0
        with mpmath.workprec(512):
            for row in rows:
                if row["detH"] == "0":
                    continue
                rho, sigma = params[row["candidate"]]
                want = trigroup.build_group(int(row["p"]), rho, sigma, sigma).H.det().to_mpc(512).real
                unit = mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(abs(want))) - 28)
                assert abs(mpmath.mpf(row["detH"]) - want) < unit, row
                checked += 1
        assert checked == 590 - 5  # the five degenerate rows print an exact 0

    def test_scan_builds_no_group_and_evaluates_once_per_row(self, capsys, monkeypatch):
        # work counts of `tables --candidate all` for p = 2..60 (590 rows): no group is built at p,
        # one generic H gives the invariants of each candidate, their sign terms and det coefficients,
        # each invariant's sign is asked once per row, only the 8 EXACT_ROWS invariants are evaluated
        # exactly, and the printed det is evaluated once per row but the 5 degenerate ones
        builds = []
        for mod, name in ((trigroup, "build_symmetric"), (reports, "build_symmetric"),
                          (reports, "build_candidate")):
            def spy(*a, f=getattr(mod, name), name=name, **k):
                builds.append(name)
                return f(*a, **k)
            monkeypatch.setattr(mod, name, spy)
        trigroup.generic_group.cache_clear()
        trigroup.form_invariants.cache_clear()
        trigroup._sign_terms.cache_clear()
        reports._det_terms.cache_clear()
        dets, float_det = [], reports.float_det
        monkeypatch.setattr(reports, "float_det", lambda *a: dets.append(a) or float_det(*a))
        signs, cos_sign = [], trigroup.cos_sign
        monkeypatch.setattr(trigroup, "cos_sign", lambda *a, **k: signs.append(1) or cos_sign(*a, **k))
        rows = self._spy_exact_rows(monkeypatch)
        assert cli.main(["tables", "--candidate", "all", "--p-min", "2", "--p-max", "60", "--format", "csv"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 590
        assert builds == []
        assert trigroup.form_invariants.cache_info().misses == 10
        assert trigroup._sign_terms.cache_info().misses == 10
        assert reports._det_terms.cache_info().misses == 10
        assert len(dets) == 590 - 5
        assert len(signs) == 10 + 3 * 590  # parameter_feasible once per generic group, then 3 per row
        assert rows == self.EXACT_ROWS


class TestClosedForms:
    MATCHING = ["(4,3)", "(3,3)", "(3,3)-", "(3,5)", "(3,5)-", "(5,5)", "(6,6)"]

    @pytest.mark.parametrize("cid", MATCHING)
    def test_matching_forms(self, cid):
        for p in range(2, 21):
            cmp = detH_closed_form(cid, p)
            assert cmp.matches, (cid, p, cmp.difference)
            assert cmp.difference <= mpmath.mpf("1e-40")

    @pytest.mark.parametrize("cid", ["(3,4)", "(8,6)"])
    def test_mismatching_forms_flagged(self, cid):
        results = [detH_closed_form(cid, p) for p in range(2, 21)]
        assert any(not c.matches for c in results)
        # the exact matrix determinant backs the computed verdicts
        for c in results:
            rep = signature_scan(cid, c.p, c.p)
            row = rep.rows[0]
            if row.verdict == "(2,1)":
                assert c.matrix_value < 0

    def test_no_form_registered(self):
        with pytest.raises(KeyError):
            detH_closed_form("(5,4)", 2)

    def test_formula_strings(self):
        assert "sin" in detH_closed_form("(4,3)", 2).formula


class TestParameterTable:
    def test_all_rows_validated(self):
        for k in range(3, 13):
            rows = parameter_table(k)
            assert len(rows) == 6
            assert all(r.validated for r in rows)

    def test_conjugate_angles_not_validated(self, monkeypatch):
        # (-2pi/7, -4pi/7) gives conj(rho) = (1 - i sqrt(7))/2, which has the
        # right modulus and real part but is not the published rho
        conj = dataclasses.replace(candidates.SPORADIC[(3, 4)], a=angle(-2, 7), b=angle(-4, 7))
        monkeypatch.setitem(candidates.SPORADIC, (3, 4), conj)
        rows = {r.candidate: r for r in parameter_table(6)}
        assert not rows["(3,4)"].validated
        assert all(r.validated for cid, r in rows.items() if cid != "(3,4)")

    def test_row_dict(self):
        rows = parameter_table(6)
        d = rows[0].to_dict()
        assert d["candidate"] == "(3,4)"
        assert set(d["rho"]) == {"re", "im"}
        # rho = (1 + i sqrt(7))/2
        assert abs(float(d["rho"]["re"]) - 0.5) < 1e-12
        assert abs(float(d["rho"]["im"]) - 7 ** 0.5 / 2) < 1e-12

    def test_exact_zero_and_reals_print_no_imaginary_noise(self):
        # (4,3): rho = 1, so s = rho - 1 = 0 exactly, and sigma = sqrt(2) is real
        d = {r.candidate: r for r in parameter_table(6)}["(4,3)"].to_dict()
        assert d["s"] == {"re": "0.0", "im": "0.0"}
        assert d["rho"] == {"re": "1.0", "im": "0.0"}
        assert d["sigma"] == {"re": "1.41421356237309504880168872421", "im": "0.0"}
        for r in parameter_table(6):
            assert (r.to_dict()["sigma"]["im"] == "0.0") == r.sigma.is_real(), r.candidate

    def test_sigma_values(self):
        rows = {r.candidate: r for r in parameter_table(6)}
        with mpmath.workprec(120):
            # (8,6): sigma = sqrt(2 + sqrt(2))
            v = rows["(8,6)"].sigma.to_mpc(120)
            assert abs(v - mpmath.sqrt(2 + mpmath.sqrt(2))) < 1e-30
            # (5,4): sigma = (1 + sqrt(5))/2
            v = rows["(5,4)"].sigma.to_mpc(120)
            assert abs(v - (1 + mpmath.sqrt(5)) / 2) < 1e-30


class TestEmitters:
    def test_csv_header(self):
        rep = signature_scan("(4,3)", 2, 4)
        text = scan_to_csv([rep])
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["candidate", "p", "detH", "verdict"]
        assert rows[2] == ["(4,3)", "3", "0", "degenerate"]

    def test_json_fields(self):
        rep = signature_scan("(8,6)", 2, 3)
        doc = json.loads(scan_to_json([rep]))
        assert doc[0]["claimed"] == "(3,0)"
        assert doc[0]["verdict"] == "degenerate"
        assert doc[0]["flags"]

    def test_text(self):
        rep = signature_scan("(4,3)", 2, 4)
        text = scan_to_text([rep])
        assert "degenerate" in text and "candidate" in text
