"""The benchmark's workloads: the CLI calls each one makes and the checks on their output.

A workload is a list of `chtri.cli.main` argument vectors, run one after the
other in one fresh interpreter (one caller, closed loop).  Its check reads
what the calls printed, and for `scan-p40` also the scan reports the program
returned, and counts operations attempted and failed.  An operation is an
orbit (search), a table row (scan), a verify case or an identity check; a
failing operation is always counted, never dropped.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data"

# The ten ids that `tables --candidate all` scans, in the CLI's order.
CANDIDATES = ("(3,3)", "(3,3)-", "(3,4)", "(3,5)", "(3,5)-", "(4,3)", "(5,4)", "(8,6)", "(4,4)", "(5,5)")

# (n, m) pairs whose orbits the search must confirm, and nothing else.
EXPECTED_ORBITS = frozenset({(k, k) for k in range(3, 13)} | {(3, 4), (3, 5), (4, 3), (5, 4), (8, 6)})

# Golden signature tables (p = 2..10), compared row by row with the scan.
GOLDEN_TABLES = ("table1.csv", "table2.csv", "table3.csv")

_INDEFINITE = "det-sign verdict (3,0) but exact signature (1,2)"
# The recorded discrepancies: (candidate, first p, last p or None for "and
# beyond", flags).  They must stay flagged exactly; every other row must
# carry no flag.
RECORDED_FLAGS = (
    ("(3,4)", 3, 4, ("claimed (3,0), computed (2,1)",)),
    ("(8,6)", 2, 2, ("claimed (3,0), computed degenerate",)),
    ("(3,3)-", 7, None, (_INDEFINITE,)),
    ("(3,5)-", 8, None, (_INDEFINITE,)),
)

# Sizes: "full" is the benchmark, "smoke" is the quick self-test.
SIZES = {
    "full": {"den_max": 150, "p_max": 40, "verify_p": range(2, 21), "verify_ids": CANDIDATES, "trials": 300},
    "smoke": {"den_max": 30, "p_max": 5, "verify_p": range(4, 5), "verify_ids": ("(3,3)", "(5,4)"), "trials": 10},
}


@dataclass
class Call:
    """One `cli.main` call: its arguments, exit code, standard output and time."""

    argv: list
    code: int
    out: str
    seconds: float


@dataclass
class Outcome:
    """Operations attempted, and the first problem of each one that failed."""

    attempted: int = 0
    failing: dict = field(default_factory=dict)

    def fail(self, op, problem: str) -> None:
        self.failing.setdefault(op, problem)

    @property
    def failed(self) -> int:
        return len(self.failing)


@dataclass(frozen=True)
class Workload:
    name: str
    argvs: list
    check: Callable
    # dotted "module.function" in chtri whose return values the check reads
    capture: Optional[str] = None


def expected_flags(cid: str, p: int) -> tuple:
    for rec_cid, lo, hi, flags in RECORDED_FLAGS:
        if cid == rec_cid and lo <= p and (hi is None or p <= hi):
            return flags
    return ()


def _parse_candidate(cid: str) -> tuple:
    n, m = cid.strip("()-").split(",")
    return int(n), int(m), -1 if cid.endswith("-") else 1


# ---------------------------------------------------------------------------
# Checks


def _check_search(calls: list, captured: list) -> Outcome:
    (call,) = calls
    out = Outcome(attempted=len(EXPECTED_ORBITS))
    if call.code != 0:
        for nm in EXPECTED_ORBITS:
            out.fail(nm, f"search exited {call.code}")
        return out
    cands = json.loads(call.out)
    confirmed = {(c["n"], c["m"]) for c in cands if c["exact_confirmed"]}
    out.attempted = len(EXPECTED_ORBITS | confirmed)
    for nm in EXPECTED_ORBITS - confirmed:
        out.fail(nm, f"orbit {nm} not confirmed")
    for nm in confirmed - EXPECTED_ORBITS:
        out.fail(nm, f"unexpected orbit {nm} confirmed")
    return out


def _row_key(line: str) -> tuple:
    cid, p = next(csv.reader([line]))[:2]
    return cid, int(p)


def _check_scan(p_max: int) -> Callable:
    expected = [(cid, p) for cid in CANDIDATES for p in range(2, p_max + 1)]

    def check(calls: list, captured: list) -> Outcome:
        (call,) = calls
        out = Outcome(attempted=len(expected))
        if call.code != 0:
            for key in expected:
                out.fail(key, f"tables exited {call.code}")
            return out
        header, *rows = call.out.splitlines(keepends=True)
        by_key = {_row_key(line): line for line in rows}
        flags = {(r.candidate, r.p): r.flags for rep in captured for r in rep.rows}
        out.attempted = len(set(expected) | set(by_key))
        for key in set(by_key) - set(expected):
            out.fail(key, f"unexpected row {key}")
        for key in expected:
            if key not in by_key or key not in flags:
                out.fail(key, f"row {key} missing")
            elif flags[key] != expected_flags(*key):
                out.fail(key, f"row {key} flags {flags[key]!r}, recorded {expected_flags(*key)!r}")
        for table in GOLDEN_TABLES:
            golden_header, *golden = (GOLDEN / table).read_text().splitlines(keepends=True)
            if header != golden_header:
                out.fail("header", f"header {header!r} differs from {table}")
            for line in golden:
                key = _row_key(line)
                if key in by_key and by_key[key] != line:
                    out.fail(key, f"row {by_key[key]!r} differs from {table}: {line!r}")
        return out

    return check


def _check_verify(calls: list, captured: list) -> Outcome:
    out = Outcome(attempted=len(calls))
    for i, call in enumerate(calls):
        summary = json.loads(call.out.splitlines()[-1]) if call.out.strip() else {}
        if call.code != 0 or summary.get("passed") != summary.get("checks"):
            out.fail(i, f"{' '.join(call.argv)}: exit {call.code}, summary {summary}")
    return out


def _check_identities(trials: int) -> Callable:
    # 3 parametric cosine sums, 2 parametric trace rows, 1 factorization and
    # 3 half-angle residuals per trial, plus 12 + 11 fixed identities.
    expected = 9 * trials + 23

    def check(calls: list, captured: list) -> Outcome:
        (call,) = calls
        records = [json.loads(line) for line in call.out.splitlines()]
        checks = [r for r in records if "check" in r]
        out = Outcome(attempted=max(expected, len(checks)))
        for i, r in enumerate(checks):
            if not r["pass"]:
                out.fail(i, f"identity {r['check']} failed")
        for i in range(len(checks), expected):
            out.fail(i, f"identity check {i} missing")
        summary = records[-1] if records else {}
        if not out.failed and (call.code != 0 or summary.get("failed") != 0):
            out.fail("exit", f"identities exited {call.code}, summary {summary}")
        return out

    return check


# ---------------------------------------------------------------------------


def make(name: str, size: str, seed: int) -> Workload:
    """The workload `name` at `size`; only identities-t300 depends on `seed`."""
    s = SIZES[size]
    if name == "search-den150":
        argv = ["search", "--den-max", str(s["den_max"]), "--n-max", "12", "--m-max", "12"]
        return Workload(name, [argv], _check_search)
    if name == "scan-p40":
        argv = ["tables", "--candidate", "all", "--p-min", "2", "--p-max", str(s["p_max"]), "--format", "csv"]
        return Workload(name, [argv], _check_scan(s["p_max"]), capture="reports.signature_scan")
    if name == "verify-grid":
        argvs = []
        for cid in s["verify_ids"]:
            n, m, sign = _parse_candidate(cid)
            for p in s["verify_p"]:
                argvs.append(["verify", "--p", str(p), "--n", str(n), "--m", str(m), "--im-sign", str(sign)])
        return Workload(name, argvs, _check_verify)
    if name == "identities-t300":
        argv = ["identities", "--suite", "all", "--trials", str(s["trials"]), "--seed", str(seed)]
        return Workload(name, [argv], _check_identities(s["trials"]))
    raise KeyError(f"unknown workload {name!r}")


# Why each workload is in the benchmark; the same text is its "why" in BENCHMARK.json.
WHY = {
    "search-den150": "numpy prefilter over 94M angle pairs dominates; exact core under 1%, so exact or linalg changes should not move it",
    "scan-p40": "exact path: large conductors, canonical reduction, real_sign precision doublings and exact signatures, growing with p",
    "verify-grid": "float linalg (Mat3 products, projective residuals, to_mpc) and trigroup relation, braid and eigenvalue checks over 190 cases",
    "identities-t300": "exact layer with many small distinct conductors (Phi_N cache misses) and zero tests without sign certification",
}
NAMES = tuple(WHY)
