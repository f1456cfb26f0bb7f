"""End-to-end acceptance suite.

Each test exercises one acceptance criterion and prints a single
``ACCEPTANCE n: PASS/FAIL`` line (run pytest with ``-s`` or check the
captured output).  Criteria cover: the exhaustive (n, m) search, the
parameter table, the symmetry/braid/eigenvalue suites, the signature
tables, the identity suites, word identities, closed-form determinants,
and the randomized property grids.
"""
import functools
import operator
import random
import time

import mpmath
import pytest

from chtri.candidates import entry
from chtri.exact import Cyclo, angle, root_of_unity
from chtri.linalg import Mat3, hermitian_signature, projective_equal
from chtri.cosearch import orbit, search, trace_s
from chtri.reports import detH_closed_form, signature_scan, parameter_table
from chtri.trigroup import (
    braid_length,
    build_symmetric,
    candidate_s,
    evaluate_word,
    lemma_eigenvalues_residual,
    verify,
    verify_symmetry,
)
from test_trigroup import braid_pairs, product_braid_length

TOL30 = mpmath.mpf("1e-30")
SPORADICS = [(3, 4), (3, 5), (4, 3), (5, 4), (8, 6)]
DIAGONALS = [(k, k) for k in range(3, 7)]
CANDIDATES = SPORADICS + DIAGONALS


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} {detail}".rstrip())
    assert ok, f"acceptance criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def full_search():
    t0 = time.time()
    res = search(den_max=90, n_max=12, m_max=12)
    return res, time.time() - t0


def test_acceptance_1_classification(full_search):
    res, elapsed = full_search
    confirmed = {(c.n, c.m) for c in res if c.exact_confirmed}
    expected = {(k, k) for k in range(3, 13)} | set(SPORADICS)
    ok = confirmed == expected and all(c.exact_confirmed for c in res) and elapsed < 600
    report(1, ok, f"{len(res)} candidates in {elapsed:.1f}s")


def test_acceptance_2_parameter_table(full_search):
    res, _ = full_search
    ok = True
    for k in range(3, 13):
        rows = parameter_table(k)
        ok &= len(rows) == 6 and all(r.validated for r in rows)
    # search-recovered (a, b) reproduce s up to conjugation and a cube root
    # of unity factor
    for c in res:
        s_ref = candidate_s(c.n, c.m)
        allowed = []
        for j in range(3):
            w = Cyclo.root(3, j)
            allowed.extend([s_ref * w, s_ref.conj() * w])
        s_got = trace_s(c.a, c.b)
        ok &= any((s_got - t).is_zero() for t in allowed)
    report(2, ok)


def test_acceptance_3_symmetry_suite():
    ok = True
    worst = mpmath.mpf(0)
    for n, m in CANDIDATES:
        for p in range(2, 10):
            g = build_symmetric(p, n, m)
            # exact identities in t, so residual "0"; the float residuals of the same relations as a cross-check
            exact = [c for c in verify(g) if c.name.startswith("symmetry:")]
            ok &= len(exact) == 9 and all(c.passed and c.details == {"residual": "0"} for c in exact)
            residuals = verify_symmetry(g).values()
            worst = max(worst, max(residuals))
            ok &= all(r <= TOL30 for r in residuals)
    report(3, ok, f"max residual {mpmath.nstr(worst, 3)}")


def test_acceptance_4_braid_suite():
    # the lengths `verify` reads from |x| = 2cos(pi/l), against the alternating products of the float group
    ok = True
    checked = 0
    for n, m in CANDIDATES:
        for p in range(2, 10):
            g = build_symmetric(p, n, m)
            if hermitian_signature(g.H).verdict != "(2,1)":
                continue
            checked += 1
            with mpmath.workprec(256):
                pairs = braid_pairs(g.to_float(256))
                got = tuple(product_braid_length(*ab) for ab, _ in pairs)
                rule = tuple(braid_length(x, 24) for _, x in braid_pairs(g))
            ok &= got == rule == (n, n, m, m)
    report(4, ok, f"{checked} groups with signature (2,1)")


def test_acceptance_5_eigenvalue_suite():
    ok = True
    worst = mpmath.mpf(0)
    for n, m in CANDIDATES:
        for p in range(2, 10):
            g = build_symmetric(p, n, m)
            res = lemma_eigenvalues_residual(g)
            worst = max(worst, res)
            ok &= res <= TOL30
    report(5, ok, f"max residual {mpmath.nstr(worst, 3)}")


def test_acceptance_6_signature_tables():
    ok = True
    # tabulated rows: zero mismatches
    for cid in ("(3,3)", "(4,4)", "(5,5)", "(3,3)-", "(3,5)", "(3,5)-",
                "(4,3)", "(5,4)"):
        rep = signature_scan(cid, 2, 12)
        ok &= rep.mismatches == ()
    # degenerate p values detected exactly
    for cid, ps in [("(3,3)", {3}), ("(3,3)-", {6}), ("(4,4)", {2}),
                    ("(4,3)", {3})]:
        rep = signature_scan(cid, 2, 12)
        ok &= {r.p for r in rep.rows if r.verdict == "degenerate"} == ps
    # the (8,6) exact determinant supports (2,1) for p >= 3; its claimed
    # p=2 verdict and the (3,4) small-p claims mismatch and are reported
    rep86 = signature_scan("(8,6)", 2, 12)
    ok &= all(r.verdict == "(2,1)" for r in rep86.rows if r.p >= 3)
    ok &= {r.p for r in rep86.mismatches} == {2} and bool(rep86.rows[0].flags)
    rep34 = signature_scan("(3,4)", 2, 12)
    ok &= {r.p for r in rep34.mismatches} == {3, 4}
    ok &= all(r.flags for r in rep34.mismatches)
    report(6, ok, "known discrepancies flagged: (3,4) p in {3,4}; (8,6) p=2")


def test_acceptance_7_identity_suites():
    from chtri.cosearch import (
        COSINE_SUM_LABELS,
        TRACE_TABLE_LABELS,
        cosine_sum_residual,
        trace_table_residual,
    )

    rng = random.Random(2024)
    ok = len(COSINE_SUM_LABELS) == 15 and len(TRACE_TABLE_LABELS) == 13
    for lab in COSINE_SUM_LABELS:
        if lab in ("a", "b", "c"):
            for _ in range(100):
                den = rng.randint(1, 60)
                phi = angle(rng.randint(0, 2 * den - 1), den)
                ok &= cosine_sum_residual(lab, phi).is_zero()
        else:
            ok &= cosine_sum_residual(lab).is_zero()
    for lab in TRACE_TABLE_LABELS:
        if lab in ("i", "ii"):
            for _ in range(100):
                den = rng.randint(1, 60)
                psi = angle(rng.randint(0, 2 * den - 1), den)
                ok &= trace_table_residual(lab, psi).is_zero()
        else:
            ok &= trace_table_residual(lab).is_zero()
    report(7, ok)


def test_acceptance_8_word_identity():
    ok = True
    checked = 0
    for n, m in CANDIDATES:
        if m != 4:
            continue  # br(R1, R2) = m
        for p in range(2, 10):
            g = build_symmetric(p, n, m).to_float(256)
            checked += 1
            lhs = evaluate_word(g, [-2, 1, 2, 1, 2, -1])
            rhs = evaluate_word(g, [1, 2])
            ok &= projective_equal(lhs, rhs, 256)
    report(8, ok, f"{checked} groups with br(R1,R2)=4")


def test_acceptance_9_closed_forms():
    ok = True
    for cid in ("(4,3)", "(3,3)", "(3,3)-", "(3,4)", "(3,5)", "(3,5)-"):
        mismatch_ps = []
        for p in range(2, 21):
            cmp = detH_closed_form(cid, p)
            if not cmp.matches:
                mismatch_ps.append(p)
        if cid == "(3,4)":
            # recorded form disagrees with the exact determinant; flagged,
            # with the exact matrix determinant authoritative
            ok &= bool(mismatch_ps)
        else:
            ok &= not mismatch_ps
    report(9, ok, "closed forms verified; (3,4) recorded form flagged")


def test_acceptance_10_property_suites():
    t0 = time.time()
    rng = random.Random(99)
    ok = True
    u_cubed_bar = root_of_unity(angle(2, 3)).conj()
    for _ in range(12):
        n, m = rng.choice(CANDIDATES)
        p = rng.randint(2, 7)
        g = build_symmetric(p, n, m)
        for r in g.generators():
            ok &= (r.det() - 1).is_zero()
            ok &= (r.adjoint() * g.H * r - g.H).is_zero_exact()
            rp = functools.reduce(operator.mul, [r] * p)
            target = Mat3([[u_cubed_bar if i == j else Cyclo.zero()
                            for j in range(3)] for i in range(3)])
            ok &= (rp - target).is_zero_exact()
        # Sylvester invariance of the signature under congruence
        base = hermitian_signature(g.H).verdict
        a = Mat3([[rng.randint(-2, 2) + Cyclo.i() * rng.randint(-1, 1)
                   for _ in range(3)] for _ in range(3)])
        if not a.det().is_zero():
            ok &= hermitian_signature(a.adjoint() * g.H * a).verdict == base
    # orbit invariance: |s| and the main-equation residual are orbit stable
    for _ in range(10):
        n, m = rng.choice(CANDIDATES)
        a, b = entry(n, m).a, entry(n, m).b
        s_abs = trace_s(a, b).abs2()
        members = rng.sample(sorted(orbit(a, b)), 6)
        for x, y in members:
            sx = trace_s(x, y)
            ok &= (sx.abs2() - s_abs).is_zero()
    elapsed = time.time() - t0
    ok &= elapsed < 120
    report(10, ok, f"{elapsed:.1f}s")
