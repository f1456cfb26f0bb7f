"""Signature tables, closed-form determinants, and the candidate parameter table.

Every candidate group carries a Hermitian form H whose signature decides
whether the group acts on complex hyperbolic space.  This module scans
det(H) and the signature over ranges of the reflection order p,
cross-checks the claimed closed-form determinant expressions against the
matrix determinant, and reproduces the parameter table of the
classification.

The source of truth is `trigroup.form_invariants`: (tr H, c1, det H) of
the generic H of a candidate, as Laurent polynomials in t = e^{i pi/(3p)}.
`trigroup.form_signature` certifies the signature at p from them; the
scan's printed det is `float_det`, the float value of det H there.  The
recorded closed-form expressions and tabulated verdicts are treated as
claims under test and any disagreement is flagged rather than papered over.
"""
from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import dataclass
from typing import Optional

import mpmath

from .candidates import SPORADIC, claim, entry, parse_candidate
from .exact import Cyclo, angle, cos_exact, printed_value
# hermitian_signature is unused here: perfbench/test_smoke.py checks that its tracer patches it
from .linalg import DEFAULT_PREC, hermitian_signature, tolerance  # noqa: F401
from .trigroup import Group, build_symmetric, form_invariants, form_signature, symmetric_params


def build_candidate(cid: str, p: int, prec: int = DEFAULT_PREC) -> Group:
    n, m, im_sign = parse_candidate(cid)
    return build_symmetric(p, n, m, im_sign=im_sign, prec=prec)


# ---------------------------------------------------------------------------
# Signature scan


@dataclass(frozen=True)
class ScanRow:
    candidate: str
    p: int
    det: object  # mpmath.mpf; exactly 0 when degenerate
    verdict: str  # from the sign of det, read off the signature: (2,1) / degenerate / (3,0)
    signature: str  # signature of H, certified by form_signature
    claimed: Optional[str]
    flags: tuple

    @property
    def mismatch(self) -> bool:
        return self.claimed is not None and self.claimed != self.verdict


@dataclass(frozen=True)
class SignatureReport:
    candidate: str
    rows: tuple

    @property
    def mismatches(self) -> tuple:
        return tuple(r for r in self.rows if r.mismatch)


@functools.lru_cache(maxsize=64)
def _det_terms(n: int, m: int, im_sign: int, wp: int) -> tuple:
    """The terms (k, c_k at wp bits) of det H = sum_k c_k t^k, the last of the `form_invariants`."""
    return tuple((k, c.to_mpc(wp)) for k, c in form_invariants(n, m, im_sign)[2].c.items())


@functools.lru_cache(maxsize=1024)
def _t_powers(p: int, wp: int) -> dict:
    """t^k = e^{i pi k/(3p)} at wp bits for the exponents k = 0, +-3, +-6, +-9 of the `form_invariants`:
    one entry per p, shared by every candidate of a scan."""
    with mpmath.workprec(wp):
        return {k: mpmath.expjpi(mpmath.mpf(k) / (3 * p)) for k in range(-9, 10, 3)}


def float_det(p: int, n: int, m: int, im_sign: int, prec: int):
    """Re det H at p, printed and not decided on: its `_det_terms` at wp = max(prec, 128) bits,
    with t^k and the sum at wp + 10 bits."""
    wp = max(prec, 128)
    with mpmath.workprec(wp + 10):
        t = _t_powers(p, wp + 10)
        return sum((c * t[k] for k, c in _det_terms(n, m, im_sign, wp)), mpmath.mpc(0)).real


def signature_scan(cid: str, p_min: int = 2, p_max: int = 20, prec: int = DEFAULT_PREC) -> SignatureReport:
    """det(H) and the signature of H for p in [p_min, p_max], with no group built at p.

    `form_signature` runs once per p, on the invariants of the candidate's
    generic H.  The verdict column follows the determinant-sign criterion
    (negative det <=> signature (2,1)), read off the signature; a row is
    flagged when the signature disagrees with it (det > 0 can also mean
    (1,2)), or when the verdict recorded in `claim(cid)` disagrees with it.
    The printed det is `float_det`, read once per non-degenerate row at
    max(prec, 128) bits, and an exact 0 on degenerate rows.
    """
    if not (2 <= p_min <= p_max):
        raise ValueError("need 2 <= p_min <= p_max")
    n, m, im_sign = parse_candidate(cid)
    recorded = claim(cid)
    rows = []
    for p in range(p_min, p_max + 1):
        sig = form_signature(p, n, m, im_sign)
        flags = []
        verdict = "degenerate" if sig.n_zero else "(2,1)" if sig.n_neg % 2 else "(3,0)"
        det_val = mpmath.mpf(0) if sig.n_zero else float_det(p, n, m, im_sign, prec)
        if verdict != sig.verdict:
            flags.append(f"det-sign verdict {verdict} but exact signature {sig.verdict}")
        claimed = recorded.verdict(p)
        if claimed is not None and claimed != verdict:
            flags.append(f"claimed {claimed}, computed {verdict}")
        rows.append(ScanRow(cid, p, det_val, verdict, sig.verdict, claimed, tuple(flags)))
    return SignatureReport(cid, tuple(rows))


# ---------------------------------------------------------------------------
# Closed-form determinants

@dataclass(frozen=True)
class DetComparison:
    candidate: str
    p: int
    closed_value: object
    matrix_value: object
    difference: object
    matches: bool
    formula: str


def detH_closed_form(cid: str, p: int, prec: int = DEFAULT_PREC) -> DetComparison:
    """Evaluate the registered closed-form det(H) in phi = 2*pi/p and the exact matrix det at p
    (`form_invariants` at t = zeta_{6p}), both at `prec` bits; they match within `tolerance(prec)`.
    Raises KeyError when `claim(cid)` records no closed form."""
    c = claim(cid)
    if c.det_formula is None:
        raise KeyError(f"no registered closed form for {cid!r}")
    det = form_invariants(*parse_candidate(cid))[2].at(6 * p)
    with mpmath.workprec(prec):
        phi = 2 * mpmath.pi / p
        cv = mpmath.mpf(c.det_eval(phi))
        mv = det.to_mpc(prec).real
        diff = abs(cv - mv)
    return DetComparison(cid, p, cv, mv, diff, bool(diff <= tolerance(prec)), c.det_formula)


# ---------------------------------------------------------------------------
# Parameter table of the classification


@dataclass(frozen=True)
class ParameterRow:
    candidate: str
    n: int
    m: int
    rho: Cyclo
    s: Cyclo
    sigma: Cyclo
    validated: bool

    def to_dict(self, digits: int = 30) -> dict:
        prec = int(digits * 3.33) + 20
        return {
            "candidate": self.candidate,
            "n": self.n,
            "m": self.m,
            "rho": printed_value(self.rho, prec, digits),
            "s": printed_value(self.s, prec, digits),
            "sigma": printed_value(self.sigma, prec, digits),
            "validated": self.validated,
        }


def parameter_table(k: int = 6) -> list:
    """The six parameter rows of the classification; diagonal row at this k.

    rho and sigma are `symmetric_params`, s = rho - 1 = tr(S).  Each row is validated exactly:
    |rho| = 2cos(pi/m), rho + conj(rho) = sigma^2, and rho agrees with its published form.
    """
    rows = []
    for n, m in list(SPORADIC) + [(k, k)]:
        rho, sigma = symmetric_params(n, m)
        two_cos_m = cos_exact(angle(1, m)) * 2
        ok = (rho.abs2() - two_cos_m * two_cos_m).is_zero()
        ok &= (rho + rho.conj() - sigma * sigma).is_zero()
        ok &= (rho - entry(n, m).printed_rho()).is_zero()
        rows.append(ParameterRow(f"({n},{m})", n, m, rho, rho - 1, sigma, bool(ok)))
    return rows


# ---------------------------------------------------------------------------
# Emitters


def _det_str(v, digits: int = 30) -> str:
    """v to `digits` significant digits, from all the bits it was computed with (no rounding to 53 first)."""
    return "0" if v == 0 else mpmath.nstr(v, digits)


def scan_to_csv(reports) -> str:
    """CSV with header candidate,p,detH,verdict (30 significant digits)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["candidate", "p", "detH", "verdict"])
    for rep in reports:
        for r in rep.rows:
            w.writerow([r.candidate, r.p, _det_str(r.det), r.verdict])
    return buf.getvalue()


def scan_to_json(reports) -> str:
    out = []
    for rep in reports:
        for r in rep.rows:
            out.append(
                {
                    "candidate": r.candidate,
                    "p": r.p,
                    "detH": _det_str(r.det),
                    "verdict": r.verdict,
                    "signature": r.signature,
                    "claimed": r.claimed,
                    "flags": list(r.flags),
                }
            )
    return json.dumps(out, indent=2)


def scan_to_text(reports) -> str:
    lines = [f"{'candidate':<10} {'p':>3} {'detH':>36} {'verdict':<12} flags"]
    for rep in reports:
        for r in rep.rows:
            flag = "; ".join(r.flags)
            lines.append(
                f"{r.candidate:<10} {r.p:>3} {_det_str(r.det):>36} {r.verdict:<12} {flag}"
            )
    return "\n".join(lines) + "\n"
