"""The candidate registry: every classified (n, m) and what is claimed for it.

A candidate id is '(n,m)' for s = tr(S) or '(n,m)-' for conj(s).  Each
(n, m) has one entry holding the angles (a, b) with
s = e^{ia} + e^{ib} + e^{-i(a+b)}, the published algebraic form of
rho = s + 1 (built independently of a and b, as an oracle), and for each
sign the claimed signature pattern in p and the closed-form det(H) in
phi = 2*pi/p.  The diagonal family (k, k) is one rule over k.

The claims are recorded as published; `reports` tests them against the
exact matrix determinant.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from mpmath import cos, exp, pi, sin, sqrt

from .exact import Angle, Cyclo, angle, cos_exact, root_of_unity

#: the ids scanned by `tables --candidate all`, in output order
ALL_IDS = ("(3,3)", "(3,3)-", "(3,4)", "(3,5)", "(3,5)-", "(4,3)", "(5,4)", "(8,6)", "(4,4)", "(5,5)")

_ID_RE = re.compile(r"^\((\d+),(\d+)\)(-?)$")


@dataclass(frozen=True)
class Claim:
    """What is recorded for one id: the signature pattern in p and the closed-form det(H)."""

    # ((last p, verdict), ...): the first step with p <= last p gives the
    # verdict; None as last p covers every larger p; no steps, no claim
    verdicts: tuple = ()
    det_formula: Optional[str] = None
    det_eval: Optional[Callable] = None

    def verdict(self, p: int) -> Optional[str]:
        for last, verdict in self.verdicts:
            if last is None or p <= last:
                return verdict
        return None


@dataclass(frozen=True)
class Entry:
    """One classified (n, m)."""

    a: Angle
    b: Angle
    printed_rho: Callable[[], Cyclo]  # the published rho, independent of (a, b)
    plus: Claim  # claims for s
    minus: Claim = Claim()  # claims for conj(s)


_ALWAYS_21 = ((None, "(2,1)"),)
_SQ5 = "sqrt(5+2*sqrt(5))"


def _gauss_sum_7() -> Cyclo:
    """i*sqrt(7) as the quadratic Gauss sum: zeta+zeta^2+zeta^4-zeta^3-zeta^5-zeta^6."""
    return Cyclo(7, {e: Fraction(1 if e in (1, 2, 4) else -1) for e in range(1, 7)})


def _rho_54() -> Cyclo:
    # (1 + i*sqrt(3)) (sqrt(5) - i*sqrt(3)) / 4
    i, sqrt3, sqrt5 = Cyclo.i(), cos_exact(angle(1, 6)) * 2, cos_exact(angle(1, 5)) * 4 - 1
    return (1 + i * sqrt3) * (sqrt5 - i * sqrt3) / 4


SPORADIC = {
    (3, 4): Entry(
        angle(2, 7), angle(4, 7),
        printed_rho=lambda: (1 + _gauss_sum_7()) / 2,  # (1 + i*sqrt(7))/2
        plus=Claim(((4, "(3,0)"), (None, "(2,1)")), "(1/2)*(1-8*cos(phi))*sin(phi/2)",
                   lambda f: (1 - 8 * cos(f)) * sin(f / 2) / 2),
    ),
    (3, 5): Entry(
        angle(2, 5), angle(7, 15),
        # 2 e^{2 pi i/5} cos(pi/5) = e^{3 pi i/5} + e^{pi i/5}
        printed_rho=lambda: root_of_unity(angle(3, 5)) + root_of_unity(angle(1, 5)),
        plus=Claim(_ALWAYS_21, f"-{_SQ5}*cos(phi/2)-(2+sqrt(5)+4*cos(phi))*sin(phi/2)",
                   lambda f: -sqrt(5 + 2 * sqrt(5)) * cos(f / 2) - (2 + sqrt(5) + 4 * cos(f)) * sin(f / 2)),
        minus=Claim(((7, "(2,1)"), (None, "(3,0)")), f"{_SQ5}*cos(phi/2)-(2+sqrt(5)+4*cos(phi))*sin(phi/2)",
                    lambda f: sqrt(5 + 2 * sqrt(5)) * cos(f / 2) - (2 + sqrt(5) + 4 * cos(f)) * sin(f / 2)),
    ),
    (4, 3): Entry(
        angle(2, 3), angle(4, 3),
        printed_rho=Cyclo.one,
        plus=Claim(((2, "(3,0)"), (3, "degenerate"), (None, "(2,1)")), "-2*sin(3*phi/2)",
                   lambda f: -2 * sin(3 * f / 2)),
    ),
    (5, 4): Entry(
        angle(2, 15), angle(8, 15),
        printed_rho=_rho_54,
        plus=Claim(((2, "(3,0)"), (None, "(2,1)"))),
    ),
    (8, 6): Entry(
        angle(1, 2), angle(1, 12),
        # (1 + i)(1 - i/sqrt(2)); 1/sqrt(2) = cos(pi/4)
        printed_rho=lambda: (1 + Cyclo.i()) * (1 - Cyclo.i() * cos_exact(angle(1, 4))),
        plus=Claim(((2, "(3,0)"), (None, "(2,1)")), "-2*cos(phi)*(1+2*sin(phi))",
                   lambda f: -2 * cos(f) * (1 + 2 * sin(f))),
    ),
}


def _diagonal_det(k: int, f):
    th = 2 * pi / k
    val = (
        1j
        * exp(-1j * (4 * th + 3 * f) / 2)
        * (-1 + exp(1j * (2 * th + f)))
        * (exp(1j * th) + exp(1j * f)) ** 2
    )
    return val.real


def _diagonal(k: int) -> Entry:
    """(k, k): s = e^{2 pi i/k}, from a = 2pi/k with a + 2b an odd multiple of pi."""
    if k == 3:
        plus = Claim(((2, "(3,0)"), (3, "degenerate"), (None, "(2,1)")),
                     "-sqrt(3)*cos(phi/2)+sin(phi/2)-2*sin(3*phi/2)",
                     lambda f: -sqrt(3) * cos(f / 2) + sin(f / 2) - 2 * sin(3 * f / 2))
        minus = Claim(((5, "(3,0)"), (6, "degenerate"), (None, "(3,0)")),
                      "sqrt(3)*cos(phi/2)+sin(phi/2)-2*sin(3*phi/2)",
                      lambda f: sqrt(3) * cos(f / 2) + sin(f / 2) - 2 * sin(3 * f / 2))
    else:
        plus = Claim(
            ((2, "degenerate"), (None, "(2,1)")) if k == 4 else _ALWAYS_21,
            "Re(i*exp(-i*(4*theta+3*phi)/2)*(-1+exp(i*(2*theta+phi)))"
            f"*(exp(i*theta)+exp(i*phi))^2), theta=2*pi/{k}",
            lambda f: _diagonal_det(k, f),
        )
        minus = Claim()
    return Entry(
        angle(2, k), angle(k - 2, 2 * k),
        # 2 e^{i pi/k} cos(pi/k)
        printed_rho=lambda: root_of_unity(angle(1, k)) * cos_exact(angle(1, k)) * 2,
        plus=plus, minus=minus,
    )


def entry(n: int, m: int) -> Optional[Entry]:
    """The registry entry of (n, m), or None when it is not a classified candidate."""
    if (n, m) in SPORADIC:
        return SPORADIC[(n, m)]
    if n == m and n >= 3:
        return _diagonal(n)
    return None


def parse_candidate(cid: str) -> tuple:
    """'(n,m)' or '(n,m)-' -> (n, m, im_sign); the '-' suffix means conj(s)."""
    mt = _ID_RE.match(cid)
    if not mt or entry(int(mt.group(1)), int(mt.group(2))) is None:
        raise ValueError(f"unknown candidate {cid!r}")
    return int(mt.group(1)), int(mt.group(2)), -1 if mt.group(3) else 1


def claim(cid: str) -> Claim:
    """The recorded claims for candidate id `cid`."""
    n, m, im_sign = parse_candidate(cid)
    e = entry(n, m)
    return e.plus if im_sign > 0 else e.minus
