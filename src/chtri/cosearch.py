"""Search for rational-angle trace parameters and cosine-identity suites.

The central object is s = e^{ia} + e^{ib} + e^{-i(a+b)} for angles a, b that
are rational multiples of pi.  A pair (n, m) is admissible when

    minor:  cos(a) + cos(b) + cos(a+b) = cos(2*pi/n)
    main:   cos(2*pi/m) - cos(2*pi/n)
            - cos(a-b) - cos(a+2b) - cos(2a+b) = 1

have a common solution.  They say Re s = cos(2*pi/n) and
|s|^2 = 1 + 2cos(2*pi/m) - 2cos(2*pi/n), so (n, m) fixes s up to conjugation,
and e^{ia}, e^{ib}, e^{-i(a+b)} are the roots of X^3 - s X^2 + conj(s) X - 1.
`search` solves that cubic once for each (n, m) in complex doubles, reads the
root angles as fractions of pi, and confirms them in exact cyclotomic
arithmetic.

The module also carries exact residual evaluators for the classical
vanishing-cosine-sum identities used to classify the solutions.
"""
from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .exact import Angle, Cyclo, angle, cos_exact, cos_sign, cos_sum, printed_value
# parameter_feasible is unused here: perfbench/tracer.py patches chtri.cosearch.parameter_feasible
from .trigroup import feasibility_sign, parameter_feasible, trace_s  # noqa: F401

# ---------------------------------------------------------------------------
# Exact residuals: sums of cosines are one `cos_sum` each; products of cosines stay
# `Cyclo` products, because rewriting them as sums is the identity under test.


def minor_residual(n: int, a: Angle, b: Angle) -> Cyclo:
    """cos(a) + cos(b) + cos(a+b) - cos(2*pi/n)."""
    return cos_sum([(1, a), (1, b), (1, a + b), (-1, angle(2, n))])


def main_residual(m: int, n: int, a: Angle, b: Angle) -> Cyclo:
    """cos(2*pi/m) - cos(2*pi/n) - cos(a-b) - cos(a+2b) - cos(2a+b) - 1."""
    return cos_sum([(1, angle(2, m)), (-1, angle(2, n)), (-1, a - b), (-1, a + b.scaled(2)),
                    (-1, a.scaled(2) + b)], -1)


# ---------------------------------------------------------------------------
# Orbit canonicalization

def _images(a: Angle, b: Angle):
    """The 12 images of (a, b) that permute the exponents {a, b, -(a+b)} of s, with or without
    negating them.  They keep Re s and |s|^2, and with them the minor and main equations."""
    for x, y in itertools.permutations((a, b, -(a + b)), 2):
        yield x, y
        yield -x, -y


def orbit(a: Angle, b: Angle) -> set:
    """All 36 images of (a, b) under the symmetries of s, as Angle pairs.

    s is unchanged by permuting the exponents {a, b, -(a+b)}, conjugated by
    negating them, and multiplied by a cube root of unity when all three are
    shifted by 2*pi/3.  Only the 12 `_images` with no shift preserve Re s and
    |s|^2; a shift changes Re s.
    """
    shifts = [angle(2 * k, 3) for k in range(3)]
    return {(x + shift, y + shift) for x, y in _images(a, b) for shift in shifts}


def canonicalize_ab(a: Angle, b: Angle) -> tuple:
    """The orbit member least in the Angle (num, den) order, as a hashable key."""
    return min(orbit(a, b))


# ---------------------------------------------------------------------------
# Search

# A root's angle is read as a fraction of pi only within this distance of it.  It is above
# the error of a computed angle: under 2e-15 for n, m <= 60, growing as 1/Im s.  Up to
# den_max 1e5 it is far below 1/den_max**2, the least gap between two fractions, so an
# irrational angle is seldom read as one.
ANGLE_TOL = 1e-13
_CUBE_ROOTS = [cmath.exp(2j * math.pi * k / 3) for k in range(3)]


@dataclass(frozen=True)
class Candidate:
    n: int
    m: int
    a: Angle
    b: Angle
    # every row `search` returns is exactly confirmed, and its (n, m) feasible: printed as constants
    exact_confirmed = True
    parameter_feasible = True

    def to_dict(self, digits: int = 50) -> dict:
        s = trace_s(self.a, self.b)
        return {
            "n": self.n,
            "m": self.m,
            "a": {"num": self.a.num, "den": self.a.den},
            "b": {"num": self.b.num, "den": self.b.den},
            "s": printed_value(s, int(digits * 3.33) + 20, digits, strip_zeros=False),
            "exact_confirmed": self.exact_confirmed,
            "parameter_feasible": self.parameter_feasible,
        }


def _angle_grid(den_max: int) -> list:
    """The Angles pi*q for all reduced q in [0, 2) with denominator <= den_max, in (den, num) order.

    `search` visits no grid: this is the domain of the tests' exhaustive pair scan."""
    return [Angle(num, den) for den in range(1, den_max + 1)
            for num in range(2 * den) if math.gcd(num, den) == 1]


def _eigenvalues(n: int, m: int) -> Optional[list]:
    """The roots e^{ia}, e^{ib}, e^{-i(a+b)} of X^3 - s X^2 + conj(s) X - 1 in complex doubles,
    for the s of (n, m) with Im s >= 0; None when no real (a, b) solves both equations.

    Re s = cos(2*pi/n) is the minor equation and |s|^2 = 1 + 2cos(2*pi/m) - 2cos(2*pi/n) the
    main one.  So Im^2 s = 4(cos(pi/m) - cos^2(pi/n))(cos(pi/m) + cos^2(pi/n)) has the sign of
    `feasibility_sign` (0 at (4,3)); its value is read from the small terms 4(sin^2(pi/n) -
    2sin^2(pi/2m))(cos(pi/m) + cos^2(pi/n)).  The roots lie on the unit circle iff Goldman's
    f(s) = |s|^4 - 8 Re(s^3) + 18|s|^2 - 27 <= 0, two of them equal iff f(s) = 0, as at (6,6)
    (Goldman, Complex Hyperbolic Geometry, 1999); with A = 2pi/n, B = 2pi/m, the `cos_sign` of
    f(s) = 40cos B - 40cos A - 22cos 2A + 2cos 2B + 20cos(A+B) + 20cos(A-B) - 8cos 3A - 28.
    """
    im = feasibility_sign(n, m)
    if im < 0:
        return None
    f = cos_sign(((40, 2, m), (-40, 2, n), (-22, 4, n), (2, 4, m), (20, 2 * (n + m), n * m),
                  (20, 2 * (m - n), n * m), (-8, 6, n)), -28)
    if f > 0:
        return None
    im2 = 4 * (math.sin(math.pi / n) ** 2 - 2 * math.sin(math.pi / (2 * m)) ** 2) * (
        math.cos(math.pi / m) + math.cos(math.pi / n) ** 2)
    # im > 0 with im2 <= 0 only when the doubles could not decide a gap below their error
    s = complex(math.cos(2 * math.pi / n), math.sqrt(max(im2, 0.0)) if im else 0.0)
    sb = s.conjugate()
    if f == 0:
        # Cardano loses half its digits at a double root, which is a simple root of the derivative
        # 3X^2 - 2sX + conj(s); the other root of the derivative has modulus |s|/3 < 1
        w = cmath.sqrt(s * s - 3 * sb)
        root = max((s + w) / 3, (s - w) / 3, key=abs)
        return [root, root, root.conjugate() ** 2]
    # Cardano on X = Y + s/3, Y^3 + pY + q = 0, from the larger of the two cubes u^3
    p, q = sb - s * s / 3, s * sb / 3 - 1 - 2 * s ** 3 / 27
    w = cmath.sqrt(q * q / 4 + p ** 3 / 27)
    u = max(w - q / 2, -w - q / 2, key=abs) ** (1 / 3)
    return [u * r - p / (3 * u * r) + s / 3 for r in _CUBE_ROOTS]


def _read(root: complex, den_max: int) -> Optional[Angle]:
    """The angle pi*k/q nearest to the argument of root with q <= den_max, or None when it
    lies farther than ANGLE_TOL from that argument."""
    t = cmath.phase(root) / math.pi
    q = Fraction(t).limit_denominator(den_max)
    return angle(q.numerator, q.denominator) if abs(t - q) < ANGLE_TOL else None


def search(den_max: int = 90, n_max: int = 12, m_max: int = 12) -> list:
    """The exact solutions (a, b) of the minor and main equations with denominators <= den_max,
    at most one orbit for each n <= n_max and m <= m_max.

    The equations fix Re s and |s|^2, so s up to conjugation, and (a, b) up to the 12
    `_images`: e^{ia}, e^{ib} and e^{-i(a+b)} are the roots of one cubic, `_eigenvalues`.
    Each root's angle is read as a fraction of pi (`_read`).  When two are read, the
    representative is the least image (x, y) in Angle order with both denominators <= den_max
    and x not after y in (den, num) order, and it is kept when both residuals are exactly
    zero.  So den_max only filters what is returned; the work does not depend on it.  For
    n, m <= 12 every eigenvalue angle has a denominator <= 3150 (a degree bound, see README),
    so from den_max 3150 on the result is every rational solution.
    Returns exactly confirmed Candidates, sorted by (n, m).
    """
    if den_max < 1:
        raise ValueError("den_max must be >= 1")
    if n_max < 3 or m_max < 3:
        raise ValueError("n_max and m_max must be >= 3")
    out = []
    for n, m in itertools.product(range(3, n_max + 1), range(3, m_max + 1)):
        roots = _eigenvalues(n, m) or []
        read = [t for t in (_read(r, den_max) for r in roots) if t is not None]
        if len(read) < 2:
            continue  # two read angles a, b fix the third, -(a+b)
        reps = [(x, y) for x, y in _images(*read[:2])
                if max(x.den, y.den) <= den_max and (x.den, x.num) <= (y.den, y.num)]
        if reps:
            a, b = min(reps)
            if minor_residual(n, a, b).is_zero() and main_residual(m, n, a, b).is_zero():
                out.append(Candidate(n, m, a, b))
    return out


def results_to_json(cands: Iterable[Candidate], digits: int = 50) -> str:
    return json.dumps([c.to_dict(digits) for c in cands], indent=2)


# ---------------------------------------------------------------------------
# Cosine identity suites
#
# Entries are (coefficient, numerator, denominator) triples: the identity
# asserts sum coeff * cos(phi + pi*num/den) = target, with phi = 0 for the
# non-parametric ones.

_COSINE_SUMS = {
    "a": ([(1, 0, 1), (1, 2, 3), (1, 4, 3)], Fraction(0), True),
    "b": (
        [
            (1, 0, 1),
            (1, 2, 5),
            (1, -2, 5),
            (-1, 2, 15),
            (-1, -2, 15),
            (1, 7, 15),
            (1, -7, 15),
        ],
        Fraction(0),
        True,
    ),
    "c": (
        [
            (1, 0, 1),
            (-1, 1, 5),
            (-1, -1, 5),
            (1, 1, 15),
            (1, -1, 15),
            (-1, 4, 15),
            (-1, -4, 15),
        ],
        Fraction(0),
        True,
    ),
    "d": ([(1, 1, 3)], Fraction(1, 2), False),
    "e": ([(1, 1, 5), (-1, 2, 5)], Fraction(1, 2), False),
    "f": ([(1, 1, 5), (-1, 1, 15), (1, 4, 15)], Fraction(1, 2), False),
    "g": ([(-1, 2, 5), (1, 2, 15), (-1, 7, 15)], Fraction(1, 2), False),
    "h": (
        [(-1, 1, 15), (1, 2, 15), (1, 4, 15), (-1, 7, 15)],
        Fraction(1, 2),
        False,
    ),
    "i": ([(1, 1, 7), (-1, 2, 7), (1, 3, 7)], Fraction(1, 2), False),
    "j": (
        [(1, 1, 7), (-1, 2, 7), (1, 2, 21), (-1, 5, 21)],
        Fraction(1, 2),
        False,
    ),
    "k": (
        [(1, 1, 7), (1, 3, 7), (-1, 1, 21), (1, 8, 21)],
        Fraction(1, 2),
        False,
    ),
    "l": (
        [(-1, 2, 7), (1, 3, 7), (1, 4, 21), (1, 10, 21)],
        Fraction(1, 2),
        False,
    ),
    "m": (
        [(1, 1, 7), (-1, 1, 21), (1, 2, 21), (-1, 5, 21), (1, 8, 21)],
        Fraction(1, 2),
        False,
    ),
    "n": (
        [(-1, 2, 7), (1, 2, 21), (1, 4, 21), (-1, 5, 21), (1, 10, 21)],
        Fraction(1, 2),
        False,
    ),
    "o": (
        [(1, 3, 7), (-1, 1, 21), (1, 4, 21), (1, 8, 21), (1, 10, 21)],
        Fraction(1, 2),
        False,
    ),
}

COSINE_SUM_LABELS = tuple(_COSINE_SUMS)
PARAMETRIC_COSINE_SUMS = tuple(lab for lab, (_, _, parametric) in _COSINE_SUMS.items() if parametric)


def cosine_sum_residual(label: str, phi: Optional[Angle] = None) -> Cyclo:
    """Exact residual of vanishing-cosine-sum identity `label` ('a'..'o').

    The parametric identities 'a', 'b', 'c' hold for every angle phi; the
    remaining ones are fixed sums (phi is ignored, treated as 0).
    """
    if label not in _COSINE_SUMS:
        raise KeyError(f"unknown identity {label!r}")
    terms, target, parametric = _COSINE_SUMS[label]
    base = phi if (parametric and phi is not None) else angle(0, 1)
    return cos_sum([(coeff, base + angle(num, den)) for coeff, num, den in terms], -target)


# (two_theta, a, b) as multiples of pi; parametric rows map psi -> angles.
_TRACE_TABLE_FIXED = {
    "iii": ((1, 3), (1, 3), (1, 12)),
    "iv": ((1, 5), (1, 3), (1, 30)),
    "v": ((3, 5), (1, 3), (7, 30)),
    "vi": ((1, 2), (2, 7), (4, 7)),
    "vii": ((1, 2), (2, 9), (13, 45)),
    "viii": ((1, 2), (2, 9), (31, 45)),
    "ix": ((1, 7), (2, 9), (11, 63)),
    "x": ((5, 7), (2, 9), (29, 63)),
    "xi": ((3, 7), (2, 9), (47, 63)),
    "xii": ((2, 5), (0, 1), (2, 5)),
    "xiii": ((4, 5), (0, 1), (4, 5)),
}

PARAMETRIC_TRACE_ROWS = ("i", "ii")  # the rows that `trace_table_angles` maps from psi
TRACE_TABLE_LABELS = PARAMETRIC_TRACE_ROWS + tuple(_TRACE_TABLE_FIXED)


def trace_table_angles(label: str, psi: Optional[Angle] = None):
    """(2*theta, a, b) for classified solution `label` of the half-sum equation.

    Rows 'i' and 'ii' are one-parameter families in psi; the rest are fixed.
    """
    if label in PARAMETRIC_TRACE_ROWS:
        if psi is None:
            raise ValueError(f"row {label!r} needs psi")
        third = angle(psi.num, 3 * psi.den)
        if label == "i":
            return angle(2, 3), angle(1, 1) - third, angle(psi.num, 6 * psi.den)
        return psi, third.scaled(2), angle(1, 3) - third
    if label not in _TRACE_TABLE_FIXED:
        raise KeyError(f"unknown row {label!r}")
    tt, aa, bb = _TRACE_TABLE_FIXED[label]
    return angle(*tt), angle(*aa), angle(*bb)


def trace_table_residual(label: str, psi: Optional[Angle] = None) -> Cyclo:
    """cos(2theta) - cos(a-b) - cos(a+2b) - cos(2a+b) - 1/2 for row `label`."""
    two_theta, a, b = trace_table_angles(label, psi)
    return cos_sum([(1, two_theta), (-1, a - b), (-1, a + b.scaled(2)), (-1, a.scaled(2) + b)], Fraction(-1, 2))


def factorization_residual(a: Angle, b: Angle) -> Cyclo:
    """1 + cos(a-b) + cos(a+2b) + cos(2a+b)
    - 4 cos((a-b)/2) cos((a+2b)/2) cos((2a+b)/2)."""
    lhs = cos_sum([(1, a - b), (1, a + b.scaled(2)), (1, a.scaled(2) + b)], 1)
    # halve the stored representatives of a and b, so the half-angles add up exactly
    half_a, half_b = angle(a.num, 2 * a.den), angle(b.num, 2 * b.den)
    return lhs - cos_exact(half_a - half_b) * cos_exact(half_a + b) * cos_exact(a + half_b) * 4


def half_angle_residuals(a: Angle, b: Angle) -> tuple:
    """Residuals of the three half-angle regroupings of the main sum:

    cos(b) + cos(a+b)      = 2 cos(a/2) cos(a/2 + b)
    cos(a+2b) + 1          = 2 cos^2(a/2 + b)
    cos(a-b) + cos(2a+b)   = 2 cos(3a/2) cos(a/2 + b)
    """
    half_a = angle(a.num, 2 * a.den)
    mid = half_a + b
    cos_mid = cos_exact(mid)
    r1 = cos_sum([(1, b), (1, a + b)]) - cos_exact(half_a) * cos_mid * 2
    r2 = cos_sum([(1, a + b.scaled(2))], 1) - cos_mid * cos_mid * 2
    r3 = cos_sum([(1, a - b), (1, a.scaled(2) + b)]) - cos_exact(half_a.scaled(3)) * cos_mid * 2
    return r1, r2, r3
