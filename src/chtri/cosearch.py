"""Search for rational-angle trace parameters and cosine-identity suites.

The central object is s = e^{ia} + e^{ib} + e^{-i(a+b)} for angles a, b that
are rational multiples of pi.  A pair (n, m) is admissible when

    minor:  cos(a) + cos(b) + cos(a+b) = cos(2*pi/n)
    main:   cos(2*pi/m) - cos(2*pi/n)
            - cos(a-b) - cos(a+2b) - cos(2a+b) = 1

have a common solution.  `search` solves the minor equation for b at each
angle a of a rational grid, screens in float arithmetic only the grid angles
within ROOT_ERROR of a root, and confirms survivors in exact cyclotomic
arithmetic.

The module also carries exact residual evaluators for the classical
vanishing-cosine-sum identities used to classify the solutions.
"""
from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .exact import Angle, Cyclo, angle, cos_exact, cos_sum, printed_value
from .trigroup import parameter_feasible, trace_s

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

def orbit(a: Angle, b: Angle) -> set:
    """All 36 images of (a, b) under the symmetries of s, as Angle pairs.

    s is unchanged by permuting the exponents {a, b, -(a+b)}, conjugated by
    negating them, and multiplied by a cube root of unity when all three are
    shifted by 2*pi/3.  Only the 12 images with no shift (the permutations,
    with or without negation) preserve Re s and |s|^2, and with them the
    minor and main equations; a shift changes Re s.
    """
    shifts = [angle(2 * k, 3) for k in range(3)]
    out = set()
    for x, y in itertools.permutations((a, b, -(a + b)), 2):
        for u, v in ((x, y), (-x, -y)):
            out.update((u + shift, v + shift) for shift in shifts)
    return out


def canonicalize_ab(a: Angle, b: Angle) -> tuple:
    """The orbit member least in the Angle (num, den) order, as a hashable key."""
    return min(orbit(a, b))


# ---------------------------------------------------------------------------
# Search

# Float screen: a grid pair survives when each equation holds to this tolerance.
PREFILTER_TOL = 1e-9
# An exact grid solution b lies within this distance of a computed root of the
# minor equation (arccos amplifies rounding near a double root), so `search`
# screens only the grid angles this close to a root.  It needs the least gap
# pi/den_max**2 between grid angles to exceed it.
ROOT_ERROR = 1e-7


@dataclass(frozen=True)
class Candidate:
    n: int
    m: int
    a: Angle
    b: Angle
    exact_confirmed: bool
    parameter_feasible: bool

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
    """The Angles pi*q for all reduced q in [0, 2) with denominator <= den_max, in (den, num) order."""
    return [Angle(num, den) for den in range(1, den_max + 1)
            for num in range(2 * den) if math.gcd(num, den) == 1]


def _root_table(grid: list) -> tuple:
    """(sorted_th, by_angle, cos_a, twice_half) for `_near_roots`: the grid
    angles in increasing order with 2*pi appended, the grid index of each,
    and cos(a) and 2*cos(a/2) for the sorted a in [0, pi]."""
    th = [math.pi * (g.num / g.den) for g in grid]
    by_angle = sorted(range(len(th)), key=th.__getitem__)
    sorted_th = [th[k] for k in by_angle]
    domain = sorted_th[:bisect_right(sorted_th, math.pi)]
    cos_a = [math.cos(t) for t in domain]
    twice_half = [2 * math.cos(t / 2) for t in domain]
    sorted_th.append(2 * math.pi)
    return sorted_th, by_angle, cos_a, twice_half


def _near_roots(cn: float, sorted_th: list, by_angle: list, cos_a: list, twice_half: list) -> list:
    """The grid index pairs (i, j), a = grid[i] in [0, pi], with b = grid[j]
    within ROOT_ERROR of a root of cos a + cos b + cos(a+b) = cn whose circle
    distance to 0 is at least a - ROOT_ERROR.  Sorted, without repeats.

    The roots are b = +-phase - a/2 with cos(phase) = (cn - cos a) / (2 cos(a/2)).
    Each root is kept or dropped by two float comparisons with its neighbours
    in sorted_th; the appended 2*pi makes the angle 0 the upper neighbour of a
    root just below 2*pi.
    """
    two_pi, size = 2 * math.pi, len(by_angle)
    near = []
    # zip stops at the last a in [0, pi]
    for k, (a_th, a_cos, half) in enumerate(zip(sorted_th, cos_a, twice_half)):
        x = cn - a_cos
        if abs(x) >= half + PREFILTER_TOL:
            continue  # no b comes within PREFILTER_TOL of the equation
        x /= half
        phase = math.acos(x if -1.0 <= x <= 1.0 else math.copysign(1.0, x))
        low = a_th - ROOT_ERROR  # a root with |root| < low has no solution b with |b| >= a near it
        shift = a_th / 2
        for root in (phase - shift, -phase - shift):
            root %= two_pi
            if not low <= root <= two_pi - low:
                continue
            r = bisect_left(sorted_th, root)  # sorted_th[r - 1] < root <= sorted_th[r]
            # at r = 0 the root is 0 and sorted_th[-1] is the appended 2*pi: no lower neighbour
            if root - ROOT_ERROR <= sorted_th[r - 1] <= root:
                near.append((by_angle[k], by_angle[r - 1]))
            if sorted_th[r] <= root + ROOT_ERROR:
                near.append((by_angle[k], by_angle[r % size]))
    return sorted(set(near))


def _screen(a: Angle, b: Angle, cn: float, cos_m: dict) -> list:
    """The m whose main equation, with the minor one for cos(2*pi/n) = cn,
    holds at (a, b) to PREFILTER_TOL in floats."""
    a_th, b_th = math.pi * (a.num / a.den), math.pi * (b.num / b.den)
    if abs(math.cos(a_th) + math.cos(b_th) + math.cos(a_th + b_th) - cn) >= PREFILTER_TOL:
        return []
    core = (-math.cos(a_th - b_th) - math.cos(a_th + 2 * b_th)
            - math.cos(2 * a_th + b_th) - 1.0) - cn
    return [m for m, cm in cos_m.items() if abs(cm + core) < PREFILTER_TOL]


def search(den_max: int = 90, n_max: int = 12, m_max: int = 12) -> list:
    """Enumerate exact solutions of the minor/main equations on the grid.

    The 12 symmetries of s without a 2*pi/3 shift (permuting a, b, -(a+b)
    and negating them) preserve both equations, and swapping or negating
    (a, b) keeps a grid pair on the grid.  So every orbit of grid solutions
    has a member with a in [0, pi] and |b| >= a (|b| the distance of b to 0
    on the circle).  For each n <= n_max, only the pairs of that domain that
    `_near_roots` gives are screened in float arithmetic against the minor
    and every main equation with m <= m_max.  A hit in a new orbit is
    expanded once into its grid members, which are marked seen; the
    representative is the least member (a, b), a not after b in grid order,
    that passes the float screen, and it is confirmed in exact arithmetic.
    Returns Candidates sorted by (n, m, a, b); entries that fail exact
    confirmation are kept but flagged.
    """
    if den_max < 1:
        raise ValueError("den_max must be >= 1")
    if math.pi / den_max ** 2 <= ROOT_ERROR:
        raise ValueError(f"den_max {den_max} is too large: the least grid gap pi/den_max**2 "
                         f"must exceed the root error {ROOT_ERROR}")
    if n_max < 3 or m_max < 3:
        raise ValueError("n_max and m_max must be >= 3")
    grid = _angle_grid(den_max)
    table = _root_table(grid)
    cos_n = {n: math.cos(2 * math.pi / n) for n in range(3, n_max + 1)}
    cos_m = {m: math.cos(2 * math.pi / m) for m in range(3, m_max + 1)}

    hits: dict = {}  # (n, m) + orbit key -> least grid member that passes the screen
    seen: set = set()  # (n, m, a, b) for every grid member of an expanded orbit
    for n, cn in cos_n.items():
        for i, j in _near_roots(cn, *table):
            a, b = grid[i], grid[j]
            if not a.num * b.den <= b.num * a.den <= (2 * a.den - a.num) * b.den:
                continue  # |b| < a
            lo, hi = (a, b) if i <= j else (b, a)  # screened in grid order, as _expand screens
            for m in _screen(lo, hi, cn, cos_m):
                if (n, m, a, b) not in seen:
                    key, rep = _expand(n, m, a, b, den_max, cn, cos_m, seen)
                    hits[(n, m) + key] = rep
    out = []
    for (n, m, *_orbit), (a, b) in hits.items():
        confirmed = minor_residual(n, a, b).is_zero() and main_residual(m, n, a, b).is_zero()
        out.append(Candidate(n, m, a, b, exact_confirmed=confirmed, parameter_feasible=parameter_feasible(n, m)))
    out.sort(key=lambda c: (c.n, c.m, c.a.frac, c.b.frac))
    return out


def _expand(n: int, m: int, a: Angle, b: Angle, den_max: int, cn: float, cos_m: dict, seen: set):
    """(orbit key, representative) of the orbit of grid pair (a, b) for (n, m).

    Marks every grid member (den <= den_max) seen.  The representative is
    the least (x, y) in Angle order with x not after y in the grid's
    (den, num) order that passes the float screen of (n, m).
    """
    rep = None
    for x, y in orbit(a, b):
        if max(x.den, y.den) > den_max:
            continue
        seen.add((n, m, x, y))
        if (x.den, x.num) <= (y.den, y.num) and (rep is None or (x, y) < rep) and m in _screen(x, y, cn, cos_m):
            rep = (x, y)
    return canonicalize_ab(a, b), rep


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
