"""3x3 complex linear algebra over an indefinite Hermitian form.

Matrices carry either exact entries (cyclotomic numbers, or Laurent
polynomials in t over them) or arbitrary-precision mpmath complex
entries.  Exact matrices support exact determinants,
exact equality and exact signature computation; the float path is used
for residual checks and eigenvalues.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import mpmath

from .exact import Cyclo, Laurent, dot_table

DEFAULT_PREC = 256


def tolerance(prec: int) -> mpmath.mpf:
    """2^-(prec // 2): the one bound under which two floats computed at `prec` bits count as equal."""
    return mpmath.ldexp(1, -(prec // 2))


class SingularMatrixError(ZeroDivisionError):
    pass


def _products(rows, cols) -> list:
    """[[sum(x * y for x, y in zip(row, col)) for col in cols] for row in rows] of length-3 rows and
    columns: one `dot_table` when an entry is a Laurent, else the three-term sum of Cyclo or float entries."""
    if any(isinstance(x, Laurent) for v in (*rows, *cols) for x in v):
        return dot_table(rows, cols)
    return [[row[0] * col[0] + row[1] * col[1] + row[2] * col[2] for col in cols] for row in rows]


class Mat3:
    """A 3x3 matrix with exact (Cyclo or Laurent) or mpmath (float) entries."""

    __slots__ = ("rows", "exact")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("Mat3 needs 3x3 entries")
        self.rows = rows
        self.exact = all(isinstance(x, (Cyclo, Laurent)) for r in rows for x in r)

    @classmethod
    def identity(cls, exact: bool = True) -> "Mat3":
        one, zero = (Cyclo.one(), Cyclo.zero()) if exact else (mpmath.mpc(1), mpmath.mpc(0))
        return cls([[one, zero, zero], [zero, one, zero], [zero, zero, one]])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __repr__(self):
        return f"Mat3({self.rows!r})"

    # -- ring operations ----------------------------------------------------

    def __mul__(self, other):
        """The product, by `_products`."""
        if not isinstance(other, Mat3):
            return NotImplemented
        return Mat3(_products(self.rows, tuple(zip(*other.rows))))

    def __sub__(self, other):
        if not isinstance(other, Mat3):
            return NotImplemented
        return Mat3([[x - y for x, y in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def scale(self, k) -> "Mat3":
        return Mat3([[x * k for x in r] for r in self.rows])

    def adjoint(self) -> "Mat3":
        """Conjugate transpose."""
        r = self.rows
        conj = (lambda x: x.conj()) if self.exact else mpmath.conj
        return Mat3([[conj(r[j][i]) for j in range(3)] for i in range(3)])

    def trace(self):
        r = self.rows
        return r[0][0] + r[1][1] + r[2][2]

    def det(self):
        r = self.rows
        return (
            r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
        )

    def minor_sum(self):
        """Sum of the three principal 2x2 minors (second char-poly coefficient)."""
        r = self.rows
        return (
            (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            + (r[0][0] * r[2][2] - r[0][2] * r[2][0])
            + (r[0][0] * r[1][1] - r[0][1] * r[1][0])
        )

    def adjugate(self) -> "Mat3":
        r = self.rows
        cof = [
            [
                r[(i + 1) % 3][(j + 1) % 3] * r[(i + 2) % 3][(j + 2) % 3]
                - r[(i + 1) % 3][(j + 2) % 3] * r[(i + 2) % 3][(j + 1) % 3]
                for i in range(3)
            ]
            for j in range(3)
        ]
        return Mat3(cof)

    def inverse(self) -> "Mat3":
        """The adjugate over det, with det read as row 0 times the adjugate's column 0: of an exact matrix
        the adjugate itself, once det is exactly 1; a float det below `tolerance` is singular."""
        adj, r = self.adjugate(), self.rows[0]
        d = r[0] * adj.rows[0][0] + r[1] * adj.rows[1][0] + r[2] * adj.rows[2][0]
        if self.exact:
            if not (d - 1).is_zero():
                raise SingularMatrixError("exact inverse needs det exactly 1")
            return adj
        if abs(d) < tolerance(mpmath.mp.prec):
            raise SingularMatrixError("singular matrix")
        return adj.scale(1 / d)

    # -- conversions --------------------------------------------------------

    def to_float(self, prec: int = DEFAULT_PREC) -> "Mat3":
        if not self.exact:
            return self
        return Mat3([[x.to_mpc(prec) for x in r] for r in self.rows])

    def max_abs(self) -> mpmath.mpf:
        m = self if not self.exact else self.to_float()
        return max(abs(x) for r in m.rows for x in r)

    def is_zero_exact(self) -> bool:
        return all(x.is_zero() for r in self.rows for x in r)

    def __eq__(self, other):
        if not isinstance(other, Mat3):
            return NotImplemented
        if self.exact and other.exact:
            return (self - other).is_zero_exact()
        raise TypeError("exact equality requires exact matrices")

    def __hash__(self):
        raise TypeError("Mat3 is not hashable")

    def apply(self, v):
        """Matrix-vector product, by `_products`; v is a length-3 sequence of entries."""
        return tuple(x for x, in _products(self.rows, (tuple(v),)))


# ---------------------------------------------------------------------------
# Signature


@dataclass(frozen=True)
class Signature:
    n_pos: int
    n_neg: int
    n_zero: int

    def __post_init__(self):
        if self.n_pos + self.n_neg + self.n_zero != 3:
            raise ValueError("signature counts must sum to 3")

    @property
    def verdict(self) -> str:
        if self.n_zero:
            return "degenerate"
        return f"({self.n_pos},{self.n_neg})"


def _descartes_positive(signs: list[int]) -> int:
    """Positive-root count via sign changes; valid for real-rooted polynomials."""
    seq = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(seq, seq[1:]) if a != b)


def sign_signature(s2: int, s1: int, s0: int) -> Signature:
    """Eigenvalue sign pattern of a Hermitian 3x3 matrix from the signs of tr, c1 and det.

    Descartes' rule on x^3 - tr x^2 + c1 x - det, whose roots are all real.
    """
    if s0 != 0:
        pos = _descartes_positive([1, -s2, s1, -s0])
        return Signature(pos, 3 - pos, 0)
    if s1 != 0:
        pos = _descartes_positive([1, -s2, s1])
        return Signature(pos, 2 - pos, 1)
    if s2 != 0:
        return Signature(1, 0, 2) if s2 > 0 else Signature(0, 1, 2)
    return Signature(0, 0, 3)


def invariant_signature(tr, c1, det, prec: int = DEFAULT_PREC) -> Signature:
    """Eigenvalue sign pattern of a Hermitian 3x3 matrix with char poly x^3 - tr x^2 + c1 x - det.

    `sign_signature` of the invariants' signs: the exact signs of Cyclo
    invariants, and for float ones, computed at `prec` bits, the sign of
    the real part, read as 0 when it is at most `tolerance(prec)` in
    absolute value.
    """
    if isinstance(det, Cyclo):
        return sign_signature(tr.real_sign(), c1.real_sign(), det.real_sign())
    tol = tolerance(prec)
    return sign_signature(*(0 if abs(x.real) <= tol else 1 if x.real > 0 else -1 for x in (tr, c1, det)))


def hermitian_signature(h: Mat3, prec: int = DEFAULT_PREC) -> Signature:
    """Eigenvalue sign pattern of a Hermitian 3x3 matrix, from its trace, minor sum and det."""
    with mpmath.workprec(prec + 30):
        skew = h - h.adjoint()
        if not (skew.is_zero_exact() if h.exact else skew.max_abs() <= tolerance(prec)):
            raise ValueError("matrix is not Hermitian")
        return invariant_signature(h.trace(), h.minor_sum(), h.det(), prec)


# ---------------------------------------------------------------------------
# Eigenvalues (closed-form cubic)


def eigenvalues3(m: Mat3, prec: int = DEFAULT_PREC):
    """The three eigenvalues (unordered, with multiplicity) at `prec` bits, by Cardano's formula
    on the characteristic polynomial x^3 + a2 x^2 + a1 x + a0."""
    mf = m.to_float(prec)
    with mpmath.workprec(prec + 30):
        a2, a1, a0 = -mf.trace(), mf.minor_sum(), -mf.det()
        shift = -a2 / 3
        p = a1 - a2 * a2 / 3
        q = 2 * a2**3 / 27 - a2 * a1 / 3 + a0
        scale = max(abs(p), abs(q), mpmath.mpf(1))
        tiny = mpmath.mpf(2) ** (-(prec + 10))
        if abs(p) <= tiny * scale and abs(q) <= tiny * scale:
            return [shift, shift, shift]
        disc = (q / 2) ** 2 + (p / 3) ** 3
        r = mpmath.sqrt(disc)
        u3 = -q / 2 + r
        if abs(u3) < abs(-q / 2 - r):
            u3 = -q / 2 - r
        c = u3 ** mpmath.mpf("1/3")
        omega = mpmath.expjpi(mpmath.mpf(2) / 3)
        roots = []
        for k in range(3):
            w = omega**k
            cw = c * w
            roots.append(cw - p / (3 * cw) + shift)
        return roots


# ---------------------------------------------------------------------------
# Projective comparisons

@lru_cache(maxsize=1)
def _cube_roots_exact():
    return (Cyclo.one(), Cyclo.root(3, 1), Cyclo.root(3, 2))


def exact_differences(a: Mat3, b: Mat3, w) -> Iterator:
    """The entries of a - w*b, row by row, each built only when it is read; w is one of
    `_cube_roots_exact`, and for w = 1 the entries are subtracted without scaling."""
    pairs = (xy for r, s in zip(a.rows, b.rows) for xy in zip(r, s))
    if w is _cube_roots_exact()[0]:
        return (x - y for x, y in pairs)
    return (x - y * w for x, y in pairs)


@lru_cache(maxsize=16)
def _cube_roots_float(prec: int) -> tuple:
    """(w^0, w^1, w^2) for w = e^{2*pi*i/3}, each computed at `prec` bits."""
    with mpmath.workprec(prec):
        omega = mpmath.expjpi(mpmath.mpf(2) / 3)
        return tuple(omega**k for k in range(3))


def _entry_pairs(a: Mat3, b: Mat3, prec: int) -> list:
    """The (a_ij, b_ij) pairs of the float views of a and b, row by row."""
    af, bf = a.to_float(prec), b.to_float(prec)
    return [(x, y) for r, s in zip(af.rows, bf.rows) for x, y in zip(r, s)]


def projective_residual(a: Mat3, b: Mat3, prec: int = DEFAULT_PREC):
    """min over cube roots of unity w of max|a_ij - w*b_ij|; a root that reaches the best max so far is dropped."""
    with mpmath.workprec(prec):
        pairs = _entry_pairs(a, b, prec)
        best = None
        for w in _cube_roots_float(prec):
            d = None
            for x, y in pairs:
                e = abs(x - w * y)
                if d is None or e > d:
                    d = e
                    if best is not None and d >= best:
                        break
            else:  # every entry read: d < best
                best = d
        return best


def projective_equal(a: Mat3, b: Mat3, prec: int = DEFAULT_PREC) -> bool:
    """True iff a = w*b for a cube root of unity w, exactly, or for floats entrywise within `tolerance(prec)`:
    projective_residual(a, b) <= tolerance(prec), each root dropped at its first entry above it."""
    if a.exact and b.exact:
        return any(all(d.is_zero() for d in exact_differences(a, b, w)) for w in _cube_roots_exact())
    tol = tolerance(prec)
    with mpmath.workprec(prec):
        pairs = _entry_pairs(a, b, prec)
        return any(all(abs(x - w * y) <= tol for x, y in pairs) for w in _cube_roots_float(prec))


def projective_order(m: Mat3, max_order: int, prec: int = DEFAULT_PREC):
    """Least k <= max_order with m^k projectively the identity, else None."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    with mpmath.workprec(prec):
        mf = m.to_float(prec)
        ident = Mat3.identity(exact=False)
        p = mf
        for k in range(1, max_order + 1):
            if projective_equal(p, ident, prec):
                return k
            p = p * mf
    return None


# ---------------------------------------------------------------------------
# Isometry type


def trace_discriminant(tr, prec: int = DEFAULT_PREC):
    """Goldman's discriminant f(tr) = |tr|^4 - 8 Re(tr^3) + 18|tr|^2 - 27."""
    with mpmath.workprec(prec):
        t = mpmath.mpc(tr)
        a = abs(t) ** 2
        return a * a - 8 * (t**3).real + 18 * a - 27


def classify_isometry(tr, prec: int = DEFAULT_PREC) -> str:
    """Isometry type from the trace of a det-1 form-preserving matrix, with f = `trace_discriminant`
    at `prec` bits read as 0 within `tolerance(prec)`.

    Returns 'loxodromic', 'regular-elliptic' or 'boundary' (repeated
    modulus-one eigenvalue: parabolic or reflection-like).
    """
    f = trace_discriminant(tr, prec)
    if abs(f) <= tolerance(prec):
        return "boundary"
    return "loxodromic" if f > 0 else "regular-elliptic"
