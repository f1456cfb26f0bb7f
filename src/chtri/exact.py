"""Exact angles (rational multiples of pi) and cyclotomic numbers.

An ``Angle`` is pi times a reduced fraction, canonicalized to [0, 2pi).
A ``Cyclo`` is an element of a cyclotomic field Q(zeta_N), stored as
sparse integer numerators on the powers of zeta_N = e^{2*pi*i/N} over one
common denominator; ``Fraction`` appears only at the API edge.  Zero
testing (and hence equality) is exact and needs no division: x is zero iff
x * prod_{p | N} (1 - X^{N/p}) vanishes modulo X^N - 1, a few integer
shift-and-subtract passes over the numerators (see ``Cyclo.is_zero``).
Reduction modulo the N-th cyclotomic polynomial, whose power basis is a
Q-basis, is kept for the coefficients that ``canonical`` reports.  Signs are
read in doubles, or at more bits, with one proved bound (``_float_value``), and
exactly only when that cannot decide (``cos_sign``, ``Cyclo.real_sign``).
A ``Laurent`` is a polynomial in t and 1/t over Q(zeta_N) whose coefficients
are each packed into one integer (Kronecker substitution, zeta_N -> 2^32), so
that its products are big-integer products; a tracked bound keeps every packed
numerator from overflowing its slot (see ``Laurent``).
"""
from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath

CONDUCTOR_LIMIT = 10**6


class ConductorError(ValueError):
    """Raised when an operation would exceed the conductor bound."""


# ---------------------------------------------------------------------------
# Angles


@dataclass(frozen=True, order=True, slots=True)
class Angle:
    """The angle pi*num/den, stored reduced with 0 <= num/den < 2.

    Angles order as (num, den) tuples: a canonical order for keys and
    representatives, not the numeric order of num/den (``frac`` gives that).
    """

    num: int
    den: int

    @property
    def frac(self) -> Fraction:
        """The angle as a fraction of pi."""
        return Fraction(self.num, self.den)

    def __add__(self, other: "Angle") -> "Angle":
        return angle(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "Angle") -> "Angle":
        return angle(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "Angle":
        return angle(-self.num, self.den)

    def scaled(self, q) -> "Angle":
        """The angle multiplied by a rational factor q, an int or Fraction (mod 2pi)."""
        return angle(self.num * q.numerator, self.den * q.denominator)

    def __str__(self) -> str:
        if self.num == 0:
            return "0"
        if self.den == 1:
            return f"{self.num}pi" if self.num != 1 else "pi"
        n = "" if self.num == 1 else str(self.num)
        return f"{n}pi/{self.den}"


def angle(num: int, den: int = 1) -> Angle:
    """Build the angle pi*num/den, canonicalized to [0, 2pi): reduced, den > 0, num mod 2*den."""
    if den == 0:
        raise ValueError("invalid angle")
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return Angle(num % (2 * den), den)


# ---------------------------------------------------------------------------
# Cyclotomic polynomials (integer coefficients, ascending order)


def _divmod_monic(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials (ascending); den must be monic.

    Each step subtracts only den's nonzero terms, so a sparse den is cheap.
    """
    deg = len(den) - 1
    terms = [(j - deg, c) for j, c in enumerate(den[:-1]) if c]
    rem = list(num)
    quo = [0] * max(len(rem) - deg, 0)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            quo[i - deg] = c
            for off, d in terms:
                rem[i + off] -= c * d
    return quo, rem[:deg]


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n, ascending."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending.

    With q the largest prime factor of n = q*k: Phi_n(x) = Phi_k(x^q) when q
    divides k, else Phi_k(x^q) / Phi_k(x).  The largest q keeps the divisor
    Phi_k, and so the division, small.
    """
    if n == 1:
        return (-1, 1)
    q = _prime_factors(n)[-1]
    k = n // q
    base = cyclotomic_poly(k)
    stretched = [0] * ((len(base) - 1) * q + 1)
    stretched[::q] = base
    if k % q == 0:
        return tuple(stretched)
    return tuple(_divmod_monic(stretched, base)[0])


def _canonical_coeffs(n: int, coeffs: dict[int, int], d: int) -> tuple[Fraction, ...]:
    """Coefficients of sum(coeffs[e] * zeta_n^e) / d reduced mod Phi_n, trailing zeros dropped."""
    if not coeffs:
        return ()
    dense = [0] * (max(coeffs) + 1)
    for e, v in coeffs.items():
        dense[e] = v
    red = _divmod_monic(dense, cyclotomic_poly(n))[1]
    while red and red[-1] == 0:
        red.pop()
    return tuple(Fraction(x, d) for x in red)


@lru_cache(maxsize=1024)
def _expjpi(num: int, den: int, prec: int):
    """e^{i*pi*num/den} at `prec` bits, num/den reduced; mpf division rounds correctly, so any form gives these bits."""
    with mpmath.workprec(prec):
        return mpmath.expjpi(mpmath.mpf(num) / den)


# ---------------------------------------------------------------------------
# Cyclotomic numbers


def _coerce(x):
    if isinstance(x, Cyclo):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclo(1, {0: x})
    return None


class Cyclo:
    """A cyclotomic number sum(c[e] * zeta_n^e) / d: integer numerators c over one denominator d.

    The numerators and d >= 1 have no common factor; zero has n = d = 1.
    """

    __slots__ = ("n", "c", "d")

    def __init__(self, n: int, coeffs: dict):
        """coeffs maps exponents to int or Fraction coefficients."""
        if n < 1:
            raise ValueError("conductor must be positive")
        d = math.lcm(*(v.denominator for v in coeffs.values()))
        c = {}
        for e, v in coeffs.items():
            if v:
                e %= n
                c[e] = c.get(e, 0) + v.numerator * (d // v.denominator)
        x = Cyclo._of(n, c, d)
        self.n, self.c, self.d = x.n, x.c, x.d

    @classmethod
    def _of(cls, n: int, c: dict[int, int], d: int) -> "Cyclo":
        """sum(c[e] * zeta_n^e) / d from integer numerators with exponents in [0, n) and d >= 1.

        Zeros are dropped, the conductor is shrunk and the common factor of c and d divided out.
        """
        if n > CONDUCTOR_LIMIT:
            raise ConductorError("conductor too large")
        c = {e: v for e, v in c.items() if v}
        if c:
            g = math.gcd(n, *c)  # cheap conductor shrink: gcd of exponents with n
            if g > 1:
                n = n // g
                c = {e // g: v for e, v in c.items()}
            k = math.gcd(d, *c.values())
            if k > 1:
                d //= k
                c = {e: v // k for e, v in c.items()}
        else:
            n = d = 1
        x = object.__new__(cls)
        x.n, x.c, x.d = n, c, d
        return x

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "Cyclo":
        return cls(1, {})

    @classmethod
    def one(cls) -> "Cyclo":
        return cls(1, {0: 1})

    @classmethod
    def root(cls, n: int, k: int = 1) -> "Cyclo":
        """zeta_n^k."""
        return cls(n, {k % n: 1})

    @classmethod
    def i(cls) -> "Cyclo":
        return cls.root(4, 1)

    # -- representation -----------------------------------------------------

    def _lift(self, m: int, k: int = 1) -> dict[int, int]:
        """Numerators times k, viewed in conductor m (n must divide m)."""
        step = m // self.n
        return {e * step: v * k for e, v in self.c.items()}

    def canonical(self) -> tuple[Fraction, ...]:
        """Coefficients on the power basis 1..zeta^{phi(n)-1}, reduced mod Phi_n."""
        return _canonical_coeffs(self.n, self.c, self.d)

    def canonical_at(self, n: int) -> tuple[Fraction, ...]:
        """Canonical coefficients viewed in conductor n (a multiple of self.n)."""
        if n == self.n:
            return self.canonical()
        if n % self.n:
            raise ValueError("conductor must be a multiple")
        return _canonical_coeffs(n, self._lift(n), self.d)

    def __repr__(self) -> str:
        terms = [f"{Fraction(v, self.d)}" + (f"*z{self.n}^{e}" if e else "") for e, v in sorted(self.c.items())]
        return "Cyclo(" + (" + ".join(terms) or "0") + ")"

    # -- arithmetic ---------------------------------------------------------

    def _conductor(self, other: "Cyclo") -> int:
        n = self.n * other.n // math.gcd(self.n, other.n)
        if n > CONDUCTOR_LIMIT:
            raise ConductorError("conductor too large")
        return n

    def _plus(self, other: "Cyclo", subtract: bool = False) -> "Cyclo":
        """self + other, or self - other, over the lcm of the conductors and of the denominators."""
        n = self._conductor(other)
        d = self.d * other.d // math.gcd(self.d, other.d)
        a = self._lift(n, d // self.d)  # a copy: the result is built in it
        b = other.c if other.n == n and other.d == d else other._lift(n, d // other.d)
        if subtract:
            for e, v in b.items():
                a[e] = a.get(e, 0) - v
        else:
            for e, v in b.items():
                a[e] = a.get(e, 0) + v
        return Cyclo._of(n, a, d)

    def __add__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else self._plus(other)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else self._plus(other, subtract=True)

    def __rsub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else other._plus(self, subtract=True)

    def __neg__(self):
        return Cyclo._of(self.n, {e: -v for e, v in self.c.items()}, self.d)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclo._of(self.n, self._lift(self.n, other.numerator), self.d * other.denominator)
        if not isinstance(other, Cyclo):
            return NotImplemented
        n = self._conductor(other)
        a = self.c if self.n == n else self._lift(n)  # only read: no copy needed at conductor n
        b = other.c if other.n == n else other._lift(n)
        out: dict[int, int] = {}
        for e1, v1 in a.items():
            for e2, v2 in b.items():
                e = e1 + e2
                if e >= n:
                    e -= n
                out[e] = out.get(e, 0) + v1 * v2
        return Cyclo._of(n, out, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def conj(self) -> "Cyclo":
        return Cyclo._of(self.n, {(self.n - e) % self.n: v for e, v in self.c.items()}, self.d)

    def abs2(self) -> "Cyclo":
        """|x|^2 = x * conj(x)."""
        return self * self.conj()

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        """Exact zero test by the prime-factor annihilator, without reducing mod Phi_n.

        With v(X) = sum(c[e] * X^e), x is zero iff v(X) * prod_{p | n} (1 - X^{n/p})
        is 0 mod X^n - 1; each prime p is one pass v <- v - X^{n/p} * v.  Proof:
        X^n - 1 has simple roots, so the product is 0 mod X^n - 1 iff it vanishes at
        every n-th root of unity.  The product of the (1 - X^{n/p}) vanishes at
        zeta_n^k iff some p | n divides k, that is exactly at the non-primitive
        roots.  So the test asks that v vanish at every primitive n-th root; these
        are the Galois conjugates of zeta_n, and v has rational coefficients, so
        that holds iff v(zeta_n) = 0.  Each pass at most doubles the entries.
        """
        n, v = self.n, self.c
        for p in _prime_factors(n):
            if not v:
                break
            s = n // p
            w = dict(v)
            for e, c in v.items():
                e = (e + s) % n
                w[e] = w.get(e, 0) - c
            v = {e: c for e, c in w.items() if c}
        return not v

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("Cyclo is not hashable")

    def is_real(self) -> bool:
        return (self - self.conj()).is_zero()

    def inverse(self) -> "Cyclo":
        """Multiplicative inverse, via exact linear solve on the power basis."""
        n = self.n
        deg = len(cyclotomic_poly(n)) - 1
        cols = []
        for idx in range(deg):
            can = (self * Cyclo.root(n, idx)).canonical_at(n)
            col = list(can) + [Fraction(0)] * (deg - len(can))
            cols.append(col)
        # solve  sum_i x_i * cols[i] = e_0  by Gaussian elimination
        mat = [[cols[j][i] for j in range(deg)] for i in range(deg)]
        rhs = [Fraction(1)] + [Fraction(0)] * (deg - 1)
        for col in range(deg):
            piv = None
            for r in range(col, deg):
                if mat[r][col]:
                    piv = r
                    break
            if piv is None:
                raise ZeroDivisionError("inverse of zero cyclotomic number")
            mat[col], mat[piv] = mat[piv], mat[col]
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
            inv = 1 / mat[col][col]
            mat[col] = [x * inv for x in mat[col]]
            rhs[col] *= inv
            for r in range(deg):
                if r != col and mat[r][col]:
                    f = mat[r][col]
                    mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
                    rhs[r] -= f * rhs[col]
        return Cyclo(n, {e: rhs[e] for e in range(deg)})

    # -- numeric conversion -------------------------------------------------

    def to_mpc(self, prec: int = 53):
        """Numeric value at `prec` bits; error <= 2^(3-prec)*(1+sum|coeffs|).  The terms are added in
        exponent order, so the bits depend on (n, c, d) alone."""
        if prec < 53:
            raise ValueError("precision must be at least 53 bits")
        with mpmath.workprec(prec + 10):
            total = mpmath.mpc(0)
            for e, v in sorted(self.c.items()):
                g = math.gcd(2 * e, self.n)
                total += v * _expjpi(2 * e // g, self.n // g, prec + 10)
            return total / self.d

    def real_sign(self) -> int:
        """Sign of the real part (-1, 0, or +1), exactly: the `cos_sign` of its terms (c[e]/d) * cos(2pi*e/n),
        with itself as the exact value."""
        return cos_sign([(Fraction(v, self.d) if self.d > 1 else v, 2 * e, self.n) for e, v in self.c.items()],
                        exact=lambda: self)


# ---------------------------------------------------------------------------
# Laurent polynomials over Q(zeta_N), packed

# B, the width of one slot of a packed Laurent coefficient.  The certificates' bounds times 2^w stay below
# 2^16 (every candidate id, and every (k,k) up to k = 60), so 32 bits leave 2^15 of room at half the
# integer length of 64, and a value past the room raises.
SLOT_BITS = 32
_SLOT_TYPE = next(t for t in "bhilq" if array(t).itemsize * 8 == SLOT_BITS)  # the signed C integer of one slot


@lru_cache(maxsize=None)
def _slot_offset(n: int) -> int:
    """2^(B-1) in each of n slots: the sign bit of every slot."""
    return ((1 << (SLOT_BITS * n)) - 1) // ((1 << SLOT_BITS) - 1) << (SLOT_BITS - 1)


def _slots(v: int, n: int) -> list[int]:
    """The n signed slots c_e of v = sum(c_e * 2^(B*e)), each |c_e| < 2^(B-1), ascending in e."""
    off = _slot_offset(n)
    return memoryview(((v + off) ^ off).to_bytes(SLOT_BITS // 8 * n, sys.byteorder)).cast(_SLOT_TYPE).tolist()


def _pack(slots) -> int:
    """sum(c_e * 2^(B*e)) over the signed slots c_e, each |c_e| < 2^(B-1); `_slots` inverts it."""
    off = _slot_offset(len(slots))
    return (int.from_bytes(array(_SLOT_TYPE, slots).tobytes(), sys.byteorder) ^ off) - off


@lru_cache(maxsize=None)
def _slot_room(n: int) -> int:
    """2^(B-1-w), w the number of primes dividing n: the bound of a Laurent in conductor n stays below it."""
    if n > CONDUCTOR_LIMIT:
        raise ConductorError("conductor too large")
    return 1 << (SLOT_BITS - 1 - len(_prime_factors(n)))


def _fold(v: int, n: int) -> int:
    """R(X) modulo X^n - 1 at X = 2^B, for v = R(2^B) with deg R < 2n - 1 and every |coefficient| below
    2^(B-1): v split at 2^(B*n), rounded to nearest (see `Laurent`)."""
    w = SLOT_BITS * n
    hi = (v + (1 << (w - 1))) >> w
    return v - (hi << w) + hi


class Laurent:
    """sum(P_k(zeta_n) / d * t^k), for t on the unit circle (t = e^{i*pi/(3p)} in `trigroup`), each
    P_k(X) = sum(c[k, e] * X^e) in Z[X]/(X^n - 1) packed into the one integer c[k] = P_k(2^B), B = SLOT_BITS.

    This is Kronecker substitution, zeta_n^e -> 2^(B*e), with one conductor n and one denominator d for
    every coefficient: a product of two coefficients is one integer product and one `_fold`.  `bound` is
    an upper bound on the numerators' L1 norm, sum(|c[k, e]|).  conj maps t to 1/t and conjugates each
    coefficient, so it is complex conjugation at every such t.  Coefficients that are zero as written
    are dropped; `is_zero` tests the others exactly, and `coeffs` reads them back as Cyclos.

    Claim: every c[k] holds its c[k, e] exactly, and every operation reads and writes them exactly,
    while bound * 2^w < 2^(B-1), w the number of primes dividing n; a value whose bound reaches that
    raises OverflowError when it is made (`_of`), so no slot ever wraps.  Proof:
    - an integer sum(c_e * 2^(B*e)) with every |c_e| < 2^(B-1) fixes its c_e: adding 2^(B-1) to each
      slot makes it lie in [0, 2^B), with no carry (`_slots`); each |c[k, e]| is at most the L1 norm;
    - the L1 norm of a sum is at most the sum of theirs; of a product before folding at most the product
      of theirs, as each coefficient of P * Q sums products of one c of P and one of Q (`dot_table` adds these
      products over its pairs, and so their bounds); scaling to a common denominator by f scales both by
      f; negation, conj and a view in a multiple of n (`_view`) move or spread the slots and keep the norm;
    - a product P * Q has degree below 2n - 1 and splits as R_lo + X^n * R_hi, deg R_lo < n, with
      |R_lo(2^B)| <= (2^(B-1) - 1) * (2^(B*n) - 1) / (2^B - 1) < 2^(B*n - 1): so the split of the
      integer at 2^(B*n) rounded to nearest gives R_lo(2^B) and R_hi(2^B) exactly, and their sum is
      the product modulo X^n - 1, of no larger norm (`_fold`);
    - `is_zero`'s w annihilator passes v <- v - X^(n/p) * v each at most double the norm of v, so
      every slot stays below bound * 2^w < 2^(B-1) through all of them.
    """

    __slots__ = ("c", "n", "d", "bound")

    def __init__(self, coeffs: dict):
        """coeffs maps integer exponents to Cyclo coefficients."""
        coeffs = {k: v for k, v in coeffs.items() if v.c}
        n = math.lcm(1, *(v.n for v in coeffs.values()))
        d = math.lcm(1, *(v.d for v in coeffs.values()))
        c, bound = {}, 0
        for k, v in coeffs.items():
            step, f = n // v.n, d // v.d
            c[k] = sum(x * f << SLOT_BITS * e * step for e, x in v.c.items())
            bound += f * sum(map(abs, v.c.values()))
        x = Laurent._of(c, n, d, bound)
        self.c, self.n, self.d, self.bound = x.c, x.n, x.d, x.bound

    @classmethod
    def _of(cls, c: dict, n: int, d: int, bound: int) -> "Laurent":
        """The value of the nonzero packed coefficients c in conductor n over d; raises OverflowError
        when bound * 2^w reaches 2^(B-1) (see the class docstring)."""
        if bound >= _slot_room(n):
            raise OverflowError("Laurent coefficients may overflow their slots")
        x = object.__new__(cls)
        x.c, x.n, x.d, x.bound = (c, n, d, bound) if c else ({}, 1, 1, 0)
        return x

    @classmethod
    def t(cls, k: int) -> "Laurent":
        """t^k."""
        return cls._of({k: 1}, 1, 1, 1)

    def _view(self, n: int, d: int) -> dict:
        """The packed coefficients in conductor n (a multiple of self.n) over d (a multiple of self.d); in
        conductor 1 a coefficient is its one slot at every n."""
        c = self.c
        if n != self.n and self.n > 1:
            s, c, spread = n // self.n, {}, array(_SLOT_TYPE, bytes(SLOT_BITS // 8 * n))
            for k, v in self.c.items():
                spread[::s] = array(_SLOT_TYPE, _slots(v, self.n))
                c[k] = _pack(spread)
        if d != self.d:
            f = d // self.d
            c = {k: v * f for k, v in c.items()}
        return c

    def _plus(self, other: "Laurent", sign: int) -> "Laurent":
        """self + sign * other, over the lcm of the conductors and of the denominators."""
        n, d = self.n, self.d
        if other.n != n or other.d != d:
            n, d = math.lcm(n, other.n), math.lcm(d, other.d)
        out = dict(self._view(n, d))
        for k, v in other._view(n, d).items():
            v = out[k] + sign * v if k in out else sign * v
            if v:
                out[k] = v
            else:
                del out[k]
        return Laurent._of(out, n, d, self.bound * (d // self.d) + other.bound * (d // other.d))

    def __add__(self, other):
        other = _lift_laurent(other)
        return NotImplemented if other is None else self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Laurent._of({k: -v for k, v in self.c.items()}, self.n, self.d, self.bound)

    def __sub__(self, other):
        other = _lift_laurent(other)
        return NotImplemented if other is None else self._plus(other, -1)

    def __rsub__(self, other):
        other = _lift_laurent(other)
        return NotImplemented if other is None else other - self

    def __mul__(self, other):
        other = _lift_laurent(other)
        if other is None:
            return NotImplemented
        n = math.lcm(self.n, other.n)
        pair = (self._view(n, self.d), self.bound), (other._view(n, other.d), other.bound)
        return _sum_of_products((pair,), n, self.d * other.d)

    __rmul__ = __mul__

    def conj(self) -> "Laurent":
        def reverse(v):
            slots = _slots(v, self.n)
            return _pack(slots[:1] + slots[:0:-1])
        return Laurent._of({-k: reverse(v) for k, v in self.c.items()}, self.n, self.d, self.bound)

    def is_zero(self) -> bool:
        """Whether every coefficient is zero: `Cyclo.is_zero`'s annihilator passes, each one
        v <- v - X^(n/p) * v as a shift, a subtraction and a `_fold` of the packed integer."""
        n = self.n
        for v in self.c.values():
            for p in _prime_factors(n):
                if not v:
                    break
                v -= _fold(v << SLOT_BITS * (n // p), n)
            if v:
                return False
        return True

    def coeffs(self) -> dict:
        """{k: c_k} with each c_k read back as a Cyclo in `Cyclo._of`'s normal form."""
        return {k: Cyclo._of(self.n, {e: x for e, x in enumerate(_slots(v, self.n)) if x}, self.d)
                for k, v in self.c.items()}

    def at(self, n: int) -> Cyclo:
        """The value at t = zeta_n, exactly: the sum of the read-back coefficients c_k times zeta_n^k."""
        return sum((v * Cyclo.root(n, k) for k, v in self.coeffs().items()), Cyclo.zero())

    def __repr__(self) -> str:
        return "Laurent(" + (" + ".join(f"{v!r}*t^{k}" for k, v in sorted(self.coeffs().items())) or "0") + ")"


def _lift_laurent(x):
    if isinstance(x, Laurent):
        return x
    x = _coerce(x)
    return None if x is None else Laurent({0: x})


def dot_table(rows, cols) -> list:
    """[[sum(x * y for x, y in zip(row, col)) for col in cols] for row in rows] of exact scalars (Cyclo,
    Laurent, int or Fraction), at least one a Laurent, in one pass per entry; a pair with a factor that is
    zero as written adds no term.

    Every entry is lifted to a Laurent (`_lift_laurent`) and viewed once (`Laurent._view`): in one
    conductor n, the lcm of all of theirs, over one denominator for the rows and one for the columns.
    """
    if not all(isinstance(x, Laurent) for v in (*rows, *cols) for x in v):
        rows = [[_lift_laurent(x) for x in v] for v in rows]
        cols = [[_lift_laurent(y) for y in v] for v in cols]
    n = math.lcm(*{x.n for v in (*rows, *cols) for x in v})
    dx = math.lcm(*{x.d for v in rows for x in v})
    dy = math.lcm(*{y.d for v in cols for y in v})
    rows = [[(x._view(n, dx), x.bound * (dx // x.d)) for x in v] for v in rows]
    cols = [[(y._view(n, dy), y.bound * (dy // y.d)) for y in v] for v in cols]
    return [[_sum_of_products(zip(row, col), n, dx * dy) for col in cols] for row in rows]


def _sum_of_products(pairs, n: int, d: int) -> Laurent:
    """sum(a * b) over the ((a's packed coefficients, bound), (b's, bound)) pairs, all in conductor n, over d.

    The products of the packed coefficients of each power of t are added, and folded once (`_fold`): so
    the sum is exact in Z[X]/(X^n - 1), and `coeffs` reads it back in the normal form of the term-by-term
    sum.  A pair with a factor that is zero as written adds no term.
    """
    sums, bound = {}, 0  # power of t -> the unfolded packed sum
    for (ca, ba), (cb, bb) in pairs:
        if ca and cb:
            bound += ba * bb
            for k1, v1 in ca.items():
                for k2, v2 in cb.items():
                    k = k1 + k2
                    if k in sums:
                        sums[k] += v1 * v2
                    else:
                        sums[k] = v1 * v2
    c = {}
    for k, v in sums.items():
        v = _fold(v, n)
        if v:
            c[k] = v
    return Laurent._of(c, n, d, bound)


# ---------------------------------------------------------------------------
# Trigonometric constructors


def root_of_unity(t: Angle) -> Cyclo:
    """e^{i*t} = zeta_{2*den}^num as an exact cyclotomic number."""
    return Cyclo._of(2 * t.den, {t.num: 1}, 1)


def cos_sum(terms, const=0) -> Cyclo:
    """sum(k * cos(t)) + const over a sequence of (int k, Angle t), const an int or Fraction, exactly.

    One pass over one conductor N = lcm(2*den): cos(t) = (zeta_N^e + zeta_N^-e)/2 with
    e = num*N/(2*den), all over the denominator 2*q, q = const.denominator; reduced once.
    """
    n = math.lcm(*(2 * t.den for _, t in terms))
    q = const.denominator
    c = {0: 2 * const.numerator} if const else {}
    for k, t in terms:
        e = t.num * (n // (2 * t.den))
        c[e] = c.get(e, 0) + k * q
        e = (n - e) % n
        c[e] = c.get(e, 0) + k * q
    return Cyclo._of(n, c, 2 * q)


def _float_value(terms, prec: int = 53) -> tuple:
    """(v, E): x = sum(k * cos(pi*num/den)) over the (k, num, den) terms, read in doubles (prec = 53) or
    in mpmath at prec >= 128 bits, and the bound |v| must pass for its sign to be the sign of x.  k is an
    int or Fraction; num, den are ints, 0 < den < 2^1000; there are fewer than 2^60 terms.  In doubles,
    a k or a sum of 2^1024 or more raises OverflowError, and E = inf: the doubles decide nothing.

    v = fsum(k' * cos(pi' * q')), with k' and q' = r / den, r = num mod 2den, each rounded once to prec
    bits, and E = 2^(13-prec) * K' (+ 2^-1000 in doubles), K' = fsum(|k'|).  Claim: |v - x| <= 25u * K
    (+ 2^-1012 in doubles), u = 2^-prec, which E exceeds more than 2^8-fold, as K' >= K(1 - 2u) (- 2^-1012)
    and 2^13 * u = 327 * 25u.  Proof, for rounding to nearest (fl(a op b) = (a op b)(1 + d) + e, |d| <= u,
    and |e| <= 2^-1075 only for a subnormal double; mpmath has none), pi' rounded (mpmath's from 20
    guard bits) and a cos within 1 ulp, at most 2u, as glibc documents and mpmath's guard bits give:
    - the angle pi' * q' in [0, 2pi) is read within ((1+u)^3 - 1) * 2pi < 19u, and cos is
      1-Lipschitz, so its cosine c is within 21u;
    - k' * c, rounded, is within ((1+u)^2 - 1)(1 + 21u)|k| + 21u|k| < 23.1u|k| of k * cos; math.fsum
      rounds the sum of these once, adding at most u(1 + 24u)K, and mpmath.fsum too, once it has dropped
      the addends 2^(2prec) times below another, less than 2^(60-2prec) * K in all;
    - in doubles, q' is 0 or above 2^-1000, and the other subnormal errors e, fewer than 2^62, add < 2^-1012.
    """
    if prec == 53:
        try:
            terms = [(float(k), num, den) for k, num, den in terms]
            v = math.fsum(k * math.cos(math.pi * (num % (2 * den) / den)) for k, num, den in terms)
            return v, math.ldexp(math.fsum(abs(k) for k, _, _ in terms), -40) + 2.0 ** -1000
        except OverflowError:
            return 0.0, math.inf
    with mpmath.workprec(prec):
        def rounded(a, b):
            return mpmath.mpf(mpmath.libmp.from_rational(a, b, prec, mpmath.libmp.round_nearest))
        terms = [(rounded(k.numerator, k.denominator), rounded(num % (2 * den), den)) for k, num, den in terms]
        v = mpmath.fsum(k * mpmath.cos(mpmath.pi * q) for k, q in terms)
        return v, mpmath.ldexp(mpmath.fsum(abs(k) for k, _ in terms), 13 - prec)


def _float_sign(terms, prec: int = 53, last: int = 53) -> int:
    """The sign of the (k, num, den) terms' sum that `_float_value` at prec bits proves, doubling prec up to
    `last` bits; 0 when none does."""
    while prec <= last:
        v, bound = _float_value(terms, prec)
        if abs(v) > bound:
            return 1 if v > 0 else -1
        prec *= 2
    return 0


def cos_sign(terms, const=0, exact=None) -> int:
    """The sign (-1, 0 or +1) of const + sum(k * cos(pi*num/den)) over a sequence of (k, num, den) terms,
    k and const ints or Fractions: by `_float_value` in doubles when they can decide; else the exact value
    is built, exact() when given (a Cyclo whose real part is the sum) or the `cos_sum` of the terms (int k),
    and it is 0 when that is exactly zero, else `_float_value` from 128 bits, doubling up to 2^16, decides.
    When the exact value's conductor is above CONDUCTOR_LIMIT, `_float_value` from 128 bits, doubling up
    to 1024, decides a nonzero value (ConductorError when none does)."""
    terms = [*terms, (const, 0, 1)]
    sign = _float_sign(terms)
    if sign:
        return sign
    try:
        x = exact() if exact is not None else cos_sum([(k, angle(num, den)) for k, num, den in terms[:-1]], const)
    except ConductorError:
        sign = _float_sign(terms, 128, 1 << 10)
        if not sign:
            raise
        return sign
    if x.is_zero():
        return 0
    sign = _float_sign(terms, 128, 1 << 16)
    if not sign:
        raise RuntimeError("cannot determine sign; value may not be real")
    return sign


def cos_exact(t: Angle) -> Cyclo:
    """cos(t), exactly: the one-term `cos_sum`."""
    return cos_sum(((1, t),))


def sin_exact(t: Angle) -> Cyclo:
    """sin(t) = cos(pi/2 - t), exactly."""
    return cos_exact(angle(t.den - 2 * t.num, 2 * t.den))


def printed_value(x, prec: int, digits: int, strip_zeros: bool = True) -> dict:
    """{"re", "im"} strings of a Cyclo or mpmath number to `digits` digits, from `prec` bits.

    An exact zero prints 0, and an exact real prints imaginary part 0, without rounding noise.
    """
    if not isinstance(x, Cyclo):
        v = mpmath.mpc(x)
        re, im = v.real, v.imag
    elif x.is_zero():
        re = im = mpmath.mpf(0)
    else:
        v = x.to_mpc(prec)
        re, im = v.real, (mpmath.mpf(0) if x.is_real() else v.imag)
    return {"re": mpmath.nstr(re, digits, strip_zeros=strip_zeros),
            "im": mpmath.nstr(im, digits, strip_zeros=strip_zeros)}


def to_float(x, prec: int = 53):
    """Numeric value of a Cyclo (or an mpmath number) as an mpmath complex at `prec` bits."""
    return x.to_mpc(prec) if isinstance(x, Cyclo) else mpmath.mpc(x)
