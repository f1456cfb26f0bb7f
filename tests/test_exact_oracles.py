"""The exact core against independent oracles: sympy for Phi_N, reduction and zero tests, hypothesis for ring laws."""
import math
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import Phase, assume, given, settings, strategies as st
from sympy.abc import x as X

from chtri import exact
from chtri.cosearch import _COSINE_SUMS, trace_table_angles
from chtri.exact import (Angle, ConductorError, Cyclo, Laurent, _float_value, _expjpi, angle, cos_exact, cos_sign,
                         cos_sum, cyclotomic_poly, dot_table)
from chtri.linalg import Mat3
from chtri.trigroup import generic_group

ORACLE = settings(max_examples=60, deadline=None, derandomize=True)


def sympy_coeffs(poly) -> tuple:
    """Ascending coefficients of a sympy Poly as Fractions, trailing zeros dropped."""
    out = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class TestCyclotomicPolyOracle:
    def test_matches_sympy_up_to_400(self):
        for n in range(1, 401):
            assert cyclotomic_poly(n) == sympy_coeffs(sympy.cyclotomic_poly(n, X, polys=True)), n

    @pytest.mark.parametrize("n", [1680, 3276, 6780])
    def test_matches_sympy_at_large_conductors(self, n):
        assert cyclotomic_poly(n) == sympy_coeffs(sympy.cyclotomic_poly(n, X, polys=True))


def sparse_vectors(n: int):
    """Up to 8 nonzero rational coefficients on exponents 0..n-1."""
    coeff = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    return st.dictionaries(st.integers(0, n - 1), coeff, max_size=8)


class TestReductionOracle:
    @pytest.mark.parametrize("n", [105, 360, 1680])
    def test_canonical_at_matches_sympy_rem(self, n):
        phi = sympy.cyclotomic_poly(n, X, polys=True).set_domain(sympy.QQ)

        @ORACLE
        @given(sparse_vectors(n))
        def check(coeffs):
            f = sympy.Poly(sum((sympy.Rational(v.numerator, v.denominator) * X**e
                                for e, v in coeffs.items()), sympy.Integer(0)), X, domain=sympy.QQ)
            assert Cyclo(n, coeffs).canonical_at(n) == sympy_coeffs(sympy.rem(f, phi))

        check()


def polygon(n: int, p: int, r: int, k: int = 1) -> dict:
    """k times the rotated regular p-gon sum_j zeta_n^(r + j*n/p), p a prime dividing n: zero."""
    return {(r + j * (n // p)) % n: k for j in range(p)}


def add_to(coeffs: dict, more: dict) -> None:
    for e, v in more.items():
        coeffs[e] = coeffs.get(e, 0) + v


# Conductors for the differential test against the division by Phi_N; the
# division is slow on dense elements beyond these.
ZERO_TEST_CONDUCTORS = [1, 2, 8, 9, 27, 30, 105, 360, 1680, 2668, 3276]


@st.composite
def polygon_sums(draw, n: int):
    """Integer combinations of rotated p-gons (p from sympy), often plus a few single terms."""
    coeffs: dict = {}
    primes = sympy.primefactors(n)
    if primes:
        gons = st.tuples(st.sampled_from(primes), st.integers(0, n - 1), st.integers(-3, 3))
        for p, r, k in draw(st.lists(gons, max_size=4)):
            add_to(coeffs, polygon(n, p, r, k))
    add_to(coeffs, draw(st.dictionaries(st.integers(0, n - 1), st.integers(-3, 3), max_size=3)))
    return Cyclo(n, coeffs)


class TestAnnihilatorZeroTest:
    @pytest.mark.parametrize("n", ZERO_TEST_CONDUCTORS)
    def test_agrees_with_the_division_by_phi(self, n):
        seen = set()

        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(polygon_sums(n))
        def check(x):
            want = not any(x.canonical())
            assert x.is_zero() == want
            seen.add(want)

        check()
        assert seen == {True, False}

    @pytest.mark.parametrize("n", ZERO_TEST_CONDUCTORS + [30030, 510510])
    def test_rotated_polygons_are_zero_and_one_unit_is_not(self, n):
        primes = sympy.primefactors(n)
        total: dict = {}
        for i, p in enumerate(primes):
            for r in (0, 1, n // 2 + 1):
                gon = Cyclo(n, polygon(n, p, r))
                assert gon.is_zero() and gon == 0, (p, r)
                assert not (gon + Cyclo.root(n, r)).is_zero(), (p, r)
            add_to(total, polygon(n, p, 3 * i + 1, i - 2))
        x = Cyclo(n, total)
        assert x.is_zero()
        for e in (0, 1, n - 1):
            assert not (x + Cyclo.root(n, e)).is_zero() and not (x - Cyclo.root(n, e)).is_zero()

    @pytest.mark.parametrize("n, coeffs, zero", [
        (10, {0: -1, 1: 1, 9: 1, 2: -1, 8: -1}, True),  # 2 (cos(pi/5) - cos(2pi/5) - 1/2)
        (12, {1: 1, 5: 1, 3: -1}, True),
        (30, {1: 1, 11: 1, 21: 1}, True),
        (9, {1: 1, 4: 1, 7: 1}, True),
        (9, {1: 1, 4: 1, 7: 2}, False),
        (20, {0: 1, 1: 3, 7: -1}, False),
    ])
    def test_matches_sympy_minimal_polynomial(self, n, coeffs, zero):
        value = sum((v * sympy.exp(2 * sympy.pi * sympy.I * e / n) for e, v in coeffs.items()), sympy.Integer(0))
        assert (sympy.minimal_polynomial(value, X) == X) == zero
        assert Cyclo(n, coeffs).is_zero() == zero


def fraction_angle(q) -> Angle:
    """The definition: pi * (q mod 2) with q a reduced Fraction."""
    q = Fraction(q) % 2
    return Angle(q.numerator, q.denominator)


def fields(a: Angle) -> tuple:
    return type(a.num), type(a.den), a.num, a.den


class TestIntegerAngles:
    @ORACLE
    @given(st.integers(-400, 400), st.integers(-60, 60).filter(bool), st.integers(-400, 400),
           st.integers(-60, 60).filter(bool), st.fractions(min_value=-20, max_value=20, max_denominator=12),
           st.integers(-7, 7))
    def test_match_the_fraction_definition(self, n1, d1, n2, d2, q, k):
        a, b = angle(n1, d1), angle(n2, d2)
        assert fields(a) == fields(fraction_angle(Fraction(n1, d1)))
        fa, fb = a.frac, b.frac  # scaled multiplies the stored representative in [0, 2)
        assert fields(a + b) == fields(fraction_angle(fa + fb))
        assert fields(a - b) == fields(fraction_angle(fa - fb))
        assert fields(-a) == fields(fraction_angle(-fa))
        assert fields(a.scaled(q)) == fields(fraction_angle(fa * q))
        assert fields(a.scaled(k)) == fields(fraction_angle(fa * k))

    @ORACLE
    @given(st.integers(-400, 400), st.integers(-60, 60).filter(bool), st.integers(-400, 400),
           st.integers(-60, 60).filter(bool))
    def test_halves_thirds_and_sixths_match_the_fraction_definition(self, n1, d1, n2, d2):
        # the integer forms that cosearch builds, against dividing the stored Fraction
        a, b = angle(n1, d1), angle(n2, d2)
        fa, fb = a.frac, b.frac
        for k in (2, 3, 6):
            assert fields(angle(a.num, k * a.den)) == fields(fraction_angle(fa / k))
        half_a, half_b = angle(a.num, 2 * a.den), angle(b.num, 2 * b.den)
        assert fields(half_a - half_b) == fields(fraction_angle((fa - fb) / 2))
        assert fields(half_a + b) == fields(fraction_angle((fa + 2 * fb) / 2))
        assert fields(a + half_b) == fields(fraction_angle((2 * fa + fb) / 2))
        row_i = (Fraction(2, 3), 1 - fa / 3, fa / 6)
        row_ii = (fa, 2 * (fa / 3), Fraction(1, 3) - fa / 3)
        for label, row in (("i", row_i), ("ii", row_ii)):
            assert [fields(x) for x in trace_table_angles(label, a)] == [fields(fraction_angle(q)) for q in row]


# Small conductors and coefficients in -2..2, so that exact zeros (such as
# 1 + zeta3 + zeta3^2) turn up among the draws.
CONDUCTORS = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 20, 24])


@st.composite
def cyclos(draw):
    n = draw(CONDUCTORS)
    coeffs = draw(st.dictionaries(st.integers(0, n - 1), st.integers(-2, 2).map(Fraction), max_size=5))
    return Cyclo(n, coeffs)


class TestCycloRingLaws:
    @ORACLE
    @given(cyclos(), cyclos(), cyclos())
    def test_ring_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert x + 0 == x and x * 1 == x
        assert (x - x).is_zero() and (x * 0).is_zero()

    @ORACLE
    @given(cyclos(), cyclos())
    def test_conj_is_a_ring_homomorphism(self, x, y):
        assert (x + y).conj() == x.conj() + y.conj()
        assert (x * y).conj() == x.conj() * y.conj()
        assert x.conj().conj() == x

    @ORACLE
    @given(cyclos())
    def test_inverse(self, x):
        assume(not x.is_zero())
        assert x * x.inverse() == 1

    @ORACLE
    @given(cyclos())
    def test_real_sign_matches_400_bits(self, x):
        r = x + x.conj()
        with mpmath.workprec(400):
            value = sum((mpmath.mpf(v.numerator) / v.denominator * 2 * mpmath.cospi(mpmath.mpf(2 * e) / x.n)
                         for e, v in x.c.items()), mpmath.mpf(0))
            want = 0 if abs(value) < mpmath.mpf(2) ** -300 else (1 if value > 0 else -1)
        assert r.real_sign() == want


@st.composite
def fraction_cyclos(draw):
    """(n, coeffs) with Fraction coefficients of denominator up to 6, so that d > 1."""
    n = draw(CONDUCTORS)
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    return n, draw(st.dictionaries(st.integers(0, n - 1), coeff, max_size=5))


def reduced(x: Cyclo) -> bool:
    """Numerators and denominator are coprime, d >= 1, and zero is 0/1 in conductor 1."""
    if not x.c:
        return (x.n, x.d) == (1, 1)
    return x.d >= 1 and math.gcd(x.d, *x.c.values()) == 1 and all(type(v) is int for v in x.c.values())


@st.composite
def shared_field_pairs(draw):
    """Two Cyclo with one conductor n and one denominator d: zeta_n^1 / d is a term of each, so neither shrinks."""
    n, d = draw(CONDUCTORS), draw(st.integers(1, 6))
    nums = st.dictionaries(st.integers(0, n - 1), st.integers(-9, 9), max_size=4)
    x, y = (Cyclo(n, {**{e: Fraction(v, d) for e, v in draw(nums).items()}, 1 % n: Fraction(1, d)})
            for _ in range(2))
    return x, y


class TestIntegerNumerators:
    @ORACLE
    @given(fraction_cyclos(), fraction_cyclos(), fraction_cyclos())
    def test_ring_laws_over_a_common_denominator(self, a, b, c):
        x, y, z = (Cyclo(*t) for t in (a, b, c))
        results = [x, y, z, x + y, (x + y) + z, x + (y + z), x * y, (x * y) * z, x * (y * z),
                   x * (y + z), x * y + x * z, -x, x - y, x.conj(), x * Fraction(-5, 4), x / 3]
        assert all(reduced(r) for r in results)
        assert (x + y) + z == x + (y + z) and x + y == y + x
        assert (x * y) * z == x * (y * z) and x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert (x - x).is_zero() and (x * 0).is_zero() and x + 0 == x and x * 1 == x
        assert x * Fraction(-5, 4) * Fraction(4, 5) == -x

    @ORACLE
    @given(fraction_cyclos())
    def test_fraction_coefficients_equal_integer_numerators(self, t):
        n, coeffs = t
        x = Cyclo(n, coeffs)
        den = math.lcm(*(v.denominator for v in coeffs.values()))
        y = Cyclo(n, {e: int(v * den) for e, v in coeffs.items()}) / den
        assert (y.n, y.c, y.d) == (x.n, x.c, x.d)
        assert x == y and reduced(x)

    @ORACLE
    @given(shared_field_pairs())
    def test_operands_in_the_result_field_are_read_in_place(self, xy):
        # +, - and * read the numerators of an operand already in the result's conductor and denominator
        x, y = xy
        assert (x.n, x.d) == (y.n, y.d)
        before = dict(x.c), dict(y.c)
        results = x + y, y + x, x + x, x - y, y - x, x * y, y * x, x * x
        assert (dict(x.c), dict(y.c)) == before
        with mpmath.workprec(128):
            a, b = x.to_mpc(128), y.to_mpc(128)
            for got, want in zip(results, (a + b, a + b, 2 * a, a - b, b - a, a * b, a * b, a * a)):
                assert abs(got.to_mpc(128) - want) < mpmath.mpf(2) ** -100


def uncached_to_mpc(x: Cyclo, prec: int):
    """sum(v * e^{2*pi*i*e/n}) / d at prec + 10 bits, in exponent order, each power from expjpi on the
    unreduced 2e/n."""
    with mpmath.workprec(prec + 10):
        total = mpmath.mpc(0)
        for e, v in sorted(x.c.items()):
            total += v * mpmath.expjpi(mpmath.mpf(2 * e) / x.n)
        return total / x.d


class TestCachedToMpc:
    @ORACLE
    @given(fraction_cyclos(), st.sampled_from([53, 128, 256]))
    def test_bit_identical_to_the_uncached_sum(self, t, prec):
        x = Cyclo(*t)
        assert x.to_mpc(prec)._mpc_ == uncached_to_mpc(x, prec)._mpc_

    @pytest.mark.parametrize("prec", [53, 128, 256])
    def test_one_angle_from_two_conductors(self, prec):
        # zeta_6^2 = zeta_3: the term 2 of zeta_6 + zeta_6^2 (conductor 6) and zeta_3 share the entry for 2pi/3
        z3, z6 = Cyclo.root(3), Cyclo(6, {1: 1, 2: 1})
        assert z6.n == 6 and 2 in z6.c and (Cyclo.root(6, 2).n, Cyclo.root(6, 2).c) == (3, {1: 1})
        for first, second in ((z3, z6), (z6, z3)):
            _expjpi.cache_clear()
            assert first.to_mpc(prec)._mpc_ == uncached_to_mpc(first, prec)._mpc_
            hits = _expjpi.cache_info().hits
            assert second.to_mpc(prec)._mpc_ == uncached_to_mpc(second, prec)._mpc_
            assert _expjpi.cache_info().hits > hits

    @pytest.mark.parametrize("prec", [53, 128, 256])
    def test_equal_values_round_to_equal_bits_whatever_the_insertion_order(self, prec):
        # one (n, c, d) with its numerators inserted in two orders; summed in dict order, the two round apart
        terms = [(3, -4), (1, 2), (6, 8), (4, 2), (2, -7)]
        x, y = Cyclo(7, dict(terms)), Cyclo(7, dict(reversed(terms)))
        assert form(x) == form(y) and list(x.c) != list(y.c)
        assert x.to_mpc(prec)._mpc_ == y.to_mpc(prec)._mpc_

    def test_the_cache_is_bounded(self):
        assert _expjpi.cache_info().maxsize == 1024


@st.composite
def laurents(draw, coeffs=None):
    """Up to 4 terms c_k * t^k, k in -6..6, with coefficients from `coeffs`, by default `cyclos`."""
    return Laurent(draw(st.dictionaries(st.integers(-6, 6), cyclos() if coeffs is None else coeffs, max_size=4)))


class TestLaurentEvaluation:
    # evaluation at t = zeta_n is a ring homomorphism, and conj is complex conjugation there
    @ORACLE
    @given(laurents(), laurents(), st.integers(1, 60))
    def test_evaluation_respects_the_ring_and_conj(self, a, b, n):
        x, y = a.at(n), b.at(n)
        # `at` has the (n, c, d) of the term-by-term sum of the c_k * zeta_n^k
        assert form(x) == form(sum((v * Cyclo.root(n, k) for k, v in a.coeffs().items()), Cyclo.zero()))
        assert ((a + b).at(n) - (x + y)).is_zero()
        assert ((a - b).at(n) - (x - y)).is_zero()
        assert ((a * b).at(n) - x * y).is_zero()
        assert (a.conj().at(n) - x.conj()).is_zero()
        assert (a * b - b * a).is_zero() and (a - a).is_zero()


class DictLaurent:
    """The Laurent polynomial that `exact.Laurent` packs, kept as it was before the packing: sum(c[k] * t^k)
    with one Cyclo per power of t, every operation term by term on Cyclos.  The oracle of the packed kernel."""

    def __init__(self, coeffs: dict):
        self.c = {k: v for k, v in coeffs.items() if v.c}

    def __add__(self, other):
        out = dict(self.c)
        for k, v in other.c.items():
            out[k] = out[k] + v if k in out else v
        return DictLaurent(out)

    def __neg__(self):
        return DictLaurent({k: -v for k, v in self.c.items()})

    def __sub__(self, other):
        out = dict(self.c)
        for k, v in other.c.items():
            out[k] = out[k] - v if k in out else -v
        return DictLaurent(out)

    def __mul__(self, other):
        # as `dot_table` formed it: every coefficient viewed in one conductor n over one denominator per side,
        # the numerators of each power of t accumulated together and reduced by one `Cyclo._of`
        n = math.lcm(*(c.n for c in (*self.c.values(), *other.c.values())))
        dx, dy = math.lcm(*(c.d for c in self.c.values())), math.lcm(*(c.d for c in other.c.values()))
        sums = {}
        for k1, a in self.c.items():
            sa, fa = n // a.n, dx // a.d
            for k2, b in other.c.items():
                sb, f = n // b.n, fa * (dy // b.d)
                acc = sums.setdefault(k1 + k2, {})
                for e1, v1 in a.c.items():
                    for e2, v2 in b.c.items():
                        e = (e1 * sa + e2 * sb) % n
                        acc[e] = acc.get(e, 0) + v1 * f * v2
        return DictLaurent({k: Cyclo._of(n, c, dx * dy) for k, c in sums.items()})

    def conj(self):
        return DictLaurent({-k: v.conj() for k, v in self.c.items()})

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.c.values())

    def at(self, n: int) -> Cyclo:
        return sum((v * Cyclo.root(n, k) for k, v in self.c.items()), Cyclo.zero())


def laurent_forms(x) -> dict:
    """{k: (n, d, c)} of the coefficients of a Laurent (read back as Cyclos) or of a DictLaurent."""
    return {k: form(v) for k, v in (x.coeffs() if isinstance(x, Laurent) else x.c).items()}


# the conductors of the certificates' values, t-exponents of both signs, and coefficients over small
# denominators, so that sums cancel and the two sides of a product have different denominators
@st.composite
def packed_and_oracle(draw):
    """(Laurent, DictLaurent) of the same coefficients: up to 4 terms c_k * t^k, k in -9..9."""
    def coefficient(n):
        coeff = st.fractions(min_value=-3, max_value=3, max_denominator=draw(st.sampled_from([1, 1, 2, 6])))
        return st.dictionaries(st.integers(0, n - 1), coeff, max_size=6).map(lambda c: Cyclo(n, c))

    n = draw(st.sampled_from([1, 12, 30, 42, 48, 84]))
    coeffs = draw(st.dictionaries(st.integers(-9, 9), st.sampled_from([1, n]).flatmap(coefficient), max_size=4))
    return Laurent(coeffs), DictLaurent(coeffs)


class TestPackedLaurent:
    # every operation of the packed Laurent against the dict-of-Cyclo oracle: the same coefficients, read
    # back in the same normal forms, the same zero tests and the same values at t = zeta_n
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(packed_and_oracle(), packed_and_oracle(), st.sampled_from([1, 2, 6, 12, 18, 42]))
    def test_matches_the_dict_oracle(self, a, b, n):
        (x, ox), (y, oy) = a, b
        assert laurent_forms(x) == laurent_forms(ox)
        pairs = [(x + y, ox + oy), (x - y, ox - oy), (x * y, ox * oy), (-x, -ox), (x.conj(), ox.conj()),
                 (x * y - y * x, ox * oy - oy * ox), (x - x, ox - ox), (x * x.conj(), ox * ox.conj())]
        for got, want in pairs:
            assert laurent_forms(got) == laurent_forms(want)
            assert got.is_zero() == want.is_zero()
            assert form(got.at(n)) == form(want.at(n))
        assert (x * y - y * x).is_zero() and (x - x).is_zero() and not (x - x).c

    @pytest.mark.parametrize("n", [12, 30, 42, 48, 84])
    def test_zero_tests_of_the_annihilator(self, n):
        # the rotated regular p-gons of each prime p | n are zero, and so is any sum of them; one term is not
        for p in sympy.primefactors(n):
            gon = Laurent({-3: Cyclo(n, polygon(n, p, 1)), 5: Cyclo(n, polygon(n, p, 2, -2))})
            assert gon.c and gon.is_zero() and DictLaurent(gon.coeffs()).is_zero()
            assert not (gon + Laurent.t(7)).is_zero()

    def test_a_bound_at_the_slot_limit_raises(self):
        # conductor 1 has no prime: a value is made while its bound is below 2^(B-1), and each slot of a
        # larger one could wrap, so it raises; conductor 6 has two primes, so 4 * bound must stay below
        limit = 2 ** (exact.SLOT_BITS - 1)
        big = Laurent({0: Cyclo(1, {0: limit // 2})})
        assert big.coeffs()[0] == limit // 2 and (big - Laurent({0: Cyclo.one()})).coeffs()[0] == limit // 2 - 1
        with pytest.raises(OverflowError):
            big + big  # 2^(B-1): one slot past the largest it can hold
        with pytest.raises(OverflowError):
            big * Laurent({0: Cyclo(1, {0: 2})})
        with pytest.raises(OverflowError):
            Laurent({1: Cyclo(6, {1: limit // 4})})
        x = Laurent({1: Cyclo(6, {1: limit // 4 - 1})})
        assert x.coeffs()[1] == Cyclo(6, {1: limit // 4 - 1}) and not x.is_zero()
        root = Laurent({0: Cyclo(6, {0: 1, 1: 1})})  # 1 + zeta_6, of bound 2
        with pytest.raises(OverflowError):
            Laurent({0: Cyclo(6, {1: limit // 8})}) * root
        # over the common denominator 3 the numerator limit // 2 of half is 3 * limit // 2, past the limit
        third, half = Laurent({0: Cyclo(1, {0: Fraction(1, 3)})}), Laurent({0: Cyclo(1, {0: limit // 2})})
        one = Laurent.t(0)
        for combine in (lambda: third + half, lambda: dot_table([[third, half]], [[one, one]]),
                        lambda: dot_table([[one, one]], [[third, half]])):
            with pytest.raises(OverflowError):
                combine()


@st.composite
def matrices(draw, entries, zero):
    """3x3 matrices of nonzero `entries` with up to 5 of them set to zero, so that some products skip terms."""
    xs = draw(st.lists(entries.filter(lambda x: x.c), min_size=9, max_size=9))
    for k in draw(st.sets(st.integers(0, 8), max_size=5)):
        xs[k] = zero
    return Mat3([xs[:3], xs[3:6], xs[6:]])


def form(x: Cyclo) -> tuple:
    return x.n, x.d, x.c


def term_by_term(terms, const) -> Cyclo:
    """sum k * cos(t) + const, one cos_exact and one addition at a time."""
    return sum((cos_exact(t) * k for k, t in terms), Cyclo(1, {0: const}))


# Few small denominators and coefficients -3..3, so that repeated angles,
# cancelling terms and rational sums turn up among the draws.
SMALL_ANGLES = st.integers(1, 12).flatmap(lambda den: st.builds(angle, st.integers(-2 * den, 2 * den), st.just(den)))
COS_TERMS = st.lists(st.tuples(st.integers(-3, 3), SMALL_ANGLES), max_size=6)
CONSTS = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=6))


class TestCosSum:
    def check(self, terms, const) -> Cyclo:
        x = cos_sum(terms, const)
        assert form(x) == form(term_by_term(terms, const)) and reduced(x)
        with mpmath.workprec(400):
            want = sum((k * mpmath.cospi(mpmath.mpf(t.num) / t.den) for k, t in terms),
                       mpmath.mpf(const.numerator) / const.denominator)
        assert abs(x.to_mpc(200) - want) <= mpmath.mpf(2) ** (3 - 200) * (1 + sum(abs(v) for v in x.c.values()) / x.d)
        return x

    @ORACLE
    @given(COS_TERMS, CONSTS)
    def test_equals_the_term_by_term_sum(self, terms, const):
        self.check(terms, const)

    @pytest.mark.parametrize("terms, const, value", [
        ([], 0, 0),
        ([], Fraction(3, 4), Fraction(3, 4)),
        ([(1, angle(2, 7)), (-1, angle(2, 7))], 0, 0),  # cos t - cos t
        ([(2, angle(3, 11)), (-2, angle(-3, 11))], 1, 1),  # cos is even
        ([(5, angle(1, 2))], 0, 0),  # cos pi/2
        ([(1, angle(1, 3))], 0, Fraction(1, 2)),
        ([(1, angle(1, 3))], Fraction(-1, 2), 0),
        ([(1, angle(0)), (1, angle(2, 3)), (1, angle(4, 3))], 0, 0),
        ([(3, angle(1))], Fraction(1, 3), Fraction(-8, 3)),
        ([(1, angle(1, 5)), (-1, angle(2, 5))], Fraction(-1, 2), 0),
        ([(0, angle(1, 7))], 2, 2),
    ])
    def test_cancelling_and_rational_sums(self, terms, const, value):
        assert self.check(terms, const) == value

    @pytest.mark.parametrize("den", [1, 2, 3, 7, 60])
    def test_cos_exact_is_the_one_term_case(self, den):
        for num in range(2 * den):
            t = angle(num, den)
            by_roots = (Cyclo.root(2 * den, num) + Cyclo.root(2 * den, -num)) / 2
            assert form(cos_exact(t)) == form(cos_sum([(1, t)])) == form(by_roots)


# Integer coefficients on angles pi*num/den, den <= 60, drawn from few denominators so that sums cancel;
# num far beyond 2*den too, which the doubles must reduce first.
SIGN_TERMS = st.lists(st.tuples(st.integers(-3, 3), st.one_of(st.integers(-120, 120), st.integers(-10**6, 10**6)),
                                st.sampled_from([1, 2, 3, 5, 12, 60])), max_size=8)


class TestCosSign:
    @ORACLE
    @given(SIGN_TERMS, CONSTS, st.sampled_from([53, 128, 256]))
    def test_within_the_bound_and_sign_of_400_bits(self, terms, const, prec):
        # `_float_value` at prec bits is within its proved 25u * K (u = 2^-prec, + 2^-1012 in doubles) of the
        # value at 400 bits, so 2^8 times inside its E, which is the stated 2^(13-prec) * K (+ 2^-1000 in
        # doubles) and no wider; `cos_sign` is the sign at 400 bits, read as 0 below 2^-300
        v, bound = _float_value([*terms, (const, 0, 1)], prec)
        subnormal = (prec == 53) * mpmath.mpf(2) ** -1000
        with mpmath.workprec(400):
            x = sum((k * mpmath.cospi(mpmath.mpf(num) / den) for k, num, den in terms),
                    mpmath.mpf(const.numerator) / const.denominator)
            mass = abs(const) + sum(abs(k) for k, _, _ in terms)
            assert abs(v - x) <= 25 * mpmath.mpf(2) ** -prec * mass + subnormal / 4096
            assert 256 * abs(v - x) <= bound <= (1 + 2 ** -50) * (mpmath.mpf(2) ** (13 - prec) * mass + subnormal)
            want = 0 if abs(x) < mpmath.mpf(2) ** -300 else (1 if x > 0 else -1)
        assert cos_sign(terms, const) == want

    def test_more_bits_decide_where_the_exact_value_is_too_large(self):
        # 2cos(pi/985) - cos(2pi/1393) - 1 = -3.4e-12 (2 * 985^2 = 1393^2 + 1) is below the doubles' bound,
        # and its conductor lcm(1970, 2786) = 2,744,210 is above CONDUCTOR_LIMIT: 128 bits decide it.  An
        # exact zero of such a conductor stays undecided up to 1024 bits, and the ConductorError stands
        terms = [(2, 1, 985), (-1, 2, 1393)]
        v, bound = _float_value([*terms, (-1, 0, 1)])
        assert abs(v) <= bound and cos_sign(terms, -1) == -1
        with pytest.raises(ConductorError):
            cos_sum([(k, angle(num, den)) for k, num, den in terms], -1)
        with pytest.raises(ConductorError):
            cos_sign([(1, 1, 1000003), (-1, 3, 3000009)])

    def test_coefficients_beyond_the_doubles_go_exact(self):
        # a k of 2^1100 overflows a double: the doubles decide nothing, and the exact value decides
        assert _float_value([(2 ** 1100, 1, 4)]) == (0.0, math.inf)
        assert cos_sign([(2 ** 1100, 1, 4)]) == 1 and cos_sign([(2 ** 1100, 1, 3)], -2 ** 1099) == 0

    @pytest.mark.parametrize("label", sorted(_COSINE_SUMS))
    def test_the_cosine_sum_suites_are_exact_zeros(self, label):
        # each identity at phi = 0: the doubles cannot decide, and the exact value is 0
        terms, target, _ = _COSINE_SUMS[label]
        v, bound = _float_value([*terms, (-target, 0, 1)])
        assert abs(v) <= bound and cos_sign(terms, -target) == 0

    def test_a_given_exact_value_is_built_only_when_the_doubles_cannot_decide(self):
        built = []

        def exact():
            built.append(1)
            return cos_sum([(1, angle(1, 3))], Fraction(-1, 2))

        assert cos_sign([(1, 1, 3)], Fraction(-1, 2), exact) == 0 and built == [1]  # cos(pi/3) - 1/2 = 0
        assert cos_sign([(1, 1, 4)], Fraction(-1, 2), exact) == 1 and built == [1]


class TestSubtraction:
    # x - y subtracts in one pass, and must give exactly the (n, c, d) of x + (-y)
    @ORACLE
    @given(cyclos(), cyclos(), st.integers(-3, 3))
    def test_cyclo(self, x, y, k):
        assert form(x - y) == form(x + (-y)) and reduced(x - y)
        assert form(x - k) == form(x + (-k)) and form(k - x) == form(k + (-x))

    @ORACLE
    @given(fraction_cyclos(), fraction_cyclos())
    def test_cyclo_over_common_denominators(self, a, b):
        x, y = Cyclo(*a), Cyclo(*b)
        assert form(x - y) == form(x + (-y)) and reduced(x - y)
        assert form(x - x) == form(Cyclo.zero())

    @ORACLE
    @given(laurents(), laurents(), cyclos(), st.integers(-3, 3))
    def test_laurent(self, a, b, x, k):
        def forms(f: Laurent) -> dict:
            return {e: form(v) for e, v in f.coeffs().items()}

        assert forms(a - b) == forms(a + (-b))
        assert forms(a - x) == forms(a + (-x)) and forms(x - a) == forms(-a + x)
        assert forms(a - k) == forms(a + (-k)) and forms(k - a) == forms(-a + k)
        assert not (a - a).c


MIXED_CYCLOS = st.one_of(cyclos(), fraction_cyclos().map(lambda a: Cyclo(*a)))


class TestExactProducts:
    # the exact product skips a term with a factor that is zero as written; the dense sum is the oracle
    @pytest.mark.parametrize("entries, zero, examples", [(cyclos(), Cyclo.zero(), 20), (laurents(), Laurent({}), 8)])
    def test_equal_the_dense_sum(self, entries, zero, examples):
        seen = set()

        # no shrink phase: shrinking a failing pair of 3x3 matrices takes minutes
        @settings(max_examples=examples, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.generate))
        @given(matrices(entries, zero), matrices(entries, zero))
        def check(a, b):
            prod = a * b
            for i in range(3):
                for j in range(3):
                    dense = a[i, 0] * b[0, j] + a[i, 1] * b[1, j] + a[i, 2] * b[2, j]
                    assert type(prod[i, j]) is type(zero) and (prod[i, j] - dense).is_zero()
                    seen.add(sum(bool(a[i, k].c and b[k, j].c) for k in range(3)))

        check()
        assert seen == {0, 1, 2, 3}  # terms skipped and terms kept, in every number

    # each entry of a product must keep each coefficient's (n, c, d): the term-by-term sum is the oracle, built
    # from `Cyclo` products and sums only (a Laurent product is one packed sum of products): c1 * c2 added to the
    # coefficient of t^(k1 + k2) for each pair of terms c1 t^k1, c2 t^k2 (a Cyclo c is c t^0); denominators
    # 1..6 give the two sides of a product different denominators
    @pytest.mark.parametrize("entries, zero, examples", [(MIXED_CYCLOS, Cyclo.zero(), 20),
                                                         (laurents(MIXED_CYCLOS), Laurent({}), 8)])
    def test_keep_the_forms_of_the_term_by_term_sum(self, entries, zero, examples):
        def forms(x) -> dict:
            return {k: form(v) for k, v in x.coeffs().items()} if isinstance(x, Laurent) else {0: form(x)}

        def terms(x) -> dict:
            return x.coeffs() if isinstance(x, Laurent) else {0: x}

        def term_by_term(xs, ys):
            if isinstance(zero, Cyclo):
                return sum((x * y for x, y in zip(xs, ys)), zero)
            out = {}
            for x, y in zip(xs, ys):
                for k1, c1 in terms(x).items():
                    for k2, c2 in terms(y).items():
                        k = k1 + k2
                        out[k] = out[k] + c1 * c2 if k in out else c1 * c2
            return Laurent(out)

        # no shrink phase, as in test_equal_the_dense_sum
        @settings(max_examples=examples, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.generate))
        @given(matrices(entries, zero), matrices(entries, zero), matrices(MIXED_CYCLOS, Cyclo.zero()))
        def check(a, b, c):
            prod, cols = a * b, tuple(zip(*b.rows))
            for i, row in enumerate(a.rows):
                for j, col in enumerate(cols):
                    want = forms(term_by_term(row, col))
                    assert forms(prod[i, j]) == want
                    # one product x * y
                    assert forms(row[j] * col[i]) == forms(term_by_term(row[j:j + 1], col[i:i + 1]))
            v = c.rows[0]  # a Cyclo vector with zero entries; times a Laurent matrix it gives a Laurent vector
            for row, got in zip(a.rows, a.apply(v)):
                assert type(got) is type(zero) and forms(got) == forms(term_by_term(row, v))

        check()

    def test_one_pass_per_entry(self, monkeypatch):
        # a 3x3 Laurent product multiplies no Cyclo or Laurent, builds no Cyclo, and folds its packed sums
        # once per (entry, power of t)
        g = generic_group(5, 4, 1)
        a, b = g.S * g.S, g.R1 * g.R3  # 24 term pairs over 12 (entry, power of t)
        powers = sum(len({k1 + k2 for k in range(3) for k1 in a[i, k].c for k2 in b[k, j].c})
                     for i in range(3) for j in range(3))
        products, folds, cyclos, fold, of = [], [], [], exact._fold, Cyclo._of

        for cls in (Cyclo, Laurent):
            for name in ("__mul__", "__rmul__"):
                monkeypatch.setattr(cls, name, lambda x, y, f=getattr(cls, name): products.append(f) or f(x, y))
        monkeypatch.setattr(exact, "_fold", lambda v, n: folds.append(n) or fold(v, n))
        monkeypatch.setattr(Cyclo, "_of", classmethod(lambda cls, n, c, d: cyclos.append(n) or of(n, c, d)))
        prod = a * b
        assert products == [] and cyclos == [] and len(folds) == powers
        monkeypatch.undo()
        assert prod == Mat3([[sum((a[i, k] * b[k, j] for k in range(3)), Laurent({})) for j in range(3)]
                             for i in range(3)])

    @pytest.mark.parametrize("one, zero", [(Cyclo.one(), Cyclo.zero()), (Laurent.t(1), Laurent({}))])
    def test_a_row_and_column_of_zero_terms_give_a_zero_of_the_entry_type(self, one, zero):
        a = Mat3([[one, zero, zero], [zero, one, zero], [zero, zero, one]])
        b = Mat3([[zero, one, one], [one, one, one], [one, one, one]])
        entry = (a * b)[0, 0]
        assert type(entry) is type(zero) and entry.is_zero() and not entry.c
