from fractions import Fraction

import mpmath
import pytest

from chtri import exact
from chtri.exact import (
    Angle,
    Cyclo,
    angle,
    cos_exact,
    cyclotomic_poly,
    printed_value,
    root_of_unity,
    sin_exact,
    to_float,
)


class TestAngle:
    def test_canonicalization(self):
        assert angle(5, 2).frac == Fraction(1, 2)
        assert angle(-1, 2).frac == Fraction(3, 2)
        assert angle(4, 2).frac == 0
        assert angle(6, 4) == angle(3, 2)

    def test_zero_denominator_rejected(self):
        for num in (1, 0, -3):
            with pytest.raises(ValueError):
                angle(num, 0)

    def test_arithmetic(self):
        assert (angle(1, 3) + angle(1, 6)).frac == Fraction(1, 2)
        assert (angle(1, 6) - angle(1, 3)).frac == Fraction(11, 6)
        assert (-angle(1, 4)).frac == Fraction(7, 4)
        assert angle(1, 6).scaled(3) == angle(1, 2)

    def test_order_is_num_then_den(self):
        # a canonical order for keys, not the numeric order of num/den
        assert angle(1, 2) < angle(1, 3) and angle(1, 3).frac < angle(1, 2).frac
        assert angle(1, 7) < angle(2, 3) < angle(3, 2)
        assert sorted([angle(5, 3), angle(0, 1), angle(1, 6), angle(1, 1)]) == [
            angle(0, 1), angle(1, 1), angle(1, 6), angle(5, 3)]
        assert angle(2, 4) <= angle(1, 2) and not angle(1, 2) < angle(2, 4)


class TestCyclotomicPoly:
    def test_known_polynomials(self):
        # ascending coefficient tuples
        assert cyclotomic_poly(1) == (-1, 1)
        assert cyclotomic_poly(2) == (1, 1)
        assert cyclotomic_poly(3) == (1, 1, 1)
        assert cyclotomic_poly(4) == (1, 0, 1)
        assert cyclotomic_poly(6) == (1, -1, 1)
        assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)

    def test_degree_is_totient(self):
        # phi(105) = 48; 105 is the first index with coefficient +-2
        poly = cyclotomic_poly(105)
        assert len(poly) - 1 == 48
        assert min(poly) == -2


class TestCyclo:
    def test_root_sums_to_zero(self):
        # 1 + z5 + z5^2 + z5^3 + z5^4 = 0
        total = Cyclo.zero()
        for k in range(5):
            total = total + Cyclo.root(5, k)
        assert total.is_zero()

    def test_euler_identity(self):
        assert (root_of_unity(angle(1, 1)) + 1).is_zero()

    def test_conductor_reduction(self):
        # z8^2 = i lives at conductor 4
        x = Cyclo.root(8, 2)
        assert x == Cyclo.i()
        assert x.n == 4

    def test_cos_sin_pythagoras(self):
        for num, den in [(1, 7), (3, 8), (5, 12), (2, 9)]:
            c, s = cos_exact(angle(num, den)), sin_exact(angle(num, den))
            assert (c * c + s * s - 1).is_zero()

    def test_cos_known_values(self):
        assert cos_exact(angle(1, 3)) == Fraction(1, 2)
        assert cos_exact(angle(1, 2)).is_zero()
        assert cos_exact(angle(1, 1)) == -1
        # cos(pi/5) = (1 + sqrt(5))/4: check 16c^2 - 8c - 4 = 0... use minimal
        c = cos_exact(angle(1, 5))
        assert (c * c * 4 - c * 2 - 1).is_zero()

    def test_conj_and_abs2(self):
        x = Cyclo.root(7, 3) + 2
        assert (x * x.conj() - x.abs2()).is_zero()
        assert x.abs2().is_real()
        # |2 + z7^3|^2 = 5 + 4cos(6 pi/7)
        target = cos_exact(angle(6, 7)) * 4 + 5
        assert (x.abs2() - target).is_zero()

    def test_inverse_roundtrip(self):
        for x in [Cyclo.root(5, 1) + 3, cos_exact(angle(3, 8)), Cyclo.i() - 2]:
            assert (x * x.inverse() - 1).is_zero()

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Cyclo.zero().inverse()

    def test_real_sign(self):
        # pi/8 < pi/7 so cos(pi/8) > cos(pi/7)
        assert (cos_exact(angle(1, 8)) - cos_exact(angle(1, 7))).real_sign() > 0
        assert (cos_exact(angle(1, 7)) - cos_exact(angle(1, 8))).real_sign() < 0
        # 1 + zeta3 + zeta3^2 cancels: the doubles cannot decide, the zero test does
        assert Cyclo(3, {0: 1, 1: 1, 2: 1}).real_sign() == 0
        # the doubles read each coefficient c[e]/d, rounded once: a tiny one needs no more bits, and
        # a numerator or d beyond the doubles' range neither overflows nor decides alone
        assert Cyclo(1, {0: Fraction(1, 2**200)}).real_sign() == 1
        assert Cyclo(3, {0: 1, 1: Fraction(1, 2**1100)}).real_sign() == 1
        assert Cyclo(1, {0: Fraction(-1, 2**1100)}).real_sign() == -1  # 0.0 in doubles, decided at 128 bits
        assert Cyclo(1, {0: -2**1100}).real_sign() == -1  # beyond the doubles: decided by the zero test and 128 bits

    def test_real_sign_of_a_tiny_nonzero_value(self, monkeypatch):
        # x = q cos(pi/7) - p, p/q the best approximation of cos(pi/7) with q < 2^131: |x| < 2^-130, far
        # below the doubles' bound 2^-40 * (q + p).  The zero test proves x nonzero, and `_float_value`
        # reads the same terms from 128 bits, doubling until its bound 2^(13-prec) * (q + p) is below |x|
        with mpmath.workprec(1000):
            c = mpmath.cospi(mpmath.mpf(1) / 7)
            man, exp = c.man_exp
            f = (Fraction(man) * Fraction(2) ** exp).limit_denominator(2 ** 131)
            want = int(mpmath.sign(c * f.denominator - f.numerator))
        x = cos_exact(angle(1, 7)) * f.denominator - f.numerator
        precs, value = [], exact._float_value
        monkeypatch.setattr(exact, "_float_value", lambda terms, prec=53: precs.append(prec) or value(terms, prec))
        assert x.real_sign() == want != 0
        assert precs == [53, 128, 256, 512]

    def test_to_mpc_accuracy(self):
        # oracle: direct mpmath evaluation at high precision
        with mpmath.workprec(200):
            x = Cyclo.root(7, 2) + Cyclo.root(5, 1)
            got = x.to_mpc(200)
            want = mpmath.expjpi(mpmath.mpf(4) / 7) + mpmath.expjpi(mpmath.mpf(2) / 5)
            assert abs(got - want) < mpmath.mpf(2) ** -180

    def test_vanishing_cosine_sum(self):
        # cos(pi/7) - cos(2 pi/7) + cos(3 pi/7) = 1/2
        val = cos_exact(angle(1, 7)) - cos_exact(angle(2, 7)) + cos_exact(angle(3, 7))
        assert val == Fraction(1, 2)

    def test_arithmetic_with_scalars(self):
        x = Cyclo.root(5, 1)
        assert ((x + 1) - 1 - x).is_zero()
        assert (x * Fraction(2, 3) - x * 2 / 3).is_zero()
        assert ((2 - x) + (x - 2)).is_zero()

    def test_to_float_helper(self):
        v = to_float(cos_exact(angle(2, 5)), 100)
        with mpmath.workprec(100):
            assert abs(v - mpmath.cospi(mpmath.mpf(2) / 5)) < mpmath.mpf(2) ** -90


class TestPrintedValue:
    def test_exact_zero_prints_zero(self):
        x = cos_exact(angle(1, 3)) - Fraction(1, 2)
        assert printed_value(x, 128, 30) == {"re": "0.0", "im": "0.0"}
        assert printed_value(Cyclo.zero(), 128, 20, strip_zeros=False) == {"re": "0.0", "im": "0.0"}

    def test_exact_real_prints_imaginary_part_zero(self):
        # 2 sin(pi/5) = zeta_20^3 + zeta_20^-3: real, but its float imaginary part is rounding noise
        x = sin_exact(angle(1, 5)) * 2
        assert x.is_real() and x.to_mpc(128).imag != 0
        d = printed_value(x, 128, 30)
        assert d["im"] == "0.0"
        with mpmath.workprec(128):
            assert abs(mpmath.mpf(d["re"]) - 2 * mpmath.sin(mpmath.pi / 5)) < mpmath.mpf(10) ** -28

    def test_non_real_and_float_values(self):
        d = printed_value(root_of_unity(angle(1, 3)), 128, 30)
        assert d["re"] == "0.5" and d["im"].startswith("0.86602540378443864676")
        assert printed_value(mpmath.mpc(1.5, -2), 53, 10) == {"re": "1.5", "im": "-2.0"}
