import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from chtri.exact import Cyclo, Laurent, angle, cos_exact, root_of_unity
from chtri.linalg import (
    Mat3,
    SingularMatrixError,
    classify_isometry,
    eigenvalues3,
    hermitian_signature,
    projective_equal,
    projective_order,
    projective_residual,
    tolerance,
    trace_discriminant,
)


def form_residual(m: Mat3, h: Mat3, prec: int = 256):
    """max-norm of adjoint(m)*h*m - h."""
    with mpmath.workprec(prec):
        mf, hf = m.to_float(prec), h.to_float(prec)
        return (mf.adjoint() * hf * mf - hf).max_abs()


def _rand_exact_mat(rng):
    def entry():
        return rng.randint(-3, 3) + Cyclo.i() * rng.randint(-2, 2)

    return Mat3([[entry() for _ in range(3)] for _ in range(3)])


class TestMat3:
    def test_identity_and_mul(self):
        ident = Mat3.identity(exact=True)
        m = _rand_exact_mat(random.Random(1))
        assert (m * ident - m).is_zero_exact()
        assert (ident * m - m).is_zero_exact()

    def test_det_multiplicative(self):
        rng = random.Random(2)
        a, b = _rand_exact_mat(rng), _rand_exact_mat(rng)
        assert ((a * b).det() - a.det() * b.det()).is_zero()

    def test_exact_inverse(self):
        # a product of unitriangular matrices has det exactly 1
        rng = random.Random(3)
        lower, upper = _rand_exact_mat(rng).rows, _rand_exact_mat(rng).rows
        one, zero = Cyclo.one(), Cyclo.zero()
        m = (Mat3([[one if i == j else lower[i][j] if i > j else zero for j in range(3)] for i in range(3)])
             * Mat3([[one if i == j else upper[i][j] if i < j else zero for j in range(3)] for i in range(3)]))
        ident = Mat3.identity(exact=True)
        assert (m * m.inverse() - ident).is_zero_exact() and (m.inverse() * m - ident).is_zero_exact()

    def test_singular_inverse_raises(self):
        z = Cyclo.zero()
        one = Cyclo.one()
        m = Mat3([[one, one, one], [one, one, one], [z, z, one]])
        with pytest.raises(SingularMatrixError):
            m.inverse()

    def test_float_inverse_reads_the_tolerance_of_the_working_precision(self):
        # det 2^-100 is below tolerance(128) = 2^-64, and above tolerance(256) = 2^-128
        one, zero = mpmath.mpc(1), mpmath.mpc(0)
        m = Mat3([[mpmath.mpc(mpmath.ldexp(1, -100)), zero, zero], [zero, one, zero], [zero, zero, one]])
        with mpmath.workprec(128), pytest.raises(SingularMatrixError):
            m.inverse()
        with mpmath.workprec(256):
            assert m.inverse()[0, 0] == mpmath.ldexp(1, 100)

    def test_exact_inverse_needs_det_one(self):
        # an exact matrix with det 2, and a Laurent matrix with det 1 + t
        one, zero, two = Cyclo.one(), Cyclo.zero(), Cyclo(1, {0: 2})
        m = Mat3([[two, one, zero], [zero, one, zero], [zero, zero, one]])
        assert (m.det() - 2).is_zero()
        lone, lzero, t = Laurent({0: one}), Laurent({}), Laurent.t(1)
        lm = Mat3([[lone + t, lzero, lzero], [lzero, lone, t], [lzero, lzero, lone]])
        assert not (lm.det() - 1).is_zero()
        for x in (m, lm):
            with pytest.raises(SingularMatrixError):
                x.inverse()

    def test_inverse_reads_det_from_the_adjugate(self, monkeypatch):
        # a Cyclo, a Laurent and a float matrix of det 1 invert, and three of other dets raise, with no
        # `Mat3.det` call: det is row 0 times the adjugate's column 0
        det, calls = Mat3.det, []
        monkeypatch.setattr(Mat3, "det", lambda m: calls.append(m) or det(m))
        one, zero, two, t = Cyclo.one(), Cyclo.zero(), Cyclo(1, {0: 2}), Laurent.t(1)
        lone, lzero = Laurent({0: one}), Laurent({})
        ident = Mat3.identity(exact=True)
        cyclo = Mat3([[one, Cyclo.i(), zero], [zero, one, zero], [Cyclo(1, {0: 3}), zero, one]])
        for m in (cyclo, Mat3([[lone, t, lzero], [lzero, lone, lzero], [t * t, lone + t, lone]])):
            assert m * m.inverse() == ident and m.inverse() * m == ident
        with mpmath.workprec(128):
            f = cyclo.to_float(128)
            assert (f * f.inverse() - Mat3.identity(exact=False)).max_abs() <= tolerance(128)
        fone, fzero = mpmath.mpc(1), mpmath.mpc(0)
        for m in (Mat3([[two, one, zero], [zero, one, zero], [zero, zero, one]]),
                  Mat3([[lone + t, lzero, lzero], [lzero, lone, t], [lzero, lzero, lone]]),
                  Mat3([[fone, fone, fone], [fone, fone, fone], [fzero, fzero, fone]])):
            with pytest.raises(SingularMatrixError):
                m.inverse()
        assert calls == []

    def test_adjoint_is_conjugate_transpose(self):
        m = _rand_exact_mat(random.Random(4))
        adj = m.adjoint()
        for i in range(3):
            for j in range(3):
                assert (adj.rows[i][j] - m.rows[j][i].conj()).is_zero()


class TestEigenvalues:
    def test_identity(self):
        eigs = eigenvalues3(Mat3.identity(exact=True), 100)
        for e in eigs:
            assert abs(e - 1) < mpmath.mpf(2) ** -90

    def test_sum_and_product(self):
        rng = random.Random(5)
        m = _rand_exact_mat(rng)
        eigs = eigenvalues3(m, 150)
        with mpmath.workprec(150):
            tr = m.to_float(150).trace()
            det = m.to_float(150).det()
            assert abs(sum(eigs) - tr) < mpmath.mpf(2) ** -120
            assert abs(eigs[0] * eigs[1] * eigs[2] - det) < mpmath.mpf(2) ** -115

    def test_diagonal_values(self):
        # oracle: diagonal matrix with known entries 2, -1, 1/2
        z = Cyclo.zero()
        m = Mat3([[Cyclo(1, {0: 2}), z, z],
                  [z, Cyclo(1, {0: -1}), z],
                  [z, z, Cyclo(1, {0: Fraction(1, 2)})]])
        eigs = sorted(eigenvalues3(m, 100), key=lambda e: float(e.real))
        assert abs(eigs[0] + 1) < 1e-25
        assert abs(eigs[1] - 0.5) < 1e-25
        assert abs(eigs[2] - 2) < 1e-25


class TestSignature:
    def test_diagonal_signatures(self):
        for num in (lambda q: Cyclo(1, {0: q}), mpmath.mpc):  # exact, then float entries
            z = num(0)

            def diag(a, b, c):
                return Mat3([[num(a), z, z],
                             [z, num(b), z],
                             [z, z, num(c)]])

            assert hermitian_signature(diag(1, 1, -1)).verdict == "(2,1)"
            assert hermitian_signature(diag(1, 1, 1)).verdict == "(3,0)"
            assert hermitian_signature(diag(1, -1, -1)).verdict == "(1,2)"
            assert hermitian_signature(diag(1, 1, 0)).verdict == "degenerate"
        # a float invariant within tolerance(prec) of 0 has sign 0: det = 1e-40 reads as a zero eigenvalue
        # at 256 bits (2^-128 = 2.9e-39), and as positive at 512 (2^-256 = 8.6e-78)
        assert hermitian_signature(diag(1, 1, mpmath.mpf("1e-40"))).verdict == "degenerate"
        assert hermitian_signature(diag(1, 1, mpmath.mpf("1e-40")), 512).verdict == "(3,0)"

    def test_sylvester_invariance(self):
        # congruence by an invertible matrix preserves the signature
        rng = random.Random(6)
        z = Cyclo.zero()
        h = Mat3([[Cyclo(1, {0: 2}), Cyclo.i(), z],
                  [-Cyclo.i(), Cyclo(1, {0: 1}), z],
                  [z, z, Cyclo(1, {0: -3})]])
        base = hermitian_signature(h).verdict
        for _ in range(5):
            a = _rand_exact_mat(rng)
            while a.det().is_zero():
                a = _rand_exact_mat(rng)
            congr = a.adjoint() * h * a
            assert hermitian_signature(congr).verdict == base


class TestProjective:
    def test_scalar_multiple_equal(self):
        m = _rand_exact_mat(random.Random(7))
        omega = Cyclo.root(3, 1)
        scaled = Mat3([[x * omega for x in row] for row in m.rows])
        assert projective_equal(m, scaled)

    def test_different_not_equal(self):
        ident = Mat3.identity(exact=True)
        m = Mat3([[Cyclo(1, {0: 2}), Cyclo.zero(), Cyclo.zero()],
                  [Cyclo.zero(), Cyclo.one(), Cyclo.zero()],
                  [Cyclo.zero(), Cyclo.zero(), Cyclo.one()]])
        assert not projective_equal(ident, m)

    def test_projective_order(self):
        u = root_of_unity(angle(2, 7))
        m = Mat3([[u, Cyclo.zero(), Cyclo.zero()],
                  [Cyclo.zero(), u, Cyclo.zero()],
                  [Cyclo.zero(), Cyclo.zero(), u * u]])
        # projectively diag(1, 1, u) which has order 7
        assert projective_order(m, max_order=50) == 7

    def test_residual_small_for_equal(self):
        m = _rand_exact_mat(random.Random(8)).to_float(128)
        assert projective_residual(m, m, 128) < 1e-30


def reference_residual(a, b, prec):
    """min over k of max over all nine entries of |a_ij - w^k b_ij|: all 27 values, no early exit."""
    with mpmath.workprec(prec):
        omega = mpmath.expjpi(mpmath.mpf(2) / 3)
        return min(max(abs(a[i, j] - omega**k * b[i, j]) for i in range(3) for j in range(3)) for k in range(3))


PRECS = st.sampled_from([53, 128, 256])
# few distinct small values, so that equal entry deviations (ties) are common
TIED = st.sampled_from([0, 1, -1, 1j, -1j, 2, 0.5 + 0.5j]).map(mpmath.mpc)
WIDE = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False).map(mpmath.mpc)


def float_mats(entries):
    return st.lists(entries, min_size=9, max_size=9).map(lambda xs: Mat3([xs[0:3], xs[3:6], xs[6:9]]))


FAST_PATH = settings(max_examples=80, deadline=None, derandomize=True)


class TestProjectiveFastPaths:
    """projective_residual stops reading a root early, and projective_equal at the first entry
    above tol; both must give exactly what the full min-max gives."""

    @FAST_PATH
    @given(st.one_of(float_mats(WIDE), float_mats(TIED)), st.one_of(float_mats(WIDE), float_mats(TIED)), PRECS)
    def test_residual_equals_the_full_min_max(self, a, b, prec):
        got, want = projective_residual(a, b, prec), reference_residual(a, b, prec)
        assert got == want and got._mpf_ == want._mpf_

    @FAST_PATH
    @given(float_mats(WIDE), st.integers(0, 2), PRECS, st.booleans())
    def test_residual_of_a_root_multiple(self, b, k, prec, perturb):
        with mpmath.workprec(prec):
            a = b.scale(mpmath.expjpi(mpmath.mpf(2 * k) / 3))
            if perturb:
                a = Mat3([[x + mpmath.mpc(1e-3 * (i - j)) for j, x in enumerate(r)] for i, r in enumerate(a.rows)])
        got, want = projective_residual(a, b, prec), reference_residual(a, b, prec)
        assert got._mpf_ == want._mpf_
        assert projective_equal(a, b, prec=prec) == (want <= tolerance(prec))

    @FAST_PATH
    @given(float_mats(WIDE), st.sampled_from([1 / 3, 1, 5 / 3]), st.floats(-1e-3, 1e-3), PRECS)
    def test_residual_between_two_roots(self, b, mid, eps, prec):
        # a = e^{i*pi*t} b with t near the midpoint of two cube roots: their maxes nearly tie
        with mpmath.workprec(prec):
            a = b.scale(mpmath.expjpi(mpmath.mpf(mid) + eps))
        assert projective_residual(a, b, prec)._mpf_ == reference_residual(a, b, prec)._mpf_

    @FAST_PATH
    @given(st.one_of(float_mats(WIDE), float_mats(TIED)), st.one_of(float_mats(WIDE), float_mats(TIED)), PRECS)
    def test_equal_agrees_with_the_residual(self, a, b, prec):
        assert projective_equal(a, b, prec) == (projective_residual(a, b, prec) <= tolerance(prec))

    @FAST_PATH
    @given(float_mats(TIED), st.integers(0, 8), PRECS, st.sampled_from([-1, 0, 1]))
    def test_a_residual_of_exactly_the_tolerance(self, b, k, prec, shift):
        # a is b with entry k moved by 2^shift * tolerance(prec), exactly: the other entries of a - b are 0,
        # and those of a - w*b for w != 1 are 0 or at least sqrt(3)/2, so the step is the residual; at
        # shift 0 it ties with the bound, and the pair is equal
        step = mpmath.ldexp(tolerance(prec), shift)
        with mpmath.workprec(prec):
            a = Mat3([[x + step if 3 * i + j == k else x for j, x in enumerate(r)] for i, r in enumerate(b.rows)])
        assert projective_residual(a, b, prec) == step
        assert projective_equal(a, b, prec) == (shift <= 0)

    def test_ties(self):
        zero = Mat3([[mpmath.mpc(0)] * 3] * 3)
        m = Mat3([[mpmath.mpc(1), mpmath.mpc(-1), mpmath.mpc(1j)]] * 3)
        for a, b in ((m, zero), (zero, m), (m, m), (zero, zero)):
            assert projective_residual(a, b, 128)._mpf_ == reference_residual(a, b, 128)._mpf_
        assert projective_residual(m, zero, 128) == 1  # every root ties at max|m_ij| = 1
        t = tolerance(128)  # every root ties at max|t*m_ij| = t, on the bound, and at 2t above it
        assert projective_equal(m.scale(t), zero, 128) and not projective_equal(m.scale(2 * t), zero, 128)


class TestIsometryType:
    def test_known_types(self):
        # oracle values of Goldman's discriminant
        assert classify_isometry(mpmath.mpc(3)) == "boundary"  # f(3) = 0
        assert classify_isometry(mpmath.mpc(0)) == "regular-elliptic"  # f = -27
        assert classify_isometry(mpmath.mpc(4)) == "loxodromic"  # f(4) > 0
        with mpmath.workprec(100):
            f = trace_discriminant(mpmath.mpc(4), 100)
            assert f > 0

    def test_form_residual(self):
        # unitary diag matrix preserves the identity form
        u = root_of_unity(angle(2, 5))
        m = Mat3([[u, Cyclo.zero(), Cyclo.zero()],
                  [Cyclo.zero(), u.conj(), Cyclo.zero()],
                  [Cyclo.zero(), Cyclo.zero(), Cyclo.one()]])
        h = Mat3.identity(exact=True)
        assert form_residual(m.to_float(128), h.to_float(128), 128) < 1e-30
