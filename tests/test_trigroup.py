import functools
import json
import operator
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import chtri.cli
from chtri.candidates import ALL_IDS, parse_candidate
from chtri.exact import Cyclo, Laurent, _float_value, angle, cos_exact, root_of_unity, to_float
from chtri.linalg import (
    DEFAULT_PREC,
    Mat3,
    SingularMatrixError,
    hermitian_signature,
    invariant_signature,
    projective_equal,
)
from chtri.reports import float_det
from chtri.trigroup import (
    InfeasibleGroupError,
    _sign_terms,
    braid_length,
    build_group,
    build_symmetric,
    candidate_s,
    certificate,
    evaluate_word,
    form_invariants,
    form_signature,
    generic_group,
    is_candidate,
    lemma_eigenvalues_residual,
    parameter_feasible,
    symmetric_params,
    symmetry_matrix,
    trace_invariants,
    verify,
    verify_symmetry,
)

SPORADICS = [(3, 4), (3, 5), (4, 3), (5, 4), (8, 6)]
# every candidate id at p with (3,0), (2,1), (1,2) and degenerate forms among them:
# (3,3) p=3, (3,3)- p=6, (4,4) p=2 and (8,6) p=2 are degenerate
EXACT_ROWS = [(cid, p) for cid in ALL_IDS for p in (2, 3, 5, 6, 7, 12, 20, 40)]


def mass(c: Cyclo) -> Fraction:
    """The sum of the absolute rational coefficients of c."""
    return Fraction(sum(abs(v) for v in c.c.values()), c.d)


class TestCandidates:
    def test_candidate_table(self):
        for n, m in SPORADICS:
            assert is_candidate(n, m)
        for k in range(3, 13):
            assert is_candidate(k, k)
        assert not is_candidate(3, 6)
        assert not is_candidate(7, 5)

    def test_candidate_s_values(self):
        # (3,4): s = (-1 + i sqrt(7))/2, so (2s+1)^2 = -7
        s = candidate_s(3, 4)
        t = s * 2 + 1
        assert (t * t + 7).is_zero()
        # (4,3): s = 0
        assert candidate_s(4, 3).is_zero()
        # diagonal: s = e^{2 pi i/k}
        for k in (3, 5, 8):
            assert (candidate_s(k, k) - root_of_unity(angle(2, k))).is_zero()

    def test_im_sign_conjugates(self):
        s = candidate_s(3, 5)
        assert (candidate_s(3, 5, -1) - s.conj()).is_zero()

    def test_rho_modulus(self):
        for n, m in SPORADICS:
            rho = candidate_s(n, m) + 1
            target = cos_exact(angle(1, m)) * 2
            assert (rho.abs2() - target * target).is_zero()


class TestBuild:
    @pytest.mark.parametrize("n,m", SPORADICS + [(3, 3), (4, 4), (6, 6)])
    def test_exact_group_structure(self, n, m):
        g = build_symmetric(4, n, m)
        assert g.exact
        u_cubed = root_of_unity(angle(2, 3))  # e^{2 pi i/3}
        for r in g.generators():
            # det = 1 exactly
            assert (r.det() - 1).is_zero()
            # R^p = e^{-2 pi i/3} I
            rp = functools.reduce(operator.mul, [r] * g.params.p)
            target = Mat3([[u_cubed.conj() if i == j else Cyclo.zero()
                            for j in range(3)] for i in range(3)])
            assert (rp - target).is_zero_exact()
            # R preserves H: adjoint(R) H R = H exactly
            assert (r.adjoint() * g.H * r - g.H).is_zero_exact()
        # S preserves H and det(S) = 1
        assert (g.S.det() - 1).is_zero()
        assert (g.S.adjoint() * g.H * g.S - g.H).is_zero_exact()
        # tr(S) = rho - 1
        assert (g.S.trace() - (g.params.rho - 1)).is_zero()

    def test_infeasible(self):
        with pytest.raises(InfeasibleGroupError, match="no such symmetric group"):
            build_symmetric(3, 6, 3)

    def test_errors_keep_their_order(self):
        # p is checked first, then n, m >= 3, then feasibility (in symmetric_params)
        with pytest.raises(ValueError, match="reflection order"):
            build_symmetric(1, 2, 3)
        with pytest.raises(ValueError, match="n and m must be >= 3"):
            build_symmetric(2, 2, 3)
        with pytest.raises(ValueError, match="n and m must be >= 3"):
            symmetric_params(6, 2)
        with pytest.raises(InfeasibleGroupError):
            symmetric_params(6, 3)

    @pytest.mark.parametrize("n,m,im_sign", [(3, 4, 1), (3, 5, -1), (7, 7, 1), (5, 6, 1), (5, 6, -1)])
    def test_group_is_built_on_symmetric_params(self, n, m, im_sign):
        rho, sigma = symmetric_params(n, m, im_sign, prec=128)
        pr = build_symmetric(3, n, m, im_sign=im_sign, prec=128).params
        assert pr.rho == rho and pr.sigma == sigma and pr.tau == sigma
        assert isinstance(rho, Cyclo) == is_candidate(n, m)

    def test_float_path(self):
        g = build_symmetric(4, 5, 6, prec=128)  # not a classified candidate
        assert not g.exact
        residuals = verify_symmetry(g, prec=128)
        assert all(r <= mpmath.mpf("1e-30") for r in residuals.values())

    @pytest.mark.parametrize("n,m", [(3, 4), (6, 6)])
    def test_to_float(self, n, m):
        g = build_symmetric(5, n, m)
        gf = g.to_float(256)
        assert g.exact and not gf.exact
        assert (gf.params.p, gf.n, gf.m, gf.signature) == (5, n, m, g.signature)
        assert gf.H is g.H  # no float check reads H, so the view keeps the exact one
        for exact, flt in zip((g.R1, g.R2, g.R3, g.S), (gf.R1, gf.R2, gf.R3, gf.S)):
            assert not flt.exact
            assert all(flt[i, j] == exact[i, j].to_mpc(256) for i in range(3) for j in range(3))
        for name in ("rho", "sigma", "tau"):
            assert getattr(gf.params, name) == getattr(g.params, name).to_mpc(256)
        assert gf.to_float(256) is gf

    def test_to_float_of_a_float_group_is_itself(self):
        g = build_symmetric(4, 5, 6)
        gf = g.to_float(256)
        assert gf is g
        assert (gf.signature, gf.n, gf.m) == (g.signature, 5, 6)

    @pytest.mark.parametrize("n,m", [(3, 4), (5, 4), (6, 6)])
    def test_float_params_give_same_matrices(self, n, m):
        # one formula serves both scalar types: float images of an exact
        # group's rho, sigma, tau rebuild its matrices to 1e-60
        g = build_symmetric(5, n, m)
        with mpmath.workprec(256):
            rho, sigma, tau = (x.to_mpc(256) for x in (g.params.rho, g.params.sigma, g.params.tau))
            gf = build_group(5, rho, sigma, tau, prec=256)
            sf = symmetry_matrix(5, rho, sigma, prec=256)
            assert not gf.exact
            pairs = list(zip(g.generators() + (g.H, g.S), gf.generators() + (gf.H, sf)))
            for exact, flt in pairs:
                ef = exact.to_float(256)
                assert max(abs(ef[i, j] - flt[i, j]) for i in range(3) for j in range(3)) < 1e-60

    def test_build_group_free_params(self):
        g = build_group(3, Cyclo.one(), Cyclo.one(), Cyclo.one())
        assert g.exact
        for r in g.generators():
            assert (r.det() - 1).is_zero()

    def test_warning_flag(self):
        g = build_symmetric(2, 4, 3)  # positive definite form
        assert g.warning is not None
        assert hermitian_signature(g.H).verdict == "(3,0)"
        assert build_symmetric(5, 4, 3).warning is None

    @staticmethod
    def _gap(n, m):
        # oracle: |rho|^2 - Re(rho)^2 at 400 bits, the gap the float build used to test
        with mpmath.workprec(400):
            return (2 * mpmath.cospi(mpmath.mpf(1) / m)) ** 2 - (2 * mpmath.cospi(mpmath.mpf(1) / n) ** 2) ** 2

    def test_feasibility_matches_the_gap_oracle(self):
        near_zero = []
        for n in range(3, 61):
            for m in range(3, 61):
                gap = self._gap(n, m)
                if abs(gap) < mpmath.mpf(10) ** -60:
                    near_zero.append((n, m))
                    assert parameter_feasible(n, m)
                else:
                    assert parameter_feasible(n, m) == (gap > 0), (n, m)
        assert near_zero == [(4, 3)]  # the only equality case

    def test_build_rejects_exactly_the_infeasible(self):
        for n in range(3, 13):
            for m in range(3, 13):
                if self._gap(n, m) > -mpmath.mpf(10) ** -60:
                    build_symmetric(2, n, m)
                else:
                    with pytest.raises(InfeasibleGroupError):
                        build_symmetric(2, n, m)

    @pytest.mark.parametrize("n,m", [(1001, 1000), (97, 101)])
    def test_large_conductor_builds_a_float_group(self, n, m, monkeypatch):
        # lcm(2m, n) is 2,002,000 and 19,594: beyond or near the exact limit.  The doubles decide
        # feasibility, so no Cyclo of a conductor above 10^5 is built
        conductors, of = [], Cyclo._of.__func__
        monkeypatch.setattr(Cyclo, "_of", classmethod(lambda cls, k, *a: conductors.append(k) or of(cls, k, *a)))
        g = build_symmetric(3, n, m)
        assert not g.exact and g.signature.verdict == "(2,1)"
        assert conductors and max(conductors) <= 10**5

    @pytest.mark.parametrize("cid,p", EXACT_ROWS)
    def test_signature_kept_on_exact_group(self, cid, p):
        n, m, im_sign = parse_candidate(cid)
        g = build_symmetric(p, n, m, im_sign=im_sign)
        assert g.exact and g.signature == hermitian_signature(g.H)

    @pytest.mark.parametrize("n,m,im_sign,p", [(*parse_candidate(cid), p) for cid in ALL_IDS for p in range(2, 41)])
    def test_form_invariants_match_the_matrix(self, n, m, im_sign, p):
        # the Laurent invariants at t = zeta_{6p} equal (tr H, c1, det H) of the matrix H built at p, exactly
        rho, sigma = symmetric_params(n, m, im_sign)
        h = build_group(p, rho, sigma, sigma).H
        inv = form_invariants(n, m, im_sign)
        assert all((x.at(6 * p) - y).is_zero() for x, y in zip(inv, (h.trace(), h.minor_sum(), h.det())))
        # the exponents of det H that `reports._t_powers` holds for the det `float_det` prints
        assert all(k in range(-9, 10, 3) for k in inv[2].c)

    def test_signature_kept_on_float_group(self):
        g = build_symmetric(4, 5, 6)
        assert not g.exact and g.signature == hermitian_signature(g.H)

    @pytest.mark.parametrize("n,m", [(5, 6), (4, 5), (3, 7)])
    @pytest.mark.parametrize("im_sign", [1, -1])
    def test_float_group_signature_is_the_eigenvalue_signs(self, n, m, im_sign):
        # oracle: the signs of the eigenvalues of the float H from mpmath's Hermitian eigensolver
        for p in (2, 3, 4, 5, 7, 12, 30):
            g = build_symmetric(p, n, m, im_sign=im_sign)
            with mpmath.workprec(256):
                eig = mpmath.eighe(mpmath.matrix([list(r) for r in g.H.rows]), eigvals_only=True)
            assert all(abs(e) > 1e-20 for e in eig), (p, eig)
            assert not g.exact and (g.signature.n_pos, g.signature.n_neg) == (
                sum(e > 0 for e in eig), sum(e < 0 for e in eig)), p


class TestFormSignature:
    @pytest.mark.parametrize("cid", ALL_IDS)
    def test_matches_the_exact_invariants(self, cid):
        n, m, im_sign = parse_candidate(cid)
        for p in range(2, 41):
            exact = (x.at(6 * p) for x in form_invariants(n, m, im_sign))
            assert build_symmetric(p, n, m, im_sign=im_sign).signature == invariant_signature(*exact), (cid, p)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(ALL_IDS), st.integers(2, 200))
    def test_float_invariants_within_the_documented_bound(self, cid, p):
        # the doubles of each invariant's `_sign_terms` at t = zeta_{6p}, against the exact invariant at
        # 512 bits: within the proved 25u * K (K the sum of the absolute rational coefficients) of
        # `_float_value`, and so 2^8 times inside its E
        n, m, im_sign = parse_candidate(cid)
        with mpmath.workprec(512):
            for terms, exact in zip(_sign_terms(n, m, im_sign), form_invariants(n, m, im_sign)):
                v, bound = _float_value([(w, a + b * p, c * p) for w, a, b, c in terms])
                err = abs(v - exact.at(6 * p).to_mpc(512).real)
                assert err <= 25 * mpmath.mpf(2) ** -53 * sum(map(mass, exact.c.values()))
                assert 256 * err < bound

    def test_non_candidate_rejected(self):
        # a float rho has no generic group in t
        for f in (lambda: form_signature(5, 5, 6, 1), lambda: certificate(4, 5, -1)):
            with pytest.raises(ValueError, match="not a classified candidate"):
                f()

    def test_exact_zeros_take_the_exact_path(self, monkeypatch):
        # det H of (4,3) at p = 3 is 0: its doubles cannot decide, and only its exact value, and not
        # those of tr H and c1, is built
        tr, c1, det = form_invariants(4, 3, 1)
        assert det.at(18).is_zero()
        calls, at = [], Laurent.at
        monkeypatch.setattr(Laurent, "at", lambda x, n: calls.append(x) or at(x, n))
        assert form_signature(3, 4, 3, 1).verdict == "degenerate"
        assert calls == [det]
        calls.clear()
        assert form_signature(5, 3, 3, 1).verdict == "(2,1)" and calls == []

    @pytest.mark.parametrize("cid,p,prec", [("(4,3)", 3, 256), ("(3,3)", 5, 256), ("(5,4)-", 7, 64),
                                            ("(8,6)", 2, 512)])
    def test_det_is_the_float_det_at_the_working_precision(self, cid, p, prec):
        # `float_det` is the real part of det H read at wp = max(prec, 128) bits: within
        # 2^(4-wp) * sum_k (1 + mass(c_k)) of the exact det H = sum_k c_k t^k, on a zero det too
        n, m, im_sign = parse_candidate(cid)
        det = float_det(p, n, m, im_sign, prec)
        exact, wp = form_invariants(n, m, im_sign)[2], max(prec, 128)
        with mpmath.workprec(1024):
            bound = mpmath.mpf(2) ** (4 - wp) * sum(1 + mass(c) for c in exact.c.values())
            assert abs(det - exact.at(6 * p).to_mpc(1024).real) <= bound
        assert float_det(p, n, m, im_sign, 64) == float_det(p, n, m, im_sign, 128)


class TestSymmetry:
    @pytest.mark.parametrize("n,m", SPORADICS)
    @pytest.mark.parametrize("p", [2, 5])
    def test_relations(self, n, m, p):
        g = build_symmetric(p, n, m)
        exact = [c for c in verify(g) if c.name.startswith("symmetry:")]
        assert [(c.name, c.passed, c.details) for c in exact] == [(k, True, {"residual": "0"}) for k in SYMMETRY_CHECKS]
        assert all(r <= mpmath.mpf("1e-30") for r in verify_symmetry(g).values())

    def test_trace_invariants(self):
        g = build_symmetric(4, 3, 4)
        tr12, tr23, tr13, tr_conj = trace_invariants(g)
        with mpmath.workprec(256):
            # oracle: u(2 - |rho|^2) + ubar^2 with u = e^{2 pi i/(3 p)}
            u = mpmath.expjpi(mpmath.mpf(2) / 12)
            want = u * (2 - 2) + mpmath.conj(u) ** 2  # |rho|^2 = 2 for m = 4
            assert abs(tr12 - want) < 1e-60


def product_braid_length(a: Mat3, b: Mat3, max_l: int = 24, prec: int = DEFAULT_PREC):
    """Least l <= max_l whose alternating products a*b*a*... and b*a*b*..., l factors each, are equal up to a
    cube root of unity, else None: the braid-length oracle, independent of the |x| = 2cos(pi/l) rule.

    Exact matrices (a group at p) are compared exactly by `projective_equal`, float ones within
    tolerance(prec) at `prec` bits."""
    with mpmath.workprec(prec):
        lhs, rhs = a, b
        for l in range(2, max_l + 1):
            lhs, rhs = lhs * (b if l % 2 == 0 else a), rhs * (a if l % 2 == 0 else b)
            if projective_equal(lhs, rhs, prec):
                return l
    return None


def braid_pairs(g) -> list:
    """((a, b), x) of each pair whose braid length `verify` reads, in its order: (R1,R3) with tau, (R2,R3) with
    sigma, (R1,R2) with rho and (R1,R3^-1R2R3) with sigma*tau - conj(rho), in g's scalar type."""
    (r1, r2, r3), pr = g.generators(), g.params
    conj = mpmath.conj if not g.exact else (lambda x: x.conj())
    return [((r1, r3), pr.tau), ((r2, r3), pr.sigma), ((r1, r2), pr.rho),
            ((r1, r3.inverse() * r2 * r3), pr.sigma * pr.tau - conj(pr.rho))]


FEASIBLE_8 = [(n, m) for n in range(3, 9) for m in range(3, 9) if parameter_feasible(n, m)]


class TestBraids:
    @pytest.mark.parametrize("n,m", SPORADICS)
    def test_braid_lengths(self, n, m):
        g = build_symmetric(5, n, m).to_float(256)
        with mpmath.workprec(256):
            assert [product_braid_length(*ab) for ab, _ in braid_pairs(g)] == [n, n, m, m]
            assert [braid_length(x, 24) for _, x in braid_pairs(g)] == [n, n, m, m]

    def test_no_braid_returns_none(self):
        # br(R1,R2) = 6 for (5,6): neither the products nor |rho| = 2cos(pi/6) give a length <= 4
        g = build_symmetric(4, 5, 6, prec=192)
        assert product_braid_length(g.R1, g.R2, max_l=4, prec=192) is None
        assert braid_length(g.params.rho, 4, prec=192) is None and braid_length(g.params.rho, 6, prec=192) == 6

    @pytest.mark.parametrize("n,m", FEASIBLE_8)
    def test_the_rule_matches_the_product_oracle(self, n, m):
        # every pair at p = 2..7, the Euclidean p = 3, 4 and 6 among them, with either sign: a candidate's
        # group at p exactly, any other at 256 bits
        for im_sign in (1, -1):
            for p in range(2, 8):
                g = build_symmetric(p, n, m, im_sign=im_sign)
                with mpmath.workprec(256):
                    pairs = braid_pairs(g)
                    assert [product_braid_length(*ab, max_l=12) for ab, _ in pairs] == [n, n, m, m], (p, im_sign)
                    assert [braid_length(x, 12) for _, x in pairs] == [n, n, m, m], (p, im_sign)

    def test_the_rule_reads_the_least_length(self):
        # |x|^2 = 4cos^2(pi/l) = 0, 1, 2, 3 at l = 2, 3, 4, 6, exactly and in floats; none at |x|^2 = 9/4, between
        # l = 4 and 5, nor at |x| = 2
        for x, want in ((0, 2), (1, 3), (cos_exact(angle(1, 4)) * 2, 4), (cos_exact(angle(1, 6)) * 2, 6),
                        (Cyclo.one() * 3 / 2, None), (2, None)):
            assert braid_length(x, 40) == want
            assert braid_length(to_float(x, 256), 40, prec=256) == want
        assert braid_length(cos_exact(angle(1, 7)) * 2, 6) is None and braid_length(cos_exact(angle(1, 7)) * 2, 7) == 7
        with pytest.raises(ValueError, match="max_l must be >= 2"):
            braid_length(1, 1)


class TestWords:
    def test_inverse_word(self):
        g = build_symmetric(4, 4, 3)
        w = evaluate_word(g, [1, -1, 2, -2, 3, -3])
        assert (w - Mat3.identity(exact=True)).is_zero_exact()

    def test_word_matches_product(self):
        g = build_symmetric(4, 4, 3)
        assert ((evaluate_word(g, [1, 2]) - g.R1 * g.R2)).is_zero_exact()

    def test_braid4_word_identity(self):
        # br(R1,R2) = 4 makes R2^-1 R1R2R1R2 R1^-1 projectively equal R1R2
        g = build_symmetric(5, 5, 4).to_float(256)
        lhs = evaluate_word(g, [-2, 1, 2, 1, 2, -1])
        rhs = evaluate_word(g, [1, 2])
        assert not lhs.exact and not rhs.exact
        assert projective_equal(lhs, rhs, 256)

    @pytest.mark.parametrize("to_float", [False, True])
    def test_bad_index_rejected(self, to_float):
        g = build_symmetric(4, 4, 3)
        with pytest.raises(ValueError, match="bad generator index 4"):
            evaluate_word(g.to_float(256) if to_float else g, [1, 4])


class TestEigenvalueLemma:
    @pytest.mark.parametrize("n,m", SPORADICS + [(4, 4), (6, 6)])
    def test_residual_small(self, n, m):
        g = build_symmetric(3, n, m)
        assert lemma_eigenvalues_residual(g) <= mpmath.mpf("1e-30")

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("im_sign", [1, -1])
    def test_repeated_eigenvalue_at_128_bits(self, n, im_sign):
        # at p = 3 and m = 6, ub^2 = -u e^{2i zeta} (zeta = pi/6) is a double eigenvalue of R1R2;
        # the lemma holds there to the working precision
        g = build_symmetric(3, n, 6, im_sign=im_sign, prec=128)
        assert not g.exact
        assert lemma_eigenvalues_residual(g, prec=128) <= mpmath.mpf("1e-30")


def reflection_matrix(phi, v, h: Mat3) -> Mat3:
    """Det-1 complex reflection through angle phi with polar vector v: an oracle for `build_group`.

    Implements z -> z + (e^{i*phi}-1) <z,v>/<v,v> v, scaled by e^{-i*phi/3},
    where <z,w> = adjoint(w) H z.  Requires <v,v> > 0.
    """
    vconj = [x.conj() for x in v]
    # <v,v> = sum_i conj(v_i) * (H v)_i
    hv = h.apply(v)
    vv = sum((vconj[i] * hv[i] for i in range(1, 3)), vconj[0] * hv[0])
    if not vv.is_real() or vv.real_sign() <= 0:
        raise ValueError("polar vector not positive")
    scale = root_of_unity(angle(-phi.num, 3 * phi.den))  # e^{-i*phi/3}
    factor = (root_of_unity(phi) - 1) * vv.inverse()
    # rank-1 update: v * (adjoint(v) H) = v * row, row_j = (H^t conj(v))_j
    row = [sum((h.rows[k][j] * vconj[k] for k in range(1, 3)), h.rows[0][j] * vconj[0]) for j in range(3)]
    return Mat3([[scale * ((Cyclo.one() if i == j else Cyclo.zero()) + factor * v[i] * row[j]) for j in range(3)]
                 for i in range(3)])


class TestReflection:
    def test_reproduces_generators(self):
        g = build_symmetric(4, 4, 3)
        phi = angle(2, 4)  # rotation angle 2 pi/p
        basis = [
            (Cyclo.one(), Cyclo.zero(), Cyclo.zero()),
            (Cyclo.zero(), Cyclo.one(), Cyclo.zero()),
            (Cyclo.zero(), Cyclo.zero(), Cyclo.one()),
        ]
        for v, r in zip(basis, g.generators()):
            assert (reflection_matrix(phi, v, g.H) - r).is_zero_exact()

    def test_nonpositive_vector_rejected(self):
        g = build_symmetric(5, 4, 3)
        # e1 - e2 pairs negatively with itself under this H at p = 5
        v = (Cyclo.one(), -Cyclo.one(), Cyclo.zero())
        hv = g.H.apply(v)
        norm = sum((v[i].conj() * hv[i] for i in range(1, 3)), v[0].conj() * hv[0])
        if norm.is_real() and norm.real_sign() <= 0:
            with pytest.raises(ValueError, match="polar vector not positive"):
                reflection_matrix(angle(2, 5), v, g.H)


SYMMETRY_CHECKS = [f"symmetry:{k}" for k in
                   ("square", "conj_r1", "conj_r2", "conj_r3", "pair_23", "pair_conj", "vec1", "vec2", "vec3")]
BRAID_CHECKS = ["br(R1,R3)", "br(R2,R3)", "br(R1,R2)", "br(R1,R3^-1R2R3)"]


class TestVerify:
    @pytest.mark.parametrize("cid", [*ALL_IDS, "float (5,6)"])
    def test_all_checks_pass_in_order(self, cid):
        # the candidates read their certificate, the float group (5,6) measures the same checks in floats
        n, m, im_sign = (5, 6, 1) if cid == "float (5,6)" else parse_candidate(cid)
        for p in range(2, 7):
            g = build_symmetric(p, n, m, im_sign=im_sign)
            assert g.exact == (cid != "float (5,6)")
            checks = verify(g)
            braid = BRAID_CHECKS if g.signature.verdict == "(2,1)" else ["braid"]
            names = SYMMETRY_CHECKS + ["trace_formulas", "eigenvalue_lemma"] + braid
            assert [c.name for c in checks] == names, (cid, p)
            assert all(c.passed for c in checks), (cid, p, [c for c in checks if not c.passed])

    def test_candidate_verify_makes_no_float_work(self, monkeypatch):
        # every verdict on a candidate comes from exact identities: no conversion to floats, no float product
        g = build_symmetric(5, 5, 4)
        certificate.cache_clear()
        generic_group.cache_clear()
        converted, float_products, mul = [], [], Mat3.__mul__

        def spy_mul(a, b):
            if not (a.exact and b.exact):
                float_products.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(Cyclo, "to_mpc", lambda x, prec=53: converted.append(x))
        monkeypatch.setattr(Mat3, "__mul__", spy_mul)
        checks = verify(g)
        assert converted == [] and float_products == []
        assert len(checks) == 15 and all(c.passed for c in checks)

    def test_check_dict_key_order(self):
        checks = verify(build_symmetric(5, 3, 4))
        assert list(checks[0].to_dict()) == ["check", "residual", "pass"]
        assert list(checks[-1].to_dict()) == ["check", "expected", "got", "pass"]
        assert checks[-1].to_dict()["got"] == 4


class TestCertificate:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(ALL_IDS), st.integers(2, 200))
    def test_generic_group_at_t_is_the_group_at_p(self, cid, p):
        # R1, R2, R3, H and S of the generic group at t = zeta_{6p} are the exact matrices of build_symmetric
        n, m, im_sign = parse_candidate(cid)
        gen = generic_group(n, m, im_sign)
        g = build_symmetric(p, n, m, im_sign=im_sign)
        for generic, exact in zip(gen.generators() + (gen.H, gen.S), g.generators() + (g.H, g.S)):
            assert all((generic[i, j].at(6 * p) - exact[i, j]).is_zero() for i in range(3) for j in range(3))

    @pytest.mark.parametrize("n,m,im_sign", [parse_candidate(cid) for cid in ALL_IDS]
                             + [(k, k, 1) for k in range(3, 9)])
    def test_every_shorter_braid_length_is_ruled_out_by_a_monomial(self, n, m, im_sign):
        # the lengths (n, n, m, m) hold for every p >= 2, read once from the exact |x| of each pair: no shorter
        # length l has |x| = 2cos(pi/l), so none is left to an evaluation at p
        cert = certificate(n, m, im_sign)
        assert cert.checks == tuple((name, True) for name in SYMMETRY_CHECKS + ["trace_formulas", "eigenvalue_lemma"])
        assert cert.braids == tuple(zip(BRAID_CHECKS, (n, n, m, m), (n, n, m, m)))

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (0, 2), (1, 0), (2, 1), (2, 2)])
    def test_a_sign_flipped_in_s_fails(self, entry, monkeypatch, capsys):
        # only the flip at (0,0) keeps det S = 1, and a symmetry check fails; any other flip leaves
        # S with no exact inverse, and reading the certificate raises
        orig = symmetry_matrix

        def flipped(*args, **kwargs):
            s = orig(*args, **kwargs)
            return Mat3([[-x if (i, j) == entry else x for j, x in enumerate(r)] for i, r in enumerate(s.rows)])

        monkeypatch.setattr("chtri.trigroup.symmetry_matrix", flipped)
        certificate.cache_clear()
        generic_group.cache_clear()
        argv = ["verify", "--p", "5", "--n", "5", "--m", "4"]
        try:
            if entry != (0, 0):
                assert not (generic_group(5, 4, 1).S.det() - 1).is_zero()
                for read in (lambda: certificate(5, 4, 1), lambda: chtri.cli.main(argv)):
                    with pytest.raises(SingularMatrixError, match="det exactly 1"):
                        read()
                return
            assert not all(ok for _, ok in certificate(5, 4, 1).checks)
            assert chtri.cli.main(argv) == 1
        finally:
            certificate.cache_clear()
            generic_group.cache_clear()
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert any(l.get("pass") is False and l["check"].startswith("symmetry:") for l in lines)
        assert lines[-1]["passed"] < lines[-1]["checks"]
