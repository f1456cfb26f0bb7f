"""Triangle groups generated by three complex reflections, with 2-fold symmetry.

Generators follow the standard parameterization by (p, rho, sigma, tau):
the three reflections rotate their polar vectors by e^{2*pi*i/p}, and the
off-diagonal parameters fix the mutual position of the mirrors.  In
symmetric mode sigma = tau = sqrt(rho + conj(rho)) and an extra isometry S
conjugates the generator pairs into each other with S^2 = R1*R2*R3.

Groups from the classified candidate list are built with exact cyclotomic
entries; free-form parameters take the arbitrary-precision float path.
A candidate is verified once for every p, on its generic group: entries
are Laurent polynomials in t = e^{i pi/(3p)}, and the value at t = zeta_{6p}
is the group at p.
"""
from __future__ import annotations

import bisect
import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import mpmath

from .candidates import entry
from .exact import Angle, Cyclo, Laurent, _coerce, angle, cos_exact, cos_sign, root_of_unity, sin_exact, to_float
from .linalg import (
    DEFAULT_PREC,
    Mat3,
    Signature,
    hermitian_signature,
    projective_equal,
    projective_residual,
    sign_signature,
    tolerance,
)


class InfeasibleGroupError(ValueError):
    pass


_conj = operator.methodcaller("conj")  # of an exact scalar, Cyclo or Laurent


# ---------------------------------------------------------------------------
# Candidate parameters, read from the registry in `candidates`


def is_candidate(n: int, m: int) -> bool:
    return entry(n, m) is not None


def feasibility_sign(n: int, m: int) -> int:
    """The sign of 2cos(pi/m) - cos(2pi/n) - 1 = 2(cos(pi/m) - cos^2(pi/n)), exactly (`cos_sign`)."""
    return cos_sign(((2, 1, m), (-1, 2, n)), -1)


def parameter_feasible(n: int, m: int) -> bool:
    """Whether 2*cos(pi/m) >= 2*cos^2(pi/n): the condition for rho to exist."""
    return feasibility_sign(n, m) >= 0


def trace_s(a: Angle, b: Angle) -> Cyclo:
    """s = e^{ia} + e^{ib} + e^{-i(a+b)}, exactly."""
    return root_of_unity(a) + root_of_unity(b) + root_of_unity(-(a + b))


def candidate_s(n: int, m: int, im_sign: int = 1) -> Cyclo:
    """Exact tr(S) for a classified candidate (n, m), from the (a, b) angles of its registry entry."""
    e = entry(n, m)
    if e is None:
        raise ValueError(f"({n},{m}) is not a classified candidate")
    s = trace_s(e.a, e.b)
    return s if im_sign >= 0 else s.conj()


# ---------------------------------------------------------------------------
# Group construction


@dataclass(frozen=True)
class GroupParams:
    p: Optional[int]  # None for the generic group in t
    rho: object  # Cyclo or mpmath.mpc
    sigma: object
    tau: object
    exact: bool


@dataclass(frozen=True)
class Group:
    params: GroupParams
    R1: Mat3
    R2: Mat3
    R3: Mat3
    H: Mat3
    S: Optional[Mat3] = None
    n: Optional[int] = None
    m: Optional[int] = None
    signature: Optional[Signature] = None  # of H; set by build_symmetric
    im_sign: int = 1  # the sign of Im(rho) given to build_symmetric

    @property
    def exact(self) -> bool:
        return self.params.exact

    @property
    def warning(self) -> Optional[str]:
        if self.signature is None or self.signature.verdict == "(2,1)":
            return None
        return f"Hermitian form is {self.signature.verdict}, not (2,1)"

    def generators(self) -> tuple[Mat3, Mat3, Mat3]:
        return self.R1, self.R2, self.R3

    def to_float(self, prec: int = DEFAULT_PREC) -> "Group":
        """This group with R1, R2, R3, S and rho, sigma, tau as mpmath values at `prec` bits.

        The one exact-to-float conversion of a group; a float group is returned as it is.
        The view's H is the exact H itself, not converted: no float check reads it
        (`H.to_float(prec)` converts it where needed).
        """
        if not self.exact:
            return self
        pr = self.params
        params = GroupParams(pr.p, *(to_float(x, prec) for x in (pr.rho, pr.sigma, pr.tau)), exact=False)
        r1, r2, r3, s = (None if m is None else m.to_float(prec) for m in (self.R1, self.R2, self.R3, self.S))
        return Group(params, r1, r2, r3, self.H, s, n=self.n, m=self.m, signature=self.signature,
                     im_sign=self.im_sign)


def _scalars(params, consts, prec: int):
    """(params, consts, conj) in one scalar type: exact when every param is exact, else mpmath.

    Exact params are Cyclo, int or Fraction; the constants are given exact
    and converted with `to_mpc` only for a float group.  Laurent constants
    make the generic group: the params are then lifted to constant Laurent
    polynomials, so that every entry is one.  Call inside mpmath.workprec(prec).
    """
    exact = [_coerce(x) for x in params]
    if all(x is not None for x in exact):
        if isinstance(consts[0], Laurent):
            exact = [Laurent({0: x}) for x in exact]
        return exact, consts, _conj
    floats = [mpmath.mpc(x) if c is None else c.to_mpc(prec) for x, c in zip(params, exact)]
    return floats, [c.to_mpc(prec) for c in consts], mpmath.conj


def build_group(p: Optional[int], rho, sigma, tau, prec: int = DEFAULT_PREC) -> Group:
    """Assemble generators and Hermitian form from free parameters.

    All of rho, sigma, tau exact (Cyclo / int / Fraction) gives an exact
    group; otherwise everything is converted to mpmath at `prec` bits.
    p None gives the generic group of exact rho, sigma, tau: its entries are
    Laurent polynomials in t = e^{i pi/(3p)}, and its value at t = zeta_{6p}
    is the group at p.
    """
    # u = e^{2 pi i/(3p)} = t^2, uh_bar = e^{-i pi/(3p)} = t^-1,
    # alpha = sqrt(2 - 2cos(2pi/p)) = 2sin(pi/p) = -i(t^3 - t^-3), -i, 0
    if p is None:
        t = Laurent.t
        mi = -Cyclo.i()
        consts = (t(2), t(-1), (t(3) - t(-3)) * mi, Laurent({0: mi}), Laurent({}))
    elif p < 2:
        raise ValueError("reflection order p must be >= 2")
    else:
        consts = (Cyclo.root(3 * p, 1), Cyclo.root(6 * p, 6 * p - 1), sin_exact(angle(1, p)) * 2, -Cyclo.i(),
                  Cyclo.zero())
    with mpmath.workprec(prec):
        (rho, sigma, tau), (u, uh_bar, alpha, mi, zero), conj = _scalars((rho, sigma, tau), consts, prec)
        ub, u2 = conj(u), u * u
        b1, b2, b3 = mi * uh_bar * rho, mi * uh_bar * sigma, mi * uh_bar * tau
        r1 = Mat3([[u2, rho, -(u * conj(tau))], [zero, ub, zero], [zero, zero, ub]])
        r2 = Mat3([[ub, zero, zero], [-(u * conj(rho)), u2, sigma], [zero, zero, ub]])
        r3 = Mat3([[ub, zero, zero], [zero, ub, zero], [tau, -(u * conj(sigma)), u2]])
        h = Mat3(
            [
                [alpha, b1, conj(b3)],
                [conj(b1), alpha, b2],
                [b3, conj(b2), alpha],
            ]
        )
    return Group(GroupParams(p, rho, sigma, tau, exact=h.exact), r1, r2, r3, h)


def symmetry_matrix(p: Optional[int], rho, sigma, prec: int = DEFAULT_PREC) -> Mat3:
    """The extra isometry S of a symmetric group (sigma^2 = rho + conj(rho)); generic in t for p None."""
    if p is None:
        consts = (Laurent.t(2), Laurent({0: Cyclo.one()}), Laurent({}))
    else:
        consts = (Cyclo.root(3 * p, 1), Cyclo.one(), Cyclo.zero())
    with mpmath.workprec(prec):
        (rho, sigma), (u, one, zero), conj = _scalars((rho, sigma), consts, prec)
        ub = conj(u)
        return Mat3(
            [
                [rho, u * (one - (rho + conj(rho))), u * u * sigma],
                [ub, zero, zero],
                [zero, ub * sigma, -one],
            ]
        )


@functools.lru_cache(maxsize=64)
def generic_group(n: int, m: int, im_sign: int) -> Group:
    """The generic group of candidate (n, m) with Im(rho) of sign im_sign: `build_group` and
    `symmetry_matrix` with p None, entries Laurent polynomials in t = e^{i pi/(3p)}."""
    if not is_candidate(n, m):
        raise ValueError(f"({n},{m}) is not a classified candidate: its rho is not cyclotomic")
    rho, sigma = symmetric_params(n, m, im_sign)
    g = build_group(None, rho, sigma, sigma)
    return Group(g.params, g.R1, g.R2, g.R3, g.H, symmetry_matrix(None, rho, sigma), n=n, m=m, im_sign=im_sign)


@functools.lru_cache(maxsize=64)
def form_invariants(n: int, m: int, im_sign: int) -> tuple:
    """(tr H, c1 = sum of the principal 2x2 minors, det H) of the `generic_group`, as Laurent polynomials in t."""
    h = generic_group(n, m, im_sign).H
    return h.trace(), h.minor_sum(), h.det()


@functools.lru_cache(maxsize=64)
def _sign_terms(n: int, m: int, im_sign: int) -> tuple:
    """The `cos_sign` terms of each of the `form_invariants`, exact rationals and so the same at any `prec`.
    Each c * zeta_N^e * t^k of x = sum_k c_k t^k, c rational, is (c, 2kN, 12e, 6N): at t = zeta_{6p}
    its real part is c * cos(pi * (2kN + 12pe) / (6pN))."""
    return tuple(tuple((Fraction(v, c.d) if c.d > 1 else v, 2 * k * c.n, 12 * e, 6 * c.n)
                       for k, c in x.coeffs().items() for e, v in c.c.items())
                 for x in form_invariants(n, m, im_sign))


def form_signature(p: int, n: int, m: int, im_sign: int) -> Signature:
    """Signature of H at p, from the `form_invariants` of candidate (n, m).

    Each invariant's sign at t = zeta_{6p} is the `cos_sign` of its `_sign_terms`, exact (`Laurent.at`)
    only when the doubles cannot decide.
    """
    signs = [cos_sign([(w, a + b * p, c * p) for w, a, b, c in x_terms], exact=lambda x=x: x.at(6 * p))
             for x, x_terms in zip(form_invariants(n, m, im_sign), _sign_terms(n, m, im_sign))]
    return sign_signature(*signs)


def symmetric_params(n: int, m: int, im_sign: int = 1, prec: int = DEFAULT_PREC):
    """(rho, sigma) of braid data (n, n, m; m): |rho| = 2cos(pi/m), sigma = 2cos(pi/n), sigma^2 = 2 Re rho.

    Exact for a classified candidate (rho = tr(S) + 1), else mpmath at `prec` bits; Im(rho) has
    the sign of `im_sign`.  Raises InfeasibleGroupError when 2cos(pi/m) < 2cos^2(pi/n).
    """
    if n < 3 or m < 3:
        raise ValueError("n and m must be >= 3")
    if not parameter_feasible(n, m):
        raise InfeasibleGroupError("no such symmetric group")
    if is_candidate(n, m):
        return candidate_s(n, m, im_sign) + 1, cos_exact(angle(1, n)) * 2
    # rho is not cyclotomic: work it out in floats
    with mpmath.workprec(prec):
        abs_rho = 2 * mpmath.cospi(mpmath.mpf(1) / m)
        re_rho = 2 * mpmath.cospi(mpmath.mpf(1) / n) ** 2
        im_rho = im_sign * mpmath.sqrt(max(abs_rho**2 - re_rho**2, mpmath.mpf(0)))
        return mpmath.mpc(re_rho, im_rho), 2 * mpmath.cospi(mpmath.mpf(1) / n)


def build_symmetric(p: int, n: int, m: int, im_sign: int = 1, prec: int = DEFAULT_PREC) -> Group:
    """The group with symmetry S on the (rho, sigma) of `symmetric_params`, tau = sigma.

    The signature of H is computed here, once, and kept as `signature`: by `form_signature` for a
    classified candidate, by `hermitian_signature` of the float H otherwise.
    """
    if p < 2:
        raise ValueError("reflection order p must be >= 2")
    rho, sigma = symmetric_params(n, m, im_sign, prec)
    g = build_group(p, rho, sigma, sigma, prec=prec)
    smat = symmetry_matrix(p, rho, sigma, prec=prec)
    sig = form_signature(p, n, m, im_sign) if g.exact else hermitian_signature(g.H, prec)
    return Group(g.params, g.R1, g.R2, g.R3, g.H, S=smat, n=n, m=m, signature=sig, im_sign=im_sign)


# ---------------------------------------------------------------------------
# Verification


def _words(g: Group) -> tuple:
    """(R3^-1, (R1R2, R2R3, R1R3, R1R3^-1R2R3)): the inverse and the words of the pairs of `_pair_params`,
    each formed once, left to right, for every check that reads them."""
    r1, r2, r3 = g.generators()
    r3_inv = r3.inverse()
    return r3_inv, (r1 * r2, r2 * r3, r1 * r3, r1 * r3_inv * r2 * r3)


def _relations(g: Group, u, r3_inv: Mat3, words) -> dict:
    """The symmetry relations satisfied by S, by name, as (lhs, rhs) pairs in the scalar type of g.

    First matrices equal up to a cube root of unity: S^2 = R1R2R3, the three
    S-conjugation relations and the two derived pair relations; then vectors
    equal exactly, the polar-vector images S v1 = R1 v2, S v2 = R1 R3 v1 and
    S v3 = -u R1 v3.  Products are taken left to right; r3_inv and `words` are g's `_words`.
    """
    (r1, r2, r3), s = g.generators(), g.S
    r1r2, r2r3, r1r3, conj_word = words
    s_inv, r1_inv = s.inverse(), r1.inverse()
    e = Mat3.identity(s.exact).rows
    return {
        "square": (s * s, r1r2 * r3),
        "conj_r1": (s * r1 * s_inv, r1r2 * r1_inv),
        "conj_r2": (s * r2 * s_inv, r1r3 * r1 * r3_inv * r1_inv),
        "conj_r3": (s * r3 * s_inv, r1r3 * r1_inv),
        "pair_23": (s * r2r3 * s_inv, r1r3),
        "pair_conj": (s * conj_word * s_inv, r1r2),
        "vec1": (s.apply(e[0]), r1.apply(e[1])),
        "vec2": (s.apply(e[1]), r1r3.apply(e[0])),
        "vec3": (s.apply(e[2]), tuple(-u * x for x in r1.apply(e[2]))),
    }


def _pair_params(pr: GroupParams, conj) -> tuple:
    """x = rho, sigma, tau, sigma*tau - conj(rho) of the pairs (R1,R2), (R2,R3), (R1,R3), (R1,R3^-1R2R3)."""
    return pr.rho, pr.sigma, pr.tau, pr.sigma * pr.tau - conj(pr.rho)


def _trace_pairs(words, pr: GroupParams, u, conj) -> tuple:
    """(traces, closed forms) of the words w = R1R2, R2R3, R1R3, R1R3^-1R2R3 of `_words`: tr w against
    u(2 - |x|^2) + ub^2 for the x of `_pair_params`."""
    ub = conj(u)
    return tuple(w.trace() for w in words), tuple(u * (2 - x * conj(x)) + ub * ub for x in _pair_params(pr, conj))


def _lemma_pair(r1r2: Mat3, rho, u, conj) -> tuple:
    """The eigenvalue lemma for R1R2 as its characteristic polynomial, (X - a)(X^2 + bX + c) with
    a = ub^2, b = u(|rho|^2 - 2), c = u^2: its roots are ub^2 and -u e^{+-2i zeta} for |rho| = 2cos(zeta).

    X^3 - tr X^2 + c1 X - det = X^3 - (a - b)X^2 + (c - ab)X - ac, so the pair is
    ((tr, c1, det) of R1R2, (a - b, c - ab, ac)).
    """
    a, b, c = conj(u) * conj(u), u * (rho * conj(rho) - 2), u * u
    return (r1r2.trace(), r1r2.minor_sum(), r1r2.det()), (a - b, c - a * b, a * c)


def _check_pairs(g: Group, u, conj) -> dict:
    """Every check of `verify` but the braid lengths, by name, as (lhs, rhs) pairs in the scalar type of g:
    the `_relations`, the `_trace_pairs` as one vector pair and the `_lemma_pair`, all on one `_words`.

    u = e^{2 pi i/(3p)} and conj are given in that scalar type.  A matrix pair holds when its sides
    are equal up to a cube root of unity, a vector pair when they are equal entry by entry.
    """
    r3_inv, words = _words(g)
    pairs = {f"symmetry:{name}": pair for name, pair in _relations(g, u, r3_inv, words).items()}
    pairs["trace_formulas"] = _trace_pairs(words, g.params, u, conj)
    pairs["eigenvalue_lemma"] = _lemma_pair(words[0], g.params.rho, u, conj)
    return pairs


def _float_view(g: Group, prec: int) -> tuple:
    """(g at `prec` bits, u = e^{2 pi i/(3p)}): the float arguments of the check tables.  Call inside
    mpmath.workprec(prec)."""
    g = g.to_float(prec)
    return g, mpmath.expjpi(mpmath.mpf(2) / (3 * g.params.p))


def _residual(lhs, rhs, prec: int):
    """Float residual of a check pair: `projective_residual` of matrices, else the largest entry difference."""
    if isinstance(lhs, Mat3):
        return projective_residual(lhs, rhs, prec)
    return max(abs(x - y) for x, y in zip(lhs, rhs))


def _braid_params(pr: GroupParams, n: int, m: int, conj) -> tuple:
    """(name, x, expected length) of each braid pair that `verify` checks, in its output order:
    R1,R3 (tau), R2,R3 (sigma), R1,R2 (rho) and R1,R3^-1R2R3 (sigma*tau - conj(rho)), of lengths (n, n, m, m)."""
    rho, sigma, tau, conj_pair = _pair_params(pr, conj)
    return (("br(R1,R3)", tau, n), ("br(R2,R3)", sigma, n), ("br(R1,R2)", rho, m),
            ("br(R1,R3^-1R2R3)", conj_pair, m))


def verify_symmetry(g: Group, prec: int = DEFAULT_PREC) -> dict:
    """Float residuals (`_residual`) at `prec` bits of the symmetry relations satisfied by S (`_relations`), by name."""
    if g.S is None:
        raise ValueError("group has no symmetry S")
    with mpmath.workprec(prec):
        g, u = _float_view(g, prec)
        return {name: _residual(lhs, rhs, prec) for name, (lhs, rhs) in _relations(g, u, *_words(g)).items()}


def trace_invariants(g: Group, prec: int = DEFAULT_PREC):
    """(tr R1R2, tr R2R3, tr R1R3, tr R1R3^-1R2R3), matrix vs closed form (`_trace_pairs`).

    Disagreement beyond `tolerance(prec)` raises (internal consistency failure).
    """
    with mpmath.workprec(prec):
        g, u = _float_view(g, prec)
        traces, closed = _trace_pairs(_words(g)[1], g.params, u, mpmath.conj)
        if _residual(traces, closed, prec) > tolerance(prec):
            raise RuntimeError(f"trace formula mismatch: {traces} vs {closed}")
        return traces


def braid_length(x, max_l: int, prec: int = DEFAULT_PREC):
    """The l <= max_l with |x|^2 = 4cos^2(pi/l), else None: the braid length of the pair of complex
    reflections of order p whose parameter is x (`_pair_params`).

    4cos^2(pi/l) = 2 + 2cos(2pi/l) rises strictly with l, so at most one l matches, and a bisection over
    l = 2..max_l finds the least l whose difference 4cos^2(pi/l) - |x|^2 is not negative.  An exact x
    (Cyclo, int or Fraction) is decided exactly, each sign by `Cyclo.real_sign`: that l matches or none
    does.  An mpmath x is read at `prec` bits: of that l and the one below it, the one whose difference
    is nearer 0 matches when that difference is within `tolerance(prec)`.  The tolerance can be wider
    than the gap between two lengths (about 8pi^2/l^3: 3.6e-9 at l = 2786, against 2^-26 at 53 bits);
    |x|^2 is read within about 2^-prec, far below half that gap, so the nearer length is the one of x.

    Why |x| gives the length.  Let A, B be the two reflections, u = e^{2 pi i/(3p)}, each A = ub on C^3
    modulo its polar vector and A = u^2 on it, and V the span of the two polar vectors.
    - On C^3/V both act as ub, so both alternating products of length l act as ub^l there: they can
      agree up to a cube root of unity w only with w = 1.
    - On V, the pair is fixed up to conjugacy by u and tr(AB|V) = tr(AB) - ub^2 = u(2 - |x|^2) (the
      `trace_formulas` check proves tr(AB)).  With |x| = 2cos(zeta), 0 <= zeta <= pi/2, AB|V has the
      eigenvalues -u e^{+-2i zeta} (the eigenvalue lemma), and the products of length l agree on V
      iff l*zeta is in pi*Z.  So the least length is l exactly when |x| = 2cos(pi/l).  (A |x| of
      2cos(k pi/l), k > 1 prime to l, has length l too, and reads None here; every x that `verify`
      reads has |x| = 2cos(pi/n) or 2cos(pi/m) by construction.)
    - The block of A and B from C^3/V to V vanishes.  When H on V is nondegenerate, V^perp is an
      invariant complement, on which both act as ub: the products then agree on C^3.  H on V has
      det 4sin^2(pi/p) - |x|^2, 0 exactly at the Euclidean (p, l) in {(3,6), (4,4), (6,3)}, where
      1/p + 1/l = 1/2.  There, the difference of the two products is a Laurent polynomial in
      t = e^{i pi/(3p)}, with rho and sigma fixed, that vanishes at all but finitely many t on the unit
      circle, so it vanishes everywhere.
    """
    if max_l < 2:
        raise ValueError("max_l must be >= 2")
    lengths = range(2, max_l + 1)
    exact = _coerce(x)
    if exact is not None:
        abs2 = exact * exact.conj()

        @functools.cache  # the bisection's last probe is read again
        def sign(l: int) -> int:
            return (cos_exact(angle(2, l)) * 2 + 2 - abs2).real_sign()
        i = bisect.bisect_left(lengths, 0, key=sign)
        return lengths[i] if i < len(lengths) and sign(lengths[i]) == 0 else None
    with mpmath.workprec(prec):
        abs2, tol = abs(x) ** 2, tolerance(prec)

    @functools.cache  # the bisection's last probe is read again
    def diff(l: int):
        with mpmath.workprec(prec):
            return 2 * mpmath.cospi(mpmath.mpf(2) / l) + 2 - abs2
    i = bisect.bisect_left(lengths, 0, key=diff)
    near = min(lengths[max(i - 1, 0):i + 1], key=lambda l: abs(diff(l)))
    return near if abs(diff(near)) <= tol else None


@dataclass(frozen=True)
class Certificate:
    """The verdicts of `verify` on a classified candidate, each proved once for every p.

    `checks` holds a (name, holds) pair for each pair of `_check_pairs`: an identity in
    t = e^{i pi/(3p)} on the generic group.  `braids` holds (name, expected length, length) for each
    pair of `_braid_params`: the `braid_length` of its exact x from `symmetric_params`, which no p
    changes.  So every braid verdict rests on the lemma proved there: outside the Euclidean p it holds
    at p on the group at p; at a Euclidean p the difference of the two products is a Laurent
    polynomial in t that vanishes wherever H on V is nondegenerate, so at every t.
    """

    checks: tuple
    braids: tuple


@functools.lru_cache(maxsize=64)
def certificate(n: int, m: int, im_sign: int) -> Certificate:
    """The `Certificate` of candidate (n, m) with Im(rho) of sign im_sign.

    It reads the `generic_group`, whose entries are Laurent polynomials in
    t over Q(zeta_N), with u = t^2: each pair of `_check_pairs` is decided
    by `projective_equal` (matrices) or by the exact zero test of each
    entry difference (vectors).  The braid lengths are the `braid_length`
    of each exact x, each read up to its expected length.
    """
    g = generic_group(n, m, im_sign)
    checks = tuple((name, projective_equal(lhs, rhs) if isinstance(lhs, Mat3)
                    else all((x - y).is_zero() for x, y in zip(lhs, rhs)))
                   for name, (lhs, rhs) in _check_pairs(g, Laurent.t(2), _conj).items())
    rho, sigma = symmetric_params(n, m, im_sign)
    params = GroupParams(None, rho, sigma, sigma, exact=True)
    braids = tuple((name, expect, braid_length(x, expect))
                   for name, x, expect in _braid_params(params, n, m, _conj))
    return Certificate(checks, braids)


def evaluate_word(g: Group, word: Sequence[int], prec: int = DEFAULT_PREC) -> Mat3:
    """Left-to-right product over signed generator indices (+-1, +-2, +-3), in g's scalar type."""
    for idx in word:
        if idx not in (-3, -2, -1, 1, 2, 3):
            raise ValueError(f"bad generator index {idx}")
    with mpmath.workprec(prec):
        mats = dict(enumerate(g.generators(), start=1))
        mats.update({-k: r.inverse() for k, r in mats.items()})
        out = Mat3.identity(exact=g.exact)
        for idx in word:
            out = out * mats[idx]
        return out


def lemma_eigenvalues_residual(g: Group, prec: int = DEFAULT_PREC):
    """Float residual at `prec` bits of the eigenvalue lemma for R1R2, `_lemma_pair`: the largest
    difference of (tr, c1, det) of R1R2 from the lemma's characteristic coefficients."""
    with mpmath.workprec(prec):
        g, u = _float_view(g, prec)
        return _residual(*_lemma_pair(g.R1 * g.R2, g.params.rho, u, mpmath.conj), prec)


@dataclass(frozen=True)
class Check:
    """One verification result: its name, JSON-ready details, and whether it passed."""

    name: str
    passed: bool
    details: dict

    def to_dict(self) -> dict:
        return {"check": self.name, **self.details, "pass": self.passed}


def _braid_checks(signature: Signature, braids) -> list[Check]:
    """A check of each (name, expected, got) of `braids` when H has signature (2,1), else one of the skip."""
    verdict = signature.verdict
    if verdict != "(2,1)":
        return [Check("braid", True, {"skipped": f"signature {verdict}"})]
    return [Check(name, got == expect, {"expected": expect, "got": got}) for name, expect, got in braids]


def _certified_checks(n: int, m: int, im_sign: int, signature: Signature) -> list[Check]:
    """Every check of candidate (n, m) at a p where H has `signature`, from its `certificate`."""
    cert = certificate(n, m, im_sign)
    checks = [Check(name, ok, {"residual": "0" if ok else "nonzero"}) for name, ok in cert.checks]
    return checks + _braid_checks(signature, cert.braids)


def verify(g: Group, prec: int = DEFAULT_PREC) -> list[Check]:
    """Every check of a symmetric group, in order: symmetry relations, trace
    formulas, eigenvalue lemma, then the four braid lengths, each read up
    to its expected length.

    The non-braid checks are the pairs of `_check_pairs`.  An exact group (a
    classified candidate) reads its `certificate`, as `verify_symmetric` does,
    and not its matrices or prec.  Any other group measures each pair
    once in floats at `prec` bits (`_residual`) and passes a check whose
    residual is at most `tolerance(prec)`, and reads each braid length from
    its x by `braid_length` at `prec` bits.  The braid lengths are only
    checked when H has signature (2,1); otherwise one passing "braid" check
    records the skip.
    """
    if g.exact:
        return _certified_checks(g.n, g.m, g.im_sign, g.signature)
    with mpmath.workprec(prec):
        residuals = {name: _residual(lhs, rhs, prec)
                     for name, (lhs, rhs) in _check_pairs(*_float_view(g, prec), mpmath.conj).items()}
        braids = [(name, expect, braid_length(x, expect, prec))
                  for name, x, expect in _braid_params(g.params, g.n, g.m, mpmath.conj)]
    checks = [Check(name, bool(res <= tolerance(prec)), {"residual": mpmath.nstr(mpmath.mpf(res), 10)})
              for name, res in residuals.items()]
    return checks + _braid_checks(g.signature, braids)


def verify_symmetric(p: int, n: int, m: int, im_sign: int = 1,
                     prec: int = DEFAULT_PREC) -> tuple[list[Check], Signature]:
    """(`verify`, signature of H) of the group of `build_symmetric`.  A candidate builds nothing at p:
    it reads its `certificate` and `form_signature`.  Any other (n, m) builds its float group."""
    if not is_candidate(n, m):
        g = build_symmetric(p, n, m, im_sign, prec)
        return verify(g, prec), g.signature
    if p < 2:
        raise ValueError("reflection order p must be >= 2")
    signature = form_signature(p, n, m, im_sign)
    return _certified_checks(n, m, im_sign, signature), signature
