import cmath
import itertools
import json
import math
import pathlib
import random
from fractions import Fraction

import mpmath
import pytest
import sympy

import chtri.cli
from chtri.exact import Cyclo, _float_value, angle, cos_sum
from chtri.cosearch import (
    COSINE_SUM_LABELS,
    ANGLE_TOL,
    PARAMETRIC_TRACE_ROWS,
    TRACE_TABLE_LABELS,
    Candidate,
    _angle_grid,
    _eigenvalues,
    canonicalize_ab,
    factorization_residual,
    half_angle_residuals,
    main_residual,
    minor_residual,
    cosine_sum_residual,
    feasibility_sign,
    orbit,
    parameter_feasible,
    results_to_json,
    search,
    trace_s,
    trace_table_residual,
)

# known exact solutions: (n, m) -> (a, b)
KNOWN = {
    (3, 4): (angle(2, 7), angle(4, 7)),
    (3, 5): (angle(2, 5), angle(7, 15)),
    (4, 3): (angle(2, 3), angle(4, 3)),
    (5, 4): (angle(2, 15), angle(8, 15)),
    (8, 6): (angle(1, 2), angle(1, 12)),
    (6, 6): (angle(1, 3), angle(1, 3)),
}


class TestResiduals:
    @pytest.mark.parametrize("nm", sorted(KNOWN))
    def test_known_solutions_exact(self, nm):
        n, m = nm
        a, b = KNOWN[nm]
        assert minor_residual(n, a, b).is_zero()
        assert main_residual(m, n, a, b).is_zero()

    def test_non_solution_nonzero(self):
        assert not minor_residual(3, angle(1, 5), angle(1, 5)).is_zero()
        assert not main_residual(4, 4, angle(1, 9), angle(1, 7)).is_zero()

    def test_trace_s_conjugation(self):
        a, b = angle(2, 7), angle(4, 7)
        s = trace_s(a, b)
        assert (trace_s(-a, -b) - s.conj()).is_zero()

    def test_feasibility(self):
        assert parameter_feasible(4, 3)  # equality case
        assert parameter_feasible(3, 4)
        assert not parameter_feasible(6, 3)

    def test_feasibility_matches_the_sympy_sign(self):
        # oracle: sympy's sign of 2cos(pi/m) - 1 - cos(2pi/n), zero only where it simplifies to 0
        zeros = []
        for n in range(3, 31):
            for m in range(3, 31):
                sign = sympy.sign(2 * sympy.cos(sympy.pi / m) - 1 - sympy.cos(2 * sympy.pi / n))
                assert sign in (-1, 0, 1), (n, m)
                if sign == 0:
                    zeros.append((n, m))
                assert parameter_feasible(n, m) == (sign >= 0), (n, m)
        assert zeros == [(4, 3)]


def doubles_undecided(terms, const):
    """Whether the doubles of `cos_sign` cannot decide the sign of const + sum(k * cos(pi*num/den))."""
    v, bound = _float_value([*terms, (const, 0, 1)])
    return abs(v) <= bound


def pi_times(q: Fraction):
    """The angle pi*q, from the Fraction definition."""
    return angle(q.numerator, q.denominator)


class TestOrbit:
    def test_orbit_size(self):
        a, b = angle(2, 7), angle(4, 7)
        assert len(orbit(a, b)) <= 36
        assert (a, b) in orbit(a, b)

    def test_matches_the_fraction_definition(self):
        # all 36 images computed on Fractions mod 2: permute {a, b, -(a+b)}, negate, shift by 2pi/3
        rng = random.Random(5)
        for _ in range(40):
            da, db = rng.randint(1, 40), rng.randint(1, 40)
            a, b = angle(rng.randint(0, 2 * da - 1), da), angle(rng.randint(0, 2 * db - 1), db)
            exps = (a.frac, b.frac, -(a.frac + b.frac))
            want = {(pi_times(sign * x + Fraction(2 * k, 3)), pi_times(sign * y + Fraction(2 * k, 3)))
                    for x, y in itertools.permutations(exps, 2) for sign in (1, -1) for k in range(3)}
            assert orbit(a, b) == want, (a, b)

    def test_canonical_invariant(self):
        rng = random.Random(11)
        for _ in range(10):
            a = angle(rng.randint(0, 13), 7)
            b = angle(rng.randint(0, 17), 9)
            key = canonicalize_ab(a, b)
            assert key in orbit(a, b) and all(key <= pair for pair in orbit(a, b))  # least in Angle order
            for x, y in orbit(a, b):
                assert canonicalize_ab(x, y) == key

    def test_unshifted_images_preserve_both_equations(self):
        # the 12 images without a 2pi/3 shift leave Re s and |s|^2, hence both residuals, unchanged
        rng = random.Random(29)
        shifted_changes = False
        for _ in range(12):
            da, db = rng.randint(1, 30), rng.randint(1, 30)
            a, b = angle(rng.randint(0, 2 * da - 1), da), angle(rng.randint(0, 2 * db - 1), db)
            exps = (a.frac, b.frac, -(a.frac + b.frac))
            images = {(pi_times(sign * x), pi_times(sign * y))
                      for x, y in itertools.permutations(exps, 2) for sign in (1, -1)}
            assert images <= orbit(a, b) and len(images) <= 12
            n, m = rng.randint(3, 12), rng.randint(3, 12)
            minor, main = minor_residual(n, a, b), main_residual(m, n, a, b)
            for x, y in images:
                assert (minor_residual(n, x, y) - minor).is_zero(), (a, b, x, y)
                assert (main_residual(m, n, x, y) - main).is_zero(), (a, b, x, y)
            for k in (1, 2):
                shift = angle(2 * k, 3)
                shifted_changes |= not (minor_residual(n, a + shift, b + shift) - minor).is_zero()
        assert shifted_changes  # so a shift is not a symmetry of the equations

    def test_trace_s_orbit_values(self):
        # every orbit member gives s up to cube-root-of-unity times s or conj(s)
        from chtri.exact import Cyclo

        a, b = angle(2, 5), angle(7, 15)
        s = trace_s(a, b)
        allowed = []
        for j in range(3):
            w = Cyclo.root(3, j)
            allowed.extend([s * w, s.conj() * w])
        for x, y in orbit(a, b):
            sx = trace_s(x, y)
            assert any((sx - t).is_zero() for t in allowed)


# the float screen of the pair scan: a grid pair survives when each equation holds to this tolerance
PREFILTER_TOL = 1e-9


def pair_scan(den_max, n_max, m_max):
    """The search as a scan of every grid pair (a, b) with b not before a: a test oracle."""
    grid = _angle_grid(den_max)
    th = [math.pi * (g.num / g.den) for g in grid]
    cos_th = [math.cos(t) for t in th]
    cos_n = {n: math.cos(2 * math.pi / n) for n in range(3, n_max + 1)}
    cos_m = {m: math.cos(2 * math.pi / m) for m in range(3, m_max + 1)}
    least = {}
    for i, a_th in enumerate(th):
        for j in range(i, len(th)):
            b_th = th[j]
            v = cos_th[i] + cos_th[j] + math.cos(a_th + b_th)
            core = (-math.cos(a_th - b_th) - math.cos(a_th + 2 * b_th)
                    - math.cos(2 * a_th + b_th) - 1.0)
            for n, cn in cos_n.items():
                if abs(v - cn) >= PREFILTER_TOL:
                    continue
                for m, cm in cos_m.items():
                    if abs(cm + (core - cn)) < PREFILTER_TOL:
                        pair = (grid[i], grid[j])
                        key = (n, m) + canonicalize_ab(*pair)
                        least[key] = min(least.get(key, pair), pair)
    out = [Candidate(n, m, a, b) for (n, m, *_), (a, b) in least.items()
           if minor_residual(n, a, b).is_zero() and main_residual(m, n, a, b).is_zero()]
    return sorted(out, key=lambda c: (c.n, c.m, c.a.frac, c.b.frac))


@pytest.fixture
def goldman(monkeypatch):
    """(n, m) -> (terms, const, sign) of the f(s) sign that `_eigenvalues(n, m)` asks of `cos_sign`, on an
    infeasible (n, m) too, which `_eigenvalues` rejects before it asks"""
    import chtri.cosearch as cosearch

    asked, sign, feasible = [], cosearch.cos_sign, cosearch.feasibility_sign
    monkeypatch.setattr(cosearch, "feasibility_sign", lambda n, m: max(feasible(n, m), 1))

    def spy(terms, const=0):
        asked.append((terms, const, sign(terms, const)))
        return asked[-1][2]

    def ask(n, m):
        asked.clear()
        _eigenvalues(n, m)
        (f,) = asked
        return f

    monkeypatch.setattr(cosearch, "cos_sign", spy)
    return ask


class TestSearch:
    @pytest.mark.parametrize("bounds", [(12, 12, 7), (24, 12, 12), (24, 20, 20), (36, 12, 12)])
    def test_matches_the_pair_scan(self, bounds):
        assert search(*bounds) == pair_scan(*bounds)

    def test_finer_grid_finds_no_new_orbit(self):
        # the 15 classified (n, m) representatives all have denominators <= 90
        coarse = search(den_max=90)
        assert len(coarse) == 15 and all(c.exact_confirmed for c in coarse)
        assert search(den_max=210) == coarse

    def test_at_most_one_orbit_per_pair(self):
        # Re s and |s|^2 fix s up to conjugation, so its eigenvalues up to the 12 images of (a, b)
        res = search(den_max=90, n_max=60, m_max=60)
        pairs = [(c.n, c.m) for c in res]
        assert len(pairs) == len(set(pairs)) == 56
        assert all(c.exact_confirmed for c in res)

    def test_eigenvalues_match_mpmath(self):
        # against mpmath's roots of the cubic at 120 bits: None exactly when Im^2 s < 0 or a root
        # is off the unit circle, and otherwise every angle within 2e-15 (in units of pi), inside ANGLE_TOL.
        # Im^2 s is read from the small terms 4(sin^2(pi/n) - 2sin^2(pi/2m))(cos(pi/m) + cos^2(pi/n)); the
        # difference 1 + 2cos(2pi/m) - 2cos(2pi/n) - cos^2(2pi/n) of O(1) terms reached 6e-15 at (24,17)
        worst = 0
        with mpmath.workprec(120):
            for n, m in itertools.product(range(3, 31), repeat=2):
                x = mpmath.cospi(mpmath.mpf(2) / n)
                im2 = 1 + 2 * mpmath.cospi(mpmath.mpf(2) / m) - 2 * x - x * x
                roots = _eigenvalues(n, m)
                if im2 < -1e-30:
                    assert roots is None, (n, m)
                    continue
                s = mpmath.mpc(x, mpmath.sqrt(max(im2, 0)))
                ref = mpmath.polyroots([1, -s, mpmath.conj(s), -1], maxsteps=500, extraprec=240)
                assert (roots is not None) == all(abs(abs(r) - 1) < 1e-9 for r in ref), (n, m)
                want = [mpmath.arg(r) / mpmath.pi for r in ref]
                for r in roots or []:
                    got = cmath.phase(r) / math.pi
                    worst = max(worst, min(float(abs((got - w + 1) % 2 - 1)) for w in want))
        assert worst < 2e-15 < ANGLE_TOL / 10

    def test_goldman_terms_match_the_closed_form(self, goldman):
        # the cosine expansion of f(s) against f = |s|^4 - 8 Re(s^3) + 18|s|^2 - 27 at 200 bits, with
        # Re s = x = cos(2pi/n), |s|^2 = 1 + 2cos(2pi/m) - 2x and Re(s^3) = 4x^3 - 3x|s|^2
        with mpmath.workprec(200):
            for n, m in itertools.product(range(3, 40), repeat=2):
                terms, const, _ = goldman(n, m)
                x = mpmath.cospi(mpmath.mpf(2) / n)
                mod2 = 1 + 2 * mpmath.cospi(mpmath.mpf(2) / m) - 2 * x
                want = mod2 ** 2 - 8 * (4 * x ** 3 - 3 * x * mod2) + 18 * mod2 - 27
                got = const + sum(k * mpmath.cospi(mpmath.mpf(num) / den) for k, num, den in terms)
                assert abs(got - want) < mpmath.mpf(2) ** -180, (n, m)

    def test_the_equality_cases_are_found(self, goldman):
        # (4,3): Im^2 s = 0, so s = 0; (6,6): f(s) = 0, a double eigenvalue.  The doubles cannot
        # decide either sign, and the exact values are zero
        assert doubles_undecided(((2, 1, 3), (-1, 2, 4)), -1) and feasibility_sign(4, 3) == 0
        assert cos_sum([(2, angle(1, 3)), (-1, angle(2, 4))], -1).is_zero()
        terms, const, f = goldman(6, 6)
        assert doubles_undecided(terms, const) and f == 0
        assert cos_sum([(k, angle(num, den)) for k, num, den in terms], const).is_zero()
        res = {(c.n, c.m): (c.a, c.b) for c in search(den_max=12, n_max=6, m_max=6)}
        assert res[(4, 3)] == (angle(0, 1), angle(2, 3)) and trace_s(*res[(4, 3)]).is_zero()
        assert res[(6, 6)] == (angle(1, 3), angle(1, 3))

    def test_a_zero_sign_makes_im_s_exactly_zero(self, monkeypatch):
        # Im s is 0 when the exact sign of Im^2 s is 0, whatever its double reads: with the sign
        # forced to 0 at (5,5), whose Im^2 s is 0.90, the three roots sum to the real s = cos(2pi/5)
        import chtri.cosearch as cosearch

        monkeypatch.setattr(cosearch, "feasibility_sign", lambda n, m: 0)
        assert abs(sum(_eigenvalues(5, 5)) - math.cos(2 * math.pi / 5)) < 1e-14

    def test_work_count(self, monkeypatch):
        # one cubic per (n, m) and one exact test per printed row, at any den_max
        import chtri.cosearch as cosearch

        eigenvalues, minor = cosearch._eigenvalues, cosearch.minor_residual
        for den_max in (90, 10**5):
            cubics, exact = [], []
            monkeypatch.setattr(cosearch, "_eigenvalues", lambda n, m: cubics.append((n, m)) or eigenvalues(n, m))
            monkeypatch.setattr(cosearch, "minor_residual", lambda n, a, b: exact.append(n) or minor(n, a, b))
            res = search(den_max=den_max, n_max=20, m_max=20)
            assert cubics == list(itertools.product(range(3, 21), repeat=2))
            assert len(exact) == len(res)

    def test_representative_of_two_read_angles(self, monkeypatch):
        # the roots for a = pi/2 and b = 4pi/3, with every residual taken as 0: at den_max 3 the third
        # angle -(a+b) = pi/6 is not read, and the representative comes from the two read angles, among
        # the images with both denominators <= den_max; at den_max 6 it is (pi/2, pi/6)
        import chtri.cosearch as cosearch

        roots = [cmath.exp(1j * math.pi * t) for t in (1 / 2, 4 / 3, 1 / 6)]
        monkeypatch.setattr(cosearch, "minor_residual", lambda n, a, b: Cyclo.zero())
        monkeypatch.setattr(cosearch, "main_residual", lambda m, n, a, b: Cyclo.zero())
        monkeypatch.setattr(cosearch, "_eigenvalues", lambda n, m: roots)
        assert [(c.a, c.b) for c in search(3, 3, 3)] == [(angle(1, 2), angle(4, 3))]
        assert [(c.a, c.b) for c in search(6, 3, 3)] == [(angle(1, 2), angle(1, 6))]
        monkeypatch.setattr(cosearch, "_eigenvalues", lambda n, m: roots[::2])
        assert search(3, 3, 3) == []  # one read angle fixes nothing

    def test_small_grid(self):
        # frozen output of the denominator-12 grid with m capped at 7
        res = search(den_max=12, n_max=12, m_max=7)
        got = {(c.n, c.m) for c in res if c.exact_confirmed}
        assert got == {(3, 3), (3, 4), (4, 3), (4, 4), (5, 5), (6, 6), (8, 6)}
        assert all(parameter_feasible(c.n, c.m) for c in res)

    def test_json_schema(self):
        res = search(den_max=8, n_max=6, m_max=6)
        doc = json.loads(results_to_json(res))
        assert doc
        row = doc[0]
        assert set(row) == {"n", "m", "a", "b", "s", "exact_confirmed", "parameter_feasible"}
        assert set(row["a"]) == {"num", "den"}
        # 50 significant digits in the decimal strings
        assert len(row["s"]["re"].replace("-", "").replace(".", "").lstrip("0")) >= 45


def largest_order(phi_max):
    """The largest K with phi(K) <= phi_max: each prime power p^e of K has p^(e-1) (p-1) <= phi_max."""

    def walk(primes, k, phi):
        best = k
        for i, p in enumerate(primes):
            if phi * (p - 1) > phi_max:
                break  # the primes ascend
            q, f = p, p - 1
            while phi * f <= phi_max:
                best = max(best, walk(primes[i + 1:], k * q, phi * f))
                q, f = q * p, f * p
        return best

    return walk(list(sympy.primerange(2, phi_max + 2)), 1, 1)


class TestCompleteness:
    def test_largest_order(self):
        # against a direct scan of phi up to 2 phi_max^2, since phi(k) >= sqrt(k/2)
        for phi_max in (1, 2, 4, 8, 24, 72):
            direct = max(k for k in range(1, 2 * phi_max ** 2 + 3) if sympy.totient(k) <= phi_max)
            assert largest_order(phi_max) == direct, phi_max

    def test_no_orbit_beyond_den_90(self):
        # s lies in Q(zeta_L, Im s), L = lcm(4, n, m), of degree <= 2 phi(L); each eigenvalue of S
        # is a root of a cubic over it, so a root of unity zeta_K there has phi(K) <= 6 phi(L),
        # and each angle pi*j/q of the eigenvalues has q <= K
        phi_max = max(6 * sympy.totient(math.lcm(4, n, m)) for n in range(3, 13) for m in range(3, 13))
        bound = largest_order(phi_max)
        assert (phi_max, bound) == (720, 3150)
        assert search(den_max=bound) == search(den_max=90)

    @pytest.mark.parametrize("den_max", [1000, 3000, 10**5])
    def test_larger_den_max_prints_the_same_rows(self, den_max, capsys):
        golden = pathlib.Path(__file__).parent / "data" / "search_den90.json"
        argv = ["search", "--den-max", str(den_max), "--n-max", "12", "--m-max", "12", "--format", "json"]
        assert chtri.cli.main(argv) == 0
        assert capsys.readouterr().out == golden.read_text()


class TestIdentities:
    def test_all_labels_present(self):
        assert len(COSINE_SUM_LABELS) == 15
        assert len(TRACE_TABLE_LABELS) == 13

    @pytest.mark.parametrize("label", COSINE_SUM_LABELS)
    def test_cosine_sums_exact(self, label):
        rng = random.Random(17)
        if label in ("a", "b", "c"):
            for _ in range(5):
                den = rng.randint(1, 60)
                phi = angle(rng.randint(0, 2 * den - 1), den)
                assert cosine_sum_residual(label, phi).is_zero()
        else:
            assert cosine_sum_residual(label).is_zero()

    @pytest.mark.parametrize("label", TRACE_TABLE_LABELS)
    def test_trace_table_exact(self, label):
        rng = random.Random(19)
        if label in ("i", "ii"):
            for _ in range(5):
                den = rng.randint(1, 60)
                psi = angle(rng.randint(0, 2 * den - 1), den)
                assert trace_table_residual(label, psi).is_zero()
        else:
            assert trace_table_residual(label).is_zero()

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            cosine_sum_residual("zz")

    def test_each_linear_residual_is_reduced_once(self, monkeypatch):
        # a sum of cosines is built in one pass over one conductor: one Cyclo._of per residual
        calls = []
        of = Cyclo._of.__func__
        monkeypatch.setattr(Cyclo, "_of", classmethod(lambda cls, *args: calls.append(args[0]) or of(cls, *args)))
        phi = angle(7, 30)
        residuals = {
            **{("cosine-sums", lab): lambda lab=lab: cosine_sum_residual(lab, phi) for lab in COSINE_SUM_LABELS},
            **{("trace-table", lab): lambda lab=lab: trace_table_residual(lab) for lab in TRACE_TABLE_LABELS
               if lab not in PARAMETRIC_TRACE_ROWS},
            **{("trace-table", lab): lambda lab=lab: trace_table_residual(lab, phi) for lab in PARAMETRIC_TRACE_ROWS},
            ("minor",): lambda: minor_residual(3, angle(2, 7), angle(4, 7)),
            ("main",): lambda: main_residual(4, 3, angle(2, 7), angle(4, 7)),
        }
        assert len(residuals) == 15 + 13 + 2
        for key, residual in residuals.items():
            calls.clear()
            assert residual().is_zero(), key
            assert len(calls) == 1, key

    def test_factorization_random(self):
        rng = random.Random(23)
        for _ in range(10):
            da, db = rng.randint(1, 24), rng.randint(1, 24)
            a = angle(rng.randint(0, 2 * da - 1), da)
            b = angle(rng.randint(0, 2 * db - 1), db)
            assert factorization_residual(a, b).is_zero()
            for r in half_angle_residuals(a, b):
                assert r.is_zero()
