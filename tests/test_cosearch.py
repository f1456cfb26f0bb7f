import itertools
import json
import math
import random
from fractions import Fraction

import pytest
import sympy

from chtri.exact import Cyclo, angle, cos_sum
from chtri.cosearch import (
    COSINE_SUM_LABELS,
    PARAMETRIC_TRACE_ROWS,
    PREFILTER_TOL,
    ROOT_ERROR,
    TRACE_TABLE_LABELS,
    Candidate,
    _angle_grid,
    _near_roots,
    _root_table,
    canonicalize_ab,
    factorization_residual,
    half_angle_residuals,
    main_residual,
    minor_residual,
    cosine_sum_residual,
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
    out = []
    for (n, m, *_), (a, b) in least.items():
        confirmed = minor_residual(n, a, b).is_zero() and main_residual(m, n, a, b).is_zero()
        out.append(Candidate(n, m, a, b, confirmed, parameter_feasible(n, m)))
    return sorted(out, key=lambda c: (c.n, c.m, c.a.frac, c.b.frac))


def in_domain(a, b):
    """a in [0, pi] and |b| >= a, |b| the circle distance of b to 0: exact, on Angles."""
    return a.num <= a.den and a.num * b.den <= b.num * a.den <= (2 * a.den - a.num) * b.den


def minor_float(a, b):
    """cos a + cos b + cos(a+b) in floats, from the angles as `search` rounds them."""
    ta, tb = math.pi * (a.num / a.den), math.pi * (b.num / b.den)
    return math.cos(ta) + math.cos(tb) + math.cos(ta + tb)


def domain_solutions(grid, a0, b0):
    """Every grid pair (i, j) in the search domain with cos a + cos b + cos(a+b) equal to its
    value at (a0, b0): a scan of every pair in floats, then an exact test of each survivor."""
    th = [math.pi * (g.num / g.den) for g in grid]
    cn = minor_float(a0, b0)
    target = [(-1, a0), (-1, b0), (-1, a0 + b0)]
    out = set()
    for (i, a), (j, b) in itertools.product(enumerate(grid), repeat=2):
        if in_domain(a, b) and abs(math.cos(th[i]) + math.cos(th[j]) + math.cos(th[i] + th[j]) - cn) < PREFILTER_TOL:
            if cos_sum([(1, a), (1, b), (1, a + b)] + target).is_zero():
                out.add((i, j))
    return cn, out


# grid pairs (a, b) on the edges of the search domain, as ((num, den), (num, den)) of pi
DOMAIN_EDGES = {
    "a = pi": ((1, 1), (1, 1)),  # target -1: every (a, pi) and (a, pi - a) solves it
    "a in (pi/2, pi)": ((3, 4), (5, 6)),
    "|b| = a": ((5, 12), (5, 12)),
    "b = 2pi - a": ((5, 12), (19, 12)),
    "a = 0": ((0, 1), (2, 3)),
    # b = pi - a/2: the two roots meet; at 2pi/3 the whole orbit has a > pi/2
    "tangent at 2pi/3": ((2, 3), (2, 3)),
    "tangent at pi/2": ((1, 2), (3, 4)),
}


class TestNearRoots:
    @pytest.mark.parametrize("edge", sorted(DOMAIN_EDGES))
    def test_finds_every_domain_solution_and_nothing_else(self, edge):
        grid = _angle_grid(24)
        (an, ad), (bn, bd) = DOMAIN_EDGES[edge]
        cn, expected = domain_solutions(grid, angle(an, ad), angle(bn, bd))
        assert expected  # the pair's own orbit has a member in the domain
        assert _near_roots(cn, *_root_table(grid)) == sorted(expected)

    def test_no_pair_just_inside_the_domain_edge(self):
        # 28pi/57 lies pi/3363 (under 1e-3) below 29pi/59: (29pi/59, 28pi/57) is a solution
        # outside the domain, and its swap is the domain member of its orbit
        grid = _angle_grid(60)
        a0, b0 = angle(29, 59), angle(28, 57)
        assert 0 < math.pi * float(a0.frac - b0.frac) < 1e-3
        near = _near_roots(minor_float(a0, b0), *_root_table(grid))
        assert (grid.index(b0), grid.index(a0)) in near
        assert all(in_domain(grid[i], grid[j]) for i, j in near)

    @pytest.mark.parametrize("den_max, pairs", [(90, 51), (150, 64)])
    def test_work_count(self, den_max, pairs):
        # the near-root pairs of the n <= 12 pass, and under 1% of the (a, n) root solves:
        # screening every grid neighbour of every root would be over 100 times as many
        table = _root_table(_angle_grid(den_max))
        near = [p for n in range(3, 13) for p in _near_roots(math.cos(2 * math.pi / n), *table)]
        assert len(near) == pairs
        assert len(near) < 0.01 * len(table[2]) * 10


class TestSearch:
    @pytest.mark.parametrize("bounds", [(12, 12, 7), (24, 12, 12), (24, 20, 20), (36, 12, 12)])
    def test_matches_the_pair_scan(self, bounds):
        assert search(*bounds) == pair_scan(*bounds)

    def test_finer_grid_finds_no_new_orbit(self):
        # the 15 classified (n, m) representatives all have denominators <= 90
        coarse = search(den_max=90)
        assert len(coarse) == 15 and all(c.exact_confirmed for c in coarse)
        assert search(den_max=210) == coarse

    def test_one_orbit_expansion_per_key(self, monkeypatch):
        import chtri.cosearch as cosearch

        calls = []
        real = cosearch.canonicalize_ab
        monkeypatch.setattr(cosearch, "canonicalize_ab", lambda a, b: calls.append((a, b)) or real(a, b))
        res = search(den_max=90)
        assert len(calls) == len(res) == 15

    def test_grid_finer_than_the_root_error_is_rejected(self):
        # the least grid gap pi/den_max**2 must exceed ROOT_ERROR; raised before the grid is built
        assert math.pi / 5604 ** 2 > ROOT_ERROR >= math.pi / 5605 ** 2
        with pytest.raises(ValueError, match="root error"):
            search(den_max=5605)

    def test_small_grid(self):
        # frozen output of the denominator-12 grid with m capped at 7
        res = search(den_max=12, n_max=12, m_max=7)
        got = {(c.n, c.m) for c in res if c.exact_confirmed}
        assert got == {(3, 3), (3, 4), (4, 3), (4, 4), (5, 5), (6, 6), (8, 6)}
        assert all(c.parameter_feasible for c in res)

    def test_json_schema(self):
        res = search(den_max=8, n_max=6, m_max=6)
        doc = json.loads(results_to_json(res))
        assert doc
        row = doc[0]
        assert set(row) == {"n", "m", "a", "b", "s", "exact_confirmed", "parameter_feasible"}
        assert set(row["a"]) == {"num", "den"}
        # 50 significant digits in the decimal strings
        assert len(row["s"]["re"].replace("-", "").replace(".", "").lstrip("0")) >= 45


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
