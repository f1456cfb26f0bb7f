"""Per-layer tracing of chtri from outside: wrap layer functions, record spans, derive metrics.

`Tracer.install` replaces each function or method named in `TARGETS` with a
wrapper that records a span (id, parent id, name, start, end) in memory.
A function bound under several names (imported by value into other modules,
or a dunder aliased on its class, such as `Cyclo.__radd__ = __add__`) is
replaced everywhere it is bound in the loaded `chtri` modules, so calls
through any of those names are seen.  Recursion that goes through a module
global, as in `cyclotomic_poly`, yields nested child spans.
`Tracer.uninstall` puts every original back.

`layer_metrics` turns the spans and counters into the per-layer metrics.
A span's self time is its duration minus the time of its direct children.
"""
from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import time
from collections import defaultdict

# The traced layer boundaries: (module, attribute path, span name).  Several
# functions may share a span name; their calls and times add up.
TARGETS = (
    ("chtri.exact", "cyclotomic_poly", "exact.phi"),
    ("chtri.exact", "Cyclo.canonical", "exact.canonical"),
    ("chtri.exact", "Cyclo.canonical_at", "exact.canonical"),
    ("chtri.exact", "Cyclo.__mul__", "exact.arith"),
    ("chtri.exact", "Cyclo.__add__", "exact.arith"),
    ("chtri.exact", "Cyclo.to_mpc", "exact.to_mpc"),
    ("chtri.exact", "Cyclo.real_sign", "exact.real_sign"),
    ("chtri.exact", "Cyclo.inverse", "exact.inverse"),
    ("chtri.linalg", "Mat3.__mul__", "linalg.mat_mul"),
    ("chtri.linalg", "Mat3.to_float", "linalg.to_float"),
    ("chtri.linalg", "projective_residual", "linalg.projective_residual"),
    ("chtri.linalg", "eigenvalues3", "linalg.eigen"),
    ("chtri.linalg", "hermitian_signature", "linalg.signature"),
    ("chtri.trigroup", "build_symmetric", "trigroup.build"),
    ("chtri.trigroup", "verify_symmetry", "trigroup.verify"),
    ("chtri.trigroup", "braid_length", "trigroup.braid"),
    ("chtri.trigroup", "trace_invariants", "trigroup.trace"),
    ("chtri.trigroup", "lemma_eigenvalues_residual", "trigroup.lemma"),
    ("chtri.cosearch", "search", "cosearch.search"),
    ("chtri.cosearch", "canonicalize_ab", "cosearch.canonicalize_ab"),
    ("chtri.cosearch", "minor_residual", "cosearch.confirm"),
    ("chtri.cosearch", "main_residual", "cosearch.confirm"),
    ("chtri.cosearch", "parameter_feasible", "cosearch.confirm"),
    ("chtri.cosearch", "cosine_sum_residual", "cosearch.identity"),
    ("chtri.cosearch", "trace_table_residual", "cosearch.identity"),
    ("chtri.cosearch", "factorization_residual", "cosearch.identity"),
    ("chtri.cosearch", "half_angle_residuals", "cosearch.identity"),
    ("chtri.reports", "signature_scan", "reports.signature_scan"),
    ("chtri.reports", "build_candidate", "reports.build_candidate"),
)

# Counters that must repeat exactly between two traced runs of one input.
REPEATABLE = (
    "cosearch.grid_pairs",
    "cosearch.prefilter_hits",
    "cosearch.orbits",
    "exact.phi_builds",
    "exact.canonical_calls",
    "exact.max_conductor",
    "exact.real_sign_doublings",
    "linalg.signature_calls",
    "linalg.mat_mul_exact_calls",
    "linalg.mat_mul_float_calls",
    "linalg.to_float_calls",
)


def _resolve(module: str, path: str):
    """(owner, attribute) for 'func' or 'Class.method' in an imported module."""
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _bindings(original) -> list:
    """Every (owner, attribute) in the loaded chtri modules and their classes bound to `original`."""
    owners = [m for name, m in sorted(sys.modules.items()) if name == "chtri" or name.startswith("chtri.")]
    owners += [v for m in list(owners) for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("chtri")]
    found = []
    for owner in dict.fromkeys(owners):
        for attr, value in vars(owner).items():
            if value is original:
                found.append((owner, attr))
    return found


class Tracer:
    """Spans and counters of one traced run, kept in memory until `write`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # (span id, parent id, name, start, end); parent 0 is the root
        self.counters = defaultdict(int)
        self._stack = [0]
        self._ids = itertools.count(1)
        self._patches = []  # (owner, attribute, original), in install order
        self._phi = None  # the original cyclotomic_poly, whose cache_info gives builds and hits
        self._phi_info = None

    # -- spans --------------------------------------------------------------

    def _wrap(self, fn, name):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        namer = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, namer(args) if namer else name, start, end))

        return traced

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span named `name`."""
        return self._wrap(fn, name)(*args)

    # -- install / uninstall ------------------------------------------------

    def _patch(self, original, replacement) -> None:
        for owner, attr in _bindings(original):
            setattr(owner, attr, replacement)
            self._patches.append((owner, attr, original))

    def install(self) -> None:
        counters = self.counters
        self._phi = sys.modules["chtri.exact"].cyclotomic_poly
        self._phi_info = self._phi.cache_info()
        for module, path, name in TARGETS:
            owner, attr = _resolve(module, path)
            original = vars(owner)[attr]
            wrapped = self._wrap(original, _NAMERS.get(name, name))
            hook = _HOOKS.get(path)
            if hook is not None:
                wrapped = _with_hook(wrapped, hook, counters)
            self._patch(original, wrapped)

        cosearch = sys.modules["chtri.cosearch"]
        grid = cosearch._angle_grid

        def counted_grid(den_max):
            points = grid(den_max)
            counters["cosearch.grid_pairs"] += len(points) * (len(points) + 1) // 2
            return points

        self._patch(grid, functools.wraps(grid)(counted_grid))

    def uninstall(self) -> None:
        phi = self._phi.cache_info()
        self.counters["exact.phi_builds"] += phi.misses - self._phi_info.misses
        self.counters["exact.phi_hits"] += phi.hits - self._phi_info.hits
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as JSON lines, one per span, in the order they ended."""
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


def _with_hook(wrapped, hook, counters):
    @functools.wraps(wrapped)
    def hooked(*args, **kwargs):
        result = wrapped(*args, **kwargs)
        hook(counters, args, result)
        return result

    return hooked


def _note_conductor(counters, n: int) -> None:
    counters["exact.max_conductor"] = max(counters["exact.max_conductor"], n)


def _count_orbits(counters, args, result) -> None:
    counters["cosearch.orbits"] += len(result)


# Counters read at a layer boundary after each call, keyed by attribute path.
_HOOKS = {
    "Cyclo.canonical": lambda counters, args, result: _note_conductor(counters, args[0].n),
    "Cyclo.canonical_at": lambda counters, args, result: _note_conductor(counters, args[1]),
    "Cyclo.to_mpc": lambda counters, args, result: _note_conductor(counters, args[0].n),
    "Cyclo.inverse": lambda counters, args, result: _note_conductor(counters, args[0].n),
    "search": _count_orbits,
}

# Span names chosen per call.
_NAMERS = {
    "linalg.mat_mul": lambda args: "linalg.mat_mul_exact" if args[0].exact else "linalg.mat_mul_float",
}


def originals() -> dict:
    """The objects bound now at every attribute the tracer patches, for restore checks."""
    snap = {}
    for module, path, _ in TARGETS:
        owner, attr = _resolve(module, path)
        for b_owner, b_attr in _bindings(vars(owner)[attr]):
            snap[(b_owner, b_attr)] = vars(b_owner)[b_attr]
    grid = sys.modules["chtri.cosearch"]._angle_grid
    for b in _bindings(grid):
        snap[b] = grid
    return snap


def restored(snapshot: dict) -> bool:
    """True when every attribute in `snapshot` is bound to the same object again."""
    return all(vars(owner).get(attr) is obj for (owner, attr), obj in snapshot.items())


# ---------------------------------------------------------------------------
# Metrics


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile (0..100) of a non-empty sample."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# name -> unit, "better"; the order is the order of reporting.
LAYER_METRICS = {
    "cosearch.prefilter_s": ("s", "lower"),
    "cosearch.grid_pairs": ("count", "lower"),
    "cosearch.prefilter_hits": ("count", "lower"),
    "cosearch.orbits": ("count", "higher"),
    "cosearch.hit_yield": ("ratio", "higher"),
    "cosearch.confirm_s": ("s", "lower"),
    "cosearch.identity_s": ("s", "lower"),
    "exact.phi_builds": ("count", "lower"),
    "exact.phi_hits": ("count", "higher"),
    "exact.phi_s": ("s", "lower"),
    "exact.canonical_calls": ("count", "lower"),
    "exact.canonical_s": ("s", "lower"),
    "exact.max_conductor": ("conductor", "lower"),
    "exact.arith_calls": ("count", "lower"),
    "exact.arith_s": ("s", "lower"),
    "exact.to_mpc_calls": ("count", "lower"),
    "exact.to_mpc_s": ("s", "lower"),
    "exact.real_sign_calls": ("count", "lower"),
    "exact.real_sign_doublings": ("count", "lower"),
    "exact.inverse_calls": ("count", "lower"),
    "linalg.mat_mul_exact_calls": ("count", "lower"),
    "linalg.mat_mul_exact_s": ("s", "lower"),
    "linalg.mat_mul_float_calls": ("count", "lower"),
    "linalg.mat_mul_float_s": ("s", "lower"),
    "linalg.projective_residual_s": ("s", "lower"),
    "linalg.to_float_calls": ("count", "lower"),
    "linalg.eigen_s": ("s", "lower"),
    "linalg.signature_calls": ("count", "lower"),
    "linalg.signature_s": ("s", "lower"),
    "trigroup.build_calls": ("count", "lower"),
    "trigroup.build_s": ("s", "lower"),
    "trigroup.verify_s": ("s", "lower"),
    "trigroup.braid_calls": ("count", "lower"),
    "trigroup.braid_s": ("s", "lower"),
    "trigroup.trace_s": ("s", "lower"),
    "trigroup.lemma_s": ("s", "lower"),
    "reports.rows": ("count", "higher"),
    "reports.row_p50_ms": ("ms", "lower"),
    "reports.row_p90_ms": ("ms", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def layer_metrics(spans: list, counters: dict) -> dict:
    """Per-layer metric values (all of LAYER_METRICS but trace.overhead_frac)."""
    name_of = {0: None}
    child_time = defaultdict(float)
    for sid, parent, name, start, end in spans:
        name_of[sid] = name
        child_time[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    outer_s = defaultdict(float)  # inclusive time of spans not nested in a same-named span
    to_mpc_under = defaultdict(int)  # real_sign span id -> to_mpc calls directly below it
    rows = defaultdict(list)  # signature_scan span id -> build_candidate start times
    for sid, parent, name, start, end in spans:
        calls[name] += 1
        self_s[name] += end - start - child_time[sid]
        if name_of[parent] != name:
            outer_s[name] += end - start
        if name == "exact.to_mpc" and name_of[parent] == "exact.real_sign":
            to_mpc_under[parent] += 1
        if name == "reports.build_candidate" and name_of[parent] == "reports.signature_scan":
            rows[parent].append(start)
    row_ms = []
    for sid, parent, name, start, end in spans:
        if name == "reports.signature_scan" and rows[sid]:
            starts = sorted(rows[sid]) + [end]
            row_ms += [(b - a) * 1e3 for a, b in zip(starts, starts[1:])]
    hits = calls["cosearch.canonicalize_ab"]
    orbits = counters.get("cosearch.orbits", 0)
    return {
        "cosearch.prefilter_s": self_s["cosearch.search"],
        "cosearch.grid_pairs": counters.get("cosearch.grid_pairs", 0),
        "cosearch.prefilter_hits": hits,
        "cosearch.orbits": orbits,
        "cosearch.hit_yield": orbits / hits if hits else 0.0,
        "cosearch.confirm_s": outer_s["cosearch.confirm"],
        "cosearch.identity_s": outer_s["cosearch.identity"],
        "exact.phi_builds": counters.get("exact.phi_builds", 0),
        "exact.phi_hits": counters.get("exact.phi_hits", 0),
        "exact.phi_s": outer_s["exact.phi"],
        "exact.canonical_calls": calls["exact.canonical"],
        "exact.canonical_s": self_s["exact.canonical"],
        "exact.max_conductor": counters.get("exact.max_conductor", 0),
        "exact.arith_calls": calls["exact.arith"],
        "exact.arith_s": self_s["exact.arith"],
        "exact.to_mpc_calls": calls["exact.to_mpc"],
        "exact.to_mpc_s": self_s["exact.to_mpc"],
        "exact.real_sign_calls": calls["exact.real_sign"],
        "exact.real_sign_doublings": sum(max(0, k - 1) for k in to_mpc_under.values()),
        "exact.inverse_calls": calls["exact.inverse"],
        "linalg.mat_mul_exact_calls": calls["linalg.mat_mul_exact"],
        "linalg.mat_mul_exact_s": self_s["linalg.mat_mul_exact"],
        "linalg.mat_mul_float_calls": calls["linalg.mat_mul_float"],
        "linalg.mat_mul_float_s": self_s["linalg.mat_mul_float"],
        "linalg.projective_residual_s": self_s["linalg.projective_residual"],
        "linalg.to_float_calls": calls["linalg.to_float"],
        "linalg.eigen_s": self_s["linalg.eigen"],
        "linalg.signature_calls": calls["linalg.signature"],
        "linalg.signature_s": self_s["linalg.signature"],
        "trigroup.build_calls": calls["trigroup.build"],
        "trigroup.build_s": outer_s["trigroup.build"],
        "trigroup.verify_s": self_s["trigroup.verify"],
        "trigroup.braid_calls": calls["trigroup.braid"],
        "trigroup.braid_s": self_s["trigroup.braid"],
        "trigroup.trace_s": self_s["trigroup.trace"],
        "trigroup.lemma_s": self_s["trigroup.lemma"],
        "reports.rows": len(row_ms),
        "reports.row_p50_ms": statistics.median(row_ms) if row_ms else 0.0,
        "reports.row_p90_ms": percentile(row_ms, 90) if row_ms else 0.0,
        "cli.self_s": self_s["cli.main"],
        "trace.spans": len(spans),
    }
