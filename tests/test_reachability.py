"""Every function defined in chtri is entered by some CLI call, or is listed below with the reason it stays.

The calls run in a fresh interpreter (this file run as a script), so that no cache filled by another
test hides a function body; `sys.setprofile` records every code object entered.
"""
import ast
import contextlib
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys

import chtri
from chtri.candidates import ALL_IDS, parse_candidate

SRC = pathlib.Path(chtri.__file__).resolve().parent
TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _group(n: int, m: int, im_sign: int = 1, p: int = 7) -> list:
    return ["--p", str(p), "--n", str(n), "--m", str(m), "--im-sign", str(im_sign)]


# every candidate at p = 7, and the float group (5,6)
GROUPS = [_group(*parse_candidate(cid)) for cid in ALL_IDS] + [_group(5, 6, p=4)]
CALLS = [
    *(["search", "--den-max", "30", "--n-max", "8", "--m-max", "8", "--format", f] for f in ("json", "csv", "text")),
    *(["tables", "--candidate", "all", "--p-max", "8", "--format", f] for f in ("json", "csv", "text")),
    ["identities", "--trials", "2", "--seed", "3"],
    *(["verify", *g] for g in GROUPS),
    *(["build", *g] for g in GROUPS),
    *(["classify", "--word", "1 -3 2 3", *g] for g in GROUPS),
    # a feasibility sign the doubles cannot decide, of a conductor above the exact limit: 128 bits decide it
    ["build", *_group(2786, 1970, p=3)],
]

# (module, qualified name) -> why it stays although no CLI call enters it
PROTOCOL = "a protocol method kept for safety: "
README_API = "README-named library API: "
ALLOWED = {
    ("exact", "Cyclo.__repr__"): PROTOCOL + "repr for debugging",
    ("exact", "Laurent.__repr__"): PROTOCOL + "repr for debugging",
    ("linalg", "Mat3.__repr__"): PROTOCOL + "repr for debugging",
    ("exact", "Cyclo.__hash__"): PROTOCOL + "raises, so a value with an exact == is never a dict key",
    ("linalg", "Mat3.__hash__"): PROTOCOL + "raises, so a value with an exact == is never a dict key",
    ("exact", "Cyclo.__eq__"): PROTOCOL + "exact equality",
    ("linalg", "Mat3.__eq__"): PROTOCOL + "exact equality, refused for float matrices",
    ("exact", "Cyclo.__rsub__"): PROTOCOL + "int - Cyclo, the reflection of __sub__",
    ("exact", "Cyclo.__truediv__"): PROTOCOL + "division by an int or Fraction, as in the registry's printed rho",
    ("linalg", "Mat3.__getitem__"): PROTOCOL + "m[i, j]",
    ("linalg", "Mat3.is_zero_exact"): "the exact test of Mat3.__eq__ and of hermitian_signature, a traced name",
    ("reports", "parameter_table"): README_API + "the validated parameter table of the classification",
    ("reports", "ParameterRow.to_dict"): README_API + "the printed rows of parameter_table",
    ("exact", "Cyclo.abs2"): README_API + "|rho|^2, read by parameter_table",
    ("candidates", "_gauss_sum_7"): README_API + "the printed rho of (3,4), read by parameter_table",
    ("candidates", "_rho_54"): README_API + "the printed rho of (5,4), read by parameter_table",
    ("reports", "detH_closed_form"): README_API + "the recorded closed-form det(H) against the exact det H",
    ("candidates", "_diagonal_det"): README_API + "the closed-form det(H) of (k,k), read by detH_closed_form",
    ("reports", "SignatureReport.mismatches"): README_API + "the rows of a scan whose recorded verdict differs",
    ("reports", "ScanRow.mismatch"): README_API + "read by SignatureReport.mismatches",
    ("cosearch", "_angle_grid"): "perfbench/tracer.py originals() resolves it, and the pair_scan oracle of "
        "tests/test_cosearch.py uses it as its grid",
    ("cosearch", "orbit"): "canonicalize_ab, a traced name, reads it",
    ("exact", "Angle.frac"): "public Angle API, the angle as a Fraction of pi, that the tests' oracles read",
}


def _traced() -> dict:
    """(module, qualified name) -> reason, for each name in the benchmark tracer's TARGETS."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {(module.removeprefix("chtri."), path): "traced by the benchmark (perfbench/tracer.py TARGETS)"
            for module, path, _ in tracer.TARGETS}


def defined_functions() -> dict:
    """(file name, first line of its code object) -> (module, qualified name) of each def in chtri.

    A decorated function's code starts at its first decorator.
    """
    found = {}
    for path in sorted(SRC.glob("*.py")):
        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = (path.stem, prefix + child.name)
                    walk(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text()), "")
    return found


def entered_functions() -> set:
    """(file name, first line) of every chtri function the CALLS enter, from a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    r = subprocess.run([sys.executable, __file__], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    return {tuple(x) for x in json.loads(r.stdout)}


def test_every_function_is_reached_or_allowed():
    defined, entered = defined_functions(), entered_functions()
    assert set(ALLOWED) <= set(defined.values()), "an allowlist entry names no function"
    allowed = {**_traced(), **ALLOWED}
    missing = sorted(name for key, name in defined.items() if key not in entered and name not in allowed)
    assert missing == [], f"defined in chtri, entered by no CLI call and not allowed: {missing}"
    # an allowed function that a call enters no longer needs its entry
    assert sorted(name for key, name in defined.items() if key in entered and name in ALLOWED) == []


def _run_calls() -> list:
    """Run the CALLS in process under a profiler; [file name, first line] of each chtri code object entered."""
    import chtri.cli

    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    out = io.StringIO()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            codes = [chtri.cli.main(argv) for argv in CALLS]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(CALLS), codes
    src = str(SRC)
    return sorted([c.co_filename, c.co_firstlineno] for c in seen if c.co_filename.startswith(src))


if __name__ == "__main__":
    json.dump(_run_calls(), sys.stdout)
