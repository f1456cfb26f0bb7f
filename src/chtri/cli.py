"""Command-line interface: build, verify, search, tables, identities, classify.

All machine-readable output uses JSON (or JSON-lines for verification
streams); angles are serialized as {num, den} multiples of pi, never as
floating radians.  Exit codes: 0 success, 1 verification failure, 2 usage
or configuration error.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

import mpmath

from .candidates import ALL_IDS
from .exact import Cyclo, angle, printed_value
from .linalg import classify_isometry, eigenvalues3, projective_order
from . import cosearch, reports
from .trigroup import InfeasibleGroupError, build_symmetric, evaluate_word, verify_symmetric

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _default_prec():
    """CHTG_PREC, or 256 when unset; None when it is not an integer, which `_validate` rejects."""
    env = os.environ.get("CHTG_PREC")
    if not env:
        return 256
    try:
        return int(env)
    except ValueError:
        return None


def _cyclo_str(x: Cyclo) -> str:
    terms = [str(q) if e == 0 else f"({q})*z{x.n}^{e}" for e, q in enumerate(x.canonical()) if q]
    return " + ".join(terms) or "0"


def _entry(x, prec: int) -> dict:
    d = {"exact": _cyclo_str(x)} if isinstance(x, Cyclo) else {}
    d.update(printed_value(x, prec, 30))
    return d


def _mat(m, prec: int) -> list:
    return [[_entry(x, prec) for x in row] for row in m.rows]


def _write(text: str, out) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_build(args) -> int:
    g = build_symmetric(args.p, args.n, args.m, im_sign=args.im_sign, prec=args.prec)
    with mpmath.workprec(args.prec):
        tr_s = g.S.trace()
        doc = {
            "p": args.p,
            "n": args.n,
            "m": args.m,
            "im_sign": args.im_sign,
            "exact": g.exact,
            "R1": _mat(g.R1, args.prec),
            "R2": _mat(g.R2, args.prec),
            "R3": _mat(g.R3, args.prec),
            "H": _mat(g.H, args.prec),
            "S": _mat(g.S, args.prec),
            "tr_S": _entry(tr_s, args.prec),
            "signature": g.signature.verdict,
            "warning": g.warning,
        }
    _write(json.dumps(doc, indent=2), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    checks, signature = verify_symmetric(args.p, args.n, args.m, im_sign=args.im_sign, prec=args.prec)
    lines = [c.to_dict() for c in checks]
    summary = {"summary": True, "checks": len(checks), "passed": sum(c.passed for c in checks),
               "signature": signature.verdict}
    text = "\n".join(json.dumps(l) for l in lines + [summary]) + "\n"
    _write(text, args.out)
    failed = next((l for l in lines if not l["pass"]), None)
    if failed is not None:
        print(f"FAILED: {json.dumps(failed)}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_search(args) -> int:
    cands = cosearch.search(
        den_max=args.den_max,
        n_max=args.n_max,
        m_max=args.m_max,
    )
    if args.format == "json":
        text = cosearch.results_to_json(cands)
    elif args.format == "csv":
        rows = ["n,m,a_num,a_den,b_num,b_den,exact_confirmed,parameter_feasible"]
        for c in cands:
            rows.append(
                f"{c.n},{c.m},{c.a.num},{c.a.den},{c.b.num},{c.b.den},"
                f"{c.exact_confirmed},{c.parameter_feasible}"
            )
        text = "\n".join(rows) + "\n"
    else:
        rows = [
            f"(n,m)=({c.n},{c.m})  a={c.a}  b={c.b}  exact={c.exact_confirmed}  "
            f"feasible={c.parameter_feasible}"
            for c in cands
        ]
        text = "\n".join(rows) + "\n"
    _write(text, args.out)
    return EXIT_OK


def cmd_tables(args) -> int:
    cids = ALL_IDS if args.candidate == "all" else [args.candidate]
    reps = [reports.signature_scan(c, args.p_min, args.p_max, prec=args.prec) for c in cids]
    if args.format == "csv":
        text = reports.scan_to_csv(reps)
    elif args.format == "json":
        text = reports.scan_to_json(reps)
    else:
        text = reports.scan_to_text(reps)
    _write(text, args.out)
    return EXIT_OK


def cmd_identities(args) -> int:
    rng = random.Random(args.seed)
    results = []

    def run(name, residual_cyclo):
        ok = residual_cyclo.is_zero()
        results.append({"check": name, "pass": bool(ok)})

    # suite -> (labels, the parametric ones, residual, name of the angle parameter)
    labelled = {
        "cosine-sums": (cosearch.COSINE_SUM_LABELS, cosearch.PARAMETRIC_COSINE_SUMS,
                        cosearch.cosine_sum_residual, "phi"),
        "trace-table": (cosearch.TRACE_TABLE_LABELS, cosearch.PARAMETRIC_TRACE_ROWS,
                        cosearch.trace_table_residual, "psi"),
    }
    suites = ("cosine-sums", "trace-table", "factorization", "half-angle")
    chosen = suites if args.suite == "all" else (args.suite,)
    for suite in chosen:
        if suite in labelled:
            labels, parametric, residual, var = labelled[suite]
            for lab in labels:
                if lab in parametric:
                    for _ in range(args.trials):
                        den = rng.randint(1, 60)
                        t = angle(rng.randint(0, 2 * den - 1), den)
                        run(f"{suite}:{lab}:{var}={t}", residual(lab, t))
                else:
                    run(f"{suite}:{lab}", residual(lab))
        else:  # "factorization" or "half-angle"
            for _ in range(args.trials):
                da, db = rng.randint(1, 30), rng.randint(1, 30)
                a = angle(rng.randint(0, 2 * da - 1), da)
                b = angle(rng.randint(0, 2 * db - 1), db)
                if suite == "factorization":
                    run(f"factorization:a={a},b={b}", cosearch.factorization_residual(a, b))
                else:
                    for i, r in enumerate(cosearch.half_angle_residuals(a, b), start=1):
                        run(f"half-angle:{i}:a={a},b={b}", r)
    n_fail = sum(1 for r in results if not r["pass"])
    summary = {"summary": True, "checks": len(results), "failed": n_fail}
    text = "\n".join(json.dumps(r) for r in results + [summary]) + "\n"
    _write(text, args.out)
    return EXIT_FAIL if n_fail else EXIT_OK


def cmd_classify(args) -> int:
    try:
        word = [int(w) for w in args.word.replace(",", " ").split()]
    except ValueError:
        print("bad word; expected signed generator indices like '1 2 -3'", file=sys.stderr)
        return EXIT_USAGE
    if not word or any(w == 0 or abs(w) > 3 for w in word):
        print("bad word; indices must be in {-3..-1, 1..3}", file=sys.stderr)
        return EXIT_USAGE
    g = build_symmetric(args.p, args.n, args.m, im_sign=args.im_sign, prec=args.prec)
    with mpmath.workprec(args.prec):
        mat = evaluate_word(g.to_float(args.prec), word, prec=args.prec)
        tr = mat.trace()
        kind = classify_isometry(tr, prec=args.prec)
        eigs = eigenvalues3(mat, args.prec)
        order = projective_order(mat, max_order=200, prec=args.prec)
        doc = {
            "word": word,
            "p": args.p,
            "n": args.n,
            "m": args.m,
            "trace": printed_value(tr, args.prec, 30),
            "type": kind,
            "eigenvalues": [printed_value(e, args.prec, 30) for e in eigs],
            "projective_order": order,
        }
    _write(json.dumps(doc, indent=2), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def _add_options(sp, prec=False, fmt=False, group=False):
    """Add --out and, where the subcommand reads them, the shared options."""
    if prec:
        sp.add_argument("--prec", type=int, default=None,  # None: CHTG_PREC
                        help="precision in bits; float values within 2^-(prec // 2) count as equal")
    sp.add_argument("--out", default=None, help="output file (default stdout)")
    if fmt:
        sp.add_argument("--format", choices=("json", "csv", "text"), default="json")
    if group:
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--m", type=int, required=True)
        sp.add_argument("--im-sign", type=int, choices=(1, -1), default=1)


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="chtri", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("build", help="construct a symmetric triangle group")
    _add_options(sp, prec=True, group=True)
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("verify", help="verify symmetry, traces, braids, eigenvalues")
    _add_options(sp, prec=True, group=True)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("search", help="enumerate exact (n,m) trace solutions")
    _add_options(sp, fmt=True)
    sp.add_argument("--den-max", type=int, default=90)
    sp.add_argument("--n-max", type=int, default=12)
    sp.add_argument("--m-max", type=int, default=12)
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("tables", help="signature tables over a range of p")
    _add_options(sp, prec=True, fmt=True)
    sp.add_argument("--candidate", default="all", help="'(n,m)', '(n,m)-' or 'all'")
    sp.add_argument("--p-min", type=int, default=2)
    sp.add_argument("--p-max", type=int, default=20)
    sp.set_defaults(func=cmd_tables)

    sp = sub.add_parser("identities", help="exact cosine-identity suites")
    _add_options(sp)
    sp.add_argument("--suite", default="all",
                    choices=("all", "cosine-sums", "trace-table", "factorization", "half-angle"))
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_identities)

    sp = sub.add_parser("classify", help="classify the isometry type of a word")
    _add_options(sp, prec=True, group=True)
    sp.add_argument("--word", required=True, help="signed generator indices, e.g. '1 2'")
    sp.set_defaults(func=cmd_classify)
    return ap


def _validate(args) -> bool:
    prec = getattr(args, "prec", 256)
    if prec is None:
        print("CHTG_PREC must be an integer", file=sys.stderr)
        return False
    if prec < 53:
        print("precision must be >= 53 bits", file=sys.stderr)
        return False
    if getattr(args, "trials", 0) < 0:
        print("--trials must be >= 0", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    if "prec" in vars(args) and args.prec is None:
        args.prec = _default_prec()  # read per call, so a changed environment applies
    if not _validate(args):
        return EXIT_USAGE
    try:
        return args.func(args)
    except InfeasibleGroupError as exc:  # a ValueError, but a failure rather than bad usage
        print(str(exc), file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
