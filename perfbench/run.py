"""Benchmark of the chtri CLI: runs one workload and prints its metrics as JSON on the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all

Run it from the root of a chtri checkout; it imports `chtri` from `src/`.
Every pass of a workload runs in a fresh interpreter (child.py), because a
CLI user pays the imports and cold caches on every invocation.  There is one
caller in a closed loop, no threads, and one process at a time.

--trace 0 reports the end-to-end metrics: passes are repeated while the next
one is expected to end within --seconds (at least one), and each timing is
the median over passes.  setup_s is the median over several interpreter
starts that only import `chtri.cli`, plus the start of each pass.

--trace 1 reports the per-layer metrics: one untraced pass and two traced
passes (tracer.py).  It checks that tracing changes no output byte, that the
work counters in tracer.REPEATABLE repeat exactly, and that every patched
function is restored afterwards.

Every pass checks its output (workloads.py).  A failed check sets "correct"
to false and the exit code to 1.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = ROOT / ".perfbench"
SETUP_STARTS = 3  # interpreter starts per untraced run that only import chtri.cli
RUN_BUDGET_S = 170  # a run must end within 180 s

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "case_p50_ms": "ms",
    "case_p90_ms": "ms",
}


class ChildFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(spec: dict, deadline: float) -> dict:
    """Run child.py with `spec`; returns its record plus `setup_s` and `elapsed_s`."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{spec} did not end within the run's time budget") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{spec} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    record = json.loads(lines[-1])
    record["setup_s"] = record["ready"] - start
    record["elapsed_s"] = time.monotonic() - start
    return record


def _report_pass(name: str, label: str, rec: dict) -> None:
    print(f"{name} {label}: wall {rec['wall_s']:.3f} s, setup {rec['setup_s']:.3f} s, "
          f"{rec['attempted']} ops, {rec['failed']} failed, outputs {rec['digest'][:16]}", file=sys.stderr)
    for problem in rec["problems"]:
        print(f"  FAILED: {problem}", file=sys.stderr)


def untraced_run(name: str, args, deadline: float) -> dict:
    base = {"mode": "pass", "workload": name, "size": args.size, "seed": args.seed, "trace": False}
    spawn({"mode": "setup"}, deadline)  # warm-up: bytecode caches are written once
    setups = [spawn({"mode": "setup"}, deadline)["setup_s"] for _ in range(SETUP_STARTS)]
    passes = []
    start = time.monotonic()
    while True:
        rec = spawn(dict(base, label=f"pass{len(passes) + 1}"), deadline)
        _report_pass(name, f"pass {len(passes) + 1}", rec)
        passes.append(rec)
        now = time.monotonic()
        if now - start + rec["elapsed_s"] > args.seconds or now + 2 * rec["elapsed_s"] > deadline:
            break
    cases = [s for rec in passes for s in rec["case_s"]]
    attempted = sum(rec["attempted"] for rec in passes)
    failed = sum(rec["failed"] for rec in passes) + sum(not rec["restored"] for rec in passes)
    metrics = {
        "wall_s": statistics.median(rec["wall_s"] for rec in passes),
        "setup_s": statistics.median(setups + [rec["setup_s"] for rec in passes]),
        "peak_rss_mb": statistics.median(rec["rss_mb"] for rec in passes),
        "ok_frac": (attempted - failed) / attempted,
        "case_p50_ms": statistics.median(cases) * 1e3,
        "case_p90_ms": tracer.percentile(cases, 90) * 1e3,
    }
    return _result(attempted, failed, {k: (v, END_TO_END[k]) for k, v in metrics.items()})


def traced_run(name: str, args, deadline: float) -> dict:
    base = {"mode": "pass", "workload": name, "size": args.size, "seed": args.seed}
    SPANS_DIR.mkdir(exist_ok=True)
    ref = spawn(dict(base, trace=False, label="untraced"), deadline)
    _report_pass(name, "untraced", ref)
    first = spawn(dict(base, trace=True, label="traced1", spans=str(SPANS_DIR / f"spans-{name}.jsonl")), deadline)
    _report_pass(name, "traced 1", first)
    second = spawn(dict(base, trace=True, label="traced2"), deadline)
    _report_pass(name, "traced 2", second)

    # Consistency checks, each one more operation attempted.
    consistency = {
        "traced output 1 equals untraced output": first["digest"] == ref["digest"],
        "traced output 2 equals untraced output": second["digest"] == ref["digest"],
        "originals restored after traced pass 1": first["restored"],
        "originals restored after traced pass 2": second["restored"],
    }
    for key in tracer.REPEATABLE:
        consistency[f"{key} repeats ({first['layers'][key]} vs {second['layers'][key]})"] = (
            first["layers"][key] == second["layers"][key])
    for what, ok in consistency.items():
        if not ok:
            print(f"  FAILED: {what}", file=sys.stderr)
    passes = (ref, first, second)
    attempted = sum(rec["attempted"] for rec in passes) + len(consistency)
    failed = sum(rec["failed"] for rec in passes) + sum(not ok for ok in consistency.values())
    values = dict(first["layers"], **{"trace.overhead_frac": first["wall_s"] / ref["wall_s"] - 1})
    return _result(attempted, failed, {k: (values[k], unit) for k, (unit, _) in tracer.LAYER_METRICS.items()})


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                    help="'smoke' runs tiny inputs to test the benchmark itself")
    args = ap.parse_args(argv)
    missing = [p for p in (ROOT / "src" / "chtri" / "cli.py", workloads.GOLDEN) if not p.exists()]
    if missing:
        print(f"not a chtri checkout: {', '.join(map(str, missing))} not found", file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.monotonic() + RUN_BUDGET_S
        try:
            results[name] = (traced_run if args.trace else untraced_run)(name, args, deadline)
        except ChildFailed as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        for metric, m in results[name]["metrics"].items():
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    if len(names) == 1:
        result = results[names[0]]
    else:
        for name, res in results.items():
            print(json.dumps(dict(res, workload=name)))
        result = _result(sum(r["attempted"] for r in results.values()), sum(r["failed"] for r in results.values()),
                         {f"{n}/{k}": (m["value"], m["unit"]) for n, r in results.items() for k, m in r["metrics"].items()})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
