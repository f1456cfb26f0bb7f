"""One pass of a workload in a fresh interpreter; prints one JSON record on stdout.

    python3 perfbench/child.py '{"mode": "setup"}'
    python3 perfbench/child.py '{"mode": "pass", "workload": ..., "size": ..., "seed": ..., "trace": ..., "spans": ...}'

`chtri.cli` is imported before anything else, so the record's `ready` time
(on the system-wide monotonic clock) marks the end of the set-up a CLI user
pays on every invocation.  `run.py` starts this script with `src/` on
PYTHONPATH.
"""
import time

import chtri.cli

READY = time.monotonic()

import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def _main_call(argv, run):
    """Run one `cli.main(argv)` with stdout captured; returns a workloads.Call."""
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # from the command line this is a traceback and exit code 1
            traceback.print_exc()
            code = 1
    return workloads.Call(argv, code, buf.getvalue(), time.perf_counter() - start)


def _capture(dotted: str, into: list):
    """Record every return value of chtri.<dotted>; returns the undo function."""
    module_name, attr = dotted.rsplit(".", 1)
    module = sys.modules["chtri." + module_name]
    original = getattr(module, attr)

    @functools.wraps(original)
    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        into.append(result)
        return result

    setattr(module, attr, recording)
    return lambda: setattr(module, attr, original)


def run_pass(spec: dict) -> dict:
    wl = workloads.make(spec["workload"], spec["size"], spec["seed"])
    snapshot = tracer.originals()
    captured = []
    undo_capture = _capture(wl.capture, captured) if wl.capture else (lambda: None)
    tr = tracer.Tracer(f"{wl.name}-seed{spec['seed']}-{spec['label']}") if spec["trace"] else None
    run = chtri.cli.main
    if tr is not None:
        tr.install()
        run = functools.partial(tr.call, "cli.main", chtri.cli.main)

    start = time.perf_counter()
    calls = [_main_call(argv, run) for argv in wl.argvs]
    wall = time.perf_counter() - start

    if tr is not None:
        tr.uninstall()
    undo_capture()
    outcome = wl.check(calls, captured)
    digest = hashlib.sha256()
    for call in calls:
        digest.update(f"{call.code}\n{call.out}\n".encode())
    record = {
        "ready": READY,
        "wall_s": wall,
        "case_s": [c.seconds for c in calls],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": [str(p) for p in list(outcome.failing.values())[:10]],
        "digest": digest.hexdigest(),
        "restored": tracer.restored(snapshot),
    }
    if tr is not None:
        record["layers"] = tracer.layer_metrics(tr.spans, tr.counters)
        if spec.get("spans"):
            tr.write(spec["spans"])
    return record


def main() -> int:
    spec = json.loads(sys.argv[1])
    record = {"ready": READY} if spec["mode"] == "setup" else run_pass(spec)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
