"""Smoke test of the benchmark itself, at tiny sizes (den 30, p <= 5, 2 verify cases, 10 trials).

    python3 -m pytest -q perfbench/test_smoke.py
"""
import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import chtri.cli  # noqa: E402
import chtri.exact  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    digests = [line.rsplit(" ", 1)[1] for line in proc.stderr.splitlines() if "outputs " in line]
    return json.loads(proc.stdout.splitlines()[-1]), digests


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, _ = _run(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_seed_is_honoured():
    _, (first,) = _run("identities-t300", 1, 0)
    _, (again,) = _run("identities-t300", 1, 0)
    _, (other,) = _run("identities-t300", 2, 0)
    assert first == again != other
    assert workloads.make("identities-t300", "smoke", 7).argvs[0][-2:] == ["--seed", "7"]


def test_originals_are_restored_after_tracing():
    snapshot = tracer.originals()
    tr = tracer.Tracer("smoke")
    chtri.exact.cyclotomic_poly.cache_clear()
    tr.install()
    patched = (chtri.exact.Cyclo.__mul__, chtri.exact.Cyclo.__radd__, chtri.cli.build_symmetric,
               chtri.reports.hermitian_signature, chtri.exact.cyclotomic_poly)
    with contextlib.redirect_stdout(io.StringIO()):
        code = tr.call("cli.main", chtri.cli.main, ["verify", "--p", "5", "--n", "4", "--m", "3"])
    tr.uninstall()
    assert code == 0
    assert all(getattr(f, "__wrapped__", None) is not None for f in patched)
    assert tracer.restored(snapshot)
    assert not hasattr(chtri.exact.Cyclo.__mul__, "__wrapped__")
    names = {sid: name for sid, _, name, _, _ in tr.spans}
    # recursion in cyclotomic_poly goes through the module global: nested spans
    assert any(name == "exact.phi" and names.get(parent) == "exact.phi" for _, parent, name, _, _ in tr.spans)
    layers = tracer.layer_metrics(tr.spans, tr.counters)
    assert layers["trigroup.build_calls"] == 1 and layers["exact.phi_builds"] > 0


def test_layer_metrics_from_spans():
    spans = [  # (id, parent, name, start, end), in the order they ended
        (3, 2, "exact.to_mpc", 1.0, 2.0),
        (4, 2, "exact.to_mpc", 2.0, 4.0),
        (2, 1, "exact.real_sign", 0.5, 4.5),
        (6, 5, "reports.build_candidate", 5.0, 5.5),
        (7, 5, "reports.build_candidate", 6.0, 6.5),
        (5, 1, "reports.signature_scan", 5.0, 8.0),
        (1, 0, "cli.main", 0.0, 10.0),
    ]
    m = tracer.layer_metrics(spans, {})
    assert m["exact.to_mpc_s"] == 3.0 and m["exact.real_sign_calls"] == 1
    assert m["exact.real_sign_doublings"] == 1
    assert m["reports.rows"] == 2 and m["reports.row_p50_ms"] == 1500.0
    assert m["cli.self_s"] == 10.0 - 4.0 - 3.0


def test_failing_operations_are_counted():
    ok = workloads.Call(["verify"], 0, '{"summary": true, "checks": 13, "passed": 13}\n', 0.1)
    bad = workloads.Call(["verify"], 1, '{"summary": true, "checks": 13, "passed": 12}\n', 0.1)
    out = workloads.make("verify-grid", "smoke", 0).check([ok, bad, bad], [])
    assert (out.attempted, out.failed) == (3, 2)
    records = [{"check": "a", "pass": True}, {"check": "b", "pass": False}]
    text = "".join(json.dumps(r) + "\n" for r in records)
    out = workloads.make("identities-t300", "smoke", 0).check([workloads.Call([], 1, text, 0.1)], [])
    assert out.attempted == 9 * 10 + 23 and out.failed == 1 + (9 * 10 + 23 - 2)
