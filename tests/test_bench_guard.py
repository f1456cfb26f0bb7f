"""The benchmark's tracer patches chtri functions by name; renaming or removing one breaks every benchmark pass."""
import importlib.util
import pathlib

import chtri.cli  # noqa: F401  (the tracer resolves its names in the modules the CLI loads)

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound():
    tracer = _tracer()
    snapshot = tracer.originals()  # raises when a TARGETS name or cosearch._angle_grid is missing
    for module, path, _ in tracer.TARGETS:
        owner, attr = tracer._resolve(module, path)
        assert callable(vars(owner)[attr]), (module, path)
    assert tracer.restored(snapshot)
