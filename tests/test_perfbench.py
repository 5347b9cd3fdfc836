"""The benchmark's tracer wraps koflow entry points by name; every name
it lists must still resolve, or traced runs break."""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_entry_points_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for layer, entries in tracer.ENTRY_POINTS.items():
        module = importlib.import_module(f"koflow.{layer}")
        for attr in entries:
            owner, _, name = attr.rpartition(".")
            scope = vars(getattr(module, owner)) if owner else vars(module)
            if not callable(scope.get(name)):
                missing.append(f"koflow.{layer}.{attr}")
    assert not missing
