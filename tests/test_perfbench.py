"""The benchmark's tracer wraps koflow entry points by name; every name
it lists must still resolve, or traced runs break."""
import importlib
import importlib.util
import math
from pathlib import Path

from koflow.clifford import L1, CliffordRep
from koflow.rs_verify import RSProblem, assemble_rs_operator

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_entry_points_resolve():
    tracer = load_tracer()
    missing = []
    for layer, entries in tracer.ENTRY_POINTS.items():
        module = importlib.import_module(f"koflow.{layer}")
        for attr in entries:
            owner, _, name = attr.rpartition(".")
            scope = vars(getattr(module, owner)) if owner else vars(module)
            if not callable(scope.get(name)):
                missing.append(f"koflow.{layer}.{attr}")
    assert not missing


def test_tracer_reads_assembled_operator():
    op = assemble_rs_operator(RSProblem(CliffordRep(0, 1, 2, F=(L1,)), L=12.0, m=200))
    info = load_tracer().INFO["rs_verify.assemble"]((), {}, op)
    assert math.isfinite(info["dim"]) and info["dim"] == op.dimension
    assert info["bytes"] > 0
