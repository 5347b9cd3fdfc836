"""The benchmark's tracer wraps koflow entry points by name; every name
it lists must still resolve, and traced solves must run and summarize,
or traced runs break."""
import importlib
import importlib.util
import json
import math
from pathlib import Path

from koflow.cli import main
from koflow.clifford import L1, CliffordRep, irreducible_rep, rep_to_json
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


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_traced_cli_solves_summarize(tmp_path, capsys):
    # traced solves call koflow through the tracer's wrappers, which read
    # some arguments (the flow's second positional one, the assembled
    # operator): a signature change that breaks `--trace 1` fails here
    tracer_mod = load_tracer()
    module = _write(tmp_path / "cl01.json", rep_to_json(irreducible_rep(0, 1)))
    path = _write(tmp_path / "path.json",
                  {"n": 2, "t": [0.0, 1.0], "T": [L1.ravel().tolist(), (-L1).ravel().tolist()]})
    solves = {"kitaev": ["kitaev", "--N", "8"],
              "flux": ["flux", "--N", "3", "--module", module],
              "aii": ["aii", "--demo"],
              "sf": ["sf", "--path", path],
              "rs-check": ["rs-check", "--m", "200"]}
    tracer = tracer_mod.Tracer()
    for name, argv in solves.items():
        with tracer.installed():
            code = tracer.root(main, argv)
        spans = tracer.take()
        assert code == 0, (name, capsys.readouterr().err)
        summary = tracer_mod.summarize(spans)
        assert spans[0][0] == tracer_mod.ROOT_SPAN
        assert summary["flow.spectral_flow_calls"] >= 1, name
        assert summary["flow.extra_nodes"] >= 0, name
        layers = sum(summary[f"{layer}.self_s"] for layer in tracer_mod.LAYERS)
        assert math.isclose(layers, summary["trace.solve_s"], rel_tol=1e-9), name
        if name == "rs-check":
            assert summary["rs_verify.verify_calls"] == 1
            assert summary["rs_verify.operator_dim"] > 0
    # the wrappers are gone again: an untraced solve records nothing
    assert main(["kitaev", "--N", "8"]) == 0 and tracer.take() == []
