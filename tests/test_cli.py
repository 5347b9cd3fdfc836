import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from koflow import clifford as cl
from koflow import cli as cli_mod
from koflow import models
from koflow.cli import main

from conftest import complex_kitaev, rotated_irrep


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_irrep(capsys):
    code, out, _ = run_cli(capsys, "irrep", "--r", "2", "--s", "1", "--chirality", "+")
    assert code == 0
    obj = json.loads(out)
    assert (obj["r"], obj["s"], obj["n"]) == (2, 1, 2)
    assert len(obj["E"]) == 2 and len(obj["F"]) == 1


def test_irrep_rejects_unneeded_chirality(capsys):
    code, _, err = run_cli(capsys, "irrep", "--r", "1", "--s", "1",
                           "--chirality", "+")
    assert code == 2
    assert "chirality" in err


def test_determinism(capsys):
    outputs = set()
    for _ in range(2):
        code, out, _ = run_cli(capsys, "kitaev", "--N", "8", "--seed", "3")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    assert json.loads(outputs.pop()) == {"degree": 2, "group": "Z2", "value": 1}


def test_check_subcommand(tmp_path, capsys):
    rep = cl.irreducible_rep(1, 1)
    module_file = tmp_path / "rep.json"
    module_file.write_text(json.dumps(cl.rep_to_json(rep)))
    code, out, _ = run_cli(capsys, "check", "--module", str(module_file))
    assert code == 0
    assert json.loads(out)["ok"] is True

    bad = cl.rep_to_json(rep)
    bad["F"][0] = (1.5 * np.asarray(bad["F"][0])).tolist()
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(bad))
    code, out, _ = run_cli(capsys, "check", "--module", str(bad_file))
    assert code == 0
    parsed = json.loads(out)
    assert parsed["ok"] is False and parsed["violations"]


def test_pair_index_subcommand(tmp_path, capsys):
    ctx = cl.CliffordRep(0, 0, 4)
    ctx_file = tmp_path / "ctx.json"
    ctx_file.write_text(json.dumps(cl.rep_to_json(ctx)))
    j0 = np.kron(np.eye(2), cl.L1)
    j1 = j0.copy()
    j1[2:, 2:] *= -1.0
    j0_file = tmp_path / "j0.json"
    j1_file = tmp_path / "j1.json"
    j0_file.write_text(json.dumps(j0.reshape(-1).tolist()))
    j1_file.write_text(json.dumps(j1.reshape(-1).tolist()))
    code, out, _ = run_cli(capsys, "pair-index", "--j0", str(j0_file),
                           "--j1", str(j1_file), "--module", str(ctx_file))
    assert code == 0
    parsed = json.loads(out)
    assert parsed["kernel_dim"] == 2
    assert parsed["class"] == {"degree": 2, "group": "Z2", "value": 1}


def test_flux_subcommand(tmp_path, capsys):
    module = cl.irreducible_rep(0, 3, "+")
    module_file = tmp_path / "v.json"
    module_file.write_text(json.dumps(cl.rep_to_json(module)))
    code, out, _ = run_cli(capsys, "flux", "--module", str(module_file), "--N", "3")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["class"] == parsed["module_class"]
    assert parsed["class"]["value"] == 1 and parsed["class"]["degree"] == 4


def test_sf_model_and_tracks(tmp_path, capsys):
    out_file = tmp_path / "tracks.csv"
    code, out, _ = run_cli(capsys, "sf", "--model", "kitaev", "--N", "6",
                           "--tracks", "2", "--out", str(out_file))
    assert code == 0
    assert json.loads(out)["class"]["value"] == 1
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "t,sigma1,sigma2"
    assert len(lines) == 102


def test_kitaev_tracks_match_complex_reference(tmp_path, capsys, monkeypatch):
    # the rows are compared before printing (the CSV keeps 12 digits, and
    # rows near the alpha = 0.5 crossing hold 1e-16 noise)
    written = []
    write_csv = cli_mod._write_csv

    def recorded(path, header, rows):
        written.append(np.array(rows))
        write_csv(path, header, rows)

    monkeypatch.setattr(cli_mod, "_write_csv", recorded)
    out_file = tmp_path / "f.csv"
    code, _, _ = run_cli(capsys, "kitaev", "--N", "8", "--tracks", "4",
                         "--out", str(out_file))
    assert code == 0
    (rows,) = written
    times = np.linspace(0.0, 1.0, 101)
    reference = [np.sort(np.linalg.svd(1j * complex_kitaev(8, t), compute_uv=False))[:4]
                 for t in times]
    assert np.array_equal(rows[:, 0], times)
    assert np.abs(rows[:, 1:] - reference).max() <= 1e-14
    printed = np.loadtxt(out_file, delimiter=",", skiprows=1)
    assert np.allclose(printed, rows, rtol=1e-11, atol=0.0)


def test_reduced_flux_tracks_match_dense_svd(tmp_path, capsys, monkeypatch):
    # a reduced path reads its singular values from the N x N coefficient
    # A, each repeated c times; they are those of the dense sample A (x) b
    written = []
    write_csv = cli_mod._write_csv

    def recorded(path, header, rows):
        written.append(np.array(rows))
        write_csv(path, header, rows)

    monkeypatch.setattr(cli_mod, "_write_csv", recorded)
    module = rotated_irrep(0, 7, seed=7)
    module_file = tmp_path / "cl07.json"
    module_file.write_text(json.dumps(cl.rep_to_json(module)))
    code, _, _ = run_cli(capsys, "flux", "--module", str(module_file), "--N", "6",
                         "--tracks", "20", "--out", str(tmp_path / "f.csv"))
    assert code == 0
    (rows,) = written
    path = models.flux_path(module, 6)
    assert path.reduction is not None
    cell = np.array(path.reduction.b)
    times = np.linspace(0.0, 1.0, 101)
    reference = [np.sort(np.linalg.svd(np.kron(path.fn(t), cell), compute_uv=False))[:20]
                 for t in times]
    assert np.array_equal(rows[:, 0], times)
    assert np.abs(rows[:, 1:] - reference).max() <= 1e-12


def test_sf_sampled_path(tmp_path, capsys):
    module = cl.irreducible_rep(0, 1)
    ctx = cl.CliffordRep(0, 0, 2)
    samples = {
        "context": cl.rep_to_json(ctx),
        "t": [0.0, 1.0],
        "T": [np.array(cl.L1).reshape(-1).tolist(),
              (-np.array(cl.L1)).reshape(-1).tolist()],
    }
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps(samples))
    code, out, _ = run_cli(capsys, "sf", "--path", str(path_file))
    assert code == 0
    assert json.loads(out)["class"] == {"degree": 2, "group": "Z2", "value": 1}


def test_aii_subcommand(capsys):
    code, out, _ = run_cli(capsys, "aii", "--demo")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["quarter_relation"] is True
    assert 4 * parsed["class"]["value"] == parsed["classical_sf"]


def test_rs_check_subcommand(tmp_path, capsys, monkeypatch):
    from koflow import rs_verify

    calls = []
    assemble = rs_verify.assemble_rs_operator

    def counted(problem):
        calls.append(problem.m)
        return assemble(problem)

    monkeypatch.setattr(rs_verify, "assemble_rs_operator", counted)
    out_file = tmp_path / "profiles.csv"
    code, out, _ = run_cli(capsys, "rs-check", "--L", "12", "--m", "300",
                           "--out", str(out_file))
    assert code == 0
    assert calls == [300]
    parsed = json.loads(out)
    assert parsed["kernel_dim"] == 2 and parsed["agrees"] is True
    lines = out_file.read_text().splitlines()
    assert lines[0] == "x," + ",".join(f"v{c}_{k}" for c in (1, 2)
                                       for k in (1, 2, 3, 4))
    assert len(lines) == 402
    code, plain, _ = run_cli(capsys, "rs-check", "--L", "12", "--m", "300")
    assert code == 0
    assert plain == out


def test_rs_check_memory_budget(capsys):
    code, out, err = run_cli(capsys, "rs-check", "--m", "70000")
    assert code == 2 and out == ""
    assert "validation error" in err and "bytes" in err


def test_exit_code_validation_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    missing.write_text(json.dumps({"r": 0, "s": 1, "n": 2, "E": [],
                                   "F": [[1, 0, 0, 1]]}))
    code, _, err = run_cli(capsys, "pair-index", "--j0", str(missing),
                           "--j1", str(missing), "--module", str(missing))
    assert code == 2 and "validation" in err


def test_exit_code_numerical_guard(tmp_path, capsys):
    # a path with a non-invertible endpoint trips validation (exit 2);
    # an obstructed kernel inside the flow trips the guard (exit 3)
    ctx = cl.CliffordRep(0, 0, 3)
    samples = {
        "context": cl.rep_to_json(ctx),
        "t": [0.0, 0.5, 1.0],
        "T": [np.zeros(9).tolist(), np.zeros(9).tolist(), np.zeros(9).tolist()],
    }
    path_file = tmp_path / "flat.json"
    path_file.write_text(json.dumps(samples))
    code, _, err = run_cli(capsys, "sf", "--path", str(path_file))
    assert code == 2  # endpoints not invertible

    from koflow.errors import ObstructionError
    # obstruction propagates as exit 3 through main()
    from koflow import cli as cli_mod

    def boom(args):
        raise ObstructionError("obstructed")

    parser_fn = cli_mod.cmd_kitaev
    try:
        cli_mod.cmd_kitaev = boom
        code = main(["kitaev", "--N", "8"])
        assert code == 3
    finally:
        cli_mod.cmd_kitaev = parser_fn


CTX2 = {"r": 0, "s": 0, "n": 2, "E": [], "F": []}
L1_FLAT = [0.0, -1.0, 1.0, 0.0]
MINUS_L1_FLAT = [0.0, 1.0, -1.0, 0.0]


def _near_singular_path(a0, a1):
    """An `sf --path` file from T(0) = a0 L1 (+) L1 to T(1) = a1 L1 (+) L1."""
    return {"n": 4, "t": [0.0, 1.0],
            "T": [np.kron(np.diag([a, 1.0]), cl.L1).reshape(-1).tolist() for a in (a0, a1)]}

NAN = float("nan")  # json.dumps writes it as the NaN literal json.load accepts
MALFORMED = {
    "check-generator-of-length-3": (
        ["check", "--module", "rep.json"],
        {"rep.json": {"r": 0, "s": 1, "n": 2, "E": [], "F": [[0.0, -1.0, 1.0]]}}),
    "pair-index-j-of-length-3": (
        ["pair-index", "--j0", "j.json", "--j1", "j.json", "--module", "ctx.json"],
        {"j.json": [0.0, -1.0, 1.0], "ctx.json": CTX2}),
    "missing-file": (["check", "--module", "absent.json"], {}),
    "invalid-json": (["check", "--module", "rep.json"], {"rep.json": "{not json"}),
    "ragged-F": (
        ["flux", "--module", "rep.json"],
        {"rep.json": {"r": 0, "s": 1, "n": 2, "E": [], "F": [[[0.0, -1.0], [1.0]]]}}),
    "flux-model-without-module": (["sf", "--model", "flux"], {}),
    "path-without-t": (["sf", "--path", "p.json"],
                       {"p.json": {"context": CTX2, "T": [L1_FLAT, MINUS_L1_FLAT]}}),
    "path-without-T": (["sf", "--path", "p.json"],
                       {"p.json": {"context": CTX2, "t": [0.0, 1.0]}}),
    "path-t-decreasing": (
        ["sf", "--path", "p.json"],
        {"p.json": {"context": CTX2, "t": [1.0, 0.0], "T": [L1_FLAT, MINUS_L1_FLAT]}}),
    "path-t-repeated": (
        ["sf", "--path", "p.json"],
        {"p.json": {"context": CTX2, "t": [0.0, 0.0, 1.0],
                    "T": [L1_FLAT, L1_FLAT, MINUS_L1_FLAT]}}),
    "path-t-inside-unit-interval": (
        ["sf", "--path", "p.json"],
        {"p.json": {"context": CTX2, "t": [0.2, 0.8], "T": [L1_FLAT, MINUS_L1_FLAT]}}),
    "check-nan-entry": (
        ["check", "--module", "rep.json"],
        {"rep.json": {"r": 0, "s": 1, "n": 2, "E": [], "F": [[0.0, NAN, 1.0, 0.0]]}}),
    "flux-nan-entry": (
        ["flux", "--module", "rep.json"],
        {"rep.json": {"r": 0, "s": 1, "n": 2, "E": [], "F": [[0.0, NAN, 1.0, 0.0]]}}),
    "kitaev-over-memory-budget": (["kitaev", "--N", "3000000"], {}),
    "flux-over-memory-budget": (
        ["flux", "--module", "rep.json", "--N", "3000000"],
        {"rep.json": {"r": 0, "s": 1, "n": 2, "E": [], "F": [L1_FLAT]}}),
    "tracks-above-dimension": (["kitaev", "--N", "3", "--tracks", "10", "--out", "f.csv"], {}),
    "tracks-negative": (["kitaev", "--N", "3", "--tracks", "-2", "--out", "f.csv"], {}),
    "tracks-without-out": (["kitaev", "--N", "3", "--tracks", "4"], {}),
    "kitaev-out-without-tracks": (["kitaev", "--N", "4", "--out", "f.csv"], {}),
    "sf-out-without-tracks": (["sf", "--model", "kitaev", "--N", "4", "--out", "f.csv"], {}),
    "flux-out-without-tracks": (
        ["flux", "--module", "rep.json", "--out", "f.csv"],
        {"rep.json": {"r": 0, "s": 1, "n": 2, "E": [], "F": [L1_FLAT]}}),
    "aii-out-without-tracks": (["aii", "--demo", "--out", "f.csv"], {}),
    "rs-check-infinite-L": (["rs-check", "--m", "200", "--L", "inf"], {}),
    "rs-check-nan-L": (["rs-check", "--m", "200", "--L", "nan"], {}),
    # a basis squeezed below the coefficient path's window [-1, 2]
    "rs-check-basis-misses-switch-1e100": (["rs-check", "--m", "300", "--L", "1e100"], {}),
    "rs-check-basis-misses-switch-1e306": (["rs-check", "--m", "300", "--L", "1e306"], {}),
    "rs-check-basis-misses-switch-1e307": (["rs-check", "--m", "300", "--L", "1e307"], {}),
    "kitaev-negative-seed": (["kitaev", "--N", "4", "--seed", "-1"], {}),
    "sf-negative-seed": (["sf", "--model", "kitaev", "--N", "4", "--seed", "-1"], {}),
    "flux-negative-seed": (
        ["flux", "--module", "rep.json", "--seed", "-3"],
        {"rep.json": {"r": 0, "s": 1, "n": 2, "E": [], "F": [L1_FLAT]}}),
    "aii-negative-seed": (["aii", "--demo", "--seed", "-1"], {}),
    "props-negative-seed": (["props", "--seed", "-1"], {}),
    # a module file whose JSON is a string holding the module's JSON
    "check-json-encoded-string": (
        ["check", "--module", "rep.json"],
        {"rep.json": json.dumps(json.dumps({"r": 0, "s": 1, "n": 2, "E": [], "F": [L1_FLAT]}))}),
    "flux-json-encoded-string": (
        ["flux", "--module", "rep.json"],
        {"rep.json": json.dumps(json.dumps({"r": 0, "s": 1, "n": 2, "E": [], "F": [L1_FLAT]}))}),
    # an endpoint block at 5e-8 ||T(0)|| is a kernel, whatever the class
    # the endpoint Pfaffian signs would give
    "path-endpoint-5e-8-then-minus-L1": (["sf", "--path", "p.json"],
                                         {"p.json": _near_singular_path(5e-8, -1.0)}),
    "path-endpoint-5e-8-then-L1": (["sf", "--path", "p.json"],
                                   {"p.json": _near_singular_path(5e-8, 1.0)}),
    "path-endpoint-minus-5e-8-then-minus-L1": (["sf", "--path", "p.json"],
                                               {"p.json": _near_singular_path(-5e-8, -1.0)}),
    "path-nan-sample": (
        ["sf", "--path", "p.json"],
        {"p.json": {"context": CTX2, "t": [0.0, 0.5, 1.0],
                    "T": [L1_FLAT, [0.0, NAN, 1.0, 0.0], MINUS_L1_FLAT]}}),
}


@pytest.mark.parametrize("argv,files", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_input_exits_2(tmp_path, capsys, argv, files):
    for name, content in files.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / arg) if arg.endswith((".json", ".csv")) else arg
            for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "validation error" in err
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("argv", [["kitaev", "--N", "3000000"],
                                  ["sf", "--model", "kitaev", "--N", "3000000"],
                                  ["flux", "--N", "3000000"]])
def test_lattice_memory_guard_trips_before_allocation(tmp_path, capsys, monkeypatch,
                                                      argv):
    def unreachable(n):
        raise AssertionError("the ring shift was allocated")

    monkeypatch.setattr(models, "_ring_shift", unreachable)
    module_file = tmp_path / "rep.json"
    module_file.write_text(json.dumps(cl.rep_to_json(cl.irreducible_rep(0, 1))))
    if argv[0] == "flux":
        argv = argv + ["--module", str(module_file)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "bytes, over the memory budget" in err


@pytest.mark.parametrize("command", ["kitaev", "sf", "flux", "aii", "props"])
def test_negative_seed_exits_2_before_the_solve(tmp_path, capsys, monkeypatch, command):
    def unreachable(*args, **kwargs):
        raise AssertionError("a solve started")

    monkeypatch.setattr(cli_mod, "spectral_flow", unreachable)
    monkeypatch.setattr(cli_mod, "run_all", unreachable)
    module_file = tmp_path / "rep.json"
    module_file.write_text(json.dumps(cl.rep_to_json(cl.irreducible_rep(0, 1))))
    argv = {"kitaev": ["kitaev", "--N", "4"], "sf": ["sf", "--model", "kitaev"],
            "flux": ["flux", "--module", str(module_file)], "aii": ["aii", "--demo"],
            "props": ["props"]}[command]
    code, out, err = run_cli(capsys, *argv, "--seed", "-2")
    assert (code, out) == (2, "")
    assert "--seed must be nonnegative, got -2" in err


UNWRITABLE_OUT = {
    "kitaev": ["kitaev", "--N", "4", "--tracks", "2"],
    "sf": ["sf", "--model", "kitaev", "--N", "4", "--tracks", "2"],
    "flux": ["flux", "--module", "rep.json", "--tracks", "2"],
    "aii": ["aii", "--demo", "--tracks", "2"],
    "rs-check": ["rs-check", "--m", "200"],
}


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("argv", list(UNWRITABLE_OUT.values()), ids=list(UNWRITABLE_OUT))
def test_unwritable_out_exits_2_before_the_solve(tmp_path, capsys, monkeypatch,
                                                 argv, target):
    def unreachable(*args, **kwargs):
        raise AssertionError("the solve ran before --out was checked")

    monkeypatch.setattr(cli_mod, "spectral_flow", unreachable)
    monkeypatch.setattr(cli_mod, "verify_rs", unreachable)
    (tmp_path / "rep.json").write_text(json.dumps(cl.rep_to_json(cl.irreducible_rep(0, 1))))
    argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv]
    out_path = tmp_path / "absent" / "out.csv" if target == "missing-directory" else tmp_path
    before = sorted(tmp_path.iterdir())
    code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert (code, out) == (2, "")
    assert "validation error: cannot write" in err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("target", ["file", "dangling-symlink"])
def test_out_check_leaves_no_file_behind(tmp_path, capsys, target):
    # the writability check removes the file it made, also behind a
    # dangling symlink; a later failure of the solve leaves no empty CSV
    ctx = cl.CliffordRep(0, 0, 2)
    path_file = tmp_path / "flat.json"
    path_file.write_text(json.dumps({"context": cl.rep_to_json(ctx), "t": [0.0, 1.0],
                                     "T": [np.zeros(4).tolist(), np.zeros(4).tolist()]}))
    out_file = tmp_path / "t.csv"
    if target == "dangling-symlink":
        out_file.symlink_to(tmp_path / "target.csv")
    before = sorted(tmp_path.iterdir())
    code, out, _ = run_cli(capsys, "sf", "--path", str(path_file), "--tracks", "1",
                           "--out", str(out_file))
    assert (code, out) == (2, "")  # singular endpoint
    assert sorted(tmp_path.iterdir()) == before
    assert not out_file.exists()


@pytest.mark.parametrize("argv", list(UNWRITABLE_OUT.values()), ids=list(UNWRITABLE_OUT))
def test_failed_out_write_after_the_solve_prints_nothing(tmp_path, capsys, monkeypatch,
                                                        argv):
    # should --out become unwritable during the solve, the command still
    # exits 2 with empty stdout: the file is written before the report
    monkeypatch.setattr(cli_mod, "_check_out", lambda path: None)
    (tmp_path / "rep.json").write_text(json.dumps(cl.rep_to_json(cl.irreducible_rep(0, 1))))
    argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "absent" / "out.csv"))
    assert (code, out) == (2, "")
    assert "validation error: cannot write" in err


HOSTILE_SIZES = {
    "module-n-negative": (["check", "--module", "rep.json"],
                          {"r": 0, "s": 0, "n": -1}, "nonnegative integer"),
    "module-n-fractional": (["check", "--module", "rep.json"],
                            {"r": 0, "s": 0, "n": 2.7}, "nonnegative integer"),
    "module-n-bool": (["check", "--module", "rep.json"],
                      {"r": 0, "s": 0, "n": True}, "nonnegative integer"),
    "module-r-negative": (["flux", "--module", "rep.json"],
                          {"r": -1, "s": 1, "n": 2, "E": [], "F": [L1_FLAT]},
                          "nonnegative integer"),
    "module-s-fractional": (["flux", "--module", "rep.json"],
                            {"r": 0, "s": 1.5, "n": 2, "E": [], "F": [L1_FLAT]},
                            "nonnegative integer"),
    "module-n-over-budget": (["check", "--module", "rep.json"],
                             {"r": 0, "s": 0, "n": 100000000},
                             "bytes, over the memory budget"),
    "flux-module-n-over-budget": (["flux", "--module", "rep.json"],
                                  {"r": 0, "s": 1, "n": 100000000, "E": [], "F": []},
                                  "bytes, over the memory budget"),
    "path-n-fractional": (["sf", "--path", "rep.json"],
                          {"n": 2.7, "t": [0.0, 1.0], "T": [L1_FLAT, L1_FLAT]},
                          "nonnegative integer"),
    "irrep-over-budget": (["irrep", "--r", "30", "--s", "30"], None,
                          "bytes, over the memory budget"),
}


@pytest.mark.parametrize("argv,content,message", list(HOSTILE_SIZES.values()),
                         ids=list(HOSTILE_SIZES))
def test_hostile_sizes_exit_2_before_allocation(tmp_path, capsys, monkeypatch,
                                                argv, content, message):
    # a size that is not a count, or one over the memory budget, is
    # rejected before any matrix of that size is built or checked
    def unreachable(*args, **kwargs):
        raise AssertionError("a matrix was allocated before the guard")

    for name in ("_matrix_from_json", "check_relations", "_irreducible_recursive"):
        monkeypatch.setattr(cl, name, unreachable)
    if content is not None:
        (tmp_path / "rep.json").write_text(json.dumps(content))
        argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "validation error" in err and message in err


def _golden_path_file(tmp_path):
    """Nine samples of T(t) = diag(1, 1 - 2t) (x) L1 + t(1 - t)/10 L1 (x) K1:
    one 2-plane crosses zero once."""
    times = np.linspace(0.0, 1.0, 9)
    mats = [np.kron(np.diag([1.0, 1.0 - 2.0 * t]), cl.L1)
            + 0.1 * t * (1.0 - t) * np.kron(cl.L1, cl.K1) for t in times]
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps({"n": 4, "t": times.tolist(),
                                     "T": [m.reshape(-1).tolist() for m in mats]}))
    return str(path_file)


def _golden_module_file(tmp_path):
    module_file = tmp_path / "cl03.json"
    module_file.write_text(json.dumps(cl.rep_to_json(cl.irreducible_rep(0, 3, "+"))))
    return str(module_file)


def _golden_cl01_file(tmp_path):
    module_file = tmp_path / "cl01.json"
    module_file.write_text(json.dumps(cl.rep_to_json(cl.irreducible_rep(0, 1))))
    return str(module_file)


def _golden_rotated(r, s, seed):
    """A maker of the module file of the Cl_{r,s} irreducible in a seeded frame."""
    def make(tmp_path):
        module_file = tmp_path / f"cl{r}{s}.json"
        module_file.write_text(json.dumps(cl.rep_to_json(rotated_irrep(r, s, seed=seed))))
        return str(module_file)
    return make


GOLDEN = {
    "kitaev-N8-seed0": (["kitaev", "--N", "8", "--seed", "0"], {},
                        '{"degree": 2, "group": "Z2", "value": 1}\n'),
    "kitaev-N8-seed3": (["kitaev", "--N", "8", "--seed", "3"], {},
                        '{"degree": 2, "group": "Z2", "value": 1}\n'),
    "kitaev-N9": (["kitaev", "--N", "9"], {},
                  '{"degree": 2, "group": "Z2", "value": 1}\n'),
    "flux-cl01-N4": (["flux", "--N", "4"], {"--module": _golden_cl01_file},
                     '{"class": {"degree": 2, "group": "Z2", "value": 1}, '
                     '"module_class": {"degree": 2, "group": "Z2", "value": 1}}\n'),
    "flux-cl03-N3": (["flux", "--N", "3"], {"--module": _golden_module_file},
                     '{"class": {"degree": 4, "group": "Z", "value": 1}, '
                     '"module_class": {"degree": 4, "group": "Z", "value": 1}}\n'),
    "flux-rotated-cl07-N12": (["flux", "--N", "12", "--seed", "7"],
                              {"--module": _golden_rotated(0, 7, 7)},
                              '{"class": {"degree": 0, "group": "Z", "value": 1}, '
                              '"module_class": {"degree": 0, "group": "Z", "value": 1}}\n'),
    # split-type cells: the module's volume element grades every sample
    "flux-rotated-cl11-N12": (["flux", "--N", "12", "--seed", "11"],
                              {"--module": _golden_rotated(1, 1, 11)},
                              '{"class": {"degree": 1, "group": "Z2", "value": 1}, '
                              '"module_class": {"degree": 1, "group": "Z2", "value": 1}}\n'),
    "flux-rotated-cl08-N12": (["flux", "--N", "12", "--seed", "8"],
                              {"--module": _golden_rotated(0, 8, 8)},
                              '{"class": {"degree": 1, "group": "Z2", "value": 1}, '
                              '"module_class": {"degree": 1, "group": "Z2", "value": 1}}\n'),
    # the benchmark's two graded workloads, at their sizes
    "kitaev-N256": (["kitaev", "--N", "256", "--seed", "0"], {},
                    '{"degree": 2, "group": "Z2", "value": 1}\n'),
    # lattice scale on the bordered route: an odd ring, dense, and an even
    # ring four times the benchmark's
    "kitaev-N255": (["kitaev", "--N", "255"], {},
                    '{"degree": 2, "group": "Z2", "value": 1}\n'),
    "kitaev-N1024": (["kitaev", "--N", "1024"], {},
                     '{"degree": 2, "group": "Z2", "value": 1}\n'),
    "flux-rotated-cl07-N48": (["flux", "--N", "48", "--seed", "0"],
                              {"--module": _golden_rotated(0, 7, 7)},
                              '{"class": {"degree": 0, "group": "Z", "value": 1}, '
                              '"module_class": {"degree": 0, "group": "Z", "value": 1}}\n'),
    "sf-path": (["sf"], {"--path": _golden_path_file},
                '{"class": {"degree": 2, "group": "Z2", "value": 1}, '
                '"label": "sampled path"}\n'),
    "aii": (["aii", "--demo"], {},
            '{"class": {"degree": 4, "group": "Z", "value": 2}, '
            '"classical_sf": 8, "quarter_relation": true}\n'),
    "props-seed0": (["props", "--seed", "0"], {},
                    '{"failures": [], "ok": true, "seed": 0, "total": 27}\n'),
}


@pytest.mark.parametrize("argv,files,expected", list(GOLDEN.values()), ids=list(GOLDEN))
def test_golden_stdout(tmp_path, capsys, argv, files, expected):
    # stdout bytes pinned: a change of kernel extractor or phase
    # completion must not move any printed class
    for flag, make in files.items():
        argv = argv + [flag, make(tmp_path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0, expected, "")


_IMPORT_PROBE = textwrap.dedent("""
    import contextlib, io, json, os, sys
    import numpy as np
    import koflow, koflow.cli
    from koflow.cli import main

    tmp = sys.argv[1]

    def run(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        return code, out.getvalue()

    def scipy_loaded():
        return sorted(k for k in sys.modules
                      if k == "scipy" or k.startswith("scipy."))

    codes = {}
    after_import = scipy_loaded()
    codes["kitaev"], _ = run("kitaev", "--N", "8")
    codes["sf"], _ = run("sf", "--model", "kitaev", "--N", "6")
    codes["aii"], _ = run("aii", "--demo")
    codes["irrep"], rep = run("irrep", "--r", "2", "--s", "1")
    rep_file = os.path.join(tmp, "rep.json")
    with open(rep_file, "w") as fh:
        fh.write(rep)
    codes["check"], _ = run("check", "--module", rep_file)
    j0 = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
    j1 = j0.copy()
    j1[2:, 2:] *= -1.0
    for name, mat in (("j0", j0), ("j1", j1)):
        with open(os.path.join(tmp, name + ".json"), "w") as fh:
            json.dump(mat.reshape(-1).tolist(), fh)
    with open(os.path.join(tmp, "ctx.json"), "w") as fh:
        json.dump({"r": 0, "s": 0, "n": 4, "E": [], "F": []}, fh)
    codes["pair-index"], _ = run("pair-index", "--j0", os.path.join(tmp, "j0.json"),
                                 "--j1", os.path.join(tmp, "j1.json"),
                                 "--module", os.path.join(tmp, "ctx.json"))
    after_light = scipy_loaded()
    codes["irrep-cl01"], cell = run("irrep", "--r", "0", "--s", "1")
    cell_file = os.path.join(tmp, "cl01.json")
    with open(cell_file, "w") as fh:
        fh.write(cell)
    codes["flux"], _ = run("flux", "--module", cell_file, "--N", "3")
    after_flux = scipy_loaded()
    codes["sf-flux"], _ = run("sf", "--model", "flux", "--module", cell_file, "--N", "4")
    after_sf_flux = scipy_loaded()
    codes["rs-check"], _ = run("rs-check", "--m", "200")
    print(json.dumps({"codes": codes, "after_import": after_import,
                      "after_light": after_light, "after_flux": after_flux,
                      "after_sf_flux": after_sf_flux,
                      "rs_check_loads_linalg": "scipy.linalg" in sys.modules,
                      "sparse_loaded": [k for k in sys.modules
                                        if k.startswith("scipy.sparse")]}))
""")


def test_light_commands_load_no_scipy(tmp_path):
    # one fresh interpreter: `import koflow`, the commands that call no
    # scipy function, flux and sf --model flux (whose cell frame is built
    # in numpy) must leave scipy unloaded, each read right after it ran;
    # rs-check then loads scipy.linalg, so the probe sees a load, and reads
    # sigma_max off its tridiagonal, so it needs no scipy.sparse
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert all(code == 0 for code in report["codes"].values()), report["codes"]
    assert report["after_import"] == []
    assert report["after_light"] == []
    assert report["after_flux"] == []
    assert report["after_sf_flux"] == []
    assert report["rs_check_loads_linalg"] is True
    assert report["sparse_loaded"] == []


_PARSER_PROBE = textwrap.dedent("""
    import contextlib, io, json, sys
    from koflow import cli

    runs = json.loads(sys.argv[1])
    built_at_import = cli._parser.cache_info().currsize
    outs = []
    for argv in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
        outs.append([code, out.getvalue()])
    print(json.dumps({"outs": outs, "built_at_import": built_at_import,
                      "builds": cli._parser.cache_info().misses}))
""")


def test_parser_is_built_once_and_reused(tmp_path):
    # one process parses a bad command line, then solves flux, kitaev and
    # props with the one parser built by its first main call; each stdout
    # matches that of the same command in a fresh process, byte for byte
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    runs = [["flux", "--N", "3"],  # no --module: a usage error, exit 2
            ["flux", "--N", "12", "--seed", "7",
             "--module", _golden_rotated(0, 7, 7)(tmp_path)],
            ["kitaev", "--N", "8"],
            ["props", "--seed", "0"]]
    proc = subprocess.run([sys.executable, "-c", _PARSER_PROBE, json.dumps(runs)],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["built_at_import"] == 0 and report["builds"] == 1
    for argv, (code, out) in zip(runs, report["outs"]):
        fresh = subprocess.run([sys.executable, "-m", "koflow.cli", *argv],
                               capture_output=True, text=True, env=env, check=False)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
    assert [code for code, _ in report["outs"]] == [2, 0, 0, 0]
