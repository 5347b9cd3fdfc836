"""Command-line front end.

Subcommands: irrep, check, pair-index, sf, kitaev, flux, aii, rs-check,
props.  Structured results go to standard output as JSON (sorted keys, so
identical flags and seed produce byte-identical output); eigenvalue
tracks and kernel profiles go to CSV side files on request.

Exit codes: 0 success, 2 validation error, 3 numerical-guard error
(ambiguous kernel, obstruction).
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import clifford as cliff
from .abs_index import abs_class
from .errors import (AmbiguousKernelError, InvalidModuleError, ObstructionError,
                     ValidationError)
from .flow import SkewPath, bordered_flow, classical_sf, spectral_flow
from .models import aii_path, flux_path, hermitian_double, kitaev_path
from .pairs import ComplexStructure, pair_index
from .props import run_all
from .rs_verify import RSProblem, hermite_values, verify_rs

# Evenly spaced path parameters at which --tracks samples the spectrum.
TRACK_SAMPLES = 101


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:  # unreadable file, not UTF-8, not JSON
        raise ValidationError(f"cannot read JSON from {path}: {exc}") from exc


def _load_matrix(path: str, n: int) -> np.ndarray:
    """An n x n matrix stored as a flat or nested array, or as {"data": ...}."""
    obj = _load_json(path)
    data = obj.get("data") if isinstance(obj, dict) else obj
    return cliff._matrix_from_json(data, n)


def _open_out(path: str, mode: str):
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:  # missing directory, a directory, no permission
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _check_out(path: str) -> None:
    """Raise ValidationError, before the solve, when `path` cannot be
    written; a file made only to find that out is removed again (the
    target, when `path` is a dangling symlink)."""
    existed = os.path.exists(path)
    _open_out(path, "a").close()
    if not existed:
        os.remove(os.path.realpath(path))


def _write_csv(path: str, header, rows) -> None:
    with _open_out(path, "w") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(f"{x:.12g}" for x in row) + "\n")


def _solve(path: SkewPath, args):
    """The spectral flow of `path` (`bordered_flow` when it declares a
    moving block), then the `--tracks` smallest singular values along it
    as CSV in `--out`.  The request is checked before the
    solve: 0 <= tracks <= n, and --out given, and writable, exactly when
    tracks > 0."""
    n = path.context.n
    if not 0 <= args.tracks <= n:
        raise ValidationError(f"--tracks must lie in [0, {n}], got {args.tracks}")
    if args.tracks and not args.out:
        raise ValidationError("--tracks needs --out")
    if args.out and not args.tracks:
        raise ValidationError("--out needs --tracks")
    if args.tracks:
        _check_out(args.out)
    value = (spectral_flow if path.moving is None else bordered_flow)(path, seed=args.seed)
    if args.tracks:
        rows = []
        for t in np.linspace(0.0, 1.0, TRACK_SAMPLES):
            if path.reduction is None:
                svals = np.linalg.svd(path.at(t), compute_uv=False)
            else:  # those of the lifted sample: the coefficient's, each c times
                svals = np.repeat(np.linalg.svd(path.coefficient(t), compute_uv=False),
                                  path.reduction.b.shape[0])
            rows.append([t] + sorted(svals)[:args.tracks])
        _write_csv(args.out, ["t"] + [f"sigma{i + 1}" for i in range(args.tracks)], rows)
    return value


def cmd_irrep(args) -> int:
    rep = cliff.irreducible_rep(args.r, args.s, args.chirality)
    _emit(cliff.rep_to_json(rep))
    return 0


def cmd_check(args) -> int:
    rep = cliff._parse_rep(_load_json(args.module))
    report = cliff.check_relations(rep, args.tol)
    _emit({"ok": report.ok,
           "max_residual": report.max_residual,
           "violations": [{"relation": name, "residual": res}
                          for name, res in report.violations]})
    return 0


def cmd_pair_index(args) -> int:
    ctx = cliff.rep_from_json(_load_json(args.module))
    j0 = ComplexStructure(_load_matrix(args.j0, ctx.n), ctx)
    j1 = ComplexStructure(_load_matrix(args.j1, ctx.n), ctx)
    value, kernel = pair_index(j0, j1)
    _emit({"class": value.to_json(), "kernel_dim": kernel.n})
    return 0


def _model_path(args) -> SkewPath:
    if args.model == "kitaev":
        return kitaev_path(args.N)
    if args.model == "flux":
        if args.module is None:
            raise ValidationError("sf --model flux needs --module")
        module = cliff.rep_from_json(_load_json(args.module))
        return flux_path(module, args.N)
    raise ValidationError(f"unknown model {args.model!r}")


def cmd_sf(args) -> int:
    if args.model:
        path = _model_path(args)
    elif args.path:
        obj = _load_json(args.path)
        try:
            ctx = cliff.rep_from_json(obj["context"]) if "context" in obj \
                else cliff.CliffordRep(0, 0, cliff.json_count(obj, "n"))
            times = np.asarray(obj["t"], dtype=float)
            mats = [cliff._matrix_from_json(m, ctx.n) for m in obj["T"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed sampled path JSON: {exc}") from exc
        if times.ndim != 1 or times.size != len(mats) or times.size < 2:
            raise ValidationError("sampled path needs matching t and T lists")
        if not np.all(np.diff(times) > 0.0):
            raise ValidationError("sample times t must be strictly increasing")
        if times[0] != 0.0 or times[-1] != 1.0:
            raise ValidationError("sample times t must start at 0 and end at 1")

        def fn(t, times=times, mats=mats):
            idx = np.searchsorted(times, t, side="right") - 1
            idx = min(max(idx, 0), times.size - 2)
            w = (t - times[idx]) / (times[idx + 1] - times[idx])
            return (1 - w) * mats[idx] + w * mats[idx + 1]

        path = SkewPath(ctx, fn, label="sampled path")
    else:
        raise ValidationError("sf needs either --model or --path")
    value = _solve(path, args)
    _emit({"class": value.to_json(), "label": path.label})
    return 0


def cmd_kitaev(args) -> int:
    path = kitaev_path(args.N)
    value = _solve(path, args)
    _emit(value.to_json())
    return 0


def cmd_flux(args) -> int:
    module = cliff.rep_from_json(_load_json(args.module))
    path = flux_path(module, args.N)
    value = _solve(path, args)
    _emit({"class": value.to_json(), "module_class": abs_class(module).to_json()})
    return 0


def cmd_aii(args) -> int:
    def h_fn(t):
        return (2.0 * t - 1.0) * np.eye(4)

    path = aii_path(h_fn, 4)
    value = _solve(path, args)
    classical = classical_sf(lambda t: hermitian_double(h_fn(t)))
    _emit({"class": value.to_json(),
           "classical_sf": classical,
           "quarter_relation": 4 * value.value == classical})
    return 0


def cmd_rs_check(args) -> int:
    module = cliff.rep_from_json(_load_json(args.module)) if args.module \
        else cliff.CliffordRep(0, 1, 2, F=(cliff.L1,))
    problem = RSProblem(module, L=args.L, m=args.m)
    if args.out:
        _check_out(args.out)
    report = verify_rs(problem)
    if args.out:
        points = np.linspace(-4.0, 6.0, 401)
        phi = hermite_values(problem.m, points / problem.scale) / np.sqrt(problem.scale)
        cells = report.operator.to_cells(report.kernel_basis)
        values = np.einsum("pj,jck->pkc", phi, cells).reshape(points.size, -1)
        header = ["x"] + [f"v{c + 1}_{k + 1}" for c in range(cells.shape[2])
                          for k in range(cells.shape[1])]
        _write_csv(args.out, header, np.column_stack([points, values]))
    _emit(report.to_json())
    return 0


def cmd_props(args) -> int:
    records = run_all(args.seed)
    failures = [rec for rec in records if not rec["ok"]]
    _emit({"seed": args.seed,
           "total": len(records),
           "failures": failures,
           "ok": not failures})
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koflow",
        description="KO-valued indices and spectral flow at finite matrix scale")
    sub = parser.add_subparsers(dest="command", required=True)
    # the options of every subcommand that solves one flow (`_solve`)
    solve = argparse.ArgumentParser(add_help=False)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--tracks", type=int, default=0)
    solve.add_argument("--out", default=None)

    p = sub.add_parser("irrep", help="canonical irreducible representation")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--chirality", choices=["+", "-"], default=None)

    p = sub.add_parser("check", help="validate a representation JSON")
    p.add_argument("--module", required=True)
    p.add_argument("--tol", type=float, default=1e-12)

    p = sub.add_parser("pair-index", help="index of a pair of complex structures")
    p.add_argument("--j0", required=True)
    p.add_argument("--j1", required=True)
    p.add_argument("--module", required=True, help="context representation JSON")

    p = sub.add_parser("sf", parents=[solve],
                       help="spectral flow of a model or sampled path")
    p.add_argument("--model", choices=["kitaev", "flux"], default=None)
    p.add_argument("--path", default=None, help="JSON file with t and T samples")
    p.add_argument("--module", default=None, help="module JSON (flux model)")
    p.add_argument("--N", type=int, default=8)

    p = sub.add_parser("kitaev", parents=[solve], help="Kitaev chain flux insertion")
    p.add_argument("--N", type=int, required=True)

    p = sub.add_parser("flux", parents=[solve],
                       help="flux insertion with a module unit cell")
    p.add_argument("--module", required=True)
    p.add_argument("--N", type=int, default=3)

    p = sub.add_parser("aii", parents=[solve], help="class AII demonstration path")
    p.add_argument("--demo", action="store_true")

    p = sub.add_parser("rs-check", help="Robbin-Salamon verification")
    p.add_argument("--module", default=None)
    p.add_argument("--L", type=float, default=12.0)
    p.add_argument("--m", type=int, default=1200)
    p.add_argument("--out", default=None, help="CSV of kernel profiles")

    p = sub.add_parser("props", help="run all invariant suites")
    p.add_argument("--seed", type=int, default=0)

    return parser


# The parser is built on the first `main` call, not at import, and kept:
# building its nine subcommands costs about 1 ms, paid once per process.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # the command is looked up when it runs, not when the parser was built
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        if getattr(args, "seed", 0) < 0:  # default_rng takes no negative seed
            raise ValidationError(f"--seed must be nonnegative, got {args.seed}")
        return command(args)
    except (ValidationError, InvalidModuleError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (AmbiguousKernelError, ObstructionError) as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
