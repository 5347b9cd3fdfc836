"""The four workloads: seeded inputs, the argv of each solve, and the
output gate.

Each solve is one `koflow.cli.main(argv)` call.  Inputs come only from
the workload seed; the program sees argv and the module files written
here.  A module is a canonical irreducible in a seeded random orthogonal
frame (g -> Q g Q^T for every generator), which leaves its KO class
unchanged by construction.

The gate compares classes and flags exactly.  It does not compare
`gap_ratio`, `zero_cluster_max` or `sigma_max`: at m = 1200 they depend
on the BLAS thread count (gap_ratio read 1.01e300 at 2 threads and
2.4e6 at 1 thread).
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from koflow import clifford

PROFILE_BOUND = 1e-2  # the Robbin-Salamon acceptance bound
Z2_ONE = {"degree": 2, "group": "Z2", "value": 1}
Z_ONE = {"degree": 0, "group": "Z", "value": 1}
PROPS_SUITE_RECORDS = 27
PROPS_SEED_BLOCK = 1000  # workload seed s runs props seeds s*1000, s*1000+1, ...


def rotated_irrep(r: int, s: int, seed: int, path: Path) -> Path:
    """Write the canonical Cl_{r,s} irreducible in a seeded orthogonal frame."""
    rep = clifford.irreducible_rep(r, s)
    rng = np.random.default_rng([seed, r, s])
    q, upper = np.linalg.qr(rng.standard_normal((rep.n, rep.n)))
    q = q * np.sign(np.diag(upper))
    frame = clifford.CliffordRep(rep.r, rep.s, rep.n,
                                 E=tuple(q @ g @ q.T for g in rep.E),
                                 F=tuple(q @ g @ q.T for g in rep.F))
    path.write_text(json.dumps(clifford.rep_to_json(frame)), encoding="utf-8")
    return path


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def argv(self, i: int) -> list:
        """Arguments of the i-th solve of the run."""
        raise NotImplementedError

    def check(self, out: dict) -> str | None:
        """None when the output is correct, otherwise what is wrong."""
        raise NotImplementedError

    def diagnostics(self, out: dict) -> dict:
        """Accuracy figures read from a correct output."""
        return {}


class RSCheck(Workload):
    name = "rs-check"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.module = rotated_irrep(0, 1, seed, workdir / "rs_module.json")

    def argv(self, i):
        return ["rs-check", "--L", "12", "--m", "1200", "--module", str(self.module)]

    def check(self, out):
        if out.get("agrees") is not True:
            return "kernel class and flow class disagree"
        if out.get("kernel_dim") != 2:
            return f"kernel_dim {out.get('kernel_dim')}, expected 2"
        if out.get("kernel_class") != Z2_ONE or out.get("flow_class") != Z2_ONE:
            return f"classes {out.get('kernel_class')} / {out.get('flow_class')}"
        if not out.get("profile_error", np.inf) < PROFILE_BOUND:
            return f"profile_error {out.get('profile_error')} >= {PROFILE_BOUND}"
        return None

    def diagnostics(self, out):
        """Accuracy figures beside the noise floors of the kernel method:
        eps * sigma_max for the operator, sqrt(eps) * sigma_max for the
        Gram matrix whose eigenvalues give the singular values."""
        eps = float(np.finfo(float).eps)
        sigma_max = float(out["sigma_max"])
        return {"rs_verify.profile_error": float(out["profile_error"]),
                "rs_verify.zero_cluster_max": float(out["zero_cluster_max"]),
                "rs_verify.eps_floor": eps * sigma_max,
                "rs_verify.gram_floor": float(np.sqrt(eps)) * sigma_max}


class Kitaev(Workload):
    name = "kitaev"

    def argv(self, i):
        return ["kitaev", "--N", "256", "--seed", str(self.seed)]

    def check(self, out):
        return None if out == Z2_ONE else f"class {out}, expected {Z2_ONE}"


class Flux(Workload):
    name = "flux"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.module = rotated_irrep(0, 7, seed, workdir / "flux_module.json")

    def argv(self, i):
        return ["flux", "--module", str(self.module), "--N", "48",
                "--seed", str(self.seed)]

    def check(self, out):
        if out.get("class") != out.get("module_class") or out.get("class") != Z_ONE:
            return f"class {out.get('class')}, module class {out.get('module_class')}"
        return None


class Props(Workload):
    name = "props"

    def argv(self, i):
        return ["props", "--seed", str(self.seed * PROPS_SEED_BLOCK + i)]

    def check(self, out):
        if out.get("ok") is not True:
            return f"failed records: {out.get('failures')}"
        if out.get("total") != PROPS_SUITE_RECORDS:
            return f"total {out.get('total')}, expected {PROPS_SUITE_RECORDS}"
        return None


WORKLOADS = {cls.name: cls for cls in (RSCheck, Kitaev, Flux, Props)}
