"""Acceptance gate: each test exercises one criterion at its stated
tolerance and prints a single pass/fail line (run with -s to see them)."""
import time

import numpy as np

from koflow import clifford as cl
from koflow.abs_index import abs_class
from koflow.flow import SkewPath, classical_sf, endpoint_flow, spectral_flow
from koflow.models import aii_path, hermitian_double, kitaev_path
from koflow.numerics import random_orthogonal
from koflow.pairs import (ComplexStructure, ProjectionPair,
                          orthogonal_pair_parity, pair_index,
                          projection_pair_index, projections_to_structures)
from koflow.props import (commuting_rotation, padded_context,
                          random_admissible_path, run_all)
from koflow.rs_verify import RSProblem, convergence_study, verify_rs


def report(number, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_kitaev():
    ok = True
    for n_ring in range(3, 17):
        start = time.monotonic()
        value = spectral_flow(kitaev_path(n_ring))
        elapsed = time.monotonic() - start
        if (value.degree, value.value) != (2, 1) or elapsed >= 1.0:
            ok = False
    report(1, "Kitaev flux insertion gives SF_{0,2} = 1 for N = 3..16, "
              "under 1 s each", ok)


def test_criterion_2_normalization_sweep():
    ok = True
    degrees = set()
    for r in range(0, 5):
        for sp in range(1, 5):
            chis = ["+", "-"] if cl.has_two_irreducibles(r, sp) else [None]
            for ch in chis:
                module = cl.irreducible_rep(r, sp, ch)
                for build in (lambda v: v, lambda v: cl.direct_sum(v, v)):
                    mod = build(module)
                    ctx = cl.CliffordRep(mod.r, mod.s - 1, mod.n,
                                         E=mod.E, F=mod.F[:-1])
                    f_last = np.array(mod.F[-1])
                    path = SkewPath(ctx, lambda t, f=f_last: (1 - 2 * t) * f)
                    value = spectral_flow(path)
                    degrees.add(value.degree)
                    if value != abs_class(mod):
                        ok = False
    ok = ok and degrees == set(range(8))
    report(2, "normalization sweep matches abs_class exactly over all "
              "degrees 0..7", ok)


def test_criterion_3_endpoint_theorem():
    rng = np.random.default_rng(2024)
    pool = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (0, 3),
            (3, 0), (1, 2)]
    start = time.monotonic()
    ok = True
    count = 0
    while count < 100:
        r, s = pool[count % len(pool)]
        copies = int(rng.integers(1, 3))
        ctx, f_ref = padded_context(r, s, copies)
        if ctx.n > 32:
            ctx, f_ref = padded_context(r, s, 1)
        if ctx.n > 32:
            count += 1
            continue
        path = random_admissible_path(ctx, f_ref, rng)
        if spectral_flow(path) != endpoint_flow(path):
            ok = False
        count += 1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    report(3, f"spectral_flow = endpoint_flow on 100 seeded paths "
              f"({elapsed:.1f}s)", ok)


def test_criterion_4_projection_dictionary():
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 21))
        rank = int(rng.integers(0, n + 1))
        basis = random_orthogonal(rng, n)
        proj = basis[:, :rank] @ basis[:, :rank].T
        rot = random_orthogonal(rng, n)
        q = rot @ proj @ rot.T
        pair = ProjectionPair((proj + proj.T) / 2.0, (q + q.T) / 2.0)
        want = projection_pair_index(pair)
        j0, j1 = projections_to_structures(pair)
        got, _ = pair_index(j0, j1)
        if got.value != want or got.degree != 0:
            ok = False
        ctx = j0.context
        ctx1 = cl.CliffordRep(1, 0, ctx.n, E=ctx.E[:1])
        got12, _ = pair_index(ComplexStructure(j0.J, ctx1),
                              ComplexStructure(j1.J, ctx1))
        ctx0 = cl.CliffordRep(0, 0, ctx.n)
        got02, _ = pair_index(ComplexStructure(j0.J, ctx0),
                              ComplexStructure(j1.J, ctx0))
        if got12.value != want % 2 or got02.value != want % 2:
            ok = False
    report(4, "Ind_{2,2} equals ind(P,Q) on 100 seeded pairs with the "
              "mod-2 forgetful chain", ok)


def test_criterion_5_parity_identities():
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 21))
        u0 = random_orthogonal(rng, n)
        u1 = random_orthogonal(rng, n)
        parity = orthogonal_pair_parity(u0, u1)
        if (-1.0) ** parity != np.sign(np.linalg.det(u0) * np.linalg.det(u1)):
            ok = False
        half = max(1, n // 2)
        base = np.kron(np.eye(half), cl.L1)
        conj = random_orthogonal(rng, 2 * half)
        j_mat = conj @ base @ conj.T
        ctx = cl.CliffordRep(0, 0, 2 * half)
        orth = random_orthogonal(rng, 2 * half)
        value, _ = pair_index(ComplexStructure(j_mat, ctx),
                              ComplexStructure(orth.T @ j_mat @ orth, ctx))
        if (-1.0) ** value.value != np.sign(np.linalg.det(orth)):
            ok = False
    report(5, "det-parity identities exact on 100 seeded orthogonal "
              "matrices", ok)


def test_criterion_6_pair_additivity():
    rng = np.random.default_rng(6)
    ok = True
    for trial in range(60):
        r, s = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)][trial % 6]
        ctx, f_ref = padded_context(r, s)
        j0 = ComplexStructure(f_ref, ctx)
        rot1 = commuting_rotation(ctx, rng, 0.2)
        rot2 = commuting_rotation(ctx, rng, 0.2)
        j1 = ComplexStructure(rot1 @ j0.J @ rot1.T, ctx)
        j2 = ComplexStructure(rot2 @ j1.J @ rot2.T, ctx)
        if np.linalg.norm(j0.J - j1.J, 2) >= 1.0 or \
           np.linalg.norm(j1.J - j2.J, 2) >= 1.0:
            continue
        k01, _ = pair_index(j0, j1)
        k12, _ = pair_index(j1, j2)
        k02, _ = pair_index(j0, j2)
        if k01 + k12 != k02:
            ok = False
    report(6, "pair-index additivity exact on seeded triples with "
              "norm < 1", ok)


def test_criterion_7_robbin_salamon():
    module = cl.CliffordRep(0, 1, 2, F=(cl.L1,))
    start = time.monotonic()
    result = verify_rs(RSProblem(module, L=12.0, m=1200))
    elapsed = time.monotonic() - start
    ok = (result.kernel_dim == 2
          and result.gap_ratio >= 100.0
          and (result.kernel_class.degree, result.kernel_class.value) == (2, 1)
          and result.kernel_class == result.flow_class
          and result.profile_error < 1e-2
          and elapsed < 30.0)
    conv = convergence_study(module, 12.0, [600, 1200])
    shrink = conv[0]["zero_cluster_max"] / max(conv[1]["zero_cluster_max"], 1e-300)
    ok = ok and shrink >= 3.0
    report(7, f"Robbin-Salamon: kernel dim 2, classes 1 in Z2, profile "
              f"{result.profile_error:.1e}, {elapsed:.0f}s, zero-cluster "
              f"shrink {shrink:.1f}x", ok)


def test_criterion_8_aii_quarter_relation():
    ok = True
    cases = [
        (lambda t: (2 * t - 1.0) * np.eye(4), 4),
        (lambda t: np.eye(4), 4),
        (lambda t: np.kron(np.eye(2),
                           np.diag([2 * t - 1.0, 2 * t - 1.0, 1.0, 1.0])), 8),
    ]
    for h_fn, n in cases:
        path = aii_path(h_fn, n)
        value = spectral_flow(path)
        classical = classical_sf(lambda t: hermitian_double(h_fn(t)))
        if 4 * value.value != classical:
            ok = False
        for t_sample in (0.25, 0.5, 0.75):
            svals = np.linalg.svd(path.at(t_sample), compute_uv=False)
            if int(np.sum(svals < 1e-10)) % 4:
                ok = False
    report(8, "AII quarter relation exact on the three constructed "
              "examples, kernel dims = 0 mod 4", ok)


def test_criterion_9_clifford_layer():
    ok = True
    for total in range(0, 11):
        for r in range(total + 1):
            s = total - r
            rep = cl.irreducible_rep(r, s)
            if not cl.check_relations(rep, tol=0.0).ok:
                ok = False
            if total <= 8:
                omega = cl.volume_element(rep)
                sign = cl.volume_square_sign(r, s)
                if not np.array_equal(omega @ omega, sign * np.eye(rep.n)):
                    ok = False
            if total <= 6:
                chis = ["+", "-"] if cl.has_two_irreducibles(r, s) else [None]
                for ch in chis:
                    v = cl.irreducible_rep(r, s, ch)
                    if abs_class(cl.cl11_tensor(v)) != abs_class(v):
                        ok = False
    report(9, "canonical relations exact (r+s <= 10), volume signs "
              "(r+s <= 8), abs_class periodicity", ok)


def test_criterion_10_property_suites():
    records = run_all(seed=0)
    failures = [rec for rec in records if not rec["ok"]]
    for rec in failures:
        print("  failed:", rec)
    report(10, f"property suites pass ({len(records)} invariants, "
               f"seeded)", not failures)
