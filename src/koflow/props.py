"""Seeded property suites over every module's stated invariants.

Each suite returns records {"suite", "name", "ok", "detail"}; the CLI
`props` subcommand runs them all and exits nonzero when anything fails.
The randomized families realize the axioms that characterize the flow
(homotopy, path additivity, stability, normalization) together with
constancy and direct sums, plus the structural invariants of the algebra,
index, and pair layers.

scipy is imported only inside `commuting_rotation` (its `expm`), so
importing this module loads numpy alone.
"""
from __future__ import annotations

import numpy as np

from . import clifford as cliff
from .abs_index import abs_class
from .flow import SkewPath, classical_sf, endpoint_flow, spectral_flow
from .models import aii_path, flux_path, hermitian_double, kitaev_path
from .numerics import min_singular_value, random_orthogonal, random_skew
from .pairs import (ComplexStructure, ProjectionPair, orthogonal_pair_parity,
                    pair_index, projection_pair_index,
                    projections_to_structures)
from .rs_verify import RSProblem, verify_rs


def commuting_rotation(ctx: cliff.CliffordRep, rng: np.random.Generator,
                       scale: float) -> np.ndarray:
    from scipy.linalg import expm  # here, to keep `import koflow` light

    gen = ctx.project_skew(random_skew(rng, ctx.n), +1)
    nrm = max(np.linalg.norm(gen, 2), 1e-12)
    return expm(scale * gen / nrm)


def padded_context(r: int, s: int, copies: int = 2):
    """A Cl_{r,s} context admitting invertible anticommuting skews, as a
    sum of restricted (r, s+1)-irreducibles, plus that extra generator."""
    cell = cliff.irreducible_rep(r, s + 1)
    amb = cell
    for _ in range(copies - 1):
        amb = cliff.direct_sum(amb, cell)
    ctx = cliff.CliffordRep(r, s, amb.n, E=amb.E, F=amb.F[:-1])
    return ctx, np.array(amb.F[-1])


def random_admissible_path(ctx, f_ref, rng):
    """Random generator-compatible path with invertible endpoints."""
    while True:
        a = ctx.project_skew(random_skew(rng, ctx.n), -1)
        b = ctx.project_skew(random_skew(rng, ctx.n), -1)
        c = ctx.project_skew(random_skew(rng, ctx.n), -1)

        def fn(t, a=a, b=b, c=c):
            return (1 - t) * a + t * b + np.sin(np.pi * t) * c

        if min(min_singular_value(fn(0.0)), min_singular_value(fn(1.0))) > 1e-6:
            return SkewPath(ctx, fn, label="random admissible path")


SIG_POOL = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (0, 3)]


def _record(suite, name, ok, detail=""):
    return {"suite": suite, "name": name, "ok": bool(ok), "detail": str(detail)}


def clifford_suite(seed: int = 0):
    out = []
    exact = True
    dims = True
    for total in range(0, 11):
        for r in range(total + 1):
            s = total - r
            rep = cliff.irreducible_rep(r, s)
            if not cliff.check_relations(rep, tol=0.0).ok:
                exact = False
            if rep.n != cliff.irreducible_dimension(r, s):
                dims = False
    out.append(_record("clifford", "canonical relations exact for r+s <= 10", exact))
    out.append(_record("clifford", "irreducible dimensions match the type table", dims))
    vol = all(
        np.array_equal(
            (lambda w: w @ w)(cliff.volume_element(cliff.irreducible_rep(r, t - r))),
            cliff.volume_square_sign(r, t - r) * np.eye(cliff.irreducible_dimension(r, t - r)))
        for t in range(0, 9) for r in range(t + 1))
    out.append(_record("clifford", "volume element squares with the stated sign (r+s <= 8)", vol))
    ok = True
    for (r, s) in SIG_POOL:
        rep = cliff.irreducible_rep(r, s)
        dbl = cliff.cl11_tensor(rep)
        if dbl.n != 2 * rep.n or not cliff.check_relations(dbl, tol=0.0).ok:
            ok = False
    out.append(_record("clifford", "cl11_tensor doubles dimension and stays exact", ok))
    ok = True
    for (r, s) in [(1, 0), (2, 1), (0, 3)]:
        a = cliff.irreducible_rep(r, s, "+")
        b = cliff.irreducible_rep(r, s, "-")
        da = cliff.decompose(a)
        dsum = cliff.decompose(cliff.direct_sum(a, b))
        if dsum != (da[0] + cliff.decompose(b)[0], da[1] + cliff.decompose(b)[1]):
            ok = False
        if cliff.are_equivalent(a, b):
            ok = False
    out.append(_record("clifford", "decompose adds over sums; chiralities inequivalent", ok))
    return out


def abs_index_suite(seed: int = 0):
    out = []
    ok = True
    for total in range(0, 7):
        for r in range(total + 1):
            s = total - r
            chis = ["+", "-"] if cliff.has_two_irreducibles(r, s) else [None]
            for ch in chis:
                v = cliff.irreducible_rep(r, s, ch)
                if abs_class(cliff.cl11_tensor(v)) != abs_class(v):
                    ok = False
    out.append(_record("abs_index", "mod-8 periodicity under cl11_tensor (r+s <= 6)", ok))
    ok = True
    for (r, s) in SIG_POOL:
        chis = ["+", "-"] if cliff.has_two_irreducibles(r, s) else [None]
        for ch in chis:
            v = cliff.irreducible_rep(r, s, ch)
            two = abs_class(cliff.direct_sum(v, v))
            if two != abs_class(v) + abs_class(v):
                ok = False
    out.append(_record("abs_index", "additivity over direct sums", ok))
    swapped = cliff.CliffordRep(2, 1, 2, E=(cliff.K2, cliff.K1), F=(cliff.L1,))
    straight = cliff.CliffordRep(2, 1, 2, E=(cliff.K1, cliff.K2), F=(cliff.L1,))
    out.append(_record("abs_index", "orientation sensitivity under K1 <-> K2 swap",
                       abs_class(straight).value == 1 and abs_class(swapped).value == -1))
    v = cliff.irreducible_rep(0, 2)
    out.append(_record("abs_index", "trivial degrees return 0",
                       abs_class(v).value == 0 and abs_class(cliff.direct_sum(v, v)).value == 0))
    return out


def pairs_suite(seed: int = 0):
    rng = np.random.default_rng(seed)
    out = []
    ok = True
    for (r, s) in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]:
        ctx, f_ref = padded_context(r, s)
        j0 = ComplexStructure(f_ref, ctx)
        rot1 = commuting_rotation(ctx, rng, 0.2)
        rot2 = commuting_rotation(ctx, rng, 0.2)
        j1 = ComplexStructure(rot1 @ j0.J @ rot1.T, ctx)
        j2 = ComplexStructure(rot2 @ j1.J @ rot2.T, ctx)
        if np.linalg.norm(j0.J - j1.J, 2) >= 1.0 or np.linalg.norm(j1.J - j2.J, 2) >= 1.0:
            continue
        k01, _ = pair_index(j0, j1)
        k12, _ = pair_index(j1, j2)
        k02, _ = pair_index(j0, j2)
        if k01 + k12 != k02:
            ok = False
    out.append(_record("pairs", "additivity under the norm-<1 hypotheses", ok))
    ok = True
    for trial in range(10):
        nn = 2 * int(rng.integers(1, 6))
        ctx = cliff.CliffordRep(0, 0, nn)
        j = ComplexStructure(_any_complex_structure(nn, rng), ctx)
        orth = random_orthogonal(rng, nn)
        val, _ = pair_index(j, ComplexStructure(orth.T @ j.J @ orth, ctx))
        if (-1.0) ** val.value != np.sign(np.linalg.det(orth)):
            ok = False
    out.append(_record("pairs", "det parity of Ind_{0,2}(J, O^T J O)", ok))
    ok = True
    for trial in range(10):
        n = int(rng.integers(2, 9))
        kdim = int(rng.integers(0, n + 1))
        basis = random_orthogonal(rng, n)
        proj = basis[:, :kdim] @ basis[:, :kdim].T
        other = random_orthogonal(rng, n)
        qq = other @ proj @ other.T
        pp = ProjectionPair((proj + proj.T) / 2, (qq + qq.T) / 2)
        j0, j1 = projections_to_structures(pp)
        val, _ = pair_index(j0, j1)
        if val.value != projection_pair_index(pp):
            ok = False
    out.append(_record("pairs", "projection dictionary Ind_{2,2} = ind(P,Q)", ok))
    ok = True
    for trial in range(10):
        n = int(rng.integers(2, 9))
        u0 = random_orthogonal(rng, n)
        u1 = random_orthogonal(rng, n)
        par = orthogonal_pair_parity(u0, u1)
        if (-1.0) ** par != np.sign(np.linalg.det(u0) * np.linalg.det(u1)):
            ok = False
    out.append(_record("pairs", "orthogonal parity matches det(U0) det(U1)", ok))
    return out


def _any_complex_structure(n: int, rng: np.random.Generator) -> np.ndarray:
    if n % 2:
        raise ValueError("even dimension required")
    base = np.kron(np.eye(n // 2), cliff.L1)
    orth = random_orthogonal(rng, n)
    return orth @ base @ orth.T


def flow_suite(seed: int = 0):
    rng = np.random.default_rng(seed)
    out = []
    ok = True
    for (r, sp) in [(0, 1), (1, 1), (0, 2), (2, 1), (1, 2), (0, 3)]:
        chis = ["+", "-"] if cliff.has_two_irreducibles(r, sp) else [None]
        for ch in chis:
            v = cliff.irreducible_rep(r, sp, ch)
            ctx = cliff.CliffordRep(v.r, v.s - 1, v.n, E=v.E, F=v.F[:-1])
            f_last = np.array(v.F[-1])
            path = SkewPath(ctx, lambda t, f=f_last: (1 - 2 * t) * f)
            if spectral_flow(path) != abs_class(v):
                ok = False
    out.append(_record("flow", "normalization: flow of (1-2t)F on V equals [V]", ok))
    agree = True
    props = {"homotopy": True, "additivity": True, "stability": True,
             "constancy": True, "directsum": True}
    for trial in range(12):
        r, s = SIG_POOL[trial % len(SIG_POOL)]
        ctx, f_ref = padded_context(r, s)
        if ctx.n > 32:
            continue
        path = random_admissible_path(ctx, f_ref, rng)
        sf = spectral_flow(path)
        if sf != endpoint_flow(path):
            agree = False
        bump = ctx.project_skew(random_skew(rng, ctx.n), -1)
        bumped = SkewPath(ctx, lambda t, p=path, b=bump: p.fn(t) + np.sin(np.pi * t) * b)
        if spectral_flow(bumped) != sf:
            props["homotopy"] = False
        const = SkewPath(ctx, lambda t, p=path: p.fn(0.0))
        if spectral_flow(const).value != 0:
            props["constancy"] = False
        second = random_admissible_path(ctx, f_ref, rng)
        mid_bridge = SkewPath(ctx, lambda t, p=path, q=second:
                              (1 - t) * p.fn(1.0) + t * q.fn(0.0))
        total = sf + spectral_flow(mid_bridge) + spectral_flow(second)

        def concat(t):
            if t <= 1 / 3:
                return path.fn(3 * t)
            if t <= 2 / 3:
                return mid_bridge.fn(3 * t - 1)
            return second.fn(3 * t - 2)

        if spectral_flow(SkewPath(ctx, concat)) != total:
            props["additivity"] = False
        nn = ctx.n
        big = cliff.direct_sum(
            cliff.CliffordRep(r, s, nn, E=ctx.E, F=ctx.F),
            cliff.CliffordRep(r, s, nn, E=ctx.E, F=ctx.F))

        def stab(t, p=path, f=f_ref):
            mat = np.zeros((2 * nn, 2 * nn))
            mat[:nn, :nn] = p.fn(t)
            mat[nn:, nn:] = f
            return mat

        if spectral_flow(SkewPath(big, stab)) != sf:
            props["stability"] = False

        def ds(t, p=path):
            mat = np.zeros((2 * nn, 2 * nn))
            mat[:nn, :nn] = p.fn(t)
            mat[nn:, nn:] = p.fn(t)
            return mat

        if spectral_flow(SkewPath(big, ds)) != sf + sf:
            props["directsum"] = False
    out.append(_record("flow", "endpoint theorem: local formula = endpoint pair index", agree))
    for name, ok_flag in props.items():
        out.append(_record("flow", f"{name} axiom", ok_flag))
    # relation to the classical flow: r = 2 dictionary
    ok = True
    for trial in range(5):
        nn = int(rng.integers(2, 7))
        sym0 = random_skew(rng, nn) @ random_skew(rng, nn)
        sym0 = (sym0 + sym0.T) / 2 + np.eye(nn)
        sym1 = -sym0 + 0.3 * np.diag(rng.standard_normal(nn))

        def hpath(t, a=sym0, b=sym1):
            return (1 - t) * a + t * b

        if abs(np.linalg.eigvalsh(hpath(0.0))).min() < 1e-6 or \
           abs(np.linalg.eigvalsh(hpath(1.0))).min() < 1e-6:
            continue
        ctx = cliff.CliffordRep(2, 0, 2 * nn,
                                E=(np.kron(np.eye(nn), cliff.K1),
                                   np.kron(np.eye(nn), cliff.K2)))
        tpath = SkewPath(ctx, lambda t: np.kron(hpath(t), cliff.OMEGA_20))
        if spectral_flow(tpath).value != classical_sf(hpath):
            ok = False
    out.append(_record("flow", "r=2 relation: SF_{2,2} of h (x) K1K2 equals classical SF", ok))
    return out


def models_suite(seed: int = 0):
    out = []
    ok = all(spectral_flow(kitaev_path(n_ring)).value == 1
             for n_ring in range(3, 17))
    out.append(_record("models", "Kitaev flux flow is 1 for every N in 3..16", ok))
    ok = True
    for r in range(0, 4):
        for sp in range(1, 5 - r):
            chis = ["+", "-"] if cliff.has_two_irreducibles(r, sp) else [None]
            for ch in chis:
                v = cliff.irreducible_rep(r, sp, ch)
                if spectral_flow(flux_path(v, 3)) != abs_class(v):
                    ok = False
    out.append(_record("models", "flux-cell flow equals abs_class(V) for r+s <= 4", ok))
    quarter = True
    kdims = True
    for h_fn, n in (
            (lambda t: (2 * t - 1.0) * np.eye(4), 4),
            (lambda t: np.eye(4), 4),
            (lambda t: np.kron(np.eye(2), np.diag([2 * t - 1.0, 2 * t - 1.0, 1.0, 1.0])), 8)):
        path = aii_path(h_fn, n)
        flow_val = spectral_flow(path).value
        classical = classical_sf(lambda t: hermitian_double(h_fn(t)))
        if 4 * flow_val != classical:
            quarter = False
        mid = path.at(0.5)
        sv = np.linalg.svd(mid, compute_uv=False)
        if int(np.sum(sv < 1e-8)) % 4:
            kdims = False
    out.append(_record("models", "AII quarter relation holds exactly", quarter))
    out.append(_record("models", "AII kernel dimensions divisible by 4", kdims))
    return out


def rs_suite(seed: int = 0):
    out = []
    v = cliff.CliffordRep(0, 1, 2, F=(cliff.L1,))
    rep = verify_rs(RSProblem(v, L=12.0, m=300))
    out.append(_record("rs_verify", "kernel class = flow class on the standard module",
                       rep.agrees and rep.kernel_dim == 2,
                       f"dim={rep.kernel_dim} profile={rep.profile_error:.1e}"))
    out.append(_record("rs_verify", "profile error below 1e-2",
                       rep.profile_error < 1e-2, f"{rep.profile_error:.2e}"))
    return out


ALL_SUITES = {
    "clifford": clifford_suite,
    "abs_index": abs_index_suite,
    "pairs": pairs_suite,
    "flow": flow_suite,
    "models": models_suite,
    "rs_verify": rs_suite,
}


def run_all(seed: int = 0):
    records = []
    for fn in ALL_SUITES.values():
        records.extend(fn(seed))
    return records
