import weakref
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from koflow import clifford as cl
from koflow import flow, models, numerics, pairs
from koflow.abs_index import abs_class
from koflow.errors import AmbiguousKernelError, ObstructionError, ValidationError
from koflow.flow import (SkewPath, _split_phase_kernel, classical_sf,
                         complete_phase, endpoint_flow, spectral_flow)
from koflow.models import kitaev_path
from koflow.numerics import (Grading, doubled, random_orthogonal, random_skew,
                             split_zero_cluster, svd_split, sym_eigh)
from koflow.pairs import ComplexStructure
from koflow.props import SIG_POOL, padded_context, random_admissible_path

from conftest import matrix_shapes, pf_sign, rotated_irrep, undeclared


def normalization_path(module):
    ctx = cl.CliffordRep(module.r, module.s - 1, module.n,
                         E=module.E, F=module.F[:-1])
    f_last = np.array(module.F[-1])
    return SkewPath(ctx, lambda t: (1.0 - 2.0 * t) * f_last, label="normalization")


def test_complete_phase_invertible_is_exact_phase():
    ctx = cl.CliffordRep(0, 0, 4)
    t_mat = 2.5 * np.kron(np.eye(2), cl.L1)
    j = complete_phase(t_mat, ctx)
    assert np.allclose(j.J, np.kron(np.eye(2), cl.L1), atol=1e-13)


def test_complete_phase_zero_matrix_canonical():
    ctx = cl.CliffordRep(0, 0, 2)
    j = complete_phase(np.zeros((2, 2)), ctx)
    assert np.array_equal(j.J, cl.L1)


def test_complete_phase_obstruction():
    with pytest.raises(ObstructionError) as err:
        ctx = cl.CliffordRep(0, 0, 3)
        complete_phase(np.zeros((3, 3)), ctx)
    assert err.value.ko_class is not None
    assert err.value.ko_class.value == 1


def test_sample_validation():
    ctx = cl.CliffordRep(1, 0, 2, E=(cl.K1,))
    good = SkewPath(ctx, lambda t: (1 - 2 * t) * cl.L1)
    good.at(0.3)
    bad = SkewPath(ctx, lambda t: np.eye(2))
    with pytest.raises(ValidationError):
        bad.at(0.0)


def test_singular_endpoint_errors_keep_their_order():
    # T(0) is sampled, checked and split before T(1) is sampled; the check
    # is the default zero-cluster split of the node's own singular values,
    # before any kernel completion (a zero T(0) on R^3 would be obstructed)
    ctx3 = cl.CliffordRep(0, 0, 3)
    with pytest.raises(ValidationError, match="endpoint t=0.0 is not invertible"):
        spectral_flow(SkewPath(ctx3, lambda t: np.zeros((3, 3))))
    # singular values whose kernel split is ambiguous even when regularized
    ramp = np.kron(np.diag([5e-9, 2e-6, 5e-4, 5e-3, 4e-2, 1.0]), cl.L1)
    with pytest.raises(AmbiguousKernelError):
        _split_phase_kernel(np.linalg.svd(ramp, compute_uv=False)[::-1])
    with pytest.raises(ValidationError, match="endpoint t=0.0 is not invertible"):
        spectral_flow(SkewPath(cl.CliffordRep(0, 0, 12), lambda t: ramp))
    ctx = cl.CliffordRep(0, 0, 4)

    def path(t0, t1):
        return SkewPath(ctx, lambda t: np.kron(np.diag([1.0, t0 if t < 0.5 else t1]), cl.L1))

    not_skew = np.eye(4)
    broken = SkewPath(ctx, lambda t: not_skew if t > 0.5 else np.zeros((4, 4)))
    cases = [(path(0.0, 1.0), "endpoint t=0.0 is not invertible"),
             (path(1.0, 0.0), "endpoint t=1.0 is not invertible"),
             (path(0.0, 0.0), "endpoint t=0.0"),
             (broken, "endpoint t=0.0"),
             (SkewPath(ctx, lambda t: not_skew), "violates skewness")]
    for p, message in cases:
        for solve in (spectral_flow, endpoint_flow):
            with pytest.raises(ValidationError, match=message):
                solve(p)
    # the rule is relative to ||T(0)|| = 1: singular values at 5e-8 are a
    # kernel, at 2e-7 they are not
    with pytest.raises(ValidationError, match="endpoint t=0.0 is not invertible"):
        spectral_flow(path(5e-8, 1.0))
    assert spectral_flow(path(2e-7, 1.0)).value == 0


def test_endpoint_checks_take_no_extra_svd(monkeypatch):
    # each sample is decomposed once, by its node SVD, which also gives
    # the endpoint check: no values-only SVD, T(1) not decomposed twice;
    # a stack of initial nodes counts as its matrices
    svd = np.linalg.svd
    calls, in_pair = [], []

    def counted(mat, *args, **kwargs):
        calls.extend((shape, kwargs.get("compute_uv", True), bool(in_pair))
                     for shape in matrix_shapes(mat))
        return svd(mat, *args, **kwargs)

    def tracked_pair(j0, j1):
        in_pair.append(True)
        try:
            return pair_index(j0, j1)
        finally:
            in_pair.pop()

    pair_index = flow.pair_index
    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(flow, "pair_index", tracked_pair)
    base = kitaev_path(9)
    times = []

    def sampled(t):
        times.append(t)
        return base.fn(t)

    assert spectral_flow(SkewPath(base.context, sampled)).value == 1
    nodes = [shape for shape, _, inside in calls if shape == (18, 18) and not inside]
    assert all(uv for shape, uv, _ in calls if shape == (18, 18))
    assert nodes == [(18, 18)] * len(times)


def test_path_sample_off_its_grading_raises():
    # the grading is checked on every sample by SkewPath.at
    ctx = cl.CliffordRep(0, 0, 4)
    grading = Grading([1, -1, 1, -1])  # I (x) K1
    t_good = np.kron(np.diag([1.0, -1.0]), cl.L1)
    assert spectral_flow(SkewPath(ctx, lambda t: t_good, grading=grading)).value == 0
    off = np.kron(cl.L1, np.diag([1.0, 0.0]))  # commutes with I (x) K1
    drifting = SkewPath(ctx, lambda t: t_good + (t > 0.6) * off, grading=grading)
    with pytest.raises(ValidationError, match="breaks its grading"):
        spectral_flow(drifting)
    with pytest.raises(ValidationError, match="grading of dimension 4"):
        SkewPath(cl.CliffordRep(0, 0, 6), lambda t: np.zeros((6, 6)), grading=grading)


def test_skew_path_rejects_sample_off_its_grading():
    # a skew part commuting with G shows in the diagonal sector blocks, on
    # a shuffled grading and on both sectors; the residual is 2 T[idx, idx]
    rng = np.random.default_rng(3)
    grading = Grading(rng.permutation(np.repeat([-1.0, 1.0], 6)))
    block = random_orthogonal(rng, 6)
    ctx = cl.CliffordRep(0, 0, 12)
    good = SkewPath(ctx, lambda t: grading.odd(block), grading=grading)
    good.at(0.5)
    for idx in grading.sectors():
        bad = grading.odd(block)
        part = 1e-6 * random_skew(np.random.default_rng(4), 6)
        bad[np.ix_(idx, idx)] += part
        path = SkewPath(ctx, lambda t, bad=bad: bad, grading=grading)
        with pytest.raises(ValidationError, match="breaks its grading") as err:
            path.at(0.5)
        assert f"{2.0 * np.linalg.norm(part, 2):.3e}" in str(err.value)
    # without the grading the same sample is a valid one
    SkewPath(ctx, lambda t: bad).at(0.5)


def test_graded_skew_check_on_sector_blocks_agrees_with_dense():
    # a skew defect split between a diagonal sector block (2a S, S
    # symmetric) and an off-diagonal one (b Y): where max(2a, b) exceeds
    # the tolerance, or 2a + b stays within it, the sector-block check of
    # SkewPath.at rejects exactly when the dense check (||T + T^T||_2 and
    # the grading) does; on a shuffled grading, with 2a on either sector
    tol = numerics.SAMPLE_TOL
    rng = np.random.default_rng(5)
    grading = Grading(rng.permutation(np.repeat([-1.0, 1.0], 6)))
    ctx = cl.CliffordRep(0, 0, 12)
    good = grading.odd(random_orthogonal(rng, 6))
    minus, plus = grading.sectors()
    op_norm = numerics.op_norm
    outcomes = set()
    for total in (0.5, 0.95, 3.0, 10.0):
        for share in (0.0, 0.3, 0.5, 0.7, 1.0):
            for diag_idx in (minus, plus):
                two_a, b = share * total * tol, (1.0 - share) * total * tol
                sym = rng.standard_normal((6, 6))
                sym += sym.T
                off = rng.standard_normal((6, 6))
                mat = good.copy()
                mat[np.ix_(diag_idx, diag_idx)] += two_a / 2.0 * sym / op_norm(sym)
                mat[np.ix_(minus, plus)] += b * off / op_norm(off)
                dense = max(op_norm(mat + mat.T), two_a)
                try:
                    SkewPath(ctx, lambda t, mat=mat: mat, grading=grading).at(0.5)
                    rejected = False
                except ValidationError as err:
                    rejected = True
                    expected = "breaks its grading" if two_a > tol else "violates skewness"
                    assert expected in str(err)
                assert rejected == (dense > tol), (total, share)
                outcomes.add(rejected)
    assert outcomes == {True, False}
    # rank-one defects on one row, 2a = b = 0.8 tol: each block within the
    # tolerance, but ||T + T^T||_2 = (0.4 + sqrt(0.8)) tol, so both reject
    mat = good.copy()
    mat[minus[0], minus[0]] += 0.4 * tol
    mat[minus[0], plus[0]] += 0.8 * tol
    assert op_norm(mat + mat.T) > tol
    with pytest.raises(ValidationError, match="violates skewness"):
        SkewPath(ctx, lambda t: mat, grading=grading).at(0.5)


@pytest.mark.parametrize("r,sp", [(0, 1), (1, 1), (0, 2), (2, 1), (1, 2),
                                  (0, 3), (2, 2), (3, 1), (1, 3), (0, 4)])
def test_normalization(r, sp):
    chis = ["+", "-"] if cl.has_two_irreducibles(r, sp) else [None]
    for ch in chis:
        module = cl.irreducible_rep(r, sp, ch)
        path = normalization_path(module)
        expected = abs_class(module)
        assert spectral_flow(path) == expected
        assert endpoint_flow(path) == expected


def test_constant_path_is_zero():
    module = cl.irreducible_rep(1, 2)
    ctx = cl.CliffordRep(1, 1, module.n, E=module.E, F=module.F[:-1])
    path = SkewPath(ctx, lambda t: np.array(module.F[-1]))
    assert spectral_flow(path).value == 0


def test_loop_with_equal_endpoints_is_zero():
    module = cl.irreducible_rep(0, 1)
    ctx = cl.CliffordRep(0, 0, module.n)
    f_last = np.array(module.F[-1])
    loop = SkewPath(ctx, lambda t: np.cos(2 * np.pi * t) * f_last
                    + 0.2 * np.sin(2 * np.pi * t) * f_last)
    assert endpoint_flow(loop).value == 0
    assert spectral_flow(loop).value == 0


def test_noninvertible_endpoint_rejected():
    ctx = cl.CliffordRep(0, 0, 2)
    path = SkewPath(ctx, lambda t: t * cl.L1)
    with pytest.raises(ValidationError):
        spectral_flow(path)


def test_endpoint_theorem_random_paths():
    rng = np.random.default_rng(42)
    pool = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (0, 3)]
    for trial in range(24):
        r, s = pool[trial % len(pool)]
        ctx, f_ref = padded_context(r, s)
        if ctx.n > 32:
            continue
        path = random_admissible_path(ctx, f_ref, rng)
        assert spectral_flow(path) == endpoint_flow(path)


def test_homotopy_invariance():
    rng = np.random.default_rng(7)
    ctx, f_ref = padded_context(1, 0)
    path = random_admissible_path(ctx, f_ref, rng)
    base = spectral_flow(path)
    for trial in range(4):
        bump = ctx.project_skew(random_skew(rng, ctx.n), -1)
        bumped = SkewPath(ctx, lambda t, b=bump: path.fn(t) + np.sin(np.pi * t) * b)
        assert spectral_flow(bumped) == base


def test_path_additivity():
    module = cl.irreducible_rep(0, 1)
    ctx = cl.CliffordRep(0, 0, module.n)
    f_last = np.array(module.F[-1])
    first = SkewPath(ctx, lambda t: (1 - 2 * t) * f_last)
    second = SkewPath(ctx, lambda t: (2 * t - 1) * f_last)

    def concatenated(t):
        return first.fn(2 * t) if t <= 0.5 else second.fn(2 * t - 1)

    total = spectral_flow(SkewPath(ctx, concatenated))
    assert total == spectral_flow(first) + spectral_flow(second)
    assert total.value == 0


def test_stability_and_direct_sum():
    module = cl.irreducible_rep(0, 1)
    ctx = cl.CliffordRep(0, 0, module.n)
    f_last = np.array(module.F[-1])
    path = SkewPath(ctx, lambda t: (1 - 2 * t) * f_last)
    flow = spectral_flow(path)
    double = cl.CliffordRep(0, 0, 2 * module.n)

    def stabilized(t):
        out = np.zeros((4, 4))
        out[:2, :2] = path.fn(t)
        out[2:, 2:] = f_last
        return out

    assert spectral_flow(SkewPath(double, stabilized)) == flow

    def summed(t):
        out = np.zeros((4, 4))
        out[:2, :2] = path.fn(t)
        out[2:, 2:] = path.fn(t)
        return out

    assert spectral_flow(SkewPath(double, summed)) == flow + flow


def test_relation_to_classical_flow_r2():
    rng = np.random.default_rng(3)
    for trial in range(6):
        n = int(rng.integers(1, 6))
        sym = random_skew(rng, n + 1)
        start = sym @ sym.T + np.eye(n + 1)
        end = -start + 0.25 * np.diag(rng.standard_normal(n + 1))

        def h_path(t, a=start, b=end):
            return (1 - t) * a + t * b

        if min(np.abs(np.linalg.eigvalsh(h_path(0.0)))) < 1e-6:
            continue
        if min(np.abs(np.linalg.eigvalsh(h_path(1.0)))) < 1e-6:
            continue
        nn = n + 1
        ctx = cl.CliffordRep(2, 0, 2 * nn,
                             E=(np.kron(np.eye(nn), cl.K1),
                                np.kron(np.eye(nn), cl.K2)))
        skew_path = SkewPath(ctx, lambda t: np.kron(h_path(t), cl.OMEGA_20))
        value = spectral_flow(skew_path)
        assert value.degree == 0
        assert value.value == classical_sf(h_path)


def test_relation_r1_forgets_to_r0():
    rng = np.random.default_rng(5)
    ctx1, f_ref = padded_context(1, 0)
    path = random_admissible_path(ctx1, f_ref, rng)
    ctx0 = cl.CliffordRep(0, 0, ctx1.n)
    forgotten = SkewPath(ctx0, path.fn)
    v1 = spectral_flow(path)
    v0 = spectral_flow(forgotten)
    assert (v1.degree, v0.degree) == (1, 2)
    assert v1.value == v0.value


def _gapless_rotation(blocks=12):
    """j0 on 4 (blocks + 1) dimensions and s -> expm(2 s X), for X
    anticommuting with j0 and block diagonal: blocks 4 x 4 rotation
    generators (pi/2 + eps/2) L1 (x) K1 with eps geometric in [1e-9, 3e-4].
    expm(2 s X) j0 is a complex structure for every s; the pair kernel of
    j0 and expm(2X) j0 has a gapless singular-value ramp."""
    eps = np.geomspace(1e-9, 3e-4, blocks)
    n = 4 * (blocks + 1)
    j0_mat = np.zeros((n, n))
    for i in range(blocks + 1):
        j0_mat[4 * i:4 * i + 4, 4 * i:4 * i + 4] = np.kron(np.eye(2), cl.L1)

    def rotation(s):
        rot = np.eye(n)
        for i in range(blocks):
            gen = (np.pi / 2 + eps[i] / 2) * np.kron(cl.L1, cl.K1)
            rot[4 * i:4 * i + 4, 4 * i:4 * i + 4] = expm(2 * s * gen)
        return rot

    return j0_mat, rotation


def _bisecting_path():
    """t -> expm(2 min(16 t, 1) X) j0: the whole turn happens on the first
    of the 16 initial segments, which therefore has to be bisected."""
    j0_mat, rotation = _gapless_rotation()
    ctx = cl.CliffordRep(0, 0, j0_mat.shape[0])
    return SkewPath(ctx, lambda t: rotation(min(16.0 * t, 1.0)) @ j0_mat)


def _node_depth(t):
    """Bisection depth of a node of the 16-segment partition: a midpoint
    made at depth d has denominator 16 * 2^d."""
    return max(0, Fraction(t).denominator.bit_length() - 1 - 4)


def test_partition_depth_cap_on_ambiguous_jump(monkeypatch):
    # discontinuous jump whose pair kernel has a gapless singular-value
    # ramp: every bisection stays ambiguous, so the depth cap must trip
    j0_mat, rotation = _gapless_rotation()
    j1_mat = rotation(1.0) @ j0_mat
    ctx = cl.CliffordRep(0, 0, j0_mat.shape[0])
    path = SkewPath(ctx, lambda t: j0_mat if t < 1 / 3 else j1_mat)
    monkeypatch.setattr(flow, "MAX_DEPTH", 6)
    with pytest.raises(AmbiguousKernelError):
        spectral_flow(path)


def test_walk_samples_each_node_once_through_bisection():
    base = _bisecting_path()
    calls = []

    def counted(t):
        calls.append(t)
        return base.fn(t)

    value = spectral_flow(SkewPath(base.context, counted))
    assert value.to_json() == {"degree": 2, "group": "Z2", "value": 0}
    assert len(calls) == len(set(calls)) > 17  # bisected, no node twice
    assert max(map(_node_depth, calls)) > 0


def test_walk_holds_left_phase_and_one_per_bisection_level(monkeypatch):
    # the walk keeps the left phase, the new one, one pending right-end
    # phase per bisection level in progress and the phases of the current
    # stack of initial nodes (none beyond the new one when the walk takes
    # one node at a time), never the whole partition
    base = _bisecting_path()
    complete = flow.complete_phases
    for stack_bytes in (0, flow.STACK_BYTES):
        monkeypatch.setattr(flow, "STACK_BYTES", stack_bytes)
        stack = flow.stacked_nodes(base.context.n)
        assert (stack == 1) == (stack_bytes == 0)
        live, counts, held, times = [], [], [], []

        def tracked(*args, **kwargs):
            phases = complete(*args, **kwargs)
            # the times sampled since the last completion are this one's
            new = times[len(live):]
            live.extend(weakref.ref(j) for j in phases)
            # live phases other than J(1), the second one completed
            counts.append((sum(ref() is not None for ref in live[:1] + live[2:]),
                           max(map(_node_depth, new))))
            held.append(len(live) < 2 or live[1]() is not None)
            return phases

        def sampled(t):
            times.append(t)
            return base.fn(t)

        monkeypatch.setattr(flow, "complete_phases", tracked)
        spectral_flow(SkewPath(base.context, sampled))
        # completion order: T(0), T(1), then the sampled nodes; J(1) is
        # held from the start, the other phases within 2 + depth + stack - 1
        assert len(live) == len(times) > 17
        assert all(held)
        assert all(c <= 1 + stack + d for c, d in counts)


def test_forced_kernel_parity_blocks_admissible_obstructions():
    # an anticommuting skew on an odd complex dimension has a forced
    # kernel of the obstructed class, so no invertible endpoint exists
    # there: interior obstructions cannot arise on admissible paths, and
    # the endpoint check rejects such contexts up front
    ctx = cl.CliffordRep(0, 1, 6, F=(np.kron(np.eye(3), cl.L1),))
    rng = np.random.default_rng(0)
    t_mat = random_skew(rng, 6)
    t_mat = (t_mat - ctx.F[0] @ t_mat @ np.linalg.inv(ctx.F[0])) / 2.0
    t_mat = (t_mat - t_mat.T) / 2.0
    svals = np.linalg.svd(t_mat, compute_uv=False)
    assert np.sum(svals < 1e-10) == 2       # kernel forced by parity
    path = SkewPath(ctx, lambda t: t_mat)
    with pytest.raises(ValidationError):
        spectral_flow(path)
    with pytest.raises(ObstructionError):
        complete_phase(t_mat, ctx)


def test_flow_independent_of_kernel_completion():
    # the interior completion at a crossing is arbitrary; the flow must
    # not depend on which valid completion the solver picks
    module = cl.direct_sum(cl.irreducible_rep(0, 3, "+"),
                           cl.irreducible_rep(0, 3, "-"))
    ctx = cl.CliffordRep(0, 2, module.n, E=module.E, F=module.F[:-1])
    f_last = np.array(module.F[-1])
    path = SkewPath(ctx, lambda t: (1 - 2 * t) * f_last)
    values = {spectral_flow(path, seed=seed).value
              for seed in range(5)}
    assert values == {abs_class(module).value}


def test_classical_sf():
    assert classical_sf(lambda t: np.array([[2.0 * t - 1.0]])) == 1
    assert classical_sf(lambda t: np.eye(3)) == 0
    assert classical_sf(lambda t: np.diag([2 * t - 1.0, 1.0 - 2 * t])) == 0
    with pytest.raises(ValidationError):
        classical_sf(lambda t: np.array([[t]]))
    # the endpoint rule of spectral_flow, relative to the largest magnitude:
    # a path scaled by 1e-9 keeps its flow, and an eigenvalue 1e-10 of the
    # largest one is in the zero cluster
    assert classical_sf(lambda t: 1e-9 * np.diag([2.0 * t - 1.0, 1.0])) == 1
    with pytest.raises(ValidationError, match="endpoint t=0.0 is not invertible"):
        classical_sf(lambda t: np.diag([-1.0, 1e-7, 1e3]))


def test_classical_sf_words_the_endpoint_rule_of_the_flow():
    # classical_sf applies the endpoint rule of spectral_flow to its
    # eigenvalue magnitudes: the symmetric D (x) I_2 and the skew D (x) L1
    # have the same singular values, so a nonempty zero cluster (at t = 0,
    # at t = 1) and an ambiguous one read alike on both
    ramp = [5e-9, 2e-6, 5e-4, 5e-3, 4e-2, 1.0]
    cases = [lambda t: [0.0, 1.0],
             lambda t: [1.0, 2.0 * t - 1.0, 1.0 - t],
             lambda t: ramp]
    for diag in cases:
        ctx = cl.CliffordRep(0, 0, 2 * len(diag(0.0)))
        with pytest.raises(ValidationError) as skew:
            spectral_flow(SkewPath(ctx, lambda t: np.kron(np.diag(diag(t)), cl.L1)))
        with pytest.raises(ValidationError) as sym:
            classical_sf(lambda t: np.kron(np.diag(diag(t)), np.eye(2)))
        assert str(sym.value) == str(skew.value)
        assert type(sym.value.__cause__) is type(skew.value.__cause__)
    assert str(sym.value).startswith("endpoint t=0.0 is not invertible (ambiguous")
    assert isinstance(sym.value.__cause__, AmbiguousKernelError)
    with pytest.raises(ValidationError, match=r"^endpoint t=1.0 is not invertible "
                       r"\(2 singular values in the zero cluster, smallest 0.000e\+00"):
        classical_sf(lambda t: np.kron(np.diag(cases[1](t)), np.eye(2)))


def test_complete_phase_one_svd(monkeypatch):
    # one SVD of T gives the split, the range phase and the kernel basis;
    # no eigendecomposition of a squared matrix is taken
    rng = np.random.default_rng(4)
    t_mat = random_skew(rng, 6)
    expected = numerics.skew_phase(t_mat)
    eighs, svds = [], []
    svd = np.linalg.svd

    def counted_eigh(mat):
        eighs.extend(matrix_shapes(mat))
        return sym_eigh(mat)

    def counted_svd(mat, *args, **kwargs):
        svds.extend(matrix_shapes(mat))
        return svd(mat, *args, **kwargs)

    monkeypatch.setattr(numerics, "sym_eigh", counted_eigh)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    ctx = cl.CliffordRep(0, 0, 6)
    j = complete_phase(t_mat, ctx)
    assert svds == [(6, 6)] and eighs == []
    assert np.allclose(j.J, expected, atol=1e-12)


def test_complete_phase_reimposes_structure():
    # a range phase read off nearly singular directions (sigma_min in
    # [1e-7, 1e-4]) of a T that anticommutes only up to 1e-10: projection
    # onto the anticommutant alone leaves J^2 + I above the 1e-10 check on
    # some inputs; the Newton-Schulz step brings it back
    for seed in range(100):
        rng = np.random.default_rng(seed)
        ctx, _ = padded_context(*SIG_POOL[seed % len(SIG_POOL)], copies=4)
        a = ctx.project_skew(random_skew(rng, ctx.n), -1)
        vals, vecs = sym_eigh(-(a @ a))
        low = vecs[:, vals - vals[0] <= 1e-8 * vals[-1]]  # lowest eigenspace
        c = 10.0 ** rng.uniform(-7.0, -4.0) / np.sqrt(vals[0])
        t_mat = a - (1.0 - c) * a @ low @ low.T
        noise = random_skew(rng, ctx.n)
        t_mat = t_mat + 1e-10 * noise / np.linalg.norm(noise, 2)
        assert isinstance(complete_phase(t_mat, ctx), ComplexStructure)


def test_phase_closeness_takes_no_exact_norm(monkeypatch):
    # segments are compared by the Frobenius norm alone: at the Kitaev
    # crossing the phases differ by 2, and the pair index decides the
    # segment without an SVD of J0 - J1 first
    def no_op_norm(mat):
        raise AssertionError("an exact operator norm was taken")

    monkeypatch.setattr(numerics, "op_norm", no_op_norm)
    for n_ring in (7, 8):
        assert spectral_flow(kitaev_path(n_ring)).value == 1


def test_each_node_sampled_once():
    base = kitaev_path(5)
    calls = []

    def counted(t):
        calls.append(t)
        return base.fn(t)

    path = SkewPath(base.context, counted)
    assert spectral_flow(path).value == 1
    assert len(calls) == len(set(calls)) >= 17
    assert {0.0, 1.0} <= set(calls)
    calls.clear()
    assert endpoint_flow(path).value == 1
    assert sorted(calls) == [0.0, 1.0]


def test_phase_kernel_regularized_fallback():
    # singular values 1e-9 and 5e-7 (each twice) below 1: the strict split
    # finds the 1e-9 pair but not a clean gap to 5e-7 (ratio 500 < 1e3);
    # the regularized split takes all four as kernel, in every frame
    for seed in range(40):
        q = random_orthogonal(np.random.default_rng(seed), 8)
        t_mat = q @ np.kron(np.diag([1e-9, 5e-7, 1.0, 1.0]), cl.L1) @ q.T
        svals = np.linalg.svd(t_mat, compute_uv=False)
        with pytest.raises(AmbiguousKernelError):
            split_zero_cluster(svals[::-1], label="phase kernel")
        *_, basis = svd_split(t_mat, _split_phase_kernel)
        assert basis.shape == (8, 4)
        ctx = cl.CliffordRep(0, 0, 8)
        j = complete_phase(t_mat, ctx)
        assert isinstance(j, ComplexStructure)  # validated on construction
        gapped = q[:, 4:]  # unit singular values: the phase is T itself there
        assert np.allclose(j.J @ gapped, t_mat @ gapped, atol=1e-12)


# ---------------------------------------------------------------------------
# Pfaffian-sign oracle for the empty-context Z2 flow
# ---------------------------------------------------------------------------

def pf_brute(a):
    """Pfaffian by expansion along the first row."""
    n = a.shape[0]
    if n == 0:
        return 1.0
    total = 0.0
    for j in range(1, n):
        rest = [i for i in range(1, n) if i != j]
        total += (-1) ** (j - 1) * a[0, j] * pf_brute(a[np.ix_(rest, rest)])
    return total


def test_pf_sign_matches_brute_force():
    rng = np.random.default_rng(8)
    assert pf_sign(cl.L1) == -1 and pf_sign(np.zeros((3, 3))) == 0
    for _ in range(20):
        a = random_skew(rng, 6)
        pf = pf_brute(a)
        assert np.isclose(pf ** 2, np.linalg.det(a))
        assert pf_sign(a) == np.sign(pf)


@pytest.mark.parametrize("n_ring", list(range(3, 17)) + [64])
def test_pfaffian_oracle_kitaev(n_ring):
    path = kitaev_path(n_ring)
    flips = pf_sign(path.at(0.0)) != pf_sign(path.at(1.0))
    assert spectral_flow(path).value == int(flips)


@pytest.mark.parametrize("sign1", [1.0, -1.0])
@pytest.mark.parametrize("a0", [5e-8, -5e-8, 2e-7, -2e-7])
def test_near_singular_endpoint_is_rejected_or_matches_the_pfaffian_flip(a0, sign1):
    # T(0) = a0 L1 (+) L1 and T(1) = sign1 L1 (+) L1: a block at 5e-8
    # ||T(0)|| is a kernel, so both flows reject the path; at 2e-7 the
    # endpoint is invertible and both give the flip of the Pfaffian signs
    ends = [np.kron(np.diag([a, 1.0]), cl.L1) for a in (a0, sign1)]
    path = SkewPath(cl.CliffordRep(0, 0, 4), lambda t: (1.0 - t) * ends[0] + t * ends[1])
    flips = pf_sign(ends[0]) != pf_sign(ends[1])
    for solve in (spectral_flow, endpoint_flow):
        if abs(a0) < 1e-7:
            with pytest.raises(ValidationError, match="endpoint t=0.0 is not invertible"):
                solve(path)
        else:
            assert solve(path).value == int(flips)


@pytest.mark.parametrize("n_ring", [7, 8])
def test_kitaev_flow_is_scale_invariant(n_ring):
    # the endpoint rule and every kernel split are relative to ||T||: the
    # scaled path has the class of the path, on the dense and the split
    # reduced routes
    base = kitaev_path(n_ring)
    assert (base.reduction is None) == (n_ring % 2 == 1)
    for exponent in range(-11, 10):
        path = SkewPath(base.context, lambda t, c=10.0 ** exponent: c * base.fn(t),
                        grading=base.grading, reduction=base.reduction)
        assert spectral_flow(path).value == endpoint_flow(path).value == 1, exponent


def test_pfaffian_oracle_random_paths():
    rng = np.random.default_rng(11)
    outcomes = set()
    for _ in range(12):
        ctx, f_ref = padded_context(0, 0, copies=int(rng.integers(1, 5)))
        path = random_admissible_path(ctx, f_ref, rng)
        flips = pf_sign(path.at(0.0)) != pf_sign(path.at(1.0))
        assert spectral_flow(path).value == int(flips)
        outcomes.add(flips)
    assert outcomes == {False, True}


# ---------------------------------------------------------------------------
# Split reduced route on an empty context: graded paths of sector blocks
# ---------------------------------------------------------------------------

# the right factor of B(t) turns by this angle per initial segment, so that
# the hint of the crossing node's left phase compresses to cos = -0.2
TURN = np.arccos(-0.2)
# the cell factor of the split reduction of an empty context: beta = 1
SPLIT_CELL = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _odd_path(rng, half, crossings):
    """T(t) = G-odd form of B(t) = Q1 D(t) R(t) Q2 over a shuffled
    grading G, declared as the split reduction of its empty context, whose
    coefficient is B(t): D(t) = diag(1 - 2t (`crossings` times), 1, ...),
    and R(t) the rotation by 16 t TURN in the plane of coordinates 0 and
    `crossings`.  T has an exact kernel of 2 * crossings at the node
    t = 1/2, where the left phase's hint compresses to the kernel with
    smallest singular value 0.2, below HINT_SMIN."""
    grading = Grading(rng.permutation(np.repeat([-1.0, 1.0], half)))
    q1, q2 = random_orthogonal(rng, half), random_orthogonal(rng, half)

    def block(t):
        d = np.ones(half)
        d[:crossings] = 1.0 - 2.0 * t
        c, s = np.cos(16.0 * t * TURN), np.sin(16.0 * t * TURN)
        rot = np.eye(half)
        rot[np.ix_([0, crossings], [0, crossings])] = [[c, -s], [s, c]]
        return q1 @ (d[:, None] * rot) @ q2

    ctx = cl.CliffordRep(0, 0, 2 * half, copies=half)
    return SkewPath(ctx, block, grading=grading,
                    reduction=pairs.Reduction(ctx, SPLIT_CELL, grading))


@pytest.mark.parametrize("crossings", [1, 2])
@pytest.mark.parametrize("seed", range(3))
def test_block_route_matches_dense_with_exact_node_kernels(seed, crossings):
    # node kernels of 2 and 4 at t = 1/2: the split route's class is the
    # dense route's, graded and not, the endpoint formula's and the
    # Pfaffian oracle's
    path = _odd_path(np.random.default_rng(seed), 5, crossings)
    assert path.reduction.kind == "split"
    minus, plus = path.grading.sectors()
    np.testing.assert_array_equal(path.at(0.5)[np.ix_(minus, plus)], path.fn(0.5))
    *_, u_k, w_k = svd_split(path.coefficient(0.5), doubled(_split_phase_kernel))
    assert u_k.shape[1] == w_k.shape[1] == crossings
    flips = pf_sign(path.at(0.0)) != pf_sign(path.at(1.0))
    value = spectral_flow(path)
    assert value == spectral_flow(undeclared(path)) == spectral_flow(undeclared(path, False)) \
        == endpoint_flow(path)
    assert value.value == int(flips) == crossings % 2


@pytest.mark.parametrize("crossings", [1, 2])
def test_block_completion_follows_a_hint_or_takes_the_identity(crossings):
    # the crossing node's kernel is completed by U_k Q W_k^T: Q = I when
    # the left phase's hint compresses below HINT_SMIN, the hint's polar
    # factor when it does not
    path = _odd_path(np.random.default_rng(5), 5, crossings)
    ctx, red = path.context, path.reduction
    left = complete_phase(path.coefficient(7 / 16), ctx, reduction=red)
    coef = path.coefficient(0.5)
    u_r, wt_r, u_k, w_k = svd_split(coef, doubled(_split_phase_kernel))
    phase = u_r @ wt_r
    smin = np.linalg.svd(u_k.T @ left.S @ w_k, compute_uv=False)[-1]
    assert smin == pytest.approx(0.2, abs=1e-12) and smin < flow.HINT_SMIN
    plain = complete_phase(coef, ctx, align_hint=left.S, reduction=red)
    np.testing.assert_allclose(plain.S, phase + u_k @ w_k.T, rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(plain.S, complete_phase(coef, ctx, reduction=red).S)
    flipped = complete_phase(coef, ctx, align_hint=-plain.S, reduction=red)  # -I
    np.testing.assert_allclose(flipped.S, phase - u_k @ w_k.T, rtol=0.0, atol=1e-12)


def test_block_completion_rejects_a_non_orthogonal_node(monkeypatch):
    # a split completion U diag(I, Q) W^T is orthogonal up to the SVD's
    # rounding, and nothing re-imposes it: a range block off orthogonality
    # by 1e-7 fails the 1e-10 structure check
    rng = np.random.default_rng(2)
    grading = Grading(rng.permutation(np.repeat([-1.0, 1.0], 6)))
    ctx = cl.CliffordRep(0, 0, 12, copies=6)
    red = pairs.Reduction(ctx, SPLIT_CELL, grading)
    u, w = random_orthogonal(rng, 6), random_orthogonal(rng, 6)
    noise = 1e-7 * rng.standard_normal((6, 6))
    cases = {"noisy": (random_orthogonal(rng, 6) + noise, np.eye(6), 6),
             "exact": (u[:, :4], w[:, :4].T, 4),
             "off": (u[:, :4] + noise[:, :4], w[:, :4].T, 4)}

    def node(case):
        u_r, vt_r, rank = cases[case]
        split = (u_r, vt_r, u[:, rank:], w[:, rank:])
        monkeypatch.setattr(pairs, "svd_split", lambda mats, _: [split] * len(mats))
        return complete_phase(np.zeros((6, 6)), ctx, reduction=red)

    with pytest.raises(ValidationError, match="not a reduced complex structure"):
        node("noisy")
    # the range block of rank 4 plus U_k W_k^T
    np.testing.assert_allclose(node("exact").S, u @ w.T, rtol=0.0, atol=1e-14)
    with pytest.raises(ValidationError, match="not a reduced complex structure"):
        node("off")


def _counted_svd_splits(monkeypatch, path):
    """Spectral flow of `path` with the shape of every matrix that
    `svd_split` takes (a stack counts as its matrices), the number of
    nodes (each sampled once) and of `pair_index` calls."""
    shapes, times, pair_calls = [], [], []
    svd_split_, pair_index_ = numerics.svd_split, flow.pair_index

    def counted(mat, split):
        shapes.extend(matrix_shapes(mat))
        return svd_split_(mat, split)

    def counted_pairs(j0, j1):
        pair_calls.append(1)
        return pair_index_(j0, j1)

    def sampled(t):
        times.append(t)
        return path.fn(t)

    for module in (flow, pairs):
        monkeypatch.setattr(module, "svd_split", counted)
    monkeypatch.setattr(flow, "pair_index", counted_pairs)
    value = spectral_flow(SkewPath(path.context, sampled, grading=path.grading,
                                   reduction=path.reduction))
    return value, shapes, len(times), len(pair_calls)


def test_one_svd_per_node_and_per_pair_kernel(monkeypatch):
    # every node and every pair kernel is one svd_split and nothing else
    # is; a graded path splits its nodes at half size, and the split
    # reduced route its pair kernels too, at N x N
    cases = [(kitaev_path(8), "split"), (kitaev_path(9), "dense"),
             (models.flux_path(rotated_irrep(0, 8, 8), 3), "split"),
             (models.flux_path(rotated_irrep(0, 3, 5), 3), "dense graded")]
    for path, route in cases:
        value, shapes, nodes, pair_calls = _counted_svd_splits(monkeypatch, path)
        n = path.context.n
        assert pair_calls >= 1 and len(shapes) == nodes + pair_calls, route
        if route == "split":
            size = path.context.copies
            assert path.reduction.kind == "split" and size == n // path.reduction.b.shape[0]
            assert shapes == [(size, size)] * len(shapes)
        elif route == "dense":
            assert path.grading is None
            assert shapes == [(n, n)] * len(shapes)
        else:
            assert path.grading is not None and path.context.s == 2
            assert shapes.count((n // 2, n // 2)) == nodes
            assert shapes.count((n, n)) == pair_calls
        monkeypatch.undo()
        assert value == spectral_flow(path)


def test_block_phase_distance_is_the_dense_frobenius_distance():
    for path in (kitaev_path(6), models.flux_path(rotated_irrep(0, 8, 8), 3)):
        ctx, red = path.context, path.reduction
        ja, jb = (complete_phase(path.coefficient(t), ctx, reduction=red) for t in (0.0, 1.0))
        assert flow._phase_distance(ja, jb) == pytest.approx(np.linalg.norm(ja.J - jb.J),
                                                             rel=1e-14)


def test_complete_phase_checks_the_shape():
    ctx = cl.CliffordRep(0, 0, 2)
    with pytest.raises(ValidationError, match="does not match context"):
        complete_phase(np.zeros((3, 3)), ctx)


def _stack_routes():
    """One path per route, each with nodes of the initial partition that
    have a kernel: (1 - 2t) R(t) F2 R(t)^T over the Cl_{0,1} context of the
    Cl_{0,2} irreducible, R(t) = expm(t X) with X in the commutant of F1
    (dense; its phase turns with t, and its whole kernel at t = 1/2 is
    completed along the hint of node 7/16), the even Kitaev ring
    undeclared (dense graded), a Cl_{0,7} flux cell (reduced, real kind),
    and the even Kitaev ring and a Cl_{1,1} flux cell (reduced, split)."""
    v = rotated_irrep(0, 2, seed=2)
    ctx = cl.CliffordRep(0, 1, v.n, F=v.F[:1])
    f_last = np.array(v.F[-1])
    turn = ctx.project_skew(random_skew(np.random.default_rng(3), v.n), +1)

    def turning(t):
        rot = expm(t * turn)
        return (1 - 2 * t) * rot @ f_last @ rot.T

    return {"dense": SkewPath(ctx, turning),
            "dense graded": undeclared(kitaev_path(8)),
            "real": models.flux_path(rotated_irrep(0, 7, seed=7), 4),
            "split kitaev": kitaev_path(8),
            "split cl11": models.flux_path(rotated_irrep(1, 1, seed=1), 4)}


@pytest.mark.parametrize("route", ["dense", "dense graded", "real", "split kitaev",
                                   "split cl11"])
def test_stacked_nodes_match_single_nodes_bit_for_bit(route):
    # the 15 interior nodes of the initial partition completed as one
    # stack, each hinted by its left neighbour, are the nodes completed one
    # at a time, as stacks of one, to the bit
    path = _stack_routes()[route]
    m = flow.INITIAL_SEGMENTS
    ts = [i / m for i in range(1, m)]
    assert flow.stacked_nodes(path.context.n if path.reduction is None
                              else path.context.copies) == len(ts)
    left = flow._stored(flow._endpoint_phases(path, 0)[0])
    stacked = flow._nodes(path, ts, left, 0)
    assert len(stacked) == len(ts)
    for t, phase in zip(ts, stacked):
        (single,) = flow._nodes(path, [t], left, 0)
        assert type(phase) is type(single)
        np.testing.assert_array_equal(flow._stored(phase), flow._stored(single))
        left = flow._stored(single)
    assert spectral_flow(path) == endpoint_flow(path)


@pytest.mark.parametrize("route", ["dense", "dense graded", "real", "split kitaev",
                                   "split cl11", "bisecting"])
def test_walk_does_not_depend_on_the_stack_size(monkeypatch, route):
    # stacks of 1, 2, 4, 7 and 15 nodes, partial last stacks among them
    # (15 = 4 + 4 + 4 + 3 = 7 + 7 + 1), sample the same times once each and
    # complete the same phases, to the bit, with the same class
    path = _bisecting_path() if route == "bisecting" else _stack_routes()[route]
    size = path.context.n if path.reduction is None else path.context.copies
    complete = flow.complete_phases
    runs = []
    for nodes in (1, 2, 4, 7, 15):
        monkeypatch.setattr(flow, "STACK_BYTES", 8 * flow.STACK_NODE_ARRAYS * nodes * size ** 2)
        assert flow.stacked_nodes(size) == nodes
        times, phases = [], []

        def sampled(t):
            times.append(t)
            return path.fn(t)

        def recorded(*args, **kwargs):
            out = complete(*args, **kwargs)
            phases.extend(flow._stored(j) for j in out)
            return out

        monkeypatch.setattr(flow, "complete_phases", recorded)
        value = spectral_flow(SkewPath(path.context, sampled, grading=path.grading,
                                       reduction=path.reduction))
        assert len(times) == len(set(times)) == len(phases)
        runs.append((value, dict(zip(times, phases))))
    value, reference = runs[0]
    assert route != "bisecting" or max(map(_node_depth, reference)) > 0
    for other, other_phases in runs[1:]:
        assert other == value and other_phases.keys() == reference.keys()
        for t, phase in reference.items():
            np.testing.assert_array_equal(other_phases[t], phase)


def _skew_frame(*svals):
    """A skew 2m x 2m matrix with the singular values svals, each twice,
    in a seeded orthogonal frame."""
    q = random_orthogonal(np.random.default_rng(11), 2 * len(svals))
    return q @ np.kron(np.diag(svals), cl.L1) @ q.T


@pytest.mark.parametrize("stack_bytes", [0, flow.STACK_BYTES])
def test_stack_raises_the_first_failing_node(monkeypatch, stack_bytes):
    # a failure held in a stack is raised when the walk reaches its node:
    # the walk meets the same error first as one node at a time
    monkeypatch.setattr(flow, "STACK_BYTES", stack_bytes)
    ctx = cl.CliffordRep(0, 0, 18)
    good = _skew_frame(*[1.0] * 9)
    # a cluster that creeps from 1e-8 up to 8e-2 in steps of at most 10:
    # above the ceiling of the strict split and of the regularized one
    ambiguous = _skew_frame(1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 9e-3, 8e-2, 1.0)

    def path(samples):
        return SkewPath(ctx, lambda t: samples.get(t, good))

    invalid = {5 / 16: np.ones((18, 18)), 9 / 16: 2.0 * np.ones((18, 18))}
    with pytest.raises(ValidationError, match=r"t=0\.3125 violates"):
        spectral_flow(path(invalid))
    with pytest.raises(AmbiguousKernelError, match="ambiguous phase kernel"):
        spectral_flow(path({3 / 16: ambiguous, 9 / 16: np.ones((18, 18))}))

    def raising(t):
        if t == 9 / 16:
            raise RuntimeError("sample failed at 9/16")
        return ambiguous if t == 3 / 16 else good

    with pytest.raises(AmbiguousKernelError, match="ambiguous phase kernel"):
        spectral_flow(SkewPath(ctx, raising))
    with pytest.raises(RuntimeError, match="9/16"):
        spectral_flow(SkewPath(ctx, lambda t: raising(t) if t != 3 / 16 else good))
    # a jump on [5/16, 6/16] whose pair kernel stays ambiguous trips the
    # depth cap before the walk reaches the invalid sample at 7/16, which
    # the stack already holds
    j0_mat, rotation = _gapless_rotation()
    j1_mat = rotation(1.0) @ j0_mat
    monkeypatch.setattr(flow, "MAX_DEPTH", 6)
    jump = SkewPath(cl.CliffordRep(0, 0, j0_mat.shape[0]),
                    lambda t: j0_mat if t < 1 / 3 else np.ones_like(j1_mat) if t == 7 / 16
                    else j1_mat)
    with pytest.raises(AmbiguousKernelError, match="partition depth"):
        spectral_flow(jump)


def test_nan_sample_in_a_stack_never_reaches_the_svd(monkeypatch):
    # a non-finite sample fails its check at its own t and is left out of
    # the stacked SVD, which would raise LinAlgError for the whole stack
    svd = np.linalg.svd

    def finite_svd(mat, *args, **kwargs):
        assert np.isfinite(mat).all()
        return svd(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", finite_svd)
    ctx = cl.CliffordRep(0, 0, 8)
    good = _skew_frame(1.0, 1.0, 1.0, 1.0)
    nan = np.full((8, 8), np.nan)
    path = SkewPath(ctx, lambda t: nan if t == 7 / 16 else good)
    assert flow.stacked_nodes(8) == 15
    with pytest.raises(ValidationError, match=r"path sample at t=0\.4375 violates"):
        spectral_flow(path)
    phases = flow._nodes(path, [i / 16 for i in range(1, 16)], good, 0)
    assert len(phases) == 7 and isinstance(phases[-1], ValidationError)


def test_hinted_kernel_completion_takes_one_svd(monkeypatch):
    # the hint's smallest singular value and its phase come from one SVD
    svd, shapes = np.linalg.svd, []

    def counted(mat, *args, **kwargs):
        shapes.extend(matrix_shapes(mat))
        return svd(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    rep = cl.CliffordRep(0, 0, 4)
    hint = _skew_frame(1.0, 0.5)
    j = flow._kernel_completion(rep, seed=0, hint=hint)
    assert shapes == [(4, 4)]
    np.testing.assert_array_equal(j, numerics.skew_phase((hint - hint.T) / 2.0))


def test_failed_stacked_decomposition_is_taken_item_by_item(monkeypatch):
    # a stacked SVD or eigendecomposition that fails is taken again item by
    # item, so an item that fails alone holds its LinAlgError until the
    # walk reaches it, as the walk one node at a time raises it there
    svd, eigh = np.linalg.svd, np.linalg.eigh
    routes = _stack_routes()
    dense, real = routes["dense"], routes["real"]
    expected = spectral_flow(real)
    bad = dense.fn(5 / 16)

    def no_stacked(decompose):
        def decomposed(mat, *args, **kwargs):
            if np.ndim(mat) == 3:
                raise np.linalg.LinAlgError("the stack did not converge")
            if np.array_equal(mat, bad):
                raise np.linalg.LinAlgError("node 5/16 did not converge")
            return decompose(mat, *args, **kwargs)
        return decomposed

    monkeypatch.setattr(np.linalg, "svd", no_stacked(svd))
    monkeypatch.setattr(np.linalg, "eigh", no_stacked(eigh))
    assert spectral_flow(real) == expected
    for stack_bytes in (flow.STACK_BYTES, 0):
        monkeypatch.setattr(flow, "STACK_BYTES", stack_bytes)
        with pytest.raises(np.linalg.LinAlgError, match="node 5/16"):
            spectral_flow(dense)
