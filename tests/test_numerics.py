import numpy as np
import pytest

from koflow import clifford, flow, models, numerics, pairs
from koflow.errors import AmbiguousKernelError, ValidationError
from koflow.flow import complete_phase
from koflow.models import kitaev_path
from koflow.numerics import (Grading, doubled, min_singular_value, op_norm,
                             random_orthogonal, random_skew, residual_norm,
                             skew_phase, split_zero_cluster, svd_split)


def test_split_zero_cluster_basics():
    assert split_zero_cluster(np.array([])) == 0
    assert split_zero_cluster(np.zeros(4)) == 4
    assert split_zero_cluster(np.array([1e-14, 1e-14, 1.0, 2.0])) == 2
    assert split_zero_cluster(np.array([0.5, 1.0, 2.0])) == 0


def test_split_zero_cluster_absorbs_noise_chain():
    # an exact kernel often lands as a noise cluster straddling the raw
    # relative threshold; the chain must absorb it
    values = np.array([0.0, 0.0, 2.05e-8, 4.7e-8, 2.0, 2.0])
    assert split_zero_cluster(values) == 4


def test_split_zero_cluster_ambiguous_ramp():
    ramp = np.array([1e-8 * 10 ** k for k in range(8)] + [2.0])
    with pytest.raises(AmbiguousKernelError):
        split_zero_cluster(ramp)


def test_split_zero_cluster_gap_guard():
    values = np.array([1e-9, 5e-8, 2.0])
    # 5e-8 sits within a factor 10^2 of 1e-9 < 10^3 guard after chaining
    kdim = split_zero_cluster(values)
    assert kdim == 2  # chained into one cluster, clean gap to 2.0


def test_skew_phase():
    t_mat = 3.0 * np.kron(np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]]))
    phase = skew_phase(t_mat)
    assert np.allclose(phase @ phase, -np.eye(4))
    assert np.allclose(phase + phase.T, 0.0)
    # with a kernel, complete_phase takes the phase on the range and
    # completes it on the kernel, leaving the two blocks uncoupled
    padded = np.zeros((6, 6))
    padded[:4, :4] = t_mat
    ctx = clifford.CliffordRep(0, 0, 6)
    j = complete_phase(padded, ctx).J
    assert np.allclose(j[:4, :4], t_mat / 3.0, atol=1e-12)
    assert np.allclose(j[:4, 4:], 0.0) and np.allclose(j[4:, :4], 0.0)
    assert np.allclose(j[4:, 4:] @ j[4:, 4:], -np.eye(2))


def test_polar_and_random_orthogonal():
    rng = np.random.default_rng(0)
    t_mat = random_skew(rng, 6)
    u = skew_phase(t_mat)
    assert np.allclose(u.T @ u, np.eye(6), atol=1e-12)
    assert np.allclose(u + u.T, 0.0, atol=1e-12)
    # T = U |T|: U^T T is symmetric positive definite
    modulus = u.T @ t_mat
    assert np.allclose(modulus, modulus.T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(modulus)) > 0.0
    q = random_orthogonal(rng, 7)
    assert np.allclose(q.T @ q, np.eye(7), atol=1e-12)


def test_kernel_basis_and_norms():
    # svd_split gives the range factors, as views, and both kernel
    # bases, as copies
    mat = np.diag([0.0, 0.0, 1.0, 3.0])
    turned = mat @ random_orthogonal(np.random.default_rng(1), 4)
    u_r, vt_r, left, basis = svd_split(turned, split_zero_cluster)
    assert u_r.base is not None and vt_r.base is not None
    phase = u_r @ vt_r
    assert left.shape == basis.shape == (4, 2)
    assert np.allclose(turned @ basis, 0.0) and np.allclose(turned.T @ left, 0.0)
    assert np.allclose(phase @ phase.T + left @ left.T, np.eye(4))
    assert np.allclose(phase @ basis, 0.0)
    assert left.base is None and basis.base is None
    assert op_norm(mat) == 3.0
    assert min_singular_value(np.diag([2.0, 5.0])) == 2.0
    assert min_singular_value(np.zeros((0, 0))) == np.inf


def test_residual_norm_accepts_within_exact_norm():
    # ||R||_2 = tol / 2 <= tol < ||R||_F = 2 tol: the Frobenius bound
    # fails, the exact norm decides and accepts
    tol = 1e-10
    res = 0.5 * tol * np.eye(16)
    assert np.linalg.norm(res) > tol
    assert residual_norm(tol, [res]) == op_norm(res) <= tol
    assert residual_norm(tol, []) == 0.0


def test_residual_norm_rejects_with_exact_norm():
    tol = 1e-10
    rng = np.random.default_rng(1)
    q = random_orthogonal(rng, 6)
    bad = q @ np.diag([1.01 * tol, 0.5 * tol, 0, 0, 0, 0]) @ q.T
    small = 1e-3 * tol * np.eye(6)
    worst = residual_norm(tol, iter([small, bad, small]))
    assert worst > tol
    assert worst == op_norm(bad)
    # a complex residual is measured as hypot of its parts' 2-norms
    cres = bad + 2.0j * bad
    assert residual_norm(tol, [cres]) == float(np.hypot(op_norm(bad), op_norm(2.0 * bad)))
    assert residual_norm(tol, [small + 1j * small]) <= tol


def test_valid_kitaev_nodes_run_no_svd(monkeypatch):
    # sampling (skewness) and the ComplexStructure check both pass on
    # their Frobenius bounds: no exact 2-norm is taken
    calls = []

    def counted(mat):
        calls.append(mat.shape)
        return op_norm(mat)

    for module in (numerics, clifford, flow, models, pairs):
        if hasattr(module, "op_norm"):
            monkeypatch.setattr(module, "op_norm", counted)
    path = kitaev_path(8)
    for t in (0.0, 0.25, 0.75, 1.0):
        for grading in (None, path.grading):  # the dense and the block route
            complete_phase(path.at(t), path.context, grading)
    assert calls == []


def test_residual_norm_non_finite_is_inf(monkeypatch):
    # a non-finite residual fails the check as inf; its SVD would not
    # converge, so none is taken
    def no_svd(mat):
        raise AssertionError("op_norm called on a non-finite residual")

    monkeypatch.setattr(numerics, "op_norm", no_svd)
    nan = np.full((3, 3), np.nan)
    assert residual_norm(1e-10, [np.zeros((3, 3)), nan]) == np.inf
    # NaN in the imaginary part alone: 1j * nan would put NaN in both parts
    assert residual_norm(1e-10, [np.full((3, 3), complex(0.0, np.nan))]) == np.inf
    assert residual_norm(1e-10, [np.diag([np.inf, 0.0, 0.0])]) == np.inf


def _nan_sample_at():
    ctx = clifford.CliffordRep(0, 0, 2)
    flow.SkewPath(ctx, lambda t: np.full((2, 2), np.nan)).at(0.5)


def _nan_realify():
    rs = models.RealStructure(2, clifford.K2)
    models.realify(rs, np.full((2, 2), np.nan, dtype=complex))


def _nan_aii_sample():
    nan = np.full((2, 2), np.nan)
    models.aii_path(lambda t: nan + 1j * nan, 2).at(0.5)


def _nan_complex_structure():
    pairs.ComplexStructure(np.full((2, 2), np.nan), clifford.CliffordRep(0, 0, 2))


@pytest.mark.parametrize("build,message", [
    (_nan_sample_at, "residual inf"),
    (_nan_realify, "residual inf"),
    (_nan_aii_sample, "not self-adjoint"),
    (_nan_complex_structure, "residual inf"),
], ids=["skew-path-at", "realify", "aii-path-sample", "complex-structure"])
def test_nan_residual_raises_validation_error(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


def _graded_skew(rng, signs, svals):
    """A skew T anticommuting with G = diag(signs) whose block
    B = T[minus, plus] has singular values svals in random frames."""
    signs = np.asarray(signs, dtype=float)
    minus, plus = np.flatnonzero(signs < 0), np.flatnonzero(signs > 0)
    half = signs.size // 2
    b = random_orthogonal(rng, half) @ np.diag(svals) @ random_orthogonal(rng, half)
    t_mat = np.zeros((signs.size, signs.size))
    t_mat[np.ix_(minus, plus)] = b
    t_mat[np.ix_(plus, minus)] = -b.T
    return t_mat, Grading(signs)


def _phase_split(monkeypatch, mat, grading=None):
    """Range phase and kernel projector of the completed phase of mat over
    an empty context, with or without its grading: the kernel basis is the
    one that `complete_phase` restricts the context to, and the completed
    phase is block diagonal on the kernel and its complement."""
    bases = [np.zeros((mat.shape[0], 0))]
    restrict = flow.restrict_to_subspace

    def recorded(rep, basis, *args):
        bases.append(basis)
        return restrict(rep, basis, *args)

    monkeypatch.setattr(flow, "restrict_to_subspace", recorded)
    j = complete_phase(mat, clifford.CliffordRep(0, 0, mat.shape[0]), grading).J
    projector = bases[-1] @ bases[-1].T
    return j - j @ projector, projector


def _shuffled_signs(rng, n):
    return rng.permutation(np.repeat([-1.0, 1.0], n // 2))


@pytest.mark.parametrize("seed", range(6))
def test_graded_svd_split_matches_dense(monkeypatch, seed):
    # svd_split of the sector block, taken by index and split with
    # `doubled`, scattered back by the dense graded route, gives the range
    # phase and the kernel projector of the dense SVD, for tiled and
    # shuffled sign patterns alike
    monkeypatch.setattr(flow, "block_route", lambda r, s, graded: False)
    rng = np.random.default_rng(seed)
    # near-singular: B has singular values 1e-9, 5e-7, 1, 1, so T has each
    # twice and the regularized split takes the four sub-gap ones as kernel
    cases = [_graded_skew(rng, _shuffled_signs(rng, 8), [1e-9, 5e-7, 1.0, 1.0])]
    for signs in (np.tile([1, -1], 1), np.tile([1, 1, -1, -1], 3),
                  _shuffled_signs(rng, 8), _shuffled_signs(rng, 20)):
        half = signs.size // 2
        for kernel in (0, 1, 2):  # an exact kernel of T of 0, 2 or 4
            if kernel <= half:
                svals = rng.uniform(0.5, 2.0, half)
                svals[:kernel] = 0.0
                cases.append(_graded_skew(rng, signs, svals))
    for t_mat, grading in cases:
        graded = _phase_split(monkeypatch, t_mat, grading)
        dense = _phase_split(monkeypatch, t_mat)
        for a, b in zip(graded, dense):
            assert a.shape == b.shape
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)
    # the near-singular case splits off its four sub-gap values
    assert np.trace(_phase_split(monkeypatch, *cases[0])[1]) == pytest.approx(4.0)


def test_doubled_split_counts_each_singular_value_twice():
    # B's zero cluster is half of the one found on its doubled values, and
    # the guard sees the doubled values: 1e-9 and 5e-7 are ambiguous twice
    # as they are once
    split = doubled(split_zero_cluster)
    assert split(np.array([0.0, 1e-14, 1.0, 2.0])) == 2
    assert split(np.array([0.5, 1.0])) == 0
    seen = []

    def recorded(values):
        seen.append(values)
        return 4

    assert doubled(recorded)(np.array([1e-9, 5e-7, 1.0])) == 2
    np.testing.assert_array_equal(seen[0], [1e-9, 1e-9, 5e-7, 5e-7, 1.0, 1.0])
    with pytest.raises(AmbiguousKernelError):
        split(np.array([1e-9, 5e-7, 1.0, 1.0]))


@pytest.mark.parametrize("signs,message", [
    ([1.0, 1.0, -1.0], "trace 0"),
    ([1.0, 1.0, -1.0, 1.0], "trace 0"),
    ([1.0, 0.0, -1.0, -1.0], "exactly -1 or \\+1"),
    ([2.0, -0.5], "exactly -1 or \\+1"),
    (np.diag([1.0, -1.0]), "1-D sign vector"),
], ids=["odd", "unbalanced", "zero-entry", "not-orthogonal", "matrix"])
def test_grading_checks_its_involution(signs, message):
    # diag(signs) is an orthogonal involution of trace 0 exactly when the
    # entries are +-1, as many of each
    with pytest.raises(ValidationError, match=message):
        Grading(signs)
    np.testing.assert_array_equal(Grading([-1, 1, 1, -1]).signs, [-1.0, 1.0, 1.0, -1.0])
