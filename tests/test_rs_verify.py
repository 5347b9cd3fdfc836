import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from conftest import rotated_irrep

from koflow import clifford as cl
from koflow import rs_verify
from koflow.errors import ValidationError
from koflow.numerics import split_zero_cluster
from koflow.rs_verify import (RSProblem, analytic_profiles,
                              assemble_rs_operator, assemble_rs_operator_alt,
                              convergence_study, default_switching,
                              numeric_kernel, switching_direction, verify_rs)

STANDARD = cl.CliffordRep(0, 1, 2, F=(cl.L1,))


def reference_operator(module, L, m, alt=False, square=False):
    """Dense D in sector coordinates, for the descending default switch,
    built from plain np.kron of the full Hermite-basis operator and the
    sector bases; returns (D, number of full-sector coordinates).  The
    coefficient matrix is the one `_basis_blocks` returns (checked
    against a dense eigensolve by test_coefficient_matches_dense_eigensolve),
    so D pins the layout and signs of the assembly bit for bit."""
    ell = 1.3 / np.sqrt(L)
    off = np.sqrt(np.arange(1, m) / 2.0)
    coeff = rs_verify._basis_blocks(RSProblem(module, L=L, m=m))[1]
    deriv = np.diag(off / ell, 1) - np.diag(off / ell, -1)
    n = module.n
    f_last = np.array(module.F[-1])
    eye = np.eye(n)
    up, down = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])
    plus = (np.kron(eye - f_last, up) + np.kron(eye + f_last, down)) / 2.0
    minus = (np.kron(eye + f_last, up) + np.kron(eye - f_last, down)) / 2.0
    if alt:
        full = np.kron(coeff, np.kron(f_last, cl.K1)) \
            + np.kron(deriv, np.kron(eye, cl.K2))
        keep_full, keep_cut = minus, plus
    else:
        full = np.kron(coeff, np.kron(f_last, cl.OMEGA_11)) \
            - np.kron(deriv, np.kron(eye, cl.K1))
        keep_full, keep_cut = plus, minus
    rows = m if square else m - 1
    basis = np.hstack([np.kron(np.eye(m), keep_full),
                       np.kron(np.eye(m, rows), keep_cut)])
    return basis.T @ full @ basis, m * n


def materialize(op):
    """[[0, -X^T], [X, 0]] and the lifted generators as dense matrices."""
    x = np.kron(op.matrix, op.cell)
    rows, cols = x.shape
    dense = np.block([[np.zeros((cols, cols)), -x.T], [x, np.zeros((rows, rows))]])
    n = op.keep_full.shape[1]
    gens = [sla.block_diag(np.kron(np.eye(cols // n), g[0]),
                           np.kron(np.eye(rows // n), g[1]))
            for g in op.lifted_E + op.lifted_F]
    return dense, gens


def test_default_switching():
    assert default_switching(-3.0) == 1.0
    assert default_switching(2.0) == -1.0
    assert abs(default_switching(0.5)) < 1e-12
    samples = [default_switching(t) for t in np.linspace(-1, 2, 100)]
    assert max(abs(v) for v in samples) <= 1.0


def test_problem_validation():
    with pytest.raises(ValidationError):
        RSProblem(STANDARD, L=1.0, m=300)
    for length in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValidationError, match="finite and exceed 2"):
            RSProblem(STANDARD, L=length, m=300)
    with pytest.raises(ValidationError):
        RSProblem(STANDARD, L=12.0, m=100)
    with pytest.raises(ValidationError):
        RSProblem(cl.irreducible_rep(1, 0, "+"), L=12.0, m=300)
    with pytest.raises(ValidationError):
        RSProblem(STANDARD, L=12.0, m=300, f=lambda t: 2.0 * default_switching(t))
    # a basis squeezed below the coefficient path's window [-1, 2] cannot
    # see the switch; at L = 1e307 the derivative would overflow as well
    for length in (1e100, 1e306, 1e307):
        with pytest.raises(ValidationError, match="short of the coefficient path"):
            RSProblem(STANDARD, L=length, m=300)


def test_assembly_structure():
    problem = RSProblem(STANDARD, L=12.0, m=200)
    op = assemble_rs_operator(problem)
    assert op.dimension == STANDARD.n * (2 * problem.m - 1)
    dense, gens = materialize(op)
    assert np.abs(dense + dense.T).max() == 0.0
    identity = np.eye(op.dimension)
    for g, block in zip(gens, op.lifted_E + op.lifted_F):
        assert np.abs(dense @ g + g @ dense).max() == 0.0
        assert np.abs(g @ g.T - identity).max() < 1e-12
        assert np.array_equal(op.lift(block, identity), g)
    cells = op.to_cells(identity).reshape(-1, op.dimension)
    retained = np.hstack([np.kron(np.eye(problem.m), op.keep_full),
                          np.kron(np.eye(problem.m, problem.m - 1), op.keep_cut)])
    assert np.array_equal(cells, retained)
    # the module carries signature (r, s+1); the lifted family has s+1
    # skew generators, i.e. as many as the module itself
    assert len(op.lifted_F) == STANDARD.s


@pytest.mark.parametrize("alt", [False, True])
@pytest.mark.parametrize("square", [False, True])
@pytest.mark.parametrize("module", [STANDARD, cl.irreducible_rep(2, 1, "+")])
def test_block_matches_dense_reference(module, alt, square):
    problem = RSProblem(module, L=12.0, m=200)
    assemble = assemble_rs_operator_alt if alt else assemble_rs_operator
    op = assemble(problem, square=square)
    ref, cols = reference_operator(module, 12.0, 200, alt=alt, square=square)
    x = np.kron(op.matrix, op.cell)
    assert np.array_equal(ref[cols:, :cols], x)
    assert np.array_equal(ref[:cols, cols:], -x.T)
    assert not ref[:cols, :cols].any() and not ref[cols:, cols:].any()


def _dense_coefficient(problem):
    """The coefficient matrix from LAPACK's full tridiagonal eigensolve of
    the Hermite Jacobi matrix, with all m eigenvectors."""
    m, ell = problem.m, problem.scale
    theta, u = sla.eigh_tridiagonal(np.zeros(m), np.sqrt(np.arange(1, m) / 2.0))
    return (u * np.array([problem.f(ell * t) for t in theta])) @ u.T


@pytest.mark.parametrize("m", [200, 201, 1200, 1201])
def test_coefficient_matches_dense_eigensolve(m):
    problem = RSProblem(STANDARD, L=12.0, m=m)
    step, coeff = rs_verify._basis_blocks(problem)
    assert np.array_equal(coeff, coeff.T)
    assert np.abs(coeff - _dense_coefficient(problem)).max() <= 1e-13
    assert np.array_equal(step, np.sqrt(np.arange(1, m) / 2.0) / problem.scale)


def _even_switch(t):
    return default_switching(abs(t))


def _odd_switch(t):
    return (default_switching(t) - default_switching(-t)) / 2.0


@pytest.mark.parametrize("m", [200, 201])
def test_coefficient_parity_blocks(m):
    # f(-t) = f(t) exactly leaves no weight between even and odd rows;
    # f(-t) = -f(t) exactly leaves none within them
    assert _even_switch(-0.3) == _even_switch(0.3)
    assert _odd_switch(-0.3) == -_odd_switch(0.3)
    even = rs_verify._basis_blocks(RSProblem(STANDARD, L=12.0, m=m, f=_even_switch))[1]
    assert not even[0::2, 1::2].any() and not even[1::2, 0::2].any()
    assert even[0::2, 0::2].any() and even[1::2, 1::2].any()
    odd = rs_verify._basis_blocks(RSProblem(STANDARD, L=12.0, m=m, f=_odd_switch))[1]
    assert not odd[0::2, 0::2].any() and not odd[1::2, 1::2].any()
    assert odd[0::2, 1::2].any()
    for f, coeff in ((_even_switch, even), (_odd_switch, odd)):
        reference = _dense_coefficient(RSProblem(STANDARD, L=12.0, m=m, f=f))
        assert np.abs(coeff - reference).max() <= 1e-13


def test_basis_blocks_request_no_eigenvectors(monkeypatch):
    calls = []
    solve = sla.eigh_tridiagonal

    def record(*args, **kwargs):
        calls.append(kwargs.get("eigvals_only", False))
        return solve(*args, **kwargs)

    monkeypatch.setattr(sla, "eigh_tridiagonal", record)
    for m in (200, 201):
        rs_verify._basis_blocks(RSProblem(STANDARD, L=12.0, m=m))
    assert calls == [True, True]


@pytest.mark.parametrize("alt", [False, True])
@pytest.mark.parametrize("square", [False, True])
@pytest.mark.parametrize("r,s,seed", [(0, 3, 11), (0, 7, 12), (2, 3, 13)])
def test_factored_kernel_matches_dense_svd(r, s, seed, alt, square):
    # numeric_kernel works on the scalar level matrix; a full SVD of the
    # dense X = kron(level, cell) must give the same window, kernel
    # dimension and kernel
    problem = RSProblem(rotated_irrep(r, s, seed), L=12.0, m=200)
    op = (assemble_rs_operator_alt if alt else assemble_rs_operator)(problem, square=square)
    basis, report = numeric_kernel(op)
    x = np.kron(op.matrix, op.cell)
    u, svals, vt = np.linalg.svd(x)
    right = np.concatenate([svals, np.zeros(x.shape[1] - svals.size)])  # rows of vt
    left = np.concatenate([svals, np.zeros(x.shape[0] - svals.size)])  # columns of u
    k = len(report["smallest_singular_values"])
    window = np.sort(np.concatenate([right, left]))[:k]
    # relative agreement; the exact zeros of a rectangular X are read at
    # the eps * sigma_max floor
    np.testing.assert_allclose(report["smallest_singular_values"], window,
                               rtol=1e-6, atol=1e-12 * svals[0])
    assert report["sigma_max"] == pytest.approx(svals[0], rel=1e-10)
    kdim = split_zero_cluster(window / svals[0], rel_tol=1e-4, gap_ratio=100.0,
                              abs_floor=0.0)
    assert report["kernel_dim"] == kdim
    assert kdim == (0 if square else problem.module.n)
    _assert_dense_kernel(basis, u, svals, vt, window, kdim)


def _assert_dense_kernel(basis, u, svals, vt, window, kdim):
    """The kernel basis spans the right and left null vectors of the dense
    SVD x = u diag(svals) vt below the middle of the gap of the window."""
    right = np.concatenate([svals, np.zeros(vt.shape[0] - svals.size)])
    left = np.concatenate([svals, np.zeros(u.shape[1] - svals.size)])
    cut = (window[kdim - 1] + window[kdim]) / 2.0 if kdim else 0.0
    dense = sla.block_diag(vt[right < cut].T, u[:, left < cut])
    assert dense.shape == basis.shape
    # subspaces of equal dimension: ||P - P_dense|| = ||(I - P_dense) basis||
    assert np.linalg.norm(basis - dense @ (dense.T @ basis), 2) < 1e-8


@pytest.mark.parametrize("r,s,seed,kdim", [(0, 1, 3, 4), (0, 3, 11, 8)])
def test_square_kernel_takes_left_vectors_from_dense_svd(r, s, seed, kdim):
    # at m = 600 the square truncation's bound states and transpose ghosts
    # (near 5.3e-6) fall inside the zero cluster on both sides, so half of
    # the kernel is left null vectors: the one case that solves level level^T
    problem = RSProblem(rotated_irrep(r, s, seed), L=12.0, m=600)
    op = assemble_rs_operator(problem, square=True)
    basis, report = numeric_kernel(op)
    assert report["kernel_dim"] == kdim
    cols = op.matrix.shape[1] * op.cell.shape[0]
    assert np.linalg.matrix_rank(basis[cols:]) == kdim // 2
    x = np.kron(op.matrix, op.cell)
    u, svals, vt = np.linalg.svd(x)
    window = np.sort(np.concatenate([svals, svals]))[:len(report["smallest_singular_values"])]
    np.testing.assert_allclose(report["smallest_singular_values"], window, rtol=1e-6)
    _assert_dense_kernel(basis, u, svals, vt, window, kdim)


def test_kernel_takes_one_gram_and_one_reduction(monkeypatch):
    from scipy.linalg import lapack

    calls = []

    def record(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(rs_verify, "_gram", record("gram", rs_verify._gram))
    monkeypatch.setattr(lapack, "dsytrd", record("dsytrd", lapack.dsytrd))
    monkeypatch.setattr(sla, "eigh", record("eigh", sla.eigh))
    problem = RSProblem(STANDARD, L=12.0, m=300)
    _, report = numeric_kernel(assemble_rs_operator(problem))
    assert report["kernel_dim"] == 2
    assert calls == ["gram", "dsytrd"]
    # the square truncation's left null vectors take the left Gram solve
    calls.clear()
    _, report = numeric_kernel(assemble_rs_operator(problem, square=True))
    assert report["kernel_dim"] == 4
    assert calls == ["gram", "dsytrd", "gram", "eigh"]


def test_kernel_rejects_non_finite_level_matrix():
    # dsytrd checks no input: its tridiagonal is checked before the
    # eigensolves read it
    op = assemble_rs_operator(RSProblem(STANDARD, L=12.0, m=200))
    op.matrix[3, 5] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        numeric_kernel(op)


def test_cells_must_form_one_kronecker_product():
    problem = RSProblem(STANDARD, L=12.0, m=200)
    kwargs = dict(deriv_sign=-1.0, f_new_cell=-cl.L1, bound_sector=+1, square=False)
    with pytest.raises(ValidationError, match="not \\+-1 times"):
        rs_verify._assemble(problem, cell_even=cl.OMEGA_11, cell_deriv=cl.K2, **kwargs)
    with pytest.raises(ValidationError, match="not orthogonal"):
        rs_verify._assemble(problem, cell_even=2.0 * cl.OMEGA_11,
                            cell_deriv=2.0 * cl.K1, **kwargs)


def test_memory_plan_bounds_traced_peak(monkeypatch):
    # the square truncation at m = 600 also takes the left Gram solve
    problem = RSProblem(STANDARD, L=12.0, m=600)
    for square in (False, True):
        planned = []
        monkeypatch.setattr(rs_verify, "check_memory",
                            lambda what, size: planned.append(size))
        tracemalloc.start()
        try:
            numeric_kernel(assemble_rs_operator(problem, square=square))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(planned) == 1
        assert peak <= planned[0]


def test_sigma_max_is_largest_singular_value():
    problem = RSProblem(STANDARD, L=12.0, m=200)
    # the alt and square assemblies change the level matrix; the rotated
    # cells are checked against the dense SVD of
    # test_factored_kernel_matches_dense_svd
    for alt in (False, True):
        for square in (False, True):
            assemble = assemble_rs_operator_alt if alt else assemble_rs_operator
            _, report = numeric_kernel(assemble(problem, square=square))
            ref, _ = reference_operator(STANDARD, 12.0, 200, alt=alt, square=square)
            assert report["sigma_max"] == pytest.approx(sla.svdvals(ref)[0], rel=1e-10)


def test_constant_coefficient_has_no_kernel():
    problem = RSProblem(STANDARD, L=12.0, m=200, f=lambda t: 1.0)
    assert switching_direction(problem) == 0
    basis, report = numeric_kernel(assemble_rs_operator(problem))
    assert report["kernel_dim"] == 0
    report_full = verify_rs(problem)
    assert report_full.kernel_dim == 0
    assert report_full.flow_class.value == 0
    assert report_full.agrees


def test_standard_problem_small():
    problem = RSProblem(STANDARD, L=12.0, m=300)
    report = verify_rs(problem)
    assert report.kernel_dim == 2
    assert report.gap_ratio >= 100.0
    assert (report.kernel_class.degree, report.kernel_class.value) == (2, 1)
    assert report.kernel_class == report.flow_class
    assert report.profile_error < 1e-2


def test_odd_basis_size():
    # an odd m puts a collocation node at zero, its own mirror image
    problem = RSProblem(STANDARD, L=12.0, m=301)
    report = verify_rs(problem)
    assert report.kernel_dim == 2
    assert report.agrees
    assert report.profile_error < 1e-2
    alt = verify_rs(problem, assemble=assemble_rs_operator_alt)
    assert alt.kernel_dim == 2
    assert alt.agrees
    assert alt.profile_error < 1e-2


def test_doubled_module_kernel():
    double = cl.direct_sum(STANDARD, STANDARD)
    report = verify_rs(RSProblem(double, L=12.0, m=300))
    assert report.kernel_dim == 4
    assert report.kernel_class.value == 0 == report.flow_class.value
    assert report.agrees


def test_degree_zero_module():
    module = cl.irreducible_rep(2, 1, "+")
    report = verify_rs(RSProblem(module, L=12.0, m=300))
    assert report.kernel_dim == module.n
    assert report.kernel_class.group.value == "Z"
    assert report.kernel_class.value == 1
    assert report.agrees


def test_alternative_normalization_same_class():
    problem = RSProblem(STANDARD, L=12.0, m=300)
    main = verify_rs(problem)
    alt = verify_rs(problem, assemble=assemble_rs_operator_alt)
    assert alt.kernel_dim == main.kernel_dim
    assert alt.kernel_class == main.kernel_class
    assert alt.flow_class == main.flow_class


def test_convergence_study():
    rows = convergence_study(STANDARD, 12.0, [300, 600])
    assert [row["m"] for row in rows] == [300, 600]
    # the square truncation pairs bound states with transpose ghosts
    assert all(row["kernel_dim"] == 2 * STANDARD.n for row in rows)
    assert rows[1]["zero_cluster_max"] < rows[0]["zero_cluster_max"] / 3.0
    # two copies of the bound state and of its ghost: the cluster top is
    # the second smallest singular value of the block
    for row in rows:
        ref, cols = reference_operator(STANDARD, 12.0, row["m"], square=True)
        svals = np.sort(sla.svdvals(ref[cols:, :cols]))
        assert row["zero_cluster_max"] == pytest.approx(svals[1], rel=1e-6)
        assert row["first_nonzero"] == pytest.approx(svals[2], rel=1e-6)


def test_analytic_profile_orthonormal():
    problem = RSProblem(STANDARD, L=12.0, m=300)
    op = assemble_rs_operator(problem)
    profiles = analytic_profiles(problem, op)
    gram = profiles.T @ profiles
    assert np.allclose(np.diag(gram), 1.0)
    with pytest.raises(ValidationError):
        analytic_profiles(RSProblem(STANDARD, L=12.0, m=300, f=lambda t: 1.0), op)


def test_analytic_profiles_never_hold_the_whole_hermite_table():
    # the quadrature is projected block by block: the traced peak stays
    # below half of the (4001 points, m) table that one projection would hold
    problem = RSProblem(STANDARD, L=12.0, m=1200)
    op = assemble_rs_operator(problem)
    tracemalloc.start()
    try:
        analytic_profiles(problem, op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4001 * problem.m * 8 / 2


def test_memory_guard():
    big = cl.irreducible_rep(0, 7)
    with pytest.raises(ValidationError):
        RSProblem(big, L=12.0, m=70000)
        assemble_rs_operator(RSProblem(big, L=12.0, m=70000))


def _column_hermite_reference(m, points):
    """The Hermite recurrence written on the columns of a (points, m)
    array."""
    phi = np.zeros((points.size, m))
    phi[:, 0] = np.pi ** -0.25 * np.exp(-points ** 2 / 2.0)
    if m > 1:
        phi[:, 1] = np.sqrt(2.0) * points * phi[:, 0]
    for n in range(1, m - 1):
        phi[:, n + 1] = (points * np.sqrt(2.0 / (n + 1)) * phi[:, n]
                         - np.sqrt(n / (n + 1.0)) * phi[:, n - 1])
    return phi


@pytest.mark.parametrize("m", [300, 1200])
def test_hermite_values_match_column_recurrence(m):
    points = np.linspace(-40.0, 40.0, 4001)
    phi = rs_verify.hermite_values(m, points)
    assert phi.shape == (points.size, m) and phi.flags.c_contiguous
    assert np.array_equal(phi, _column_hermite_reference(m, points))


@pytest.mark.parametrize("m", [300, 1200])
def test_hermite_projection_matches_the_table(m):
    # the streamed projection of analytic_profiles equals the product with
    # the whole (points, m) table of hermite_values, to rounding
    points = np.linspace(-60.0, 60.0, 4001)
    weights = (points[1] - points[0]) * np.exp(-np.abs(points - 1.0)) \
        * (1.5 + np.sin(points))
    streamed = rs_verify.hermite_projection(m, points, weights)
    table = rs_verify.hermite_values(m, points).T @ weights
    assert np.linalg.norm(streamed - table) <= 1e-14 * np.linalg.norm(table)
