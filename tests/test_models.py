import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koflow import clifford as cl
from koflow import flow, models
from koflow.abs_index import abs_class
from koflow.errors import ValidationError
from koflow.flow import (SkewPath, classical_sf, complete_phase, endpoint_flow,
                         spectral_flow)
from koflow.models import (BLOCK_NODE_ARRAYS, BLOCK_SVD_WORKSPACE_ARRAYS,
                           NODE_ARRAYS, SVD_WORKSPACE_ARRAYS, RealStructure,
                           aii_path, flux_path, hermitian_double, kitaev_path,
                           realify, standard_quaternionic)
from koflow.numerics import op_norm, random_orthogonal
from koflow.pairs import ComplexStructure, OddStructure

from conftest import (KITAEV_B, MAJORANA_SITE, complex_kitaev,
                      kitaev_seam_correction, pf_sign, rotated_irrep)


def test_realify_examples():
    rs = RealStructure(2, np.eye(2))
    i_sigma_y = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    assert np.allclose(realify(rs, i_sigma_y), [[0.0, 1.0], [-1.0, 0.0]])
    assert np.allclose(realify(rs, np.eye(2)), np.eye(2))
    i_sigma_x = 1j * np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValidationError):
        realify(rs, i_sigma_x)


def _c_commuting(rng, m):
    raw = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
    return raw + m @ raw.conj() @ m  # averaged onto the commutant of C


def _structures():
    q = random_orthogonal(np.random.default_rng(6), 6)
    return [np.kron(np.eye(3), cl.K2)] + [
        q @ np.diag(signs) @ q.T
        for signs in ([1.0] * 6, [-1.0] * 6, [1.0, -1.0, 1.0, 1.0, 1.0, -1.0])]


def test_realify_is_algebra_map():
    rng = np.random.default_rng(2)
    for m in _structures():
        rs = RealStructure(6, m)
        basis = rs.basis
        gram = basis.conj().T @ basis
        assert np.allclose(gram.real, np.eye(6), atol=1e-12)
        assert np.allclose(gram.imag, 0.0, atol=1e-12)
        fixed = m @ basis.conj()  # C applied to each column
        assert np.allclose(fixed.real, basis.real, atol=1e-12)
        assert np.allclose(fixed.imag, basis.imag, atol=1e-12)
        a, b = _c_commuting(rng, m), _c_commuting(rng, m)
        assert np.allclose(realify(rs, a @ b), realify(rs, a) @ realify(rs, b),
                           atol=1e-10)


def _realify_direct(w, a):
    """Reference realification: w^H A w in complex arithmetic, for a
    basis w of the fixed subspace of C."""
    return w.conj().T @ a @ w


def _eigh_basis(m):
    """The fixed-subspace basis V Phi that `RealStructure` reads off
    eigh(M): Phi = 1 on the +1 eigenvectors of M, i on the -1 ones."""
    vals, vecs = np.linalg.eigh(m)
    return vecs * np.where(vals > 0.0, 1.0, 1j)


@pytest.mark.parametrize("n_ring", [3, 8, 64])
def test_kitaev_samples_match_dense_reference(n_ring):
    # the builder writes i H_alpha in the Majorana basis W = I_N (x) W_site
    w = np.kron(np.eye(n_ring), MAJORANA_SITE)
    path = kitaev_path(n_ring)
    for alpha in (0.0, 0.3, 0.5, 0.77, 1.0):
        reference = _realify_direct(w, 1j * complex_kitaev(n_ring, alpha))
        assert np.abs(reference.imag).max() <= 1e-14
        assert np.abs(path.at(alpha) - reference.real).max() <= 1e-14


@pytest.mark.parametrize("n_ring", [3, 8, 64])
def test_kitaev_samples_are_realify_up_to_signed_permutation(n_ring):
    # realify's basis eigh(M) Phi and the Majorana basis W span the same
    # real subspace; P = W^H eigh(M) Phi is a signed permutation, and
    # realify(i H_alpha) = P^T sample P
    m = np.kron(np.eye(n_ring), cl.K2)
    rs = RealStructure(2 * n_ring, m)
    p = np.kron(np.eye(n_ring), MAJORANA_SITE).conj().T @ _eigh_basis(m)
    assert np.abs(p.imag).max() <= 1e-15
    p = p.real
    assert np.allclose(np.abs(p), np.abs(p).round(), atol=1e-15)
    assert np.array_equal(np.abs(p).round().sum(axis=0), np.ones(2 * n_ring))
    assert np.array_equal(np.abs(p).round().sum(axis=1), np.ones(2 * n_ring))
    path = kitaev_path(n_ring)
    for alpha in (0.0, 0.3, 0.5, 0.77, 1.0):
        h_alpha = complex_kitaev(n_ring, alpha)
        realified = realify(rs, 1j * h_alpha)
        assert np.abs(realified - p.T @ path.at(alpha) @ p).max() <= 1e-14


def test_realify_reports_the_commutation_residual():
    rng = np.random.default_rng(11)
    for m in _structures():
        rs = RealStructure(6, m)
        for _ in range(50):
            a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            r = m @ a.conj() @ m - a
            expected = f"{np.hypot(op_norm(r.real), op_norm(r.imag)):.3e}"
            with pytest.raises(ValidationError) as err:
                realify(rs, a)
            assert str(err.value) == (
                "operator does not commute with the real structure "
                f"(residual {expected})")


def test_realify_rejects_a_wrong_shape():
    rs = RealStructure(4, np.kron(cl.K2, np.eye(2)))
    with pytest.raises(ValidationError, match=r"shape \(3, 3\), expected \(4, 4\)"):
        realify(rs, np.eye(3))


def test_kitaev_node_runs_no_complex_matmul(monkeypatch):
    # building the N = 256 ring and sampling and splitting the 17 nodes of
    # the default flow makes only float64 samples, calls no realify and
    # takes no eigh: the grading is a sign vector, taken by index
    eighs = []
    eigh = np.linalg.eigh

    def counted_eigh(mat, *args, **kwargs):
        eighs.append(mat.shape)
        return eigh(mat, *args, **kwargs)

    def no_realify(*args, **kwargs):
        raise AssertionError("realify was called")

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(models, "realify", no_realify)
    path = kitaev_path(256)
    for t in np.linspace(0.0, 1.0, flow.INITIAL_SEGMENTS + 1):
        # the 17 nodes of the default flow, all accepted for Kitaev
        assert path.fn(t).dtype == np.float64
        complete_phase(path.at(t), path.context, path.grading)
    assert eighs == []
    np.testing.assert_array_equal(path.grading.signs, np.tile([1, 1, -1, -1], 128))


@settings(max_examples=25)
@given(signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=1, max_size=7),
       seed=st.integers(0, 2**32 - 1))
def test_realify_is_star_algebra_map(signs, seed):
    rng = np.random.default_rng(seed)
    n = len(signs)
    q = random_orthogonal(rng, n)
    m = q @ np.diag(signs) @ q.T
    rs = RealStructure(n, m)
    a, b = _c_commuting(rng, m), _c_commuting(rng, m)
    ra, rb = realify(rs, a), realify(rs, b)
    assert np.allclose(realify(rs, a @ b), ra @ rb, atol=1e-10)
    assert np.allclose(realify(rs, a.conj().T), ra.T, atol=1e-12)
    assert np.allclose(realify(rs, np.eye(n)), np.eye(n), atol=1e-12)


def test_kitaev_endpoint_spectra():
    for n_ring in (3, 8):
        path = kitaev_path(n_ring)
        for t_end in (0.0, 1.0):
            svals = np.linalg.svd(path.at(t_end), compute_uv=False)
            assert np.allclose(svals, 1.0, atol=1e-12)


def test_kitaev_alpha_one_is_flipped_bond():
    # alpha = 1 equals the chain with the (0,1) bond block negated
    assert np.allclose(KITAEV_B + kitaev_seam_correction(1.0), -KITAEV_B)
    assert np.allclose(kitaev_seam_correction(0.0), 0.0)
    path = kitaev_path(5)
    flipped = path.at(0.0)
    flipped[2:4, 0:2] *= -1.0
    flipped[0:2, 2:4] *= -1.0
    assert np.allclose(path.at(1.0), flipped, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("n_ring", list(range(3, 17)) + list(range(18, 65, 2)))
def test_kitaev_flow_is_one(n_ring):
    """Even rings take the block route; the dense route on the ungraded
    copy, the endpoint flow and the Pfaffian signs must agree with it."""
    path = kitaev_path(n_ring)
    kind = OddStructure if n_ring % 2 == 0 else ComplexStructure
    assert type(complete_phase(path.at(0.5), path.context, path.grading)) is kind
    value = spectral_flow(path)
    assert (value.degree, value.value) == (2, 1)
    assert endpoint_flow(path) == spectral_flow(SkewPath(path.context, path.fn)) == value
    assert pf_sign(path.at(0.0)) == -pf_sign(path.at(1.0)) != 0


def _walk_peak_arrays(path):
    """tracemalloc peak of spectral_flow(path), in n x n arrays; the path's
    own arrays are counted apart by the guard, so it is built before
    tracing starts."""
    tracemalloc.start()
    try:
        spectral_flow(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (8 * path.context.n ** 2)


def test_kitaev_flow_peak_within_node_arrays():
    # the lattice memory guard counts NODE_ARRAYS n x n arrays for the
    # dense walk (odd rings) and BLOCK_NODE_ARRAYS for the block route
    # (even rings); the walk must not hold more
    assert kitaev_path(63).grading is None
    assert _walk_peak_arrays(kitaev_path(63)) <= NODE_ARRAYS
    assert _walk_peak_arrays(kitaev_path(64)) <= BLOCK_NODE_ARRAYS


def test_flux_cl01_flow_peak_within_block_node_arrays():
    path = flux_path(cl.irreducible_rep(0, 1), 64)
    assert path.grading is not None and (path.context.r, path.context.s) == (0, 0)
    assert _walk_peak_arrays(path) <= BLOCK_NODE_ARRAYS


def test_lattice_memory_guard_counts_the_route(monkeypatch):
    # even rings and Cl_{0,1} cells are counted at the block route's
    # arrays, odd rings and larger cells at the dense walk's
    planned = []
    monkeypatch.setattr(models, "check_memory", lambda what, nbytes: planned.append(nbytes))
    dense = NODE_ARRAYS + SVD_WORKSPACE_ARRAYS
    block = BLOCK_NODE_ARRAYS + BLOCK_SVD_WORKSPACE_ARRAYS
    assert block < dense
    for n_ring, arrays in ((4, block), (5, dense), (64, block), (63, dense)):
        kitaev_path(n_ring)
        assert planned.pop() == 8 * (1 + arrays) * (2 * n_ring) ** 2
    flux_path(cl.irreducible_rep(0, 1), 6)
    assert planned.pop() == 8 * (3 * 36 + block * 12 ** 2)
    flux_path(cl.irreducible_rep(0, 2), 6)
    assert planned.pop() == 8 * (3 * 36 + (1 + dense) * 24 ** 2)


def _lattice_path(name):
    if name.startswith("kitaev"):
        return kitaev_path(int(name.split("-N")[1]))
    s, n_ring = {"flux-cl01": (1, 5), "flux-cl03": (3, 4), "flux-cl07": (7, 3)}[name]
    return flux_path(rotated_irrep(0, s, seed=s), n_ring)


@pytest.mark.parametrize("name", ["kitaev-N4", "kitaev-N8", "kitaev-N64", "kitaev-N9",
                                  "flux-cl01", "flux-cl03", "flux-cl07"])
def test_graded_flow_matches_ungraded_and_endpoint(name):
    # even rings and every flux cell carry a grading, odd rings none; the
    # half-size node SVD leaves the class where the dense route puts it
    path = _lattice_path(name)
    assert (path.grading is None) == (name == "kitaev-N9")
    ungraded = SkewPath(path.context, path.fn)
    assert spectral_flow(path) == spectral_flow(ungraded) == endpoint_flow(path)


def test_kitaev_nodes_decompose_half_blocks(monkeypatch):
    # Kitaev N = 8 acts on R^16; graded, every node SVD and every pair
    # kernel SVD is of an 8 x 8 block, ungraded every one is 16 x 16
    svd = np.linalg.svd
    shapes, pair_shapes, in_pair = [], [], []

    def counted(mat, *args, **kwargs):
        (pair_shapes if in_pair else shapes).append(mat.shape)
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
    path = kitaev_path(8)
    for p in (path, SkewPath(path.context, path.fn)):
        shapes.clear()
        pair_shapes.clear()
        assert spectral_flow(p).value == 1
        size = (8, 8) if p.grading else (16, 16)
        nodes = [shape for shape in shapes if shape[0] >= 8]
        pairs = [shape for shape in pair_shapes if shape[0] >= 8]
        assert len(nodes) >= 17 and len(pairs) >= 1
        assert set(nodes) == set(pairs) == {size}


@pytest.mark.parametrize("s,n_ring", [(3, 4), (7, 3)])
def test_flux_paths_with_a_context_keep_dense_phases(monkeypatch, s, n_ring):
    # the rotated Cl_{0,3} and Cl_{0,7} cells leave a nonempty context:
    # their graded paths split nodes by the half-size SVD but complete and
    # pair n x n phases
    path = flux_path(rotated_irrep(0, s, seed=s), n_ring)
    assert path.grading is not None and path.context.s > 0
    phases = []
    complete = flow.complete_phase

    def recorded(*args, **kwargs):
        phases.append(complete(*args, **kwargs))
        return phases[-1]

    monkeypatch.setattr(flow, "complete_phase", recorded)
    spectral_flow(path)
    n = path.context.n
    assert len(phases) >= 17
    assert all(type(j) is ComplexStructure and j.J.shape == (n, n) for j in phases)


def test_kitaev_rejects_other_couplings():
    with pytest.raises(ValidationError):
        kitaev_path(2)


@pytest.mark.parametrize("r,sp", [(0, 1), (0, 2), (1, 1), (2, 1), (0, 3),
                                  (1, 2), (2, 2), (3, 1), (0, 4), (1, 3),
                                  (4, 1), (3, 2), (2, 3), (1, 4), (0, 5)])
def test_flux_path_reproduces_class(r, sp):
    chis = ["+", "-"] if cl.has_two_irreducibles(r, sp) else [None]
    for ch in chis:
        module = cl.irreducible_rep(r, sp, ch)
        path = flux_path(module, 3)
        assert spectral_flow(path) == abs_class(module)


@pytest.mark.parametrize("r,sp,seed", [(0, 1, 0), (1, 2, 1), (0, 3, 2), (2, 3, 3),
                                       (0, 7, 7)])
def test_flux_samples_anticommute_with_sign_grading(r, sp, seed):
    # in the Schur frame of F_{s+1} the grading is diag(1, -1, 1, -1, ...)
    path = flux_path(rotated_irrep(r, sp, seed=seed), 4)
    signs = path.grading.signs
    np.testing.assert_array_equal(signs, np.tile([1, -1], path.context.n // 2))
    for t in (0.0, 0.3, 0.5, 1.0):
        t_mat = path.at(t)
        assert op_norm(signs[:, None] * t_mat + t_mat * signs) <= 1e-12


def test_flux_double_module_vanishes_mod2():
    module = cl.irreducible_rep(0, 1)
    double = cl.direct_sum(module, module)
    assert spectral_flow(flux_path(double, 3)).value == 0


def test_flux_independent_of_ring_length():
    module = cl.irreducible_rep(0, 3, "+")
    values = {n_ring: spectral_flow(flux_path(module, n_ring)).value
              for n_ring in (3, 5, 8)}
    assert set(values.values()) == {1}


def _dense_copy(path):
    """The same samples over a copy of the context with copies = 1."""
    ctx = path.context
    return SkewPath(cl.CliffordRep(ctx.r, ctx.s, ctx.n, E=ctx.E, F=ctx.F), path.fn)


def _count_generator_products(ctx):
    """Swap the generators and cells of `ctx` for views that record every
    matmul taking an n x n one as an operand; returns the record."""
    calls = []

    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and any(
                    isinstance(x, Counted) and x.shape == (ctx.n, ctx.n) for x in inputs):
                calls.append(ufunc)
            return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

    for name in ("E", "F", "cells"):
        object.__setattr__(ctx, name, tuple(g.view(Counted) for g in getattr(ctx, name)))
    return calls


def test_flux_node_makes_no_dense_generator_product():
    path = flux_path(rotated_irrep(0, 7, seed=7), 12)
    dense = _dense_copy(path)
    counts = []
    for p in (path, dense):
        calls = _count_generator_products(p.context)
        # one flow node: SkewPath.at, complete_phase and its ComplexStructure
        complete_phase(p.at(0.25), p.context)
        counts.append(len(calls))
    assert counts[0] == 0 and counts[1] > 0


@pytest.mark.parametrize("s,chirality", [(1, None), (3, "+"), (3, "-"), (7, None)])
def test_tiled_flux_class_matches_dense_context(s, chirality):
    module = rotated_irrep(0, s, seed=s, chirality=chirality)
    path = flux_path(module, 5)
    assert path.context.copies == 5
    assert spectral_flow(path) == spectral_flow(_dense_copy(path)) == abs_class(module)


def test_aii_quarter_relation():
    cases = [
        (lambda t: (2 * t - 1.0) * np.eye(4), 4, 8),
        (lambda t: np.eye(4), 4, 0),
        (lambda t: np.kron(np.eye(2), np.diag([2 * t - 1.0, 2 * t - 1.0, 1.0, 1.0])), 8, 8),
    ]
    for h_fn, n, expected_classical in cases:
        path = aii_path(h_fn, n)
        value = spectral_flow(path)
        classical = classical_sf(lambda t: hermitian_double(h_fn(t)))
        assert classical == expected_classical
        assert value.degree == 4
        assert 4 * value.value == classical


def test_aii_samples_match_block_diag_reference():
    # the Nambu block -H (+) conj H is placed with numpy; a scipy
    # block_diag reference must give the same samples bit for bit
    from scipy.linalg import block_diag

    n = 4
    jq = np.kron(cl.L1, np.eye(n // 2))
    rng = np.random.default_rng(5)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = a + a.conj().T
    base = (a + jq @ a.conj() @ jq.T) / 2.0  # commutes with T = jq conj

    def h_complex(t):
        return base + (2.0 * t - 1.0) * np.eye(n)

    path = aii_path(h_complex, n)
    rs = RealStructure(2 * n, np.kron(cl.K2, np.eye(n)))
    for t in (0.0, 0.3, 0.5, 1.0):
        h = h_complex(t)
        nambu = block_diag(-h, h.conj())
        assert np.any(h.imag != 0.0)
        assert np.array_equal(path.at(t), realify(rs, 1j * nambu))


def test_aii_real_and_complex_samples_agree():
    # a real h_fn and the same family as complex arrays give the same
    # samples bit for bit, on the same context
    def h_real(t):
        return np.kron(np.eye(2), np.diag([2 * t - 1.0, 2 * t - 1.0, 1.0, 1.0]))

    real_path = aii_path(h_real, 8)
    complex_path = aii_path(lambda t: h_real(t).astype(complex), 8)
    for g_real, g_complex in zip(real_path.context.F, complex_path.context.F):
        assert np.array_equal(g_real, g_complex)
    for t in (0.0, 0.3, 0.5, 1.0):
        sample = real_path.at(t)
        assert sample.dtype == np.float64
        assert np.array_equal(sample, complex_path.at(t))


def test_aii_kernel_dims_divisible_by_four():
    h_fn = (lambda t: (2 * t - 1.0) * np.eye(4))
    path = aii_path(h_fn, 4)
    svals = np.linalg.svd(path.at(0.5), compute_uv=False)
    kdim = int(np.sum(svals < 1e-10))
    assert kdim > 0 and kdim % 4 == 0


def test_aii_rejects_symmetry_violations():
    # breaks [h, T] = 0 for the standard quaternionic structure
    bad = lambda t: np.diag([1.0, 1.0, 1.0, -1.0])
    path = aii_path(bad, 4)
    with pytest.raises(ValidationError):
        path.at(0.0)


def test_aii_rejects_a_wrong_sample_shape():
    path = aii_path(lambda t: np.eye(3), 4)
    with pytest.raises(ValidationError, match=r"shape \(3, 3\), expected \(4, 4\)"):
        path.at(0.0)


def test_standard_quaternionic_squares_to_minus_one():
    jq = standard_quaternionic(6)
    t_sq = jq @ jq.conj()
    assert np.allclose(t_sq.real, -np.eye(6)) and np.allclose(t_sq.imag, 0.0)
    with pytest.raises(ValidationError):
        standard_quaternionic(3)
