import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koflow import clifford as cl
from koflow import flow, models
from koflow.abs_index import abs_class
from koflow.errors import ValidationError
from koflow.flow import (EIGH_WORKSPACE_ARRAYS, NODE_ARRAYS, REDUCED_NODE_ARRAYS,
                         SPLIT_SVD_WORKSPACE_ARRAYS, STACK_NODE_ARRAYS, SVD_WORKSPACE_ARRAYS,
                         SkewPath, classical_sf, complete_phase, endpoint_flow,
                         spectral_flow, stacked_nodes)
from koflow.models import (RealStructure, aii_path, flux_path, hermitian_double,
                           kitaev_path, realify, standard_quaternionic)
from koflow.numerics import Grading, op_norm, random_orthogonal
from koflow.pairs import ComplexStructure, ReducedStructure, Reduction, reduced_route

from conftest import (KITAEV_B, MAJORANA_SITE, complex_kitaev, kitaev_seam_correction,
                      matrix_shapes, pf_sign, rotated_irrep, undeclared)


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
    # the default flow makes only float64 coefficients, calls no realify
    # and takes no eigh: the grading is a sign vector, taken by index
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
        complete_phase(path.coefficient(t), path.context, reduction=path.reduction)
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
    """Even rings take the split reduced route; the dense route on the
    same samples with no reduction declared, graded and not, the endpoint
    flow and the Pfaffian signs must agree with it."""
    path = kitaev_path(n_ring)
    phase = flow._node(path, 0.5)
    if n_ring % 2 == 0:
        assert type(phase) is ReducedStructure and path.reduction.kind == "split"
        assert phase.S.shape == (n_ring, n_ring)
        assert spectral_flow(undeclared(path)) == spectral_flow(path)
    else:
        assert type(phase) is ComplexStructure and path.reduction is None
    value = spectral_flow(path)
    assert (value.degree, value.value) == (2, 1)
    assert endpoint_flow(path) == spectral_flow(undeclared(path, graded=False)) == value
    assert pf_sign(path.at(0.0)) == -pf_sign(path.at(1.0)) != 0


def test_kitaev_coefficient_is_the_sector_block():
    # the closed-form coefficient of an even ring is the block T[minus, plus]
    # of the site-ordered sample, odd sites by even sites, bit for bit
    for n_ring in (4, 6, 64):
        path = kitaev_path(n_ring)
        minus, plus = path.grading.sectors()
        assert np.array_equal(minus % 4 >= 2, np.ones(n_ring, dtype=bool))
        for alpha in (0.0, 0.3, 1.0):
            sample = path.at(alpha)
            np.testing.assert_array_equal(sample[np.ix_(minus, plus)], path.fn(alpha))
            np.testing.assert_array_equal(sample, -sample.T)


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


def _stack_arrays(size):
    """size x size arrays that the guard counts for a stack of initial
    nodes: STACK_NODE_ARRAYS for each node when a stack holds more than
    one, none for the walk one node at a time."""
    nodes = stacked_nodes(size)
    return STACK_NODE_ARRAYS * nodes if nodes > 1 else 0


def _planned_reduced_bytes(path):
    """The guard's plan of a reduced walk, less its LAPACK workspace:
    REDUCED_NODE_ARRAYS N x N arrays and one lifted pair kernel column,
    r + s + 4 arrays of n x c, and the N x N arrays of a stack of initial
    nodes."""
    n, n_coef = path.context.n, path.context.copies
    ctx_gens = path.context.r + path.context.s
    return 8 * ((REDUCED_NODE_ARRAYS + _stack_arrays(n_coef)) * n_coef ** 2
                + (ctx_gens + 4) * n * (n // n_coef))


def test_kitaev_flow_peak_within_node_arrays():
    # the lattice memory guard counts NODE_ARRAYS n x n arrays for the
    # dense walk (odd rings) and the reduced route's N x N arrays for the
    # split walk (even rings), each with the arrays of a stack of initial
    # nodes (5 at N = 64; none at n = 126 and N = 256, which walk one node
    # at a time); the walk must not hold more
    assert kitaev_path(63).grading is None
    assert (stacked_nodes(126), stacked_nodes(64), stacked_nodes(256)) == (1, 5, 1)
    assert _walk_peak_arrays(kitaev_path(63)) <= NODE_ARRAYS + _stack_arrays(126)
    for n_ring in (64, 256):
        path = kitaev_path(n_ring)
        peak = _walk_peak_arrays(path) * 8 * path.context.n ** 2
        assert peak <= _planned_reduced_bytes(path), (n_ring, peak)


def test_flux_cl01_flow_peak_within_reduced_node_arrays():
    for module, n_ring in ((cl.irreducible_rep(0, 1), 64), (cl.irreducible_rep(1, 1), 256),
                           (cl.irreducible_rep(0, 8), 48)):
        path = flux_path(module, n_ring)
        assert path.reduction.kind == "split"
        peak = _walk_peak_arrays(path) * 8 * path.context.n ** 2
        assert peak <= _planned_reduced_bytes(path), (module.r, module.s, peak)


def test_lattice_memory_guard_counts_the_route(monkeypatch):
    # even rings and split cells are counted at the split route's N x N
    # arrays, odd rings and dense cells at the dense walk's
    planned = []
    monkeypatch.setattr(models, "check_memory", lambda what, nbytes: planned.append(nbytes))
    dense = NODE_ARRAYS + SVD_WORKSPACE_ARRAYS
    split = REDUCED_NODE_ARRAYS + SPLIT_SVD_WORKSPACE_ARRAYS
    # a stack of all 15 interior nodes of the initial partition, of 5 of
    # them at size 64, and none at size 126, walked one node at a time
    full, five = STACK_NODE_ARRAYS * 15, STACK_NODE_ARRAYS * 5
    # the even ring: its N x N flux-free block, the walk's N x N arrays and
    # SVD workspace, one lifted pair kernel column, 4 arrays of 2N x 2, and
    # the N x N arrays of a stack
    for n_ring, stack in ((4, full), (64, five)):
        kitaev_path(n_ring)
        assert planned.pop() == 8 * ((1 + split + stack) * n_ring ** 2 + 4 * 2 * n_ring * 2)
    for n_ring, stack in ((5, full), (63, 0)):
        kitaev_path(n_ring)
        assert planned.pop() == 8 * (1 + dense + stack) * (2 * n_ring) ** 2
    assert 8 * (1 + split) * 64 ** 2 < 8 * (1 + dense) * 128 ** 2 / 3
    flux_path(cl.irreducible_rep(0, 1), 6)  # empty context, c = 2, n = 12
    assert planned.pop() == 8 * (3 * 36 + (split + full) * 36 + 4 * 12 * 2)
    flux_path(cl.irreducible_rep(0, 8), 6)  # Cl_{0,7} context, c = 16, n = 96
    assert planned.pop() == 8 * (3 * 36 + (split + full) * 36 + 11 * 96 * 16)
    # the tiled context holds its c x c cells alone: no n x n term for it
    flux_path(cl.irreducible_rep(0, 2), 6)
    assert planned.pop() == 8 * (3 * 36 + (dense + full) * 24 ** 2)
    # real-type cells take the reduced route: N x N arrays for the walk and
    # its eigendecomposition workspace, and one lifted pair kernel column
    reduced = REDUCED_NODE_ARRAYS + EIGH_WORKSPACE_ARRAYS
    assert reduced < split
    flux_path(cl.irreducible_rep(0, 7), 6)  # Cl_{0,6} context, c = 8, n = 48
    assert planned.pop() == 8 * (3 * 36 + (reduced + full) * 36 + 10 * 48 * 8)
    flux_path(cl.irreducible_rep(2, 1), 6)  # Cl_{2,0} context, c = 2, n = 12
    assert planned.pop() == 8 * (3 * 36 + (reduced + full) * 36 + 6 * 12 * 2)
    # N = 256 walks one node at a time: no stack is counted
    kitaev_path(256)
    assert planned.pop() == 8 * ((1 + split) * 256 ** 2 + 4 * 2 * 256 * 2)


def _lattice_path(name):
    if name.startswith("kitaev"):
        return kitaev_path(int(name.split("-N")[1]))
    s, n_ring = {"flux-cl01": (1, 5), "flux-cl03": (3, 4), "flux-cl07": (7, 3)}[name]
    return flux_path(rotated_irrep(0, s, seed=s), n_ring)


@pytest.mark.parametrize("name", ["kitaev-N4", "kitaev-N8", "kitaev-N64", "kitaev-N9",
                                  "flux-cl01", "flux-cl03", "flux-cl07"])
def test_graded_flow_matches_ungraded_and_endpoint(name):
    # even rings and every flux cell carry a grading, odd rings none; the
    # half-size node SVD and the reduced routes leave the class where the
    # dense route puts it
    path = _lattice_path(name)
    assert (path.grading is None) == (name == "kitaev-N9")
    ungraded = SkewPath(path.context, _dense_fn(path))
    assert spectral_flow(path) == spectral_flow(ungraded) == endpoint_flow(path)


def test_kitaev_nodes_decompose_half_blocks(monkeypatch):
    # Kitaev N = 8 acts on R^16; reduced, every node SVD and every pair
    # kernel SVD is of an 8 x 8 block, undeclared and ungraded every one is
    # 16 x 16
    svd = np.linalg.svd
    shapes, pair_shapes, in_pair = [], [], []

    def counted(mat, *args, **kwargs):
        (pair_shapes if in_pair else shapes).extend(matrix_shapes(mat))
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
    for p in (path, undeclared(path, graded=False)):
        shapes.clear()
        pair_shapes.clear()
        assert spectral_flow(p).value == 1
        size = (8, 8) if p.grading else (16, 16)
        nodes = [shape for shape in shapes if shape[0] >= 8]
        pairs = [shape for shape in pair_shapes if shape[0] >= 8]
        assert len(nodes) >= 17 and len(pairs) >= 1
        assert set(nodes) == set(pairs) == {size}


def _recorded_phases(monkeypatch):
    """Record every phase that flow.complete_phases returns (the walk's
    stacks of initial nodes, and complete_phase as the stack of one)."""
    phases = []
    complete = flow.complete_phases

    def recorded(*args, **kwargs):
        out = complete(*args, **kwargs)
        phases.extend(out)
        return out

    monkeypatch.setattr(flow, "complete_phases", recorded)
    return phases


@pytest.mark.parametrize("s,n_ring", [(3, 4)])
def test_flux_paths_with_a_context_keep_dense_phases(monkeypatch, s, n_ring):
    # the rotated Cl_{0,3} cell leaves a nonempty context: its graded path
    # splits nodes by the half-size SVD but completes and pairs n x n phases
    path = flux_path(rotated_irrep(0, s, seed=s), n_ring)
    assert path.grading is not None and path.context.s > 0
    phases = _recorded_phases(monkeypatch)
    spectral_flow(path)
    n = path.context.n
    assert len(phases) >= 17
    assert all(type(j) is ComplexStructure and j.J.shape == (n, n) for j in phases)


def test_reduced_flux_paths_keep_reduced_phases(monkeypatch):
    # the rotated Cl_{0,7} cell leaves a context whose anticommutant is
    # one-dimensional: its graded path is reduced, and every phase is
    # held as the N x N involution S of S (x) b
    path = flux_path(rotated_irrep(0, 7, seed=7), 3)
    assert path.grading is not None and path.context.s > 0
    assert path.reduction is not None
    phases = _recorded_phases(monkeypatch)
    spectral_flow(path)
    assert len(phases) >= 17
    assert all(type(j) is ReducedStructure and j.S.shape == (3, 3) for j in phases)


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


# every cell with r + s <= 7 that takes the non-split branch of flux_path,
# in each chirality
_COMPLEX_FRAME_CELLS = [
    (r, sp, ch) for r in range(8) for sp in range(1, 8 - r)
    if reduced_route(r, sp - 1, cl.irreducible_dimension(r, sp)) != "split"
    for ch in (["+", "-"] if cl.has_two_irreducibles(r, sp) else [None])]


@pytest.mark.parametrize("r,sp,ch", _COMPLEX_FRAME_CELLS)
def test_complex_frame_puts_f_in_canonical_blocks(r, sp, ch):
    # the (x, F x) frame is orthogonal to rounding and takes F_{s+1} to
    # (+) [[0, -1], [1, 0]], in the canonical irreducible and in a seeded
    # frame of it, and the flux path keeps the module's class
    for module in (cl.irreducible_rep(r, sp, ch),
                   rotated_irrep(r, sp, seed=8 * r + sp, chirality=ch)):
        f = module.F[-1]
        z = models._complex_frame(f)
        c = module.n
        assert op_norm(z.T @ z - np.eye(c)) <= 1e-13
        assert op_norm(z.T @ f @ z - np.kron(np.eye(c // 2), cl.L1)) <= 1e-10
        for n_ring in (3, 4):
            assert spectral_flow(flux_path(module, n_ring)) == abs_class(module)


@pytest.mark.parametrize("r,sp,seed", [(0, 1, 0), (1, 2, 1), (0, 3, 2), (2, 3, 3),
                                       (0, 7, 7)])
def test_flux_samples_anticommute_with_sign_grading(r, sp, seed):
    # in the (x, F x) frame of F_{s+1} the grading is diag(1, -1, 1, -1, ...);
    # on a split cell (Cl_{0,1}) it is omega's diag(-I, I) on each cell
    path = flux_path(rotated_irrep(r, sp, seed=seed), 4)
    signs = path.grading.signs
    half = path.context.n // path.context.copies // 2
    cell = np.repeat([-1, 1], half) if (r, sp) == (0, 1) else np.tile([1, -1], half)
    np.testing.assert_array_equal(signs, np.tile(cell, 4))
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


def _dense_fn(path):
    """The path's n x n samples: on a reduced path each coefficient of its
    `fn`, lifted by its reduction."""
    if path.reduction is None:
        return path.fn
    return lambda t: path.reduction.lift(path.fn(t))


def _dense_copy(path):
    """The same samples over a copy of the context with copies = 1, each
    coefficient of a reduced path lifted to A (x) b."""
    ctx = path.context
    return SkewPath(cl.CliffordRep(ctx.r, ctx.s, ctx.n, E=ctx.E, F=ctx.F), _dense_fn(path))


def _count_generator_products(ctx):
    """Swap the cells of `ctx`, and so the generators built from them, for
    views that record every matmul taking an n x n one as an operand;
    returns the record."""
    calls = []

    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and any(
                    isinstance(x, Counted) and x.shape == (ctx.n, ctx.n) for x in inputs):
                calls.append(ufunc)
            return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

    object.__setattr__(ctx, "cells", tuple(g.view(Counted) for g in ctx.cells))
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


def test_flux_path_builds_no_n_by_n_array(monkeypatch):
    # the Cl_{0,7} flux path at N = 48 acts on R^384: building it (the
    # memory guard, the module check, the (x, F x) frame, the tiled
    # context, the grading and the reduction) takes no Kronecker product
    # and peaks below one 384 x 384 array
    module = rotated_irrep(0, 7, seed=0)
    flux_path(module, 3)  # warms numpy's lazy imports before tracing
    kron = np.kron
    lifts = []

    def counted_kron(a, b):
        lifts.append(np.shape(a))
        return kron(a, b)

    monkeypatch.setattr(np, "kron", counted_kron)
    tracemalloc.start()
    try:
        path = flux_path(module, 48)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.context.n == 384 and path.context.copies == 48
    assert lifts == []
    assert peak < 8 * 384 ** 2, peak


def _forbid_tiled_generators(monkeypatch):
    """Make every request for the n x n generators of a rep with copies > 1
    fail; requests on copies = 1 reps go through."""
    build = cl.CliffordRep.generators

    def guarded(rep):
        if rep.copies > 1:
            raise AssertionError(f"n x n generators of a context tiled {rep.copies} times")
        return build(rep)

    monkeypatch.setattr(cl.CliffordRep, "generators", guarded)


def test_flows_over_tiled_contexts_build_no_generator(monkeypatch):
    # the reduced route (Cl_{0,7}) and the dense tiled route (Cl_{0,3} and
    # a reducible cell), whose node kernels and pair kernels are restricted
    # through the cells, never ask for I_N (x) g; flux_path does not either
    cl07 = rotated_irrep(0, 7, seed=7)
    modules = (cl07, rotated_irrep(0, 3, seed=3), cl.direct_sum(cl07, cl07))
    _forbid_tiled_generators(monkeypatch)
    for module in modules:
        path = flux_path(module, 4)
        assert path.context.copies == 4
        with pytest.raises(AssertionError, match="tiled 4 times"):
            path.context.F
        assert spectral_flow(path) == endpoint_flow(path) == abs_class(module)


@pytest.mark.parametrize("s,chirality", [(1, None), (3, "+"), (3, "-"), (7, None)])
def test_tiled_flux_class_matches_dense_context(s, chirality):
    module = rotated_irrep(0, s, seed=s, chirality=chirality)
    path = flux_path(module, 5)
    assert path.context.copies == 5
    assert spectral_flow(path) == spectral_flow(_dense_copy(path)) == abs_class(module)


# modules whose context cell has a one-dimensional anticommutant: s - r = 7
# mod 8 among the canonical irreducibles with r + s <= 9
REAL_TYPE_CELLS = [(2, 1), (3, 2), (0, 7), (4, 3), (1, 8), (5, 4)]
# modules whose context cell has the commutant R + R: r - s = 0 mod 8 among
# them, and Cl_{0,1}, whose empty context is split by the path's grading
SPLIT_TYPE_CELLS = [(0, 1), (1, 1), (2, 2), (3, 3), (4, 4), (0, 8)]


def _null_space_dimension(blocks, c):
    """dim {X : B(X) = 0 for every map B} on R^{c x c}, each B given as its
    c^2 x c^2 matrix on vec(X), by one SVD of the triangular factor of the
    stacked system (same singular values and right vectors); with its null
    vectors as c x c matrices."""
    if not blocks:
        return c * c, np.eye(c * c).reshape(-1, c, c)
    _, svals, vt = np.linalg.svd(np.linalg.qr(np.vstack(blocks), mode="r"))
    svals = np.concatenate([svals, np.zeros(c * c - svals.size)])
    null = svals < 1e-9 * svals[0]
    return int(np.sum(null)), vt[null].reshape(-1, c, c)


def _anticommutant_dimension(gens, c):
    """dim {X : g X + X g = 0 for every g} on R^c, by a null-space solve
    on vec(X): vec(g X + X g) = (I (x) g + g^T (x) I) vec(X)."""
    eye = np.eye(c)
    return _null_space_dimension([np.kron(eye, g) + np.kron(g.T, eye) for g in gens], c)[0]


def _split_commutant(gens, c):
    """Whether the commutant {X : g X = X g} is R + R: two-dimensional,
    spanned by I and a symmetric element of trace 0 (a multiple of an
    involution), not a skew one (the complex type)."""
    eye = np.eye(c)
    dim, null = _null_space_dimension([np.kron(eye, g) - np.kron(g.T, eye) for g in gens], c)
    if dim != 2:
        return False
    traceless = [x - np.trace(x) / c * eye for x in null]
    x = max(traceless, key=np.linalg.norm)
    return np.linalg.norm(x - x.T) < 1e-9 * np.linalg.norm(x)


def test_reduced_route_is_the_one_dimensional_anticommutant():
    # a null-space solve on the context cell of every canonical module with
    # r + s <= 9 and a cell of size at most 16 (every real-type cell, both
    # chiralities, and every split one): flux_path declares a real
    # reduction exactly when the anticommutant is one-dimensional, those
    # are the s - r = 7 cells, and a split one exactly when the commutant
    # is R + R (or the context is empty on a cell of size 2), those are the
    # r - s = 0 cells; there the grading's cell commutes with the context
    # and, with it, the anticommutant is two-dimensional
    seen = set()
    for total in range(1, 10):
        for r in range(total):
            s = total - r
            chis = ["+", "-"] if cl.has_two_irreducibles(r, s) else [None]
            for ch in chis:
                module = cl.irreducible_rep(r, s, ch)
                path = flux_path(module, 3)
                kind = None if path.reduction is None else path.reduction.kind
                assert (kind == "real") == ((r, s) in REAL_TYPE_CELLS)
                assert (kind == "split") == ((r, s) in SPLIT_TYPE_CELLS)
                if module.n > 16:
                    continue
                c = module.n
                gens = list(module.E) + list(module.F[:-1])
                dim = _anticommutant_dimension(gens, c)
                assert dim >= 1 and (kind == "real") == (dim == 1), (r, s, ch, dim)
                split = _split_commutant(gens, c) if gens else c == 2
                assert (kind == "split") == split, (r, s, ch)
                if kind == "split":
                    cells = path.context.cells
                    omega = np.diag(path.grading.signs[:c])
                    assert all(np.abs(omega @ g - g @ omega).max() < 1e-12 for g in cells)
                    assert _anticommutant_dimension(list(cells) + [omega], c) == 2
                seen.add((r, s, ch))
    assert {(r, s) for r, s, _ in seen} >= set(REAL_TYPE_CELLS) | set(SPLIT_TYPE_CELLS)
    assert len([cell for cell in seen if cell[:2] in REAL_TYPE_CELLS]) == 12
    assert len([cell for cell in seen if cell[:2] in SPLIT_TYPE_CELLS]) == 6


@pytest.mark.parametrize("r,s", REAL_TYPE_CELLS)
@pytest.mark.parametrize("chirality", ["+", "-"])
def test_reduced_flux_flow_matches_dense_endpoint_and_class(r, s, chirality):
    # in a rotated frame the reduced flow equals the dense flow of the
    # lifted samples, the endpoint flow and the class of the cell
    module = rotated_irrep(r, s, seed=r + 10 * s, chirality=chirality)
    for n_ring in (3, 4, 5, 12):
        path = flux_path(module, n_ring)
        assert path.reduction is not None
        value = spectral_flow(path)
        assert value == spectral_flow(_dense_copy(path)) == endpoint_flow(path) \
            == abs_class(module), (n_ring, value)


@pytest.mark.parametrize("r,s", [cell for cell in SPLIT_TYPE_CELLS if cell != (4, 4)])
def test_split_flux_flow_matches_dense_endpoint_and_class(r, s):
    # in a rotated frame the split reduced flow equals the flow of the same
    # path declared without its reduction, graded and not, the endpoint
    # flow and the class of the cell
    module = rotated_irrep(r, s, seed=r + 10 * s)
    for n_ring in (3, 4, 5, 12):
        path = flux_path(module, n_ring)
        assert path.reduction.kind == "split"
        value = spectral_flow(path)
        assert value == spectral_flow(undeclared(path)) \
            == spectral_flow(undeclared(path, graded=False)) == endpoint_flow(path) \
            == abs_class(module), (n_ring, value)


def test_split_cells_up_to_twelve_generators_reduce():
    # every irreducible with r - s = 0 mod 8, s >= 1 and r + s <= 12: the
    # volume element of its context cell is a central symmetric involution
    # that anticommutes with F_{s+1}, so flux_path declares the split
    # reduction, and its flow is the cell's class
    cells = [(r, s) for s in range(1, 13) for r in range(13 - s) if (r - s) % 8 == 0]
    assert len(cells) == 11
    for r, s in cells:
        module = cl.irreducible_rep(r, s)
        path = flux_path(module, 3)
        assert path.reduction.kind == "split" and path.reduction.eps < 1e-13, (r, s)
        assert spectral_flow(path) == endpoint_flow(path) == abs_class(module), (r, s)


def test_split_nodes_decompose_to_coefficient_blocks(monkeypatch):
    # Cl_{0,8} at N = 12 acts on R^192: every node and every pair kernel of
    # the split walk is one SVD of a 12 x 12 coefficient, no n x n or
    # n/2 x n/2 SVD is taken, no sample is lifted and no phase is n x n
    path = flux_path(rotated_irrep(0, 8, seed=8), 12)
    svd, shapes = np.linalg.svd, []

    def counted_svd(mat, *args, **kwargs):
        shapes.extend(matrix_shapes(mat))
        return svd(mat, *args, **kwargs)

    def no_dense_sample(self, t):
        raise AssertionError(f"an n x n sample was taken at t={t}")

    phases = _recorded_phases(monkeypatch)
    products = _count_generator_products(path.context)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(SkewPath, "at", no_dense_sample)
    assert spectral_flow(path) == abs_class(rotated_irrep(0, 8, seed=8))
    nodes = shapes.count((12, 12))
    assert nodes >= 17 + 1 and all(shape[0] <= 12 for shape in shapes), shapes
    assert len(phases) >= 17
    assert all(type(j) is ReducedStructure and j.S.shape == (12, 12) for j in phases)
    assert products == []


def test_dense_route_keeps_cl03_and_reducible_cells():
    cl07 = rotated_irrep(0, 7, seed=7)
    for module in (rotated_irrep(0, 3, seed=3), cl.direct_sum(cl07, cl07)):
        path = flux_path(module, 3)
        assert path.reduction is None
        phase = complete_phase(path.at(0.5), path.context, path.grading)
        assert type(phase) is ComplexStructure
        assert spectral_flow(path) == abs_class(module)


def test_reduced_nodes_decompose_to_coefficient_blocks(monkeypatch):
    # Cl_{0,7} at N = 12 acts on R^96: every node and every pair kernel of
    # the reduced walk is one eigendecomposition of a 12 x 12 symmetric
    # matrix, and nothing in the walk is n x n: no sample (SkewPath.at is
    # never called), no phase, no decomposition, no product with a context
    # generator, no Kronecker lift; and no SVD is taken of an N x N matrix
    path = flux_path(rotated_irrep(0, 7, seed=7), 12)
    n = path.context.n
    eigh, svd, kron = np.linalg.eigh, np.linalg.svd, np.kron
    shapes, pair_shapes, in_pair, lifts, svd_shapes = [], [], [], [], []

    def counted(mat, *args, **kwargs):
        (pair_shapes if in_pair else shapes).extend(matrix_shapes(mat))
        return eigh(mat, *args, **kwargs)

    def counted_svd(mat, *args, **kwargs):
        svd_shapes.extend(matrix_shapes(mat))
        return svd(mat, *args, **kwargs)

    def counted_kron(a, b):
        out = kron(a, b)
        lifts.append(out.shape)
        return out

    def tracked_pair(j0, j1):
        in_pair.append(True)
        try:
            return pair_index(j0, j1)
        finally:
            in_pair.pop()

    def no_dense_sample(self, t):
        raise AssertionError(f"an n x n sample was taken at t={t}")

    pair_index = flow.pair_index
    phases = _recorded_phases(monkeypatch)
    products = _count_generator_products(path.context)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np, "kron", counted_kron)
    monkeypatch.setattr(flow, "pair_index", tracked_pair)
    monkeypatch.setattr(SkewPath, "at", no_dense_sample)
    assert spectral_flow(path) == abs_class(rotated_irrep(0, 7, seed=7))
    assert len(shapes) >= 17 and len(pair_shapes) >= 1
    assert set(shapes) == set(pair_shapes) == {(12, 12)}
    assert all(shape[0] < 12 for shape in svd_shapes)
    assert len(phases) >= 17
    assert all(type(j) is ReducedStructure and j.S.shape == (12, 12) for j in phases)
    assert products == []
    assert lifts and all(shape[1] < n for shape in lifts)


def test_reduced_coefficient_must_be_symmetric():
    path = flux_path(rotated_irrep(0, 7, seed=7), 4)
    skew_part = 1e-9 * np.triu(np.ones((4, 4)), 1)
    bad = SkewPath(path.context, lambda t: path.fn(t) + skew_part,
                   grading=path.grading, reduction=path.reduction)
    path.coefficient(0.5)
    with pytest.raises(ValidationError, match="not symmetric"):
        bad.coefficient(0.5)
    with pytest.raises(ValidationError):
        spectral_flow(bad)
    with pytest.raises(ValidationError, match="shape"):
        SkewPath(path.context, _dense_fn(path), grading=path.grading,
                 reduction=path.reduction).coefficient(0.5)
    nan = SkewPath(path.context, lambda t: np.full((4, 4), np.nan),
                   grading=path.grading, reduction=path.reduction)
    with pytest.raises(ValidationError, match="not symmetric"):
        nan.coefficient(0.5)
    with pytest.raises(ValidationError, match="only a reduced path"):
        SkewPath(path.context, path.fn, grading=path.grading).coefficient(0.5)


def test_reduction_rejects_a_cell_factor_off_by_1e_9():
    path = flux_path(rotated_irrep(0, 7, seed=7), 4)
    ctx, grading, b = path.context, path.grading, path.reduction.b
    Reduction(ctx, b, grading)
    # b + 1e-9 g stays skew and orthogonal to first order, but b g + g b
    # is -2e-9 I for a skew cell generator g
    with pytest.raises(ValidationError, match="anticommuting"):
        Reduction(ctx, b + 1e-9 * ctx.cells[0], grading)
    with pytest.raises(ValidationError, match="shape"):
        Reduction(ctx, np.eye(4), grading)
    # a reduction belongs to the path built over its context and grading
    with pytest.raises(ValidationError, match="reduction"):
        SkewPath(ctx, path.fn, reduction=path.reduction)
    # on an empty cell context of size 4, b = I_2 (x) L1 must anticommute
    # with the grading's cell too, and the grading must repeat with the cell
    empty = cl.CliffordRep(0, 0, 12, copies=3)
    b = np.kron(np.eye(2), cl.L1)
    Reduction(empty, b, Grading(np.tile([1.0, -1.0], 6)))
    with pytest.raises(ValidationError, match="anticommuting"):
        Reduction(empty, b, Grading(np.tile([1.0, 1.0, -1.0, -1.0], 3)))
    with pytest.raises(ValidationError, match="does not repeat"):
        Reduction(empty, b, Grading(np.tile([1.0, -1.0], 6) * np.repeat([1, -1, 1], 4)))
    # a split cell (Cl_{2,2}): the grading must be omega = diag(-I, I) tiled,
    # and b off its skew omega-odd part by 1e-9 is rejected
    split = flux_path(rotated_irrep(2, 2, seed=2), 4)
    ctx, grading, b = split.context, split.grading, split.reduction.b
    assert Reduction(ctx, b, grading).kind == "split"
    with pytest.raises(ValidationError, match="anticommuting"):
        Reduction(ctx, b + 1e-9 * np.eye(4), grading)
    with pytest.raises(ValidationError, match="does not repeat"):
        Reduction(ctx, b, Grading(np.tile([1.0, -1.0], 8)))
    with pytest.raises(ValidationError, match="needs the path's grading"):
        Reduction(ctx, b)
    # on a Cl_{1,0} context b' = L1^T anticommutes with both K1 and K2, but
    # only K1 commutes with omega = diag(-1, 1): with K2, b' omega does not
    # anticommute with the cell, and the skew part of a coefficient would
    # break the sample's anticommutation
    cell = np.array([[0.0, 1.0], [-1.0, 0.0]])
    grading = Grading(np.tile([-1.0, 1.0], 3))
    Reduction(cl.CliffordRep(1, 0, 6, E=(cl.K1,), copies=3), cell, grading)
    with pytest.raises(ValidationError, match="anticommuting"):
        Reduction(cl.CliffordRep(1, 0, 6, E=(cl.K2,), copies=3), cell, grading)


def test_reduced_sample_check_is_never_looser():
    # a coefficient that the reduced check accepts gives a sample that the
    # dense check of `at` accepts too, for cell factors and coefficients
    # carrying errors around the sample tolerance: on the real kind
    # (Cl_{0,7}) A (x) b with A near-symmetric, on the split kind
    # (Cl_{2,2}, Cl_{0,8}) the grading-odd form of P (x) beta with a
    # general P of norm up to 1e4
    for r, s in ((0, 7), (2, 2), (0, 8)):
        _check_never_looser(flux_path(rotated_irrep(r, s, seed=s), 4))


def _check_never_looser(path):
    ctx, grading, b0 = path.context, path.grading, path.reduction.b
    split = path.reduction.kind == "split"
    rng = np.random.default_rng(0)
    outcomes = set()
    for _ in range(200):
        b = b0 + 10.0 ** rng.uniform(-14, -10) * rng.standard_normal(b0.shape)
        try:
            red = Reduction(ctx, b, grading)
        except ValidationError:
            outcomes.add("cell factor rejected")
            continue
        if split:
            coef = 10.0 ** rng.uniform(-1, 4) * rng.standard_normal((4, 4))
        else:
            coef = path.fn(rng.uniform()) + 10.0 ** rng.uniform(-13, -9.5) \
                * rng.standard_normal((4, 4))
        reduced = SkewPath(ctx, lambda t: coef, grading=grading, reduction=red)
        try:
            reduced.coefficient(0.0)
        except ValidationError:
            outcomes.add("coefficient rejected")
            continue
        SkewPath(ctx, lambda t: red.lift(coef), grading=grading).at(0.0)
        outcomes.add("both accepted")
    assert outcomes == {"cell factor rejected", "coefficient rejected", "both accepted"}


def test_reduced_flux_flow_peak_within_reduced_arrays():
    # the guard counts REDUCED_NODE_ARRAYS N x N arrays, one lifted pair
    # kernel column, r + s + 4 arrays of n x c, and the N x N arrays of a
    # stack of initial nodes (none at N = 128 and 256, walked one node at
    # a time); the walk must not hold more
    for (r, s), n_ring in (((2, 1), 256), ((0, 7), 128)):
        path = flux_path(cl.irreducible_rep(r, s), n_ring)
        n, c = path.context.n, path.context.n // n_ring
        ctx_gens = path.context.r + path.context.s
        planned = 8 * ((REDUCED_NODE_ARRAYS + _stack_arrays(n_ring)) * n_ring ** 2
                       + (ctx_gens + 4) * n * c)
        peak = _walk_peak_arrays(path) * 8 * n ** 2
        assert peak <= planned, (r, s, peak / planned)


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
