import numpy as np
import pytest
from scipy.linalg import expm

from koflow import clifford as cl
from koflow import models
from koflow.abs_index import abs_class
from koflow.errors import ValidationError
from koflow.flow import complete_phase
from koflow.numerics import (Grading, doubled, random_orthogonal, random_skew,
                             split_zero_cluster, svd_split)
from koflow.pairs import (ComplexStructure, ProjectionPair, ReducedStructure,
                          Reduction, kernel_module, orthogonal_pair_parity,
                          pair_index, projection_pair_index,
                          projections_to_structures)

from conftest import rotated_irrep


def standard_pair(r, s, module, copies_h0=2):
    """Fredholm pair (F_{s+1}, F_{s+1} flipped on the module summand)."""
    cell = cl.irreducible_rep(r, s + 1)
    padding = cell
    for _ in range(copies_h0 - 1):
        padding = cl.direct_sum(padding, cell)
    ambient = cl.direct_sum(padding, cl.CliffordRep(r, s + 1, module.n,
                                                    E=module.E, F=module.F))
    ctx = cl.CliffordRep(r, s, ambient.n, E=ambient.E, F=ambient.F[:-1])
    j0_mat = np.array(ambient.F[-1])
    j1_mat = j0_mat.copy()
    j1_mat[padding.n:, padding.n:] *= -1.0
    return ComplexStructure(j0_mat, ctx), ComplexStructure(j1_mat, ctx), ctx


def commuting_rotation(ctx, rng, scale):
    gen = random_skew(rng, ctx.n)
    for g in ctx.generators():
        gen = (gen + g @ gen @ g.T) / 2.0
    gen = (gen - gen.T) / 2.0
    return expm(scale * gen / max(np.linalg.norm(gen, 2), 1e-12))


def test_complex_structure_validation():
    ctx = cl.CliffordRep(0, 0, 2)
    ComplexStructure(cl.L1, ctx)
    with pytest.raises(ValidationError):
        ComplexStructure(np.eye(2), ctx)
    ctx1 = cl.CliffordRep(1, 0, 2, E=(cl.K1,))
    ComplexStructure(cl.L1, ctx1)  # L1 anticommutes with K1
    with pytest.raises(ValidationError):
        ComplexStructure(cl.L1, cl.CliffordRep(0, 1, 2, F=(cl.L1,)))


@pytest.mark.parametrize("r,s,ch,expected_dim", [
    (0, 0, None, 2), (1, 0, None, 2), (0, 2, "+", 4), (0, 2, "-", 4),
    (2, 0, "+", 2), (2, 0, "-", 2), (1, 1, None, 4),
])
def test_standard_pairs_reproduce_the_class(r, s, ch, expected_dim):
    module = cl.irreducible_rep(r, s + 1, ch)
    j0, j1, _ = standard_pair(r, s, module)
    value, kernel = pair_index(j0, j1)
    assert kernel.n == expected_dim == module.n
    assert value == abs_class(module)


def test_equal_pair_has_zero_class():
    module = cl.irreducible_rep(0, 1)
    j0, _, _ = standard_pair(0, 0, module)
    value, kernel = pair_index(j0, j0)
    assert kernel.n == 0 and value.value == 0


def test_r4_explicit_example():
    ctx = cl.CliffordRep(0, 0, 4)
    j0_mat = np.kron(np.eye(2), cl.L1)
    j1_mat = j0_mat.copy()
    j1_mat[2:, 2:] *= -1.0
    value, kernel = pair_index(ComplexStructure(j0_mat, ctx),
                               ComplexStructure(j1_mat, ctx))
    assert kernel.n == 2
    assert (value.degree, value.value) == (2, 1)


def test_kernel_module_is_the_compression_to_the_pair_kernel():
    rng = np.random.default_rng(5)
    module = cl.irreducible_rep(1, 2)
    j0, j1, ctx = standard_pair(1, 1, module)
    rot = commuting_rotation(ctx, rng, 0.3)
    j1 = ComplexStructure(rot @ j1.J @ rot.T, ctx)
    *_, basis = svd_split(j0.J + j1.J, split_zero_cluster)
    sub = kernel_module(j0, j1)
    assert (sub.r, sub.s, sub.n) == (1, 2, basis.shape[1]) and sub.n > 0
    explicit = [basis.T @ g @ basis for g in ctx.generators() + [j0.J]]
    for got, want in zip(sub.generators(), explicit):
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def test_projection_pair_index_examples():
    p = np.diag([1.0, 0.0])
    assert projection_pair_index(ProjectionPair(p, p)) == 0
    assert projection_pair_index(ProjectionPair(p, np.zeros((2, 2)))) == 1
    assert projection_pair_index(ProjectionPair(p, np.diag([0.0, 1.0]))) == 0
    assert projection_pair_index(ProjectionPair(np.zeros((2, 2)), p)) == -1


def test_projection_pair_validation():
    with pytest.raises(ValidationError):
        ProjectionPair(np.diag([1.0, 0.5]), np.zeros((2, 2)))


def test_projection_dictionary():
    rng = np.random.default_rng(11)
    p = np.diag([1.0, 0.0])
    j0, j1 = projections_to_structures(ProjectionPair(p, np.zeros((2, 2))))
    value, _ = pair_index(j0, j1)
    assert (value.degree, value.value) == (0, 1)
    j0, j1 = projections_to_structures(ProjectionPair(p, p))
    value, _ = pair_index(j0, j1)
    assert value.value == 0
    for _ in range(25):
        n = int(rng.integers(2, 11))
        rank = int(rng.integers(0, n + 1))
        basis = random_orthogonal(rng, n)
        proj = basis[:, :rank] @ basis[:, :rank].T
        rot = random_orthogonal(rng, n)
        q = rot @ proj @ rot.T
        pp = ProjectionPair((proj + proj.T) / 2.0, (q + q.T) / 2.0)
        want = projection_pair_index(pp)
        j0, j1 = projections_to_structures(pp)
        got, kernel = pair_index(j0, j1)
        assert got.value == want
        # mod-2 forgetful chain: Ind_{0,2} = Ind_{1,2} = Ind_{2,2} mod 2
        sub = cl.CliffordRep(1, 0, j0.context.n, E=j0.context.E[:1])
        got12, _ = pair_index(ComplexStructure(j0.J, sub),
                              ComplexStructure(j1.J, sub))
        sub0 = cl.CliffordRep(0, 0, j0.context.n)
        got02, _ = pair_index(ComplexStructure(j0.J, sub0),
                              ComplexStructure(j1.J, sub0))
        assert got12.value == got02.value == want % 2


def test_orthogonal_pair_parity():
    rng = np.random.default_rng(5)
    n = 6
    assert orthogonal_pair_parity(np.eye(n), np.eye(n)) == 0
    assert orthogonal_pair_parity(np.eye(n), np.diag([-1.0] + [1.0] * (n - 1))) == 1
    for _ in range(25):
        nn = int(rng.integers(2, 13))
        u0 = random_orthogonal(rng, nn)
        u1 = random_orthogonal(rng, nn)
        parity = orthogonal_pair_parity(u0, u1)
        det = np.linalg.det(u0) * np.linalg.det(u1)
        assert (-1.0) ** parity == np.sign(det)
    with pytest.raises(ValidationError):
        orthogonal_pair_parity(np.eye(3), 2.0 * np.eye(3))


def test_det_parity_of_conjugated_structure():
    rng = np.random.default_rng(9)
    for _ in range(20):
        half = int(rng.integers(1, 6))
        n = 2 * half
        base = np.kron(np.eye(half), cl.L1)
        conj = random_orthogonal(rng, n)
        j_mat = conj @ base @ conj.T
        ctx = cl.CliffordRep(0, 0, n)
        orth = random_orthogonal(rng, n)
        value, _ = pair_index(ComplexStructure(j_mat, ctx),
                              ComplexStructure(orth.T @ j_mat @ orth, ctx))
        assert (-1.0) ** value.value == np.sign(np.linalg.det(orth))


def test_additivity_under_norm_hypotheses():
    rng = np.random.default_rng(17)
    for (r, s) in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
        module = cl.irreducible_rep(r, s + 1)
        j0, _, ctx = standard_pair(r, s, module)
        rot1 = commuting_rotation(ctx, rng, 0.2)
        rot2 = commuting_rotation(ctx, rng, 0.2)
        j1 = ComplexStructure(rot1 @ j0.J @ rot1.T, ctx)
        j2 = ComplexStructure(rot2 @ j1.J @ rot2.T, ctx)
        assert np.linalg.norm(j0.J - j1.J, 2) < 1.0
        assert np.linalg.norm(j1.J - j2.J, 2) < 1.0
        k01, _ = pair_index(j0, j1)
        k12, _ = pair_index(j1, j2)
        k02, _ = pair_index(j0, j2)
        assert k01 + k12 == k02


def test_local_constancy():
    rng = np.random.default_rng(23)
    module = cl.irreducible_rep(1, 1)
    j0, j1, ctx = standard_pair(1, 0, module)
    base, _ = pair_index(j0, j1)
    for scale in (0.05, 0.15, 0.3):
        rot = commuting_rotation(ctx, rng, scale)
        perturbed = ComplexStructure(rot @ j1.J @ rot.T, ctx)
        value, _ = pair_index(j0, perturbed)
        assert value == base


def _split_reduction(grading):
    """The split reduction of an empty context, cells of size 2, beta = 1."""
    ctx = cl.CliffordRep(0, 0, grading.n, copies=grading.n // 2)
    return Reduction(ctx, np.array([[0.0, 1.0], [-1.0, 0.0]]), grading)


def _odd_pair(rng, half, k):
    """Orthogonal blocks P0 and P1 = P0 R over a shuffled grading, as
    split reduced structures, R with eigenvalue -1 exactly k times:
    ker(P0 + P1) = ker(I + R) has dimension k.  The rest of R is a Cayley
    transform (I - A)(I + A)^-1 of a skew A, with no eigenvalue near -1."""
    red = _split_reduction(Grading(rng.permutation(np.repeat([-1.0, 1.0], half))))
    a = 2.0 * random_skew(rng, half - k)
    cayley = (np.eye(half - k) - a) @ np.linalg.inv(np.eye(half - k) + a)
    rot = np.zeros((half, half))
    rot[:k, :k] = -np.eye(k)
    rot[k:, k:] = cayley
    v = random_orthogonal(rng, half)
    p0 = random_orthogonal(rng, half)
    return ReducedStructure(p0, red), ReducedStructure(p0 @ v @ rot @ v.T, red)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_block_pair_kernel_matches_dense(monkeypatch, seed, k):
    # a pair kernel of 0, 2 or 4 from the half-size SVD of P0 + P1 spans
    # the kernel that the dense SVD of J0 + J1 finds, and pair_index of the
    # blocks takes no n x n SVD
    rng = np.random.default_rng(seed)
    half = 7
    j0, j1 = _odd_pair(rng, half, k)
    assert j0.reduction.kind == "split"
    minus, plus = j0.reduction.grading.sectors()
    _, _, left, right = svd_split(j0.S + j1.S, doubled(split_zero_cluster))
    assert left.shape == right.shape == (half, k)
    basis = np.zeros((2 * half, 2 * k))
    basis[minus, :k] = left
    basis[plus, k:] = right
    *_, dense = svd_split(j0.J + j1.J, split_zero_cluster)
    assert dense.shape == (2 * half, 2 * k)
    np.testing.assert_allclose(basis @ basis.T, dense @ dense.T, rtol=0.0, atol=1e-12)
    ctx = cl.CliffordRep(0, 0, 2 * half)
    want, want_module = pair_index(ComplexStructure(j0.J, ctx), ComplexStructure(j1.J, ctx))
    svd, shapes = np.linalg.svd, []

    def counted(mat, *args, **kwargs):
        shapes.append(mat.shape)
        return svd(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    got, module = pair_index(j0, j1)
    assert shapes == [(half, half)]
    assert got == want and got.value == k % 2
    assert module.n == want_module.n == 2 * k and (module.r, module.s) == (0, 1)


def _kitaev_endpoint_phases(n_ring):
    path = models.kitaev_path(n_ring)
    return [complete_phase(path.coefficient(t), path.context, reduction=path.reduction)
            for t in (0.0, 1.0)]


def test_block_pair_index_is_the_orthogonal_parity_and_the_determinant_sign():
    # the degree-1 class of two grading-odd structures is
    # dim ker(P0 + P1) mod 2 = dim ker(I + P0^T P1) mod 2, and (-1)^parity
    # is det(P0) det(P1), which takes no SVD at all
    pairs = [_odd_pair(np.random.default_rng(seed), 7, k)
             for seed in range(4) for k in (0, 1, 2)]
    pairs += [_kitaev_endpoint_phases(n_ring) for n_ring in (4, 8, 64, 256)]
    for j0, j1 in pairs:
        assert isinstance(j0, ReducedStructure) and isinstance(j1, ReducedStructure)
        assert j0.reduction.kind == "split"
        value = pair_index(j0, j1)[0].value
        assert value == orthogonal_pair_parity(j0.S, j1.S)
        assert (-1) ** value == np.sign(np.linalg.det(j0.S) * np.linalg.det(j1.S))
    # the Kitaev flux insertion: one crossing, determinants of opposite signs
    assert [pair_index(j0, j1)[0].value for j0, j1 in pairs[-4:]] == [1] * 4


def test_odd_structure_checks_its_block():
    j = ReducedStructure(cl.L1, _split_reduction(Grading([1.0, -1.0, -1.0, 1.0])))
    # minus = (1, 2), plus = (0, 3): J[minus, plus] = P, J[plus, minus] = -P^T
    np.testing.assert_array_equal(j.J, [[0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, -1.0],
                                        [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    ComplexStructure(j.J, j.context)  # the dense form is a complex structure
    with pytest.raises(ValidationError, match="not a reduced complex structure"):
        ReducedStructure(2.0 * cl.L1, j.reduction)
    with pytest.raises(ValidationError, match="coefficients are 2 x 2"):
        ReducedStructure(np.eye(3), j.reduction)
    # a block and a dense structure pair through the dense route
    flipped = ReducedStructure(-cl.L1, j.reduction)
    value, module = pair_index(j, ComplexStructure(flipped.J, j.context))
    assert (module.n, value.value) == (4, 0)
    assert pair_index(j, flipped)[0] == value


def _reduced_pair(rng, n_coef, k):
    """Two reduced structures over a rotated Cl_{0,7} flux context whose
    involutions S0, S1 agree but for a sign flip on k common directions,
    so that ker(S0 + S1) has dimension k."""
    path = models.flux_path(rotated_irrep(0, 7, seed=7), n_coef)
    q = random_orthogonal(rng, n_coef)
    signs = rng.choice([-1.0, 1.0], n_coef)
    s0 = (q * signs) @ q.T
    signs[:k] *= -1.0
    s1 = (q * signs) @ q.T
    return (ReducedStructure(s0, path.reduction), ReducedStructure(s1, path.reduction))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("k", [0, 1, 2])
def test_reduced_pair_kernel_matches_dense(monkeypatch, seed, k):
    # the reduced pair index takes one N x N eigendecomposition of the
    # symmetric S0 + S1 and no SVD; its class and kernel module dimension
    # are those of the lifted dense pair
    j0, j1 = _reduced_pair(np.random.default_rng(seed), 5, k)
    dense = [ComplexStructure(j.J, j.context) for j in (j0, j1)]
    want, want_module = pair_index(*dense)
    eigh, shapes = np.linalg.eigh, []

    def counted(mat, *args, **kwargs):
        shapes.append(mat.shape)
        return eigh(mat, *args, **kwargs)

    def no_svd(mat, *args, **kwargs):
        raise AssertionError("the reduced pair kernel took an SVD")

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    got, module = pair_index(j0, j1)
    assert shapes == [(5, 5)]
    assert got == want and module.n == want_module.n == 8 * k
    assert (module.r, module.s) == (want_module.r, want_module.s) == (0, 7)


def test_reduced_structure_checks_its_involution():
    path = models.flux_path(rotated_irrep(0, 7, seed=7), 3)
    red = path.reduction
    j = ReducedStructure(np.diag([1.0, -1.0, 1.0]), red)
    np.testing.assert_allclose(j.J, np.kron(np.diag([1.0, -1.0, 1.0]), red.b), atol=0.0)
    assert j.context is path.context
    ComplexStructure(j.J, j.context)  # the dense form is a complex structure
    for bad in (2.0 * np.eye(3), np.eye(3) + 1e-9 * np.triu(np.ones((3, 3)), 1)):
        with pytest.raises(ValidationError, match="not a reduced complex structure"):
            ReducedStructure(bad, red)
    with pytest.raises(ValidationError, match="coefficients are 3 x 3"):
        ReducedStructure(np.eye(4), red)


def test_pair_contexts_are_compared_by_their_cells():
    # structures over one tiled context, or over two tiled alike with equal
    # cells, pair; a negated cell (J anticommutes with it too), or the same
    # generators tiled otherwise, is a different context
    path = models.flux_path(rotated_irrep(0, 3, seed=3), 3)
    ctx = path.context
    j0 = complete_phase(path.at(0.0), ctx, path.grading)

    def over(cells, copies):
        return ComplexStructure(j0.J, cl.CliffordRep(ctx.r, ctx.s, ctx.n, E=cells[:ctx.r],
                                                     F=cells[ctx.r:], copies=copies))

    value, kernel = pair_index(j0, over(ctx.cells, ctx.copies))
    assert value == pair_index(j0, j0)[0] and kernel.n == 0
    negated = [-g if k == 0 else g for k, g in enumerate(ctx.cells)]
    for other in (over(negated, ctx.copies), over(ctx.generators(), 1)):
        with pytest.raises(ValidationError, match="different contexts"):
            pair_index(j0, other)
