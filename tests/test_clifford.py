import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from koflow import clifford as cl
from koflow.errors import InvalidModuleError, ValidationError

from conftest import rotated_irrep

ALL_SIGS_10 = [(r, t - r) for t in range(11) for r in range(t + 1)]


def test_generator_constants_pinned():
    assert np.array_equal(cl.K1, np.diag([1.0, -1.0]))
    assert np.array_equal(cl.K2, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(cl.L1, np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert np.array_equal(cl.OMEGA_11, -cl.K2)
    assert np.array_equal(cl.OMEGA_20, -cl.L1)
    assert np.array_equal(cl.K1 @ cl.K2 @ cl.L1, np.eye(2))


@pytest.mark.parametrize("r,s", ALL_SIGS_10)
def test_canonical_reps_exact(r, s):
    rep = cl.irreducible_rep(r, s)
    report = cl.check_relations(rep, tol=0.0)
    assert report.ok, report.violations
    assert rep.n == cl.irreducible_dimension(r, s)
    for m in rep.generators():
        assert set(np.unique(m)) <= {-1.0, 0.0, 1.0}


def test_base_cases():
    assert cl.irreducible_rep(0, 0).n == 1
    v = cl.irreducible_rep(0, 1)
    assert v.n == 2 and np.array_equal(v.F[0], cl.L1)
    v = cl.irreducible_rep(1, 0, "+")
    assert v.n == 1 and v.E[0][0, 0] == 1.0
    v = cl.irreducible_rep(2, 0)
    assert v.n == 2
    assert np.array_equal(v.E[0], cl.K1) and np.array_equal(v.E[1], cl.K2)


def test_two_irreducibles_and_chirality():
    v = cl.irreducible_rep(2, 1, "+")
    assert v.n == 2
    assert np.array_equal(cl.volume_element(v), np.eye(2))
    literal = cl.CliffordRep(2, 1, 2, E=(cl.K1, cl.K2), F=(cl.L1,))
    assert cl.are_equivalent(v, literal)
    w = cl.irreducible_rep(2, 1, "-")
    assert np.array_equal(cl.volume_element(w), -np.eye(2))
    assert not cl.are_equivalent(v, w)


def test_quaternionic_case():
    for ch in ("+", "-"):
        v = cl.irreducible_rep(0, 3, ch)
        assert v.n == 4
        sign = 1.0 if ch == "+" else -1.0
        assert np.array_equal(cl.volume_element(v), sign * np.eye(4))
    assert not cl.are_equivalent(cl.irreducible_rep(0, 3, "+"),
                                 cl.irreducible_rep(0, 3, "-"))


def test_chirality_rejected_for_unique_irreducible():
    with pytest.raises(ValidationError):
        cl.irreducible_rep(1, 1, "+")


@pytest.mark.parametrize("r,s", [(r, t - r) for t in range(9) for r in range(t + 1)])
def test_volume_element_sign(r, s):
    rep = cl.irreducible_rep(r, s)
    omega = cl.volume_element(rep)
    assert np.array_equal(omega @ omega,
                          cl.volume_square_sign(r, s) * np.eye(rep.n))


def test_volume_examples():
    assert cl.volume_element(cl.irreducible_rep(0, 0))[0, 0] == 1.0
    v20 = cl.CliffordRep(2, 0, 2, E=(cl.K1, cl.K2))
    omega = cl.volume_element(v20)
    assert np.array_equal(omega, -cl.L1)
    assert np.array_equal(omega @ omega, -np.eye(2))


def test_check_relations_reports_violations():
    v = cl.irreducible_rep(3, 2)
    assert cl.check_relations(v, tol=0.0).ok
    bad = cl.CliffordRep(0, 1, 2, F=(1.5 * cl.L1,))
    report = cl.check_relations(bad, tol=1e-12)
    assert not report.ok
    squared = [res for name, res in report.violations if "F1^2" in name]
    assert squared and abs(squared[0] - 1.25) < 1e-12
    commuting = cl.CliffordRep(2, 0, 4,
                               E=(np.kron(cl.K1, np.eye(2)), np.kron(np.eye(2), cl.K1)))
    report = cl.check_relations(commuting, tol=1e-12)
    assert any("E1E2" in name for name, _ in report.violations)
    with_nan = cl.CliffordRep(0, 1, 2, F=(np.array([[0.0, np.nan], [1.0, 0.0]]),))
    report = cl.check_relations(with_nan, tol=1e-12)
    assert not report.ok and np.isnan(report.max_residual)


def test_check_relations_dimension_mismatch():
    with pytest.raises(ValidationError):
        cl.CliffordRep(1, 0, 3, E=(cl.K1,))


def test_direct_sum():
    v = cl.irreducible_rep(0, 1)
    w = cl.direct_sum(v, v)
    assert w.n == 4
    assert cl.check_relations(w, tol=0.0).ok
    with pytest.raises(ValidationError):
        cl.direct_sum(v, cl.irreducible_rep(1, 0))


def test_direct_sum_multiplicities():
    plus = cl.irreducible_rep(1, 0, "+")
    minus = cl.irreducible_rep(1, 0, "-")
    assert cl.decompose(cl.direct_sum(plus, minus)) == (1, 1)


def test_cl11_tensor():
    triv = cl.irreducible_rep(0, 0)
    v = cl.cl11_tensor(triv)
    assert (v.r, v.s, v.n) == (1, 1, 2)
    assert np.array_equal(v.E[0], cl.K1) and np.array_equal(v.F[0], cl.L1)
    w = cl.cl11_tensor(v)
    assert (w.r, w.s, w.n) == (2, 2, 4)
    assert cl.check_relations(w, tol=0.0).ok


def test_decompose():
    assert cl.decompose(cl.irreducible_rep(1, 0, "+")) == (1, 0)
    two_sided = cl.CliffordRep(1, 0, 2, E=(cl.K1,))
    assert cl.decompose(two_sided) == (1, 1)
    assert cl.decompose(cl.irreducible_rep(2, 2)) == 1


def test_decompose_rejects_fractional_multiplicity():
    # a 3-dimensional space cannot be a Cl_{0,1} module (irreducible dim 2);
    # the constructor does not validate relations, so decompose sees the
    # fractional count and must carry it in the error
    fake = cl.CliffordRep(0, 1, 3, F=(np.zeros((3, 3)),))
    with pytest.raises(InvalidModuleError) as err:
        cl.decompose(fake)
    assert err.value.fraction == pytest.approx(1.5)


def test_restrict_to_subspace():
    v = cl.irreducible_rep(1, 1)
    full = cl.restrict_to_subspace(v, np.eye(v.n))
    assert cl.are_equivalent(full, v)
    plus = cl.irreducible_rep(1, 0, "+")
    minus = cl.irreducible_rep(1, 0, "-")
    both = cl.direct_sum(plus, minus)
    omega = cl.volume_element(both)
    vals, vecs = np.linalg.eigh(omega)
    sub = cl.restrict_to_subspace(both, vecs[:, vals > 0.5])
    assert cl.decompose(sub) == (1, 0)
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((4, 2)))
    big = cl.direct_sum(cl.irreducible_rep(0, 1), cl.irreducible_rep(0, 1))
    with pytest.raises(ValidationError):
        cl.restrict_to_subspace(big, q, tol=1e-9)


def test_restrict_to_subspace_appends_extra_generators():
    # the diagonal copy of v in v + v is invariant under the doubled
    # generators and under F_last (+) F_last, which restricts to F_last
    v = cl.irreducible_rep(1, 2)
    ctx = cl.CliffordRep(1, 1, v.n, E=v.E, F=v.F[:-1])
    double = cl.direct_sum(ctx, ctx)
    basis = np.vstack([np.eye(v.n), np.eye(v.n)]) / np.sqrt(2.0)
    f_last = block_diag(v.F[-1], v.F[-1])
    sub = cl.restrict_to_subspace(double, basis, extra_F=(f_last,))
    assert (sub.r, sub.s, sub.n) == (1, 2, v.n)
    for got, want in zip(sub.generators(), v.generators()):
        assert np.allclose(got, want, atol=1e-15)
    with pytest.raises(ValidationError, match="not invariant"):
        # F_last (+) -F_last maps the diagonal copy onto the antidiagonal one
        cl.restrict_to_subspace(double, basis,
                                extra_F=(block_diag(v.F[-1], -v.F[-1]),))


def test_signature_swap():
    v = cl.irreducible_rep(2, 1)
    w = cl.signature_swap(v)
    assert (w.r, w.s) == (2, 1)
    assert cl.check_relations(w, tol=0.0).ok
    u = cl.signature_swap(cl.irreducible_rep(3, 0))
    assert (u.r, u.s) == (1, 2)
    assert cl.check_relations(u, tol=0.0).ok


def test_intertwiner_identity_first():
    v = cl.irreducible_rep(0, 1)
    u = cl.intertwiner(v, v)
    assert np.allclose(u, np.eye(2))


def test_json_round_trip():
    v = cl.irreducible_rep(2, 1, "-")
    blob = json.dumps(cl.rep_to_json(v))
    w = cl.rep_from_json(json.loads(blob))
    assert (w.r, w.s, w.n) == (v.r, v.s, v.n)
    for a, b in zip(v.generators(), w.generators()):
        assert np.array_equal(a, b)
    with pytest.raises(ValidationError):
        cl.rep_from_json({"r": 0, "s": 1, "n": 2, "E": [], "F": [[1, 0, 0, 1]]})


# cells of size 1 to 8, symmetric and skew generators both
TILED_SIGS = [(1, 0), (0, 1), (1, 1), (0, 2), (2, 1), (0, 3), (1, 2), (0, 7)]


def _dense_project(mat, gens, sign):
    """The dense conjugation average, one generator at a time."""
    out = mat
    for g in gens:
        conj = g @ out @ g.T
        out = (out - conj if sign < 0 else out + conj) / 2.0
    return (out - out.T) / 2.0


@settings(max_examples=30)
@given(sig=st.sampled_from(TILED_SIGS), copies=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_tiled_products_match_dense(sig, copies, seed):
    cell = rotated_irrep(*sig, seed)
    eye = np.eye(copies)
    rep = cl.CliffordRep(cell.r, cell.s, copies * cell.n,
                         E=tuple(np.kron(eye, g) for g in cell.E),
                         F=tuple(np.kron(eye, g) for g in cell.F), copies=copies)
    gens = rep.generators()
    mat = np.random.default_rng(seed).standard_normal((rep.n, rep.n))
    pairs = list(zip(rep.skew_residuals(mat),
                     [mat + mat.T] + [mat @ g + g @ mat for g in gens]))
    pairs += [(rep.project_skew(mat, sign), _dense_project(mat, gens, sign))
              for sign in (-1, 1)]
    if copies == 1:
        assert all(np.array_equal(tiled, dense) for tiled, dense in pairs)
    else:
        assert max(np.max(np.abs(tiled - dense)) for tiled, dense in pairs) <= 1e-13


def test_tiled_rep_rejects_untiled_generators():
    tiled = np.kron(np.eye(3), cl.L1)
    rep = cl.CliffordRep(0, 1, 6, F=(tiled,), copies=3)
    assert np.array_equal(rep.cells[0], cl.L1)
    coupled = tiled.copy()
    coupled[0, 3] = 1e-300
    for bad in (coupled, block_diag(cl.L1, -cl.L1, cl.L1)):
        with pytest.raises(ValidationError):
            cl.CliffordRep(0, 1, 6, F=(bad,), copies=3)
    for copies in (0, 4):
        with pytest.raises(ValidationError):
            cl.CliffordRep(0, 1, 6, F=(tiled,), copies=copies)
