import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from koflow import clifford as cl
from koflow.abs_index import KOClass, abs_class
from koflow.errors import InvalidModuleError, ValidationError
from koflow.numerics import random_orthogonal

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


# sha256 of every canonical irreducible with r + s <= 12 (both chiralities
# where there are two): the signature, chirality and dimension, then each
# generator's bytes in `generators()` order.  Every printed class rests on
# these matrices, so a change to any tensor step must leave them bit-equal.
CANONICAL_DIGEST = "3eebe65c8463a2ec490f551c50a8bc2dba037056e256bb89cd97c5d349dadabf"


def test_canonical_irreducibles_pinned():
    digest = hashlib.sha256()
    count = 0
    for total in range(13):
        for r in range(total + 1):
            s = total - r
            for ch in ["+", "-"] if cl.has_two_irreducibles(r, s) else [None]:
                rep = cl.irreducible_rep(r, s, ch)
                digest.update(f"{r},{s},{ch},{rep.n};".encode())
                for g in rep.generators():
                    digest.update(g.tobytes())
                count += 1
    assert count == 112
    assert digest.hexdigest() == CANONICAL_DIGEST


def test_tensor_step_product_is_np_kron_to_the_bit():
    # signed zeros included: 0 * -1 is -0.0 in both
    rng = np.random.default_rng(3)
    pairs = [(cl.K1, cl.L1), (cl.K2, cl.L1), (np.eye(3), cl.OMEGA_11),
             (-np.eye(2), np.zeros((2, 2))),
             (rng.standard_normal((3, 5)), rng.standard_normal((4, 2)))]
    for a, b in pairs:
        assert cl._kron(a, b).tobytes() == np.kron(a, b).tobytes()
        assert cl._kron(a, b).shape == np.kron(a, b).shape


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


@pytest.mark.parametrize("r,s", [(0, 1), (1, 1), (2, 1), (0, 3), (1, 4), (0, 7)])
def test_empty_restriction_returns_at_once(monkeypatch, r, s):
    # an empty basis gives the dimension-0 module of signature (r, s) with
    # no check run, the module the checked path builds from its 0 x 0
    # compressions, whose class is zero
    rep = rotated_irrep(r, s, seed=r + s)
    basis = np.zeros((rep.n, 0))
    images = [g @ basis for g in rep.generators()]
    full = cl.CliffordRep(r, s, 0, E=[basis.T @ img for img in images[:r]],
                          F=[basis.T @ img for img in images[r:]])
    assert cl.check_relations(full, cl.RESTRICTION_TOL).ok
    checks = []
    monkeypatch.setattr(cl, "check_relations", lambda *a: checks.append(a))
    monkeypatch.setattr(cl, "residual_norm", lambda *a: checks.append(a))
    sub = cl.restrict_images(r, basis, images, cl.RESTRICTION_TOL)
    assert checks == []
    assert (sub.r, sub.s, sub.n, sub.copies) == (full.r, full.s, 0, 1)
    assert [g.shape for g in sub.cells] == [g.shape for g in full.cells] == [(0, 0)] * (r + s)
    monkeypatch.undo()
    assert abs_class(sub) == abs_class(full) == KOClass.of((s + 1 - r) % 8, 0)


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


def _invariant_basis(rep, seed):
    """An orthonormal basis, rotated within its span, of q (x) R^c for a
    random q of orthonormal columns on R^copies: an invariant subspace."""
    rng = np.random.default_rng(seed)
    c = rep.n // rep.copies
    q = random_orthogonal(rng, rep.copies)[:, :int(rng.integers(1, rep.copies + 1))]
    basis = np.kron(q, np.eye(c))
    return basis @ random_orthogonal(rng, basis.shape[1])


@settings(max_examples=30)
@given(sig=st.sampled_from(TILED_SIGS), copies=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_tiled_products_match_dense(sig, copies, seed):
    # a tiled rep holds its cells alone: its products, restrictions and
    # relation checks through them match the same calls on the dense copy
    # of its generators, exactly when copies = 1
    cell = rotated_irrep(*sig, seed)
    rep = cl.CliffordRep(cell.r, cell.s, copies * cell.n, E=cell.E, F=cell.F, copies=copies)
    gens = rep.generators()
    dense = cl.CliffordRep(rep.r, rep.s, rep.n, E=rep.E, F=rep.F)
    mat = np.random.default_rng(seed).standard_normal((rep.n, rep.n))
    pairs = list(zip(rep.skew_residuals(mat),
                     [mat + mat.T] + [mat @ g + g @ mat for g in gens]))
    pairs += [(rep.project_skew(mat, sign), _dense_project(mat, gens, sign))
              for sign in (-1, 1)]
    basis = _invariant_basis(rep, seed)
    restricted = cl.restrict_to_subspace(rep, basis).generators()
    pairs += list(zip(restricted, cl.restrict_to_subspace(dense, basis).generators()))
    # and the module restricted from the dense images g @ basis
    pairs += list(zip(restricted, cl.restrict_images(
        rep.r, basis, [g @ basis for g in gens], cl.RESTRICTION_TOL).generators()))
    # a cell off by 1e-6 breaks the same relations on both, by as much
    scale = np.ones(rep.r + rep.s)
    scale[0] += 1e-6
    for tiled, full in ((rep, dense), (_scaled(rep, scale), _scaled(dense, scale))):
        reports = [cl.check_relations(x, 1e-9) for x in (tiled, full)]
        assert [name for name, _ in reports[0].violations] \
            == [name for name, _ in reports[1].violations]
        pairs.append((np.array([reports[0].max_residual]), np.array([reports[1].max_residual])))
    if copies == 1:
        assert all(np.array_equal(tiled, full) for tiled, full in pairs)
    else:
        assert max(np.max(np.abs(tiled - full)) for tiled, full in pairs) <= 1e-13


def _scaled(rep, scale):
    """rep with its i-th cell scaled by scale[i]."""
    cells = [x * g for x, g in zip(scale, rep.cells)]
    return cl.CliffordRep(rep.r, rep.s, rep.n, E=cells[:rep.r], F=cells[rep.r:],
                          copies=rep.copies)


def test_tiled_rep_rejects_untiled_generators():
    # a tiled rep is built from its cells, so it is tiled by construction:
    # it keeps the cells and nothing else, builds I (x) cell anew on each
    # request, and takes no n x n generator, coupled or not
    rep = cl.CliffordRep(0, 1, 6, F=(cl.L1,), copies=3)
    assert set(vars(rep)) == {"r", "s", "n", "cells", "copies"}
    assert np.array_equal(rep.cells[0], cl.L1)
    assert np.array_equal(rep.F[0], np.kron(np.eye(3), cl.L1))
    assert rep.generators()[0] is not rep.generators()[0]
    assert not rep.F[0].flags.writeable
    tiled = np.kron(np.eye(3), cl.L1)
    coupled = tiled.copy()
    coupled[0, 3] = 1e-300
    for bad in (tiled, coupled, block_diag(cl.L1, -cl.L1, cl.L1)):
        with pytest.raises(ValidationError, match="does not match dimension 2"):
            cl.CliffordRep(0, 1, 6, F=(bad,), copies=3)
    for copies in (0, 4):
        with pytest.raises(ValidationError, match="do not tile"):
            cl.CliffordRep(0, 1, 6, F=(cl.L1,), copies=copies)


def test_irreducible_rep_is_cached_read_only(monkeypatch):
    # one rep per (r, s, resolved chirality), shared by every caller, so
    # its arrays must be read-only
    rep = cl.irreducible_rep(0, 7)
    assert cl.irreducible_rep(0, 7, "+") is rep and cl.irreducible_rep(0, 7, 1) is rep
    assert cl.irreducible_rep(0, 7, "-") is not rep
    assert cl.irreducible_rep(2, 2) is cl.irreducible_rep(2, 2)
    # larger reps are rebuilt, so that a run does not keep their bytes
    assert cl.irreducible_rep(0, 9).n > cl.IRREDUCIBLE_CACHE_DIM
    assert cl.irreducible_rep(0, 9) is not cl.irreducible_rep(0, 9)
    for g in rep.generators() + list(rep.cells):
        assert not g.flags.writeable
        with pytest.raises(ValueError):
            g[0, 0] = 2.0
    # the memory check and the chirality check still run on every call
    planned = []
    monkeypatch.setattr(cl, "check_memory", lambda what, nbytes: planned.append(nbytes))
    cl.irreducible_rep(0, 7)
    cl.irreducible_rep(0, 7)
    assert planned == [8 * 9 * 64] * 2
    for _ in range(2):
        with pytest.raises(ValidationError, match="chirality"):
            cl.irreducible_rep(2, 2, "+")
        with pytest.raises(ValidationError, match="chirality"):
            cl.irreducible_rep(0, 7, "up")
