"""Shared test configuration and helpers.

One Hypothesis profile is loaded for every test, so each property test
replays the same examples on every run; the `@settings` of a test set
only its number of examples.
"""
import numpy as np
from hypothesis import settings

from koflow.clifford import CliffordRep, irreducible_rep
from koflow.flow import SkewPath
from koflow.numerics import random_orthogonal

settings.register_profile("koflow", derandomize=True, database=None, deadline=None)
settings.load_profile("koflow")


def rotated_irrep(r, s, seed, chirality=None):
    """The canonical Cl_{r,s} irreducible in a seeded orthogonal frame
    (g -> Q g Q^T for every generator), which keeps its class."""
    rep = irreducible_rep(r, s, chirality)
    q = random_orthogonal(np.random.default_rng(seed), rep.n)
    return CliffordRep(r, s, rep.n, E=tuple(q @ g @ q.T for g in rep.E),
                       F=tuple(q @ g @ q.T for g in rep.F))


def undeclared(path, graded=True):
    """The same samples as `path` with no reduction declared, lifted by its
    reduction when it has one, with its grading or none: the dense
    reference of a reduced path."""
    fn = path.fn if path.reduction is None else (lambda t: path.reduction.lift(path.fn(t)))
    return SkewPath(path.context, fn, grading=path.grading if graded else None)


# Complex reference of the Kitaev flux insertion, written apart from
# koflow.models: the pairing block B of the bond j -> j + 1 and the seam
# correction that threads flux alpha through the bond 0 -> 1.
KITAEV_B = 0.5 * np.array([[1.0, 1.0j], [1.0j, -1.0]])
# the site's Majorana basis: columns (1, 1)/sqrt(2) and i (1, -1)/sqrt(2),
# fixed by C = K2 conj
MAJORANA_SITE = np.array([[1.0, 1.0j], [1.0, -1.0j]]) / np.sqrt(2.0)


def kitaev_seam_correction(alpha):
    """(1/2) [[e^{-i pi a} - 1, i(e^{i pi a} - 1)],
              [i(e^{-i pi a} - 1), -(e^{i pi a} - 1)]]"""
    down, up = np.exp(-1j * np.pi * alpha) - 1.0, np.exp(1j * np.pi * alpha) - 1.0
    return 0.5 * np.array([[down, 1j * up], [1j * down, -up]])


def complex_kitaev(n_ring, alpha):
    """The complex 2N x 2N Hamiltonian H_alpha = S_alpha + S_alpha^*."""
    bond = np.zeros((n_ring, n_ring))
    bond[1, 0] = 1.0
    s_alpha = np.kron(np.roll(np.eye(n_ring), 1, axis=0), KITAEV_B) \
        + np.kron(bond, kitaev_seam_correction(alpha))
    return s_alpha + s_alpha.conj().T


def pf_sign(mat):
    """Sign of the Pfaffian of a real skew matrix, 0 when singular.

    Parlett-Reid elimination (Wimmer 2012, arXiv:1102.3440): a symmetric
    swap of two rows and columns flips Pf, a congruence by a unit
    lower-triangular Gauss transform keeps it, and once column k vanishes
    below row k+1, Pf = a[k, k+1] * Pf(trailing block).
    """
    a = np.array(mat, dtype=float)
    n = a.shape[0]
    if n % 2:
        return 0
    sign = 1
    for k in range(0, n, 2):
        p = k + 1 + int(np.argmax(np.abs(a[k + 1:, k])))
        if p != k + 1:
            a[[k + 1, p]] = a[[p, k + 1]]
            a[:, [k + 1, p]] = a[:, [p, k + 1]]
            sign = -sign
        if a[k, k + 1] == 0.0:
            return 0
        sign *= int(np.sign(a[k, k + 1]))
        tau = a[k + 2:, k] / a[k + 1, k]
        row = a[k + 1, k + 2:].copy()
        a[k + 2:, k + 2:] += np.outer(row, tau) - np.outer(tau, row)
    return sign


def matrix_shapes(mat):
    """The shape of each matrix that one decomposition call takes: a
    (B, m, m) stack, as the flow walk decomposes its initial nodes, counts
    as B matrices of shape (m, m)."""
    mat = np.asarray(mat)
    return [mat.shape[-2:]] * (mat.shape[0] if mat.ndim == 3 else 1)

