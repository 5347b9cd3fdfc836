"""Shared dense linear-algebra helpers.

Everything here is plain numpy on real matrices; the conventions
(zero-cluster split with a gap-ratio guard, polar orthogonalization,
phase of a skew matrix) are used consistently by the index and flow
modules.

Residual convention: every structural check goes through
`residual_norm`, which tries the Frobenius bound ||R||_2 <= ||R||_F first
and takes the exact 2-norm (`op_norm`, an SVD) only when that bound fails.
"""
from __future__ import annotations

import numpy as np

from .errors import AmbiguousKernelError

# Default guards, shared by kernel extraction everywhere.
ZERO_CLUSTER_REL_TOL = 1e-8
GAP_RATIO_GUARD = 1e3


def op_norm(mat: np.ndarray) -> float:
    """Operator (spectral) norm; 0 for empty matrices."""
    if mat.size == 0:
        return 0.0
    return float(np.linalg.norm(mat, 2))


def residual_norm(tol: float, residuals) -> float:
    """Largest 2-norm among `residuals` (real matrices, or models.CMat
    measured as hypot(||re||_2, ||im||_2)), exact whenever it exceeds tol.

    A residual whose Frobenius bound is within tol counts as that bound,
    so the accepted inputs and the residuals reported on failure are those
    of the exact norm.  Consumed lazily: a generator keeps one alive."""
    def size(res) -> float:
        parts = (res,) if isinstance(res, np.ndarray) else (res.re, res.im)
        bound = float(np.hypot.reduce([np.linalg.norm(p) for p in parts]))
        if bound <= tol:
            return bound
        return float(np.hypot.reduce([op_norm(p) for p in parts]))  # NaN lands here

    # map drops each residual before the next one is built
    return max(map(size, residuals), default=0.0)


def sym_eigh(mat: np.ndarray):
    """Eigendecomposition of a symmetric matrix, ascending eigenvalues."""
    if mat.shape[0] == 0:
        return np.zeros(0), np.zeros((0, 0))
    return np.linalg.eigh((mat + mat.T) / 2.0)


def split_zero_cluster(values: np.ndarray, rel_tol: float = ZERO_CLUSTER_REL_TOL,
                       gap_ratio: float = GAP_RATIO_GUARD, label: str = "kernel",
                       abs_floor: float = 1e-12):
    """Split ascending nonnegative singular values into (zero cluster, rest).

    Returns the size of the zero cluster.  The cluster starts below
    ``10 * rel_tol * max`` and absorbs neighbours within a factor 10 (an
    exact kernel often lands as a noise cluster straddling the raw
    threshold); the first survivor must clear the cluster top by
    `gap_ratio`, and the cluster may not creep above a ceiling, otherwise
    the split is ambiguous.  A matrix whose largest singular value sits
    below `abs_floor` counts as identically zero (all kernel); the callers
    here deal in unit-scale operators.
    """
    values = np.asarray(values)
    if values.size == 0:
        return 0
    vmax = float(values[-1])
    if vmax <= abs_floor:
        return int(values.size)  # identically zero operator: all kernel
    cut = rel_tol * vmax
    ceiling = max(1e-4, 100.0 * rel_tol) * vmax
    if float(values[0]) > 10.0 * cut:
        return 0
    k = 1
    while k < values.size and values[k] <= 10.0 * max(float(values[k - 1]), cut):
        k += 1
    top = float(values[k - 1])
    if top > ceiling:
        raise AmbiguousKernelError(
            f"ambiguous {label}: the zero cluster creeps up to {top:.3e} "
            f"with no clean gap below {vmax:.3e}")
    if k < values.size:
        first = float(values[k])
        if first < gap_ratio * max(top, cut / gap_ratio):
            raise AmbiguousKernelError(
                f"ambiguous {label}: singular values {top:.3e} and "
                f"{first:.3e} are separated by less than the gap-ratio "
                f"guard {gap_ratio:g}",
                gap_ratio=first / max(top, np.finfo(float).tiny),
            )
    return k


def kernel_basis(mat: np.ndarray, rel_tol: float = ZERO_CLUSTER_REL_TOL,
                 gap_ratio: float = GAP_RATIO_GUARD, label: str = "kernel"):
    """Orthonormal basis of the numerical kernel of a real matrix.

    Works on the symmetric PSD matrix mat.T @ mat so the basis vectors are
    orthonormal eigenvectors; guarded by split_zero_cluster on the
    singular values.
    """
    vals, vecs = sym_eigh(mat.T @ mat)
    svals = np.sqrt(np.clip(vals, 0.0, None))
    k = split_zero_cluster(svals, rel_tol, gap_ratio, label=label)
    return vecs[:, :k]


def polar_orthogonal(mat: np.ndarray) -> np.ndarray:
    """Orthogonal factor of the polar decomposition mat = U * sqrt(mat^T mat)."""
    u, _, vt = np.linalg.svd(mat)
    return u @ vt


def phase_from_eigh(tmat: np.ndarray, vals: np.ndarray, vecs: np.ndarray,
                    kernel_dim: int = 0) -> np.ndarray:
    """Phase T|T|^-1 of a skew matrix from the eigendecomposition
    (vals, vecs) of -T^2, zero on the kernel cluster.

    kernel_dim many smallest singular values are treated as kernel and the
    phase vanishes there; the caller decides the split.
    """
    inv = np.zeros(tmat.shape[0])
    inv[kernel_dim:] = 1.0 / np.sqrt(vals[kernel_dim:])
    j = tmat @ (vecs * inv) @ vecs.T
    return (j - j.T) / 2.0


def skew_phase(tmat: np.ndarray, kernel_dim: int = 0) -> np.ndarray:
    """Phase T|T|^-1 of a skew matrix, zero on the kernel_dim smallest
    singular values (see phase_from_eigh)."""
    if tmat.shape[0] == 0:
        return tmat.copy()
    vals, vecs = sym_eigh(-(tmat @ tmat))
    return phase_from_eigh(tmat, vals, vecs, kernel_dim)


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish orthogonal matrix by QR of a Gaussian, sign-fixed."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_skew(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return (a - a.T) / 2.0


def min_singular_value(mat: np.ndarray) -> float:
    if mat.size == 0:
        return np.inf
    return float(np.linalg.svd(mat, compute_uv=False)[-1])
