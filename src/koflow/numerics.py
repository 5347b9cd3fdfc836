"""Shared dense linear-algebra helpers.

Everything here is plain numpy on real matrices; the conventions
(zero-cluster split with a gap-ratio guard, phase of a skew matrix) are
used consistently by the index and flow modules.

Spectral convention: kernels, phases and small singular values are read
from one SVD of the matrix itself (`svd_split`), not from a squared
matrix such as M^T M or -T^2, whose eigenvalues put every singular value
below sqrt(eps) ||M|| into noise.  (pairs.spectral_submodule keeps its
eigh of -T0^2: its lambda^2 window is stated in squared units.)

Residual convention: every structural check goes through
`residual_norm`, which tries the Frobenius bound ||R||_2 <= ||R||_F first
and takes the exact 2-norm (`op_norm`, an SVD) only when that bound fails.
A non-finite residual fails every check: it counts as inf, with no SVD.
"""
from __future__ import annotations

import numpy as np

from .errors import AmbiguousKernelError, ValidationError

# Default guards, shared by kernel extraction everywhere.
ZERO_CLUSTER_REL_TOL = 1e-8
GAP_RATIO_GUARD = 1e3
# Bytes that the large arrays of one problem may take together.
MEMORY_BUDGET = 4 * 2 ** 30


def check_memory(what: str, planned: int) -> None:
    """Raise ValidationError when `planned` bytes exceed MEMORY_BUDGET;
    called with the byte count of a problem before any of it is allocated."""
    if planned > MEMORY_BUDGET:
        raise ValidationError(f"{what} needs {planned} bytes, "
                              f"over the memory budget of {MEMORY_BUDGET} bytes")


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
    of the exact norm.  A residual with a non-finite entry counts as inf.
    Consumed lazily: a generator keeps one alive."""
    def size(res) -> float:
        parts = (res,) if isinstance(res, np.ndarray) else (res.re, res.im)
        bound = float(np.hypot.reduce([np.linalg.norm(p) for p in parts]))
        if bound <= tol:
            return bound
        if not np.isfinite(bound):
            return np.inf  # the SVD of a NaN residual would not converge
        return float(np.hypot.reduce([op_norm(p) for p in parts]))

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


def svd_split(mat: np.ndarray, split):
    """One SVD mat = u diag(s) vt (s descending) and the size k of its zero
    cluster, found by `split` on the ascending singular values s[::-1].

    The last k rows of vt span the numerical kernel; u[:, :n-k] @ vt[:n-k]
    is the phase of mat on the complement.
    """
    u, s, vt = np.linalg.svd(mat)
    return u, s, vt, split(s[::-1])


def kernel_basis(mat: np.ndarray, rel_tol: float = ZERO_CLUSTER_REL_TOL,
                 gap_ratio: float = GAP_RATIO_GUARD, label: str = "kernel"):
    """Orthonormal basis (columns) of the numerical kernel of a square real
    matrix, guarded by split_zero_cluster on its singular values."""
    _, _, vt, k = svd_split(
        mat, lambda s: split_zero_cluster(s, rel_tol, gap_ratio, label=label))
    return vt[vt.shape[0] - k:].T


def skew_phase(tmat: np.ndarray) -> np.ndarray:
    """Phase T|T|^-1 of an invertible skew matrix: the orthogonal polar
    factor u @ vt of its SVD."""
    u, _, vt = np.linalg.svd(tmat)
    return u @ vt


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
