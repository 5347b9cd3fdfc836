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

Graded convention: a skew T that anticommutes with a symmetric involution
G of trace 0 (a `Grading`) maps each eigenspace of G to the other, so one
SVD of the n/2 x n/2 block between them gives the SVD of T.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import AmbiguousKernelError, ValidationError

# Default guards, shared by kernel extraction everywhere.
ZERO_CLUSTER_REL_TOL = 1e-8
GAP_RATIO_GUARD = 1e3
# Residual bound for a path sample: skewness, anticommutation, grading.
SAMPLE_TOL = 1e-10
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


@dataclass(frozen=True)
class Grading:
    """A symmetric orthogonal involution G = I_copies (x) g of trace 0.

    Kept as the orthonormal eigenbasis `basis` = [minus, plus] of the
    c x c cell g: c/2 columns spanning its -1 eigenspace, then c/2
    spanning its +1 eigenspace.  `right`, `left` and `lift` apply
    I (x) basis (or one half of it) through reshapes, as CliffordRep
    applies its cells.  g is checked on construction and not stored.
    """

    g: InitVar[np.ndarray]
    copies: int = 1
    basis: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, g):
        g = np.asarray(g, dtype=float)
        c = g.shape[0] if g.ndim == 2 else -1
        if g.shape != (c, c) or self.copies < 1:
            raise ValidationError(
                f"a grading needs a square cell and copies >= 1, got shape "
                f"{g.shape} and {self.copies} copies")
        worst = residual_norm(SAMPLE_TOL, [g - g.T, g @ g - np.eye(c)])
        if worst > SAMPLE_TOL:
            raise ValidationError(
                f"a grading must be a symmetric orthogonal involution (residual {worst:.3e})")
        vals, vecs = sym_eigh(g)
        if 2 * np.count_nonzero(vals < 0.0) != c:
            raise ValidationError(f"a grading must have trace 0, got {np.trace(g):.3g}")
        vecs.setflags(write=False)
        object.__setattr__(self, "basis", vecs)

    @property
    def n(self) -> int:
        return self.copies * self.basis.shape[0]

    @property
    def minus(self) -> np.ndarray:
        return self.basis[:, :self.basis.shape[0] // 2]

    @property
    def plus(self) -> np.ndarray:
        return self.basis[:, self.basis.shape[0] // 2:]

    def right(self, mat: np.ndarray) -> np.ndarray:
        """mat (I (x) basis) for a matrix with n columns."""
        c = self.basis.shape[0]
        return (mat.reshape(-1, c) @ self.basis).reshape(mat.shape)

    def left(self, mat: np.ndarray) -> np.ndarray:
        """(I (x) basis)^T mat for a matrix with n rows."""
        c = self.basis.shape[0]
        return (self.basis.T @ mat.reshape(self.copies, c, -1)).reshape(mat.shape)

    def lift(self, half: np.ndarray, mat: np.ndarray) -> np.ndarray:
        """(I (x) half) mat for `minus` or `plus` and a matrix with n/2 rows."""
        return (half @ mat.reshape(self.copies, half.shape[1], -1)).reshape(
            -1, mat.shape[1])


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


def svd_split(mat: np.ndarray, split, grading: Grading | None = None):
    """One SVD mat = u diag(s) vt (s descending) and the size k of its zero
    cluster, found by `split` on the ascending singular values s[::-1].

    The last k rows of vt span the numerical kernel; u[:, :n-k] @ vt[:n-k]
    is the phase of mat on the complement.

    With a grading, mat is skew (the caller checks) and must anticommute
    with G.  In the basis (minus, plus) G mat + mat G is
    2 diag(-minus^T mat minus, plus^T mat plus): those two blocks are the
    grading check, a ValidationError above SAMPLE_TOL.  The rest of mat
    is minus B plus^T - plus B^T minus^T with B = minus^T mat plus, so
    B = U S W^T gives mat = [minus U, plus W] diag(S, S) [plus W, -minus U]^T:
    each singular value of B appears twice, and u, vt are interleaved to
    keep s descending.
    """
    if grading is None:
        u, s, vt = np.linalg.svd(mat)
        return u, s, vt, split(s[::-1])
    n, c = grading.n, grading.basis.shape[0]
    if mat.shape != (n, n):
        raise ValidationError(f"matrix shape {mat.shape} does not match the grading ({n})")
    # mat in the basis I (x) [minus, plus], one c x c block per pair of cells
    graded = grading.left(grading.right(mat)).reshape(grading.copies, c, grading.copies, c)
    h = c // 2
    b = graded[:, :h, :, h:].copy().reshape(n // 2, n // 2)
    graded[:, :h, :, h:] = 0.0
    graded[:, h:, :, :h] = 0.0
    graded *= 2.0  # now G mat + mat G in that basis, up to the sign of a block
    worst = residual_norm(SAMPLE_TOL, [graded.reshape(n, n)])
    if worst > SAMPLE_TOL:
        raise ValidationError(f"matrix breaks its grading (residual {worst:.3e})")
    del graded
    ub, sb, wbt = np.linalg.svd(b)
    minus, plus = grading.minus, grading.plus
    u, vt = np.empty((n, n)), np.empty((n, n))
    u[:, 0::2] = grading.lift(minus, ub)
    u[:, 1::2] = grading.lift(plus, wbt.T)
    vt[0::2] = u[:, 1::2].T
    np.negative(u[:, 0::2].T, out=vt[1::2])
    s = np.repeat(sb, 2)
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
