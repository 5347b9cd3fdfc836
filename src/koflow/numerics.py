"""Shared dense linear-algebra helpers.

Everything here is plain numpy on real matrices; the conventions
(zero-cluster split with a gap-ratio guard, phase of a skew matrix) are
used consistently by the index and flow modules.

Spectral convention: kernels, phases and small singular values are read
from one SVD of the matrix itself (`svd_split`), not from a squared
matrix such as M^T M or -T^2, whose eigenvalues put every singular value
below sqrt(eps) ||M|| into noise.

Residual convention: every structural check goes through
`residual_norm`, which tries the Frobenius bound ||R||_2 <= ||R||_F first
and takes the exact 2-norm (`op_norm`, an SVD) only when that bound fails.
A non-finite residual fails every check: it counts as inf, with no SVD.

Graded convention: a grading is a diagonal G = diag(signs) with n/2
entries -1 and n/2 entries +1 (a `Grading`, stored as its sign vector).
A skew T that anticommutes with G maps the coordinates of each sign to
those of the other, so one SVD of the n/2 x n/2 block T[minus, plus],
taken by index, gives the SVD of T (`block_split`).  The same holds for
every matrix built from such T alone: a phase J of T, completed on its
kernel with no other generator, is [[0, P], [-P^T, 0]] in G's
(minus, plus) coordinates (`Grading.odd`), and J0 + J1 is the same form
of P0 + P1, so phases and pair kernels can be kept and decomposed as
their n/2 x n/2 blocks.
"""
from __future__ import annotations

from dataclasses import dataclass

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
    """Largest 2-norm among `residuals`, exact whenever it exceeds tol;
    a complex residual R is measured as hypot(||Re R||_2, ||Im R||_2).

    A residual whose Frobenius bound is within tol counts as that bound,
    so the accepted inputs and the residuals reported on failure are those
    of the exact norm.  A residual with a non-finite entry counts as inf.
    Consumed lazily: a generator keeps one alive."""
    def size(res) -> float:
        parts = (res.real, res.imag) if np.iscomplexobj(res) else (res,)
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
    """A diagonal symmetric involution G = diag(signs) of trace 0.

    `signs` is a 1-D vector of exact -1 and +1 entries, as many of each;
    the indices of the -1 entries span G's -1 eigenspace, those of the +1
    entries its +1 eigenspace.  A path whose grading is not diagonal is
    written in a frame where it is (`models.flux_path`).
    """

    signs: np.ndarray

    def __post_init__(self):
        signs = np.array(self.signs, dtype=float)
        if signs.ndim != 1:
            raise ValidationError(
                f"a grading is a 1-D sign vector, got shape {signs.shape}")
        if not np.all(np.abs(signs) == 1.0):
            raise ValidationError("a grading's entries must be exactly -1 or +1")
        if 2 * np.count_nonzero(signs < 0.0) != signs.size:
            raise ValidationError(
                f"a grading must have trace 0, got {signs.sum():.3g}")
        signs.setflags(write=False)
        object.__setattr__(self, "signs", signs)

    @property
    def n(self) -> int:
        return self.signs.size

    def sectors(self):
        """The indices (minus, plus) of the -1 and the +1 entries, each
        ascending."""
        order = np.argsort(self.signs, kind="stable")  # the -1 indices first
        return order[:self.n // 2], order[self.n // 2:]

    def odd(self, block: np.ndarray) -> np.ndarray:
        """The n x n matrix [[0, block], [-block^T, 0]] in (minus, plus)
        coordinates, scattered by index: the skew G-odd matrix of `block`."""
        minus, plus = self.sectors()
        mat = np.zeros((self.n, self.n))
        mat[minus[:, None], plus] = block
        mat[plus[:, None], minus] = -block.T
        return mat


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


def _block_svd(block: np.ndarray, split):
    """One SVD B = U S W^T of the block of [[0, B], [-B^T, 0]], with the
    rank of B: each singular value of B appears twice in the G-odd
    matrix, and `split` finds the size 2k of its zero cluster on the
    doubled ascending values.  Returns (U, W^T, rank)."""
    u, s, wt = np.linalg.svd(block)
    return u, wt, s.size - split(np.repeat(s[::-1], 2)) // 2


def block_split(mat: np.ndarray, split, grading: Grading):
    """The half-size split of a skew mat that anticommutes with a grading.

    With m and p the indices of G's -1 and +1 entries, G mat + mat G is
    -2 mat[m, m] on the first sector and 2 mat[p, p] on the second: those
    two blocks are the grading check, a ValidationError above SAMPLE_TOL.
    The rest of mat is B = mat[m, p] and -B^T, so B = U S W^T is the whole
    SVD (`_block_svd`).  Returns
    (U_r W_r^T, U_k, W_k): the range block of the phase (r the range) and
    the kernel columns, U's on m and W's on p, k of each.
    """
    n = grading.n
    if mat.shape != (n, n):
        raise ValidationError(f"matrix shape {mat.shape} does not match the grading ({n})")
    minus, plus = grading.sectors()
    worst = residual_norm(SAMPLE_TOL, (2.0 * mat[idx[:, None], idx] for idx in (minus, plus)))
    if worst > SAMPLE_TOL:
        raise ValidationError(f"matrix breaks its grading (residual {worst:.3e})")
    ub, wbt, rank = _block_svd(mat.take(minus, 0).take(plus, 1), split)
    # copies, so that the kernel columns do not keep U and W alive
    return ub[:, :rank] @ wbt[:rank], ub[:, rank:].copy(), wbt[rank:].T.copy()


def svd_split(mat: np.ndarray, split, grading: Grading | None = None):
    """The range phase and the kernel basis of mat, from one SVD.

    `split` finds the size k of the zero cluster on the ascending singular
    values.  With mat = u diag(s) vt (s descending) the phase is
    u[:, :n-k] @ vt[:n-k] and the kernel basis the columns vt[n-k:]^T.

    With a grading, mat is skew (the caller checks) and is split by
    `block_split`; its range block and kernel columns are scattered back
    by index: the phase is `grading.odd` of the range block, and the
    kernel basis holds U_k on G's -1 indices and W_k on its +1 indices.
    """
    if grading is None:
        u, s, vt = np.linalg.svd(mat)
        rank = s.size - split(s[::-1])
        return u[:, :rank] @ vt[:rank], vt[rank:].T.copy()
    block, left, right = block_split(mat, split, grading)
    minus, plus = grading.sectors()
    k = left.shape[1]
    basis = np.zeros((grading.n, 2 * k))
    basis[minus, :k] = left
    basis[plus, k:] = right
    return grading.odd(block), basis


def kernel_basis(mat: np.ndarray, label: str = "kernel"):
    """Orthonormal basis (columns) of the numerical kernel of a square real
    matrix, guarded by split_zero_cluster on its singular values."""
    _, s, vt = np.linalg.svd(mat)
    k = split_zero_cluster(s[::-1], label=label)
    return vt[vt.shape[0] - k:].T


def block_kernel(block: np.ndarray):
    """Kernel columns (U_k, W_k) of the pair sum [[0, B], [-B^T, 0]] of
    two G-odd complex structures: U_k on the minus sector and W_k on the
    plus one, k of each, from `_block_svd` guarded by split_zero_cluster
    as a "pair kernel"."""
    u, wt, rank = _block_svd(block, lambda v: split_zero_cluster(v, label="pair kernel"))
    return u[:, rank:], wt[rank:].T


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
