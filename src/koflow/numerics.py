"""Shared dense linear-algebra helpers.

Everything here is plain numpy on real matrices; the conventions
(zero-cluster split with a gap-ratio guard, phase of a skew matrix) are
used consistently by the index and flow modules.

Spectral convention: every kernel is split off one SVD of the matrix
itself, by `svd_split`, the only function here that does so; it returns
the range factors and the left and right kernel columns.  Kernels are not
read from a squared matrix such as M^T M or -T^2, whose eigenvalues put
every singular value below sqrt(eps) ||M|| into noise.

Residual convention: every structural check goes through
`residual_norm`, which tries the Frobenius bound ||R||_2 <= ||R||_F first
and takes the exact 2-norm (`op_norm`, an SVD) only when that bound fails.
A non-finite residual fails every check: it counts as inf, with no SVD.

Graded convention: a grading is a diagonal G = diag(signs) with n/2
entries -1 and n/2 entries +1 (a `Grading`, stored as its sign vector).
A skew T that anticommutes with G is [[0, B], [-B^T, 0]] in G's
(minus, plus) coordinates, B = T[minus, plus] taken by index, so the SVD
B = U S W^T gives that of T with each singular value twice: `svd_split`
of B with the split `doubled` gives the factors of the range block
U_r W_r^T and the kernel columns U_k (on the minus sector) and W_k (on
the plus one).  The same holds for every matrix built from such T
alone: a phase J of T, completed on its kernel with no other generator,
is the same form of an orthogonal block P (`Grading.odd`), and J0 + J1
is the form of P0 + P1, so phases and pair kernels can be kept and
decomposed as their n/2 x n/2 blocks.  Whether a sample does anticommute with its grading
is checked where it is sampled (`flow.SkewPath.at`).
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


def doubled(split):
    """`split` read on the singular values of a block B, for the G-odd
    matrix [[0, B], [-B^T, 0]]: each singular value of B appears there
    twice, so `split` runs on the doubled values and B's zero cluster is
    half of the one it finds."""
    return lambda values: split(np.repeat(values, 2)) // 2


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
    """The range factors and the kernel columns of mat, from one SVD.

    `split` finds the size k of the zero cluster on the ascending singular
    values.  With mat = U S V^T (S descending) and r the rank, returns
    (U_r, V_r^T, U_k, V_k): views of the first r columns of U and rows of
    V^T, whose product U_r V_r^T is the range phase, and the last k
    columns of U and of V, copied so that they do not keep U and V alive.
    The views do: a caller that keeps the range phase forms the product
    and drops them.  A G-odd matrix [[0, B], [-B^T, 0]] is split through
    its block B with `doubled(split)`.
    """
    u, s, vt = np.linalg.svd(mat)
    rank = s.size - split(s[::-1])
    return u[:, :rank], vt[:rank], u[:, rank:].copy(), vt[rank:].T.copy()


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
