"""Shared dense linear-algebra helpers.

Everything here is plain numpy on real matrices; the conventions
(zero-cluster split with a gap-ratio guard, phase of a skew matrix) are
used consistently by the index and flow modules.

Spectral convention: every kernel is split off one decomposition of the
matrix itself: one SVD of a general matrix, by `svd_split`, or one
symmetric eigendecomposition of a symmetric one, by `sym_split`, whose
singular values are its eigenvalue magnitudes; these are the only two
functions here that do so, and both return the range factors and the
left and right kernel columns.  Given a (B, m, m) stack, both decompose
it by one stacked call and split it item by item, each item to the bit
as it would be alone.  Kernels are not read from a squared matrix such
as M^T M or -T^2, whose eigenvalues put every singular value below
sqrt(eps) ||M|| into noise.

Residual convention: every structural check goes through
`residual_norm`, which tries the Frobenius bound ||R||_2 <= ||R||_F first
and takes the exact 2-norm (`op_norm`, an SVD) only when that bound fails.
The bound of a real R is sqrt(r . r) for r = R.ravel(order="K"), the
computation of `np.linalg.norm` to the bit, formed without its wrappers
(`_frobenius`); a complex R takes the hypot of its two parts' bounds.
A residual with a non-finite entry fails every check: it counts as inf,
with no SVD.  One whose entries are all finite but whose sum of squares
overflows has an inf bound too, silently, and is then measured exactly.
`residual_norms` measures each item of a stack of residuals so, to the
bit, with the dot products of all items taken by one call.

Graded convention: a grading is a diagonal G = diag(signs) with n/2
entries -1 and n/2 entries +1 (a `Grading`, stored as its sign vector).
A skew T that anticommutes with G is [[0, B], [-B^T, 0]] in G's
(minus, plus) coordinates, B = T[minus, plus] taken by index, so the SVD
B = U S W^T gives that of T with each singular value twice: `svd_split`
of B with the split `doubled` gives the factors of the range block
U_r W_r^T and the kernel columns U_k (on the minus sector) and W_k (on
the plus one).  Whether a sample does anticommute with its grading is
checked where it is sampled (`flow.SkewPath.at`).  In the same way
A (x) b, b orthogonal of size c, has each singular value of A c times, and
so does the G-odd form of P (x) beta, beta orthogonal of size c/2, each
of P's: both are split through their N x N factor with
`repeated(split, c)`.  That is the reduced route of `flow`, whose two
kinds (`pairs.Reduction`) decompose a symmetric A by `sym_split` and a
general P by `svd_split`; phases and pair kernels there are kept and
decomposed as N x N matrices.
"""
from __future__ import annotations

import math
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


def _frobenius(res: np.ndarray) -> float:
    """||res||_F of a real array, bit for bit as `np.linalg.norm` forms it
    (the square root of the dot product of `ravel(order="K")` with itself),
    without that function's per-call argument handling.  `np.vdot` runs
    the same dot product but skips numpy's floating-point status check, so
    a sum of squares that overflows reads inf with no warning."""
    flat = res.ravel(order="K")
    return math.sqrt(np.vdot(flat, flat))


def frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """||item||_F of each item of a real (B, ...) stack, each bit for bit
    as `_frobenius` forms it: a stacked (1 x m) (m x 1) product runs the
    same dot product once per item, in one call."""
    flat = stack.reshape(stack.shape[0], -1)
    return np.sqrt((flat[:, None, :] @ flat[:, :, None]).reshape(-1))


def _exact_size(parts, bound: float) -> float:
    """The size of a residual (its real parts) whose Frobenius bound
    exceeds the tolerance: inf with a non-finite entry, else exact."""
    if not math.isfinite(bound) and not all(np.isfinite(p).all() for p in parts):
        return math.inf  # the SVD of a NaN residual would not converge
    return float(np.hypot.reduce([op_norm(p) for p in parts]))


def residual_norm(tol: float, residuals) -> float:
    """Largest 2-norm among `residuals`, exact whenever it exceeds tol;
    a complex residual R is measured as hypot(||Re R||_2, ||Im R||_2).

    A residual whose Frobenius bound is within tol counts as that bound,
    so the accepted inputs and the residuals reported on failure are those
    of the exact norm.  A residual with a non-finite entry counts as inf;
    one whose entries are finite but whose bound overflows is measured
    exactly.  Consumed lazily: a generator keeps one alive."""
    def size(res) -> float:
        if res.dtype.kind == "c":
            parts = (res.real, res.imag)
            bound = float(np.hypot.reduce([_frobenius(p) for p in parts]))
        else:
            parts = (res,)
            bound = _frobenius(res)
        return bound if bound <= tol else _exact_size(parts, bound)

    # map drops each residual before the next one is built
    return max(map(size, residuals), default=0.0)


def residual_norms(tol, residuals):
    """`residual_norm` of each item of a stack: `residuals` yields real
    (B, ...) stacks, item i of each one a residual of item i, and `tol` is
    one bound or an array of one per item.  Item i reads what
    `residual_norm(tol[i], ...)` returns on its own residuals, to the bit:
    the Frobenius bounds of a stack are taken by `frobenius_norms`, and
    only an item whose bound exceeds its tol is measured on its own.
    With no residuals it is 0.0."""
    worst = None
    for stack in residuals:
        if len(stack) == 1:
            # the stack of one takes residual_norm's own path, which makes
            # a third of the stacked path's numpy calls
            bounds = np.array([residual_norm(tol, stack)])
        else:
            bounds = frobenius_norms(stack)
            within = bounds <= tol
            if not within.all():
                for i in np.flatnonzero(~within):
                    bounds[i] = _exact_size((stack[i],), bounds[i])
        worst = bounds if worst is None else np.maximum(worst, bounds)
    return 0.0 if worst is None else worst


def held(fn, *args, **kwargs):
    """fn(*args, **kwargs), or the exception that it raised: the failure of
    one item of a stack, kept until that item is reached."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return exc


def sym_eigh(mat: np.ndarray):
    """Eigendecomposition of a symmetric matrix, ascending eigenvalues; of
    each item of a (B, m, m) stack, by one stacked call."""
    if mat.shape[-1] == 0:
        return np.zeros(mat.shape[:-1]), np.zeros(mat.shape)
    return np.linalg.eigh((mat + mat.swapaxes(-1, -2)) / 2.0)


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
        coordinates, scattered by index: the skew G-odd matrix of `block`;
        of each item of a (B, n/2, n/2) stack of blocks."""
        minus, plus = self.sectors()
        mat = np.zeros(block.shape[:-2] + (self.n, self.n))
        mat[..., minus[:, None], plus] = block
        mat[..., plus[:, None], minus] = -block.swapaxes(-1, -2)
        return mat


def repeated(split, times: int):
    """`split` read on the singular values of a factor A, for a matrix
    that has each of them `times` times (A (x) b with b orthogonal of size
    `times`, or the G-odd form of A (x) beta with beta orthogonal of size
    `times` / 2): `split` runs on the repeated values and A's zero cluster
    is the one it finds divided by `times`."""
    return lambda values: split(np.repeat(values, times)) // times


def doubled(split):
    """`split` read on the singular values of a block B, for the G-odd
    matrix [[0, B], [-B^T, 0]]: each singular value of B appears there
    twice, so `split` runs on the doubled values and B's zero cluster is
    half of the one it finds."""
    return repeated(split, 2)


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

    A (B, m, m) stack is decomposed by one stacked SVD and split item by
    item: a list of B such tuples, in which an item whose split (or, when
    the stacked SVD fails, whose own SVD) raised holds that exception.
    """
    try:
        u, s, vt = np.linalg.svd(mat)
    except np.linalg.LinAlgError:
        if mat.ndim == 2:
            raise
        return [held(svd_split, item, split) for item in mat]
    if mat.ndim == 2:
        return _svd_factors(u, s, vt, split)
    return [held(_svd_factors, *item, split) for item in zip(u, s, vt)]


def _svd_factors(u, s, vt, split):
    rank = s.size - split(s[::-1])
    return u[:, :rank], vt[:rank], u[:, rank:].copy(), vt[rank:].T.copy()


def sym_split(mat: np.ndarray, split):
    """`svd_split` of a symmetric matrix, from one eigendecomposition.

    With mat = V diag(lam) V^T (`sym_eigh`), its singular values are the
    magnitudes |lam|, and `split` finds the size k of the zero cluster on
    them, ascending.  Returns (U_r, V_r^T, K, K): U_r = V_r sign(lam_r),
    with sign(0) = +1, and V_r^T a view of V, whose product is the range
    phase, and the k kernel columns K, copied, as both the left and the
    right ones (one array).  Only the k kernel columns are copied out of
    V, and at most k range columns moved inside it, so the range columns
    are the first r of V.  A (B, m, m) stack is decomposed by one stacked
    eigendecomposition and split item by item, as `svd_split` splits one.
    """
    try:
        vals, vecs = sym_eigh(mat)
    except np.linalg.LinAlgError:
        if mat.ndim == 2:
            raise
        return [held(sym_split, item, split) for item in mat]
    if mat.ndim == 2:
        return _sym_factors(vals, vecs, split)
    return [held(_sym_factors, *item, split) for item in zip(vals, vecs)]


def _sym_factors(vals, vecs, split):
    mags = np.abs(vals)
    order = np.argsort(mags, kind="stable")
    k = split(mags[order])
    rank = vals.size - k
    ker = np.sort(order[:k])
    kernel = vecs[:, ker]
    # range columns among the last k fill the places of kernel columns
    # among the first r
    in_range = np.ones(vals.size, dtype=bool)
    in_range[ker] = False
    holes = ker[ker < rank]
    tail = rank + np.flatnonzero(in_range[rank:])
    vecs[:, holes] = vecs[:, tail]
    vals[holes] = vals[tail]
    v_r = vecs[:, :rank]
    return v_r * np.where(vals[:rank] < 0.0, -1.0, 1.0), v_r.T, kernel, kernel


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
