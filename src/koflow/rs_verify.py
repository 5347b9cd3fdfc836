"""Desk-scale verification that the Clifford index of the one-dimensional
operator D = A(t) (x) omega_{1,1} - d/dt (x) K1 equals the spectral flow
of the coefficient path A(t) = f(t) F_{s+1}.

The operator is compressed onto Hermite functions of t/ell.  In that
basis d/dt is an exact bidiagonal antisymmetric matrix and multiplication
by f becomes f evaluated on the spectral decomposition of the
(tridiagonal) position matrix, assembled by parity from its nonnegative
eigenvalues alone, so the assembly is exactly skew, the lifted Clifford
generators anticommute with it exactly, and the basis lives on the whole
line (no wall, no Brillouin zone).

The grading S = F_{s+1} (x) L1 commutes with every lifted generator while
D anticommutes with it, so in the bases of its two eigenspaces (sectors)
D = [[0, -X^T], [X, 0]].  The cell-size sector blocks of the coefficient
and derivative terms are one orthogonal cell A up to a sign, so X is one
Kronecker product level (x) A of a scalar Hermite-basis "level" matrix
(coefficient plus signed derivative) with that cell; each singular value
of the level matrix is n singular values of X, and its null vectors v
give the kernel vectors v (x) eta for every cell vector eta.  Each
lifted generator is kept as its two cell-size sector blocks.  The
truncation is rectangular: a symmetric one would make X square, so
every bound state would acquire a ghost partner of the
opposite class at the same singular value and the computed kernel class
would cancel to zero (local grid stencils suffer the same cancellation
through their sign-alternating doubler branch).  Keeping one extra basis
level in the bound sector gives X Fredholm index dim(V): the ghost branch
leaks into the extra level and is pushed to order-one singular values.

The kernel ker X (+) ker X^T is compared, as a Clifford module, against
the flow of the coefficient path and against the analytic bound-state
profile.

Convention note: pairing the same coefficient family against the line's
Dirac class in bivariant K-theory produces the NEGATIVE of the flow; only
the direct (unsigned-convention) equality above is asserted here.

scipy is imported only inside the solves that call it, `_hermite_nodes`
(a values-only tridiagonal solve for the collocation nodes, whose
eigenvectors come from the Hermite recurrence), `_gram` (a BLAS rank-k
update) and `numeric_kernel` (one tridiagonal reduction of the Gram
matrix and eigensolves of the tridiagonal), so importing this module
loads numpy alone; scipy.sparse is never loaded.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .abs_index import KOClass, abs_class
from .clifford import (K1, K2, L1, OMEGA_11, RESTRICTION_TOL, CliffordRep,
                       restrict_images)
from .errors import AmbiguousKernelError, ValidationError
from .flow import SkewPath, spectral_flow
from .numerics import check_memory, residual_norm, split_zero_cluster

# Singular values probed beyond dim(module) by numeric_kernel.
KERNEL_EXTRA = 6
# numeric_kernel's zero-cluster cut (relative, see its docstring) and the
# gap ratio it demands of the first singular value above the cluster.
KERNEL_TOL = 1e-4
KERNEL_GAP_RATIO = 100.0
# Bound on ||A A^T - I|| and ||B -+ A|| for the two cell blocks of X.
CELL_TOL = 1e-12
# Right end of the window [-1, 2] on which `coefficient_path` samples f;
# the basis reach ell * sqrt(2m) must cover it.
PATH_END = 2.0


def default_switching(t: float) -> float:
    """f = 1 on (-inf, 0], -1 on [1, inf), quintic smoothstep between."""
    if t <= 0.0:
        return 1.0
    if t >= 1.0:
        return -1.0
    smooth = t * t * t * (10.0 - 15.0 * t + 6.0 * t * t)
    return 1.0 - 2.0 * smooth


@dataclass(frozen=True)
class RSProblem:
    """A finite module carrying A(t) = f(t) F_{s+1}, with basis parameters.

    `L` sets the Hermite length scale ell = 1.3 / sqrt(L); larger L
    squeezes the basis, which slows the kernel's spectral convergence
    into a cleanly measurable range (the bound profile decays like
    e^-|t|, resolved by a Gaussian-weighted basis of m functions at rate
    e^(-c ell sqrt(2m))).
    """

    module: CliffordRep          # signature (r, s+1)
    L: float = 12.0
    m: int = 1200
    f: Callable[[float], float] = default_switching

    def __post_init__(self):
        if self.module.s < 1:
            raise ValidationError("the module needs at least one skew generator")
        if not (np.isfinite(self.L) and self.L > 2):
            raise ValidationError(f"length scale must be finite and exceed 2, got {self.L}")
        if self.m < 200:
            raise ValidationError(f"need at least 200 basis functions, got {self.m}")
        self.module.validate(1e-10)
        reach = self.scale * np.sqrt(2.0 * self.m)
        if not reach >= PATH_END:
            raise ValidationError(
                f"the Hermite basis reaches |t| <= {reach:.3g}, short of the "
                f"coefficient path's window [-1, {PATH_END:g}]: lower L or raise m")
        values = np.array([self.f(t) for t in np.linspace(-reach, reach, 801)])
        if np.max(np.abs(values)) > 1.0 + 1e-12:
            raise ValidationError("|f| must be bounded by 1")
        if abs(abs(values[0]) - 1.0) > 1e-12 or abs(abs(values[-1]) - 1.0) > 1e-12:
            raise ValidationError("f must saturate to +1 or -1 at both ends")

    @property
    def scale(self) -> float:
        return 1.3 / np.sqrt(self.L)


@dataclass(frozen=True)
class DiscreteOperator:
    """Sector-block storage of the skew matrix D = [[0, -X^T], [X, 0]],
    with X = kron(matrix, cell) one Kronecker product level (x) cell.

    Sector coordinates list the m levels of the full sector, then the
    retained levels of the cut sector, each level carrying the columns of
    `keep_full` (resp. `keep_cut`) as cell vectors.  `matrix` is the
    scalar level matrix (cut levels by full levels) and `cell` the
    orthogonal n x n cell block.  Each lifted Clifford generator is a
    (2, n, n) array: its cell blocks on the full and on the cut sector.
    """

    matrix: np.ndarray
    cell: np.ndarray
    keep_full: np.ndarray
    keep_cut: np.ndarray
    lifted_E: tuple = field(default=())
    lifted_F: tuple = field(default=())

    @property
    def dimension(self) -> int:
        return self.cell.shape[0] * sum(self.matrix.shape)

    def lift(self, gen: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        """A lifted generator applied to columns in sector coordinates."""
        rows, cols = self.matrix.shape
        n, k = gen.shape[1], vecs.shape[1]
        return np.concatenate(
            [(gen[0] @ vecs[:cols * n].reshape(cols, n, k)).reshape(cols * n, k),
             (gen[1] @ vecs[cols * n:].reshape(rows, n, k)).reshape(rows * n, k)])

    def to_cells(self, vecs: np.ndarray) -> np.ndarray:
        """Columns in sector coordinates as (level, cell, column) arrays."""
        rows, cols = self.matrix.shape
        n, k = self.cell.shape[0], vecs.shape[1]
        out = self.keep_full @ vecs[:cols * n].reshape(cols, n, k)
        out[:rows] += self.keep_cut @ vecs[cols * n:].reshape(rows, n, k)
        return out


def _hermite_nodes(m: int):
    """The ceil(m/2) nonnegative eigenvalues of the m x m Hermite Jacobi
    matrix J (zero diagonal, sqrt(j/2) off it), ascending, with their
    unit eigenvectors as columns.

    This is the Golub-Welsch construction (Math. Comp. 23, 1969) with the
    Newton polish of Townsend, Trogdon and Olver (IMA J. Numer. Anal. 36,
    2016).  The positive nodes are the square roots of the eigenvalues of
    the odd-row block of J^2, a half-size tridiagonal solved for values
    only; an odd m adds the zero node.  Each eigenvector is the Hermite
    recurrence h_{j+1} = theta sqrt(2/(j+1)) h_j - sqrt(j/(j+1)) h_{j-1}
    (the Hermite functions without their Gaussian, which underflows past
    theta = 37.6) from h_0 = 1.  A column is rescaled, with everything
    above it, by an exact power of two once it passes 2^330: a step grows
    it at most sqrt(2) theta + 1 times, so it is checked every 8 steps.
    The recurrence runs one order past the matrix, so h_m, which vanishes
    at an exact node, and h_m' = sqrt(2m) h_{m-1} give one Newton step
    theta -> theta + delta; the eigenvector moves with it to first order,
    by delta h_j' = delta sqrt(2j) h_{j-1}.
    """
    from scipy.linalg import eigh_tridiagonal  # here, to keep `import koflow` light

    odd = np.arange(1, m, 2)
    diag = odd + 0.5  # (J^2)_{jj} = j/2 + (j+1)/2
    if m % 2 == 0:
        diag[-1] -= m / 2.0  # the last row has no (j+1) neighbour
    squares = eigh_tridiagonal(diag, np.sqrt((odd[:-1] + 1.0) * (odd[:-1] + 2.0)) / 2.0,
                               eigvals_only=True, lapack_driver="sterf")
    theta = np.concatenate([np.zeros(m % 2), np.sqrt(squares)])
    up = np.sqrt(2.0 / np.arange(1, m + 1))
    down = np.sqrt(np.arange(m) / np.arange(1.0, m + 1))
    h = np.empty((m + 1, theta.size))
    h[0] = 1.0
    h[1] = np.sqrt(2.0) * theta
    for j in range(1, m):
        row = np.multiply(theta, h[j], out=h[j + 1])
        row *= up[j]
        row -= down[j] * h[j - 1]
        if j % 8 == 0:
            big = np.abs(h[j:j + 2]).max(axis=0) > 2.0 ** 330
            if big.any():
                h[:j + 2, big] *= 2.0 ** -330
    delta = -h[m] / (np.sqrt(2.0 * m) * h[m - 1])
    vecs = h[:m]
    shift = h[:m - 1] * delta
    shift *= np.sqrt(2.0 * np.arange(1, m))[:, None]
    vecs[1:] += shift
    vecs /= np.sqrt(np.einsum("ij,ij->j", vecs, vecs))
    return theta + delta, vecs


def _weighted_product(left: np.ndarray, weights: np.ndarray, right: np.ndarray):
    """left diag(weights) right^T, summed over the nonzero weights only:
    a switch from +1 to -1 has f(ell theta) + f(-ell theta) = 0 at every
    node past its window, so the diagonal parity blocks take the few
    nodes inside it."""
    keep = weights != 0.0
    return (left[:, keep] * weights[keep]) @ right[:, keep].T


def _basis_blocks(problem: RSProblem):
    """(derivative superdiagonal, coefficient matrix) in the scaled Hermite
    basis.

    The position operator is the exact tridiagonal Jacobi matrix J;
    multiplication by f is f evaluated at its eigenvalues (the
    collocation nodes), rotated back by its eigenvectors.  J maps even
    basis functions to odd ones, so its nodes pair up as +-theta with
    eigenvectors (a, c) and (a, -c) on the (even, odd) rows, and the
    coefficient matrix is built by parity blocks from the nonnegative
    nodes of `_hermite_nodes` alone: a diag(s) a^T on the even rows,
    c diag(s) c^T on the odd rows and a diag(d) c^T between them, with
    s = f(ell theta) + f(-ell theta) and d = f(ell theta) - f(-ell theta)
    (the zero node of an odd m counts once).  The two diagonal blocks are
    symmetrized and the off-diagonal ones are each other's transposes, so
    the matrix is exactly symmetric.  The derivative is the exact
    antisymmetric bidiagonal matrix, divided by the length scale: `step`
    on the superdiagonal, -`step` below.
    """
    m = problem.m
    ell = problem.scale
    theta, vecs = _hermite_nodes(m)
    f_pos = np.array([problem.f(ell * t) for t in theta])
    f_neg = np.array([problem.f(-ell * t) for t in theta])
    even_w, odd_w = f_pos + f_neg, f_pos - f_neg
    if m % 2:
        even_w[0] /= 2.0  # the zero node is its own mirror image
    coeff = np.empty((m, m))
    for rows in (slice(0, m, 2), slice(1, m, 2)):
        block = _weighted_product(vecs[rows], even_w, vecs[rows])
        block += block.T
        block /= 2.0
        coeff[rows, rows] = block
        del block
    block = _weighted_product(vecs[0::2], odd_w, vecs[1::2])
    coeff[0::2, 1::2] = block
    coeff[1::2, 0::2] = block.T
    return np.sqrt(np.arange(1, m) / 2.0) / ell, coeff


def _sector_bases(f_last: np.ndarray):
    """Exact orthonormal bases of the two eigenspaces of F_{s+1} (x) L1
    on the cell V (x) R^2 (entries are exact halves).

    Plus sector: columns interleave(eta - F eta, eta + F eta) / 2;
    minus sector: columns interleave(eta + F eta, eta - F eta) / 2.
    """
    eye = np.eye(f_last.shape[0])
    plus = np.zeros((2 * eye.shape[0], eye.shape[0]))
    plus[0::2] = (eye - f_last) / 2.0
    plus[1::2] = (eye + f_last) / 2.0
    return plus, np.kron(eye, K2) @ plus


def switching_direction(problem: RSProblem) -> int:
    """+1 when f descends from +1 to -1, -1 when it ascends, 0 when it
    keeps one sign (no topological defect, hence no index)."""
    reach = problem.scale * np.sqrt(2.0 * problem.m)
    left = problem.f(-reach)
    right = problem.f(reach)
    if left > 0.0 > right:
        return +1
    if left < 0.0 < right:
        return -1
    return 0


def _assemble(problem: RSProblem, cell_even: np.ndarray, deriv_sign: float,
              cell_deriv: np.ndarray, f_new_cell: np.ndarray,
              bound_sector: int, square: bool) -> DiscreteOperator:
    """Sector blocks of D = A (x) cell_even + deriv_sign d/dt (x) cell_deriv.

    Both terms have cell blocks B = sign * A with A orthogonal (checked),
    so X = kron(coeff + sign * deriv_sign * deriv, A) is stored as its
    scalar level matrix and the cell A.
    """
    module, m, n = problem.module, problem.m, problem.module.n
    bound_sector *= switching_direction(problem)
    rows = m if square or bound_sector == 0 else m - 1
    # the peak is in _basis_blocks: coeff (which holds the level matrix),
    # the m x ceil(m/2) node eigenvectors and three ceil(m/2)^2 block
    # temporaries (a weighted operand, the other operand and their
    # product), 9/4 m^2 and 2m + 1.  numeric_kernel holds the level matrix
    # beside one scalar Gram matrix at a time, reduced in place, so it
    # stays below that.  64 m-vectors bound the rest of either: nodes,
    # weights and recurrence coefficients, the tridiagonal and its
    # reflector scalars, the blocked LAPACK workspace and the eigenvector
    # windows.
    check_memory("the discrete operator", 8 * (9 * m * m // 4 + 64 * m))
    f_last = np.array(module.F[-1])
    plus, minus = _sector_bases(f_last)
    keep_full, keep_cut = (minus, plus) if bound_sector < 0 else (plus, minus)
    cell = keep_cut.T @ np.kron(f_last, cell_even) @ keep_full
    cell_d = keep_cut.T @ np.kron(np.eye(n), cell_deriv) @ keep_full
    if residual_norm(CELL_TOL, [cell @ cell.T - np.eye(n)]) > CELL_TOL:
        raise ValidationError("the coefficient cell block is not orthogonal")
    sign = next((s for s in (1.0, -1.0)
                 if residual_norm(CELL_TOL, [cell_d - s * cell]) <= CELL_TOL), None)
    if sign is None:
        raise ValidationError("the derivative cell block is not +-1 times the "
                              "coefficient cell block")
    step, coeff = _basis_blocks(problem)
    level = coeff[:rows]  # a view: the derivative is added in place
    step *= sign * deriv_sign
    idx = np.arange(m - 1)
    level[idx, idx + 1] += step
    level[idx[:rows - 1] + 1, idx[:rows - 1]] -= step[:rows - 1]
    cells = [np.kron(g, cell_even) for g in module.E + module.F[:-1]] \
        + [np.kron(np.eye(n), f_new_cell)]
    gens = tuple(np.stack([keep_full.T @ g @ keep_full, keep_cut.T @ g @ keep_cut])
                 for g in cells)
    return DiscreteOperator(matrix=level, cell=cell,
                            keep_full=keep_full, keep_cut=keep_cut,
                            lifted_E=gens[:module.r],
                            lifted_F=gens[module.r:])


def assemble_rs_operator(problem: RSProblem, square: bool = False) -> DiscreteOperator:
    """D = A(t) (x) omega_{1,1} - d/dt (x) K1 in the Hermite basis.

    Exactly skew, with lifted generators E_i (x) omega_{1,1},
    F_k (x) omega_{1,1}, F_{s+1} = -I (x) L1 anticommuting exactly.  For
    the descending switch the analytic kernel cells satisfy
    (F_{s+1} (x) L1) z = +z, so the plus sector keeps the extra basis
    level; a sign-definite coefficient gets the index-zero (square)
    truncation.  `square=True` forces the square truncation, whose
    kernel cluster pairs each bound state with its transpose ghost; its
    cluster magnitude is the honest spectral-convergence measure of the
    basis, which the rectangular kernel (exact zeros by rank count)
    cannot show.
    """
    return _assemble(problem, cell_even=OMEGA_11, deriv_sign=-1.0,
                     cell_deriv=K1, f_new_cell=-L1, bound_sector=+1,
                     square=square)


def assemble_rs_operator_alt(problem: RSProblem, square: bool = False) -> DiscreteOperator:
    """Alternative normalization D' = A(t) (x) K1 + d/dt (x) K2, with
    lifted generators E_i (x) K1, F_k (x) K1, F_{s+1} = I (x) L1.

    A cross-check of the sign and sector convention only: it calls the
    same `_assemble` as `assemble_rs_operator`, with the other cells,
    derivative sign and bound sector, so the two assemblies carry
    conjugate Clifford normalizations and must produce the same class.  A
    fault in `_assemble` itself would show in both, so it does not check
    the assembly.  Its kernel cells sit in the opposite sector of the
    grading.
    """
    return _assemble(problem, cell_even=K1, deriv_sign=+1.0,
                     cell_deriv=K2, f_new_cell=L1, bound_sector=-1,
                     square=square)


def _gram(mat: np.ndarray, trans: int) -> np.ndarray:
    """The lower triangle of mat^T mat (trans=0) or of mat mat^T
    (trans=1), Fortran-ordered, for LAPACK to work on in place."""
    from scipy.linalg import blas  # here, to keep `import koflow` light

    return blas.dsyrk(1.0, mat.T, trans=trans, lower=1)


def _ritz(block: np.ndarray, vecs: np.ndarray):
    """Singular values of block @ vecs, ascending, and the orthonormal
    combinations of the columns of vecs that they belong to."""
    _, svals, wt = np.linalg.svd(block @ vecs, full_matrices=False)
    return svals[::-1], vecs @ wt[::-1].T


def numeric_kernel(op: DiscreteOperator):
    """Orthonormal basis of ker D = ker X (+) ker X^T in sector
    coordinates, and the singular-value gap report.

    X is one Kronecker product level (x) cell with an orthogonal cell, so
    each singular value of the level matrix stands for n singular values
    of X, and a right (left) singular vector v of the level matrix gives
    the right (left) ones v (x) eta of X for every cell vector eta.  The
    Gram matrix level^T level is reduced to tridiagonal form once: its
    smallest eigenpairs, back-transformed through the Householder
    reflectors, span the right window, and its largest eigenvalue is
    sigma_max^2.  The window's magnitudes are recomputed as the singular
    values of level V, at the eps * sigma_max noise floor of X rather
    than the sqrt(eps) * sigma_max floor of the Gram matrix.  The level
    matrix has cols - rows more columns than rows, so its left singular
    values are the right ones with that many zeros dropped; the window
    takes one extra right eigenpair per dropped zero to fill both halves.
    The eigenvectors of level level^T are computed only when a left
    value falls inside the zero cluster.  The window holds the smallest
    n + KERNEL_EXTRA singular values of X, counted with their n-fold
    repeats.  The zero cluster is split off the window in units of
    sigma_max by `split_zero_cluster`, which scales its cut by the
    largest value it is given: the cut is KERNEL_TOL times the top of the
    window, not KERNEL_TOL * sigma_max, with a mandatory gap ratio of
    KERNEL_GAP_RATIO to the first survivor.
    """
    # here, to keep `import koflow` light
    import scipy.linalg as sla
    from scipy.linalg import lapack

    mat, n = op.matrix, op.cell.shape[0]
    rows, cols = mat.shape
    k = min(op.dimension - 2, n + KERNEL_EXTRA)
    levels = -(-k // n)  # level values behind the k smallest values of X
    index = cols - rows  # right null vectors forced by the shape alone
    lwork, _ = lapack.dsytrd_lwork(cols, lower=1)
    gram, diag, off, tau, _ = lapack.dsytrd(_gram(mat, 0), lower=1, lwork=int(lwork),
                                            overwrite_a=1)
    # raw LAPACK checks nothing: a non-finite level matrix shows up here
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ValidationError("the level matrix has non-finite entries")
    _, vecs = sla.eigh_tridiagonal(diag, off, select="i",
                                   select_range=(0, levels + index - 1))
    top = sla.eigvalsh_tridiagonal(diag, off, select="i",
                                   select_range=(cols - 1, cols - 1))
    smax = float(np.sqrt(top[0]))
    # Q = H(1) ... H(cols - 1) acts on rows 1: and keeps its reflectors
    # below the subdiagonal; a Fortran view that starts one entry in, with
    # leading dimension cols, hands them to dormqr without a copy
    reflectors = gram.ravel(order="F")[1:1 + cols * (cols - 1)].reshape(
        cols, cols - 1, order="F")
    query = lapack.dormqr("L", "N", reflectors, tau, vecs[1:], -1)[1]
    vecs[1:] = lapack.dormqr("L", "N", reflectors, tau, vecs[1:], int(query[0]))[0]
    del gram, reflectors
    level_vals, level_vecs = _ritz(mat, vecs)
    values = np.concatenate([np.repeat(level_vals[:levels], n)[:k],
                             np.repeat(level_vals[index:index + levels], n)[:k]])
    order = np.argsort(values, kind="stable")[:k]
    svals = values[order]
    kdim = split_zero_cluster(svals / smax, rel_tol=KERNEL_TOL,
                              gap_ratio=KERNEL_GAP_RATIO,
                              label="discrete kernel", abs_floor=0.0)
    if kdim >= k:
        raise AmbiguousKernelError("kernel cluster fills the whole probed window")
    report = {
        "sigma_max": smax,
        "smallest_singular_values": svals.tolist(),
        "kernel_dim": int(kdim),
        "zero_cluster_max": float(svals[kdim - 1]) if kdim else 0.0,
        "first_nonzero": float(svals[kdim]),
        "gap_ratio": float(svals[kdim] / max(svals[kdim - 1], 1e-300)) if kdim else np.inf,
    }
    picked = order[:kdim]
    left = picked >= k
    eye = np.eye(n)
    basis = np.zeros((n * (cols + rows), kdim))
    basis[:n * cols, ~left] = np.kron(level_vecs[:, :levels], eye)[:, picked[~left]]
    if left.any():
        # left null vectors: a partial eigensolve of level level^T and its
        # Ritz step
        _, left_vecs = sla.eigh(_gram(mat, 1), overwrite_a=True,
                                subset_by_index=[0, levels - 1])
        basis[n * cols:, left] = np.kron(_ritz(mat.T, left_vecs)[1], eye)[:, picked[left] - k]
    return basis, report


def _hermite_orders(m: int, points: np.ndarray):
    """The first m normalized Hermite functions at the points, one order
    at a time, by the stable damped recurrence on two contiguous vectors:
    it reads only the last two orders."""
    prev, cur = np.zeros_like(points), np.pi ** -0.25 * np.exp(-points ** 2 / 2.0)
    for n in range(m):
        if n:
            prev, cur = cur, (points * np.sqrt(2.0 / n) * cur
                              - np.sqrt((n - 1) / n) * prev)
        yield cur


def hermite_values(m: int, points: np.ndarray) -> np.ndarray:
    """Matrix of the first m normalized Hermite functions at the points,
    one row per point: each order of `_hermite_orders` is written once
    into its column (reading strided columns back is slower, and a
    transposed copy of an (m, points) array doubles the memory)."""
    phi = np.empty((points.size, m))
    for n, order in enumerate(_hermite_orders(m, points)):
        phi[:, n] = order
    return phi


def hermite_projection(m: int, points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i phi_n(points_i) weights_i for the first m normalized Hermite
    functions phi_n, streamed: each order of `_hermite_orders` is reduced
    to its coefficient at once, so no (points, m) table is held (38 MB at
    4001 points and m = 1200)."""
    return np.array([order @ weights for order in _hermite_orders(m, points)])


def analytic_profiles(problem: RSProblem, op: DiscreteOperator) -> np.ndarray:
    """Columns: sector coordinates of the analytic kernel vectors
    u_hat (x) e_j on the full sector (the one with the extra level) and
    zero on the cut sector, with u_hat the unit Hermite coefficients of
    u = exp(int_0^t f).  This tests the shape of the level null vector;
    the sector that holds the bound states is tested by kernel class =
    flow class."""
    if switching_direction(problem) != 1:
        raise ValidationError(
            "analytic profiles are defined for the descending switch")
    ell = problem.scale
    reach = min(ell * np.sqrt(2.0 * problem.m) + 5.0, 60.0)
    y = np.linspace(-reach, reach, 4001)
    w = np.full(y.size, y[1] - y[0])
    w[0] /= 2.0
    w[-1] /= 2.0
    t_pts = ell * y
    f_vals = np.array([problem.f(t) for t in t_pts])
    steps = np.diff(t_pts)
    integral = np.concatenate(
        [[0.0], np.cumsum((f_vals[1:] + f_vals[:-1]) / 2.0 * steps)])
    anchor = np.interp(0.0, t_pts, integral)
    with np.errstate(under="ignore"):
        u_bar = np.exp(integral - anchor)
    u_coef = hermite_projection(problem.m, y, w * u_bar)
    n, rows = op.cell.shape[0], op.matrix.shape[0]
    return np.concatenate([np.kron((u_coef / np.linalg.norm(u_coef))[:, None], np.eye(n)),
                           np.zeros((rows * n, n))])


@dataclass(frozen=True)
class RSReport:
    kernel_dim: int
    kernel_class: KOClass
    flow_class: KOClass
    profile_error: float
    gap_ratio: float
    sigma_max: float
    zero_cluster_max: float
    agrees: bool
    # Not in the JSON: the verified operator and its kernel basis.
    operator: DiscreteOperator | None = field(default=None, repr=False, compare=False)
    kernel_basis: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "kernel_dim": self.kernel_dim,
            "kernel_class": self.kernel_class.to_json(),
            "flow_class": self.flow_class.to_json(),
            "profile_error": self.profile_error,
            "gap_ratio": self.gap_ratio,
            "sigma_max": self.sigma_max,
            "zero_cluster_max": self.zero_cluster_max,
            "agrees": self.agrees,
        }


def convergence_study(module: CliffordRep, L: float, m_values):
    """Zero-cluster magnitude of the square-truncated assembly over a
    sequence of basis sizes.

    The square truncation pairs the bound states with their transpose
    ghosts at the singular value set by the basis's spectral resolution,
    so the cluster magnitude tracks the discretization error and shrinks
    under refinement.  The coefficient path is the default switching.
    """
    out = []
    for m in m_values:
        problem = RSProblem(module, L=L, m=int(m))
        op = assemble_rs_operator(problem, square=True)
        _, report = numeric_kernel(op)
        out.append({"m": int(m),
                    "kernel_dim": report["kernel_dim"],
                    "zero_cluster_max": report["zero_cluster_max"],
                    "first_nonzero": report["first_nonzero"]})
    return out


def coefficient_path(problem: RSProblem) -> SkewPath:
    """The coefficient family rescaled onto [0, 1] past the switching
    region: u -> f(3u - 1) F_{s+1} on the module."""
    module = problem.module
    ctx = CliffordRep(module.r, module.s - 1, module.n,
                      E=module.E, F=module.F[:-1])
    f_last = np.array(module.F[-1])
    return SkewPath(ctx, lambda u: problem.f(3.0 * u - 1.0) * f_last,
                    label="switching coefficient path")


def verify_rs(problem: RSProblem, assemble=None) -> RSReport:
    """Check kernel class = flow class = [module], and the bound-state
    profile, for the operator from `assemble` (assemble_rs_operator)."""
    op = (assemble or assemble_rs_operator)(problem)
    basis, report = numeric_kernel(op)
    kdim = report["kernel_dim"]
    kernel_rep = restrict_images(
        problem.module.r, basis,
        [op.lift(g, basis) for g in op.lifted_E + op.lifted_F], RESTRICTION_TOL)
    kernel_class = abs_class(kernel_rep)
    flow_class = spectral_flow(coefficient_path(problem))
    if kdim and switching_direction(problem) == 1:
        profiles = analytic_profiles(problem, op)
        resid = profiles - basis @ (basis.T @ profiles)
        profile_error = float(np.max(np.linalg.norm(resid, axis=0)))
    else:
        profile_error = 0.0
    return RSReport(kernel_dim=kdim,
                    kernel_class=kernel_class,
                    flow_class=flow_class,
                    profile_error=profile_error,
                    gap_ratio=float(report["gap_ratio"]),
                    sigma_max=float(report["sigma_max"]),
                    zero_cluster_max=float(report["zero_cluster_max"]),
                    agrees=kernel_class == flow_class,
                    operator=op,
                    kernel_basis=basis)
