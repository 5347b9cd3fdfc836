"""Physical model builders: particle-hole symmetric lattice Hamiltonians
as skew paths.

Complex matrices are numpy complex arrays on the model side only:
`realify` returns a real matrix, so no complex dtype enters the flow,
pair or numerics core.  An antiunitary involution C = (conjugation
after a real symmetric orthogonal M) fixes a real subspace of half the
real dimension, and operators commuting with C restrict to real
matrices there.  In the eigenbasis V of M an operator A commutes with C
exactly when V^T Re(A) V is block diagonal and V^T Im(A) V block
off-diagonal for the (-1, +1) split of M, so `realify` checks and
realifies with one real compression by V; the class AII paths and
library input go through it.

The Kitaev chain needs no realification: its C = I_N (x) K2 conj acts
site by site, and `kitaev_path` writes each sample straight in a
site-ordered Majorana basis, a real skew matrix with closed-form 2 x 2
blocks, graded (for even N) by the sign vector (1, 1, -1, -1) tiled N/2
times, and then reduced to its N x N sector block.

The module imports no scipy: the frame of a gap-inversion cell is
built from the cell's F_{s+1} in closed form (`_complex_frame`), so
every builder here loads numpy alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Callable

import numpy as np

from .clifford import K1, K2, L1, CliffordRep
from .errors import ValidationError
from .flow import MovingBlock, SkewPath, reduced_route, walk_bytes
from .numerics import Grading, check_memory, op_norm, residual_norm, sym_eigh
from .pairs import Reduction

REALIFY_TOL = 1e-10


@dataclass(frozen=True)
class RealStructure:
    """Antiunitary involution C(v) = M conj(v) and the basis of its fixed
    real subspace.

    M must be real orthogonal symmetric (so that C^2 = I).  V holds the
    eigenvectors of M in ascending eigenvalue order: the first k columns
    span the -1 eigenspace, the rest the +1 eigenspace.  The fixed
    subspace has real dimension n; its orthonormal basis is read off V: a
    +1 eigenvector v is fixed by C as it stands, a -1 eigenvector v enters
    as i v, so `basis` is the read-only complex array V diag(i or 1).
    """

    n: int
    M: np.ndarray
    V: np.ndarray = field(init=False)
    k: int = field(init=False)
    basis: np.ndarray = field(init=False)

    def __post_init__(self):
        m = np.array(self.M, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "M", m)
        if m.shape != (self.n, self.n):
            raise ValidationError(f"M has shape {m.shape}, expected ({self.n}, {self.n})")
        worst = residual_norm(REALIFY_TOL, [m - m.T, m @ m - np.eye(self.n)])
        if worst > REALIFY_TOL:
            raise ValidationError(
                f"M must be symmetric orthogonal (residual {worst:.3e})")
        vals, vecs = sym_eigh(m)
        vecs.setflags(write=False)
        plus = vals > 0.0
        object.__setattr__(self, "V", vecs)
        object.__setattr__(self, "k", int(np.count_nonzero(~plus)))
        basis = vecs * np.where(plus, 1.0, 1.0j)
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)


def realify(rs: RealStructure, a: np.ndarray) -> np.ndarray:
    """Real matrix of an operator commuting with C on the fixed subspace.

    With r + i x = V^T A V, the residual M conj(A) M - A is twice the
    blocks of r off the (-1, +1) block diagonal (real part) and of x on it
    (imaginary part), so its 2-norms are 2 max(||r12||, ||r21||) and
    2 max(||x11||, ||x22||); it is measured as `residual_norm` measures a
    complex residual.  On the fixed basis V diag(i, ..., i, 1, ..., 1) the
    operator is the real matrix [[r11, x12], [-x21, r22]].
    """
    v, k = rs.V, rs.k
    a = np.asarray(a)
    if a.shape != (rs.n, rs.n):
        raise ValidationError(
            f"operator has shape {a.shape}, expected ({rs.n}, {rs.n})")
    # contiguous parts, so that both products run in BLAS
    r = v.T @ np.ascontiguousarray(a.real, dtype=float) @ v
    x = v.T @ np.ascontiguousarray(a.imag, dtype=float) @ v
    re_blocks = (r[:k, k:], r[k:, :k])
    im_blocks = (x[:k, :k], x[k:, k:])
    res = 2.0 * float(np.hypot.reduce(
        [np.linalg.norm(b) for b in re_blocks + im_blocks]))
    if not np.isfinite(res):
        res = np.inf  # a non-finite entry fails the check, with no SVD
    elif res > REALIFY_TOL:  # the Frobenius bound fails: take the exact norm
        res = 2.0 * float(np.hypot(max(map(op_norm, re_blocks)),
                                   max(map(op_norm, im_blocks))))
    if res > REALIFY_TOL:
        raise ValidationError(
            f"operator does not commute with the real structure (residual {res:.3e})")
    r[:k, k:] = x[:k, k:]
    np.negative(x[k:, :k], out=r[k:, :k])
    return r


# ---------------------------------------------------------------------------
# Kitaev chain flux insertion
# ---------------------------------------------------------------------------

# Majorana basis of one site: the columns (1, 1)/sqrt(2) and
# i (1, -1)/sqrt(2) span the fixed space of C = K2 conj on C^2.  In it the
# hopping block of site j to site j + 1 of i H_0, i B with B = (1/2)
# [[1, i], [i, -1]], is the real block _BOND.
_BOND = 0.5 * np.array([[-1.0, -1.0], [1.0, 1.0]])


def _seam_block(alpha: float) -> np.ndarray:
    """Real block of i H_alpha from site 0 to site 1.

    The flux turns the seam hopping B into B diag(e^{-i pi a}, e^{i pi a});
    that diagonal commutes with C and its real form is the rotation
    [[c, s], [-s, c]], c = cos(pi a), s = sin(pi a).
    """
    c = np.cos(np.pi * alpha)
    s = np.sin(np.pi * alpha)
    return _BOND @ np.array([[c, s], [-s, c]])


def _ring_shift(n: int) -> np.ndarray:
    """The cyclic shift e_j -> e_{j+1 mod n}."""
    return np.roll(np.eye(n), 1, axis=0)


def kitaev_path(N: int) -> SkewPath:
    """Flux insertion through one bond of the closed Kitaev chain of N
    sites at the sweet spot (mu = 0, w = -1), the only couplings built.

    The path alpha -> i H_alpha lives on a 2N-dimensional real space with
    empty Clifford context; both endpoints have spectrum in {-1, +1}, the
    alpha = 1 endpoint being the sign-flipped-bond (antiperiodic) chain.
    H_alpha = S_alpha + S_alpha^* with S_alpha = shift (x) B, the (0 -> 1)
    bond block carrying the flux.

    Each sample is written straight in the site-ordered Majorana basis
    I_N (x) W, W the real basis of one site's fixed space of C = K2 conj:
    i H_alpha is a real skew matrix with closed-form 2 x 2 blocks
    (`_BOND` from site j to site j + 1, `_seam_block(alpha)` on the seam).
    The flux-free matrix is built once; a sample copies it and patches the
    seam.

    For even N every bond joins the two sublattices, so the sublattice
    parity diag((-1)^j) (x) I_2 anticommutes with each H_alpha and
    commutes with C.  W is site-local, so in the Majorana basis the parity
    is the diagonal sign vector (1, 1, -1, -1) tiled N/2 times: the path's
    grading, taken by index with no basis change.  The path then declares
    the split `Reduction` of its empty context on cells of size 2, with
    b = [[0, 1], [-1, 0]] (beta = 1): its coefficient is the N x N sector
    block P = T[minus, plus], odd sites by even sites, with `_BOND` on the
    block diagonal (site 2i + 1 from 2i), -`_BOND`^T beside it (site
    2i + 1 from 2i + 2, cyclically) and the seam block in the corner; no
    2N x 2N sample is made by the walk.

    Only the seam moves, so the path declares it as its `MovingBlock`
    (`flow.bordered_flow` walks a k x k path in its place): the 2 x 2
    block P[0:2, 0:2] of an even ring's coefficient, the 4 Majorana
    coordinates of sites 0 and 1 of an odd ring's sample.
    """
    if N < 3:
        raise ValidationError(f"ring length must be at least 3, got {N}")
    graded = N % 2 == 0
    size = N if graded else 2 * N
    # the flux-free matrix and one step of the flow walk with its
    # workspace, counted before any of them is allocated
    check_memory(f"the Kitaev chain at N={N}",
                 8 * size ** 2 + walk_bytes(2 * N, 0, 0, copies=N if graded else 1))
    ctx = CliffordRep(0, 0, 2 * N, copies=N if graded else 1)
    grading = Grading(np.tile([1, 1, -1, -1], N // 2)) if graded else None
    reduction = Reduction(ctx, -L1, grading) if graded else None
    # _BOND from site j to j + 1 and -_BOND^T back; on the sector block
    # (graded), whose block row i is site 2i + 1 and block column l site
    # 2l, the bond from 2i sits on the diagonal, and the seam from site 0
    # to site 1 is block (0, 0) of the block, block (1, 0) of the matrix
    h, step, seam_row = (N // 2, 0, 0) if graded else (N, 1, 2)
    sites = np.arange(h)
    flux_free = np.zeros((size, size))
    blocks = flux_free.reshape(h, 2, h, 2)  # [site, row, site, column]
    blocks[(sites + step) % h, :, sites, :] = _BOND
    blocks[sites, :, (sites + 1) % h, :] = -_BOND.T

    def sample(alpha: float) -> np.ndarray:
        seam = _seam_block(alpha)
        mat = flux_free.copy()
        mat[seam_row:seam_row + 2, 0:2] = seam
        if not graded:
            mat[0:2, 2:4] = -seam.T
        return mat

    # the moving block is the seam, of norm ||_BOND||_2 = 1 at every alpha
    # (the flux is a rotation); J completes it to an orthogonal matrix:
    # -L1 on the coefficient's seam block, and on the 4 Majorana
    # coordinates of sites 0 and 1 the skew kron(K2, L1), which maps site
    # 0's (1, 1)/sqrt(2) to site 1's (-1, 1)/sqrt(2), as the flux-free seam
    # does, and pairs the two other combinations
    moving = MovingBlock(np.arange(2), -L1, 1.0) if graded \
        else MovingBlock(np.arange(4), np.kron(K2, L1), 1.0)
    return SkewPath(ctx, sample, label=f"kitaev flux insertion, N={N}",
                    grading=grading, reduction=reduction, moving=moving)


def _complex_frame(f: np.ndarray) -> np.ndarray:
    """Orthogonal Z with Z^T f Z = (+) [[0, -1], [1, 0]] for a complex
    structure f (f orthogonal, f^2 = -I) on R^c.

    Z orthonormalizes the columns x_1, f x_1, x_2, f x_2, ...: each x_i
    is the identity column with the largest residual against the columns
    already taken.  Their span is f-invariant, so the residual y of x_i
    is orthogonal to f y, and Gram-Schmidt takes the pair to (q, f q).
    One QR, its signs fixed by diag R, gives that Z up to rounding; the
    blocks then hold up to f's own residual.
    """
    c = f.shape[0]
    picked = []
    q = np.zeros((c, 0))  # the span so far, for the choice of x_i alone
    for _ in range(c // 2):
        j = int(np.argmin(np.sum(q * q, axis=1)))  # residual^2 = 1 - |q_j|^2
        y = -(q @ q[j])
        y[j] += 1.0
        y /= np.linalg.norm(y)
        q = np.column_stack([q, y, f @ y])
        picked.append(j)
    x = np.eye(c)[:, picked]
    cols = np.empty((c, c))
    cols[:, 0::2], cols[:, 1::2] = x, f @ x
    z, r = np.linalg.qr(cols)
    return z * np.sign(np.diag(r))


def flux_path(module: CliffordRep, N: int) -> SkewPath:
    """Localized gap inversion on a ring with a Clifford-module unit cell.

    `module` is a Cl_{r,s+1} module; its last skew generator rides on a
    real ring Hamiltonian T_alpha = h_alpha (x) F_{s+1} whose on-site
    potential at cell 0 sweeps from +2 to -2, dragging exactly one
    localized level through zero.  The remaining generators survive as
    the context, and the flow of the path is the class of the module.

    A genuine U(1) bond flux cannot reproduce the class of a general
    module: complexifying the chain tensors the crossing kernel with an
    extra rank-one complex plane that carries the whole phase action, so
    the kernel class degenerates (the Kitaev chain, whose cell is that
    plane itself, is the exception and keeps its own builder).  The
    single-cell sweep implemented here is the gauge-inequivalent local
    termination of the same flux idea and pins the crossing kernel to one
    copy of the module.

    The path is written in a frame Z of the cell: every cell generator g
    becomes Z^T g Z once, which leaves the class unchanged, and the
    path's grading is a diagonal sign vector tiled N times.  The context
    is the conjugated cell generators g tiled N times (copies = N): it
    holds the c x c cells g alone, and its generators I_N (x) g are never
    built.  Every sample is h_alpha (x) F_{s+1}, and the path declares the
    `Reduction` of the kind that `flow.reduced_route` gives the context
    cell, with b the conjugated F_{s+1}; its samples are then the N x N
    ring Hamiltonians h_alpha, and the flow walks N x N matrices only.

    - Split cells (the module is the irreducible of a Cl_{r,s+1} with
      r - s - 1 = 0 mod 8, Cl_{1,1}, Cl_{2,2}, Cl_{0,8}, ..., or Cl_{0,1}):
      Z = (V, F_{s+1}^T V), with V the -1 eigenvectors of omega, the
      volume element of the context cell (K1 on the empty context's 2 x 2
      cell).  omega commutes with the context and anticommutes with
      F_{s+1}, so there omega = diag(-I, I), the grading, and F_{s+1} =
      [[0, I], [-I, 0]].
    - Other cells: Z = `_complex_frame(F_{s+1})`, the frame
      (x_1, F_{s+1} x_1, x_2, F_{s+1} x_2, ...) in which F_{s+1} =
      Z (+) [[0, -1], [1, 0]] Z^T, a sum of 2 x 2 blocks that K1
      anticommutes with, so the grading is (1, -1) tiled.  Real cells (a
      one-dimensional anticommutant, spanned by F_{s+1}: Cl_{2,1},
      Cl_{0,7}, Cl_{3,2}, ...) reduce; the others keep the dense samples.
    """
    if module.s < 1:
        raise ValidationError("the unit-cell module needs at least one skew generator")
    if N < 3:
        raise ValidationError(f"ring length must be at least 3, got {N}")
    dim = N * module.n
    # three ring arrays and one step of the flow walk with its SVD
    # workspace; the path is graded, over a context of signature
    # (r, s - 1) tiled N times, which holds only its cells
    check_memory(f"the flux path at N={N}",
                 8 * 3 * N * N + walk_bytes(dim, module.r, module.s - 1, copies=N))
    module.validate(1e-10)
    kind = reduced_route(module.r, module.s - 1, module.n)
    shift = _ring_shift(N)
    ring = (shift + shift.T) / 2.0
    half = module.n // 2
    if kind == "split":
        cells = module.E + module.F[:-1]
        v = sym_eigh(reduce(np.matmul, cells) if cells else K1)[1][:, :half]
        z = np.hstack([v, module.F[-1].T @ v])
        signs = np.repeat([-1, 1], half)
    else:
        z = _complex_frame(module.F[-1])
        signs = np.tile([1, -1], half)
    e_cells = [z.T @ g @ z for g in module.E]
    f_cells = [z.T @ g @ z for g in module.F]
    f_last = f_cells.pop()
    ctx = CliffordRep(module.r, module.s - 1, dim, E=e_cells, F=f_cells, copies=N)
    grading = Grading(np.tile(signs, N))
    reduction = Reduction(ctx, f_last, grading) if kind else None

    def sample(alpha: float) -> np.ndarray:
        pot = 2.0 * np.ones(N)
        pot[0] = 2.0 - 4.0 * alpha
        h_alpha = ring + np.diag(pot)
        return h_alpha if kind else np.kron(h_alpha, f_last)

    return SkewPath(ctx, sample,
                    label=f"single-cell gap inversion, N={N}, "
                          f"cell ({module.r},{module.s})", grading=grading,
                    reduction=reduction)


# ---------------------------------------------------------------------------
# Class AII (quaternionic) paths
# ---------------------------------------------------------------------------

def standard_quaternionic(n: int) -> np.ndarray:
    """Matrix J_q of the antiunitary T(v) = J_q conj(v) with T^2 = -I."""
    if n % 2:
        raise ValidationError("a quaternionic structure needs even complex dimension")
    return np.kron(L1, np.eye(n // 2))


def hermitian_double(h: np.ndarray) -> np.ndarray:
    """Real symmetric matrix of a hermitian matrix on the realified space
    (each complex eigenvalue appears twice)."""
    h = np.asarray(h, dtype=complex)
    return np.block([[h.real, -h.imag], [h.imag, h.real]])


def aii_path(h_fn: Callable[[float], np.ndarray], n: int) -> SkewPath:
    """Nambu-doubled, realified path for a time-reversal symmetric family.

    `h_fn` samples a self-adjoint n x n matrix (real or complex) commuting
    with the quaternionic structure T = (conjugation after
    `standard_quaternionic(n)`); the returned path anticommutes with the
    two skew generators built from C T-hat and i C T-hat Q, and its
    degree-4 flow is one quarter of the classical spectral flow of the
    realified family `hermitian_double(h_fn)`.
    """
    jq = standard_quaternionic(n)
    rs = RealStructure(2 * n, np.kron(K2, np.eye(n)))
    # F1 = C T-hat and F2 = i C T-hat Q, both linear and C-commuting.
    f1 = np.kron(K2, np.eye(n)) @ np.kron(np.eye(2), jq)
    f2 = 1j * f1 @ np.kron(K1, np.eye(n))
    ctx = CliffordRep(0, 2, 2 * n,
                      F=(realify(rs, f1), realify(rs, f2)))

    def sample(t: float) -> np.ndarray:
        h = np.asarray(h_fn(t), dtype=complex)
        if h.shape != (n, n):
            raise ValidationError(
                f"sample at t={t} has shape {h.shape}, expected ({n}, {n})")
        if residual_norm(REALIFY_TOL, [h - h.conj().T]) > REALIFY_TOL:
            raise ValidationError(f"sample at t={t} is not self-adjoint")
        tres = residual_norm(REALIFY_TOL, [h @ jq - jq @ h.conj()])
        if tres > REALIFY_TOL:
            raise ValidationError(
                f"sample at t={t} breaks time reversal (residual {tres:.3e})")
        zero = np.zeros_like(h)
        # i (-H (+) conj H)
        return realify(rs, 1j * np.block([[-h, zero], [zero, h.conj()]]))

    return SkewPath(ctx, sample, label="class AII Nambu path")
