"""KO-valued spectral flow of paths of skew matrices with Clifford
symmetries.

The flow of a path with invertible endpoints is computed by the local
formula: complete the phase of the operator at each partition node to a
complex structure, then sum the pair indices of consecutive phases.  In
finite dimension pair-index additivity holds unconditionally (the Calkin
norm smallness hypotheses are vacuous), so the sum telescopes to the pair
index of the endpoint phases; the endpoint computation is kept as an
independent cross-check.

Partition control: 16 uniform segments to start; a segment is accepted
when the node phases are 0.9-close in Frobenius norm (its pair kernel is
then empty and it contributes nothing) or when its pair kernel splits
cleanly; otherwise it is bisected, up to a depth cap.  A hard 0.9 bound
alone cannot terminate: at a kernel crossing the phase genuinely jumps by
norm 2 on the crossing subspace, while the jump's contribution is exactly
the kernel class.

Every sample is checked once, where it is taken (`SkewPath.at`):
skewness, anticommutation with the context and, on a graded path, the
grading.  Each node is then one `complete_phase` call, which takes one
`numerics.svd_split`: of T itself, or on a graded path of its n/2 x n/2
sector block (see the graded convention of `numerics`).

Endpoint rule: an endpoint is invertible exactly when the default
`numerics.split_zero_cluster` finds an empty zero cluster on the
singular values of its node SVD, a rule relative to ||T||; a nonempty
or ambiguous cluster is a ValidationError.  Both endpoint phases are
completed, T(0) first, before the walk starts.

Block route: a path with a `grading` and an empty context (r = s = 0)
keeps every node phase as its n/2 x n/2 block P (`pairs.OddStructure`).
Its nodes are completed with a k x k orthogonal block on the balanced
kernel, compared by sqrt(2) ||Pa - Pb||_F, and paired by one SVD of
P0 + P1.  Every other path takes the dense n x n route; a graded one
scatters its node's block and kernel columns back to n x n.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .abs_index import KOClass, abs_class
from .clifford import (CliffordRep, intertwiner, irreducible_rep,
                       restrict_to_subspace)
from .errors import (AmbiguousKernelError, IllConditionedError,
                     ObstructionError, ValidationError)
from .numerics import (SAMPLE_TOL, Grading, doubled, min_singular_value,
                       residual_norm, skew_phase, split_zero_cluster, svd_split)
from .pairs import ComplexStructure, OddStructure, pair_index

# Node phases this close in Frobenius norm, hence in operator norm, have an
# empty pair kernel.  Closer than this only in operator norm, they go to
# `pair_index`, which finds it empty too: ||J0 - J1||_2 <= 0.9 keeps every
# singular value of J0 + J1 above sqrt(4 - 0.81) > 1.78.
PHASE_BOUND = 0.9
# An endpoint of a classical flow whose smallest eigenvalue magnitude
# falls below this is singular.
INV_TOL = 1e-8
# Uniform segments of the initial partition.
INITIAL_SEGMENTS = 16
# Bisection levels below the initial partition before a segment whose
# pair kernel stays ambiguous is an AmbiguousKernelError.
MAX_DEPTH = 20
# A Cayley resolvent I - T F_s of larger condition number is
# IllConditionedError.
CAYLEY_COND_LIMIT = 1e12
# A kernel completion follows its alignment hint when the hint's
# compression to the kernel has no singular value below this.
HINT_SMIN = 0.3


@dataclass(frozen=True)
class SkewPath:
    """A family t in [0,1] of skew matrices anticommuting with a context.

    Continuity is the caller's contract; every sample is validated for
    skewness and anticommutation.  A path whose samples all anticommute
    with a diagonal sign matrix of trace 0 may declare its sign vector as
    its `grading`: every sample is checked against it too, its nodes are
    split by the half-size SVD of their sector block, and with an empty
    context the whole walk takes the block route.
    """

    context: CliffordRep
    fn: Callable[[float], np.ndarray]
    label: str = ""
    grading: Grading | None = None

    def __post_init__(self):
        if self.grading is not None and self.grading.n != self.context.n:
            raise ValidationError(
                f"grading of dimension {self.grading.n} on a path "
                f"of dimension {self.context.n}")

    def at(self, t: float) -> np.ndarray:
        mat = np.asarray(self.fn(t), dtype=float)
        n = self.context.n
        if mat.shape != (n, n):
            raise ValidationError(
                f"path sample at t={t} has shape {mat.shape}, expected ({n}, {n})")
        worst = residual_norm(SAMPLE_TOL, self.context.skew_residuals(mat))
        if worst > SAMPLE_TOL:
            raise ValidationError(
                f"path sample at t={t} violates skewness/anticommutation "
                f"(residual {worst:.3e})")
        if self.grading is not None:
            # with m and p the indices of G's -1 and +1 entries, G T + T G
            # is -2 T[m, m] on the first sector and 2 T[p, p] on the second
            worst = residual_norm(SAMPLE_TOL, (2.0 * mat[idx[:, None], idx]
                                               for idx in self.grading.sectors()))
            if worst > SAMPLE_TOL:
                raise ValidationError(
                    f"path sample at t={t} breaks its grading (residual {worst:.3e})")
        return mat


# ---------------------------------------------------------------------------
# Phase completion
# ---------------------------------------------------------------------------

def _kernel_completion(kernel_rep: CliffordRep, seed: int,
                       hint: np.ndarray | None) -> np.ndarray:
    """A complex structure on a Clifford module, anticommuting with its
    generators.

    Exists iff the module's class one generator up vanishes; constructed
    by aligning the module with copies of the canonical irreducible that
    carries one more skew generator, and transporting that generator back
    along an orthogonal intertwiner.  A hint (the compression of a nearby
    phase) is tried first so that phases vary as little as possible along
    a path.
    """
    k = kernel_rep.n
    if k == 0:
        return np.zeros((0, 0))
    obstruction = abs_class(kernel_rep)
    if not obstruction.is_zero:
        raise ObstructionError(
            f"kernel module of signature ({kernel_rep.r},{kernel_rep.s}) does not "
            f"extend by a complex structure: obstruction {obstruction.to_json()}",
            ko_class=obstruction)

    def _valid(j: np.ndarray) -> bool:
        return (residual_norm(1e-9, [j @ j + np.eye(k)]) <= 1e-9
                and residual_norm(1e-9, kernel_rep.skew_residuals(j)) <= 1e-9)

    if hint is not None:
        skew = (hint - hint.T) / 2.0
        if min_singular_value(skew) > HINT_SMIN:
            j = skew_phase(skew)
            if _valid(j):
                return j

    ext = irreducible_rep(kernel_rep.r, kernel_rep.s + 1)
    copies = k // ext.n
    if copies * ext.n != k:
        raise ObstructionError(
            f"kernel dimension {k} is not a multiple of the canonical "
            f"extension dimension {ext.n}")
    eye = np.eye(copies)
    w_restr = CliffordRep(ext.r, ext.s - 1, k,
                          E=tuple(np.kron(eye, g) for g in ext.E),
                          F=tuple(np.kron(eye, g) for g in ext.F[:-1]))
    j_w = np.kron(eye, ext.F[-1])
    theta = intertwiner(kernel_rep, w_restr, seed=seed)
    if theta is None:
        raise ObstructionError(
            "kernel module is not isomorphic to the canonical extension model")
    j = theta @ j_w @ theta.T
    if not _valid(j):
        raise ObstructionError(
            "transported complex structure failed validation on the kernel module")
    return j


def _split_phase_kernel(svals: np.ndarray) -> int:
    """Kernel-cluster size for phase completion, with a lenient fallback.

    The strict split can be ambiguous right at a crossing; the fallback
    treats the whole sub-gap cluster as kernel, which amounts to the
    finite-rank regularization of the flow (any valid completion on a
    slightly larger subspace leaves the flow unchanged, since the sum of
    segment indices telescopes).
    """
    try:
        return split_zero_cluster(svals, label="phase kernel")
    except AmbiguousKernelError:
        return split_zero_cluster(svals, rel_tol=1e-4, gap_ratio=10.0,
                                  label="phase kernel (regularized)")


def block_route(r: int, s: int, graded: bool) -> bool:
    """Whether a path over a Cl_{r,s} context, with a grading or not,
    takes the block route: it does when it is graded and r = s = 0."""
    return graded and r == s == 0


def _complete_block(p: np.ndarray, left: np.ndarray, right: np.ndarray,
                    grading: Grading, align_hint: np.ndarray | None) -> OddStructure:
    """The block P of a completed node on the block route, from its range
    block p = U_r W_r^T and its kernel columns U_k (`left`) and W_k
    (`right`) on G's minus and plus sectors.

    The balanced kernel (k columns on each side) is completed by
    U_k Q W_k^T, with Q the polar factor of the hint's compression
    U_k^T P_hint W_k when its smallest singular value clears HINT_SMIN,
    else Q = I_k.  [[0, Q], [-Q^T, 0]] is a complex structure on the
    kernel for every orthogonal Q, so no obstruction arises.  The result
    U diag(I, Q) W^T is orthogonal up to the rounding of the SVD.
    """
    k = left.shape[1]
    if k > 0:
        q = np.eye(k)
        if align_hint is not None:
            u, svals, vt = np.linalg.svd(left.T @ align_hint @ right)
            if svals[-1] > HINT_SMIN:
                q = u @ vt
        p = p + left @ q @ right.T
    return OddStructure(p, grading)


def complete_phase(tmat: np.ndarray, context: CliffordRep,
                   grading: Grading | None = None,
                   align_hint: np.ndarray | None = None, seed: int = 0,
                   split=_split_phase_kernel):
    """The phase of a skew `tmat` over `context`, completed to a complex
    structure: one SVD, split by `split`.

    Equal to T|T|^-1 on the complement of the kernel cluster; on the
    kernel, any complex structure anticommuting with the restricted
    generators, chosen canonically (or following `align_hint`, the
    neighbouring phase as the walk holds it: J, or P on the block route).
    Without a grading the SVD is that of tmat.  With one (a sample that
    `SkewPath.at` checked against it) it is the SVD of the sector block
    B = tmat[minus, plus], split by `doubled(split)`; on the block route
    the phase stays an `OddStructure`, on the dense one it is scattered
    back to n x n.  Raises ObstructionError when the kernel module does
    not extend (for example an odd-dimensional kernel with empty context).
    """
    n = context.n
    tmat = np.asarray(tmat, dtype=float)
    if tmat.shape != (n, n):
        raise ValidationError(f"matrix shape {tmat.shape} does not match context ({n})")
    if grading is None:
        u_r, vt_r, _, basis = svd_split(tmat, split)
        j = u_r @ vt_r
    else:
        minus, plus = grading.sectors()
        u_r, vt_r, left, right = svd_split(tmat.take(minus, 0).take(plus, 1),
                                           doubled(split))
        if block_route(context.r, context.s, True):
            return _complete_block(u_r @ vt_r, left, right, grading, align_hint)
        k = left.shape[1]
        basis = np.zeros((n, 2 * k))
        basis[minus, :k] = left
        basis[plus, k:] = right
        j = grading.odd(u_r @ vt_r)
    # the views keep all of U and V^T alive; drop them before the kernel
    # completion and the Newton-Schulz step allocate n x n arrays
    del u_r, vt_r
    k = basis.shape[1]
    if k > 0:
        try:
            kernel_rep = restrict_to_subspace(context, basis, 1e-8)
        except ValidationError as exc:
            raise AmbiguousKernelError(f"kernel cluster: {exc}") from exc
        hint = None
        if align_hint is not None:
            hint = basis.T @ align_hint @ basis
        j_ker = _kernel_completion(kernel_rep, seed=seed, hint=hint)
        j = j + basis @ j_ker @ basis.T
    # Singular vectors of near-zero singular values carry rounding into the
    # phase; re-impose the structure: project onto the skew anticommutant,
    # then one Newton-Schulz step J (3I + J^2) / 2 towards J^2 = -I (an odd
    # polynomial in J, so skewness and anticommutation survive).
    j = context.project_skew(j, -1)
    j = j @ (3.0 * np.eye(context.n) + j @ j) / 2.0
    return ComplexStructure(j, context)


# ---------------------------------------------------------------------------
# Spectral flow
# ---------------------------------------------------------------------------

def _flow_degree(context: CliffordRep) -> int:
    return (context.s + 2 - context.r) % 8


def _endpoint_phases(path: SkewPath, seed: int):
    """The phases of T(0) and T(1), each sampled, checked and completed
    once, T(0) first.

    An endpoint is invertible exactly when `split_zero_cluster`, with its
    default guards, finds an empty zero cluster on its singular values;
    a nonempty or ambiguous cluster raises ValidationError before any
    completion.  An endpoint phase so has no kernel and needs no hint.
    """
    phases = []
    for t_end in (0.0, 1.0):
        def invertible(svals, t_end=t_end):
            try:
                k = split_zero_cluster(svals)
            except AmbiguousKernelError as exc:
                raise ValidationError(f"endpoint t={t_end} is not invertible ({exc})") from exc
            if k:
                raise ValidationError(
                    f"endpoint t={t_end} is not invertible ({k} singular values "
                    f"in the zero cluster, smallest {svals[0]:.3e}, largest {svals[-1]:.3e})")
            return 0

        phases.append(complete_phase(path.at(t_end), path.context, path.grading,
                                     seed=seed, split=invertible))
    return tuple(phases)


def _stored(j) -> np.ndarray:
    """A phase as the walk compares and aligns it: P on the block route."""
    return j.P if isinstance(j, OddStructure) else j.J


def _phase_distance(ja, jb) -> float:
    """||Ja - Jb||_F; on the block route J holds P and -P^T, so it is
    sqrt(2) ||Pa - Pb||_F."""
    scale = np.sqrt(2.0) if isinstance(ja, OddStructure) else 1.0
    return scale * float(np.linalg.norm(_stored(ja) - _stored(jb)))


def spectral_flow(path: SkewPath, *, seed: int = 0) -> KOClass:
    """KO-valued spectral flow of a path with invertible endpoints.

    Walks the partition from left to right.  It holds the phase at the
    left end of the current segment and a stack of pending right ends
    (t, depth, phase or None), nearest last; a phase stays on the stack
    only for t = 1 and for the right end of a bisected segment.  The
    endpoint phases are completed first; every other node is completed
    once, with the left phase as its alignment hint.  `seed` drives the
    random candidates of a kernel completion's intertwiner.
    """
    ja, j1 = _endpoint_phases(path, seed)
    total = KOClass.of(_flow_degree(path.context), 0)
    a, m = 0.0, INITIAL_SEGMENTS
    # the right end t = 1 holds J(1) from the start
    pending = [(1.0, 0, j1)] + [(i / m, 0, None) for i in range(m - 1, 0, -1)]
    while pending:
        b, depth, jb = pending.pop()
        if jb is None:
            jb = complete_phase(path.at(b), path.context, path.grading,
                                align_hint=_stored(ja), seed=seed)
        if _phase_distance(ja, jb) > PHASE_BOUND:
            # phases not 0.9-close: the pair kernel may be nonempty
            try:
                contribution, _ = pair_index(ja, jb)
            except AmbiguousKernelError:
                if depth >= MAX_DEPTH:
                    raise AmbiguousKernelError(
                        f"partition depth {MAX_DEPTH} exceeded on segment "
                        f"[{a}, {b}] without a clean pair kernel")
                pending.append((b, depth + 1, jb))
                pending.append(((a + b) / 2.0, depth + 1, None))
                continue
            total = total + contribution
        a, ja = b, jb
    return total


def endpoint_flow(path: SkewPath, *, seed: int = 0) -> KOClass:
    """Pair index of the endpoint phases: the finite-dimensional endpoint
    theorem makes this an independent oracle for spectral_flow."""
    value, _ = pair_index(*_endpoint_phases(path, seed))
    return value


# ---------------------------------------------------------------------------
# Cayley transform and the spectral clamp
# ---------------------------------------------------------------------------

def cayley(tmat: np.ndarray, context: CliffordRep) -> np.ndarray:
    """Cayley transform -F_s (I + T F_s)(I - T F_s)^-1.

    Maps skew generator-anticommuting matrices to complex structures
    anticommuting with all context generators except the last skew one;
    invertible T lands strictly inside the distance-2 ball around -F_s.
    """
    if context.s < 1:
        raise ValidationError("the Cayley transform needs a context with s >= 1")
    tmat = np.asarray(tmat, dtype=float)
    f_s = context.F[-1]
    n = context.n
    m = np.eye(n) - tmat @ f_s
    if np.linalg.cond(m) > CAYLEY_COND_LIMIT:
        raise IllConditionedError(
            "resolvent I - T F_s is too ill-conditioned for the Cayley transform")
    return -f_s @ (np.eye(n) + tmat @ f_s) @ np.linalg.inv(m)


def clamp_phase(tmat: np.ndarray) -> np.ndarray:
    """Flatten the spectrum of a skew matrix onto the closed unit ball.

    Acts as the identity below norm one and as the phase above; computed
    from one SVD T = U S V^T as U min(S, 1) V^T, which is T g(-T^2) with
    g(x) = min(1, 1/sqrt(x)), a function of T, so it commutes with
    everything T commutes with.
    """
    u, svals, vt = np.linalg.svd(np.asarray(tmat, dtype=float))
    return (u * np.minimum(svals, 1.0)) @ vt


def classical_sf(path_fn: Callable[[float], np.ndarray]) -> int:
    """Classical spectral flow of a path of symmetric matrices:
    n_minus(start) - n_minus(end), endpoints required invertible."""

    def n_minus(t):
        mat = np.asarray(path_fn(t), dtype=float)
        if residual_norm(SAMPLE_TOL, [mat - mat.T]) > SAMPLE_TOL:
            raise ValidationError(f"sample at t={t} is not symmetric")
        vals = np.linalg.eigvalsh((mat + mat.T) / 2.0)
        if vals.size and np.min(np.abs(vals)) < INV_TOL:
            raise ValidationError(f"endpoint t={t} is singular")
        return int(np.sum(vals < 0.0))

    return n_minus(0.0) - n_minus(1.0)
