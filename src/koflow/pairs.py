"""Index theory of pairs of complex structures with Clifford symmetries,
and its dictionary with pairs of orthogonal projections.

The index of a pair (J0, J1) is the class of ker(J0 + J1), viewed as a
module over the context algebra extended by one more skew generator,
namely J0 restricted to the kernel.  At finite dimension every pair is
Fredholm; the operator-norm smallness conditions appear only as the
hypotheses under which additivity is guaranteed.

Graded convention (see `numerics`): with an empty context, a complex
structure that anticommutes with a grading G is J = [[0, P], [-P^T, 0]]
in G's (minus, plus) coordinates, P an orthogonal n/2 x n/2 block, and
is stored as P (`OddStructure`).  J0 + J1 is then the same form of
P0 + P1, whose SVD U S W^T gives that of J0 + J1 with each singular value
twice and the kernel basis U_k on the minus sector, W_k on the plus one.

Every kernel here, of a pair sum J0 + J1 or P0 + P1, of P + Q - I or of
I + U0^T U1, is split off one `numerics.svd_split`, guarded by
`split_zero_cluster` under its own label; a pair kernel of two
`OddStructure`s is split with `numerics.doubled` on the half-size SVD,
under the same label as a dense one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abs_index import KOClass, abs_class
from .clifford import (K1, K2, L1, CliffordRep, restrict_images,
                       restrict_to_subspace)
from .errors import AmbiguousKernelError, ValidationError
from .numerics import (Grading, doubled, op_norm, residual_norm, skew_phase,
                       split_zero_cluster, svd_split)

STRUCTURE_TOL = 1e-10
# Bound on the residuals of the six midpoint identities.
MIDPOINT_TOL = 1e-12
# A spectral window whose edge lambda lies this close to a singular value
# of T0 is a ValidationError.
WINDOW_GUARD = 1e-10


def _split(label: str):
    """The zero-cluster split of `split_zero_cluster` under `label`."""
    return lambda values: split_zero_cluster(values, label=label)


def _gram_residual(mat: np.ndarray) -> np.ndarray:
    """mat^T mat - I, formed in place: one square array, no identity."""
    gram = mat.T @ mat
    gram.flat[::gram.shape[0] + 1] -= 1.0
    return gram


@dataclass(frozen=True)
class ComplexStructure:
    """Skew orthogonal J with J^2 = -I anticommuting with the context
    generators."""

    J: np.ndarray
    context: CliffordRep

    def __post_init__(self):
        j = np.array(self.J, dtype=float)
        j.setflags(write=False)
        object.__setattr__(self, "J", j)
        n = self.context.n
        if j.shape != (n, n):
            raise ValidationError(f"J has shape {j.shape}, context dimension is {n}")
        worst = max(residual_norm(STRUCTURE_TOL, [_gram_residual(j)]),
                    residual_norm(STRUCTURE_TOL, self.context.skew_residuals(j)))
        if worst > STRUCTURE_TOL:
            raise ValidationError(
                f"not a context-anticommuting complex structure (residual {worst:.3e})")


@dataclass(frozen=True)
class OddStructure:
    """A complex structure on an empty context that anticommutes with a
    grading: J = [[0, P], [-P^T, 0]] in the grading's (minus, plus)
    coordinates, stored as its n/2 x n/2 block P.

    J is skew by construction, and J^2 = -I exactly when P is orthogonal:
    the check is ||P^T P - I||_2 <= STRUCTURE_TOL, the same 2-norm as
    ||J^T J - I||_2.  `J` and `context` scatter it to the dense form, so
    every function of a `ComplexStructure` also takes it.
    """

    P: np.ndarray
    grading: Grading

    def __post_init__(self):
        p = np.array(self.P, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "P", p)
        half = self.grading.n // 2
        if p.shape != (half, half):
            raise ValidationError(
                f"P has shape {p.shape}, the grading's sectors have dimension {half}")
        worst = residual_norm(STRUCTURE_TOL, [_gram_residual(p)])
        if worst > STRUCTURE_TOL:
            raise ValidationError(
                f"not a grading-odd complex structure (residual {worst:.3e})")

    @property
    def J(self) -> np.ndarray:
        return self.grading.odd(self.P)

    @property
    def context(self) -> CliffordRep:
        return CliffordRep(0, 0, self.grading.n)


def _same_context(j0: ComplexStructure, j1: ComplexStructure) -> CliffordRep:
    c0, c1 = j0.context, j1.context
    diffs = (a - b for a, b in zip(c0.generators(), c1.generators()))
    if (c0.r, c0.s, c0.n) != (c1.r, c1.s, c1.n) \
            or residual_norm(STRUCTURE_TOL, diffs) > STRUCTURE_TOL:
        raise ValidationError("complex structures live over different contexts")
    return c0


def kernel_module(j0: ComplexStructure, j1: ComplexStructure) -> CliffordRep:
    """ker(J0 + J1) as a module with one extra skew generator F_{s+1} = J0.

    The kernel is the right kernel columns of `numerics.svd_split`; the
    zero cluster must be separated from the rest by the gap-ratio guard.
    Two `OddStructure`s over one grading take the half-size route instead.
    """
    if isinstance(j0, OddStructure) and isinstance(j1, OddStructure) \
            and np.array_equal(j0.grading.signs, j1.grading.signs):
        return _odd_kernel_module(j0, j1)
    ctx = _same_context(j0, j1)
    *_, basis = svd_split(j0.J + j1.J, _split("pair kernel"))
    try:
        return restrict_to_subspace(ctx, basis, 1e-9, extra_F=(j0.J,))
    except ValidationError as exc:
        raise AmbiguousKernelError(f"pair kernel module: {exc}") from exc


def _odd_kernel_module(j0: OddStructure, j1: OddStructure) -> CliffordRep:
    """ker(J0 + J1) with F_1 = J0, from one SVD of P0 + P1, split with
    `numerics.doubled`.

    In (minus, plus) coordinates the kernel basis is diag(U_k, W_k), and
    J0 maps it to [[0, P0 W_k], [-P0^T U_k, 0]]; both go through the
    invariance and relation checks of `restrict_images`.
    """
    _, _, left, right = svd_split(j0.P + j1.P, doubled(_split("pair kernel")))
    half, k = left.shape
    basis = np.zeros((2 * half, 2 * k))
    basis[:half, :k] = left
    basis[half:, k:] = right
    image = np.zeros((2 * half, 2 * k))
    image[:half, k:] = j0.P @ right
    image[half:, :k] = -j0.P.T @ left
    try:
        return restrict_images(0, basis, [image], 1e-9)
    except ValidationError as exc:
        raise AmbiguousKernelError(f"pair kernel module: {exc}") from exc


def pair_index(j0: ComplexStructure, j1: ComplexStructure):
    """(KOClass of degree (s+2-r) mod 8, kernel module of signature (r, s+1))."""
    module = kernel_module(j0, j1)
    return abs_class(module), module


@dataclass(frozen=True)
class MidpointPair:
    """T0 = (J0+J1)/2 and T1 = (J0-J1)/2 with their identity residuals."""

    T0: np.ndarray
    T1: np.ndarray
    residuals: tuple  # of (name, residual)

    @property
    def max_residual(self) -> float:
        return max((res for _, res in self.residuals), default=0.0)


def midpoint_operators(j0: ComplexStructure, j1: ComplexStructure) -> MidpointPair:
    """The half sum/difference, with all six algebraic identities checked."""
    _same_context(j0, j1)
    t0 = (j0.J + j1.J) / 2.0
    t1 = (j0.J - j1.J) / 2.0
    eye = np.eye(t0.shape[0])
    checks = [
        ("T0^2 + T1^2 = -I", t0 @ t0 + t1 @ t1 + eye),
        ("T0 T1 = -T1 T0", t0 @ t1 + t1 @ t0),
        ("T0 J0 = J1 T0", t0 @ j0.J - j1.J @ t0),
        ("T0 J1 = J0 T0", t0 @ j1.J - j0.J @ t0),
        ("T1 J0 = -J1 T1", t1 @ j0.J + j1.J @ t1),
        ("T1 J1 = -J0 T1", t1 @ j1.J + j0.J @ t1),
    ]
    residuals = tuple((name, op_norm(mat)) for name, mat in checks)
    worst = max(res for _, res in residuals)
    if worst > MIDPOINT_TOL:
        raise ValidationError(f"midpoint identities violated (residual {worst:.3e})")
    return MidpointPair(T0=t0, T1=t1, residuals=residuals)


def spectral_submodule(j0: ComplexStructure, j1: ComplexStructure,
                       lam: float) -> CliffordRep:
    """The rank-(r, s+2) module on the spectral subspace of -T0^2 in
    (0, lam^2): the span of the right singular vectors of T0 whose
    singular values lie in (0, lam), read from one SVD of T0, with its
    kernel split off by `split_zero_cluster`.

    Generators: the context ones restricted, then J0, then the phase of
    J0 T1 T0, all restricted to the subspace.
    """
    ctx = _same_context(j0, j1)
    if not 0.0 < lam < 1.0:
        raise ValidationError(f"lambda must lie in (0, 1), got {lam}")
    mid = midpoint_operators(j0, j1)
    _, svals, vt = np.linalg.svd(mid.T0)
    if np.any(np.abs(svals - lam) < WINDOW_GUARD):
        raise ValidationError(
            f"lambda = {lam} is within {WINDOW_GUARD} of a singular value of T0")
    svals, vt = svals[::-1], vt[::-1]  # ascending
    window = slice(split_zero_cluster(svals, label="kernel of T0"),
                   np.searchsorted(svals, lam))
    basis = vt[window].T
    # J0 T1 T0 on the window is skew and anticommutes with J0 only up to
    # rounding over its smallest singular value: re-impose both before
    # taking the phase
    f1 = basis.T @ j0.J @ basis
    x = basis.T @ (j0.J @ mid.T1 @ mid.T0) @ basis
    x = (x - x.T) / 2.0
    phase = skew_phase((x + f1 @ x @ f1) / 2.0)
    return restrict_to_subspace(ctx, basis, 1e-9,
                                extra_F=(j0.J, basis @ phase @ basis.T))


# ---------------------------------------------------------------------------
# Dictionary with pairs of projections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectionPair:
    """Two orthogonal projections on the same space."""

    P: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        p = np.array(self.P, dtype=float)
        q = np.array(self.Q, dtype=float)
        p.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "P", p)
        object.__setattr__(self, "Q", q)
        if p.shape != q.shape or p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValidationError("P and Q must be square matrices of equal size")
        for name, m in (("P", p), ("Q", q)):
            worst = residual_norm(1e-10, [m - m.T, m @ m - m])
            if worst > 1e-10:
                raise ValidationError(
                    f"{name} is not an orthogonal projection (residual {worst:.3e})")


def projection_pair_index(pp: ProjectionPair) -> int:
    """ind(P,Q) = dim(ran P & ker Q) - dim(ker P & ran Q).

    Both intersections live inside ker(P + Q - I), where P acts with
    eigenvalues 1 and 0 respectively; the index is read off from the
    trace of P compressed to that kernel.
    """
    p, q = pp.P, pp.Q
    n = p.shape[0]
    *_, basis = svd_split(p + q - np.eye(n), _split("kernel of P+Q-I"))
    k = basis.shape[1]
    if k == 0:
        return 0
    comp = basis.T @ p @ basis
    cvals = np.linalg.eigvalsh((comp + comp.T) / 2.0)
    if np.any(np.abs(cvals - np.round(cvals)) > 1e-8):
        raise AmbiguousKernelError(
            "P does not split the kernel of P+Q-I into clean 0/1 eigenspaces")
    ones = int(np.sum(cvals > 0.5))
    return 2 * ones - k


def projections_to_structures(pp: ProjectionPair):
    """Encode (P, Q) as complex structures over a rank-(2,0) context.

    On the doubled space, E1 = K1 (x) I, E2 = K2 (x) I and
    J = [[0, -(2P-I)], [2P-I, 0]]; the degree-0 index of the returned pair
    equals ind(P, Q).
    """
    n = pp.P.shape[0]
    eye = np.eye(n)
    ctx = CliffordRep(2, 0, 2 * n, E=(np.kron(K1, eye), np.kron(K2, eye)))

    def embed(p):
        return np.kron(L1, 2.0 * p - eye)

    return (ComplexStructure(embed(pp.P), ctx), ComplexStructure(embed(pp.Q), ctx))


def orthogonal_pair_parity(u0: np.ndarray, u1: np.ndarray) -> int:
    """dim ker(I + U0^T U1) mod 2, with (-1)^parity = det(U0) det(U1)."""
    u0 = np.asarray(u0, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    if u0.shape != u1.shape or u0.ndim != 2 or u0.shape[0] != u0.shape[1]:
        raise ValidationError("U0 and U1 must be square matrices of equal size")
    n = u0.shape[0]
    for name, u in (("U0", u0), ("U1", u1)):
        if residual_norm(1e-10, [u.T @ u - np.eye(n)]) > 1e-10:
            raise ValidationError(f"{name} is not orthogonal")
    *_, cluster = svd_split(np.eye(n) + u0.T @ u1,
                            _split("eigenvalue -1 cluster of U0^T U1"))
    return cluster.shape[1] % 2
