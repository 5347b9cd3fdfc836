"""Index theory of pairs of complex structures with Clifford symmetries,
and its dictionary with pairs of orthogonal projections.

The index of a pair (J0, J1) is the class of ker(J0 + J1), viewed as a
module over the context algebra extended by one more skew generator,
namely J0 restricted to the kernel.  At finite dimension every pair is
Fredholm; the operator-norm smallness conditions appear only as the
hypotheses under which additivity is guaranteed.

Two routes: a complex structure is held dense, as its n x n matrix J
(`ComplexStructure`), or reduced.  Over a context tiled by the
generators I_N (x) g of its c x c cells g, a path may declare a
`Reduction`, whose kind `reduced_route` reads off the commutant type of
the cell:

    cell type       commutant   route
    real            R           reduced, real kind
    split           R + R       reduced, split kind
    complex         C           dense
    quaternionic    H           dense

A complex structure over a reduction is stored as its N x N factor S
(`ReducedStructure`), of one of two kinds:

- real: J = S (x) b, b a complex structure on the cell that anticommutes
  with every g and S an N x N symmetric involution; J0 + J1 is
  (S0 + S1) (x) b, whose kernel is ker(S0 + S1) (x) R^c;
- split: the cell carries a symmetric involution omega that commutes with
  every g, the path's grading (diag(-I, I) on each cell), and J =
  [[0, S (x) beta], [-(S (x) beta)^T, 0]] in the grading's (minus, plus)
  sectors, beta = b[minus, plus], S an orthogonal N x N matrix; J0 + J1
  is the same form of S0 + S1, whose kernel is U_k (x) R^{c/2} on the
  minus sector and W_k (x) R^{c/2} on the plus one.

Every kernel here is split off one decomposition of the matrix itself,
guarded by `split_zero_cluster` under its own label: one
`numerics.svd_split` of a general matrix (J0 + J1, S0 + S1 of the split
kind, I + U0^T U1) and one `numerics.sym_split` of a symmetric one
(S0 + S1 of the real kind, P + Q - I); a pair kernel of two
`ReducedStructure`s is split with `numerics.repeated(split, c)` on the
N x N decomposition, under the same label as a dense one.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .abs_index import abs_class
from .clifford import (K1, K2, L1, RESTRICTION_TOL, CliffordRep, irreducible_dimension,
                       restrict_images, restrict_to_subspace)
from .errors import AmbiguousKernelError, ValidationError
from .numerics import (SAMPLE_TOL, Grading, repeated, residual_norm, residual_norms,
                       split_zero_cluster, svd_split, sym_split)

STRUCTURE_TOL = 1e-10


def _split(label: str):
    """The zero-cluster split of `split_zero_cluster` under `label`."""
    return lambda values: split_zero_cluster(values, label=label)


def _gram_residual(mat: np.ndarray) -> np.ndarray:
    """mat^T mat - I, formed in place: one square array, no identity; of
    each item of a (B, m, m) stack."""
    gram = mat.swapaxes(-1, -2) @ mat
    size = gram.shape[-1]
    gram.reshape(gram.shape[:-2] + (size * size,))[..., ::size + 1] -= 1.0
    return gram


def _checked(cls, what: str, worst: np.ndarray, name: str, stack: np.ndarray,
             **shared) -> list:
    """An instance of the frozen `cls` for each item of a checked stack,
    with the item as its field `name` and the `shared` fields, or the
    ValidationError of an item whose residual in `worst` breaks
    STRUCTURE_TOL.  The stack is made read-only; its check is the
    instances' only one."""
    stack.setflags(write=False)
    out = []
    for mat, res in zip(stack, worst):
        if not res <= STRUCTURE_TOL:
            out.append(ValidationError(f"not {what} (residual {res:.3e})"))
            continue
        obj = object.__new__(cls)
        object.__setattr__(obj, name, mat)
        for key, value in shared.items():
            object.__setattr__(obj, key, value)
        out.append(obj)
    return out


@dataclass(frozen=True)
class ComplexStructure:
    """Skew orthogonal J with J^2 = -I anticommuting with the context
    generators.  `stack` builds one for each item of a (B, n, n) stack of
    phases, with the same check run on the stack."""

    J: np.ndarray
    context: CliffordRep

    def __post_init__(self):
        (built,) = self.stack(np.array(self.J, dtype=float)[None], self.context)
        if isinstance(built, Exception):
            raise built
        object.__setattr__(self, "J", built.J)

    @classmethod
    def stack(cls, js: np.ndarray, context: CliffordRep) -> list:
        """The complex structure of each item of a (B, n, n) stack, from
        one stacked check: its residuals J^T J - I, J + J^T and J g + g J,
        each bounded as `residual_norm` bounds it for that item alone.  An
        item that fails holds its ValidationError instead.  The stack, a
        float array, is taken over, read-only: its items are the phases'
        J."""
        if js.shape[1:] != (context.n, context.n):
            raise ValidationError(f"J has shape {js.shape[1:]}, context dimension is "
                                  f"{context.n}")
        worst = np.maximum(residual_norms(STRUCTURE_TOL, [_gram_residual(js)]),
                           residual_norms(STRUCTURE_TOL, context.skew_residuals(js)))
        return _checked(cls, "a context-anticommuting complex structure", worst,
                        "J", js, context=context)


def reduced_route(r: int, s: int, c: int) -> str | None:
    """The kind of `Reduction` that a path over a context tiled by a
    Cl_{r,s} cell of size c declares, or None for the dense route.

    - "real" when the cell's anticommutant is one-dimensional, spanned by
      b: the cell is the irreducible of a real-type algebra, r - s = 2
      mod 8 and c = irreducible_dimension(r, s), whose commutant is R;
      X -> b X maps it onto the anticommutant.
    - "split" when r - s = 1 mod 8 and c = 2 irreducible_dimension(r, s):
      the cell is the irreducible of a Cl_{r,s+1} with r - s - 1 = 0
      mod 8, the sum of the two irreducibles of Cl_{r,s}, and its
      commutant is R + R, spanned by I and the volume element omega, a
      central symmetric involution that anticommutes with b; the
      anticommutant is spanned by b and b omega.  The same holds for an
      empty context on cells of size 2 with a declared grading, which is
      omega there.
    """
    if (r - s) % 8 == 2 and c == irreducible_dimension(r, s):
        return "real"
    if ((r - s) % 8 == 1 or r == s == 0) and c == 2 * irreducible_dimension(r, s):
        return "split"
    return None


@dataclass(frozen=True)
class Reduction:
    """The cell factor b of a path over a tiled context (N = context.copies
    cells of size c) whose samples all reduce to an N x N coefficient, of
    the kind that `reduced_route` gives the context's signature and c
    ("real" for every signature that is not split).

    - real: samples A (x) b, A symmetric.  b is a complex structure on the
      cell that anticommutes with every cell generator g and, on a graded
      path, with the grading's cell (the grading must repeat with period
      c).  A (x) b is then skew and anticommutes with every I_N (x) g for
      every symmetric A, and so does S (x) b, a complex structure, for
      every symmetric orthogonal S.  `eps` bounds the 2-norms of b + b^T,
      b^T b - I, b g + g b and the grading's.
    - split: the grading is omega = diag(-I, I) on each cell (with a
      nonempty context it must be that, tiled; with an empty one any
      grading will do, whose i-th minus and plus indices then form the
      i-th cell), and b is kept as b' = [[0, beta], [-beta^T, 0]], the
      skew part of the given b on omega's off-diagonal blocks.  Samples
      are [[0, P (x) beta], [-(P (x) beta)^T, 0]] in the grading's
      (minus, plus) sectors, P a general N x N coefficient: that is
      A (x) b' + B (x) b' omega in the cells' coordinates, A and B the
      symmetric and skew parts of P, so it is skew and graded by
      construction and anticommutes with every I_N (x) g when b' and
      b' omega do.  `eps` bounds the 2-norms of the given b - b',
      b'^T b' - I, b' g + g b' and b' omega g + g b' omega.

    b is rejected when eps exceeds SAMPLE_TOL.
    """

    context: CliffordRep
    b: np.ndarray
    grading: Grading | None = None
    kind: str = field(init=False)
    eps: float = field(init=False, compare=False)

    def __post_init__(self):
        b = np.array(self.b, dtype=float)
        ctx = self.context
        c = ctx.n // ctx.copies
        if b.shape != (c, c):
            raise ValidationError(
                f"cell factor b has shape {b.shape}, the context's cell is {c} x {c}")
        kind = "split" if reduced_route(ctx.r, ctx.s, c) == "split" else "real"
        object.__setattr__(self, "kind", kind)
        cells = list(ctx.cells)
        if kind == "split":
            if self.grading is None:
                raise ValidationError("a split reduction needs the path's grading")
            half = c // 2
            omega = np.repeat([-1.0, 1.0], half)
            if cells and not np.array_equal(self.grading.signs, np.tile(omega, ctx.copies)):
                raise ValidationError(
                    f"the grading does not repeat diag(-I, I) with the context's cell of size {c}")
            odd = (b - b.T) / 2.0 * (omega[:, None] != omega)
            residuals = [b - odd, _gram_residual(odd)] + [
                f @ g + g @ f for f in (odd, odd * omega) for g in cells]
            b = odd
        else:
            if self.grading is not None:
                signs = self.grading.signs.reshape(-1, c)
                if not np.all(signs == signs[0]):
                    raise ValidationError(
                        f"the grading does not repeat with the context's cell of size {c}")
                cells.append(np.diag(signs[0]))
            residuals = [b + b.T, _gram_residual(b)] + [b @ g + g @ b for g in cells]
        eps = residual_norm(SAMPLE_TOL, residuals)
        if not eps <= SAMPLE_TOL:
            raise ValidationError(
                "cell factor b is not a complex structure anticommuting with "
                f"the context's cell (residual {eps:.3e})")
        b.setflags(write=False)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "eps", eps)

    def decompose(self, mat: np.ndarray, split):
        """`numerics.sym_split` of a symmetric N x N matrix for the real
        kind, `numerics.svd_split` of a general one for the split kind."""
        return (sym_split if self.kind == "real" else svd_split)(mat, split)

    def lift(self, coefficient: np.ndarray) -> np.ndarray:
        """The n x n matrix of an N x N coefficient: coefficient (x) b, or
        the grading-odd form of coefficient (x) beta."""
        if self.kind == "real":
            return np.kron(coefficient, self.b)
        half = self.b.shape[0] // 2
        return self.grading.odd(np.kron(coefficient, self.b[:half, half:]))

    def lift_kernel(self, coefficient: np.ndarray, left: np.ndarray, right: np.ndarray):
        """The n x kc basis of a lifted kernel and its image under the lift
        of `coefficient`, from the k left and right kernel columns of an
        N x N decomposition, in the cells' coordinates: K (x) I_c and
        S K (x) b on the real kind (left is right); U_k (x) I on the minus
        half of each cell and W_k (x) I on the plus half on the split kind,
        which the lift of S maps to S^T U_k (x) b'[:, minus] and
        S W_k (x) b'[:, plus].  With a nonempty context these are the
        path's coordinates; on an empty one, whose grading need not repeat,
        they permute them, which no generator sees."""
        c = self.b.shape[0]
        half = c // 2 if self.kind == "split" else 0
        eye = np.eye(c)
        return (np.hstack([np.kron(left, eye[:, :half]), np.kron(right, eye[:, half:])]),
                np.hstack([np.kron(coefficient.T @ left, self.b[:, :half]),
                           np.kron(coefficient @ right, self.b[:, half:])]))


@dataclass(frozen=True)
class ReducedStructure:
    """A complex structure over a reduced path's tiled context
    (`Reduction`), stored as its N x N factor S: a symmetric involution
    with J = S (x) b (real kind), or an orthogonal matrix with J the
    grading-odd form of S (x) beta (split kind).

    J anticommutes with every I_N (x) g as the cell factor does, and J^2 is
    -I exactly when S is an involution (real kind) or orthogonal (split
    kind).  The check bounds the dense check of a `ComplexStructure` from
    above, through the reduction's eps: ||J^T J - I|| <= ||S^T S - I||
    (1 + eps) + eps, and ||S|| <= 1 + ||S^T S - I||.  Real kind: ||J +
    J^T|| <= ||S - S^T|| (1 + eps) + ||S|| eps and ||J (I (x) g) +
    (I (x) g) J|| <= ||S|| eps.  Split kind: J is skew by construction
    (||S - S^T|| is read as 0) and, with S = A + B its symmetric and skew
    parts, the anticommutator is A (x) (b' g + g b') + B (x) (b' omega g +
    g b' omega), at most 2 ||S|| eps.  The check takes the larger bound,
    2 ||S|| eps, on both kinds, so no S passes that the dense check of J
    at STRUCTURE_TOL would reject.  `J` and `context` lift it to the
    dense form, so every function of a `ComplexStructure` also takes it.
    """

    S: np.ndarray
    reduction: Reduction

    def __post_init__(self):
        (built,) = self.stack(np.array(self.S, dtype=float)[None], self.reduction)
        if isinstance(built, Exception):
            raise built
        object.__setattr__(self, "S", built.S)

    @classmethod
    def stack(cls, ss: np.ndarray, reduction: Reduction) -> list:
        """The reduced complex structure of each item of a (B, N, N) stack,
        from one stacked check of the bound above, or the ValidationError
        of an item that fails it, as `ComplexStructure.stack`."""
        size = reduction.context.copies
        if ss.shape[1:] != (size, size):
            raise ValidationError(f"S has shape {ss.shape[1:]}, the reduction's "
                                  f"coefficients are {size} x {size}")
        eps = reduction.eps
        orth = residual_norms(STRUCTURE_TOL, [_gram_residual(ss)])
        sym = residual_norms(STRUCTURE_TOL, [ss - ss.swapaxes(1, 2)]) \
            if reduction.kind == "real" else 0.0
        worst = np.maximum(orth * (1.0 + eps) + eps,
                           sym * (1.0 + eps) + 2.0 * (1.0 + orth) * eps)
        return _checked(cls, "a reduced complex structure", worst, "S", ss,
                        reduction=reduction)

    @property
    def J(self) -> np.ndarray:
        return self.reduction.lift(self.S)

    @property
    def context(self) -> CliffordRep:
        return self.reduction.context


def _same_context(j0: ComplexStructure, j1: ComplexStructure) -> CliffordRep:
    """The context of both: one object, or two tiled alike whose cells agree."""
    c0, c1 = j0.context, j1.context
    if c0 is c1:
        return c0
    diffs = (a - b for a, b in zip(c0.cells, c1.cells))
    if (c0.r, c0.s, c0.n, c0.copies) != (c1.r, c1.s, c1.n, c1.copies) \
            or residual_norm(STRUCTURE_TOL, diffs) > STRUCTURE_TOL:
        raise ValidationError("complex structures live over different contexts")
    return c0


def kernel_module(j0: ComplexStructure, j1: ComplexStructure) -> CliffordRep:
    """ker(J0 + J1) as a module with one extra skew generator F_{s+1} = J0.

    The kernel is the right kernel columns of `numerics.svd_split`; the
    zero cluster must be separated from the rest by the gap-ratio guard.
    Two `ReducedStructure`s over one reduction take the N x N route
    instead.
    """
    if isinstance(j0, ReducedStructure) and isinstance(j1, ReducedStructure) \
            and j0.reduction is j1.reduction:
        return _reduced_kernel_module(j0, j1)
    ctx = _same_context(j0, j1)
    *_, basis = svd_split(j0.J + j1.J, _split("pair kernel"))
    try:
        return restrict_to_subspace(ctx, basis, RESTRICTION_TOL, extra_F=(j0.J,))
    except ValidationError as exc:
        raise AmbiguousKernelError(f"pair kernel module: {exc}") from exc


def _reduced_kernel_module(j0: ReducedStructure, j1: ReducedStructure) -> CliffordRep:
    """ker(J0 + J1) with F = J0, from one decomposition of the N x N
    S0 + S1 (`Reduction.decompose`), split with `numerics.repeated` (each
    singular value of S0 + S1 appears c times in J0 + J1).

    Only here is the kernel lifted to R^n (`Reduction.lift_kernel`), with
    its image under J0; the cells map it through reshapes, as
    `clifford.restrict_to_subspace` does, and all of them go through the
    invariance and relation checks of `restrict_images`.
    """
    red = j0.reduction
    ctx = red.context
    c = red.b.shape[0]
    *_, left, right = red.decompose(j0.S + j1.S, repeated(_split("pair kernel"), c))
    basis, image = red.lift_kernel(j0.S, left, right)
    blocks = basis.reshape(ctx.copies, c, basis.shape[1])
    images = [(g @ blocks).reshape(basis.shape) for g in ctx.cells] + [image]
    try:
        return restrict_images(ctx.r, basis, images, RESTRICTION_TOL)
    except ValidationError as exc:
        raise AmbiguousKernelError(f"pair kernel module: {exc}") from exc


def pair_index(j0: ComplexStructure, j1: ComplexStructure):
    """(KOClass of degree (s+2-r) mod 8, kernel module of signature (r, s+1))."""
    module = kernel_module(j0, j1)
    return abs_class(module), module


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
    *_, basis = sym_split(p + q - np.eye(n), _split("kernel of P+Q-I"))
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
