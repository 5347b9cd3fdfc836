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
skewness and anticommutation with the context; on a graded path the
grading first, and skewness then on the sector blocks alone; on a
reduced path its N x N coefficient is checked instead
(`SkewPath.coefficient`).  Each node is completed from one decomposition
of a matrix itself: one `numerics.svd_split` of T, on a graded path of
its n/2 x n/2 sector block (see the graded convention of `numerics`),
and on a reduced path one `Reduction.decompose` of its N x N
coefficient.

Stacks: every node is sampled, checked, decomposed and completed as
one (B, ., .) stack (`_nodes`: `SkewPath.samples`, `complete_phases`):
the two endpoints, then the 15 interior nodes of the initial partition,
at most `stacked_nodes` of them at a time (STACK_BYTES caps a stack's
arrays), and each bisection midpoint as a stack of one.  Every item
passes the bounds of a node taken alone, to the bit, and a failing item
holds its exception until the walk reaches it.  A node whose kernel
cluster is empty never reads its alignment hint, so those are completed
as one stack; the others follow one at a time, in order, each with its
left neighbour's phase as the hint.  `SkewPath.at`,
`SkewPath.coefficient` and `complete_phase` are the stack of one, kept
as public adapters; the walk does not call them.

Endpoint rule: an endpoint is invertible exactly when the default
`numerics.split_zero_cluster` finds an empty zero cluster on the
singular values of its node split, a rule relative to ||T||; a nonempty
or ambiguous cluster is a ValidationError.  Both endpoint phases are
completed, T(0) first, before the walk starts.  `classical_sf` applies
the same rule to the eigenvalue magnitudes of its endpoints.

Routes: the walk, the endpoint rule and the partition control are the
same on each; what a node holds differs.  A path over a context tiled by
c x c cells takes the reduced route when it declares a `pairs.Reduction`,
of the kind that `reduced_route` reads off the cell's type:

    cell type       cells (module)                          route
    real R          Cl_{2,1}, Cl_{0,7}, Cl_{3,2}, ...       reduced, real kind
    split R + R     Cl_{0,1}, Cl_{1,1}, Cl_{2,2}, Cl_{0,8}  reduced, split kind
    complex C       Cl_{0,6}, ...                           dense
    quaternionic H  Cl_{0,3}, Cl_{1,2}, Cl_{0,5}, ...       dense

- Reduced route: every node phase is kept as an N x N factor S
  (`pairs.ReducedStructure`): the symmetric involution of S (x) b on the
  real kind, the orthogonal S of [[0, S (x) beta], [-(S (x) beta)^T, 0]]
  on the split kind (even Kitaev rings too, whose empty context is split
  by the sublattice grading).  A node is one `Reduction.decompose` of the
  coefficient (a symmetric eigendecomposition of A, an SVD of P), split
  by `repeated(split, c)`, completed by U_k Q W_k^T on the kernel, Q = I_k
  or the polar factor of the hint's compression, so no intertwiner is
  sought and no obstruction arises; nodes are compared by
  sqrt(c) ||Sa - Sb||_F and paired by one decomposition of S0 + S1, whose
  kernel is lifted to R^n only to build its module.
- Dense route: every other path; a graded one splits its node by the SVD
  of its sector block and scatters the range block and kernel columns
  back to n x n.

Moving blocks: a path that moves only on a fixed k x k block W and
declares it (`MovingBlock`) has the flow of a k x k path, its bordered
Schur complement M(t) = C(t)^-1 + U^T R^-1 U (`bordered_flow`, which
derives it); the fixed complement R is checked and inverted by one LU
inverse under a kappa_F certificate, the SVD rule only when the
certificate cannot decide.  `spectral_flow` itself always walks the path
as it stands.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .abs_index import KOClass, abs_class
from .clifford import CliffordRep, intertwiner, irreducible_rep, restrict_to_subspace
from .errors import AmbiguousKernelError, ObstructionError, ValidationError
from .numerics import (SAMPLE_TOL, Grading, doubled, frobenius_norms, held, op_norm,
                       repeated, residual_norm, residual_norms, split_zero_cluster,
                       svd_split)
from .pairs import (ComplexStructure, ReducedStructure, Reduction, pair_index,
                    reduced_route)

# Node phases this close in Frobenius norm, hence in operator norm, have an
# empty pair kernel.  Closer than this only in operator norm, they go to
# `pair_index`, which finds it empty too: ||J0 - J1||_2 <= 0.9 keeps every
# singular value of J0 + J1 above sqrt(4 - 0.81) > 1.78.
PHASE_BOUND = 0.9
# Uniform segments of the initial partition.
INITIAL_SEGMENTS = 16
# Bisection levels below the initial partition before a segment whose
# pair kernel stays ambiguous is an AmbiguousKernelError.
MAX_DEPTH = 20
# A kernel completion follows its alignment hint when the hint's
# compression to the kernel has no singular value below this.
HINT_SMIN = 0.3
# n x n arrays that one step of the dense flow walk holds at its peak,
# measured with tracemalloc: 6.0 on the ungraded Kitaev flow at N = 63, 64
# and 128, and on the graded Cl_{0,7} flux flow at N = 48.  They are the
# node of T(1), the left phase and, inside a node, the sample with its
# split and the phase being built and checked (its J^T J - I is formed in
# place).  Each bisection level in progress holds one more phase on top of
# this count; LAPACK's own SVD workspace, allocated outside Python, is not
# in it.
NODE_ARRAYS = 8
# n x n arrays of LAPACK workspace that a dense n x n SVD (gesdd) takes
# outside Python's allocator, on top of NODE_ARRAYS: one np.linalg.svd of
# a 2048 x 2048 skew matrix raised ru_maxrss by 6.6 n^2 doubles, of which
# the returned u and vt are 2 (numpy 2.4, OpenBLAS, 2 threads); 4.6,
# rounded up.
SVD_WORKSPACE_ARRAYS = 5
# N x N arrays that one step of the walk holds at its peak on the reduced
# route (`reduced_route`), N = copies: tracemalloc measured, less the
# lifted kernel below, 6.2 and 6.0 on the real Cl_{2,1} flux flow at
# N = 256 and 512, 5.0 on the real Cl_{0,7} flux flow at N = 128 and 256,
# 6.1 to 6.0 on the split Kitaev flow at N = 64 to 512 and on the split
# Cl_{0,1} and Cl_{1,1} flux flows at N = 64 to 512, and 5.4 to 5.1 on the
# split Cl_{0,8} flux flow at N = 48 to 128.  On top of them a pair kernel
# with one column in K (a pair U_k, W_k on the split kind) is lifted to
# r + s + 4 arrays of n x c: its basis, the images of the r + s context
# generators and of J0, and two transients of the invariance check
# (measured within 1 N^2 on Cl_{0,7}, Cl_{1,8} and Cl_{0,8}).  Nodes and
# pair kernels are split by one N x N decomposition, with the LAPACK
# workspace of EIGH_WORKSPACE_ARRAYS or SPLIT_SVD_WORKSPACE_ARRAYS N x N
# arrays.
REDUCED_NODE_ARRAYS = 7
# N x N arrays of workspace that one np.linalg.eigh (syevd) of an N x N
# symmetric matrix takes outside Python's allocator: at N = 2048 it raised
# ru_maxrss by 4.2 N^2 doubles, of which the returned eigenvectors are 1
# (numpy 2.4, OpenBLAS, 1 and 2 threads); 3.2, rounded up.
EIGH_WORKSPACE_ARRAYS = 4
# The same for one np.linalg.svd (gesdd) of a general N x N coefficient,
# on the split kind: at N = 512, 1024 and 2048 it raised ru_maxrss by 8.9,
# 8.2 and 7.9 N^2 doubles at 1 BLAS thread (9.1, 8.3 and 7.9 at 2), of
# which the returned u and vt are 2; 7.1, rounded up.
SPLIT_SVD_WORKSPACE_ARRAYS = 8
# size x size arrays that each node of a stack of the initial partition
# (`stacked_nodes`) adds to the walk's peak when a stack holds more than
# one, with size = n on the dense route and N on the reduced one; the walk
# one node at a time adds nothing.  tracemalloc measured, as (peak of the
# stacked walk - peak of the walk one node at a time) / nodes per stack:
# 3.7 to 5.6 on dense props paths at n = 8 and 16 and on the graded
# Cl_{0,3} flux flow at N = 8 (15 per stack), 3.0 to 5.8 on the dense
# Kitaev flow at N = 31 and 63 (2 to 15), 2.5 to 4.7 on the split Kitaev
# flow at N = 32 and 64 and on the split Cl_{0,1} flux flow at N = 48
# and 64, and 1.0 to 3.9 on the real Cl_{0,7} and Cl_{2,1} flux flows at
# N = 48 and 128; 5.8, rounded up.  They are the sample, U and V^T, the
# range phase and the transients of its repair and check.
STACK_NODE_ARRAYS = 6
# Bytes that the nodes of one stack may take together.  A stack saves
# about 40 us of per-call overhead per node, against an n x n SVD of
# 124 us at n = 32, 577 us at 64 and 4 ms at 128 (2 BLAS threads), and
# costs its arrays in peak RSS: the flux flow at N = 48 (real kind) raised
# ru_maxrss by 0.2, 0.6 and 1.6 MB, against 60.2 MB one node at a time,
# with 4, 9 and 15 nodes per stack.  1 MiB stacks all 15 interior nodes
# up to size 38 (every props path), 9 at size 48 (the flux flow), 5 at
# size 64, and one, the walk one node at a time, from size 105 (the dense
# graded Cl_{0,3} flux flow at N = 48, n = 192).
STACK_BYTES = 2 ** 20
# lambda of `bordered_flow`, in units of the moving block's declared
# bound: any factor above 1 keeps C(t) = T_WW(t) - lambda J invertible;
# at 3 its smallest singular value is at least twice the bound, and the
# Kitaev complements R read sigma_min = (sqrt(13) - 3)/2 = 0.303 at every N,
# well inside the kappa_F certificate under which `bordered_flow` takes R's
# one LU inverse; the SVD rule only when the certificate cannot decide.
BORDER_SHIFT = 3.0


@dataclass(frozen=True)
class SkewPath:
    """A family t in [0,1] of skew matrices anticommuting with a context.

    Continuity is the caller's contract; every sample is validated for
    skewness and anticommutation.  A path whose samples all anticommute
    with a diagonal sign matrix of trace 0 may declare its sign vector as
    its `grading`: every sample is checked against it too, and its nodes
    are split by the half-size SVD of their sector block.

    A path over a tiled context whose samples all reduce to an N x N
    coefficient through one fixed cell factor b may declare a `Reduction`
    of b built over its context and grading: `fn` then returns the
    coefficient, symmetric A of A (x) b (real kind) or general P of the
    grading-odd form of P (x) beta (split kind), which `coefficient`
    checks, and the whole walk takes the reduced route.  `at` still
    returns the n x n sample.

    A path whose matrices (its samples, or its coefficients when reduced)
    move only on one fixed block may declare it as its `moving`
    `MovingBlock`; `bordered_flow` then walks a k x k path in its place.
    """

    context: CliffordRep
    fn: Callable[[float], np.ndarray]
    label: str = ""
    grading: Grading | None = None
    reduction: Reduction | None = None
    moving: MovingBlock | None = None

    def __post_init__(self):
        if self.grading is not None and self.grading.n != self.context.n:
            raise ValidationError(
                f"grading of dimension {self.grading.n} on a path "
                f"of dimension {self.context.n}")
        if self.reduction is not None and (self.reduction.context is not self.context
                                           or self.reduction.grading is not self.grading):
            raise ValidationError("a reduction must be built over the path's own "
                                  "context and grading")
        if self.moving is not None:
            self.moving.check(self)

    def coefficient(self, t: float) -> np.ndarray:
        """The N x N coefficient of a reduced path's sample, checked.

        With eps the reduction's residual (`Reduction`), the check of `at`
        accepts the lifted sample when its skewness bound (which adds the
        grade) and its anticommutators lie within SAMPLE_TOL.
        Real kind, T = A (x) b: ||T + T^T|| <= ||A - A^T|| ||b|| + ||A||
        ||b + b^T||, and T (I (x) g) + (I (x) g) T = A (x) (b g + g b) for
        each cell generator g and the grading's cell G_c, so the grade is
        at most ||A|| eps; with ||b|| <= 1 + eps, every A with
        ||A - A^T|| (1 + eps) + 2 ||A|| eps <= SAMPLE_TOL passes.
        Split kind: the lift has exact zero diagonal blocks and -P^T (x)
        beta^T under P (x) beta, so its grade and skewness residuals are 0,
        and with A and B the symmetric and skew parts of P it is
        A (x) b' + B (x) b' omega, whose anticommutator with I (x) g is at
        most (||A|| + ||B||) eps <= 2 ||P|| eps; every P with 2 ||P|| eps <=
        SAMPLE_TOL passes.  So this check, the same bound with
        ||A - A^T|| read as 0 on the split kind, is never looser than that
        one.  ||A|| is read as ||A||_F, and exactly only when that bound
        fails; a non-finite coefficient fails either way.
        """
        if self.reduction is None:
            raise ValidationError("only a reduced path has coefficients")
        return _one(self.samples([t]))

    def at(self, t: float) -> np.ndarray:
        """The n x n sample T(t), checked; on a reduced path the checked
        coefficient, lifted to A(t) (x) b."""
        if self.reduction is not None:
            return self.reduction.lift(self.coefficient(t))
        return _one(self.samples([t]))

    def samples(self, ts):
        """The samples at the times ts, in order, checked as one stack (on
        a reduced path their N x N coefficients, checked as `coefficient`
        checks one): (stack, failure), the stack of the leading samples
        that pass and the exception of the first that does not, or None.
        A sample fails when `fn` raises, by its shape or by its check; fn
        is not called past a failure.  Each item gets the check, the
        bounds and the message of a sample checked alone: `at` and
        `coefficient` are the stack of one."""
        red = self.reduction
        size = self.context.n if red is None else self.context.copies
        mats, failure = [], None
        for t in ts:
            try:
                mat = np.asarray(self.fn(t), dtype=float)
            except Exception as exc:
                failure = exc
                break
            if mat.shape != (size, size):
                kind = "sample" if red is None else "coefficient"
                failure = ValidationError(f"path {kind} at t={t} has shape {mat.shape}, "
                                          f"expected ({size}, {size})")
                break
            mats.append(mat)
        if not mats:
            return np.zeros((0, size, size)), failure
        stack = mats[0][None] if len(mats) == 1 else np.stack(mats)
        del mats
        errors = (self._check_coefficients if red is not None
                  else self._check_samples)(stack, ts[:len(stack)])
        bad = next((i for i, err in enumerate(errors) if err is not None), None)
        if bad is None:
            return stack, failure
        return stack[:bad], errors[bad]

    def _check_coefficients(self, stack, ts) -> list:
        """The ValidationError of each coefficient of a stack that breaks
        the bound of `coefficient`, or None."""
        red = self.reduction
        eps = red.eps
        real = red.kind == "real"
        asym = residual_norms(SAMPLE_TOL, [stack - stack.swapaxes(1, 2)]) if real else 0.0
        norm = frobenius_norms(stack)
        for i in np.flatnonzero(asym * (1.0 + eps) + 2.0 * norm * eps > SAMPLE_TOL):
            if np.isfinite(norm[i]):
                norm[i] = op_norm(stack[i])
        worst = asym * (1.0 + eps) + 2.0 * norm * eps
        return [None if res <= SAMPLE_TOL else ValidationError(
            f"path coefficient at t={t} {'is not symmetric to' if real else 'breaks'} "
            f"the sample tolerance (residual {res:.3e})") for t, res in zip(ts, worst)]

    def _check_samples(self, stack, ts) -> list:
        """The ValidationError of each n x n sample of a stack that breaks
        skewness, anticommutation or its grading, or None."""
        if self.grading is None:
            worst = residual_norms(SAMPLE_TOL, self.context.skew_residuals(stack))
            return [None if res <= SAMPLE_TOL else _violation(t, res)
                    for t, res in zip(ts, worst)]
        # with m and p the indices of G's -1 and +1 entries, G T + T G
        # is -2 T[m, m] on the first sector and 2 T[p, p] on the second
        minus, plus = self.grading.sectors()

        def diagonal(mats, axis):
            return (2.0 * mats.take(idx, axis).take(idx, axis + 1) for idx in (minus, plus))

        grade = residual_norms(SAMPLE_TOL, diagonal(stack, 1))
        # a sample off its grading fails there: the ones after it are not
        # checked further
        graded = next((i for i, res in enumerate(grade) if res > SAMPLE_TOL), len(ts))
        errors = [None] * len(ts)
        if graded < len(ts):
            errors[graded] = ValidationError(
                f"path sample at t={ts[graded]} breaks its grading "
                f"(residual {grade[graded]:.3e})")
        stack, grade = stack[:graded], grade[:graded]
        if not graded:
            return errors
        # T + T^T is [[D_m, X], [X^T, D_p]] with X = T[m, p] + T[p, m]^T
        # and D_i = T[i, i] + T[i, i]^T, so ||T + T^T||_2 <= ||X||_2 +
        # max(||2 T[m, m]||_2, ||2 T[p, p]||_2): skewness is accepted when
        # that bound is within SAMPLE_TOL, the grade exact if its
        # Frobenius bound does not do
        off = stack.take(minus, 1).take(plus, 2) \
            + stack.take(plus, 1).take(minus, 2).swapaxes(1, 2)
        skew = residual_norms(SAMPLE_TOL - grade, [off]) + grade
        for i in np.flatnonzero(skew > SAMPLE_TOL):
            exact = residual_norm(0.0, diagonal(stack[i], 0))
            skew[i] = residual_norm(SAMPLE_TOL - exact, [off[i]]) + exact
        del off
        worst = np.maximum(skew, residual_norms(SAMPLE_TOL, self.context.anticommutators(stack)))
        for i, (t, res) in enumerate(zip(ts, worst)):
            if res > SAMPLE_TOL:
                errors[i] = _violation(t, res)
        return errors


def _violation(t: float, worst: float) -> ValidationError:
    return ValidationError(f"path sample at t={t} violates skewness/anticommutation "
                           f"(residual {worst:.3e})")


def _one(checked):
    """The single item of a stack of one, or its failure raised."""
    stack, failure = checked
    if failure is not None:
        raise failure
    return stack[0]


@dataclass(frozen=True)
class MovingBlock:
    """The block W of a path's matrices that alone moves along the path,
    as its model declares it for `bordered_flow`.

    `indices` are the k indices of W into the path's matrices: its N x N
    coefficients on a reduced path, its n x n samples on a dense one; the
    moving block is T[W, W].  `J` is a fixed orthogonal k x k matrix, skew
    on a dense path so that replacing T[W, W] by lambda J keeps a sample
    skew, and `bound` a closed-form bound on ||T[W, W](t)||_2 for every
    t, from which lambda is taken.  Every matrix of the path must equal
    the one at t = 0 off W, exactly.
    """

    indices: np.ndarray
    J: np.ndarray
    bound: float

    def __post_init__(self):
        idx = np.array(self.indices)
        if idx.ndim != 1 or not idx.size or idx.dtype.kind not in "iu" \
                or np.unique(idx).size != idx.size or idx.min() < 0:
            raise ValidationError("a moving block's indices must be distinct "
                                  "nonnegative integers")
        j = np.array(self.J, dtype=float)
        k = idx.size
        if j.shape != (k, k):
            raise ValidationError(f"a moving block of {k} indices needs a {k} x {k} J, "
                                  f"got shape {j.shape}")
        worst = residual_norm(SAMPLE_TOL, [j.T @ j - np.eye(k)])
        if not worst <= SAMPLE_TOL:
            raise ValidationError(f"a moving block's J must be orthogonal (residual {worst:.3e})")
        if not (np.isfinite(self.bound) and self.bound > 0.0):
            raise ValidationError(f"a moving block's bound must be positive, got {self.bound}")
        idx.setflags(write=False)
        j.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "J", j)
        object.__setattr__(self, "bound", float(self.bound))

    def check(self, path: SkewPath) -> None:
        """Raise ValidationError unless `bordered_flow` can take this block
        on `path`: over an empty context, on a dense ungraded path (J
        skew) or a split reduced one, with its indices inside the path's
        matrices."""
        red = path.reduction
        dense = red is None and path.grading is None
        if path.context.r or path.context.s or not (dense or red is not None
                                                     and red.kind == "split"):
            raise ValidationError("a moving block is taken on an ungraded dense path or a "
                                  "split reduced path over an empty context only")
        size = path.context.n if red is None else path.context.copies
        if self.indices.max() >= size:
            raise ValidationError(f"a moving block's indices must lie below {size}")
        if red is None:
            worst = residual_norm(SAMPLE_TOL, [self.J + self.J.T])
            if not worst <= SAMPLE_TOL:
                raise ValidationError(
                    f"a moving block's J must be skew on a dense path (residual {worst:.3e})")


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
        j = _polar_factor((hint - hint.T) / 2.0)
        if j is not None and _valid(j):
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


def walk_bytes(n: int, r: int, s: int, copies: int = 1) -> int:
    """Bytes of one step of the flow walk on R^n, with its LAPACK workspace,
    for a path over a Cl_{r,s} context tiled `copies` times: on the route
    that `reduced_route` gives its cell, N = copies; and the nodes of a
    stack of the initial partition (`stacked_nodes`), when it holds more
    than one."""
    kind = reduced_route(r, s, n // copies)
    size = n if kind is None else copies
    nodes = stacked_nodes(size)
    stack = 8 * STACK_NODE_ARRAYS * nodes * size * size if nodes > 1 else 0
    if kind is None:
        return 8 * (NODE_ARRAYS + SVD_WORKSPACE_ARRAYS) * n * n + stack
    workspace = EIGH_WORKSPACE_ARRAYS if kind == "real" else SPLIT_SVD_WORKSPACE_ARRAYS
    return 8 * ((REDUCED_NODE_ARRAYS + workspace) * copies ** 2
                + (r + s + 4) * n * (n // copies)) + stack


def _range_stack(splits: list, items: list) -> np.ndarray:
    """The range phases U_r V_r^T of the given items of a split stack, as
    one new stack; each item's split is dropped once its product is
    formed, and with it the views that keep U and V^T alive."""
    u_r, vt_r, *_ = splits[items[0]]
    ranges = np.empty((len(items), u_r.shape[0], vt_r.shape[1]))
    for row, i in zip(ranges, items):
        u_r, vt_r, *_ = splits[i]
        splits[i] = None
        np.matmul(u_r, vt_r, out=row)
    return ranges


def _polar_factor(mat: np.ndarray) -> np.ndarray | None:
    """The polar factor U V^T of a square alignment-hint compression, from
    one SVD, or None when its smallest singular value does not clear
    HINT_SMIN."""
    u, svals, vt = np.linalg.svd(mat)
    return u @ vt if svals[-1] > HINT_SMIN else None


def _projected(phases: np.ndarray, context: CliffordRep, grading: Grading | None,
               reduction: Reduction | None) -> np.ndarray:
    """A (B, ., .) stack of completed phases (range phases with their
    kernel completion added, if any) with their symmetry re-imposed, one
    step of the structure's repair before `_finish`.

    Singular vectors of near-zero singular values carry rounding into the
    phase.  Dense route: the phase, scattered back to n x n from its
    sector block on a graded path, is projected onto the skew
    anticommutant.  Real kind: S is replaced by its symmetric part.  Split
    kind: U diag(I, Q) W^T is orthogonal up to the rounding of the SVD,
    which `ReducedStructure` checks; it is kept as it is.
    """
    if reduction is None:
        if grading is not None:
            phases = grading.odd(phases)
        return context.project_skew(phases, -1)
    if reduction.kind == "real":
        return (phases + phases.swapaxes(1, 2)) / 2.0
    return phases


def _finish(phases: np.ndarray, context: CliffordRep, reduction: Reduction | None) -> list:
    """The checked phases of a `_projected` stack, item by item, after
    one Newton-Schulz step: J (3I + J^2) / 2 towards J^2 = -I on the dense
    route (an odd polynomial in J, so skewness and anticommutation
    survive), S (3I - S^2) / 2 towards a symmetric involution on the real
    kind; an item that fails its check holds the ValidationError."""
    if reduction is None:
        phases = phases @ (3.0 * np.eye(context.n) + phases @ phases) / 2.0
        return ComplexStructure.stack(phases, context)
    if reduction.kind == "real":
        phases = phases @ (3.0 * np.eye(phases.shape[-1]) - phases @ phases) / 2.0
    return ReducedStructure.stack(phases, reduction)


def _complete_kernel(splits: list, i: int, context: CliffordRep, grading: Grading | None,
                     reduction: Reduction | None, align_hint: np.ndarray | None,
                     seed: int):
    """The checked phase of node i of a split stack, one with a nonempty
    kernel cluster, from its split (U_r, V_r^T, left and right kernel
    columns), which is dropped from the stack here.

    Reduced route: the kernel columns U_k, W_k (one array K on the real
    kind) are completed by U_k Q W_k^T, with Q the polar factor of the
    hint's compression U_k^T S_hint W_k when its smallest singular value
    clears HINT_SMIN, else Q = I_k; the lifted phase is a complex
    structure on the kernel that anticommutes with the restricted context
    for every such Q (an involution, on the real kind, where the
    compression is symmetric), so no obstruction arises.  Dense route: the
    context restricted to the kernel, on a graded path the U_k on the
    minus sector and W_k on the plus one, is completed by
    `_kernel_completion`, following the hint's compression.
    """
    u_r, vt_r, left, right = splits[i]
    splits[i] = None
    if reduction is not None:
        s = u_r @ vt_r
        del u_r, vt_r
        rotation = None if align_hint is None else _polar_factor(left.T @ align_hint @ right)
        if rotation is None:
            rotation = np.eye(left.shape[1])
        s += left @ rotation @ right.T
        s = _projected(s[None], context, grading, reduction)
        return _finish(s, context, reduction)[0]
    if grading is None:
        j, basis = u_r @ vt_r, right
    else:
        minus, plus = grading.sectors()
        k = left.shape[1]
        basis = np.zeros((context.n, 2 * k))
        basis[minus, :k] = left
        basis[plus, k:] = right
        j = grading.odd(u_r @ vt_r)
    # the views keep all of U and V^T alive; drop them before the kernel
    # completion and the Newton-Schulz step allocate n x n arrays
    del u_r, vt_r
    try:
        kernel_rep = restrict_to_subspace(context, basis, 1e-8)
    except ValidationError as exc:
        raise AmbiguousKernelError(f"kernel cluster: {exc}") from exc
    hint = None
    if align_hint is not None:
        hint = basis.T @ align_hint @ basis
    j_ker = _kernel_completion(kernel_rep, seed=seed, hint=hint)
    j = j + basis @ j_ker @ basis.T
    j = _projected(j[None], context, None, None)
    return _finish(j, context, None)[0]


def complete_phases(tmats: np.ndarray, context: CliffordRep,
                    grading: Grading | None = None,
                    align_hint: np.ndarray | None = None, seed: int = 0,
                    split=_split_phase_kernel, reduction: Reduction | None = None) -> list:
    """`complete_phase` of each item of a (B, ., .) stack of checked
    samples, as one stack, with item i - 1's phase as item i's alignment
    hint (`align_hint` for item 0).

    One stacked decomposition (SVD, or on the real kind a symmetric
    eigendecomposition) is split item by item.  Items with an empty kernel
    cluster never read their hint: they are completed and checked as one
    stack.  The others then follow one at a time, in order, each with its
    left neighbour's finished phase as its hint.  Returns the phases in
    order up to the first item that fails (its split, its kernel
    completion or its check), which holds its exception instead; the
    items after it are not returned.
    """
    if reduction is not None:
        if reduction.context is not context:
            raise ValidationError("the reduction is not over this context")
        if tmats.shape[1:] != (context.copies, context.copies):
            raise ValidationError(f"coefficient shape {tmats.shape[1:]} does not match "
                                  f"the context's {context.copies} copies")
        splits = reduction.decompose(tmats, repeated(split, reduction.b.shape[0]))
    elif tmats.shape[1:] != (context.n, context.n):
        raise ValidationError(f"matrix shape {tmats.shape[1:]} does not match "
                              f"context ({context.n})")
    elif grading is None:
        splits = svd_split(tmats, split)
    else:
        minus, plus = grading.sectors()
        splits = svd_split(tmats.take(minus, 1).take(plus, 2), doubled(split))
    last = next((i for i, item in enumerate(splits) if isinstance(item, Exception)),
                len(splits))
    phases = splits
    del splits, phases[last + 1:]
    gapped = [i for i in range(last) if phases[i][2].shape[1] == 0]
    if gapped:
        ranges = _projected(_range_stack(phases, gapped), context, grading, reduction)
        for i, phase in zip(gapped, _finish(ranges, context, reduction)):
            phases[i] = phase
    for i in range(len(phases)):
        if isinstance(phases[i], tuple):
            hint = align_hint if i == 0 else _stored(phases[i - 1])
            phases[i] = held(_complete_kernel, phases, i, context, grading,
                             reduction, hint, seed)
        if isinstance(phases[i], Exception):
            return phases[:i + 1]
    return phases


def complete_phase(tmat: np.ndarray, context: CliffordRep,
                   grading: Grading | None = None,
                   align_hint: np.ndarray | None = None, seed: int = 0,
                   reduction: Reduction | None = None):
    """The phase of a skew `tmat` over `context`, completed to a complex
    structure: one SVD (on the reduced route one `Reduction.decompose`),
    split by the phase-kernel rule (`_split_phase_kernel`);
    `complete_phases` of the stack of one.

    Equal to T|T|^-1 on the complement of the kernel cluster; on the
    kernel, any complex structure anticommuting with the restricted
    generators, chosen canonically (or following `align_hint`, the
    neighbouring phase as the walk holds it: J, or S on the reduced
    route).  Without a grading the SVD is that of tmat.  With one (a
    sample that `SkewPath.at` checked against it) it is the SVD of the
    sector block B = tmat[minus, plus], split by
    `doubled(_split_phase_kernel)`, and the phase is scattered back to
    n x n.  With a `reduction` of `context`, tmat is the N x N coefficient
    of the sample (`SkewPath.coefficient`) and the phase is a
    `ReducedStructure`, the N x N factor S of a `Reduction.decompose` of
    it (a symmetric eigendecomposition of A on the real kind, an SVD of P
    on the split kind), split by `repeated(_split_phase_kernel, c)`:
    U_r V_r^T on the range, completed on the kernel as `_complete_kernel`
    says.  Raises ObstructionError when the kernel module does not extend
    (for example an odd-dimensional kernel with empty context).
    """
    tmat = np.asarray(tmat, dtype=float)
    (phase,) = complete_phases(tmat[None], context, grading, align_hint, seed,
                               reduction=reduction)
    if isinstance(phase, Exception):
        raise phase
    return phase


# ---------------------------------------------------------------------------
# Spectral flow
# ---------------------------------------------------------------------------

def _flow_degree(context: CliffordRep) -> int:
    return (context.s + 2 - context.r) % 8


class _Singular(ValidationError):
    """A nonempty or ambiguous zero cluster on the singular values of an
    endpoint, whose message `_endpoint_phases` completes with its t."""


def _invertible(svals: np.ndarray) -> int:
    """The endpoint rule as a split: an empty zero cluster under the
    default guards of `split_zero_cluster`, else _Singular."""
    try:
        k = split_zero_cluster(svals)
    except AmbiguousKernelError as exc:
        raise _Singular(f"({exc})") from exc
    if k:
        raise _Singular(f"({k} singular values in the zero cluster, "
                        f"smallest {svals[0]:.3e}, largest {svals[-1]:.3e})")
    return 0


def _not_invertible(t: float, singular: _Singular) -> ValidationError:
    """The ValidationError of an endpoint t that fails the endpoint rule."""
    return ValidationError(f"endpoint t={t} is not invertible {singular}")


def _endpoint_phases(path: SkewPath, seed: int):
    """The phases of T(0) and T(1), each sampled, checked and completed
    once, T(0) first: as one stack of two (`_nodes`) when a stack holds
    two nodes, else one at a time.

    An endpoint is invertible exactly when `split_zero_cluster`, with its
    default guards, finds an empty zero cluster on its singular values;
    a nonempty or ambiguous cluster raises ValidationError before any
    completion.  An endpoint phase so has no kernel and needs no hint.
    """
    ends = [0.0, 1.0]
    phases = []
    for chunk in [ends] if _stack_size(path) > 1 else [[t] for t in ends]:
        phases += _nodes(path, chunk, None, seed, split=_invertible)
        if isinstance(phases[-1], Exception):
            break
    for t, phase in zip(ends, phases):
        if isinstance(phase, _Singular):
            raise _not_invertible(t, phase) from phase.__cause__
        if isinstance(phase, Exception):
            raise phase
    return tuple(phases)


def _nodes(path: SkewPath, ts, align_hint: np.ndarray | None, seed: int,
           split=_split_phase_kernel) -> list:
    """The completed phases at the times ts, in order, up to the first
    node that fails, which holds its exception instead: from one checked
    sample stack (`SkewPath.samples`) and one `complete_phases` call; on a
    reduced path both are N x N."""
    mats, failure = path.samples(ts)
    phases = complete_phases(mats, path.context, path.grading, align_hint, seed, split,
                             path.reduction) if len(mats) else []
    if failure is not None and len(phases) == len(mats):
        phases.append(failure)
    return phases


def stacked_nodes(size: int) -> int:
    """How many nodes the walk completes as one stack when a node holds
    size x size matrices: as many as fit in STACK_BYTES at
    STACK_NODE_ARRAYS arrays each, one at least, and at most the
    INITIAL_SEGMENTS - 1 interior nodes of the initial partition."""
    fit = STACK_BYTES // (8 * STACK_NODE_ARRAYS * size * size)
    return int(max(1, min(INITIAL_SEGMENTS - 1, fit)))


def _stack_size(path: SkewPath) -> int:
    """`stacked_nodes` of the path's nodes: n x n, or N x N when reduced."""
    return stacked_nodes(path.context.n if path.reduction is None else path.context.copies)


def _stored(j) -> np.ndarray:
    """A phase as the walk compares and aligns it: S on the reduced route."""
    return j.S if isinstance(j, ReducedStructure) else j.J


def _phase_distance(ja, jb) -> float:
    """||Ja - Jb||_F; on the reduced route Ja - Jb is (Sa - Sb) (x) b, or
    the grading-odd form of (Sa - Sb) (x) beta, with b orthogonal of size
    c and beta of size c/2, so it is sqrt(c) ||Sa - Sb||_F."""
    scale = ja.reduction.b.shape[0] if isinstance(ja, ReducedStructure) else 1.0
    return np.sqrt(scale) * float(np.linalg.norm(_stored(ja) - _stored(jb)))


def spectral_flow(path: SkewPath, *, seed: int = 0) -> KOClass:
    """KO-valued spectral flow of a path with invertible endpoints.

    Walks the partition from left to right.  It holds the phase at the
    left end of the current segment and a stack of pending right ends
    (t, depth, phase or None), nearest last; a phase stays on the stack
    only for t = 1, for the right end of a bisected segment and for the
    initial nodes completed ahead of the walk.  The endpoint phases are
    completed first; every other node is completed once, with the left
    phase as its alignment hint.  `seed` drives the random candidates of a
    kernel completion's intertwiner.

    A right end popped without a phase is completed by one `_nodes`
    stack: a bisection midpoint alone, an initial node (depth 0) with the
    next `stacked_nodes` - 1 initial nodes, which lie below it, and whose
    phases go back to their entries.  Bisection inserts nodes only to the
    left of a computed right end, so node i/16's hint is always node
    (i-1)/16's phase, which the stack hands on.  A node that failed in a
    stack holds its exception on its entry and raises when the walk
    reaches it, so the walk meets the same error first as with one node
    at a time.
    """
    ja, j1 = _endpoint_phases(path, seed)
    total = KOClass.of(_flow_degree(path.context), 0)
    a, m = 0.0, INITIAL_SEGMENTS
    batch = _stack_size(path)
    # the right end t = 1 holds J(1) from the start
    pending = [(1.0, 0, j1)] + [(i / m, 0, None) for i in range(m - 1, 0, -1)]
    while pending:
        b, depth, jb = pending.pop()
        if jb is None:
            # at depth 0 the initial nodes next below join the stack; the
            # last entry, t = 1, holds its phase already
            ahead = min(batch, len(pending)) - 1 if depth == 0 else 0
            phases = _nodes(path, [b] + [pending[-i][0] for i in range(1, ahead + 1)],
                            _stored(ja), seed)
            # popped, so that each phase is held by its entry alone
            for i in range(len(phases) - 1, 0, -1):
                pending[-i] = (pending[-i][0], 0, phases.pop())
            jb = phases.pop()
        if isinstance(jb, Exception):
            raise jb
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
# Moving blocks: the bordered k x k path
# ---------------------------------------------------------------------------

def bordered_flow(path: SkewPath, *, seed: int = 0) -> KOClass:
    """`spectral_flow` of a path that declares a `MovingBlock` W, walked
    on its bordered k x k path; equal to the flow of the path itself.

    Let U be the n x k columns of the identity at W (on a reduced path the
    derivation runs on the lifted samples; the last item below reads it
    off the coefficients).  T(t) moves only on W, so
    T(t) = R + U C(t) U^T, with R = T(0) with its W block
    replaced by lambda J, fixed, and C(t) = T_WW(t) - lambda J, lambda =
    BORDER_SHIFT times the declared bound.  J is orthogonal, so
    sigma_min(C(t)) >= lambda - ||T_WW(t)|| >= lambda - bound > 0 for
    every t: a certificate read off the declaration, whose bound every
    sample is checked against, not off a sample's spectrum.  R is checked
    once, by one LU inverse under a kappa_F certificate, which also gives
    U^T R^-1 U; the SVD rule only when the certificate cannot decide.
    With kappa_F = ||R||_F ||R^-1||_F >= sigma_max / sigma_min and
    ||R||_F / sqrt(n) <= sigma_max, the endpoint rule read on the pair
    (||R||_F / (sqrt(n) kappa_F), ||R||_F / sqrt(n)) finds an empty
    cluster only when it finds one on R's singular values: kappa_F below
    1 / (10 ZERO_CLUSTER_REL_TOL), and the lower bound on sigma_max above
    the rule's absolute floor.  When it does not (or the LU fails, or its
    inverse is not finite), the endpoint rule runs on R's own singular
    values, with their verdict and message; an R that passes it but whose
    LU failed is inverted by `np.linalg.pinv`.  The bordered matrix

        B(t) = [[R, U], [-U^T, C(t)^-1]]

    is skew when T is, and its two Schur complements are T(t) (pivot
    C(t)^-1) and M(t) = C(t)^-1 + U^T R^-1 U (pivot R):

        B = L^T diag(T, C^-1) L,  L = [[I, 0], [-C U^T, I]],
        B = L'^T diag(R, M) L',   L' = [[I, R^-1 U], [0, I]].

    Scaling the off-diagonal block of L or L' from 1 to 0 deforms B, at
    every t, through congruent matrices, invertible at t = 0 and 1 when
    B is; a path of invertible matrices has zero flow, and flow adds over
    direct sums, so (Haynsworth's inertia additivity, Linear Algebra
    Appl. 1 (1968))

        flow(T) = flow(T (+) C^-1) = flow(B) = flow(R (+) M) = flow(M),

    a path of k x k matrices.  T(t) is invertible exactly when M(t) is,
    so the endpoint rule of the k x k walk stands for that of T.

    Context and grading on the W copy: B must anticommute with them on
    R^n (+) R^k.  When W is invariant under a generator g, g U = U g_W,
    the block U anticommutes with g (+) h exactly for h = -g_W, and L, L'
    then commute with g (+) h: the W copy carries the restricted
    generators and the restricted grading, each with its sign flipped.
    The blocks declared so far lie over an empty context (`MovingBlock`):

    - dense ungraded path: M(t) is a skew k x k sample, with no context;
    - split reduced path (cells of size 2, T the grading-odd form of
      P (x) beta, beta = +-1): the lifted W is the k minus indices of the
      coefficient's rows at W and the k plus indices of its columns at W,
      and -G_W puts the plus ones first.  The inverse of the grading-odd
      form of X is that of -X^-T, so in that order M is the grading-odd
      form of M_P (x) beta, with M_P = C_P^-1 + (R_P^-1)_WW, C_P and R_P
      formed from the coefficients as C and R from T: the split
      `Reduction` of the same b on k copies, graded by
      (1, ..., 1, -1, ..., -1).

    Every sample is checked once, as the k x k path samples it: it must
    equal R off W exactly (so T(0), checked in full where R is built,
    checks it there), and its block T_WW(t) must meet the bound and, on a
    dense path, be skew within SAMPLE_TOL; otherwise a ValidationError.
    """
    block, red = path.moving, path.reduction
    if block is None:
        raise ValidationError("the path declares no moving block")
    w, k = block.indices, block.indices.size
    where = np.ix_(w, w)
    shift = BORDER_SHIFT * block.bound * block.J
    kind = "sample" if red is None else "coefficient"
    # a copy: the path's own sample is never written
    fixed = np.array(path.at(0.0) if red is None else path.coefficient(0.0))
    fixed[where] = shift
    fixed.setflags(write=False)
    # the kappa_F certificate; a non-finite inverse never passes it
    inverse = None
    try:
        inverse = np.linalg.inv(fixed)
        norm = np.linalg.norm(fixed)
        top = norm / np.sqrt(len(fixed))
        _invertible(np.array([top / (norm * np.linalg.norm(inverse)), top]))
    except (np.linalg.LinAlgError, _Singular):
        try:
            _invertible(np.linalg.svd(fixed, compute_uv=False)[::-1])
        except _Singular as exc:
            raise ValidationError(f"the bordered complement R of {path.label or 'the path'} "
                                  f"is not invertible {exc}") from exc.__cause__
        if inverse is None or not np.isfinite(inverse).all():
            inverse = np.linalg.pinv(fixed)
    inverse = inverse[where]

    def sample(t: float) -> np.ndarray:
        mat = np.asarray(path.fn(t), dtype=float)
        if mat.shape != fixed.shape:
            raise ValidationError(f"path {kind} at t={t} has shape {mat.shape}, "
                                  f"expected {fixed.shape}")
        moved = mat != fixed
        moved[where] = False
        if moved.any():
            raise ValidationError(f"path {kind} at t={t} moves off its declared moving block")
        moving = mat[where]
        if red is None:
            worst = residual_norm(SAMPLE_TOL, [moving + moving.T])
            if not worst <= SAMPLE_TOL:
                raise _violation(t, worst)
        norm = op_norm(moving) if np.all(np.isfinite(moving)) else np.inf
        if not norm <= block.bound + SAMPLE_TOL:
            raise ValidationError(f"path {kind} at t={t} breaks its moving block's bound "
                                  f"{block.bound:g} (norm {norm:.3e})")
        return np.linalg.inv(moving - shift) + inverse

    label = f"{path.label}, bordered to its {k} x {k} moving block"
    if red is None:
        bordered = SkewPath(CliffordRep(0, 0, k), sample, label=label)
    else:
        ctx = CliffordRep(0, 0, 2 * k, copies=k)
        grading = Grading(np.repeat([1.0, -1.0], k))
        bordered = SkewPath(ctx, sample, label=label, grading=grading,
                            reduction=Reduction(ctx, red.b, grading))
    return spectral_flow(bordered, seed=seed)


def classical_sf(path_fn: Callable[[float], np.ndarray]) -> int:
    """Classical spectral flow of a path of symmetric matrices:
    n_minus(start) - n_minus(end), endpoints required invertible by the
    endpoint rule of `spectral_flow` (`_invertible`) on the ascending
    eigenvalue magnitudes, which are the singular values."""

    def n_minus(t):
        mat = np.asarray(path_fn(t), dtype=float)
        if residual_norm(SAMPLE_TOL, [mat - mat.T]) > SAMPLE_TOL:
            raise ValidationError(f"sample at t={t} is not symmetric")
        vals = np.linalg.eigvalsh((mat + mat.T) / 2.0)
        try:
            _invertible(np.sort(np.abs(vals)))
        except _Singular as exc:
            raise _not_invertible(t, exc) from exc.__cause__
        return int(np.sum(vals < 0.0))

    return n_minus(0.0) - n_minus(1.0)
