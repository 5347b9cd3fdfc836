"""Matrix representations of the real Clifford algebras Cl_{r,s}.

Conventions: r generators E_i are symmetric orthogonal with E_i^2 = +I,
s generators F_k are skew orthogonal with F_k^2 = -I, and all generators
pairwise anticommute.  The fixed 2x2 building blocks are

    K1 = diag(1, -1),   K2 = antidiag(1, 1),   L1 = [[0, -1], [1, 0]],

and these orientations are never permuted: swapping K1 and K2 reverses
the orientation of the rank-2 volume element and silently flips
integer-valued indices downstream.

Canonical representations built here have entries in {-1, 0, +1} and
satisfy every relation exactly in double precision (all products are
signed permutations, so the anticommutator cancellations are exact).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import InvalidModuleError, ValidationError
from .numerics import check_memory, residual_norm

K1 = np.array([[1.0, 0.0], [0.0, -1.0]])
K2 = np.array([[0.0, 1.0], [1.0, 0.0]])
L1 = np.array([[0.0, -1.0], [1.0, 0.0]])

OMEGA_11 = K1 @ L1  # = -K2
OMEGA_20 = K1 @ K2  # = -L1

# Validation thresholds: canonical data is exact; user-supplied reps are
# accepted at 1e-12 (an order above double-precision accumulation at the
# dimensions this library targets), restrictions at 1e-9.
CONSTRUCTION_TOL = 1e-12
RESTRICTION_TOL = 1e-9
# Seeded random candidates that `intertwiner` averages after the identity,
# and the smallest singular value an average needs to count as invertible.
INTERTWINER_TRIES = 8
INTERTWINER_TOL = 1e-8
# Canonical irreducibles of at most this dimension are kept once built
# (`irreducible_rep`): there are 34 of them, all with r + s <= 7, and
# their generators take 51 kB in all.  A props run makes 145 of its 208
# calls for them; its 63 calls for larger ones rebuild, which keeps their
# bytes out of the run's peak (a bound of 16 kept 0.4 MB and raised the
# peak RSS of three props runs by 0.3 MB).  The 63 rebuilds take about
# 13 ms of a props solve (median of 10 warm solves, perf_counter, 2-vCPU
# Xeon at 2 BLAS threads).
IRREDUCIBLE_CACHE_DIM = 8
_IRREDUCIBLES: dict = {}  # (r, s, chirality sign or 0) -> CliffordRep


def _freeze(mat: np.ndarray) -> np.ndarray:
    out = np.array(mat, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, init=False)
class CliffordRep:
    """A finite real inner-product space with Clifford generator matrices.

    The module is `copies` copies of one cell of size c = n / copies, and
    holds only the cell's generators, given as E and F: `cells`, the c x c
    blocks in generator order (with copies = 1, the generators).  With
    copies > 1 each request for the n x n generators I_copies (x) cell
    (`generators()`, `E`, `F`) builds them anew; no flow, pair or model
    code makes one.  Products run on the cells through reshapes,
    x (I (x) cell) as x.reshape(k copies, c) @ cell and (I (x) cell) x as
    cell @ x.reshape(copies, c, k), at n c k instead of n^2 k flops; with
    copies = 1 these are the dense products, operation for operation.
    """

    r: int
    s: int
    n: int
    cells: tuple
    copies: int

    def __init__(self, r: int, s: int, n: int, E=(), F=(), copies: int = 1):
        E, F = tuple(E), tuple(F)
        for name, value in (("r", r), ("s", s), ("n", n), ("copies", copies),
                            ("cells", tuple(_freeze(m) for m in E + F))):
            object.__setattr__(self, name, value)
        if len(E) != r or len(F) != s:
            raise ValidationError(
                f"expected {r} E and {s} F generators, got {len(E)} and {len(F)}")
        if copies < 1 or n % copies:
            raise ValidationError(f"{copies} copies do not tile dimension {n}")
        for m in self.cells:
            if m.shape != (n // copies, n // copies):
                raise ValidationError(
                    f"generator shape {m.shape} does not match dimension {n // copies}")

    E = property(lambda self: tuple(self.generators()[:self.r]))
    F = property(lambda self: tuple(self.generators()[self.r:]))

    def generators(self) -> list:
        if self.copies == 1:
            return list(self.cells)
        eye = np.eye(self.copies)
        return [_freeze(np.kron(eye, cell)) for cell in self.cells]

    def skew_residuals(self, mat: np.ndarray):
        """Residuals mat + mat^T and mat g + g mat of an n x n skew matrix
        anticommuting with the module, built one at a time; of a (B, n, n)
        stack, each residual a stack too."""
        yield mat + mat.swapaxes(-1, -2)
        yield from self.anticommutators(mat)

    def anticommutators(self, mat: np.ndarray):
        """The residuals mat g + g mat alone.  A (B, n, n) stack runs
        through the same reshapes, B copies of each cell product at once;
        each item's residual is the one of that item alone, to the bit."""
        c = self.n // self.copies
        rows, blocks = mat.reshape(-1, c), mat.reshape(-1, c, self.n)
        for cell in self.cells:
            res = (rows @ cell).reshape(mat.shape)
            res += (cell @ blocks).reshape(mat.shape)  # in place: no third n x n array
            yield res

    def project_skew(self, mat: np.ndarray, sign: int) -> np.ndarray:
        """Skew part of an n x n `mat` with g mat g^T = sign mat for every
        generator g: the part anticommuting with the module for sign = -1,
        commuting with it for sign = +1.  Averages mat with sign g mat g^T
        one generator at a time; a (B, n, n) stack item by item, in the
        same products."""
        out = np.asarray(mat, dtype=float)
        n, copies = self.n, self.copies
        c = n // copies
        combine = np.add if sign > 0 else np.subtract
        for cell in self.cells:
            # one expression: no named temporary outlives the step
            out = combine(out, ((cell @ out.reshape(-1, c, n)).reshape(-1, c)
                                @ cell.T).reshape(out.shape)) / 2.0
        return (out - out.swapaxes(-1, -2)) / 2.0

    def validate(self, tol: float = CONSTRUCTION_TOL) -> "CliffordRep":
        report = check_relations(self, tol)
        if not report.ok:
            raise ValidationError(
                f"Clifford relations violated (max residual {report.max_residual:.3e}): "
                + "; ".join(name for name, _ in report.violations[:4]))
        return self


@dataclass(frozen=True)
class ValidationReport:
    """Violated relations with their max-abs residuals."""

    violations: tuple  # of (name, residual)
    max_residual: float

    @property
    def ok(self) -> bool:
        return not self.violations


def check_relations(rep: CliffordRep, tol: float = CONSTRUCTION_TOL) -> ValidationReport:
    """Check symmetry type, orthogonality and the anticommutation relations
    on the cells: a residual of the generators I (x) cell is I (x) the
    cell's, with the same max-abs entry."""
    e_cells, f_cells = rep.cells[:rep.r], rep.cells[rep.r:]
    eye = np.eye(rep.n // rep.copies)
    entries = []
    sizes = []

    def probe(name, residual_mat):
        res = float(np.abs(residual_mat).max()) if residual_mat.size else 0.0
        if not res <= tol:  # a NaN residual violates the relation too
            entries.append((name, res))
        sizes.append(res)

    for i, m in enumerate(e_cells):
        probe(f"E{i + 1}^T = E{i + 1}", m.T - m)
        probe(f"E{i + 1} orthogonal", m.T @ m - eye)
    for k, m in enumerate(f_cells):
        probe(f"F{k + 1}^T = -F{k + 1}", m.T + m)
        probe(f"F{k + 1} orthogonal", m.T @ m - eye)
    for i in range(rep.r):
        probe(f"E{i + 1}^2 = I", e_cells[i] @ e_cells[i] - eye)
        for j in range(i + 1, rep.r):
            probe(
                f"E{i + 1}E{j + 1} + E{j + 1}E{i + 1} = 0",
                e_cells[i] @ e_cells[j] + e_cells[j] @ e_cells[i])
    for k in range(rep.s):
        probe(f"F{k + 1}^2 = -I", f_cells[k] @ f_cells[k] + eye)
        for l in range(k + 1, rep.s):
            probe(
                f"F{k + 1}F{l + 1} + F{l + 1}F{k + 1} = 0",
                f_cells[k] @ f_cells[l] + f_cells[l] @ f_cells[k])
    for i in range(rep.r):
        for k in range(rep.s):
            probe(
                f"E{i + 1}F{k + 1} + F{k + 1}E{i + 1} = 0",
                e_cells[i] @ f_cells[k] + f_cells[k] @ e_cells[i])
    return ValidationReport(violations=tuple(entries),
                            max_residual=float(np.max(sizes, initial=0.0)))


def volume_element(rep: CliffordRep) -> np.ndarray:
    """Ordered product E_1 ... E_r F_1 ... F_s (the identity if r = s = 0)."""
    omega = np.eye(rep.n)
    for m in rep.generators():
        omega = omega @ m
    return omega


def volume_square_sign(r: int, s: int) -> int:
    """Sign of omega^2: (-1)^r when r+s = 3,4 mod 4, else (-1)^(r+1)."""
    if (r + s) % 4 in (3, 0):
        return (-1) ** (r % 2)
    return (-1) ** ((r + 1) % 2)


def direct_sum(a: CliffordRep, b: CliffordRep) -> CliffordRep:
    """Block-diagonal sum of two modules over the same algebra."""
    if (a.r, a.s) != (b.r, b.s):
        raise ValidationError(
            f"signature mismatch: ({a.r},{a.s}) vs ({b.r},{b.s})")

    def blk(x, y):
        out = np.zeros((a.n + b.n, a.n + b.n))
        out[:a.n, :a.n] = x
        out[a.n:, a.n:] = y
        return out

    return CliffordRep(a.r, a.s, a.n + b.n,
                       E=tuple(blk(x, y) for x, y in zip(a.E, b.E)),
                       F=tuple(blk(x, y) for x, y in zip(a.F, b.F)))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`np.kron` of two 2-D arrays: each entry a[i, j] b[k, l] is the one
    product np.kron forms, so the result is the same to the bit, without
    its per-call axis handling."""
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def _graded_tensor(rep: CliffordRep, block: CliffordRep) -> CliffordRep:
    """Graded tensor product of `rep` with a block of an even number of
    generators, whose volume element omega anticommutes with each of them.

    The old generators X go to X (x) omega, listed first, the block's Y
    to I (x) Y.  A skew omega (omega^2 = -I) swaps the roles of the old
    generators: the old F become symmetric and the old E skew.
    """
    omega = volume_element(block)
    old_e = tuple(_kron(m, omega) for m in rep.E)
    old_f = tuple(_kron(m, omega) for m in rep.F)
    if volume_square_sign(block.r, block.s) < 0:
        old_e, old_f = old_f, old_e
    eye = np.eye(rep.n)
    e_new = old_e + tuple(_kron(eye, y) for y in block.E)
    f_new = old_f + tuple(_kron(eye, y) for y in block.F)
    return CliffordRep(len(e_new), len(f_new), rep.n * block.n, E=e_new, F=f_new)


def cl11_tensor(rep: CliffordRep) -> CliffordRep:
    """Tensor with the rank-(1,1) block: the mod-8 periodicity carrier.

    The graded tensor step with the block E = (K1,), F = (L1,): old
    generators go to X (x) omega_{1,1}; the new pair is I (x) K1 and
    I (x) L1, appended last.
    """
    return _graded_tensor(rep, CliffordRep(1, 1, 2, E=(K1,), F=(L1,)))


# ---------------------------------------------------------------------------
# Irreducible representations
# ---------------------------------------------------------------------------

def irreducible_dimension(r: int, s: int) -> int:
    """Real dimension of an irreducible Cl_{r,s} module."""
    n = r + s
    t = (r - s) % 8
    if t in (0, 2):
        return 2 ** (n // 2)
    if t == 1:
        return 2 ** ((n - 1) // 2)
    if t in (3, 5, 7):
        return 2 ** ((n + 1) // 2)
    return 2 ** ((n + 2) // 2)  # t in (4, 6)


def has_two_irreducibles(r: int, s: int) -> bool:
    return (r - s) % 4 == 1


@lru_cache(maxsize=None)
def _octonion_table(dim: int):
    """Cayley-Dickson multiplication table: (i, j) -> (k, sign) with
    e_i e_j = sign * e_k."""
    if dim == 1:
        return {(0, 0): (0, 1)}
    half = dim // 2
    sub = _octonion_table(half)

    def csign(idx):  # conjugation sign on a basis element of the half algebra
        return 1 if idx == 0 else -1

    tab = {}
    for i in range(dim):
        for j in range(dim):
            if i < half and j < half:
                tab[(i, j)] = sub[(i, j)]
            elif i < half <= j:
                # (a,0)(0,d) = (0, d a)
                k, sgn = sub[(j - half, i)]
                tab[(i, j)] = (half + k, sgn)
            elif j < half <= i:
                # (0,b)(c,0) = (0, b conj(c))
                k, sgn = sub[(i - half, j)]
                tab[(i, j)] = (half + k, sgn * csign(j))
            else:
                # (0,b)(0,d) = (-conj(d) b, 0)
                k, sgn = sub[(j - half, i - half)]
                tab[(i, j)] = (k, -sgn * csign(j - half))
    return tab


def _octonion_left_mult(i: int) -> np.ndarray:
    """Matrix of left multiplication by the imaginary octonion unit e_i."""
    tab = _octonion_table(8)
    mat = np.zeros((8, 8))
    for j in range(8):
        k, sgn = tab[(i, j)]
        mat[k, j] = sgn
    return mat


def _pure_skew_base(s: int) -> CliffordRep:
    """Irreducible Cl_{0,s} modules for s = 5..8 from octonion units.

    Left multiplication by imaginary unit octonions gives seven mutually
    anticommuting skew complex structures on R^8; the first five or six
    already realize the irreducibles of Cl_{0,5} and Cl_{0,6}, all seven
    one of the two irreducibles of Cl_{0,7}, and the doubled block form
    the 16-dimensional irreducible of Cl_{0,8}.
    """
    lefts = [_octonion_left_mult(i) for i in range(1, 8)]
    if s in (5, 6, 7):
        return CliffordRep(0, s, 8, F=tuple(lefts[:s]))
    if s == 8:
        eye = np.eye(8)
        blocks = []
        for lm in lefts:
            g = np.zeros((16, 16))
            g[:8, 8:] = -lm.T
            g[8:, :8] = lm
            blocks.append(g)
        g8 = np.zeros((16, 16))
        g8[:8, 8:] = -eye
        g8[8:, :8] = eye
        blocks.append(g8)
        return CliffordRep(0, 8, 16, F=tuple(blocks))
    raise ValueError(f"no octonion base for s = {s}")


def _irreducible_recursive(r: int, s: int) -> CliffordRep:
    """The canonical Cl_{r,s} irreducible before any chirality fix.

    Each step is one graded tensor product: Cl_{1,1} strips a rank-(1,1)
    pair; Cl_{2,0} and Cl_{0,2} build a pure signature from the swapped
    smaller one, Cl_{0,8} from the same one, down to the explicit 2 x 2
    and octonion base cases.  Cl_{1,1}, Cl_{2,0} and Cl_{0,8} are full
    real matrix algebras, so irreducibility survives them.
    """
    if r >= 1 and s >= 1:
        return cl11_tensor(_irreducible_recursive(r - 1, s - 1))
    if s == 0:
        if r == 0:
            return CliffordRep(0, 0, 1)
        if r == 1:
            return CliffordRep(1, 0, 1, E=(np.array([[1.0]]),))
        if r == 2:
            return CliffordRep(2, 0, 2, E=(K1, K2))
        return _graded_tensor(_irreducible_recursive(0, r - 2),
                              CliffordRep(2, 0, 2, E=(K1, K2)))
    # r == 0
    if s == 1:
        return CliffordRep(0, 1, 2, F=(L1,))
    if s <= 4:
        # the quaternionic block on R^4 keeps irreducibility only because
        # its source Cl_{s-2,0} (s - 2 = 0, 1, 2) is of real type; on any
        # other source the product is reducible
        return _graded_tensor(_irreducible_recursive(s - 2, 0),
                              CliffordRep(0, 2, 4, F=(_kron(K1, L1), _kron(K2, L1))))
    if s <= 8:
        return _pure_skew_base(s)
    return _graded_tensor(_irreducible_recursive(0, s - 8), _pure_skew_base(8))


def _parse_chirality(chirality) -> int:
    if chirality in (+1, -1):
        return int(chirality)
    if chirality in ("+", "plus"):
        return 1
    if chirality in ("-", "minus"):
        return -1
    raise ValidationError(f"chirality must be '+' or '-', got {chirality!r}")


def irreducible_rep(r: int, s: int, chirality=None) -> CliffordRep:
    """Deterministic irreducible representation of Cl_{r,s}.

    Strips rank-(1,1) blocks first, then applies one rank-2 tensor step
    over the swapped signature, finishing at small explicit base cases
    (octonion left multiplications cover the pure-skew signatures whose
    rank-2 step would land on a complex- or quaternion-type algebra and
    produce a reducible module).

    When two irreducibles exist (r - s = 1 mod 4) they are told apart by
    the volume element being +I or -I; `chirality` selects which ('+' by
    default).  Supplying a chirality for an algebra with a unique
    irreducible is rejected.

    A rep of dimension at most IRREDUCIBLE_CACHE_DIM is built once per
    (r, s, resolved chirality) and cached; it is frozen, so every caller
    shares it.  The memory check and the chirality check run on every call.
    """
    if r < 0 or s < 0:
        raise ValidationError(f"signature needs r, s >= 0, got ({r}, {s})")
    # its r + s generators and two more n x n arrays for the chirality fix
    check_memory(f"the Cl_{{{r},{s}}} irreducible",
                 8 * (r + s + 2) * irreducible_dimension(r, s) ** 2)
    two = has_two_irreducibles(r, s)
    if chirality is not None and not two:
        raise ValidationError(
            f"Cl_{{{r},{s}}} has a unique irreducible representation; "
            "chirality must not be supplied")
    want = (1 if chirality is None else _parse_chirality(chirality)) if two else 0
    key = (r, s, want)
    rep = _IRREDUCIBLES.get(key)
    if rep is None:
        rep = _canonical_irreducible(r, s, want)
        if rep.n <= IRREDUCIBLE_CACHE_DIM:
            _IRREDUCIBLES[key] = rep
    return rep


def _canonical_irreducible(r: int, s: int, want: int) -> CliffordRep:
    """The canonical Cl_{r,s} irreducible of volume element want * I
    (want = 0 when the irreducible is unique)."""
    rep = _irreducible_recursive(r, s)
    if want:
        omega = volume_element(rep)
        sign = float(omega[0, 0])
        if np.max(np.abs(omega - sign * np.eye(rep.n))) > 0.0:
            raise RuntimeError("volume element of a chiral irreducible is not scalar")
        if int(sign) != want:
            # Negating the last generator preserves all relations and flips
            # the (central) volume element, landing on the other irreducible.
            if rep.r >= 1:
                e_new = rep.E[:-1] + (-rep.E[-1],)
                rep = CliffordRep(rep.r, rep.s, rep.n, E=e_new, F=rep.F)
            else:
                f_new = rep.F[:-1] + (-rep.F[-1],)
                rep = CliffordRep(rep.r, rep.s, rep.n, E=rep.E, F=f_new)
    return rep


# ---------------------------------------------------------------------------
# Decomposition, restriction, intertwiners
# ---------------------------------------------------------------------------

def _integer_multiplicity(value: float, what: str) -> int:
    nearest = round(value)
    if abs(value - nearest) > 1e-6:
        raise InvalidModuleError(
            f"{what} came out non-integral: {value}", fraction=value)
    return int(nearest)


def decompose(rep: CliffordRep):
    """Multiplicities of the irreducible(s) inside a module.

    Returns (m_plus, m_minus) when Cl_{r,s} has two irreducibles (they are
    separated by the sign of the central volume element), else a single
    multiplicity m.  There r - s = 1 mod 4 makes the volume element omega
    a symmetric involution, so its +-1 eigenspaces have the dimensions
    (n +- tr omega) / 2.
    """
    d_irr = irreducible_dimension(rep.r, rep.s)
    if has_two_irreducibles(rep.r, rep.s):
        trace = float(np.trace(volume_element(rep)))
        dim_plus, dim_minus = (rep.n + trace) / 2.0, (rep.n - trace) / 2.0
        m_plus = _integer_multiplicity(dim_plus / d_irr, "multiplicity of the + irreducible")
        m_minus = _integer_multiplicity(dim_minus / d_irr, "multiplicity of the - irreducible")
        return (m_plus, m_minus)
    return _integer_multiplicity(rep.n / d_irr, "multiplicity")


def restrict_to_subspace(rep: CliffordRep, basis: np.ndarray,
                         tol: float = RESTRICTION_TOL,
                         extra_F=()) -> CliffordRep:
    """Restrict all generators, followed by the n x n skew matrices of
    `extra_F` as further skew generators, to an invariant subspace.

    `basis` holds orthonormal columns spanning the subspace; each image
    g @ basis is computed once, from the cells, and handed to
    `restrict_images`.
    """
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != rep.n:
        raise ValidationError(f"basis shape {basis.shape} does not match dimension {rep.n}")
    blocks = basis.reshape(rep.copies, rep.n // rep.copies, basis.shape[1])
    images = [(cell @ blocks).reshape(basis.shape) for cell in rep.cells]
    return restrict_images(rep.r, basis, images + [g @ basis for g in extra_F], tol)


def restrict_images(r: int, basis: np.ndarray, images, tol: float) -> CliffordRep:
    """The module on the span of `basis` whose generators act on it as
    `images` (g @ basis for each generator g, the r symmetric ones first).

    Each image is checked for invariance to `tol` and compressed to
    basis^T g basis; the restricted module is checked against the
    Clifford relations to `tol`.  A basis whose columns are not
    orthonormal, an image that leaves the span, or restricted generators
    that break the relations raise ValidationError with the residual.
    An empty basis gives the dimension-0 module at once: every check is
    vacuous there.
    """
    k = basis.shape[1]
    if k == 0:
        empty = [np.zeros((0, 0))] * len(images)
        return CliffordRep(r, len(images) - r, 0, E=empty[:r], F=empty[r:])
    if residual_norm(1e-10, [basis.T @ basis - np.eye(k)]) > 1e-10:
        raise ValidationError("basis columns are not orthonormal")
    worst = residual_norm(tol, (img - basis @ (basis.T @ img) for img in images))
    if worst > tol:
        raise ValidationError(
            f"subspace is not invariant under the generators (residual {worst:.3e})")
    gens = [basis.T @ img for img in images]
    sub = CliffordRep(r, len(gens) - r, k, E=gens[:r], F=gens[r:])
    report = check_relations(sub, tol)
    if not report.ok:
        raise ValidationError(
            f"restricted generators violate relations (max residual {report.max_residual:.3e})")
    return sub


def _group_elements(rep: CliffordRep):
    """The sign-quotiented finite group generated by the generators:
    ordered subset products, 2^(r+s) orthogonal matrices."""
    gens = rep.generators()
    elements = [np.eye(rep.n)]
    for size in range(1, len(gens) + 1):
        for subset in combinations(range(len(gens)), size):
            prod = gens[subset[0]]
            for idx in subset[1:]:
                prod = prod @ gens[idx]
            elements.append(prod)
    return elements


def intertwiner(rep_a: CliffordRep, rep_b: CliffordRep, seed: int = 0):
    """Orthogonal U with rep_a(g) U = U rep_b(g) for all generators, or None.

    Candidate matrices are averaged over the generated group (exact
    equivariance by construction) and polar-orthogonalized.  The identity
    is tried first so aligned inputs come back canonically; seeded random
    candidates follow.  None means no invertible average was found, which
    for irreducibles certifies inequivalence (the averaging map is rank 0).
    """
    if (rep_a.r, rep_a.s) != (rep_b.r, rep_b.s):
        raise ValidationError("intertwiner requires equal signatures")
    if rep_a.n != rep_b.n or rep_a.n == 0:
        return np.zeros((rep_a.n, rep_b.n)) if rep_a.n == rep_b.n else None
    group_a = _group_elements(rep_a)
    group_b = _group_elements(rep_b)
    rng = np.random.default_rng(seed)
    candidates = [np.eye(rep_a.n)]
    candidates += [rng.standard_normal((rep_a.n, rep_b.n))
                   for _ in range(INTERTWINER_TRIES)]
    for cand in candidates:
        avg = np.zeros_like(cand)
        for ga, gb in zip(group_a, group_b):
            avg += ga @ cand @ gb.T
        avg /= len(group_a)
        u, svals, vt = np.linalg.svd(avg)
        if svals[-1] > INTERTWINER_TOL and svals[-1] > 1e-6 * svals[0]:
            return u @ vt
    return None


def are_equivalent(rep_a: CliffordRep, rep_b: CliffordRep, seed: int = 0) -> bool:
    """True iff an orthogonal intertwiner exists (verified to 1e-9)."""
    u = intertwiner(rep_a, rep_b, seed=seed)
    if u is None:
        return False
    pairs = zip(rep_a.generators(), rep_b.generators())
    return residual_norm(1e-9, (ga @ u - u @ gb for ga, gb in pairs)) <= 1e-9


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def rep_to_json(rep: CliffordRep) -> dict:
    """{"r", "s", "n", "E": [row-major arrays], "F": [...]}."""
    return {
        "r": rep.r,
        "s": rep.s,
        "n": rep.n,
        "E": [m.reshape(-1).tolist() for m in rep.E],
        "F": [m.reshape(-1).tolist() for m in rep.F],
    }


def _matrix_from_json(data, n: int) -> np.ndarray:
    """An n x n matrix from a flat row-major or a nested JSON array."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged or non-numeric entries
        raise ValidationError(f"matrix entries are not a numeric array: {exc}") from exc
    if arr.ndim == 1:
        if arr.size != n * n:
            raise ValidationError(f"flat matrix of length {arr.size} is not {n}x{n}")
        arr = arr.reshape(n, n)
    elif arr.shape != (n, n):
        raise ValidationError(f"matrix shape {arr.shape} is not ({n}, {n})")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("matrix entries must be finite numbers")
    return arr


def json_count(obj, key: str) -> int:
    """obj[key] as a count: a JSON integer >= 0, neither a float nor a bool."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValidationError(f"{key!r} must be a nonnegative integer, got {value!r}")
    return value


def _parse_rep(obj) -> CliffordRep:
    """A representation from the JSON schema, relations not yet checked;
    its bytes (generators, and three n x n arrays to check them) are
    counted before any matrix is built."""
    try:
        r, s, n = (json_count(obj, key) for key in ("r", "s", "n"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed representation JSON: {exc}") from exc
    check_memory(f"a module of dimension {n}", 8 * (r + s + 3) * n * n)
    try:
        e_list = [_matrix_from_json(m, n) for m in obj.get("E", [])]
        f_list = [_matrix_from_json(m, n) for m in obj.get("F", [])]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed representation JSON: {exc}") from exc
    return CliffordRep(r, s, n, E=tuple(e_list), F=tuple(f_list))


def rep_from_json(obj) -> CliffordRep:
    """Parse and validate a representation from the JSON schema."""
    return _parse_rep(obj).validate()
