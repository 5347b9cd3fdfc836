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

from dataclasses import dataclass, field
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


def _freeze(mat: np.ndarray) -> np.ndarray:
    out = np.array(mat, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class CliffordRep:
    """A finite real inner-product space with Clifford generator matrices.

    The generators tile `copies` copies of one cell of size c = n / copies:
    each is exactly I_copies (x) cell, checked on construction.  `cells`
    holds those c x c blocks in generator order (the generators themselves
    when copies = 1).  `skew_residuals` and `project_skew` apply them to an
    n x n matrix through reshapes, mat (I (x) cell) as
    mat.reshape(n copies, c) @ cell and (I (x) cell) mat as
    cell @ mat.reshape(copies, c, n), at n^2 c instead of n^3 flops; with
    copies = 1 these are the dense products, operation for operation.
    """

    r: int
    s: int
    n: int
    E: tuple = field(default=())
    F: tuple = field(default=())
    copies: int = 1
    cells: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "E", tuple(_freeze(m) for m in self.E))
        object.__setattr__(self, "F", tuple(_freeze(m) for m in self.F))
        if len(self.E) != self.r or len(self.F) != self.s:
            raise ValidationError(
                f"expected {self.r} E and {self.s} F generators, "
                f"got {len(self.E)} and {len(self.F)}")
        for m in self.generators():
            if m.shape != (self.n, self.n):
                raise ValidationError(
                    f"generator shape {m.shape} does not match dimension {self.n}")
        if self.copies < 1 or self.n % self.copies:
            raise ValidationError(
                f"{self.copies} copies do not tile dimension {self.n}")
        cells = self.generators()
        if self.copies > 1:
            c = self.n // self.copies
            cells = [_freeze(m[:c, :c]) for m in cells]
            for m, cell in zip(self.generators(), cells):
                if not np.array_equal(m, np.kron(np.eye(self.copies), cell)):
                    raise ValidationError(
                        f"a generator is not I_{self.copies} (x) a {c} x {c} cell")
        object.__setattr__(self, "cells", tuple(cells))

    def generators(self):
        return list(self.E) + list(self.F)

    def skew_residuals(self, mat: np.ndarray):
        """Residuals mat + mat^T and mat g + g mat of an n x n skew matrix
        anticommuting with the module, built one at a time."""
        yield mat + mat.T
        n, copies = self.n, self.copies
        c = n // copies
        rows, blocks = mat.reshape(n * copies, c), mat.reshape(copies, c, n)
        for cell in self.cells:
            res = (rows @ cell).reshape(n, n)
            res += (cell @ blocks).reshape(n, n)  # in place: no third n x n array
            yield res

    def project_skew(self, mat: np.ndarray, sign: int) -> np.ndarray:
        """Skew part of an n x n `mat` with g mat g^T = sign mat for every
        generator g: the part anticommuting with the module for sign = -1,
        commuting with it for sign = +1.  Averages mat with sign g mat g^T
        one generator at a time."""
        out = np.asarray(mat, dtype=float)
        n, copies = self.n, self.copies
        c = n // copies
        combine = np.add if sign > 0 else np.subtract
        for cell in self.cells:
            # one expression: no named temporary outlives the step
            out = combine(out, ((cell @ out.reshape(copies, c, n)).reshape(n * copies, c)
                                @ cell.T).reshape(n, n)) / 2.0
        return (out - out.T) / 2.0

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
    """Check symmetry type, orthogonality and the anticommutation relations."""
    for m in rep.generators():
        if m.shape != (rep.n, rep.n):
            raise ValidationError("generator dimensions do not match the module")
    eye = np.eye(rep.n)
    entries = []
    sizes = []

    def probe(name, residual_mat):
        res = float(np.max(np.abs(residual_mat))) if residual_mat.size else 0.0
        if not res <= tol:  # a NaN residual violates the relation too
            entries.append((name, res))
        sizes.append(res)

    for i, m in enumerate(rep.E):
        probe(f"E{i + 1}^T = E{i + 1}", m.T - m)
        probe(f"E{i + 1} orthogonal", m.T @ m - eye)
    for k, m in enumerate(rep.F):
        probe(f"F{k + 1}^T = -F{k + 1}", m.T + m)
        probe(f"F{k + 1} orthogonal", m.T @ m - eye)
    for i in range(rep.r):
        probe(f"E{i + 1}^2 = I", rep.E[i] @ rep.E[i] - eye)
        for j in range(i + 1, rep.r):
            probe(
                f"E{i + 1}E{j + 1} + E{j + 1}E{i + 1} = 0",
                rep.E[i] @ rep.E[j] + rep.E[j] @ rep.E[i])
    for k in range(rep.s):
        probe(f"F{k + 1}^2 = -I", rep.F[k] @ rep.F[k] + eye)
        for l in range(k + 1, rep.s):
            probe(
                f"F{k + 1}F{l + 1} + F{l + 1}F{k + 1} = 0",
                rep.F[k] @ rep.F[l] + rep.F[l] @ rep.F[k])
    for i in range(rep.r):
        for k in range(rep.s):
            probe(
                f"E{i + 1}F{k + 1} + F{k + 1}E{i + 1} = 0",
                rep.E[i] @ rep.F[k] + rep.F[k] @ rep.E[i])
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


def cl11_tensor(rep: CliffordRep) -> CliffordRep:
    """Tensor with the rank-(1,1) block: the mod-8 periodicity carrier.

    Old generators go to X (x) omega_{1,1}; the new pair is I (x) K1 and
    I (x) L1, appended last.
    """
    e_new = tuple(np.kron(m, OMEGA_11) for m in rep.E) + (np.kron(np.eye(rep.n), K1),)
    f_new = tuple(np.kron(m, OMEGA_11) for m in rep.F) + (np.kron(np.eye(rep.n), L1),)
    return CliffordRep(rep.r + 1, rep.s + 1, 2 * rep.n, E=e_new, F=f_new)


def signature_swap(rep: CliffordRep) -> CliffordRep:
    """Turn a Cl_{r+1,s} module into a Cl_{s+1,r} module on the same space.

    New generators: E'_j = F_j E_{r+1} (j <= s), E'_{s+1} = E_{r+1},
    F'_k = E_k E_{r+1} (k <= r).  Preserves irreducibility and exactness.
    """
    if rep.r < 1:
        raise ValidationError("signature swap needs at least one symmetric generator")
    last_e = rep.E[-1]
    e_new = tuple(f @ last_e for f in rep.F) + (last_e,)
    f_new = tuple(e @ last_e for e in rep.E[:-1])
    return CliffordRep(rep.s + 1, rep.r - 1, rep.n, E=e_new, F=f_new)


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


def _tensor_cl20(src: CliffordRep) -> CliffordRep:
    """Cl_{r+2,s} module from a Cl_{s,r} module: tensor with the rank-(2,0)
    block (a plain 2x2 real matrix algebra, so irreducibility survives)."""
    s_new, r_new = src.r, src.s  # swapped roles
    eye = np.eye(src.n)
    e_new = tuple(np.kron(f, OMEGA_20) for f in src.F) \
        + (np.kron(eye, K1), np.kron(eye, K2))
    f_new = tuple(np.kron(e, OMEGA_20) for e in src.E)
    return CliffordRep(r_new + 2, s_new, 2 * src.n, E=e_new, F=f_new)


_LAM1 = np.kron(K1, L1)
_LAM2 = np.kron(K2, L1)
_OMEGA_02 = _LAM1 @ _LAM2  # = kron(L1, I2)


def _tensor_cl02(src: CliffordRep) -> CliffordRep:
    """Cl_{r,s+2} module from a Cl_{s,r} module: tensor with the
    quaternionic rank-(0,2) block on R^4.

    Only applied when the source algebra is of real type (pure-E source
    with s = 0, 1, 2 generators); otherwise the result is reducible.
    """
    s_new, r_new = src.r, src.s
    eye = np.eye(src.n)
    e_new = tuple(np.kron(f, _OMEGA_02) for f in src.F)
    f_new = tuple(np.kron(e, _OMEGA_02) for e in src.E) \
        + (np.kron(eye, _LAM1), np.kron(eye, _LAM2))
    return CliffordRep(r_new, s_new + 2, 4 * src.n, E=e_new, F=f_new)


def _mod8_tensor(src: CliffordRep) -> CliffordRep:
    """Cl_{0,s+8} module from a Cl_{0,s} module via the 16-dimensional
    irreducible of Cl_{0,8} (a full real matrix algebra)."""
    oct8 = _pure_skew_base(8)
    omega8 = volume_element(oct8)  # symmetric, squares to +I, odd wrt generators
    eye = np.eye(src.n)
    f_new = tuple(np.kron(f, omega8) for f in src.F) \
        + tuple(np.kron(eye, g) for g in oct8.F)
    return CliffordRep(0, src.s + 8, 16 * src.n, F=f_new)


def _irreducible_recursive(r: int, s: int) -> CliffordRep:
    if r >= 1 and s >= 1:
        return cl11_tensor(_irreducible_recursive(r - 1, s - 1))
    if s == 0:
        if r == 0:
            return CliffordRep(0, 0, 1)
        if r == 1:
            return CliffordRep(1, 0, 1, E=(np.array([[1.0]]),))
        if r == 2:
            return CliffordRep(2, 0, 2, E=(K1, K2))
        return _tensor_cl20(_irreducible_recursive(0, r - 2))
    # r == 0
    if s == 1:
        return CliffordRep(0, 1, 2, F=(L1,))
    if s <= 4:
        return _tensor_cl02(_irreducible_recursive(s - 2, 0))
    if s <= 8:
        return _pure_skew_base(s)
    return _mod8_tensor(_irreducible_recursive(0, s - 8))


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
    rep = _irreducible_recursive(r, s)
    if two:
        want = 1 if chirality is None else _parse_chirality(chirality)
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
    g @ basis is computed once and handed to `restrict_images`.
    """
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != rep.n:
        raise ValidationError(f"basis shape {basis.shape} does not match dimension {rep.n}")
    images = [g @ basis for g in rep.generators() + list(extra_F)]
    return restrict_images(rep.r, basis, images, tol)


def restrict_images(r: int, basis: np.ndarray, images, tol: float) -> CliffordRep:
    """The module on the span of `basis` whose generators act on it as
    `images` (g @ basis for each generator g, the r symmetric ones first).

    Each image is checked for invariance to `tol` and compressed to
    basis^T g basis; the restricted module is checked against the
    Clifford relations to `tol`.  A basis whose columns are not
    orthonormal, an image that leaves the span, or restricted generators
    that break the relations raise ValidationError with the residual.
    """
    k = basis.shape[1]
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
