"""A Pfaffian oracle for the Kitaev flux insertion at lattice scale.

The oracle is written apart from the flow: it imports nothing from
`koflow.flow`, `koflow.pairs` or `koflow.abs_index`.  It reads only the
closed-form samples of `kitaev_path` and forms the k x k Schur complements
M(0) and M(1) of the bordered route itself, with its own shift and
pairing, by one dense solve.  The Z2 flow is 1 exactly when the sign of
Pf T flips along the path (sign det P for an even ring, whose sample is
the grading-odd form of its coefficient P), and

    Pf T = +-Pf R Pf C Pf M,  det P = det R det C det M,

with R fixed and C(t) = T_WW(t) - lam J invertible at every t, so the
sign of Pf M (det M) flips with it.
"""
import numpy as np
import pytest

from koflow.cli import main
from koflow.clifford import K1, L1
from koflow.models import kitaev_path

from conftest import pf_sign

# A shift and pairings other than the route's (3 times the bound, J = -L1
# and kron(K2, L1)): any lam above the seam's norm 1 and any J that leaves
# R invertible give the same flip.
LAM = 4.0
EVEN_J = K1
ODD_J = np.kron(L1, K1)


def schur_endpoints(n_ring):
    """M(0) and M(1) of the ring, and the sign function that reads them:
    the sign of det on the 2 x 2 seam block of the even ring's coefficient,
    of the Pfaffian on the 4 Majorana coordinates of sites 0 and 1 of the
    odd ring's sample."""
    path = kitaev_path(n_ring)
    even = n_ring % 2 == 0
    k, j, sign = (2, EVEN_J, lambda m: int(np.sign(np.linalg.det(m)))) if even \
        else (4, ODD_J, pf_sign)
    ends = [np.asarray(path.fn(t), dtype=float) for t in (0.0, 1.0)]
    off = ends[0].copy()
    off[:k, :k] = 0.0
    moved = ends[1] - ends[0]
    assert not np.any(moved[k:]) and not np.any(moved[:, k:])  # T moves on W alone
    fixed = off.copy()
    fixed[:k, :k] = LAM * j
    eye = np.eye(fixed.shape[0])[:, :k]
    solved = np.linalg.solve(fixed, eye)  # R^-1 U
    assert np.allclose(fixed @ solved, eye, rtol=0.0, atol=1e-12)
    outs = [np.linalg.inv(end[:k, :k] - LAM * j) + solved[:k] for end in ends]
    return ends, outs, sign


def printed_value(capsys, n_ring):
    assert main(["kitaev", "--N", str(n_ring)]) == 0
    out = capsys.readouterr().out
    assert out.startswith('{"degree": 2, "group": "Z2", "value": ')
    return int(out.split('"value": ')[1].rstrip("}\n"))


@pytest.mark.parametrize("n_ring", [255, 256, 1024, 1025])
def test_kitaev_schur_sign_flips_with_the_printed_value(capsys, n_ring):
    ends, outs, sign = schur_endpoints(n_ring)
    signs = [sign(m) for m in outs]
    assert 0 not in signs
    value = printed_value(capsys, n_ring)
    assert value == int(signs[0] != signs[1]) == 1
    if n_ring < 1025:  # the full matrices' signs flip alike
        full = [pf_sign(end) if n_ring % 2 else int(np.linalg.slogdet(end)[0])
                for end in ends]
        assert 0 not in full and full[0] != full[1]
