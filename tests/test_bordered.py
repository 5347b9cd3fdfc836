"""The bordered k x k route of `flow.bordered_flow`: the class of the full
walk, the refusals of its declaration and samples, its memory, and the
CLI switch of `kitaev`."""
import dataclasses
import tracemalloc

import numpy as np
import pytest

from koflow import cli as cli_mod
from koflow import clifford as cl
from koflow import models
from koflow.cli import main
from koflow.errors import ValidationError
from koflow.flow import BORDER_SHIFT, MovingBlock, SkewPath, bordered_flow, spectral_flow
from koflow.models import kitaev_path

Z2_ONE = '{"degree": 2, "group": "Z2", "value": 1}\n'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("n_ring", list(range(3, 65)) + [255, 256])
def test_bordered_flow_equals_the_walk(n_ring):
    path = kitaev_path(n_ring)
    assert path.moving.indices.size == (2 if n_ring % 2 == 0 else 4)
    for seed in (0, 3):
        value = bordered_flow(path, seed=seed)
        assert value == spectral_flow(path, seed=seed), seed
        assert (value.degree, value.value) == (2, 1)


def _count_linalg(monkeypatch):
    """Record the shape and a copy of every matrix handed to np.linalg.inv
    and np.linalg.svd, and whether each SVD asked for vectors."""
    calls = {"inv": [], "svd": []}
    inv, svd = np.linalg.inv, np.linalg.svd

    def counted_inv(mat, *args, **kwargs):
        calls["inv"].append(np.array(mat))
        return inv(mat, *args, **kwargs)

    def counted_svd(mat, *args, **kwargs):
        calls["svd"].append((np.shape(mat)[-2:], kwargs.get("compute_uv", True)))
        return svd(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    return calls


def test_kitaev_cli_takes_the_bordered_route(capsys, monkeypatch):
    # one LU inverse of the whole 256 x 256 coefficient, for R, and no SVD
    # of that size; every node of the walk decomposes a 2 x 2 coefficient
    calls = _count_linalg(monkeypatch)
    for argv in (["kitaev", "--N", "256"], ["sf", "--model", "kitaev", "--N", "256"]):
        calls["inv"].clear()
        calls["svd"].clear()
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert Z2_ONE.strip() in out
        inverted = [mat.shape for mat in calls["inv"]]
        assert inverted.count((256, 256)) == 1, inverted
        assert all(shape in ((256, 256), (2, 2)) for shape in inverted), inverted
        shapes = [shape for shape, _ in calls["svd"]]
        assert shapes and all(shape in ((2, 2), (1, 1)) for shape in shapes), shapes


def _broken_path(n_ring, change):
    """kitaev_path(n_ring) with `change(path)` applied to it: a dict of
    the SkewPath fields to replace."""
    path = kitaev_path(n_ring)
    return dataclasses.replace(path, **change(path))


def _bound(value):
    def change(path):
        block = path.moving
        return {"moving": MovingBlock(block.indices, block.J, value)}
    return change


def _moves_off_block(path):
    def fn(t):
        mat = np.array(path.fn(t))
        mat[-1, -2] += t  # the last two indices are off W at every N >= 3
        if path.reduction is None:
            mat[-2, -1] -= t
        return mat
    return {"fn": fn}


def _singular_complement(path):
    # pairings that leave a three-site chain in R: J = I on the split
    # coefficient's seam block, each site's own two Majoranas paired on
    # the dense one
    block = path.moving
    j = np.eye(2) if path.reduction is not None else np.kron(np.eye(2), cl.L1)
    return {"moving": MovingBlock(block.indices, j, block.bound)}


REFUSALS = {
    "bound-broken": (_bound(0.5), "breaks its moving block's bound 0.5"),
    "moves-off-block": (_moves_off_block, "at t=1.0 moves off its declared moving block"),
    "singular-complement": (_singular_complement, "the bordered complement R of kitaev "
                                                  "flux insertion, N="),
}


@pytest.mark.parametrize("n_ring", [8, 9])
@pytest.mark.parametrize("command", ["kitaev", "sf"])
@pytest.mark.parametrize("change,message", list(REFUSALS.values()), ids=list(REFUSALS))
def test_bordered_route_refusals_exit_2(capsys, monkeypatch, n_ring, command, change,
                                       message):
    monkeypatch.setattr(cli_mod, "kitaev_path", lambda n: _broken_path(n, change))
    argv = ["kitaev"] if command == "kitaev" else ["sf", "--model", "kitaev"]
    code, out, err = run_cli(capsys, *argv, "--N", str(n_ring))
    assert (code, out) == (2, "")
    assert err.startswith("validation error: ") and message in err, err
    if change is _singular_complement:
        assert "is not invertible (" in err


# the exact rule words every refusal of R, byte for byte
SINGULAR_COMPLEMENT = {
    8: "validation error: the bordered complement R of kitaev flux insertion, N=8 is not "
       "invertible (1 singular values in the zero cluster, smallest 2.679e-17, largest "
       "3.162e+00)\n",
    9: "validation error: the bordered complement R of kitaev flux insertion, N=9 is not "
       "invertible (2 singular values in the zero cluster, smallest 9.479e-18, largest "
       "3.162e+00)\n",
}


@pytest.mark.parametrize("n_ring", [8, 9])
@pytest.mark.parametrize("command", ["kitaev", "sf"])
def test_singular_complement_message_is_the_exact_rules(capsys, monkeypatch, n_ring,
                                                        command):
    # the LU of R fails, and one values-only SVD words the refusal
    monkeypatch.setattr(cli_mod, "kitaev_path",
                        lambda n: _broken_path(n, _singular_complement))
    calls = _count_linalg(monkeypatch)
    argv = ["kitaev"] if command == "kitaev" else ["sf", "--model", "kitaev"]
    code, out, err = run_cli(capsys, *argv, "--N", str(n_ring))
    assert (code, out, err) == (2, "", SINGULAR_COMPLEMENT[n_ring])
    assert [compute_uv for _, compute_uv in calls["svd"]] == [False]


def _with_fixed_block(path, scale):
    """A dense path T(t) (+) scale * L1, moving on the block of T."""
    n = path.context.n

    def fn(t):
        mat = np.zeros((n + 2, n + 2))
        mat[:n, :n] = path.fn(t)
        mat[n:, n:] = scale * cl.L1
        return mat

    return SkewPath(cl.CliffordRep(0, 0, n + 2), fn, label="ring (+) fixed block",
                    moving=path.moving)


@pytest.mark.parametrize("scale,svds", [(2e-6, 0), (1e-6, 1)])
def test_certificate_defers_to_the_exact_rule(monkeypatch, scale, svds):
    # sigma_max / sigma_min of R is 1.65e6 at 2e-6 and 3.3e6 at 1e-6, so
    # the exact rule passes at both; kappa_F reads 7.1e6 at 2e-6, where the
    # certificate decides, and 1.4e7 at 1e-6, where one values-only SVD of
    # R must
    path = _with_fixed_block(kitaev_path(33), scale)
    calls = _count_linalg(monkeypatch)
    value = bordered_flow(path)
    size = path.context.n
    assert [uv for shape, uv in calls["svd"] if shape == (size, size)] == [False] * svds
    monkeypatch.undo()
    assert value == spectral_flow(path)
    assert (value.degree, value.value) == (2, 1)


@pytest.mark.parametrize("n_ring,scale,message", [
    (8, 5e-13, None),
    (8, 1e-13, "(8 singular values in the zero cluster, smallest 3.028e-14, largest 3.303e-13)"),
    (9, 1e-13, "(18 singular values in the zero cluster, smallest 3.028e-14, largest 3.303e-13)"),
])
def test_tiny_scale_goes_to_the_exact_rule(monkeypatch, n_ring, scale, message):
    # kappa_F does not see a scale: ||R||_F / sqrt(n), below the rule's
    # absolute floor 1e-12 at both scales, sends the decision to the
    # singular values of R, whose largest, 3.3 times the scale, clears
    # that floor at 5e-13 and not at 1e-13
    path = kitaev_path(n_ring)
    block = path.moving
    tiny = dataclasses.replace(path, fn=lambda t: scale * np.asarray(path.fn(t)),
                               moving=MovingBlock(block.indices, block.J, scale * block.bound))
    size = np.shape(path.fn(0.0))[0]
    calls = _count_linalg(monkeypatch)
    if message is None:
        assert bordered_flow(tiny).value == 1
    else:
        with pytest.raises(ValidationError) as info:
            bordered_flow(tiny)
        assert str(info.value).endswith(f"is not invertible {message}")
    assert [uv for shape, uv in calls["svd"] if shape == (size, size)] == [False]


@pytest.mark.parametrize("n_ring", [8, 9])
@pytest.mark.parametrize("failure", ["raises", "not-finite"])
def test_failed_lu_of_an_invertible_complement(monkeypatch, n_ring, failure):
    # an LU that fails on an R the exact rule passes: the W block is read
    # off the pseudo-inverse, and the class is the walk's
    path = kitaev_path(n_ring)
    size = np.shape(path.fn(0.0))[0]
    inv = np.linalg.inv

    def failing(mat, *args, **kwargs):
        if np.shape(mat) != (size, size):
            return inv(mat, *args, **kwargs)
        if failure == "raises":
            raise np.linalg.LinAlgError("Singular matrix")
        return np.full((size, size), np.nan)

    monkeypatch.setattr(np.linalg, "inv", failing)
    value = bordered_flow(path)
    monkeypatch.undo()
    assert value == spectral_flow(path)
    assert (value.degree, value.value) == (2, 1)


def test_moving_block_declaration_is_checked():
    with pytest.raises(ValidationError, match="distinct nonnegative integers"):
        MovingBlock([0, 0], np.eye(2), 1.0)
    with pytest.raises(ValidationError, match="distinct nonnegative integers"):
        MovingBlock([0.0, 1.0], np.eye(2), 1.0)
    with pytest.raises(ValidationError, match="needs a 2 x 2 J"):
        MovingBlock([0, 1], np.eye(3), 1.0)
    with pytest.raises(ValidationError, match="must be orthogonal"):
        MovingBlock([0, 1], 2.0 * cl.L1, 1.0)
    for bound in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValidationError, match="bound must be positive"):
            MovingBlock([0, 1], cl.L1, bound)
    dense = kitaev_path(5)
    split = kitaev_path(6)
    with pytest.raises(ValidationError, match="must lie below 10"):
        dataclasses.replace(dense, moving=MovingBlock([0, 10], cl.L1, 1.0))
    with pytest.raises(ValidationError, match="must lie below 6"):
        dataclasses.replace(split, moving=MovingBlock([5, 6], cl.L1, 1.0))
    with pytest.raises(ValidationError, match="must be skew on a dense path"):
        dataclasses.replace(dense, moving=MovingBlock([0, 1], cl.K1, 1.0))
    # the graded dense form of an even ring, and any nonempty context
    with pytest.raises(ValidationError, match="empty context only"):
        SkewPath(split.context, lambda t: split.at(t), grading=split.grading,
                 moving=MovingBlock([0, 1], cl.L1, 1.0))
    module = cl.irreducible_rep(1, 0)
    with pytest.raises(ValidationError, match="empty context only"):
        SkewPath(module, lambda t: np.zeros((2, 2)), moving=MovingBlock([0, 1], cl.L1, 1.0))
    with pytest.raises(ValidationError, match="declares no moving block"):
        bordered_flow(dataclasses.replace(dense, moving=None))


def test_bordered_samples_are_taken_once_each():
    # the k x k walk samples the path once per node, and R once more
    path = kitaev_path(9)
    calls = []

    def fn(t):
        calls.append(t)
        return path.fn(t)

    assert bordered_flow(dataclasses.replace(path, fn=fn)).value == 1
    assert calls[0] == 0.0 and sorted(set(calls)) == sorted(calls[1:])


@pytest.mark.parametrize("n_ring", [8, 9])
@pytest.mark.parametrize("bound", [1.0, 2.5])
def test_bordered_shift_comes_from_the_bound(monkeypatch, n_ring, bound):
    # R is T(0) with its W block replaced by BORDER_SHIFT * bound * J, and
    # equal to T(0) off W: lambda is read off the declaration alone
    path = kitaev_path(n_ring)
    block = path.moving
    path = dataclasses.replace(path, moving=MovingBlock(block.indices, block.J, bound))
    calls = _count_linalg(monkeypatch)
    assert bordered_flow(path).value == 1
    size = np.shape(path.fn(0.0))[0]
    taken = [mat for mat in calls["inv"] if mat.shape == (size, size)]
    assert len(taken) == 1 and all(shape != (size, size) for shape, _ in calls["svd"])
    fixed, start = taken[0], np.array(path.fn(0.0))
    where = np.ix_(block.indices, block.indices)
    np.testing.assert_array_equal(fixed[where], BORDER_SHIFT * bound * block.J)
    fixed[where] = start[where]
    np.testing.assert_array_equal(fixed, start)


@pytest.mark.parametrize("n_ring", [255, 256, 1024])
def test_bordered_route_peak_within_the_kitaev_guard(monkeypatch, n_ring):
    # the bytes that kitaev_path's memory guard plans for the path and the
    # full walk also cover the bordered route, which holds R and its LU
    # inverse, then the W block of the inverse and one sample at a time:
    # 3.13 to 3.17 arrays of the sample's size measured at N = 255 to 1025
    planned = []
    monkeypatch.setattr(models, "check_memory", lambda what, nbytes: planned.append(nbytes))
    bordered_flow(kitaev_path(5))  # warms numpy's lazy imports before tracing
    planned.clear()
    tracemalloc.start()
    try:
        path = kitaev_path(n_ring)
        value = bordered_flow(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value.value == 1
    assert len(planned) == 1 and peak <= planned[0], (peak, planned)
    size = path.context.copies if path.reduction is not None else path.context.n
    assert peak <= 8 * 4 * size ** 2, peak / (8 * size ** 2)


@pytest.mark.parametrize("extra", [["--seed", "-2"], ["--tracks", "2", "--out", "absent/t.csv"]])
@pytest.mark.parametrize("argv", [["kitaev", "--N", "4"], ["sf", "--model", "kitaev"]])
def test_bad_request_exits_2_before_the_bordered_solve(tmp_path, capsys, monkeypatch,
                                                       argv, extra):
    def unreachable(*args, **kwargs):
        raise AssertionError("a solve started")

    monkeypatch.setattr(cli_mod, "bordered_flow", unreachable)
    extra = [str(tmp_path / arg) if arg.endswith(".csv") else arg for arg in extra]
    code, out, err = run_cli(capsys, *argv, *extra)
    assert (code, out) == (2, "")
    assert err.startswith("validation error: ")
