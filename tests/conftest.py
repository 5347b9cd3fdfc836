"""Shared test configuration and helpers.

One Hypothesis profile is loaded for every test, so each property test
replays the same examples on every run; the `@settings` of a test set
only its number of examples.
"""
import numpy as np
from hypothesis import settings

from koflow.clifford import CliffordRep, irreducible_rep
from koflow.numerics import random_orthogonal

settings.register_profile("koflow", derandomize=True, database=None, deadline=None)
settings.load_profile("koflow")


def rotated_irrep(r, s, seed, chirality=None):
    """The canonical Cl_{r,s} irreducible in a seeded orthogonal frame
    (g -> Q g Q^T for every generator), which keeps its class."""
    rep = irreducible_rep(r, s, chirality)
    q = random_orthogonal(np.random.default_rng(seed), rep.n)
    return CliffordRep(r, s, rep.n, E=tuple(q @ g @ q.T for g in rep.E),
                       F=tuple(q @ g @ q.T for g in rep.F))
