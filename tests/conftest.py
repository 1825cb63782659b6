"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from statebc import ChannelSpec, FiniteFieldSpec, blackwell_channel, finite_field_channel


def random_spec(rng: np.random.Generator, sizes=(3, 4)) -> ChannelSpec:
    """A random channel with canonical state probabilities."""
    n = int(rng.choice(sizes))
    f1 = tuple(int(v) for v in rng.integers(0, n, n))
    f2 = tuple(int(v) for v in rng.integers(0, n, n))
    lo, hi = sorted(rng.uniform(0.0, 1.0, 2))
    return ChannelSpec(n, f1, f2, hi, lo)


def orbit_key(point, u, n):
    """A flat (u, n) joint's rows, sorted: the same for exactly the joints
    equal up to a permutation of U's rows."""
    return tuple(sorted(map(tuple, np.asarray(point).reshape(u, n).tolist())))


def random_pmf(rng: np.random.Generator, dim: int) -> np.ndarray:
    p = rng.dirichlet(np.ones(dim))
    return p / p.sum()


@pytest.fixture(scope="session")
def blackwell_07_03() -> ChannelSpec:
    return blackwell_channel(0.7, 0.3)


@pytest.fixture(scope="session")
def ff2_07_04() -> ChannelSpec:
    return finite_field_channel(FiniteFieldSpec(2, ((1, 1), (1, 0))), 0.7, 0.4)
