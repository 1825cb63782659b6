"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from statebc import ChannelSpec, FiniteFieldSpec, blackwell_channel, component_entropies, finite_field_channel, thresholds
from statebc.regions import _coefficient_row, _support_row


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


def lemma_auxiliary(spec: ChannelSpec, lam: float) -> np.ndarray:
    """The deterministic auxiliary U at which the outer objective at weight
    lam attains the clamped inner row (the converse lemma), as each input's
    U label in 0..k-1: f1(X) for lam in (lo, 1], f2(X) for lam in (1, hi],
    the pair (f1, f2)(X) otherwise."""
    lo, hi = thresholds(spec)
    if lo < lam <= 1.0:
        values = spec.f1
    elif 1.0 < lam <= hi:
        values = spec.f2
    else:
        values = list(zip(spec.f1, spec.f2))
    labels = {v: k for k, v in enumerate(dict.fromkeys(values))}
    return np.array([labels[v] for v in values])


def inner_row_value(spec: ChannelSpec, lam: float, px) -> np.ndarray:
    """scale * (a', b') K F(px): the inner support's clamped row in direction
    (1, lam) at each input law of px, from the inner-side code alone."""
    table, a, b, scale = _support_row(spec, 1.0, lam)
    row = _coefficient_row(spec, table, a, b)
    return scale * (np.stack(component_entropies(spec, px), axis=-1) @ row)


def lemma_floor(spec: ChannelSpec, lam: float, grid: int) -> float:
    """The clamped inner row's maximum over the input laws with masses in
    multiples of 1/grid (enumerated here): the outer objective's maximum
    over the joint lattice of the same grid is at most this, and equal to it
    once u covers lemma_auxiliary's values."""
    counts = [c for c in itertools.product(range(grid + 1), repeat=spec.input_size) if sum(c) == grid]
    return float(inner_row_value(spec, lam, np.array(counts) / grid).max())


def random_pmf(rng: np.random.Generator, dim: int) -> np.ndarray:
    p = rng.dirichlet(np.ones(dim))
    return p / p.sum()


@pytest.fixture(scope="session")
def blackwell_07_03() -> ChannelSpec:
    return blackwell_channel(0.7, 0.3)


@pytest.fixture(scope="session")
def ff2_07_04() -> ChannelSpec:
    return finite_field_channel(FiniteFieldSpec(2, ((1, 1), (1, 0))), 0.7, 0.4)
