"""Entropy measure tests: pinned values and algebraic identities."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statebc import binary_entropy, entropy, report
from statebc.channel import induced_joint
from statebc.examples import blackwell_channel
from statebc.infotheory import MASS_EPS, xlogx


def test_entropy_fair_bit():
    assert entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)


def test_entropy_point_mass():
    assert entropy([1.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)


def test_entropy_quarter():
    # direct closed-form evaluation: -0.25 log2 0.25 - 0.75 log2 0.75
    expected = 0.25 * 2.0 - 0.75 * math.log2(0.75)
    assert entropy([0.25, 0.75]) == pytest.approx(expected, abs=1e-12)
    assert abs(expected - 0.811278124459) < 1e-9


def test_binary_entropy_values():
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-12)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    # H(2/3) = log2(3) - 2/3 in closed form
    assert binary_entropy(2.0 / 3.0) == pytest.approx(math.log2(3.0) - 2.0 / 3.0, abs=1e-12)


def test_binary_entropy_rejects_out_of_range():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


def test_report_independent_uniform():
    rep = report(np.full((2, 2), 0.25))
    assert rep.h_f1 == pytest.approx(1.0, abs=1e-12)
    assert rep.h_f2 == pytest.approx(1.0, abs=1e-12)
    assert rep.mi_f1_f2 == pytest.approx(0.0, abs=1e-12)


def test_report_diagonal():
    rep = report([[0.5, 0.0], [0.0, 0.5]])
    assert rep.h_f1 == pytest.approx(1.0, abs=1e-12)
    assert rep.h_f2 == pytest.approx(1.0, abs=1e-12)
    assert rep.mi_f1_f2 == pytest.approx(1.0, abs=1e-12)
    assert rep.h_f1_given_f2 == pytest.approx(0.0, abs=1e-12)
    assert rep.h_f2_given_f1 == pytest.approx(0.0, abs=1e-12)


def test_report_blackwell_conditional():
    # Oracle: enumerate the three input atoms by hand. Inputs 0, 1, 2 map to
    # output pairs (0,0), (1,0), (1,1), so given f1 = 1 (mass 0.7) the second
    # component splits 0.3/0.4.
    spec = blackwell_channel(0.7, 0.3)
    rep = report(induced_joint(spec, [0.3, 0.3, 0.4]))
    q = 0.3 / 0.7
    expected = 0.7 * (-q * math.log2(q) - (1 - q) * math.log2(1 - q))
    assert rep.h_f2_given_f1 == pytest.approx(expected, abs=1e-12)


def test_report_rejects_non_matrix():
    with pytest.raises(ValueError):
        report([0.5, 0.5])


@st.composite
def joints(draw, max_side=4):
    rows = draw(st.integers(2, max_side))
    cols = draw(st.integers(2, max_side))
    cells = draw(
        st.lists(st.floats(0.0, 1.0), min_size=rows * cols, max_size=rows * cols).filter(
            lambda v: sum(v) > 1e-3
        )
    )
    w = np.array(cells).reshape(rows, cols)
    return w / w.sum()


@given(joints())
@settings(max_examples=80, deadline=None)
def test_report_chain_rule(joint):
    rep = report(joint)
    assert rep.h_f1 + rep.h_f2_given_f1 == pytest.approx(rep.h_f2 + rep.h_f1_given_f2, abs=1e-9)
    assert rep.mi_f1_f2 >= -1e-12
    assert rep.mi_f1_f2 <= min(rep.h_f1, rep.h_f2) + 1e-9


@given(st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=8))
@settings(max_examples=80, deadline=None)
def test_entropy_permutation_invariant_and_uniform_max(weights):
    p = np.array(weights)
    p = p / p.sum()
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(p))
    assert entropy(p[perm]) == pytest.approx(entropy(p), abs=1e-10)
    assert entropy(p) <= math.log2(len(p)) + 1e-12


def test_entropy_uniform_attains_log_n():
    for n in range(2, 7):
        assert entropy(np.full(n, 1.0 / n)) == pytest.approx(math.log2(n), abs=1e-12)


@pytest.mark.parametrize(
    "p",
    [0.0, MASS_EPS, np.nextafter(MASS_EPS, 1.0), 0.3, 1.0, np.nan, -0.5],
    ids=("zero", "at_eps", "above_eps", "mid", "one", "nan", "negative"),
)
def test_xlogx_zero_dim_matches_formula(p):
    got = xlogx(np.float64(p))
    want = np.where(p > MASS_EPS, p * np.log2(max(p, MASS_EPS)), 0.0)
    assert isinstance(got, np.ndarray) and got.shape == ()
    assert got.tobytes() == want.tobytes()


def test_xlogx_array_matches_formula():
    p = np.array([[0.0, MASS_EPS, np.nextafter(MASS_EPS, 1.0)], [np.nan, 0.25, 1.0]])
    want = np.where(p > MASS_EPS, p * np.log2(np.maximum(p, MASS_EPS)), 0.0)
    got = xlogx(p)
    assert got.tobytes() == want.tobytes()
    assert got[0, 2] < 0.0 and got[1, 0] == 0.0


@pytest.mark.parametrize(
    "p",
    [np.array([[0.0, 0.5], [MASS_EPS, 1.0]]), np.array([0.5, np.nan]), np.array([0.25, 0.5, 1.0]), np.zeros(0), np.zeros((2, 0))],
    ids=("masked", "nan", "unmasked", "empty", "empty-2d"),
)
def test_xlogx_out_writes_the_same_bytes(p):
    # The masking pass runs only when some entry needs it, and a zero-size
    # array has no minimum to test.
    want = np.where(p > MASS_EPS, p * np.log2(np.maximum(p, MASS_EPS)), 0.0)
    out = np.full_like(p, 7.0)
    assert xlogx(p, out=out) is out
    assert out.tobytes() == xlogx(p).tobytes() == want.tobytes()
    assert xlogx(p).shape == p.shape
