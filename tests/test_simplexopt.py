"""Optimizer tests: pinned optima, lattice machinery, search properties."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from statebc import ChannelSpec, OptConfig, maximize_joint, maximize_simplex, simplexopt
from statebc.channel import component_entropies
from statebc.infotheory import entropy
from statebc.regions import primed_regions
from statebc.simplexopt import default_grid, iter_lattice, lattice_size


def test_entropy_max_dim3_is_uniform():
    res = maximize_simplex(entropy, 3)
    assert res.value == pytest.approx(math.log2(3.0), abs=1e-9)
    np.testing.assert_allclose(res.argmax, np.full(3, 1.0 / 3.0), atol=1e-7)


def test_state_averaged_entropy_on_finite_field():
    # Weighted component entropies of the K=2 full-rank channel peak at the
    # uniform input with value p1 + (1 - p1) = 1 bit.
    from statebc import FiniteFieldSpec, finite_field_channel

    spec = finite_field_channel(FiniteFieldSpec(2, ((1, 1), (1, 0))), 0.7, 0.4)

    def obj(p):
        h1, h2, _ = component_entropies(spec, p)
        return spec.p1 * h1 + spec.q1 * h2

    res = maximize_simplex(obj, 4)
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_concave_minimization_hits_vertex():
    res = maximize_simplex(lambda p: -entropy(p), 2)
    assert res.value == pytest.approx(0.0, abs=1e-9)
    assert res.argmax.max() == pytest.approx(1.0, abs=1e-7)


def test_joint_entropy_max_is_uniform():
    res = maximize_joint(lambda j: entropy(j.reshape(j.shape[:-2] + (-1,))), (2, 2))
    assert res.value == pytest.approx(2.0, abs=1e-9)
    np.testing.assert_allclose(res.argmax, np.full((2, 2), 0.25), atol=1e-6)


def test_conditional_penalty_maximized_by_deterministic_u():
    # With both coefficients negative the conditional-entropy combination is
    # at most zero, attained when the first coordinate determines the second.
    spec = ChannelSpec(3, (0, 1, 1), (0, 0, 1), 0.7, 0.3)
    lam = 0.2  # below q1/q2, both signs negative
    c1 = lam * spec.p2 - spec.p1
    c2 = lam * spec.q2 - spec.q1
    e1 = np.eye(3)

    def obj(j):
        pu = j.sum(axis=-1)
        hu = entropy(pu)
        a1 = j @ e1
        h_x_u = entropy(a1.reshape(a1.shape[:-2] + (-1,))) - hu
        return (c1 + c2) * h_x_u

    res = maximize_joint(obj, (3, 3))
    assert res.value == pytest.approx(0.0, abs=1e-9)
    # the argmax makes X a function of U
    j = res.argmax
    assert entropy(j.reshape(-1)) - entropy(j.sum(axis=1)) <= 1e-6


def test_finer_grid_never_worse():
    def obj(j):
        return entropy(j.reshape(j.shape[:-2] + (-1,)))

    coarse = maximize_joint(obj, (2, 3), OptConfig(grid_denominator=6))
    fine = maximize_joint(obj, (2, 3), OptConfig(grid_denominator=12))
    assert fine.value >= coarse.value - 1e-12


def test_lattice_enumeration_counts_and_order():
    for m, d in [(4, 3), (6, 2), (5, 4)]:
        blocks = list(iter_lattice(m, d))
        pts = np.vstack(blocks)
        assert pts.shape == (lattice_size(m, d), d)
        assert (pts.sum(axis=1) == m).all()
        # ascending lexicographic, no duplicates
        keys = [tuple(row) for row in pts]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def stars_and_bars(m, d):
    """Reference enumeration: bar positions among m + d - 1 slots."""
    rows = []
    for bars in itertools.combinations(range(m + d - 1), d - 1):
        cuts = (-1, *bars, m + d - 1)
        rows.append([cuts[i + 1] - cuts[i] - 1 for i in range(d)])
    return np.array(rows, dtype=np.int32).reshape(-1, d)


def test_lattice_matches_stars_and_bars():
    for m in range(7):
        for d in range(1, 6):
            expected = stars_and_bars(m, d)
            np.testing.assert_array_equal(np.vstack(list(iter_lattice(m, d))), expected)
            (block,) = simplexopt._lattice_blocks(m, d, math.inf)
            assert block.dtype == np.int32
            np.testing.assert_array_equal(block, expected)


def stream_small(monkeypatch, cap_bytes):
    """Force every lattice through the streamed path with a tiny block cap."""
    monkeypatch.setattr(simplexopt, "_MEMO_POINT_LIMIT", 0)
    monkeypatch.setattr(simplexopt, "_BLOCK_BYTES", cap_bytes)


def test_lattice_chunking_matches_single_block(monkeypatch):
    whole = np.vstack(list(iter_lattice(8, 4)))
    stream_small(monkeypatch, 20 * 4 * 4)  # 20 rows of four int32 coordinates
    blocks = list(iter_lattice(8, 4))
    assert len(blocks) > 1
    np.testing.assert_array_equal(whole, np.vstack(blocks))


def test_streamed_blocks_within_cap_in_strict_order(monkeypatch):
    stream_small(monkeypatch, 48)
    for m, d in [(9, 3), (6, 5), (4, 8), (1, 12), (0, 4), (5, 1)]:
        blocks = list(iter_lattice(m, d))
        assert all(b.nbytes <= 48 or b.shape[0] == 1 for b in blocks)
        keys = [tuple(row) for row in np.vstack(blocks)]
        assert len(keys) == lattice_size(m, d)
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert all(sum(k) == m for k in keys)


def test_large_outer_lattice_first_block_within_cap():
    # n = 9 joint lattice (u = 10): 2.9M points, never built whole
    assert next(iter_lattice(4, 90)).nbytes <= simplexopt._BLOCK_BYTES


def test_primed_regions_independent_of_block_cap(monkeypatch, blackwell_07_03):
    def vertices():
        return [poly.vertices for poly in primed_regions(blackwell_07_03, px_grid=60)]

    whole = vertices()
    stream_small(monkeypatch, 1024)
    small = vertices()
    monkeypatch.setattr(simplexopt, "_BLOCK_BYTES", 96)
    assert small == vertices() == whole


def test_global_lattice_dominance():
    rng = np.random.default_rng(4)
    coeff = rng.uniform(-1.0, 1.0, 4)

    def obj(p):
        return entropy(p) + np.asarray(p, dtype=float) @ coeff

    cfg = OptConfig(grid_denominator=12)
    res = maximize_simplex(obj, 4, cfg)
    for block in iter_lattice(12, 4):
        vals = obj(block.astype(float) / 12)
        assert res.value >= vals.max() - 1e-12


def test_doubling_denominator_monotone():
    def obj(p):
        h1 = entropy(p)
        return h1 - 0.5 * entropy(p[..., :2] + p[..., 2:])

    for m in (6, 12, 24):
        lo = maximize_simplex(obj, 4, OptConfig(grid_denominator=m)).value
        hi = maximize_simplex(obj, 4, OptConfig(grid_denominator=2 * m)).value
        assert hi >= lo - 1e-12


def test_concave_closed_form_match():
    for dim in (2, 3, 4, 5):
        res = maximize_simplex(entropy, dim)
        assert res.value == pytest.approx(math.log2(dim), abs=1e-4)


def test_value_matches_argmax_reevaluation():
    res = maximize_simplex(entropy, 4)
    assert res.value == pytest.approx(float(entropy(res.argmax)), abs=1e-12)


def test_deterministic_repeatability():
    a = maximize_simplex(entropy, 5)
    b = maximize_simplex(entropy, 5)
    assert a.value == b.value
    np.testing.assert_array_equal(a.argmax, b.argmax)


def test_extra_starts_participate():
    # a spiked objective whose optimum hides off lattice: seeding finds it
    target = np.array([0.9, 0.05, 0.05])

    def obj(p):
        p = np.asarray(p, dtype=float)
        return -np.abs(p - target).sum(axis=-1)

    cfg = OptConfig(grid_denominator=4)
    plain = maximize_simplex(obj, 3, cfg)
    seeded = maximize_simplex(obj, 3, cfg, extra_starts=[target])
    assert seeded.value >= plain.value
    assert seeded.value == pytest.approx(0.0, abs=1e-9)


def test_nan_objective_reports_point():
    def obj(p):
        p = np.asarray(p, dtype=float)
        vals = entropy(p)
        return np.where(np.asarray(p)[..., 0] > 0.9, np.nan, vals)

    with pytest.raises(ValueError, match="NaN"):
        maximize_simplex(obj, 3)


def test_invalid_dims_rejected():
    with pytest.raises(ValueError):
        maximize_simplex(entropy, 0)
    with pytest.raises(ValueError):
        maximize_joint(lambda j: 0.0, (0, 2))


def test_optconfig_validation():
    with pytest.raises(ValueError):
        OptConfig(grid_denominator=1)
    with pytest.raises(ValueError):
        OptConfig(grid_denominator=8, refine_starts=0)
    with pytest.raises(ValueError):
        OptConfig(grid_denominator=8, step_tolerance=0.0)


def test_default_grid_shrinks_with_dimension():
    assert default_grid(3) == 48
    assert default_grid(6) == 24
    sizes = [lattice_size(default_grid(d), d) for d in range(2, 22)]
    assert max(sizes) < 300_000


def _full_pair_polish_per_row(objective, S, V, rows, i_idx, delta, step_tolerance, iters):
    """Reference: the full-pair polish searched one stalled row at a time."""
    evals = 0
    rescued = np.zeros(len(rows), dtype=bool)
    for pos, s in enumerate(rows):
        hi = S[s][i_idx]
        live = hi > 0.0
        if not live.any():
            continue
        base = np.broadcast_to(S[s], (int(live.sum()), S.shape[1]))
        t_g, v_g, e = simplexopt._golden_polish(objective, base, delta[live], hi[live], iters)
        evals += e
        b = int(np.argmax(v_g))
        if v_g[b] > V[s] + step_tolerance:
            S[s] = np.maximum(S[s] + t_g[b] * delta[live][b], 0.0)
            V[s] = v_g[b]
            rescued[pos] = True
    return rescued, evals


def _r3_objective(spec, lam):
    def obj(p):
        h1, h2, hj = component_entropies(spec, p)
        return spec.p1 * h1 + spec.q1 * h2 + (lam * spec.q2 - spec.q1) * (hj - h1)

    return obj


_POLISH_SPECS = (
    ChannelSpec(3, (0, 1, 1), (1, 0, 1), 0.7, 0.3),
    ChannelSpec(5, (0, 0, 0, 1, 2), (2, 1, 0, 0, 0), 0.6, 0.2),
)


@pytest.mark.parametrize("spec", _POLISH_SPECS, ids=("blackwell", "out3"))
@pytest.mark.parametrize("n_rows", [1, 6])
def test_full_pair_polish_matches_per_row_search(spec, n_rows):
    rng = np.random.default_rng(5 + n_rows)
    dim = spec.input_size
    obj = _r3_objective(spec, 0.8)
    S = rng.dirichlet(np.ones(dim), size=8)
    S[1, :2] = 0.0  # a state on a face of the simplex
    S[1] /= S[1].sum()
    S[2] = 0.0  # no live pair at all
    S[3] = maximize_simplex(obj, dim).argmax  # nothing left to rescue
    V = np.asarray(obj(S), dtype=float)
    rows = np.array([6, 1, 2, 3, 0, 5])[:n_rows] if n_rows > 1 else np.array([4])
    i_idx, delta = simplexopt._pair_deltas(dim)
    S_ref, V_ref = S.copy(), V.copy()
    got = simplexopt._full_pair_polish(obj, S, V, rows, i_idx, delta, 1e-9, 12)
    want = _full_pair_polish_per_row(obj, S_ref, V_ref, rows, i_idx, delta, 1e-9, 12)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    assert np.array_equal(S, S_ref) and np.array_equal(V, V_ref)
    if n_rows > 1:
        assert want[0].any() and not want[0].all()


def test_full_pair_polish_without_live_pairs_is_a_no_op():
    S = np.zeros((2, 3))
    V = np.zeros(2)
    i_idx, delta = simplexopt._pair_deltas(3)
    rescued, evals = simplexopt._full_pair_polish(entropy, S, V, np.array([0, 1]), i_idx, delta, 1e-9, 12)
    assert not rescued.any() and evals == 0


@pytest.mark.parametrize("spec", _POLISH_SPECS, ids=("blackwell", "out3"))
def test_golden_polish_stacked_matches_row_by_row(spec):
    rng = np.random.default_rng(9)
    dim = spec.input_size
    obj = _r3_objective(spec, 1.0)
    i_idx, delta = simplexopt._pair_deltas(dim)
    pick = rng.integers(0, i_idx.size, 9)
    base = rng.dirichlet(np.ones(dim), size=9)
    hi = base[np.arange(9), i_idx[pick]]
    t, v, evals = simplexopt._golden_polish(obj, base, delta[pick], hi)
    for r in range(9):
        t_r, v_r, e_r = simplexopt._golden_polish(obj, base[r : r + 1], delta[pick[r : r + 1]], hi[r : r + 1])
        assert t_r[0] == t[r] and v_r[0] == v[r]
        assert e_r * 9 == evals


def test_pattern_step_gain_lines_up_with_rows():
    # gain[i] belongs to rows[i], including for unsorted rows and rows
    # without a live direction.
    rng = np.random.default_rng(2)
    spec = _POLISH_SPECS[1]
    obj = _r3_objective(spec, 0.8)
    S = rng.dirichlet(np.ones(5), size=6)
    # The accumulated direction S - snap points toward the maximizer.
    snap = S - 0.1 * (maximize_simplex(obj, 5).argmax - S)
    snap[3] = S[3]
    V = np.asarray(obj(S), dtype=float)
    V_before = V.copy()
    rows = np.array([5, 3, 0, 2])
    gain, evals = simplexopt._pattern_step(obj, S, V, rows, snap, 1e-9, 12)
    assert evals > 0 and gain[1] == 0.0 and (gain > 0.0).sum() == 3
    assert np.array_equal(gain, V[rows] - V_before[rows])
