"""Optimizer tests: pinned optima, lattice machinery, search properties."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from statebc import (
    ChannelSpec,
    FiniteFieldSpec,
    OptConfig,
    blackwell_channel,
    case_spanning_lambdas,
    finite_field_channel,
    maximize_joint,
    maximize_simplex,
    regions,
    simplexopt,
)
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
        assert len(blocks) <= 2 * math.ceil(len(keys) / max(1, 48 // (4 * d)))


def test_split_lattice_blocks_fill_toward_the_cap():
    # (4, 50) splits slices over dozens of recursion levels; runs joined
    # across levels keep the blocks within twice the fewest the cap allows.
    cap_rows = simplexopt._BLOCK_BYTES // (4 * 50)
    blocks = list(iter_lattice(4, 50))
    total = lattice_size(4, 50)
    assert sum(b.shape[0] for b in blocks) == total
    assert all(b.shape[0] <= cap_rows and b.dtype == np.int32 for b in blocks)
    assert len(blocks) <= 2 * math.ceil(total / cap_rows)
    pts = np.vstack(blocks).astype(np.int64)
    assert (pts.sum(axis=1) == 4).all()
    step = np.diff(pts, axis=0)
    first = np.argmax(step != 0, axis=1)
    assert (step[np.arange(step.shape[0]), first] > 0).all()  # strictly ascending


def test_unsplit_lattice_keeps_one_run_per_block():
    # (1750, 3) never splits a slice: each block is the longest run of whole
    # first-coordinate slices that fits the cap, as before runs were joined.
    cap_rows = simplexopt._BLOCK_BYTES // (4 * 3)
    expected, run = [], 0
    for size in range(1751, 0, -1):  # slice k holds 1751 - k rows
        if run + size > cap_rows:
            expected.append(run)
            run = 0
        run += size
    expected.append(run)
    assert len(expected) == 73
    assert [b.shape[0] for b in iter_lattice(1750, 3)] == expected


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


def weighted(obj):
    """obj as a one-weight batch objective that counts its evaluations."""
    return simplexopt._Weighted(lambda P, w: obj(P), np.zeros(1))


def _full_pair_polish_per_row(f, S, V, rows, own, i_idx, delta, step_tolerance, iters):
    """Reference: the full-pair polish searched one stalled row at a time."""
    rescued = np.zeros(len(rows), dtype=bool)
    for pos, s in enumerate(rows):
        hi = S[s][i_idx]
        live = hi > 0.0
        if not live.any():
            continue
        n_live = int(live.sum())
        base = np.broadcast_to(S[s], (n_live, S.shape[1]))
        t_g, v_g = simplexopt._golden_polish(f, base, delta[live], hi[live], np.full(n_live, own[s]), iters)
        b = int(np.argmax(v_g))
        if v_g[b] > V[s] + step_tolerance:
            S[s] = np.maximum(S[s] + t_g[b] * delta[live][b], 0.0)
            V[s] = v_g[b]
            rescued[pos] = True
    return rescued


def _r3_weighted(spec):
    def obj(p, lam):
        h1, h2, hj = component_entropies(spec, p)
        return spec.p1 * h1 + spec.q1 * h2 + (lam * spec.q2 - spec.q1) * (hj - h1)

    return obj


def _r3_objective(spec, lam):
    return lambda p: _r3_weighted(spec)(p, lam)


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
    own = np.zeros(len(S), dtype=int)
    i_idx, delta = simplexopt._pair_deltas(dim)
    S_ref, V_ref = S.copy(), V.copy()
    f_got, f_want = weighted(obj), weighted(obj)
    got = simplexopt._full_pair_polish(f_got, S, V, rows, own, i_idx, delta, 1e-9, 12)
    want = _full_pair_polish_per_row(f_want, S_ref, V_ref, rows, own, i_idx, delta, 1e-9, 12)
    assert np.array_equal(got, want) and f_got.evals[0] == f_want.evals[0]
    assert np.array_equal(S, S_ref) and np.array_equal(V, V_ref)
    if n_rows > 1:
        assert want.any() and not want.all()


def test_full_pair_polish_without_live_pairs_is_a_no_op():
    S = np.zeros((2, 3))
    V = np.zeros(2)
    i_idx, delta = simplexopt._pair_deltas(3)
    f = weighted(entropy)
    rescued = simplexopt._full_pair_polish(f, S, V, np.array([0, 1]), np.zeros(2, dtype=int), i_idx, delta, 1e-9, 12)
    assert not rescued.any() and f.evals[0] == 0


@pytest.mark.parametrize("spec", _POLISH_SPECS, ids=("blackwell", "out3"))
def test_golden_polish_stacked_matches_row_by_row(spec):
    # Rows of three weights stacked in one search give each row's own
    # search, values and per-weight evaluation counts.
    rng = np.random.default_rng(9)
    dim = spec.input_size
    weights = np.array([0.6, 1.0, 0.85])
    own = np.arange(9) % 3
    i_idx, delta = simplexopt._pair_deltas(dim)
    pick = rng.integers(0, i_idx.size, 9)
    base = rng.dirichlet(np.ones(dim), size=9)
    hi = base[np.arange(9), i_idx[pick]]
    f = simplexopt._Weighted(_r3_weighted(spec), weights)
    t, v = simplexopt._golden_polish(f, base, delta[pick], hi, own)
    for r in range(9):
        f_r = weighted(_r3_objective(spec, weights[own[r]]))
        t_r, v_r = simplexopt._golden_polish(f_r, base[r : r + 1], delta[pick[r : r + 1]], hi[r : r + 1], own[:1] * 0)
        assert t_r[0] == t[r] and v_r[0] == v[r]
        assert f_r.evals[0] * 3 == f.evals[own[r]]


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
    f = weighted(obj)
    gain = simplexopt._pattern_step(f, S, V, rows, np.zeros(6, dtype=int), snap, 1e-9, 12)
    assert f.evals[0] > 0 and gain[1] == 0.0 and (gain > 0.0).sum() == 3
    assert np.array_equal(gain, V[rows] - V_before[rows])


# Each inner case's objective, taking the weight as an argument (the
# weight-free R1 and R2 objectives ignore it).
_CASE_OBJECTIVES = {
    "R1": lambda spec: (lambda p, w: regions._objective_r1(spec)(p)),
    "R3": regions._objective_r3,
    "R4": regions._objective_r4,
    "R4-scaled": regions._objective_r4_scaled,
    "R2": lambda spec: (lambda p, w: regions._objective_c2(spec)(p)),
}
_BATCH_SPECS = {
    "blackwell": blackwell_channel(0.7, 0.3),
    "gf2": finite_field_channel(FiniteFieldSpec(2, ((1, 1), (1, 0))), 0.7, 0.4),
    "random5": ChannelSpec(5, (1, 3, 0, 3, 2), (0, 2, 2, 1, 3), 0.65, 0.25),
}


def one_weight(objective, dim, w, cfg=None):
    """The plain one-weight run at weight w."""
    return maximize_simplex(lambda p: objective(p, w), dim, cfg)


def assert_same_result(got, want):
    assert got.argmax.tobytes() == want.argmax.tobytes()
    assert got.value == want.value
    assert got.evaluations == want.evaluations


@pytest.mark.parametrize("case", list(_CASE_OBJECTIVES))
@pytest.mark.parametrize("name", list(_BATCH_SPECS))
def test_weight_batch_matches_one_weight_runs(name, case):
    spec = _BATCH_SPECS[name]
    n = spec.input_size
    objective = _CASE_OBJECTIVES[case](spec)
    # Weights across all four cases, so every objective sees weights from
    # its own segment and beyond it.
    weights = np.array(case_spanning_lambdas(spec, 12)) if case != "R4-scaled" else np.linspace(0.0, 1.0, 9)
    assert weights.size >= 8
    batch = simplexopt.maximize_simplex_weights(objective, n, weights)
    assert len(batch) == weights.size
    for w, got in zip(weights, batch):
        assert_same_result(got, one_weight(objective, n, w))


def test_weight_batch_permuted_and_duplicated_weights():
    spec = _BATCH_SPECS["gf2"]
    objective = regions._objective_r3(spec)
    weights = np.array([0.9, 0.55, 1.0, 0.7, 0.55, 0.62, 1.0, 0.8])
    base = simplexopt.maximize_simplex_weights(objective, 4, weights)
    perm = np.random.default_rng(3).permutation(weights.size)
    for got, i in zip(simplexopt.maximize_simplex_weights(objective, 4, weights[perm]), perm):
        assert_same_result(got, base[i])
    assert_same_result(base[1], base[4])
    assert_same_result(base[2], base[6])


def test_weight_batch_single_weight_and_unit_alphabet():
    spec = _BATCH_SPECS["blackwell"]
    objective = regions._objective_r4(spec)
    (got,) = simplexopt.maximize_simplex_weights(objective, 3, [1.7])
    assert_same_result(got, one_weight(objective, 3, 1.7))
    unit = ChannelSpec(1, (0,), (0,), 0.6, 0.3)
    objective = regions._objective_r3(unit)
    batch = simplexopt.maximize_simplex_weights(objective, 1, [0.2, 0.9])
    for w, got in zip([0.2, 0.9], batch):
        assert_same_result(got, one_weight(objective, 1, w))
    assert simplexopt.maximize_simplex_weights(objective, 1, []) == []


def test_weight_batch_scans_in_groups(monkeypatch):
    # Weights scanned a few per objective call pick the same starts.
    spec = _BATCH_SPECS["blackwell"]
    objective = regions._objective_r3(spec)
    weights = np.linspace(0.45, 1.0, 7)
    whole = simplexopt.maximize_simplex_weights(objective, 3, weights)
    monkeypatch.setattr(simplexopt, "_SCAN_BYTES", 2 * 8 * lattice_size(default_grid(3), 3))
    for got, want in zip(simplexopt.maximize_simplex_weights(objective, 3, weights), whole):
        assert_same_result(got, want)
