"""Optimizer tests: pinned optima, lattice machinery, search properties."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from statebc import (
    ChannelSpec,
    FiniteFieldSpec,
    blackwell_channel,
    case_spanning_lambdas,
    finite_field_channel,
    regions,
    simplexopt,
)
from statebc.channel import component_entropies, stacked_indicator
from statebc.infotheory import entropy
from statebc.regions import primed_regions
from statebc.simplexopt import default_grid, iter_lattice, lattice_size, maximize_joint, maximize_simplex


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
    """Reference enumeration: bar positions among m + d - 1 slots, by
    itertools.combinations."""
    slots = m + d - 1
    bars = itertools.chain.from_iterable(itertools.combinations(range(slots), d - 1))
    cuts = np.fromiter(bars, dtype=np.int64).reshape(math.comb(slots, d - 1), d - 1)
    cuts = np.column_stack((np.full(len(cuts), -1), cuts, np.full(len(cuts), slots)))
    return (np.diff(cuts, axis=1) - 1).astype(np.int32)


def test_lattice_matches_stars_and_bars():
    # Bars (m >= d - 1) and stars (m < d - 1), up to a 1.5M-row lattice.
    cases = [(m, d) for m in range(9) for d in range(1, 9)] + [(6, 12), (4, 30), (12, 9), (1750, 3)]
    for m, d in cases:
        blocks = list(iter_lattice(m, d))
        assert all(b.dtype == np.int32 for b in blocks)
        np.testing.assert_array_equal(np.vstack(blocks), stars_and_bars(m, d))


def compositions(m, d, descending=False):
    """Reference: the compositions of m into d parts, lazily, in ascending
    (or descending) lexicographic order."""
    if d == 1:
        yield (m,)
        return
    for k in range(m, -1, -1) if descending else range(m + 1):
        for rest in compositions(m - k, d - 1, descending):
            yield (k, *rest)


@pytest.mark.parametrize("m, d", [(4, 72), (4, 90)])
def test_large_lattice_first_and_last_blocks(m, d):
    # The n = 8 and n = 9 joint lattices (u = n + 1), never built whole.
    cap = simplexopt._BLOCK_BYTES // (4 * d)
    size = lattice_size(m, d)
    first = last = None
    for b, block in enumerate(iter_lattice(m, d)):
        first = block if first is None else first
        last = block
    assert b == math.ceil(size / cap) - 1 and len(last) == size - b * cap
    np.testing.assert_array_equal(first, list(itertools.islice(compositions(m, d), cap)))
    np.testing.assert_array_equal(last, list(itertools.islice(compositions(m, d, True), len(last)))[::-1])


def test_lattice_too_large_to_rank_fails_first():
    # C(199, 99) ~ 4.5e58 ranks: no table or block is built before the error.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="lattice_size"):
            next(iter_lattice(100, 100))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 1024


def stream_small(monkeypatch, cap_bytes):
    """Stream every lattice with a tiny block cap."""
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
    # (4, 50) is unranked from its 4 star positions among 53 slots.
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


def test_lattice_blocks_hold_the_cap_rows(monkeypatch):
    # Block b holds ranks b * cap to (b + 1) * cap - 1; only the last is
    # shorter. (1750, 3) was 73 blocks of whole first-coordinate slices.
    def sizes(m, d):
        cap, size = max(1, simplexopt._BLOCK_BYTES // (4 * d)), lattice_size(m, d)
        return [cap] * (size // cap) + [size % cap] * (size % cap > 0)

    assert sizes(1750, 3) == [21845] * 70 + [4726]
    cases = {
        simplexopt._BLOCK_BYTES: [(1750, 3), (4, 50), (12, 9), (0, 4), (5, 1)],
        1024: [(8, 4), (6, 12), (3, 20), (0, 4)],
        48: [(9, 3), (4, 8), (1, 12)],
    }
    for cap_bytes, lattices in cases.items():
        monkeypatch.setattr(simplexopt, "_BLOCK_BYTES", cap_bytes)
        for m, d in lattices:
            assert [b.shape[0] for b in iter_lattice(m, d)] == sizes(m, d)


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

    res = maximize_simplex(obj, 4)
    for block in iter_lattice(12, 4):
        vals = obj(block.astype(float) / 12)
        assert res.value >= vals.max() - 1e-12


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

    plain = maximize_simplex(obj, 3)
    seeded = maximize_simplex(obj, 3, extra_starts=[target])
    assert seeded.value >= plain.value
    assert seeded.value == pytest.approx(0.0, abs=1e-9)


def _nan_near_vertex(p):
    p = np.asarray(p, dtype=float)
    return np.where(p[..., 0] > 0.9, np.nan, entropy(p))


def _nan_between_lattice_points(p):
    # NaN only where p_0 is off the default 48-lattice, so the lattice scan
    # sees none and only the ascent's line searches meet it.
    p = np.asarray(p, dtype=float)
    off = np.abs(48.0 * p[..., 0] - np.round(48.0 * p[..., 0])) > 0.25
    return np.where(off, np.nan, entropy(p))


def test_nan_objective_reports_point():
    for obj in (_nan_near_vertex, _nan_between_lattice_points):
        with pytest.raises(ValueError, match="NaN at point"):
            maximize_simplex(obj, 3)


def test_exhausted_ascent_budget_names_the_start(monkeypatch):
    monkeypatch.setattr(simplexopt, "_ASCENT_BUDGET", 1)
    with pytest.raises(RuntimeError, match=r"ascent from \[.*\] still moving after 1 iterations"):
        maximize_simplex(entropy, 3)


def test_invalid_dims_rejected():
    with pytest.raises(ValueError):
        maximize_simplex(entropy, 0)
    with pytest.raises(ValueError):
        maximize_joint(lambda j: 0.0, (0, 2))


def test_default_grid_shrinks_with_dimension():
    assert default_grid(3) == 48
    assert default_grid(6) == 24
    sizes = [lattice_size(default_grid(d), d) for d in range(2, 22)]
    assert max(sizes) < 300_000


def counted(obj, dim):
    """obj, over the dim-simplex, as an objective that counts its
    evaluations: on one-row joints, as maximize_simplex searches it."""
    return simplexopt._Counted([lambda P: obj(P[..., 0, :])], (1, dim))


def pair_deltas(dim):
    """Every ordered pair (i, j), i != j, as index arrays and as the dense
    table of moves e_j - e_i."""
    i_idx, j_idx = np.nonzero(~np.eye(dim, dtype=bool))
    delta = np.zeros((i_idx.size, dim))
    delta[np.arange(i_idx.size), i_idx] -= 1.0
    delta[np.arange(i_idx.size), j_idx] += 1.0
    return i_idx, j_idx, delta


def line_probe(f, base, delta):
    """f at base + t*delta, the steps t of both probe halves in one call."""
    base2, delta2 = np.concatenate((base, base)), np.concatenate((delta, delta))
    return lambda t: f(np.maximum(base2 + t[:, None] * delta2, 0.0))


def _full_pair_polish_per_row(f, S, V, rows, i_idx, delta, step_tolerance, iters):
    """Reference: the full-pair polish searched one stalled row at a time."""
    rescued = np.zeros(len(rows), dtype=bool)
    for pos, s in enumerate(rows):
        hi = S[s][i_idx]
        live = hi > 0.0
        if not live.any():
            continue
        n_live = int(live.sum())
        base = np.broadcast_to(S[s], (n_live, S.shape[1]))
        t_g, v_g = simplexopt._golden_polish(line_probe(f, base, delta[live]), hi[live], iters)
        b = int(np.argmax(v_g))
        if v_g[b] > V[s] + step_tolerance:
            S[s] = np.maximum(S[s] + t_g[b] * delta[live][b], 0.0)
            V[s] = v_g[b]
            rescued[pos] = True
    return rescued


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
    i_idx, j_idx, delta = pair_deltas(dim)
    S_ref, V_ref = S.copy(), V.copy()
    f_got, f_want = counted(obj, dim), counted(obj, dim)
    own = np.zeros(len(S), dtype=int)
    got = simplexopt._full_pair_polish(f_got, own, S, V, rows, i_idx, j_idx, 1e-9, 12)
    want = _full_pair_polish_per_row(f_want, S_ref, V_ref, rows, i_idx, delta, 1e-9, 12)
    assert np.array_equal(got, want) and np.array_equal(f_got.evals, f_want.evals)
    assert np.array_equal(S, S_ref) and np.array_equal(V, V_ref)
    if n_rows > 1:
        assert want.any() and not want.all()


def test_full_pair_polish_without_live_pairs_is_a_no_op():
    S = np.zeros((2, 3))
    V = np.zeros(2)
    i_idx, j_idx, _ = pair_deltas(3)
    f = counted(entropy, 3)
    rescued = simplexopt._full_pair_polish(f, np.zeros(2, dtype=int), S, V, np.array([0, 1]), i_idx, j_idx, 1e-9, 12)
    assert not rescued.any() and f.evals[0] == 0


@pytest.mark.parametrize("spec", _POLISH_SPECS, ids=("blackwell", "out3"))
def test_golden_polish_stacked_matches_row_by_row(spec):
    # Rows stacked in one search give each row's own search, values and
    # evaluation count.
    rng = np.random.default_rng(9)
    dim = spec.input_size
    obj = _r3_objective(spec, 0.85)
    i_idx, _, delta = pair_deltas(dim)
    pick = rng.integers(0, i_idx.size, 9)
    base = rng.dirichlet(np.ones(dim), size=9)
    hi = base[np.arange(9), i_idx[pick]]
    f = counted(obj, dim)
    t, v = simplexopt._golden_polish(line_probe(f, base, delta[pick]), hi)
    for r in range(9):
        f_r = counted(obj, dim)
        t_r, v_r = simplexopt._golden_polish(line_probe(f_r, base[r : r + 1], delta[pick[r : r + 1]]), hi[r : r + 1])
        assert t_r[0] == t[r] and v_r[0] == v[r]
        assert f_r.evals[0] * 9 == f.evals[0]


@pytest.mark.parametrize("dim", [2, 5, 12])
def test_move_equals_the_dense_step(dim):
    # Index-pair moves against np.maximum(S + t * (e_j - e_i), 0), byte for
    # byte: random states, states on faces, and t up to all of the mass
    # at i (which must leave exactly 0.0 there).
    rng = np.random.default_rng(83 + dim)
    i_idx, j_idx, delta = pair_deltas(dim)
    S = rng.dirichlet(np.ones(dim), size=3 * i_idx.size)
    S[i_idx.size :][rng.random((2 * i_idx.size, dim)) < 0.4] = 0.0  # on faces
    pair = np.tile(np.arange(i_idx.size), 3)
    hi = S[np.arange(len(S)), i_idx[pair]]
    t = np.where(np.arange(len(S)) % 2 == 0, hi, rng.uniform(0.0, 1.0, len(S)) * hi)
    got = simplexopt._move(S, t, i_idx[pair], j_idx[pair])
    want = np.maximum(S + t[:, None] * delta[pair], 0.0)
    assert got.tobytes() == want.tobytes()
    assert (got[np.arange(len(S)), i_idx[pair]][::2] == 0.0).all()


def test_ascent_step_holds_no_dense_move_table():
    # One pair-polish step on a (u, x) = (10, 9) joint, move table
    # included: a dense table of every pair's move would take
    # 8010 * 90 * 8 bytes = 5.8 MB alone.
    f = simplexopt._Counted([lambda P: np.zeros(P.shape[:-2])], (10, 9))
    start = np.full((1, 90), 1.0 / 90)
    tracemalloc.start()
    try:
        # Nothing gains on a constant objective: one step, then it stops.
        S, V = simplexopt._ascend(f, np.zeros(1, dtype=int), start, simplexopt._STEP_TOLERANCE, simplexopt._GOLDEN_ITERS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(S, start) and f.evals[0] == 1 + 2 * 8010 * (simplexopt._GOLDEN_ITERS + 1)
    assert peak <= 2 * 1024 * 1024


# Directions in each inner case's segment of weights; the clamped R1 and R2
# rows do not depend on the weight.
_CASE_DIRECTIONS = {
    "R1": lambda lo, hi: [(1.0, w) for w in np.linspace(0.0, lo, 9)],
    "R3": lambda lo, hi: [(1.0, w) for w in np.linspace(lo, 1.0, 9)],
    "R4": lambda lo, hi: [(1.0, w) for w in np.linspace(1.0, hi, 9)],
    "R4-scaled": lambda lo, hi: [(w, 1.0) for w in np.linspace(1.0 / hi, 1.0, 9)],
    "R2": lambda lo, hi: [(w, 1.0) for w in np.linspace(0.0, 1.0 / hi, 9)],
}
_BATCH_SPECS = {
    "blackwell": blackwell_channel(0.7, 0.3),
    "gf2": finite_field_channel(FiniteFieldSpec(2, ((1, 1), (1, 0))), 0.7, 0.4),
    "random5": ChannelSpec(5, (1, 3, 0, 3, 2), (0, 2, 2, 1, 3), 0.65, 0.25),
}


def support_rows(spec, directions):
    """The clamped coefficient row of each direction."""
    return np.array([regions._coefficient_row(spec, *regions._support_row(spec, a, b)[:3]) for a, b in directions])


def case_rows(spec, case):
    return support_rows(spec, _CASE_DIRECTIONS[case](*regions.thresholds(spec)))


def solve(spec, rows):
    return simplexopt.maximize_pushforward_entropies(*stacked_indicator(spec), rows)


def assert_same_result(got, want):
    assert got.argmax.tobytes() == want.argmax.tobytes()
    assert got.value == want.value
    assert got.evaluations == want.evaluations


@pytest.mark.parametrize("case", list(_CASE_DIRECTIONS))
@pytest.mark.parametrize("name", list(_BATCH_SPECS))
def test_weight_batch_matches_one_weight_runs(name, case):
    # Each row of a batch gets the result of its one-row batch: argmax
    # bytes, value and evaluations.
    spec = _BATCH_SPECS[name]
    rows = case_rows(spec, case)
    batch = solve(spec, rows)
    assert len(batch) == len(rows) == 9
    for row, got in zip(rows, batch):
        (alone,) = solve(spec, row[None])
        assert_same_result(got, alone)


def test_weight_batch_permuted_and_duplicated_weights():
    spec = _BATCH_SPECS["gf2"]
    rows = support_rows(spec, [(1.0, w) for w in (0.9, 0.55, 1.0, 0.7, 0.55, 0.62, 1.0, 0.8)])
    base = solve(spec, rows)
    perm = np.random.default_rng(3).permutation(len(rows))
    for got, i in zip(solve(spec, rows[perm]), perm):
        assert_same_result(got, base[i])
    assert_same_result(base[1], base[4])
    assert_same_result(base[2], base[6])


def test_weight_batch_single_weight_and_unit_alphabet():
    spec = _BATCH_SPECS["random5"]
    rows = support_rows(spec, [(1.0, 1.7), (1.0, 1.2), (1.0, 2.5)])
    (got,) = solve(spec, rows[:1])
    assert_same_result(got, solve(spec, rows)[0])
    unit = ChannelSpec(1, (0,), (0,), 0.6, 0.3)
    rows = support_rows(unit, [(1.0, 0.2), (1.0, 0.9)])
    batch = solve(unit, rows)
    for row, got in zip(rows, batch):
        assert_same_result(got, solve(unit, row[None])[0])
        assert got.argmax.tolist() == [1.0] and got.value == 0.0
    assert solve(unit, np.zeros((0, 3))) == []


def test_pushforward_solver_rejects_negative_coefficients():
    spec = _BATCH_SPECS["blackwell"]
    with pytest.raises(ValueError, match="non-negative"):
        solve(spec, [[1.0, 0.5, -1e-11]])
    (got,) = solve(spec, [[1.0, 0.5, -1e-13]])  # rounding at lambda = lo
    assert got.value == solve(spec, [[1.0, 0.5, 0.0]])[0].value


def test_pushforward_solver_budget_names_the_row(monkeypatch):
    monkeypatch.setattr(simplexopt, "_BUDGET", 1)
    with pytest.raises(RuntimeError, match=r"\[\[0\.7, 0\.3, 0\.05\]\]"):
        solve(_BATCH_SPECS["blackwell"], [[0.7, 0.3, 0.05]])


_MIXES = [0.0] + [10.0**-k for k in range(3, 16)]


def reference_gap(spec, row, px):
    """Gallager's dual bound minus the objective at the law px, written out
    input by input: the bound is the least over eps of the largest
    sum_k c_k (-log2 q_k[f_k(x)]), q_k being the pushforward of px mixed with
    eps-uniform. Also returns the objective."""
    m = spec.output_size
    cells = (spec.f1, spec.f2, tuple(a * m + b for a, b in zip(spec.f1, spec.f2)))
    sizes = (m, m, m * m)
    laws = [np.bincount(cell, weights=px, minlength=size) for cell, size in zip(cells, sizes)]
    value = sum(c * entropy(law) for c, law in zip(row, laws))
    bound = math.inf
    for eps in _MIXES:
        scores = []
        for x in range(spec.input_size):
            score = 0.0
            for c, law, cell, size in zip(row, laws, cells, sizes):
                q = (1.0 - eps) * law[cell[x]] + eps / size
                if c > 0.0:
                    score += c * (-math.log2(q) if q > 0.0 else math.inf)
            scores.append(score)
        bound = min(bound, max(scores))
    return bound - value, value


# The paper's two worked channels, the benchmark's random n = 5 channel,
# and three channels on which Newton steps chosen by comparing values
# cycled in a prototype of the solver.
_CERTIFY_SPECS = {
    "blackwell": blackwell_channel(0.7, 0.3),
    "gf2": finite_field_channel(FiniteFieldSpec(2, ((1, 1), (1, 0))), 0.7, 0.4),
    "random5": ChannelSpec(5, (1, 2, 1, 1, 0), (2, 1, 1, 0, 2), 0.75, 0.4),
    "cycle7": ChannelSpec(7, (0, 0, 3, 1, 2, 2, 2), (0, 1, 0, 1, 2, 1, 3), 0.6, 0.45),
    "cycle9a": ChannelSpec(9, (4, 0, 0, 1, 3, 2, 4, 4, 2), (2, 2, 3, 2, 3, 4, 3, 1, 2), 0.42018453469313044, 0.0009197891108657652),
    "cycle9b": ChannelSpec(9, (1, 4, 4, 3, 1, 1, 4, 1, 2), (3, 1, 1, 3, 0, 3, 4, 3, 3), 0.640940141481311, 0.2218885591644547),
}


def solved_rows(spec, monkeypatch):
    """Every coefficient row solved, with its result, by region, regions4,
    support and verify at the CLI defaults."""
    seen = []

    def record(indicator, blocks, rows):
        results = simplexopt.maximize_pushforward_entropies(indicator, blocks, rows)
        seen.extend(zip(rows, results))
        return results

    monkeypatch.setattr(regions, "maximize_pushforward_entropies", record)
    regions.capacity_polygon(spec)
    regions.proposition_regions(spec)
    for n in (64, 32):
        regions.support_curve(spec, case_spanning_lambdas(spec, n))
    return seen


@pytest.mark.parametrize("name", list(_CERTIFY_SPECS))
def test_pushforward_solver_certifies_every_cli_row(name, monkeypatch):
    spec = _CERTIFY_SPECS[name]
    seen = solved_rows(spec, monkeypatch)
    assert len(seen) > 100
    for row, res in seen:
        gap, value = reference_gap(spec, row, res.argmax)
        assert gap <= simplexopt.GAP_TOLERANCE
        assert abs(res.value - value) <= 1e-12


@pytest.mark.parametrize("name", [k for k, spec in _CERTIFY_SPECS.items() if spec.input_size <= 7])
def test_pushforward_solver_beats_the_lattice(name, monkeypatch):
    # Every value is at least the exhaustive grid-24 lattice maximum of its
    # row, up to float rounding between tied lattice points.
    spec = _CERTIFY_SPECS[name]
    rows, results = zip(*solved_rows(spec, monkeypatch))
    rows = np.array(rows)
    best = np.full(len(rows), -np.inf)
    for block in iter_lattice(24, spec.input_size):
        F = component_entropies(spec, block.astype(float) / 24)
        best = np.maximum(best, simplexopt.combine(F, rows[:, None, :]).max(axis=1))
    assert (np.array([r.value for r in results]) >= best - 1e-12).all()


def test_combine_is_independent_of_the_batch():
    # The combined value of a row is the same alone, in a batch, and with
    # a broadcast coefficient row.
    rng = np.random.default_rng(8)
    F = tuple(rng.uniform(0.0, 3.0, (3, 40)))
    C = rng.uniform(-2.0, 2.0, (40, 3))
    batch = simplexopt.combine(F, C)
    for i in range(40):
        assert simplexopt.combine(tuple(f[i] for f in F), C[i]) == batch[i]
        assert simplexopt.combine(tuple(f[i : i + 1] for f in F), C[i])[0] == batch[i]
