"""Optimizer tests: pinned optima, lattice machinery, search properties."""

from __future__ import annotations

import collections
import itertools
import math
import tracemalloc
import warnings

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
from conftest import orbit_key


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


def searchsorted_unranker(m, d, cap_bytes):
    """iter_lattice's blocks as first written: the subset positions held
    row-major, every position found by its own searchsorted."""
    size = lattice_size(m, d)
    slots, stars = m + d - 1, m < d - 1
    k = m if stars else d - 1
    comb = {i: np.array([math.comb(c, i) for c in range(slots)], dtype=np.int64) for i in range(2, k + 1)}
    cap = max(1, cap_bytes // (d * 4))
    for start in range(0, size, cap):
        rank = np.arange(start, min(start + cap, size), dtype=np.int64)
        rank = rank if stars else size - 1 - rank
        cuts = np.empty((rank.size, k + 2), dtype=np.int32)
        cuts[:, 0], cuts[:, -1] = -1, slots
        for i in range(k, 1, -1):
            c = np.searchsorted(comb[i], rank, side="right") - 1
            rank -= comb[i][c]
            cuts[:, k + 1 - i] = slots - 1 - c
        if k:
            cuts[:, k] = slots - 1 - rank
        if stars:
            part = np.arange(rank.size)[:, None] * d + cuts[:, 1:-1] - np.arange(k)
            yield np.bincount(part.ravel(), minlength=rank.size * d).reshape(rank.size, d).astype(np.int32)
        else:
            yield cuts[:, 1:] - cuts[:, :-1] - 1


@pytest.mark.parametrize("cap_rows", [None, 1, 2, 7, 64])
def test_lattice_blocks_equal_the_searchsorted_unranker(cap_rows, monkeypatch):
    # Dims 1-4 by bars and higher ones by stars (m < d - 1). Caps of 1 to
    # 64 rows start and end blocks inside a run of the top bar position,
    # and a one-row block is a run of its own.
    cases = [(0, 1), (5, 1), (0, 2), (7, 2), (40, 2), (0, 3), (1, 3), (13, 3), (60, 3), (0, 4), (2, 4), (9, 4), (18, 4)]
    cases += [(1, 6), (3, 7), (2, 9), (4, 12), (3, 20)]
    if cap_rows is None:
        cases += [(1750, 3), (1998, 3), (48, 4), (60, 5), (12, 9), (4, 50)]
    for m, d in cases:
        cap_bytes = simplexopt._BLOCK_BYTES if cap_rows is None else cap_rows * 4 * d
        monkeypatch.setattr(simplexopt, "_BLOCK_BYTES", cap_bytes)
        pairs = itertools.zip_longest(iter_lattice(m, d), searchsorted_unranker(m, d, cap_bytes))
        for got, want in pairs:
            assert got is not None and want is not None, (m, d)
            assert got.dtype == want.dtype == np.int32 and got.shape == want.shape
            assert np.array_equal(got, want), (m, d)
            # Bars blocks are the transposed position-major differences.
            assert got.flags.f_contiguous or m < d - 1


@pytest.mark.parametrize("m, u, n", [(4, 5, 4), (6, 4, 3), (12, 2, 3), (3, 4, 5)])
def test_orbits_do_not_depend_on_the_block_layout(m, u, n, monkeypatch):
    # _iter_orbits gives the same bytes from Fortran-ordered lattice blocks
    # as from C-ordered copies of them.
    def run():
        blocks = list(simplexopt._iter_orbits(m, u, n))
        return [(reps.dtype, reps.shape, reps.tobytes(), sizes.tobytes()) for reps, sizes in blocks]

    want = run()
    lattice = simplexopt.iter_lattice
    monkeypatch.setattr(simplexopt, "iter_lattice", lambda *a: map(np.ascontiguousarray, lattice(*a)))
    assert run() == want


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


@pytest.mark.parametrize("m, u, n", [(4, 5, 4), (6, 4, 3), (3, 5, 2), (5, 1, 4), (4, 3, 4), (6, 2, 1), (1, 3, 2)])
def test_orbits_cover_the_lattice_once(m, u, n, monkeypatch):
    # u > m, u = 1 and u < n + 1 among them. Blocks of 16 points pack
    # several partitions of m together and split others.
    stream_small(monkeypatch, 16 * u * n * 4)
    lattice = np.vstack(list(iter_lattice(m, u * n)))
    want = collections.Counter(orbit_key(p, u, n) for p in lattice)
    # The lattice's joints with rows in ascending order: one per orbit.
    assert len(want) == sum(orbit_key(p, u, n) == tuple(map(tuple, p.reshape(u, n).tolist())) for p in lattice)
    blocks = list(simplexopt._iter_orbits(m, u, n))
    assert all(len(reps) == 16 for reps, _ in blocks[:-1]) and 0 < len(blocks[-1][0]) <= 16
    reps, sizes = np.vstack([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks])
    keys = [orbit_key(r, u, n) for r in reps]
    assert len(set(keys)) == len(keys) == len(want) and dict(zip(keys, sizes.tolist())) == want
    assert sizes.sum() == lattice_size(m, u * n) and (reps.sum(axis=1) == m).all()


def test_objective_not_invariant_under_u_relabelling_raises():
    # The mass of (u, x) = (0, 0) alone: the orbit of the point mass there
    # scores 1 at that point and 0 at its copies.
    with pytest.raises(RuntimeError, match="not invariant under permutations of U's rows"):
        maximize_joint(lambda P: P[..., 0, 0], (2, 2))


def test_objective_of_a_middle_row_raises():
    # The mass of (u, x) = (1, 0) alone: reversing U's rows keeps the middle
    # row in place, a cyclic shift does not.
    with pytest.raises(RuntimeError, match="not invariant under permutations of U's rows"):
        maximize_joint(lambda P: P[..., 1, 0], (3, 2))


def test_flat_objective_values_each_orbit_once(monkeypatch):
    # A constant on (4, 3) joints at m = 6: 12,376 joints in 788 orbits, all
    # tied. After any prefix of the scan's blocks it holds the first two
    # orbits, 4 + 4 joints, and it values the representatives plus the
    # three cyclic shifts of each kept one: 788 + 6 in all, not the lattice.
    u, n, m = 4, 3, 6
    stream_small(monkeypatch, 16 * u * n * 4)
    blocks = list(simplexopt._iter_orbits(m, u, n))
    first = blocks[0][0][:2] / m
    assert sum(len(reps) for reps, _ in blocks) == 788 and blocks[0][1][:2].tolist() == [4, 4]
    for stop in range(1, len(blocks) + 1):
        monkeypatch.setattr(simplexopt, "_iter_orbits", lambda *_: iter(blocks[:stop]))
        f = simplexopt._Counted(lambda P: np.zeros(P.shape[:-2]), (u, n))
        vals, pts = simplexopt._scan_lattice(f, u * n, m, simplexopt._STARTS)
        assert np.array_equal(pts, first) and vals.tolist() == [0.0, 0.0]
        assert f.evals == sum(len(reps) for reps, _ in blocks[:stop]) + 2 * (u - 1)
    assert f.evals == 794


def test_primed_regions_independent_of_block_cap(monkeypatch, blackwell_07_03, ff2_07_04):
    # The n = 5 channel has three outputs, so its joint block has 9 cells.
    out3 = ChannelSpec(5, (0, 0, 0, 1, 2), (2, 1, 0, 0, 0), 0.6, 0.2)
    default = simplexopt._BLOCK_BYTES
    for spec, grid in ((blackwell_07_03, 60), (ff2_07_04, 24), (out3, 12)):
        runs = []
        for cap in (default, 1024, 96):
            stream_small(monkeypatch, cap)
            runs.append([poly.vertices for poly in primed_regions(spec, px_grid=grid)])
        assert runs[0] == runs[1] == runs[2]


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
    return simplexopt._Counted(lambda P: obj(P[..., 0, :]), (1, dim))


def pair_deltas(dim):
    """Every ordered pair (i, j), i != j, as index arrays and as the dense
    table of moves e_j - e_i."""
    i_idx, j_idx = np.nonzero(~np.eye(dim, dtype=bool))
    delta = np.zeros((i_idx.size, dim))
    delta[np.arange(i_idx.size), i_idx] -= 1.0
    delta[np.arange(i_idx.size), j_idx] += 1.0
    return i_idx, j_idx, delta


def line_probe(f, base, delta):
    """f at base + t*delta, for a stack of any whole number of step vectors
    t, one step per row of base in each."""

    def probe(t):
        k = t.size // len(base)
        return f(np.maximum(np.tile(base, (k, 1)) + t[:, None] * np.tile(delta, (k, 1)), 0.0))

    return probe


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
    got = simplexopt._full_pair_polish(f_got, S, V, rows, i_idx, j_idx, 1e-9, 12)
    want = _full_pair_polish_per_row(f_want, S_ref, V_ref, rows, i_idx, delta, 1e-9, 12)
    assert np.array_equal(got, want) and f_got.evals == f_want.evals
    assert np.array_equal(S, S_ref) and np.array_equal(V, V_ref)
    if n_rows > 1:
        assert want.any() and not want.all()


def test_full_pair_polish_without_live_pairs_is_a_no_op():
    S = np.zeros((2, 3))
    V = np.zeros(2)
    i_idx, j_idx, _ = pair_deltas(3)
    f = counted(entropy, 3)
    rescued = simplexopt._full_pair_polish(f, S, V, np.array([0, 1]), i_idx, j_idx, 1e-9, 12)
    assert not rescued.any() and f.evals == 0


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
    t, v = simplexopt._golden_polish(line_probe(f, base, delta[pick]), hi, simplexopt._GOLDEN_ITERS)
    for r in range(9):
        f_r = counted(obj, dim)
        t_r, v_r = simplexopt._golden_polish(
            line_probe(f_r, base[r : r + 1], delta[pick[r : r + 1]]), hi[r : r + 1], simplexopt._GOLDEN_ITERS
        )
        assert t_r[0] == t[r] and v_r[0] == v[r]
        assert f_r.evals * 9 == f.evals


_LINES = {
    "concave": lambda t, c: -((t - c) ** 2),
    "unimodal": lambda t, c: 1.0 / (1.0 + 50.0 * (t - c) ** 2) - 1e-3 * np.sqrt(np.abs(t - c)),
}


@pytest.mark.parametrize("iters", [12, simplexopt._GOLDEN_ITERS])
@pytest.mark.parametrize("line", list(_LINES))
def test_golden_polish_lands_in_the_final_bracket(line, iters):
    # One new probe per step after the first pair: the best point seen lies
    # within the final bracket, hi * golden**iters wide, of each line's
    # dense-grid maximum, peaks at both ends included, after iters + 2
    # probes per row.
    rng = np.random.default_rng(97)
    n = 12
    hi = rng.uniform(0.05, 2.0, n)
    peak = rng.uniform(0.0, 1.0, n) * hi
    peak[:2], peak[2:4] = 0.0, hi[2:4]
    calls = np.zeros(n, dtype=int)
    shape = _LINES[line]

    def probe(t):
        k = t.size // n
        calls[:] += k
        return shape(t, np.tile(peak, k))

    t, v = simplexopt._golden_polish(probe, hi, iters)
    grid = np.linspace(0.0, 1.0, 100_001)[:, None] * hi
    dense = grid[shape(grid, peak).argmax(axis=0), np.arange(n)]
    assert (np.abs(t - dense) <= hi * (simplexopt._GOLDEN**iters + 1e-5)).all()
    assert np.array_equal(v, shape(t, peak))
    assert (calls == iters + 2).all()


def reference_golden_polish(probe, hi, iters):
    """_golden_polish with a fresh array for every update."""
    n = hi.shape[0]
    a, b, best_t, best_v = np.zeros(n), hi.astype(float), np.zeros(n), np.full(n, -np.inf)
    width = simplexopt._GOLDEN * (b - a)
    x1, x2 = b - width, a + width
    f1, f2 = probe(np.concatenate((x1, x2))).reshape(2, n)
    for x, fx in ((x1, f1), (x2, f2)):
        best_t = np.where(fx > best_v, x, best_t)
        np.maximum(best_v, fx, out=best_v)
    for _ in range(iters):
        go_right = f2 > f1
        a, b = np.where(go_right, x1, a), np.where(go_right, b, x2)
        width = simplexopt._GOLDEN * (b - a)
        x1, x2 = b - width, a + width
        x = np.where(go_right, x2, x1)
        fx = probe(x)
        best_t = np.where(fx > best_v, x, best_t)
        np.maximum(best_v, fx, out=best_v)
        f1, f2 = np.where(go_right, f2, fx), np.where(go_right, fx, f1)
    return best_t, best_v


@pytest.mark.parametrize("iters", [0, 1, 12, simplexopt._GOLDEN_ITERS])
@pytest.mark.parametrize("line", [*_LINES, "flat", "stepped"])
def test_golden_polish_updates_in_place_bit_for_bit(line, iters):
    # The bracket arithmetic in reused buffers probes every point, and
    # returns every (t, value), bit for bit where fresh arrays put them:
    # smooth lines, a flat line (every comparison ties) and a stepped one
    # (ties on plateaus), peaks at both ends and zero-width brackets.
    rng = np.random.default_rng(31 + iters)
    n = 16
    hi = rng.uniform(0.05, 2.0, n)
    hi[-1] = 0.0
    peak = rng.uniform(0.0, 1.0, n) * hi
    peak[:2], peak[2:4] = 0.0, hi[2:4]
    shapes = {**_LINES, "flat": lambda t, c: np.zeros_like(t), "stepped": lambda t, c: -np.floor(8.0 * np.abs(t - c))}
    probes = {}

    def recorder(key):
        def probe(t):
            probes.setdefault(key, []).append(t.copy())
            return shapes[line](t, np.tile(peak, t.size // n))

        return probe

    got = simplexopt._golden_polish(recorder("got"), hi, iters)
    want = reference_golden_polish(recorder("want"), hi, iters)
    assert [t.tobytes() for t in probes["got"]] == [t.tobytes() for t in probes["want"]]
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


def reference_slope(q, dq, C, blocks, t):
    """The line search's slope as one expression per term."""
    term = np.where(dq != 0.0, -np.log2(np.maximum(q + t[:, None] * dq, 0.0)) * dq, 0.0)
    return sum(np.where(C[:, k] > 0.0, C[:, k] * term[:, a:b].sum(axis=1), 0.0) for k, (a, b) in enumerate(blocks))


@pytest.mark.parametrize("name", ["blackwell", "gf2", "random5"])
def test_line_slope_matches_the_one_expression_slope(name):
    # The slope made once per solver iteration equals the one-expression
    # slope bit for bit, through repeated calls on its one work buffer:
    # zero dq entries (inputs without a move, or moves inside one cell),
    # zero coefficients, and cells emptied at t = t_max.
    spec = _BATCH_SPECS[name]
    indicator, blocks = stacked_indicator(spec)
    rng = np.random.default_rng(len(name))
    n, rows = spec.input_size, 24
    p = rng.dirichlet(np.ones(n), size=rows) * (rng.random((rows, n)) < 0.7)
    p[:, 0] += 1e-3
    p /= p.sum(axis=1, keepdims=True)
    d = rng.normal(size=(rows, n)) * (rng.random((rows, n)) < 0.6)
    d[np.arange(rows), p.argmax(axis=1)] -= d.sum(axis=1)
    d[::6] = 0.0
    C = np.abs(rng.normal(size=(rows, len(blocks))))
    C[rng.random(C.shape) < 0.3] = 0.0
    q, dq = p @ indicator, d @ indicator
    with np.errstate(divide="ignore", invalid="ignore"):
        t_max = np.where(d < 0.0, p / -d, np.inf).min(axis=1)
        t_max[~np.isfinite(t_max)] = 1.0
        slope = simplexopt._line_slope(q, dq, C, blocks)
        for t in (t_max, 0.5 * t_max, np.zeros(rows), rng.uniform(0.0, 1.0, rows) * t_max, t_max):
            got, want = slope(t), reference_slope(q, dq, C, blocks, t)
            assert got.tobytes() == want.tobytes()
    assert (dq == 0.0).any() and (C == 0.0).any()


def reference_bisect(slope, t_max):
    """The line search's bisection with a new lo and hi at each step."""
    lo, hi = np.zeros(t_max.size), t_max
    for _ in range(simplexopt._BISECT):
        mid = 0.5 * (lo + hi)
        up = slope(mid) > 0.0
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return lo, hi


@pytest.mark.parametrize("name", ["blackwell", "gf2", "random5"])
def test_bisection_in_place_equals_the_two_where_loop(name):
    # Solver-like lines (Frank-Wolfe and general directions from laws on
    # faces), zero dq entries, zero coefficients and some roots at t_max:
    # lo and hi bit for bit those of the loop above, t_max untouched.
    spec = _BATCH_SPECS[name]
    indicator, blocks = stacked_indicator(spec)
    rng = np.random.default_rng(7 + len(name))
    n, rows = spec.input_size, 60
    p = rng.dirichlet(np.ones(n), size=rows) * (rng.random((rows, n)) < 0.7)
    p[:, 0] += 1e-3
    p /= p.sum(axis=1, keepdims=True)
    d = rng.normal(size=(rows, n)) * (rng.random((rows, n)) < 0.6)
    d[::3] = np.eye(n)[rng.integers(0, n, rows)][::3] - np.eye(n)[p.argmax(axis=1)][::3]
    d[np.arange(rows), p.argmax(axis=1)] -= d.sum(axis=1)
    C = np.abs(rng.normal(size=(rows, len(blocks))))
    C[rng.random(C.shape) < 0.3] = 0.0
    q, dq = p @ indicator, d @ indicator
    with np.errstate(divide="ignore", invalid="ignore"):
        t_max = np.where(d < 0.0, p / -d, np.inf).min(axis=1)
        t_max[~np.isfinite(t_max)] = 1.0
        kept = t_max.copy()
        got = simplexopt._bisect(simplexopt._line_slope(q, dq, C, blocks), t_max)
        want = reference_bisect(simplexopt._line_slope(q, dq, C, blocks), kept.copy())
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
    assert t_max.tobytes() == kept.tobytes()
    assert (dq == 0.0).any() and (C == 0.0).any()
    assert 0 < (got[1] == t_max).sum() < rows


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pushforward_solver_rejects_non_finite_coefficients(bad):
    # Both used to end in LinAlgError after RuntimeWarnings; now the named
    # row fails before any arithmetic.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"finite and non-negative, row \[1\.0, {bad}, 0\.0\]"):
            solve(_BATCH_SPECS["blackwell"], [[0.7, 0.3, 0.05], [1.0, bad, 0.0]])


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
    f = simplexopt._Counted(lambda P: np.zeros(P.shape[:-2]), (10, 9))
    start = np.full((1, 90), 1.0 / 90)
    tracemalloc.start()
    try:
        # Nothing gains on a constant objective: one step, then it stops.
        S, V = simplexopt._ascend(f, start, simplexopt._STEP_TOLERANCE, simplexopt._GOLDEN_ITERS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(S, start) and f.evals == 1 + 8010 * (simplexopt._GOLDEN_ITERS + 2)
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
    """Gallager's dual bound and the objective at the law px, written out
    input by input: the bound is the least over eps of the largest
    sum_k c_k (-log2 q_k[f_k(x)]), q_k being the pushforward of px mixed with
    eps-uniform."""
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
    return bound, value


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
        bound, value = reference_gap(spec, row, res.argmax)
        assert bound - value <= simplexopt.GAP_TOLERANCE
        assert abs(res.value - value) <= 1e-12
        assert abs(res.bound - bound) <= 1e-12


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
