"""Deterministic global maximization over probability simplices.

Strategy: exhaustive evaluation on the rational lattice {k/m : sum k = m},
then local ascent seeded from the best lattice points. The ascent repeatedly
moves mass between one pair of coordinates: a vectorized scan over all pairs
and a geometric step grid picks the most promising move, and a golden-section
line search polishes its size, so simplex feasibility is preserved exactly.

Everything is deterministic. Lattice points are generated in ascending
lexicographic order (see _scan_lattice for how its ties break); candidate
comparisons elsewhere use first-maximum semantics.

Objectives must be vectorized: they take an array whose trailing axis (for
maximize_simplex) or trailing two axes (for maximize_joint) hold the
distribution, and return values over the leading axes. A bare 1-D (or 2-D
joint) input must yield a scalar. maximize_simplex_weights solves one
objective at many weights at once; its objective takes the weights as a
second argument that broadcasts against those leading axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_BLOCK_BYTES = 256 * 1024
_MEMO_POINT_LIMIT = 200_000
_SCAN_BYTES = 256 * 1024
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_ITERS = 24
_FRACS = np.array([0.03125, 0.125, 0.25, 0.5, 0.75, 1.0])


@dataclass(frozen=True)
class OptConfig:
    """Search resolution knobs.

    grid_denominator is the lattice resolution m; refine_starts the number of
    top lattice points seeding local ascent; refine_iters the mass-move budget
    per seed; step_tolerance the per-move improvement (bits) below which a
    seed is considered converged; value_tolerance the advertised accuracy of
    returned values (bits), used by callers when comparing optima.
    """

    grid_denominator: int
    refine_starts: int = 8
    refine_iters: int = 300
    step_tolerance: float = 1e-9
    value_tolerance: float = 1e-4

    def __post_init__(self):
        if self.grid_denominator < 2:
            raise ValueError("grid_denominator must be >= 2")
        if self.refine_starts < 1:
            raise ValueError("refine_starts must be a positive integer")
        if self.refine_iters < 1:
            raise ValueError("refine_iters must be a positive integer")
        if self.step_tolerance <= 0.0 or self.value_tolerance <= 0.0:
            raise ValueError("tolerances must be positive")


def default_grid(dim: int) -> int:
    """Default lattice denominator; shrinks with dimension to keep the point
    count near 1e5 or below."""
    if dim <= 4:
        return 48
    if dim <= 6:
        return 24
    if dim <= 9:
        return 12
    if dim <= 12:
        return 6
    if dim <= 16:
        return 5
    return 4


def default_config(dim: int) -> OptConfig:
    return OptConfig(grid_denominator=default_grid(dim))


@dataclass
class OptResult:
    """Best point found, its objective value (bits) and the number of
    objective evaluations spent."""

    argmax: np.ndarray
    value: float
    evaluations: int


def lattice_size(denominator: int, dim: int) -> int:
    return math.comb(denominator + dim - 1, dim - 1)


def _lattice_runs(mass: int, dim: int, cap_rows: float, prefix: tuple = ()):
    """The rows of the lattice {k in N^dim : sum k = mass + sum(prefix)} that
    start with `prefix`, in ascending lexicographic order, as int32 runs of
    at most cap_rows rows. A run is a stretch of consecutive slices on the
    next coordinate; a slice larger than cap_rows is split on the one after."""
    rest = dim - len(prefix)
    if rest == 1:
        yield np.array([prefix + (mass,)], dtype=np.int32)
        return
    sizes = np.array([lattice_size(mass - k, rest - 1) for k in range(mass + 1)])
    ends = np.cumsum(sizes)
    k = 0
    while k <= mass:
        if sizes[k] > cap_rows:
            yield from _lattice_runs(mass - k, dim, cap_rows, prefix + (k,))
            k += 1
            continue
        stop = int(np.searchsorted(ends, ends[k] - sizes[k] + cap_rows, side="right"))
        # One pass per coordinate: a partial row with remaining mass r
        # expands into its r + 1 children, in order.
        rows, rem = np.arange(k, stop)[:, None], mass - np.arange(k, stop)
        for _ in range(rest - 2):
            width = rem + 1
            step = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
            rows = np.column_stack((np.repeat(rows, width, axis=0), step))
            rem = np.repeat(rem, width) - step
        lead = np.broadcast_to(np.array(prefix, dtype=np.int64), (rows.shape[0], len(prefix)))
        yield np.hstack((lead, rows, rem[:, None]), dtype=np.int32)
        k = stop


def _lattice_blocks(mass: int, dim: int, cap_rows: float):
    """The lattice {k in N^dim : sum k = mass} in ascending lexicographic
    order, as int32 blocks of at most cap_rows rows. Consecutive runs join
    while they fit, across the levels of the slice recursion, so two
    neighbouring blocks always hold more than cap_rows rows together; a
    lattice whose slices never split keeps one run per block."""
    join = lambda runs: runs[0] if len(runs) == 1 else np.vstack(runs)
    pending, rows = [], 0
    for run in _lattice_runs(mass, dim, cap_rows):
        if pending and rows + run.shape[0] > cap_rows:
            yield join(pending)
            pending, rows = [], 0
        pending.append(run)
        rows += run.shape[0]
    yield join(pending)


@lru_cache(maxsize=48)
def _cached_lattice(denominator: int, dim: int) -> np.ndarray:
    (block,) = _lattice_blocks(denominator, dim, math.inf)
    block.setflags(write=False)
    return block


def iter_lattice(denominator: int, dim: int):
    """Yield int32 blocks jointly covering every composition of `denominator`
    into `dim` parts exactly once, in ascending lexicographic order. A lattice
    of at most _MEMO_POINT_LIMIT points is one read-only block, cached across
    calls; a larger one is built as it is consumed, in blocks of at most
    _BLOCK_BYTES (or one row), so its memory is bounded per block."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if denominator < 0:
        raise ValueError("denominator must be non-negative")
    if lattice_size(denominator, dim) <= _MEMO_POINT_LIMIT:
        yield _cached_lattice(denominator, dim)
        return
    row_bytes = dim * np.dtype(np.int32).itemsize
    yield from _lattice_blocks(denominator, dim, max(1, _BLOCK_BYTES // row_bytes))


class _Weighted:
    """An objective(P, w) solved at a batch of weights at once.

    Each leading row of P belongs to one weight: a call passes `own`, the
    position of each row's weight, and the objective gets that weight
    broadcast over the row's candidate axes. Evaluations are tallied per
    weight, so each weight's count is the one a run of that weight alone
    reports."""

    def __init__(self, objective, weights: np.ndarray):
        self.objective = objective
        self.weights = weights
        self.evals = np.zeros(weights.size, dtype=np.int64)

    def __call__(self, P: np.ndarray, own: np.ndarray) -> np.ndarray:
        w = self.weights[own].reshape(own.shape + (1,) * (P.ndim - 2))
        vals = np.asarray(self.objective(P, w), dtype=float)
        self.evals += np.bincount(own, minlength=self.weights.size) * (vals.size // max(own.size, 1))
        return vals


def _check_values(vals: np.ndarray, pts: np.ndarray) -> None:
    if vals.shape[-1:] != pts.shape[:1]:
        raise ValueError("objective must return one value per input point")
    if np.isnan(vals).any():
        i = int(np.flatnonzero(np.isnan(vals))[0]) % pts.shape[0]
        raise ValueError(f"objective returned NaN at point {pts[i].tolist()}")


def _keep_top(top, vals: np.ndarray, pts: np.ndarray, offset: int, top_k: int):
    """Merge one block's values into one weight's running top_k (values,
    points, generation indices)."""
    top_vals, top_pts, top_ord = top
    k_here = min(top_k, vals.shape[0])
    if k_here < vals.shape[0]:
        idx = np.argpartition(-vals, k_here - 1)[:k_here]
    else:
        idx = np.arange(vals.shape[0])
    cand_vals = np.concatenate([top_vals, vals[idx]])
    cand_pts = np.vstack([top_pts, pts[idx]])
    cand_ord = np.concatenate([top_ord, offset + idx])
    order = np.lexsort((cand_ord, -cand_vals))[:top_k]
    return cand_vals[order], cand_pts[order], cand_ord[order]


def _scan_lattice(f: _Weighted, dim: int, m: int, top_k: int):
    """Evaluate the objective on the full lattice, tracking the top_k points
    of each weight. One objective call serves a group of weights whose
    values fit in _SCAN_BYTES (or one weight), which bounds the call's
    temporaries; the selection runs per weight. np.argpartition
    picks among a block's points tied at the k-th value repeatably but not
    by generation index; the kept points are ranked by value, ties toward
    the earlier generation index."""
    tops = [(np.empty(0), np.empty((0, dim)), np.empty(0, dtype=np.int64))] * f.weights.size
    offset = 0
    for block in iter_lattice(m, dim):
        pts = block.astype(float) / m
        n = pts.shape[0]
        group = max(1, _SCAN_BYTES // (8 * n))
        for lo in range(0, f.weights.size, group):
            w = f.weights[lo : lo + group]
            vals = np.asarray(f.objective(pts, w[:, None]), dtype=float)
            _check_values(vals, pts)
            f.evals[lo : lo + group] += n
            for j, v in enumerate(np.broadcast_to(vals, (w.size, n)), lo):
                tops[j] = _keep_top(tops[j], v, pts, offset, top_k)
        offset += n
    return tops


def _pair_deltas(dim: int):
    i_idx, j_idx = np.where(~np.eye(dim, dtype=bool))
    delta = np.zeros((i_idx.size, dim))
    rows = np.arange(i_idx.size)
    delta[rows, i_idx] -= 1.0
    delta[rows, j_idx] += 1.0
    return i_idx, delta


def _golden_polish(f: _Weighted, base, delta, hi, own, iters: int = _GOLDEN_ITERS):
    """Per-row golden-section maximum of t -> objective(base + t*delta) on
    [0, hi], each row at its weight own; returns the best (t, value) seen
    including the probes. Each step sends both interior probes of every row
    to the objective in one call on the stacked points; objectives evaluate
    rows independently, so the values are those of two separate calls."""
    n = base.shape[0]
    a = np.zeros(n)
    b = hi.astype(float).copy()
    base2 = np.concatenate((base, base))
    delta2 = np.concatenate((delta, delta))
    own2 = np.concatenate((own, own))
    best_t = np.zeros(n)
    best_v = np.full(n, -np.inf)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    for _ in range(iters + 1):
        pts = np.maximum(base2 + np.concatenate((x1, x2))[:, None] * delta2, 0.0)
        f12 = f(pts, own2)
        f1, f2 = f12[:n], f12[n:]
        better = np.where(f1 >= f2, x1, x2)
        better_v = np.maximum(f1, f2)
        upd = better_v > best_v
        best_t = np.where(upd, better, best_t)
        best_v = np.maximum(best_v, better_v)
        go_right = f2 > f1
        a = np.where(go_right, x1, a)
        b = np.where(go_right, b, x2)
        x1 = b - _GOLDEN * (b - a)
        x2 = a + _GOLDEN * (b - a)
    return best_t, best_v


def _full_pair_polish(f: _Weighted, S, V, rows, own, i_idx, delta, step_tolerance, iters):
    """Golden-section line search over every ordered pair for the given state
    rows; the rigorous stall check before a state is frozen. The coarse step
    grid of the main scan can miss pairs whose optimal move is tiny, so a
    state only freezes once no pair improves it. One search runs over every
    (row, live pair) at once, and each row takes its first best pair, as a
    search of that row alone would. own gives each state's weight. Applies
    improving moves in place and returns the rescued mask."""
    hi = S[rows][:, i_idx]
    r, pair = np.nonzero(hi > 0.0)
    t_g, v_g = _golden_polish(f, S[rows[r]], delta[pair], hi[r, pair], own[rows[r]], iters)
    t_row = np.zeros(hi.shape)
    v_row = np.full(hi.shape, -np.inf)
    t_row[r, pair] = t_g
    v_row[r, pair] = v_g
    b = v_row.argmax(axis=1)
    pos = np.arange(len(rows))
    t_b, v_b = t_row[pos, b], v_row[pos, b]
    rescued = v_b > V[rows] + step_tolerance
    s = rows[rescued]
    S[s] = np.maximum(S[s] + t_b[rescued, None] * delta[b[rescued]], 0.0)
    V[s] = v_b[rescued]
    return rescued


def _pattern_step(f: _Weighted, S, V, rows, own, snap, step_tolerance, iters):
    """Line search along the accumulated move direction (current minus
    snapshot) for the given state rows; de-zigzags ridge-shaped objectives.
    own gives each state's weight. Returns the gain per row; applies
    improving steps in place."""
    base = S[rows]
    D = base - snap[rows]
    span = np.abs(D).max(axis=1)
    live = span > 1e-15
    gain = np.zeros(len(rows))
    if not live.any():
        return gain
    sub = rows[live]
    base = S[sub]
    D = D[live]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(D < -1e-18, base / np.maximum(-D, 1e-300), np.inf)
    t_lim = np.minimum(ratio.min(axis=1), 8.0)
    ok = t_lim > 0.0
    if not ok.any():
        return gain
    sub = sub[ok]
    base = base[ok]
    D = D[ok]
    t_lim = t_lim[ok]
    t_g, v_g = _golden_polish(f, base, D, t_lim, own[sub], iters)
    improve = v_g > V[sub] + step_tolerance
    tgt = sub[improve]
    S[tgt] = np.maximum(base[improve] + t_g[improve, None] * D[improve], 0.0)
    gain[np.flatnonzero(live)[ok][improve]] = v_g[improve] - V[tgt]
    V[tgt] = v_g[improve]
    return gain


def _refine(f: _Weighted, starts: np.ndarray, own: np.ndarray, cfg: OptConfig):
    """Two-phase refinement: ascend every start at a coarse tolerance, then
    polish only each weight's leaders (within 1e-4 bits of that weight's
    best, at most three) at the configured tolerance. Laggard starts cannot
    win, so the tail cost is spent where it matters. own, the weight of each
    start, is ascending."""
    coarse_tol = max(cfg.step_tolerance, 1e-6)
    S, V = _ascend(f, starts, own, coarse_tol, min(cfg.refine_iters, 80), polish=False)
    if coarse_tol > cfg.step_tolerance:
        # Per weight, best first with ties in start order; `first` is where
        # each start's weight begins in that order.
        order = np.lexsort((-V, own))
        first = np.searchsorted(own, own)
        lead = order[(np.arange(own.size) - first < 3) & (V[order] >= V[order[first]] - 1e-4)]
        S[lead], V[lead] = _ascend(f, S[lead], own[lead], cfg.step_tolerance, cfg.refine_iters, polish=True)
    # Renormalize accumulated float drift exactly onto the simplex, then
    # re-evaluate so returned values match returned points.
    S = S / S.sum(axis=1, keepdims=True)
    return S, f(S, own)


def _ascend(f: _Weighted, starts: np.ndarray, own: np.ndarray, step_tolerance: float, max_iters: int, polish: bool = True):
    """Greedy pairwise-exchange ascent, batched over start points, each at
    its weight own. Each iteration applies to every still-active start its
    single best mass move (pair scan over a geometric step grid, then
    golden-section polish); a periodic pattern step along the accumulated
    direction accelerates convergence along ridges where single-pair moves
    zigzag, and a state only freezes after a full per-pair line search fails
    to improve it. A start's path depends on its own state alone, so
    batching starts of many weights changes no start's result."""
    S = np.array(starts, dtype=float)
    k, dim = S.shape
    V = f(S, own)
    _check_values(V, S)
    if dim == 1 or k == 0:
        return S, V
    i_idx, delta = _pair_deltas(dim)
    active = np.ones(k, dtype=bool)
    snap = S.copy()
    age = np.zeros(k, dtype=int)
    # Near-tied landscapes can sustain microscopic gains for hundreds of
    # moves; a state that stops making appreciable progress is cut off after
    # a bounded number of such iterations.
    stall = np.zeros(k, dtype=int)
    stall_budget = 3 * dim + 8
    for _ in range(max_iters):
        if not active.any():
            break
        act = np.flatnonzero(active)
        v_before = V[act].copy()
        base = S[act]
        t_max = base[:, i_idx]
        T = t_max[:, :, None] * _FRACS
        C = base[:, None, None, :] + T[..., None] * delta[None, :, None, :]
        np.maximum(C, 0.0, out=C)
        flat = f(C, own[act]).reshape(len(act), -1)
        pick = flat.argmax(axis=1)
        pair_pick, frac_pick = np.unravel_index(pick, (i_idx.size, _FRACS.size))
        rows = np.arange(len(act))
        v_grid = flat[rows, pick]
        t_grid = t_max[rows, pair_pick] * _FRACS[frac_pick]
        dsel = delta[pair_pick]
        if polish:
            t_gold, v_gold = _golden_polish(f, base, dsel, t_max[rows, pair_pick], own[act])
            take_gold = v_gold > v_grid
            t_new = np.where(take_gold, t_gold, t_grid)
            v_new = np.maximum(v_grid, v_gold)
        else:
            t_new = t_grid
            v_new = v_grid
        improved = v_new > V[act] + step_tolerance
        moved = np.maximum(base + t_new[:, None] * dsel, 0.0)
        S[act[improved]] = moved[improved]
        V[act[improved]] = v_new[improved]
        age[act] += 1
        due = act[(age[act] >= dim) | ~improved]
        if due.size:
            g_iters = _GOLDEN_ITERS if polish else 12
            gain = _pattern_step(f, S, V, due, own, snap, step_tolerance, g_iters)
            snap[due] = S[due]
            age[due] = 0
            pair_failed = np.isin(due, act[~improved])
            stalled = due[pair_failed & (gain <= step_tolerance)]
            if stalled.size:
                rescued = _full_pair_polish(f, S, V, stalled, own, i_idx, delta, step_tolerance, g_iters)
                snap[stalled] = S[stalled]
                active[stalled[~rescued]] = False
        it_gain = V[act] - v_before
        stall[act] = np.where(it_gain > 1e3 * step_tolerance, 0, stall[act] + 1)
        active[act[stall[act] > stall_budget]] = False
    return S, V


def _dedupe_rows(rows: list[np.ndarray]) -> list[np.ndarray]:
    seen = set()
    out = []
    for r in rows:
        key = np.round(r, 12).tobytes()
        if key not in seen:
            seen.add(key)
            out.append(r)
    return out


def _maximize_flat(objective, dim: int, cfg: OptConfig, weights, extra_starts=(), orbit_key=None) -> list[OptResult]:
    """One OptResult per weight for objective(P, w): the lattice scan and
    the start selection run per weight, and every weight's starts ascend in
    one lockstep batch. weights is a 1-D float array."""
    if dim == 1:
        return [OptResult(np.ones(1), float(objective(np.ones(1), w)), 1) for w in weights]
    extras = []
    for s in extra_starts:
        arr = np.asarray(s, dtype=float).reshape(-1)
        if arr.shape[0] != dim:
            raise ValueError(f"extra start has dimension {arr.shape[0]}, expected {dim}")
        extras.append(arr)
    f = _Weighted(objective, weights)
    tops = _scan_lattice(f, dim, cfg.grid_denominator, cfg.refine_starts)
    starts, counts = [], []
    for _, top_pts, _ in tops:
        kept = list(top_pts)
        if orbit_key is not None:
            seen = set()
            orbits = []
            for p in kept:
                key = orbit_key(p)
                if key not in seen:
                    seen.add(key)
                    orbits.append(p)
            kept = orbits
        kept = _dedupe_rows(kept + extras)
        starts += kept
        counts.append(len(kept))
    own = np.repeat(np.arange(weights.size), counts)
    S, V = _refine(f, np.array(starts), own, cfg)
    ends = np.cumsum(counts)
    points, values = [], []
    for (top_vals, top_pts, _), lo, hi in zip(tops, ends - counts, ends):
        cand_vals = np.concatenate([top_vals[:1], V[lo:hi]])
        best = int(np.argmax(cand_vals))
        points.append(top_pts[0] if best == 0 else S[lo + best - 1])
        values.append(float(cand_vals[best]))
    checks = f(np.array(points), np.arange(weights.size))
    for value, check in zip(values, checks):
        if abs(check - value) > 1e-12:
            raise AssertionError(f"optimizer value {value} failed re-evaluation ({check})")
    return [OptResult(p, v, int(e)) for p, v, e in zip(points, values, f.evals)]


def maximize_simplex(objective, dim: int, cfg: OptConfig | None = None, extra_starts=()) -> OptResult:
    """Global maximum of a vectorized objective over the dim-simplex.

    Returns the best of (a) an exhaustive lattice scan at cfg.grid_denominator
    and (b) pairwise-exchange ascent from the cfg.refine_starts best lattice
    points plus any extra_starts. Deterministic for a fixed cfg.
    """
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    cfg = cfg or default_config(dim)
    (res,) = _maximize_flat(lambda P, w: objective(P), dim, cfg, np.zeros(1), extra_starts)
    return res


def maximize_simplex_weights(objective, dim: int, weights, cfg: OptConfig | None = None) -> list[OptResult]:
    """maximize_simplex of P -> objective(P, w) at every weight w, solved in
    one batch; one OptResult per weight, in order.

    The objective takes the distribution batch and an array of weights that
    broadcasts against its leading axes (one weight per leading row, or a
    column of weights against the lattice), and evaluates elementwise in
    the weight. Each result, evaluation count included, equals that of a
    one-weight call, because the lattice scan and the start selection run
    per weight and each start ascends on its own path.
    """
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if weights.size == 0:
        return []
    return _maximize_flat(objective, dim, cfg or default_config(dim), weights)


def maximize_joint(
    objective,
    dims: tuple[int, int],
    cfg: OptConfig | None = None,
    extra_starts=(),
    symmetric_u: bool = False,
) -> OptResult:
    """Global maximum over joint mass functions on a u_size x x_size grid.

    Same search strategy as maximize_simplex on the flattened simplex. With
    symmetric_u=True (declaring the objective invariant under relabeling of
    the first coordinate) refinement starts are deduplicated up to row
    permutation, which removes redundant ascent runs.
    """
    u_size, x_size = int(dims[0]), int(dims[1])
    if u_size < 1 or x_size < 1:
        raise ValueError("joint dims must be positive integers")
    dim = u_size * x_size
    cfg = cfg or default_config(dim)

    def flat_obj(arr, w):
        a = np.asarray(arr, dtype=float)
        return objective(a.reshape(a.shape[:-1] + (u_size, x_size)))

    orbit_key = None
    if symmetric_u:
        def orbit_key(pt):
            rows = np.round(pt.reshape(u_size, x_size), 12)
            return tuple(sorted(map(tuple, rows.tolist())))

    (res,) = _maximize_flat(flat_obj, dim, cfg, np.zeros(1), extra_starts, orbit_key=orbit_key)
    res.argmax = res.argmax.reshape(u_size, x_size)
    return res
