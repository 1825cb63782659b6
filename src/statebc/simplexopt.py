"""Deterministic maximization over probability simplices.

maximize_joint takes any vectorized objective over joint laws p(u, x): an
exhaustive evaluation on the rational lattice {k/m : sum k = m}, then local
ascent seeded from the best lattice points. The ascent repeatedly moves mass
from one coordinate i to another j, a pair of indices: a golden-section line
search on every distinct pair picks the best move, so simplex feasibility is
preserved exactly. A joint's moves into its spare empty U rows are not
distinct. maximize_simplex is the same search on one-row joints.

maximize_joints searches many objectives that share one `features` callable,
each value being combine(features(P), row) for its own coefficient row: one
lattice scan computes the features once per block and keeps every row's top
points, then one ascent runs every objective's starts together, each start
valued with its own objective's row. A plain objective is the one-feature
case with row (1.0,), so every search takes the same path.

maximize_pushforward_entropies solves the concave case, many coefficient rows
at once, each to a certified gap.

Everything is deterministic. Every lattice streams through iter_lattice in
blocks of at most _BLOCK_BYTES, its points unranked by stars and bars in
ascending lexicographic order, and so do each ascent step's line searches;
the scan keeps its top points by value with ties toward the earlier point,
whatever the block size, and candidate comparisons elsewhere use
first-maximum semantics.

Objectives must be vectorized: they take an array whose trailing axis (for
maximize_simplex) or trailing two axes (for maximize_joint) hold the
distribution, and return values over the leading axes. A bare 1-D (or 2-D
joint) input must yield a scalar. One with `cells` is probed by _cell_probe.
A start's path and each objective's result depend on that start or
objective alone, never on the batch it is searched in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .infotheory import block_entropies, pushforward, xlogx

_BLOCK_BYTES = 256 * 1024
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_ITERS = 24

# maximize_joints: the lattice points that seed the ascent, its iteration
# budget, and the gain (bits) below which a start stops moving.
_STARTS = 8
_ASCENT_BUDGET = 300
_STEP_TOLERANCE = 1e-9

# maximize_pushforward_entropies: the certified gap (bits) at which a row
# stops; the shares of uniform mixed into the pushforwards for the dual
# bounds (the first also gives the scores, the second the gradient); the
# Newton face; the line search's bisections; the iteration budget.
GAP_TOLERANCE = 1e-10
_MIXES = np.array([1e-12, 0.0] + [10.0**-k for k in range(3, 16)])
_FACE = 1e-8
_BISECT = 56
_BUDGET = 2000


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


@dataclass
class OptResult:
    """Best point found, its objective value (bits) and the number of
    objective evaluations spent."""

    argmax: np.ndarray
    value: float
    evaluations: int


def lattice_size(denominator: int, dim: int) -> int:
    return math.comb(denominator + dim - 1, dim - 1)


def iter_lattice(denominator: int, dim: int):
    """Yield int32 blocks jointly covering every composition of `denominator`
    into `dim` parts exactly once, in ascending lexicographic order. Block b
    holds the ranks from b * cap, cap the rows that fit _BLOCK_BYTES (at
    least one); only the last is shorter. Raises ValueError, before building,
    when lattice_size does not fit int64. A composition is a subset of the
    denominator + dim - 1 slots (stars and bars): its dim - 1 bars, in the
    compositions' order, or when denominator < dim - 1 its stars, in the
    reverse order, unranked in the combinatorial number system (Knuth,
    TAOCP 4A, 7.2.1.3) by one searchsorted per subset position."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if denominator < 0:
        raise ValueError("denominator must be non-negative")
    size = lattice_size(denominator, dim)
    if size > np.iinfo(np.int64).max:
        raise ValueError(f"lattice_size({denominator}, {dim}) = {size} does not fit int64 ranks")
    slots, stars = denominator + dim - 1, denominator < dim - 1
    k = denominator if stars else dim - 1
    # comb[i][c] = C(c, i): the colex rank of {c_1 < ... < c_k} is the sum
    # of C(c_i, i), and reflecting positions c -> slots - 1 - c turns colex
    # order into the reverse of lexicographic order.
    comb = {i: np.array([math.comb(c, i) for c in range(slots)], dtype=np.int64) for i in range(2, k + 1)}
    cap = max(1, _BLOCK_BYTES // (dim * np.dtype(np.int32).itemsize))
    for start in range(0, size, cap):
        rank = np.arange(start, min(start + cap, size), dtype=np.int64)
        rank = rank if stars else size - 1 - rank
        # The subset's positions, ascending, between a -1 and a `slots` column.
        cuts = np.empty((rank.size, k + 2), dtype=np.int32)
        cuts[:, 0], cuts[:, -1] = -1, slots
        for i in range(k, 1, -1):
            c = np.searchsorted(comb[i], rank, side="right") - 1
            rank -= comb[i][c]
            cuts[:, k + 1 - i] = slots - 1 - c
        if k:
            # C(c, 1) = c, so the rank left is c_1 itself.
            cuts[:, k] = slots - 1 - rank
        if stars:
            # Star j (0-based) lies in part cuts[:, j + 1] - j.
            part = np.arange(rank.size)[:, None] * dim + cuts[:, 1:-1] - np.arange(k)
            yield np.bincount(part.ravel(), minlength=rank.size * dim).reshape(rank.size, dim).astype(np.int32)
        else:
            yield cuts[:, 1:] - cuts[:, :-1] - 1


def combine(features, coeffs):
    """sum_k coeffs[..., k] * features[k], added elementwise in k order.

    No BLAS reduction is involved, so a value depends only on its own
    features and coefficients, never on the batch around it."""
    out = coeffs[..., 0] * features[0]
    for k in range(1, len(features)):
        out = out + coeffs[..., k] * features[k]
    return out


class _Counted:
    """Objectives over points of `shape` that share their features, called
    on flat stacks of those points, with the points each one evaluates
    counted in evals. Objective w values P as combine(features(P), rows[w]):
    its own `features` and `row` when it has them, else the objective itself
    as one feature with row (1.0,), and 1.0 * v is v exactly. A call raises
    unless it gets one value per point, none of them NaN."""

    def __init__(self, objectives: list, shape: tuple):
        first = objectives[0]
        self.shape, self.evals = shape, np.zeros(len(objectives), dtype=np.int64)
        self.rows = np.array([getattr(o, "row", np.ones(1)) for o in objectives])
        self.cells = getattr(first, "cells", None)
        self.coeffs = None if self.cells is None else np.array([o.coeffs for o in objectives])
        self._features = getattr(first, "features", lambda P: (np.asarray(first(P), dtype=float),))

    def features(self, P: np.ndarray):
        return self._features(P.reshape(P.shape[:-1] + self.shape))

    def __call__(self, P: np.ndarray, own=0, features=None) -> np.ndarray:
        """Values of the points P, point k by objective own[k] (or all by
        own), from their features when these are given."""
        vals = np.asarray(combine(self.features(P) if features is None else features, self.rows[own]), dtype=float)
        if vals.shape != P.shape[:1]:
            raise ValueError("objective must return one value per input point")
        if (nan := np.isnan(vals)).any():
            raise ValueError(f"objective returned NaN at point {P[nan.argmax()].tolist()}")
        self.evals += np.bincount(np.broadcast_to(own, vals.shape), minlength=self.evals.size)
        return vals


def _scan_lattice(f: _Counted, dim: int, m: int, top_k: int):
    """Evaluate every objective of f on the full lattice and track each
    one's top_k points as (values, points), ranked by value with ties toward
    the earlier generation index. The features are computed once per block.
    Each block keeps its top_k in the same (-value, index) order, so the
    kept points do not depend on where the blocks break."""
    tops = [(np.empty(0), np.empty((0, dim)))] * f.evals.size
    for block in iter_lattice(m, dim):
        pts = block.astype(float) / m
        F = f.features(pts)
        for w in range(f.evals.size):
            vals = f(pts, w, F)
            idx = slice(None)
            if top_k < vals.size:
                # Every index above the k-th largest value, then its first ties.
                kth = np.partition(vals, vals.size - top_k)[vals.size - top_k]
                idx = np.flatnonzero(vals >= kth)
                above = vals[idx] > kth
                idx = idx[above | (np.cumsum(~above) <= top_k - np.count_nonzero(above))]
            cand_vals = np.concatenate([tops[w][0], vals[idx]])
            cand_pts = np.vstack([tops[w][1], pts[idx]])
            order = np.argsort(-cand_vals, kind="stable")[:top_k]
            tops[w] = cand_vals[order], cand_pts[order]
    return tops


def _move(S, t, i, j):
    """Rows of S with mass t[k] moved from coordinate i[k] to j[k], clipped
    at 0: bit for bit S + t * (e_j - e_i), since adding t * 0.0 leaves a
    non-negative entry unchanged and t * -1.0 is exact."""
    out, k = S.copy(), np.arange(len(S))
    out[k, i] -= t
    out[k, j] += t
    return np.maximum(out, 0.0)


def _cell_probe(f: _Counted, own, S, V, r, i, j):
    """Values of moving mass t from coordinate i to j of row r of S (value V,
    objective own[r]) for objectives sum_k coeffs[k] H(q_k) with `cells`, as
    _golden_polish stacks them: only cells[i, k] and cells[j, k] of each q_k
    change. Each row's cells are summed in coordinate order, without BLAS,
    so a row's probe values do not depend on the other rows of S. Counts
    one evaluation per probe."""
    cells = f.cells
    n_cells = cells.max() + 1
    bins = np.arange(len(S))[:, None, None] * n_cells + cells
    q = np.bincount(bins.ravel(), np.repeat(S, cells.shape[1], axis=1).ravel(), len(S) * n_cells).reshape(len(S), n_cells)
    qa, qb, w = q[r[:, None], cells[i]], q[r[:, None], cells[j]], np.where(cells[i] != cells[j], f.coeffs[own[r]], 0.0)
    v, before = V[r], xlogx(qa) + xlogx(qb)
    counts = 2 * np.bincount(own[r], minlength=f.evals.size)

    def probe(t):
        f.evals += counts
        t = t.reshape(2, -1, 1)
        return (v - (w * (xlogx(qa - t) + xlogx(qb + t) - before)).sum(axis=-1)).ravel()

    return probe


def _golden_polish(probe, hi, iters: int = _GOLDEN_ITERS):
    """Per-row golden-section maximum on [0, hi] of a line's values, where
    probe(t) values the 2n steps t, both interior probes of every row, in
    one call; returns the best (t, value) seen including the probes.
    Objectives evaluate rows independently, so the values are those of two
    separate calls."""
    n = hi.shape[0]
    a = np.zeros(n)
    b = hi.astype(float).copy()
    best_t = np.zeros(n)
    best_v = np.full(n, -np.inf)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    for _ in range(iters + 1):
        f12 = probe(np.concatenate((x1, x2)))
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


def _full_pair_polish(f: _Counted, own, S, V, rows, i_idx, j_idx, step_tolerance, iters):
    """One ascent step for the given state rows, row r valued by objective
    own[r]: a golden-section line search over every distinct pair p, moving
    mass from i_idx[p] (which has some) to j_idx[p], and each row takes its
    first best pair, as a search of that row alone would. Moves into an
    empty U row after its first empty one are not distinct: the objective
    ignores U's labels, so they probe as the same moves into the first (bit
    for bit with `cells`), which win their ties; a one-row joint has no
    such rows. The (row, live pair) entries stream in chunks of at most
    _BLOCK_BYTES // (2 * 8 * width), width the cell blocks (else the
    dimension), less those moves, and a row takes a later chunk's pair only
    on a strictly greater value. Applies moves that gain more than
    step_tolerance in place and returns the mask of rows that moved. With
    objective `cells`, _cell_probe values the probes and a move is kept on
    its full value; one more than 1e-9 off its probe raises RuntimeError."""
    cells = f.cells is not None
    # Pairs i * per to (i + 1) * per - 1 move mass off coordinate i.
    per = S.shape[1] - 1
    live = S[rows] > 0.0
    pos, nz = np.nonzero(live)
    empty = ~live.reshape(len(rows), *f.shape).any(axis=2)
    spare = np.repeat(empty & (np.cumsum(empty, axis=1) > 1), f.shape[1], axis=1)
    chunk = _BLOCK_BYTES // (16 * (f.cells.shape[1] if cells else S.shape[1]))
    best_t, best_v, best_p = np.zeros(len(rows)), np.full(len(rows), -np.inf), np.zeros(len(rows), dtype=int)
    for start in range(0, pos.size * per, chunk):
        k, off = np.divmod(np.arange(start, min(start + chunk, pos.size * per)), per)
        r, pair = pos[k], nz[k] * per + off
        keep = ~spare[r, j_idx[pair]]
        if not keep.any():
            continue
        r, pair = r[keep], pair[keep]
        hi = S[rows[r], i_idx[pair]]
        if cells:
            span = rows[r[0] : r[-1] + 1]
            probe = _cell_probe(f, own[span], S[span], V[span], r - r[0], i_idx[pair], j_idx[pair])
        else:
            base, both = np.tile(S[rows[r]], (2, 1)), np.tile(own[rows[r]], 2)
            i2, j2 = np.tile(i_idx[pair], 2), np.tile(j_idx[pair], 2)
            probe = lambda t: f(_move(base, t, i2, j2), both)
        t_g, v_g = _golden_polish(probe, hi, iters)
        # Each row's first best entry in this chunk.
        first = np.lexsort((-v_g, r))[np.flatnonzero(np.diff(r, prepend=-1))]
        up = first[v_g[first] > best_v[r[first]]]
        best_t[r[up]], best_v[r[up]], best_p[r[up]] = t_g[up], v_g[up], pair[up]
    moved = best_v > V[rows] + step_tolerance
    s, p = rows[moved], best_p[moved]
    step, v_s = _move(S[s], best_t[moved], i_idx[p], j_idx[p]), best_v[moved]
    if cells and s.size:
        full = f(step, own[s])
        if (off := np.abs(full - v_s)).max() > 1e-9:
            raise RuntimeError(f"move to {step[off.argmax()].tolist()} scores {full[off.argmax()]}, probe {v_s[off.argmax()]}")
        moved[moved] = keep = full > V[s] + step_tolerance
        s, step, v_s = s[keep], step[keep], full[keep]
    S[s], V[s] = step, v_s
    return moved


def _refine(f: _Counted, own, starts: np.ndarray):
    """Two-phase refinement of the starts of every objective at once, start
    r valued by objective own[r]: ascend every start at a coarse tolerance
    with short line searches, then only each objective's leaders (within
    1e-4 bits of its best, at most three) at _STEP_TOLERANCE. Laggard starts
    cannot win, so the tail cost is spent where it matters."""
    S, V = _ascend(f, own, starts, 1e-6, 12)
    lead = []
    for w in np.unique(own):
        # Best first, ties in start order.
        mine = np.flatnonzero(own == w)
        top = mine[np.argsort(-V[mine], kind="stable")[:3]]
        lead += list(top[V[top] >= V[top[0]] - 1e-4])
    S[lead], V[lead] = _ascend(f, own[lead], S[lead], _STEP_TOLERANCE, _GOLDEN_ITERS)
    # Renormalize accumulated float drift exactly onto the simplex, then
    # re-evaluate so returned values match returned points.
    S = S / S.sum(axis=1, keepdims=True)
    return S, f(S, own)


def _ascend(f: _Counted, own, starts: np.ndarray, step_tolerance: float, golden_iters: int):
    """Pairwise-exchange ascent, batched over start points, start r valued
    by objective own[r]: each iteration moves every active start along its
    best pair (_full_pair_polish), and a start stops once no pair gains more
    than step_tolerance. A start's path depends on its own state and
    objective alone. A start still moving after _ASCENT_BUDGET iterations
    raises RuntimeError."""
    S = np.array(starts, dtype=float)
    V = f(S, own)
    i_idx, j_idx = np.nonzero(~np.eye(S.shape[1], dtype=bool))
    active = np.arange(S.shape[0])
    for _ in range(_ASCENT_BUDGET):
        active = active[_full_pair_polish(f, own, S, V, active, i_idx, j_idx, step_tolerance, golden_iters)]
        if active.size == 0:
            return S, V
    start = starts[active[0]].tolist()
    raise RuntimeError(f"ascent from {start} still moving after {_ASCENT_BUDGET} iterations")


def maximize_joints(objectives, dims: tuple[int, int], extra_starts) -> list[OptResult]:
    """maximize_joint for each objective, with extra_starts[w] the extra
    starts of objectives[w], sharing one lattice scan. The objectives share
    one `features` callable (a tuple of value arrays over a stack of joints)
    and each has a coefficient `row` with value combine(features(P), row),
    so the scan evaluates the features once per block (_scan_lattice). One
    ascent (_refine) then runs every objective's top points and extra
    starts, less those whose rows, rounded and sorted, an earlier start of
    that objective has. Each result, evaluation count included, equals that
    of maximize_joint on its objective alone."""
    shape = (int(dims[0]), int(dims[1]))
    if min(shape) < 1:
        raise ValueError(f"dimensions must be positive integers, got {shape}")
    dim = math.prod(shape)
    if dim == 1:
        return [OptResult(np.ones(shape), float(o(np.ones(shape))), 1) for o in objectives]
    features = [getattr(o, "features", o) for o in objectives]
    if any(g != features[0] for g in features[1:]):
        raise ValueError("objectives searched together must share one features callable")
    extras = [[np.asarray(s, dtype=float).reshape(-1) for s in starts] for starts in extra_starts]
    for arr in (a for starts in extras for a in starts):
        if arr.shape[0] != dim:
            raise ValueError(f"extra start has dimension {arr.shape[0]}, expected {dim}")
    f = _Counted(objectives, shape)
    tops = _scan_lattice(f, dim, default_grid(dim), _STARTS)
    starts, owner = [], []
    for w, ((_, top_pts), more) in enumerate(zip(tops, extras)):
        mine = {}
        for r in list(top_pts) + more:
            # The same start up to relabelling U: its rows, rounded, sorted.
            rows = np.round(r.reshape(shape), 12).tolist()
            mine.setdefault(tuple(sorted(map(tuple, rows))), r)
        starts += mine.values()
        owner += [w] * len(mine)
    owner = np.array(owner)
    S, V = _refine(f, owner, np.array(starts))
    results = []
    for w, (top_vals, top_pts) in enumerate(tops):
        cand_vals = np.concatenate([top_vals[:1], V[owner == w]])
        best = int(np.argmax(cand_vals))
        point = top_pts[0] if best == 0 else S[owner == w][best - 1]
        value = float(cand_vals[best])
        check = float(f(point[None], w)[0])
        if abs(check - value) > 1e-12:
            raise AssertionError(f"optimizer value {value} failed re-evaluation ({check})")
        results.append(OptResult(point.reshape(shape), value, int(f.evals[w])))
    return results


def maximize_simplex(objective, dim: int, extra_starts=()) -> OptResult:
    """Global maximum of a vectorized objective over the dim-simplex.

    The joint search (maximize_joints) on one-row joints: the best of (a)
    an exhaustive lattice scan at default_grid(dim) and (b) pairwise-exchange
    ascent from the 8 best lattice points plus any extra_starts (less
    duplicates). Deterministic. Raises ValueError on a NaN objective value
    and RuntimeError on an ascent that exhausts its budget.
    """
    (res,) = maximize_joints([lambda P: objective(P[..., 0, :])], (1, dim), [extra_starts])
    return OptResult(res.argmax.reshape(dim), res.value, res.evaluations)


def maximize_joint(
    objective,
    dims: tuple[int, int],
    extra_starts=(),
) -> OptResult:
    """Global maximum over joint mass functions on a u_size x x_size grid.

    Lattice scan, then ascent on the flattened simplex. The objective must
    be invariant under relabeling of the first coordinate: ascent starts
    are deduplicated up to a permutation of its rows, and a step moves mass
    into only the first of a start's empty rows.
    """
    return maximize_joints([objective], dims, [extra_starts])[0]


def _slope(q, dq, C, blocks, t):
    """d/dt of sum_k c_k H(q_k + t dq_k) in bits, dq summing to 0 per block."""
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(dq != 0.0, -np.log2(np.maximum(q + t[:, None] * dq, 0.0)) * dq, 0.0)
        return sum(np.where(C[:, k] > 0.0, C[:, k] * term[:, a:b].sum(axis=1), 0.0) for k, (a, b) in enumerate(blocks))


def _newton_directions(p, g, cells, C, same):
    """Newton directions d with sum d = 0 on the face {p_x > _FACE}, for the
    gradient g there. The Hessian -sum_k c_k [f_k(x) = f_k(x')] / (q_k ln 2)
    is scaled to a unit diagonal, whose pseudo-inverse skips only the flat
    directions of inputs with equal images."""
    W, n = p.shape
    face = p > _FACE
    hess = -sum(same[k] * (C[:, k, None] / np.where(face, cells[..., k], 1.0))[:, :, None] for k in range(C.shape[1]))
    u = np.where(face, 1.0 / np.sqrt(-np.diagonal(hess, axis1=1, axis2=2)), 0.0)
    kkt = np.zeros((W, n + 1, n + 1))
    kkt[:, :n, :n] = u[:, :, None] * hess / math.log(2.0) * u[:, None, :]
    kkt[:, :n, n] = kkt[:, n, :n] = u
    rhs = np.append(-u * g, np.zeros((W, 1)), axis=1)
    d = u * (np.linalg.pinv(kkt, hermitian=True) @ rhs[..., None])[:, :n, 0]
    # The solve meets sum d = 0 only to its conditioning; keep the mass.
    d[np.arange(W), p.argmax(axis=1)] -= d.sum(axis=1)
    return d


def maximize_pushforward_entropies(indicator, blocks, coeffs) -> list[OptResult]:
    """Maximum over input laws p of sum_k c_k H(p @ A_k) at each row c of
    coeffs (W x K), one OptResult per row; A_k is the column block
    blocks[k] = (start, stop) of the 0/1 indicator, one 1 per row in each.

    Coefficients must be non-negative (above -1e-12, which counts as 0), so
    the objective is concave and bounded, for any full-support q_k, by
    max_x sum_k c_k (-log2 q_k[f_k(x)]) (Gallager's dual bound). A row stops
    once the least such bound, q its pushforwards mixed with a share of
    uniform in _MIXES, exceeds its value by at most GAP_TOLERANCE. From the
    uniform law it takes Newton steps, or pairwise Frank-Wolfe steps (from
    the lowest-scoring input with mass to the highest-scoring one) when
    either is off the Newton face or Newton does not ascend, each with an
    exact line search. Each result, evaluation count included, is that of
    a one-row call; a row not certified in _BUDGET iterations raises
    RuntimeError.
    """
    C = np.asarray(coeffs, dtype=float).reshape(-1, len(blocks))
    if (C < -1e-12).any():
        raise ValueError(f"coefficients must be non-negative, min entry {C.min()}")
    C = np.maximum(C, 0.0)
    idx = np.stack([a + np.argmax(indicator[:, a:b], axis=1) for a, b in blocks], axis=1)
    same = [idx[:, k, None] == idx[:, k] for k in range(len(blocks))]
    share = _MIXES[:, None, None, None]
    uniform = share / np.array([b - a for a, b in blocks])
    P = np.full((len(C), len(indicator)), 1.0 / len(indicator))
    value, evals, live = np.zeros(len(C)), np.zeros(len(C), dtype=np.int64), np.arange(len(C))
    for it in range(_BUDGET + 1):
        p, c = P[live], C[live]
        q = pushforward(p, indicator)
        value[live] = v = combine(block_entropies(q, blocks), c)
        evals[live] += 1
        # sum_k c_k (-log2 q_k[f_k(x)]) per share, row and input x; an empty
        # cell adds +inf where c_k > 0 and nothing where c_k = 0.
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(c[:, None] > 0.0, c[:, None] * -np.log2((1.0 - share) * q[:, idx] + uniform), 0.0)
        scores = sum(terms[..., k] for k in range(len(blocks)))
        open_ = ~(scores.max(axis=2).min(axis=0) - v <= GAP_TOLERANCE)
        live, p, c, q, s, s0 = live[open_], p[open_], c[open_], q[open_], scores[0, open_], scores[1, open_]
        if live.size == 0:
            break
        if it == _BUDGET:
            raise RuntimeError(f"coefficient rows {C[live].tolist()} not certified within {_BUDGET} iterations")
        best, worst = s.argmax(axis=1), np.where(p > 0.0, s0, np.inf).argmin(axis=1)
        g = np.where(p > _FACE, s0, 0.0)
        d = _newton_directions(p, g, q[:, idx], c, same)
        ends = np.take_along_axis(p, np.stack((best, worst), axis=1), axis=1)
        fw = (ends <= _FACE).any(axis=1) | ((g * d).sum(axis=1) <= 0.0)
        d[fw] = np.eye(len(indicator))[best[fw]] - np.eye(len(indicator))[worst[fw]]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_max = np.where(d < 0.0, p / -d, np.inf).min(axis=1)
        dq = pushforward(d, indicator)
        lo, hi = np.zeros(live.size), t_max
        for _ in range(_BISECT):
            mid = 0.5 * (lo + hi)
            up = _slope(q, dq, c, blocks, mid) > 0.0
            lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        evals[live] += _BISECT
        # A root within resolution of t_max is t_max: no cell keeps a sliver.
        step = np.maximum(p + np.where(hi == t_max, t_max, lo)[:, None] * d, 0.0)
        P[live] = step / step.sum(axis=1, keepdims=True)
    return [OptResult(P[w], float(value[w]), int(evals[w])) for w in range(len(C))]
