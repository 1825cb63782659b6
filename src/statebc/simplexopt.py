"""Deterministic maximization over probability simplices.

maximize_joint takes any vectorized objective over joint laws p(u, x) that
ignores the labels of U: an exhaustive scan of the rational lattice
{k/m : sum k = m}, then local ascent seeded from the best lattice points.
The scan values one joint per orbit under permutations of U's rows, built
from the partitions of m, and keeps the best orbits, as many as hold the
best 8 joints; their representatives seed the ascent. An objective that
scores a kept representative's cyclic shifts of U's rows away from it
raises RuntimeError. The ascent repeatedly moves mass
from one coordinate i to another j, a pair of indices: a golden-section line
search on every distinct pair picks the best move, so simplex feasibility is
preserved exactly. Each line search values its two interior points once and
then one new point per step, iters + 2 probes in all. A joint's moves into
its spare empty U rows are not distinct. maximize_simplex is the same search
on one-row joints.

maximize_pushforward_entropies solves the concave case, many coefficient rows
at once, each to a certified gap, and returns the certified upper bound with
each value.

Everything is deterministic. Every lattice streams in blocks of at most
_BLOCK_BYTES: iter_lattice unranks its points by stars and bars in
ascending lexicographic order; the scan streams its orbits; each ascent
step streams its line searches. The scan keeps its best orbits by value
with ties toward the earlier orbit and values the same points whatever the
block size; candidate comparisons elsewhere use first-maximum semantics.

Objectives must be vectorized: they take an array whose trailing axis (for
maximize_simplex) or trailing two axes (for maximize_joint) hold the
distribution, and return values over the leading axes. A bare 1-D (or 2-D
joint) input must yield a scalar. One with `cells` is probed by _cell_probe,
from the two cells per block that a move changes, laid out cell-major.
A start's path depends on that start alone, never on the batch it is
searched in.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .infotheory import block_entropies, pushforward, xlogx

_BLOCK_BYTES = 256 * 1024
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_ITERS = 24
# How far (bits) a lattice point may score from its orbit's representative,
# the same joint with U's rows permuted: far above rounding, far below any
# real gap.
_ORBIT_MARGIN = 1e-9

# maximize_joint: the best lattice points whose orbits seed the ascent, its
# iteration budget, and the gain (bits) below which a start stops moving.
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
    objective evaluations spent: the lattice scan's orbit representatives
    and the u - 1 cyclic shifts of U's rows of each one it kept, then the
    ascent's. bound is an upper bound on the maximum (bits): the dual bound
    certified by maximize_pushforward_entropies, inf from the joint search,
    which certifies none."""

    argmax: np.ndarray
    value: float
    evaluations: int
    bound: float = math.inf


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
    TAOCP 4A, 7.2.1.3) position-major. A block's ranks are consecutive, so
    its top position c_k steps only where they cross a C(c, k) and is
    filled by runs; each lower position takes one searchsorted. A block of
    bars is its transposed position differences, a Fortran-ordered view."""
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
        # The subset's positions, ascending, between a -1 and a `slots` row.
        cuts = np.empty((k + 2, rank.size), dtype=np.int32)
        cuts[0], cuts[-1] = -1, slots
        for i in range(k, 1, -1):
            if i == k:
                first, last = (rank[0], rank[-1]) if stars else (rank[-1], rank[0])
                lo, hi = comb[k].searchsorted((first, last), side="right") - 1
                edges = np.concatenate(((first,), comb[k][lo + 1 : hi + 1], (last + 1,)))
                c = np.arange(lo, hi + 1).repeat(edges[1:] - edges[:-1])[:: 1 if stars else -1]
            else:
                c = np.searchsorted(comb[i], rank, side="right") - 1
            rank -= comb[i][c]
            cuts[k + 1 - i] = slots - 1 - c
        if k:
            # C(c, 1) = c, so the rank left is c_1 itself.
            cuts[k] = slots - 1 - rank
        if stars:
            # Star j (0-based) lies in part cuts[j + 1] - j.
            part = np.arange(rank.size) * dim + cuts[1:-1] - np.arange(k)[:, None]
            yield np.bincount(part.ravel(), minlength=rank.size * dim).reshape(rank.size, dim).astype(np.int32)
        else:
            yield (cuts[1:] - cuts[:-1] - 1).T


def combine(features, coeffs):
    """sum_k coeffs[..., k] * features[k], added elementwise in k order.

    No BLAS reduction is involved, so a value depends only on its own
    features and coefficients, never on the batch around it."""
    out = coeffs[..., 0] * features[0]
    for k in range(1, len(features)):
        out = out + coeffs[..., k] * features[k]
    return out


class _Counted:
    """An objective over points of `shape`, called on flat stacks of those
    points, with the points it evaluates counted in evals; cells and coeffs
    are the objective's own, None when it has none. A call raises unless it
    gets one value per point, none of them NaN."""

    def __init__(self, objective, shape: tuple):
        self.objective, self.shape, self.evals = objective, shape, 0
        self.cells, self.coeffs = getattr(objective, "cells", None), getattr(objective, "coeffs", None)

    def __call__(self, P: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.objective(P.reshape(P.shape[:-1] + self.shape)), dtype=float)
        if vals.shape != P.shape[:1]:
            raise ValueError("objective must return one value per input point")
        if (nan := np.isnan(vals)).any():
            raise ValueError(f"objective returned NaN at point {P[nan.argmax()].tolist()}")
        self.evals += vals.size
        return vals


def _partitions(m: int, most: int, parts: int):
    """Partitions of m into at most `parts` parts of at most `most` each,
    parts in descending order."""
    if m == 0:
        yield ()
        return
    for first in range(min(m, most), 0, -1) if parts else ():
        for rest in _partitions(m - first, first, parts - 1):
            yield (first, *rest)


def _orbit_pieces(m: int, u: int, n: int, cap: int):
    """_iter_orbits' (reps, sizes), partition by partition of m: the
    one-row points, partition (m), in iter_lattice(m, n)'s blocks, then
    each other partition's in pieces of at most cap points."""
    for block in iter_lattice(m, n):
        yield np.pad(block, ((0, 0), (0, (u - 1) * n))), np.full(len(block), u, dtype=np.int64)
    rows = {}
    for parts in _partitions(m, m - 1, u):
        sums = sorted(set(parts), reverse=True)
        # Each part size's multisets of rows, as ascending index tuples, and
        # the product of their multiplicities' factorials.
        picks, divs = [], []
        for s in sums:
            if s not in rows:
                rows[s] = np.vstack(list(iter_lattice(s, n)))
            t = np.array(list(itertools.combinations_with_replacement(range(len(rows[s])), parts.count(s))))
            run, div = np.ones(len(t), dtype=np.int64), np.ones(len(t), dtype=np.int64)
            for j in range(1, t.shape[1]):
                run = np.where(t[:, j] == t[:, j - 1], run + 1, 1)
                div *= run
            picks.append(t)
            divs.append(div)
        counts = [len(t) for t in picks]
        for start in range(0, math.prod(counts), cap):
            idx = np.unravel_index(np.arange(start, min(start + cap, math.prod(counts))), counts)
            reps = np.zeros((idx[0].size, u, n), dtype=np.int32)
            sizes = np.full(idx[0].size, math.perm(u, len(parts)), dtype=np.int64)
            col = 0
            for s, t, div, i in zip(sums, picks, divs, idx):
                reps[:, col : col + t.shape[1]] = rows[s][t[i]]
                sizes //= div[i]
                col += t.shape[1]
            yield reps.reshape(len(reps), -1), sizes


def _iter_orbits(m: int, u: int, n: int):
    """Yield int blocks (reps, sizes) jointly covering every orbit of the
    (u, n) joint lattice of denominator m under permutations of U's rows
    exactly once: reps holds a flat point of each, sizes its number of
    distinct points. A point's k non-empty rows come first, by descending
    row sum, rows of equal sum drawn as a multiset from iter_lattice(s, n)
    in ascending order, so identical rows are adjacent; its orbit has
    u! / ((u - k)! prod mult!) points, mult the multiplicity of each row.
    Blocks hold _BLOCK_BYTES of points (at least one); only the last is
    shorter."""
    cap = max(1, _BLOCK_BYTES // (u * n * np.dtype(np.int32).itemsize))
    reps, sizes = np.empty((0, u * n), dtype=np.int32), np.empty(0, dtype=np.int64)
    for more, more_sizes in _orbit_pieces(m, u, n, cap):
        reps, sizes = np.vstack((reps, more)), np.concatenate((sizes, more_sizes))
        while len(reps) >= cap:
            yield reps[:cap], sizes[:cap]
            reps, sizes = reps[cap:], sizes[cap:]
    if len(reps):
        yield reps, sizes


def _scan_lattice(f: _Counted, dim: int, m: int, top_k: int):
    """f's best orbit representatives, as (values, points), ranked by value
    with ties toward the earlier orbit of _iter_orbits, up to the first at
    which their orbits' sizes reach top_k: the orbits that hold its top_k
    lattice points. The objective must be invariant under permutations of
    U's rows, so each orbit is valued once, at its rep, and what is kept
    does not depend on where the blocks break. Each kept rep is then valued
    under every cyclic shift of U's rows; one more than _ORBIT_MARGIN off
    its rep's value raises RuntimeError."""
    u, n = f.shape
    held = np.empty(0), np.empty((0, dim), dtype=np.int32), np.empty(0, dtype=np.int64)
    for reps, sizes in _iter_orbits(m, u, n):
        vals, r, z = (np.concatenate(x) for x in zip(held, (f(reps / m), reps, sizes)))
        order = np.argsort(-vals, kind="stable")
        order = order[: np.searchsorted(np.cumsum(z[order]), top_k) + 1]
        held = vals[order], r[order], z[order]
    vals, pts = held[0], held[1] / m
    if u > 1:
        # Copy k - 1 of a rep moves its row i to row i + k (mod u).
        shifts = (np.arange(u) - np.arange(1, u)[:, None]) % u
        copies = pts.reshape(-1, u, n)[:, shifts].reshape(-1, dim)
        got = f(copies)
        if (off := np.abs(got - np.repeat(vals, u - 1))).max() > _ORBIT_MARGIN:
            k = off.argmax()
            raise RuntimeError(
                f"point {copies[k].tolist()} scores {got[k]}, {off[k]} off its orbit's value:"
                " the objective is not invariant under permutations of U's rows"
            )
    return vals, pts


def _move(S, t, i, j):
    """Rows of S with mass t[k] moved from coordinate i[k] to j[k], clipped
    at 0: bit for bit S + t * (e_j - e_i), since adding t * 0.0 leaves a
    non-negative entry unchanged and t * -1.0 is exact."""
    out, k = S.copy(), np.arange(len(S))
    out[k, i] -= t
    out[k, j] += t
    return np.maximum(out, 0.0)


def _cell_probe(f: _Counted, S, V, r, i, j):
    """Values of moving mass t from coordinate i to j of row r of S (value V)
    for objectives sum_k coeffs[k] H(q_k) with `cells`:
    only cells[i, k] and cells[j, k] of each q_k change. probe(t) takes any
    whole number of n-entry step vectors, as _golden_polish stacks them, and
    counts one evaluation per step. The two cells' masses, weights and old
    terms are held cell-major, each block's entries contiguous, and each
    step vector is valued through buffers made once per call here. A row's
    pushforwards are summed in coordinate order, without BLAS, and each
    entry's block terms in block order from +0.0, the order in which numpy
    sums fewer than 8 terms: the values are bit for bit those of the
    entry-major .sum(axis=-1), and a row's do not depend on the other rows
    of S."""
    cells = f.cells
    n_cells = cells.max() + 1
    bins = np.arange(len(S))[:, None, None] * n_cells + cells
    q = np.bincount(bins.ravel(), np.repeat(S, cells.shape[1], axis=1).ravel(), len(S) * n_cells).reshape(len(S), n_cells)
    ci, cj = cells[i].T, cells[j].T
    qa, qb, w = q[r, ci], q[r, cj], np.where(ci != cj, f.coeffs[:, None], 0.0)
    v, before = V[r], xlogx(qa) + xlogx(qb)
    p, term, other = np.empty_like(qa), np.empty_like(qa), np.empty_like(qa)

    def probe(t):
        t = t.reshape(-1, len(r))
        f.evals += t.size
        out = np.empty(t.shape)
        for step, sums in zip(t, out):
            np.subtract(qa, step, out=p)
            xlogx(p, out=term)
            np.add(qb, step, out=p)
            xlogx(p, out=other)
            np.add(term, other, out=term)
            np.subtract(term, before, out=term)
            np.multiply(term, w, out=term)
            np.add(term[0], 0.0, out=sums)
            for block in term[1:]:
                sums += block
            np.subtract(v, sums, out=sums)
        return out.ravel()

    return probe


def _move_probe(f: _Counted, base, i, j):
    """Full values of moving mass t from coordinate i to j of each row of
    base, for any whole number of n-entry step vectors t, n the rows of
    base."""

    def probe(t):
        k = t.size // len(base)
        return f(_move(np.tile(base, (k, 1)), t, np.tile(i, k), np.tile(j, k)))

    return probe


def _golden_polish(probe, hi, iters: int):
    """Per-row golden-section maximum on [0, hi] of a line's values, where
    probe(t) values a stack of n-point step vectors, one step per row in
    each. The first call values both interior points of every row; each of
    the iters steps after it shrinks the bracket, keeps the surviving
    point's value and values only the new point (Kiefer 1953): iters + 2
    probes per row. Both interior points are recomputed from the bracket,
    so every probe lands where a search valuing both points at each step
    would probe; the survivor's value is that of its previous position, the
    same point up to rounding. Returns the best (t, value) probed, ties
    toward the earlier probe and, in the first call, toward the lower
    point. Objectives evaluate rows independently, so the values are those
    of separate calls."""
    n = hi.shape[0]
    a = np.zeros(n)
    b = hi.astype(float)
    best_t = np.zeros(n)
    best_v = np.full(n, -np.inf)
    width = _GOLDEN * (b - a)
    x1, x2 = b - width, a + width
    f1, f2 = probe(np.concatenate((x1, x2))).reshape(2, n)
    for x, fx in ((x1, f1), (x2, f2)):
        best_t = np.where(fx > best_v, x, best_t)
        np.maximum(best_v, fx, out=best_v)
    for _ in range(iters):
        go_right = f2 > f1
        a = np.where(go_right, x1, a)
        b = np.where(go_right, b, x2)
        # Arithmetic into the buffers; the selections stay np.where, since a
        # masked copy branches on these masks (twice as slow at 3,276 entries).
        np.multiply(np.subtract(b, a, out=width), _GOLDEN, out=width)
        np.subtract(b, width, out=x1)
        np.add(a, width, out=x2)
        # Going right, the old x2 is the new x1 up to rounding and keeps its
        # value; going left, the old x1 is the new x2.
        x = np.where(go_right, x2, x1)
        fx = probe(x)
        best_t = np.where(fx > best_v, x, best_t)
        np.maximum(best_v, fx, out=best_v)
        f1, f2 = np.where(go_right, f2, fx), np.where(go_right, fx, f1)
    return best_t, best_v


def _full_pair_polish(f: _Counted, S, V, rows, i_idx, j_idx, step_tolerance, iters):
    """One ascent step for the given state rows: a golden-section line
    search over every distinct pair p, moving
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
            probe = _cell_probe(f, S[span], V[span], r - r[0], i_idx[pair], j_idx[pair])
        else:
            probe = _move_probe(f, S[rows[r]], i_idx[pair], j_idx[pair])
        t_g, v_g = _golden_polish(probe, hi, iters)
        # Each row's first best entry in this chunk.
        first = np.lexsort((-v_g, r))[np.flatnonzero(np.diff(r, prepend=-1))]
        up = first[v_g[first] > best_v[r[first]]]
        best_t[r[up]], best_v[r[up]], best_p[r[up]] = t_g[up], v_g[up], pair[up]
    moved = best_v > V[rows] + step_tolerance
    s, p = rows[moved], best_p[moved]
    step, v_s = _move(S[s], best_t[moved], i_idx[p], j_idx[p]), best_v[moved]
    if cells and s.size:
        full = f(step)
        if (off := np.abs(full - v_s)).max() > 1e-9:
            raise RuntimeError(f"move to {step[off.argmax()].tolist()} scores {full[off.argmax()]}, probe {v_s[off.argmax()]}")
        moved[moved] = keep = full > V[s] + step_tolerance
        s, step, v_s = s[keep], step[keep], full[keep]
    S[s], V[s] = step, v_s
    return moved


def _refine(f: _Counted, starts: np.ndarray):
    """Two-phase refinement: ascend every start at a coarse tolerance with
    short line searches, then only the leaders (within 1e-4 bits of the
    best, at most three) at _STEP_TOLERANCE. Laggard starts cannot win, so
    the tail cost is spent where it matters."""
    S, V = _ascend(f, starts, 1e-6, 12)
    # Best first, ties in start order.
    lead = np.argsort(-V, kind="stable")[:3]
    lead = lead[V[lead] >= V[lead[0]] - 1e-4]
    S[lead], V[lead] = _ascend(f, S[lead], _STEP_TOLERANCE, _GOLDEN_ITERS)
    # Renormalize accumulated float drift exactly onto the simplex, then
    # re-evaluate so returned values match returned points.
    S = S / S.sum(axis=1, keepdims=True)
    return S, f(S)


def _ascend(f: _Counted, starts: np.ndarray, step_tolerance: float, golden_iters: int):
    """Pairwise-exchange ascent, batched over start points: each iteration
    moves every active start along its best pair (_full_pair_polish), and a
    start stops once no pair gains more than step_tolerance. A start's path
    depends on its own state alone. A start still moving after
    _ASCENT_BUDGET iterations raises RuntimeError."""
    S = np.array(starts, dtype=float)
    V = f(S)
    i_idx, j_idx = np.nonzero(~np.eye(S.shape[1], dtype=bool))
    active = np.arange(S.shape[0])
    for _ in range(_ASCENT_BUDGET):
        active = active[_full_pair_polish(f, S, V, active, i_idx, j_idx, step_tolerance, golden_iters)]
        if active.size == 0:
            return S, V
    start = starts[active[0]].tolist()
    raise RuntimeError(f"ascent from {start} still moving after {_ASCENT_BUDGET} iterations")


def maximize_simplex(objective, dim: int, extra_starts=()) -> OptResult:
    """Global maximum of a vectorized objective over the dim-simplex.

    The joint search (maximize_joint) on one-row joints: the best of (a)
    an exhaustive lattice scan at default_grid(dim) and (b) pairwise-exchange
    ascent from the 8 best lattice points plus any extra_starts (less
    duplicates); on one row each point is its own orbit. Deterministic. Raises ValueError on a NaN objective value
    and RuntimeError on an ascent that exhausts its budget.
    """
    res = maximize_joint(lambda P: objective(P[..., 0, :]), (1, dim), extra_starts)
    return OptResult(res.argmax.reshape(dim), res.value, res.evaluations)


def maximize_joint(objective, dims: tuple[int, int], extra_starts=()) -> OptResult:
    """Global maximum over joint mass functions on a u_size x x_size grid.

    Lattice scan (_scan_lattice), then ascent (_refine) on the flattened
    simplex. The objective must be invariant under relabeling of the first
    coordinate: the scan values one joint per orbit of its rows'
    permutations, the ascent starts from the representatives of the best
    orbits, as many as hold the 8 best joints, and from extra_starts, less
    those whose rows, rounded and sorted, an earlier start has, and a step
    moves mass into only the first of a start's empty rows. A kept
    representative whose cyclic shift of rows scores more than
    _ORBIT_MARGIN off it raises RuntimeError.
    """
    shape = (int(dims[0]), int(dims[1]))
    if min(shape) < 1:
        raise ValueError(f"dimensions must be positive integers, got {shape}")
    dim = math.prod(shape)
    if dim == 1:
        return OptResult(np.ones(shape), float(objective(np.ones(shape))), 1)
    extras = [np.asarray(s, dtype=float).reshape(-1) for s in extra_starts]
    for arr in extras:
        if arr.shape[0] != dim:
            raise ValueError(f"extra start has dimension {arr.shape[0]}, expected {dim}")
    f = _Counted(objective, shape)
    top_vals, top_pts = _scan_lattice(f, dim, default_grid(dim), _STARTS)
    starts = {}
    for r in list(top_pts) + extras:
        # The same start up to relabelling U: its rows, rounded, sorted.
        rows = np.round(r.reshape(shape), 12).tolist()
        starts.setdefault(tuple(sorted(map(tuple, rows))), r)
    S, V = _refine(f, np.array(list(starts.values())))
    cand_vals = np.concatenate([top_vals[:1], V])
    best = int(np.argmax(cand_vals))
    point = top_pts[0] if best == 0 else S[best - 1]
    value = float(cand_vals[best])
    check = float(f(point[None])[0])
    if abs(check - value) > 1e-12:
        raise AssertionError(f"optimizer value {value} failed re-evaluation ({check})")
    return OptResult(point.reshape(shape), value, f.evals)


def _line_slope(q, dq, C, blocks):
    """slope(t): d/dt of sum_k c_k H(q_k + t dq_k) in bits at each row's t, dq
    summing to 0 per block, its masks, -dq and work buffer made once per solver
    iteration. An emptied cell's log2(0) and its products are masked out, so
    callers silence divide and invalid warnings; a masked-out term is an added 0,
    as the total is never -0. log2(y) * -dq is -log2(y) * dq: negation is exact."""
    flat, neg, work = dq == 0.0, -dq, np.empty_like(dq)
    parts = [(a, b, C[:, k], C[:, k] > 0.0) for k, (a, b) in enumerate(blocks)]

    def slope(t):
        np.multiply(t[:, None], dq, out=work)
        np.maximum(np.add(q, work, out=work), 0.0, out=work)
        np.multiply(np.log2(work, out=work), neg, out=work)
        np.copyto(work, 0.0, where=flat)
        total = np.zeros(len(t))
        for a, b, c, on in parts:
            np.add(total, np.multiply(c, np.add.reduce(work[:, a:b], axis=1)), out=total, where=on)
        return total

    return slope


def _bisect(slope, t_max):
    """(lo, hi) after _BISECT halvings of [0, t_max] on slope's sign, in place; t_max stays."""
    lo, hi, mid = np.zeros(t_max.size), t_max.copy(), np.empty(t_max.size)
    for _ in range(_BISECT):
        np.multiply(np.add(lo, hi, out=mid), 0.5, out=mid)
        up = slope(mid) > 0.0
        np.copyto(lo, mid, where=up)
        np.copyto(hi, mid, where=~up)
    return lo, hi


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

    Coefficients must be finite and above -1e-12 (which counts as 0), so
    the objective is concave and bounded, for any full-support q_k, by
    max_x sum_k c_k (-log2 q_k[f_k(x)]) (Gallager's dual bound). A row stops
    once the least such bound, q its pushforwards mixed with a share of
    uniform in _MIXES, exceeds its value by at most GAP_TOLERANCE, and
    returns that bound as its result's bound. From the
    uniform law it takes Newton steps, or pairwise Frank-Wolfe steps (from
    the lowest-scoring input with mass to the highest-scoring one) when
    either is off the Newton face or Newton does not ascend, each with an
    exact line search: _BISECT bisections (_bisect) of a slope made once per
    iteration (_line_slope). Each result, evaluation count included, is that
    of a one-row call; a row not certified in _BUDGET iterations raises
    RuntimeError, and one with a NaN, infinite or negative entry ValueError.
    """
    C = np.asarray(coeffs, dtype=float).reshape(-1, len(blocks))
    if (bad := ~((C >= -1e-12) & (C < math.inf)).all(axis=1)).any():
        raise ValueError(f"coefficients must be finite and non-negative, row {C[bad.argmax()].tolist()}")
    C = np.maximum(C, 0.0)
    idx = np.stack([a + np.argmax(indicator[:, a:b], axis=1) for a, b in blocks], axis=1)
    same = [idx[:, k, None] == idx[:, k] for k in range(len(blocks))]
    share = _MIXES[:, None, None, None]
    uniform = share / np.array([b - a for a, b in blocks])
    P = np.full((len(C), len(indicator)), 1.0 / len(indicator))
    value, bound = np.zeros(len(C)), np.zeros(len(C))
    evals, live = np.zeros(len(C), dtype=np.int64), np.arange(len(C))
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
        bound[live] = scores.max(axis=2).min(axis=0)
        open_ = ~(bound[live] - v <= GAP_TOLERANCE)
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
        dq = pushforward(d, indicator)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_max = np.where(d < 0.0, p / -d, np.inf).min(axis=1)
            lo, hi = _bisect(_line_slope(q, dq, c, blocks), t_max)
        evals[live] += _BISECT
        # A root within resolution of t_max is t_max: no cell keeps a sliver.
        step = np.maximum(p + np.where(hi == t_max, t_max, lo)[:, None] * d, 0.0)
        P[live] = step / step.sum(axis=1, keepdims=True)
    return [OptResult(P[w], float(value[w]), int(evals[w]), float(bound[w])) for w in range(len(C))]
