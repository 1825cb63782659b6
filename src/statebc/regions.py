"""Capacity region computation for the two-component state-switched
broadcast channel.

Two independent constructions are provided. The primary (dual) one samples
the support function max(R1 + lambda*R2) over the region, using the exact
piecewise reduction of the weighted-sum maximization to four single-letter
objectives over the input law, and intersects the resulting half-planes.
The primal cross-check sweeps argmax input laws and takes hulls of the
per-law rate rectangles (proposition_regions and primed_regions).

Rates are in bits. All operations other than capacity_polygon require a
canonical spec (p1 >= p2).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import (
    ChannelSpec,
    _as_int,
    _lattice_entropies,
    canonicalize,
    component_entropies,
    require_canonical,
    stacked_indicator,
)
from .simplexopt import _BLOCK_BYTES, combine, iter_lattice, lattice_size, maximize_pushforward_entropies

CASE_R1 = "R1"
CASE_R2 = "R2"
CASE_R3 = "R3"
CASE_R4 = "R4"

_HULL_TOL = 1e-9
# r1 bins of pareto_front's prefilter.
_PARETO_BINS = 2048
# halfplane_vertices' slack on each offset; primed_regions' default px grid is
# the largest denominator up to _PX_GRID_CAP with at most _PX_GRID_BUDGET laws.
_FEAS_TOL = 1e-9
_PX_GRID_BUDGET = 2_000_000
_PX_GRID_CAP = 4096


class RatePair(NamedTuple):
    r1: float
    r2: float


@dataclass(frozen=True)
class RegionPolygon:
    """Closed convex polygon in (R1, R2) rate space.

    Vertices are counter-clockwise starting from the lexicographically
    smallest vertex; the closing edge back to the first vertex is implicit.
    Degenerate regions (a segment or a single point) keep the same shape.
    """

    vertices: tuple[RatePair, ...]
    label: str


class SupportSample(NamedTuple):
    lam: float
    value: float
    upper: float
    case_id: str
    argmax_px: tuple[float, ...]


@dataclass(frozen=True)
class SupportCurve:
    """Sampled support function lambda -> max(R1 + lambda*R2) with its
    certified upper bound, the case taken and the maximizing input law at
    each sample."""

    samples: tuple[SupportSample, ...]


def format_number(x: float) -> str:
    """Nine significant digits, locale independent, no negative zero."""
    v = float(x)
    if v == 0.0:
        v = 0.0
    return f"{v:.9g}"


# ---------------------------------------------------------------------------
# polygon geometry
# ---------------------------------------------------------------------------

def _unique(a: np.ndarray) -> np.ndarray:
    """np.unique(a) of a 1-D array, or np.unique(a, axis=0) of a 2-D one
    (rows by their first column, then the next): a stable sort and a
    neighbour mask. Of rows equal but for the sign of a zero it keeps the
    first in input order, where np.unique keeps any; NaNs stay apart.
    np.unique itself imports numpy.ma on first use, ~11 ms of a command's
    fixed cost."""
    s = np.sort(a, kind="stable") if a.ndim == 1 else a[np.lexsort(a.T[::-1])]
    keep = np.ones(len(s), dtype=bool)
    keep[1:] = s[1:] != s[:-1] if a.ndim == 1 else (s[1:] != s[:-1]).any(axis=1)
    return s[keep]


def convex_hull(points, tol: float = _HULL_TOL) -> np.ndarray:
    """Convex hull of 2-D points, counter-clockwise, collinear points dropped
    (monotone chain with cross-product tolerance `tol`). Raises ValueError
    on a coordinate that is not finite."""
    pts = np.asarray(points, dtype=float)
    if not np.isfinite(pts).all():
        raise ValueError("convex_hull needs finite coordinates")
    pts = _unique(pts.round(12))
    if pts.shape[0] <= 2:
        return pts

    def chain(xs, ys):
        # The chain so far, its x and y coordinates in two lists.
        hx, hy = [], []
        for x, y in zip(xs, ys):
            n = len(hx)
            while n >= 2:
                ax, ay = hx[n - 2], hy[n - 2]
                if (hx[n - 1] - ax) * (y - ay) - (hy[n - 1] - ay) * (x - ax) <= tol:
                    hx.pop()
                    hy.pop()
                    n -= 1
                else:
                    break
            hx.append(x)
            hy.append(y)
        return hx[:-1], hy[:-1]

    xs, ys = pts[:, 0].tolist(), pts[:, 1].tolist()
    (lx, ly), (ux, uy) = chain(xs, ys), chain(xs[::-1], ys[::-1])
    return np.column_stack((lx + ux, ly + uy))


def make_polygon(points, label: str, tol: float = _HULL_TOL) -> RegionPolygon:
    hull = convex_hull(points, tol=tol)
    verts = tuple(RatePair(x, y) for x, y in hull.tolist())
    return RegionPolygon(vertices=verts, label=label)


def _bin_filter(above, x, y, lo, scale):
    """Raise above (_PARETO_BINS + 2 suffix maxima of r2 by r1 bin, the last
    -inf) by the points (x, y) not below a higher bin's r2, in bins (x - lo) *
    scale floored and clipped at _PARETO_BINS, and return those still not:
    the rest, strictly dominated, raise no suffix maximum (bins rise with r1)."""
    bins = np.minimum((x - lo) * scale, _PARETO_BINS).astype(np.intp)
    kept = np.flatnonzero(y >= above[1:][bins])
    if kept.size:
        np.maximum.at(above, bins[kept], y[kept])
        np.maximum.accumulate(above[::-1], out=above[::-1])
        kept = kept[y[kept] >= above[1:][bins[kept]]]
    return kept


def pareto_front(points) -> np.ndarray:
    """Points not dominated coordinatewise by any other point, one copy of
    each, by descending r1; -0.0 is read as 0.0. Raises ValueError on a
    coordinate that is not finite.

    For clouds in the non-negative quadrant this superset of the upper-right
    hull arc is exact: every hull vertex with an outward normal in the first
    quadrant is Pareto optimal. Vectorized, so huge clouds reduce cheaply
    before the sequential hull pass. Before the sort, an exact prefilter
    (_bin_filter) cuts [min r1, max r1] into _PARETO_BINS bins, so the front
    is that of the sort alone.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    x, y = pts[:, 0] + 0.0, pts[:, 1] + 0.0
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("pareto_front needs finite coordinates")
    if x.size == 0:
        return pts
    # Python floats: a span or scale out of range is inf or 0.0, unwarned.
    lo, hi = float(x.min()), float(x.max())
    scale = _PARETO_BINS / (hi - lo) if hi > lo else 0.0
    if 0.0 < scale < math.inf:
        kept = _bin_filter(np.full(_PARETO_BINS + 2, -np.inf), x, y, lo, scale)
        x, y = x[kept], y[kept]
    order = np.argsort(-x)
    x, y = x[order], y[order]
    # Each run of tied r1, by descending r1, keeps its largest r2 if that
    # beats every run before it.
    runs = np.flatnonzero(np.diff(x, prepend=np.inf))
    top = np.maximum.reduceat(y, runs)
    keep = top > np.maximum.accumulate(np.concatenate([[-np.inf], top[:-1]]))
    return np.column_stack((x[runs[keep]], top[keep]))


def transpose_polygon(poly: RegionPolygon) -> RegionPolygon:
    """Swap the two rate axes (receiver relabeling)."""
    return make_polygon([(v.r2, v.r1) for v in poly.vertices], poly.label)


def polygon_support(poly: RegionPolygon, a: float, b: float) -> float:
    """max over the polygon of a*R1 + b*R2."""
    return max(a * v.r1 + b * v.r2 for v in poly.vertices)


def polygon_contains(poly: RegionPolygon, point, tol: float = 1e-9) -> bool:
    """Whether a point lies in the polygon within distance tolerance `tol`."""
    px, py = float(point[0]), float(point[1])
    verts = poly.vertices
    if len(verts) == 1:
        return math.hypot(px - verts[0].r1, py - verts[0].r2) <= tol
    if len(verts) == 2:
        return _segment_distance(verts[0], verts[1], (px, py)) <= tol
    for k in range(len(verts)):
        x1, y1 = verts[k]
        x2, y2 = verts[(k + 1) % len(verts)]
        ex, ey = x2 - x1, y2 - y1
        norm = math.hypot(ex, ey)
        if norm < 1e-15:
            continue
        if (ex * (py - y1) - ey * (px - x1)) / norm < -tol:
            return False
    return True


def _segment_distance(v1, v2, p) -> float:
    ax, ay = v1
    bx, by = v2
    px, py = p
    ex, ey = bx - ax, by - ay
    denom = ex * ex + ey * ey
    if denom < 1e-30:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * ex + (py - ay) * ey) / denom))
    return math.hypot(px - (ax + t * ex), py - (ay + t * ey))


def halfplane_vertices(constraints) -> np.ndarray:
    """Vertices of the polygon {x : a*x1 + b*x2 <= c for all (a, b, c)}.

    Exact pairwise line intersection followed by feasibility filtering; the
    input family must bound a non-empty region. The intersections are tested
    in blocks of at most _BLOCK_BYTES, first against every 16th half-plane,
    which most of them fail, then the survivors against all; each
    a*x1 + b*x2 is formed elementwise, so the points kept are those of one
    test of every point against every half-plane, whatever the blocks.
    """
    arr = np.asarray(constraints, dtype=float)
    a, b, c = arr[:, 0], arr[:, 1], arr[:, 2]
    i_idx, j_idx = np.triu_indices(arr.shape[0], k=1)
    det = a[i_idx] * b[j_idx] - b[i_idx] * a[j_idx]
    ok = np.abs(det) > 1e-12
    i_idx, j_idx, det = i_idx[ok], j_idx[ok], det[ok]
    x = (c[i_idx] * b[j_idx] - c[j_idx] * b[i_idx]) / det
    y = (a[i_idx] * c[j_idx] - a[j_idx] * c[i_idx]) / det

    def meeting(pts, planes):
        """The points pts (ascending indices) inside the half-planes planes."""
        pa, pb, pc = a[planes], b[planes], c[planes] + _FEAS_TOL
        cap = max(1, _BLOCK_BYTES // (8 * pa.size))
        blocks = (pts[s : s + cap] for s in range(0, pts.size, cap))
        return np.concatenate([pts[:0]] + [k[(x[k, None] * pa + y[k, None] * pb <= pc).all(axis=1)] for k in blocks])

    feas = meeting(meeting(np.arange(x.size), slice(None, None, 16)), slice(None))
    if feas.size == 0:
        raise ValueError("half-plane family has no feasible vertex")
    return _unique(np.column_stack([x[feas], y[feas]]).round(10))


# ---------------------------------------------------------------------------
# support function of the inner (capacity) region
# ---------------------------------------------------------------------------

def thresholds(spec: ChannelSpec) -> tuple[float, float]:
    """Case-switch weights (lo, hi) of the support-function reduction.

    lo = q1/q2 and hi = p1/p2 with the degenerate-limit conventions: q2 = 0
    (which under the canonical order forces q1 = 0) gives lo = 0, and p2 = 0
    gives hi = +inf so the mid case extends to every weight above 1.
    """
    require_canonical(spec)
    lo = spec.q1 / spec.q2 if spec.q2 > 0.0 else 0.0
    hi = spec.p1 / spec.p2 if spec.p2 > 0.0 else math.inf
    return lo, hi


def _check_weight(lam: float) -> None:
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lambda must be finite and non-negative, got {lam!r}")


def case_of(spec: ChannelSpec, lam: float) -> str:
    _check_weight(lam)
    lo, hi = thresholds(spec)
    if lam <= lo:
        return CASE_R1
    if lam <= 1.0:
        return CASE_R3
    if lam <= hi:
        return CASE_R4
    return CASE_R2


def corner_tables(spec: ChannelSpec) -> tuple[np.ndarray, np.ndarray]:
    """The rate-rectangle corners as 2x3 tables K3, K4 over the feature
    vector F = (H(f1), H(f2), H(f1,f2)) of an input law: the corner of the
    R3 rectangle is K3 F and that of the R4 rectangle is K4 F,

        a3 = p1 H(f1) + q1 I(f1;f2)     b3 = q2 H(f2|f1)
        a4 = p1 H(f1|f2)                b4 = p2 I(f1;f2) + q2 H(f2)

    They are the one-auxiliary outer bound's corners at U = f1(X) and
    U = f2(X)."""
    p1, p2, q1, q2 = spec.p1, spec.p2, spec.q1, spec.q2
    k3 = np.array([[1.0, q1, -q1], [-q2, 0.0, q2]])
    k4 = np.array([[0.0, -p1, p1], [p2, 1.0, -p2]])
    return k3, k4


def _support_row(spec: ChannelSpec, a: float, b: float) -> tuple[int, float, float, float]:
    """The support of the capacity region in direction (a, b) as
    scale * max over p(x) of (a', b') K F; returns (table, a', b', scale).

    K is K3 (table 0) when b <= a and K4 (table 1) otherwise; (a', b') is
    the direction scaled to a larger weight of 1 and clamped to
    (1, max(b/a, lo)) or (max(a/b, 1/hi), 1), so clamped directions share
    C1 = (1, lo) K3 or C2 = (1/hi, 1) K4, and the certified gap is relative.
    """
    lo, hi = thresholds(spec)
    if b <= a:
        return 0, 1.0, max(b / a, lo), a
    return 1, max(a / b, 1.0 / hi), 1.0, b


def _coefficient_row(spec: ChannelSpec, table: int, a: float, b: float) -> np.ndarray:
    """(a, b) K, formed elementwise."""
    k = corner_tables(spec)[table]
    return a * k[0] + b * k[1]


def _solve(spec: ChannelSpec, directions) -> list[tuple[float, np.ndarray, float]]:
    """Support value, maximizing input law and certified upper bound (the
    solver's dual bound, scaled alike) at each direction (a, b); directions
    that share a coefficient row are solved once, all rows in one certified
    batch (every row is non-negative)."""
    keys = [_support_row(spec, a, b) for a, b in directions]
    dirs = list(dict.fromkeys(key[:3] for key in keys))
    rows = [_coefficient_row(spec, *d) for d in dirs]
    opt = dict(zip(dirs, maximize_pushforward_entropies(*stacked_indicator(spec), rows)))
    return [(key[3] * opt[key[:3]].value, opt[key[:3]].argmax, key[3] * opt[key[:3]].bound) for key in keys]


def support_inner(spec: ChannelSpec, lam: float):
    """Maximum of R1 + lam*R2 over the capacity region, by the exact
    reduction to a maximization over the input law: (value, case, argmax_px)."""
    case = case_of(spec, lam)
    ((value, px, _),) = _solve(spec, [(1.0, lam)])
    return value, case, px


def support_curve(spec: ChannelSpec, lambdas) -> SupportCurve:
    """Sample the support function at the given weights, all in one _solve."""
    lams = [float(lam) for lam in lambdas]
    cases = [case_of(spec, lam) for lam in lams]
    sols = _solve(spec, [(1.0, lam) for lam in lams])
    samples = [
        SupportSample(lam, value, upper, case, tuple(float(v) for v in px))
        for lam, case, (value, px, upper) in zip(lams, cases, sols)
    ]
    return SupportCurve(tuple(samples))


# ---------------------------------------------------------------------------
# region builders
# ---------------------------------------------------------------------------

def _geom_steps(n: int) -> np.ndarray:
    """n >= 3 ascending points in [0, 1] including both ends, clustered near 0."""
    return np.concatenate([[0.0], np.geomspace(1e-3, 1.0, n - 1)])


def _open_segment(a: float, b: float, n: int) -> np.ndarray:
    """n points in (a, b], clustered near a. Exactly at a the sweep objective
    ties with the neighboring case and the tie-broken argmax can leak corners
    from that case; staying strictly inside keeps the argmax family clean."""
    if n <= 1 or b <= a:
        return np.array([b])
    return a + (b - a) * np.geomspace(1e-6, 1.0, n)


def _case_switches(spec: ChannelSpec) -> tuple[float, float]:
    """The weights in [0, 1] where the support switches case: min(lo, 1) for
    the (1, lambda) half-planes and 1/hi for the mirrored (mu, 1) ones, since
    mu = 1/lambda maps the above-1 cases onto a compact range."""
    lo, hi = thresholds(spec)
    return min(lo, 1.0), 0.0 if math.isinf(hi) else 1.0 / hi


def _weight_grid(switch: float, n: int) -> np.ndarray:
    """Weights in [0, 1]: n on each side of the case switch, those above it
    clustered near it, where the support curve bends fastest."""
    below = np.linspace(0.0, switch, n) if switch > 0.0 else np.array([0.0])
    return _unique(np.concatenate([below, switch + (1.0 - switch) * _geom_steps(n)]))


def capacity_polygon(spec: ChannelSpec, n_lambda: int = 64) -> RegionPolygon:
    """Capacity region polygon from supporting half-planes in both axis
    weightings: (1, lambda) and (mu, 1) for lambda, mu in [0, 1].

    Accepts any valid spec: the computation canonicalizes internally and
    swaps the rate axes back when the receivers were relabeled.
    """
    if (n_lambda := _as_int(n_lambda, f"n_lambda must be an integer, got {n_lambda!r}")) < 3:
        raise ValueError("n_lambda must be >= 3")
    canon, swapped = canonicalize(spec)
    lam_switch, mu_switch = _case_switches(canon)
    directions = [(1.0, lam) for lam in _weight_grid(lam_switch, n_lambda).tolist()]
    directions += [(mu, 1.0) for mu in _weight_grid(mu_switch, n_lambda).tolist()]
    sols = _solve(canon, directions)
    cons = [(-1.0, 0.0, 0.0), (0.0, -1.0, 0.0)]
    cons += [(a, b, value) for (a, b), (value, _, _) in zip(directions, sols)]
    verts = halfplane_vertices(cons)
    poly = make_polygon(verts, "capacity")
    return transpose_polygon(poly) if swapped else poly


def corner_values(spec: ChannelSpec, px_batch):
    """Rate-rectangle corners (a3, b3, a4, b4) at each input law, from
    corner_tables, clamped to the non-negative quadrant."""
    features = component_entropies(spec, px_batch)
    return tuple(np.maximum(combine(features, row), 0.0) for k in corner_tables(spec) for row in k)


def proposition_regions(spec: ChannelSpec, n_lambda: int = 64) -> list[RegionPolygon]:
    """The four-region decomposition whose union's hull is the capacity
    region: two single-user axis segments plus the two corner regions swept
    over the argmax input laws of the support objectives, (1, lambda) for R3
    and (mu, 1) for R4.
    """
    require_canonical(spec)
    if (n_lambda := _as_int(n_lambda, f"n_lambda must be an integer, got {n_lambda!r}")) < 1:
        raise ValueError("n_lambda must be >= 1")
    lam_switch, mu_switch = _case_switches(spec)
    lams = _unique(_open_segment(lam_switch, 1.0, n_lambda))
    mus = _unique(_open_segment(mu_switch, 1.0, n_lambda))
    directions = [(1.0, 0.0), (0.0, 1.0)] + [(1.0, lam) for lam in lams.tolist()] + [(mu, 1.0) for mu in mus.tolist()]
    sols = _solve(spec, directions)
    (c1, _, _), (c2, _, _) = sols[:2]
    argmax = np.array([px for _, px, _ in sols[2:]])
    a3, b3, _, _ = corner_values(spec, argmax[: lams.size])
    _, _, a4, b4 = corner_values(spec, argmax[lams.size :])
    return [
        make_polygon([(0.0, 0.0), (c1, 0.0)], "R1"),
        make_polygon([(0.0, 0.0), (0.0, c2)], "R2"),
        _rectangle_hull(a3, b3, "R3"),
        _rectangle_hull(a4, b4, "R4"),
    ]


def _rectangle_hull(a: np.ndarray, b: np.ndarray, label: str) -> RegionPolygon:
    """Hull of the rectangles [0, a_i] x [0, b_i]."""
    zero = np.zeros_like(a)
    corners = np.column_stack((a, zero)), np.column_stack((zero, b)), np.column_stack((a, b))
    return make_polygon(np.vstack(((0.0, 0.0),) + corners), label)


def _auto_px_grid(dim: int) -> int:
    return max(2, bisect_right(range(_PX_GRID_CAP + 1), _PX_GRID_BUDGET, key=lambda m: lattice_size(m, dim)) - 1)


def _seeded_lattice(m: int, n: int):
    """Seed blocks floor(c m / d), the deficit (< n) on the last input, for c
    on the lattice of the largest d < m with at most 1/64 of m's laws (none
    if d < 2 or m's lattice overflows int64 ranks), then iter_lattice(m, n)."""
    d = bisect_right(range(m), lattice_size(m, n) >> 6, key=lambda d: lattice_size(d, n)) - 1
    for c in iter_lattice(d, n) if 2 <= d and lattice_size(m, n) < 2**63 else ():
        seeds = np.multiply(c, m, dtype=np.int64)
        seeds //= d
        seeds[:, -1] += m - seeds.sum(axis=1)
        yield seeds
    yield from iter_lattice(m, n)


def _arc_candidates(front: np.ndarray) -> np.ndarray:
    """The points of a Pareto front (by descending r1) that may be vertices
    of its hull: pass after pass, every point strictly below the chord of
    its current neighbours (cross product < -1e-12) is dropped, until none
    is. A dropped point lies inside the hull of the rest, so the hull keeps
    its vertices; points nearer a chord than the margin are left to
    make_polygon's own tolerance. The ends are always kept."""
    while len(front) > 2:
        (x0, y0), (x1, y1), (x2, y2) = front[:-2].T, front[1:-1].T, front[2:].T
        below = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0) < -1e-12
        if not below.any():
            break
        front = front[np.concatenate(([True], ~below, [True]))]
    return front


def primed_regions(spec: ChannelSpec, px_grid: int | None = None) -> list[RegionPolygon]:
    """Hulls of the per-input-law rate rectangles swept over a full simplex
    lattice of denominator px_grid (every input law, not just argmaxes);
    None or an integer 0 picks the grid (_auto_px_grid), anything else must
    be an integer >= 2.

    Labels R1'..R4'. Used as the containment cross-check for
    proposition_regions. Each block of _seeded_lattice (lattice points, seeds
    first, 1.6% more at px_grid 1750) is scored from its counts by the
    count-exact sweep kernel (channel._lattice_entropies), checked finite,
    and its six rows (a3, b3, a4, b4, C1, C2) are formed in one preallocated
    buffer. The corners meet one running bin table each (_bin_filter) over
    an r1 range bounding every law, a3 <= H(f1) <= log2 |f1(X)| and a4 <=
    p1 H(f1) (a range of 0 passes all), and only the survivors (~580 of
    21,845 at px_grid 1750) reach pareto_front: the fronts are those of the
    sort alone. Each R3'/R4' hull is taken over its front's arc candidates
    (_arc_candidates), ~1.2k of ~18k points, with the same vertices.
    """
    require_canonical(spec)
    message = f"px_grid must be an integer >= 2, got {px_grid!r}"
    auto = px_grid is None or (type(px_grid) is not bool and isinstance(px_grid, (int, np.integer)) and px_grid == 0)
    if (m := _auto_px_grid(spec.input_size) if auto else _as_int(px_grid, message)) < 2:
        raise ValueError(message)
    # The corner rows, then the single-user objectives C1 and C2: the clamped
    # rows at (1, 0) and (0, 1). Each is formed in combine's k order without
    # the later products of coefficient 0.0: adding one flips at most a zero's sign.
    rows = list(np.vstack(corner_tables(spec)))
    rows += [_coefficient_row(spec, *_support_row(spec, a, b)[:3]) for a, b in ((1.0, 0.0), (0.0, 1.0))]
    rest = [[(k, c) for k, c in enumerate(row.tolist()) if k and c != 0.0] for row in rows]
    top = math.log2(len(set(spec.f1)))
    scales = [_PARETO_BINS / u if u > 0.0 else 0.0 for u in (top, spec.p1 * top)]
    aboves = [np.full(_PARETO_BINS + 2, -np.inf) for _ in scales]
    c1p, c2p = 0.0, 0.0
    # The front of a union is the front of its parts' fronts: each block's
    # survivors wait in `pending` until they outnumber the running front.
    fronts, pending = [np.zeros((1, 2)), np.zeros((1, 2))], [[], []]
    entropies, buf, spare = _lattice_entropies(spec, m), np.empty((len(rows), 0)), np.empty(0)
    for block in _seeded_lattice(m, spec.input_size):
        features = entropies(block)
        if not all(np.isfinite(f).all() for f in features):
            raise ValueError("primed_regions needs finite rates")
        if len(block) > buf.shape[1]:
            buf, spare = np.empty((len(rows), len(block))), np.empty(len(block))
        values, tmp = buf[:, : len(block)], spare[: len(block)]
        for v, row, terms in zip(values, rows, rest):
            np.multiply(features[0], row[0], out=v)
            for k, c in terms:
                v += np.multiply(features[k], c, out=tmp)
        a3, b3, a4, b4 = np.maximum(values[:4], 0.0, out=values[:4])
        c1p, c2p = max(c1p, float(values[4].max())), max(c2p, float(values[5].max()))
        for k, (x, y) in enumerate(((a3, b3), (a4, b4))):
            kept = _bin_filter(aboves[k], x, y, 0.0, scales[k]) if scales[k] else slice(None)
            pending[k].append(np.column_stack((x[kept], y[kept])))
            if sum(map(len, pending[k])) > len(fronts[k]):
                fronts[k], pending[k] = pareto_front(np.vstack([fronts[k], *pending[k]])), []
    fronts = [pareto_front(np.vstack([f, *p])) for f, p in zip(fronts, pending)]
    polys = [make_polygon([(0.0, 0.0), (c1p, 0.0)], "R1'"), make_polygon([(0.0, 0.0), (0.0, c2p)], "R2'")]
    # Tight collinearity tolerance: these hulls are the reference side of the
    # rectangle-region containment checks, so chord sag must stay below the
    # 1e-6 comparison tolerance.
    for f, label in zip(fronts, ("R3'", "R4'")):
        f = _arc_candidates(f)
        aug = np.vstack([f, [[0.0, 0.0], [f[:, 0].max(), 0.0], [0.0, f[:, 1].max()]]])
        polys.append(make_polygon(aug, label, tol=1e-13))
    return polys


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def polygon_to_csv(poly: RegionPolygon) -> str:
    """Vertex list as CSV: header, one vertex per row, closing vertex repeated."""
    lines = ["r1,r2"]
    for v in poly.vertices:
        lines.append(f"{format_number(v.r1)},{format_number(v.r2)}")
    lines.append(f"{format_number(poly.vertices[0].r1)},{format_number(poly.vertices[0].r2)}")
    return "\n".join(lines) + "\n"
