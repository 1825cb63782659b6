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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import (
    ChannelSpec,
    canonicalize,
    component_entropies,
    require_canonical,
)
from .simplexopt import OptConfig, iter_lattice, lattice_size, maximize_simplex, maximize_simplex_weights

CASE_R1 = "R1"
CASE_R2 = "R2"
CASE_R3 = "R3"
CASE_R4 = "R4"

_HULL_TOL = 1e-9


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
    case_id: str
    argmax_px: tuple[float, ...]


@dataclass(frozen=True)
class SupportCurve:
    """Sampled support function lambda -> max(R1 + lambda*R2) with the case
    taken and the maximizing input law at each sample."""

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

def convex_hull(points, tol: float = _HULL_TOL) -> np.ndarray:
    """Convex hull of 2-D points, counter-clockwise, collinear points dropped
    (monotone chain with cross-product tolerance `tol`)."""
    pts = np.unique(np.asarray(points, dtype=float).round(12), axis=0)
    if pts.shape[0] <= 2:
        return pts

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                cross = (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1]) - (
                    out[-1][1] - out[-2][1]
                ) * (p[0] - out[-2][0])
                if cross <= tol:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def make_polygon(points, label: str, tol: float = _HULL_TOL) -> RegionPolygon:
    hull = convex_hull(points, tol=tol)
    verts = tuple(RatePair(float(x), float(y)) for x, y in hull)
    return RegionPolygon(vertices=verts, label=label)


def pareto_front(points) -> np.ndarray:
    """Points not dominated coordinatewise by any other point.

    For clouds in the non-negative quadrant this superset of the upper-right
    hull arc is exact: every hull vertex with an outward normal in the first
    quadrant is Pareto optimal. Vectorized, so huge clouds reduce cheaply
    before the sequential hull pass.
    """
    pts = np.asarray(points, dtype=float)
    order = np.lexsort((-pts[:, 1], -pts[:, 0]))
    pts = pts[order]
    r2 = pts[:, 1]
    best = np.maximum.accumulate(np.concatenate([[-np.inf], r2[:-1]]))
    return pts[r2 > best]


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


def halfplane_vertices(constraints, feas_tol: float = 1e-9) -> np.ndarray:
    """Vertices of the polygon {x : a*x1 + b*x2 <= c for all (a, b, c)}.

    Exact pairwise line intersection followed by feasibility filtering; the
    input family must bound a non-empty region.
    """
    arr = np.asarray(constraints, dtype=float)
    normals = arr[:, :2]
    offsets = arr[:, 2]
    i_idx, j_idx = np.triu_indices(arr.shape[0], k=1)
    det = normals[i_idx, 0] * normals[j_idx, 1] - normals[i_idx, 1] * normals[j_idx, 0]
    ok = np.abs(det) > 1e-12
    i_idx, j_idx, det = i_idx[ok], j_idx[ok], det[ok]
    x = (offsets[i_idx] * normals[j_idx, 1] - offsets[j_idx] * normals[i_idx, 1]) / det
    y = (normals[i_idx, 0] * offsets[j_idx] - normals[j_idx, 0] * offsets[i_idx]) / det
    pts = np.column_stack([x, y])
    feas = (pts @ normals.T <= offsets + feas_tol).all(axis=1)
    pts = pts[feas]
    if pts.shape[0] == 0:
        raise ValueError("half-plane family has no feasible vertex")
    return np.unique(pts.round(10), axis=0)


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


def case_of(spec: ChannelSpec, lam: float) -> str:
    if lam < 0.0:
        raise ValueError("lambda must be non-negative")
    lo, hi = thresholds(spec)
    if lam <= lo:
        return CASE_R1
    if lam <= 1.0:
        return CASE_R3
    if lam <= hi:
        return CASE_R4
    return CASE_R2


def _objective_r1(spec: ChannelSpec):
    p1, q1 = spec.p1, spec.q1

    def obj(px):
        h1, h2, _ = component_entropies(spec, px)
        return p1 * h1 + q1 * h2

    return obj


def _objective_r3(spec: ChannelSpec):
    p1, q1, q2 = spec.p1, spec.q1, spec.q2

    def obj(px, lam):
        h1, h2, hj = component_entropies(spec, px)
        return p1 * h1 + q1 * h2 + (lam * q2 - q1) * (hj - h1)

    return obj


def _objective_r4(spec: ChannelSpec):
    p1, p2, q2 = spec.p1, spec.p2, spec.q2

    def obj(px, lam):
        h1, h2, hj = component_entropies(spec, px)
        return p1 * (hj - h2) + lam * (p2 * (h1 + h2 - hj) + q2 * h2)

    return obj


def _objective_r4_scaled(spec: ChannelSpec):
    """The mid-high case objective divided by lambda = 1/mu; same argmax,
    finite at mu = 0 (the infinite-weight limit)."""
    p1, p2, q2 = spec.p1, spec.p2, spec.q2

    def obj(px, mu):
        h1, h2, hj = component_entropies(spec, px)
        return mu * p1 * (hj - h2) + p2 * (h1 + h2 - hj) + q2 * h2

    return obj


def _objective_c2(spec: ChannelSpec):
    p2, q2 = spec.p2, spec.q2

    def obj(px):
        h1, h2, _ = component_entropies(spec, px)
        return p2 * h1 + q2 * h2

    return obj


_CASE_OBJECTIVES = {CASE_R1: _objective_r1, CASE_R3: _objective_r3, CASE_R4: _objective_r4, CASE_R2: _objective_c2}


def _solve_cases(spec: ChannelSpec, keys, cfg: OptConfig | None) -> dict:
    """Optimizer result for each (case, lambda) key of the support
    reduction: the weights of R3 in one batch and those of R4 in another,
    the weight-free R1 and R2 (plain C2) objectives once each."""
    out = {}
    for case, objective in _CASE_OBJECTIVES.items():
        lams = list(dict.fromkeys(lam for c, lam in keys if c == case))
        if case in (CASE_R3, CASE_R4):
            results = maximize_simplex_weights(objective(spec), spec.input_size, lams, cfg)
        else:
            results = [maximize_simplex(objective(spec), spec.input_size, cfg)] * len(lams) if lams else []
        out.update(zip([(case, lam) for lam in lams], results))
    return out


def _support_value(key, res) -> float:
    """The support at a (case, lambda) key from its optimizer result; the
    R2 case scales C2 by lambda."""
    case, lam = key
    return lam * res.value if case == CASE_R2 else res.value


def support_inner(spec: ChannelSpec, lam: float, cfg: OptConfig | None = None):
    """Maximum of R1 + lam*R2 over the capacity region.

    Uses the exact piecewise reduction to a single-letter maximization over
    the input law; returns (value, case_id, argmax_px).
    """
    key = (case_of(spec, lam), lam)
    res = _solve_cases(spec, [key], cfg)[key]
    return _support_value(key, res), key[0], res.argmax


def support_curve(spec: ChannelSpec, lambdas, cfg: OptConfig | None = None) -> SupportCurve:
    """Sample the support function at the given weights, solving the
    weights of each case in one batch."""
    keys = [(case_of(spec, float(lam)), float(lam)) for lam in lambdas]
    opt = _solve_cases(spec, keys, cfg)
    samples = []
    for case, lam in keys:
        res = opt[case, lam]
        samples.append(SupportSample(lam, _support_value((case, lam), res), case, tuple(float(v) for v in res.argmax)))
    return SupportCurve(tuple(samples))


# ---------------------------------------------------------------------------
# region builders
# ---------------------------------------------------------------------------

def _geom_steps(n: int, span_ratio: float = 1e-3) -> np.ndarray:
    """n ascending points in [0, 1] including both ends, clustered near 0."""
    if n <= 1:
        return np.array([0.0])
    if n == 2:
        return np.array([0.0, 1.0])
    return np.concatenate([[0.0], np.geomspace(span_ratio, 1.0, n - 1)])


def _segment(a: float, b: float, n: int, cluster_start: bool = True) -> np.ndarray:
    g = _geom_steps(n)
    if not cluster_start:
        g = 1.0 - g[::-1]
    return a + (b - a) * g


def _open_segment(a: float, b: float, n: int) -> np.ndarray:
    """n points in (a, b], clustered near a. Exactly at a the sweep objective
    ties with the neighboring case and the tie-broken argmax can leak corners
    from that case; staying strictly inside keeps the argmax family clean."""
    if n <= 1 or b <= a:
        return np.array([b])
    return a + (b - a) * np.geomspace(1e-6, 1.0, n)


def _lambda_grid(spec: ChannelSpec, n: int) -> np.ndarray:
    """Weights in [0, 1] for the (1, lambda) half-planes: n per case segment,
    clustered near the case switch where the support curve bends fastest."""
    lo, _ = thresholds(spec)
    lo = min(lo, 1.0)
    seg_a = np.linspace(0.0, lo, n) if lo > 0.0 else np.array([0.0])
    seg_b = _segment(lo, 1.0, n, cluster_start=True)
    return np.unique(np.concatenate([seg_a, seg_b]))


def _mu_grid(spec: ChannelSpec, n: int) -> np.ndarray:
    """Weights in [0, 1] for the mirrored (mu, 1) half-planes; mu = 1/lambda
    maps the above-1 cases onto a compact range."""
    _, hi = thresholds(spec)
    mu_lo = 0.0 if math.isinf(hi) else 1.0 / hi
    seg_a = np.linspace(0.0, mu_lo, n) if mu_lo > 0.0 else np.array([0.0])
    seg_b = _segment(mu_lo, 1.0, n, cluster_start=True)
    return np.unique(np.concatenate([seg_a, seg_b]))


def capacity_polygon(spec: ChannelSpec, n_lambda: int = 64, cfg: OptConfig | None = None) -> RegionPolygon:
    """Capacity region polygon from supporting half-planes in both axis
    weightings.

    Accepts any valid spec: the computation canonicalizes internally and
    swaps the rate axes back when the receivers were relabeled.
    """
    if n_lambda < 3:
        raise ValueError("n_lambda must be >= 3")
    canon, swapped = canonicalize(spec)
    lams = _lambda_grid(canon, n_lambda).tolist()
    mus = _mu_grid(canon, n_lambda).tolist()
    lam_keys = [(case_of(canon, lam), lam) for lam in lams]
    # The (mu, 1) half-plane is mu times the support at lambda = 1/mu; at
    # mu = 0 (infinite weight) it is R2 <= C2, the plain R2 optimum.
    mu_keys = [(case_of(canon, 1.0 / mu), 1.0 / mu) if mu > 0.0 else (CASE_R2, math.inf) for mu in mus]
    opt = _solve_cases(canon, lam_keys + mu_keys, cfg)
    cons = [(-1.0, 0.0, 0.0), (0.0, -1.0, 0.0)]
    cons += [(1.0, lam, _support_value(key, opt[key])) for lam, key in zip(lams, lam_keys)]
    cons += [
        (mu, 1.0, mu * _support_value(key, opt[key]) if mu > 0.0 else opt[key].value)
        for mu, key in zip(mus, mu_keys)
    ]
    verts = halfplane_vertices(cons)
    poly = make_polygon(verts, "capacity")
    return transpose_polygon(poly) if swapped else poly


def corner_values(spec: ChannelSpec, px_batch):
    """Rate-rectangle corners at each input law, clamped to the non-negative
    quadrant. Returns (a3, b3, a4, b4):

        a3 = p1 H(f1) + q1 I(f1;f2)     b3 = q2 H(f2|f1)
        a4 = p1 H(f1|f2)                b4 = p2 I(f1;f2) + q2 H(f2)
    """
    h1, h2, hj = component_entropies(spec, px_batch)
    mi = h1 + h2 - hj
    a3 = spec.p1 * h1 + spec.q1 * mi
    b3 = spec.q2 * (hj - h1)
    a4 = spec.p1 * (hj - h2)
    b4 = spec.p2 * mi + spec.q2 * h2
    clamp = lambda v: np.maximum(v, 0.0)
    return clamp(a3), clamp(b3), clamp(a4), clamp(b4)


def proposition_regions(
    spec: ChannelSpec, n_lambda: int = 64, cfg: OptConfig | None = None
) -> list[RegionPolygon]:
    """The four-region decomposition whose union's hull is the capacity
    region: two single-user axis segments plus the two corner regions swept
    over the argmax input laws of the weighted-sum objectives.
    """
    require_canonical(spec)
    n = spec.input_size
    lo, hi = thresholds(spec)
    c1 = maximize_simplex(_objective_r1(spec), n, cfg).value
    c2 = maximize_simplex(_objective_c2(spec), n, cfg).value
    r1 = make_polygon([(0.0, 0.0), (c1, 0.0)], "R1")
    r2 = make_polygon([(0.0, 0.0), (0.0, c2)], "R2")

    pts3 = [(0.0, 0.0)]
    lams = np.unique(_open_segment(min(lo, 1.0), 1.0, n_lambda))
    for res in maximize_simplex_weights(_objective_r3(spec), n, lams, cfg):
        a3, b3, _, _ = corner_values(spec, res.argmax)
        pts3 += [(float(a3), 0.0), (0.0, float(b3)), (float(a3), float(b3))]
    r3 = make_polygon(pts3, "R3")

    mu_lo = 0.0 if math.isinf(hi) else 1.0 / hi
    pts4 = [(0.0, 0.0)]
    mus = np.unique(_open_segment(mu_lo, 1.0, n_lambda))
    for res in maximize_simplex_weights(_objective_r4_scaled(spec), n, mus, cfg):
        _, _, a4, b4 = corner_values(spec, res.argmax)
        pts4 += [(float(a4), 0.0), (0.0, float(b4)), (float(a4), float(b4))]
    r4 = make_polygon(pts4, "R4")
    return [r1, r2, r3, r4]


def _auto_px_grid(dim: int, budget: int = 2_000_000, cap: int = 4096) -> int:
    m = 2
    while m < cap and lattice_size(m + 1, dim) <= budget:
        m += 1
    return m


def primed_regions(spec: ChannelSpec, px_grid: int | None = None) -> list[RegionPolygon]:
    """Hulls of the per-input-law rate rectangles swept over a full simplex
    lattice of denominator px_grid (every input law, not just argmaxes).

    Labels R1'..R4'. Used as the containment cross-check for
    proposition_regions.
    """
    require_canonical(spec)
    n = spec.input_size
    m = int(px_grid) if px_grid else _auto_px_grid(n)
    if m < 2:
        raise ValueError("px_grid must be >= 2")
    c1p = 0.0
    c2p = 0.0
    front3 = np.zeros((1, 2))
    front4 = np.zeros((1, 2))
    for block in iter_lattice(m, n):
        P = block.astype(float) / m
        h1, h2, _ = component_entropies(spec, P)
        c1p = max(c1p, float((spec.p1 * h1 + spec.q1 * h2).max()))
        c2p = max(c2p, float((spec.p2 * h1 + spec.q2 * h2).max()))
        a3, b3, a4, b4 = corner_values(spec, P)
        front3 = pareto_front(np.vstack([front3, np.column_stack([a3, b3])]))
        front4 = pareto_front(np.vstack([front4, np.column_stack([a4, b4])]))
    r1 = make_polygon([(0.0, 0.0), (c1p, 0.0)], "R1'")
    r2 = make_polygon([(0.0, 0.0), (0.0, c2p)], "R2'")
    # Tight collinearity tolerance: these hulls are the reference side of the
    # rectangle-region containment checks, so chord sag must stay below the
    # 1e-6 comparison tolerance.
    aug3 = np.vstack([front3, [[0.0, 0.0], [front3[:, 0].max(), 0.0], [0.0, front3[:, 1].max()]]])
    aug4 = np.vstack([front4, [[0.0, 0.0], [front4[:, 0].max(), 0.0], [0.0, front4[:, 1].max()]]])
    r3 = make_polygon(aug3, "R3'", tol=1e-13)
    r4 = make_polygon(aug4, "R4'", tol=1e-13)
    return [r1, r2, r3, r4]


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


def support_curve_to_csv(curve: SupportCurve) -> str:
    """Support samples as CSV with the maximizing input law per row."""
    if not curve.samples:
        raise ValueError("support curve has no samples")
    n = len(curve.samples[0].argmax_px)
    header = "lambda,value,case," + ",".join(f"px{i}" for i in range(n))
    lines = [header]
    for s in curve.samples:
        px = ",".join(format_number(v) for v in s.argmax_px)
        lines.append(f"{format_number(s.lam)},{format_number(s.value)},{s.case_id},{px}")
    return "\n".join(lines) + "\n"
