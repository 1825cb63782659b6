"""Region builder tests: support values, polygons, cross-checks, geometry."""

from __future__ import annotations

import math

import numpy as np
import pytest

from statebc import (
    ChannelSpec,
    FiniteFieldSpec,
    OptConfig,
    blackwell_channel,
    capacity_polygon,
    case_spanning_lambdas,
    convex_hull,
    finite_field_channel,
    maximize_simplex,
    polygon_contains,
    polygon_support,
    primed_regions,
    proposition_regions,
    support_curve,
    support_inner,
    thresholds,
    transpose_polygon,
)
from statebc.regions import (
    corner_values,
    format_number,
    halfplane_vertices,
    make_polygon,
    pareto_front,
    polygon_to_csv,
    support_curve_to_csv,
)
from statebc.simplexopt import iter_lattice
from conftest import random_spec

FAST = OptConfig(grid_denominator=12, refine_starts=3, refine_iters=150)


def vertices_close(poly, expected, tol):
    """Every expected point has a vertex within tol and every vertex lies
    within tol of the expected polygon."""
    ref = make_polygon(expected, "ref")
    for e in expected:
        assert min(math.hypot(v.r1 - e[0], v.r2 - e[1]) for v in poly.vertices) <= tol
    for v in poly.vertices:
        assert polygon_contains(ref, v, tol=tol)


class TestThresholds:
    def test_generic(self):
        spec = blackwell_channel(0.7, 0.3)
        lo, hi = thresholds(spec)
        assert lo == pytest.approx(0.3 / 0.7)
        assert hi == pytest.approx(0.7 / 0.3)

    def test_degenerate(self):
        assert thresholds(ChannelSpec(2, (0, 1), (1, 0), 1.0, 1.0)) == (0.0, 1.0)
        assert thresholds(ChannelSpec(2, (0, 1), (1, 0), 1.0, 0.0)) == (0.0, math.inf)
        assert thresholds(ChannelSpec(2, (0, 1), (1, 0), 0.0, 0.0))[1] == math.inf

    def test_requires_canonical(self):
        with pytest.raises(ValueError, match="canonical"):
            thresholds(ChannelSpec(2, (0, 1), (1, 0), 0.3, 0.7))


class TestSupportInner:
    def test_finite_field_at_zero_is_single_user_capacity(self, ff2_07_04):
        value, case, _ = support_inner(ff2_07_04, 0.0)
        assert case == "R1"
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_finite_field_at_one(self, ff2_07_04):
        value, case, _ = support_inner(ff2_07_04, 1.0)
        assert case == "R3"
        assert value == pytest.approx(1.3, abs=1e-9)

    def test_blackwell_time_division_sum_rate(self):
        spec = blackwell_channel(0.5, 0.5)
        value, _, _ = support_inner(spec, 1.0)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_rejects_negative_lambda(self, ff2_07_04):
        with pytest.raises(ValueError):
            support_inner(ff2_07_04, -0.5)

    def test_rejects_non_canonical(self):
        with pytest.raises(ValueError, match="canonical"):
            support_inner(ChannelSpec(2, (0, 1), (1, 0), 0.2, 0.8), 1.0)

    def test_case_continuity_at_thresholds(self, blackwell_07_03):
        lo, hi = thresholds(blackwell_07_03)
        for t in (lo, 1.0, hi):
            below = support_inner(blackwell_07_03, t - 1e-9)[0]
            above = support_inner(blackwell_07_03, t + 1e-9)[0]
            assert abs(below - above) <= 2e-4

    def test_value_at_zero_is_c1_and_tail_slope_is_c2(self, blackwell_07_03):
        v0, _, _ = support_inner(blackwell_07_03, 0.0)
        assert v0 == pytest.approx(1.0, abs=1e-9)
        _, hi = thresholds(blackwell_07_03)
        tail = 10.0 * hi + 1.0
        v_tail, case, _ = support_inner(blackwell_07_03, tail)
        assert case == "R2"
        assert v_tail / tail == pytest.approx(1.0, abs=1e-9)

    def test_curve_monotone(self, blackwell_07_03):
        lams = np.linspace(0.0, 3.0, 13)
        curve = support_curve(blackwell_07_03, lams, FAST)
        vals = [s.value for s in curve.samples]
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-8


class TestCapacityPolygon:
    def test_finite_field_full_square(self):
        spec = finite_field_channel(FiniteFieldSpec(2, ((1, 1), (1, 0))), 1.0, 0.0)
        poly = capacity_polygon(spec, n_lambda=16, cfg=FAST)
        vertices_close(poly, [(0, 0), (1, 0), (1, 1), (0, 1)], tol=5e-3)

    def test_finite_field_generic(self, ff2_07_04):
        poly = capacity_polygon(ff2_07_04, n_lambda=16, cfg=FAST)
        vertices_close(poly, [(0, 0), (1, 0), (0.7, 0.6), (0, 1)], tol=5e-3)

    def test_blackwell_time_division_triangle(self):
        poly = capacity_polygon(blackwell_channel(0.5, 0.5), n_lambda=16, cfg=FAST)
        vertices_close(poly, [(0, 0), (1, 0), (0, 1)], tol=1e-3)

    def test_swapped_input_transposes(self):
        spec = ChannelSpec(3, (0, 1, 1), (0, 0, 1), 0.3, 0.7)
        direct = capacity_polygon(spec, n_lambda=8, cfg=FAST)
        canon = capacity_polygon(ChannelSpec(3, (0, 1, 1), (0, 0, 1), 0.7, 0.3), n_lambda=8, cfg=FAST)
        expected = transpose_polygon(canon)
        assert len(direct.vertices) == len(expected.vertices)
        for a, b in zip(direct.vertices, expected.vertices):
            assert a.r1 == pytest.approx(b.r1, abs=1e-6)
            assert a.r2 == pytest.approx(b.r2, abs=1e-6)

    def test_support_consistency(self, blackwell_07_03):
        # On the weights the polygon actually sampled, every vertex obeys the
        # corresponding half-plane and some vertex attains it.
        from statebc.regions import _lambda_grid

        poly = capacity_polygon(blackwell_07_03, n_lambda=16, cfg=FAST)
        for lam in _lambda_grid(blackwell_07_03, 16):
            value, _, _ = support_inner(blackwell_07_03, float(lam), FAST)
            reached = polygon_support(poly, 1.0, float(lam))
            assert reached <= value + 1e-6
            assert reached >= value - 1e-3

    def test_rejects_tiny_grid(self, blackwell_07_03):
        with pytest.raises(ValueError):
            capacity_polygon(blackwell_07_03, n_lambda=2)


_BATCH_SPECS = {
    "blackwell": blackwell_channel(0.7, 0.3),
    "gf2": finite_field_channel(FiniteFieldSpec(2, ((1, 1), (1, 0))), 0.7, 0.4),
    "random5": ChannelSpec(5, (1, 3, 0, 3, 2), (0, 2, 2, 1, 3), 0.65, 0.25),
}


class TestWeightBatching:
    """Solving a case's weights in one batch gives each weight's one-weight
    result, bit for bit."""

    @pytest.mark.parametrize("name", list(_BATCH_SPECS))
    def test_support_curve_matches_support_inner(self, name):
        spec = _BATCH_SPECS[name]
        lams = case_spanning_lambdas(spec, 32)
        samples = support_curve(spec, lams).samples
        assert {s.case_id for s in samples} == {"R1", "R2", "R3", "R4"}
        for s in samples:
            value, case, px = support_inner(spec, s.lam)
            assert (s.value, s.case_id) == (value, case)
            assert np.array(s.argmax_px).tobytes() == px.tobytes()

    @pytest.mark.parametrize("name", list(_BATCH_SPECS))
    def test_capacity_polygon_offsets_match_support_inner(self, name, monkeypatch):
        from statebc import regions

        spec = _BATCH_SPECS[name]
        seen = []

        def record(constraints, *args, **kwargs):
            seen.extend(constraints)
            return halfplane_vertices(constraints, *args, **kwargs)

        monkeypatch.setattr(regions, "halfplane_vertices", record)
        capacity_polygon(spec, n_lambda=8, cfg=FAST)
        c2 = maximize_simplex(regions._objective_c2(spec), spec.input_size, FAST).value
        halfplanes = seen[2:]
        assert len(halfplanes) > 8
        for a, b, c in halfplanes:
            if a == 1.0:
                assert c == support_inner(spec, b, FAST)[0]
            elif a > 0.0:
                assert b == 1.0 and c == a * support_inner(spec, 1.0 / a, FAST)[0]
            else:
                assert (a, b, c) == (0.0, 1.0, c2)


class TestPropositionRegions:
    def test_finite_field_rectangles(self, ff2_07_04):
        r1, r2, r3, r4 = proposition_regions(ff2_07_04, n_lambda=16, cfg=FAST)
        assert r1.label == "R1" and r4.label == "R4"
        vertices_close(r3, [(0, 0), (0.7, 0), (0.7, 0.6), (0, 0.6)], tol=5e-3)
        vertices_close(r4, [(0, 0), (0.7, 0), (0.7, 0.6), (0, 0.6)], tol=5e-3)

    def test_axis_segment_matches_independent_scan(self, blackwell_07_03):
        # Oracle: a plain dense lattice scan of the state-averaged component
        # entropies, written independently of the optimizer.
        best = 0.0
        for block in iter_lattice(120, 3):
            p = block.astype(float) / 120
            h1 = np.zeros(len(p))
            h2 = np.zeros(len(p))
            push1 = np.zeros((len(p), 2))
            push2 = np.zeros((len(p), 2))
            for x, (y1, y2) in enumerate(zip(blackwell_07_03.f1, blackwell_07_03.f2)):
                push1[:, y1] += p[:, x]
                push2[:, y2] += p[:, x]
            for arr, out in ((push1, h1), (push2, h2)):
                nz = arr > 0
                out[:] = -np.where(nz, arr * np.log2(np.where(nz, arr, 1.0)), 0.0).sum(axis=1)
            best = max(best, float((0.7 * h1 + 0.3 * h2).max()))
        r1 = proposition_regions(blackwell_07_03, n_lambda=8, cfg=FAST)[0]
        c1 = max(v.r1 for v in r1.vertices)
        assert c1 >= best - 1e-9
        assert c1 == pytest.approx(best, abs=1e-3)


class TestPrimedRegions:
    def test_containment(self, ff2_07_04):
        regs = proposition_regions(ff2_07_04, n_lambda=16, cfg=FAST)
        primes = primed_regions(ff2_07_04, px_grid=48)
        for a, b in ((regs[2], primes[2]), (regs[3], primes[3])):
            for v in a.vertices:
                assert polygon_contains(b, v, tol=1e-6)

    def test_blackwell_static_corner(self):
        # At the no-state extreme the balanced two-point input gives the
        # corner (1, 0): both components are fair bits and they coincide.
        spec = blackwell_channel(1.0, 0.0)
        a3, b3, _, _ = corner_values(spec, np.array([0.5, 0.0, 0.5]))
        assert float(a3) == pytest.approx(1.0, abs=1e-12)
        assert float(b3) == pytest.approx(0.0, abs=1e-12)

    def test_union_hull_matches_capacity(self):
        spec = blackwell_channel(0.5, 0.5)
        primes = primed_regions(spec, px_grid=200)
        pts = [(v.r1, v.r2) for poly in primes for v in poly.vertices]
        hull = make_polygon(pts, "union")
        cap = capacity_polygon(spec, n_lambda=16, cfg=FAST)
        for lam in np.linspace(0.0, 1.0, 8):
            assert polygon_support(hull, 1.0, float(lam)) == pytest.approx(
                polygon_support(cap, 1.0, float(lam)), abs=1e-3
            )
            assert polygon_support(hull, float(lam), 1.0) == pytest.approx(
                polygon_support(cap, float(lam), 1.0), abs=1e-3
            )


class TestGeometry:
    def test_convex_hull_square_with_interior(self):
        pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5), (0.2, 0.8)]
        hull = convex_hull(pts)
        assert hull.shape == (4, 2)
        assert set(map(tuple, hull.round(9))) == {(0, 0), (1, 0), (1, 1), (0, 1)}

    def test_convex_hull_collinear(self):
        hull = convex_hull([(0, 0), (0.5, 0.5), (1, 1)])
        assert hull.shape[0] == 2

    def test_convex_hull_orientation(self):
        hull = convex_hull([(0, 0), (2, 0), (1, 2), (1, 0.5)])
        area2 = 0.0
        for i in range(len(hull)):
            x1, y1 = hull[i]
            x2, y2 = hull[(i + 1) % len(hull)]
            area2 += x1 * y2 - x2 * y1
        assert area2 > 0  # counter-clockwise

    def test_halfplane_vertices_unit_square(self):
        cons = [(1, 0, 1), (0, 1, 1), (-1, 0, 0), (0, -1, 0), (1, 1, 5)]
        verts = halfplane_vertices(cons)
        assert set(map(tuple, verts.round(9))) == {(0, 0), (1, 0), (1, 1), (0, 1)}

    def test_pareto_front(self):
        pts = [(1, 0), (0, 1), (0.5, 0.5), (0.4, 0.4), (0.9, 0.2)]
        front = set(map(tuple, pareto_front(pts)))
        assert front == {(1, 0), (0, 1), (0.5, 0.5), (0.9, 0.2)}

    def test_polygon_contains_degenerate(self):
        seg = make_polygon([(0, 0), (1, 0)], "seg")
        assert polygon_contains(seg, (0.5, 0.0))
        assert not polygon_contains(seg, (0.5, 0.1))
        point = make_polygon([(0.25, 0.25)], "pt")
        assert polygon_contains(point, (0.25, 0.25))
        assert not polygon_contains(point, (0.3, 0.25))

    def test_hull_convexity_randomized(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            pts = rng.uniform(0.0, 1.0, (rng.integers(3, 40), 2))
            hull = convex_hull(pts)
            if hull.shape[0] < 3:
                continue
            for i in range(len(hull)):
                o = hull[i - 1]
                a = hull[i]
                b = hull[(i + 1) % len(hull)]
                cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
                assert cross >= -1e-9
            # hull supports dominate every input point
            for ang in np.linspace(0, 2 * math.pi, 8, endpoint=False):
                d = (math.cos(ang), math.sin(ang))
                assert (pts @ d).max() <= max(h @ np.array(d) for h in hull) + 1e-9


class TestCsv:
    def test_polygon_round_trip(self, ff2_07_04):
        poly = capacity_polygon(ff2_07_04, n_lambda=8, cfg=FAST)
        text = polygon_to_csv(poly)
        lines = text.strip().splitlines()
        assert lines[0] == "r1,r2"
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        assert rows[0] == rows[-1]  # closing vertex repeated
        reparsed = rows[:-1]
        assert len(reparsed) == len(poly.vertices)
        hull = convex_hull(reparsed)
        assert hull.shape[0] >= len(reparsed) - 1

    def test_support_curve_csv(self, blackwell_07_03):
        curve = support_curve(blackwell_07_03, [0.0, 0.5, 1.0], FAST)
        text = support_curve_to_csv(curve)
        lines = text.strip().splitlines()
        assert lines[0] == "lambda,value,case,px0,px1,px2"
        assert len(lines) == 4

    def test_format_number(self):
        assert format_number(-0.0) == "0"
        assert format_number(0.123456789123) == "0.123456789"
        assert "e" not in format_number(1.0)
