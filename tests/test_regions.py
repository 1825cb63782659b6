"""Region builder tests: support values, polygons, cross-checks, geometry."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statebc import (
    ChannelSpec,
    FiniteFieldSpec,
    blackwell_channel,
    capacity_polygon,
    case_spanning_lambdas,
    convex_hull,
    finite_field_channel,
    polygon_contains,
    polygon_support,
    primed_regions,
    proposition_regions,
    support_curve,
    regions,
    support_inner,
    thresholds,
    transpose_polygon,
)
from statebc.regions import (
    case_of,
    corner_values,
    format_number,
    halfplane_vertices,
    make_polygon,
    pareto_front,
    polygon_to_csv,
)
from statebc.channel import component_entropies, stacked_indicator
from statebc.simplexopt import combine, iter_lattice, maximize_pushforward_entropies
from conftest import random_spec

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

    def test_rejects_nan_lambda(self, ff2_07_04):
        for call in (lambda: case_of(ff2_07_04, math.nan), lambda: support_inner(ff2_07_04, math.nan),
                     lambda: support_curve(ff2_07_04, [0.5, math.nan])):
            with pytest.raises(ValueError, match="non-negative"):
                call()

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
        curve = support_curve(blackwell_07_03, lams)
        vals = [s.value for s in curve.samples]
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-8


class TestCapacityPolygon:
    def test_finite_field_full_square(self):
        spec = finite_field_channel(FiniteFieldSpec(2, ((1, 1), (1, 0))), 1.0, 0.0)
        poly = capacity_polygon(spec, n_lambda=16)
        vertices_close(poly, [(0, 0), (1, 0), (1, 1), (0, 1)], tol=5e-3)

    def test_finite_field_generic(self, ff2_07_04):
        poly = capacity_polygon(ff2_07_04, n_lambda=16)
        vertices_close(poly, [(0, 0), (1, 0), (0.7, 0.6), (0, 1)], tol=5e-3)

    def test_blackwell_time_division_triangle(self):
        poly = capacity_polygon(blackwell_channel(0.5, 0.5), n_lambda=16)
        vertices_close(poly, [(0, 0), (1, 0), (0, 1)], tol=1e-3)

    def test_swapped_input_transposes(self):
        spec = ChannelSpec(3, (0, 1, 1), (0, 0, 1), 0.3, 0.7)
        direct = capacity_polygon(spec, n_lambda=8)
        canon = capacity_polygon(ChannelSpec(3, (0, 1, 1), (0, 0, 1), 0.7, 0.3), n_lambda=8)
        expected = transpose_polygon(canon)
        assert len(direct.vertices) == len(expected.vertices)
        for a, b in zip(direct.vertices, expected.vertices):
            assert a.r1 == pytest.approx(b.r1, abs=1e-6)
            assert a.r2 == pytest.approx(b.r2, abs=1e-6)

    def test_support_consistency(self, blackwell_07_03):
        # On the weights the polygon actually sampled, every vertex obeys the
        # corresponding half-plane and some vertex attains it.
        from statebc.regions import _case_switches, _weight_grid

        poly = capacity_polygon(blackwell_07_03, n_lambda=16)
        for lam in _weight_grid(_case_switches(blackwell_07_03)[0], 16):
            value, _, _ = support_inner(blackwell_07_03, float(lam))
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
        spec = _BATCH_SPECS[name]
        seen = []

        def record(constraints, *args, **kwargs):
            seen.extend(constraints)
            return halfplane_vertices(constraints, *args, **kwargs)

        monkeypatch.setattr(regions, "halfplane_vertices", record)
        capacity_polygon(spec, n_lambda=8)
        c2_row = regions._coefficient_row(spec, 1, 1.0 / thresholds(spec)[1], 1.0)
        (c2,) = maximize_pushforward_entropies(*stacked_indicator(spec), [c2_row])
        halfplanes = seen[2:]
        assert len(halfplanes) > 8
        for a, b, c in halfplanes:
            if a == 1.0:
                assert c == support_inner(spec, b)[0]
            elif a > 0.0:
                assert b == 1.0 and c == regions._solve(spec, [(a, 1.0)])[0][0]
            else:
                assert (a, b, c) == (0.0, 1.0, c2.value)


# The per-case support objectives as the paper states them, the reference
# for the corner tables.
def ref_r1(spec, h1, h2, hj):
    return spec.p1 * h1 + spec.q1 * h2


def ref_r3(spec, h1, h2, hj, lam):
    return spec.p1 * h1 + spec.q1 * h2 + (lam * spec.q2 - spec.q1) * (hj - h1)


def ref_r4(spec, h1, h2, hj, lam):
    return spec.p1 * (hj - h2) + lam * (spec.p2 * (h1 + h2 - hj) + spec.q2 * h2)


def ref_r4_scaled(spec, h1, h2, hj, mu):
    return mu * spec.p1 * (hj - h2) + spec.p2 * (h1 + h2 - hj) + spec.q2 * h2


def ref_c2(spec, h1, h2, hj):
    return spec.p2 * h1 + spec.q2 * h2


def ref_support(spec, a, b, F):
    """The support objective in direction (a, b) by the case formulas."""
    lo, hi = thresholds(spec)
    if b > a:  # mu * support at lambda = 1/mu
        mu = a / b
        return b * (ref_c2(spec, *F) if mu <= 1.0 / hi else ref_r4_scaled(spec, *F, mu))
    lam = b / a
    return a * (ref_r1(spec, *F) if lam <= lo else ref_r3(spec, *F, lam))


def table_support(spec, a, b, F):
    table, a2, b2, scale = regions._support_row(spec, a, b)
    return scale * combine(F, regions._coefficient_row(spec, table, a2, b2))


class TestCornerTables:
    """(a', b') K F reproduces the paper's per-case objectives and corners."""

    @pytest.mark.parametrize("name", list(_BATCH_SPECS))
    def test_matches_case_formulas(self, name):
        spec = _BATCH_SPECS[name]
        _, hi = thresholds(spec)
        P = np.random.default_rng(31).dirichlet(np.ones(spec.input_size), size=200)
        F = component_entropies(spec, P)
        for lam in case_spanning_lambdas(spec, 32):
            # (1, lam) above 1 gives the R4 objective, then lam * C2.
            if lam <= 1.0:
                want = ref_support(spec, 1.0, lam, F)
            else:
                want = ref_r4(spec, *F, lam) if lam <= hi else lam * ref_c2(spec, *F)
            np.testing.assert_allclose(table_support(spec, 1.0, lam, F), want, rtol=0, atol=1e-12)
        for a, b in [(mu, 1.0) for mu in np.linspace(0.0, 1.0, 17)] + [(2.0, 0.5), (0.5, 2.0)]:
            np.testing.assert_allclose(table_support(spec, a, b, F), ref_support(spec, a, b, F), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", list(_BATCH_SPECS))
    def test_corner_values_match_corner_formulas(self, name):
        spec = _BATCH_SPECS[name]
        P = np.random.default_rng(32).dirichlet(np.ones(spec.input_size), size=200)
        h1, h2, hj = component_entropies(spec, P)
        mi = h1 + h2 - hj
        want = (spec.p1 * h1 + spec.q1 * mi, spec.q2 * (hj - h1), spec.p1 * (hj - h2), spec.p2 * mi + spec.q2 * h2)
        for got, w in zip(corner_values(spec, P), want):
            np.testing.assert_allclose(got, np.maximum(w, 0.0), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("p1, p2", [(0.6, 0.0), (1.0, 1.0), (0.45, 0.45)], ids=("hi-inf", "lo-zero", "p1-eq-p2"))
    def test_degenerate_specs(self, p1, p2):
        spec = ChannelSpec(4, (0, 1, 1, 2), (1, 0, 2, 2), p1, p2)
        P = np.random.default_rng(33).dirichlet(np.ones(4), size=50)
        F = component_entropies(spec, P)
        np.testing.assert_allclose(table_support(spec, 1.0, 0.0, F), ref_r1(spec, *F), rtol=0, atol=1e-12)
        np.testing.assert_allclose(table_support(spec, 0.0, 1.0, F), ref_c2(spec, *F), rtol=0, atol=1e-12)
        np.testing.assert_allclose(table_support(spec, 1.0, 1.0, F), ref_r3(spec, *F, 1.0), rtol=0, atol=1e-12)


# Canonical state probabilities: generic pairs and the degenerate p2 = 0,
# p1 = p2, (1, 1), (1, 0) and (0, 0).
_PROBS = st.one_of(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(lambda p: tuple(sorted(p, reverse=True))),
    st.floats(0.0, 1.0).map(lambda p: (p, 0.0)),
    st.floats(0.0, 1.0).map(lambda p: (p, p)),
    st.sampled_from([(1.0, 1.0), (1.0, 0.0), (0.0, 0.0)]),
)


@st.composite
def canonical_specs(draw):
    n = draw(st.integers(2, 9))
    maps = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    return ChannelSpec(n, tuple(draw(maps)), tuple(draw(maps)), *draw(_PROBS))


_WEIGHTS = st.floats(0.0, 1e3)


@settings(max_examples=400, deadline=None)
@given(canonical_specs(), st.tuples(_WEIGHTS, _WEIGHTS).filter(lambda d: max(d) > 0.0))
def test_clamped_rows_are_non_negative(spec, direction):
    # The solver's precondition: every clamped coefficient row is
    # non-negative up to rounding, which makes the inner objective concave
    # and its dual bound sound.
    row = regions._coefficient_row(spec, *regions._support_row(spec, *direction)[:3])
    assert row.min() >= -1e-12


class TestPropositionRegions:
    @pytest.mark.parametrize("n_lambda", [0, -3])
    def test_rejects_non_positive_n_lambda(self, blackwell_07_03, n_lambda):
        with pytest.raises(ValueError, match="n_lambda must be >= 1"):
            proposition_regions(blackwell_07_03, n_lambda=n_lambda)

    def test_finite_field_rectangles(self, ff2_07_04):
        r1, r2, r3, r4 = proposition_regions(ff2_07_04, n_lambda=16)
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
        r1 = proposition_regions(blackwell_07_03, n_lambda=8)[0]
        c1 = max(v.r1 for v in r1.vertices)
        assert c1 >= best - 1e-9
        assert c1 == pytest.approx(best, abs=1e-3)


class TestPrimedRegions:
    def test_containment(self, ff2_07_04):
        regs = proposition_regions(ff2_07_04, n_lambda=16)
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
        cap = capacity_polygon(spec, n_lambda=16)
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
        assert pareto_front(np.zeros((0, 2))).shape == (0, 2)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(*[st.one_of(st.sampled_from([0.0, -0.0, 0.25, 1.0]), st.floats(-1.0, 2.0))] * 2), max_size=30
        ).map(lambda pts: pts + pts[: len(pts) // 2])
    )
    def test_pareto_front_is_the_weakly_undominated_set(self, pts):
        # Ties, exact duplicates and signed zeros: one copy of each point
        # that no other point weakly dominates, by descending r1.
        keep = {p for p in pts if not any(q[0] >= p[0] and q[1] >= p[1] and q != p for q in pts)}
        front = pareto_front(np.array(pts, dtype=float).reshape(-1, 2))
        assert front.shape == (len(keep), 2)
        assert list(map(tuple, front.tolist())) == sorted(keep, key=lambda p: -p[0])

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
        poly = capacity_polygon(ff2_07_04, n_lambda=8)
        text = polygon_to_csv(poly)
        lines = text.strip().splitlines()
        assert lines[0] == "r1,r2"
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        assert rows[0] == rows[-1]  # closing vertex repeated
        reparsed = rows[:-1]
        assert len(reparsed) == len(poly.vertices)
        hull = convex_hull(reparsed)
        assert hull.shape[0] >= len(reparsed) - 1

    def test_format_number(self):
        assert format_number(-0.0) == "0"
        assert format_number(0.123456789123) == "0.123456789"
        assert "e" not in format_number(1.0)
