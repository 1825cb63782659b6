"""Region builder tests: support values, polygons, cross-checks, geometry."""

from __future__ import annotations

import math
from pathlib import Path

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
    simplexopt,
    support_inner,
    thresholds,
    transpose_polygon,
)
from statebc.regions import (
    case_of,
    corner_tables,
    corner_values,
    format_number,
    halfplane_vertices,
    make_polygon,
    pareto_front,
    polygon_to_csv,
)
from statebc.channel import canonicalize, component_entropies, load_channel, stacked_indicator
from statebc.infotheory import block_entropies
from statebc.simplexopt import combine, iter_lattice, lattice_size, maximize_pushforward_entropies
from conftest import random_spec

DATA = Path(__file__).parent / "data"

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

    def test_rejects_infinite_lambda(self, ff2_07_04):
        # support_inner returned (inf, 'R2', ...) for an infinite weight.
        for call in (lambda: case_of(ff2_07_04, math.inf), lambda: support_inner(ff2_07_04, math.inf),
                     lambda: support_curve(ff2_07_04, [0.5, math.inf])):
            with pytest.raises(ValueError, match="finite"):
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


# Weight counts that are not integers: each used to raise TypeError, and
# proposition_regions(spec, True) ran with one weight.
_NOT_COUNTS = [16.5, "16", None, True, [16], math.inf, math.nan]
_COUNTS = [16.0, np.int64(16), np.float64(16.0)]


@pytest.mark.parametrize("build", [capacity_polygon, proposition_regions], ids=("capacity", "proposition"))
class TestWeightCounts:
    @pytest.mark.parametrize("n_lambda", _NOT_COUNTS)
    def test_rejects_a_count_that_is_not_an_integer(self, blackwell_07_03, build, n_lambda):
        with pytest.raises(ValueError, match="n_lambda must be an integer"):
            build(blackwell_07_03, n_lambda)

    @pytest.mark.parametrize("n_lambda", _COUNTS, ids=("float", "numpy-int", "numpy-float"))
    def test_integral_count_is_that_integer(self, blackwell_07_03, build, n_lambda):
        assert build(blackwell_07_03, n_lambda) == build(blackwell_07_03, 16)


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


def raise_then_test(table, x, y, lo, scale):
    """The reference bin filter: raise table (r2 maxima by r1 bin, the last
    at -inf) by every point, then return the indices of the points not below
    the suffix maximum of a higher bin."""
    bins = np.minimum((x - lo) * scale, regions._PARETO_BINS).astype(np.intp)
    np.maximum.at(table, bins, y)
    above = np.maximum.accumulate(table[::-1])[::-1]
    return np.flatnonzero(y >= above[bins + 1])


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

    @pytest.mark.parametrize(
        "spec, grid",
        [
            ("blackwell.json", 60),
            ("gf2.json", 20),
            ("random5.json", 8),
            (blackwell_channel(1.0, 0.0), 40),
            (blackwell_channel(1.0, 1.0), 40),
            (blackwell_channel(0.0, 0.0), 40),
            (blackwell_channel(0.6, 0.6), 40),
            (ChannelSpec(3, (0, 0, 0), (0, 1, 1), 0.7, 0.3), 40),
        ],
        ids=("blackwell", "gf2", "random5", "p-1-0", "p-1-1", "p-0-0", "p1-eq-p2", "constant-f1"),
    )
    def test_fronts_equal_the_sort_only_front_of_the_lattice(self, spec, grid, monkeypatch):
        # The running bin table drops only strictly dominated corners, so
        # each R3'/R4' front is that of every lattice law's corner, whatever
        # the blocks; the constant f1 leaves the r1 range [0, 0]. The corners
        # are corner_values' clamped rows of the sweep kernel's reference
        # features, the entropies of the exact pushforwards counts @ e / m.
        if isinstance(spec, str):
            spec = canonicalize(load_channel(str(DATA / spec)))[0]
        stacked, blocks = stacked_indicator(spec)
        counts = np.vstack(list(iter_lattice(grid, spec.input_size)))
        features = block_entropies(counts @ stacked / grid, blocks)
        corners = [np.maximum(combine(features, row), 0.0) for k in corner_tables(spec) for row in k]
        want = [TestGeometry.sort_only_front(np.column_stack(c)) for c in (corners[:2], corners[2:])]
        for cap in (simplexopt._BLOCK_BYTES, 8 * spec.input_size):
            fronts = []
            monkeypatch.setattr(simplexopt, "_BLOCK_BYTES", cap)
            monkeypatch.setattr(regions, "_arc_candidates", lambda f: fronts.append(f) or f)
            primed_regions(spec, px_grid=grid)
            assert [f.tobytes() for f in fronts] == [w.tobytes() for w in want]

    # (spec, grid); every grid but the last case's has a seed lattice
    # (d >= 2), 61 is prime, so its seeds keep a deficit.
    SEEDED = {
        "blackwell": ("blackwell.json", 61),
        "gf2": ("gf2.json", 16),
        "random5": ("random5.json", 10),
        **{
            f"random-n{n}": (random_spec(np.random.default_rng(100 + n), (n,)), grid)
            for n, grid in ((2, 200), (3, 40), (4, 16), (5, 10))
        },
        "p-1-0": (blackwell_channel(1.0, 0.0), 40),
        "p-1-1": (blackwell_channel(1.0, 1.0), 40),
        "p-0-0": (blackwell_channel(0.0, 0.0), 40),
        "p1-eq-p2": (blackwell_channel(0.6, 0.6), 40),
        "constant-f1": (ChannelSpec(3, (0, 0, 0), (0, 1, 1), 0.7, 0.3), 40),
        "no-seeds": (blackwell_channel(0.7, 0.3), 10),
    }

    @pytest.mark.parametrize("two_rows", [False, True], ids=("default-blocks", "two-row-blocks"))
    @pytest.mark.parametrize("name", SEEDED)
    def test_polygons_equal_the_unseeded_raise_then_test_sweep(self, name, two_rows, monkeypatch):
        # Seeds are lattice points scored to the bytes they get again, and
        # the test-first filter keeps what raising first keeps: every polygon
        # is that of the plain lattice under raise_then_test, byte for byte.
        spec, grid = self.SEEDED[name]
        if isinstance(spec, str):
            spec = canonicalize(load_channel(str(DATA / spec)))[0]
        seeds = sum(map(len, regions._seeded_lattice(grid, spec.input_size))) - lattice_size(grid, spec.input_size)
        assert (seeds == 0) == (name == "no-seeds")
        if two_rows:
            monkeypatch.setattr(simplexopt, "_BLOCK_BYTES", 2 * 4 * spec.input_size)
        got = primed_regions(spec, px_grid=grid)
        monkeypatch.setattr(regions, "_seeded_lattice", iter_lattice)
        monkeypatch.setattr(regions, "_bin_filter", raise_then_test)
        want = primed_regions(spec, px_grid=grid)
        assert [p.label for p in got] == [p.label for p in want]
        assert [np.array(p.vertices).tobytes() for p in got] == [np.array(p.vertices).tobytes() for p in want]

    @pytest.mark.parametrize(
        "n, grids", [(1, (2, 500)), (2, (2, 191, 192, 1750)), (3, (25, 26, 61, 1750)), (5, (9, 10, 23)), (9, (3, 7))]
    )
    def test_seeds_are_lattice_points_of_a_coarse_sub_lattice(self, n, grids):
        # Blocks of floor(c m / d), the deficit on the last input, then the
        # lattice; d is the largest denominator below m with at most 1/64 of
        # its laws, and none when d < 2.
        for m in grids:
            size = lattice_size(m, n)
            rows = np.vstack(list(regions._seeded_lattice(m, n)))
            seeds, rest = rows[: len(rows) - size], rows[len(rows) - size :]
            assert np.array_equal(rest, np.vstack(list(iter_lattice(m, n))))
            assert (seeds >= 0).all() and (seeds.sum(axis=1) == m).all()
            assert len(seeds) <= size / 64
            d = max([d for d in range(2, m) if 64 * lattice_size(d, n) <= size], default=0)
            if d == 0:
                assert len(seeds) == 0
                continue
            c = np.vstack(list(iter_lattice(d, n))).astype(np.int64)
            floor = c * m // d
            assert np.array_equal(seeds[:, :-1], floor[:, :-1])
            assert (0 <= seeds[:, -1] - floor[:, -1]).all() and (seeds[:, -1] - floor[:, -1] < n).all()

    def test_a_lattice_past_int64_ranks_raises_before_any_block(self, monkeypatch):
        # lattice_size(1000, 9) > 2**63 - 1, while 1/64 of it would fit: no
        # seed block is swept before iter_lattice raises.
        spec = ChannelSpec(9, (0, 1, 2, 0, 1, 2, 0, 1, 2), (0, 0, 1, 1, 2, 2, 0, 1, 2), 0.7, 0.3)
        assert lattice_size(1000, 9) >> 6 < 2**63 <= lattice_size(1000, 9)

        def unscored(spec, m):
            raise AssertionError("no block may be scored")

        monkeypatch.setattr(regions, "_lattice_entropies", lambda spec, m: unscored)
        with pytest.raises(ValueError, match="does not fit int64"):
            primed_regions(spec, px_grid=1000)

    @pytest.mark.parametrize("grid", [2.7, "40", True, 1, -3, "", False, [], 0.0, np.bool_(False)])
    def test_rejects_a_grid_that_is_not_an_integer_above_one(self, grid, blackwell_07_03):
        # 2.7 used to sweep grid 2; "", False, [] and 0.0 the automatic grid.
        with pytest.raises(ValueError, match="px_grid must be an integer >= 2"):
            primed_regions(blackwell_07_03, px_grid=grid)

    @pytest.mark.parametrize("k, bad", [(0, math.nan), (1, math.inf), (2, -math.inf)])
    def test_rejects_a_feature_that_is_not_finite(self, k, bad, blackwell_07_03, monkeypatch):
        kernel = regions._lattice_entropies

        def broken(spec, m):
            entropies = kernel(spec, m)
            return lambda counts: tuple(np.where(i == k, bad, f) for i, f in enumerate(entropies(counts)))

        monkeypatch.setattr(regions, "_lattice_entropies", broken)
        with pytest.raises(ValueError, match="primed_regions needs finite rates"):
            primed_regions(blackwell_07_03, px_grid=40)

    @pytest.mark.parametrize("grid", [None, 0, np.int64(0)], ids=("none", "zero", "numpy-zero"))
    def test_none_or_integer_zero_picks_the_grid(self, grid, blackwell_07_03, monkeypatch):
        monkeypatch.setattr(regions, "_auto_px_grid", lambda dim: 40)
        assert primed_regions(blackwell_07_03, px_grid=grid) == primed_regions(blackwell_07_03, px_grid=40)

    def test_auto_grid_is_the_largest_within_the_budget(self):
        # The reference walk: from 2 up while the next grid stays within the
        # law budget, to at most the cap.
        for dim in range(1, 13):
            m = 2
            while m < regions._PX_GRID_CAP and lattice_size(m + 1, dim) <= regions._PX_GRID_BUDGET:
                m += 1
            assert regions._auto_px_grid(dim) == m
        assert [regions._auto_px_grid(d) for d in (2, 3, 9)] == [4096, 1998, 18]

    def test_integral_grid_of_any_type(self, blackwell_07_03):
        polys = primed_regions(blackwell_07_03, px_grid=40)
        assert primed_regions(blackwell_07_03, px_grid=40.0) == primed_regions(blackwell_07_03, px_grid=np.int64(40)) == polys


def front_polygon(front, label="R3'"):
    """primed_regions' hull of an R3'/R4' front: the front, the origin and
    its feet on the two axes, at the same tolerance."""
    aug = np.vstack([front, [[0.0, 0.0], [front[:, 0].max(), 0.0], [0.0, front[:, 1].max()]]])
    return make_polygon(aug, label, tol=1e-13)


def inside(poly, pts, tol):
    """polygon_contains for every point of pts, vectorized over points;
    poly is counter-clockwise with at least three vertices."""
    v = np.array(poly.vertices)
    e = np.roll(v, -1, axis=0) - v
    norm = np.hypot(e[:, 0], e[:, 1])
    for chunk in np.array_split(pts, max(1, len(pts) // 500)):
        dist = (e[:, 0] * (chunk[:, 1:] - v[:, 1]) - e[:, 1] * (chunk[:, :1] - v[:, 0])) / norm
        if (dist < -tol).any():
            return False
    return True


def dropped(front, cand):
    """The points of front (by descending r1) that cand leaves out."""
    keep = np.isin(front[:, 0], cand[:, 0])
    assert np.array_equal(front[keep], cand)
    return front[~keep]


class TestArcCandidates:
    SPECS = {
        "blackwell": ("blackwell.json", (1750, 300)),
        "gf2": ("gf2.json", (120, 61)),
        "random5": ("random5.json", (30, 21)),
    }

    @pytest.mark.parametrize("name", SPECS)
    def test_primed_hulls_equal_the_full_front_hulls(self, name, monkeypatch):
        path, grids = self.SPECS[name]
        spec = canonicalize(load_channel(str(DATA / path)))[0]
        candidates = regions._arc_candidates
        for grid in grids:
            fronts = []
            monkeypatch.setattr(regions, "_arc_candidates", lambda f: fronts.append(f) or f)
            full = primed_regions(spec, px_grid=grid)
            monkeypatch.setattr(regions, "_arc_candidates", candidates)
            polys = primed_regions(spec, px_grid=grid)
            assert [(p.label, p.vertices) for p in polys] == [(p.label, p.vertices) for p in full]
            assert len(fronts) == 2
            for front, poly in zip(fronts, polys[2:]):
                cand = candidates(front)
                assert len(cand) < len(front)
                assert front_polygon(cand, poly.label) == poly
                assert inside(poly, dropped(front, cand), 0.0)

    @staticmethod
    def check(front):
        cand = regions._arc_candidates(front)
        assert cand[0].tolist() == front[0].tolist() and cand[-1].tolist() == front[-1].tolist()
        poly = front_polygon(front)
        assert front_polygon(cand) == poly
        if len(poly.vertices) >= 3:
            assert inside(poly, dropped(front, cand), 0.0)
        return cand

    @pytest.mark.parametrize("seed", range(40))
    def test_collinear_runs(self, seed):
        # Dyadic points on a concave polyline, so its runs are exactly
        # collinear, and some below it.
        rng = np.random.default_rng(seed)
        x = np.sort(rng.choice(np.arange(1, 256), int(rng.integers(3, 120)), replace=False))[::-1] / 256
        y = np.minimum.reduce([1.0 - x, 0.5 - 0.25 * x + 0.125, 0.75 - 0.75 * x])
        y = y - np.where(rng.random(x.size) < 0.3, 1 / 512, 0.0)
        self.check(pareto_front(np.column_stack((x, y))))

    @pytest.mark.parametrize("seed", range(40))
    def test_tied_r1(self, seed):
        # A cloud on a coarse grid: many points share r1, the front keeps
        # one of each, with collinear and interior runs among them.
        rng = np.random.default_rng(seed)
        pts = rng.integers(0, 24, (400, 2)) / 24
        self.check(pareto_front(pts[pts.sum(axis=1) <= 1.25]))

    @pytest.mark.parametrize("seed", range(40))
    def test_points_near_a_chord(self, seed):
        # A circular arc plus a point on each chord, moved off it by up to
        # 1e-12 either way or 1e-9 inward: only those far below a chord
        # go, the rest are left to make_polygon's tolerance.
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(0.0, math.pi / 2, int(rng.integers(3, 60))))
        arc = np.column_stack((np.cos(t), np.sin(t)))
        a, b = arc[:-1], arc[1:]
        normal = np.column_stack((b[:, 1] - a[:, 1], a[:, 0] - b[:, 0]))
        normal /= np.hypot(normal[:, 0], normal[:, 1])[:, None]
        off = rng.choice([-1e-9, -1e-12, -1e-13, -5e-14, 0.0, 5e-14, 1e-13, 1e-12], a.shape[0])
        mid = a + rng.uniform(0.0, 1.0, (a.shape[0], 1)) * (b - a) + off[:, None] * normal
        self.check(pareto_front(np.vstack((arc, mid))))

    def test_margin(self):
        # Below the chord of its neighbours by a cross product of 2e-12 a
        # point goes; by 5e-13 it stays.
        front = np.array([[1.0, 0.0], [0.5, 0.5 - 2e-12], [0.25, 0.75 - 5e-13], [0.0, 1.0]])
        assert self.check(front).tolist() == front[[0, 2, 3]].tolist()


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_convex_hull_rejects_non_finite_points(self, bad):
        with pytest.raises(ValueError, match="finite"):
            convex_hull([(0.0, 0.0), (1.0, bad), (0.5, 0.5)])
        with pytest.raises(ValueError, match="finite"):
            make_polygon([(bad, 0.0), (1.0, 1.0)], "R1")

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("size", [0, 1, 2, 17, 3000])
    def test_unique_matches_numpy(self, seed, size):
        # Ties on a coarse grid and values that collide once rounded, as
        # the hull and the vertex filter hand them over, in one, two and
        # three columns: the sort-based helper gives np.unique's bytes.
        rng = np.random.default_rng(seed)
        grid = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4], (size, 3)) / 3.0
        pts = (grid + rng.normal(0.0, 1e-11, (size, 3))).round(10)
        for a in (pts[:, 0], pts[:, :2], pts[:, ::-1].copy(), pts[:, :1] * 1e6):
            want = np.unique(a) if a.ndim == 1 else np.unique(a, axis=0)
            assert regions._unique(a).tobytes() == want.tobytes()

    def test_unique_keeps_the_first_of_a_signed_zero_tie(self):
        # Rows equal but for the sign of a zero are one row, as in
        # np.unique; the helper keeps the first of them in input order.
        pts = np.array([[0.0, 1.0], [-0.0, 1.0], [-0.0, 0.5], [1.0, -0.0], [1.0, 0.0]])
        got = regions._unique(pts)
        assert np.array_equal(got, np.unique(pts, axis=0))
        assert np.signbit(got).tolist() == [[True, False], [False, False], [False, True]]
        assert np.signbit(regions._unique(pts[:, 0])).tolist() == [False, False]

    @staticmethod
    def all_pairs_vertices(constraints, feas_tol=1e-9):
        """halfplane_vertices with every pair against every half-plane in
        one array."""
        arr = np.asarray(constraints, dtype=float)
        a, b, c = arr.T
        i, j = np.triu_indices(len(arr), k=1)
        det = a[i] * b[j] - b[i] * a[j]
        ok = np.abs(det) > 1e-12
        i, j, det = i[ok], j[ok], det[ok]
        x = (c[i] * b[j] - c[j] * b[i]) / det
        y = (a[i] * c[j] - a[j] * c[i]) / det
        feas = (x[:, None] * a + y[:, None] * b <= c + feas_tol).all(axis=1)
        return np.unique(np.column_stack((x, y))[feas].round(10), axis=0)

    @pytest.mark.parametrize("seed", range(6))
    def test_halfplane_vertices_match_the_all_pairs_reference(self, seed, monkeypatch):
        # The support lines of a random polygon in the first quadrant (many
        # meet at each vertex, some with slack) and the two axes: the
        # streamed two-pass filter finds the all-pairs vertices, and the
        # same bytes at any block size, one pair per block included.
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 1.0, (int(rng.integers(2, 9)), 2))
        angles = rng.uniform(0.0, 0.5 * math.pi, int(rng.integers(3, 80)))
        normals = np.column_stack((np.cos(angles), np.sin(angles)))
        offsets = (normals @ pts.T).max(axis=1) + np.where(rng.random(angles.size) < 0.2, 0.05, 0.0)
        cons = np.vstack([[(-1.0, 0.0, 0.0), (0.0, -1.0, 0.0)], np.column_stack((normals, offsets))])
        want = self.all_pairs_vertices(cons)
        got = halfplane_vertices(cons)
        assert got.shape == want.shape and np.array_equal(got, want)
        for cap in (8 * len(cons), 8 * 7 * len(cons)):
            monkeypatch.setattr(regions, "_BLOCK_BYTES", cap)
            assert halfplane_vertices(cons).tobytes() == got.tobytes()

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

    @pytest.mark.parametrize(
        "pts",
        [[[1.0, math.nan], [0.5, 0.5]], [[math.nan, 1.0], [0.5, 0.5]], [[math.inf, 0.0], [0.5, 0.5]], [[0.0, -math.inf]]],
        ids=("nan-r2", "nan-r1", "inf-r1", "inf-r2"),
    )
    def test_pareto_front_rejects_non_finite(self, pts):
        # A NaN r2 emptied the front, and a NaN r1 kept its point.
        with pytest.raises(ValueError, match="finite"):
            pareto_front(pts)

    @staticmethod
    def sort_only_front(pts):
        """pareto_front without its prefilter, -0.0 read as 0.0."""
        pts = pts + 0.0
        pts = pts[np.argsort(-pts[:, 0], kind="stable")]
        runs = np.flatnonzero(np.diff(pts[:, 0], prepend=np.inf))
        top = np.maximum.reduceat(pts[:, 1], runs)
        keep = top > np.maximum.accumulate(np.concatenate([[-np.inf], top[:-1]]))
        return np.column_stack((pts[runs[keep], 0], top[keep]))

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.sampled_from([1, 2, 9, 300, regions._PARETO_BINS + 1, 3 * regions._PARETO_BINS]),
        levels=st.sampled_from([None, 1, 2, 40]),
        scale=st.sampled_from([1e-300, 1.0, 1e300]),
    )
    def test_pareto_front_equals_the_sort_only_front(self, seed, size, levels, scale):
        # r1 on `levels` values (1: all equal) or continuous, r2 on 40
        # levels, signed zeros, and spans that are tiny, unit or overflow.
        rng = np.random.default_rng(seed)
        x = rng.random(size) if levels is None else rng.integers(0, levels, size) / levels
        y = rng.integers(0, 40, size) / 40.0
        pts = np.column_stack((x, y)) * np.where(rng.random((size, 2)) < 0.2, -scale, scale)
        front = pareto_front(pts)
        assert front.shape[1] == 2
        assert front.tobytes() == self.sort_only_front(pts).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.sampled_from([0, 1, 2, 9, 300, 3 * regions._PARETO_BINS]),
        filled=st.sampled_from([0.0, 0.01, 0.5, 1.0]),
        levels=st.sampled_from([1, 3, 40]),
        lo=st.sampled_from([0.0, -0.5]),
    )
    def test_bin_filter_keeps_and_leaves_what_raising_first_does(self, seed, size, filled, levels, lo):
        # above is the suffix maxima of a table whose `filled` share of bins
        # holds r2 on `levels` values with signed zeros (0.0: all -inf, as
        # pareto_front passes it); r1 runs past the top of the range, so the
        # clipped top bin is used, and r2 ties the table and other points.
        rng = np.random.default_rng(seed)
        bins = regions._PARETO_BINS
        values = np.array([-0.0, 0.0] + [(k + 1) / levels for k in range(levels)])
        table = np.where(rng.random(bins + 2) < filled, rng.choice(values, bins + 2), -np.inf)
        table[-1] = -np.inf
        above = np.maximum.accumulate(table[::-1])[::-1]
        x = lo + rng.integers(0, 5 * bins // 4, size) / bins
        y = rng.choice(values, size)
        ref = above.copy()
        want = raise_then_test(ref, x, y, lo, float(bins))
        got = regions._bin_filter(above, x, y, lo, float(bins))
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(above, np.maximum.accumulate(ref[::-1])[::-1])
        assert np.isneginf(above[-1])

    @staticmethod
    def reference_hull(points, tol=regions._HULL_TOL):
        """convex_hull's monotone chain over a list of [x, y] points."""
        pts = np.unique(np.asarray(points, dtype=float).round(12), axis=0)
        if pts.shape[0] <= 2:
            return pts

        def chain(seq):
            out = []
            for p in seq:
                while len(out) >= 2:
                    cross = (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1]) - (out[-1][1] - out[-2][1]) * (
                        p[0] - out[-2][0]
                    )
                    if cross <= tol:
                        out.pop()
                    else:
                        break
                out.append(p)
            return out

        seq = pts.tolist()
        return np.array(chain(seq)[:-1] + chain(seq[::-1])[:-1])

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.sampled_from([1, 3, 4, 40, 2000]),
        levels=st.sampled_from([None, 2, 8]),
        tol=st.sampled_from([regions._HULL_TOL, 1e-9, 0.0, 1e-3]),
    )
    def test_convex_hull_matches_the_reference_chain(self, seed, size, levels, tol):
        # Clouds, collinear runs on a coarse grid, duplicates, a concave
        # front as the Pareto sweeps hand over, and a line whose cross
        # products are rounding noise, so the order of the arithmetic shows.
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(size, 2)) if levels is None else rng.integers(0, levels, (size, 2)) / levels
        x = np.sort(rng.random(size))
        if seed % 3 == 1:
            pts = np.column_stack((x, np.sqrt(1.0 - x**2) + rng.normal(0.0, 1e-10, size)))
        elif seed % 3 == 2:
            pts = np.column_stack((x, 0.3 * x + 0.1))
        got, want = convex_hull(pts, tol=tol), self.reference_hull(pts, tol)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

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


def test_polygon_vertices_are_the_hull_rows_as_python_floats():
    rng = np.random.default_rng(5)
    pts = np.vstack((rng.random((200, 2)), [(0.0, -0.0), (-0.0, 1.0)]))
    poly = make_polygon(pts, "cloud")
    hull = convex_hull(pts)
    assert all(type(c) is float for v in poly.vertices for c in v)
    assert [(v.r1.hex(), v.r2.hex()) for v in poly.vertices] == [(float(x).hex(), float(y).hex()) for x, y in hull]


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
