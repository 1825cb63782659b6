"""Worked-channel tests: closed forms, field arithmetic, degrees of freedom."""

from __future__ import annotations

import math

import numpy as np
import pytest

from statebc import (
    BlackwellParams,
    FiniteFieldSpec,
    blackwell_channel,
    blackwell_closed_form,
    blackwell_sweep_hull,
    capacity_polygon,
    dof,
    finite_field_channel,
    finite_field_region,
    polygon_contains,
    support_inner,
)
from statebc.channel import induced_joint
from statebc.infotheory import report
from statebc.regions import corner_values, make_polygon
from statebc.simplexopt import iter_lattice


class TestBlackwellChannel:
    def test_fixed_mapping(self):
        spec = blackwell_channel(0.7, 0.3)
        assert spec.f1 == (0, 1, 1)
        assert spec.f2 == (0, 0, 1)
        assert spec.f1[0] == 0 and spec.f2[0] == 0

    def test_balanced_input_gives_fair_components(self):
        spec = blackwell_channel(0.6, 0.2)
        j = induced_joint(spec, [0.5, 0.0, 0.5])
        rep = report(j)
        assert rep.h_f1 == pytest.approx(1.0, abs=1e-12)
        assert rep.h_f2 == pytest.approx(1.0, abs=1e-12)

    def test_sure_states_reduce_to_static_channel(self):
        # With states pinned the support curve is the classic no-state one;
        # cross-check the region against the closed-form sweep.
        hull = blackwell_sweep_hull(1.0, 0.0, grid=201)
        poly = capacity_polygon(blackwell_channel(1.0, 0.0), n_lambda=24)
        from statebc.regions import polygon_support

        for lam in np.linspace(0.0, 1.0, 16):
            assert polygon_support(poly, 1.0, float(lam)) == pytest.approx(
                polygon_support(hull, 1.0, float(lam)), abs=5e-3
            )


class TestBlackwellClosedForm:
    def test_balanced_static_corner(self):
        # alpha0 = alpha1 = 1/2, sure states: H(1/2) = 1 and the conditional
        # terms vanish because both ratios are 1.
        rp = blackwell_closed_form(BlackwellParams(0.5, 0.5), 1.0, 0.0, branch=3)
        assert rp.r1 == pytest.approx(1.0, abs=1e-12)
        assert rp.r2 == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_params(self):
        for branch in (3, 4):
            rp = blackwell_closed_form(BlackwellParams(0.0, 0.0), 0.7, 0.3, branch=branch)
            assert rp.r1 == pytest.approx(0.0, abs=1e-12)
            assert rp.r2 == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_branch(self):
        with pytest.raises(ValueError):
            blackwell_closed_form(BlackwellParams(0.2, 0.2), 0.7, 0.3, branch=5)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            BlackwellParams(0.8, 0.3)
        with pytest.raises(ValueError):
            BlackwellParams(-0.1, 0.2)

    def test_closed_form_matches_generic_corners(self):
        # Labeling validation: with alpha0 = P(X=0) and alpha1 = P(X=2), the
        # closed-form corners coincide with the generic rectangle corners of
        # the entropy formulas at every lattice input law. This pins the
        # channel's input label order.
        spec = blackwell_channel(0.7, 0.3)
        for block in iter_lattice(50, 3):
            px = block.astype(float) / 50
            a3, b3, a4, b4 = corner_values(spec, px)
            for row, a3v, b3v, a4v, b4v in zip(px, a3, b3, a4, b4):
                params = BlackwellParams(row[0], row[2])
                mid = blackwell_closed_form(params, 0.7, 0.3, branch=3)
                high = blackwell_closed_form(params, 0.7, 0.3, branch=4)
                assert mid.r1 == pytest.approx(a3v, abs=1e-9)
                assert mid.r2 == pytest.approx(b3v, abs=1e-9)
                assert high.r1 == pytest.approx(a4v, abs=1e-9)
                assert high.r2 == pytest.approx(b4v, abs=1e-9)


class TestFiniteField:
    def test_valid_matrix(self):
        ff = FiniteFieldSpec(2, ((1, 1), (1, 0)))
        assert ff.field_size == 2

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            FiniteFieldSpec(2, ((1, 1), (1, 1)))

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError, match="prime"):
            FiniteFieldSpec(4, ((1, 1), (1, 0)))

    def test_channel_construction_k3(self):
        # Oracle: enumerate the nine inputs of the K=3 matrix ((1,2),(1,1)).
        ff = FiniteFieldSpec(3, ((1, 2), (1, 1)))
        spec = finite_field_channel(ff, 0.8, 0.3)
        assert spec.input_size == 9
        f1 = []
        f2 = []
        for x1 in range(3):
            for x2 in range(3):
                f1.append((x1 + 2 * x2) % 3)
                f2.append((x1 + x2) % 3)
        assert spec.f1 == tuple(f1)
        assert spec.f2 == tuple(f2)
        assert spec.f1 != spec.f2
        assert set(spec.f1) == set(spec.f2) == {0, 1, 2}

    def test_region_vertices(self):
        ff = FiniteFieldSpec(2, ((1, 1), (1, 0)))
        poly = finite_field_region(ff, 0.7, 0.4)
        verts = {(round(v.r1, 9), round(v.r2, 9)) for v in poly.vertices}
        assert (0.7, 0.6) in verts
        assert (1.0, 0.0) in verts and (0.0, 1.0) in verts

    def test_region_time_division_triangle(self):
        ff = FiniteFieldSpec(2, ((1, 1), (1, 0)))
        poly = finite_field_region(ff, 0.5, 0.5)
        assert len(poly.vertices) == 3

    def test_region_sure_states_square(self):
        ff = FiniteFieldSpec(2, ((1, 1), (1, 0)))
        poly = finite_field_region(ff, 1.0, 0.0)
        verts = {(round(v.r1, 9), round(v.r2, 9)) for v in poly.vertices}
        assert verts == {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}

    def test_region_requires_canonical(self):
        with pytest.raises(ValueError):
            finite_field_region(FiniteFieldSpec(2, ((1, 1), (1, 0))), 0.4, 0.7)

    def test_uniform_input_is_optimal_everywhere(self):
        # In the two middle cases the argmax family is the uniform input: all
        # four pair entropies equal log2 K. The outermost cases involve only
        # marginal entropies, so ties allow correlated optima; there the
        # marginals still reach log2 K.
        ff = FiniteFieldSpec(2, ((1, 1), (1, 0)))
        spec = finite_field_channel(ff, 0.7, 0.4)
        for lam in (0.25, 0.75, 1.0, 1.4, 2.5):
            _, case, px = support_inner(spec, lam)
            rep = report(induced_joint(spec, px))
            assert rep.h_f1 == pytest.approx(1.0, abs=1e-3)
            assert rep.h_f2 == pytest.approx(1.0, abs=1e-3)
            if case in ("R3", "R4"):
                assert rep.h_f1_given_f2 == pytest.approx(1.0, abs=1e-3)
                assert rep.h_f2_given_f1 == pytest.approx(1.0, abs=1e-3)


class TestDof:
    def test_values(self):
        assert dof(0.7, 0.4) == 0.7 + (1.0 - 0.4)  # the exact formula value
        assert dof(0.7, 0.4) == pytest.approx(1.3, abs=1e-12)
        assert dof(1.0, 0.0) == 2.0
        assert dof(0.5, 0.5) == 1.0

    def test_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            dof(0.3, 0.7)

    def test_matches_sum_capacity_identity(self):
        # Sum capacity of the finite-field channel equals dof * log2 K.
        for k, (p1, p2) in ((2, (0.7, 0.4)), (3, (0.9, 0.2))):
            ff = FiniteFieldSpec(k, ((1, 1), (1, 0)))
            poly = finite_field_region(ff, p1, p2)
            best = max(v.r1 + v.r2 for v in poly.vertices)
            assert best == pytest.approx(dof(p1, p2) * math.log2(k), abs=1e-12)


class TestSweepHull:
    def test_time_division_triangle(self):
        hull = blackwell_sweep_hull(0.5, 0.5, grid=101)
        ref = make_polygon([(0, 0), (1, 0), (0, 1)], "ref")
        for v in hull.vertices:
            assert polygon_contains(ref, v, tol=1e-3)
        for e in [(0, 0), (1, 0), (0, 1)]:
            assert min(math.hypot(v.r1 - e[0], v.r2 - e[1]) for v in hull.vertices) <= 1e-3

    def test_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            blackwell_sweep_hull(0.3, 0.7)
