"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the criterion lines as
they complete. Every tolerance is pinned here, not configured elsewhere.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from statebc import (
    FiniteFieldSpec,
    blackwell_channel,
    blackwell_sweep_hull,
    brute_force_support,
    capacity_polygon,
    case_spanning_lambdas,
    convex_hull,
    dof,
    finite_field_channel,
    finite_field_region,
    polygon_contains,
    polygon_support,
    primed_regions,
    proposition_regions,
    report,
    support_inner,
    support_outer,
    thresholds,
    transpose_polygon,
    verify_converse,
)
from statebc.channel import induced_joint
from statebc.regions import make_polygon
from statebc.simplexopt import default_grid
from conftest import lemma_auxiliary, lemma_floor, random_pmf, random_spec

pytestmark = pytest.mark.slow

FF2 = FiniteFieldSpec(2, ((1, 1), (1, 0)))
FF3 = FiniteFieldSpec(3, ((1, 1), (1, 0)))


def _report(num: int, desc: str, failures: list[str]) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"[criterion {num}] {verdict} - {desc}")
    assert not failures, f"criterion {num}: " + "; ".join(failures[:5])


def _direction_supports(poly, n: int = 32):
    vals = []
    for lam in np.linspace(0.0, 1.0, n):
        vals.append(polygon_support(poly, 1.0, float(lam)))
    for mu in np.linspace(0.0, 1.0, n):
        vals.append(polygon_support(poly, float(mu), 1.0))
    return np.array(vals)


def _vertex_error(poly, reference) -> float:
    """Max of: distance from each reference vertex to the nearest polygon
    vertex, and distance of each polygon vertex outside the reference."""
    worst = 0.0
    for e in reference.vertices:
        worst = max(
            worst, min(math.hypot(v.r1 - e.r1, v.r2 - e.r2) for v in poly.vertices)
        )
    for v in poly.vertices:
        lo, hi = 0.0, 1.0
        if polygon_contains(reference, v, tol=1e-12):
            continue
        # bisect the containment tolerance to measure the outside distance
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if polygon_contains(reference, v, tol=mid):
                hi = mid
            else:
                lo = mid
        worst = max(worst, hi)
    return worst


def test_criterion_1_finite_field_reproduction():
    failures = []
    for p1, p2 in [(0.5, 0.5), (0.7, 0.4), (1.0, 0.0)]:
        spec = finite_field_channel(FF2, p1, p2)
        t0 = time.perf_counter()
        poly = capacity_polygon(spec)
        elapsed = time.perf_counter() - t0
        analytic = finite_field_region(FF2, p1, p2)
        err = _vertex_error(poly, analytic)
        if err > 5e-3:
            failures.append(f"({p1},{p2}) vertex error {err:.2e} > 5e-3")
        if elapsed > 30.0:
            failures.append(f"({p1},{p2}) took {elapsed:.1f}s > 30s")
    _report(1, "finite-field K=2 regions match the analytic hull (<=5e-3, <=30s/case)", failures)


def test_criterion_2_finite_field_sum_capacity():
    failures = []
    for k, ff in ((2, FF2), (3, FF3)):
        for p1, p2 in [(0.7, 0.4), (0.9, 0.2)]:
            spec = finite_field_channel(ff, p1, p2)
            poly = capacity_polygon(spec, n_lambda=24)
            best = max(v.r1 + v.r2 for v in poly.vertices)
            target = (p1 + (1.0 - p2)) * math.log2(k)
            if abs(best - target) > 5e-3:
                failures.append(f"K={k} ({p1},{p2}): sum {best:.5f} vs {target:.5f}")
            if dof(p1, p2) != p1 + (1.0 - p2):
                failures.append(f"dof({p1},{p2}) not exact")
    _report(2, "finite-field sum capacity = (p1+q2) log2 K (<=5e-3; dof exact)", failures)


def test_criterion_3_blackwell_reproduction():
    failures = []
    for p1, p2 in [(0.5, 0.5), (0.7, 0.3), (1.0, 0.0)]:
        spec = blackwell_channel(p1, p2)
        poly = capacity_polygon(spec)
        sweep = blackwell_sweep_hull(p1, p2, grid=101)
        diff = np.abs(_direction_supports(poly) - _direction_supports(sweep)).max()
        if diff > 5e-3:
            failures.append(f"({p1},{p2}) support mismatch {diff:.2e} > 5e-3")
        c1 = polygon_support(poly, 1.0, 0.0)
        c2 = polygon_support(poly, 0.0, 1.0)
        if abs(c1 - 1.0) > 1e-6 or abs(c2 - 1.0) > 1e-6:
            failures.append(f"({p1},{p2}) C1={c1:.6f} C2={c2:.6f} != 1")
        if (p1, p2) == (0.5, 0.5):
            triangle = make_polygon([(0, 0), (1, 0), (0, 1)], "triangle")
            err = _vertex_error(poly, triangle)
            if err > 1e-3:
                failures.append(f"(0.5,0.5) not the time-division triangle ({err:.2e})")
    _report(3, "Blackwell regions match the closed-form sweep (64 supports <=5e-3)", failures)


def test_criterion_4_converse_certification():
    failures = []
    t0 = time.perf_counter()
    channels = [
        ("blackwell(0.7,0.3)", blackwell_channel(0.7, 0.3)),
        ("finite-field(0.7,0.4)", finite_field_channel(FF2, 0.7, 0.4)),
    ]
    rng = np.random.default_rng(2024)
    for i in range(20):
        channels.append((f"random{i}", random_spec(rng, sizes=(3, 4))))
    for name, spec in channels:
        rep = verify_converse(spec, case_spanning_lambdas(spec, 32), tol=5e-3)
        if not rep.passed:
            failures.append(f"{name}: max gap {rep.max_gap:.2e} > 5e-3")
        if any(s.outer < s.inner - 1e-9 for s in rep.samples):
            failures.append(f"{name}: outer fell below inner")
        # The certificate: outer lies in [inner, upper], upper the inner
        # solver's dual bound, and the bracket is at most 1e-9 wide.
        if any(not s.outer <= s.upper + 1e-9 for s in rep.samples):
            failures.append(f"{name}: outer above the certified upper bound")
        if any(not s.upper - s.inner <= 1e-9 for s in rep.samples):
            width = max(s.upper - s.inner for s in rep.samples)
            failures.append(f"{name}: certified bracket {width:.2e} wider than 1e-9")
    elapsed = time.perf_counter() - t0
    if elapsed > 300.0:
        failures.append(f"runtime {elapsed:.0f}s > 300s")
    _report(4, f"converse certified on 22 channels x 32 weights in {elapsed:.0f}s (<=5e-3, brackets <=1e-9)", failures)


def test_criterion_5_oracle_equivalence():
    # The converse lemma brackets the brute-force oracle exactly: the outer
    # objective at any joint is at most the clamped inner row at its input
    # marginal, with equality at a deterministic U (lemma_auxiliary). So the
    # lattice maximum equals the inner row's maximum over the input lattice
    # of the same grid wherever u covers that U's values, and never exceeds it.
    failures = []
    rng = np.random.default_rng(77)
    for i in range(10):
        spec = random_spec(rng, sizes=(3,))
        u = int(rng.integers(2, 5))
        _, hi = thresholds(spec)
        if i % 2 == 0:
            lam = float(rng.uniform(0.0, 1.0))
        else:
            lam = float(rng.uniform(1.0, hi if math.isfinite(hi) else 3.0))
        grid = 2 * default_grid(u * spec.input_size)
        brute = brute_force_support(spec, lam, u, grid)
        floor = lemma_floor(spec, lam, grid)
        inner, _, _ = support_inner(spec, lam)
        outer = support_outer(spec, lam, u)
        if brute > floor + 1e-12 or (u > lemma_auxiliary(spec, lam).max() and brute < floor - 1e-12):
            failures.append(f"spec{i}: brute {brute:.15f} vs lattice floor {floor:.15f} (u={u})")
        if brute > inner + 1e-9:
            failures.append(f"spec{i}: brute {brute:.12f} above inner {inner:.12f}")
        if abs(outer - inner) > 1e-9:
            failures.append(f"spec{i}: outer {outer:.12f} vs inner {inner:.12f}")
    _report(5, "brute-force oracle equals the converse lemma's lattice floor (<=1e-12), outer = inner (<=1e-9)", failures)


def test_criterion_6_region_decomposition_consistency():
    failures = []
    cases = [
        ("blackwell(0.7,0.3)", blackwell_channel(0.7, 0.3), 2000),
        ("finite-field(0.7,0.4)", finite_field_channel(FF2, 0.7, 0.4), 96),
    ]
    for name, spec, px_grid in cases:
        regs = proposition_regions(spec)
        primes = primed_regions(spec, px_grid=px_grid)
        hull_a = make_polygon([(v.r1, v.r2) for r in regs for v in r.vertices], "corners")
        hull_b = make_polygon([(v.r1, v.r2) for r in primes for v in r.vertices], "sweeps")
        diff = np.abs(_direction_supports(hull_a) - _direction_supports(hull_b)).max()
        if diff > 5e-3:
            failures.append(f"{name}: hull support mismatch {diff:.2e} > 5e-3")
        for a, b in ((regs[2], primes[2]), (regs[3], primes[3])):
            for v in a.vertices:
                if not polygon_contains(b, v, tol=1e-6):
                    failures.append(f"{name}: {a.label} vertex {v} outside {b.label}")
    _report(6, "corner regions agree with full-sweep regions (supports <=5e-3, containment <=1e-6)", failures)


def test_criterion_7a_entropy_identities():
    failures = []
    rng = np.random.default_rng(7)
    for i in range(120):
        rows, cols = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        joint = rng.dirichlet(np.ones(rows * cols)).reshape(rows, cols)
        rep = report(joint)
        if abs(rep.h_f1 + rep.h_f2_given_f1 - (rep.h_f2 + rep.h_f1_given_f2)) > 1e-9:
            failures.append(f"instance {i}: chain rule broken")
        if rep.mi_f1_f2 < -1e-12 or rep.mi_f1_f2 > min(rep.h_f1, rep.h_f2) + 1e-9:
            failures.append(f"instance {i}: mutual information out of range")
    _report(7, "entropy identities hold on 120 random joints", failures)


def test_criterion_7b_receiver_swap_symmetry():
    failures = []
    rng = np.random.default_rng(8)
    for i in range(100):
        spec = random_spec(rng, sizes=(2, 3, 4))
        swapped = type(spec)(spec.input_size, spec.f1, spec.f2, spec.p2, spec.p1)
        pa = capacity_polygon(spec, n_lambda=5)
        pb = transpose_polygon(capacity_polygon(swapped, n_lambda=5))
        va, vb = np.array(pa.vertices), np.array(pb.vertices)
        if va.shape != vb.shape or np.abs(va - vb).max() > 1e-6:
            failures.append(f"instance {i}: swapped region differs")
    _report(7, "receiver-swap symmetry of regions holds on 100 random channels", failures)


def test_criterion_7c_hull_convexity():
    failures = []
    rng = np.random.default_rng(9)
    for i in range(120):
        pts = rng.uniform(0.0, 2.0, (int(rng.integers(3, 60)), 2))
        hull = convex_hull(pts)
        if hull.shape[0] >= 3:
            for k in range(len(hull)):
                o, a, b = hull[k - 1], hull[k], hull[(k + 1) % len(hull)]
                cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
                if cross < -1e-9:
                    failures.append(f"instance {i}: non-convex turn")
        for ang in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
            d = np.array([math.cos(ang), math.sin(ang)])
            if (pts @ d).max() > (hull @ d).max() + 1e-9:
                failures.append(f"instance {i}: hull misses a support direction")
    _report(7, "hull convexity and support dominance hold on 120 random clouds", failures)


def test_criterion_7d_support_curve_monotone_and_continuous():
    failures = []
    rng = np.random.default_rng(10)
    for i in range(100):
        spec = random_spec(rng, sizes=(2, 3, 4))
        lo, hi = thresholds(spec)
        hic = hi if math.isfinite(hi) else 3.0
        lams = sorted({0.0, lo / 2, lo, (lo + 1) / 2, 1.0, (1 + hic) / 2, hic, 2 * hic + 0.5})
        vals = [support_inner(spec, lam)[0] for lam in lams]
        # monotone within the optimizer's convergence noise
        if any(b < a - 1e-8 for a, b in zip(vals, vals[1:])):
            failures.append(f"instance {i}: support curve decreased")
        for t in (lo, 1.0, hic):
            if t <= 1e-9:
                continue
            jump = abs(
                support_inner(spec, t - 1e-9)[0] - support_inner(spec, t + 1e-9)[0]
            )
            if jump > 2e-4:  # case switches are continuous to within 2e-4 bits
                failures.append(f"instance {i}: jump {jump:.2e} at threshold {t:.3f}")
    _report(7, "support curves are monotone and case-continuous on 100 random channels", failures)


def test_criterion_7e_auxiliary_size_monotonicity():
    failures = []
    rng = np.random.default_rng(11)
    for i in range(100):
        spec = random_spec(rng, sizes=(3, 4))
        lam = float(rng.uniform(0.0, 2.5))
        n = spec.input_size
        base = support_outer(spec, lam, u_size=n)
        bigger = support_outer(spec, lam, u_size=n + 1)
        smaller = support_outer(spec, lam, u_size=2)
        if bigger < base - 1e-9:
            failures.append(f"instance {i}: u={n + 1} value below u={n} by {base - bigger:.2e}")
        if smaller > base + 1e-9:
            failures.append(f"instance {i}: u=2 value above u={n}")
    _report(7, "outer support is monotone in the auxiliary alphabet on 100 random channels", failures)
