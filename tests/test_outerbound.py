"""Outer bound and converse certification tests."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from statebc import (
    ChannelSpec,
    ConverseReport,
    blackwell_channel,
    brute_force_support,
    case_spanning_lambdas,
    simplexopt,
    support_curve,
    support_gap_bound,
    support_inner,
    support_outer,
    support_outer_result,
    thresholds,
    verify_converse,
)
from statebc.channel import indicator_matrices
from statebc.outerbound import _outer_objectives, _outer_results, converse_to_csv, outer_objective, outer_table, structure_seeds
from statebc.infotheory import entropy
from statebc.simplexopt import maximize_joint
from conftest import random_spec


class TestSupportOuter:
    def test_zero_weight_gives_single_user_capacity(self, ff2_07_04):
        assert support_outer(ff2_07_04, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_finite_field_matches_inner_at_one(self, ff2_07_04):
        inner, _, _ = support_inner(ff2_07_04, 1.0)
        outer = support_outer(ff2_07_04, 1.0)
        assert outer == pytest.approx(inner, abs=1e-9)
        assert outer == pytest.approx(1.3, abs=1e-9)

    def test_identical_components_collapse(self):
        spec = ChannelSpec(3, (0, 1, 2), (0, 1, 2), 0.8, 0.3)
        for lam in (0.0, 0.4, 1.0):
            inner, _, _ = support_inner(spec, lam)
            outer = support_outer(spec, lam)
            assert outer == pytest.approx(inner, abs=1e-9)
            assert outer == pytest.approx(math.log2(3.0), abs=1e-6)

    def test_rejects_bad_arguments(self, ff2_07_04):
        with pytest.raises(ValueError):
            support_outer(ff2_07_04, -1.0)
        with pytest.raises(ValueError):
            support_outer(ff2_07_04, 1.0, u_size=0)
        with pytest.raises(ValueError, match="lambda"):
            support_outer_result(ff2_07_04, math.nan, seed_px=np.full(4, 0.25))
        with pytest.raises(ValueError, match="canonical"):
            support_outer(ChannelSpec(2, (0, 1), (1, 0), 0.2, 0.8), 1.0)

    def test_low_weight_argmax_makes_u_determine_x(self):
        # Strictly inside the lowest case both conditional-entropy weights are
        # negative, so the maximizing joint leaves no component uncertainty
        # given the auxiliary.
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 5:
            spec = random_spec(rng, sizes=(3,))
            lo, _ = thresholds(spec)
            if lo < 1e-2 or spec.q1 < 1e-2:
                continue
            from statebc.channel import indicator_matrices

            res = support_outer_result(spec, lo / 2.0)
            joint = res.argmax
            pu = joint.sum(axis=1)
            hu = entropy(pu)
            e1, e2, _ = indicator_matrices(spec)
            h1u = entropy((joint @ e1).reshape(-1)) - hu
            h2u = entropy((joint @ e2).reshape(-1)) - hu
            assert h1u <= 1e-6
            assert h2u <= 1e-6
            checked += 1

    def test_mid_case_value_attained_by_first_component_auxiliary(self):
        # Lifting the argmax input law with U = f1(X) reproduces the returned
        # outer value: the structured choice is optimal in this case range.
        rng = np.random.default_rng(22)
        checked = 0
        while checked < 5:
            spec = random_spec(rng, sizes=(3,))
            lo, _ = thresholds(spec)
            if lo >= 0.95 or lo < 1e-6:
                continue
            lam = (lo + 1.0) / 2.0
            res = support_outer_result(spec, lam)
            u_size = spec.input_size + 1
            px = res.argmax.sum(axis=0)
            lift = np.zeros((u_size, spec.input_size))
            lift[np.array(spec.f1), np.arange(spec.input_size)] = px
            obj = outer_objective(spec, lam, u_size)
            assert float(obj(lift)) >= res.value - 1e-4
            checked += 1

    def test_u_size_monotone(self):
        rng = np.random.default_rng(23)
        for _ in range(6):
            spec = random_spec(rng)
            lam = float(rng.uniform(0.0, 2.0))
            n = spec.input_size
            small = support_outer(spec, lam, u_size=2)
            base = support_outer(spec, lam, u_size=n)
            bigger = support_outer(spec, lam, u_size=n + 1)
            assert small <= base + 1e-9
            assert bigger >= base - 1e-9


def case_coefficients(spec, lam):
    """The outer objective's weights (w1, w2, c1, c2) by case, the
    reference for the outer corner table."""
    p1, p2, q1, q2 = spec.p1, spec.p2, spec.q1, spec.q2
    if lam <= 1.0:
        return p1, q1, lam * p2 - p1, lam * q2 - q1
    return lam * p2, lam * q2, p1 - lam * p2, q1 - lam * q2


_TABLE_SPECS = (
    blackwell_channel(0.7, 0.3),
    ChannelSpec(4, (0, 1, 1, 0), (0, 0, 1, 1), 0.7, 0.4),
    ChannelSpec(5, (1, 3, 0, 3, 2), (0, 2, 2, 1, 3), 0.65, 0.25),
    ChannelSpec(3, (0, 1, 1), (0, 0, 1), 0.6, 0.0),
    ChannelSpec(3, (0, 1, 1), (0, 0, 1), 1.0, 1.0),
    ChannelSpec(3, (0, 1, 1), (0, 0, 1), 0.45, 0.45),
)


class TestOuterTable:
    @pytest.mark.parametrize("spec", _TABLE_SPECS, ids=("blackwell", "gf2", "random5", "hi-inf", "lo-zero", "p1-eq-p2"))
    def test_rows_reproduce_case_coefficients_bit_for_bit(self, spec):
        lo, hi = thresholds(spec)
        for lam in [0.0, 0.2, lo, 0.7, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.6, min(hi, 9.0), 11.0]:
            table = outer_table(spec, 1.0, lam)
            assert (1.0 * table[0] + lam * table[1]).tolist() == list(case_coefficients(spec, lam))

    @pytest.mark.parametrize("lam", [0.3, 1.0, 1.7])
    def test_objective_matches_case_formula_bit_for_bit(self, blackwell_07_03, lam):
        spec, u_size = blackwell_07_03, 4
        e1, e2, _ = indicator_matrices(spec)
        P = np.random.default_rng(41).dirichlet(np.ones(u_size * 3), size=50).reshape(50, u_size, 3)
        w1, w2, c1, c2 = case_coefficients(spec, lam)
        hu = entropy(P.sum(axis=-1))
        h_f1_u = entropy((P @ e1).reshape(50, -1)) - hu
        h_f2_u = entropy((P @ e2).reshape(50, -1)) - hu
        px = P.sum(axis=-2)
        want = w1 * entropy(px @ e1) + w2 * entropy(px @ e2) + c1 * h_f1_u + c2 * h_f2_u
        assert np.array_equal(outer_objective(spec, lam, u_size)(P), want)


_PROBE_SPECS = (
    blackwell_channel(0.7, 0.3),
    ChannelSpec(4, (0, 1, 1, 0), (0, 0, 1, 1), 0.7, 0.4),
    ChannelSpec(5, (1, 2, 1, 1, 0), (2, 1, 1, 0, 2), 0.75, 0.4),
    ChannelSpec(3, (0, 1, 1), (0, 0, 1), 0.6, 0.0),
    ChannelSpec(3, (0, 1, 1), (0, 0, 1), 0.45, 0.45),
    ChannelSpec(3, (0, 1, 1), (0, 0, 1), 1.0, 1.0),
    ChannelSpec(3, (0, 1, 1), (0, 0, 1), 1.0, 0.0),
)


class TestCellProbe:
    """simplexopt._cell_probe on the outer objective's cells against the
    full objective at base + t*delta."""

    @pytest.mark.parametrize(
        "spec", _PROBE_SPECS, ids=("blackwell", "gf2", "random5", "p2-zero", "p1-eq-p2", "p-1-1", "p-1-0")
    )
    def test_two_cell_update_matches_full_objective(self, spec):
        rng = np.random.default_rng(61)
        n = spec.input_size
        kinds = {"same-u": 0, "across-u": 0, "shared-cell": 0}
        for u_size in range(1, n + 2):
            dim = u_size * n
            S = rng.dirichlet(np.ones(dim), size=3)
            S[1, rng.permutation(dim)[: dim // 2]] = 0.0  # a row on a face
            S[1] /= S[1].sum()
            i_idx, j_idx = np.nonzero(~np.eye(dim, dtype=bool))
            delta = np.eye(dim)[j_idx] - np.eye(dim)[i_idx]
            for lam in (0.0, 0.4, 1.0, 1.7, 4.0):
                obj = outer_objective(spec, lam, u_size)
                V = obj(S.reshape(-1, u_size, n))
                r, pair = np.nonzero(S[:, i_idx] > 0.0)
                i, j, hi = i_idx[pair], j_idx[pair], S[r, i_idx[pair]]
                t = np.concatenate((rng.uniform(0.0, 1.0, r.size) * hi, hi))
                f = simplexopt._Counted([obj], (u_size, n))
                got = simplexopt._cell_probe(f, np.zeros(len(S), dtype=int), S, V, r, i, j)(t)
                pts = np.maximum(np.tile(S[r], (2, 1)) + t[:, None] * np.tile(delta[pair], (2, 1)), 0.0)
                want = obj(pts.reshape(-1, u_size, n))
                assert np.abs(got - want).max() <= 1e-12
                assert f.evals[0] == t.size
            kinds["same-u"] += int((i // n == j // n).sum())
            kinds["across-u"] += int((i // n != j // n).sum())
            kinds["shared-cell"] += int((obj.cells[i] == obj.cells[j]).any(axis=1).sum())
        assert min(kinds.values()) > 0

    def test_cells_and_coefficients_restate_the_objective(self, ff2_07_04):
        # sum_k coeffs[k] H(q_k) over the cells is the objective itself.
        u_size, n = 3, ff2_07_04.input_size
        obj = outer_objective(ff2_07_04, 1.3, u_size)
        P = np.random.default_rng(67).dirichlet(np.ones(u_size * n), size=20)
        ind = (obj.cells[..., None] == np.arange(obj.cells.max() + 1)).sum(axis=1)
        q = P @ ind
        h = [entropy(q[:, np.unique(obj.cells[:, k])]) for k in range(5)]
        want = sum(c * hk for c, hk in zip(obj.coeffs, h))
        assert np.abs(want - obj(P.reshape(-1, u_size, n))).max() <= 1e-12

    def test_ascent_path_does_not_depend_on_its_batch(self):
        # With each row's cells summed by a BLAS product over a one-hot
        # table, two of these eight lattice tops ended 0.033 apart in
        # max-norm, at the same value, when they ascended alone rather than
        # together.
        spec, u_size, n = ChannelSpec(5, (1, 0, 0, 1, 1), (1, 0, 0, 0, 0), 0.7, 0.35), 6, 5
        f = simplexopt._Counted([outer_objective(spec, 1.4, u_size)], (u_size, n))
        ((_, tops),) = simplexopt._scan_lattice(f, u_size * n, simplexopt.default_grid(u_size * n), 8)
        for tol, iters in ((1e-6, 12), (simplexopt._STEP_TOLERANCE, simplexopt._GOLDEN_ITERS)):
            S, V = simplexopt._ascend(f, np.zeros(len(tops), dtype=int), tops, tol, iters)
            for k in range(len(tops)):
                s, v = simplexopt._ascend(f, np.zeros(1, dtype=int), tops[k : k + 1], tol, iters)
                assert np.array_equal(s[0], S[k]) and v[0] == V[k]

    @staticmethod
    def states_with_spare_rows(spec, u_size, rng):
        """Joint states with at least two empty U rows, the first empty one
        not always row 0: structured seeds and Dirichlet joints."""
        n = spec.input_size
        states = [s for s in structure_seeds(spec, u_size, rng.dirichlet(np.ones(n))) if (s.sum(axis=1) == 0.0).sum() >= 2]
        for empty in ([1, 3], [0, 2, u_size - 1], list(range(2, u_size))):
            P = rng.dirichlet(np.ones(u_size * n)).reshape(u_size, n)
            P[empty] = 0.0
            states.append(P / P.sum())
        return np.array([s.reshape(-1) for s in states])

    @pytest.mark.parametrize("spec", _PROBE_SPECS[:3], ids=("blackwell", "gf2", "random5"))
    def test_moves_into_spare_rows_repeat_the_first_empty_row(self, spec):
        # Every probe of a move into an empty U row equals, bit for bit, the
        # same move into the first empty row: only distinct moves are searched.
        rng = np.random.default_rng(71)
        n = spec.input_size
        u_size = n + 1
        S = self.states_with_spare_rows(spec, u_size, rng)
        own = np.zeros(len(S), dtype=int)
        for lam in (0.0, 0.6, 1.0, 2.5):
            obj = outer_objective(spec, lam, u_size)
            f = simplexopt._Counted([obj], (u_size, n))
            V = obj(S.reshape(-1, u_size, n))
            for r in range(len(S)):
                empty = np.flatnonzero(S[r].reshape(u_size, n).sum(axis=1) == 0.0)
                assert empty.size >= 2
                for i in np.flatnonzero(S[r] > 0.0):
                    # Moves of t off coordinate i into every x of U row u.
                    t = np.concatenate((rng.uniform(0.0, 1.0, n) * S[r, i], np.full(n, S[r, i])))
                    into = lambda u: simplexopt._cell_probe(f, own, S, V, np.full(n, r), np.full(n, i), u * n + np.arange(n))(t)
                    want = into(empty[0])
                    assert all(np.array_equal(into(u), want) for u in empty[1:])

    @pytest.mark.parametrize("spec", _PROBE_SPECS[:3], ids=("blackwell", "gf2", "random5"))
    def test_step_equals_the_all_pairs_search(self, spec):
        # Each row's step against a search of every ordered pair with mass
        # to move, spare rows included, taking the first best pair.
        rng = np.random.default_rng(73)
        n = spec.input_size
        u_size = n + 1
        dim = u_size * n
        S0 = self.states_with_spare_rows(spec, u_size, rng)
        i_idx, j_idx = np.nonzero(~np.eye(dim, dtype=bool))
        delta = np.eye(dim)[j_idx] - np.eye(dim)[i_idx]
        own = np.zeros(len(S0), dtype=int)
        for lam in (0.0, 0.6, 1.0, 2.5):
            obj = outer_objective(spec, lam, u_size)
            V0 = obj(S0.reshape(-1, u_size, n))
            f = simplexopt._Counted([obj], (u_size, n))
            S, V = S0.copy(), V0.copy()
            moved = simplexopt._full_pair_polish(
                f, own, S, V, np.arange(len(S)), i_idx, j_idx, simplexopt._STEP_TOLERANCE, simplexopt._GOLDEN_ITERS
            )
            ref = simplexopt._Counted([obj], (u_size, n))
            for r in range(len(S0)):
                pairs = np.flatnonzero(S0[r, i_idx] > 0.0)
                rows = np.zeros(pairs.size, dtype=int)
                probe = simplexopt._cell_probe(ref, own[:1], S0[r : r + 1], V0[r : r + 1], rows, i_idx[pairs], j_idx[pairs])
                t, v = simplexopt._golden_polish(probe, S0[r, i_idx[pairs]])
                best = int(np.argmax(v))
                step = np.maximum(S0[r] + t[best] * delta[pairs[best]], 0.0)
                full = obj(step.reshape(u_size, n))
                gains = v[best] > V0[r] + simplexopt._STEP_TOLERANCE and full > V0[r] + simplexopt._STEP_TOLERANCE
                assert moved[r] == gains
                assert np.array_equal(S[r], step if gains else S0[r])
                assert V[r] == (full if gains else V0[r])
            assert moved.any() and f.evals[0] < ref.evals[0]

    def test_probe_mismatch_raises(self, blackwell_07_03):
        # Coefficients that no longer restate the objective make a chosen
        # move's full value disagree with its two-cell value.
        obj = outer_objective(blackwell_07_03, 0.8, 4)
        obj.coeffs = obj.coeffs + 1e-3
        with pytest.raises(RuntimeError, match="probe"):
            maximize_joint(obj, (4, 3))


_RANDOM5 = ChannelSpec(5, (1, 2, 1, 1, 0), (2, 1, 1, 0, 2), 0.75, 0.4)


class TestBatchedOuterSearch:
    """verify_converse's one search over all weights against one search per
    weight, bit for bit."""

    @staticmethod
    def assert_batch_matches_one_weight_searches(spec, n_lambda):
        curve = support_curve(spec, case_spanning_lambdas(spec, n_lambda)).samples
        batched = _outer_results(spec, [s.lam for s in curve], None, [s.argmax_px for s in curve])
        for s, got in zip(curve, batched):
            want = support_outer_result(spec, s.lam, seed_px=s.argmax_px)
            assert np.array_equal(got.argmax, want.argmax)
            assert (got.value, got.evaluations) == (want.value, want.evaluations)

    @pytest.mark.parametrize(
        "spec, n_lambda",
        [(blackwell_channel(0.7, 0.3), 16), (ChannelSpec(4, (0, 1, 1, 0), (0, 0, 1, 1), 0.7, 0.4), 16), (_RANDOM5, 8)],
        ids=("blackwell", "gf2", "random5"),
    )
    def test_each_weight_equals_its_one_weight_search(self, spec, n_lambda):
        self.assert_batch_matches_one_weight_searches(spec, n_lambda)

    def test_streamed_lattice(self, ff2_07_04, monkeypatch):
        # GF(2)'s 8,855-point joint lattice (u = 5, grid 4) in several
        # blocks, so the kept tops merge across blocks.
        monkeypatch.setattr(simplexopt, "_BLOCK_BYTES", 20 * 4 * 1500)
        assert [len(b) for b in simplexopt.iter_lattice(4, 20)] == [1500] * 5 + [1355]
        self.assert_batch_matches_one_weight_searches(ff2_07_04, 16)

    def test_objectives_must_share_features(self, blackwell_07_03):
        objs = [outer_objective(blackwell_07_03, lam, 4) for lam in (0.5, 1.5)]
        with pytest.raises(ValueError, match="share"):
            simplexopt.maximize_joints(objs, (4, 3), [(), ()])


class TestLatticeBlocks:
    """The outer scan against the block size of its lattice."""

    @staticmethod
    def scan_and_search(spec, curve):
        u, n = spec.input_size + 1, spec.input_size
        lams = [s.lam for s in curve]
        f = simplexopt._Counted(_outer_objectives(spec, lams, u), (u, n))
        tops = simplexopt._scan_lattice(f, u * n, simplexopt.default_grid(u * n), simplexopt._STARTS)
        return f, tops, _outer_results(spec, lams, None, [s.argmax_px for s in curve])

    @pytest.mark.parametrize(
        "spec, n_lambda",
        [(blackwell_channel(0.7, 0.3), 16), (ChannelSpec(4, (0, 1, 1, 0), (0, 0, 1, 1), 0.7, 0.4), 16), (_RANDOM5, 8)],
        ids=("blackwell", "gf2", "random5"),
    )
    def test_tops_and_results_do_not_depend_on_block_size(self, spec, n_lambda, monkeypatch):
        # Tied lattice values are common on these channels. Each weight keeps
        # the first top_k of the whole lattice in (-value, index) order,
        # wherever the blocks break, and so ascends from the same starts.
        # The smaller caps also split the ascent's line searches mid-row.
        curve = support_curve(spec, case_spanning_lambdas(spec, n_lambda)).samples
        f, _, want = self.scan_and_search(spec, curve)
        dim = f.shape[0] * f.shape[1]
        m = simplexopt.default_grid(dim)
        pts = np.vstack(list(simplexopt.iter_lattice(m, dim))).astype(float) / m
        F = f.features(pts)
        for cap in (simplexopt._BLOCK_BYTES, 48_000, 4_096, 1_920):
            monkeypatch.setattr(simplexopt, "_BLOCK_BYTES", cap)
            _, tops, got = self.scan_and_search(spec, curve)
            for row, (vals, top_pts) in zip(f.rows, tops):
                vals_all = simplexopt.combine(F, row)
                first = np.argsort(-vals_all, kind="stable")[: simplexopt._STARTS]
                assert np.array_equal(vals, vals_all[first]) and np.array_equal(top_pts, pts[first])
            for g, w in zip(got, want):
                assert np.array_equal(g.argmax, w.argmax)
                assert (g.value, g.evaluations) == (w.value, w.evaluations)

    def test_scan_memory_is_bounded_per_block(self):
        # RANDOM5's joint lattice, 40,920 points of 30 coordinates, is
        # 9.8 MB as floats alone; streamed, the scan holds one block.
        u, n = 6, 5
        objs = _outer_objectives(_RANDOM5, case_spanning_lambdas(_RANDOM5, 8), u)
        f = simplexopt._Counted(objs, (u, n))
        tracemalloc.start()
        try:
            simplexopt._scan_lattice(f, u * n, simplexopt.default_grid(u * n), simplexopt._STARTS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    @pytest.mark.parametrize(
        "spec",
        [_RANDOM5, ChannelSpec(6, (0, 1, 2, 1, 0, 2), (2, 0, 1, 1, 2, 0), 0.7, 0.35)],
        ids=("random5", "n6"),
    )
    def test_search_memory_is_bounded_per_chunk(self, spec):
        # Every weight's starts ascend together, their line searches in
        # chunks of (row, pair) entries: no array spans all rows and pairs.
        curve = support_curve(spec, case_spanning_lambdas(spec, 8)).samples
        tracemalloc.start()
        try:
            _outer_results(spec, [s.lam for s in curve], None, [s.argmax_px for s in curve])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 2**20


class TestStructureSeeds:
    def test_seed_shapes_and_mass(self, blackwell_07_03):
        px = np.array([0.2, 0.3, 0.5])
        seeds = structure_seeds(blackwell_07_03, 4, px)
        assert len(seeds) == 4  # identity, both components, constant
        for s in seeds:
            assert s.shape == (4, 3)
            assert s.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(s.sum(axis=0), px, atol=1e-15)

    def test_small_alphabet_drops_identity(self, blackwell_07_03):
        seeds = structure_seeds(blackwell_07_03, 2, np.array([0.2, 0.3, 0.5]))
        assert len(seeds) == 3  # component lifts fit in two symbols, identity does not


class TestVerifyConverse:
    def test_finite_field_passes(self, ff2_07_04):
        lams = case_spanning_lambdas(ff2_07_04, 8)
        report = verify_converse(ff2_07_04, lams, tol=5e-3)
        assert report.passed
        assert report.max_gap <= 5e-3
        for s in report.samples:
            assert s.outer >= s.inner - 1e-9

    def test_blackwell_passes(self, blackwell_07_03):
        report = verify_converse(blackwell_07_03, case_spanning_lambdas(blackwell_07_03, 8), tol=5e-3)
        assert report.passed

    def test_fixed_weight_set_passes_both_channels(self, blackwell_07_03, ff2_07_04):
        lams = [0.0, 0.25, 0.5, 0.75, 1.0, 4.0 / 3.0, 7.0 / 4.0, 3.0]
        for spec in (blackwell_07_03, ff2_07_04):
            report = verify_converse(spec, lams, tol=5e-3)
            assert report.passed

    def test_zero_tolerance_reports_rather_than_raises(self, blackwell_07_03):
        report = verify_converse(blackwell_07_03, [0.3, 0.8, 1.5], tol=0.0)
        assert isinstance(report, ConverseReport)
        assert report.passed == (report.max_gap <= 0.0)

    def test_rejects_empty_lambdas(self, blackwell_07_03):
        with pytest.raises(ValueError):
            verify_converse(blackwell_07_03, [])

    def test_rejects_nan_weight_and_tolerance(self, blackwell_07_03):
        with pytest.raises(ValueError, match="lambda"):
            verify_converse(blackwell_07_03, [0.5, math.nan])
        with pytest.raises(ValueError, match="tolerance"):
            verify_converse(blackwell_07_03, [0.5], tol=math.nan)

    def test_case_labels_recorded(self, ff2_07_04):
        report = verify_converse(ff2_07_04, [0.2, 0.8, 1.3, 3.0], tol=5e-3)
        assert [s.case_id for s in report.samples] == ["R1", "R3", "R4", "R2"]


class TestBruteForce:
    def test_budget_error(self, blackwell_07_03):
        with pytest.raises(ValueError, match="budget"):
            brute_force_support(blackwell_07_03, 1.0, 8, 48)

    def test_rejects_nan_lambda(self, blackwell_07_03):
        with pytest.raises(ValueError, match="lambda"):
            brute_force_support(blackwell_07_03, math.nan, 2, 4)

    def test_grid_refinement_monotone(self):
        spec = ChannelSpec(2, (0, 1), (0, 0), 0.8, 0.3)
        v8 = brute_force_support(spec, 0.7, 2, 8)
        v16 = brute_force_support(spec, 0.7, 2, 16)
        assert v16 >= v8 - 1e-12

    def test_two_symbol_identity_reduces_to_one_bit(self):
        # Both components the identity on a binary input: the receivers see
        # the same fair bit, so the weighted sum tops out at a single bit.
        spec = ChannelSpec(2, (0, 1), (0, 1), 1.0, 0.0)
        value = brute_force_support(spec, 1.0, 2, 16)
        assert value == pytest.approx(1.0, abs=1e-2)

    def test_matches_refined_search_within_bound(self):
        rng = np.random.default_rng(31)
        for _ in range(3):
            spec = random_spec(rng, sizes=(3,))
            u = int(rng.integers(2, 4))
            lam = float(rng.uniform(0.0, 1.5))
            grid = 8
            brute = brute_force_support(spec, lam, u, grid)
            outer = support_outer(spec, lam, u)
            bound = support_gap_bound(spec, lam, u, grid)
            assert abs(outer - brute) <= 2.0 * bound
            assert outer >= brute - 1e-9  # seeded search dominates the bare lattice


class TestGapBound:
    def test_positive_and_shrinking(self, blackwell_07_03):
        b8 = support_gap_bound(blackwell_07_03, 0.8, 4, 8)
        b32 = support_gap_bound(blackwell_07_03, 0.8, 4, 32)
        assert b8 > b32 > 0.0

    @pytest.mark.parametrize(
        "lam, u_size, grid, match",
        [(math.nan, 4, 6, "lambda"), (-1.0, 4, 6, "lambda"), (0.8, 0, 6, "u_size"), (0.8, 4, 1, "grid")],
        ids=("nan-weight", "negative-weight", "no-auxiliary", "grid-1"),
    )
    def test_rejects_invalid_arguments(self, blackwell_07_03, lam, u_size, grid, match):
        # Checked as brute_force_support checks them: a NaN weight gave nan
        # and a weight of -1 gave 9.39 bits.
        with pytest.raises(ValueError, match=match):
            support_gap_bound(blackwell_07_03, lam, u_size, grid)


class TestCaseSpanningLambdas:
    def test_spans_all_cases(self, ff2_07_04):
        lams = case_spanning_lambdas(ff2_07_04, 32)
        assert len(lams) == 32
        from statebc.regions import case_of

        cases = {case_of(ff2_07_04, lam) for lam in lams}
        assert cases == {"R1", "R3", "R4", "R2"}

    def test_handles_infinite_threshold(self):
        spec = ChannelSpec(3, (0, 1, 1), (0, 0, 1), 1.0, 0.0)
        lams = case_spanning_lambdas(spec, 16)
        assert len(lams) == 16
        assert min(lams) == 0.0

    def test_rejects_tiny_count(self, ff2_07_04):
        with pytest.raises(ValueError):
            case_spanning_lambdas(ff2_07_04, 3)


class TestConverseCsv:
    def test_layout(self, ff2_07_04):
        report = verify_converse(ff2_07_04, [0.5, 1.5], tol=5e-3)
        text = converse_to_csv(report)
        lines = text.strip().splitlines()
        assert lines[0] == "lambda,inner,outer,gap,case"
        assert len(lines) == 4
        assert lines[-1].startswith("# summary,")
        assert lines[-1].endswith(",pass" if report.passed else ",fail")
