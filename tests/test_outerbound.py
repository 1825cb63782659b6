"""Outer bound and converse certification tests."""

from __future__ import annotations

import collections
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statebc import (
    ChannelSpec,
    ConverseReport,
    blackwell_channel,
    brute_force_support,
    case_spanning_lambdas,
    outerbound,
    simplexopt,
    support_curve,
    support_inner,
    support_outer,
    support_outer_result,
    thresholds,
    verify_converse,
)
from statebc.channel import indicator_matrices
from statebc.outerbound import converse_to_csv, outer_objective, outer_table, structure_seeds
from statebc.infotheory import entropy, xlogx
from statebc.simplexopt import maximize_joint
from conftest import inner_row_value, lemma_auxiliary, lemma_floor, orbit_key, random_spec


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
            support_outer_result(ff2_07_04, math.nan)
        with pytest.raises(ValueError, match="canonical"):
            support_outer(ChannelSpec(2, (0, 1), (1, 0), 0.2, 0.8), 1.0)

    def test_rejects_infinite_lambda(self, ff2_07_04):
        # Both failed with "objective returned NaN at point ...".
        for call in (lambda: support_outer(ff2_07_04, math.inf, 2),
                     lambda: support_outer_result(ff2_07_04, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                call()

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


_LEMMA_PROBS = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.01, 0.99))


@st.composite
def lemma_cases(draw):
    """(spec, lam, joint): p in {(1, 0), (1, 1)}, p1 = p2 or random; lam in
    each of the four cases or exactly at lo, 1 or hi; u from 1 to n + 1;
    the joint random, with empty U rows, or a point mass."""
    n = draw(st.integers(1, 4))
    f1, f2 = (tuple(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))) for _ in range(2))
    p1, p2 = draw(st.one_of(st.sampled_from(((1.0, 0.0), (1.0, 1.0))), _LEMMA_PROBS.map(lambda p: (p, p)), st.tuples(_LEMMA_PROBS, _LEMMA_PROBS)))
    spec = ChannelSpec(n, f1, f2, max(p1, p2), min(p1, p2))
    lo, hi = thresholds(spec)
    top = hi if math.isfinite(hi) else 4.0
    lam = draw(st.one_of(st.sampled_from((0.0, lo, 1.0, top)), st.floats(0.0, lo), st.floats(lo, 1.0), st.floats(1.0, top), st.floats(top, 2.0 * top + 1.0)))
    u = draw(st.integers(1, n + 1))
    P = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=u * n, max_size=u * n))).reshape(u, n)
    kind = draw(st.sampled_from(("random", "empty-rows", "point")))
    if kind == "empty-rows":
        P[draw(st.integers(0, u - 1)) :] = 0.0
    if kind == "point" or P.sum() == 0.0:
        P = np.zeros((u, n))
        P.flat[draw(st.integers(0, u * n - 1))] = 1.0
    return spec, lam, P / P.sum()


class TestConverseLemma:
    """outer(P) <= the clamped inner row at P's input marginal, with
    equality at the lift of that marginal by the lemma's deterministic U
    whenever u covers its values. Tolerances scale with max(1, lam)."""

    @settings(max_examples=400, deadline=None)
    @given(lemma_cases())
    def test_outer_objective_is_bracketed_by_the_inner_row(self, case):
        spec, lam, P = case
        u, n = P.shape
        tol = 1e-12 * max(1.0, lam)
        obj = outer_objective(spec, lam, u)
        px = P.sum(axis=0)
        bound = float(inner_row_value(spec, lam, px))
        assert float(obj(P)) <= bound + tol
        labels = lemma_auxiliary(spec, lam)
        if u > labels.max():
            lift = np.zeros((u, n))
            lift[labels, np.arange(n)] = px
            assert float(obj(lift)) == pytest.approx(bound, abs=tol)


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
                f = simplexopt._Counted(obj, (u_size, n))
                got = simplexopt._cell_probe(f, S, V, r, i, j)(t)
                pts = np.maximum(np.tile(S[r], (2, 1)) + t[:, None] * np.tile(delta[pair], (2, 1)), 0.0)
                want = obj(pts.reshape(-1, u_size, n))
                assert np.abs(got - want).max() <= 1e-12
                assert f.evals == t.size
            kinds["same-u"] += int((i // n == j // n).sum())
            kinds["across-u"] += int((i // n != j // n).sum())
            kinds["shared-cell"] += int((obj.cells[i] == obj.cells[j]).any(axis=1).sum())
        assert min(kinds.values()) > 0

    @pytest.mark.parametrize(
        "spec",
        [_PROBE_SPECS[0], _PROBE_SPECS[2], ChannelSpec(6, (0, 1, 2, 1, 0, 2), (2, 0, 1, 1, 2, 0), 0.7, 0.35)],
        ids=("blackwell", "random5", "n6"),
    )
    def test_cell_major_kernel_matches_the_entry_major_sum(self, spec):
        # Byte for byte against the probe laid out entry-major, each entry's
        # five block terms summed by numpy: random joints, joints on faces,
        # slivers below MASS_EPS and a point mass, under three weights'
        # objectives, stacks of one and two step vectors. A fourth, all-zero
        # objective at value -0.0 checks the sign of a zero sum.
        rng = np.random.default_rng(79)
        n = spec.input_size
        u_size = n + 1
        dim = u_size * n
        objs = [outer_objective(spec, lam, u_size) for lam in (0.6, 1.0, 2.5)]
        cells = objs[0].cells
        objs.append(types.SimpleNamespace(cells=cells, coeffs=np.zeros(5)))
        S = rng.dirichlet(np.ones(dim), size=7)
        S[2:4][rng.random((2, dim)) < 0.5] = 0.0  # on faces
        S[4, rng.permutation(dim)[:3]] = 3e-16  # slivers
        S[5] = 0.0
        S[5, rng.integers(dim)] = 1.0  # a point mass
        S /= S.sum(axis=1, keepdims=True)
        i_idx, j_idx = np.nonzero(~np.eye(dim, dtype=bool))
        r, pair = np.nonzero(S[:, i_idx] > 0.0)
        i, j, hi = i_idx[pair], j_idx[pair], S[r, i_idx[pair]]
        # Each row's pushforwards, its coordinates added into their cells in order.
        q = np.zeros((len(S), cells.max() + 1))
        np.add.at(q, (np.arange(len(S))[:, None, None], cells), np.broadcast_to(S[:, :, None], (len(S),) + cells.shape))
        qa, qb = q[r[:, None], cells[i]], q[r[:, None], cells[j]]
        before = xlogx(qa) + xlogx(qb)
        for obj in objs:
            V = obj(S.reshape(-1, u_size, n)) if callable(obj) else np.full(len(S), -0.0)
            w = np.where(cells[i] != cells[j], obj.coeffs, 0.0)
            for k in (1, 2):
                t = rng.uniform(0.0, 1.0, (k, r.size)) * hi
                t[-1, ::3] = hi[::3]  # all of the mass at i
                want = (V[r] - (w * (xlogx(qa - t[..., None]) + xlogx(qb + t[..., None]) - before)).sum(axis=-1)).ravel()
                f = simplexopt._Counted(obj, (u_size, n))
                got = simplexopt._cell_probe(f, S, V, r, i, j)(t.ravel())
                assert got.tobytes() == want.tobytes()
                assert f.evals == t.size
        assert ((qa - t[..., None] <= 1e-15) | (qb + t[..., None] <= 1e-15)).any()

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
        # table, two of the eight best lattice joints (ties toward the
        # earlier joint), which lie in four orbits, ended 0.033 apart in
        # max-norm, at the same value, when they ascended alone rather than
        # together.
        spec, u_size, n = ChannelSpec(5, (1, 0, 0, 1, 1), (1, 0, 0, 0, 0), 0.7, 0.35), 6, 5
        f = simplexopt._Counted(outer_objective(spec, 1.4, u_size), (u_size, n))
        m = simplexopt.default_grid(u_size * n)
        pts = np.vstack(list(simplexopt.iter_lattice(m, u_size * n))) / m
        tops = pts[np.argsort(-f(pts), kind="stable")[:8]]
        for tol, iters in ((1e-6, 12), (simplexopt._STEP_TOLERANCE, simplexopt._GOLDEN_ITERS)):
            S, V = simplexopt._ascend(f, tops, tol, iters)
            for k in range(len(tops)):
                s, v = simplexopt._ascend(f, tops[k : k + 1], tol, iters)
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
        for lam in (0.0, 0.6, 1.0, 2.5):
            obj = outer_objective(spec, lam, u_size)
            f = simplexopt._Counted(obj, (u_size, n))
            V = obj(S.reshape(-1, u_size, n))
            for r in range(len(S)):
                empty = np.flatnonzero(S[r].reshape(u_size, n).sum(axis=1) == 0.0)
                assert empty.size >= 2
                for i in np.flatnonzero(S[r] > 0.0):
                    # Moves of t off coordinate i into every x of U row u.
                    t = np.concatenate((rng.uniform(0.0, 1.0, n) * S[r, i], np.full(n, S[r, i])))
                    into = lambda u: simplexopt._cell_probe(f, S, V, np.full(n, r), np.full(n, i), u * n + np.arange(n))(t)
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
        for lam in (0.0, 0.6, 1.0, 2.5):
            obj = outer_objective(spec, lam, u_size)
            V0 = obj(S0.reshape(-1, u_size, n))
            f = simplexopt._Counted(obj, (u_size, n))
            S, V = S0.copy(), V0.copy()
            moved = simplexopt._full_pair_polish(
                f, S, V, np.arange(len(S)), i_idx, j_idx, simplexopt._STEP_TOLERANCE, simplexopt._GOLDEN_ITERS
            )
            ref = simplexopt._Counted(obj, (u_size, n))
            for r in range(len(S0)):
                pairs = np.flatnonzero(S0[r, i_idx] > 0.0)
                rows = np.zeros(pairs.size, dtype=int)
                probe = simplexopt._cell_probe(ref, S0[r : r + 1], V0[r : r + 1], rows, i_idx[pairs], j_idx[pairs])
                t, v = simplexopt._golden_polish(probe, S0[r, i_idx[pairs]], simplexopt._GOLDEN_ITERS)
                best = int(np.argmax(v))
                step = np.maximum(S0[r] + t[best] * delta[pairs[best]], 0.0)
                full = obj(step.reshape(u_size, n))
                gains = v[best] > V0[r] + simplexopt._STEP_TOLERANCE and full > V0[r] + simplexopt._STEP_TOLERANCE
                assert moved[r] == gains
                assert np.array_equal(S[r], step if gains else S0[r])
                assert V[r] == (full if gains else V0[r])
            assert moved.any() and f.evals < ref.evals

    def test_probe_mismatch_raises(self, blackwell_07_03):
        # Coefficients that no longer restate the objective make a chosen
        # move's full value disagree with its two-cell value.
        obj = outer_objective(blackwell_07_03, 0.8, 4)
        obj.coeffs = obj.coeffs + 1e-3
        with pytest.raises(RuntimeError, match="probe"):
            maximize_joint(obj, (4, 3))


_RANDOM5 = ChannelSpec(5, (1, 2, 1, 1, 0), (2, 1, 1, 0, 2), 0.75, 0.4)


class TestLatticeBlocks:
    """The outer scan against the block size of its lattice."""

    @staticmethod
    def scan_and_search(spec, curve):
        u, n = spec.input_size + 1, spec.input_size
        m = simplexopt.default_grid(u * n)
        tops = [simplexopt._scan_lattice(simplexopt._Counted(outer_objective(spec, s.lam, u), (u, n)), u * n, m, simplexopt._STARTS) for s in curve]
        return tops, [support_outer_result(spec, s.lam) for s in curve]

    @pytest.mark.parametrize(
        "spec, n_lambda",
        [(blackwell_channel(0.7, 0.3), 16), (ChannelSpec(4, (0, 1, 1, 0), (0, 0, 1, 1), 0.7, 0.4), 16), (_RANDOM5, 8)],
        ids=("blackwell", "gf2", "random5"),
    )
    def test_tops_and_results_do_not_depend_on_block_size(self, spec, n_lambda, monkeypatch):
        # Tied orbit values are common on these channels. Each weight keeps
        # the same orbit representatives wherever the blocks break, and so
        # ascends from the same starts. The smaller caps also split the
        # ascent's line searches mid-row.
        curve = support_curve(spec, case_spanning_lambdas(spec, n_lambda)).samples
        want_tops, want = self.scan_and_search(spec, curve)
        for cap in (48_000, 4_096, 1_920):
            monkeypatch.setattr(simplexopt, "_BLOCK_BYTES", cap)
            tops, got = self.scan_and_search(spec, curve)
            for (gv, gp), (wv, wp) in zip(tops, want_tops):
                assert gv.tobytes() == wv.tobytes() and gp.tobytes() == wp.tobytes()
            for g, w in zip(got, want):
                assert np.array_equal(g.argmax, w.argmax)
                assert (g.value, g.evaluations) == (w.value, w.evaluations)

    def test_scan_memory_is_bounded_per_block(self):
        # RANDOM5's joint lattice, 40,920 points of 30 coordinates, is
        # 9.8 MB as floats alone; streamed, the scan holds one block.
        u, n = 6, 5
        tracemalloc.start()
        try:
            for lam in case_spanning_lambdas(_RANDOM5, 8):
                f = simplexopt._Counted(outer_objective(_RANDOM5, lam, u), (u, n))
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
        # A weight's starts ascend together, their line searches in chunks
        # of (row, pair) entries: no array spans all rows and pairs.
        tracemalloc.start()
        try:
            for lam in case_spanning_lambdas(spec, 8):
                support_outer_result(spec, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 2**20


class TestOrbitScan:
    """The orbit scan against every point of the lattice valued."""

    @staticmethod
    def lattice_orbits(u, n, m):
        """Each lattice joint's orbit key, in lattice order, and each orbit's size."""
        keys = [orbit_key(p, u, n) for block in simplexopt.iter_lattice(m, u * n) for p in block / m]
        return keys, collections.Counter(keys)

    @staticmethod
    def assert_kept_orbits_hold_the_top(shape, top_k, got, values, orbits):
        """The kept orbits against the whole lattice, its joints' values in
        lattice order: the best kept value is the lattice maximum, every
        joint more than 2e-9 above the last kept value lies in a kept orbit,
        and the kept orbits' sizes reach top_k only with the last one."""
        (u, n), (vals, pts), (keys, sizes) = shape, got, orbits
        kept = [orbit_key(p, u, n) for p in pts]
        assert {keys[k] for k in np.flatnonzero(values > vals[-1] + 2e-9)} <= set(kept)
        assert abs(vals[0] - values.max()) <= 1e-12 and (np.diff(vals) <= 0.0).all()
        z = [sizes[key] for key in kept]
        assert sum(z) >= top_k > sum(z[:-1])

    @staticmethod
    def scan_every_top(obj, shape, m, orbits):
        """Each top_k's scan against the whole lattice, valued once."""
        (u, n), dim = shape, math.prod(shape)
        values = np.concatenate([obj((block / m).reshape(-1, u, n)) for block in simplexopt.iter_lattice(m, dim)])
        n_orbits = sum(len(reps) for reps, _ in simplexopt._iter_orbits(m, u, n))
        for top_k in (simplexopt._STARTS, 1):
            f = simplexopt._Counted(obj, shape)
            got = simplexopt._scan_lattice(f, dim, m, top_k)
            # Each orbit valued once, then u - 1 shifts of each kept one.
            assert f.evals == n_orbits + (u - 1) * len(got[0])
            TestOrbitScan.assert_kept_orbits_hold_the_top(shape, top_k, got, values, orbits)

    @pytest.mark.parametrize(
        "spec",
        [*_PROBE_SPECS[:3], ChannelSpec(6, (0, 1, 2, 1, 0, 2), (2, 0, 1, 1, 2, 0), 0.7, 0.35)],
        ids=("blackwell", "gf2", "random5", "n6"),
    )
    def test_tops_equal_the_full_scan(self, spec):
        # 16 weights, ties among them; n = 6 has two inputs with the same
        # image pair, so whole orbits tie.
        u, n = spec.input_size + 1, spec.input_size
        m = simplexopt.default_grid(u * n)
        orbits = self.lattice_orbits(u, n, m)
        for lam in case_spanning_lambdas(spec, 16):
            self.scan_every_top(outer_objective(spec, lam, u), (u, n), m, orbits)

    def test_plain_objective_tops_equal_the_full_scan(self):
        # A plain callable: H(U, X) - H(X | U) on (3, 3) joints.
        def obj(P):
            hu, hx = entropy(P.sum(axis=-1)), entropy(P.sum(axis=-2))
            return 2.0 * hx - entropy(P.reshape(P.shape[:-2] + (-1,))) + hu

        self.scan_every_top(obj, (3, 3), 12, self.lattice_orbits(3, 3, 12))


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

    @pytest.mark.parametrize("spec", _PROBE_SPECS[:2], ids=("blackwell", "gf2"))
    def test_passes_without_the_joint_search(self, spec, monkeypatch):
        # Outer is the best structured seed and upper the inner solver's
        # certified bound: no lattice scan and no ascent run.
        def search(*args, **kwargs):
            raise AssertionError("verify_converse ran the joint search")

        for module in (simplexopt, outerbound):
            for name in ("maximize_joint", "_scan_lattice"):
                monkeypatch.setattr(module, name, search)
        report = verify_converse(spec, case_spanning_lambdas(spec, 16), tol=5e-3)
        assert report.passed
        assert all(s.inner - 1e-9 <= s.outer <= s.upper + 1e-9 for s in report.samples)

    @pytest.mark.parametrize("field", ["value", "upper"], ids=("outer-below-inner", "outer-above-upper"))
    def test_outer_outside_the_bracket_raises(self, blackwell_07_03, field, monkeypatch):
        # An inner value 1e-6 too high, or an upper bound 1e-6 too low.
        def moved(spec, lams):
            samples = support_curve(spec, lams).samples
            shift = 1e-6 if field == "value" else -1e-6
            return types.SimpleNamespace(samples=[s._replace(**{field: s.value + shift}) for s in samples])

        monkeypatch.setattr(outerbound, "support_curve", moved)
        with pytest.raises(RuntimeError, match=r"outside \[inner, upper\]"):
            verify_converse(blackwell_07_03, [0.3, 1.5])


    @pytest.mark.parametrize("probs", [(1.0, 0.0), (1.0, 1.0), (0.0, 0.0), (0.5, 0.5)], ids=("1-0", "1-1", "0-0", "equal"))
    @pytest.mark.parametrize("spec", _PROBE_SPECS[:3], ids=("blackwell", "gf2", "random5"))
    def test_degenerate_probabilities_pass_with_a_tight_bracket(self, spec, probs):
        # Where an empty pushforward cell makes the dual bound's uniform mix
        # matter: every weight brackets outer, and upper meets inner.
        spec = ChannelSpec(spec.input_size, spec.f1, spec.f2, *probs)
        report = verify_converse(spec, case_spanning_lambdas(spec, 32))
        assert report.passed and len(report.samples) == 32
        for s in report.samples:
            assert s.inner - 1e-9 <= s.outer <= s.upper + 1e-9
            assert s.upper - s.inner <= 1e-9


def per_weight_outer(spec, sample):
    """A weight's outer value valued alone: its own objective on its own seeds."""
    u = spec.input_size + 1
    seeds = np.array(structure_seeds(spec, u, np.array(sample.argmax_px)))
    return float(outer_objective(spec, sample.lam, u)(seeds).max())


def _outer_column_specs():
    rng = np.random.default_rng(25)
    specs = list(_PROBE_SPECS)
    for probs in ((1.0, 0.0), (1.0, 1.0), (0.0, 0.0), (0.3, 0.3), None, None):
        spec = random_spec(rng, sizes=(6, 7, 8, 9))
        specs.append(spec if probs is None else ChannelSpec(spec.input_size, spec.f1, spec.f2, *probs))
    return specs


@pytest.mark.parametrize("spec", _outer_column_specs(), ids=lambda s: f"n{s.input_size}-{s.p1:.2f}-{s.p2:.2f}")
def test_outer_column_equals_each_weight_valued_alone(spec):
    # verify_converse values every weight's seeds in one batch; each outer
    # value is, bit for bit, that weight's objective maximized over its own
    # seeds, as a per-weight loop values it.
    lams = case_spanning_lambdas(spec, 16)
    report = verify_converse(spec, lams)
    want = [per_weight_outer(spec, s) for s in support_curve(spec, lams).samples]
    assert [s.outer.hex() for s in report.samples] == [w.hex() for w in want]
    assert [s.gap.hex() for s in report.samples] == [(w - s.inner).hex() for s, w in zip(report.samples, want)]


class TestBruteForce:
    def test_budget_error(self, blackwell_07_03):
        with pytest.raises(ValueError, match="budget"):
            brute_force_support(blackwell_07_03, 1.0, 8, 48)

    def test_rejects_nan_lambda(self, blackwell_07_03):
        with pytest.raises(ValueError, match="lambda"):
            brute_force_support(blackwell_07_03, math.nan, 2, 4)

    def test_rejects_infinite_lambda(self, blackwell_07_03):
        # It failed with "objective returned NaN at point ...".
        with pytest.raises(ValueError, match="finite"):
            brute_force_support(blackwell_07_03, math.inf, 2, 4)

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

    @pytest.mark.parametrize(
        "lam, u_size, grid, match",
        [(math.nan, 4, 6, "lambda"), (-1.0, 4, 6, "lambda"), (math.inf, 4, 6, "finite"), (0.8, 0, 6, "u_size"), (0.8, 4, 1, "grid")],
        ids=("nan-weight", "negative-weight", "inf-weight", "no-auxiliary", "grid-1"),
    )
    def test_rejects_invalid_arguments(self, blackwell_07_03, lam, u_size, grid, match):
        with pytest.raises(ValueError, match=match):
            brute_force_support(blackwell_07_03, lam, u_size, grid)

    def test_matches_refined_search_within_bound(self):
        # The converse lemma's bracket: the lattice maximum is the inner
        # row's maximum over the input lattice of the same grid (u covers
        # the lemma's U on all three specs), and the search reaches inner.
        rng = np.random.default_rng(31)
        for _ in range(3):
            spec = random_spec(rng, sizes=(3,))
            u = int(rng.integers(2, 4))
            lam = float(rng.uniform(0.0, 1.5))
            grid = 8
            brute = brute_force_support(spec, lam, u, grid)
            outer = support_outer(spec, lam, u)
            inner, _, _ = support_inner(spec, lam)
            assert u > lemma_auxiliary(spec, lam).max()
            assert brute == pytest.approx(lemma_floor(spec, lam, grid), abs=1e-12)
            assert brute <= inner + 1e-9
            assert outer == pytest.approx(inner, abs=1e-9)
            assert outer >= brute - 1e-9  # seeded search dominates the bare lattice


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

    @pytest.mark.parametrize("n", [16.5, "16", None, True, [16], math.inf, math.nan])
    def test_rejects_a_count_that_is_not_an_integer(self, ff2_07_04, n):
        with pytest.raises(ValueError, match="integer"):
            case_spanning_lambdas(ff2_07_04, n)

    @pytest.mark.parametrize("n", [32.0, np.int64(32), np.float64(32.0)], ids=("float", "numpy-int", "numpy-float"))
    def test_integral_count_is_that_integer(self, ff2_07_04, n):
        lams = case_spanning_lambdas(ff2_07_04, n)
        assert lams == case_spanning_lambdas(ff2_07_04, 32) and len(lams) == 32


class TestConverseCsv:
    def test_layout(self, ff2_07_04):
        report = verify_converse(ff2_07_04, [0.5, 1.5], tol=5e-3)
        text = converse_to_csv(report)
        lines = text.strip().splitlines()
        assert lines[0] == "lambda,inner,outer,gap,case"
        assert len(lines) == 4
        assert lines[-1].startswith("# summary,")
        assert lines[-1].endswith(",pass" if report.passed else ",fail")
