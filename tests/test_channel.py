"""Channel model tests: canonicalization, induced laws, file parsing."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from statebc import (
    ChannelSpec,
    FiniteFieldSpec,
    as_pmf,
    canonicalize,
    channel_from_dict,
    finite_field_channel,
    induced_joint,
    load_channel,
    receiver_channel_mi,
)
from statebc.channel import component_entropies, indicator_matrices
from statebc.examples import blackwell_channel
from statebc.infotheory import entropy
from conftest import random_pmf, random_spec


class TestChannelSpec:
    def test_output_size_dense(self):
        spec = ChannelSpec(3, (0, 1, 1), (0, 0, 1), 0.7, 0.3)
        assert spec.output_size == 2

    def test_rejects_partial_map(self):
        with pytest.raises(ValueError, match="f1"):
            ChannelSpec(3, (0, 1), (0, 0, 1), 0.5, 0.5)

    def test_rejects_non_integer_symbols(self):
        with pytest.raises(ValueError, match="integer"):
            ChannelSpec(2, (0, 1.5), (0, 0), 0.5, 0.5)

    def test_rejects_negative_symbols(self):
        with pytest.raises(ValueError, match="non-negative"):
            ChannelSpec(2, (0, -1), (0, 0), 0.5, 0.5)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="p1"):
            ChannelSpec(2, (0, 1), (0, 0), 1.5, 0.5)

    def test_degenerate_probabilities_allowed(self):
        spec = ChannelSpec(2, (0, 1), (1, 0), 1.0, 0.0)
        assert spec.p1 == 1.0 and spec.p2 == 0.0


class TestCanonicalize:
    def test_already_canonical(self):
        spec = ChannelSpec(3, (0, 1, 1), (0, 0, 1), 0.7, 0.3)
        out, swapped = canonicalize(spec)
        assert out == spec and not swapped

    def test_swaps_probabilities_only(self):
        spec = ChannelSpec(3, (0, 1, 1), (0, 0, 1), 0.3, 0.7)
        out, swapped = canonicalize(spec)
        assert swapped
        assert (out.p1, out.p2) == (0.7, 0.3)
        assert out.f1 == spec.f1 and out.f2 == spec.f2

    def test_tie_keeps_order(self):
        spec = ChannelSpec(3, (0, 1, 1), (0, 0, 1), 0.5, 0.5)
        out, swapped = canonicalize(spec)
        assert out == spec and not swapped

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            spec = ChannelSpec(3, (0, 1, 2), (0, 0, 1), *rng.uniform(0, 1, 2))
            once, _ = canonicalize(spec)
            twice, swapped = canonicalize(once)
            assert twice == once and not swapped


class TestPmfValidation:
    def test_as_pmf_accepts_valid(self):
        p = as_pmf([0.25, 0.75])
        assert p.sum() == pytest.approx(1.0)

    def test_as_pmf_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            as_pmf([1.1, -0.1])

    def test_as_pmf_rejects_bad_mass(self):
        with pytest.raises(ValueError, match="mass"):
            as_pmf([0.5, 0.4])

    def test_as_pmf_rejects_wrong_dim(self):
        with pytest.raises(ValueError, match="dimension"):
            as_pmf([0.5, 0.5], dim=3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_as_pmf_rejects_non_finite(self, bad):
        # NaN fails no comparison, so min and mass checks alone let it through.
        with pytest.raises(ValueError, match="finite"):
            as_pmf([bad, 0.5, 0.5], 3)


class TestInducedJoint:
    def test_rejects_nan_input_law(self):
        with pytest.raises(ValueError, match="finite"):
            induced_joint(blackwell_channel(0.7, 0.3), [math.nan, 0.5, 0.5])

    def test_point_mass_blackwell(self):
        spec = blackwell_channel(0.7, 0.3)
        j = induced_joint(spec, [1.0, 0.0, 0.0])
        expected = np.zeros((2, 2))
        expected[spec.f1[0], spec.f2[0]] = 1.0
        np.testing.assert_allclose(j, expected, atol=1e-15)

    def test_identical_identity_maps(self):
        spec = ChannelSpec(2, (0, 1), (0, 1), 0.5, 0.5)
        j = induced_joint(spec, [0.5, 0.5])
        np.testing.assert_allclose(j, [[0.5, 0.0], [0.0, 0.5]], atol=1e-15)

    def test_finite_field_uniform(self):
        # Oracle: enumerate the four inputs (x1, x2) of the K=2 channel with
        # rows (1,1) and (1,0) and tally. The four output pairs are distinct,
        # so the uniform input yields the uniform pair law.
        spec = finite_field_channel(FiniteFieldSpec(2, ((1, 1), (1, 0))), 0.7, 0.4)
        tally = np.zeros((2, 2))
        for x1 in range(2):
            for x2 in range(2):
                tally[(x1 + x2) % 2, x1] += 0.25
        j = induced_joint(spec, np.full(4, 0.25))
        np.testing.assert_allclose(j, tally, atol=1e-15)
        np.testing.assert_allclose(j, np.full((2, 2), 0.25), atol=1e-15)

    def test_marginals_are_pushforwards(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            spec = random_spec(rng)
            px = random_pmf(rng, spec.input_size)
            j = induced_joint(spec, px)
            push1 = np.zeros(spec.output_size)
            push2 = np.zeros(spec.output_size)
            for x in range(spec.input_size):
                push1[spec.f1[x]] += px[x]
                push2[spec.f2[x]] += px[x]
            np.testing.assert_allclose(j.sum(axis=1), push1, atol=1e-12)
            np.testing.assert_allclose(j.sum(axis=0), push2, atol=1e-12)

    def test_dimension_mismatch(self):
        spec = blackwell_channel(0.7, 0.3)
        with pytest.raises(ValueError):
            induced_joint(spec, [0.5, 0.5])


class TestReceiverChannelMi:
    def test_rejects_nan_input_law(self):
        with pytest.raises(ValueError, match="finite"):
            receiver_channel_mi(blackwell_channel(0.7, 0.3), [math.nan, 0.5, 0.5], 1)

    def test_finite_field_uniform_gives_log_k(self):
        spec = finite_field_channel(FiniteFieldSpec(2, ((1, 1), (1, 0))), 0.7, 0.4)
        px = np.full(4, 0.25)
        assert receiver_channel_mi(spec, px, 1) == pytest.approx(1.0, abs=1e-12)
        assert receiver_channel_mi(spec, px, 2) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_gives_zero(self):
        spec = blackwell_channel(0.6, 0.4)
        assert receiver_channel_mi(spec, [0.0, 1.0, 0.0], 1) == pytest.approx(0.0, abs=1e-12)
        assert receiver_channel_mi(spec, [0.0, 1.0, 0.0], 2) == pytest.approx(0.0, abs=1e-12)

    def test_blackwell_balanced_input(self):
        # Oracle: under px = (1/2, 0, 1/2) both components are fair bits, so
        # I(X; Y1|S) = p1*1 + (1-p1)*1 = 1 regardless of the state split.
        spec = blackwell_channel(0.7, 0.3)
        px = [0.5, 0.0, 0.5]
        h1 = -2 * 0.5 * math.log2(0.5)
        assert h1 == 1.0
        assert receiver_channel_mi(spec, px, 1) == pytest.approx(1.0, abs=1e-12)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            spec = random_spec(rng)
            px = random_pmf(rng, spec.input_size)
            perm = rng.permutation(spec.input_size)
            relabeled = ChannelSpec(
                spec.input_size,
                tuple(spec.f1[p] for p in perm),
                tuple(spec.f2[p] for p in perm),
                spec.p1,
                spec.p2,
            )
            for receiver in (1, 2):
                assert receiver_channel_mi(relabeled, px[perm], receiver) == pytest.approx(
                    receiver_channel_mi(spec, px, receiver), abs=1e-10
                )

    def test_rejects_bad_receiver(self):
        spec = blackwell_channel(0.7, 0.3)
        with pytest.raises(ValueError):
            receiver_channel_mi(spec, [1.0, 0.0, 0.0], 3)


class TestChannelFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "chan.json"
        path.write_text(json.dumps({"input_size": 3, "f1": [0, 1, 1], "f2": [0, 0, 1], "p1": 0.7, "p2": 0.3}))
        spec = load_channel(path)
        assert spec == blackwell_channel(0.7, 0.3)

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "chan.json"
        path.write_text(json.dumps({"input_size": 3, "f1": [0, 1, 1], "f2": [0, 0, 1], "p1": 0.7, "p2": 0.3}))
        spec = load_channel(path, p1=0.9, p2=0.1)
        assert (spec.p1, spec.p2) == (0.9, 0.1)

    def test_probabilities_from_flags_only(self, tmp_path):
        path = tmp_path / "chan.json"
        path.write_text(json.dumps({"input_size": 2, "f1": [0, 1], "f2": [0, 0]}))
        spec = load_channel(path, p1=0.8, p2=0.2)
        assert (spec.p1, spec.p2) == (0.8, 0.2)
        with pytest.raises(ValueError, match="p1 and p2"):
            load_channel(path)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown channel field"):
            channel_from_dict({"input_size": 2, "f1": [0, 1], "f2": [0, 0], "p1": 0.5, "p2": 0.5, "extra": 1})

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="required"):
            channel_from_dict({"input_size": 2, "f1": [0, 1], "p1": 0.5, "p2": 0.5})

    def test_invalid_json_message(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_channel(path)


class TestComponentEntropiesKernel:
    """The fused kernel must equal the three separate entropies bit for bit."""

    SPECS = (
        blackwell_channel(0.7, 0.3),
        finite_field_channel(FiniteFieldSpec(2, ((1, 1), (1, 0))), 0.7, 0.4),
        # Output size 3: the 9-cell joint takes numpy's pairwise-sum path,
        # and three inputs share f1 = 0 and f2 = 0.
        ChannelSpec(5, (0, 0, 0, 1, 2), (2, 1, 0, 0, 0), 0.6, 0.2),
    )

    @pytest.mark.parametrize("spec", SPECS, ids=("blackwell", "gf2", "out3"))
    @pytest.mark.parametrize("lead", [(), (7,), (3, 5)], ids=("1d", "2d", "3d"))
    def test_matches_separate_entropies(self, spec, lead):
        rng = np.random.default_rng(17)
        p = rng.dirichlet(np.ones(spec.input_size), size=lead or None)
        p[..., 0] = 0.0  # an empty input cell
        e1, e2, ej = indicator_matrices(spec)
        got = component_entropies(spec, p)
        want = (entropy(p @ e1), entropy(p @ e2), entropy(p @ ej))
        for g, w in zip(got, want):
            if lead:
                assert g.shape == lead
                assert np.array_equal(g, w)
            else:
                assert type(g) is float
                assert g == w

    def test_lone_row_equals_its_row_in_a_batch(self):
        # Five of the nine inputs share f1 = 0. BLAS rounds such a sum
        # differently for a lone row (matrix-vector) than inside a product
        # of many rows, unless the kernel keeps every row on one path.
        spec = ChannelSpec(9, (0, 0, 0, 0, 0, 1, 2, 3, 1), (0, 1, 2, 0, 1, 2, 0, 1, 2), 0.7, 0.3)
        P = np.random.default_rng(0).dirichlet(np.ones(9), size=600)
        batch = component_entropies(spec, P)
        for i in range(600):
            lone = component_entropies(spec, P[i])
            row = component_entropies(spec, P[i : i + 1])
            assert lone == tuple(b[i] for b in batch)
            assert tuple(r[0] for r in row) == lone
        for b, s in zip(batch, component_entropies(spec, P[:, None, :])):
            assert np.array_equal(s[:, 0], b)
