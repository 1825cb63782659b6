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
    simplexopt,
)
from statebc.channel import _lattice_entropies, component_entropies, indicator_matrices, stacked_indicator
from statebc.examples import blackwell_channel
from statebc.infotheory import block_entropies, entropy
from statebc.simplexopt import iter_lattice
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

    @pytest.mark.parametrize("flag", [True, np.bool_(True)], ids=("bool", "numpy-bool"))
    def test_rejects_booleans(self, flag):
        # int(True) == True and float(True) == 1.0 made each read as 1.
        for args, field in [((flag, (0,), (0,), 0.5, 0.5), "input_size"), ((2, (0, flag), (0, 0), 0.5, 0.5), "f1"),
                            ((2, (0, 1), (0, 0), 0.5, flag), "p2")]:
            with pytest.raises(ValueError, match=field):
                ChannelSpec(*args)

    @pytest.mark.parametrize(
        "text", ["0.5", b"0.5", bytearray(b"0.5"), np.str_("0.5")], ids=("str", "bytes", "bytearray", "numpy-str")
    )
    def test_rejects_numeric_text_as_probability(self, text):
        # float("0.5") parses, so each read as 0.5.
        with pytest.raises(ValueError, match="p1 must be a number in"):
            ChannelSpec(2, (0, 1), (0, 0), text, 0.5)

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

    @pytest.mark.parametrize("size", [2.5, "3", "2"], ids=("fraction", "string", "string-matching-maps"))
    def test_non_integral_input_size_rejected(self, size):
        # 2.5 loaded as a 2-input channel and "3" was accepted, while the
        # maps rejected 2.5 as a value; both use the int(v) != v rule now.
        with pytest.raises(ValueError, match="input_size must be a positive integer"):
            channel_from_dict({"input_size": size, "f1": [0, 1], "f2": [0, 0], "p1": 0.5, "p2": 0.5})

    def test_integral_float_input_size_accepted(self):
        spec = channel_from_dict({"input_size": 2.0, "f1": [0, 1], "f2": [0, 0], "p1": 0.5, "p2": 0.5})
        assert spec.input_size == 2 and type(spec.input_size) is int

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


def _three_input_channel(rng, n):
    """A random n-input channel with some output cell of three inputs or more."""
    while True:
        y = int(rng.integers(2, n))
        spec = ChannelSpec(n, tuple(rng.integers(0, y, n).tolist()), tuple(rng.integers(0, y, n).tolist()), 0.7, 0.3)
        if stacked_indicator(spec)[0].sum(axis=0).max() >= 3:
            return spec


class TestLatticeEntropies:
    """The sweep kernel equals block_entropies(counts @ stacked / m, blocks),
    the entropies of each lattice law's exact pushforward (one rounding per
    cell mass), byte for byte: its count sums and gathers and its pruned
    pairwise block sums (below 8 cells, 8 to 128, and halves above 128). It
    stays within 1e-15 bits of component_entropies(spec, counts / m), which
    adds rounded masses."""

    # Output sizes 16 and 14: joint blocks of 256 and 196 cells, the second
    # halved at 96, not 98, with cell 97 in use.
    SPECS = {
        "blackwell": (blackwell_channel(0.7, 0.3), 60),
        "gf2": (finite_field_channel(FiniteFieldSpec(2, ((1, 1), (1, 0))), 0.7, 0.4), 24),
        "out16": (ChannelSpec(4, (0, 15, 3, 15), (15, 0, 7, 7), 0.6, 0.6), 20),
        "out14": (ChannelSpec(5, (13, 0, 2, 13, 6), (0, 13, 13, 5, 13), 0.8, 0.3), 12),
        **{f"n{n}": (_three_input_channel(np.random.default_rng(n), n), m)
           for n, m in ((3, 40), (4, 20), (5, 12), (6, 9), (7, 7), (8, 6), (9, 5))},
    }

    @staticmethod
    def assert_matches(spec, counts, m):
        stacked, blocks = stacked_indicator(spec)
        want = block_entropies(counts @ stacked / m, blocks)
        got = _lattice_entropies(spec, m)(counts)
        assert len(got) == 3
        for g, w in zip(got, want):
            assert g.shape == w.shape == counts.shape[:1]
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("name", SPECS)
    def test_matches_component_entropies_on_the_lattice(self, name):
        # The reference is component_entropies' block_entropies on the
        # exact pushforward.
        spec, m = self.SPECS[name]
        for block in iter_lattice(m, spec.input_size):
            self.assert_matches(spec, block, m)
        # Input 0 never used, then a lone row of that block.
        rest = np.vstack(list(iter_lattice(m, spec.input_size - 1)))
        unused = np.column_stack((np.zeros(len(rest), dtype=np.int32), rest))
        self.assert_matches(spec, unused, m)
        self.assert_matches(spec, unused[len(unused) // 2 :][:1], m)

    @pytest.mark.parametrize("name", SPECS)
    def test_within_1e_15_bits_of_rounded_mass_entropies(self, name):
        # component_entropies adds the rounded masses counts / m; the
        # measured largest difference over SPECS is 4.4e-16 bits.
        spec, m = self.SPECS[name]
        counts = np.vstack(list(iter_lattice(m, spec.input_size)))
        got = _lattice_entropies(spec, m)(counts)
        for g, w in zip(got, component_entropies(spec, counts / m)):
            assert np.abs(g - w).max() <= 1e-15

    @pytest.mark.parametrize("name", SPECS)
    def test_same_bytes_from_either_block_layout(self, name):
        # iter_lattice's blocks are Fortran-ordered; C-ordered copies score
        # the same bytes.
        spec, m = self.SPECS[name]
        for block in iter_lattice(m, spec.input_size):
            copy = np.ascontiguousarray(block)
            assert copy.flags.c_contiguous and (block.flags.f_contiguous or m < spec.input_size - 1)
            kernel = _lattice_entropies(spec, m)
            got, want = kernel(block), kernel(copy)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    @pytest.mark.parametrize("name", ("blackwell", "out16", "n9"))
    def test_matches_on_tiny_blocks(self, monkeypatch, name):
        spec, m = self.SPECS[name]
        monkeypatch.setattr(simplexopt, "_BLOCK_BYTES", 96)
        blocks = list(iter_lattice(m, spec.input_size))
        assert max(len(b) for b in blocks) <= 96 // (4 * spec.input_size)
        for block in blocks:
            self.assert_matches(spec, block, m)

    def test_cell_layouts(self):
        # Every block width path of numpy's pairwise sum is taken.
        widths = {b - a for spec, _ in self.SPECS.values() for a, b in stacked_indicator(spec)[1]}
        assert min(widths) < 8 and any(8 <= w <= 128 for w in widths) and max(widths) > 128
