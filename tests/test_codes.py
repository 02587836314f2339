import math

import numpy as np
import pytest

from smplab.codes import (
    CodeSpec,
    GridCodeword,
    _hadamard_table,
    best_row,
    column,
    encode,
    encode_all,
    grid,
    grid_of,
    hadamard_codeword,
    row,
    row_distances,
)
from smplab.core import BitString, RandomSource, hamming_distance, sample_instance, InstanceKind


def all_inputs(n):
    for v in range(1 << n):
        yield BitString(tuple((v >> (n - 1 - i)) & 1 for i in range(n)))


class TestEncoder:
    def test_deterministic(self):
        spec = CodeSpec.create(8)
        x = BitString.from_text("10110010")
        assert encode(spec, x) == encode(spec, x)

    def test_length_mismatch(self):
        spec = CodeSpec.create(8)
        with pytest.raises(ValueError):
            encode(spec, BitString.from_text("101"))

    def test_exhaustive_distance_n8(self):
        spec = CodeSpec.create(8)
        cw = encode_all(spec).astype(np.int64)
        need = math.ceil(spec.block_len / 3)
        w = cw.sum(axis=1)
        dist = w[:, None] + w[None, :] - 2 * (cw @ cw.T)
        iu = np.triu_indices(cw.shape[0], k=1)
        assert int(dist[iu].min()) >= need

    def test_inner_hadamard_relative_distance_exactly_half(self):
        s = 3
        words = [hadamard_codeword(v, s) for v in range(1 << s)]
        for a in range(1 << s):
            for b in range(a + 1, 1 << s):
                assert hamming_distance(words[a], words[b]) == (1 << s) // 2

    @pytest.mark.parametrize("s", range(2, 13))
    def test_hadamard_table_matches_parity_construction(self, s):
        # reference: bit (v, a) is the parity of v & a, folded by shifts
        # (uint16 holds every s <= 16)
        a = np.arange(1 << s, dtype=np.uint16)
        x = a[:, None] & a[None, :]
        for shift in (8, 4, 2, 1):
            x = x ^ (x >> shift)
        assert np.array_equal(_hadamard_table(s), (x & 1).astype(np.uint8))

    def test_distance_bound_at_least_one_third(self):
        for n in (2, 8, 16, 64, 256):
            spec = CodeSpec.create(n)
            assert spec.distance_bound >= 1 / 3
            assert spec.min_distance >= math.ceil(spec.block_len / 3)

    def test_vandermonde_logs_match_elementwise_definition(self):
        for n in (2, 8, 64, 300, 1024, 4096):
            spec = CodeSpec.create(n)
            _, log, pow_log, _ = spec._tables
            order = (1 << spec.s) - 1
            expect = np.full((spec.n_rs, spec.n_sym), -1, dtype=np.int64)
            for alpha in range(spec.n_rs):
                expect[alpha, 0] = 0
                for t in range(1, spec.n_sym):
                    if alpha != 0:
                        expect[alpha, t] = (t * int(log[alpha])) % order
            assert np.array_equal(pow_log, expect)

    def test_encoded_grid_cells_are_read_only_views(self):
        spec = CodeSpec.create(8)
        g = grid_of(spec, BitString.from_text("10110010"))
        assert not g.cells.flags.writeable
        assert np.shares_memory(row(g, 2).array, g.cells)
        assert np.shares_memory(column(g, 3).array, g.cells)
        assert grid_of(spec, BitString.from_text("10110010")) == grid(
            encode(spec, BitString.from_text("10110010")), spec.rows, spec.cols
        )

    def test_spec_json(self):
        data = CodeSpec.create(8).to_json()
        assert data["n"] == 8 and data["N"] == 96
        assert data["padded_rows"] == data["padded_cols"] == 10
        assert data["rate"] == "2/6"


class TestGrid:
    def test_transpose_identity(self):
        spec = CodeSpec.create(8)
        g = grid_of(spec, BitString.from_text("11001010"))
        for j in range(1, g.rows + 1):
            for i in range(1, g.cols + 1):
                assert row(g, j).array[i - 1] == column(g, i).array[j - 1]

    def test_padding_rule_n12_to_16(self):
        spec = CodeSpec.create(2)  # block length 12
        assert spec.block_len == 12
        g = grid(encode(spec, BitString.from_text("10")), 4, 4)
        assert tuple(g.cells.reshape(-1)[12:]) == (0, 0, 0, 0)

    def test_index_range_errors(self):
        spec = CodeSpec.create(8)
        g = grid_of(spec, BitString.from_text("11001010"))
        with pytest.raises(IndexError):
            row(g, 0)
        with pytest.raises(IndexError):
            column(g, g.cols + 1)

    def test_grid_too_small(self):
        spec = CodeSpec.create(8)
        with pytest.raises(ValueError):
            grid(encode(spec, BitString.from_text("11001010")), 3, 3)

    def test_padding_identical_for_all_inputs(self):
        spec = CodeSpec.create(8)
        g1 = grid_of(spec, BitString.from_text("11001010"))
        g2 = grid_of(spec, BitString.from_text("00110101"))
        pad = np.arange(spec.padded_len) >= spec.block_len
        flat1, flat2 = g1.cells.reshape(-1), g2.cells.reshape(-1)
        assert not np.any(flat1[pad]) and not np.any(flat2[pad])


class TestBestRow:
    def test_identical_grids_error(self):
        spec = CodeSpec.create(8)
        g = grid_of(spec, BitString.from_text("11001010"))
        with pytest.raises(ValueError):
            best_row(g, g)

    def test_full_complement_gives_row_one(self):
        a = GridCodeword(np.zeros((4, 4), dtype=np.uint8))
        b = GridCodeword(np.ones((4, 4), dtype=np.uint8))
        assert best_row(a, b) == 1

    def test_smallest_index_and_threshold(self):
        spec = CodeSpec.create(8)
        threshold = math.ceil(spec.cols / 3)
        for seed in range(25):
            x, y = sample_instance(InstanceKind.NE_PAIR, 8, RandomSource(seed))
            gx, gy = grid_of(spec, x), grid_of(spec, y)
            j = best_row(gx, gy)
            dists = row_distances(gx, gy)
            assert dists[j - 1] >= threshold
            assert all(d < threshold for d in dists[: j - 1])

    def test_pigeonhole_exhaustive_n8(self):
        spec = CodeSpec.create(8)
        threshold = math.ceil(spec.cols / 3)
        inputs = list(all_inputs(8))
        grids = np.stack([grid_of(spec, x).cells for x in inputs]).astype(np.int64)
        # some row must reach the threshold for every distinct pair
        for r in range(spec.rows):
            layer = grids[:, r, :]
            w = layer.sum(axis=1)
            d = w[:, None] + w[None, :] - 2 * (layer @ layer.T)
            hit = d >= threshold
            if r == 0:
                any_row = hit
            else:
                any_row |= hit
        iu = np.triu_indices(len(inputs), k=1)
        assert any_row[iu].all()


class TestSpecValidation:
    def test_unsupported_n(self):
        with pytest.raises(ValueError):
            CodeSpec.create(0)

    def test_overpadded_grid_rejected(self):
        # padding so heavy that the guaranteed distance cannot force a
        # qualifying row any more
        with pytest.raises(ValueError):
            CodeSpec.create(8, rows=13, cols=13)

    def test_rectangular_grid_accepted(self):
        spec = CodeSpec.create(8, rows=12)
        assert spec.rows * spec.cols >= spec.block_len
