import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smplab.core import (
    BitString,
    InstanceKind,
    Message,
    RandomSource,
    Transcript,
    hamming_distance,
    sample_instance,
)


class TestBitString:
    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BitString((0, 2, 1))

    @pytest.mark.parametrize(
        "bad",
        [(0, 2), (1, -1), (0.5, 1), (1.0, 0), np.zeros((2, 2), dtype=np.uint8), 1, "01"],
    )
    def test_rejects_out_of_range_non_integer_and_non_1d(self, bad):
        with pytest.raises(ValueError):
            BitString(bad)

    def test_from_text_rejects_other_characters(self):
        for text in ("012", "0 1", "01x"):
            with pytest.raises(ValueError):
                BitString.from_text(text)

    def test_text_round_trip(self):
        assert BitString.from_text("0110").to_text() == "0110"

    def test_array_is_read_only(self):
        arr = BitString.from_text("101").array
        with pytest.raises(ValueError):
            arr[0] = 0

    @given(st.lists(st.integers(0, 1), max_size=40))
    def test_equality_and_hash_agree_across_constructions(self, bits):
        forms = [
            BitString.from_text("".join(map(str, bits))),
            BitString.from_array(np.array(bits, dtype=np.uint8)),
            BitString(tuple(bits)),
            BitString(np.array(bits, dtype=bool)),
            BitString(np.array(bits, dtype=np.int64)),
        ]
        for b in forms:
            assert b == forms[0] and hash(b) == hash(forms[0])
            assert b.n == len(bits) and b.to_text() == forms[0].to_text()
            assert b.array.dtype == np.uint8 and b.array.ndim == 1
            assert not b.array.flags.writeable

    def test_distinct_strings_differ(self):
        assert BitString.from_text("01") != BitString.from_text("10")
        assert BitString.from_text("0") != BitString.from_text("00")
        assert BitString.from_text("01") != "01"

    def test_writeable_source_is_copied(self):
        src = np.array([0, 1, 1], dtype=np.uint8)
        b = BitString(src)
        src[0] = 1
        assert b.to_text() == "011"

    def test_read_only_view_is_wrapped_without_copy(self):
        grid = np.array([[0, 1], [1, 1]], dtype=np.uint8)
        grid.flags.writeable = False
        column = BitString(grid[:, 0])
        assert np.shares_memory(column.array, grid) and column.to_text() == "01"


class TestHamming:
    def test_identity(self):
        z = BitString.from_text("0000")
        assert hamming_distance(z, z) == 0

    def test_complement(self):
        assert hamming_distance(BitString.from_text("0000"), BitString.from_text("1111")) == 4

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance(BitString.from_text("01"), BitString.from_text("011"))

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=64))
    def test_matches_positional_recount(self, pairs):
        x = BitString(tuple(p[0] for p in pairs))
        y = BitString(tuple(p[1] for p in pairs))
        recount = sum(1 for a, b in zip(x.array, y.array) if a != b)
        assert hamming_distance(x, y) == recount


class TestRandomSource:
    def test_same_pair_same_stream(self):
        a = RandomSource(123, 7).generator().integers(0, 1 << 30, 20)
        b = RandomSource(123, 7).generator().integers(0, 1 << 30, 20)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RandomSource(123, 7).generator().integers(0, 1 << 30, 20)
        b = RandomSource(123, 8).generator().integers(0, 1 << 30, 20)
        assert not np.array_equal(a, b)

    def test_derive_is_deterministic_and_path_sensitive(self):
        base = RandomSource(5)
        assert base.derive(1, 2) == base.derive(1, 2)
        assert base.derive(1, 2) != base.derive(2, 1)

    def test_derived_streams_look_independent(self):
        # crude independence check: correlation of two derived streams ~ 0
        g1 = RandomSource(5).derive(1).generator().random(4000)
        g2 = RandomSource(5).derive(2).generator().random(4000)
        assert abs(np.corrcoef(g1, g2)[0, 1]) < 0.05


class TestInstances:
    def test_eq_pair(self):
        x, y = sample_instance(InstanceKind.EQ_PAIR, 8, RandomSource(1))
        assert x == y and hamming_distance(x, y) == 0

    def test_ne_pair(self):
        for seed in range(30):
            x, y = sample_instance(InstanceKind.NE_PAIR, 8, RandomSource(seed))
            assert x != y

    def test_one_out_of_two_promise(self):
        for seed in range(50):
            x1, x2, y = sample_instance(
                InstanceKind.ONE_OUT_OF_TWO_TRIPLE, 8, RandomSource(seed)
            )
            assert (x1 == y) != (x2 == y)
            assert x1 != x2

    def test_disj_pairs_and_zero(self):
        for seed in range(1000):
            x, y = sample_instance(InstanceKind.DISJ_PAIR, 16, RandomSource(seed))
            assert not np.any(x.array & y.array)

    def test_intersect_pairs_share_a_position(self):
        for seed in range(100):
            x, y = sample_instance(InstanceKind.INTERSECT_PAIR, 16, RandomSource(seed))
            assert np.any(x.array & y.array)

    def test_reproducible(self):
        a = sample_instance(InstanceKind.NE_PAIR, 32, RandomSource(9, 3))
        b = sample_instance(InstanceKind.NE_PAIR, 32, RandomSource(9, 3))
        assert a == b

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            sample_instance(InstanceKind.EQ_PAIR, 1, RandomSource(0))


class TestTranscript:
    def _msg(self, kind="classical", length=4):
        return Message(kind, length, None)

    def test_type_string_must_match_kinds(self):
        with pytest.raises(ValueError):
            Transcript(self._msg("quantum"), self._msg(), None, "RR")
        tr = Transcript(self._msg(), self._msg(), self._msg("quantum"), "RRQ")
        assert tr.lengths() == {"alice": 4, "bob": 4, "merlin": 4}

    def test_merlin_presence_must_match_length_of_type(self):
        with pytest.raises(ValueError):
            Transcript(self._msg(), self._msg(), None, "RRR")

    def test_bad_message_kind(self):
        with pytest.raises(ValueError):
            Message("analog", 4, None)
