"""Decoding from a model, balanced counts, and synthetic sample generation."""

from __future__ import annotations

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from clare import model as model_mod
from clare.model import ClareModel, load_model, one_hot, save_model
from clare.replay import balance_counts, generate_replay, take_snapshot
from oracles import sigmoid_oracle


def small_model(seed=0, class_no=3) -> ClareModel:
    return ClareModel(
        class_no=class_no, d_z=2, input_dim=6,
        enc_hidden=(8, 7), dec_hidden=(7, 8),
        rng=np.random.default_rng(seed),
    )


class TestDecode:
    def test_round_trip_decodes_identically(self, tmp_path):
        # Replay decodes from the saved model; there is no second format.
        m = small_model(3)
        path = str(tmp_path / "model.clre")
        save_model(m, path)
        z = np.random.default_rng(4).standard_normal((5, 2))
        c = one_hot(np.array([0, 1, 2, 1, 0]), 3)
        assert np.array_equal(load_model(path).decode(z, c), m.decode(z, c))

    def test_latents_and_codes_of_the_wrong_widths_are_rejected(self):
        # d_z + 1 and class_no - 1 columns add up to dec_w1's width.
        m = small_model(5)
        z, c = np.zeros((2, m.d_z + 1)), np.zeros((2, m.class_no - 1))
        with pytest.raises(ValueError, match=r"d_z=2\) and c of shape \(n, class_no=3\)"):
            m.decode(z, c)

    def test_the_benchmarks_snapshot_call_replays_the_model_itself(self):
        m = small_model(17)
        assert take_snapshot(m, increment=3) is m
        counts = {0: 1100, 2: 7}
        want = generate_replay(m, counts, seed=4)
        got = generate_replay(take_snapshot(m, increment=3), counts, seed=4)
        assert np.array_equal(got.images, want.images)
        assert np.array_equal(got.labels, want.labels)


class TestBalanceCounts:
    def test_median_of_two_new_classes(self):
        got = balance_counts([0, 1, 2], {3: 5000, 4: 7000})
        assert got == {0: 6000, 1: 6000, 2: 6000}

    def test_single_new_class(self):
        assert balance_counts([0], {1: 6000}) == {0: 6000}

    def test_half_up_rounding(self):
        # Median 150.5 rounds up, never banker's-rounds down.
        assert balance_counts([0], {1: 150, 2: 151}) == {0: 151}

    def test_no_learned_classes_means_no_replay(self):
        assert balance_counts([], {0: 100}) == {}

    def test_empty_new_counts_rejected(self):
        with pytest.raises(ValueError):
            balance_counts([0], {})

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ValueError):
            balance_counts([0], {1: 0})


class TestGenerateReplay:
    def test_buffer_invariants(self):
        m = small_model(5)
        counts = {0: 40, 2: 25}
        buf = generate_replay(m, counts, seed=9)
        assert len(buf) == 65
        assert buf.images.shape == (65, 6)
        assert ((buf.images > 0) & (buf.images < 1)).all()
        assert Counter(buf.labels.tolist()) == counts
        # Classes come out sorted, so slices are contiguous.
        assert (np.diff(buf.labels) >= 0).all()

    def test_deterministic_per_seed(self):
        m = small_model(7)
        a = generate_replay(m, {0: 30, 1: 20}, seed=42)
        b = generate_replay(m, {0: 30, 1: 20}, seed=42)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)
        c = generate_replay(m, {0: 30, 1: 20}, seed=43)
        assert not np.array_equal(a.images, c.images)

    def test_iteration_order_of_request_is_irrelevant(self):
        m = small_model(8)
        fwd = generate_replay(m, dict([(0, 10), (1, 15), (2, 5)]), seed=3)
        rev = generate_replay(m, dict([(2, 5), (1, 15), (0, 10)]), seed=3)
        assert np.array_equal(fwd.images, rev.images)
        assert np.array_equal(fwd.labels, rev.labels)

    def test_per_class_stream_independent_of_other_requests(self):
        # Dropping class 1 from the request must not shift class 0's samples.
        m = small_model(9)
        both = generate_replay(m, {0: 12, 1: 12}, seed=5)
        solo = generate_replay(m, {0: 12}, seed=5)
        assert np.array_equal(both.images[both.labels == 0], solo.images)

    def test_chunked_generation_spans_the_chunk_size(self):
        m = small_model(10)
        buf = generate_replay(m, {0: 1500}, seed=1)
        assert len(buf) == 1500
        assert buf.images.shape == (1500, 6)
        # One stream per class: the chunk boundary must not reseed.
        again = generate_replay(m, {0: 1500}, seed=1)
        assert np.array_equal(buf.images, again.images)

    def test_empty_request_yields_empty_buffer(self):
        m = small_model(11)
        buf = generate_replay(m, {}, seed=0)
        assert len(buf) == 0
        assert buf.images.shape == (0, 6)

    def test_zero_count_class_is_skipped(self):
        m = small_model(12)
        buf = generate_replay(m, {0: 0, 1: 4}, seed=0)
        assert Counter(buf.labels.tolist()) == {1: 4}

    def test_unknown_class_rejected(self):
        m = small_model(13)
        with pytest.raises(ValueError, match="outside"):
            generate_replay(m, {3: 5}, seed=0)

    def test_negative_count_rejected(self):
        m = small_model(14)
        with pytest.raises(ValueError):
            generate_replay(m, {0: -1}, seed=0)

    @settings(max_examples=20, deadline=None)
    @given(
        counts=st.dictionaries(
            st.integers(0, 2), st.integers(1, 50), min_size=1, max_size=3
        ),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_label_multiset_always_matches_request(self, counts, seed):
        m = small_model(15)
        buf = generate_replay(m, counts, seed=seed)
        assert Counter(buf.labels.tolist()) == counts
        assert len(buf) == sum(counts.values())


CHUNK = model_mod._DECODE_ROWS


def chunk_and_concatenate(model, counts, seed):
    """Replay as one allocating decoder pass per chunk, then concatenated."""
    parts_x, parts_y = [np.zeros((0, model.input_dim))], [np.zeros(0, dtype=np.int64)]
    for cls in sorted(counts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, cls]))
        for start in range(0, counts[cls], CHUNK):
            n = min(CHUNK, counts[cls] - start)
            z = rng.standard_normal((n, model.d_z))
            c = one_hot(np.full(n, cls), model.class_no)
            parts_x.append(model.decode(z, c))
            parts_y.append(np.full(n, cls, dtype=np.int64))
    return np.concatenate(parts_x), np.concatenate(parts_y)


def wide_model(class_no=5) -> ClareModel:
    return ClareModel(
        class_no=class_no, d_z=8, input_dim=256, enc_hidden=(64, 32), dec_hidden=(32, 128),
        rng=np.random.default_rng(21),
    )


class TestPreallocatedGeneration:
    @pytest.mark.parametrize(
        "counts",
        [
            {0: 1},
            {1: CHUNK - 1},
            {2: CHUNK},
            {3: CHUNK + 1},
            {0: CHUNK + 1, 1: 0, 2: 7, 4: 2 * CHUNK},
        ],
    )
    def test_bit_identical_to_chunk_and_concatenate(self, counts):
        m = wide_model()
        buf = generate_replay(m, counts, seed=17)
        images, labels = chunk_and_concatenate(m, counts, seed=17)
        assert buf.images.shape == images.shape
        assert np.array_equal(buf.images, images)
        assert np.array_equal(buf.labels, labels)
        assert buf.labels.dtype == np.int64

    def test_decode_into_buffers_matches_the_allocating_decode(self):
        m = wide_model()
        rng = np.random.default_rng(4)
        z = rng.standard_normal((9, m.d_z))
        c = one_hot(rng.integers(0, m.class_no, 9), m.class_no)
        want = m.decode(z, c)
        out = np.empty((9, m.input_dim))
        assert m.decode(z, c, out=out) is out
        assert np.array_equal(out, want)
        with pytest.raises(ValueError):
            m.decode(z[:, :1], c, out=out)  # would broadcast
        with pytest.raises(ValueError):
            m.decode(z, c, out=np.empty((10, m.input_dim)))  # one row too many

    @pytest.mark.parametrize("counts", [{0: 10**12, 3: 5}, {0: 10**12, 1: -1}])
    def test_bad_request_rejected_before_anything_is_allocated(self, counts, monkeypatch):
        m = small_model(16)

        def no_decoding(*args, **kwargs):
            raise AssertionError("decoded before the request was checked")

        monkeypatch.setattr(ClareModel, "decode", no_decoding)
        with pytest.raises(ValueError):
            generate_replay(m, counts, seed=0)

    def test_out_receives_the_same_buffer_the_allocating_call_returns(self):
        m = wide_model()
        counts = {0: CHUNK + 3, 2: 5}
        want = generate_replay(m, counts, seed=9)
        out = np.full((CHUNK + 8, m.input_dim), np.nan)
        buf = generate_replay(m, counts, seed=9, out=out)
        assert buf.images is out
        assert np.array_equal(out, want.images)
        assert np.array_equal(buf.labels, want.labels)

    @pytest.mark.parametrize(
        "rows, width, dtype",
        [(7, 6, np.float64), (9, 6, np.float64), (8, 5, np.float64), (8, 6, np.float32)],
    )
    def test_wrong_out_is_rejected_before_decoding(self, rows, width, dtype, monkeypatch):
        m = small_model(16)

        def no_decoding(*args, **kwargs):
            raise AssertionError("decoded before out was checked")

        monkeypatch.setattr(ClareModel, "decode", no_decoding)
        out = np.zeros((rows, width), dtype=dtype)
        with pytest.raises(ValueError, match=r"float64 of shape \(8, 6\)"):
            generate_replay(m, {0: 5, 2: 3}, seed=0, out=out)
        assert not out.any()

    def test_peak_memory_is_the_output_plus_one_chunk_of_buffers(self):
        m = wide_model(class_no=3)
        counts = {0: 2500, 1: 2500, 2: 2500}
        output_bytes = 7500 * (m.input_dim * 8 + 8)
        chunk_bytes = CHUNK * m.input_dim * 8
        generate_replay(m, {0: 3}, seed=1)  # first-call costs outside the window
        tracemalloc.start()
        try:
            buf = generate_replay(m, counts, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(buf) == 7500
        assert peak < output_bytes + 4 * chunk_bytes, (
            f"peak {peak / 2**20:.2f} MiB, output {output_bytes / 2**20:.2f} MiB"
        )


def concatenated_decoder(p, z, c):
    """Plain numpy decoder over the joined input ``[z, c]``."""
    h = np.maximum(np.concatenate([z, c], axis=1) @ p("dec_w1").T + p("dec_b1"), 0.0)
    h = np.maximum(h @ p("dec_w2").T + p("dec_b2"), 0.0)
    return sigmoid_oracle(h @ p("dec_w3").T + p("dec_b3"))


class TestSplitFormDecoder:
    def test_decode_and_replay_match_the_concatenated_decoder_at_digit_shape(self):
        m = ClareModel(class_no=10, rng=np.random.default_rng(8))
        rng = np.random.default_rng(9)
        # Non-zero biases, so adding b1 before or after the condition rounds differently.
        for name in ("dec_b1", "dec_b2", "dec_b3"):
            m.tape.param(name)[...] = rng.normal(scale=0.1, size=m.tape.param(name).shape)
        p = m.tape.param
        z = rng.standard_normal((300, m.d_z))
        c = one_hot(rng.integers(0, 10, 300), 10)
        # The split form sums the K=64 product and the condition column in a
        # different order from the K=74 product, so they agree to rounding.
        assert_allclose(m.decode(z, c), concatenated_decoder(p, z, c), rtol=1e-13, atol=0)

        counts = {0: 300, 4: 200, 9: 100}
        buf = generate_replay(m, counts, seed=3)
        want = []
        for cls, n in counts.items():
            draws = np.random.default_rng(np.random.SeedSequence([3, cls]))
            z = draws.standard_normal((n, m.d_z))
            want.append(concatenated_decoder(p, z, one_hot(np.full(n, cls), 10)))
        assert_allclose(buf.images, np.concatenate(want), rtol=1e-13, atol=0)


class TestMergedRatios:
    def test_replay_share_balances_each_old_class(self):
        # Counts as the training loop assembles them: new data plus replay.
        m = small_model(16, class_no=5)
        learned = [0, 1]
        new_counts = {2: 90, 3: 110, 4: 100}
        share = balance_counts(learned, new_counts)
        buf = generate_replay(m, share, seed=2)
        merged = Counter(buf.labels.tolist())
        for cls, n in new_counts.items():
            merged[cls] += n
        assert merged == {0: 100, 1: 100, 2: 90, 3: 110, 4: 100}
