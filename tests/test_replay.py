"""Decoder snapshots, balanced counts, and synthetic sample generation."""

from __future__ import annotations

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from clare import model as model_mod
from clare.model import ClareModel, decoder_forward, load_model, one_hot, save_model
from clare.replay import DecoderSnapshot, balance_counts, generate_replay, take_snapshot
from oracles import sigmoid_oracle


def small_model(seed=0, class_no=3) -> ClareModel:
    return ClareModel(
        class_no=class_no, d_z=2, input_dim=6,
        enc_hidden=(8, 7), dec_hidden=(7, 8),
        rng=np.random.default_rng(seed),
    )


class TestSnapshot:
    def test_holds_only_decoder_tensors(self):
        snap = take_snapshot(small_model(), increment=0)
        assert sorted(snap.params) == [
            "dec_b1", "dec_b2", "dec_b3", "dec_w1", "dec_w2", "dec_w3",
        ]
        assert snap.class_no == 3
        assert snap.d_z == 2
        assert snap.output_dim == 6

    def test_survives_further_training_of_the_source(self):
        m = small_model(1)
        z = np.random.default_rng(2).standard_normal((4, 2))
        c = one_hot(np.array([0, 1, 2, 0]), 3)
        snap = take_snapshot(m, increment=0)
        before = snap.decode(z, c)
        # Wreck the live decoder; the frozen copy must not notice.
        for name in ("dec_w1", "dec_w2", "dec_w3"):
            m.tape.param(name)[...] = 0.0
        assert np.array_equal(snap.decode(z, c), before)
        assert not np.array_equal(m.decode(z, c), before)

    def test_round_trip_decodes_identically(self, tmp_path):
        # A snapshot is rebuilt from the saved model; there is no second format.
        m = small_model(3)
        snap = take_snapshot(m, increment=2)
        path = str(tmp_path / "model.clre")
        save_model(m, path)
        back = take_snapshot(load_model(path), increment=2)
        z = np.random.default_rng(4).standard_normal((5, 2))
        c = one_hot(np.array([0, 1, 2, 1, 0]), 3)
        assert np.array_equal(back.decode(z, c), snap.decode(z, c))
        assert list(back.params) == list(snap.params)
        assert (back.class_no, back.d_z, back.increment) == (snap.class_no, snap.d_z, 2)

    def test_latents_and_codes_of_the_wrong_widths_are_rejected(self):
        # d_z + 1 and class_no - 1 columns add up to dec_w1's width.
        m = small_model(5)
        z, c = np.zeros((2, m.d_z + 1)), np.zeros((2, m.class_no - 1))
        for decoder in (take_snapshot(m, increment=0), m):
            with pytest.raises(ValueError, match=r"d_z=2\) and c of shape \(n, class_no=3\)"):
                decoder.decode(z, c)


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
        snap = take_snapshot(small_model(5), increment=1)
        counts = {0: 40, 2: 25}
        buf = generate_replay(snap, counts, seed=9)
        assert len(buf) == 65
        assert buf.images.shape == (65, 6)
        assert ((buf.images > 0) & (buf.images < 1)).all()
        assert Counter(buf.labels.tolist()) == counts
        # Classes come out sorted, so slices are contiguous.
        assert (np.diff(buf.labels) >= 0).all()

    def test_deterministic_per_seed(self):
        snap = take_snapshot(small_model(7), increment=0)
        a = generate_replay(snap, {0: 30, 1: 20}, seed=42)
        b = generate_replay(snap, {0: 30, 1: 20}, seed=42)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)
        c = generate_replay(snap, {0: 30, 1: 20}, seed=43)
        assert not np.array_equal(a.images, c.images)

    def test_iteration_order_of_request_is_irrelevant(self):
        snap = take_snapshot(small_model(8), increment=0)
        fwd = generate_replay(snap, dict([(0, 10), (1, 15), (2, 5)]), seed=3)
        rev = generate_replay(snap, dict([(2, 5), (1, 15), (0, 10)]), seed=3)
        assert np.array_equal(fwd.images, rev.images)
        assert np.array_equal(fwd.labels, rev.labels)

    def test_per_class_stream_independent_of_other_requests(self):
        # Dropping class 1 from the request must not shift class 0's samples.
        snap = take_snapshot(small_model(9), increment=0)
        both = generate_replay(snap, {0: 12, 1: 12}, seed=5)
        solo = generate_replay(snap, {0: 12}, seed=5)
        assert np.array_equal(both.images[both.labels == 0], solo.images)

    def test_chunked_generation_spans_the_chunk_size(self):
        snap = take_snapshot(small_model(10), increment=0)
        buf = generate_replay(snap, {0: 1500}, seed=1)
        assert len(buf) == 1500
        assert buf.images.shape == (1500, 6)
        # One stream per class: the chunk boundary must not reseed.
        again = generate_replay(snap, {0: 1500}, seed=1)
        assert np.array_equal(buf.images, again.images)

    def test_empty_request_yields_empty_buffer(self):
        snap = take_snapshot(small_model(11), increment=0)
        buf = generate_replay(snap, {}, seed=0)
        assert len(buf) == 0
        assert buf.images.shape == (0, 6)

    def test_zero_count_class_is_skipped(self):
        snap = take_snapshot(small_model(12), increment=0)
        buf = generate_replay(snap, {0: 0, 1: 4}, seed=0)
        assert Counter(buf.labels.tolist()) == {1: 4}

    def test_a_model_replays_exactly_like_its_snapshot(self):
        # An increment replays from the previous model itself.
        m = small_model(17)
        snap = take_snapshot(m, increment=0)
        assert m.output_dim == snap.output_dim == 6
        counts = {0: 1100, 2: 7}
        want = generate_replay(snap, counts, seed=4)
        out = np.empty((1107, 6))
        got = generate_replay(m, counts, seed=4, out=out)
        assert got.images is out
        assert np.array_equal(got.images, want.images)
        assert np.array_equal(got.labels, want.labels)

    def test_unknown_class_rejected(self):
        snap = take_snapshot(small_model(13), increment=0)
        with pytest.raises(ValueError, match="outside"):
            generate_replay(snap, {3: 5}, seed=0)

    def test_negative_count_rejected(self):
        snap = take_snapshot(small_model(14), increment=0)
        with pytest.raises(ValueError):
            generate_replay(snap, {0: -1}, seed=0)

    @settings(max_examples=20, deadline=None)
    @given(
        counts=st.dictionaries(
            st.integers(0, 2), st.integers(1, 50), min_size=1, max_size=3
        ),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_label_multiset_always_matches_request(self, counts, seed):
        snap = take_snapshot(small_model(15), increment=0)
        buf = generate_replay(snap, counts, seed=seed)
        assert Counter(buf.labels.tolist()) == counts
        assert len(buf) == sum(counts.values())


CHUNK = model_mod._DECODE_ROWS


def chunk_and_concatenate(snapshot, counts, seed):
    """Replay as one allocating decoder pass per chunk, then concatenated."""
    parts_x, parts_y = [np.zeros((0, snapshot.output_dim))], [np.zeros(0, dtype=np.int64)]
    for cls in sorted(counts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, cls]))
        for start in range(0, counts[cls], CHUNK):
            n = min(CHUNK, counts[cls] - start)
            z = rng.standard_normal((n, snapshot.d_z))
            c = one_hot(np.full(n, cls), snapshot.class_no)
            parts_x.append(decoder_forward(snapshot.params.__getitem__, snapshot.d_z, z, c))
            parts_y.append(np.full(n, cls, dtype=np.int64))
    return np.concatenate(parts_x), np.concatenate(parts_y)


def wide_snapshot(class_no=5) -> DecoderSnapshot:
    model = ClareModel(
        class_no=class_no, d_z=8, input_dim=256, enc_hidden=(64, 32), dec_hidden=(32, 128),
        rng=np.random.default_rng(21),
    )
    return take_snapshot(model, increment=1)


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
        snap = wide_snapshot()
        buf = generate_replay(snap, counts, seed=17)
        images, labels = chunk_and_concatenate(snap, counts, seed=17)
        assert buf.images.shape == images.shape
        assert np.array_equal(buf.images, images)
        assert np.array_equal(buf.labels, labels)
        assert buf.labels.dtype == np.int64

    def test_decode_into_buffers_matches_the_allocating_decode(self):
        snap = wide_snapshot()
        rng = np.random.default_rng(4)
        z = rng.standard_normal((9, snap.d_z))
        c = one_hot(rng.integers(0, snap.class_no, 9), snap.class_no)
        want = snap.decode(z, c)
        out = np.empty((9, snap.output_dim))
        assert snap.decode(z, c, out=out) is out
        assert np.array_equal(out, want)
        with pytest.raises(ValueError):
            snap.decode(z[:, :1], c, out=out)  # would broadcast
        with pytest.raises(ValueError):
            snap.decode(z, c, out=np.empty((10, snap.output_dim)))  # one row too many

    @pytest.mark.parametrize("counts", [{0: 10**12, 3: 5}, {0: 10**12, 1: -1}])
    def test_bad_request_rejected_before_anything_is_allocated(self, counts, monkeypatch):
        snap = take_snapshot(small_model(16), increment=0)

        def no_decoding(*args, **kwargs):
            raise AssertionError("decoded before the request was checked")

        monkeypatch.setattr(DecoderSnapshot, "decode", no_decoding)
        with pytest.raises(ValueError):
            generate_replay(snap, counts, seed=0)

    def test_out_receives_the_same_buffer_the_allocating_call_returns(self):
        snap = wide_snapshot()
        counts = {0: CHUNK + 3, 2: 5}
        want = generate_replay(snap, counts, seed=9)
        out = np.full((CHUNK + 8, snap.output_dim), np.nan)
        buf = generate_replay(snap, counts, seed=9, out=out)
        assert buf.images is out
        assert np.array_equal(out, want.images)
        assert np.array_equal(buf.labels, want.labels)

    @pytest.mark.parametrize(
        "rows, width, dtype",
        [(7, 6, np.float64), (9, 6, np.float64), (8, 5, np.float64), (8, 6, np.float32)],
    )
    def test_wrong_out_is_rejected_before_decoding(self, rows, width, dtype, monkeypatch):
        snap = take_snapshot(small_model(16), increment=0)

        def no_decoding(*args, **kwargs):
            raise AssertionError("decoded before out was checked")

        monkeypatch.setattr(DecoderSnapshot, "decode", no_decoding)
        out = np.zeros((rows, width), dtype=dtype)
        with pytest.raises(ValueError, match=r"float64 of shape \(8, 6\)"):
            generate_replay(snap, {0: 5, 2: 3}, seed=0, out=out)
        assert not out.any()

    def test_peak_memory_is_the_output_plus_one_chunk_of_buffers(self):
        snap = wide_snapshot(class_no=3)
        counts = {0: 2500, 1: 2500, 2: 2500}
        output_bytes = 7500 * (snap.output_dim * 8 + 8)
        chunk_bytes = CHUNK * snap.output_dim * 8
        generate_replay(snap, {0: 3}, seed=1)  # first-call costs outside the window
        tracemalloc.start()
        try:
            buf = generate_replay(snap, counts, seed=2)
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
        buf = generate_replay(take_snapshot(m, increment=0), counts, seed=3)
        want = []
        for cls, n in counts.items():
            draws = np.random.default_rng(np.random.SeedSequence([3, cls]))
            z = draws.standard_normal((n, m.d_z))
            want.append(concatenated_decoder(p, z, one_hot(np.full(n, cls), 10)))
        assert_allclose(buf.images, np.concatenate(want), rtol=1e-13, atol=0)


class TestMergedRatios:
    def test_replay_share_balances_each_old_class(self):
        # Counts as the training loop assembles them: new data plus replay.
        snap = take_snapshot(small_model(16, class_no=5), increment=0)
        learned = [0, 1]
        new_counts = {2: 90, 3: 110, 4: 100}
        share = balance_counts(learned, new_counts)
        buf = generate_replay(snap, share, seed=2)
        merged = Counter(buf.labels.tolist())
        for cls, n in new_counts.items():
            merged[cls] += n
        assert merged == {0: 100, 1: 100, 2: 90, 3: 110, 4: 100}
