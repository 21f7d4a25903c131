"""The seeded streams against numpy: keys against ``SeedSequence``, draws and picks against per-stream generators."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attrfuse.streams import PICK_STREAM, SCORE_STREAM, derived_rng, seeded_picks, stream_draws, stream_keys


# entropy ints of one 32-bit word and of several, as SeedSequence splits them
_ENTROPY = st.integers(0, 2**32 - 1) | st.integers(2**32, 2**100)


def seed_sequence_keys(entries, shape):
    """``SeedSequence([...]).generate_state(2, uint64)`` at each index of ``shape``, array entries taken there."""
    out = np.empty((*shape, 2), dtype=np.uint64)
    for index in np.ndindex(*shape):
        words = [int(np.broadcast_to(e, shape)[index]) if np.ndim(e) else e for e in entries]
        out[index] = np.random.SeedSequence(words).generate_state(2, np.uint64)
    return out


class TestStreamKeys:
    @settings(max_examples=300, deadline=None)
    @given(seed=_ENTROPY, key=st.lists(_ENTROPY, max_size=5), trials=st.integers(0, 40))
    @example(seed=7, key=[PICK_STREAM, 3], trials=12)  # exp3's pick keys: four words
    @example(seed=7, key=[SCORE_STREAM, 2], trials=12)  # exp3's score keys: four words
    @example(seed=2**32 + 7, key=[SCORE_STREAM, 2], trials=12)  # a two-word seed: five words
    @example(seed=0, key=[], trials=3)  # fewer words than the pool
    def test_matches_seed_sequence(self, seed, key, trials):
        expected = [np.random.SeedSequence([seed, *key, t]).generate_state(2, np.uint64) for t in range(trials)]
        keys = stream_keys(seed, *key, np.arange(trials))
        assert keys.dtype == np.uint64 and keys.shape == (trials, 2)
        assert np.array_equal(keys, np.reshape(expected, (trials, 2)))

    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.lists(_ENTROPY, min_size=1, max_size=6),
        data=st.data(),
        words=st.lists(st.integers(0, 2**32 - 1), max_size=6),
    )
    def test_array_entry_in_any_position(self, entries, data, words):
        """One array entry, in any position among scalar entries of one or more words, broadcasts to its shape."""
        position = data.draw(st.integers(0, len(entries) - 1))
        entries[position] = np.array(words, dtype=np.int64)
        keys = stream_keys(*entries)
        assert keys.dtype == np.uint64 and keys.shape == (len(words), 2)
        assert np.array_equal(keys, seed_sequence_keys(entries, (len(words),)))

    def test_array_entries_broadcast(self):
        entries = [np.arange(3, dtype=np.uint32)[:, None], 2**64 + 9, np.array([0, 2**32 - 1], dtype=np.uint64), 5]
        keys = stream_keys(*entries)
        assert keys.shape == (3, 2, 2)
        assert np.array_equal(keys, seed_sequence_keys(entries, (3, 2)))

    @pytest.mark.parametrize("entries", [(0,), (2**32,), (2**40 + 3, 2**70, 1), (7, PICK_STREAM)])
    def test_scalar_entries_give_one_key(self, entries):
        assert np.array_equal(stream_keys(*entries), np.random.SeedSequence(entries).generate_state(2, np.uint64))

    @pytest.mark.parametrize("seed, key", [(-1, (SCORE_STREAM,)), (3, (PICK_STREAM, -2))])
    def test_negative_entropy_rejected(self, seed, key):
        with pytest.raises(ValueError, match="non-negative"):
            stream_keys(seed, *key, np.arange(4))
        with pytest.raises(ValueError, match="non-negative"):
            stream_keys(seed, *key)

    @pytest.mark.parametrize("entry", [np.array([0, -1]), np.array([2**32]), np.array([[1], [2**40]], dtype=np.uint64)])
    def test_array_entry_outside_one_word_rejected(self, entry):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            stream_keys(3, PICK_STREAM, entry)
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            stream_keys(entry, PICK_STREAM)

    def test_array_entry_of_floats_rejected(self):
        with pytest.raises(TypeError, match="integer array"):
            stream_keys(3, PICK_STREAM, np.array([1.0, 2.0]))

    @pytest.mark.parametrize("kind", ["standard_normal", "random"])
    @pytest.mark.parametrize("seed", [2**40 + 3, 2**70])  # one-word seeds: tests/test_engine.py
    def test_stream_draws_match_per_trial_generators(self, kind, seed):
        expected = [getattr(derived_rng(seed, SCORE_STREAM, 2, t), kind)(7) for t in range(25)]
        assert np.array_equal(stream_draws(seed, (SCORE_STREAM, 2), 25, 7, kind=kind), expected)

    @pytest.mark.parametrize("kind", ["standard_normal", "random"])
    def test_stream_draws_broadcast_array_key_entries(self, kind):
        """A 2-D key entry gives, at each of its indices, the draws of ``derived_rng(seed, *key at that index, t)``."""
        entry = np.array([[0, 7], [3, 10], [4, 11]])
        draws = stream_draws(19, (SCORE_STREAM, entry[..., None]), 6, 5, kind=kind)  # a trailing axis for the trials
        assert draws.shape == (3, 2, 6, 5)
        for index in np.ndindex(entry.shape):
            expected = [getattr(derived_rng(19, SCORE_STREAM, entry[index], t), kind)(5) for t in range(6)]
            assert np.array_equal(draws[index], expected)
        bins = np.arange(4)[:, None]  # exp3's form: one block of trials per bin
        assert np.array_equal(stream_draws(19, (SCORE_STREAM, bins), 6, 5, kind=kind)[3], draws[1, 0])


def generator_picks(keys, n):
    """The reference for :func:`seeded_picks`: each row's ``Generator(Philox(key=...)).integers(n)`` calls in order."""
    picks = np.zeros(np.shape(n), dtype=np.int64)
    generators = [np.random.Generator(np.random.Philox(key=key)) for key in keys]
    for c, r in np.argwhere(np.asarray(n) > 1).tolist():  # checkpoint-major: each row's calls in checkpoint order
        picks[c, r] = generators[r].integers(int(n[c][r]))
    return picks, generators


def draws_used(rng):
    """How many 32-bit draws a fresh Philox generator has made: two per 64-bit word, less a held high half."""
    state = rng.bit_generator.state
    words = 4 * (int(state["state"]["counter"][0]) - 1) + state["buffer_pos"]
    return 2 * words - state["has_uint32"]


_PICK_BOUND = st.integers(0, 1) | st.integers(2, 9) | st.integers(2, 2**32 - 1)  # 0 and 1: no pick


@st.composite
def pick_cases(draw):
    """Keys of 1-6 rows, and per checkpoint and row the bound of its pick, with rows that pick at only some checkpoints."""
    rows = draw(st.integers(1, 6))
    checkpoints = draw(st.integers(1, 16))
    keys = np.array(draw(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)), min_size=rows, max_size=rows)), dtype=np.uint64)
    n = draw(st.lists(st.lists(_PICK_BOUND, min_size=rows, max_size=rows), min_size=checkpoints, max_size=checkpoints))
    return keys, np.array(n, dtype=np.int64)


class TestSeededPicks:
    @settings(max_examples=300, deadline=None)
    @given(pick_cases())
    def test_equal_generator_integers(self, case):
        keys, n = case
        assert np.array_equal(seeded_picks(keys, n), generator_picks(keys, n)[0])

    def test_rejections_and_later_blocks(self):
        """At n = 3 * 2**30 a draw is rejected a quarter of the time, so rows draw past their second 8-draw block."""
        keys = stream_keys(11, PICK_STREAM, np.arange(300))
        n = np.full((12, 300), 3 * 2**30)
        n[::3, ::2] = 0  # even rows skip every third checkpoint
        expected, generators = generator_picks(keys, n)
        used = np.array([draws_used(rng) for rng in generators])
        assert used.max() > 16 and (used > (n > 1).sum(axis=0)).any()
        assert np.array_equal(seeded_picks(keys, n), expected)

    def test_no_picks(self):
        keys = stream_keys(0, np.arange(3))
        assert np.array_equal(seeded_picks(keys, np.ones((2, 3), dtype=np.int64)), np.zeros((2, 3)))
