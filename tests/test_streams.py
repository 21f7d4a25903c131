"""The seeded streams: one generator per key, and the tie-pick rule ``⌊u·n⌋`` on a uniform ``u``."""
import numpy as np
import pytest

from attrfuse.streams import CALIBRATION_STREAM, CASE_STREAM, PICK_STREAM, SCORE_STREAM, derived_rng, uniform_picks

GRID = 2520  # divisible by every option count from 1 to 10


def test_a_key_reproduces_its_stream():
    """``derived_rng(s, *key)`` is Philox on ``SeedSequence([s, *key])``, and the same key gives the same draws."""
    reference = np.random.Generator(np.random.Philox(np.random.SeedSequence([11, SCORE_STREAM, 2])))
    first, again = derived_rng(11, SCORE_STREAM, 2).random(64), derived_rng(11, SCORE_STREAM, 2).random(64)
    assert first.tobytes() == again.tobytes() == reference.random(64).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2**40])
def test_each_harness_key_has_its_own_stream(seed):
    """The keys of the key table's harnesses give distinct streams at one seed (a key whose last entries are 0 hashes
    as the shorter key, so exp2's ``(s, SCORE_STREAM)`` and exp3's bin 0 share one: each harness's keys differ)."""
    exp2 = [(CALIBRATION_STREAM,), (SCORE_STREAM,), (PICK_STREAM,)]
    exp3 = [(CALIBRATION_STREAM,)] + [(purpose, k) for purpose in (SCORE_STREAM, PICK_STREAM) for k in range(5)]
    theorems = [(SCORE_STREAM,), (PICK_STREAM,), (CASE_STREAM,)]
    for keys in (exp2, exp3, theorems):
        assert len({derived_rng(seed, *key).random(4).tobytes() for key in keys}) == len(keys)


@pytest.mark.parametrize("n", range(1, 11))
def test_picks_split_a_uniform_grid_evenly(n):
    """On the midpoints of ``GRID`` equal cells of [0, 1), each of ``n`` options is picked ``GRID / n`` times."""
    u = (np.arange(GRID) + 0.5) / GRID
    picks = uniform_picks(u[:, None])(np.arange(GRID), np.full((1, GRID), n))
    assert picks.shape == (1, GRID) and picks.min() >= 0
    assert np.bincount(picks[0], minlength=n).tolist() == [GRID // n] * n


def test_picks_stay_below_the_option_count_at_the_largest_uniform():
    u = np.array([[np.nextafter(1.0, 0.0)]])
    assert uniform_picks(u)(np.array([0]), np.array([[n] for n in range(1, 50)])).ravel().tolist() == list(range(49))


def test_picks_read_the_asked_rows_checkpoint_by_checkpoint():
    """Row ``r``'s pick at checkpoint ``c`` reads ``u[r, c]``; an option count of 1 picks 0."""
    u = np.array([[0.1, 0.9], [0.5, 0.7], [0.99, 0.2]])
    picks = uniform_picks(u)(np.array([2, 0]), np.array([[3, 4], [1, 10]]))
    assert picks.tolist() == [[2, 0], [0, 9]]
