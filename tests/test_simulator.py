import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attrfuse.catalog import ObjectCatalog, compute_stats
from attrfuse.classifier import single_threshold_baseline
from attrfuse.simulator import (
    CALIBRATION_STREAM,
    PICK_STREAM,
    SCORE_STREAM,
    CalibrationConfig,
    Scenario,
    ScenarioError,
    ScoreModel,
    TrainingBias,
    calibrate_scenario,
    classify_scores,
    decide_episodes,
    derived_rng,
    draw_scores,
    generate_training_set,
    load_scenario,
    stream_draws,
    stream_keys,
)


def tiny_catalog():
    return ObjectCatalog(
        objects=("left", "right"),
        attributes=("low-score", "high-score"),
        matrix=np.array([[1, 0], [0, 1]]),
        priors=np.array([0.5, 0.5]),
    )


def tiny_scenario(pos_mean=0.0, neg_mean=100.0, std=0.5, seed=5, n_per_object=25, **kwargs):
    catalog = tiny_catalog()
    score_models = {}
    for i in range(2):
        score_models[(i, "pos", 0)] = ScoreModel("gaussian", pos_mean, std)
        score_models[(i, "neg", 0)] = ScoreModel("gaussian", neg_mean, std)
    return Scenario(
        catalog=catalog,
        bins=((60.0, 140.0),),
        score_models=score_models,
        seed=seed,
        schedule=((0, 2),),
        calibration=CalibrationConfig(n_pos_per_object=n_per_object, n_neg_per_object=n_per_object),
        **kwargs,
    )


def episodes(scenario, models, truths, schedule, seed, key=()):
    """One engine episode per ground truth in ``truths``: codes, winners and random-pick flags.

    Each scheduled round observes every modeled attribute once. Trial ``t``
    draws from stream ``(seed, SCORE_STREAM, *key, t)`` and picks ties from
    ``(seed, PICK_STREAM, *key, t)``.
    """
    columns = [(i, k) for k, rounds in schedule for _ in range(rounds) for i in sorted(models)]
    attrs, bins = [i for i, _ in columns], [k for _, k in columns]
    z = stream_draws(seed, (SCORE_STREAM, *key), len(truths), len(columns))
    codes, keys = classify_scores(models, attrs, bins, draw_scores(scenario, np.asarray(truths), attrs, bins, z))
    winners, random = decide_episodes(
        codes, keys, scenario.catalog, compute_stats(scenario.catalog), [len(columns)],
        lambda r: derived_rng(seed, PICK_STREAM, *key, r),
    )
    return codes, winners[0], random[0]


class TestScenarioValidation:
    def test_shipped_scenarios_load(self, exp1_scenario, exp2_scenario, exp3_scenario):
        assert exp1_scenario.n_bins == 4
        assert exp2_scenario.n_bins == 1
        assert exp3_scenario.n_bins == 5
        assert exp3_scenario.families.keys() == {"fine", "coarse", "color"}
        assert exp1_scenario.sha256 and len(exp1_scenario.sha256) == 64
        # each exp2 object is uniquely identified by one positive attribute
        assert np.array_equal(exp2_scenario.catalog.matrix, np.eye(5, dtype=int))

    def test_noncontiguous_bins_rejected(self):
        catalog = tiny_catalog()
        sm = {(i, t, k): ScoreModel("gaussian", 0, 1) for i in range(2) for t in ("pos", "neg") for k in range(2)}
        with pytest.raises(ScenarioError):
            Scenario(catalog=catalog, bins=((0.0, 10.0), (11.0, 20.0)), score_models=sm, seed=1)

    def test_missing_score_model_rejected(self):
        catalog = tiny_catalog()
        sm = {(0, "pos", 0): ScoreModel("gaussian", 0, 1)}
        with pytest.raises(ScenarioError):
            Scenario(catalog=catalog, bins=((0.0, 10.0),), score_models=sm, seed=1)

    def test_bad_stddev_rejected(self):
        with pytest.raises(ScenarioError):
            ScoreModel("gaussian", 0.0, 0.0)

    @pytest.mark.parametrize("drop", ["seed", "catalog", "bins", "score_models", "mean", "std"])
    def test_missing_key_names_file_and_key(self, tmp_path, repo_root, drop):
        import json

        raw = json.loads((repo_root / "scenarios" / "exp2.json").read_text())
        raw["catalog"] = str(repo_root / "catalogs" / "exp2.json")
        if drop in ("mean", "std"):
            first_attribute = next(iter(raw["score_models"].values()))
            del first_attribute["pos"][0][drop]
        else:
            del raw[drop]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ScenarioError, match=f"{path}.*'{drop}'"):
            load_scenario(path)


    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, "seed", "abc"),
            ("calibration", "n_pos_per_object", "many"),
            ("calibration", "target_ppv", [0.9]),
            ("training_bias", "pos_mean_shift", "up"),
            (None, "schedule", [[0, "three"]]),
            (None, "calibration", "strict"),
            # values that would otherwise be coerced: integer keys take JSON integers only,
            # number keys finite JSON numbers only, and the orientation one of its two names
            (None, "seed", 3.7),
            ("calibration", "n_pos_per_object", "25"),
            ("calibration", "n_neg_per_object", True),
            (None, "schedule", [[0, 8.0]]),
            ("calibration", "target_ppv", "0.96"),
            ("training_bias", "pos_std_scale", True),
            ("training_bias", "neg_mean_shift", float("nan")),
            pytest.param("training_bias", "pos_std_scale", 10**400, id="training_bias-pos_std_scale-huge"),
            (None, "bins", [[100, "120"]]),
            (None, "orientation", "sideways"),
        ],
    )
    def test_unparsable_value_names_file_and_key(self, tmp_path, repo_root, section, key, value):
        import json

        raw = json.loads((repo_root / "scenarios" / "exp2.json").read_text())
        raw["catalog"] = str(repo_root / "catalogs" / "exp2.json")
        (raw if section is None else raw.setdefault(section, {}))[key] = value
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ScenarioError, match=f"{path}.*'{key}'"):
            load_scenario(path)


    @pytest.mark.parametrize(
        "key, value",
        [
            ("families", ["fine"]),
            ("families", {"fine": ["no such attribute"]}),
            ("kde_attribute", "no such attribute"),
        ],
    )
    def test_family_and_kde_attribute_name_file_and_key(self, tmp_path, repo_root, key, value):
        raw = json.loads((repo_root / "scenarios" / "exp3.json").read_text())
        raw["catalog"] = str(repo_root / "catalogs" / "table1.json")
        raw[key] = value
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ScenarioError, match=f"{path}.*'{key}'"):
            load_scenario(path)


# entropy ints of one 32-bit word and of several, as SeedSequence splits them
_ENTROPY = st.integers(0, 2**32 - 1) | st.integers(2**32, 2**100)


class TestStreamKeys:
    @settings(max_examples=300, deadline=None)
    @given(seed=_ENTROPY, key=st.lists(_ENTROPY, max_size=5), trials=st.integers(0, 40))
    @example(seed=7, key=[PICK_STREAM, 3], trials=12)  # exp3's pick keys: four words
    @example(seed=7, key=[SCORE_STREAM, 2], trials=12)  # exp3's score keys: four words
    @example(seed=2**32 + 7, key=[SCORE_STREAM, 2], trials=12)  # a two-word seed: five words
    @example(seed=0, key=[], trials=3)  # fewer words than the pool
    def test_matches_seed_sequence(self, seed, key, trials):
        expected = [np.random.SeedSequence([seed, *key, t]).generate_state(2, np.uint64) for t in range(trials)]
        keys = stream_keys(seed, key, trials)
        assert keys.dtype == np.uint64 and keys.shape == (trials, 2)
        assert np.array_equal(keys, np.reshape(expected, (trials, 2)))

    @pytest.mark.parametrize("seed, key", [(-1, (SCORE_STREAM,)), (3, (PICK_STREAM, -2))])
    def test_negative_entropy_rejected(self, seed, key):
        with pytest.raises(ValueError, match="non-negative"):
            stream_keys(seed, key, 4)

    @pytest.mark.parametrize("kind", ["standard_normal", "random"])
    @pytest.mark.parametrize("seed", [2**40 + 3, 2**70])  # one-word seeds: tests/test_engine.py
    def test_stream_draws_match_per_trial_generators(self, kind, seed):
        expected = [getattr(derived_rng(seed, SCORE_STREAM, 2, t), kind)(7) for t in range(25)]
        assert np.array_equal(stream_draws(seed, (SCORE_STREAM, 2), 25, 7, kind=kind), expected)


class TestSampling:
    def test_trial_scores_depend_only_on_their_stream(self):
        scn = tiny_scenario()
        few, many = (stream_draws(scn.seed, (SCORE_STREAM,), trials, 3) for trials in (4, 10))
        assert np.array_equal(few, many[:4])
        scores = [draw_scores(scn, np.array([0]), [0, 1, 0], [0, 0, 0], z[3:4]) for z in (few, many)]
        assert np.array_equal(*scores)

    def test_degenerate_stddev(self):
        scn = tiny_scenario(std=1e-9)
        score = draw_scores(scn, np.array([0]), [0], [0], derived_rng(1, 0).standard_normal((1, 1)))
        assert abs(score[0, 0] - 0.0) < 1e-6

    def test_law_of_large_numbers(self):
        scn = tiny_scenario(pos_mean=3.0, std=2.0)
        n = 100_000
        z = derived_rng(scn.seed, SCORE_STREAM, 0).standard_normal((n, 1))
        draws = draw_scores(scn, np.zeros(n, dtype=int), [0], [0], z)  # object 0 has attribute 0
        assert abs(draws.mean() - 3.0) < 3 * 2.0 / np.sqrt(n)

    def test_missing_triple(self):
        scn = tiny_scenario()
        with pytest.raises(ScenarioError):
            generate_training_set(scn, 0, 3, 5, 5, derived_rng(1, 0))


class TestTrainingSets:
    def test_counts_and_determinism(self):
        scn = tiny_scenario()
        pos1, neg1 = generate_training_set(scn, 0, 0, 20, 80, derived_rng(9, 0))
        pos2, neg2 = generate_training_set(scn, 0, 0, 20, 80, derived_rng(9, 0))
        assert pos1.shape == (20,) and neg1.shape == (80,)
        assert np.array_equal(pos1, pos2) and np.array_equal(neg1, neg2)
        pos3, _ = generate_training_set(scn, 0, 0, 20, 80, derived_rng(10, 0))
        assert not np.array_equal(pos1, pos3)

    def test_zero_count_rejected(self):
        scn = tiny_scenario()
        with pytest.raises(ScenarioError):
            generate_training_set(scn, 0, 0, 0, 10, derived_rng(1, 0))

    def test_default_per_object_training_count(self):
        assert CalibrationConfig().n_pos_per_object == 20

    def test_bias_shifts_training_draws(self):
        scn = tiny_scenario(training_bias=TrainingBias(neg_mean_shift=-30.0, neg_std_scale=0.5))
        _, neg = generate_training_set(scn, 0, 0, 10, 4000, derived_rng(2, 0))
        assert abs(neg.mean() - 70.0) < 1.0
        assert abs(neg.std() - 0.25) < 0.05


class TestEpisodes:
    def test_zero_schedule_gives_prior_tie(self):
        scn = tiny_scenario()
        codes, _, random = episodes(scn, calibrate_scenario(scn), [0], [], 1)
        assert codes.shape == (1, 0)
        assert random.tolist() == [True]  # both objects tie at their equal priors

    def test_separable_scenario_always_correct(self):
        scn = tiny_scenario()
        truths = np.arange(50) % 2
        _, winners, _ = episodes(scn, calibrate_scenario(scn), truths, scn.schedule, scn.seed)
        assert np.flatnonzero(winners != truths).tolist() == []

    def test_unknown_bin_rejected(self):
        scn = tiny_scenario()
        with pytest.raises(ScenarioError):
            dataclasses.replace(scn, schedule=((4, 1),))
        with pytest.raises(ValueError, match="unknown bin index 4"):
            classify_scores(calibrate_scenario(scn), [0], [4], np.zeros((1, 1)))

    def test_bit_identical_records(self):
        scn = tiny_scenario()
        models = calibrate_scenario(scn)
        first, second = (episodes(scn, models, np.arange(5) % 2, scn.schedule, scn.seed) for _ in range(2))
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()

    def test_trial_streams_differ(self):
        a = derived_rng(7, SCORE_STREAM, 0).normal(size=4)
        b = derived_rng(7, SCORE_STREAM, 1).normal(size=4)
        c = derived_rng(7, CALIBRATION_STREAM).normal(size=4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


def test_accuracy_improves_with_more_observations():
    """Under class overlap, fused accuracy at K=50 beats accuracy at K=5.

    Calibration counts are large enough that the counted predictive values
    stay below 1, keeping the update factors consistent with the actual
    false rates; claimed-perfect classifiers would instead accumulate
    saturating errors as observations grow.
    """
    scn = tiny_scenario(pos_mean=10.0, neg_mean=16.0, std=3.0, seed=21, n_per_object=120)
    models = calibrate_scenario(scn)
    assert all(models[i].calibrations[0].reliable for i in range(2))
    assert all(models[i].calibrations[0].ppv < 1.0 for i in range(2))
    n_episodes = 500
    truths = np.arange(n_episodes) % 2
    correct = {}
    for rounds in (5, 50):
        _, winners, _ = episodes(scn, models, truths, [(0, rounds)], scn.seed, (rounds,))
        correct[rounds] = int((winners == truths).sum())
    assert correct[50] >= correct[5]
    assert correct[50] >= int(0.95 * n_episodes)


def test_widening_overlap_accuracy_monotone(exp1_scenario):
    """Per-bin single-observation accuracy never rises with distance (3-sigma margin)."""
    scn = exp1_scenario
    i = scn.kde_attribute
    n = 10_000
    accuracy = []
    for k in range(scn.n_bins):
        rng = derived_rng(scn.seed, SCORE_STREAM, k, 999)
        pos = rng.normal(scn.score_models[(i, "pos", k)].mean, scn.score_models[(i, "pos", k)].stddev, n)
        neg = rng.normal(scn.score_models[(i, "neg", k)].mean, scn.score_models[(i, "neg", k)].stddev, n)
        theta = single_threshold_baseline(pos, neg)
        acc = 0.5 * np.mean(pos <= theta) + 0.5 * np.mean(neg > theta)
        accuracy.append(float(acc))
    sigma = [np.sqrt(a * (1 - a) / (2 * n)) for a in accuracy]
    for k in range(len(accuracy) - 1):
        margin = 3 * np.sqrt(sigma[k] ** 2 + sigma[k + 1] ** 2)
        assert accuracy[k + 1] <= accuracy[k] + margin
    assert accuracy[-1] < accuracy[0]
