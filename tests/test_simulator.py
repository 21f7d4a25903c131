import dataclasses
import itertools
import json
import math
import re
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrfuse.catalog import ObjectCatalog, compute_stats
from attrfuse.classifier import single_threshold_calibrations
from attrfuse.simulator import (
    CalibrationConfig,
    Scenario,
    ScenarioError,
    ScoreModel,
    TrainingBias,
    _class_scores,
    calibrate_scenario,
    classify_scores,
    draw_scores,
    draw_training_sets,
    load_scenario,
)
from attrfuse.streams import CALIBRATION_STREAM, PICK_STREAM, SCORE_STREAM, derived_rng, uniform_picks

from json_mutations import mutated
from oracles import decide_codes, pair_record, reference_class_scores, reference_training_sets

REPO_ROOT = Path(__file__).resolve().parents[1]
# the exp3 scenario with its catalog path made absolute, so that a copy loads from any directory
EXP3 = json.loads((REPO_ROOT / "scenarios" / "exp3.json").read_text())
EXP3["catalog"] = str(REPO_ROOT / "catalogs" / "table1.json")


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
    draws row ``t`` of the stream ``(seed, SCORE_STREAM, *key)`` and picks
    ties with row ``t`` of ``(seed, PICK_STREAM, *key)``.
    """
    columns = [(i, k) for k, rounds in schedule for _ in range(rounds) for i in sorted(models)]
    attrs, bins = [i for i, _ in columns], [k for _, k in columns]
    z = derived_rng(seed, SCORE_STREAM, *key).standard_normal((len(truths), len(columns)))
    codes, keys = classify_scores(models, attrs, bins, draw_scores(scenario, np.asarray(truths), attrs, bins, z))
    episodes = decide_codes(
        codes, keys, scenario.catalog, compute_stats(scenario.catalog), [len(columns)],
        uniform_picks(derived_rng(seed, PICK_STREAM, *key).random((len(truths), 1))),
    )
    return codes, episodes.winners[0], episodes.random[0]


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
            # values that parse but that calibration or the scenario cannot use
            ("calibration", "target_ppv", 1.5),
            ("calibration", "target_npv", 0),
            ("calibration", "min_detection_rate", 2),
            ("calibration", "n_pos_per_object", 0),
            ("calibration", "n_neg_per_object", -3),
            (None, "bins", [[120, 100]]),
            ("score_models", "std", 0),
            pytest.param(None, "score_models", {"nope": {}}, id="score_models-unknown-attribute"),
            (None, "schedule", [[9, 1]]),
            (None, "schedule", [[0, -4]]),
            (None, "schedule", [[0, 0]]),
            (None, "seed", -1),
            ("training_bias", "pos_std_scale", -1),
            ("training_bias", "neg_std_scale", -0.5),
            # values that were coerced, and a catalog path no OS opens
            ("score_models", "family", 5),
            pytest.param("score_models", "mean", 10**400, id="score_models-mean-huge"),
            pytest.param(None, "catalog", "no\0such catalog.json", id="catalog-nul-byte"),
        ],
    )
    def test_unparsable_value_names_file_and_key(self, tmp_path, repo_root, section, key, value):
        import json

        raw = json.loads((repo_root / "scenarios" / "exp2.json").read_text())
        raw["catalog"] = str(repo_root / "catalogs" / "exp2.json")
        if section == "score_models":
            next(iter(raw["score_models"].values()))["pos"][0][key] = value
        else:
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
            pytest.param("families", {"fine": "ab"}, id="families-string"),
            pytest.param("kde_attribute", ["bottle shape"], id="kde_attribute-list"),
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

    @pytest.mark.parametrize("truth", ["pos", "neg"])
    @pytest.mark.parametrize("value", ["x", {"mean": 10.0, "std": 2.0}, None])
    def test_score_model_list_names_its_key(self, tmp_path, repo_root, truth, value):
        """A score model's ``pos``/``neg`` value that is not a list is rejected under its own key."""
        raw = json.loads((repo_root / "scenarios" / "exp2.json").read_text())
        raw["catalog"] = str(repo_root / "catalogs" / "exp2.json")
        attribute, per_truth = next(iter(raw["score_models"].items()))
        per_truth[truth] = value
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(raw))
        message = f"{path}: score model for {attribute!r}: key '{truth}' must be a list of length 1, got {value!r}"
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            load_scenario(path)

    @settings(max_examples=200, deadline=None)
    @given(raw=mutated(EXP3))
    def test_loader_fuzz(self, raw):
        """A one-value mutation of a shipped scenario loads, or raises a ScenarioError naming the file."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scenario.json"
            path.write_text(json.dumps(raw))
            try:
                load_scenario(path)
            except ScenarioError as exc:
                assert str(exc).startswith(f"{path}: "), exc


class TestSampling:
    def test_trial_scores_depend_only_on_their_stream(self):
        """Trial ``t``'s row of a run's block does not depend on how many trials the run has."""
        scn = tiny_scenario()
        few, many = (derived_rng(scn.seed, SCORE_STREAM).standard_normal((trials, 3)) for trials in (4, 10))
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


class TestTrainingSets:
    @staticmethod
    def sized(scenario, n_pos_per_object, n_neg_per_object):
        calibration = CalibrationConfig(n_pos_per_object=n_pos_per_object, n_neg_per_object=n_neg_per_object)
        return dataclasses.replace(scenario, calibration=calibration)

    def test_counts_and_determinism(self):
        scn = self.sized(tiny_scenario(), 20, 80)
        sets = draw_training_sets(scn, derived_rng(9, 0))
        again = draw_training_sets(scn, derived_rng(9, 0))
        assert sorted(sets) == [(0, 0), (1, 0)]
        assert all(pos.shape == (20,) and neg.shape == (80,) for pos, neg in sets.values())
        assert all(np.array_equal(a, b) for key in sets for a, b in zip(sets[key], again[key]))
        pos3, _ = draw_training_sets(scn, derived_rng(10, 0))[(0, 0)]
        assert not np.array_equal(sets[(0, 0)][0], pos3)

    def test_default_per_object_training_count(self):
        assert CalibrationConfig().n_pos_per_object == 20

    # numpy's Generator.normal rejects a scale of -0.0 ("scale < 0"), which the scenario loader accepts; scaling the
    # standard draws takes it as 0
    @pytest.mark.parametrize("scale", [0, -0.0])
    def test_zero_spread_scale_draws_at_the_mean(self, tmp_path, repo_root, scale):
        raw = json.loads((repo_root / "scenarios" / "exp2.json").read_text())
        raw["catalog"] = str(repo_root / "catalogs" / "exp2.json")
        raw["training_bias"] = {"pos_mean_shift": -1.0, "pos_std_scale": scale}
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(raw))
        scn = load_scenario(path)
        pos, _ = draw_training_sets(scn, derived_rng(2, 0))[(0, 0)]
        assert pos.size > 0 and pos.tolist() == [scn.score_models[(0, "pos", 0)].mean - 1.0] * pos.size

    @staticmethod
    def mixed_scenario(score_models, bins, n_per_object=(5, 5), bias=TrainingBias()):
        """A three-object scenario whose attributes 0 and 1 are mixed; attribute 2, on every object, gets no sets."""
        catalog = ObjectCatalog(
            objects=("a", "b", "c"),
            attributes=("x", "y", "z"),
            matrix=np.array([[1, 0, 1], [0, 1, 1], [1, 0, 1]]),
            priors=np.full(3, 1 / 3),
        )
        return Scenario(
            catalog=catalog,
            bins=tuple((10.0 * k, 10.0 * (k + 1)) for k in range(bins)),
            score_models={key: score_models(*key) for key in itertools.product(range(3), ("pos", "neg"), range(bins))},
            seed=0,
            calibration=CalibrationConfig(n_pos_per_object=n_per_object[0], n_neg_per_object=n_per_object[1]),
            training_bias=bias,
        )

    @staticmethod
    def assert_draws_equal(draw, reference, seed):
        """``draw`` and ``reference``, each given a fresh generator of stream ``(seed, CALIBRATION_STREAM)``, return
        the same sets bit for bit, or raise the same ScenarioError."""
        try:
            expected = reference(derived_rng(seed, CALIBRATION_STREAM))
        except ScenarioError as exc:
            with pytest.raises(ScenarioError) as raised:
                draw(derived_rng(seed, CALIBRATION_STREAM))
            assert str(raised.value) == str(exc)
            return
        sets = draw(derived_rng(seed, CALIBRATION_STREAM))
        assert list(sets) == list(expected)
        for key, pair in expected.items():
            assert [a.view(np.int64).tolist() for a in sets[key]] == [a.view(np.int64).tolist() for a in pair]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_draw_equals_the_per_class_loop(self, data):
        """The one standard-normal call, scaled class by class, against a ``Generator.normal`` call per class, on
        both paths: the training sets with their bias, and exp1's one set per call without one. Means may be -0.0,
        spread scales 0 and shifts negative; one spread of 1e308 can overflow, and then both raise."""
        bins = data.draw(st.integers(1, 3), label="bins")
        n_pos, n_neg = data.draw(st.tuples(st.integers(1, 30), st.integers(1, 30)), label="per object")
        means = st.floats(-1e3, 1e3) | st.just(-0.0)
        models = st.builds(ScoreModel, st.just("gaussian"), means, st.floats(1e-3, 1e3) | st.just(math.ulp(0.0)))
        drawn = {key: data.draw(models) for key in itertools.product(range(3), ("pos", "neg"), range(bins))}
        if huge := data.draw(st.none() | st.sampled_from(sorted(drawn)), label="1e308 spread"):
            drawn[huge] = ScoreModel("gaussian", drawn[huge].mean, 1e308)
        shifts, scales = st.floats(-50, 50) | st.just(-0.0), st.sampled_from([0.0, 1.0]) | st.floats(0, 10)
        bias = data.draw(st.builds(TrainingBias, shifts, shifts, scales, scales), label="bias")
        scn = self.mixed_scenario(lambda *key: drawn[key], bins, (n_pos, n_neg), bias)
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        self.assert_draws_equal(partial(draw_training_sets, scn), partial(reference_training_sets, scn), seed)
        k = data.draw(st.integers(0, bins - 1), label="exp1 bin")
        self.assert_draws_equal(
            lambda rng: dict(enumerate(_class_scores(scn, [(0, k, n_pos, n_neg)], rng))),
            lambda rng: {0: reference_class_scores(scn, 0, k, n_pos, n_neg, rng)},
            seed,
        )

    def test_unbiased_draw_keeps_a_negative_zero_mean(self):
        """exp1's sampler adds no shift: a -0.0 mean stays -0.0 where the scaled draw underflows to -0.0."""
        scn = self.mixed_scenario(lambda *_: ScoreModel("gaussian", -0.0, math.ulp(0.0)), 1)
        pos, neg = _class_scores(scn, [(0, 0, 100, 100)], derived_rng(3, CALIBRATION_STREAM))[0]
        ref_pos, ref_neg = reference_class_scores(scn, 0, 0, 100, 100, derived_rng(3, CALIBRATION_STREAM))
        assert np.signbit(pos[pos == 0]).any()  # -0.0 + -0.0; a shift of 0.0 would have made it 0.0
        assert pos.view(np.int64).tolist() == ref_pos.view(np.int64).tolist()
        assert neg.view(np.int64).tolist() == ref_neg.view(np.int64).tolist()

    def test_first_draw_that_is_not_finite_is_named(self):
        """Every set is drawn before any is checked, and the error names the first class in draw order that is
        not finite, as the per-class loop does."""
        huge = ScoreModel("gaussian", 1.7e308, 1e308)
        scn = self.mixed_scenario(lambda i, truth, k: huge if (i, k) == (1, 1) else ScoreModel("gaussian", 0.0, 1.0), 2)
        message = "key 'score_models': score model for attribute 'y', truth 'pos', bin 1 draws training scores that are not finite"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            draw_training_sets(scn, derived_rng(0, CALIBRATION_STREAM))
        self.assert_draws_equal(partial(draw_training_sets, scn), partial(reference_training_sets, scn), 0)

    def test_bias_shifts_training_draws(self):
        scn = tiny_scenario(training_bias=TrainingBias(neg_mean_shift=-30.0, neg_std_scale=0.5))
        _, neg = draw_training_sets(self.sized(scn, 10, 4000), derived_rng(2, 0))[(0, 0)]
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
        # the first unknown pair in column order is named, not the smallest
        with pytest.raises(ValueError, match="unknown bin index 9$"):
            classify_scores(calibrate_scenario(scn), [0, 0, 0], [0, 9, -7], np.zeros((1, 3)))

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
        theta = pair_record(single_threshold_calibrations, pos, neg).theta_pos
        acc = 0.5 * np.mean(pos <= theta) + 0.5 * np.mean(neg > theta)
        accuracy.append(float(acc))
    sigma = [np.sqrt(a * (1 - a) / (2 * n)) for a in accuracy]
    for k in range(len(accuracy) - 1):
        margin = 3 * np.sqrt(sigma[k] ** 2 + sigma[k + 1] ** 2)
        assert accuracy[k + 1] <= accuracy[k] + margin
    assert accuracy[-1] < accuracy[0]
