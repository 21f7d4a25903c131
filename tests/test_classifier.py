import dataclasses
import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attrfuse import classifier
from attrfuse.catalog import ObjectCatalog
from attrfuse.classifier import (
    DEFAULT_MIN_DETECTION_RATE,
    DEFAULT_TARGET_NPV,
    DEFAULT_TARGET_PPV,
    BinCalibration,
    CalibrationError,
    ModelFileError,
    ClassifierModel,
    calibrate_bins,
    classify_scores,
    load_models,
    save_models,
    single_threshold_calibrations,
)
from attrfuse.simulator import calibrate_from_sets, calibrate_scenario, draw_training_sets
from attrfuse.streams import derived_rng

from json_mutations import mutated
from oracles import bayes_threshold_oracle, calibrate_oracle, count_rates, reference_calibrate_bin, reference_models_text
from oracles import pair_record, reference_single_threshold

scores = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)
score_lists = st.lists(scores, min_size=1, max_size=30)


def test_default_calibration_targets():
    assert DEFAULT_TARGET_PPV == 0.96
    assert DEFAULT_TARGET_NPV == 0.96
    assert DEFAULT_MIN_DETECTION_RATE == 0.09


class TestCalibrateBin:
    def test_separated_sample(self):
        cal = pair_record(calibrate_bins, [1, 2, 3], [10, 11, 12], target_ppv=1.0, target_npv=0.96, min_detection_rate=0.5)
        assert cal.theta_pos == 6.5
        assert cal.ppv == 1.0
        assert cal.detection_rate == 1.0
        assert cal.reliable

    def test_total_overlap_unreliable(self):
        cal = pair_record(calibrate_bins, [5, 5, 5], [5, 5, 5])
        assert not cal.reliable
        assert cal.theta_pos is None and cal.theta_neg is None

    def test_empty_sample_rejected(self):
        with pytest.raises(CalibrationError):
            pair_record(calibrate_bins, [], [1.0])
        with pytest.raises(CalibrationError):
            pair_record(calibrate_bins, [1.0], [])

    @pytest.mark.parametrize("pos, neg", [([1, float("nan"), 2], [5, 6, 7]), ([1, 2], [5, 6, float("inf")])])
    def test_nonfinite_sample_rejected(self, pos, neg):
        with pytest.raises(CalibrationError):
            pair_record(calibrate_bins, pos, neg)
        with pytest.raises(CalibrationError):
            pair_record(single_threshold_calibrations, pos, neg)

    def test_bad_targets_rejected(self):
        with pytest.raises(CalibrationError):
            pair_record(calibrate_bins, [1], [2], target_ppv=0.0)
        with pytest.raises(CalibrationError):
            pair_record(calibrate_bins, [1], [2], min_detection_rate=1.5)

    def test_separated_large_sample_stays_reliable(self):
        # the unconstrained positive sweep would walk past the negative one
        # inside the gap; the cap keeps the pair ordered and qualifying
        rng = np.random.default_rng(0)
        pos = rng.normal(0.0, 1.0, size=200)
        neg = rng.normal(20.0, 1.0, size=300)
        cal = pair_record(calibrate_bins, pos, neg)
        assert cal.reliable
        assert cal.theta_pos <= cal.theta_neg
        assert cal.ppv >= 0.96 and cal.detection_rate >= 0.09
        assert cal.npv >= 0.96 and cal.true_negative_rate >= 0.09
        assert cal.false_positive_rate == 0.0

    @given(score_lists, score_lists,
           st.floats(min_value=0.5, max_value=1.0),
           st.floats(min_value=0.5, max_value=1.0),
           st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=80, deadline=None)
    def test_matches_loop_oracle(self, pos, neg, tp, tn, floor):
        cal = pair_record(calibrate_bins, pos, neg, target_ppv=tp, target_npv=tn, min_detection_rate=floor)
        o_pos, o_neg, o_rel = calibrate_oracle(pos, neg, target_ppv=tp, target_npv=tn, min_detection_rate=floor)
        assert cal.reliable == o_rel
        assert cal.theta_pos == o_pos
        assert cal.theta_neg == o_neg

    @given(score_lists, score_lists,
           st.floats(min_value=0.5, max_value=0.9),
           st.floats(min_value=0.0, max_value=0.4))
    @settings(max_examples=60, deadline=None)
    def test_monotone_safety(self, pos, neg, target, delta):
        loose = pair_record(calibrate_bins, pos, neg, target_ppv=target, min_detection_rate=0.05)
        tight = pair_record(calibrate_bins, pos, neg, target_ppv=min(1.0, target + delta), min_detection_rate=0.05)
        if tight.theta_pos is not None:
            assert loose.theta_pos is not None
            assert tight.theta_pos <= loose.theta_pos

    @given(score_lists, score_lists)
    @settings(max_examples=60, deadline=None)
    def test_rates_partition_sample(self, pos, neg):
        cal = pair_record(calibrate_bins, pos, neg)
        if not cal.reliable:
            return
        pos = np.asarray(pos, float)
        neg = np.asarray(neg, float)
        unc_pos = np.mean((pos > cal.theta_pos) & (pos < cal.theta_neg))
        unc_neg = np.mean((neg > cal.theta_pos) & (neg < cal.theta_neg))
        assert cal.detection_rate + cal.false_negative_rate + unc_pos == pytest.approx(1.0, abs=1e-12)
        assert cal.true_negative_rate + cal.false_positive_rate + unc_neg == pytest.approx(1.0, abs=1e-12)

    @given(score_lists, score_lists)
    @settings(max_examples=60, deadline=None)
    def test_reliable_implies_targets_met(self, pos, neg):
        cal = pair_record(calibrate_bins, pos, neg)
        if not cal.reliable:
            return
        ppv, det, npv, tnr = count_rates(pos, neg, cal.theta_pos, cal.theta_neg)
        assert ppv >= 0.96 and det >= 0.09
        assert npv >= 0.96 and tnr >= 0.09

    @pytest.mark.parametrize("flip", [1.0, -1.0])
    def test_midpoint_of_huge_scores_stays_finite(self, flip):
        """Two finite scores whose sum overflows still have their midpoint as a candidate, not inf."""
        orientation = "lower_is_positive" if flip > 0 else "higher_is_positive"
        cal = pair_record(calibrate_bins, [flip * 1e308], [flip * 1.7e308, flip * 1.79e308], orientation)
        assert cal.theta_pos == cal.theta_neg == flip * (0.5 * 1e308 + 0.5 * 1.7e308)
        assert cal.reliable and cal.ppv == cal.npv == 1.0
        single = pair_record(single_threshold_calibrations, [flip * 1e308], [flip * 1.7e308, flip * 1.79e308], orientation)
        assert single.theta_pos == flip * (0.5 * 1e308 + 0.5 * 1.7e308)
        # the tied candidates are the low sentinel and 0; the untied ones lie more than the float range above them
        assert pair_record(single_threshold_calibrations, [-flip * 1.7e308], [flip * 1.7e308, flip * 1.75e308], orientation).theta_pos == -flip * 1.7e308
        # the mirror: the oriented scores lie beyond half the float range below zero, not above it
        low = ([-flip * 1.79e308, -flip * 1.7e308], [-flip * 1e308])
        mirror = pair_record(calibrate_bins, *low, orientation)
        assert mirror.theta_pos == mirror.theta_neg == flip * (0.5 * -1.7e308 + 0.5 * -1e308)
        assert mirror.reliable and mirror.ppv == mirror.npv == 1.0
        assert pair_record(single_threshold_calibrations, *low, orientation).theta_pos == mirror.theta_pos
        # each huge pair in a pass of ordinary pairs, before them and after them, gets its one-pair record
        rng = np.random.default_rng(5)
        ordinary = [(rng.normal(0, 1, n), rng.normal(2, 1, m)) for n, m in ((5, 7), (12, 3), (1, 1))]
        for huge in (([flip * 1e308], [flip * 1.7e308, flip * 1.79e308]), low):
            for pairs in ([huge, *ordinary], [*ordinary, huge]):
                for calibrate in (calibrate_bins, single_threshold_calibrations):
                    assert _bits(calibrate(pairs, orientation)) == _bits(
                        pair_record(calibrate, pos, neg, orientation) for pos, neg in pairs
                    )

    def test_input_order_irrelevant(self):
        rng = np.random.default_rng(3)
        pos = rng.normal(0, 2, 25)
        neg = rng.normal(6, 2, 40)
        a = pair_record(calibrate_bins, pos, neg)
        b = pair_record(calibrate_bins, pos[::-1].copy(), rng.permutation(neg))
        assert a == b


def outcomes(model, bin_index, scores):
    """The outcome names ``classify_scores`` gives ``scores``, each in its own column of ``model`` and bin."""
    n = len(scores)
    codes, keys = classify_scores({0: model}, [0] * n, [bin_index] * n, np.array([scores], dtype=float))
    names = [key[1] for key in keys] + ["uncertain"]
    return [names[code] for code in codes[0]]


class TestClassifyScores:
    @pytest.fixture()
    def model(self):
        cal = BinCalibration(
            theta_pos=6.5, theta_neg=8.0, ppv=0.97, npv=0.97,
            detection_rate=0.8, true_negative_rate=0.8,
            false_positive_rate=0.01, false_negative_rate=0.01, reliable=True,
        )
        bad = BinCalibration(
            theta_pos=None, theta_neg=None, ppv=None, npv=None,
            detection_rate=0.0, true_negative_rate=0.0,
            false_positive_rate=0.0, false_negative_rate=0.0, reliable=False,
        )
        return ClassifierModel(attribute_index=0, orientation="lower_is_positive", calibrations={0: cal, 1: bad})

    def test_ternary_branches(self, model):
        # scores exactly at a threshold go to its side
        assert outcomes(model, 0, [2.0, 7.0, 9.0, 6.5, 8.0]) == ["positive", "uncertain", "negative", "positive", "negative"]

    def test_unreliable_bin_always_uncertain(self, model):
        assert outcomes(model, 1, [-100.0, 0.0, 100.0]) == ["uncertain"] * 3

    def test_unknown_bin(self, model):
        with pytest.raises(ValueError, match="unknown bin index 7"):
            outcomes(model, 7, [0.0])

    def test_step_function_has_two_breakpoints(self, model):
        grid = outcomes(model, 0, np.linspace(0, 12, 800).tolist())
        changes = sum(1 for a, b in zip(grid, grid[1:]) if a != b)
        assert changes == 2

    @given(score_lists, score_lists, st.lists(scores, min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_orientation_mirror(self, pos, neg, probes):
        low = pair_record(calibrate_bins, pos, neg, orientation="lower_is_positive")
        high = pair_record(calibrate_bins, [-x for x in pos], [-x for x in neg], orientation="higher_is_positive")
        assert low.reliable == high.reliable
        if not low.reliable:
            return
        m_low = ClassifierModel(0, "lower_is_positive", {0: low})
        m_high = ClassifierModel(0, "higher_is_positive", {0: high})
        assert outcomes(m_low, 0, probes) == outcomes(m_high, 0, [-s for s in probes])


class TestSingleThresholdBaseline:
    def test_separated(self):
        assert pair_record(single_threshold_calibrations, [1, 2, 3], [10, 11, 12]).theta_pos == 6.5

    def test_interleaved_tie_break(self):
        theta = pair_record(single_threshold_calibrations, [1, 3], [2, 4]).theta_pos
        oracle_theta, oracle_errors = bayes_threshold_oracle([1, 3], [2, 4])
        assert theta == oracle_theta == 1.5
        assert oracle_errors == 1

    def test_degenerate_overlap_is_deterministic(self):
        a = pair_record(single_threshold_calibrations, [5, 6], [5, 6]).theta_pos
        b = pair_record(single_threshold_calibrations, [5, 6], [5, 6]).theta_pos
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(CalibrationError):
            pair_record(single_threshold_calibrations, [], [1])

    @given(score_lists, score_lists)
    @settings(max_examples=80, deadline=None)
    def test_matches_loop_oracle(self, pos, neg):
        assert pair_record(single_threshold_calibrations, pos, neg).theta_pos == bayes_threshold_oracle(pos, neg)[0]


@pytest.mark.parametrize("orientation", ["lower_is_positive", "higher_is_positive"])
class TestCrossedThresholds:
    """A reliable bin's thresholds may meet, but the positive one may not lie past the negative one: above it under
    ``lower_is_positive``, below it under ``higher_is_positive``."""

    @staticmethod
    def reliable(orientation, apart):
        """A reliable record whose thresholds lie ``apart`` from each other in the orientation's positive direction:
        a negative distance crosses them."""
        step = apart if orientation == "lower_is_positive" else -apart
        return BinCalibration(5.0, 5.0 + step, 0.97, 0.97, 0.5, 0.5, 0.01, 0.01, True)

    @pytest.mark.parametrize("apart", [0.0, 2.0])
    def test_uncrossed_thresholds_accepted(self, orientation, apart):
        model = ClassifierModel(0, orientation, {0: self.reliable(orientation, apart)})
        assert outcomes(model, 0, [5.0]) == ["positive"]  # a score on the positive threshold is positive

    @pytest.mark.parametrize("apart", [-2.0, -1e-9])
    def test_crossed_thresholds_rejected(self, orientation, apart):
        with pytest.raises(ValueError, match="^reliable calibration has crossed thresholds$"):
            ClassifierModel(0, orientation, {0: self.reliable(orientation, apart)})

    def test_loaded_crossed_thresholds_rejected(self, orientation, tmp_path):
        """A models file whose reliable bin has crossed thresholds is a ModelFileError naming the file and attribute;
        the same file with them met loads."""
        catalog = ObjectCatalog(("a", "b"), ("mark",), np.array([[1], [0]]), np.array([0.5, 0.5]))
        path = tmp_path / "models.json"
        save_models({0: ClassifierModel(0, orientation, {0: self.reliable(orientation, 0.0)})}, catalog, path)
        assert load_models(path, catalog)[0].calibrations[0] == self.reliable(orientation, 0.0)
        raw = json.loads(path.read_text())
        raw["models"][0]["bins"][0]["theta_neg"] = self.reliable(orientation, -2.0).theta_neg
        path.write_text(json.dumps(raw))
        message = f"{path}: attribute 'mark': reliable calibration has crossed thresholds"
        with pytest.raises(ModelFileError, match=f"^{re.escape(message)}$"):
            load_models(path, catalog)


class TestPersistence:
    def test_roundtrip(self, exp2_scenario, tmp_path):
        models = calibrate_scenario(exp2_scenario, derived_rng(exp2_scenario.seed, 0))
        path = tmp_path / "models.json"
        save_models(models, exp2_scenario.catalog, path)
        loaded = load_models(path, exp2_scenario.catalog)
        assert loaded == models

    @staticmethod
    def _saved_record(exp2_scenario, tmp_path, edit):
        """Save the exp2 models, apply ``edit`` to the first reliable bin record, and return the file."""
        models = calibrate_scenario(exp2_scenario, derived_rng(exp2_scenario.seed, 0))
        path = tmp_path / "models.json"
        save_models(models, exp2_scenario.catalog, path)
        raw = json.loads(path.read_text())
        entry = raw["models"][0]
        rec = next(r for r in entry["bins"] if r["reliable"])
        edit(rec)
        path.write_text(json.dumps(raw))
        return path, entry["attribute"], rec["bin"]

    def test_missing_threshold_names_file_attribute_and_key(self, exp2_scenario, tmp_path):
        path, attribute, k = self._saved_record(exp2_scenario, tmp_path, lambda rec: rec.pop("theta_pos"))
        message = f"{path}: attribute {attribute!r}: bin {k}: missing key 'theta_pos'"
        with pytest.raises(ModelFileError, match=re.escape(message)):
            load_models(path, exp2_scenario.catalog)

    def test_string_predictive_value_rejected(self, exp2_scenario, tmp_path):
        path, attribute, k = self._saved_record(exp2_scenario, tmp_path, lambda rec: rec.update(ppv="NaN"))
        message = f"{path}: attribute {attribute!r}: bin {k}: key 'ppv' must be a finite number in [0, 1], got 'NaN'"
        with pytest.raises(ModelFileError, match=re.escape(message)):
            load_models(path, exp2_scenario.catalog)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("npv", 1.5), ("ppv", -0.1), ("theta_neg", None), ("theta_pos", float("inf")),
            pytest.param("theta_pos", 10**400, id="theta_pos-huge"),
        ],
    )
    def test_reliable_bin_needs_finite_values_in_range(self, exp2_scenario, tmp_path, key, value):
        path, attribute, k = self._saved_record(exp2_scenario, tmp_path, lambda rec: rec.update({key: value}))
        with pytest.raises(ModelFileError, match=re.escape(f"{path}: attribute {attribute!r}: bin {k}: key {key!r}")):
            load_models(path, exp2_scenario.catalog)

    @staticmethod
    def _saved_file(exp2_scenario, tmp_path, edit):
        """Save the exp2 models, apply ``edit`` to the parsed file, and return the file and its first attribute."""
        path = tmp_path / "models.json"
        save_models(calibrate_scenario(exp2_scenario, derived_rng(exp2_scenario.seed, 0)), exp2_scenario.catalog, path)
        raw = json.loads(path.read_text())
        attribute = raw["models"][0]["attribute"]
        edit(raw)
        path.write_text(json.dumps(raw))
        return path, attribute

    @pytest.mark.parametrize("value", [5, None, {}, pytest.param(["abc"], id="string-entry")])
    def test_models_not_a_list_rejected(self, exp2_scenario, tmp_path, value):
        path, _ = self._saved_file(exp2_scenario, tmp_path, lambda raw: raw.update(models=value))
        with pytest.raises(ModelFileError, match=f"^{re.escape(str(path))}: key 'models'"):
            load_models(path, exp2_scenario.catalog)

    @pytest.mark.parametrize(
        "edit, location",
        [
            pytest.param(lambda entry: entry.update(bins={"a": 1}), "attribute {attribute!r}: key 'bins'", id="object-bins"),
            pytest.param(lambda entry: entry["bins"].append("a"), "attribute {attribute!r}: key 'bins'", id="string-bin"),
            pytest.param(
                lambda entry: entry.pop("orientation"), "attribute {attribute!r}: missing key 'orientation'", id="no-orientation"
            ),
            pytest.param(
                lambda entry: entry.update(attribute="no such"), "key 'models': entry 0: key 'attribute'", id="unknown-attribute"
            ),
        ],
    )
    def test_malformed_attribute_entry_names_the_key(self, exp2_scenario, tmp_path, edit, location):
        path, attribute = self._saved_file(exp2_scenario, tmp_path, lambda raw: edit(raw["models"][0]))
        message = f"{path}: {location.format(attribute=attribute)}"
        with pytest.raises(ModelFileError, match=f"^{re.escape(message)}"):
            load_models(path, exp2_scenario.catalog)

    @pytest.fixture(scope="class")
    def exp2_saved(self, exp2_scenario, tmp_path_factory):
        """The exp2 models as saved, parsed."""
        path = tmp_path_factory.mktemp("models") / "models.json"
        save_models(calibrate_scenario(exp2_scenario, derived_rng(exp2_scenario.seed, 0)), exp2_scenario.catalog, path)
        return json.loads(path.read_text())

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_load_models_fuzz(self, exp2_scenario, exp2_saved, data):
        """A one-value mutation of a saved models file loads, or raises a ModelFileError naming the file."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "models.json"
            path.write_text(json.dumps(data.draw(mutated(exp2_saved))))
            try:
                load_models(path, exp2_scenario.catalog)
            except ModelFileError as exc:
                assert str(exc).startswith(f"{path}: "), exc

    def test_repeated_bin_rejected(self, exp2_scenario, tmp_path):
        def repeat_bin_0(raw):
            bins = raw["models"][0]["bins"]
            bins.append(dict(bins[0], theta_pos=bins[0]["theta_pos"] - 1.0))

        path, attribute = self._saved_file(exp2_scenario, tmp_path, repeat_bin_0)
        with pytest.raises(ModelFileError, match=re.escape(f"{path}: attribute {attribute!r}: bin 0: listed twice")):
            load_models(path, exp2_scenario.catalog)

    def test_repeated_attribute_rejected(self, exp2_scenario, tmp_path):
        path, attribute = self._saved_file(exp2_scenario, tmp_path, lambda raw: raw["models"].append(raw["models"][0]))
        with pytest.raises(ModelFileError, match=re.escape(f"{path}: attribute {attribute!r}: listed twice")):
            load_models(path, exp2_scenario.catalog)

    def test_one_record_serves_several_bins(self, exp2_scenario, tmp_path):
        """The model's key is the record's bin, so one record may sit under several bins."""
        cal = pair_record(calibrate_bins, [1, 2, 3], [10, 11, 12])
        models = {0: ClassifierModel(0, "lower_is_positive", {0: cal, 3: cal})}
        path = tmp_path / "models.json"
        save_models(models, exp2_scenario.catalog, path)
        (saved,) = json.loads(path.read_text())["models"]
        assert [rec["bin"] for rec in saved["bins"]] == [0, 3]
        assert saved["bins"][0] == {**saved["bins"][1], "bin": 0}
        assert load_models(path, exp2_scenario.catalog) == models

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["lower_is_positive", "higher_is_positive"]),
                st.lists(st.tuples(score_lists, score_lists, st.booleans()), min_size=1, max_size=3),
            ),
            min_size=1,
            max_size=3,
        )
    )
    # a reliable pair, an unreliable bin with null thresholds, a coincident pair, and a degenerate coincident pair
    @example([("lower_is_positive", [([0, 1], [5, 6], False), ([0, 5], [0, 5], False), ([1], [2], True), ([10, 11], [1, 2, 3], True)])])
    @settings(max_examples=60, deadline=None)
    def test_save_load_round_trip(self, attributes):
        n = len(attributes)
        catalog = ObjectCatalog(
            objects=("a", "b"),
            attributes=tuple(f"attr-{i}" for i in range(n)),
            matrix=np.array([[1] * n, [0] * n]),
            priors=np.array([0.5, 0.5]),
        )
        models = {}
        for i, (orientation, bins) in enumerate(attributes):
            cals = {}
            for k, (pos, neg, single) in enumerate(bins):
                calibrate = single_threshold_calibrations if single else calibrate_bins
                cals[k] = pair_record(calibrate, pos, neg, orientation)
            models[i] = ClassifierModel(i, orientation, cals)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "models.json"
            save_models(models, catalog, path)
            assert load_models(path, catalog) == models


# attribute ids that JSON escapes or that look like the writer's own layout, and non-ASCII text
attribute_ids = st.sampled_from(['say "hi"', "back\\slash", ",\n          : ", "caf\u00e9 \u2713", "\U0001f600"]) | st.text(
    st.sampled_from(['"', "\\", ",", "\n", " ", ":", "{", "}", "a", "\u00e9", "\u2603", "\x00", "\t"]), min_size=1, max_size=8
)
rates = st.floats(0, 1) | st.sampled_from([0, 1, 0.0, 1.0])  # integer-valued rates, as ints and as floats
thresholds = st.floats(-1e300, 1e300) | st.sampled_from([0, -0.0, 5, 1e16])


@st.composite
def bin_records(draw, orientation):
    """A reliable record with uncrossed thresholds, or an unreliable one whose thresholds and predictive values may
    be null."""
    reliable = draw(st.booleans())
    if reliable:
        low, high = sorted(draw(st.tuples(thresholds, thresholds)))
        theta_pos, theta_neg = (low, high) if orientation == "lower_is_positive" else (high, low)
        ppv, npv = draw(rates), draw(rates)
    else:
        theta_pos, theta_neg = draw(st.none() | thresholds), draw(st.none() | thresholds)
        ppv, npv = draw(st.none() | rates), draw(st.none() | rates)
    return BinCalibration(theta_pos, theta_neg, ppv, npv, *(draw(rates) for _ in range(4)), reliable)


@st.composite
def model_sets(draw):
    """A catalog and models of a subset of its attributes, which may be empty; a model may have no bins."""
    ids = draw(st.lists(attribute_ids, min_size=1, max_size=4, unique=True))
    catalog = ObjectCatalog(("a", "b"), tuple(ids), np.array([[1] * len(ids), [0] * len(ids)]), np.array([0.5, 0.5]))
    models = {}
    for i in draw(st.lists(st.integers(0, len(ids) - 1), unique=True)):
        orientation = draw(st.sampled_from(["lower_is_positive", "higher_is_positive"]))
        bins = draw(st.dictionaries(st.integers(0, 20), bin_records(orientation), max_size=3))
        models[i] = ClassifierModel(i, orientation, bins)
    return catalog, models


@settings(max_examples=150, deadline=None)
@given(model_sets())
def test_saved_models_are_the_indented_json_dump(model_set):
    """``save_models`` writes the bytes of ``json.dumps({"models": entries}, indent=2)`` and a newline."""
    catalog, models = model_set
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "models.json"
        save_models(models, catalog, path)
        assert path.read_bytes() == reference_models_text(models, catalog).encode()


@pytest.mark.parametrize("calibrate", [calibrate_bins, single_threshold_calibrations])
@given(score_lists, score_lists)
@settings(max_examples=80, deadline=None)
def test_record_orientation_mirror(calibrate, pos, neg):
    """Negated samples under the other orientation give negated thresholds and an otherwise equal record."""
    low = pair_record(calibrate, pos, neg, "lower_is_positive")
    high = pair_record(calibrate, [-x for x in pos], [-x for x in neg], "higher_is_positive")
    negated = [None if theta is None else -theta for theta in (low.theta_pos, low.theta_neg)]
    assert [high.theta_pos, high.theta_neg] == negated
    assert dataclasses.replace(high, theta_pos=low.theta_pos, theta_neg=low.theta_neg) == low


# Scores that make candidates collide: a few anchors, each moved by up to two doubles with np.nextafter, so the
# midpoint of two neighbours rounds onto one of them; at 2**53 and beyond a sentinel ``s - 1`` or ``s + 1`` is ``s``.
_ANCHORS = [0.0, 1.0, -3.5, 1e-310, 2.0**53, -(2.0**53), 2.0**60 + 2048, -1e300]


@st.composite
def colliding_scores(draw):
    value = draw(st.sampled_from(_ANCHORS))
    steps = draw(st.integers(-2, 2))
    for _ in range(abs(steps)):
        value = float(np.nextafter(value, math.copysign(math.inf, steps)))
    return value


sweep_scores = st.lists(st.one_of(colliding_scores(), scores, st.sampled_from([-1.0, 0.0, 2.5])), min_size=1, max_size=20)
sweep_pairs = st.lists(st.tuples(sweep_scores, sweep_scores), min_size=1, max_size=6)


def _bits(records):
    """Records with every float as its repr, so that 0.0 and -0.0 differ."""
    return [tuple(map(repr, dataclasses.astuple(rec))) for rec in records]


@given(
    sweep_pairs,
    st.sampled_from(["lower_is_positive", "higher_is_positive"]),
    st.sampled_from([0.5, 0.8, DEFAULT_TARGET_PPV, 1.0]),
    st.sampled_from([0.5, 0.8, DEFAULT_TARGET_NPV, 1.0]),
    st.sampled_from([0.0, DEFAULT_MIN_DETECTION_RATE, 0.3]),
    st.sampled_from([1, 24, classifier._PASS_SLOTS]),
)
@settings(max_examples=200, deadline=None)
def test_batched_sweep_matches_per_pair_reference(pairs, orientation, target_ppv, target_npv, floor, pass_slots):
    """Every record of the batched sweep equals, bit for bit, the per-pair reference's record of its pair.

    Rows differ in length, scores repeat, and adjacent doubles and scores of
    2**53 and more make candidates land on scores. Smaller pass sizes split
    the pairs over several passes, and a pass of one slot holds one pair.
    """
    with mock.patch.object(classifier, "_PASS_SLOTS", pass_slots):
        two = calibrate_bins(pairs, orientation, target_ppv, target_npv, floor)
        one = single_threshold_calibrations(pairs, orientation)
    assert _bits(two) == _bits([reference_calibrate_bin(p, n, orientation, target_ppv, target_npv, floor) for p, n in pairs])
    assert _bits(one) == _bits([reference_single_threshold(p, n, orientation) for p, n in pairs])


@pytest.mark.parametrize("orientation", ["lower_is_positive", "higher_is_positive"])
def test_sweep_shares_the_column_row_unless_a_candidate_lands_on_a_score(orientation):
    """A pass where no candidate lands on a score counts its slots at or below, and strictly below, each candidate
    in the one row of column indices that every pair shares; adjacent doubles make them (pairs x slots) arrays.
    Either way every record is the per-pair reference's."""
    sign = -1.0 if orientation == "higher_is_positive" else 1.0
    rng = np.random.default_rng(7)
    plain = [(sign * rng.normal(0, 1, 6), sign * rng.normal(2, 1, 9)), (sign * rng.normal(0, 1, 4), [sign * 3.0])]
    up = np.nextafter(1.0, 2.0)  # the midpoints of 1.0, up and np.nextafter(up, 2.0) round onto 1.0 and onto the third
    colliding = [*plain, (sign * np.array([1.0, up]), sign * np.array([np.nextafter(up, 2.0), 3.0]))]
    for pairs, shape in ((plain, (16,)), (colliding, (3, 16))):
        (sweep,) = classifier._sweeps(pairs, orientation)
        assert sweep.at_or_below.shape == sweep.strictly_below.shape == shape
        assert _bits(calibrate_bins(pairs, orientation)) == _bits(
            reference_calibrate_bin(pos, neg, orientation) for pos, neg in pairs
        )
        assert _bits(single_threshold_calibrations(pairs, orientation)) == _bits(
            reference_single_threshold(pos, neg, orientation) for pos, neg in pairs
        )


@pytest.mark.parametrize(
    "pairs, kwargs",
    [
        ([([1.0], [2.0]), ([], [1.0])], {}),
        ([([1.0], [math.nan]), ([], [1.0])], {}),
        ([([], [math.nan])], {}),
        ([([1.0], [2.0]), ([math.inf], [1.0])], {"target_ppv": 0.0}),
        ([([1.0], [2.0]), ([math.inf], [1.0])], {"orientation": "sideways"}),
        ([([], [2.0]), ([1.0], [1.0])], {"orientation": "sideways"}),
        ([([1.0], [2.0]), ([2.0], [])], {"min_detection_rate": 2.0}),
    ],
)
def test_batched_errors_are_the_per_pair_loops_first(pairs, kwargs):
    """A batch raises the error that a loop of one-pair calls raises first."""

    def first_error(calibrate, **kwargs):
        with pytest.raises(CalibrationError) as exc:
            for pos, neg in pairs:
                calibrate(pos, neg, **kwargs)
        return str(exc.value)

    with pytest.raises(CalibrationError, match=re.escape(first_error(reference_calibrate_bin, **kwargs))):
        calibrate_bins(pairs, **kwargs)
    orientation = {k: v for k, v in kwargs.items() if k == "orientation"}
    with pytest.raises(CalibrationError, match=re.escape(first_error(reference_single_threshold, **orientation))):
        single_threshold_calibrations(pairs, **orientation)


def test_model_set_at_ten_times_the_training_counts_matches_the_reference(exp3_scenario):
    """exp3's 50 sets at 10x training counts span several passes; each record is the per-pair reference's."""
    cfg = dataclasses.replace(
        exp3_scenario.calibration, n_pos_per_object=200, n_neg_per_object=200,
    )
    scenario = dataclasses.replace(exp3_scenario, calibration=cfg)
    training = draw_training_sets(scenario)
    models = calibrate_from_sets(scenario, training)
    expected = [
        reference_calibrate_bin(pos, neg, scenario.orientation, cfg.target_ppv, cfg.target_npv, cfg.min_detection_rate)
        for pos, neg in training.values()
    ]
    assert _bits(models[i].calibrations[k] for i, k in training) == _bits(expected)
