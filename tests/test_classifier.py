import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrfuse.classifier import (
    DEFAULT_MIN_DETECTION_RATE,
    DEFAULT_TARGET_NPV,
    DEFAULT_TARGET_PPV,
    BinCalibration,
    CalibrationError,
    ModelFileError,
    ClassifierModel,
    calibrate_bin,
    classify,
    kde_density,
    load_models,
    make_synthetic_model,
    save_models,
    single_threshold_baseline,
)
from attrfuse.simulator import calibrate_scenario, derived_rng

from oracles import bayes_threshold_oracle, calibrate_oracle, count_rates

scores = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)
score_lists = st.lists(scores, min_size=1, max_size=30)


def test_default_calibration_targets():
    assert DEFAULT_TARGET_PPV == 0.96
    assert DEFAULT_TARGET_NPV == 0.96
    assert DEFAULT_MIN_DETECTION_RATE == 0.09


class TestCalibrateBin:
    def test_separated_sample(self):
        cal = calibrate_bin([1, 2, 3], [10, 11, 12], target_ppv=1.0, target_npv=0.96, min_detection_rate=0.5)
        assert cal.theta_pos == 6.5
        assert cal.ppv == 1.0
        assert cal.detection_rate == 1.0
        assert cal.reliable

    def test_total_overlap_unreliable(self):
        cal = calibrate_bin([5, 5, 5], [5, 5, 5])
        assert not cal.reliable
        assert cal.theta_pos is None and cal.theta_neg is None

    def test_empty_sample_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_bin([], [1.0])
        with pytest.raises(CalibrationError):
            calibrate_bin([1.0], [])

    @pytest.mark.parametrize("pos, neg", [([1, float("nan"), 2], [5, 6, 7]), ([1, 2], [5, 6, float("inf")])])
    def test_nonfinite_sample_rejected(self, pos, neg):
        with pytest.raises(CalibrationError):
            calibrate_bin(pos, neg)
        with pytest.raises(CalibrationError):
            single_threshold_baseline(pos, neg)

    def test_bad_targets_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_bin([1], [2], target_ppv=0.0)
        with pytest.raises(CalibrationError):
            calibrate_bin([1], [2], min_detection_rate=1.5)

    def test_separated_large_sample_stays_reliable(self):
        # the unconstrained positive sweep would walk past the negative one
        # inside the gap; the cap keeps the pair ordered and qualifying
        rng = np.random.default_rng(0)
        pos = rng.normal(0.0, 1.0, size=200)
        neg = rng.normal(20.0, 1.0, size=300)
        cal = calibrate_bin(pos, neg)
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
        cal = calibrate_bin(pos, neg, target_ppv=tp, target_npv=tn, min_detection_rate=floor)
        o_pos, o_neg, o_rel = calibrate_oracle(pos, neg, target_ppv=tp, target_npv=tn, min_detection_rate=floor)
        assert cal.reliable == o_rel
        assert cal.theta_pos == o_pos
        assert cal.theta_neg == o_neg

    @given(score_lists, score_lists,
           st.floats(min_value=0.5, max_value=0.9),
           st.floats(min_value=0.0, max_value=0.4))
    @settings(max_examples=60, deadline=None)
    def test_monotone_safety(self, pos, neg, target, delta):
        loose = calibrate_bin(pos, neg, target_ppv=target, min_detection_rate=0.05)
        tight = calibrate_bin(pos, neg, target_ppv=min(1.0, target + delta), min_detection_rate=0.05)
        if tight.theta_pos is not None:
            assert loose.theta_pos is not None
            assert tight.theta_pos <= loose.theta_pos

    @given(score_lists, score_lists)
    @settings(max_examples=60, deadline=None)
    def test_rates_partition_sample(self, pos, neg):
        cal = calibrate_bin(pos, neg)
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
        cal = calibrate_bin(pos, neg)
        if not cal.reliable:
            return
        ppv, det, npv, tnr = count_rates(pos, neg, cal.theta_pos, cal.theta_neg)
        assert ppv >= 0.96 and det >= 0.09
        assert npv >= 0.96 and tnr >= 0.09

    def test_input_order_irrelevant(self):
        rng = np.random.default_rng(3)
        pos = rng.normal(0, 2, 25)
        neg = rng.normal(6, 2, 40)
        a = calibrate_bin(pos, neg)
        b = calibrate_bin(pos[::-1].copy(), rng.permutation(neg))
        assert a == b


class TestClassify:
    @pytest.fixture()
    def model(self):
        cal = BinCalibration(
            bin_index=0, theta_pos=6.5, theta_neg=8.0, ppv=0.97, npv=0.97,
            detection_rate=0.8, true_negative_rate=0.8,
            false_positive_rate=0.01, false_negative_rate=0.01, reliable=True,
        )
        bad = BinCalibration(
            bin_index=1, theta_pos=None, theta_neg=None, ppv=None, npv=None,
            detection_rate=0.0, true_negative_rate=0.0,
            false_positive_rate=0.0, false_negative_rate=0.0, reliable=False,
        )
        return ClassifierModel(attribute_index=0, orientation="lower_is_positive", calibrations={0: cal, 1: bad})

    def test_ternary_branches(self, model):
        assert classify(model, 0, 2.0) == "positive"
        assert classify(model, 0, 7.0) == "uncertain"
        assert classify(model, 0, 9.0) == "negative"
        assert classify(model, 0, 6.5) == "positive"
        assert classify(model, 0, 8.0) == "negative"

    def test_unreliable_bin_always_uncertain(self, model):
        for score in (-100.0, 0.0, 100.0):
            assert classify(model, 1, score) == "uncertain"

    @pytest.mark.parametrize("score", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_score_rejected(self, model, score):
        for bin_index in (0, 1):
            with pytest.raises(ValueError):
                classify(model, bin_index, score)

    def test_unknown_bin(self, model):
        with pytest.raises(ValueError):
            classify(model, 7, 0.0)

    def test_step_function_has_two_breakpoints(self, model):
        grid = np.linspace(0, 12, 800)
        outcomes = [classify(model, 0, s) for s in grid]
        changes = sum(1 for a, b in zip(outcomes, outcomes[1:]) if a != b)
        assert changes == 2

    @given(score_lists, score_lists, st.lists(scores, min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_orientation_mirror(self, pos, neg, probes):
        low = calibrate_bin(pos, neg, orientation="lower_is_positive")
        high = calibrate_bin([-x for x in pos], [-x for x in neg], orientation="higher_is_positive")
        assert low.reliable == high.reliable
        if not low.reliable:
            return
        m_low = ClassifierModel(0, "lower_is_positive", {0: low})
        m_high = ClassifierModel(0, "higher_is_positive", {0: high})
        for s in probes:
            assert classify(m_low, 0, s) == classify(m_high, 0, -s)


class TestSingleThresholdBaseline:
    def test_separated(self):
        assert single_threshold_baseline([1, 2, 3], [10, 11, 12]) == 6.5

    def test_interleaved_tie_break(self):
        theta = single_threshold_baseline([1, 3], [2, 4])
        oracle_theta, oracle_errors = bayes_threshold_oracle([1, 3], [2, 4])
        assert theta == oracle_theta == 1.5
        assert oracle_errors == 1

    def test_degenerate_overlap_is_deterministic(self):
        a = single_threshold_baseline([5, 6], [5, 6])
        b = single_threshold_baseline([5, 6], [5, 6])
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(CalibrationError):
            single_threshold_baseline([], [1])

    @given(score_lists, score_lists)
    @settings(max_examples=80, deadline=None)
    def test_matches_loop_oracle(self, pos, neg):
        assert single_threshold_baseline(pos, neg) == bayes_threshold_oracle(pos, neg)[0]


class TestKde:
    def test_single_kernel_peak(self):
        val = kde_density([0.0], 1.0, [0.0])
        assert val[0] == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)

    def test_symmetry(self):
        dens = kde_density([-2.0, 2.0], 1.5, [-1.0, 1.0])
        assert dens[0] == pytest.approx(dens[1], rel=1e-12)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(1)
        sample = rng.normal(40, 6, size=300)
        grid = np.linspace(sample.min() - 25, sample.max() + 25, 3000)
        dens = kde_density(sample, 3.0, grid)
        trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
        assert trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-3)

    def test_errors(self):
        with pytest.raises(CalibrationError):
            kde_density([], 1.0, [0.0])
        with pytest.raises(CalibrationError):
            kde_density([1.0], 0.0, [0.0])


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
        import json

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

    @pytest.mark.parametrize("key, value", [("npv", 1.5), ("ppv", -0.1), ("theta_neg", None), ("theta_pos", float("inf"))])
    def test_reliable_bin_needs_finite_values_in_range(self, exp2_scenario, tmp_path, key, value):
        path, attribute, k = self._saved_record(exp2_scenario, tmp_path, lambda rec: rec.update({key: value}))
        with pytest.raises(ModelFileError, match=re.escape(f"{path}: attribute {attribute!r}: bin {k}: key {key!r}")):
            load_models(path, exp2_scenario.catalog)

    def test_synthetic_model_rate_consistency(self):
        m = make_synthetic_model(3, ppv=0.96, npv=0.9, detection_rate=0.5, true_negative_rate=0.4)
        cal = m.calibrations[0]
        # claimed rates reproduce the stated predictive values under equal priors
        assert cal.detection_rate / (cal.detection_rate + cal.false_positive_rate) == pytest.approx(0.96)
        assert cal.true_negative_rate / (cal.true_negative_rate + cal.false_negative_rate) == pytest.approx(0.9)
        assert m.reliable_region == {0}
