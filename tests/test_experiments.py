import json

import numpy as np
import pytest

from attrfuse.catalog import ObjectCatalog
from attrfuse.simulator import CalibrationConfig, Scenario, ScenarioError, ScoreModel
from attrfuse.experiments import (
    convergence_suite,
    experiment1_distribution_shift,
    experiment2_threshold_comparison,
    experiment3_attribute_families,
    single_threshold_models,
    theorem_suites,
    write_exp1_csvs,
    write_exp2_csv,
    write_exp3_csv,
    write_manifest,
)


def flat_scenario(n_bins=3, seed=17, std=3.0):
    """Identical score models in every bin, two objects, one attribute each."""
    catalog = ObjectCatalog(
        objects=("a", "b"),
        attributes=("attr-a", "attr-b"),
        matrix=np.array([[1, 0], [0, 1]]),
        priors=np.array([0.5, 0.5]),
    )
    sm = {}
    for i in range(2):
        for k in range(n_bins):
            sm[(i, "pos", k)] = ScoreModel("gaussian", 10.0, std)
            sm[(i, "neg", k)] = ScoreModel("gaussian", 20.0, std)
    bins = tuple((float(60 + 10 * k), float(70 + 10 * k)) for k in range(n_bins))
    return Scenario(catalog=catalog, bins=bins, score_models=sm, seed=seed,
                    calibration=CalibrationConfig(n_pos_per_object=40, n_neg_per_object=40))


class TestExperiment1:
    def test_requires_two_bins(self, exp2_scenario):
        with pytest.raises(ScenarioError):
            experiment1_distribution_shift(exp2_scenario)

    def test_identical_bins_have_equal_overlap(self):
        scn = flat_scenario()
        result = experiment1_distribution_shift(scn, n_pos=4000, n_neg=4000)
        spread = result.overlap.max() - result.overlap.min()
        assert spread < 0.05

    def test_shipped_scenario_overlap_grows(self, exp1_scenario):
        result = experiment1_distribution_shift(exp1_scenario, n_pos=4000, n_neg=4000)
        assert np.all(np.diff(result.overlap) > 0)
        assert result.overlap[-1] > 3 * result.overlap[0]

    def test_far_bin_exceeds_near_bin_by_three_sigma(self, exp1_scenario):
        reps = [
            experiment1_distribution_shift(exp1_scenario, n_pos=10_000, n_neg=10_000, seed=exp1_scenario.seed + r)
            for r in range(5)
        ]
        near = np.array([r.overlap[0] for r in reps])
        far = np.array([r.overlap[-1] for r in reps])
        sep = (far.mean() - near.mean()) / np.sqrt(far.var(ddof=1) / 5 + near.var(ddof=1) / 5)
        assert sep > 3

    def test_default_sample_counts(self, exp1_scenario):
        result = experiment1_distribution_shift(exp1_scenario)
        assert result.n_pos == 120   # 40 per positive object, 3 objects
        assert result.n_neg == 210   # 35 per negative object, 6 objects


class TestExperiment2:
    def test_error_decomposition(self, exp2_scenario):
        curve = experiment2_threshold_comparison(exp2_scenario, trials=150)
        tie_counts = np.round(curve.random_tie_error * curve.trials)
        wrong_counts = np.round(curve.wrong_decision_error * curve.trials)
        total_counts = np.round(curve.two_threshold_error * curve.trials)
        assert np.array_equal(tie_counts + wrong_counts, total_counts)
        assert np.all(curve.random_tie_error <= curve.two_threshold_error)
        assert np.all((curve.two_threshold_error >= 0) & (curve.two_threshold_error <= 1))

    def test_unbiased_separable_scores_reach_zero_error(self):
        scn = flat_scenario(n_bins=1, std=0.5)
        curve = experiment2_threshold_comparison(scn, k_list=(1, 2, 3), trials=200)
        # the permissive negative threshold tolerates one counted false
        # negative, so a stray miss at K=1 is legal; by K=2 both methods are exact
        assert np.all(curve.two_threshold_error[1:] == 0.0)
        assert np.all(curve.single_threshold_error[1:] == 0.0)

    def test_two_threshold_beats_single_on_shipped_scenario(self, exp2_scenario):
        curve = experiment2_threshold_comparison(exp2_scenario, trials=400)
        late = [i for i, k in enumerate(curve.k_values) if k >= 3]
        assert np.all(curve.two_threshold_error[late] <= curve.single_threshold_error[late])


    def test_degenerate_single_threshold_split_rejected(self, exp2_scenario):
        # the min-error threshold lies below every sample, so no score is positive and the PPV is undefined
        pos, neg = np.array([10.0, 11.0]), np.array([1.0, 2.0, 3.0])
        with pytest.raises(ScenarioError, match="degenerate single-threshold split"):
            single_threshold_models(exp2_scenario, {(0, 0): (pos, neg)})


class TestExperiment3:
    def test_requires_families(self, exp2_scenario):
        with pytest.raises(ScenarioError):
            experiment3_attribute_families(exp2_scenario, trials=5)

    def test_single_family_degenerate_union(self):
        scn = flat_scenario(n_bins=2)
        scn = Scenario(
            catalog=scn.catalog, bins=scn.bins, score_models=scn.score_models,
            seed=scn.seed, calibration=scn.calibration,
            families={"fine": (0, 1), "coarse": (), "color": ()},
        )
        result = experiment3_attribute_families(scn, trials=60)
        fine = result.accuracy[:, list(result.systems).index("fine")]
        alla = result.accuracy[:, list(result.systems).index("all")]
        assert np.array_equal(fine, alla)

    def test_shipped_scenario_orderings(self, exp3_scenario):
        result = experiment3_attribute_families(exp3_scenario, trials=250)
        fine = result.accuracy[:, 0]
        coarse = result.accuracy[:, 1]
        alla = result.accuracy[:, 2]
        slack = result.halfwidths.max(axis=1)
        assert np.all(alla >= np.maximum(fine, coarse) - slack)
        assert coarse[-1] > fine[-1]


class TestTheoremSuites:
    def test_report_structure(self):
        report = theorem_suites(trials=300, seed=3, exact_cases=150, k_checkpoints=(5, 50))
        assert report.exact_pass and report.exact_correct == 150
        assert report.convergence_k == (5, 50)
        assert report.convergence_pass
        assert report.all_pass

    def test_noise_free_classifiers_never_err(self):
        k_values, error = convergence_suite(
            trials=100, seed=4, k_checkpoints=(1, 3), ppv=1.0, npv=1.0,
            detection_rate=1.0, true_negative_rate=1.0,
        )
        assert np.all(error == 0.0)


class TestOutputs:
    def test_csv_headers_and_reproducibility(self, exp2_scenario, exp3_scenario, tmp_path):
        curve = experiment2_threshold_comparison(exp2_scenario, trials=60)
        p1 = write_exp2_csv(curve, tmp_path / "a")
        p2 = write_exp2_csv(curve, tmp_path / "b")
        assert p1.read_text().splitlines()[0] == "K,method,error,halfwidth"
        assert p1.read_bytes() == p2.read_bytes()

        res = experiment3_attribute_families(exp3_scenario, trials=20)
        p3 = write_exp3_csv(res, tmp_path / "a")
        assert p3.read_text().splitlines()[0] == "bin,method,accuracy,halfwidth"

    def test_rerun_is_byte_identical(self, exp2_scenario, tmp_path):
        a = experiment2_threshold_comparison(exp2_scenario, trials=80)
        b = experiment2_threshold_comparison(exp2_scenario, trials=80)
        pa = write_exp2_csv(a, tmp_path / "ra")
        pb = write_exp2_csv(b, tmp_path / "rb")
        assert pa.read_bytes() == pb.read_bytes()

    def test_exp1_outputs(self, exp1_scenario, tmp_path):
        result = experiment1_distribution_shift(exp1_scenario, n_pos=50, n_neg=50)
        paths = write_exp1_csvs(result, tmp_path)
        assert paths[0].read_text().splitlines()[0] == "bin,truth,x,density"
        assert paths[1].read_text().splitlines()[0] == "bin,overlap"

    def test_manifest(self, exp2_scenario, tmp_path):
        path = write_manifest(tmp_path, "exp2", seed=7, trials=10, scenario=exp2_scenario)
        record = json.loads(path.read_text())
        assert record["experiment"] == "exp2"
        assert record["scenario_sha256"] == exp2_scenario.sha256
        assert record["version"]
