import json
import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attrfuse import experiments
from attrfuse.catalog import ObjectCatalog, compute_stats, prior_stats
from attrfuse.classifier import CalibrationError
from attrfuse.simulator import CalibrationConfig, Scenario, ScenarioError, ScoreModel
from attrfuse.streams import CASE_STREAM, SCORE_STREAM, STREAM_LAYOUT, derived_rng
from attrfuse.experiments import (
    EXP1_BANDWIDTH,
    EXP1_GRID_POINTS,
    EXP3_SYSTEMS,
    convergence_suite,
    decide_exact_cases,
    exact_recognition_suite,
    experiment1_distribution_shift,
    experiment2_threshold_comparison,
    experiment3_attribute_families,
    kde_density,
    single_threshold_models,
    theorem_suites,
    write_exp1_csvs,
    write_exp2_csv,
    write_exp3_csv,
    write_manifest,
)
from attrfuse.theory import predictive_value_floors
from oracles import decide_codes, exact_recognition_cases, reference_exact_draw


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


def recorded_decisions(monkeypatch, harness, **kwargs):
    """Each ``decide`` call's episodes in a run of ``harness``, and the picks it gets for every row at 7 options."""
    decided, picks = [], []

    def spy(counts, table, priors, pick):
        rows = np.arange(counts.shape[1])
        picks.append(pick(rows, np.full((counts.shape[0], rows.size), 7)))
        decided.append(decide(counts, table, priors, pick))
        return decided[-1]

    decide = experiments.decide
    monkeypatch.setattr(experiments, "decide", spy)
    harness(**kwargs)
    monkeypatch.undo()
    return decided, picks


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

    @pytest.mark.parametrize("n", [None, 500])
    def test_draws_pinned(self, exp1_scenario, n):
        """Bin ``k``'s densities are the KDE of ``n_pos`` positive, then ``n_neg`` negative draws of the stream
        ``(seed, SCORE_STREAM, k)``, bit for bit; the golden digests leave exp1 out, so this pins its draws."""
        result = experiment1_distribution_shift(exp1_scenario, n_pos=n, n_neg=n)
        i, seed = exp1_scenario.kde_attribute, exp1_scenario.seed
        drawn = {}
        for k in range(exp1_scenario.n_bins):
            rng = derived_rng(seed, SCORE_STREAM, k)
            for truth, size in (("pos", result.n_pos), ("neg", result.n_neg)):
                model = exp1_scenario.score_models[(i, truth, k)]
                drawn[truth, k] = rng.normal(model.mean, model.stddev, size=size)
        everything = np.concatenate(list(drawn.values()))
        grid = np.linspace(everything.min() - 3.0 * EXP1_BANDWIDTH, everything.max() + 3.0 * EXP1_BANDWIDTH, EXP1_GRID_POINTS)
        assert np.array_equal(result.grid, grid)
        for k in range(exp1_scenario.n_bins):
            assert np.array_equal(result.pos_density[k], kde_density(drawn["pos", k], EXP1_BANDWIDTH, grid))
            assert np.array_equal(result.neg_density[k], kde_density(drawn["neg", k], EXP1_BANDWIDTH, grid))


class TestExperiment2:
    def test_error_decomposition(self, exp2_scenario):
        curve = experiment2_threshold_comparison(exp2_scenario, trials=150)
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


    def test_systems_share_a_trials_pick(self, exp2_scenario, monkeypatch):
        """Both systems' rows of trial ``t`` get the same pick at every checkpoint, and the picks vary by trial."""
        _, picks = recorded_decisions(monkeypatch, experiment2_threshold_comparison, scenario=exp2_scenario, trials=50)
        assert len(picks) == 2 and picks[0].shape == (8, 50)
        assert np.array_equal(picks[0], picks[1])
        assert len(set(picks[0][0].tolist())) > 1

    def test_a_shorter_run_decides_its_trials_alike(self, exp2_scenario, monkeypatch):
        """Trial ``t`` reads row ``t`` of the run's draws, so a run of 20 trials decides as the first 20 of 45."""
        runs = [
            recorded_decisions(monkeypatch, experiment2_threshold_comparison, scenario=exp2_scenario, trials=trials)[0]
            for trials in (20, 45)
        ]
        for short, full in zip(*runs):
            assert np.array_equal(short.winners, full.winners[:, :20])
            assert np.array_equal(short.random, full.random[:, :20])

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

    def test_systems_share_a_trials_pick(self, exp3_scenario, monkeypatch):
        """In every bin, the three systems' rows of trial ``t`` get the same pick from equal option counts, and the
        picks vary from trial to trial."""
        picks = []

        def spy(counts, table, priors, pick):
            rows = np.arange(counts.shape[1])  # system after system, trials each
            picks.append(pick(rows, np.full((1, rows.size), 7)).reshape(len(EXP3_SYSTEMS), -1))
            return decide(counts, table, priors, pick)

        decide = experiments.decide
        monkeypatch.setattr(experiments, "decide", spy)
        experiments.experiment3_attribute_families(exp3_scenario, trials=50)
        assert len(picks) == exp3_scenario.n_bins
        for bin_picks in picks:
            assert bin_picks.shape == (3, 50) and (bin_picks == bin_picks[0]).all()
            assert len(set(bin_picks[0].tolist())) > 1

    def test_a_shorter_run_decides_its_trials_alike(self, exp3_scenario, monkeypatch):
        """In every bin and system, a run of 20 trials decides as the first 20 of 45."""
        runs = [
            recorded_decisions(monkeypatch, experiment3_attribute_families, scenario=exp3_scenario, trials=trials)[0]
            for trials in (20, 45)
        ]
        assert len(runs[0]) == exp3_scenario.n_bins
        for short, full in zip(*runs):
            assert np.array_equal(short.winners.reshape(3, 20), full.winners.reshape(3, 45)[:, :20])

    def test_shipped_scenario_orderings(self, exp3_scenario):
        result = experiment3_attribute_families(exp3_scenario, trials=250)
        fine = result.accuracy[:, 0]
        coarse = result.accuracy[:, 1]
        alla = result.accuracy[:, 2]
        slack = result.halfwidths.max(axis=1)
        assert np.all(alla >= np.maximum(fine, coarse) - slack)
        assert coarse[-1] > fine[-1]


def assert_pass_decides_as_reference(cases, seed):
    """Each case of :func:`decide_exact_cases` against the one-case reference decided by ``decide_codes``.

    Returns each case's (objects, attributes).
    """
    truths, tied, log_weights = decide_exact_cases(cases, seed)
    shapes = []
    cases_drawn = exact_recognition_cases(derived_rng(seed, CASE_STREAM), cases)
    for c, (catalog, stats, keys, truth, observed) in enumerate(cases_drawn):
        episodes = decide_codes(observed[None], keys, catalog, stats, [observed.size], lambda _, n: np.zeros_like(n))
        n = catalog.n_objects
        assert truths[c] == truth
        assert tied[c, :n].tolist() == episodes.tied[0, 0].tolist()
        assert not tied[c, n:].any()  # a padded object slot is never tied
        np.testing.assert_allclose(log_weights[c, :n], episodes.log_weights[0], rtol=1e-12, atol=0)
        shapes.append((n, catalog.n_attributes))
    return shapes


class TestTheoremSuites:
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=40))
    @example(0, 1)
    @example(384, 4)  # case 2's log weight cancels; off by 4.8e-12 unless the pass rescales as the catalog does
    @example(5259, 8)  # case 7's log weight cancels; off by 1.6e-12 unless the attribute priors sum object by object
    @settings(max_examples=40, deadline=None)
    def test_pass_decides_each_case_as_the_reference(self, seed, cases):
        assert_pass_decides_as_reference(cases, seed)

    def test_padded_prior_stats_equal_each_catalogs(self):
        """The stats of the one-case catalogs, padded to 6 objects and 8 attributes, equal each catalog's bit for bit:
        the attribute priors sum the objects in order, whatever the padding (a matmul's order depends on the shape,
        and put case 7's last bit off)."""
        catalogs = [case[0] for case in exact_recognition_cases(derived_rng(5259, CASE_STREAM), 8)]
        matrix, priors = np.zeros((len(catalogs), 6, 8), dtype=np.int8), np.zeros((len(catalogs), 6))
        for c, catalog in enumerate(catalogs):
            matrix[c, : catalog.n_objects, : catalog.n_attributes] = catalog.matrix
            priors[c, : catalog.n_objects] = catalog.priors
        padded = prior_stats(matrix, priors)
        for c, catalog in enumerate(catalogs):
            n, m, stats = catalog.n_objects, catalog.n_attributes, compute_stats(catalog)
            for name in ("attribute_priors", "prior_ratio_pos", "prior_ratio_neg", "usable"):
                assert getattr(padded, name)[c, :m].tobytes() == getattr(stats, name).tobytes(), (c, name)
            assert padded.positive_mask[c, :m, :n].tobytes() == stats.positive_mask.tobytes()

    def test_pass_pads_a_small_case_beside_a_full_one(self):
        assert assert_pass_decides_as_reference(2, seed=2375) == [(2, 3), (6, 8)]

    def test_report_structure(self):
        report = theorem_suites(trials=300, seed=3, exact_cases=150, k_checkpoints=(5, 50))
        assert report.exact_pass and report.exact_correct == 150
        assert report.convergence_k == (5, 50)
        assert report.convergence_pass
        assert report.all_pass

    @pytest.mark.parametrize(
        "error, passed",
        [((0.0, 0.3, 0.0), False), ((0.2, 0.2, 0.0), False), ((0.2, 0.1, 0.01), True), ((0.0, 0.0, 0.0), True)],
    )
    def test_convergence_check_needs_a_fall_or_no_error_at_the_second_checkpoint(self, monkeypatch, error, passed):
        """An error that rises or stays from the first checkpoint to the second fails, unless it is 0 there."""
        monkeypatch.setattr(experiments, "exact_recognition_suite", lambda cases, seed: (cases, cases))
        monkeypatch.setattr(experiments, "convergence_suite", lambda *args, **kwargs: ((5, 50, 200), np.array(error)))
        report = theorem_suites()
        assert report.convergence_error == error and report.convergence_pass is passed

    def test_a_shorter_convergence_run_decides_its_trials_alike(self, monkeypatch):
        """A convergence run of 30 trials decides as the first 30 of 70 at every checkpoint."""
        (short,), _ = recorded_decisions(monkeypatch, convergence_suite, trials=30, seed=8, k_checkpoints=(1, 4, 9))
        (full,), _ = recorded_decisions(monkeypatch, convergence_suite, trials=70, seed=8, k_checkpoints=(1, 4, 9))
        assert short.winners.shape == (3, 30)
        assert np.array_equal(short.winners, full.winners[:, :30])

    @pytest.mark.parametrize(
        "name, value",
        [
            ("ppv", 0.0), ("ppv", -0.5), ("npv", 1.5), ("npv", math.nan), ("detection_rate", 1.5),
            ("true_negative_rate", -0.1), ("k_checkpoints", ()), ("k_checkpoints", (5, -1)),
        ],
    )
    @pytest.mark.parametrize("harness", [convergence_suite, theorem_suites])
    def test_impossible_arguments_rejected_before_any_draw(self, monkeypatch, harness, name, value):
        """A predictive value outside (0, 1], a rate outside [0, 1], or no or a negative checkpoint, is a ValueError
        that names the argument and its value, raised before any generator is built."""
        def no_draw(*args):
            raise AssertionError("drew before checking the arguments")

        monkeypatch.setattr(experiments, "derived_rng", no_draw)
        with pytest.raises(ValueError, match=rf"^{name} must .*, got {re.escape(repr(value))}$"):
            harness(trials=50, seed=1, **{name: value})

    def test_noise_free_classifiers_never_err(self):
        k_values, error = convergence_suite(
            trials=100, seed=4, k_checkpoints=(1, 3), ppv=1.0, npv=1.0,
            detection_rate=1.0, true_negative_rate=1.0,
        )
        assert np.all(error == 0.0)


    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_exact_recognition_case_format(self, seed):
        for catalog, stats, keys, truth, observed in exact_recognition_cases(np.random.default_rng(seed), 4):
            matrix, m = catalog.matrix, catalog.n_attributes
            assert (matrix.any(axis=0) & ~matrix.all(axis=0)).all()  # every column mixed
            assert len({tuple(row) for row in matrix.tolist()}) == catalog.n_objects
            # one key per attribute, in index order, carrying the truth's outcome and its predictive value
            assert [i for i, _, _ in keys] == list(range(m))
            for i, outcome, value in keys:
                assert outcome == ("positive" if matrix[truth, i] else "negative")
                floor = predictive_value_floors(stats)[outcome == "negative"][i]
                assert floor <= value <= 1.0
            # each attribute code once, then at most 3 repeats
            assert observed[:m].tolist() == list(range(m))
            assert observed.size - m <= 3 and set(observed[m:].tolist()) <= set(range(m))

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=40))
    @settings(max_examples=100, deadline=None)
    def test_case_draw_equals_the_reference_draw(self, seed, cases):
        """The case draw, with its fixed arrays built once, returns the reference draw's arrays, dtypes included."""
        drawn = experiments._draw_exact_cases(derived_rng(seed, CASE_STREAM), cases)
        expected = reference_exact_draw(derived_rng(seed, CASE_STREAM), cases)
        for array, reference in zip(drawn, expected, strict=True):
            assert array.dtype == reference.dtype and array.shape == reference.shape
            assert np.array_equal(array, reference)

    def test_case_sizes_cover_their_ranges(self):
        """One array draw of 400 cases gives every object count 2-6, attribute count 3-8 and repeat count 0-3."""
        shapes = {
            (catalog.n_objects, catalog.n_attributes, observed.size - catalog.n_attributes)
            for catalog, _, _, _, observed in exact_recognition_cases(derived_rng(5, CASE_STREAM), 400)
        }
        assert [sorted({shape[axis] for shape in shapes}) for axis in range(3)] == [
            [2, 3, 4, 5, 6], [3, 4, 5, 6, 7, 8], [0, 1, 2, 3]
        ]


class TestCountChecks:
    @pytest.mark.parametrize(
        "harness, kwargs, name, value",
        [
            ("convergence", {}, "trials", -3),
            ("convergence", {}, "trials", 0),
            ("theorems", {}, "trials", 0),
            ("theorems", {"trials": 50}, "exact_cases", 0),
            ("exact", {}, "cases", -1),
            ("exact", {}, "cases", 0),
            ("exp1", {"n_neg": 5}, "n_pos", -1),
            ("exp1", {"n_neg": 0}, "n_pos", 0),
            ("exp1", {"n_pos": 5}, "n_neg", 0),
            ("exp2", {"trials": 50}, "k_list", (-1, 2)),
            ("exp2", {"trials": 50}, "k_list", ()),
            ("exp2", {}, "trials", -1),
            ("exp2", {}, "trials", 0),
            ("exp3", {}, "trials", -1),
            ("exp3", {}, "trials", 0),
            ("exp3", {"trials": 50}, "rounds_per_bin", -1),
            # counts that are not integers: numpy's bare TypeError, or a K truncated by int()
            ("convergence", {}, "trials", 2.5),
            ("convergence", {}, "trials", True),
            ("convergence", {"trials": 50}, "k_checkpoints", (5.5, 50)),
            ("theorems", {"trials": 50}, "exact_cases", 2.0),
            ("exact", {}, "cases", 2.5),
            ("exp2", {"trials": 50}, "k_list", (1.7,)),
            ("exp3", {"trials": 50}, "rounds_per_bin", 1.5),
        ],
    )
    def test_bad_counts_rejected_before_any_draw(
        self, monkeypatch, exp1_scenario, exp2_scenario, exp3_scenario, harness, kwargs, name, value
    ):
        """A trial, case or sample count below 1, no or a negative K, negative rounds, or a count that is not an
        integer (a float or a bool), is a ValueError that names the argument and its value, raised before any
        generator is built."""
        def no_draw(*args):
            raise AssertionError("drew before checking the arguments")

        run = {
            "convergence": partial(convergence_suite, seed=1),
            "theorems": partial(theorem_suites, seed=1),
            "exact": partial(exact_recognition_suite, seed=1),
            "exp1": partial(experiment1_distribution_shift, exp1_scenario),
            "exp2": partial(experiment2_threshold_comparison, exp2_scenario),
            "exp3": partial(experiment3_attribute_families, exp3_scenario),
        }[harness]
        monkeypatch.setattr(experiments, "derived_rng", no_draw)
        with pytest.raises(ValueError, match=rf"^{name} must .*, got {re.escape(repr(value))}$"):
            run(**kwargs, **{name: value})

    def test_numpy_integer_counts_are_accepted(self):
        """numpy integers are counts: they run as the equal Python integers do."""
        k_values, error = convergence_suite(np.int64(20), 1, k_checkpoints=(np.int64(5), 50))
        expected_k, expected_error = convergence_suite(20, 1, k_checkpoints=(5, 50))
        assert k_values == expected_k and all(type(k) is int for k in k_values)
        assert error.tobytes() == expected_error.tobytes()
        assert exact_recognition_suite(np.int64(3), 1) == (3, 3)

    def test_no_observations_decide_on_the_priors(self, exp2_scenario, exp3_scenario):
        """K = 0 and 0 rounds per bin are legal: every trial is decided on the priors alone."""
        curve = experiment2_threshold_comparison(exp2_scenario, k_list=(0, 2), trials=30)
        assert curve.k_values == (0, 2)
        assert curve.two_threshold_error[0] == curve.single_threshold_error[0]  # both estimators decide the priors
        result = experiment3_attribute_families(exp3_scenario, trials=30, rounds_per_bin=0)
        assert (result.accuracy == result.accuracy[:, :1]).all()  # no system sees a score


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
        assert record["stream_layout"] == STREAM_LAYOUT == "run"
        assert record["scenario_sha256"] == exp2_scenario.sha256
        assert record["version"]
