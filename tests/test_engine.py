"""The batched episode engine against the one-observation, one-row path it replaced (``tests/oracles.py``)."""
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attrfuse import experiments
from attrfuse.catalog import ObjectCatalog, compute_stats
from attrfuse.classifier import BinCalibration, ClassifierModel, classify_scores
from attrfuse.experiments import (
    convergence_suite,
    experiment2_threshold_comparison,
    experiment3_attribute_families,
    single_threshold_models,
)
from attrfuse.fusion import factor_table, map_log_weights, tally
from attrfuse.simulator import (
    ScoreModel,
    Scenario,
    calibrate_from_sets,
    calibrate_scenario,
    draw_scores,
    draw_training_sets,
)
from attrfuse.streams import CALIBRATION_STREAM, PICK_STREAM, SCORE_STREAM, derived_rng, uniform_picks

from oracles import (
    Observation,
    classify,
    counted_posterior,
    decide,
    decide_codes,
    make_observation,
    make_synthetic_model,
    reference_convergence,
    sample_score,
    update,
)

PREDICTIVE_VALUES = (1.0, 0.9, 0.75)


@st.composite
def engine_cases(draw):
    """A catalog with tied or distinct priors, sorted factor keys, and code matrices over them."""
    n_objects = draw(st.integers(2, 5))
    n_attributes = draw(st.integers(1, 3))
    columns = []
    for _ in range(n_attributes):
        column = draw(st.lists(st.integers(0, 1), min_size=n_objects, max_size=n_objects))
        if len(set(column)) == 1:
            column[0] = 1 - column[0]  # every attribute must vary across the catalog
        columns.append(column)
    matrix = np.array(columns).T
    weights = np.array(draw(st.lists(st.sampled_from((1, 1, 2, 3)), min_size=n_objects, max_size=n_objects)))
    catalog = ObjectCatalog(
        objects=tuple(f"o{j}" for j in range(n_objects)),
        attributes=tuple(f"a{i}" for i in range(n_attributes)),
        matrix=matrix,
        priors=weights / weights.sum(),
    )
    key_pool = [(i, o, v) for i in range(n_attributes) for o in ("negative", "positive") for v in PREDICTIVE_VALUES]
    keys = sorted(draw(st.sets(st.sampled_from(key_pool), min_size=1, max_size=6)))
    rows = draw(st.integers(1, 6))
    n_draws = draw(st.integers(0, 8))
    codes = np.array(
        draw(st.lists(st.lists(st.integers(0, len(keys)), min_size=n_draws, max_size=n_draws), min_size=rows, max_size=rows)),
        dtype=np.intp,
    ).reshape(rows, n_draws)
    return catalog, keys, codes


def _row_counts(keys, codes_row):
    return dict(zip(keys, np.bincount(codes_row, minlength=len(keys) + 1).tolist()))


@settings(max_examples=300, deadline=None)
@given(engine_cases(), st.integers(0, 2**31 - 1))
def test_batch_rows_equal_one_row_posteriors_and_decisions(case, seed):
    catalog, keys, codes = case
    stats = compute_stats(catalog)
    counts = np.stack([np.bincount(row, minlength=len(keys) + 1)[:-1] for row in codes])
    hits, finite = tally(np.log(catalog.priors), counts, factor_table(keys, stats))
    batched = map_log_weights(hits, finite)

    half = codes.shape[1] // 2
    checkpoints = [half, codes.shape[1]]
    u = derived_rng(seed).random((len(codes), len(checkpoints)))  # row r's pick uniform at each checkpoint
    episodes = decide_codes(codes, keys, catalog, stats, checkpoints, uniform_picks(u))
    # the engine's last-checkpoint rows are the batched tally's
    assert episodes.hits.tobytes() == hits.tobytes() and episodes.log_weights.tobytes() == batched.tobytes()
    for r, row in enumerate(codes):
        state = counted_posterior(catalog, stats, _row_counts(keys, row))
        # the one-row tally over the positive counts in key order is the batched row itself
        assert state.hits.tobytes() == hits[r].tobytes() and state.finite.tobytes() == finite[r].tobytes()
        assert list(state.counts) == [key for key, n in zip(keys, counts[r]) if n]
        assert batched[r].tobytes() == state.log_weights.tobytes()
        for c, stop in enumerate(checkpoints):
            decision = decide(counted_posterior(catalog, stats, _row_counts(keys, row[:stop])), catalog, u=u[r, c])
            assert episodes.winners[c, r] == decision.winner
            assert tuple(np.flatnonzero(episodes.tied[c, r]).tolist()) == decision.candidates
            assert episodes.random[c, r] == (decision.tie_broken_by == "random")


def _two_attribute_scenario():
    catalog = ObjectCatalog(
        objects=("a", "b", "c"),
        attributes=("x", "y"),
        matrix=np.array([[1, 0], [0, 1], [1, 1]]),
        priors=np.array([0.5, 0.25, 0.25]),
    )
    models = {
        (0, "pos", 0): ScoreModel("gaussian", 3.0, 1.7),
        (0, "neg", 0): ScoreModel("gaussian", 9.25, 2.1),
        (1, "pos", 0): ScoreModel("gaussian", -4.0, 0.3),
        (1, "neg", 0): ScoreModel("gaussian", 1.1, 3.3),
    }
    return Scenario(catalog=catalog, bins=((0.0, 1.0),), score_models=models, seed=3)


def test_draw_scores_equal_sample_score():
    """Scores from one (rows, columns) block equal scalar draws of a fresh generator of the stream, row after row."""
    scenario = _two_attribute_scenario()
    attributes, bins = [0, 1, 1, 0, 1], [0] * 5
    z = derived_rng(8, 1).standard_normal((3, len(attributes)))
    scores = draw_scores(scenario, np.array([0, 1, 2]), attributes, bins, z)
    rng = derived_rng(8, 1)
    for gt in range(3):
        for c, i in enumerate(attributes):
            truth = "pos" if scenario.catalog.matrix[gt, i] else "neg"
            assert scores[gt, c] == sample_score(scenario, i, truth, 0, rng)


def _cal(theta_pos, theta_neg, reliable=True):
    return BinCalibration(theta_pos, theta_neg, 0.97 if reliable else None, 0.9, 0.5, 0.5, 0.01, 0.05, reliable)


@pytest.mark.parametrize("orientation", ["lower_is_positive", "higher_is_positive"])
def test_classify_scores_equal_classify(orientation):
    lo, hi = (1.0, 2.0) if orientation == "lower_is_positive" else (2.0, 1.0)
    models = {
        0: ClassifierModel(0, orientation, {0: _cal(lo, hi), 1: _cal(1.5, 1.5)}),
        1: ClassifierModel(1, orientation, {0: _cal(None, hi, reliable=False), 1: _cal(lo, hi)}),
    }
    attributes, bins = [0, 0, 1, 1], [0, 1, 0, 1]
    scores = np.array([[s] * 4 for s in (0.5, 1.0, 1.5, 2.0, 2.5)])  # thresholds hit exactly
    codes, keys = classify_scores(models, attributes, bins, scores)
    outcomes = [key[1] for key in keys] + ["uncertain"]
    for r in range(scores.shape[0]):
        for c, (i, k) in enumerate(zip(attributes, bins)):
            assert outcomes[codes[r, c]] == classify(models[i], k, scores[r, c])
            if codes[r, c] < len(keys):
                cal = models[i].calibrations[k]
                assert keys[codes[r, c]][::2] == (i, cal.ppv if outcomes[codes[r, c]] == "positive" else cal.npv)


# ---------------------------------------------------------------------------
# The per-observation loops the engine replaced, kept as references: same
# streams, same classify/update/decide calls per draw. Trial t reads row t of
# the run's (trials, n) block: scalar draws of the run's one generator,
# trial after trial, n per trial; each checkpoint reads the trial's next pick
# uniform.


def _reference_exp2(scenario, k_values, trials, seed):
    catalog = scenario.catalog
    stats = compute_stats(catalog)
    training = draw_training_sets(scenario, derived_rng(seed, CALIBRATION_STREAM))
    systems = (calibrate_from_sets(scenario, training), single_threshold_models(scenario, training))
    attrs = sorted(systems[0])
    bin_index = scenario.schedule[0][0] if scenario.schedule else 0
    wrong = np.zeros((3, len(k_values), trials), dtype=bool)  # two, single, two by random pick
    rng, pick = derived_rng(seed, SCORE_STREAM), derived_rng(seed, PICK_STREAM)
    for t in range(trials):
        gt = t % catalog.n_objects
        states = [counted_posterior(catalog, stats, {})] * 2
        for k in range(1, k_values[-1] + 1):
            for i in attrs:
                score = sample_score(scenario, i, "pos" if catalog.matrix[gt, i] else "neg", bin_index, rng)
                for s, models in enumerate(systems):
                    states[s] = update(states[s], make_observation(models[i], bin_index, score), models[i], catalog, stats)
            if k in k_values:
                slot = k_values.index(k)
                u = pick.random()  # both systems pick with the trial's uniform at the checkpoint
                decisions = [decide(states[s], catalog, u=u) for s in (0, 1)]
                for s in (0, 1):
                    wrong[s, slot, t] = decisions[s].winner != gt
                wrong[2, slot, t] = wrong[0, slot, t] and decisions[0].tie_broken_by == "random"
    return wrong.mean(axis=2)


def _reference_exp3(scenario, trials, rounds, seed):
    families = scenario.families
    systems = (families["fine"], families["coarse"], tuple(sorted(set().union(*families.values()))))
    catalog = scenario.catalog
    stats = compute_stats(catalog)
    models = calibrate_scenario(scenario, derived_rng(seed, CALIBRATION_STREAM))
    correct = np.zeros((scenario.n_bins, 3, trials), dtype=bool)
    for k in range(scenario.n_bins):
        rng, pick = derived_rng(seed, SCORE_STREAM, k), derived_rng(seed, PICK_STREAM, k)
        for t in range(trials):
            gt = t % catalog.n_objects
            start, u = rng.bit_generator.state, pick.random()  # every system starts at the trial's row, with its uniform
            # the last system, the union, reads the whole row, so the generator ends where row t ends
            for s, attrs in enumerate(systems):
                rng.bit_generator.state = start
                state = counted_posterior(catalog, stats, {})
                for _ in range(rounds):
                    for i in attrs:
                        score = sample_score(scenario, i, "pos" if catalog.matrix[gt, i] else "neg", k, rng)
                        state = update(state, make_observation(models[i], k, score), models[i], catalog, stats)
                correct[k, s, t] = decide(state, catalog, u=u).winner == gt
    return correct.mean(axis=2)


def _reference_convergence(trials, seed, k_values, ppv, npv, d, s):
    catalog = ObjectCatalog(("first", "second"), ("mark-a", "mark-b"), np.array([[1, 0], [0, 1]]), np.array([0.5, 0.5]))
    stats = compute_stats(catalog)
    models = {i: make_synthetic_model(i, ppv, npv, detection_rate=d, true_negative_rate=s) for i in (0, 1)}
    q = 0.0 if ppv >= 1.0 else d * (1.0 - ppv) / ppv
    v = 0.0 if npv >= 1.0 else s * (1.0 - npv) / npv
    wrong = np.zeros((len(k_values), trials), dtype=bool)
    rng, pick = derived_rng(seed, SCORE_STREAM), derived_rng(seed, PICK_STREAM)
    for t in range(trials):
        state = counted_posterior(catalog, stats, {})
        for k in range(1, k_values[-1] + 1):
            for i in (0, 1):
                u = rng.random()
                if i == 0:  # the ground truth (object 0) has attribute 0
                    outcome = "positive" if u < d else "negative" if u < d + v else "uncertain"
                else:
                    outcome = "negative" if u < s else "positive" if u < s + q else "uncertain"
                state = update(state, Observation(i, 0, outcome), models[i], catalog, stats)
            if k in k_values:
                wrong[k_values.index(k), t] = decide(state, catalog, u=pick.random()).winner != 0
    return wrong.mean(axis=1)


def _mirrored(scenario):
    """The same scenario with negated scores and higher scores meaning positive."""
    models = {key: ScoreModel(m.family, -m.mean, m.stddev) for key, m in scenario.score_models.items()}
    return dataclasses.replace(scenario, score_models=models, orientation="higher_is_positive")


@pytest.mark.parametrize("mirror", [False, True])
def test_exp2_equals_reference_loop(exp2_scenario, mirror):
    scenario = _mirrored(exp2_scenario) if mirror else exp2_scenario
    k_values = (1, 2, 4, 6)
    curve = experiment2_threshold_comparison(scenario, k_list=k_values, trials=150, seed=5)
    two, single, tie = _reference_exp2(scenario, k_values, 150, 5)
    assert curve.two_threshold_error.tobytes() == two.tobytes()
    assert curve.single_threshold_error.tobytes() == single.tobytes()
    assert curve.random_tie_error.tobytes() == tie.tobytes()


@pytest.mark.parametrize("mirror", [False, True])
def test_exp3_equals_reference_loop(exp3_scenario, mirror):
    scenario = _mirrored(exp3_scenario) if mirror else exp3_scenario
    result = experiment3_attribute_families(scenario, trials=36, rounds_per_bin=2, seed=11)
    assert result.accuracy.tobytes() == _reference_exp3(scenario, 36, 2, 11).tobytes()


@pytest.mark.parametrize("ppv, npv, d, s", [(0.98, 0.98, 0.5, 0.5), (1.0, 0.9, 0.3, 0.6), (0.7, 0.7, 0.2, 0.2)])
def test_convergence_equals_reference_loop(ppv, npv, d, s):
    k_values, error = convergence_suite(300, 8, k_checkpoints=(1, 4, 30), ppv=ppv, npv=npv, detection_rate=d, true_negative_rate=s)
    assert error.tobytes() == _reference_convergence(300, 8, k_values, ppv, npv, d, s).tobytes()


predictive_values = st.one_of(st.just(1.0), st.floats(math.ulp(0.0), 1.0))
rates = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
# trial 0's first two uniforms at seed 6, taken as the rates: a uniform equal to its rate is not below it
_ON_THE_RATE = derived_rng(6, SCORE_STREAM).random(2).tolist()


@given(
    trials=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    checkpoints=st.lists(st.integers(0, 30), min_size=1, max_size=5),
    ppv=predictive_values,
    npv=predictive_values,
    d=rates,
    s=rates,
)
@example(trials=40, seed=3, checkpoints=[9, 0, 4, 9], ppv=1.0, npv=1.0, d=0.6, s=0.3)
@example(trials=25, seed=4, checkpoints=[12, 3], ppv=0.3, npv=0.4, d=0.9, s=0.8)  # rate + false rate >= 1 for both keys
@example(trials=5, seed=6, checkpoints=[3], ppv=0.6, npv=0.7, d=_ON_THE_RATE[0], s=_ON_THE_RATE[1])
@settings(max_examples=150, deadline=None)
def test_convergence_counts_equal_the_code_matrix(trials, seed, checkpoints, ppv, npv, d, s):
    """The counts that the convergence suite reads off its uniforms, and its errors, equal those of the code matrix
    its two ``np.select`` passes built and ``count_codes`` counted."""
    passed = []

    def spy(counts, *args):
        passed.append(counts)
        return engine_decide(counts, *args)

    engine_decide = experiments.decide
    with mock.patch.object(experiments, "decide", spy):
        _, error = convergence_suite(
            trials, seed, k_checkpoints=checkpoints, ppv=ppv, npv=npv, detection_rate=d, true_negative_rate=s
        )
        expected_counts, expected_error = reference_convergence(trials, seed, checkpoints, ppv, npv, d, s)
    (counts,) = passed
    assert counts.dtype == expected_counts.dtype and np.array_equal(counts, expected_counts)
    assert error.tobytes() == expected_error.tobytes()


def test_mixed_bin_schedule_equals_reference_loop(exp3_scenario):
    """Columns across two bins: the engine's outcomes and decisions equal the per-observation loop's."""
    scenario = exp3_scenario
    catalog = scenario.catalog
    stats = compute_stats(catalog)
    models = calibrate_scenario(scenario)
    schedule = ((0, 1), (4, 2))
    columns = [(i, k) for k, rounds in schedule for _ in range(rounds) for i in sorted(models)]
    attrs, bins = [i for i, _ in columns], [k for _, k in columns]
    trials = 20
    truths = np.arange(trials) % catalog.n_objects
    scores = draw_scores(scenario, truths, attrs, bins, derived_rng(3, SCORE_STREAM).standard_normal((trials, len(columns))))
    codes, keys = classify_scores(models, attrs, bins, scores)
    u = derived_rng(3, PICK_STREAM).random((trials, 1))
    episodes = decide_codes(codes, keys, catalog, stats, [len(columns)], uniform_picks(u))
    outcomes = [key[1] for key in keys] + ["uncertain"]
    rng = derived_rng(3, SCORE_STREAM)
    for t, gt in enumerate(truths.tolist()):
        state = counted_posterior(catalog, stats, {})
        for c, (i, k) in enumerate(columns):
            score = sample_score(scenario, i, "pos" if catalog.matrix[gt, i] else "neg", k, rng)
            obs = make_observation(models[i], k, score)
            assert (scores[t, c], outcomes[codes[t, c]]) == (score, obs.outcome)
            state = update(state, obs, models[i], catalog, stats)
        decision = decide(state, catalog, u=u[t, 0])
        assert (episodes.winners[0, t], episodes.random[0, t]) == (decision.winner, decision.tie_broken_by == "random")
