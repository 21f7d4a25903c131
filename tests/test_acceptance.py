"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""
import dataclasses
import itertools
import time

import numpy as np

from attrfuse.catalog import ObjectCatalog, compute_stats
from attrfuse.classifier import calibrate_bins
from attrfuse.fusion import posterior
from attrfuse.experiments import (
    convergence_suite,
    exact_recognition_suite,
    experiment2_threshold_comparison,
    experiment3_attribute_families,
    write_exp2_csv,
    write_exp3_csv,
)
from attrfuse.simulator import calibrate_scenario, classify_scores, draw_training_sets
from attrfuse.streams import CALIBRATION_STREAM, derived_rng

from oracles import count_rates, decide_codes, factor_codes, fuse_pick, make_synthetic_model, pair_record, posterior_oracle


def _report(number: int, description: str, passed: bool):
    marker = "PASS" if passed else "FAIL"
    print(f"[{marker}] acceptance {number}: {description}")
    assert passed, f"acceptance criterion {number} failed: {description}"


def _catalog(matrix, priors):
    matrix = np.asarray(matrix)
    return ObjectCatalog(
        objects=tuple(f"o{j}" for j in range(matrix.shape[0])),
        attributes=tuple(f"a{i}" for i in range(matrix.shape[1])),
        matrix=matrix,
        priors=np.asarray(priors, dtype=float),
    )


def _log_weights(catalog, stats, codes, keys):
    """The engine's MAP log weights of one row of codes into ``keys``."""
    episodes = decide_codes(codes, keys, catalog, stats, [codes.shape[1]], fuse_pick(0))
    return episodes.log_weights[0]


def _fused(catalog, stats, observations):
    """The engine's posterior after (model, outcome) observations in bin 0."""
    return posterior(_log_weights(catalog, stats, *factor_codes(observations)))


def test_criterion_1_exhaustive_small_case_oracle():
    """Posteriors match an exact direct-product oracle on all small cases."""
    start = time.monotonic()
    catalogs = [
        _catalog([[1, 0], [0, 1]], [0.5, 0.5]),
        _catalog([[1, 0, 0], [1, 1, 0], [0, 1, 1]], [0.5, 0.25, 0.25]),
        _catalog([[1, 0, 1], [1, 0, 1], [0, 1, 0], [1, 1, 0]], [0.3, 0.2, 0.4, 0.1]),
        _catalog([[1, 0, 0, 1], [0, 1, 0, 1], [1, 1, 1, 0], [0, 0, 1, 0]], [0.125, 0.125, 0.25, 0.5]),
    ]
    ppv_pool = (0.96, 0.9, 0.85, 0.99)
    npv_pool = (0.95, 0.97, 0.88, 0.92)
    outcomes = ("positive", "negative", "uncertain")
    cases = 0
    worst = 0.0
    for catalog in catalogs:
        stats = compute_stats(catalog)
        m = catalog.n_attributes
        ppv, npv = ppv_pool[:m], npv_pool[:m]
        models = {i: make_synthetic_model(i, ppv[i], npv[i]) for i in range(m)}
        slots = list(itertools.product(range(m), outcomes))
        for length in range(4):
            for sequence in itertools.product(slots, repeat=length):
                probs = _fused(catalog, stats, [(models[i], o) for i, o in sequence])
                expected = posterior_oracle(
                    catalog.priors.tolist(), catalog.matrix.tolist(), list(sequence), ppv, npv
                )
                worst = max(worst, float(np.max(np.abs(probs - np.asarray(expected)))))
                cases += 1
    elapsed = time.monotonic() - start
    _report(
        1,
        f"{cases} exhaustive small cases match the exact oracle "
        f"(max deviation {worst:.2e} <= 1e-10, {elapsed:.1f}s < 10s)",
        worst <= 1e-10 and elapsed < 10.0,
    )


def test_criterion_2_exact_recognition_thousand_cases():
    """Bound-satisfying classifiers with correct unique evidence never miss."""
    start = time.monotonic()
    correct, cases = exact_recognition_suite(1000, seed=2024)
    elapsed = time.monotonic() - start
    _report(
        2,
        f"{correct}/{cases} randomized guaranteed-recognition cases correct ({elapsed:.1f}s < 60s)",
        correct == cases == 1000 and elapsed < 60.0,
    )


def test_criterion_3_convergence_worst_case():
    """Two complementary objects, ppv=npv=0.98, detection 0.5: error vanishes with K."""
    start = time.monotonic()
    k_values, error = convergence_suite(
        trials=4000, seed=99, k_checkpoints=(5, 50, 200),
        ppv=0.98, npv=0.98, detection_rate=0.5, true_negative_rate=0.5,
    )
    elapsed = time.monotonic() - start
    err = dict(zip(k_values, error))
    _report(
        3,
        f"convergence error K=5: {err[5]:.4f} > K=50: {err[50]:.4f}, "
        f"K=200: {err[200]:.4f} < 0.02 ({elapsed:.0f}s < 300s)",
        err[5] > err[50] and err[200] < 0.02 and elapsed < 300.0,
    )


def test_criterion_4_threshold_comparison(exp2_scenario, tmp_path):
    """Two-threshold fusion beats the single-threshold baseline beyond halfwidths."""
    curve = experiment2_threshold_comparison(exp2_scenario, k_list=range(1, 9), trials=2500)
    write_exp2_csv(curve, tmp_path)
    ks = curve.k_values
    two, single = curve.two_threshold_error, curve.single_threshold_error
    hw2, hw1 = curve.two_threshold_halfwidth, curve.single_threshold_halfwidth

    separated = all(
        single[i] - two[i] > hw1[i] + hw2[i]
        for i, k in enumerate(ks) if k >= 3
    )

    def monotone(err, hw):
        inversions = [
            (err[i + 1] - err[i], hw[i] + hw[i + 1])
            for i in range(len(err) - 1) if err[i + 1] > err[i]
        ]
        return len(inversions) <= 1 and all(rise <= slack for rise, slack in inversions)

    mono = monotone(two, hw2) and monotone(single, hw1)
    _report(
        4,
        f"two-threshold below single-threshold beyond halfwidths for K>=3 "
        f"(errors at K=8: {two[-1]:.4f} vs {single[-1]:.4f}), curves monotone",
        separated and mono,
    )


def test_criterion_5_attribute_families(exp3_scenario, tmp_path):
    """All-attribute system dominates; coarse beats fine in the farthest bin."""
    result = experiment3_attribute_families(exp3_scenario, trials=1200, rounds_per_bin=3)
    write_exp3_csv(result, tmp_path)
    fine, coarse, alla = (result.accuracy[:, i] for i in range(3))
    hw_fine, hw_coarse, hw_all = (result.halfwidths[:, i] for i in range(3))
    dominates = all(
        alla[k] - max(fine[k], coarse[k]) > hw_all[k] + (hw_fine[k] if fine[k] >= coarse[k] else hw_coarse[k])
        for k in range(len(result.bins))
    )
    far = len(result.bins) - 1
    coarse_wins_far = coarse[far] - fine[far] > hw_coarse[far] + hw_fine[far]
    _report(
        5,
        f"all >= max(fine, coarse) in every bin beyond halfwidths and "
        f"coarse ({coarse[far]:.3f}) > fine ({fine[far]:.3f}) in the farthest bin",
        dominates and coarse_wins_far,
    )


def test_criterion_6_calibration_contract(exp1_scenario, exp2_scenario, exp3_scenario):
    """Every reliable (attribute, bin) meets PPV >= 0.96 and detection >= 0.09 by exact count."""
    checked = 0
    ok = True
    for scenario in (exp1_scenario, exp2_scenario, exp3_scenario):
        training = draw_training_sets(scenario, derived_rng(scenario.seed, CALIBRATION_STREAM))
        models = calibrate_scenario(scenario, derived_rng(scenario.seed, CALIBRATION_STREAM))
        for i, model in models.items():
            for k, cal in model.calibrations.items():
                if not cal.reliable:
                    continue
                pos, neg = training[(i, k)]
                ppv, detection, npv, tnr = count_rates(pos.tolist(), neg.tolist(), cal.theta_pos, cal.theta_neg)
                checked += 1
                ok &= ppv >= 0.96 and detection >= 0.09
    _report(
        6,
        f"{checked} reliable (attribute, bin) calibrations recounted: PPV >= 0.96, detection >= 0.09",
        ok and checked > 0,
    )


def test_criterion_7_invariant_suite(table1, exp2_scenario, tmp_path):
    """Normalization, order independence, no-ops, sweep determinism, seed reproducibility."""
    stats = compute_stats(table1)
    rng = np.random.default_rng(5)

    # normalization within 1e-12 after a pile of updates
    observations = []
    for _ in range(40):
        i = int(rng.integers(table1.n_attributes))
        model = make_synthetic_model(i, float(rng.uniform(0.7, 1.0)), float(rng.uniform(0.7, 1.0)))
        observations.append((model, ("positive", "negative")[int(rng.integers(2))]))
    normalization_ok = abs(_fused(table1, stats, observations).sum() - 1.0) <= 1e-12

    # order independence within 1e-10 in log domain
    models = {i: make_synthetic_model(i, 0.92 + 0.005 * i, 0.9 + 0.005 * i) for i in range(10)}
    observations = [
        (int(rng.integers(10)), ("positive", "negative")[int(rng.integers(2))]) for _ in range(12)
    ]

    def log_posterior(sequence):
        return np.log(_fused(table1, stats, [(models[i], o) for i, o in sequence]))

    reference = log_posterior(observations)
    order_ok = all(
        np.allclose(
            log_posterior([observations[j] for j in rng.permutation(len(observations))]),
            reference,
            atol=1e-10,
        )
        for _ in range(20)
    )

    # uncertain outcomes and unreliable bins are exact no-ops: no key is counted
    # (synthetic thresholds sit at 0 and 1; bin 3 is not reliable)
    unreliable = dataclasses.replace(models[0].calibrations[0], reliable=False)
    gated = {0: dataclasses.replace(models[0], calibrations={**models[0].calibrations, 3: unreliable})}
    codes, keys = classify_scores(gated, [0, 0, 0], [0, 3, 3], np.array([[0.5, -1.0, 2.0]]))
    weights = _log_weights(table1, stats, codes, keys)
    noop_ok = (codes == len(keys)).all() and weights.tobytes() == np.log(table1.priors).tobytes()

    # threshold sweep determinism under input permutation and repetition
    pos = rng.normal(10, 3, 40)
    neg = rng.normal(18, 3, 60)
    sweep_ok = (
        pair_record(calibrate_bins, pos, neg)
        == pair_record(calibrate_bins, pos[::-1].copy(), neg[::-1].copy())
        == pair_record(calibrate_bins, pos, neg)
    )

    # seed reproducibility: two runs emit byte-identical CSVs
    a = experiment2_threshold_comparison(exp2_scenario, trials=100)
    b = experiment2_threshold_comparison(exp2_scenario, trials=100)
    pa = write_exp2_csv(a, tmp_path / "run-a")
    pb = write_exp2_csv(b, tmp_path / "run-b")
    repro_ok = pa.read_bytes() == pb.read_bytes()

    _report(
        7,
        "invariants: normalization 1e-12, order independence 1e-10, no-op gating, "
        "sweep determinism, byte-identical reruns",
        normalization_ok and order_ok and noop_ok and sweep_ok and repro_ok,
    )
