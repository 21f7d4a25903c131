"""Desk-scale experiment reproductions and theorem harnesses, with CSV outputs.

Three experiments run entirely on synthetic scores:

1. distribution shift: per-bin KDE curves of one attribute's score
   distributions and an overlap coefficient per bin;
2. threshold comparison: error-vs-observations curves for the two-threshold
   fused estimator against a single min-error threshold baseline trained on
   the same (biased) data;
3. attribute families: per-bin recognition accuracy for fine-only,
   coarse-only, and all-attribute systems.

The theorem harnesses check, by Monte Carlo, that (a) bound-satisfying
classifiers with correct, uniquely identifying observations always produce
the correct MAP winner, and (b) in the adversarial two-object scenario with
complementary attributes, the error rate vanishes as observations accumulate.

All runs derive per-trial Philox streams from one base seed, so repeated runs
emit byte-identical CSV tables.
"""
from __future__ import annotations

import json
import math
import platform
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from attrfuse._version import __version__
from attrfuse.catalog import ObjectCatalog, compute_stats
from attrfuse.classifier import ClassifierModel, kde_density, make_synthetic_model, single_threshold_calibration
from attrfuse.fusion import counted_posterior, decide
from attrfuse.simulator import (
    CALIBRATION_STREAM,
    CASE_STREAM,
    PICK_STREAM,
    SCORE_STREAM,
    Scenario,
    ScenarioError,
    calibrate_from_sets,
    calibrate_scenario,
    classify_scores,
    decide_episodes,
    derived_rng,
    draw_scores,
    draw_training_sets,
    stream_draws,
)
from attrfuse.theory import required_predictive_values

_trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz  # numpy 2.0 renamed trapz to trapezoid

EXP3_SYSTEMS = ("fine", "coarse", "all")


def halfwidth(rate: float, n: int) -> float:
    """95% normal-approximation halfwidth for a Bernoulli rate estimate."""
    if n <= 0:
        return float("nan")
    return 1.96 * math.sqrt(rate * (1.0 - rate) / n)


# ---------------------------------------------------------------------------
# Experiment 1: score distributions depend on the environment bin


@dataclass(frozen=True)
class DistributionShiftResult:
    attribute_index: int
    bins: tuple[tuple[float, float], ...]
    grid: np.ndarray
    pos_density: np.ndarray
    neg_density: np.ndarray
    overlap: np.ndarray
    n_pos: int
    n_neg: int
    bandwidth: float


def experiment1_distribution_shift(
    scenario: Scenario,
    n_pos: int | None = None,
    n_neg: int | None = None,
    bandwidth: float = 3.0,
    grid_points: int = 256,
    seed: int | None = None,
    attribute_index: int | None = None,
) -> DistributionShiftResult:
    """Per-bin KDE curves for one attribute plus an overlap coefficient per bin.

    The overlap coefficient is the integral of the pointwise minimum of the
    positive- and negative-class density estimates; wider class overlap in a
    bin raises it. Default sample counts come from the scenario's per-object
    calibration counts.
    """
    if scenario.n_bins < 2:
        raise ScenarioError("distribution-shift experiment needs at least 2 bins")
    if seed is None:
        seed = scenario.seed
    i = scenario.kde_attribute if attribute_index is None else attribute_index
    catalog = scenario.catalog
    n_pos_objects = int(catalog.matrix[:, i].sum())
    n_neg_objects = catalog.n_objects - n_pos_objects
    if n_pos is None:
        n_pos = scenario.calibration.n_pos_per_object * max(n_pos_objects, 1)
    if n_neg is None:
        n_neg = scenario.calibration.n_neg_per_object * max(n_neg_objects, 1)

    pos_scores = []
    neg_scores = []
    for k in range(scenario.n_bins):
        rng = derived_rng(seed, SCORE_STREAM, k)
        pm = scenario.score_models[(i, "pos", k)]
        nm = scenario.score_models[(i, "neg", k)]
        pos_scores.append(rng.normal(pm.mean, pm.stddev, size=n_pos))
        neg_scores.append(rng.normal(nm.mean, nm.stddev, size=n_neg))

    everything = np.concatenate(pos_scores + neg_scores)
    lo = everything.min() - 3.0 * bandwidth
    hi = everything.max() + 3.0 * bandwidth
    grid = np.linspace(lo, hi, grid_points)
    pos_density = np.stack([kde_density(s, bandwidth, grid) for s in pos_scores])
    neg_density = np.stack([kde_density(s, bandwidth, grid) for s in neg_scores])
    overlap = np.array(
        [float(_trapezoid(np.minimum(pos_density[k], neg_density[k]), grid)) for k in range(scenario.n_bins)]
    )
    return DistributionShiftResult(
        attribute_index=i,
        bins=scenario.bins,
        grid=grid,
        pos_density=pos_density,
        neg_density=neg_density,
        overlap=overlap,
        n_pos=n_pos,
        n_neg=n_neg,
        bandwidth=bandwidth,
    )


# ---------------------------------------------------------------------------
# Experiment 2: two-threshold fusion vs a single min-error threshold


@dataclass(frozen=True)
class ErrorCurve:
    """Error rates per observation count for both estimators.

    ``random_tie_error`` is the component of the two-threshold error caused
    by forced random picks on ties, ``wrong_decision_error`` the rest; the
    two components sum to ``two_threshold_error`` exactly at every K.
    """

    k_values: tuple[int, ...]
    trials: int
    two_threshold_error: np.ndarray
    single_threshold_error: np.ndarray
    random_tie_error: np.ndarray
    wrong_decision_error: np.ndarray
    two_threshold_halfwidth: np.ndarray
    single_threshold_halfwidth: np.ndarray
    random_tie_halfwidth: np.ndarray


def single_threshold_models(
    scenario: Scenario,
    training_sets: Mapping[tuple[int, int], tuple[np.ndarray, np.ndarray]],
) -> dict[int, ClassifierModel]:
    """Binary baseline: one min-error threshold per bin, no uncertain zone.

    Each bin is a :func:`single_threshold_calibration` record, counted on the
    training sample as :func:`calibrate_bin` counts it, so the same fusion
    machinery consumes its observations.
    """
    models: dict[int, ClassifierModel] = {}
    for i in sorted({a for a, _ in training_sets}):
        cals = {}
        for k in range(scenario.n_bins):
            cals[k] = single_threshold_calibration(*training_sets[(i, k)], orientation=scenario.orientation, bin_index=k)
            if not cals[k].reliable:
                raise ScenarioError("degenerate single-threshold split: a predictive value is undefined")
        models[i] = ClassifierModel(attribute_index=i, orientation=scenario.orientation, calibrations=cals)
    return models


def experiment2_threshold_comparison(
    scenario: Scenario,
    k_list: Sequence[int] = tuple(range(1, 9)),
    trials: int = 1000,
    seed: int | None = None,
) -> ErrorCurve:
    """Error-vs-K curves for two-threshold fusion and the single-threshold baseline.

    Both estimators are trained on the same (biased) training draws and see
    the same test scores; each observation round scores every attribute once.
    Ground truths cycle through the catalog.
    """
    if seed is None:
        seed = scenario.seed
    catalog = scenario.catalog
    stats = compute_stats(catalog)
    training = draw_training_sets(scenario, derived_rng(seed, CALIBRATION_STREAM))
    two_models = calibrate_from_sets(scenario, training)
    single_models = single_threshold_models(scenario, training)
    attrs = sorted(two_models)
    bin_index = scenario.schedule[0][0] if scenario.schedule else 0

    k_values = tuple(sorted(set(int(k) for k in k_list)))
    # every round scores each attribute once; both estimators classify the same scores
    columns = attrs * k_values[-1]
    bins = [bin_index] * len(columns)
    ground_truths = np.arange(trials) % catalog.n_objects
    z = stream_draws(seed, (SCORE_STREAM,), trials, len(columns))
    scores = draw_scores(scenario, ground_truths, columns, bins, z)
    checkpoints = [k * len(attrs) for k in k_values]
    wrong, random = {}, {}
    for system, models in enumerate((two_models, single_models)):
        codes, keys = classify_scores(models, columns, bins, scores)
        winners, random[system] = decide_episodes(
            codes, keys, catalog, stats, checkpoints, lambda t, system=system: derived_rng(seed, PICK_STREAM, t, system)
        )
        wrong[system] = winners != ground_truths
    wrong_two, wrong_single = wrong[0], wrong[1]
    wrong_tie = wrong_two & random[0]

    err_two = wrong_two.mean(axis=1)
    err_single = wrong_single.mean(axis=1)
    err_tie = wrong_tie.mean(axis=1)
    return ErrorCurve(
        k_values=k_values,
        trials=trials,
        two_threshold_error=err_two,
        single_threshold_error=err_single,
        random_tie_error=err_tie,
        wrong_decision_error=(wrong_two & ~wrong_tie).mean(axis=1),
        two_threshold_halfwidth=np.array([halfwidth(e, trials) for e in err_two]),
        single_threshold_halfwidth=np.array([halfwidth(e, trials) for e in err_single]),
        random_tie_halfwidth=np.array([halfwidth(e, trials) for e in err_tie]),
    )


# ---------------------------------------------------------------------------
# Experiment 3: attribute families with different reliable ranges


@dataclass(frozen=True)
class FamilyAccuracyResult:
    bins: tuple[tuple[float, float], ...]
    systems: tuple[str, ...]
    accuracy: np.ndarray  # (n_bins, n_systems)
    halfwidths: np.ndarray
    trials: int
    rounds_per_bin: int


def experiment3_attribute_families(
    scenario: Scenario,
    trials: int = 1000,
    rounds_per_bin: int = 3,
    seed: int | None = None,
) -> FamilyAccuracyResult:
    """Per-bin accuracy of fine-only, coarse-only, and all-attribute systems.

    Every system restarts from the priors in each bin and observes
    ``rounds_per_bin`` times there. Systems share score and tie-pick streams,
    so a degenerate scenario where the families coincide yields exactly equal
    accuracies.
    """
    for name in ("fine", "coarse", "color"):
        if name not in scenario.families:
            raise ScenarioError(f"scenario does not define attribute family {name!r}")
    fine = tuple(scenario.families["fine"])
    coarse = tuple(scenario.families["coarse"])
    color = tuple(scenario.families["color"])
    systems: dict[str, tuple[int, ...]] = {
        "fine": fine,
        "coarse": coarse,
        "all": tuple(sorted(set(fine) | set(coarse) | set(color))),
    }
    if seed is None:
        seed = scenario.seed
    catalog = scenario.catalog
    stats = compute_stats(catalog)
    models = calibrate_scenario(scenario, derived_rng(seed, CALIBRATION_STREAM))

    ground_truths = np.arange(trials) % catalog.n_objects
    n_draws = rounds_per_bin * max(len(attrs) for attrs in systems.values())
    accuracy = np.zeros((scenario.n_bins, len(EXP3_SYSTEMS)))
    for k in range(scenario.n_bins):
        # each system reads a prefix of the trial's score draws, and its own
        # copy of the trial's pick stream: one generator, rewound per system
        z = stream_draws(seed, (SCORE_STREAM, k), trials, n_draws)
        picks: dict[int, tuple[np.random.Generator, dict]] = {}

        def pick(t: int, k: int = k) -> np.random.Generator:
            if t not in picks:
                rng = derived_rng(seed, PICK_STREAM, k, t)
                picks[t] = (rng, rng.bit_generator.state)
            rng, start = picks[t]
            rng.bit_generator.state = start
            return rng

        for s_idx, name in enumerate(EXP3_SYSTEMS):
            columns = list(systems[name]) * rounds_per_bin
            bins = [k] * len(columns)
            scores = draw_scores(scenario, ground_truths, columns, bins, z[:, : len(columns)])
            codes, keys = classify_scores(models, columns, bins, scores)
            winners, _ = decide_episodes(codes, keys, catalog, stats, [len(columns)], pick)
            accuracy[k, s_idx] = (winners[0] == ground_truths).mean()

    halfwidths = np.array([[halfwidth(a, trials) for a in row] for row in accuracy])
    return FamilyAccuracyResult(
        bins=scenario.bins,
        systems=EXP3_SYSTEMS,
        accuracy=accuracy,
        halfwidths=halfwidths,
        trials=trials,
        rounds_per_bin=rounds_per_bin,
    )


# ---------------------------------------------------------------------------
# Theorem harnesses


@dataclass(frozen=True)
class TheoremReport:
    exact_cases: int
    exact_correct: int
    exact_pass: bool
    convergence_trials: int
    convergence_k: tuple[int, ...]
    convergence_error: tuple[float, ...]
    convergence_ceiling: float
    convergence_pass: bool

    @property
    def all_pass(self) -> bool:
        return self.exact_pass and self.convergence_pass


def random_exact_recognition_case(rng: np.random.Generator):
    """Random small catalog, bound-satisfying synthetic models, and correct,
    uniquely identifying observations for the ground-truth object.

    Returns (catalog, stats, models, ground_truth, observations) where
    observations is a shuffled multiset of (attribute_index, outcome) pairs
    covering the ground truth's full positive and negative index sets.
    """
    n_objects = int(rng.integers(2, 7))
    n_attributes = int(rng.integers(3, 9))
    while True:
        matrix = rng.integers(0, 2, size=(n_objects, n_attributes))
        columns_mixed = bool(matrix.any(axis=0).all() and (1 - matrix).any(axis=0).all())
        rows_distinct = len({tuple(row) for row in matrix.tolist()}) == n_objects
        if columns_mixed and rows_distinct:
            break
    priors = rng.uniform(0.05, 1.0, size=n_objects)
    priors = priors / priors.sum()
    catalog = ObjectCatalog(
        objects=tuple(f"object-{j}" for j in range(n_objects)),
        attributes=tuple(f"attr-{i}" for i in range(n_attributes)),
        matrix=matrix,
        priors=priors,
    )
    stats = compute_stats(catalog)
    models = {}
    for i in range(n_attributes):
        ppv_bound, npv_bound = required_predictive_values(stats, i)
        ppv = min(1.0, ppv_bound + float(rng.uniform(0.02, 1.0)) * (1.0 - ppv_bound))
        npv = min(1.0, npv_bound + float(rng.uniform(0.02, 1.0)) * (1.0 - npv_bound))
        models[i] = make_synthetic_model(i, ppv, npv)
    ground_truth = int(rng.integers(n_objects))
    row = catalog.matrix[ground_truth]
    observations = [(i, "positive") for i in np.flatnonzero(row).tolist()]
    observations += [(i, "negative") for i in np.flatnonzero(row == 0).tolist()]
    for _ in range(int(rng.integers(0, 4))):
        observations.append(observations[int(rng.integers(len(observations)))])
    order = rng.permutation(len(observations))
    observations = [observations[int(idx)] for idx in order]
    return catalog, stats, models, ground_truth, observations


def exact_recognition_suite(cases: int, seed: int) -> tuple[int, int]:
    """Count randomized cases where correct, bound-satisfying evidence wins MAP outright."""
    correct = 0
    for case in range(cases):
        rng = derived_rng(seed, CASE_STREAM, case)
        catalog, stats, models, ground_truth, observations = random_exact_recognition_case(rng)
        counts: dict = {}
        for i, outcome in observations:
            cal = models[i].calibrations[0]
            key = (i, outcome, cal.ppv if outcome == "positive" else cal.npv)
            counts[key] = counts.get(key, 0) + 1
        state = counted_posterior(catalog, stats, counts)
        decision = decide(state, catalog)
        if decision.winner == ground_truth and len(decision.candidates) == 1:
            correct += 1
    return correct, cases


def convergence_suite(
    trials: int,
    seed: int,
    k_checkpoints: Sequence[int] = (5, 50, 200),
    ppv: float = 0.98,
    npv: float = 0.98,
    detection_rate: float = 0.5,
    true_negative_rate: float = 0.5,
) -> tuple[tuple[int, ...], np.ndarray]:
    """Adversarial two-object scenario with complementary positive attributes.

    Every false positive and false negative pushes the posterior toward the
    wrong object. Outcomes are drawn from rates consistent with the stated
    predictive values (false rates q = d(1-ppv)/ppv, v = s(1-npv)/npv under
    equal priors), and the error rate is recorded at each checkpoint.
    """
    catalog = ObjectCatalog(
        objects=("first", "second"),
        attributes=("mark-a", "mark-b"),
        matrix=np.array([[1, 0], [0, 1]]),
        priors=np.array([0.5, 0.5]),
    )
    stats = compute_stats(catalog)
    q = 0.0 if ppv >= 1.0 else detection_rate * (1.0 - ppv) / ppv
    v = 0.0 if npv >= 1.0 else true_negative_rate * (1.0 - npv) / npv
    k_values = tuple(sorted(set(int(k) for k in k_checkpoints)))
    ground_truth = 0

    # each round draws one uniform per attribute; the ground truth has
    # attribute 0 and lacks attribute 1, and a uniform below the correct
    # outcome's rate gives it, below that plus the false rate the wrong one
    u = stream_draws(seed, (SCORE_STREAM,), trials, 2 * k_values[-1], kind="random")
    keys = sorted((i, outcome, float(ppv if outcome == "positive" else npv)) for i in (0, 1) for outcome in ("positive", "negative"))
    code = {key[:2]: n for n, key in enumerate(keys)}
    codes = np.empty(u.shape, dtype=np.intp)
    has, lacks = u[:, 0::2], u[:, 1::2]
    codes[:, 0::2] = np.select([has < detection_rate, has < detection_rate + v], [code[0, "positive"], code[0, "negative"]], len(keys))
    codes[:, 1::2] = np.select(
        [lacks < true_negative_rate, lacks < true_negative_rate + q], [code[1, "negative"], code[1, "positive"]], len(keys)
    )
    winners, _ = decide_episodes(
        codes, keys, catalog, stats, [2 * k for k in k_values], lambda t: derived_rng(seed, PICK_STREAM, t)
    )
    wrong = winners != ground_truth
    return k_values, wrong.mean(axis=1)


def theorem_suites(
    trials: int = 2000,
    seed: int = 0,
    exact_cases: int = 1000,
    k_checkpoints: Sequence[int] = (5, 50, 200),
    convergence_ceiling: float = 0.02,
    ppv: float = 0.98,
    npv: float = 0.98,
    detection_rate: float = 0.5,
    true_negative_rate: float = 0.5,
) -> TheoremReport:
    """Run both theorem harnesses and report pass/fail against their targets."""
    correct, cases = exact_recognition_suite(exact_cases, seed)
    k_values, error = convergence_suite(
        trials,
        seed,
        k_checkpoints=k_checkpoints,
        ppv=ppv,
        npv=npv,
        detection_rate=detection_rate,
        true_negative_rate=true_negative_rate,
    )
    # an error-free run at every checkpoint counts as converged
    decreased = bool(error[0] > error[1] or error[0] == 0.0) if len(k_values) >= 2 else True
    convergence_pass = decreased and bool(error[-1] < convergence_ceiling)
    return TheoremReport(
        exact_cases=cases,
        exact_correct=correct,
        exact_pass=correct == cases,
        convergence_trials=trials,
        convergence_k=k_values,
        convergence_error=tuple(float(e) for e in error),
        convergence_ceiling=convergence_ceiling,
        convergence_pass=convergence_pass,
    )


# ---------------------------------------------------------------------------
# CSV and manifest output (fixed headers, byte-identical across repeated runs)


def _fmt(x) -> str:
    return repr(float(x))


def write_exp1_csvs(result: DistributionShiftResult, out_dir: str | Path) -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    kde_path = out_dir / "exp1_kde.csv"
    lines = ["bin,truth,x,density"]
    for k in range(len(result.bins)):
        for truth, dens in (("pos", result.pos_density[k]), ("neg", result.neg_density[k])):
            for x, d in zip(result.grid, dens):
                lines.append(f"{k},{truth},{_fmt(x)},{_fmt(d)}")
    kde_path.write_text("\n".join(lines) + "\n")
    overlap_path = out_dir / "exp1_overlap.csv"
    lines = ["bin,overlap"]
    for k, ov in enumerate(result.overlap):
        lines.append(f"{k},{_fmt(ov)}")
    overlap_path.write_text("\n".join(lines) + "\n")
    return [kde_path, overlap_path]


def write_exp2_csv(curve: ErrorCurve, out_dir: str | Path) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "exp2_error_curve.csv"
    lines = ["K,method,error,halfwidth"]
    rows = (
        ("two_threshold", curve.two_threshold_error, curve.two_threshold_halfwidth),
        ("single_threshold", curve.single_threshold_error, curve.single_threshold_halfwidth),
        ("two_threshold_random_tie", curve.random_tie_error, curve.random_tie_halfwidth),
    )
    for method, err, hw in rows:
        for k, e, h in zip(curve.k_values, err, hw):
            lines.append(f"{k},{method},{_fmt(e)},{_fmt(h)}")
    path.write_text("\n".join(lines) + "\n")
    return path


def write_exp3_csv(result: FamilyAccuracyResult, out_dir: str | Path) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "exp3_accuracy.csv"
    lines = ["bin,method,accuracy,halfwidth"]
    for k in range(len(result.bins)):
        for s_idx, name in enumerate(result.systems):
            lines.append(f"{k},{name},{_fmt(result.accuracy[k, s_idx])},{_fmt(result.halfwidths[k, s_idx])}")
    path.write_text("\n".join(lines) + "\n")
    return path


def write_theorem_csv(report: TheoremReport, out_dir: str | Path) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "theorem_convergence.csv"
    lines = ["K,error"]
    for k, e in zip(report.convergence_k, report.convergence_error):
        lines.append(f"{k},{_fmt(e)}")
    path.write_text("\n".join(lines) + "\n")
    return path


def write_manifest(
    out_dir: str | Path,
    experiment: str,
    seed: int,
    trials: int,
    scenario: Scenario | None = None,
    extra: dict | None = None,
    wall_s: float | None = None,
) -> Path:
    """Run provenance: tool, python and numpy versions, seed, trials, scenario digest, harness wall time."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "tool": "attrfuse",
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "experiment": experiment,
        "seed": seed,
        "trials": trials,
    }
    if wall_s is not None:
        record["wall_s"] = round(wall_s, 6)
    if scenario is not None:
        record["scenario"] = None if scenario.path is None else str(scenario.path)
        record["scenario_sha256"] = scenario.sha256
    if extra:
        record.update(extra)
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path
