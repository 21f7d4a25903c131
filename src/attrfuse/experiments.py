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

Every run draws from one Philox generator per purpose (and bin) derived
from its base seed, trial t reading row t of one array call on it, so
repeated runs emit byte-identical CSV tables (:mod:`attrfuse.streams`).
"""
from __future__ import annotations

import json
import math
import platform
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from attrfuse._version import __version__
from attrfuse.catalog import ObjectCatalog, compute_stats, prior_stats
from attrfuse.classifier import CalibrationError, ClassifierModel, single_threshold_calibrations
from attrfuse.fusion import count_codes, decide, factor_table, log_factor_rows
from attrfuse.simulator import (
    Scenario,
    TrainingSets,
    _class_counts,
    _class_scores,
    _model_set,
    calibrate_from_sets,
    calibrate_scenario,
    classify_scores,
    draw_scores,
    draw_training_sets,
)
from attrfuse.streams import CALIBRATION_STREAM, CASE_STREAM, PICK_STREAM, SCORE_STREAM, STREAM_LAYOUT, derived_rng
from attrfuse.streams import uniform_picks
from attrfuse.theory import predictive_value_floors

_trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz  # numpy 2.0 renamed trapz to trapezoid

EXP1_BANDWIDTH = 3.0  # KDE kernel standard deviation, in score units
EXP1_GRID_POINTS = 256
EXP1_MASS_TOLERANCE = 0.01  # how far a class density's integral over the grid may be from 1
EXP3_SYSTEMS = ("fine", "coarse", "all")


def halfwidth(rate: float, n: int) -> float:
    """95% normal-approximation halfwidth for a Bernoulli rate estimate."""
    if n <= 0:
        return float("nan")
    return 1.96 * math.sqrt(rate * (1.0 - rate) / n)


# ---------------------------------------------------------------------------
# Experiment 1: score distributions depend on the environment bin


def kde_density(scores, bandwidth: float, eval_points) -> np.ndarray:
    """Gaussian kernel density estimate with a fixed kernel standard deviation."""
    s = np.asarray(scores, dtype=float).ravel()
    if s.size == 0:
        raise CalibrationError("kde needs at least one score")
    if not bandwidth > 0:
        raise CalibrationError("bandwidth must be positive")
    x = np.atleast_1d(np.asarray(eval_points, dtype=float))
    with np.errstate(over="ignore"):  # a kernel whose square overflows is exactly 0: exp(-inf)
        z = (x[:, None] - s[None, :]) / bandwidth
        return np.exp(-0.5 * z * z).sum(axis=1) / (s.size * bandwidth * math.sqrt(2.0 * math.pi))


@dataclass(frozen=True)
class DistributionShiftResult:
    bins: tuple[tuple[float, float], ...]
    grid: np.ndarray
    pos_density: np.ndarray
    neg_density: np.ndarray
    overlap: np.ndarray
    n_pos: int
    n_neg: int


def experiment1_distribution_shift(
    scenario: Scenario,
    n_pos: int | None = None,
    n_neg: int | None = None,
    seed: int | None = None,
) -> DistributionShiftResult:
    """Per-bin KDE curves for the scenario's ``kde_attribute`` plus an overlap coefficient per bin.

    The overlap coefficient is the integral of the pointwise minimum of the
    positive- and negative-class density estimates; wider class overlap in a
    bin raises it. Default sample counts come from the scenario's per-object
    calibration counts.
    """
    if scenario.n_bins < 2:
        raise scenario.error("key 'bins': distribution-shift experiment needs at least 2 bins")
    if seed is None:
        seed = scenario.seed
    i = scenario.kde_attribute
    if (counts := _class_counts(scenario, i)) is None:
        raise scenario.error(f"key 'kde_attribute': attribute {scenario.catalog.attributes[i]!r} is constant across the catalog")
    n_pos = counts[0] if n_pos is None else n_pos
    n_neg = counts[1] if n_neg is None else n_neg
    pos_scores, neg_scores = zip(
        *(_class_scores(scenario, [(i, k, n_pos, n_neg)], derived_rng(seed, SCORE_STREAM, k))[0] for k in range(scenario.n_bins))
    )

    everything = np.concatenate(pos_scores + neg_scores)
    lo = everything.min() - 3.0 * EXP1_BANDWIDTH
    hi = everything.max() + 3.0 * EXP1_BANDWIDTH
    spread = (
        f"key 'score_models': {scenario.catalog.attributes[i]!r} scores spread from {lo:.6g} to {hi:.6g}, "
        f"too far for a {EXP1_GRID_POINTS}-point KDE grid at kernel width {EXP1_BANDWIDTH:g}"
    )
    with np.errstate(over="ignore"):
        if not np.isfinite(hi - lo):
            raise scenario.error(f"{spread}: the grid's span is beyond the float range")
    grid = np.linspace(lo, hi, EXP1_GRID_POINTS)
    pos_density = np.stack([kde_density(s, EXP1_BANDWIDTH, grid) for s in pos_scores])
    neg_density = np.stack([kde_density(s, EXP1_BANDWIDTH, grid) for s in neg_scores])
    mass = _trapezoid(np.stack([pos_density, neg_density]), grid, axis=-1)
    off = ~(np.abs(mass - 1.0) <= EXP1_MASS_TOLERANCE)
    if off.any():
        truth, k = np.argwhere(off)[0]
        raise scenario.error(
            f"{spread}: the {('pos', 'neg')[truth]} density of bin {k} integrates to {mass[truth, k]:.6g}, "
            f"not to 1 within {EXP1_MASS_TOLERANCE:g}"
        )
    overlap = np.array(
        [float(_trapezoid(np.minimum(pos_density[k], neg_density[k]), grid)) for k in range(scenario.n_bins)]
    )
    return DistributionShiftResult(
        bins=scenario.bins,
        grid=grid,
        pos_density=pos_density,
        neg_density=neg_density,
        overlap=overlap,
        n_pos=n_pos,
        n_neg=n_neg,
    )


# ---------------------------------------------------------------------------
# Experiment 2: two-threshold fusion vs a single min-error threshold


@dataclass(frozen=True)
class ErrorCurve:
    """Error rates per observation count for both estimators.

    ``random_tie_error`` is the component of the two-threshold error caused
    by forced random picks on ties.
    """

    k_values: tuple[int, ...]
    trials: int
    two_threshold_error: np.ndarray
    single_threshold_error: np.ndarray
    random_tie_error: np.ndarray
    two_threshold_halfwidth: np.ndarray
    single_threshold_halfwidth: np.ndarray
    random_tie_halfwidth: np.ndarray


def single_threshold_models(scenario: Scenario, training_sets: TrainingSets) -> dict[int, ClassifierModel]:
    """Binary baseline: one min-error threshold per bin, no uncertain zone.

    Each bin is a :func:`~attrfuse.classifier.single_threshold_calibrations`
    record, counted on the training sample by the same sweep as the
    two-threshold models', so the same fusion machinery consumes its
    observations.
    """
    models = _model_set(scenario, training_sets, partial(single_threshold_calibrations, orientation=scenario.orientation))
    if not all(cal.reliable for model in models.values() for cal in model.calibrations.values()):
        raise scenario.error("degenerate single-threshold split: a predictive value is undefined")
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
    z = derived_rng(seed, SCORE_STREAM).standard_normal((trials, len(columns)))
    scores = draw_scores(scenario, ground_truths, columns, bins, z)
    checkpoints = [k * len(attrs) for k in k_values]
    pick = uniform_picks(derived_rng(seed, PICK_STREAM).random((trials, len(checkpoints))))
    episodes = []
    for models in (two_models, single_models):
        codes, keys = classify_scores(models, columns, bins, scores)
        episodes.append(decide(count_codes(codes, len(keys), checkpoints), factor_table(keys, stats), catalog.priors, pick))
    wrong_two, wrong_single = (decided.winners != ground_truths for decided in episodes)
    wrong_tie = wrong_two & episodes[0].random

    err_two = wrong_two.mean(axis=1)
    err_single = wrong_single.mean(axis=1)
    err_tie = wrong_tie.mean(axis=1)
    return ErrorCurve(
        k_values=k_values,
        trials=trials,
        two_threshold_error=err_two,
        single_threshold_error=err_single,
        random_tie_error=err_tie,
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
    accuracies. Per bin, the three systems' columns are classified in one
    call, and their count rows, stacked, are decided in one
    :func:`~attrfuse.fusion.decide` call.
    """
    for name in ("fine", "coarse", "color"):
        if name not in scenario.families:
            raise scenario.error(f"key 'families': scenario does not define attribute family {name!r}")
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
    for i in systems["all"]:
        if not stats.usable[i]:
            raise scenario.error(f"key 'families': attribute {catalog.attributes[i]!r} is constant across the catalog")
    models = calibrate_scenario(scenario, derived_rng(seed, CALIBRATION_STREAM))

    # each system reads a prefix of the trial's score draws; the systems' columns
    # are classified together, and their count rows stacked system after system
    widths = [rounds_per_bin * len(systems[name]) for name in EXP3_SYSTEMS]
    columns = [i for name in EXP3_SYSTEMS for i in systems[name] * rounds_per_bin]
    prefixes = np.concatenate([np.arange(width) for width in widths])
    ground_truths = np.arange(trials) % catalog.n_objects
    accuracy = np.zeros((scenario.n_bins, len(EXP3_SYSTEMS)))
    for k in range(scenario.n_bins):
        z = derived_rng(seed, SCORE_STREAM, k).standard_normal((trials, max(widths)))
        # every system picks a trial's ties with the trial's one uniform in the bin
        pick = uniform_picks(np.tile(derived_rng(seed, PICK_STREAM, k).random((trials, 1)), (len(EXP3_SYSTEMS), 1)))
        bins = [k] * len(columns)
        codes, keys = classify_scores(models, columns, bins, draw_scores(scenario, ground_truths, columns, bins, z[:, prefixes]))
        blocks = np.split(codes, np.cumsum(widths)[:-1], axis=1)
        counts = np.concatenate([count_codes(block, len(keys), [block.shape[1]]) for block in blocks], axis=1)
        episodes = decide(counts, factor_table(keys, stats), catalog.priors, pick)
        accuracy[k] = (episodes.winners[0].reshape(len(EXP3_SYSTEMS), trials) == ground_truths).mean(axis=1)

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


def _draw_exact_cases(rng: np.random.Generator, cases: int):
    """``cases`` small catalogs with correct, uniquely identifying evidence from ``rng``, padded to 6 objects and 8
    attributes.

    Returns per case the 0/1 matrix, the raw priors (0 for an absent object),
    the uniforms that place each attribute's ppv and npv 2-100 % of the way
    from its floor to 1, the ground truth, and each attribute's observation
    count (0 for an absent one). A case has 2-6 objects and 3-8 attributes;
    each attribute is observed once, then 0-3 repeats each copy a uniformly
    drawn earlier observation. Each quantity is one array call over the
    cases, drawn for every slot and zeroed where absent; the columns are
    redrawn, for the cases whose object rows are not distinct, until they are.
    """
    objects, attributes, repeat = np.arange(6), np.arange(8), np.arange(3)
    n_objects, n_attributes = rng.integers(2, 7, size=cases), rng.integers(3, 9, size=cases)
    present = attributes < n_attributes[:, None]
    columns = np.zeros((cases, 8), dtype=np.int64)
    pending = np.arange(cases)
    while pending.size:  # column codes uniform over the mixed columns, kept when the rows differ
        drawn = rng.integers(1, 2 ** n_objects[pending, None] - 1, size=(pending.size, 8))
        columns[pending] = np.where(present[pending], drawn, 0)
        rows = (columns[pending, None, :] >> objects[:, None] & 1) @ (1 << attributes)
        rows = np.sort(np.where(objects < n_objects[pending, None], rows, -1 - objects), axis=1)  # absent: distinct
        pending = pending[(rows[:, 1:] == rows[:, :-1]).any(axis=1)]
    priors = np.where(objects < n_objects[:, None], rng.uniform(0.05, 1.0, size=(cases, 6)), 0.0)
    uniforms = np.where(present[..., None], rng.uniform(0.02, 1.0, size=(cases, 8, 2)), 0.0)
    truth = rng.integers(n_objects)
    n_repeats = rng.integers(0, 4, size=cases)
    # repeat j copies observation source[:, j] of those before it: the attributes, then repeats 0 to j - 1
    source = rng.integers(n_attributes[:, None] + repeat)
    copied = np.zeros((cases, 3), dtype=np.int64)
    for j in repeat:
        earlier = copied[np.arange(cases), np.clip(source[:, j] - n_attributes, 0, 2)]
        copied[:, j] = np.where(source[:, j] < n_attributes, source[:, j], earlier)
    repeats = (copied[..., None] == attributes) & (repeat < n_repeats[:, None])[..., None]
    counts = present + repeats.sum(axis=1)
    return (columns[:, None, :] >> objects[:, None] & 1).astype(np.int8), priors, uniforms, truth, counts


def decide_exact_cases(cases: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ground truths, posterior-tied objects and MAP log weights of the cases drawn from stream ``(seed, CASE_STREAM)``.

    One :func:`~attrfuse.fusion.decide` call decides the cases as rows, each with its own key table and priors. A
    case keys each attribute with the truth's outcome, once per observation; the objects are padded to 6, and a
    padded object is never tied. The winners are not read, so a prior tie takes its first option.
    """
    matrix, raw_priors, uniforms, truth, counts = _draw_exact_cases(derived_rng(seed, CASE_STREAM), cases)
    priors = raw_priors / raw_priors.sum(axis=1, keepdims=True)
    priors /= priors.sum(axis=1, keepdims=True)  # the rescale ObjectCatalog applies to a normalized prior vector
    stats = prior_stats(matrix, priors)
    floors = np.stack(predictive_value_floors(stats), axis=-1)
    ppv, npv = np.moveaxis(np.minimum(1.0, floors + uniforms * (1.0 - floors)), -1, 0)
    positive = matrix[np.arange(cases), truth] == 1
    keyed = counts > 0  # a padded attribute has no key: its floors are NaN and its count 0
    table = np.zeros(stats.positive_mask.shape)
    table[keyed] = log_factor_rows(
        stats.positive_mask[keyed], stats.attribute_priors[keyed], positive[keyed], np.where(positive, ppv, npv)[keyed]
    )
    episodes = decide(counts[None], table, priors, lambda _, options: np.zeros_like(options))
    return truth, episodes.tied[0], episodes.log_weights


def exact_recognition_suite(cases: int, seed: int) -> tuple[int, int]:
    """Count randomized cases whose posterior ties only the ground truth (:func:`decide_exact_cases`)."""
    truth, tied, _ = decide_exact_cases(cases, seed)
    correct = tied[np.arange(cases), truth] & (tied.sum(axis=1) == 1)
    return int(correct.sum()), cases


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
    u = derived_rng(seed, SCORE_STREAM).random((trials, 2 * k_values[-1]))
    keys = sorted((i, outcome, float(ppv if outcome == "positive" else npv)) for i in (0, 1) for outcome in ("positive", "negative"))
    code = {key[:2]: n for n, key in enumerate(keys)}
    codes = np.empty(u.shape, dtype=np.intp)
    has, lacks = u[:, 0::2], u[:, 1::2]
    codes[:, 0::2] = np.select([has < detection_rate, has < detection_rate + v], [code[0, "positive"], code[0, "negative"]], len(keys))
    codes[:, 1::2] = np.select(
        [lacks < true_negative_rate, lacks < true_negative_rate + q], [code[1, "negative"], code[1, "positive"]], len(keys)
    )
    episodes = decide(
        count_codes(codes, len(keys), [2 * k for k in k_values]), factor_table(keys, stats), catalog.priors,
        uniform_picks(derived_rng(seed, PICK_STREAM).random((trials, len(k_values)))),
    )
    wrong = episodes.winners != ground_truth
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
    # no error at the second checkpoint counts as converged
    decreased = bool(error[1] < error[0] or error[1] == 0.0) if len(k_values) >= 2 else True
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


def _write_csv(out_dir: str | Path, name: str, header: str, rows: Iterable[Sequence]) -> Path:
    """``header`` and one comma-joined line per row as ``out_dir/name``, making ``out_dir`` if needed."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text("\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n")
    return path


def write_exp1_csvs(result: DistributionShiftResult, out_dir: str | Path) -> list[Path]:
    kde = (
        (k, truth, _fmt(x), _fmt(d))
        for k in range(len(result.bins))
        for truth, dens in (("pos", result.pos_density[k]), ("neg", result.neg_density[k]))
        for x, d in zip(result.grid, dens)
    )
    return [
        _write_csv(out_dir, "exp1_kde.csv", "bin,truth,x,density", kde),
        _write_csv(out_dir, "exp1_overlap.csv", "bin,overlap", ((k, _fmt(ov)) for k, ov in enumerate(result.overlap))),
    ]


def write_exp2_csv(curve: ErrorCurve, out_dir: str | Path) -> Path:
    methods = (
        ("two_threshold", curve.two_threshold_error, curve.two_threshold_halfwidth),
        ("single_threshold", curve.single_threshold_error, curve.single_threshold_halfwidth),
        ("two_threshold_random_tie", curve.random_tie_error, curve.random_tie_halfwidth),
    )
    rows = ((k, method, _fmt(e), _fmt(h)) for method, err, hw in methods for k, e, h in zip(curve.k_values, err, hw))
    return _write_csv(out_dir, "exp2_error_curve.csv", "K,method,error,halfwidth", rows)


def write_exp3_csv(result: FamilyAccuracyResult, out_dir: str | Path) -> Path:
    rows = (
        (k, name, _fmt(result.accuracy[k, s_idx]), _fmt(result.halfwidths[k, s_idx]))
        for k in range(len(result.bins))
        for s_idx, name in enumerate(result.systems)
    )
    return _write_csv(out_dir, "exp3_accuracy.csv", "bin,method,accuracy,halfwidth", rows)


def write_theorem_csv(report: TheoremReport, out_dir: str | Path) -> Path:
    rows = ((k, _fmt(e)) for k, e in zip(report.convergence_k, report.convergence_error))
    return _write_csv(out_dir, "theorem_convergence.csv", "K,error", rows)


def write_manifest(
    out_dir: str | Path,
    experiment: str,
    seed: int,
    trials: int,
    scenario: Scenario | None = None,
    extra: dict | None = None,
    wall_s: float | None = None,
) -> Path:
    """Run provenance: tool, python and numpy versions, seed, trials, stream layout, scenario digest, harness wall
    time."""
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
        "stream_layout": STREAM_LAYOUT,
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
