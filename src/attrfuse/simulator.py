"""Synthetic, distance-dependent score generation and observation episodes.

Scenarios describe, per (attribute, truth label, environment bin), a Gaussian
score distribution. Training draws may be biased (mean shift, spread scale)
relative to the test distributions to model unrepresentative training data.
Randomness comes from the counter-based Philox generator; trial ``t`` of a
run seeded with ``s`` always uses the stream derived from ``(s, ..., t)``, so
records are reproducible bit for bit and trials are independent.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from attrfuse.catalog import CatalogStats, ObjectCatalog, compute_stats, load_catalog
from attrfuse.classifier import (
    DEFAULT_MIN_DETECTION_RATE,
    DEFAULT_TARGET_NPV,
    DEFAULT_TARGET_PPV,
    ClassifierModel,
    calibrate_bin,
)
from attrfuse.fusion import Decision, decide, init_posterior, make_observation, update

# Stream keys for deriving independent generators from one base seed.
CALIBRATION_STREAM = 0
SCORE_STREAM = 1
PICK_STREAM = 2
CASE_STREAM = 3


class ScenarioError(ValueError):
    """Malformed scenario input."""


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    """Philox generator for the stream identified by (seed, *key)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), *map(int, key)])))


@dataclass(frozen=True)
class ScoreModel:
    family: str
    mean: float
    stddev: float

    def __post_init__(self):
        if self.family != "gaussian":
            raise ScenarioError(f"unsupported score family {self.family!r}")
        if not self.stddev > 0:
            raise ScenarioError("score model stddev must be positive")


@dataclass(frozen=True)
class TrainingBias:
    """Shift/scale applied to score models when drawing training data."""

    pos_mean_shift: float = 0.0
    neg_mean_shift: float = 0.0
    pos_std_scale: float = 1.0
    neg_std_scale: float = 1.0


@dataclass(frozen=True)
class CalibrationConfig:
    target_ppv: float = DEFAULT_TARGET_PPV
    target_npv: float = DEFAULT_TARGET_NPV
    min_detection_rate: float = DEFAULT_MIN_DETECTION_RATE
    n_pos_per_object: int = 20
    n_neg_per_object: int = 20


@dataclass(frozen=True)
class Scenario:
    """Simulator description: bins, score models, catalog, sampling parameters."""

    catalog: ObjectCatalog
    bins: tuple[tuple[float, float], ...]
    score_models: Mapping[tuple[int, str, int], ScoreModel]
    seed: int
    orientation: str = "lower_is_positive"
    schedule: tuple[tuple[int, int], ...] = ()
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)
    training_bias: TrainingBias = field(default_factory=TrainingBias)
    families: Mapping[str, tuple[int, ...]] = field(default_factory=dict)
    kde_attribute: int = 0
    path: Path | None = None
    sha256: str | None = None

    def __post_init__(self):
        if self.seed < 0:
            raise ScenarioError("seed must be non-negative")
        if not self.bins:
            raise ScenarioError("scenario needs at least one bin")
        for lo, hi in self.bins:
            if not lo < hi:
                raise ScenarioError(f"bin ({lo}, {hi}) is not ascending")
        for (lo1, hi1), (lo2, _) in zip(self.bins, self.bins[1:]):
            if abs(hi1 - lo2) > 1e-9:
                raise ScenarioError("bins must be contiguous and ascending")
        for i in range(self.catalog.n_attributes):
            for truth in ("pos", "neg"):
                for k in range(len(self.bins)):
                    if (i, truth, k) not in self.score_models:
                        raise ScenarioError(
                            f"missing score model for attribute {self.catalog.attributes[i]!r}, "
                            f"truth {truth!r}, bin {k}"
                        )
        for bin_index, _ in self.schedule:
            self._check_bin(bin_index)
        if not 0 <= self.kde_attribute < self.catalog.n_attributes:
            raise ScenarioError("kde_attribute out of range")

    def _check_bin(self, bin_index: int) -> None:
        if not 0 <= bin_index < len(self.bins):
            raise ScenarioError(f"unknown bin index {bin_index}")

    @property
    def n_bins(self) -> int:
        return len(self.bins)


@dataclass(frozen=True)
class ObservationDraw:
    attribute_index: int
    bin_index: int
    score: float
    outcome: str


@dataclass(frozen=True)
class TrialRecord:
    """One estimation episode: draws, decision, and the seed that produced them."""

    trial_index: int
    ground_truth: int
    observations: tuple[ObservationDraw, ...]
    decision: Decision
    correct: bool
    seed: int | None = None


def sample_score(
    scenario: Scenario,
    attribute_index: int,
    truth: str,
    bin_index: int,
    rng: np.random.Generator,
) -> float:
    """One test-distribution draw for (attribute, truth, bin)."""
    try:
        model = scenario.score_models[(attribute_index, truth, bin_index)]
    except KeyError:
        raise ScenarioError(
            f"no score model for attribute {attribute_index}, truth {truth!r}, bin {bin_index}"
        ) from None
    return float(rng.normal(model.mean, model.stddev))


def generate_training_set(
    scenario: Scenario,
    attribute_index: int,
    bin_index: int,
    n_pos: int,
    n_neg: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Labeled training scores for one (attribute, bin), with the scenario's training bias applied."""
    if n_pos < 1 or n_neg < 1:
        raise ScenarioError("training set needs at least one sample per label")
    scenario._check_bin(bin_index)
    bias = scenario.training_bias
    pos_model = scenario.score_models[(attribute_index, "pos", bin_index)]
    neg_model = scenario.score_models[(attribute_index, "neg", bin_index)]
    pos = rng.normal(pos_model.mean + bias.pos_mean_shift, pos_model.stddev * bias.pos_std_scale, size=n_pos)
    neg = rng.normal(neg_model.mean + bias.neg_mean_shift, neg_model.stddev * bias.neg_std_scale, size=n_neg)
    return pos, neg


def draw_training_sets(
    scenario: Scenario,
    rng: np.random.Generator | None = None,
) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
    """Training scores for every (attribute, bin); counts scale with the catalog's label split."""
    if rng is None:
        rng = derived_rng(scenario.seed, CALIBRATION_STREAM)
    cfg = scenario.calibration
    matrix = scenario.catalog.matrix
    sets: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    for i in range(scenario.catalog.n_attributes):
        n_pos_objects = int(matrix[:, i].sum())
        n_neg_objects = scenario.catalog.n_objects - n_pos_objects
        if n_pos_objects == 0 or n_neg_objects == 0:
            continue  # constant attribute: nothing to calibrate
        n_pos = cfg.n_pos_per_object * n_pos_objects
        n_neg = cfg.n_neg_per_object * n_neg_objects
        for k in range(scenario.n_bins):
            sets[(i, k)] = generate_training_set(scenario, i, k, n_pos, n_neg, rng)
    return sets


def calibrate_from_sets(
    scenario: Scenario,
    training_sets: Mapping[tuple[int, int], tuple[np.ndarray, np.ndarray]],
) -> dict[int, ClassifierModel]:
    """Two-threshold models from pre-drawn training sets."""
    cfg = scenario.calibration
    models: dict[int, ClassifierModel] = {}
    attrs = sorted({i for i, _ in training_sets})
    for i in attrs:
        cals = {}
        for k in range(scenario.n_bins):
            pos, neg = training_sets[(i, k)]
            cals[k] = calibrate_bin(
                pos,
                neg,
                orientation=scenario.orientation,
                target_ppv=cfg.target_ppv,
                target_npv=cfg.target_npv,
                min_detection_rate=cfg.min_detection_rate,
                bin_index=k,
            )
        models[i] = ClassifierModel(attribute_index=i, orientation=scenario.orientation, calibrations=cals)
    return models


def calibrate_scenario(
    scenario: Scenario,
    rng: np.random.Generator | None = None,
) -> dict[int, ClassifierModel]:
    """Draw training data and calibrate every usable attribute in every bin."""
    return calibrate_from_sets(scenario, draw_training_sets(scenario, rng))


def run_episode(
    scenario: Scenario,
    ground_truth_object: int,
    models: Mapping[int, ClassifierModel],
    catalog: ObjectCatalog,
    schedule: Sequence[tuple[int, int]] | None,
    rng: np.random.Generator,
    attributes: Sequence[int] | None = None,
    stats: CatalogStats | None = None,
    pick_rng: np.random.Generator | None = None,
    trial_index: int = 0,
    seed: int | None = None,
) -> TrialRecord:
    """Draw scores per the schedule, classify, fuse, and decide.

    Each scheduled round observes every attribute in ``attributes`` (default:
    all modeled attributes) once in the given bin. ``pick_rng`` defaults to
    ``rng`` and is only consumed when the decision needs a random tie pick.
    """
    if not 0 <= ground_truth_object < catalog.n_objects:
        raise ValueError(f"ground truth index {ground_truth_object} out of range")
    if stats is None:
        stats = compute_stats(catalog)
    if attributes is None:
        attributes = sorted(models)
    if schedule is None:
        schedule = scenario.schedule
    for bin_index, _ in schedule:
        scenario._check_bin(bin_index)

    state = init_posterior(catalog)
    draws: list[ObservationDraw] = []
    for bin_index, rounds in schedule:
        for _ in range(int(rounds)):
            for i in attributes:
                truth = "pos" if catalog.matrix[ground_truth_object, i] else "neg"
                score = sample_score(scenario, i, truth, bin_index, rng)
                obs = make_observation(models[i], bin_index, score)
                draws.append(ObservationDraw(i, bin_index, score, obs.outcome))
                state = update(state, obs, models[i], stats)
    decision = decide(state, catalog, rng=pick_rng if pick_rng is not None else rng)
    correct = decision.winner == ground_truth_object
    return TrialRecord(
        trial_index=trial_index,
        ground_truth=ground_truth_object,
        observations=tuple(draws),
        decision=decision,
        correct=correct,
        seed=seed,
    )


def _parse_score_models(
    raw: Mapping,
    catalog: ObjectCatalog,
    n_bins: int,
) -> dict[tuple[int, str, int], ScoreModel]:
    out: dict[tuple[int, str, int], ScoreModel] = {}
    for attribute_id, per_truth in raw.items():
        i = catalog.attribute_index(attribute_id)
        for truth in ("pos", "neg"):
            try:
                per_bin = per_truth[truth]
            except KeyError:
                raise ScenarioError(f"score model for {attribute_id!r} missing {truth!r} entry") from None
            if len(per_bin) != n_bins:
                raise ScenarioError(
                    f"score model for {attribute_id!r}/{truth} has {len(per_bin)} entries, expected {n_bins}"
                )
            for k, rec in enumerate(per_bin):
                out[(i, truth, k)] = ScoreModel(
                    family=rec.get("family", "gaussian"),
                    mean=float(rec["mean"]),
                    stddev=float(rec["std"]),
                )
    return out


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario file and its referenced catalog (path relative to the scenario)."""
    path = Path(path)
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc

    try:
        catalog_path = Path(raw["catalog"])
        if not catalog_path.is_absolute():
            catalog_path = path.parent / catalog_path
        catalog = load_catalog(catalog_path)
        bins = tuple((float(lo), float(hi)) for lo, hi in raw["bins"])
        score_models = _parse_score_models(raw["score_models"], catalog, len(bins))
        seed = int(raw["seed"])
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"{path}: missing or malformed key ({exc})") from exc

    cal_raw = raw.get("calibration", {})
    calibration = CalibrationConfig(
        target_ppv=float(cal_raw.get("target_ppv", DEFAULT_TARGET_PPV)),
        target_npv=float(cal_raw.get("target_npv", DEFAULT_TARGET_NPV)),
        min_detection_rate=float(cal_raw.get("min_detection_rate", DEFAULT_MIN_DETECTION_RATE)),
        n_pos_per_object=int(cal_raw.get("n_pos_per_object", 20)),
        n_neg_per_object=int(cal_raw.get("n_neg_per_object", 20)),
    )
    bias_raw = raw.get("training_bias", {})
    bias = TrainingBias(
        pos_mean_shift=float(bias_raw.get("pos_mean_shift", 0.0)),
        neg_mean_shift=float(bias_raw.get("neg_mean_shift", 0.0)),
        pos_std_scale=float(bias_raw.get("pos_std_scale", 1.0)),
        neg_std_scale=float(bias_raw.get("neg_std_scale", 1.0)),
    )
    families = {
        name: tuple(catalog.attribute_index(a) for a in ids)
        for name, ids in raw.get("families", {}).items()
    }
    schedule = tuple((int(b), int(r)) for b, r in raw.get("schedule", []))
    kde_attribute = catalog.attribute_index(raw["kde_attribute"]) if "kde_attribute" in raw else 0

    return Scenario(
        catalog=catalog,
        bins=bins,
        score_models=score_models,
        seed=seed,
        orientation=raw.get("orientation", "lower_is_positive"),
        schedule=schedule,
        calibration=calibration,
        training_bias=bias,
        families=families,
        kde_attribute=kde_attribute,
        path=path,
        sha256=digest,
    )
