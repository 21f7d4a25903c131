"""Synthetic, distance-dependent scenarios and score draws.

Scenarios describe, per (attribute, truth label, environment bin), a Gaussian
score distribution. Training draws may be biased (mean shift, spread scale)
relative to the test distributions to model unrepresentative training data.
Training scores come from the scenario's calibration stream, and test scores
from standard normal draws that the harnesses take from their score streams
(:mod:`attrfuse.streams`).

Each scenario calibrates its models from its training draws. The harnesses
classify the test draws with :func:`attrfuse.classifier.classify_scores`
and count and decide the codes in :mod:`attrfuse.fusion`.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from attrfuse._fields import _attribute, _count, _integer, _list, _mapping, _number, _orientation, _rate, _scale
from attrfuse._fields import _string, _target, read_field, read_json
from attrfuse.catalog import CatalogError, ObjectCatalog, load_catalog
from attrfuse.classifier import (
    DEFAULT_MIN_DETECTION_RATE,
    DEFAULT_TARGET_NPV,
    DEFAULT_TARGET_PPV,
    ClassifierModel,
    calibrate_bins,
)
from attrfuse.streams import CALIBRATION_STREAM, derived_rng

TrainingSets = Mapping[tuple[int, int], tuple[np.ndarray, np.ndarray]]  # (attribute, bin): positive, negative scores


class ScenarioError(ValueError):
    """Malformed scenario input."""


@dataclass(frozen=True)
class ScoreModel:
    family: str
    mean: float
    stddev: float

    def __post_init__(self):
        if self.family != "gaussian":
            raise ScenarioError(f"key 'family': unsupported score family {self.family!r}")
        if not self.stddev > 0:
            raise ScenarioError(f"key 'std': score model stddev must be positive, got {self.stddev!r}")


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
        """Each message names the scenario key at fault, after the file when the scenario has one."""
        if self.seed < 0:
            raise self.error("key 'seed': seed must be non-negative")
        if not self.bins:
            raise self.error("key 'bins': scenario needs at least one bin")
        for lo, hi in self.bins:
            if not lo < hi:
                raise self.error(f"key 'bins': bin ({lo}, {hi}) is not ascending")
        for (lo1, hi1), (lo2, _) in zip(self.bins, self.bins[1:]):
            if abs(hi1 - lo2) > 1e-9:
                raise self.error("key 'bins': bins must be contiguous and ascending")
        for i in range(self.catalog.n_attributes):
            for truth in ("pos", "neg"):
                for k in range(len(self.bins)):
                    if (i, truth, k) not in self.score_models:
                        raise self.error(
                            f"key 'score_models': missing score model for attribute "
                            f"{self.catalog.attributes[i]!r}, truth {truth!r}, bin {k}"
                        )
        for bin_index, _ in self.schedule:
            if not 0 <= bin_index < len(self.bins):
                raise self.error(f"key 'schedule': unknown bin index {bin_index}")
        if not 0 <= self.kde_attribute < self.catalog.n_attributes:
            raise self.error("key 'kde_attribute': kde_attribute out of range")

    def error(self, message: str) -> ScenarioError:
        """A ScenarioError with ``message``, prefixed by the scenario's file when it was loaded from one."""
        return ScenarioError(message if self.path is None else f"{self.path}: {message}")

    @property
    def n_bins(self) -> int:
        return len(self.bins)


def _class_counts(scenario: Scenario, i: int) -> tuple[int, int] | None:
    """Attribute ``i``'s positive and negative score counts (per object with and without it); None if it is constant."""
    n_with = int(scenario.catalog.matrix[:, i].sum())
    n_without = scenario.catalog.n_objects - n_with
    cfg = scenario.calibration
    return (cfg.n_pos_per_object * n_with, cfg.n_neg_per_object * n_without) if n_with and n_without else None


def _not_finite(scenario: Scenario, i: int, truth: str, k: int, kind: str = "") -> ScenarioError:
    """The located error for a score model whose ``kind`` draws are not finite."""
    return scenario.error(
        f"key 'score_models': score model for attribute {scenario.catalog.attributes[i]!r}, truth {truth!r}, "
        f"bin {k} draws {kind}scores that are not finite"
    )


def _class_scores(
    scenario: Scenario, sets: Sequence[tuple[int, int, int, int]], rng: np.random.Generator, bias: TrainingBias | None = None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The positive and negative scores of each (attribute ``i``, bin ``k``, ``n_pos``, ``n_neg``) of ``sets``, with
    ``bias`` applied to the score models when given.

    One ``rng.standard_normal`` call draws them all: set by set, ``n_pos``
    positive then ``n_neg`` negative scores. Each class's slice ``z``
    becomes ``z * std + mean`` in place, bit for bit the
    ``rng.normal(mean, std, n)`` calls of each class in turn, and the pairs
    are views of the one array. A draw that is not finite raises a
    ScenarioError naming the first such class in draw order.
    """
    classes = [(i, truth, k, n) for i, k, n_pos, n_neg in sets for truth, n in (("pos", n_pos), ("neg", n_neg))]
    scores = rng.standard_normal(sum(n for *_, n in classes))
    parts, start = [], 0
    with np.errstate(over="ignore", invalid="ignore"):
        for i, truth, k, n in classes:
            model = scenario.score_models[(i, truth, k)]
            mean, std = model.mean, model.stddev
            if bias is not None:
                mean, std = mean + getattr(bias, f"{truth}_mean_shift"), std * getattr(bias, f"{truth}_std_scale")
            part = scores[start : start + n]
            part *= std
            part += mean
            parts.append(part)
            start += n
    if not np.isfinite(scores).all():
        i, truth, k, _ = next(c for c, part in zip(classes, parts) if not np.isfinite(part).all())
        raise _not_finite(scenario, i, truth, k, "" if bias is None else "training ")
    return list(zip(parts[::2], parts[1::2]))


def draw_training_sets(
    scenario: Scenario,
    rng: np.random.Generator | None = None,
) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
    """Training scores for every (attribute, bin) with the training bias applied; counts scale with the label split.

    Every score comes from one :func:`_class_scores` draw, attribute-major,
    then bin. A constant attribute has nothing to calibrate and gets no sets.
    """
    rng = derived_rng(scenario.seed, CALIBRATION_STREAM) if rng is None else rng
    bins = range(scenario.n_bins)
    sets = [(i, k, *n) for i in range(scenario.catalog.n_attributes) if (n := _class_counts(scenario, i)) for k in bins]
    return dict(zip([(i, k) for i, k, *_ in sets], _class_scores(scenario, sets, rng, scenario.training_bias)))


def _model_set(scenario: Scenario, training_sets: TrainingSets, calibrate: Callable) -> dict[int, ClassifierModel]:
    """One model per attribute of ``training_sets``; its record in bin ``k`` is the one of set ``k``.

    ``calibrate`` takes every set's (positive, negative) pair in one call,
    attribute-major, and returns their records in that order.
    """
    attributes, bins = sorted({i for i, _ in training_sets}), range(scenario.n_bins)
    records = iter(calibrate([training_sets[(i, k)] for i in attributes for k in bins]))
    return {i: ClassifierModel(i, scenario.orientation, {k: next(records) for k in bins}) for i in attributes}


def calibrate_from_sets(scenario: Scenario, training_sets: TrainingSets) -> dict[int, ClassifierModel]:
    """Two-threshold models from pre-drawn training sets."""
    cfg = scenario.calibration
    return _model_set(scenario, training_sets, partial(
        calibrate_bins, orientation=scenario.orientation, target_ppv=cfg.target_ppv, target_npv=cfg.target_npv,
        min_detection_rate=cfg.min_detection_rate,
    ))


def calibrate_scenario(
    scenario: Scenario,
    rng: np.random.Generator | None = None,
) -> dict[int, ClassifierModel]:
    """Draw training data and calibrate every usable attribute in every bin."""
    return calibrate_from_sets(scenario, draw_training_sets(scenario, rng))


def draw_scores(
    scenario: Scenario,
    ground_truths: np.ndarray,
    attributes: Sequence[int],
    bins: Sequence[int],
    z: np.ndarray,
) -> np.ndarray:
    """Test scores from standard normal draws ``z`` (rows x columns).

    Column ``c`` observes attribute ``attributes[c]`` in bin ``bins[c]`` of
    each row's ground-truth object; ``mean + std * z`` equals the scalar
    ``Generator.normal(mean, std)`` draw bit for bit. A score that is not
    finite raises a ScenarioError.
    """
    truth = scenario.catalog.matrix[np.asarray(ground_truths)[:, None], np.asarray(attributes, dtype=np.intp)] != 0
    pos = [scenario.score_models[(i, "pos", k)] for i, k in zip(attributes, bins)]
    neg = [scenario.score_models[(i, "neg", k)] for i, k in zip(attributes, bins)]
    mean = np.where(truth, [m.mean for m in pos], [m.mean for m in neg])
    std = np.where(truth, [m.stddev for m in pos], [m.stddev for m in neg])
    with np.errstate(over="ignore"):
        scores = mean + std * z
    if not np.isfinite(scores).all():
        row, c = np.argwhere(~np.isfinite(scores))[0]
        raise _not_finite(scenario, attributes[c], "pos" if truth[row, c] else "neg", bins[c])
    return scores


def _schedule_entry(pair) -> tuple[int, int]:
    """A ``schedule`` entry: an integer bin, which :class:`Scenario` checks against the bins, and positive rounds."""
    converters = iter((_integer, _count))  # entry 0, then entry 1
    return tuple(_list(pair, lambda value: next(converters)(value), 2))


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario file and its referenced catalog (path relative to the scenario).

    A malformed file raises :class:`ScenarioError` naming the file and the
    key, and so does a catalog that does not load, under the key ``catalog``.
    """
    path = Path(path)
    data, raw = read_json(path, ScenarioError, "scenario")
    read = partial(read_field, ScenarioError, path, raw)
    try:
        catalog = load_catalog(path.parent / read("catalog", _string))  # an absolute path replaces the parent
    except CatalogError as exc:
        raise ScenarioError(f"{path}: key 'catalog': {exc}") from None
    attribute = _attribute(catalog.attributes)
    bins = tuple(read("bins", partial(_list, item=lambda pair: tuple(_list(pair, _number, 2)))))
    per_bin = partial(_list, item=_mapping, length=len(bins))
    score_models: dict[tuple[int, str, int], ScoreModel] = {}
    by_id = read("score_models", _mapping)
    for attribute_id in by_id:
        if attribute_id not in catalog.attributes:
            raise ScenarioError(f"{path}: key 'score_models': unknown attribute id {attribute_id!r}")
        i, where = catalog.attributes.index(attribute_id), f"{path}: score model for {attribute_id!r}"
        per_truth = read_field(ScenarioError, f"{path}: key 'score_models'", by_id, attribute_id, _mapping)
        for truth in ("pos", "neg"):
            for k, rec in enumerate(read_field(ScenarioError, where, per_truth, truth, per_bin)):
                at = f"{where}/{truth}, bin {k}"
                family = read_field(ScenarioError, at, rec, "family", _string, "gaussian")
                mean = read_field(ScenarioError, at, rec, "mean", _number)
                stddev = read_field(ScenarioError, at, rec, "std", _number)
                try:
                    score_models[(i, truth, k)] = ScoreModel(family, mean, stddev)
                except ScenarioError as exc:
                    raise ScenarioError(f"{at}: {exc}") from None
    cal = partial(read_field, ScenarioError, f"{path}: key 'calibration'", read("calibration", _mapping, {}))
    bias = partial(read_field, ScenarioError, f"{path}: key 'training_bias'", read("training_bias", _mapping, {}))
    named = read("families", _mapping, {})
    family = partial(read_field, ScenarioError, f"{path}: key 'families'", named)
    return Scenario(
        catalog=catalog,
        bins=bins,
        score_models=score_models,
        seed=read("seed", _integer),
        orientation=read("orientation", _orientation, "lower_is_positive"),
        schedule=tuple(read("schedule", partial(_list, item=_schedule_entry), [])),
        calibration=CalibrationConfig(
            target_ppv=cal("target_ppv", _target, DEFAULT_TARGET_PPV),
            target_npv=cal("target_npv", _target, DEFAULT_TARGET_NPV),
            min_detection_rate=cal("min_detection_rate", _rate, DEFAULT_MIN_DETECTION_RATE),
            n_pos_per_object=cal("n_pos_per_object", _count, 20),
            n_neg_per_object=cal("n_neg_per_object", _count, 20),
        ),
        training_bias=TrainingBias(
            pos_mean_shift=bias("pos_mean_shift", _number, 0.0),
            neg_mean_shift=bias("neg_mean_shift", _number, 0.0),
            pos_std_scale=bias("pos_std_scale", _scale, 1.0),
            neg_std_scale=bias("neg_std_scale", _scale, 1.0),
        ),
        families={name: tuple(family(name, partial(_list, item=attribute))) for name in named},
        kde_attribute=read("kde_attribute", attribute, catalog.attributes[0]),
        path=path,
        sha256=hashlib.sha256(data).hexdigest(),
    )
