"""Two-threshold score classifiers: per-bin calibration, ternary output, persistence.

A classifier for one attribute carries, per environment bin, a pair of score
thresholds: one tuned for high positive predictive value, one for high
negative predictive value. Scores between the thresholds map to "uncertain"
and carry no evidence. A bin is reliable only when both thresholds exist and
do not cross; unreliable bins always classify as uncertain.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Literal, Mapping, get_args

import numpy as np

from attrfuse._fields import Orientation, _attribute, _boolean, _integer, _list, _mapping, _number, _number_or_null
from attrfuse._fields import _orientation, _rate, _rate_or_null, read_field, read_json
from attrfuse.catalog import ObjectCatalog

Outcome = Literal["positive", "negative", "uncertain"]

DEFAULT_TARGET_PPV = 0.96
DEFAULT_TARGET_NPV = 0.96
DEFAULT_MIN_DETECTION_RATE = 0.09

_ORIENTATIONS = get_args(Orientation)


class CalibrationError(ValueError):
    """Invalid calibration input (empty or non-finite samples, bad targets, bad bandwidth)."""


class ModelFileError(ValueError):
    """Malformed models file; the message names the file, the attribute and the key."""


@dataclass(frozen=True)
class BinCalibration:
    """Calibration result for one (attribute, environment bin) pair; the bin is its key in the model.

    ``theta_pos``/``theta_neg`` are None when no threshold met its target on
    the calibration sample. All rates are exact counts on the calibration
    sample against the chosen thresholds; rates tied to a missing threshold
    are zero and the corresponding predictive value is None.
    """

    theta_pos: float | None
    theta_neg: float | None
    ppv: float | None
    npv: float | None
    detection_rate: float
    true_negative_rate: float
    false_positive_rate: float
    false_negative_rate: float
    reliable: bool

    def __post_init__(self):
        if self.reliable and (self.theta_pos is None or self.theta_neg is None):
            raise ValueError("reliable calibration requires both thresholds")
        if self.reliable and (self.ppv is None or self.npv is None):
            raise ValueError("reliable calibration requires both predictive values")


@dataclass(frozen=True)
class ClassifierModel:
    """One attribute's calibrated classifier across environment bins."""

    attribute_index: int
    orientation: Orientation
    calibrations: Mapping[int, BinCalibration]

    def __post_init__(self):
        if self.orientation not in _ORIENTATIONS:
            raise ValueError(f"unknown orientation {self.orientation!r}")
        for cal in self.calibrations.values():
            if cal.reliable:
                lo, hi = cal.theta_pos, cal.theta_neg
                if self.orientation == "higher_is_positive":
                    lo, hi = hi, lo
                if lo > hi:
                    raise ValueError("reliable calibration has crossed thresholds")


@dataclass(frozen=True)
class _Sweep:
    """Counts of one bin's labeled samples at every threshold candidate.

    Scores are negated under ``higher_is_positive``, so a sample is
    classified positive at or below a candidate and negative at or above it.
    Candidates are midpoints between consecutive distinct scores plus one
    sentinel beyond each extreme, in ascending order.
    """

    flip: bool
    n_pos: int
    n_neg: int
    candidates: np.ndarray
    tp: np.ndarray
    fp: np.ndarray
    tn: np.ndarray
    fn: np.ndarray


def _sweep(pos_scores, neg_scores, orientation: Orientation) -> _Sweep:
    pos = np.asarray(pos_scores, dtype=float).ravel()
    neg = np.asarray(neg_scores, dtype=float).ravel()
    if pos.size == 0 or neg.size == 0:
        raise CalibrationError("calibration needs at least one positive and one negative score")
    if not (np.isfinite(pos).all() and np.isfinite(neg).all()):
        raise CalibrationError("calibration scores must be finite")
    if orientation not in _ORIENTATIONS:
        raise CalibrationError(f"unknown orientation {orientation!r}")
    flip = orientation == "higher_is_positive"
    p = np.sort(-pos if flip else pos)
    n = np.sort(-neg if flip else neg)
    distinct = np.unique(np.concatenate([p, n]))
    mids = 0.5 * (distinct[:-1] + distinct[1:])
    cands = np.concatenate(([distinct[0] - 1.0], mids, [distinct[-1] + 1.0]))
    return _Sweep(
        flip=flip,
        n_pos=p.size,
        n_neg=n.size,
        candidates=cands,
        tp=np.searchsorted(p, cands, side="right").astype(float),
        fp=np.searchsorted(n, cands, side="right").astype(float),
        tn=(n.size - np.searchsorted(n, cands, side="left")).astype(float),
        fn=(p.size - np.searchsorted(p, cands, side="left")).astype(float),
    )


def _record(sweep: _Sweep, i_pos: int | None, i_neg: int | None) -> BinCalibration:
    """The bin's record with thresholds at candidates ``i_pos``/``i_neg`` (None: no threshold).

    Rates are the sweep's counts there. A predictive value is None when its
    threshold is missing or classifies no sample, and the record is reliable
    when both predictive values are defined.
    """
    theta_pos = theta_neg = ppv = npv = None
    detection = false_positive = true_negative = false_negative = 0.0
    if i_pos is not None:
        theta_pos = float(sweep.candidates[i_pos])
        tp, fp = float(sweep.tp[i_pos]), float(sweep.fp[i_pos])
        detection, false_positive = tp / sweep.n_pos, fp / sweep.n_neg
        ppv = tp / (tp + fp) if tp + fp else None
    if i_neg is not None:
        theta_neg = float(sweep.candidates[i_neg])
        tn, fn = float(sweep.tn[i_neg]), float(sweep.fn[i_neg])
        true_negative, false_negative = tn / sweep.n_neg, fn / sweep.n_pos
        npv = tn / (tn + fn) if tn + fn else None
    if sweep.flip:
        theta_pos = None if theta_pos is None else -theta_pos
        theta_neg = None if theta_neg is None else -theta_neg
    return BinCalibration(
        theta_pos=theta_pos,
        theta_neg=theta_neg,
        ppv=ppv,
        npv=npv,
        detection_rate=detection,
        true_negative_rate=true_negative,
        false_positive_rate=false_positive,
        false_negative_rate=false_negative,
        reliable=ppv is not None and npv is not None,
    )


def calibrate_bin(
    pos_scores,
    neg_scores,
    orientation: Orientation = "lower_is_positive",
    target_ppv: float = DEFAULT_TARGET_PPV,
    target_npv: float = DEFAULT_TARGET_NPV,
    min_detection_rate: float = DEFAULT_MIN_DETECTION_RATE,
) -> BinCalibration:
    """Sweep thresholds on labeled scores and pick the most permissive qualifying pair.

    The negative threshold is the most permissive candidate whose counted
    NPV reaches ``target_npv`` while classifying at least a
    ``min_detection_rate`` fraction of the negatives; the positive threshold
    is then the most permissive candidate at or inside it whose counted PPV
    reaches ``target_ppv`` with a detection rate of at least
    ``min_detection_rate``. Capping the positive sweep at the negative
    threshold keeps the pair from crossing on strongly separated samples
    (where both unconstrained sweeps would walk deep into the class gap) and
    biases the positive threshold toward the conservative side. Candidates
    are midpoints between consecutive distinct scores plus one sentinel
    beyond each extreme, so the sweep is exhaustive and deterministic. No
    qualifying threshold is not an error: the bin is simply marked
    unreliable.
    """
    s = _sweep(pos_scores, neg_scores, orientation)
    if not 0.0 < target_ppv <= 1.0 or not 0.0 < target_npv <= 1.0:
        raise CalibrationError("predictive value targets must be in (0, 1]")
    if not 0.0 <= min_detection_rate <= 1.0:
        raise CalibrationError("min_detection_rate must be in [0, 1]")

    predicted_neg = s.tn + s.fn
    npv_at = np.divide(s.tn, predicted_neg, out=np.zeros_like(s.tn), where=predicted_neg > 0)
    qualifies_neg = (predicted_neg >= 1) & (npv_at >= target_npv) & (s.tn / s.n_neg >= min_detection_rate)
    i_neg = int(np.flatnonzero(qualifies_neg)[0]) if qualifies_neg.any() else None

    predicted_pos = s.tp + s.fp
    ppv_at = np.divide(s.tp, predicted_pos, out=np.zeros_like(s.tp), where=predicted_pos > 0)
    qualifies_pos = (predicted_pos >= 1) & (ppv_at >= target_ppv) & (s.tp / s.n_pos >= min_detection_rate)
    if i_neg is not None:
        qualifies_pos &= s.candidates <= s.candidates[i_neg]
    i_pos = int(np.flatnonzero(qualifies_pos)[-1]) if qualifies_pos.any() else None
    return _record(s, i_pos, i_neg)


def single_threshold_calibration(
    pos_scores, neg_scores, orientation: Orientation = "lower_is_positive"
) -> BinCalibration:
    """The min-error threshold as a record whose two thresholds coincide, so no score is uncertain.

    The threshold minimizes total misclassifications on the training
    sample; ties are broken toward the midpoint of the tied candidate range,
    taking the lower candidate when two are equidistant, so the result is
    deterministic. Rates are counted as :func:`calibrate_bin` counts them.
    The record is unreliable when a predictive value is undefined because
    one side classifies no sample.
    """
    s = _sweep(pos_scores, neg_scores, orientation)
    errors = (s.n_pos - s.tp) + s.fp
    tied = np.flatnonzero(errors == errors.min())
    target = 0.5 * (s.candidates[tied[0]] + s.candidates[tied[-1]])
    i = int(tied[np.argmin(np.abs(s.candidates[tied] - target))])
    return _record(s, i, i)


def kde_density(scores, bandwidth: float, eval_points) -> np.ndarray:
    """Gaussian kernel density estimate with a fixed kernel standard deviation."""
    s = np.asarray(scores, dtype=float).ravel()
    if s.size == 0:
        raise CalibrationError("kde needs at least one score")
    if not bandwidth > 0:
        raise CalibrationError("bandwidth must be positive")
    x = np.atleast_1d(np.asarray(eval_points, dtype=float))
    z = (x[:, None] - s[None, :]) / bandwidth
    return np.exp(-0.5 * z * z).sum(axis=1) / (s.size * bandwidth * math.sqrt(2.0 * math.pi))


def save_models(models: Mapping[int, ClassifierModel], catalog: ObjectCatalog, path: str | Path) -> None:
    """Persist calibrated models keyed by attribute id; each bin record is written under its key in the model."""
    entries = [
        {
            "attribute": catalog.attributes[i],
            "orientation": models[i].orientation,
            # vars(): the record's fields in their order, "reliable" last
            "bins": [{"bin": k, **vars(cal)} for k, cal in sorted(models[i].calibrations.items())],
        }
        for i in sorted(models)
    ]
    Path(path).write_text(json.dumps({"models": entries}, indent=2) + "\n")


def _bin_record(where: str, rec: dict) -> tuple[int, BinCalibration]:
    """One saved bin record of the attribute at ``where``, with its bin; a ModelFileError names the bin and the key."""
    k = read_field(ModelFileError, where, rec, "bin", _integer)
    where = f"{where}: bin {k}"
    reliable = read_field(ModelFileError, where, rec, "reliable", _boolean)
    # an unreliable bin may leave its thresholds and predictive values null
    number, rate = (_number, _rate) if reliable else (_number_or_null, _rate_or_null)
    return k, BinCalibration(
        theta_pos=read_field(ModelFileError, where, rec, "theta_pos", number),
        theta_neg=read_field(ModelFileError, where, rec, "theta_neg", number),
        ppv=read_field(ModelFileError, where, rec, "ppv", rate),
        npv=read_field(ModelFileError, where, rec, "npv", rate),
        detection_rate=read_field(ModelFileError, where, rec, "detection_rate", _rate),
        true_negative_rate=read_field(ModelFileError, where, rec, "true_negative_rate", _rate),
        false_positive_rate=read_field(ModelFileError, where, rec, "false_positive_rate", _rate),
        false_negative_rate=read_field(ModelFileError, where, rec, "false_negative_rate", _rate),
        reliable=reliable,
    )


def load_models(path: str | Path, catalog: ObjectCatalog) -> dict[int, ClassifierModel]:
    """Load models persisted by :func:`save_models`, resolving attribute ids via the catalog.

    A malformed file raises :class:`ModelFileError` naming the file, the attribute, the bin and the key. Each
    attribute, and each bin of it, appears once. Reliable bins need finite thresholds and predictive values in
    [0, 1]; unreliable ones may leave them null.
    """
    _, raw = read_json(path, ModelFileError, "models")
    attribute, records = _attribute(catalog.attributes), partial(_list, item=_mapping)
    models: dict[int, ClassifierModel] = {}
    for n, entry in enumerate(read_field(ModelFileError, path, raw, "models", records)):
        i = read_field(ModelFileError, f"{path}: key 'models': entry {n}", entry, "attribute", attribute)
        where = f"{path}: attribute {catalog.attributes[i]!r}"
        if i in models:
            raise ModelFileError(f"{where}: listed twice")
        orientation = read_field(ModelFileError, where, entry, "orientation", _orientation)
        cals: dict[int, BinCalibration] = {}
        for k, cal in (_bin_record(where, rec) for rec in read_field(ModelFileError, where, entry, "bins", records)):
            if k in cals:
                raise ModelFileError(f"{where}: bin {k}: listed twice")
            cals[k] = cal
        try:
            models[i] = ClassifierModel(attribute_index=i, orientation=orientation, calibrations=cals)
        except ValueError as exc:  # crossed thresholds
            raise ModelFileError(f"{where}: {exc}") from None
    return models
