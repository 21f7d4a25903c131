"""Predictive-value requirements and false-rate bounds for guaranteed recognition.

For an attribute with positive prior ``w`` and worst-case prior ratios
``r+``/``r-``, correct and uniquely identifying evidence is guaranteed to win
the MAP decision when every involved classifier satisfies, strictly,

    ppv > r+ * w / (1 + (r+ - 1) * w)
    npv > r- * (1 - w) / (w + r- * (1 - w))

At a floor the factor only offsets the worst-case prior ratio, so the
weights tie and the prior fallback may pick another object. A bin qualifies
when its factor beats the ratio by more than the decision's relative
``TIE_RELATIVE_TOLERANCE``: its odds ``v / (1 - v)`` exceed the floor's odds
that much, with ``BOUND_TOLERANCE`` of slack toward rejection.

With equal priors both ratios are 1 and the floors reduce to ``w`` and
``1 - w``. The false-positive and false-negative rates of a calibrated bin
are bounded above by ``(1 - ppv) / (1 - w)`` and ``(1 - npv) / w``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from attrfuse.catalog import (
    CatalogStats,
    NonDiscriminativeAttributeError,
    ObjectCatalog,
    compute_stats,
    unique_candidates,
)
from attrfuse.classifier import ClassifierModel
from attrfuse.fusion import TIE_RELATIVE_TOLERANCE

# Absolute slack on bound comparisons at exact thresholds, spent toward
# rejection by the predictive-value floors and toward acceptance by the
# false-rate bounds.
BOUND_TOLERANCE = 1e-12


@dataclass(frozen=True)
class BinRequirement:
    attribute_index: int
    bin_index: int
    ppv_bound: float
    npv_bound: float
    ppv_ok: bool
    npv_ok: bool


@dataclass(frozen=True)
class RequirementReport:
    """Per-(attribute, reliable bin) check of the predictive-value floors."""

    entries: tuple[BinRequirement, ...]
    overall_ok: bool


@dataclass(frozen=True)
class RateBoundEntry:
    attribute_index: int
    bin_index: int
    false_positive_upper: float
    false_negative_upper: float
    false_positive_rate: float
    false_negative_rate: float
    false_positive_ok: bool
    false_negative_ok: bool


@dataclass(frozen=True)
class CertificationVerdict:
    guaranteed: bool
    object_index: int | None
    candidates: tuple[int, ...]
    reason: str


def required_predictive_values(stats: CatalogStats, attribute_index: int) -> tuple[float, float]:
    """PPV and NPV floors for one attribute; raises for constant attributes."""
    if not 0 <= attribute_index < stats.usable.shape[0]:
        raise IndexError(f"attribute index {attribute_index} out of range")
    if not stats.usable[attribute_index]:
        raise NonDiscriminativeAttributeError(
            f"attribute index {attribute_index} is constant across the catalog"
        )
    ppv_bound, npv_bound = predictive_value_floors(stats)
    return float(ppv_bound[attribute_index]), float(npv_bound[attribute_index])


def predictive_value_floors(stats: CatalogStats) -> tuple[np.ndarray, np.ndarray]:
    """PPV and NPV floors of every attribute, with the stats' leading case axes; NaN for constant attributes."""
    w, rp, rm = stats.attribute_priors, stats.prior_ratio_pos, stats.prior_ratio_neg
    return rp * w / (1.0 + (rp - 1.0) * w), rm * (1.0 - w) / (w + rm * (1.0 - w))


def _qualifies(value: float, floor: float) -> bool:
    """Whether a predictive value's factor beats that of its ``floor`` by more than the tie tolerance."""
    value -= BOUND_TOLERANCE
    return value * (1.0 - floor) * (1.0 - TIE_RELATIVE_TOLERANCE) > floor * (1.0 - value)


def requirement_report(models: Mapping[int, ClassifierModel], stats: CatalogStats) -> RequirementReport:
    """Check that every reliable bin of every usable modeled attribute qualifies, strictly above the floors."""
    entries: list[BinRequirement] = []
    for attribute_index in sorted(models):
        if not stats.usable[attribute_index]:
            continue
        ppv_bound, npv_bound = required_predictive_values(stats, attribute_index)
        model = models[attribute_index]
        for bin_index in sorted(model.calibrations):
            cal = model.calibrations[bin_index]
            if not cal.reliable:
                continue
            entries.append(
                BinRequirement(
                    attribute_index=attribute_index,
                    bin_index=bin_index,
                    ppv_bound=ppv_bound,
                    npv_bound=npv_bound,
                    ppv_ok=_qualifies(cal.ppv, ppv_bound),
                    npv_ok=_qualifies(cal.npv, npv_bound),
                )
            )
    overall = all(e.ppv_ok and e.npv_ok for e in entries)
    return RequirementReport(entries=tuple(entries), overall_ok=overall)


def certify_guaranteed_recognition(
    catalog: ObjectCatalog,
    models: Mapping[int, ClassifierModel],
    pos_set,
    neg_set,
) -> CertificationVerdict:
    """Brute-force certificate that the given evidence forces a correct MAP winner.

    The verdict is guaranteed only when (a) exactly one object is consistent
    with the evidence and (b) every involved attribute qualifies, strictly
    above its predictive-value floor, in every reliable bin of its model,
    so the conclusion does not depend on which bin the evidence came from.
    """
    stats = compute_stats(catalog)
    pos = frozenset(int(i) for i in pos_set)
    neg = frozenset(int(i) for i in neg_set)
    candidates = unique_candidates(catalog, pos, neg)
    if len(candidates) == 0:
        return CertificationVerdict(False, None, candidates, "evidence is contradictory: no consistent object")
    if len(candidates) > 1:
        return CertificationVerdict(
            False, None, candidates, f"{len(candidates)} candidates remain; evidence is not uniquely identifying"
        )
    target = candidates[0]
    for i in sorted(pos | neg):
        if not stats.usable[i]:
            return CertificationVerdict(False, None, candidates, f"attribute {i} is constant across the catalog")
        model = models.get(i)
        if model is None:
            return CertificationVerdict(False, None, candidates, f"attribute {i} has no classifier model")
        reliable = [(k, cal) for k, cal in sorted(model.calibrations.items()) if cal.reliable]
        if not reliable:
            return CertificationVerdict(False, None, candidates, f"attribute {i} has no reliable bin")
        ppv_bound, npv_bound = required_predictive_values(stats, i)
        for k, cal in reliable:
            for observed, name, value, bound in ((pos, "ppv", cal.ppv, ppv_bound), (neg, "npv", cal.npv, npv_bound)):
                if i in observed and not _qualifies(value, bound):
                    return CertificationVerdict(
                        False, None, candidates,
                        f"attribute {i} bin {k}: {name} {value:.6f} at or below bound {bound:.6f}",
                    )
    return CertificationVerdict(True, target, candidates, "unique candidate with qualifying predictive values")


def false_rate_bounds(model: ClassifierModel, stats: CatalogStats) -> tuple[RateBoundEntry, ...]:
    """Upper bounds on the false rates of each reliable bin, compared to measured rates."""
    i = model.attribute_index
    if not stats.usable[i]:
        raise NonDiscriminativeAttributeError(f"attribute index {i} is constant across the catalog")
    w = float(stats.attribute_priors[i])
    entries: list[RateBoundEntry] = []
    for bin_index in sorted(model.calibrations):
        cal = model.calibrations[bin_index]
        if not cal.reliable:
            continue
        fp_upper = (1.0 - cal.ppv) / (1.0 - w)
        fn_upper = (1.0 - cal.npv) / w
        entries.append(
            RateBoundEntry(
                attribute_index=i,
                bin_index=bin_index,
                false_positive_upper=fp_upper,
                false_negative_upper=fn_upper,
                false_positive_rate=cal.false_positive_rate,
                false_negative_rate=cal.false_negative_rate,
                false_positive_ok=cal.false_positive_rate <= fp_upper + BOUND_TOLERANCE,
                false_negative_ok=cal.false_negative_rate <= fn_upper + BOUND_TOLERANCE,
            )
        )
    return tuple(entries)
