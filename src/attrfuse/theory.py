"""Predictive-value floors and the certificate of guaranteed recognition.

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
``1 - w``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from attrfuse.catalog import CatalogStats, ObjectCatalog, compute_stats
from attrfuse.classifier import ClassifierModel
from attrfuse.fusion import TIE_RELATIVE_TOLERANCE

# Absolute slack on bound comparisons at exact thresholds, spent toward
# rejection by the predictive-value floors.
BOUND_TOLERANCE = 1e-12


@dataclass(frozen=True)
class CertificationVerdict:
    guaranteed: bool
    object_index: int | None
    candidates: tuple[int, ...]
    reason: str


def predictive_value_floors(stats: CatalogStats) -> tuple[np.ndarray, np.ndarray]:
    """PPV and NPV floors of every attribute, with the stats' leading case axes; NaN for constant attributes."""
    w, rp, rm = stats.attribute_priors, stats.prior_ratio_pos, stats.prior_ratio_neg
    return rp * w / (1.0 + (rp - 1.0) * w), rm * (1.0 - w) / (w + rm * (1.0 - w))


def _qualifies(value: float, floor: float) -> bool:
    """Whether a predictive value's factor beats that of its ``floor`` by more than the tie tolerance."""
    value -= BOUND_TOLERANCE
    return value * (1.0 - floor) * (1.0 - TIE_RELATIVE_TOLERANCE) > floor * (1.0 - value)


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
    The candidates are the objects with every attribute of ``pos_set`` and
    none of ``neg_set``, in index order; an attribute index out of range is
    an IndexError and overlapping sets a ValueError.
    """
    stats = compute_stats(catalog)
    pos = frozenset(int(i) for i in pos_set)
    neg = frozenset(int(i) for i in neg_set)
    for i in pos | neg:
        if not 0 <= i < catalog.n_attributes:
            raise IndexError(f"attribute index {i} out of range")
    if pos & neg:
        raise ValueError(f"evidence sets overlap on attributes {sorted(pos & neg)}")
    mask = stats.positive_mask
    candidates = tuple(np.flatnonzero(mask[sorted(pos)].all(axis=0) & ~mask[sorted(neg)].any(axis=0)).tolist())
    if len(candidates) == 0:
        return CertificationVerdict(False, None, candidates, "evidence is contradictory: no consistent object")
    if len(candidates) > 1:
        return CertificationVerdict(
            False, None, candidates, f"{len(candidates)} candidates remain; evidence is not uniquely identifying"
        )
    target = candidates[0]
    ppv_floors, npv_floors = predictive_value_floors(stats)
    for i in sorted(pos | neg):
        if not stats.usable[i]:
            return CertificationVerdict(False, None, candidates, f"attribute {i} is constant across the catalog")
        model = models.get(i)
        if model is None:
            return CertificationVerdict(False, None, candidates, f"attribute {i} has no classifier model")
        reliable = [(k, cal) for k, cal in sorted(model.calibrations.items()) if cal.reliable]
        if not reliable:
            return CertificationVerdict(False, None, candidates, f"attribute {i} has no reliable bin")
        ppv_bound, npv_bound = float(ppv_floors[i]), float(npv_floors[i])
        for k, cal in reliable:
            for observed, name, value, bound in ((pos, "ppv", cal.ppv, ppv_bound), (neg, "npv", cal.npv, npv_bound)):
                if i in observed and not _qualifies(value, bound):
                    return CertificationVerdict(
                        False, None, candidates,
                        f"attribute {i} bin {k}: {name} {value:.6f} at or below bound {bound:.6f}",
                    )
    return CertificationVerdict(True, target, candidates, "unique candidate with qualifying predictive values")
