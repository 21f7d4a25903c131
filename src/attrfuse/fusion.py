"""MAP posterior over objects from ternary, environment-tagged observations.

An adopted positive observation of attribute ``i`` multiplies object ``j``'s
weight by ``ppv / prior(i)`` when ``j`` has the attribute and by
``(1 - ppv) / (1 - prior(i))`` when it does not; an adopted negative
observation mirrors this with the NPV. Uncertain outcomes and observations
from unreliable bins are exact no-ops: their conditional factor reduces to the
attribute prior itself, so the ratio is 1. The posterior is a product of these
factors, so it depends only on how often each was adopted (:func:`tally`);
``simulator.decide_episodes`` decides from those sums. The normalization
constant is never computed; normalizing over the finite object set replaces
it exactly.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from attrfuse.catalog import CatalogStats, NonDiscriminativeAttributeError

TIE_RELATIVE_TOLERANCE = 1e-9

# (attribute index, outcome, predictive value) of one adopted factor.
FactorKey = tuple[int, str, float]


def posterior(log_weights: np.ndarray) -> np.ndarray:
    """Normalized posterior probabilities of one row of log weights (max-shifted before exponentiation)."""
    shifted = np.exp(log_weights - log_weights.max())
    return shifted / shifted.sum()


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _log_factor_row(key: FactorKey, stats: CatalogStats) -> np.ndarray:
    i, outcome, predictive_value = key
    w = float(stats.attribute_priors[i])
    p_match, p_other = predictive_value, 1.0 - predictive_value
    if outcome == "negative":
        p_match, p_other = p_other, p_match
    return np.where(stats.positive_mask[i], _log(p_match) - math.log(w), _log(p_other) - math.log(1.0 - w))


def factor_table(keys: Sequence[FactorKey], stats: CatalogStats) -> np.ndarray:
    """The per-object log rows of ``keys``, one row per key."""
    table = np.empty((len(keys), stats.positive_mask.shape[1]))
    for row, key in enumerate(keys):
        if not stats.usable[key[0]]:
            raise NonDiscriminativeAttributeError(
                f"attribute index {key[0]} is constant across the catalog and cannot be fused"
            )
        table[row] = _log_factor_row(key, stats)
    return table


def tally(log_prior: np.ndarray, counts: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``counts`` (rows x keys, keys in sorted order): zero-factor hits and finite log sums.

    ``table`` holds the keys' log rows. A zero count adds +-0.0, so a row's
    sums equal those over its nonzero keys alone, bit for bit.
    """
    zero = np.isneginf(table)
    finite_table = np.where(zero, 0.0, table)
    hits = np.zeros((counts.shape[0], log_prior.size), dtype=np.int64)
    finite = np.tile(log_prior, (counts.shape[0], 1))
    for key in range(counts.shape[1]):
        count = counts[:, key, None]
        hits += count * zero[key]
        finite += count * finite_table[key]
    return hits, finite


def map_log_weights(hits: np.ndarray, finite: np.ndarray) -> np.ndarray:
    """Per row: the finite sums of the objects with the fewest zero-factor hits, ``-inf`` elsewhere."""
    return np.where(hits == hits.min(axis=-1, keepdims=True), finite, -np.inf)


def tie_sets(log_weights: np.ndarray, priors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row: the objects tied at the maximum log weight, and those of them tied at the best prior."""
    tied = log_weights >= log_weights.max(axis=-1, keepdims=True) + math.log1p(-TIE_RELATIVE_TOLERANCE)
    best_prior = np.where(tied, priors, -np.inf).max(axis=-1, keepdims=True)
    return tied, tied & (priors >= best_prior * (1.0 - TIE_RELATIVE_TOLERANCE))


def pick_tied(prior_best: np.ndarray, rng: np.random.Generator) -> int:
    """Seeded uniform pick among one row's prior-tied candidates."""
    options = np.flatnonzero(prior_best)
    return int(options[rng.integers(options.size)])
