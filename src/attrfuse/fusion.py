"""MAP posterior over objects from ternary, environment-tagged observations.

An adopted positive observation of attribute ``i`` multiplies object ``j``'s
weight by ``ppv / prior(i)`` when ``j`` has the attribute and by
``(1 - ppv) / (1 - prior(i))`` when it does not; an adopted negative
observation mirrors this with the NPV. Uncertain outcomes and observations
from unreliable bins are exact no-ops: their conditional factor reduces to the
attribute prior itself, so the ratio is 1. The posterior is a product of these
factors, so the state only counts how often each was adopted. The
normalization constant is never computed; normalizing over the finite object
set replaces it exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from attrfuse.catalog import CatalogStats, NonDiscriminativeAttributeError, ObjectCatalog
from attrfuse.classifier import Outcome

TIE_RELATIVE_TOLERANCE = 1e-9

# (attribute index, outcome, predictive value) of one adopted factor.
FactorKey = tuple[int, str, float]


@dataclass(frozen=True)
class PosteriorState:
    """Unnormalized log posterior: how often each factor was adopted, and their tally row.

    ``counts`` holds the adopted keys with positive counts, in sorted key
    order. ``hits`` and ``finite`` are the :func:`tally` row of those
    counts, made read-only: per object, the zero-factor hits, and the log
    prior plus every finite log factor. Any order of the same observations
    gives the same state.
    """

    counts: Mapping[FactorKey, int]
    hits: np.ndarray
    finite: np.ndarray

    def __post_init__(self):
        self.hits.setflags(write=False)
        self.finite.setflags(write=False)

    @cached_property
    def log_weights(self) -> np.ndarray:
        """The finite sums of the objects with the fewest zero-factor hits; ``-inf`` for every other object."""
        log_weights = map_log_weights(self.hits, self.finite)
        log_weights.setflags(write=False)
        return log_weights

    @property
    def saturated(self) -> bool:
        """Whether some object has been hit by a zero factor."""
        return bool(self.hits.any())

    def outcome_counts(self, outcome: Outcome) -> dict[int, int]:
        """Adoptions of ``outcome`` per attribute index; attributes without any are absent."""
        per_attribute: dict[int, int] = {}
        for (i, adopted, _), count in self.counts.items():
            if adopted == outcome:
                per_attribute[i] = per_attribute.get(i, 0) + count
        return per_attribute


@dataclass(frozen=True)
class Decision:
    """MAP decision: unique winner, or a tied candidate set with the break used.

    ``tie_broken_by`` is "none" for a unique maximum (and for unresolved ties
    when no generator was supplied, in which case ``winner`` is None),
    "prior" when the prior argmax resolved a posterior tie, and "random" for
    a seeded uniform pick among prior-tied candidates.
    """

    winner: int | None
    candidates: tuple[int, ...]
    tie_broken_by: str


def posterior(state: PosteriorState) -> np.ndarray:
    """Normalized posterior probabilities (max-shifted before exponentiation)."""
    shifted = np.exp(state.log_weights - state.log_weights.max())
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


def counted_posterior(catalog: ObjectCatalog, stats: CatalogStats, counts: Mapping[FactorKey, int]) -> PosteriorState:
    """The posterior after each factor key's count of adopted observations."""
    counts = {key: int(counts[key]) for key in sorted(counts) if counts[key]}
    row = np.array([list(counts.values())], dtype=np.int64)
    hits, finite = tally(np.log(catalog.priors), row, factor_table(list(counts), stats))
    return PosteriorState(counts, hits[0], finite[0])


def decide(state: PosteriorState, catalog: ObjectCatalog, rng: np.random.Generator | None = None) -> Decision:
    """Argmax over the posterior; posterior ties fall back to the prior argmax.

    When priors tie as well, the full tied set is returned and, if a
    generator is supplied, a uniform pick among the prior-tied candidates is
    recorded as the winner (experiments that must output a single object use
    this seeded pick).
    """
    tied, prior_best = tie_sets(state.log_weights, catalog.priors)
    candidates = tuple(np.flatnonzero(tied).tolist())
    if len(candidates) == 1:
        return Decision(winner=candidates[0], candidates=candidates, tie_broken_by="none")
    if prior_best.sum() == 1:
        return Decision(winner=int(prior_best.argmax()), candidates=candidates, tie_broken_by="prior")
    if rng is None:
        return Decision(winner=None, candidates=candidates, tie_broken_by="none")
    return Decision(winner=pick_tied(prior_best, rng), candidates=candidates, tie_broken_by="random")

