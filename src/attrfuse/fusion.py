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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from attrfuse.catalog import CatalogStats, NonDiscriminativeAttributeError, ObjectCatalog
from attrfuse.classifier import ClassifierModel, Outcome, classify

TIE_RELATIVE_TOLERANCE = 1e-9

# (attribute index, outcome, predictive value) of one adopted factor.
FactorKey = tuple[int, str, float]


@dataclass(frozen=True)
class Observation:
    """One classifier outcome tagged with its environment bin."""

    attribute_index: int
    bin_index: int
    outcome: Outcome

    def __post_init__(self):
        if self.outcome not in ("positive", "negative", "uncertain"):
            raise ValueError(f"unknown outcome {self.outcome!r}")


@dataclass(frozen=True)
class PosteriorState:
    """Unnormalized log posterior: the log prior plus how often each factor was adopted.

    ``factors`` holds each adopted factor's per-object log row (``-inf``
    where the factor is 0) from its first adoption. Neither mapping is ever
    mutated, and any order of the same observations gives the same counts.
    """

    log_prior: np.ndarray
    counts: Mapping[FactorKey, int] = field(default_factory=dict)
    factors: Mapping[FactorKey, np.ndarray] = field(default_factory=dict)

    @cached_property
    def _tally(self) -> tuple[np.ndarray, np.ndarray]:
        """Per object: zero-factor hits, and the log prior plus every finite log factor."""
        keys = sorted(self.counts)
        table = np.array([self.factors[key] for key in keys]).reshape(len(keys), self.log_prior.size)
        hits, finite = tally(self.log_prior, np.array([[self.counts[key] for key in keys]], dtype=np.int64), table)
        return hits[0], finite[0]

    @cached_property
    def log_weights(self) -> np.ndarray:
        """The finite sums of the objects with the fewest zero-factor hits; ``-inf`` for every other object."""
        log_weights = map_log_weights(*self._tally)
        log_weights.setflags(write=False)
        return log_weights

    @property
    def saturated(self) -> bool:
        """Whether some object has been hit by a zero factor."""
        return bool(self._tally[0].any())

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


def make_observation(model: ClassifierModel, bin_index: int, score: float) -> Observation:
    """Classify a raw score and tag it with its attribute and bin."""
    return Observation(model.attribute_index, bin_index, classify(model, bin_index, score))


def init_posterior(catalog: ObjectCatalog) -> PosteriorState:
    """Posterior initialized to the catalog priors with no adopted observations."""
    log_prior = np.log(catalog.priors)
    log_prior.setflags(write=False)
    return PosteriorState(log_prior)


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
    row = np.where(stats.positive_mask[i], _log(p_match) - math.log(w), _log(p_other) - math.log(1.0 - w))
    row.setflags(write=False)
    return row


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


def tie_sets(
    log_weights: np.ndarray, priors: np.ndarray, rel_tol: float = TIE_RELATIVE_TOLERANCE
) -> tuple[np.ndarray, np.ndarray]:
    """Per row: the objects tied at the maximum log weight, and those of them tied at the best prior."""
    tied = log_weights >= log_weights.max(axis=-1, keepdims=True) + math.log1p(-rel_tol)
    best_prior = np.where(tied, priors, -np.inf).max(axis=-1, keepdims=True)
    return tied, tied & (priors >= best_prior * (1.0 - rel_tol))


def pick_tied(prior_best: np.ndarray, rng: np.random.Generator) -> int:
    """Seeded uniform pick among one row's prior-tied candidates."""
    options = np.flatnonzero(prior_best)
    return int(options[rng.integers(options.size)])


def counted_posterior(catalog: ObjectCatalog, stats: CatalogStats, counts: Mapping[FactorKey, int]) -> PosteriorState:
    """The posterior after each factor key's count of adopted observations."""
    counts = {key: int(n) for key, n in counts.items() if n}
    keys = sorted(counts)
    factors = dict(zip(keys, factor_table(keys, stats)))
    return PosteriorState(init_posterior(catalog).log_prior, counts, factors)


def update(
    state: PosteriorState,
    observation: Observation,
    model: ClassifierModel,
    stats: CatalogStats,
) -> PosteriorState:
    """Count one observation into the posterior; uncertain ones and unreliable bins return ``state`` itself."""
    if observation.outcome == "uncertain":
        return state
    i = observation.attribute_index
    if not stats.usable[i]:
        raise NonDiscriminativeAttributeError(
            f"attribute index {i} is constant across the catalog and cannot be fused"
        )
    try:
        cal = model.calibrations[observation.bin_index]
    except KeyError:
        raise ValueError(f"bin {observation.bin_index} is not calibrated") from None
    if not cal.reliable:
        return state
    # a reliable calibration always carries both predictive values
    key = (i, observation.outcome, cal.ppv if observation.outcome == "positive" else cal.npv)
    factors = state.factors
    if key not in factors:
        factors = {**factors, key: _log_factor_row(key, stats)}
    counts = dict(state.counts)
    counts[key] = counts.get(key, 0) + 1
    return PosteriorState(state.log_prior, counts, factors)


def decide(
    state: PosteriorState,
    catalog: ObjectCatalog,
    rng: np.random.Generator | None = None,
    rel_tol: float = TIE_RELATIVE_TOLERANCE,
) -> Decision:
    """Argmax over the posterior; posterior ties fall back to the prior argmax.

    When priors tie as well, the full tied set is returned and, if a
    generator is supplied, a uniform pick among the prior-tied candidates is
    recorded as the winner (experiments that must output a single object use
    this seeded pick).
    """
    tied, prior_best = tie_sets(state.log_weights, catalog.priors, rel_tol)
    candidates = tuple(np.flatnonzero(tied).tolist())
    if len(candidates) == 1:
        return Decision(winner=candidates[0], candidates=candidates, tie_broken_by="none")
    if prior_best.sum() == 1:
        return Decision(winner=int(prior_best.argmax()), candidates=candidates, tie_broken_by="prior")
    if rng is None:
        return Decision(winner=None, candidates=candidates, tie_broken_by="none")
    return Decision(winner=pick_tied(prior_best, rng), candidates=candidates, tie_broken_by="random")


def posterior_ratio(state: PosteriorState, object_a: int, object_b: int) -> float:
    """Log ratio of the unnormalized posterior weights of two objects.

    It is ``+inf`` when ``object_a`` has fewer zero-factor hits than
    ``object_b``, and ``-inf`` when it has more.
    """
    hits, finite = state._tally
    for j in (object_a, object_b):
        if not 0 <= j < finite.shape[0]:
            raise IndexError(f"object index {j} out of range")
    if hits[object_a] != hits[object_b]:
        return math.inf if hits[object_a] < hits[object_b] else -math.inf
    return float(finite[object_a] - finite[object_b])
