"""MAP posterior over objects from ternary, environment-tagged observations.

An adopted positive observation of attribute ``i`` multiplies object ``j``'s
weight by ``ppv / prior(i)`` when ``j`` has the attribute and by
``(1 - ppv) / (1 - prior(i))`` when it does not; an adopted negative
observation mirrors this with the NPV. Uncertain outcomes and observations
from unreliable bins are exact no-ops: their conditional factor reduces to the
attribute prior itself, so the ratio is 1. The posterior is a product of these
factors, so it depends only on how often each was adopted: :func:`decide`
takes those counts (:func:`count_codes` makes them from classification
codes), sums them (:func:`tally`) and decides. The normalization constant is
never computed; normalizing over the finite object set replaces it exactly.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from attrfuse.catalog import CatalogStats, NonDiscriminativeAttributeError

TIE_RELATIVE_TOLERANCE = 1e-9

# (attribute index, outcome, predictive value) of one adopted factor.
FactorKey = tuple[int, str, float]


def posterior(log_weights: np.ndarray) -> np.ndarray:
    """Normalized posterior probabilities of one row of log weights (max-shifted before exponentiation)."""
    shifted = np.exp(log_weights - log_weights.max())
    return shifted / shifted.sum()


def _log(x: np.ndarray) -> np.ndarray:
    """Elementwise libm log (numpy's SIMD log may differ in the last bit), ``-inf`` where ``x`` is not positive."""
    x = np.asarray(x, dtype=float)
    return np.array([math.log(v) if v > 0.0 else -math.inf for v in x.ravel().tolist()]).reshape(x.shape)


def log_factor_rows(positive_mask: np.ndarray, w: np.ndarray, positive: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Per-object log factors of keys given elementwise by their attribute's object mask (..., objects) and
    prior ``w``, whether their outcome is positive, and their predictive value."""
    has = np.where(positive, value, 1.0 - value)  # the outcome's probability for an object with the attribute
    lacks = np.where(positive, 1.0 - value, value)
    return np.where(positive_mask, (_log(has) - _log(w))[..., None], (_log(lacks) - _log(1.0 - w))[..., None])


def factor_table(keys: Sequence[FactorKey], stats: CatalogStats) -> np.ndarray:
    """The per-object log rows of ``keys``, one row per key."""
    attributes = np.array([key[0] for key in keys], dtype=np.intp)
    unusable = ~stats.usable[attributes]
    if unusable.any():
        raise NonDiscriminativeAttributeError(
            f"attribute index {attributes[unusable.argmax()]} is constant across the catalog and cannot be fused"
        )
    positive = np.array([key[1] == "positive" for key in keys], dtype=bool)
    value = np.array([key[2] for key in keys], dtype=float)
    return log_factor_rows(stats.positive_mask[attributes], stats.attribute_priors[attributes], positive, value)


def tally(log_prior: np.ndarray, counts: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``counts`` (..., rows x keys, keys in sorted order): zero-factor hits and finite log sums.

    ``counts`` may carry leading axes, such as checkpoints before the rows;
    every leading index is tallied in the same pass, as if on its own.
    ``table`` holds the keys' log rows (keys x objects), or one such table
    per row of ``counts`` (rows x keys x objects); ``log_prior`` is one row
    of objects, or one per row of ``counts``. The hits are one integer
    product of the counts with the zero-factor mask, exact in int64. The
    finite sums add each key's term in key order, the count taken as a
    float as numpy's mixed multiply takes it; a zero count adds +-0.0, so a
    row's sums equal those over its nonzero keys alone, bit for bit. The
    sums are formed objects first, so that each key's term is one multiply
    over every row, and returned as a (..., rows, objects) view.
    """
    zero = np.isneginf(table)
    hits = (counts[..., None, :] @ zero.astype(np.int64))[..., 0, :]
    lead = tuple(range(counts.ndim - 1))
    finite = np.broadcast_to(log_prior, hits.shape).transpose(-1, *lead).copy()  # objects x ... x rows
    columns = counts.transpose(-1, *lead).astype(float, order="C")  # keys x ... x rows
    factors = np.where(zero, 0.0, table).transpose(-2, -1, *range(table.ndim - 2))  # keys x objects [x rows]
    # each key's factors as they broadcast against finite's objects x ... x rows
    factors = factors.reshape(factors.shape[:2] + (1,) * (counts.ndim - table.ndim + 1) + factors.shape[2:])
    term = np.empty_like(finite)
    for count, factor in zip(columns, factors):
        finite += np.multiply(count, factor, out=term)
    return hits, finite.transpose(*range(1, counts.ndim), 0)


def map_log_weights(hits: np.ndarray, finite: np.ndarray) -> np.ndarray:
    """Per row: the finite sums of the objects with the fewest zero-factor hits, ``-inf`` elsewhere."""
    return np.where(hits == hits.min(axis=-1, keepdims=True), finite, -np.inf)


def tie_sets(log_weights: np.ndarray, priors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row: the objects tied at the maximum log weight, and those of them tied at the best prior."""
    tied = log_weights >= log_weights.max(axis=-1, keepdims=True) + math.log1p(-TIE_RELATIVE_TOLERANCE)
    best_prior = np.where(tied, priors, -np.inf).max(axis=-1, keepdims=True)
    return tied, tied & (priors >= best_prior * (1.0 - TIE_RELATIVE_TOLERANCE))


class Episodes(NamedTuple):
    """What :func:`decide` decides; ``hits`` and ``log_weights`` are those after the last checkpoint."""

    winners: np.ndarray  # (checkpoints, rows): the MAP object
    random: np.ndarray  # (checkpoints, rows): whether a seeded pick broke a prior tie
    tied: np.ndarray  # (checkpoints, rows, objects): the objects tied at the maximum posterior
    hits: np.ndarray  # (rows, objects): zero-factor hits
    log_weights: np.ndarray  # (rows, objects): the MAP log weights (map_log_weights)


def count_codes(codes: np.ndarray, n_keys: int, checkpoints: Sequence[int]) -> np.ndarray:
    """How often each of ``n_keys`` sorted keys' codes appears among each row's leading codes at each checkpoint.

    ``codes`` (rows x draws) index the keys; the code ``n_keys`` (no key) is not counted. One running total
    accumulates from checkpoint to checkpoint and is copied out at each: (checkpoints, rows, n_keys) int64.
    """
    rows, n_codes = codes.shape[0], n_keys + 1
    offsets = n_codes * np.arange(rows)[:, None]
    total = np.zeros((rows, n_codes), dtype=np.int64)
    counts = np.empty((len(checkpoints), rows, n_keys), dtype=np.int64)
    start = 0
    for c, stop in enumerate(checkpoints):
        total += np.bincount((codes[:, start:stop] + offsets).ravel(), minlength=total.size).reshape(total.shape)
        counts[c] = total[:, :-1]
        start = stop
    return counts


def decide(
    counts: np.ndarray, table: np.ndarray, priors: np.ndarray, pick: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> Episodes:
    """MAP decisions of every row of ``counts`` (checkpoints x rows x keys, cumulative, a leading axis as
    :func:`tally` takes it) at each checkpoint.

    ``table`` holds the keys' log rows, shared or one per row, as :func:`tally` takes it; ``priors`` is one row of
    objects or one per row. A zero prior marks a padded object: its log weight is ``-inf``, so it is never tied
    while some object's weight is finite. A posterior tie goes to the best prior; a tie in the prior as well goes to
    a seeded uniform pick. Every checkpoint is tallied and decided in one pass over the checkpoint axis, each as if
    on its own; then ``pick(rows, options)`` makes the picks of the rows with a random tie at some checkpoint, given
    how many prior-best objects each of them has at each checkpoint (checkpoints x len(rows)), as picks in
    ``[0, options)`` of the same shape: the pick-th prior-best object wins. It is called once, and not at all when
    no row has a random tie.
    """
    log_prior = np.log(priors, out=np.full(priors.shape, -np.inf), where=priors > 0)
    hits, finite = tally(log_prior, counts, table)
    log_weights = map_log_weights(hits, finite)
    tied, prior_best = tie_sets(log_weights, priors)
    options = prior_best.sum(axis=-1)
    winners = prior_best.argmax(axis=-1)
    random = options > 1
    picking = np.flatnonzero(random.any(axis=0))
    if picking.size:
        picks = pick(picking, options[:, picking])
        # the pick-th prior-best object: the first whose running count of them exceeds the pick
        winners[:, picking] = (prior_best[:, picking].cumsum(axis=-1) > picks[..., None]).argmax(axis=-1)
    return Episodes(winners, random, tied, hits[-1], log_weights[-1])
