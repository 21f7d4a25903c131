"""Object catalogs: binary attribute matrices, priors, and prior-derived statistics."""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Prior vectors whose sum is off by at most this much are rescaled; anything
# further off is treated as a user error and rejected.
PRIOR_SUM_TOLERANCE = 1e-6


class CatalogError(ValueError):
    """Malformed catalog input."""


class NonDiscriminativeAttributeError(ValueError):
    """Attribute is constant across the catalog and carries no evidence."""


@dataclass(frozen=True)
class ObjectCatalog:
    """Object set described by a binary attribute matrix and positive priors.

    ``matrix[j, i]`` is 1 iff object ``j`` has attribute ``i``. Priors are
    strictly positive and are rescaled to sum to exactly 1 on construction.
    Instances are immutable and safe to share across concurrent trials.
    """

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    matrix: np.ndarray
    priors: np.ndarray

    def __post_init__(self):
        objects = tuple(str(o) for o in self.objects)
        attributes = tuple(str(a) for a in self.attributes)
        matrix = np.asarray(self.matrix)
        priors = np.asarray(self.priors, dtype=float).ravel()
        if len(objects) < 1 or len(attributes) < 1:
            raise CatalogError("catalog needs at least one object and one attribute")
        if len(set(objects)) != len(objects):
            raise CatalogError("duplicate object ids")
        if len(set(attributes)) != len(attributes):
            raise CatalogError("duplicate attribute ids")
        if matrix.shape != (len(objects), len(attributes)):
            raise CatalogError(
                f"matrix shape {matrix.shape} does not match "
                f"{len(objects)} objects x {len(attributes)} attributes"
            )
        if not np.isin(matrix, (0, 1)).all():
            raise CatalogError("matrix entries must be 0 or 1")
        if priors.shape != (len(objects),):
            raise CatalogError("expected one prior per object")
        if not (priors > 0).all():
            raise CatalogError("priors must be strictly positive")
        total = float(priors.sum())
        if abs(total - 1.0) > PRIOR_SUM_TOLERANCE:
            raise CatalogError(f"priors sum to {total!r}, expected 1 within {PRIOR_SUM_TOLERANCE}")
        matrix = matrix.astype(np.int8)
        priors = priors / total
        matrix.setflags(write=False)
        priors.setflags(write=False)
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "attributes", attributes)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "priors", priors)

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    def object_index(self, object_id: str) -> int:
        try:
            return self.objects.index(object_id)
        except ValueError:
            raise CatalogError(f"unknown object id {object_id!r}") from None

    def attribute_index(self, attribute_id: str) -> int:
        try:
            return self.attributes.index(attribute_id)
        except ValueError:
            raise CatalogError(f"unknown attribute id {attribute_id!r}") from None


@dataclass(frozen=True)
class CatalogStats:
    """Prior-derived quantities consumed by the posterior factors and the bounds.

    ``attribute_priors[i]`` is the prior probability that attribute ``i`` is
    positive. ``prior_ratio_pos``/``prior_ratio_neg`` are the worst-case prior
    ratios between the negative and positive object groups (and vice versa),
    clamped below at 1; they are NaN for attributes that are constant across
    the catalog, and ``usable`` marks the non-constant attributes that may
    enter fusion.
    """

    attribute_priors: np.ndarray
    prior_ratio_pos: np.ndarray
    prior_ratio_neg: np.ndarray
    usable: np.ndarray
    positive_mask: np.ndarray  # (n_attributes, n_objects) bool, transposed matrix


def compute_stats(catalog: ObjectCatalog) -> CatalogStats:
    """Precompute per-attribute priors, ratio terms, and the positive mask."""
    member = catalog.matrix.astype(bool)
    priors = catalog.priors
    attr_priors = priors @ catalog.matrix.astype(float)
    usable = member.any(axis=0) & (~member).any(axis=0)
    n_attr = catalog.n_attributes
    ratio_pos = np.full(n_attr, np.nan)
    ratio_neg = np.full(n_attr, np.nan)
    for i in np.flatnonzero(usable):
        pos_priors = priors[member[:, i]]
        neg_priors = priors[~member[:, i]]
        ratio_pos[i] = max(1.0, float(neg_priors.max() / pos_priors.min()))
        ratio_neg[i] = max(1.0, float(pos_priors.max() / neg_priors.min()))
    positive_mask = np.ascontiguousarray(member.T)
    for arr in (attr_priors, ratio_pos, ratio_neg, usable, positive_mask):
        arr.setflags(write=False)
    return CatalogStats(
        attribute_priors=attr_priors,
        prior_ratio_pos=ratio_pos,
        prior_ratio_neg=ratio_neg,
        usable=usable,
        positive_mask=positive_mask,
    )


def unique_candidates(
    catalog: ObjectCatalog,
    cumulative_pos_set: frozenset[int] | set[int],
    cumulative_neg_set: frozenset[int] | set[int],
) -> tuple[int, ...]:
    """Objects consistent with all adopted positive and negative attribute evidence.

    Returns the sorted indices of objects whose positive attributes cover
    ``cumulative_pos_set`` and whose negative attributes cover
    ``cumulative_neg_set``. An empty result means the evidence is
    contradictory; it is a legal return, not an error.
    """
    pos = frozenset(int(i) for i in cumulative_pos_set)
    neg = frozenset(int(i) for i in cumulative_neg_set)
    for i in pos | neg:
        if not 0 <= i < catalog.n_attributes:
            raise IndexError(f"attribute index {i} out of range")
    if pos & neg:
        raise ValueError(f"evidence sets overlap on attributes {sorted(pos & neg)}")
    member = catalog.matrix.astype(bool)
    keep = np.ones(catalog.n_objects, dtype=bool)
    if pos:
        keep &= member[:, sorted(pos)].all(axis=1)
    if neg:
        keep &= (~member[:, sorted(neg)]).all(axis=1)
    return tuple(int(j) for j in np.flatnonzero(keep))


def load_catalog(path: str | Path) -> ObjectCatalog:
    """Load a catalog file: keys ``objects`` ({id, prior} records), ``attributes``, ``matrix``.

    An unreadable or malformed file raises :class:`CatalogError` naming the file.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_bytes())
    except OSError as exc:
        raise CatalogError(f"{path}: cannot read catalog ({exc.strerror})") from None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise CatalogError(f"{path}: not valid JSON ({exc})") from exc
    try:
        objects = [entry["id"] for entry in raw["objects"]]
        priors = [entry["prior"] for entry in raw["objects"]]
        attributes = list(raw["attributes"])
        matrix = raw["matrix"]
    except (KeyError, TypeError) as exc:
        raise CatalogError(f"{path}: missing or malformed key ({exc})") from exc
    try:
        return ObjectCatalog(objects=objects, attributes=attributes, matrix=np.asarray(matrix), priors=np.asarray(priors, dtype=float))
    except CatalogError as exc:
        raise CatalogError(f"{path}: {exc}") from None
