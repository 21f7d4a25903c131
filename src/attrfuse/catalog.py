"""Object catalogs: binary attribute matrices, priors, and prior-derived statistics."""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from attrfuse._fields import _bit, _list, _mapping, _number, _string, read_field, read_json

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
        if not ((matrix == 0) | (matrix == 1)).all():
            raise CatalogError("matrix entries must be 0 or 1")
        if priors.shape != (len(objects),):
            raise CatalogError("expected one prior per object")
        if not (priors > 0).all():
            raise CatalogError("priors must be strictly positive")
        with np.errstate(over="ignore"):  # finite priors near the float maximum sum to inf
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
    enter fusion. Stats from :func:`prior_stats` may carry leading case axes.
    """

    attribute_priors: np.ndarray
    prior_ratio_pos: np.ndarray
    prior_ratio_neg: np.ndarray
    usable: np.ndarray
    positive_mask: np.ndarray  # (n_attributes, n_objects) bool, transposed matrix


def prior_stats(matrix: np.ndarray, priors: np.ndarray) -> CatalogStats:
    """:class:`CatalogStats` of a 0/1 ``matrix`` (..., objects, attributes) and its ``priors`` (..., objects).

    Leading axes hold independent catalogs. A zero prior marks a padded
    object slot, which belongs to neither group of any attribute.
    """
    present = (priors > 0)[..., None]
    member, lacking = (matrix != 0) & present, (matrix == 0) & present
    usable = member.any(axis=-2) & lacking.any(axis=-2)
    column = priors[..., None]
    member_priors = np.where(member, column, 0.0)
    # an empty group's max is 0 and its min inf, so an unusable ratio divides without a warning
    pos_max, pos_min = member_priors.max(axis=-2), np.where(member, column, np.inf).min(axis=-2)
    neg_max, neg_min = np.where(lacking, column, 0.0).max(axis=-2), np.where(lacking, column, np.inf).min(axis=-2)
    ratio_pos = np.where(usable, np.maximum(1.0, neg_max / pos_min), np.nan)
    ratio_neg = np.where(usable, np.maximum(1.0, pos_max / neg_min), np.nan)
    # summed object by object, so trailing padded objects cannot change a bit (a matmul's order depends on the shape)
    attr_priors = member_priors.sum(axis=-2)
    positive_mask = np.ascontiguousarray(np.swapaxes(member, -1, -2))
    for arr in (attr_priors, ratio_pos, ratio_neg, usable, positive_mask):
        arr.setflags(write=False)
    return CatalogStats(
        attribute_priors=attr_priors,
        prior_ratio_pos=ratio_pos,
        prior_ratio_neg=ratio_neg,
        usable=usable,
        positive_mask=positive_mask,
    )


def compute_stats(catalog: ObjectCatalog) -> CatalogStats:
    """Precompute per-attribute priors, ratio terms, and the positive mask."""
    return prior_stats(catalog.matrix, catalog.priors)


def load_catalog(path: str | Path) -> ObjectCatalog:
    """Load a catalog file: keys ``objects`` ({id, prior} records), ``attributes``, ``matrix``.

    A malformed file raises :class:`CatalogError` naming the file and the key. Ids are strings, priors finite
    numbers, and matrix rows lists of the integers 0 and 1, one per attribute; nothing is coerced.
    """
    path = Path(path)
    _, raw = read_json(path, CatalogError, "catalog")
    read = partial(read_field, CatalogError, path, raw)
    entries = read("objects", partial(_list, item=_mapping))
    where = [f"{path}: key 'objects': entry {n}" for n in range(len(entries))]
    ids = [read_field(CatalogError, at, entry, "id", _string) for at, entry in zip(where, entries)]
    priors = [read_field(CatalogError, at, entry, "prior", _number) for at, entry in zip(where, entries)]
    attributes = read("attributes", partial(_list, item=_string))
    matrix = read("matrix", partial(_list, item=partial(_list, item=_bit, length=len(attributes))))
    try:
        return ObjectCatalog(objects=ids, attributes=attributes, matrix=np.asarray(matrix), priors=np.asarray(priors))
    except CatalogError as exc:
        raise CatalogError(f"{path}: {exc}") from None
