"""Two-threshold score classifiers: per-bin calibration, ternary classification of score arrays, persistence.

A classifier for one attribute carries, per environment bin, a pair of score
thresholds: one tuned for high positive predictive value, one for high
negative predictive value. Scores between the thresholds map to "uncertain"
and carry no evidence. A bin is reliable only when both thresholds exist and
do not cross; unreliable bins always classify as uncertain.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from attrfuse._fields import Orientation, _attribute, _bin, _boolean, _list, _mapping, _number, _number_or_null
from attrfuse._fields import _orientation, _rate, _rate_or_null, read_field, read_json
from attrfuse.catalog import ObjectCatalog
from attrfuse.fusion import FactorKey

DEFAULT_TARGET_PPV = 0.96
DEFAULT_TARGET_NPV = 0.96
DEFAULT_MIN_DETECTION_RATE = 0.09

# Each orientation's sign: a score times it is positive at or below the positive threshold times it.
_SIGN: dict[Orientation, float] = {"lower_is_positive": 1.0, "higher_is_positive": -1.0}


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
        if self.orientation not in _SIGN:
            raise ValueError(f"unknown orientation {self.orientation!r}")
        sign = _SIGN[self.orientation]
        for cal in self.calibrations.values():
            if cal.reliable and sign * cal.theta_pos > sign * cal.theta_neg:
                raise ValueError("reliable calibration has crossed thresholds")


# The score slots one sweep pass holds (pairs x the pass's longest pair). Pairs are batched in order up to it, so a
# pass's arrays stay in cache however large the training sets; a longer pair gets a pass of its own. A pass keeps
# only the counts its picks read, so twice the 2**13 slots of a pass that kept all four counts still fits, and
# measured faster; 2**15 and 2**16 were no faster at 10x the exp3 training counts.
_PASS_SLOTS = 2**14

# Half the largest float: the sum of two finite scores can overflow only where one of them lies beyond it.
_HALF_MAX = np.finfo(float).max / 2

Pairs = Sequence[tuple]  # per bin: its positive and its negative scores, each array-like


class _Sweep(NamedTuple):
    """Counts of a pass of labeled (positive, negative) score pairs at every threshold candidate, one row per pair.

    Scores are multiplied by ``sign``, so a sample is classified positive at
    or below a candidate and negative at or above it.
    Row ``r``'s scores are sorted into its first ``n_pos[r] + n_neg[r]``
    slots, and column ``c`` of ``candidates`` lies between sorted slots
    ``c - 1`` and ``c``. The candidates are where ``is_candidate`` holds:
    column 0, a sentinel below the lowest score, and the column after each
    run of equal scores, the midpoint to the next score or a sentinel above
    the highest. So a row's candidates ascend along it. The counts at each
    are those ``np.searchsorted`` gives at its value. The four counts of a
    candidate follow from them: ``tp``, ``fp = at_or_below - tp``,
    ``tn = n_neg - (strictly_below - below)`` and ``fn = n_pos - below``.
    ``at_or_below`` and ``strictly_below`` are the one row of column
    indices, shared by every row, unless some candidate lands on a score.
    """

    sign: float
    n_pos: np.ndarray  # (rows,)
    n_neg: np.ndarray
    candidates: np.ndarray  # (rows, slots + 1)
    is_candidate: np.ndarray
    tp: np.ndarray  # positives at or below the candidate
    below: np.ndarray  # positives strictly below it
    at_or_below: np.ndarray  # slots at or below it: (slots + 1,) or (rows, slots + 1)
    strictly_below: np.ndarray  # slots strictly below it: (slots + 1,) or (rows, slots + 1)


def _midpoint(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``0.5 * (a + b)``, or ``0.5 * a + 0.5 * b`` where the sum of finite ``a`` and ``b`` overflows."""
    with np.errstate(over="ignore"):
        mid = 0.5 * (a + b)
    overflowed = np.isinf(mid) & np.isfinite(a) & np.isfinite(b)
    mid[overflowed] = 0.5 * a[overflowed] + 0.5 * b[overflowed]
    return mid


def _sweep(flat: np.ndarray, n_pos: np.ndarray, n_neg: np.ndarray, sign: float) -> _Sweep:
    """The sweep of the pairs whose scores follow each other in ``flat``, each pair's positives first.

    Each row is sorted once, and the running count of positives over the
    sorted slots gives every candidate's counts. A candidate lies strictly
    between two scores unless it rounds onto one: the midpoint of adjacent
    doubles, or a sentinel at a magnitude where ``s - 1 == s``. Such a
    candidate counts the whole run of equal scores it lands on.
    """
    sizes = n_pos + n_neg
    rows, slots = len(sizes), int(sizes.max())
    columns = np.arange(slots + 1)
    values = np.full((rows, slots + 1), np.inf)  # padding sorts last; the extra column ends each row's last run
    values[columns < sizes[:, None]] = sign * flat  # each row's signed scores in its leading slots
    order = np.argsort(values, axis=1)
    values = np.take_along_axis(values, order, axis=1)
    positives = np.zeros((rows, slots + 2), dtype=np.int64)  # [r, c]: positives among row r's first c sorted slots
    np.cumsum(order < n_pos[:, None], axis=1, out=positives[:, 1:])

    is_candidate = np.ones(values.shape, dtype=bool)
    is_candidate[:, 1:] = values[:, :-1] != values[:, 1:]
    candidates = np.empty(values.shape)
    candidates[:, 0] = values[:, 0] - 1.0
    highest = values[np.arange(rows), sizes - 1]
    if (values[:, 0] < -_HALF_MAX).any() or (highest > _HALF_MAX).any():  # a midpoint's sum may overflow
        candidates[:, 1:] = _midpoint(values[:, :-1], values[:, 1:])
    else:
        candidates[:, 1:] = 0.5 * (values[:, :-1] + values[:, 1:])
    candidates[np.arange(rows), sizes] = highest + 1.0

    # slots at or below a candidate, and strictly below it: c at column c, unless the candidate lands on a run
    at_or_below = strictly_below = columns
    tp = below = positives[:, :-1]  # positives at or below, and strictly below, each candidate
    onto_next = is_candidate & (candidates == values)
    if onto_next.any():  # the run from slot c on counts as at or below: up to the next candidate column
        run_ends = np.full(values.shape, slots + 1)
        run_ends[:, :-1] = np.minimum.accumulate(np.where(is_candidate, columns, slots + 1)[:, :0:-1], axis=1)[:, ::-1]
        at_or_below = np.where(onto_next, run_ends, columns)
        tp = np.take_along_axis(positives, at_or_below, axis=1)
    onto_previous = np.zeros(values.shape, dtype=bool)
    onto_previous[:, 1:] = is_candidate[:, 1:] & (candidates[:, 1:] == values[:, :-1])
    if onto_previous.any():  # the run up to slot c - 1 counts as at or above: from the last candidate column before c
        run_starts = np.zeros(values.shape, dtype=np.intp)
        run_starts[:, 1:] = np.maximum.accumulate(np.where(is_candidate, columns, 0), axis=1)[:, :-1]
        strictly_below = np.where(onto_previous, run_starts, columns)
        below = np.take_along_axis(positives, strictly_below, axis=1)
    return _Sweep(sign, n_pos, n_neg, candidates, is_candidate, tp, below, at_or_below, strictly_below)


def _sample_problem(pos: np.ndarray, neg: np.ndarray) -> str | None:
    """Why one pair's scores cannot be calibrated, or None."""
    if pos.size == 0 or neg.size == 0:
        return "calibration needs at least one positive and one negative score"
    if not (np.isfinite(pos).all() and np.isfinite(neg).all()):
        return "calibration scores must be finite"
    return None


def _sweeps(pairs: Pairs, orientation: Orientation, check: Callable[[], None] = lambda: None) -> Iterator[_Sweep]:
    """The sweeps of ``pairs``, in passes of at most :data:`_PASS_SLOTS` score slots, in pair order.

    Errors come in the order a loop of one-pair calls raises them: the
    first pair's sample checks, then ``orientation``, then ``check()`` (the
    caller's own arguments), then each later pair's sample checks.
    """
    arrays = [(np.asarray(pos, dtype=float).ravel(), np.asarray(neg, dtype=float).ravel()) for pos, neg in pairs]
    if not arrays:
        return
    if problem := _sample_problem(*arrays[0]):
        raise CalibrationError(problem)
    if orientation not in _SIGN:
        raise CalibrationError(f"unknown orientation {orientation!r}")
    check()
    n_pos = np.array([pos.size for pos, _ in arrays])
    n_neg = np.array([neg.size for _, neg in arrays])
    sizes = n_pos + n_neg
    start = 0
    while start < len(arrays):
        stop, width = start + 1, sizes[start]
        while stop < len(arrays) and (stop + 1 - start) * max(width, sizes[stop]) <= _PASS_SLOTS:
            stop, width = stop + 1, max(width, sizes[stop])
        flat = np.concatenate([a for pair in arrays[start:stop] for a in pair])
        if not (np.isfinite(flat).all() and n_pos[start:stop].all() and n_neg[start:stop].all()):
            raise CalibrationError(next(filter(None, (_sample_problem(*pair) for pair in arrays[start:stop]))))
        yield _sweep(flat, n_pos[start:stop], n_neg[start:stop], _SIGN[orientation])
        start = stop


def _records(sweep: _Sweep, i_pos: np.ndarray, i_neg: np.ndarray) -> list[BinCalibration]:
    """Each row's record with thresholds at candidate columns ``i_pos``/``i_neg`` (-1: no threshold).

    Thresholds are the candidates times the sweep's sign, which unsigns them.
    Rates are the sweep's counts there. A predictive value is None when its
    threshold is missing or classifies no sample, and the record is reliable
    when both predictive values are defined.
    """
    rows = np.arange(len(i_pos))  # a column of -1 reads the last column, and the row ignores it
    tp, below = sweep.tp[rows, i_pos], sweep.below[rows, i_neg]
    at_or_below = np.broadcast_to(sweep.at_or_below, sweep.tp.shape)[rows, i_pos]
    strictly_below = np.broadcast_to(sweep.strictly_below, sweep.tp.shape)[rows, i_neg]
    columns = zip(*(a.tolist() for a in (
        sweep.n_pos, sweep.n_neg, i_pos, i_neg, sweep.sign * sweep.candidates[rows, i_pos], tp, at_or_below - tp,
        sweep.sign * sweep.candidates[rows, i_neg], sweep.n_neg - (strictly_below - below), sweep.n_pos - below,
    )))
    records = []
    for n_pos, n_neg, p, n, theta_pos, tp, fp, theta_neg, tn, fn in columns:
        ppv = npv = None
        detection = false_positive = true_negative = false_negative = 0.0
        if p < 0:
            theta_pos = None
        else:
            detection, false_positive = tp / n_pos, fp / n_neg
            ppv = tp / (tp + fp) if tp + fp else None
        if n < 0:
            theta_neg = None
        else:
            true_negative, false_negative = tn / n_neg, fn / n_pos
            npv = tn / (tn + fn) if tn + fn else None
        records.append(BinCalibration(
            theta_pos=theta_pos,
            theta_neg=theta_neg,
            ppv=ppv,
            npv=npv,
            detection_rate=detection,
            true_negative_rate=true_negative,
            false_positive_rate=false_positive,
            false_negative_rate=false_negative,
            reliable=ppv is not None and npv is not None,
        ))
    return records


def _first(mask: np.ndarray) -> np.ndarray:
    """Each row's first column where ``mask`` holds, or -1."""
    return np.where(mask.any(axis=1), mask.argmax(axis=1), -1)


def _last(mask: np.ndarray) -> np.ndarray:
    """Each row's last column where ``mask`` holds, or -1."""
    return np.where(mask.any(axis=1), mask.shape[1] - 1 - mask[:, ::-1].argmax(axis=1), -1)


def calibrate_bins(
    pairs: Pairs,
    orientation: Orientation = "lower_is_positive",
    target_ppv: float = DEFAULT_TARGET_PPV,
    target_npv: float = DEFAULT_TARGET_NPV,
    min_detection_rate: float = DEFAULT_MIN_DETECTION_RATE,
) -> list[BinCalibration]:
    """The two-threshold record of each (positive, negative) pair of training scores, from one sweep in array passes.

    In each pair, the negative threshold is the most permissive candidate
    whose counted NPV reaches ``target_npv`` while classifying at least a
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
    unreliable. On bad input, the error raised is the first in the order
    :func:`_sweeps` gives.
    """

    def check():
        if not 0.0 < target_ppv <= 1.0 or not 0.0 < target_npv <= 1.0:
            raise CalibrationError("predictive value targets must be in (0, 1]")
        if not 0.0 <= min_detection_rate <= 1.0:
            raise CalibrationError("min_detection_rate must be in [0, 1]")

    records = []
    for s in _sweeps(pairs, orientation, check):
        # tp + fp is at_or_below, and tn + fn is every slot not strictly below; a share over no slot is nan, which
        # fails every target, as all targets are positive
        tn = s.n_neg[:, None] - (s.strictly_below - s.below)
        with np.errstate(divide="ignore", invalid="ignore"):
            qualifies_neg = s.is_candidate & (tn / ((s.n_pos + s.n_neg)[:, None] - s.strictly_below) >= target_npv)
            qualifies_pos = s.is_candidate & (s.tp / s.at_or_below >= target_ppv)
        i_neg = _first(qualifies_neg & (tn / s.n_neg[:, None] >= min_detection_rate))
        qualifies_pos &= s.tp / s.n_pos[:, None] >= min_detection_rate
        # the positive threshold is at or inside the negative one, where there is one
        cap = np.where(i_neg >= 0, s.candidates[np.arange(len(i_neg)), i_neg], np.inf)
        records += _records(s, _last(qualifies_pos & (s.candidates <= cap[:, None])), i_neg)
    return records


def single_threshold_calibrations(pairs: Pairs, orientation: Orientation = "lower_is_positive") -> list[BinCalibration]:
    """The min-error threshold of each (positive, negative) pair, from one sweep of the pairs in array passes.

    Each record's two thresholds coincide, so no score is uncertain. The
    threshold minimizes total misclassifications on the training sample;
    ties are broken toward the midpoint of the tied candidate range, taking
    the lower candidate when two are equidistant, so the result is
    deterministic. Rates are counted as :func:`calibrate_bins` counts them.
    A record is unreliable when a predictive value is undefined because one
    side classifies no sample. On bad input, the error raised is the first
    in the order :func:`_sweeps` gives.
    """
    records = []
    for s in _sweeps(pairs, orientation):
        errors = np.where(s.is_candidate, (s.n_pos[:, None] - s.tp) + (s.at_or_below - s.tp), np.iinfo(np.int64).max)
        tied = errors == errors.min(axis=1, keepdims=True)
        rows = np.arange(len(tied))
        target = _midpoint(s.candidates[rows, _first(tied)], s.candidates[rows, _last(tied)])
        with np.errstate(over="ignore"):  # only an untied candidate can lie beyond the float range from the target
            i = np.where(tied, np.abs(s.candidates - target[:, None]), np.inf).argmin(axis=1)
        records += _records(s, i, i)
    return records


def classify_scores(
    models: Mapping[int, ClassifierModel],
    attributes: Sequence[int],
    bins: Sequence[int],
    scores: np.ndarray,
) -> tuple[np.ndarray, tuple[FactorKey, ...]]:
    """Ternary outcomes of ``scores`` (rows x columns) as codes into sorted factor keys.

    Column ``c`` is classified by ``models[attributes[c]]`` in bin
    ``bins[c]``; each distinct (attribute, bin) pair is looked up once. The
    code of an adopted outcome indexes its key; uncertain outcomes and
    unreliable bins get ``len(keys)``, which :func:`attrfuse.fusion.count_codes`
    does not count. Signed scores and thresholds are compared, and ties at a
    threshold go to the positive side. A NaN score compares false and reads
    as uncertain, so callers with external scores reject non-finite ones first.
    """
    attributes = np.asarray(attributes, dtype=np.intp)
    bins = np.asarray(bins, dtype=np.intp)
    low = bins.min(initial=0)
    span = bins.max(initial=0) - low + 1
    encoded, column = np.unique(attributes * span + (bins - low), return_inverse=True)
    pairs = list(zip((encoded // span).tolist(), (encoded % span + low).tolist()))  # each distinct pair once
    unknown = [k not in models[i].calibrations for i, k in pairs]
    if any(unknown):  # name the first unknown pair in column order
        raise ValueError(f"unknown bin index {bins[np.argmax(np.array(unknown)[column])]}")
    sign = np.empty(len(pairs))
    theta_pos = np.full(len(pairs), np.nan)  # nan never compares true: uncertain
    theta_neg = np.full(len(pairs), np.nan)
    adopted: list[tuple[FactorKey, FactorKey] | None] = []
    for p, (i, k) in enumerate(pairs):
        model = models[i]
        cal = model.calibrations[k]
        sign[p] = _SIGN[model.orientation]
        adopted.append(((i, "positive", cal.ppv), (i, "negative", cal.npv)) if cal.reliable else None)
        if cal.reliable:
            theta_pos[p], theta_neg[p] = sign[p] * cal.theta_pos, sign[p] * cal.theta_neg
    keys = tuple(sorted({key for pair in adopted if pair for key in pair}))
    index = {key: n for n, key in enumerate(keys)}
    unadopted = (len(keys), len(keys))
    code_pos, code_neg = np.array(
        [unadopted if pair is None else tuple(map(index.get, pair)) for pair in adopted], dtype=np.intp
    ).reshape(-1, 2).T
    signed = sign[column] * scores
    positive = signed <= theta_pos[column]
    negative = ~positive & (signed >= theta_neg[column])
    codes = np.where(positive, code_pos[column], np.where(negative, code_neg[column], len(keys)))
    return codes, keys


# A bin record's fields, one per line at the depth ``json.dumps(..., indent=2)`` gives them in models.json. With no
# indent the encoder runs in C; with one, CPython encodes in Python.
_bin_fields = json.JSONEncoder(separators=(",\n" + " " * 10, ": ")).encode


def _json_list(items: list[str], indent: str) -> str:
    """A JSON list of the encoded ``items``, each on its own lines, its closing bracket at ``indent``, as
    ``indent=2`` lays it out."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def save_models(models: Mapping[int, ClassifierModel], catalog: ObjectCatalog, path: str | Path) -> None:
    """Persist calibrated models keyed by attribute id; each bin record is written under its key in the model.

    The file is ``json.dumps({"models": [...]}, indent=2)`` and a newline,
    byte for byte, with each bin record's fields encoded in C.
    """
    entries = []
    for i in sorted(models):
        # vars(): the record's fields in their order, "reliable" last
        bins = [
            "        {\n          " + _bin_fields({"bin": k, **vars(cal)})[1:-1] + "\n        }"
            for k, cal in sorted(models[i].calibrations.items())
        ]
        entries.append(
            f'    {{\n      "attribute": {json.dumps(catalog.attributes[i])},\n'
            f'      "orientation": {json.dumps(models[i].orientation)},\n'
            f'      "bins": {_json_list(bins, "      ")}\n    }}'
        )
    Path(path).write_text(f'{{\n  "models": {_json_list(entries, "  ")}\n}}\n')


def _bin_record(where: str, rec: dict) -> tuple[int, BinCalibration]:
    """One saved bin record of the attribute at ``where``, with its bin; a ModelFileError names the bin and the key."""
    k = read_field(ModelFileError, where, rec, "bin", _bin)
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
    attribute, and each bin of it, appears once, and each bin is an integer in [0, 2**31). Reliable bins need
    finite thresholds and predictive values in [0, 1]; unreliable ones may leave them null.
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
