"""The JSON input rules of the scenario, catalog and models files.

Each loader reads its file with :func:`read_json` and every key with
:func:`read_field` and a converter from here. Nothing is coerced: a JSON
``true`` is not a number, every number is finite, and lists and strings are
taken only as themselves. A converter returns the typed value or raises a
TypeError or ValueError naming what it expected and what it got, which
:func:`read_field` puts after the location and the key:
``<file>: ...: key 'ppv' must be a finite number in [0, 1], got 'NaN'``.
"""
from __future__ import annotations

import json
import math
import sys
from typing import Callable, Literal, Mapping, Sequence, get_args

Orientation = Literal["lower_is_positive", "higher_is_positive"]

_REQUIRED = object()
_MAX = sys.float_info.max  # an integer beyond it has no float, and nan fails every range test


def read_json(path, error: type[Exception], noun: str) -> tuple[bytes, dict]:
    """The bytes of the file at ``path`` and the JSON object they hold; ``error`` names the file otherwise."""
    try:
        with open(path, "rb") as file:
            data = file.read()
    except (OSError, ValueError) as exc:  # ValueError: a path no OS opens, such as one holding a NUL character
        raise error(f"{path}: cannot read {noun} ({getattr(exc, 'strerror', None) or exc})") from None
    try:
        raw = json.loads(data)
    except (RecursionError, ValueError) as exc:  # not JSON, not UTF-8, or nested too deeply
        raise error(f"{path}: not valid JSON ({exc})") from None
    if type(raw) is not dict:
        raise error(f"{path}: not a {noun} file: the top level must be a JSON object")
    return data, raw


def read_field(error: type[Exception], where, raw: dict, key: str, convert: Callable, default=_REQUIRED):
    """``convert(raw[key])``, or of ``default`` when the key is absent; ``error`` names ``where`` (the file, and the
    place in it) and the key."""
    value = raw.get(key, default)
    if value is _REQUIRED:
        raise error(f"{where}: missing key {key!r}")
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise error(f"{where}: key {key!r} must be {exc}") from None


def _list(value, item: Callable | None = None, length: int | None = None) -> list:
    """``value``, a JSON list of ``length`` entries when given, with ``item`` applied to each entry."""
    if type(value) is not list or length is not None and len(value) != length:
        raise TypeError(f"a list{'' if length is None else f' of length {length}'}, got {value!r}")
    if item is None:
        return value
    out: list = []
    try:
        out.extend(map(item, value))
    except (TypeError, ValueError) as exc:  # extend keeps the entries before the one at fault: their count is its index
        raise TypeError(f"a list, with entry {len(out)} {exc}") from None
    return out


def _typed(kind: type, expectation: str) -> Callable:
    """The converter of a value of type ``kind``; ``type()``, since to ``isinstance`` a JSON ``true`` is an int."""
    def convert(value):
        if type(value) is not kind:
            raise TypeError(f"{expectation}, got {value!r}")
        return value
    return convert


def _ranged(kinds: tuple[type, ...], low, high, expectation: str) -> Callable:
    """The converter of a value of a type in ``kinds`` from ``low`` to ``high``; a float among them makes it a float."""
    real = float in kinds
    def convert(value):
        if type(value) not in kinds or not low <= value <= high:
            raise ValueError(f"{expectation}, got {value!r}")
        return float(value) if real else value
    return convert


def _one_of(options: Mapping[str, object], expectation: str) -> Callable:
    """The converter of a string among the keys of ``options`` to its value there."""
    def convert(value):
        if type(value) is not str or value not in options:
            raise ValueError(f"{expectation}, got {value!r}")
        return options[value]
    return convert


def _attribute(attributes: Sequence[str]) -> Callable[[object], int]:
    """The converter of an attribute id among ``attributes`` to its index."""
    return _one_of({a: i for i, a in enumerate(attributes)}, "an attribute id of the catalog")


def _nullable(convert: Callable) -> Callable:
    """``convert``, taking a JSON null as None as well."""
    return lambda value: None if value is None else convert(value)


_mapping, _string, _boolean = _typed(dict, "an object"), _typed(str, "a string"), _typed(bool, "true or false")
_integer = _ranged((int,), -math.inf, math.inf, "an integer")
# a bin index: the engine codes (attribute, bin) pairs in int64, and ``fuse`` indexes bins as numpy integers
_bin = _ranged((int,), 0, 2**31 - 1, "an integer in [0, 2**31)")
_count = _ranged((int,), 1, math.inf, "a positive integer")
_bit = _ranged((int,), 0, 1, "0 or 1")
_number = _ranged((int, float), -_MAX, _MAX, "a finite number")
# the ranges calibrate_bins accepts: targets in (0, 1] (ulp(0) is the least positive float), rates in [0, 1]
_target = _ranged((int, float), math.ulp(0.0), 1.0, "a finite number in (0, 1]")
_rate = _ranged((int, float), 0.0, 1.0, "a finite number in [0, 1]")
# a training spread scale: numpy draws at scale 0 but rejects a negative one
_scale = _ranged((int, float), 0.0, _MAX, "a finite non-negative number")
_number_or_null, _rate_or_null = _nullable(_number), _nullable(_rate)
_orientation = _one_of({o: o for o in get_args(Orientation)}, f"one of {get_args(Orientation)}")
