"""Small shared helpers: canonical serialization, config digests, and the
one reader of YAML documents (pipeline, train, experiment and scene
configs, and scene manifests).

_located(where) is the one place where a failure becomes a library
error: DataError or NumericalError again, with ``where`` in front of its
message. Pipeline stages, document values, nested sections and file
readers all run inside it, so an error says where it happened.

Every document value is read with _value(doc, key, convert), which names
the key in the DataError raised when the value is missing or malformed.
The converters below are the only value conversions of document data.
"""

import contextlib
import dataclasses
import enum
import hashlib
import json
import os

import numpy as np
import yaml

from .errors import DataError, NumericalError


def as_plain_data(obj):
    """Recursively convert dataclasses, enums, and arrays to JSON-friendly values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: as_plain_data(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, dict):
        return {str(k): as_plain_data(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_plain_data(v) for v in obj]
    return obj


def config_hash(obj) -> str:
    """Stable 12-hex-digit digest of a configuration object."""
    blob = json.dumps(as_plain_data(obj), sort_keys=True).encode("utf-8")
    return hashlib.sha1(blob).hexdigest()[:12]


def load_config(source) -> dict:
    """A config document as a mapping.

    ``source`` is a mapping or the path of a YAML file; an empty file reads
    as an empty mapping. A file that is not YAML, or a document that is not
    a mapping, raises DataError naming the file.
    """
    doc = source
    where = "config"
    if isinstance(source, (str, os.PathLike)):
        where = f"config {source}"
        with open(source) as handle, _located(f"{where} is not valid YAML"):
            doc = yaml.safe_load(handle)
        if doc is None:
            doc = {}
    if not isinstance(doc, dict):
        raise DataError(f"{where}: must be a mapping, got {type(doc).__name__}")
    return doc


_REQUIRED = object()


def _value(doc: dict, key: str, convert, default=_REQUIRED):
    """doc[key], or ``default`` when the key is absent, passed through
    ``convert``. An absent key without a default, or a value that
    ``convert`` rejects, raises DataError naming the key."""
    if key in doc:
        value = doc[key]
    elif default is _REQUIRED:
        raise DataError(f"config is missing '{key}'")
    else:
        value = default
    with _located(f"config key '{key}' = {value!r}"):
        return convert(value)


@contextlib.contextmanager
def _located(where: str):
    """Name ``where`` (a stage, a section, a list entry or a file) in any
    failure of the block. A NumericalError is raised again as one and an
    OSError passes through; anything else becomes a DataError, chained
    from the original. The message is "{where}: {original message}"."""
    try:
        yield
    except NumericalError as exc:
        raise NumericalError(f"{where}: {exc}") from exc
    except OSError:
        raise
    except Exception as exc:
        raise DataError(f"{where}: {exc}") from exc


def _given(doc: dict, **fields) -> dict:
    """{field: value} read by _value for each key ``doc`` sets. A keyword
    maps a field to its converter, or to (document key, converter); a
    field left out keeps the default of the callee it is passed to."""
    out = {}
    for name, convert in fields.items():
        key, convert = convert if isinstance(convert, tuple) else (name, convert)
        if key in doc:
            out[name] = _value(doc, key, convert)
    return out


def _expect(kind, what):
    def check(value):
        if not isinstance(value, kind):
            raise TypeError(f"{type(value).__name__} is not {what}")
        return value
    return check


_mapping = _expect(dict, "a mapping")
_list = _expect((list, tuple), "a list")
_string = _expect(str, "a string")
_bool = _expect(bool, "true or false")


def _int(value) -> int:
    """An integer; a number with a fractional part is rejected, not truncated."""
    number = int(value)
    if not isinstance(value, str) and number != value:
        raise ValueError("not an integer")
    return number


def _int_field(name: str, value) -> int:
    """A config field's value as an integer (see _int); anything else, a
    number with a fractional part among them, raises DataError naming the
    field ``name``."""
    with _located(f"{name} must be an integer, got {value!r}"):
        return _int(value)


def _int_fields(config, *names) -> None:
    """Store each named field of a frozen config as an int (see _int_field)."""
    for name in names:
        object.__setattr__(config, name, _int_field(name, getattr(config, name)))


def _at_least(low):
    """An integer (see _int) of at least ``low``."""
    def check(value):
        number = _int(value)
        if number < low:
            raise ValueError(f"must be at least {low}")
        return number
    return check


_seed = _at_least(0)


def _fraction(value) -> float:
    """A finite float in [0, 1)."""
    number = float(value)
    if not 0.0 <= number < 1.0:
        raise ValueError("expected a finite number in [0, 1)")
    return number


def _optional(convert):
    return lambda value: None if value is None else convert(value)


def _tuple_of(convert):
    return lambda value: tuple(convert(v) for v in _list(value))


_int_tuple = _tuple_of(_int)
_float_tuple = _tuple_of(float)


def _float_pair(value) -> tuple:
    """A (low, high) range of two finite floats."""
    pair = _float_tuple(value)
    if len(pair) != 2:
        raise ValueError(f"expected two numbers, got {len(pair)}")
    if not (np.all(np.isfinite(pair)) and pair[0] <= pair[1]):
        raise ValueError("expected a finite range, low <= high")
    return pair


def _number_or_range(value):
    """A float, or a (low, high) pair of floats given as a list."""
    return _float_pair(value) if isinstance(value, (list, tuple)) else float(value)


def _one_of(*choices):
    def check(value):
        if value not in choices:
            raise ValueError("expected " + " or ".join(map(repr, choices)))
        return value
    return check


def _parsed(kind):
    """A converter through ``kind.parse`` (a name-parsing enum)."""
    return lambda value: kind.parse(str(value))
