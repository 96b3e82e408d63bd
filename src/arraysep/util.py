"""Small shared helpers: canonical serialization, config digests, and the
one reader of YAML documents (pipeline, train, experiment and scene
configs, and scene manifests).

_located(where) is the one place where a failure becomes a library
error: DataError or NumericalError again, with ``where`` in front of its
message. Pipeline stages, document values, nested sections and file
readers all run inside it, so an error says where it happened.

Every document value is read with _value(doc, key, convert), which names
the key in the DataError raised when the value is missing or malformed. A
config dataclass stores each field through its converter (_fields), and a
reader reads a key with the converter of the field it sets. The converters
below are the only value conversions of config fields and document data.
"""

import contextlib
import dataclasses
import enum
import hashlib
import json
import os
import re

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


def _fields(config, **converters) -> None:
    """Store each named field of ``config`` (a dataclass, frozen or not)
    through its converter. A value the converter rejects raises DataError
    "{name} = {value!r}: ..."; the message is formed only then."""
    for name, convert in converters.items():
        value = getattr(config, name)
        try:
            object.__setattr__(config, name, convert(value))
        except Exception:
            with _located(f"{name} = {value!r}"):
                raise


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


def _at_least(low):
    """An integer of at least ``low``; a number with a fractional part is
    rejected, not truncated."""
    def check(value):
        number = int(value)
        if not isinstance(value, str) and number != value:
            raise ValueError("not an integer")
        if number < low:
            raise ValueError(f"must be at least {low}")
        return number
    return check


_seed = _at_least(0)


def _real(expected, test=lambda number: True):
    """A finite float for which ``test`` holds, else "expected {expected}"."""
    def check(value):
        number = float(value)
        if not (np.isfinite(number) and test(number)):
            raise ValueError(f"expected {expected}")
        return number
    return check


_finite = _real("a finite number")
_nonnegative = _real("a finite number of at least 0", lambda x: x >= 0.0)
_positive = _real("a positive finite number", lambda x: x > 0.0)
_fraction = _real("a finite number in [0, 1)", lambda x: 0.0 <= x < 1.0)


def _optional(convert):
    return lambda value: None if value is None else convert(value)


def _tuple_of(convert):
    return lambda value: tuple(convert(v) for v in _list(value))


def _float_pair(value) -> tuple:
    """A (low, high) range of two finite floats."""
    pair = _tuple_of(_finite)(value)
    if len(pair) != 2:
        raise ValueError(f"expected two numbers, got {len(pair)}")
    if pair[0] > pair[1]:
        raise ValueError("expected a range, low <= high")
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


def _member(kind, name: str):
    """The member of the enum ``kind`` whose value is ``name``, ignoring case
    and surrounding space; the error names the kind in words (CombineMode:
    "combine mode")."""
    member = {m.value: m for m in kind}.get(name.strip().lower())
    if member is None:
        noun = re.sub(r"(?<=[a-z])(?=[A-Z])", " ", kind.__name__).lower()
        raise DataError(f"unknown {noun} '{name}', expected one of {[m.value for m in kind]}")
    return member


def _parsed(kind):
    """A member of the enum ``kind``, or the member its value names."""
    return lambda value: value if isinstance(value, kind) else _member(kind, str(value))
