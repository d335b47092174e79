"""The value checks shared by the option dataclasses and every JSON reader.

Configs, fit JSON and truth JSON are read through :func:`json_object`,
:func:`json_field`, :func:`json_dataclass` and :func:`finite_array`; each
raises a ``ValueError`` that names the key path of the bad value.
"""

from __future__ import annotations

import dataclasses
import sys

import numpy as np

_NUMBER_TYPES = {int: int, float: (int, float)}
# Largest magnitude of each: a 64-bit integer, a finite float (NaN fails too).
_NUMBER_MAX = {int: 2**63 - 1, float: sys.float_info.max}


def check_value(name: str, value, kind: type, low=None, exclusive: bool = False,
                choices=None, optional: bool = False):
    """``value`` checked as field ``name``: ``int`` admits Python and NumPy
    64-bit integers and ``float`` finite reals, neither a bool; values must be
    ``>= low`` (``> low`` when ``exclusive``) and in ``choices``; None passes
    when ``optional``.  Numbers come back as Python ``int``/``float``; a
    ValueError names ``name``."""
    if value is None and optional:
        return None
    v = value.item() if isinstance(value, np.generic) else value  # NumPy scalar to Python
    if not (
        isinstance(v, _NUMBER_TYPES.get(kind, kind))
        and not (kind in _NUMBER_TYPES and isinstance(v, bool))
        and (kind not in _NUMBER_MAX or abs(v) <= _NUMBER_MAX[kind])
        and (low is None or (v > low if exclusive else v >= low))
        and (choices is None or v in choices)
    ):
        need = {int: "a 64-bit integer", float: "a finite number", str: "a string"}.get(
            kind, f"a {kind.__name__}")
        if low is not None:
            need += f" {'>' if exclusive else '>='} {low}"
        if choices is not None:
            need = f"one of {', '.join(choices)}"
        raise ValueError(f"{name} must be {need}, got {v!r}")
    return kind(v) if kind in _NUMBER_TYPES else v


def check_fields(obj, kind: type, *names: str, each: bool = False, **checks) -> None:
    """Check fields ``names`` of dataclass ``obj`` (with ``each``, the entries
    of these lists) by :func:`check_value`, storing what it returns and
    lists as tuples."""
    for name in names:
        value = getattr(obj, name)
        if not each:
            value = check_value(name, value, kind, **checks)
        elif isinstance(value, (list, tuple)):
            value = tuple(check_value(f"{name} entries", v, kind, **checks) for v in value)
        else:
            raise ValueError(f"{name} must be a list, got {value!r}")
        object.__setattr__(obj, name, value)


def json_object(value, where: str, allowed=None, required=()) -> dict:
    """``value`` as a JSON object holding every key of ``required`` and, unless
    ``allowed`` is None, no key outside ``allowed`` and ``required``; an absent
    or null block (None) reads as empty.  A ValueError names ``where``."""
    value = {} if value is None else value
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object, got {value!r:.40}")
    unknown = [] if allowed is None else sorted(set(value) - set(allowed) - set(required))
    if unknown:
        raise ValueError(f"unknown keys in {where}: {', '.join(unknown)}")
    missing = [k for k in required if k not in value]
    if missing:
        raise ValueError(f"{where} lacks {', '.join(missing)}")
    return value


def json_field(obj: dict, key: str, kind: type, where: str = "", default=None,
               optional: bool = True, **checks):
    """``obj[key]`` of a JSON object, ``default`` when absent or null, checked
    by :func:`check_value` as the field ``where key``."""
    value = obj.get(key)
    return check_value(f"{where} {key}".lstrip(), default if value is None else value, kind,
                       optional=optional, **checks)


def json_dataclass(cls, obj, where: str, skip=(), **given):
    """Dataclass ``cls`` built from JSON object ``obj`` by field name.

    The caller sets the ``given`` fields and reads the ``skip`` keys; every
    other key must name a field, and a field without a default must be
    present.  A null value leaves a field with a default at it, and a value
    the dataclass rejects raises a ValueError that names ``where``.
    """
    fields = [f for f in dataclasses.fields(cls) if f.name not in given]
    required = [f.name for f in fields
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    obj = json_object(obj, where, {f.name for f in fields} | set(skip), required)
    kwargs = {f.name: obj[f.name] for f in fields
              if obj.get(f.name) is not None or f.name in required}
    try:
        return cls(**kwargs, **given)
    except ValueError as exc:
        raise ValueError(f"invalid {where}: {exc}") from None


def finite_array(name: str, value) -> np.ndarray:
    """``value`` as a float array; a ValueError naming ``name`` unless it holds
    only finite numbers."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):  # ragged nesting: no numeric array
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise ValueError(f"{name} must hold finite numbers, got {value!r:.60}")
    return arr.astype(float, copy=False)
