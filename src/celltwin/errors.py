"""Shared exception types. Messages name the offending field/key where applicable.

Each type also derives from the builtin it refines, so callers may catch either.
``read_json`` types every JSON input (run configs, scenario files, artifact manifests)
against a dataclass and raises one of these types naming the offending key.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import types
import typing
from typing import Callable


class CelltwinError(Exception):
    """Base of every celltwin error; the CLI reports these as `error: ...`."""


class ConfigError(CelltwinError, ValueError):
    """Invalid configuration value or unknown key."""


class DomainError(CelltwinError, ValueError):
    """Argument outside the function's domain."""


class ShapeError(CelltwinError, ValueError):
    """Array shape does not match the declared interface."""


class FormatError(CelltwinError, ValueError):
    """Persisted file is corrupt or has an incompatible version."""


class TrainingError(CelltwinError, RuntimeError):
    """Non-finite loss or gradients during optimization."""


class ModelError(CelltwinError, RuntimeError):
    """Model unusable for the requested operation (untrained, layout mismatch)."""


class EnvelopeError(CelltwinError, RuntimeError):
    """An evaluated scheme beats a physical bound: all-sleep energy or always-on coverage."""


class UnknownIdError(CelltwinError, LookupError):
    """Cell id or grid index not present in the scenario."""


# -- typed JSON reading ----------------------------------------------------------------

# What a JSON value must be for each scalar annotation: (one, many). bool is checked by exact
# type, so a JSON true is not an integer; an integer passes as a number and stays an integer.
_SCALARS = {bool: ("a boolean", "booleans"), int: ("an integer", "integers"),
            float: ("a number", "numbers"), str: ("a string", "strings"), dict: ("an object", "objects")}


@functools.cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _want(tp, many: bool = False) -> str:
    """What a value of annotation ``tp`` must be, in words."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        return "objects" if many else "an object"
    if origin is dict:
        return "objects" if many else f"an object of {_want(args[1], True)}"
    if origin is tuple:
        size = "" if args[1:] == (Ellipsis,) else f"{len(args)} "
        return "arrays" if many else f"an array of {size}{_want(args[0], True)}"
    return _SCALARS[tp][many]


def read_json(tp, value, error: type[CelltwinError], name: Callable[[str], str], key: str = ""):
    """``value``, a decoded JSON value, as annotation ``tp``; ``key`` is its dotted path.

    ``tp`` is a dataclass, ``tuple[T, ...]``, a fixed ``tuple[A, B]``, ``dict[str, T]``,
    ``T | None``, a scalar, or a bare ``dict`` (any object, kept as is). An object builds its dataclass field by field: an absent or
    null key takes the field's default, and an unknown key fails. Arrays become tuples, and a
    number must be finite.
    A failure raises ``error`` with ``name(key)`` for the offending key. A record whose own
    check (a CelltwinError from its ``__post_init__``) fails is ``error`` naming the record's key.
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        inner = next(a for a in args if a is not type(None))
        return None if value is None else read_json(inner, value, error, name, key)
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise error(f"{name(key)} must be {_want(tp)}")
        fields = dataclasses.fields(tp)
        built = {}
        for f in fields:
            sub = f"{key}.{f.name}" if key else f.name
            if value.get(f.name) is not None:
                built[f.name] = read_json(_hints(tp)[f.name], value[f.name], error, name, sub)
            elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise error(f"{name(sub)} is missing")
        unknown = sorted(set(value) - {f.name for f in fields})
        if unknown:
            raise error(f"unknown {name(f'{key}.{unknown[0]}' if key else unknown[0])}")
        try:
            return tp(**built)
        except CelltwinError as exc:
            raise error(f"{name(key)}: {exc}") from None
    if origin is dict:
        if not isinstance(value, dict):
            raise error(f"{name(key)} must be {_want(tp)}")
        return {k: read_json(args[1], v, error, name, f"{key}.{k}") for k, v in value.items()}
    if origin is tuple:
        many = args[1:] == (Ellipsis,)
        if not isinstance(value, (list, tuple)) or not (many or len(value) == len(args)):
            raise error(f"{name(key)} must be {_want(tp)}")
        items = args[:1] * len(value) if many else args
        return tuple(read_json(t, v, error, name, f"{key}[{k}]") for k, (t, v) in enumerate(zip(items, value)))
    if not (type(value) is tp or (tp is float and type(value) is int)):
        raise error(f"{name(key)} must be {_want(tp)}")
    # json.load reads NaN, Infinity and integers past the float range, where math.isfinite overflows.
    if tp is float and not abs(value) <= sys.float_info.max:
        raise error(f"{name(key)} must be a finite number")
    return value
