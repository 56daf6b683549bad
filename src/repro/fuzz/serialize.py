"""JSON-safe round-tripping for the repo's config dataclasses.

The fuzzer's whole value rests on counterexamples being *portable*: a
shrunk scenario must serialize to JSON, survive a check-in, and replay
bit-for-bit.  The configs involved -- fault specs, zone, client and
adversary specs, resolver and DCC knobs -- are plain dataclasses plus
enums, so one generic codec covers them all:

- :func:`encode` maps dataclasses to dicts, enums to their values,
  containers recursively; anything else (callables, arbitrary objects)
  raises :class:`SerializationError` naming the offending field, so a
  scenario that silently cannot replay is impossible to emit;
- :func:`decode_dataclass` rebuilds instances from the dict using the
  class's own field annotations (``typing.get_type_hints``), restoring
  enums, nested dataclasses, and Optional/List/Dict/Tuple containers.

No schema files, no pickle: the JSON a counterexample carries is the
dataclass structure itself.
"""

from __future__ import annotations

import dataclasses
import enum
import typing
from typing import Any, Dict, List, Tuple, Type, TypeVar, Union

T = TypeVar("T")


class SerializationError(TypeError):
    """A value cannot be round-tripped through JSON."""


_PRIMITIVES = (bool, int, float, str)


def encode(value: Any, context: str = "value") -> Any:
    """JSON-safe form of ``value`` (primitives pass through)."""
    if value is None or isinstance(value, _PRIMITIVES):
        return value
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return encode_dataclass(value, context=context)
    if isinstance(value, (list, tuple)):
        return [encode(item, f"{context}[{i}]") for i, item in enumerate(value)]
    if isinstance(value, (set, frozenset)):
        # Canonical order so equal schedules encode to equal JSON.
        return sorted(encode(item, context) for item in value)
    if isinstance(value, dict):
        encoded: Dict[str, Any] = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise SerializationError(
                    f"{context}: dict key {key!r} is not a string"
                )
            encoded[key] = encode(item, f"{context}[{key!r}]")
        return encoded
    raise SerializationError(
        f"{context}: {type(value).__name__} is not JSON-serializable "
        "(callables and ad-hoc objects cannot ride in a counterexample)"
    )


def encode_dataclass(obj: Any, context: str = "") -> Dict[str, Any]:
    prefix = context or type(obj).__name__
    result: Dict[str, Any] = {}
    for field in dataclasses.fields(obj):
        result[field.name] = encode(getattr(obj, field.name), f"{prefix}.{field.name}")
    return result


def decode_dataclass(cls: Type[T], data: Dict[str, Any]) -> T:
    """Rebuild a ``cls`` instance from :func:`encode_dataclass` output.

    Unknown keys raise (a corrupt or stale counterexample should fail
    loudly, not half-apply); missing keys fall back to the dataclass
    defaults, so old corpus files survive additive config growth.
    """
    hints = typing.get_type_hints(cls)
    known = {field.name for field in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise SerializationError(
            f"{cls.__name__}: unknown fields {sorted(unknown)} in serialized form"
        )
    kwargs = {
        name: _decode_value(hints[name], value, f"{cls.__name__}.{name}")
        for name, value in data.items()
    }
    return cls(**kwargs)


def _decode_value(hint: Any, value: Any, context: str) -> Any:
    if value is None:
        return None
    origin = typing.get_origin(hint)
    if origin is Union:
        arms = [arm for arm in typing.get_args(hint) if arm is not type(None)]
        if len(arms) == 1:
            return _decode_value(arms[0], value, context)
        for arm in arms:  # first arm that decodes wins (rare in practice)
            try:
                return _decode_value(arm, value, context)
            except (SerializationError, TypeError, ValueError, KeyError):
                continue
        raise SerializationError(f"{context}: no Union arm of {hint} accepts {value!r}")
    if origin in (list, List):
        (item_hint,) = typing.get_args(hint) or (Any,)
        return [_decode_value(item_hint, item, context) for item in value]
    if origin in (tuple, Tuple):
        args = typing.get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_decode_value(args[0], item, context) for item in value)
        if args:
            return tuple(
                _decode_value(arg, item, context) for arg, item in zip(args, value)
            )
        return tuple(value)
    if origin in (dict, Dict):
        args = typing.get_args(hint)
        value_hint = args[1] if len(args) == 2 else Any
        return {key: _decode_value(value_hint, item, context) for key, item in value.items()}
    if isinstance(hint, type):
        if issubclass(hint, enum.Enum):
            return hint(value)
        if dataclasses.is_dataclass(hint):
            if not isinstance(value, dict):
                raise SerializationError(
                    f"{context}: expected a dict for {hint.__name__}, got {value!r}"
                )
            return decode_dataclass(hint, value)
        if hint is float and isinstance(value, int):
            return float(value)
    return value

