"""One codec for every frozen record of :mod:`repro.api`.

Specs (:mod:`repro.api.spec`) and results (:mod:`repro.api.results`) are
frozen dataclasses whose field types say everything their JSON form needs.
:class:`Record` reads ``dataclasses.fields`` and the resolved type hints once
per class and derives ``to_dict`` / ``from_dict`` / ``to_json`` /
``from_json`` from them; :class:`Spec` adds the dotted-path
``with_overrides``.  A class keeps only its domain checks in
``__post_init__``.

* **Output.**  Nested records become dicts, tuples become lists and params
  dicts are copied as plain JSON data.  A field declared with
  :func:`sketch_tier` is left out while its mode field reads ``"exact"``, so
  exact-mode bytes stay what they were before the sketch tier existed.
  Names in a class's ``derived_fields`` are read from the instance on output
  and ignored on input.
* **Input.**  Each value is checked against its field type: a mapping, list
  or record where one is expected, a ``str`` where a sequence is expected, an
  ``int`` (never a ``bool``) in an ``int`` field.  A ``float`` field accepts
  an ``int`` and keeps it as written, so stored specs keep their hash.  A
  ``null`` mapping field that has a default reads as empty.  A union of
  records picks the member whose ``union_tag`` key the payload carries, else
  its untagged member.  Every error is a :class:`ValueError` that names the
  dotted path of the offending value (``cell.traffic``,
  ``cell.adversaries[0]``).
* **Construction.**  The same field-type check runs after a class's
  ``__post_init__``, so a value that could not be read back (a ``float`` in
  an ``int`` field) fails where the record is built, overrides included, not
  later in a worker or on reopening a store.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing
from typing import Any, Mapping, NamedTuple, TypeVar

__all__ = [
    "Record",
    "Spec",
    "decode",
    "sketch_tier",
    "stable_json",
    "to_json_data",
]

_MODE_FIELD = "repro.codec.mode_field"

R = TypeVar("R", bound="Record")


def stable_json(data: Any) -> str:
    """Byte-stable JSON: sorted keys, fixed separators, no whitespace drift."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def sketch_tier(default: Any, mode: str) -> Any:
    """A field that serializes only while the field ``mode`` is not ``"exact"``."""
    return dataclasses.field(default=default, metadata={_MODE_FIELD: mode})


def to_json_data(value: Any, where: str) -> Any:
    """``value`` as plain JSON data: scalars, lists and dicts (records encoded)."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, Mapping):
        return {str(key): to_json_data(item, where) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_json_data(item, where) for item in value]
    raise ValueError(
        f"{where} must contain only JSON-serializable scalars, lists and dicts; "
        f"got {type(value).__name__}"
    )


class _Field(NamedTuple):
    name: str
    hint: Any
    mode_field: str | None
    required: bool
    null_is_empty: bool


@functools.lru_cache(maxsize=None)
def _fields(cls: type) -> tuple[_Field, ...]:
    hints = typing.get_type_hints(cls)
    return tuple(
        _Field(
            name=spec_field.name,
            hint=hints[spec_field.name],
            mode_field=spec_field.metadata.get(_MODE_FIELD),
            required=(
                spec_field.default is dataclasses.MISSING
                and spec_field.default_factory is dataclasses.MISSING
            ),
            null_is_empty=(
                typing.get_origin(hints[spec_field.name]) is dict
                and spec_field.default_factory is dict
            ),
        )
        for spec_field in dataclasses.fields(cls)
    )


def _prefix(path: str) -> str:
    return f"{path}: " if path else ""


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _wrong_shape(path: str, expected: str, data: Any) -> ValueError:
    return ValueError(f"{_prefix(path)}expected {expected}, got {type(data).__name__}")


def _is_record(hint: Any) -> bool:
    return isinstance(hint, type) and issubclass(hint, Record)


def _union_member(members: tuple[type, ...], data: Any, path: str) -> type:
    for member in members:
        if isinstance(data, member):
            return member
    if not isinstance(data, Mapping):
        names = " or ".join(member.__name__ for member in members)
        raise _wrong_shape(path, f"a mapping ({names})", data)
    for member in members:
        if member.union_tag is not None and member.union_tag in data:
            return member
    return next(member for member in members if member.union_tag is None)


def decode(hint: Any, data: Any, path: str = "") -> Any:
    """``data`` (plain JSON data) as a value of type ``hint``."""
    if hint is Any:
        return data
    origin = typing.get_origin(hint)
    if origin is typing.Union or origin is types.UnionType:
        members = typing.get_args(hint)
        if data is None and type(None) in members:
            return None
        members = tuple(member for member in members if member is not type(None))
        if len(members) > 1:
            return decode(_union_member(members, data, path), data, path)
        return decode(members[0], data, path)
    if origin is tuple:
        if not isinstance(data, (list, tuple)):
            raise _wrong_shape(path, "a list", data)
        args = typing.get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(data)
        elif len(args) != len(data):
            raise ValueError(
                f"{_prefix(path)}expected a list of {len(args)} items, got {len(data)}"
            )
        return tuple(
            decode(arg, item, f"{path}[{index}]")
            for index, (arg, item) in enumerate(zip(args, data))
        )
    if origin is dict:
        if not isinstance(data, Mapping):
            raise _wrong_shape(path, "a mapping", data)
        value_hint = typing.get_args(hint)[1]
        return {
            key: decode(value_hint, item, _join(path, str(key)))
            for key, item in data.items()
        }
    if _is_record(hint):
        return _decode_record(hint, data, path)
    if hint is float:
        if isinstance(data, bool) or not isinstance(data, (int, float)):
            raise _wrong_shape(path, "a number", data)
    elif hint is int:
        if isinstance(data, bool) or not isinstance(data, int):
            raise _wrong_shape(path, "an int", data)
    elif hint in (bool, str) and not isinstance(data, hint):
        raise _wrong_shape(path, f"a {hint.__name__}", data)
    return data


def _decode_record(cls: type[R], data: Any, path: str) -> R:
    if isinstance(data, cls):
        return data
    if not isinstance(data, Mapping):
        raise _wrong_shape(path, f"a mapping ({cls.__name__})", data)
    fields = _fields(cls)
    allowed = {entry.name for entry in fields}
    unknown = sorted(set(data) - allowed - set(cls.derived_fields))
    if unknown:
        raise ValueError(
            f"{_prefix(path)}unknown {cls.__name__} keys {unknown}; "
            f"allowed: {sorted(allowed)}"
        )
    missing = [entry.name for entry in fields if entry.required and entry.name not in data]
    if missing:
        raise ValueError(f"{_prefix(path)}missing {cls.__name__} keys {missing}")
    kwargs = {
        entry.name: decode(entry.hint, data[entry.name], _join(path, entry.name))
        for entry in fields
        if entry.name in data and not (entry.null_is_empty and data[entry.name] is None)
    }
    try:
        return cls(**kwargs)
    except ValueError as exc:
        if not path:
            raise
        raise ValueError(f"{path}: {exc}") from exc


def _check_types(record: Record) -> None:
    cls = type(record)
    for entry in _fields(cls):
        decode(entry.hint, getattr(record, entry.name), f"{cls.__name__}.{entry.name}")


class Record:
    """Mixin: the JSON codec of a frozen dataclass, derived from its fields."""

    #: Read-only properties serialized beside the fields and ignored on input.
    derived_fields: typing.ClassVar[tuple[str, ...]] = ()
    #: In a union of records, the payload key that selects this class.
    union_tag: typing.ClassVar[str | None] = None

    def __post_init__(self) -> None:
        _check_types(self)

    def __init_subclass__(cls, **kwargs: Any) -> None:
        # A class's own ``__post_init__`` (domain checks, normalization) runs
        # first, then the field-type check, so what is built can be read back.
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__post_init__")
        if own is None:
            return

        def __post_init__(self: Record) -> None:
            own(self)
            _check_types(self)

        cls.__post_init__ = __post_init__  # type: ignore[method-assign]

    def to_dict(self) -> dict[str, Any]:
        payload = {}
        for entry in _fields(type(self)):
            if entry.mode_field is not None and getattr(self, entry.mode_field) == "exact":
                continue
            payload[entry.name] = to_json_data(getattr(self, entry.name), entry.name)
        for name in self.derived_fields:
            payload[name] = to_json_data(getattr(self, name), name)
        return payload

    @classmethod
    def from_dict(cls: type[R], data: Mapping[str, Any]) -> R:
        return _decode_record(cls, data, "")

    def to_json(self) -> str:
        """Byte-stable JSON (sorted keys, fixed separators)."""
        return stable_json(self.to_dict())

    @classmethod
    def from_json(cls: type[R], payload: str) -> R:
        return cls.from_dict(json.loads(payload))


S = TypeVar("S", bound="Spec")


class Spec(Record):
    """Mixin: a :class:`Record` that also takes dotted-path overrides."""

    def with_overrides(self: S, overrides: Mapping[str, Any]) -> S:
        """A copy with dotted-path overrides applied.

        Keys are dotted paths through nested specs and dicts, e.g.
        ``"protocol.default.sampling_rate"`` or
        ``"path.conditions.X.loss_params.target_rate"``.  Replacement re-runs
        every touched spec's validation.
        """
        spec = self
        for dotted, value in overrides.items():
            parts = dotted.split(".")
            if not all(parts):
                raise ValueError(f"invalid override path {dotted!r}")
            spec = _replace_path(spec, parts, value, dotted)
        return spec


def _replace_path(obj: Any, parts: list[str], value: Any, dotted: str) -> Any:
    head, rest = parts[0], parts[1:]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        field_names = {spec_field.name for spec_field in dataclasses.fields(obj)}
        if head not in field_names:
            raise ValueError(
                f"override {dotted!r}: {type(obj).__name__} has no field {head!r} "
                f"(fields: {sorted(field_names)})"
            )
        child = value if not rest else _replace_path(getattr(obj, head), rest, value, dotted)
        return dataclasses.replace(obj, **{head: child})
    if isinstance(obj, Mapping):
        if rest and head not in obj:
            raise ValueError(
                f"override {dotted!r}: key {head!r} not present "
                f"(keys: {sorted(obj)})"
            )
        replaced = dict(obj)
        replaced[head] = value if not rest else _replace_path(obj[head], rest, value, dotted)
        return replaced
    raise ValueError(
        f"override {dotted!r}: cannot descend into {type(obj).__name__} at {head!r}"
    )
