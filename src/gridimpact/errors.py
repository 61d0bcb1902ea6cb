"""Exception types shared across the package, ``check_id``, the one id rule,
and ``read_record``, the one reader that checks decoded JSON objects against
the dataclasses they build."""

from __future__ import annotations

import dataclasses
import functools
import reprlib
import sys
import types
import typing


class GridImpactError(Exception):
    """Base class for all errors raised by this package. ``exit_code`` is the
    command-line exit status of an uncaught error of the class."""

    exit_code = 1


class SchemaError(GridImpactError, ValueError):
    """Input document violates the expected schema (missing/unknown/mistyped field,
    duplicate id, dangling reference)."""

    exit_code = 2


class TopologyError(GridImpactError):
    """Network fails a structural precondition (not connected, not radial)."""

    exit_code = 3


class SolverError(GridImpactError):
    """A required power-flow solve did not converge."""

    exit_code = 4


COLLAPSE_FLOOR_PU = 0.5


class VoltageCollapseError(GridImpactError):
    """Sweep iteration drove a bus voltage below ``COLLAPSE_FLOOR_PU``."""

    exit_code = 4

    def __init__(self, bus_id: str, v_mag_pu: float):
        self.bus_id = bus_id
        self.v_mag_pu = v_mag_pu
        super().__init__(f"voltage collapse at bus {bus_id}: |V| = {v_mag_pu:.4f} pu "
                         f"< {COLLAPSE_FLOOR_PU} pu")


_ID_FORBIDDEN = frozenset(',"\r\n')


def check_id(kind: str, identifier: str) -> None:
    """Raise ``SchemaError`` naming the ``kind`` record unless ``identifier`` can
    be written verbatim as a CSV field: non-empty, with no comma, double quote,
    CR or LF. The artifact writers do not quote ids."""
    if not identifier:
        raise SchemaError(f"{kind} with empty id")
    if not _ID_FORBIDDEN.isdisjoint(identifier):
        raise SchemaError(f"{kind} {identifier!r}: id must not contain a comma, "
                          "double quote, CR or LF")


# --- typed JSON records ------------------------------------------------------


_EXPECTED = {float: "a finite number", int: "an integer", str: "a string", list: "an array"}


def _field_reader(hint, name: str):
    """``read(value, where)`` for field ``name`` of type ``hint``: a wrong JSON
    type raises ``TypeError`` saying what was expected, a bad value ``ValueError``."""
    if hint in _EXPECTED:
        kinds = (int, float) if hint is float else hint

        def read(value, where):
            # a bool is never a number; NaN, inf and ints past float range are not finite
            if isinstance(value, bool) or not isinstance(value, kinds) or (
                    hint is float and not abs(value) <= sys.float_info.max):
                raise TypeError(_EXPECTED[hint])
            return float(value) if hint is float else value

        return read
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        (inner,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        read_inner = _field_reader(inner, name)
        return lambda value, where: None if value is None else read_inner(value, where)
    if hasattr(hint, "parse"):  # an enum such as ChargingStrategy, named by a string
        read_token = _field_reader(str, name)
        return lambda value, where: hint.parse(read_token(value, where))
    if dataclasses.is_dataclass(hint):
        return lambda value, where: read_record(hint, value, f"{where}: {name}")
    raise TypeError(f"no JSON reader for field type {hint!r}")


@functools.cache
def _record_schema(cls) -> tuple[dict, tuple[str, ...]]:
    """(reader per init field, fields without a default), once per class."""
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.init]
    readers = {f.name: _field_reader(hints[f.name], f.name) for f in fields}
    required = tuple(f.name for f in fields if f.default is dataclasses.MISSING
                     and f.default_factory is dataclasses.MISSING)
    return readers, required


def read_record(cls, obj, where: str):
    """Build dataclass ``cls`` from a decoded JSON object; its field annotations
    and defaults are the schema. No unknown or missing keys; ``float`` is finite
    and never a bool, ``int`` an integer, ``X | None`` also null; enums go through
    ``parse``, dataclasses recurse. Range checks stay in ``__post_init__``. Every
    error is a ``SchemaError`` that starts with ``where`` and names the key."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object, got {type(obj).__name__}")
    readers, required = _record_schema(cls)
    kwargs = {}
    for name, value in obj.items():
        read = readers.get(name)
        if read is None:
            raise SchemaError(f"{where}: unexpected field '{name}'")
        try:
            kwargs[name] = read(value, where)
        except TypeError as exc:
            raise SchemaError(f"{where}: field '{name}' has wrong type: "
                              f"expected {exc}, got {reprlib.repr(value)}") from None
        except SchemaError:
            raise
        except ValueError as exc:  # an enum's parse
            raise SchemaError(f"{where}: field '{name}': {exc}") from None
    for name in required:
        if name not in kwargs:
            raise SchemaError(f"{where}: missing field '{name}'")
    try:
        return cls(**kwargs)
    except SchemaError:
        raise
    except ValueError as exc:  # a range check in __post_init__
        raise SchemaError(f"{where}: {exc}") from None
