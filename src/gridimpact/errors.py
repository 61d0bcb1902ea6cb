"""Exception types shared across the package, ``check_id``, the one id rule,
and the one input path: ``read_text`` reads a file by the one decoding rule
(strict UTF-8, one leading byte-order mark dropped, line ends as written),
``decode_json`` its JSON, ``read_record`` the dataclass that the JSON builds,
and every failure on the way is a ``SchemaError`` that names the input.

A record states only its own fault, as a ``ValueError`` naming the field; the
reader puts the input and the record in front: ``<input> <path>: <record>:
<fault>``."""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
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
    range fault, duplicate id, dangling reference). Only a reader raises it,
    and its message starts with the document's name."""

    exit_code = 2


class TopologyError(GridImpactError):
    """Network fails a structural precondition (not connected, not radial)."""

    exit_code = 3


class SolverError(GridImpactError):
    """A required power-flow solve did not converge."""

    exit_code = 4


COLLAPSE_FLOOR_PU = 0.5


class VoltageCollapseError(GridImpactError):
    """A snapshot's sweep left a bus voltage below ``COLLAPSE_FLOOR_PU``:
    raised by the power stage from the snapshot's ``collapse_bus``."""

    exit_code = 4

    def __init__(self, bus_id: str, v_mag_pu: float):
        self.bus_id = bus_id
        self.v_mag_pu = v_mag_pu
        super().__init__(f"voltage collapse at bus {bus_id}: |V| = {v_mag_pu:.4f} pu "
                         f"< {COLLAPSE_FLOOR_PU} pu")


_ID_FORBIDDEN = frozenset(',"\r\n')


def check_id(identifier: str) -> None:
    """Raise ``ValueError`` unless ``identifier`` can be written verbatim as a
    UTF-8 CSV field: non-empty, with no comma, double quote, CR, LF or lone
    surrogate (a JSON escape such as ``"\\ud800"``). The artifact writers do
    not quote ids."""
    if not identifier:
        raise ValueError("id must not be empty")
    if not _ID_FORBIDDEN.isdisjoint(identifier):
        raise ValueError(f"id {identifier!r} must not contain a comma, double quote, CR or LF")
    try:
        identifier.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"id {identifier!r} must not contain a lone surrogate, "
                         "which UTF-8 cannot encode") from None


def record_label(kind: str, obj) -> str:
    """How a reader names, in a fault, the ``kind`` record that ``obj`` (a
    decoded object or a row's cells by column) builds: ``<kind> <id>``;
    ``<kind> ?`` when ``check_id`` refuses the id, which the fault then
    quotes, so a message never carries a raw line break or lone surrogate;
    ``<kind>`` alone when ``obj`` is not an object."""
    if not isinstance(obj, dict):
        return kind
    identifier = obj.get("id")
    if isinstance(identifier, str):
        try:
            check_id(identifier)
            return f"{kind} {identifier}"
        except ValueError:
            pass
    return f"{kind} ?"


# --- input files and typed JSON records --------------------------------------


def read_text(path, what: str) -> str:
    """The text of the input file ``path``, the run's ``what``: its bytes
    decoded as strict UTF-8, with one leading byte-order mark dropped (RFC
    8259 section 8.1 lets a JSON parser ignore one; spreadsheet CSV exports
    prepend one) and line ends kept as written. A file that cannot be opened
    or read, its path included, raises ``SchemaError`` starting ``<what>
    <path>:``; for bytes that do not decode it names the first bad byte's
    offset in the file."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except (OSError, ValueError) as exc:  # ValueError: a path holding NUL or a lone surrogate
        raise SchemaError(f"{what} {path}: {exc}") from None
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{what} {path}: not valid UTF-8: {exc}") from None


def decode_json(text: str | bytes, where: str):
    """Decode the JSON input document ``where``. An object that names a key
    twice raises ``SchemaError`` naming the key, and the object's ``id`` when
    it has one, where ``json.loads`` alone would keep the last value.
    Malformed text, or nesting past the decoder's recursion limit, raises
    ``SchemaError`` naming ``where`` too."""

    def strict_object(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                owner = next((v for k, v in pairs if k == "id" and isinstance(v, str)), None)
                within = "" if owner is None else f" in the object with id '{owner}'"
                raise SchemaError(f"{where}: key '{key}' appears twice{within}")
            obj[key] = value
        return obj

    try:
        return json.loads(text, object_pairs_hook=strict_object)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{where} is not valid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError(f"{where}: arrays or objects nested too deeply to decode") from None


_EXPECTED = {float: "a finite number", int: "an integer", str: "a string"}


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
    if isinstance(hint, type) and issubclass(hint, enum.Enum):  # named by its value, as written
        read_token = _field_reader(str, name)
        kind = "".join(f" {c.lower()}" if c.isupper() else c for c in hint.__name__).lstrip()
        valid = ", ".join(member.value for member in hint)

        def read_member(value, where):
            token = read_token(value, where)
            try:
                return hint(token)
            except ValueError:
                raise ValueError(f"unknown {kind} {token!r} (expected one of: {valid})") from None

        return read_member
    # A nested record's schema is built with the outer one, so a field type
    # without a reader fails here, not as a fault of some input.
    if dataclasses.is_dataclass(hint):
        _record_schema(hint)
        return lambda value, where: read_record(hint, value, f"{where}: {name}")
    if typing.get_origin(hint) is tuple:  # tuple[Record, ...], each named by its kind and id
        record, _ = typing.get_args(hint)
        _record_schema(record)

        def read_array(value, where):
            if not isinstance(value, list):
                raise TypeError("an array")
            return tuple(read_record(record, item, f"{where}: {record_label(record.kind, item)}")
                         for item in value)

        return read_array
    raise TypeError(f"no JSON reader for field type {hint!r}")


@functools.cache
def _record_schema(cls) -> tuple[dict, tuple[str, ...]]:
    """(reader per document field, fields without a default), once per class.
    A document field is an init field whose metadata does not set
    ``"document"`` false."""
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.init and f.metadata.get("document", True)]
    readers = {f.name: _field_reader(hints[f.name], f.name) for f in fields}
    required = tuple(f.name for f in fields if f.default is dataclasses.MISSING
                     and f.default_factory is dataclasses.MISSING)
    return readers, required


def read_record(cls, obj, where: str):
    """Build dataclass ``cls`` from a decoded JSON object; its field annotations
    and defaults are the schema. No unknown or missing keys; ``float`` is finite
    and never a bool, ``int`` an integer, ``X | None`` also null; an ``Enum``
    is the member whose value is the string as written, dataclasses recurse,
    ``tuple[Record, ...]`` reads an array whose errors name each record's
    ``kind`` and ``id`` after ``where``. Range checks stay in
    ``__post_init__``, which raises ``ValueError``. Every error is a
    ``SchemaError`` starting with ``where``."""
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
        except ValueError as exc:  # an unknown enum token
            raise SchemaError(f"{where}: field '{name}': {exc}") from None
    for name in required:
        if name not in kwargs:
            raise SchemaError(f"{where}: missing field '{name}'")
    try:
        return cls(**kwargs)
    except ValueError as exc:  # a range check in __post_init__
        raise SchemaError(f"{where}: {exc}") from None
