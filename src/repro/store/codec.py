"""The canonical encoding of a stored entry's payload.

A payload is JSON with sorted keys and no whitespace, so it decodes with
the standard library alone and never runs code.  JSON's own types carry
``None``, ``bool``, ``int``, ``str`` and string-keyed ``dict``; every
other value is a JSON array whose first element is a tag:

==========================  ==========================================
``["L", item, ...]``        a ``list``
``["T", item, ...]``        a ``tuple``
``["S", item, ...]``        a ``frozenset``, items sorted by their
                            encoded bytes
``["O", name, {fields}]``   a frozen dataclass on the allow-list
                            (:data:`DATACLASSES`), rebuilt through its
                            constructor so ``__post_init__`` re-checks
                            it
==========================  ==========================================

The encoding is **canonical**: equal values encode to equal bytes
whatever order their sets and dicts were built in, in every process,
whatever its ``PYTHONHASHSEED``.  A ``float``, a ``set``, a
non-string dict key, a callable or any unlisted class is refused with
:class:`CodecError` — the store counts that as a failed write — and so
is a payload that does not decode back, which the store quarantines as
``undecodable``.
"""

from __future__ import annotations

import json
from dataclasses import fields
from json.encoder import encode_basestring_ascii as _string
from typing import Any

from repro.analysis import witness
from repro.analysis.diagnostics import AnalysisReport, Diagnostic
from repro.errors import ReproError, StoreError

DATACLASSES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        AnalysisReport,
        Diagnostic,
        witness.CardConflict,
        witness.DisjointAncestors,
        witness.EmptyRelationship,
        witness.EmptySuper,
        witness.IsaCycle,
        witness.IsaPath,
        witness.RedundantEdge,
        witness.RequiredParticipation,
        witness.UncoveredClass,
    )
}
"""The dataclasses a payload may carry, by name: the static analysis
report and the witnesses its diagnostics hold."""

_NAMES = {cls: name for name, cls in DATACLASSES.items()}
_NESTED = (list, dict)
_SEQUENCES: dict[Any, Any] = {"L": list, "T": tuple, "S": frozenset}


class CodecError(StoreError):
    """A value the codec refuses to encode, or a payload that does not
    decode to one."""


def _refuse(text: str) -> Any:
    raise CodecError(f"non-integer number {text!r}")


_JSON = json.JSONDecoder(parse_float=_refuse, parse_constant=_refuse)


def encode(value: Any) -> bytes:
    """The canonical bytes of ``value``; raises :class:`CodecError`."""
    try:
        return _encode(value).encode("ascii")
    except RecursionError as error:  # a cycle, or pathological nesting
        raise CodecError("value nests too deeply to encode") from error


def decode(payload: bytes) -> Any:
    """The value ``payload`` encodes; raises :class:`CodecError`."""
    try:
        tree = _JSON.decode(payload.decode("utf-8"))
        return _decode(tree) if type(tree) in _NESTED else tree
    except CodecError:
        raise
    except (ValueError, TypeError, RecursionError, ReproError) as error:
        # ValueError covers bad JSON and bad UTF-8; TypeError and
        # ReproError come from a dataclass constructor refusing its
        # fields (or an unhashable set item), RecursionError from
        # pathological nesting.
        raise CodecError(f"payload does not decode: {error}") from error


def _tagged(tag: str, items: Any) -> str:
    return "".join(['["', tag, '"', *(f",{item}" for item in items), "]"])


def _encode(value: Any) -> str:
    kind = type(value)
    if kind is str:
        return _string(value)
    if kind is int:
        return str(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is dict:
        if any(type(key) is not str for key in value):
            raise CodecError("dict keys must be strings")
        return "{%s}" % ",".join(
            f"{_string(key)}:{_encode(value[key])}" for key in sorted(value)
        )
    if kind is list:
        return _tagged("L", map(_encode, value))
    if kind is tuple:
        return _tagged("T", map(_encode, value))
    if kind is frozenset:
        return _tagged("S", sorted(map(_encode, value)))
    name = _NAMES.get(kind)
    if name is None:
        raise CodecError(f"cannot encode a {kind.__name__}")
    attributes = {spec.name: getattr(value, spec.name) for spec in fields(value)}
    return _tagged("O", (_string(name), _encode(attributes)))


def _decode(node: Any) -> Any:
    """Rebuild a parsed JSON array or object; scalars (null, true,
    false, an int or a string) are their own value and are passed over
    in place rather than through a call."""
    if type(node) is dict:
        return {
            key: _decode(item) if type(item) in _NESTED else item
            for key, item in node.items()
        }
    tag = node[0] if node and type(node[0]) is str else None
    build = _SEQUENCES.get(tag)
    if build is not None:
        return build(
            [_decode(item) if type(item) in _NESTED else item for item in node[1:]]
        )
    if tag == "O" and len(node) == 3 and type(node[2]) is dict:
        cls = DATACLASSES.get(node[1]) if type(node[1]) is str else None
        if cls is not None:
            return cls(**_decode(node[2]))
    raise CodecError(f"unknown tag {tag!r}")


__all__ = ["CodecError", "DATACLASSES", "decode", "encode"]
