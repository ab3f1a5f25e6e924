"""The self-validating binary envelope of one stored entry.

Layout (big-endian, 48-byte header)::

    offset  size  field
    0       4     magic  b"RPST"
    4       2     format version   (the envelope layout itself)
    6       2     artifact version (the payload's codec and shape)
    8       8     payload length in bytes
    16      32    SHA-256 digest of the payload
    48      —     payload

Two version numbers because they fail differently: a **format**
mismatch means this code cannot even parse the envelope (the store
keeps per-format-version subdirectories, so in practice this only
happens to hand-damaged files), while an **artifact** mismatch means
the envelope is intact but the reasoning artifacts inside were encoded
by an incompatible codec or in an older shape — bump
:data:`repro.store.store.ARTIFACT_VERSION` whenever either changes and
every stale entry degrades to a rebuild instead of a decoding surprise.

:func:`decode_entry` validates *everything* before a byte of payload is
returned — magic, both versions, declared length against actual length
(catching truncation *and* trailing garbage), and the checksum — and
raises :class:`~repro.errors.StoreIntegrityError` with a stable
``reason`` tag on the first violation.  The store maps each reason to a
quarantine, never to a crash.
"""

from __future__ import annotations

import hashlib
import struct

from repro.errors import StoreIntegrityError

MAGIC = b"RPST"
FORMAT_VERSION = 1

_HEADER = struct.Struct(">4sHHQ32s")
HEADER_SIZE = _HEADER.size


def encode_entry(payload: bytes, artifact_version: int) -> bytes:
    """Wrap ``payload`` in the versioned, checksummed envelope."""
    digest = hashlib.sha256(payload).digest()
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, artifact_version, len(payload), digest
    )
    return header + payload


def decode_entry(blob: bytes, artifact_version: int) -> bytes:
    """Return the validated payload of ``blob`` or raise
    :class:`~repro.errors.StoreIntegrityError` with a ``reason`` tag."""
    if len(blob) < HEADER_SIZE:
        raise StoreIntegrityError(
            f"entry too short for a header ({len(blob)} bytes)",
            reason="truncated-header",
        )
    magic, fmt, artifact, length, digest = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise StoreIntegrityError(
            f"bad magic {magic!r}", reason="magic"
        )
    if fmt != FORMAT_VERSION:
        raise StoreIntegrityError(
            f"format version {fmt} != {FORMAT_VERSION}",
            reason="format-version",
        )
    if artifact != artifact_version:
        raise StoreIntegrityError(
            f"artifact version {artifact} != {artifact_version}",
            reason="artifact-version",
        )
    payload = blob[HEADER_SIZE:]
    if len(payload) < length:
        raise StoreIntegrityError(
            f"payload truncated ({len(payload)} of {length} bytes)",
            reason="truncated-payload",
        )
    if len(payload) > length:
        raise StoreIntegrityError(
            f"{len(payload) - length} trailing byte(s) after the payload",
            reason="trailing-garbage",
        )
    if hashlib.sha256(payload).digest() != digest:
        raise StoreIntegrityError(
            "payload checksum mismatch", reason="checksum"
        )
    return payload


__all__ = [
    "FORMAT_VERSION",
    "HEADER_SIZE",
    "MAGIC",
    "decode_entry",
    "encode_entry",
]
