"""The content-addressed, crash-safe artifact store.

:class:`ArtifactStore` maps ``(fingerprint, kind)`` keys — the same
SHA-256 schema fingerprints :mod:`repro.session` caches under — to
artifact bundles on disk, each in the canonical encoding of
:mod:`repro.store.codec`, with one governing invariant:

    **absent or valid.**  After a crash at any point of the write
    protocol, a concurrent-writer race, bit-rot, truncation, or a
    version bump, a read returns either a checksum-valid bundle or
    ``None`` — never an exception on the reasoning path and never bad
    data.

Layout (under the store root)::

    v1/                         # one tree per envelope format version
      objects/<fp[:2]>/<fingerprint>.<kind>.bin
      quarantine/<entry-name>.<reason>.quarantined
      locks/<fingerprint>.<kind>.lock

Writes go through the atomic temp+fsync+rename protocol of
:mod:`repro.store.atomic` under an advisory per-entry lock
(:mod:`repro.store.locks`); real I/O failures (``ENOSPC``,
``EACCES``, lock timeouts) degrade to a counted no-op, because a cache
that cannot persist must never take the reasoner down with it.  Reads
are lock-free; an entry that fails validation is **quarantined** —
atomically renamed into ``quarantine/`` with its failure reason in the
name — so the next read is an honest miss, the caller rebuilds from
source, and the damaged bytes remain available for forensics
(*self-healing*).  Quarantine re-validates under the entry lock first:
if a concurrent writer already replaced the damaged entry with a good
one, the good entry is left alone.

Everything is observable: per-process :data:`STORE_COUNTERS` for
hits/misses/writes/degradations, each increment atomic so threads may
share one store, and on-disk :meth:`ArtifactStore.summary`
/ :meth:`~ArtifactStore.verify` / :meth:`~ArtifactStore.quarantined`
for the ``repro cache`` CLI.
"""

from __future__ import annotations

import logging
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.errors import (
    StoreError,
    StoreIntegrityError,
    StoreLockTimeout,
)
from repro.runtime import faults
from repro.runtime.stats import Counters
from repro.store import codec
from repro.store.atomic import atomic_write_bytes, fsync_directory, sweep_temp_files
from repro.store.format import FORMAT_VERSION, decode_entry, encode_entry
from repro.store.locks import (
    DEFAULT_STALE_AFTER,
    DEFAULT_TIMEOUT,
    AdvisoryLock,
)

logger = logging.getLogger("repro.store")

ARTIFACT_VERSION = 2
"""Version of the stored artifact bundle: its codec and the shape of the
reasoning artifacts in it.  Bump whenever either changes; every entry
written under the old version then degrades to a quarantine + rebuild
instead of a decoding surprise."""

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
"""Environment variable naming the store root when no flag is given."""

DEFAULT_KIND = "artifacts"
"""The bundle kind :mod:`repro.session` persists warm entries under."""

ENTRY_SUFFIX = ".bin"
QUARANTINE_SUFFIX = ".quarantined"

_KEY_PATTERN = re.compile(r"^[A-Za-z0-9_-]+$")
"""Filesystem-safe, dot-free keys so ``<fp>.<kind>.bin`` parses back."""


def resolve_cache_dir(
    cache_dir: str | None = None, no_cache: bool = False
) -> str | None:
    """The effective store root: ``--no-cache`` > flag > env > none."""
    if no_cache:
        return None
    if cache_dir:
        return cache_dir
    env = os.environ.get(ENV_CACHE_DIR, "").strip()
    return env or None


STORE_COUNTERS = (
    "hits",
    "misses",
    "writes",
    "write_errors",
    "lock_timeouts",
    "quarantined",
)
"""The per-process counters an :class:`ArtifactStore` keeps, in report
order (on-disk state is separate — see :meth:`ArtifactStore.summary`)."""


@dataclass(frozen=True)
class EntryInfo:
    """One live entry as seen by a directory scan."""

    fingerprint: str
    kind: str
    path: Path
    size: int


@dataclass(frozen=True)
class QuarantineInfo:
    """One quarantined file: its original entry name and the validation
    failure that pulled it."""

    name: str
    reason: str
    path: Path
    size: int


@dataclass
class VerifyOutcome:
    """What :meth:`ArtifactStore.verify` found (and did)."""

    checked: int = 0
    valid: int = 0
    quarantined: list[dict[str, str]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.quarantined


class ArtifactStore:
    """See the module docstring for the contract and layout."""

    def __init__(
        self,
        root: str | os.PathLike[str],
        artifact_version: int = ARTIFACT_VERSION,
        lock_timeout: float = DEFAULT_TIMEOUT,
        stale_lock_after: float = DEFAULT_STALE_AFTER,
    ) -> None:
        self.root = Path(root)
        self.artifact_version = artifact_version
        self.lock_timeout = lock_timeout
        self.stale_lock_after = stale_lock_after
        self.stats = Counters(STORE_COUNTERS)
        version_root = self.root / f"v{FORMAT_VERSION}"
        self.objects_dir = version_root / "objects"
        self.quarantine_dir = version_root / "quarantine"
        self.locks_dir = version_root / "locks"
        # Startup recovery: make the tree (idempotent) and sweep temp
        # files crashed writers abandoned.  Both best-effort — a store
        # on a read-only filesystem still serves reads.
        try:
            for directory in (
                self.objects_dir,
                self.quarantine_dir,
                self.locks_dir,
            ):
                directory.mkdir(parents=True, exist_ok=True)
            for shard in self._shard_dirs():
                sweep_temp_files(shard)
        except OSError as error:
            logger.warning("store root %s not writable: %s", self.root, error)

    # -- paths ---------------------------------------------------------------

    @staticmethod
    def _check_key(value: str, what: str) -> str:
        if not _KEY_PATTERN.match(value):
            raise StoreError(
                f"{what} {value!r} is not a filesystem-safe key "
                "(letters, digits, '_', '-' only)"
            )
        return value

    def entry_path(self, fingerprint: str, kind: str = DEFAULT_KIND) -> Path:
        self._check_key(fingerprint, "fingerprint")
        self._check_key(kind, "kind")
        shard = fingerprint[:2]
        return self.objects_dir / shard / f"{fingerprint}.{kind}{ENTRY_SUFFIX}"

    def _lock_for(self, fingerprint: str, kind: str) -> AdvisoryLock:
        return AdvisoryLock(
            self.locks_dir / f"{fingerprint}.{kind}.lock",
            timeout=self.lock_timeout,
            stale_after=self.stale_lock_after,
        )

    def _shard_dirs(self) -> list[Path]:
        try:
            return [p for p in self.objects_dir.iterdir() if p.is_dir()]
        except OSError:
            return []

    # -- reads ---------------------------------------------------------------

    def _validate(self, blob: bytes, fingerprint: str, kind: str) -> Any:
        """The envelope + payload checks shared by get and verify;
        raises :class:`StoreIntegrityError` with a reason on failure."""
        payload = decode_entry(blob, self.artifact_version)
        try:
            bundle = codec.decode(payload)
        except codec.CodecError as error:
            raise StoreIntegrityError(str(error), reason="undecodable") from error
        if (
            not isinstance(bundle, dict)
            or bundle.get("fingerprint") != fingerprint
            or bundle.get("kind") != kind
        ):
            raise StoreIntegrityError(
                "entry does not carry its own key", reason="key-mismatch"
            )
        return bundle["artifact"]

    def get(self, fingerprint: str, kind: str = DEFAULT_KIND) -> Any | None:
        """The stored artifact, or ``None``; never raises on damage.

        A damaged entry (torn, truncated, flipped, version-skewed,
        undecodable, mislabelled) is quarantined on the spot and read
        as a miss, so the caller rebuilds from source.
        """
        path = self.entry_path(fingerprint, kind)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            self.stats.bump("misses")
            return None
        except OSError as error:
            logger.warning("store read of %s failed: %s", path.name, error)
            self.stats.bump("misses")
            return None
        try:
            artifact = self._validate(blob, fingerprint, kind)
        except StoreIntegrityError as error:
            self._quarantine(path, fingerprint, kind, error.reason)
            self.stats.bump("misses")
            return None
        self.stats.bump("hits")
        return artifact

    # -- writes --------------------------------------------------------------

    def put(
        self, fingerprint: str, artifact: Any, kind: str = DEFAULT_KIND
    ) -> bool:
        """Persist ``artifact``; ``True`` on success, ``False`` on a
        degraded skip (lock contention, a value the codec refuses, I/O
        error).

        A :class:`~repro.runtime.faults.SimulatedCrash` from an injected
        fault point propagates — and deliberately leaves the entry lock
        behind, the way a killed process would, so stale-lock reclaim is
        exercised by the same tests that exercise crash recovery.
        """
        path = self.entry_path(fingerprint, kind)
        try:
            payload = codec.encode(
                {"fingerprint": fingerprint, "kind": kind, "artifact": artifact}
            )
        except codec.CodecError as error:
            logger.warning("store put of %s skipped: %s", path.name, error)
            self.stats.bump("write_errors")
            return False
        data = bytearray(encode_entry(payload, self.artifact_version))
        faults.fire(faults.DISK_ENCODE_POINT, {"buffer": data})
        lock = self._lock_for(fingerprint, kind)
        try:
            lock.acquire()
        except StoreLockTimeout:
            self.stats.bump("lock_timeouts")
            logger.warning("store put of %s skipped: lock contended", path.name)
            return False
        crashed = False
        try:
            atomic_write_bytes(path, bytes(data))
        except faults.SimulatedCrash:
            crashed = True
            raise
        except OSError as error:
            logger.warning("store put of %s failed: %s", path.name, error)
            self.stats.bump("write_errors")
            return False
        finally:
            if not crashed:
                lock.release()
        self.stats.bump("writes")
        return True

    # -- quarantine ----------------------------------------------------------

    def _quarantine(
        self, path: Path, fingerprint: str, kind: str, reason: str
    ) -> bool:
        """Move a damaged entry aside (atomic rename); ``False`` when the
        entry healed concurrently or the move could not be made safe."""
        lock = self._lock_for(fingerprint, kind)
        try:
            lock.acquire()
        except StoreLockTimeout:
            self.stats.bump("lock_timeouts")
            return False  # leave it; the next read retries
        try:
            # Re-validate under the lock: a concurrent writer may have
            # replaced the damaged file with a good entry already.
            try:
                self._validate(path.read_bytes(), fingerprint, kind)
            except FileNotFoundError:
                return False
            except OSError:
                return False
            except StoreIntegrityError as error:
                reason = error.reason
            else:
                return False  # healed; nothing to quarantine
            destination = self._quarantine_name(path.name, reason)
            try:
                os.replace(path, destination)
            except OSError as replace_error:
                logger.warning(
                    "could not quarantine %s: %s", path.name, replace_error
                )
                return False
            fsync_directory(path.parent)
            fsync_directory(self.quarantine_dir)
            self.stats.bump("quarantined")
            logger.warning(
                "quarantined %s (%s); will rebuild from source",
                path.name,
                reason,
            )
            return True
        finally:
            lock.release()

    def _quarantine_name(self, entry_name: str, reason: str) -> Path:
        base = f"{entry_name}.{reason}"
        candidate = self.quarantine_dir / f"{base}{QUARANTINE_SUFFIX}"
        serial = 1
        while candidate.exists():
            candidate = (
                self.quarantine_dir / f"{base}-{serial}{QUARANTINE_SUFFIX}"
            )
            serial += 1
        return candidate

    # -- maintenance and observability ---------------------------------------

    def entries(self) -> Iterator[EntryInfo]:
        """Every live entry, sorted for stable CLI output."""
        found: list[EntryInfo] = []
        for shard in self._shard_dirs():
            for path in shard.glob(f"*{ENTRY_SUFFIX}"):
                stem = path.name[: -len(ENTRY_SUFFIX)]
                fingerprint, _, kind = stem.rpartition(".")
                if not fingerprint:
                    continue  # not an entry we wrote
                try:
                    size = path.stat().st_size
                except OSError:
                    continue
                found.append(EntryInfo(fingerprint, kind, path, size))
        return iter(sorted(found, key=lambda e: (e.fingerprint, e.kind)))

    def quarantined(self) -> list[QuarantineInfo]:
        """Every quarantined file, with its parsed failure reason."""
        found: list[QuarantineInfo] = []
        try:
            paths = sorted(self.quarantine_dir.glob(f"*{QUARANTINE_SUFFIX}"))
        except OSError:
            return []
        for path in paths:
            stem = path.name[: -len(QUARANTINE_SUFFIX)]
            name, _, reason = stem.rpartition(".")
            try:
                size = path.stat().st_size
            except OSError:
                size = 0
            found.append(
                QuarantineInfo(name or stem, reason or "unknown", path, size)
            )
        return found

    def verify(self) -> VerifyOutcome:
        """Validate every entry end to end; quarantine the damaged ones."""
        outcome = VerifyOutcome()
        for entry in self.entries():
            outcome.checked += 1
            try:
                blob = entry.path.read_bytes()
            except OSError:
                continue  # vanished mid-scan: nothing to verify
            try:
                self._validate(blob, entry.fingerprint, entry.kind)
            except StoreIntegrityError as error:
                self._quarantine(
                    entry.path, entry.fingerprint, entry.kind, error.reason
                )
                outcome.quarantined.append(
                    {
                        "fingerprint": entry.fingerprint,
                        "kind": entry.kind,
                        "reason": error.reason,
                    }
                )
            else:
                outcome.valid += 1
        return outcome

    def clear(self, include_quarantine: bool = False) -> int:
        """Remove every entry (and optionally the quarantine); returns
        the number of entries removed."""
        removed = 0
        for entry in self.entries():
            try:
                entry.path.unlink()
                removed += 1
            except OSError:
                continue
        try:
            for lock_file in self.locks_dir.glob("*.lock"):
                try:
                    lock_file.unlink()
                except OSError:
                    continue
        except OSError:
            pass
        if include_quarantine:
            for info in self.quarantined():
                try:
                    info.path.unlink()
                except OSError:
                    continue
        for shard in self._shard_dirs():
            fsync_directory(shard)
        return removed

    def summary(self) -> dict[str, Any]:
        """On-disk state for ``repro cache stats`` (JSON-safe)."""
        entries = list(self.entries())
        return {
            "root": str(self.root),
            "format_version": FORMAT_VERSION,
            "artifact_version": self.artifact_version,
            "entries": len(entries),
            "bytes": sum(entry.size for entry in entries),
            "quarantined": len(self.quarantined()),
        }

    def __repr__(self) -> str:
        return (
            f"ArtifactStore({str(self.root)!r}, "
            f"{self.stats.hits} hits, {self.stats.writes} writes)"
        )


__all__ = [
    "ARTIFACT_VERSION",
    "ArtifactStore",
    "DEFAULT_KIND",
    "ENV_CACHE_DIR",
    "EntryInfo",
    "QuarantineInfo",
    "STORE_COUNTERS",
    "VerifyOutcome",
    "resolve_cache_dir",
]
