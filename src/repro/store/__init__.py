"""Crash-safe persistent artifact store, content-addressed by schema
fingerprint.

=====================================  ==================================
:mod:`repro.store.atomic`              the one write path: temp file +
                                       fsync + rename, fault-point
                                       instrumented (invariant R6)
:mod:`repro.store.format`              versioned, checksummed entry
                                       envelope; typed integrity errors
:mod:`repro.store.codec`               the canonical payload
                                       encoding (JSON; decoding runs
                                       no code)
:mod:`repro.store.locks`               advisory writer locks with stale
                                       reclaim and deterministic
                                       jittered backoff
:mod:`repro.store.store`               :class:`ArtifactStore` — the
                                       absent-or-valid contract,
                                       quarantine, verify/clear/summary
=====================================  ==================================

Quickstart::

    from repro.store import ArtifactStore

    store = ArtifactStore("/var/cache/repro")
    store.put(fingerprint, bundle)      # atomic, durable, locked
    store.get(fingerprint)              # valid bundle or None — never
                                        # an exception, never bad data

:class:`~repro.session.SessionCache` accepts a store as its persistent
second tier (``SessionCache(store=...)``), which is how ``repro batch
--cache-dir`` runs and ``repro serve`` daemons share warm artifacts
across processes; the ``repro cache`` CLI fronts the maintenance
surface (``stats`` / ``verify`` / ``clear`` / ``quarantine list``).
"""

from repro.store.atomic import atomic_write_bytes, sweep_temp_files
from repro.store.format import FORMAT_VERSION, decode_entry, encode_entry
from repro.store.locks import AdvisoryLock, LockOwner, backoff_delay
from repro.store.store import (
    ARTIFACT_VERSION,
    DEFAULT_KIND,
    ENV_CACHE_DIR,
    ArtifactStore,
    EntryInfo,
    QuarantineInfo,
    VerifyOutcome,
    resolve_cache_dir,
)

__all__ = [
    "ARTIFACT_VERSION",
    "AdvisoryLock",
    "ArtifactStore",
    "DEFAULT_KIND",
    "ENV_CACHE_DIR",
    "EntryInfo",
    "FORMAT_VERSION",
    "LockOwner",
    "QuarantineInfo",
    "VerifyOutcome",
    "atomic_write_bytes",
    "backoff_delay",
    "decode_entry",
    "encode_entry",
    "resolve_cache_dir",
    "sweep_temp_files",
]
