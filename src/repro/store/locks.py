"""Advisory lock files for cross-process write serialisation.

Readers never lock: the atomic rename protocol guarantees a reader
always sees a complete entry (old or new), so locks exist only to
serialise *writers* on the same entry (two processes warming the
same fingerprint, or a writer racing the quarantine of a corrupt
entry).

A lock is a file created with ``O_CREAT | O_EXCL`` — the creation
itself is the atomic test-and-set — whose content identifies the owner
(``pid:timestamp:host``).  Because advisory locks can outlive a killed
owner, acquisition detects and reclaims **stale** locks: a lock whose
owner pid is no longer alive on this host, or whose age exceeds
``stale_after`` (covering crashed owners whose pid was recycled, locks
from other hosts on shared filesystems, and the same-pid case where
this very process crashed mid-write earlier in its life and then
retried).

Contention uses **bounded retry with deterministic jittered backoff**:
exponential base delays, each perturbed by a jitter derived from a hash
of ``(pid, attempt)`` — different processes desynchronise (the point of
jitter) while any single process retries on a reproducible schedule
(the point of determinism).  When the deadline passes, acquisition
raises :class:`~repro.errors.StoreLockTimeout`, which the store treats
as a degraded no-op write, never a failure of the reasoning path.
"""

from __future__ import annotations

import hashlib
import os
import socket
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import StoreLockTimeout

DEFAULT_TIMEOUT = 2.0
"""Seconds a writer will retry before degrading to a skipped write."""

DEFAULT_STALE_AFTER = 30.0
"""Age beyond which a lock is presumed abandoned even if its pid is
alive (pid recycling, other hosts); store writes hold locks for
milliseconds, so thirty seconds is orders of magnitude past legitimate."""

POLL_BASE = 0.005
"""Base of the exponential backoff schedule, in seconds."""

_POLL_CAP = 0.1
"""Ceiling on a single backoff sleep."""


@dataclass(frozen=True)
class LockOwner:
    """The identity a lock file records for staleness decisions."""

    pid: int
    timestamp: float
    host: str

    def encode(self) -> bytes:
        return f"{self.pid}:{self.timestamp!r}:{self.host}".encode("utf-8")

    @classmethod
    def decode(cls, blob: bytes) -> LockOwner | None:
        try:
            pid_text, timestamp_text, host = (
                blob.decode("utf-8").split(":", 2)
            )
            return cls(int(pid_text), float(timestamp_text), host)
        except (ValueError, UnicodeDecodeError):
            return None


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return True  # assume alive when the platform cannot say
    return True


def backoff_delay(attempt: int, base: float = POLL_BASE) -> float:
    """The ``attempt``-th retry delay: capped exponential plus a
    deterministic jitter hashed from ``(pid, attempt)``."""
    exponential = min(base * (2 ** min(attempt, 6)), _POLL_CAP)
    seed = f"{os.getpid()}:{attempt}".encode("utf-8")
    raw = int.from_bytes(
        hashlib.blake2b(seed, digest_size=2).digest(), "big"
    )
    jitter = (raw / 0xFFFF) * base
    return exponential + jitter


class AdvisoryLock:
    """One entry's writer lock; usable as a context manager."""

    def __init__(
        self,
        path: Path,
        timeout: float = DEFAULT_TIMEOUT,
        stale_after: float = DEFAULT_STALE_AFTER,
    ) -> None:
        self.path = path
        self.timeout = timeout
        self.stale_after = stale_after
        self._held = False

    # -- acquisition -------------------------------------------------------

    def _try_create(self) -> bool:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        owner = LockOwner(os.getpid(), time.time(), socket.gethostname())
        try:
            fd = os.open(
                self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
            )
        except FileExistsError:
            return False
        try:
            os.write(fd, owner.encode())
        finally:
            os.close(fd)
        self._held = True
        return True

    def _reclaim_if_stale(self) -> bool:
        """Remove the current holder's file if it is stale; ``True`` when
        the caller should retry acquisition immediately."""
        try:
            blob = self.path.read_bytes()
        except OSError:
            return True  # holder vanished between our attempts
        owner = LockOwner.decode(blob)
        stale = (
            owner is None  # unreadable owner: treat as wreckage
            or not _pid_alive(owner.pid)
            or time.time() - owner.timestamp > self.stale_after
        )
        if not stale:
            return False
        try:
            self.path.unlink()
        except OSError:
            pass  # somebody else reclaimed it first; retry either way
        return True

    def acquire(self) -> AdvisoryLock:
        deadline = time.monotonic() + self.timeout
        attempt = 0
        while True:
            if self._try_create():
                return self
            if self._reclaim_if_stale():
                continue
            delay = backoff_delay(attempt)
            attempt += 1
            if time.monotonic() + delay > deadline:
                raise StoreLockTimeout(
                    f"lock {self.path.name} still contended after "
                    f"{attempt} attempt(s) over {self.timeout:.2f}s"
                )
            time.sleep(delay)

    # -- release -----------------------------------------------------------

    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        try:
            self.path.unlink()
        except OSError:
            pass

    def __enter__(self) -> AdvisoryLock:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()


__all__ = [
    "AdvisoryLock",
    "DEFAULT_STALE_AFTER",
    "DEFAULT_TIMEOUT",
    "LockOwner",
    "POLL_BASE",
    "backoff_delay",
]
