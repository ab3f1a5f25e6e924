"""The one write path of the persistent store: temp + fsync + rename.

Every byte the store puts on disk goes through
:func:`atomic_write_bytes` (invariant R6, enforced by
``repro lint --repo``: no other module under ``repro/store/`` may open
a file for writing).  The protocol is the classic
crash-safe sequence:

1. create a uniquely-named temp file *in the target directory* (same
   filesystem, so the final rename cannot degrade to a copy),
2. write the payload,
3. ``fsync`` the temp file (data durable before it becomes visible),
4. ``os.replace`` onto the final name (atomic on POSIX: readers see
   the old complete entry or the new complete entry, never a mix),
5. ``fsync`` the directory (the rename itself durable).

A crash at *any* point between these steps leaves either no entry, the
old entry, or the new entry — never a torn final file.  The
deterministic fault points of :mod:`repro.runtime.faults`
(:data:`~repro.runtime.faults.DISK_WRITE_POINTS`) are fired between
the steps in exactly that order, so the crash-recovery property is
testable point by point: a scripted
:class:`~repro.runtime.faults.SimulatedCrash` abandons the write the
way a killed process would (the torn temp file is deliberately left
behind for the recovery sweep to find), while a real ``OSError``
(``ENOSPC``, ``EACCES``) cleans the temp file up before propagating to
the store's graceful-degradation path.

Temp files are named ``.<final-name>.<pid>.<seq>.tmp``: the leading dot
keeps them out of entry listings, the pid+sequence keeps concurrent
writers (and a crashed predecessor's leftovers) from colliding, and
:func:`sweep_temp_files` reclaims strays on store startup.
"""

from __future__ import annotations

import itertools
import os
from pathlib import Path

from repro.runtime import faults

TEMP_SUFFIX = ".tmp"
"""Suffix of in-flight temp files (swept by :func:`sweep_temp_files`)."""

_SEQUENCE = itertools.count()
"""Per-process temp-name counter; uniqueness, not meaning."""


def fsync_directory(directory: Path) -> None:
    """Flush a directory's entry table; best-effort on platforms (or
    filesystems) that refuse to open directories."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def create_exclusive(path: Path) -> int:
    """Create ``path`` (``O_CREAT | O_EXCL``) and return its descriptor.

    A missing parent directory is made only when the create finds it
    missing, and the create is then tried once more: a store writes
    into directories that already exist on all but its first write, so
    no write pays a ``mkdir`` to be sure.  ``FileExistsError``
    propagates.
    """
    flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY
    try:
        return os.open(path, flags, 0o644)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        return os.open(path, flags, 0o644)


def atomic_write_bytes(
    path: Path, data: bytes, fault_prefix: str = "store:write"
) -> None:
    """Publish ``data`` at ``path`` atomically and durably.

    Raises ``OSError`` on real I/O failure (temp file removed first) and
    propagates :class:`~repro.runtime.faults.SimulatedCrash` from
    scripted fault points (on-disk state left exactly as the crash
    point defines — including a torn temp file at the ``:torn`` point).
    """
    directory = path.parent
    faults.fire(f"{fault_prefix}:start")
    temp = directory / f".{path.name}.{os.getpid()}.{next(_SEQUENCE)}{TEMP_SUFFIX}"
    fd = create_exclusive(temp)
    try:
        half = len(data) // 2
        os.write(fd, data[:half])
        faults.fire(f"{fault_prefix}:torn")
        os.write(fd, data[half:])
        faults.fire(f"{fault_prefix}:pre-fsync")
        os.fsync(fd)
    except faults.SimulatedCrash:
        os.close(fd)
        raise  # a killed process leaves its torn temp file behind
    except BaseException:
        os.close(fd)
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise
    os.close(fd)
    try:
        faults.fire(f"{fault_prefix}:pre-rename")
        os.replace(temp, path)
    except faults.SimulatedCrash:
        raise  # ditto: the durable temp file survives the crash
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise
    faults.fire(f"{fault_prefix}:pre-dirsync")
    fsync_directory(directory)


def sweep_temp_files(directory: Path) -> int:
    """Remove stray temp files a crashed writer left in ``directory``.

    Safe against live writers in *other* processes only in the sense
    that matters here: the store calls this once at startup, before it
    writes, and a concurrent writer whose temp file is swept fails its
    rename with a clean ``FileNotFoundError`` → degraded write, never
    corruption.  Returns the number of files removed.
    """
    removed = 0
    try:
        strays = list(directory.glob(f".*{TEMP_SUFFIX}"))
    except OSError:
        return 0
    for stray in strays:
        try:
            stray.unlink()
            removed += 1
        except OSError:
            continue
    return removed


__all__ = [
    "TEMP_SUFFIX",
    "atomic_write_bytes",
    "create_exclusive",
    "fsync_directory",
    "sweep_temp_files",
]
