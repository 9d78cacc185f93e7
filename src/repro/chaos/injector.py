"""Deterministic infrastructure-fault injection for the durability layer.

The simulator has had *simulation* chaos since PR 4 (``repro.faults``
kills links and nodes inside the model).  This module is the other
half: it attacks the machinery the reproduction relies on to survive
the real world — the fsynced ``O_APPEND`` writes behind
:func:`repro.obs.manifest.append_jsonl`, which carry the campaign
event log and every telemetry manifest.

Injection happens at the two module-level syscall seams
``repro.obs.manifest._os_write`` / ``_os_fsync``.  Patching the seams
(not ``os`` itself) scopes chaos to durability appends: the rest of
the process — snapshot files, pytest plumbing, the store *reader* —
keeps working, which is exactly the situation a real ``EIO`` or
``ENOSPC`` produces.

Three failure modes, all counted deterministically (the Nth syscall
fails — no wall clock, no randomness, so a chaos test is an ordinary
reproducible test):

* **fsync failure** — the Nth fsync raises ``EIO``.  The bytes are in
  the page cache but the durability acknowledgement never happens; the
  caller must treat the append as failed.
* **ENOSPC short write** — the Nth write lands only a prefix (default
  7 bytes: mid-way through the ``{"schema`` preamble) and then raises
  ``ENOSPC``, leaving a torn line for the next reader.
* **mid-write kill** — the Nth write lands a prefix and then raises
  :class:`ProcessKilled` (a ``BaseException``, so no recovery layer
  can accidentally swallow it), simulating SIGKILL between the write
  entering the kernel and the caller resuming.

:func:`tear_tail` complements the seams with post-hoc byte surgery:
truncating a finished log at an arbitrary byte offset — including
mid-way through a multi-byte UTF-8 sequence — reproduces what an
actual crash leaves on disk.
"""

from __future__ import annotations

import errno
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from repro.obs import manifest

__all__ = [
    "ChaosLog",
    "ChaosPlan",
    "ProcessKilled",
    "durability_chaos",
    "tear_tail",
]


class ProcessKilled(BaseException):
    """Simulated SIGKILL mid-append.

    Deliberately a ``BaseException``: the recovery machinery under
    test catches ``Exception`` (and specific ``OSError`` kinds), and a
    killed process does not get *any* handler — a chaos driver that
    sees this exception knows the simulated process is gone and must
    continue from the on-disk state alone.
    """


@dataclass(frozen=True)
class ChaosPlan:
    """Which syscall ordinals fail, counted from 1 inside the scope.

    Attributes:
        fail_fsync_at: this fsync raises ``EIO`` (None = never).
        enospc_at_write: this write lands ``short_bytes`` then raises
            ``ENOSPC`` (None = never).
        kill_at_write: this write lands ``short_bytes`` then raises
            :class:`ProcessKilled` (None = never).
        short_bytes: prefix length that reaches the file before an
            injected write failure.  Any value tears the JSON line;
            pick an offset inside a multi-byte UTF-8 character to tear
            the *encoding* too.
    """

    fail_fsync_at: Optional[int] = None
    enospc_at_write: Optional[int] = None
    kill_at_write: Optional[int] = None
    short_bytes: int = 7


@dataclass
class ChaosLog:
    """What actually happened inside a :func:`durability_chaos` scope."""

    writes: int = 0
    fsyncs: int = 0
    injected: List[str] = field(default_factory=list)


@contextmanager
def durability_chaos(plan: ChaosPlan) -> Iterator[ChaosLog]:
    """Patch the manifest syscall seams according to ``plan``.

    Restores the real syscalls on exit no matter what was raised, so a
    chaos scope can never leak into the next test.  Yields the
    :class:`ChaosLog` so callers can assert the injection fired (a
    chaos test whose fault never triggered is a green lie).
    """
    log = ChaosLog()
    real_write = manifest._os_write
    real_fsync = manifest._os_fsync

    def chaos_write(fd: int, data: bytes) -> int:
        log.writes += 1
        ordinal = log.writes
        if ordinal == plan.enospc_at_write or ordinal == plan.kill_at_write:
            short = min(plan.short_bytes, len(data))
            if short:
                real_write(fd, bytes(data[:short]))
            if ordinal == plan.enospc_at_write:
                log.injected.append(
                    f"ENOSPC at write {ordinal} after {short} bytes"
                )
                raise OSError(
                    errno.ENOSPC, "No space left on device (chaos)"
                )
            log.injected.append(
                f"kill at write {ordinal} after {short} bytes"
            )
            raise ProcessKilled(
                f"simulated SIGKILL at write {ordinal}"
            )
        return real_write(fd, data)

    def chaos_fsync(fd: int) -> None:
        log.fsyncs += 1
        if log.fsyncs == plan.fail_fsync_at:
            log.injected.append(f"EIO at fsync {log.fsyncs}")
            raise OSError(errno.EIO, "fsync failed (chaos)")
        real_fsync(fd)

    manifest._os_write = chaos_write
    manifest._os_fsync = chaos_fsync
    try:
        yield log
    finally:
        manifest._os_write = real_write
        manifest._os_fsync = real_fsync


def tear_tail(path: str, drop_bytes: int) -> int:
    """Truncate ``path`` by ``drop_bytes`` bytes, crash-style.

    Returns the new size.  Byte-level truncation is oblivious to line
    and character boundaries — drop an odd number of bytes from a log
    whose last line ends in a multi-byte UTF-8 character and the tail
    is torn mid-sequence, which is precisely the case text-mode
    readers explode on (and the case
    :meth:`repro.campaign.store.CampaignStore.replay` must absorb).
    """
    size = os.path.getsize(path)
    keep = max(0, size - max(0, drop_bytes))
    with open(path, "rb+") as handle:
        handle.truncate(keep)
    return keep
