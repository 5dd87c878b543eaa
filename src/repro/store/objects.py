"""The content-addressed object layout both on-disk stores share.

Layout of a store directory::

    objects/<k2>/<key><suffix>      one published entry per content address
    tmp/<key>.<pid>.<tag>           in-flight writes and deletes
    quarantine/<key>.<tag><suffix>  entries that failed verification

An entry is a directory (``suffix == ""``) or a single file.  Writes are
staged under ``tmp/`` and published with one ``os.rename``, so a killed
writer leaves either a complete entry or no entry, never a torn one;
eviction unpublishes with one rename back into ``tmp/`` before deleting,
for the same reason.  The pid in a staging name lets :meth:`ObjectStore.gc`
reap the debris of writers that died, and never a live writer's.

The filesystem is the only index: an entry's eviction order is its
mtime, stamped to the nanosecond at publish (the filesystem's own clock
is coarse enough to tie entries written within one tick).  A subclass
that wants LRU order re-stamps entries it reads (:meth:`ObjectStore._stamp`).
"""

from __future__ import annotations

import contextlib
import os
import shutil
import time
import uuid
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from repro._util import require_non_negative
from repro.obs import MetricsRegistry, NullMetrics


@dataclass(frozen=True)
class StoreStats:
    """A point-in-time summary of one store directory."""

    entries: int
    total_bytes: int

    def to_json(self) -> dict:
        """JSON-serialisable form."""
        return {"entries": self.entries, "total_bytes": self.total_bytes}


def _size(path: Path) -> int:
    """Bytes of a file entry, or of the files directly inside a directory entry."""
    if path.is_dir():
        return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())
    return path.stat().st_size


def _delete(path: Path) -> None:
    """Remove a file or directory entry; a missing one is already gone."""
    if path.is_dir():
        shutil.rmtree(path, ignore_errors=True)
    else:
        path.unlink(missing_ok=True)


def _writer_exited(name: str) -> bool:
    """Whether a ``<key>.<pid>.<tag>`` staging name's writer is known dead.

    Anything that does not parse, or whose pid exists (even under another
    user), is treated as live and left alone.
    """
    try:
        pid = int(name.rsplit(".", 2)[-2])
        if pid > 0:
            os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (IndexError, ValueError, OverflowError, OSError):
        pass
    return False


def _oldest_first(paths: Iterable[Path]) -> list[tuple[Path, int, int]]:
    """``(path, mtime_ns, bytes)`` for each of ``paths``, oldest first (ties by name)."""
    rows = []
    for path in paths:
        with contextlib.suppress(FileNotFoundError):  # removed by a concurrent gc
            rows.append((path, path.stat().st_mtime_ns, _size(path)))
    rows.sort(key=lambda row: (row[1], row[0].name))
    return rows


def _over_bounds(
    rows: list[tuple[Path, int, int]],
    max_entries: int | None = None,
    max_bytes: int | None = None,
    max_age_s: float | None = None,
) -> list[tuple[Path, int, int]]:
    """The oldest-first prefix of ``rows`` to drop so the rest fit every bound.

    Rows older than ``max_age_s`` go regardless; then the oldest go until
    at most ``max_entries`` rows and ``max_bytes`` bytes remain.  ``None``
    disables a bound.
    """
    cutoff = time.time_ns() - int(max_age_s * 1e9) if max_age_s is not None else None
    count, total = len(rows), sum(size for _, _, size in rows)
    doomed = []
    for row in rows:
        if not (
            (cutoff is not None and row[1] < cutoff)
            or (max_entries is not None and count > max_entries)
            or (max_bytes is not None and total > max_bytes)
        ):
            break
        doomed.append(row)
        count -= 1
        total -= row[2]
    return doomed


class ObjectStore:
    """Content-addressed entries with atomic publish, quarantine and gc.

    Subclasses are codecs: they choose what an entry holds (:attr:`suffix`),
    how it is written and verified, and where gc events are counted
    (:meth:`_count_gc`).  ``metrics`` is the run's registry (a campaign
    passes its telemetry's); a store built without one counts into a
    private registry of its own.
    """

    #: Appended to the key to name an entry; ``""`` means a directory entry.
    suffix = ""

    def __init__(self, root: str | Path, metrics: MetricsRegistry | NullMetrics | None = None) -> None:
        self.root = Path(root)
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # -- paths -----------------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        """Where completed entries live."""
        return self.root / "objects"

    @property
    def quarantine_dir(self) -> Path:
        """Where entries that failed verification are parked."""
        return self.root / "quarantine"

    def entry_path(self, key: str) -> Path:
        """Where the entry with content address ``key`` is published."""
        return self.objects_dir / key[:2] / f"{key}{self.suffix}"

    # -- inspection ------------------------------------------------------------

    def keys(self) -> list[str]:
        """All stored content addresses, next to be evicted first."""
        return [path.name.removesuffix(self.suffix) for path, _, _ in self._entries()]

    def stats(self) -> StoreStats:
        """Entry count and total size on disk (staging and quarantine excluded)."""
        rows = self._entries()
        return StoreStats(entries=len(rows), total_bytes=sum(size for _, _, size in rows))

    # -- maintenance -----------------------------------------------------------

    def gc(
        self,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        max_age_s: float | None = None,
        max_quarantine_entries: int | None = None,
        max_quarantine_age_s: float | None = None,
    ) -> list[str]:
        """Evict the oldest entries until the rest fit the given bounds.

        Entries older than ``max_age_s`` go first, then the oldest until at
        most ``max_entries`` entries and ``max_bytes`` bytes remain; the
        quarantine is pruned the same way by its own count and age bounds
        (quarantined entries are only kept for post-mortems).  ``None``
        disables a bound; a negative bound raises :class:`ValueError`
        before any file is touched.  Staging debris of writers that have
        exited is always reclaimed.  Returns the evicted keys, oldest first.
        """
        bounds = {
            "max_entries": max_entries,
            "max_bytes": max_bytes,
            "max_age_s": max_age_s,
            "max_quarantine_entries": max_quarantine_entries,
            "max_quarantine_age_s": max_quarantine_age_s,
        }
        for name, bound in bounds.items():
            if bound is not None:
                require_non_negative(bound, name)
        for path in (self.root / "tmp").glob("*"):
            if _writer_exited(path.name):
                _delete(path)
        quarantined = _oldest_first(self.quarantine_dir.glob("*"))
        for path, _, _ in _over_bounds(
            quarantined, max_entries=max_quarantine_entries, max_age_s=max_quarantine_age_s
        ):
            self._remove(path)
            self._count_gc("quarantine_pruned")
        evicted = []
        for path, _, _ in _over_bounds(self._entries(), max_entries, max_bytes, max_age_s):
            self._remove(path)
            evicted.append(path.name.removesuffix(self.suffix))
            self._count_gc("evictions")
        return evicted

    # -- internals -------------------------------------------------------------

    def _count_gc(self, event: str) -> None:
        """Count one gc ``event`` (``evictions`` or ``quarantine_pruned``)."""
        raise NotImplementedError

    def _entries(self) -> list[tuple[Path, int, int]]:
        """Every published entry as ``(path, mtime_ns, bytes)``, oldest first."""
        return _oldest_first(self.objects_dir.glob(f"*/*{self.suffix}"))

    def _staging(self, key: str) -> Path:
        """A fresh ``tmp/<key>.<pid>.<tag>`` path; the pid marks whose it is."""
        (self.root / "tmp").mkdir(parents=True, exist_ok=True)
        return self.root / "tmp" / f"{key}.{os.getpid()}.{uuid.uuid4().hex[:8]}"

    def _stamp(self, key: str) -> None:
        """Make ``key`` the most recent entry in eviction order."""
        now = time.time_ns()
        with contextlib.suppress(FileNotFoundError):
            os.utime(self.entry_path(key), ns=(now, now))

    def _publish(self, key: str, staging: Path) -> int | None:
        """Rename a finished ``staging`` entry into place and stamp it.

        Returns its size, or ``None`` when another writer published the
        same content first (this writer's copy is discarded).
        """
        final = self.entry_path(key)
        final.parent.mkdir(parents=True, exist_ok=True)
        size = _size(staging)
        try:
            os.rename(staging, final)
        except OSError:
            _delete(staging)
            size = None
        self._stamp(key)
        return size

    def _quarantine(self, key: str) -> Path | None:
        """Move a bad entry aside so the next access recomputes it.

        Returns where it went, or ``None`` when it could not be moved (it
        is deleted instead).
        """
        path = self.entry_path(key)
        destination = self.quarantine_dir / f"{key}.{uuid.uuid4().hex[:8]}{self.suffix}"
        destination.parent.mkdir(parents=True, exist_ok=True)
        try:
            os.rename(path, destination)
        except OSError:
            _delete(path)
            return None
        return destination

    def _remove(self, path: Path) -> None:
        """Unpublish ``path`` with one rename into ``tmp/``, then delete it.

        A crash mid-delete leaves staging debris for the next :meth:`gc`,
        never a partial entry where readers look.
        """
        doomed = self._staging(path.name)
        try:
            os.rename(path, doomed)
        except FileNotFoundError:
            return
        _delete(doomed)
