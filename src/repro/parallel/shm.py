"""Zero-copy shard payloads: numpy arrays over POSIX shared memory.

Parallel fan-outs used to re-pickle every heavy array (the VP×IP
latency matrix, the campaign's base-RTT matrix) into every shard
submission — BENCH_parallel.json measured the result: 0.38× *slower*
than serial at 4 workers, queue-wait fraction 0.42.  This module makes
those payloads reference-shaped instead of value-shaped:

* :class:`SharedArray` wraps a read-only numpy array.  When it is backed
  by a :mod:`multiprocessing.shared_memory` segment it pickles as
  ``(name, shape, dtype)`` — ~100 bytes no matter how large the matrix —
  and unpickling in a worker attaches a read-only view onto the same
  physical pages (cached per process, so repeated shards pay one
  ``shm_open`` + ``mmap`` total).  When shared memory is unavailable
  (restricted sandboxes) it degrades to carrying the array by value:
  exactly the old pickle path, bit-identical results either way.

* :class:`ShmRegistry` owns every segment a stage exports and
  **guarantees unlink**: it is a context manager, closing is idempotent,
  and every live registry is swept at interpreter exit.  Parent-side
  views keep working after ``unlink`` (POSIX keeps the pages while any
  mapping is open), so the registry can be scoped tightly to a fan-out.

* :func:`sweep_orphan_segments` removes name-prefixed segments whose
  creating process is dead — the backstop for SIGKILLed parents and
  crashed workers, run by the pool executor on every fan-out and
  regression-tested in ``tests/test_parallel.py``.

Segment names are ``repro_shm_<pid>_<counter>`` so ownership is readable
straight out of ``/dev/shm`` and the orphan sweep can decide liveness
without attaching.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import threading
import weakref
from multiprocessing import shared_memory
from typing import Any

import numpy as np

#: Every segment this module creates starts with this prefix.
SHM_PREFIX = "repro_shm"

#: Monotonic per-process counter making segment names unique.
_COUNTER = itertools.count()

#: Worker-side attachment cache: segment name -> (SharedMemory, ndarray).
_ATTACHMENTS: dict[str, tuple[shared_memory.SharedMemory, np.ndarray]] = {}

#: Keep at most this many cached attachments per worker process.
_ATTACHMENT_CACHE_SIZE = 8

#: Thread-local marker set by :meth:`SharedArray.__reduce__` so
#: :func:`measure_payload` can tell whether a pickle went through shm.
_PICKLE_MARKS = threading.local()

_AVAILABLE: bool | None = None


def shared_memory_available() -> bool:
    """Whether this host can create shared-memory segments (probed once).

    Restricted sandboxes may lack ``/dev/shm`` or forbid ``shm_open``;
    callers fall back to by-value payloads there.
    """
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            probe = shared_memory.SharedMemory(
                create=True, size=8, name=f"{SHM_PREFIX}_{os.getpid()}_probe{next(_COUNTER)}"
            )
            probe.close()
            probe.unlink()
            _AVAILABLE = True
        except Exception:
            _AVAILABLE = False
    return _AVAILABLE


def _attach(name: str, shape: tuple[int, ...], dtype: str) -> np.ndarray:
    """Attach a read-only view onto segment ``name`` (cached per process)."""
    cached = _ATTACHMENTS.get(name)
    if cached is None:
        segment = shared_memory.SharedMemory(name=name)
        # No resource-tracker gymnastics here: every attacher is a child
        # of the creating process, so the whole tree shares one tracker
        # whose cache is a set — the attach-side register is a no-op and
        # the creator's ``unlink`` retires the entry exactly once.
        # (Worker-side ``unregister`` would poison that shared cache and
        # make the creator's unlink warn.)
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf)
        view.flags.writeable = False
        while len(_ATTACHMENTS) >= _ATTACHMENT_CACHE_SIZE:
            old_name, (old_segment, _old_view) = next(iter(_ATTACHMENTS.items()))
            del _ATTACHMENTS[old_name]
            try:
                old_segment.close()
            except Exception:
                pass
        _ATTACHMENTS[name] = cached = (segment, view)
    _segment, view = cached
    if view.shape != tuple(shape) or view.dtype != np.dtype(dtype):
        raise ValueError(
            f"shared segment {name!r} holds {view.dtype}{view.shape}, "
            f"caller expected {dtype}{tuple(shape)}"
        )
    return view


def _rebuild_shared(name: str, shape: tuple[int, ...], dtype: str) -> "SharedArray":
    array = _attach(name, shape, dtype)
    return SharedArray(array, name=name)


def _rebuild_inline(array: np.ndarray) -> "SharedArray":
    return SharedArray(array)


class SharedArray:
    """A read-only numpy array that pickles by reference when shm-backed.

    Parent side these are built by :meth:`ShmRegistry.share`; worker side
    they materialise by unpickling.  ``.array`` is always a plain ndarray
    with the exact bytes of the original, so consumers never branch on
    the transport.
    """

    __slots__ = ("_array", "name")

    def __init__(self, array: np.ndarray, name: str | None = None) -> None:
        self._array = array
        #: Segment name when shm-backed, None for by-value payloads.
        self.name = name

    @property
    def array(self) -> np.ndarray:
        """The wrapped array (zero-copy view in shm-backed workers)."""
        return self._array

    @property
    def shm_backed(self) -> bool:
        """Whether pickling this array costs a name instead of the bytes."""
        return self.name is not None

    def __reduce__(self):
        marks = getattr(_PICKLE_MARKS, "stack", None)
        if marks:
            marks[-1] = marks[-1] or self.shm_backed
        if self.name is not None:
            return (_rebuild_shared, (self.name, self._array.shape, self._array.dtype.str))
        return (_rebuild_inline, (self._array,))


#: Live registries, swept at interpreter exit as the unlink guarantee of
#: last resort (normal paths close via context manager / explicit close).
_LIVE_REGISTRIES: "weakref.WeakSet[ShmRegistry]" = weakref.WeakSet()


class ShmRegistry:
    """Owns shared segments for one fan-out; context-managed unlink.

    ``enabled=False`` (serial backend, or hosts without shared memory)
    makes :meth:`share` wrap arrays by value — same API, no segments, so
    call sites never branch.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled and shared_memory_available()
        self._segments: list[shared_memory.SharedMemory] = []
        self._closed = False
        if self.enabled:
            _LIVE_REGISTRIES.add(self)

    def share(self, array: np.ndarray | None) -> SharedArray | None:
        """Export ``array`` (C-contiguous copy) into a shared segment.

        ``None`` passes through (optional payload fields); when disabled
        the array rides by value.
        """
        if array is None:
            return None
        arr = np.ascontiguousarray(array)
        if not self.enabled:
            return SharedArray(arr)
        name = f"{SHM_PREFIX}_{os.getpid()}_{next(_COUNTER)}"
        segment = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes), name=name)
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=segment.buf)
        view[...] = arr
        view.flags.writeable = False
        self._segments.append(segment)
        return SharedArray(view, name=name)

    def close(self) -> None:
        """Close and unlink every owned segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for segment in self._segments:
            try:
                segment.close()
            except Exception:
                pass
            try:
                segment.unlink()
            except Exception:
                pass
        self._segments.clear()
        _LIVE_REGISTRIES.discard(self)

    def __enter__(self) -> "ShmRegistry":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - backstop only
        self.close()


@atexit.register
def _sweep_live_registries() -> None:  # pragma: no cover - exit path
    for registry in list(_LIVE_REGISTRIES):
        registry.close()


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return True
    return True


def sweep_orphan_segments() -> int:
    """Unlink ``repro_shm_*`` segments whose creating process is dead.

    The guaranteed-unlink lifecycle covers every orderly exit; this sweep
    covers the rest — a SIGKILLed parent, an OOM-killed worker holding a
    registry.  Runs at the start of every pool fan-out; returns how many
    segments were removed.  Linux-only by construction (``/dev/shm``);
    other platforms return 0 and rely on their own named-segment reaping.
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):
        return 0
    removed = 0
    for entry in os.listdir(shm_dir):
        if not entry.startswith(SHM_PREFIX + "_"):
            continue
        parts = entry[len(SHM_PREFIX) + 1 :].split("_", 1)
        try:
            pid = int(parts[0])
        except (ValueError, IndexError):
            continue
        if pid == os.getpid() or _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(shm_dir, entry))
            removed += 1
        except OSError:
            continue
    return removed


def measure_payload(obj: Any) -> tuple[int, bool]:
    """``(pickled_bytes, used_shm)`` for a task or shard payload.

    Used by the flight recorder to make serialization cost visible:
    ``used_shm`` is True when any :class:`SharedArray` in ``obj`` pickled
    by reference.  Costs one pickle pass, so callers only measure when
    telemetry is being captured.
    """
    stack = getattr(_PICKLE_MARKS, "stack", None)
    if stack is None:
        stack = _PICKLE_MARKS.stack = []
    stack.append(False)
    try:
        data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        used_shm = stack.pop()
    return len(data), used_shm
