"""The campaign write-ahead journal: crc'd, append-only, damage-tolerant.

Every lifecycle transition the :mod:`repro.serve` scheduler makes —
campaign submitted, started, finished, lost, drained; server started,
stopped — lands here as one JSONL record before (or immediately after)
the transition takes effect, so a SIGKILLed server can rebuild its state
on restart (:mod:`repro.serve.recovery`).

Durability discipline mirrors :mod:`repro.obs.stream`: each record is
serialised to one line and written with a **single** ``write`` call
followed by a flush, so a killed *process* leaves a file of complete
JSON lines plus at most one torn final line.  (There is no fsync — the
journal defends against process death, not power loss; and because the
journal is only an *optimization hint* over the content-addressed
stores, even OS-level damage can never corrupt results, only cause
conservative re-execution that the stores then serve from cache.)

Every record additionally carries a ``crc`` field — a blake2b digest of
its canonical JSON — so :func:`read_journal` detects not just torn tails
but bit-flipped entries anywhere in the file.  Unlike the event-stream
reader, a bad *mid-file* line is skipped and counted rather than fatal:
losing a journal entry conservatively re-queues work, which the dedup
protocol makes free, so refusing to start over one damaged line would be
strictly worse than degrading.

The ``serve.journal`` fault site (:mod:`repro.faults`) is wired into
:meth:`Journal.append`, indexed by sequence number — chaos tests inject
append errors, silent drops, and torn half-lines exactly where real
crashes would put them.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.faults import FaultPlan, raise_injected


def _canonical(record: dict[str, Any]) -> str:
    """Deterministic JSON text (sorted keys, compact separators)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def record_crc(record: dict[str, Any]) -> str:
    """The blake2b checksum of a record's canonical form, ``crc`` excluded."""
    material = _canonical({key: value for key, value in record.items() if key != "crc"})
    return hashlib.blake2b(material.encode(), digest_size=8).hexdigest()


@dataclass
class JournalView:
    """What :func:`read_journal` could salvage from a journal file."""

    #: Verified records (``crc`` stripped), in file order.
    entries: list[dict[str, Any]] = field(default_factory=list)
    #: Damaged non-final lines (bad JSON or crc mismatch), skipped.
    n_corrupt: int = 0
    #: Whether the file ends in an incomplete line (killed mid-write).
    torn_tail: bool = False


def read_journal(path: str | Path) -> JournalView:
    """Parse a journal file, tolerating any damage.

    A final line without a trailing newline that fails to parse or
    verify is the expected signature of a killed writer and sets
    :attr:`JournalView.torn_tail`; a damaged line anywhere else (bit
    flip, torn write followed by later appends) is skipped and counted
    in :attr:`JournalView.n_corrupt`.  A missing file reads as empty.
    """
    view = JournalView()
    path = Path(path)
    if not path.exists():
        return view
    lines = path.read_text(encoding="utf-8").split("\n")
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict) or record_crc(record) != record.get("crc"):
                raise ValueError("journal record failed its crc check")
        except (json.JSONDecodeError, ValueError):
            # Only a line not followed by a newline can be a torn tail;
            # ``split`` puts a trailing "" after a newline-terminated line.
            if i == len(lines) - 1:
                view.torn_tail = True
            else:
                view.n_corrupt += 1
            continue
        record.pop("crc", None)
        view.entries.append(record)
    return view


class Journal:
    """Append-only crc'd JSONL journal with monotonic sequence numbers.

    Thread-safe: HTTP handler threads journal submissions while the
    scheduler thread journals execution transitions.  Reopening an
    existing journal continues its sequence numbering from the last
    readable record.
    """

    def __init__(self, path: str | Path, faults: FaultPlan | None = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.faults = faults
        self._lock = threading.Lock()
        view = read_journal(self.path)
        self._seq = view.entries[-1]["seq"] + 1 if view.entries else 0
        self._file = self.path.open("a", encoding="utf-8")
        self._closed = False

    def append(self, event: str, **fields: Any) -> int:
        """Append one record (single write + flush); returns its seq number.

        The ``serve.journal`` fault site fires here, indexed by sequence
        number: ``error`` raises before anything lands on disk, ``drop``
        silently skips the write, and ``corrupt`` writes a torn
        half-line — exactly the damage an interrupted write would leave.
        Each is a failure mode recovery must absorb, because the journal
        is an optimization over the content-addressed stores, never the
        source of truth.
        """
        with self._lock:
            seq = self._seq
            self._seq += 1
            record: dict[str, Any] = {"seq": seq, "event": event}
            record.update(fields)
            record["crc"] = record_crc(record)
            line = json.dumps(record, sort_keys=True, default=str) + "\n"
            spec = (
                self.faults.decide("serve.journal", seq) if self.faults is not None else None
            )
            if spec is not None:
                if spec.kind == "error":
                    raise_injected(spec, "serve.journal", seq)
                if spec.kind == "drop":
                    return seq
                if spec.kind == "corrupt":
                    line = line[: max(1, len(line) // 2)]
            self._file.write(line)
            self._file.flush()
            return seq

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        with self._lock:
            if not self._closed:
                self._closed = True
                self._file.close()
