"""Submission sizes: what a shard task or shard costs to pickle.

A pool submission pickles the task and the shard, which carries its own
slice of the stage's inputs (see :func:`~repro.parallel.run_sharded`'s
``payload``), so the pickled size is the whole transport cost.  The
module keeps its name because benchmark probes import
:func:`measure_payload` from this path.
"""

from __future__ import annotations

import pickle
from typing import Any


def measure_payload(obj: Any) -> tuple[int, bool]:
    """``(pickled_bytes, False)`` for a task or shard payload.

    The second value is always False; it stays so that callers unpacking
    two values keep working.  Costs one pickle pass, so callers only
    measure when telemetry is being captured.
    """
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)), False
