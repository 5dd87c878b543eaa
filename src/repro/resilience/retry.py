"""Bounded, classified retries.

The policy separates *retryable* errors — transient injected faults, dead
or hung workers, broken pools, timeouts, dropped connections — from
*fatal* ones (bad configs, fatal injected faults, genuine bugs), and
bounds how many attempts a call gets.  A retry runs at once: what it
waits for is a fresh worker or a fault plan's next attempt, never the
clock.
"""

from __future__ import annotations

from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable

from repro._util import require
from repro.faults import FatalFaultError, TransientFaultError, WorkerCrashError


class ShardTimeoutError(TimeoutError):
    """A shard exceeded its per-shard execution timeout."""


class ShardQuarantinedError(RuntimeError):
    """A stage lost more shards than its error budget allows."""


#: Errors a retry is expected to clear.  Fatal injected faults are
#: deliberately absent: they model permanent damage.
RETRYABLE_ERRORS: tuple[type[BaseException], ...] = (
    TransientFaultError,
    WorkerCrashError,
    ShardTimeoutError,
    BrokenProcessPool,
    FuturesTimeoutError,
    TimeoutError,
    ConnectionError,
)


def is_retryable(error: BaseException) -> bool:
    """Whether ``error`` belongs to a class retrying can plausibly clear."""
    if isinstance(error, FatalFaultError):
        return False
    return isinstance(error, RETRYABLE_ERRORS)


@dataclass(frozen=True)
class RetryPolicy:
    """A bound on attempts; each retry runs at once."""

    #: Total attempts (first try included); 1 disables retrying.
    max_attempts: int = 3

    def __post_init__(self) -> None:
        require(self.max_attempts >= 1, "max_attempts must be >= 1")

    def retries_left(self, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (0-based) has a successor."""
        return attempt + 1 < self.max_attempts


def call_with_retry(
    fn: Callable[[int], Any],
    policy: RetryPolicy,
    *,
    on_retry: Callable[[int, BaseException], None] | None = None,
) -> Any:
    """Call ``fn(attempt)`` until it succeeds or the policy is exhausted.

    ``fn`` receives the 0-based attempt number (injection points use it
    to distinguish transient from permanent faults).  Errors
    :func:`is_retryable` rejects propagate immediately; the last
    retryable error propagates when attempts run out.
    ``on_retry(attempt, error)`` fires before each re-attempt — the hook
    metrics/logging use.
    """
    attempt = 0
    while True:
        try:
            return fn(attempt)
        except BaseException as error:  # noqa: BLE001 — classification decides
            if not is_retryable(error) or not policy.retries_left(attempt):
                raise
            if on_retry is not None:
                on_retry(attempt, error)
            attempt += 1
