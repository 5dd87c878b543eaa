"""The resilience layer: retries, error budgets, and coverage accounting.

Three pieces cooperate to make partial failure a first-class, *measured*
outcome instead of a crash:

* :class:`RetryPolicy` (:mod:`repro.resilience.retry`) — bounded,
  immediate attempts with classified retryable-vs-fatal errors; applied
  to shard execution and store loads.
* :class:`ResilienceConfig` / :class:`ErrorBudget` — how much loss a
  sharded stage may absorb (quarantined shards become
  :class:`ShardLoss` sentinels) before the run aborts with
  :class:`~repro.resilience.retry.ShardQuarantinedError`.
* :class:`CoverageReport` (:mod:`repro.resilience.coverage`) — the
  per-site ``(lost, total)`` ledger every study carries, surfaced in the
  report's coverage section and the archive manifest.

``resilience.*`` metrics (retries, requeues, fallbacks, timeouts,
quarantines, budget consumption) land on the run's telemetry bundle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util import require_fraction
from repro.resilience.coverage import SHARD_SITES, CoverageReport
from repro.resilience.retry import (
    RETRYABLE_ERRORS,
    RetryPolicy,
    ShardQuarantinedError,
    ShardTimeoutError,
    call_with_retry,
    is_retryable,
)


@dataclass(frozen=True)
class ShardLoss:
    """Sentinel standing in for a quarantined shard's missing result."""

    index: int
    #: ``"ErrorType: message"`` of the final failure (picklable by design).
    error: str
    #: Total execution attempts spent, in-process fallback included.
    attempts: int


@dataclass(frozen=True)
class ErrorBudget:
    """How much loss a sharded stage tolerates before aborting the run."""

    #: Max fraction of a stage's shards that may be quarantined.
    shard_loss_fraction: float = 0.0

    def __post_init__(self) -> None:
        require_fraction(self.shard_loss_fraction, "shard_loss_fraction")

    def allows(self, lost: int, total: int) -> bool:
        """Whether losing ``lost`` of ``total`` shards stays within budget."""
        if lost == 0:
            return True
        if total == 0:
            return False
        return lost / total <= self.shard_loss_fraction


@dataclass(frozen=True)
class ResilienceConfig:
    """Execution-only knobs for surviving faults (never change artifacts)."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Run a poisoned shard in the parent process after pool attempts are
    #: exhausted, before quarantining it.
    fallback_in_process: bool = True
    budget: ErrorBudget = field(default_factory=ErrorBudget)


__all__ = [
    "RETRYABLE_ERRORS",
    "SHARD_SITES",
    "CoverageReport",
    "ErrorBudget",
    "ResilienceConfig",
    "RetryPolicy",
    "ShardLoss",
    "ShardQuarantinedError",
    "ShardTimeoutError",
    "call_with_retry",
    "is_retryable",
]
