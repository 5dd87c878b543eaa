"""The 8-ping probe process with second-smallest aggregation.

Appendix A: "For each latency value, we took the second smallest latency of
8 pings".  The second-smallest is a robust low quantile: it rejects the one
lucky-looking corrupted sample a plain minimum would keep, while still
shedding queueing noise.  We simulate each ping as base RTT + exponential
queueing delay + small Gaussian timestamping noise, with independent loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import require, require_fraction, require_non_negative


@dataclass(frozen=True)
class PingConfig:
    """Probe-process parameters."""

    pings_per_target: int = 8
    #: Mean of the exponential queueing component, ms.
    queueing_mean_ms: float = 0.4
    #: Std-dev of the Gaussian timestamping noise, ms.
    noise_std_ms: float = 0.05
    #: Independent per-probe loss probability.
    loss_probability: float = 0.02
    #: Minimum responsive probes needed to report a value (second-smallest
    #: needs two).
    min_responses: int = 2
    #: Aggregation statistic over the probes: the paper's second-smallest,
    #: or "min" / "median" for the ablation of that choice.
    aggregation: str = "second_smallest"

    def __post_init__(self) -> None:
        require(self.pings_per_target >= 2, "need at least 2 pings for second-smallest")
        require_non_negative(self.queueing_mean_ms, "queueing_mean_ms")
        require_non_negative(self.noise_std_ms, "noise_std_ms")
        require_fraction(self.loss_probability, "loss_probability")
        require(2 <= self.min_responses <= self.pings_per_target, "bad min_responses")
        require(
            self.aggregation in ("second_smallest", "min", "median"),
            f"unknown aggregation {self.aggregation!r}",
        )


def ping_rtts(
    base_rtts_ms: np.ndarray,
    config: PingConfig,
    rng: np.random.Generator,
    drop_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Measure each target once: second-smallest of ``pings_per_target`` pings.

    ``base_rtts_ms`` has shape ``(n,)``; entries that are NaN (unreachable
    targets) stay NaN.  Returns shape ``(n,)`` with NaN where fewer than
    ``min_responses`` probes answered.

    ``drop_mask`` (optional, bool shape ``(n,)``) marks targets whose
    measurements are lost to injected faults (the ``mlab.ping`` site).  It
    is applied *after* every RNG draw, so a dropped target consumes exactly
    the randomness an undropped one would — injection never shifts the
    probe streams of its neighbours.

    The campaign calls this once per vantage-point row, so the samples
    are built in place, in the exponential draw's buffer.
    """
    base = np.asarray(base_rtts_ms, dtype=float)
    floor = base[:, None]
    shape = (base.shape[0], config.pings_per_target)
    samples = rng.exponential(config.queueing_mean_ms, size=shape)
    samples += floor
    samples += rng.normal(0.0, config.noise_std_ms, size=shape)
    # Never below the physical floor: clamp the noise term at >= 0 total.
    np.maximum(samples, floor, out=samples)
    samples[rng.random(shape) < config.loss_probability] = np.nan
    samples.sort(axis=1)  # NaNs sort last
    if config.aggregation == "median":
        with np.errstate(all="ignore"):
            measured = np.nanmedian(samples, axis=1)
    else:
        measured = samples[:, 0 if config.aggregation == "min" else 1].copy()
    # Fewer than min_responses answers (none for a NaN base) leave a NaN
    # at that rank.
    measured[np.isnan(samples[:, config.min_responses - 1])] = np.nan
    if drop_mask is not None:
        measured[drop_mask] = np.nan
    return measured
