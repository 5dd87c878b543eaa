"""The 8-ping probe process with second-smallest aggregation.

Appendix A: "For each latency value, we took the second smallest latency of
8 pings".  The second-smallest is a robust low quantile: it rejects the one
lucky-looking corrupted sample a plain minimum would keep, while still
shedding queueing noise.  We simulate each ping as base RTT + exponential
queueing delay + small Gaussian timestamping noise, with independent loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


class Probes(NamedTuple):
    """Unit-scale probe draws for ``n`` targets, each ``(n, pings_per_target)``.

    ``queueing`` holds standard-exponential draws, ``noise`` standard-normal
    draws and ``loss`` uniform coins on [0, 1).  :func:`ping_rtts` scales
    and combines them in place.
    """

    queueing: np.ndarray
    noise: np.ndarray
    loss: np.ndarray


def draw_probes(
    rng: np.random.Generator, queueing: np.ndarray, noise: np.ndarray, loss: np.ndarray
) -> None:
    """Fill three same-shape buffers with unit-scale probe draws.

    The stream order is the artifacts': every queueing delay, then every
    noise term, then every loss coin.  ``exponential(s)`` is
    ``s * standard_exponential()`` and ``normal(0, s)`` is
    ``s * standard_normal()`` draw for draw, so scaling afterwards changes
    no bit of a measurement (the scaled normal's sign of zero aside, which
    the sum that takes it erases).
    """
    rng.standard_exponential(out=queueing)
    rng.standard_normal(out=noise)
    rng.random(out=loss)


def ping_rtts(
    base_rtts_ms: np.ndarray,
    config: PingConfig,
    rng: np.random.Generator | Probes,
    drop_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Measure each target once: second-smallest of ``pings_per_target`` pings.

    ``base_rtts_ms`` has shape ``(n,)``; entries that are NaN (unreachable
    targets) stay NaN.  Returns shape ``(n,)`` with NaN where fewer than
    ``min_responses`` probes answered.

    ``rng`` is the stream the probes are drawn from (:func:`draw_probes`),
    or :class:`Probes` already drawn, which are consumed in place: a
    campaign shard draws each vantage point's probes between that row's
    coins, then measures the whole shard in one call.

    ``drop_mask`` (optional, bool shape ``(n,)``) marks targets whose
    measurements are lost to injected faults (the ``mlab.ping`` site).  It
    is applied *after* every RNG draw, so a dropped target consumes exactly
    the randomness an undropped one would — injection never shifts the
    probe streams of its neighbours.
    """
    base = np.asarray(base_rtts_ms, dtype=float)
    shape = (base.shape[0], config.pings_per_target)
    if isinstance(rng, Probes):
        probes = rng
        require(probes.queueing.shape == shape, f"probes must have shape {shape}")
    else:
        probes = Probes(np.empty(shape), np.empty(shape), np.empty(shape))
        draw_probes(rng, *probes)
    floor = base[:, None]
    samples = probes.queueing
    samples *= config.queueing_mean_ms
    samples += floor
    noise = probes.noise
    noise *= config.noise_std_ms
    samples += noise
    # Never below the physical floor: clamp the noise term at >= 0 total.
    np.maximum(samples, floor, out=samples)
    # One contiguous row per probe, so each step below runs over every
    # target at once.
    samples = samples.T.copy()
    lost = np.ascontiguousarray((probes.loss < config.loss_probability).T)
    if config.aggregation == "median":
        samples[lost] = np.nan
        with np.errstate(all="ignore"):
            measured = np.nanmedian(samples, axis=0)
    else:
        samples[lost] = np.inf  # a lost probe never ranks among the smallest
        smallest, second_smallest = _two_smallest(samples)
        measured = smallest if config.aggregation == "min" else second_smallest
    # Too few answers leave no value; a NaN base leaves NaN whatever answers.
    measured[config.pings_per_target - lost.sum(axis=0) < config.min_responses] = np.nan
    if drop_mask is not None:
        measured[drop_mask] = np.nan
    return measured


def _two_smallest(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The smallest and second-smallest entry of each column of ``rows``.

    The same floats as ranks 0 and 1 of a sort along the columns; a NaN
    in a column makes both NaN.
    """
    smallest = rows[0].copy()
    second = np.full_like(smallest, np.inf)
    larger = np.empty_like(smallest)
    for row in rows[1:]:
        np.maximum(smallest, row, out=larger)
        np.minimum(second, larger, out=second)
        np.minimum(smallest, row, out=smallest)
    return smallest, second
