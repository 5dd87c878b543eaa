"""Isolation policies for shared links (§6's technical direction).

The discussion section proposes "isolation mechanisms deployed in
colocation facilities, ISPs, IXPs, and transit, to protect capacity for
each hypergiant and for other Internet traffic".  This module implements
three allocation policies for a congested shared link and lets the cascade
experiments compare them:

* ``FAIR_SHARE`` — the status quo: every flow (including background
  traffic) is throttled proportionally; hypergiant failover steals from
  everyone (the §4.3 collateral-damage mechanism).
* ``PROTECT_BACKGROUND`` — background traffic is served first; hypergiant
  spillover shares only the leftover.  No collateral damage, at the price
  of more unserved hypergiant overflow.
* ``RESERVED_SLICES`` — background traffic is protected *and* the
  remaining capacity is split equally among the hypergiants that want it
  (each capped at its slice, slack redistributed), so one hypergiant's
  failover cannot starve another's.
"""

from __future__ import annotations

import enum

from repro._util import require, require_non_negative


class IsolationPolicy(enum.Enum):
    """How a shared link divides capacity under overload."""

    FAIR_SHARE = "fair_share"
    PROTECT_BACKGROUND = "protect_background"
    RESERVED_SLICES = "reserved_slices"


def allocate(
    policy: IsolationPolicy,
    wanted: dict[str, float],
    background: float,
    capacity: float,
) -> tuple[dict[str, float], float, float]:
    """Allocate a shared link under ``policy``.

    Returns ``(granted per flow, throttled background volume, utilization
    = offered / capacity)``; :class:`~repro.capacity.spillover.SpilloverModel`
    runs both shared links through it under its ``policy``.
    """
    require_non_negative(background, "background")
    for name, volume in wanted.items():
        require(volume >= 0, f"negative demand for {name}")
    offered = background + sum(wanted.values())
    utilization = offered / capacity if capacity > 0 else (float("inf") if offered else 0.0)
    if capacity <= 0:
        return ({name: 0.0 for name in wanted}, background, utilization)
    if offered <= capacity:
        return (dict(wanted), 0.0, utilization)

    if policy is IsolationPolicy.FAIR_SHARE:
        factor = capacity / offered
        granted = {name: volume * factor for name, volume in wanted.items()}
        return (granted, background * (1.0 - factor), utilization)

    if policy is IsolationPolicy.PROTECT_BACKGROUND:
        leftover = max(0.0, capacity - background)
        total_wanted = sum(wanted.values())
        if background > capacity:
            # Even background alone exceeds the link: background throttles,
            # spillover gets nothing.
            return ({name: 0.0 for name in wanted}, background - capacity, utilization)
        factor = min(1.0, leftover / total_wanted) if total_wanted else 1.0
        granted = {name: volume * factor for name, volume in wanted.items()}
        return (granted, 0.0, utilization)

    if policy is IsolationPolicy.RESERVED_SLICES:
        # Background first (like PROTECT_BACKGROUND), then an equal split
        # of the leftover among hypergiants, water-filling the slack.
        background_served = min(background, capacity)
        leftover = capacity - background_served
        hungry = {name: volume for name, volume in wanted.items() if volume > 0}
        granted = {name: 0.0 for name in wanted}
        while hungry and leftover > 1e-12:
            share = leftover / len(hungry)
            satisfied = [name for name, deficit in hungry.items() if deficit <= share]
            if not satisfied:
                for name in hungry:
                    granted[name] += share
                leftover = 0.0
                break
            for name in satisfied:
                granted[name] += hungry[name]
                leftover -= hungry.pop(name)
        return (granted, background - background_served, utilization)

    raise ValueError(f"unknown policy {policy!r}")
