"""Shared utilities: deterministic RNG management, validation, formatting.

Everything in :mod:`repro` is deterministic given a seed.  The convention is
that any object that needs randomness accepts either a ``seed`` integer or a
:class:`numpy.random.Generator` and passes child generators to sub-components
via :func:`spawn_rng`, so that adding a new consumer of randomness in one
module does not perturb the stream seen by another.
"""

from __future__ import annotations

import math
import os
import uuid
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import TypeVar

import numpy as np

T = TypeVar("T")

#: Speed of light in fibre, metres per second (~2/3 of c in vacuum).
FIBRE_LIGHT_SPEED_M_S = 2.0e8

#: Earth mean radius in metres, for great-circle distances.
EARTH_RADIUS_M = 6_371_000.0


def make_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts an existing generator (returned unchanged), an integer seed, or
    ``None`` (non-deterministic; discouraged outside interactive use).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_seed(rng: np.random.Generator, label: str) -> tuple[int, ...]:
    """Seed material for an independent child stream of ``rng``, keyed by ``label``.

    One draw from ``rng`` followed by the label's characters as entropy;
    ``np.random.default_rng`` over the tuple is the child generator.
    """
    return (int(rng.integers(0, 2**63 - 1)), *(ord(ch) for ch in label))


def spawn_rng(rng: np.random.Generator, label: str) -> np.random.Generator:
    """Derive an independent child generator from ``rng``, keyed by ``label``.

    Using a label (rather than drawing from the parent stream) keeps sibling
    components' randomness independent of the order in which they are built.
    """
    return np.random.default_rng(spawn_seed(rng, label))


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically (unique temp file + rename).

    The same publish-by-rename idiom :mod:`repro.store` uses for artifact
    archives: readers (a concurrent ``repro tail``, a crashed run's
    post-mortem) only ever see the old file or the complete new one, never
    a torn half-write.  The temp name carries pid + random suffix so
    concurrent writers to the same path cannot collide; ``os.replace``
    keeps last-writer-wins semantics on POSIX and Windows alike.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    staging = path.parent / f".{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
    try:
        staging.write_text(text, encoding="utf-8")
        os.replace(staging, path)
    except BaseException:
        staging.unlink(missing_ok=True)
        raise
    return path


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def require_fraction(value: float, name: str) -> float:
    """Validate that ``value`` lies in [0, 1] and return it."""
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return float(value)


def require_positive(value: float, name: str) -> float:
    """Validate that ``value`` is strictly positive and return it."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return float(value)


def require_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is >= 0 and return it."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return float(value)


def zipf_weights(n: int, exponent: float = 1.0) -> np.ndarray:
    """Return ``n`` normalised Zipf weights ``1/rank**exponent``.

    Used for market shares (ISP user counts, content popularity) which are
    heavy-tailed in the real Internet.
    """
    require(n > 0, "zipf_weights needs n > 0")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks**-exponent
    return weights / weights.sum()


def weighted_choice_without_replacement(
    rng: np.random.Generator, items: Sequence[T], weights: Iterable[float], k: int
) -> list[T]:
    """Sample ``k`` distinct items with probability proportional to ``weights``."""
    weights = np.asarray(list(weights), dtype=float)
    require(len(items) == len(weights), "items and weights must align")
    require(0 <= k <= len(items), "k out of range")
    if k == 0:
        return []
    probabilities = weights / weights.sum()
    indices = rng.choice(len(items), size=k, replace=False, p=probabilities)
    return [items[i] for i in indices]


def great_circle_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in metres between two (lat, lon) points (haversine)."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlambda = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlambda / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def propagation_rtt_ms(distance_m: float, path_inflation: float = 1.0) -> float:
    """Minimum round-trip time in milliseconds over ``distance_m`` of fibre.

    ``path_inflation`` >= 1 models the fact that fibre paths are longer than
    great circles (typical Internet inflation is 1.5-2.5x).
    """
    require(path_inflation >= 1.0, "path_inflation must be >= 1")
    one_way_s = distance_m * path_inflation / FIBRE_LIGHT_SPEED_M_S
    return 2.0 * one_way_s * 1000.0


def ccdf(values: Sequence[float], weights: Sequence[float] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(sorted_values, ccdf)`` where ``ccdf[i] = P(X >= sorted_values[i])``.

    ``weights`` lets values represent populations (e.g. users per ISP).
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return np.array([]), np.array([])
    if weights is None:
        weights = np.ones_like(values)
    else:
        weights = np.asarray(weights, dtype=float)
        require(weights.shape == values.shape, "weights must match values")
        require(bool((weights >= 0).all()), "weights must be non-negative")
    order = np.argsort(values)
    sorted_values = values[order]
    sorted_weights = weights[order]
    total = sorted_weights.sum()
    require(total > 0, "total weight must be positive")
    # P(X >= v_i): weight of items at index >= i (inclusive of ties handled by sort order).
    tail = np.cumsum(sorted_weights[::-1])[::-1]
    return sorted_values, tail / total


def format_percent(fraction: float, digits: int = 1) -> str:
    """Format ``fraction`` in [0, 1] as a percent string like ``'42.5%'``."""
    return f"{100.0 * fraction:.{digits}f}%"


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned plain-text table (used by benchmark harnesses)."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        require(len(row) == len(headers), "row width must match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
