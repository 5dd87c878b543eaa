"""The trimmed normalised Manhattan distance between latency vectors.

Appendix A: "for each pair of IP addresses, we calculate the distance as the
(normalized) Manhattan distance after excluding measurements from the 20% of
M-Lab sites that have the largest latency discrepancy between the two
addresses".  Trimming makes the distance robust to vantage points that took
a detour to one address but not the other; normalisation (mean rather than
sum) makes distances comparable across pairs with different numbers of
usable vantage points.

The matrix builder exploits symmetry (``|a - b|`` is bitwise symmetric, so
computing the upper triangle and mirroring is exact, halving the work) and
takes a bookkeeping-free fast path when the columns contain no NaN.  Both
shortcuts preserve bit-identical output versus the per-pair reference —
every kept float travels through the same op sequence (abs, sort, cumsum,
divide) regardless of which pairs share a chunk.
"""

from __future__ import annotations

import numpy as np

from repro._util import require, require_fraction


def trimmed_manhattan(a: np.ndarray, b: np.ndarray, trim_fraction: float = 0.2) -> float:
    """Distance between two latency vectors (NaN entries are skipped).

    Returns NaN when fewer than two vantage points measured both addresses.
    """
    require_fraction(trim_fraction, "trim_fraction")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    require(a.shape == b.shape, "latency vectors must align")
    differences = np.abs(a - b)
    differences = differences[~np.isnan(differences)]
    if differences.size < 2:
        return float("nan")
    n_trim = int(np.floor(trim_fraction * differences.size))
    if n_trim:
        differences = np.sort(differences)[: differences.size - n_trim]
    return float(differences.mean())


def pairwise_trimmed_manhattan_reference(
    columns: np.ndarray, trim_fraction: float = 0.2
) -> np.ndarray:
    """Per-pair loop over :func:`trimmed_manhattan` — the reference matrix.

    Kept for property tests and benchmarks; quadratic in Python and
    therefore orders of magnitude slower than
    :func:`pairwise_trimmed_manhattan` at paper scale.

    Note the per-pair mean sums only the *kept* prefix while the vectorised
    path divides a cumulative sum — mathematically equal but not bitwise, so
    equivalence tests compare with a tight tolerance rather than ``==``.
    """
    require_fraction(trim_fraction, "trim_fraction")
    columns = np.asarray(columns, dtype=float)
    require(columns.ndim == 2, "columns must be (n_vps, n_ips)")
    n_ips = columns.shape[1]
    matrix = np.zeros((n_ips, n_ips))
    for i in range(n_ips):
        for j in range(i + 1, n_ips):
            matrix[i, j] = matrix[j, i] = trimmed_manhattan(
                columns[:, i], columns[:, j], trim_fraction
            )
    return matrix


#: Floats per pair chunk of :func:`pairwise_trimmed_manhattan` (pairs x
#: vantage points): each temporary stays near 0.5 MB at any ISP size.
PAIR_CHUNK_FLOATS = 1 << 16


def pairwise_trimmed_manhattan(columns: np.ndarray, trim_fraction: float = 0.2) -> np.ndarray:
    """All-pairs distance matrix for ``columns`` of shape ``(n_vps, n_ips)``.

    Fully vectorised: for each pair, discrepancies at vantage points lacking
    either measurement are dropped before trimming.  The diagonal is 0;
    entries for pairs with fewer than two common vantage points are NaN.
    Equivalent to calling :func:`trimmed_manhattan` per pair (see
    :func:`pairwise_trimmed_manhattan_reference`, kept for clarity and
    property-testing), but ~100x faster at paper scale: only the strict
    upper triangle is computed (the lower is a bitwise-exact mirror, because
    every per-pair operation is symmetric in the pair), in chunks of about
    :data:`PAIR_CHUNK_FLOATS` floats, and each pair's running sum stops at
    its last kept entry.  NaN-free inputs skip the valid-count bookkeeping
    entirely.
    """
    require_fraction(trim_fraction, "trim_fraction")
    columns = np.asarray(columns, dtype=float)
    require(columns.ndim == 2, "columns must be (n_vps, n_ips)")
    n_vps, n_ips = columns.shape
    matrix = np.zeros((n_ips, n_ips))
    if n_vps < 2:
        # No pair can share two vantage points.
        matrix.fill(np.nan)
        np.fill_diagonal(matrix, 0.0)
        return matrix
    # Pairs (i, j), i < j, in row-major order, one chunk at a time; the
    # vantage axis is last so each pair's sort runs over contiguous memory.
    transposed = np.ascontiguousarray(columns.T)
    has_nan = bool(np.isnan(transposed).any())
    # With no NaN every pair keeps the same number of entries, so the
    # per-pair valid counts collapse to one scalar (same float product and
    # floor as the array expression below — bit-identical kept index).
    kept_all = n_vps - int(np.floor(trim_fraction * n_vps))
    # Pair index at which row i's pairs (i, i+1..n-1) begin.
    row_start = np.concatenate(([0], np.cumsum(np.arange(n_ips - 1, 0, -1))))
    n_pairs = int(row_start[-1])
    chunk = max(1, PAIR_CHUNK_FLOATS // n_vps)
    for first in range(0, n_pairs, chunk):
        pair = np.arange(first, min(first + chunk, n_pairs))
        left = np.searchsorted(row_start, pair, side="right") - 1
        right = pair - row_start[left] + left + 1
        # NaN where either side is missing; sort puts NaNs last, aligning
        # per-pair valid prefixes.
        diffs = transposed[left] - transposed[right]
        np.abs(diffs, out=diffs)
        if has_nan:
            valid_counts = n_vps - np.count_nonzero(np.isnan(diffs), axis=1)
            diffs.sort(axis=1)
            # Number of entries kept after trimming, per pair.
            kept = valid_counts - np.floor(trim_fraction * valid_counts).astype(int)
            # Entries before a pair's kept index are never NaN: they sort
            # first, and kept <= valid_counts.
            prefix = np.cumsum(diffs[:, : max(1, int(kept.max()))], axis=1)
            kept_index = np.clip(kept - 1, 0, None)
            sums = np.take_along_axis(prefix, kept_index[:, None], axis=1)[:, 0]
            with np.errstate(invalid="ignore", divide="ignore"):
                values = sums / kept
            values[valid_counts < 2] = np.nan
        else:
            diffs.sort(axis=1)
            prefix = np.cumsum(diffs[:, : max(1, kept_all)], axis=1)
            with np.errstate(invalid="ignore", divide="ignore"):
                values = prefix[:, -1] / kept_all
        matrix[left, right] = values
        matrix[right, left] = values
    return matrix
