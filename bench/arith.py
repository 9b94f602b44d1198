"""Arithmetic of the benchmark: percentiles, span self time, nominal work.

Stdlib plus numpy only, and no import of ``kakeya``: the work counts here are
computed from call arguments, so they stay valid after a kernel stops testing
every cell or every subcube.
"""

from __future__ import annotations

import statistics

import numpy as np

#: a tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """Highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile)``: the ``(beyond + 1)``-th largest sample and
    the share of samples at or below it, in percent.  With ``beyond`` or fewer
    samples there is no such percentile and the maximum is returned as p100.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    count = len(xs)
    if count <= beyond:
        return xs[-1], 100.0
    rank = count - beyond  # 1-based rank of the reported sample
    return xs[rank - 1], 100.0 * rank / count


def self_times(parents, durations) -> np.ndarray:
    """Self time of each span: its duration minus its direct children's.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.  Spans
    of one thread nest and children run one after another, so the children's
    durations add up to the part of the parent's interval they cover.
    """
    parents = np.asarray(parents, dtype=np.int64)
    durations = np.asarray(durations, dtype=float)
    child = parents >= 0
    covered = np.bincount(
        parents[child], weights=durations[child], minlength=durations.size
    )
    return durations - covered


def rows(points) -> int:
    """Number of points (or boxes) in an (N, n) array or a single point."""
    shape = np.shape(points)
    return 1 if len(shape) < 2 else int(shape[0])


def eval_cells(m: int, n: int) -> tuple[int, int]:
    """(fine, coarse) cells of a fixed-grid ``evaluate_overlap`` call.

    The coarse half-resolution grid only exists for an even ``m``; it feeds
    the error estimate.
    """
    coarse = (m // 2) ** n if m % 2 == 0 and m >= 2 else 0
    return m**n, coarse


def lw_cells(m: int, n: int, degenerate: bool) -> int:
    """Cells of a ``verify_lw`` left side at m and at the max(1, m/2) check."""
    return m**n if degenerate else m**n + max(1, m // 2) ** n


def member_count(families) -> int:
    return sum(len(f.members) for f in families)


def search_accepts(trace) -> tuple[int, int]:
    """(accepted moves, perturbation steps) from an extremal-search trace.

    The first point of each restart is a fresh configuration, not a move.  A
    later point accepted its move exactly when the current ratio changed:
    greedy search accepts only strict improvements.
    """
    accepted = steps = 0
    prev = None
    for point in trace:
        if prev is not None and point.restart == prev.restart:
            steps += 1
            accepted += point.accepted_ratio != prev.accepted_ratio
        prev = point
    return accepted, steps

