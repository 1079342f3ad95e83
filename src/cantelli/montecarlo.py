"""Monte Carlo cross-validation of the exact engines.

Sampling is chunked: paths [j*CHUNK, (j+1)*CHUNK) come from an independent
substream seeded by (seed, j), so a parallel scheduler assigning chunks to
workers reproduces the serial result exactly and aggregation is commutative.
``estimate_frequencies`` answers many queries (windows and tail unions) in one
pass over the chunks, a batch of consecutive full chunks at a time: one
sampler call takes the batch's generators and returns blocks that serve every
query, and each query is tested once per batch.  The sampler holds one row of
indicators per distinct index the queries cover, so a batch holds as many
chunks as keep those rows within ``_BATCH_DRAWS``; the partial last chunk is a
call of its own.  Each generator's rows of a block equal its chunk drawn
alone, and the sampler keys each chunk's uniforms by index, so a query's block
depends only on its own indices and every estimate equals its one-query call,
``estimate_window_prob`` or ``estimate_tail_union``, bit for bit, whatever the
batches.  A query's block has one column per index of its field, in index
order: a window holds on the paths whose column i equals bit i of its value, a
union on the paths with any column set.  Interval estimates are 95% Wilson
score intervals, which behave correctly near 0 and 1 where window
probabilities live.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .families import ModelValueError
from .models import EventSequenceModel, block_rows
from .windows import WindowPattern

__all__ = [
    "CHUNK",
    "FrequencyEstimate",
    "wilson_interval",
    "estimate_frequencies",
    "estimate_window_prob",
    "estimate_tail_union",
]

CHUNK = 4096
# The draw budget of one sampler call: the sampled indicators it may fill, a
# row per distinct index times its paths, counting at least _PATH_DRAWS per
# path for the uniforms and walk state that every path carries however few
# indicators it holds.  A batch takes as many full chunks as fit, so its
# memory stays bounded whatever the path count.
_BATCH_DRAWS = 1 << 20
_PATH_DRAWS = 16


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng((int(seed), int(chunk_index)))


@dataclass(frozen=True)
class FrequencyEstimate:
    """Empirical frequency with a Wilson score interval."""

    point: float
    lower: float
    upper: float
    successes: int
    samples: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.lower <= self.point <= self.upper <= 1.0:
            raise ValueError(
                f"malformed estimate: point {self.point!r} interval"
                f" [{self.lower!r}, {self.upper!r}]"
            )


# z of the 95% Wilson interval: the bits of scipy.special.ndtri(0.975)
_Z = 1.959963984540054


def wilson_interval(successes: int, samples: int) -> tuple[float, float]:
    """95% Wilson score interval of ``successes`` out of ``samples``."""
    if samples < 1:
        raise ValueError("need at least one sample")
    z = _Z
    phat = successes / samples
    denom = 1.0 + z * z / samples
    center = (phat + z * z / (2.0 * samples)) / denom
    half = (
        z
        * np.sqrt(phat * (1.0 - phat) / samples + z * z / (4.0 * samples * samples))
        / denom
    )
    # the Wilson bounds hit the endpoints exactly at 0 or samples successes
    lower = 0.0 if successes == 0 else max(0.0, float(center - half))
    upper = 1.0 if successes == samples else min(1.0, float(center + half))
    return lower, upper


def _batches(count: int, cells: int) -> Iterator[tuple[range, int]]:
    """(chunk indices, paths) per sampler call, covering ``count`` paths.

    ``cells`` is the indicators a path holds, one per distinct index its
    windows cover.  Full chunks come in batches of as many as ``_BATCH_DRAWS``
    holds; the partial last chunk comes alone.
    """
    full, rest = divmod(count, CHUNK)
    size = max(1, _BATCH_DRAWS // (CHUNK * max(cells, _PATH_DRAWS)))
    for first in range(0, full, size):
        chunks = range(first, min(first + size, full))
        yield chunks, len(chunks) * CHUNK
    if rest:
        yield range(full, full + 1), rest


def _holds(query: WindowPattern | tuple[int, int], block: np.ndarray) -> np.ndarray:
    """Rows of ``block`` (the indicators of the query's window) where its event holds.

    One pass per column of the short rows, in place.
    """
    if isinstance(query, WindowPattern):
        # column i must equal bit i of the window's value
        value = query.value
        held = block[:, 0].copy() if value & 1 else ~block[:, 0]
        for col in range(1, query.width):
            # held & ~col is held > col on booleans, with no temporary
            (np.logical_and if value >> col & 1 else np.greater)(held, block[:, col], out=held)
        return held
    held = block[:, 0].copy()
    for col in range(1, block.shape[1]):
        held |= block[:, col]
    return held


def estimate_frequencies(
    model: EventSequenceModel,
    queries: Sequence[WindowPattern | tuple[int, int]],
    count: int,
    seed: int,
) -> list[FrequencyEstimate]:
    """Empirical frequencies of many events from one pass over the chunks.

    A query is a ``WindowPattern`` (its field of indicators takes its value)
    or an ``(n, span)`` pair (any of A_n..A_{n+span} occurs).  Returns one
    estimate per query, equal to the one-query ``estimate_window_prob`` /
    ``estimate_tail_union``.
    """
    windows = []
    for query in queries:
        if isinstance(query, WindowPattern):
            windows.append((query.start, query.start + query.width - 1))
        else:
            n, span = query
            if span < 0:
                raise ValueError("span must be >= 0")
            windows.append((n, n + span))
    if count < 100:
        raise ModelValueError("count", "need at least 100 samples for an interval estimate")
    if seed < 0:
        raise ModelValueError("seed", f"expected a non-negative integer, got {seed}")
    successes = [0] * len(queries)
    for chunks, size in _batches(count, block_rows(windows)):
        rngs = [_chunk_rng(seed, j) for j in chunks]
        blocks = model.sample_indicator_block(rngs, windows, size)
        for k, (query, block) in enumerate(zip(queries, blocks)):
            successes[k] += int(np.count_nonzero(_holds(query, block)))
    estimates = []
    for hits in successes:
        lo_ci, hi_ci = wilson_interval(hits, count)
        estimates.append(
            FrequencyEstimate(
                point=hits / count,
                lower=lo_ci,
                upper=hi_ci,
                successes=hits,
                samples=count,
            )
        )
    return estimates


def estimate_window_prob(
    model: EventSequenceModel,
    w: WindowPattern,
    count: int,
    seed: int,
) -> FrequencyEstimate:
    """Empirical frequency of the window event."""
    return estimate_frequencies(model, [w], count, seed)[0]


def estimate_tail_union(
    model: EventSequenceModel,
    n: int,
    span: int,
    count: int,
    seed: int,
) -> FrequencyEstimate:
    """Empirical frequency that any of A_n..A_{n+span} occurs."""
    return estimate_frequencies(model, [(n, span)], count, seed)[0]
