"""Monte Carlo cross-validation of the exact engines.

Sampling is chunked: paths [j*CHUNK, (j+1)*CHUNK) come from an independent
substream seeded by (seed, j), so a parallel scheduler assigning chunks to
workers reproduces the serial result exactly and aggregation is commutative.
Interval estimates use the Wilson score, which behaves correctly near 0 and 1
where window probabilities live.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.special import ndtri

from .models import EventSequenceModel
from .windows import WindowPattern

__all__ = [
    "CHUNK",
    "FrequencyEstimate",
    "wilson_interval",
    "estimate_window_prob",
    "estimate_tail_union",
]

CHUNK = 4096


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
    confidence: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.lower <= self.point <= self.upper <= 1.0:
            raise ValueError(
                f"malformed estimate: point {self.point!r} interval"
                f" [{self.lower!r}, {self.upper!r}]"
            )

    def covers(self, p: float) -> bool:
        return self.lower <= p <= self.upper


def wilson_interval(successes: int, samples: int, confidence: float = 0.95) -> tuple[float, float]:
    if samples < 1:
        raise ValueError("need at least one sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    z = float(ndtri(0.5 + confidence / 2.0))
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


def _iter_chunks(count: int) -> Iterator[tuple[int, int]]:
    """(chunk_index, chunk_size) covering ``count`` paths."""
    full, rest = divmod(count, CHUNK)
    for j in range(full):
        yield j, CHUNK
    if rest:
        yield full, rest


def _count_block_event(
    model: EventSequenceModel,
    lo: int,
    hi: int,
    count: int,
    seed: int,
    reduce_block,
) -> int:
    successes = 0
    for j, size in _iter_chunks(count):
        block = model.sample_indicator_block(_chunk_rng(seed, j), lo, hi, size)
        successes += int(reduce_block(block).sum())
    return successes


def estimate_window_prob(
    model: EventSequenceModel,
    w: WindowPattern,
    count: int,
    seed: int,
    confidence: float = 0.95,
) -> FrequencyEstimate:
    """Empirical frequency of the window event."""
    if count < 100:
        raise ValueError("need at least 100 samples for an interval estimate")
    lo, hi = w.first_index, w.last_index
    constraints = w.constraints()

    def window_holds(block: np.ndarray) -> np.ndarray:
        ok = np.ones(len(block), dtype=bool)
        for idx, occur in constraints:
            col = block[:, idx - lo]
            ok &= col if occur else ~col
        return ok

    successes = _count_block_event(model, lo, hi, count, seed, window_holds)
    lo_ci, hi_ci = wilson_interval(successes, count, confidence)
    return FrequencyEstimate(
        point=successes / count,
        lower=lo_ci,
        upper=hi_ci,
        successes=successes,
        samples=count,
        confidence=confidence,
    )


def estimate_tail_union(
    model: EventSequenceModel,
    n: int,
    span: int,
    count: int,
    seed: int,
    confidence: float = 0.95,
) -> FrequencyEstimate:
    """Empirical frequency that any of A_n..A_{n+span} occurs."""
    if span < 0:
        raise ValueError("span must be >= 0")
    if count < 100:
        raise ValueError("need at least 100 samples for an interval estimate")
    successes = _count_block_event(
        model, n, n + span, count, seed, lambda block: block.any(axis=1)
    )
    lo_ci, hi_ci = wilson_interval(successes, count, confidence)
    return FrequencyEstimate(
        point=successes / count,
        lower=lo_ci,
        upper=hi_ci,
        successes=successes,
        samples=count,
        confidence=confidence,
    )
