"""Monte Carlo cross-validation of the exact engines.

Sampling is chunked: paths [j*CHUNK, (j+1)*CHUNK) come from an independent
substream seeded by (seed, j), so a parallel scheduler assigning chunks to
workers reproduces the serial result exactly and aggregation is commutative.
``estimate_frequencies`` answers many queries (windows and tail unions) in one
pass over the chunks: each chunk's generator makes one sampler call whose
blocks serve every query.  The sampler draws each window's block as a prefix
of the chunk's stream, so every estimate equals its one-query call,
``estimate_window_prob`` or ``estimate_tail_union``, bit for bit.  Interval
estimates use the Wilson score, which behaves correctly near 0 and 1 where
window probabilities live; its normal quantile comes from ``_ndtri``, a
transcription of the Cephes ``ndtri`` that ``scipy.special.ndtri`` also runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .models import EventSequenceModel
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


# Cephes ndtri (S. L. Moshier, Cephes Math Library, 1989): rational
# approximations of the standard normal quantile.  Coefficients run from the
# highest power down.
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242
# central region, |y - 1/2| <= 1/2 - exp(-2)
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.0,
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# tails, x = sqrt(-2 log y) in [2, 8): y between exp(-32) and exp(-2)
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.0,
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
# tails, x >= 8: y below exp(-32)
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    1.0,
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """Horner's rule.  A leading coefficient 1 gives ``1.0 * x + c``, which is
    Cephes ``p1evl``'s ``x + c`` exactly."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: float) -> float:
    """Standard normal quantile: x with Phi(x) = ``y0``.

    The operations are Cephes ``ndtri``'s, in its order, so the result equals
    ``scipy.special.ndtri(y0)`` bit for bit.
    """
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    y, upper = y0, False
    if y > 1.0 - _EXP_M2:
        y, upper = 1.0 - y, True
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return x if upper else -x


def wilson_interval(successes: int, samples: int, confidence: float = 0.95) -> tuple[float, float]:
    if samples < 1:
        raise ValueError("need at least one sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    z = _ndtri(0.5 + confidence / 2.0)
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


def _holds(query: WindowPattern | tuple[int, int], block: np.ndarray) -> np.ndarray:
    """Rows of ``block`` (the indicators of the query's window) where its event holds."""
    if isinstance(query, WindowPattern):
        # a window constrains every index of its span, in index order
        return (block == [occur for _, occur in query.constraints()]).all(axis=1)
    return block.any(axis=1)


def estimate_frequencies(
    model: EventSequenceModel,
    queries: Sequence[WindowPattern | tuple[int, int]],
    count: int,
    seed: int,
    confidence: float = 0.95,
) -> list[FrequencyEstimate]:
    """Empirical frequencies of many events from one pass over the chunks.

    A query is a ``WindowPattern`` (its window event) or an ``(n, span)`` pair
    (any of A_n..A_{n+span} occurs).  Returns one estimate per query, equal to
    the one-query ``estimate_window_prob`` / ``estimate_tail_union``.
    """
    windows = []
    for query in queries:
        if isinstance(query, WindowPattern):
            windows.append((query.first_index, query.last_index))
        else:
            n, span = query
            if span < 0:
                raise ValueError("span must be >= 0")
            windows.append((n, n + span))
    if count < 100:
        raise ValueError("need at least 100 samples for an interval estimate")
    successes = [0] * len(queries)
    for j, size in _iter_chunks(count):
        blocks = model.sample_indicator_block(_chunk_rng(seed, j), windows, size)
        for k, (query, block) in enumerate(zip(queries, blocks)):
            successes[k] += int(np.count_nonzero(_holds(query, block)))
    estimates = []
    for hits in successes:
        lo_ci, hi_ci = wilson_interval(hits, count, confidence)
        estimates.append(
            FrequencyEstimate(
                point=hits / count,
                lower=lo_ci,
                upper=hi_ci,
                successes=hits,
                samples=count,
                confidence=confidence,
            )
        )
    return estimates


def estimate_window_prob(
    model: EventSequenceModel,
    w: WindowPattern,
    count: int,
    seed: int,
    confidence: float = 0.95,
) -> FrequencyEstimate:
    """Empirical frequency of the window event."""
    return estimate_frequencies(model, [w], count, seed, confidence)[0]


def estimate_tail_union(
    model: EventSequenceModel,
    n: int,
    span: int,
    count: int,
    seed: int,
    confidence: float = 0.95,
) -> FrequencyEstimate:
    """Empirical frequency that any of A_n..A_{n+span} occurs."""
    return estimate_frequencies(model, [(n, span)], count, seed, confidence)[0]
