"""Brute-force ground truth on a truncated horizon.

The oracle enumerates every outcome of a model that can occur, up to a small
horizon, and answers event-probability queries by summing outcome
probabilities.  It never approximates: horizons past the hard caps raise
instead of truncating.  It is deliberately independent of the production
engines: independent models are expanded into all indicator patterns, one
marginal at a time, Markov models into the state paths through the states the
chain can occupy at each time, and latent models into exact threshold cells.
The occupiable states are those of positive initial probability at time 1, and
after that those one positive transition reaches from the states before.  A
path through any other state has probability +0.0, which adds nothing to its
bin's sums, and the paths kept keep their order and their left-to-right
products, so leaving the rest out changes no bit of any answer.

Every window and union query asks only which of A_1..A_h hold, so outcomes
with the same indicator pattern are interchangeable.  The enumeration folds
each outcome's probability into the bin of its indicator code, and queries
read the 2^h bins, however many outcomes there were.  Each query constrains
one contiguous field of code bits, A_n..A_{n+w-1}, so it sums a slice of the
bins viewed as (high bits, field, low bits), with no mask over the codes.
Each bin total comes within about one rounding of its exact sum, so an answer
carries only the rounding of each outcome's probability and of one sum over
bins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import ModelValueError
from .models import (
    EventSequenceModel,
    IndependentModel,
    LatentUniformModel,
    MarkovModel,
)
from .windows import WindowPattern

MAX_INDICATOR_HORIZON = 14
# caps both the Markov state paths and the 2^h codes they fold into; it counts
# max(S, 2)^h paths however few of them can occur, so whether a horizon
# passes depends only on S and h
MAX_MARKOV_PATHS = 10_000_000
_FOLD_SLICE = 1 << 14


def _code_type(horizon: int) -> np.dtype:
    """The smallest unsigned type that holds every code: short passes over codes."""
    return np.min_scalar_type(2**horizon - 1)


class HorizonExceededError(ModelValueError):
    """A query or construction went past the oracle's hard horizon caps."""

    def __init__(self, message: str):
        super().__init__("horizon", message)


@dataclass
class TruncatedOutcomeSpace:
    """The outcomes of a model up to ``horizon``, binned by indicator code.

    ``probs[c]`` is the total probability of the outcomes whose indicator code
    is ``c``: bit t of ``c`` says whether A_{t+1} holds.  ``probs`` has one bin
    per code, 2^horizon in all.
    """

    horizon: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        total = float(self.probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"outcome probabilities sum to {total!r}, expected 1")

    def field(self, n: int, width: int) -> np.ndarray:
        """The bins as a (high, field, low) view: axis 1 is the value of bits
        n - 1 .. n + width - 2 of the code, the indicators of A_n .. A_{n+width-1}."""
        return self.probs.reshape(2 ** (self.horizon - n - width + 1), 2**width, 2 ** (n - 1))


def _total(bins: np.ndarray) -> float:
    # the contiguous copy holds the bins in increasing code order, as a boolean
    # mask over all codes would select them, so the pairwise sum adds the same
    # numbers in the same order; summing the strided view would not
    return float(bins.ravel().sum())


def oracle_window_prob(space: TruncatedOutcomeSpace, w: WindowPattern) -> float:
    """Exact window probability by exhaustive enumeration."""
    last = w.start + w.width - 1
    if last > space.horizon:
        raise HorizonExceededError(f"window reaches index {last} past horizon {space.horizon}")
    return _total(space.field(w.start, w.width)[:, w.value, :])


def oracle_union_prob(space: TruncatedOutcomeSpace, n: int, span: int) -> float:
    """Exact P(union of A_n .. A_{n+span}) by exhaustive enumeration."""
    last = n + span
    if n < 1 or span < 0:
        raise ValueError("union query needs n >= 1 and span >= 0")
    if last > space.horizon:
        raise HorizonExceededError(f"union reaches index {last} past horizon {space.horizon}")
    # every field value but all zeros has an occurrence
    return _total(space.field(n, span + 1)[:, 1:, :])


def build_outcome_space(model: EventSequenceModel, horizon: int) -> TruncatedOutcomeSpace:
    if horizon < 1:
        raise ModelValueError("horizon", "horizon must be >= 1")
    if isinstance(model, IndependentModel):
        return _independent_space(model, horizon)
    if isinstance(model, MarkovModel):
        return _markov_space(model, horizon)
    if isinstance(model, LatentUniformModel):
        return _latent_space(model, horizon)
    raise TypeError(f"no oracle construction for {type(model).__name__}")


def _independent_space(model: IndependentModel, horizon: int) -> TruncatedOutcomeSpace:
    if horizon > MAX_INDICATOR_HORIZON:
        raise HorizonExceededError(
            f"horizon {horizon} exceeds indicator cap {MAX_INDICATOR_HORIZON}"
        )
    # outcome c is the indicator pattern with code c: each is its own bin.
    # Doubling by A_i puts its factor on bit i - 1, the top bit so far, so
    # every code multiplies its factors in index order, left to right.
    probs = np.ones(1)
    for i in range(1, horizon + 1):
        p = model.family.value(i)
        probs = np.concatenate((probs * (1.0 - p), probs * p))
    return TruncatedOutcomeSpace(horizon, probs)


def _markov_space(model: MarkovModel, horizon: int) -> TruncatedOutcomeSpace:
    s = model.num_states
    base = max(s, 2)
    # past the cap's bit length, base**horizon passes the cap: reject it unbuilt
    if horizon > MAX_MARKOV_PATHS.bit_length() or base**horizon > MAX_MARKOV_PATHS:
        # a 1-state chain has one path but still needs 2^horizon bins
        what = "state paths" if s > 1 else "indicator codes"
        raise HorizonExceededError(
            f"{base}^{horizon} {what} exceed the cap of {MAX_MARKOV_PATHS}"
        )
    transition = model._transition  # noqa: SLF001 - oracle reads the frozen inputs
    initial = model._initial  # noqa: SLF001
    # Paths run in lexicographic order of their states, time 1 leading.  Each
    # step appends to every path each state the chain can occupy at time t,
    # multiplying its probability and setting its code's bit for A_t.  A path
    # through any other state would have probability +0.0: it is never built.
    code_type = _code_type(horizon)
    states = np.flatnonzero(initial > 0)
    probs = initial[states]
    codes = model.event_mask(1)[states].astype(code_type)
    for t in range(2, horizon + 1):
        reached = np.flatnonzero((transition[states] > 0).any(axis=0))
        step = transition[np.ix_(states, reached)]
        probs = (probs.reshape(-1, len(states), 1) * step).reshape(-1)
        mask = model.event_mask(t)[reached].astype(code_type) << (t - 1)
        codes = (codes[:, None] | mask).reshape(-1)
        states = reached
    return _binned(horizon, codes, probs)


def _latent_space(model: LatentUniformModel, horizon: int) -> TruncatedOutcomeSpace:
    if horizon > MAX_INDICATOR_HORIZON:
        raise HorizonExceededError(
            f"horizon {horizon} exceeds indicator cap {MAX_INDICATOR_HORIZON}"
        )
    num = model.num_latents
    colors = [model.color(i) for i in range(1, horizon + 1)]
    thresholds = [model.threshold(i) for i in range(1, horizon + 1)]
    # Exact cells: per latent, split (0, 1] at every threshold that occurs.
    cells_per_latent: list[list[tuple[float, float]]] = []
    for j in range(num):
        own = {a for a, color in zip(thresholds, colors) if color == j}
        cuts = sorted(own | {0.0, 1.0})
        cells = [
            (lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo
        ]
        cells_per_latent.append(cells or [(0.0, 1.0)])
    combos: list[tuple[tuple[float, float], ...]] = [()]
    for j in range(num):
        combos = [c + (cell,) for c in combos for cell in cells_per_latent[j]]
    probs = np.array([np.prod([hi - lo for lo, hi in c]) for c in combos])
    # U in (lo, hi]: the cell satisfies U <= a_i exactly when hi <= a_i.
    tops = np.array([[hi for _, hi in c] for c in combos])
    indicators = tops[:, colors] <= np.array(thresholds)
    codes = indicators.astype(np.int64) @ (1 << np.arange(horizon))
    return _binned(horizon, codes, probs)


def _binned(horizon: int, codes: np.ndarray, probs: np.ndarray) -> TruncatedOutcomeSpace:
    """The space whose bin c holds the total of ``probs`` where ``codes`` is c.

    Each total is within about one rounding of its exact sum, however many
    outcomes share the bin.  Every probability splits at the power of two 2^k
    at or above its bin's rough total: the high parts are multiples of
    ulp(2^k) whose sums stay below 2^(k+1), so they add up exactly in any
    order, and the low parts are each below ulp(2^k), so the error of their
    sum stays far below one ulp of the total.  The split runs over slices of
    the outcomes, so its temporaries stay small.
    """
    size = 2**horizon
    slices = [slice(lo, lo + _FOLD_SLICE) for lo in range(0, len(codes), _FOLD_SLICE)]
    rough = np.zeros(size)
    for part in slices:
        np.add.at(rough, codes[part], probs[part])
    exponent = np.frexp(rough)[1]
    high_sum, low_sum = np.zeros(size), np.zeros(size)
    for part in slices:
        # one index array serves the gather and both folds
        c, p = codes[part].astype(np.intp, copy=False), probs[part]
        scale = np.ldexp(1.0, exponent[c])
        high = (scale + p) - scale
        np.add.at(high_sum, c, high)
        np.add.at(low_sum, c, p - high)
    return TruncatedOutcomeSpace(horizon, high_sum + low_sum)
