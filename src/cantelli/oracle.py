"""Brute-force ground truth on a truncated horizon.

The oracle enumerates every outcome of a model up to a small horizon and
answers event-probability queries by summing atom probabilities.  It never
approximates: horizons past the hard caps raise instead of truncating.  It is
deliberately independent of the production engines: independent models are
expanded into all indicator patterns, Markov models into all state paths, and
latent models into exact threshold cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import (
    EventSequenceModel,
    IndependentModel,
    LatentUniformModel,
    MarkovModel,
)
from .windows import WindowPattern

MAX_INDICATOR_HORIZON = 14
MAX_MARKOV_PATHS = 10_000_000


class HorizonExceededError(ValueError):
    """A query or construction went past the oracle's hard horizon caps."""


@dataclass
class TruncatedOutcomeSpace:
    """All outcomes of a model up to ``horizon``, with exact probabilities.

    ``indicators[a, t]`` says whether A_{t+1} holds in atom ``a``.  It is
    stored column-major, so each event's column over all atoms is contiguous.
    """

    horizon: int
    probs: np.ndarray
    indicators: np.ndarray

    def __post_init__(self) -> None:
        total = float(self.probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"atom probabilities sum to {total!r}, expected 1")
        self.indicators = np.asfortranarray(self.indicators)

    def window_mask(self, w: WindowPattern) -> np.ndarray:
        if w.last_index > self.horizon:
            raise HorizonExceededError(
                f"window reaches index {w.last_index} past horizon {self.horizon}"
            )
        cols = self.indicators
        (idx, occur), *rest = w.constraints()
        mask = cols[:, idx - 1].copy() if occur else ~cols[:, idx - 1]
        for idx, occur in rest:
            # mask & ~col is mask > col on booleans, with no temporary
            (np.logical_and if occur else np.greater)(mask, cols[:, idx - 1], out=mask)
        return mask

    def union_mask(self, n: int, span: int) -> np.ndarray:
        last = n + span
        if n < 1 or span < 0:
            raise ValueError("union query needs n >= 1 and span >= 0")
        if last > self.horizon:
            raise HorizonExceededError(
                f"union reaches index {last} past horizon {self.horizon}"
            )
        return self.indicators[:, n - 1 : last].any(axis=1)

    def event_prob(self, mask: np.ndarray) -> float:
        return float(self.probs[mask].sum())


def oracle_window_prob(space: TruncatedOutcomeSpace, w: WindowPattern) -> float:
    """Exact window probability by exhaustive enumeration."""
    return space.event_prob(space.window_mask(w))


def oracle_union_prob(space: TruncatedOutcomeSpace, n: int, span: int) -> float:
    """Exact P(union of A_n .. A_{n+span}) by exhaustive enumeration."""
    return space.event_prob(space.union_mask(n, span))


def build_outcome_space(model: EventSequenceModel, horizon: int) -> TruncatedOutcomeSpace:
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
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
    p = np.array([model.family.value(i) for i in range(1, horizon + 1)])
    atoms = np.arange(2**horizon)
    indicators = (atoms[:, None] >> np.arange(horizon)) & 1 > 0
    probs = np.where(indicators, p, 1.0 - p).prod(axis=1)
    return TruncatedOutcomeSpace(horizon, probs, indicators)


def _markov_space(model: MarkovModel, horizon: int) -> TruncatedOutcomeSpace:
    s = model.num_states
    if s**horizon > MAX_MARKOV_PATHS:
        raise HorizonExceededError(
            f"{s}^{horizon} state paths exceed the cap of {MAX_MARKOV_PATHS}"
        )
    transition = model._transition  # noqa: SLF001 - oracle reads the frozen inputs
    initial = model._initial  # noqa: SLF001
    # Atom a is the path whose state at time t is the base-s digit
    # (a // s**(horizon - t)) % s: time 1 is the leading digit.
    probs = initial.copy()
    for _ in range(horizon - 1):
        # extend each path by one step; its last state is its lowest digit
        probs = (probs.reshape(-1, s, 1) * transition).reshape(-1)
    cols = np.empty((horizon, s**horizon), dtype=bool)
    for t in range(1, horizon + 1):
        # atoms as (leading digits, digit t, trailing digits): column t reads the middle
        cols[t - 1].reshape(s ** (t - 1), s, s ** (horizon - t))[...] = model.event_mask(t)[:, None]
    return TruncatedOutcomeSpace(horizon, probs, cols.T)


def _latent_space(model: LatentUniformModel, horizon: int) -> TruncatedOutcomeSpace:
    if horizon > MAX_INDICATOR_HORIZON:
        raise HorizonExceededError(
            f"horizon {horizon} exceeds indicator cap {MAX_INDICATOR_HORIZON}"
        )
    num = model.num_latents
    idx_by_latent: list[list[int]] = [[] for _ in range(num)]
    for i in range(1, horizon + 1):
        idx_by_latent[model.color(i)].append(i)
    # Exact cells: per latent, split (0, 1] at every threshold that occurs.
    cells_per_latent: list[list[tuple[float, float]]] = []
    for j in range(num):
        cuts = sorted({model.threshold(i) for i in idx_by_latent[j]} | {0.0, 1.0})
        cells = [
            (lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo
        ]
        cells_per_latent.append(cells or [(0.0, 1.0)])
    combos: list[tuple[tuple[float, float], ...]] = [()]
    for j in range(num):
        combos = [c + (cell,) for c in combos for cell in cells_per_latent[j]]
    probs = np.array([np.prod([hi - lo for lo, hi in c]) for c in combos])
    indicators = np.empty((len(combos), horizon), dtype=bool)
    for a, combo in enumerate(combos):
        for i in range(1, horizon + 1):
            lo, hi = combo[model.color(i)]
            # U in (lo, hi]: the cell satisfies U <= a_i exactly when hi <= a_i.
            indicators[a, i - 1] = hi <= model.threshold(i)
    return TruncatedOutcomeSpace(horizon, probs, indicators)
