"""Event-sequence models: exact window-probability backends.

Three backends answer arbitrary window queries in closed form or by dynamic
programming:

* ``IndependentModel``: independent events with marginals from a sequence
  family; window probabilities are products.
* ``MarkovModel``: a finite chain observed through time-indexed event sets;
  window probabilities come from masked vector-matrix propagation with an
  incremental prefix cache.
* ``LatentUniformModel``: events are threshold cells of a few shared
  uniform latents; window probabilities are products of interval lengths, and
  emptiness is decidable exactly.  This backend builds the nested and
  interleaved counterexamples that separate the window criteria.

All models are immutable after construction and all queries are pure.
"""

from __future__ import annotations

import enum
import math
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .families import SequenceFamily, SequenceIndexError, SeriesClass
from .windows import WindowPattern, all_complement, first_occurrence, marginal

__all__ = [
    "NumericFaultError",
    "AnalyticMetadata",
    "EventSequenceModel",
    "IndependentModel",
    "EventSchedule",
    "MarkovModel",
    "GlobalThresholds",
    "PerLatentThresholds",
    "LatentUniformModel",
    "DecayVerdict",
    "marginal_decay_check",
    "default_decay_probes",
]

_PROB_SLACK = 1e-9


class NumericFaultError(ArithmeticError):
    """A probability computation produced a non-finite or out-of-range value."""


@dataclass(frozen=True)
class AnalyticMetadata:
    """Closed-form facts a backend can certify about itself.

    ``series_classifier(prefix_len)`` classifies the window series with that
    many complement factors, returning (SeriesClass, justification) or None.
    ``tail_union_bound(n)`` bounds P(union_{j>=n} A_j) from above.  Absent
    callables mean "no closed form"; every certification must be backed by the
    argument recorded in its justification or in ``description``.
    """

    marginal_limit: float | None = None
    series_classifier: Callable[[int], tuple[SeriesClass, str] | None] | None = None
    tail_union_bound: Callable[[int], float] | None = None
    description: str = ""

    def classify_series(self, prefix_len: int) -> tuple[SeriesClass, str] | None:
        if self.series_classifier is None:
            return None
        return self.series_classifier(prefix_len)


class EventSequenceModel(ABC):
    """Exact probabilities of window events over an infinite event sequence."""

    @abstractmethod
    def window_prob(self, w: WindowPattern) -> float:
        """Probability of the conjunction event described by ``w``."""

    @abstractmethod
    def window_is_empty(self, w: WindowPattern) -> bool:
        """True only when the window event is provably empty (probability exactly 0).

        This is a structural check (interval emptiness, support reachability,
        zero/one marginals), never a float-underflow readout.
        """

    @abstractmethod
    def sample_indicator_block(
        self, rng: np.random.Generator, lo: int, hi: int, count: int
    ) -> np.ndarray:
        """Sample ``count`` independent realizations of indicators A_lo..A_hi.

        Returns a boolean array of shape (count, hi - lo + 1).  Draw order is
        fixed so results are a pure function of the generator state.
        """

    @property
    def metadata(self) -> AnalyticMetadata:
        return AnalyticMetadata()

    def marginal_prob(self, n: int) -> float:
        """P(A_n); equals window_prob of the bare-event window at n."""
        return self.window_prob(marginal(n))

    def first_occurrence_terms(self, n: int, count: int) -> np.ndarray:
        """Terms P(first occurrence at n + k) for k = 0..count-1.

        Default routes through window_prob; backends override with O(count)
        incremental scans used by the tail-union machinery.
        """
        return np.array(
            [self.window_prob(first_occurrence(n, k)) for k in range(count)], dtype=float
        )

    def all_complement_prob(self, n: int, length: int) -> float:
        """P(no occurrence anywhere in [n, n + length - 1])."""
        if length == 0:
            return 1.0
        return self.window_prob(all_complement(n, length))

    @staticmethod
    def _finish_prob(x: float) -> float:
        if not math.isfinite(x):
            raise NumericFaultError(f"non-finite window probability: {x!r}")
        if x < 0.0:
            if x < -_PROB_SLACK:
                raise NumericFaultError(f"window probability {x!r} below 0")
            return 0.0
        if x > 1.0:
            if x > 1.0 + _PROB_SLACK:
                raise NumericFaultError(f"window probability {x!r} above 1")
            return 1.0
        return x


# ---------------------------------------------------------------------------
# independent backend


class IndependentModel(EventSequenceModel):
    """Independent events A_n with P(A_n) given by a sequence family."""

    def __init__(self, marginal: SequenceFamily):
        self._family = marginal
        tail_sum = marginal.tail_sum_bound

        def union_bound(n: int) -> float:
            b = tail_sum(n)
            return min(1.0, b) if b is not None else 1.0

        self._metadata = AnalyticMetadata(
            marginal_limit=marginal.limit(),
            series_classifier=marginal.series_class,
            tail_union_bound=union_bound if tail_sum(1) is not None else None,
            description=f"independent events, {marginal.describe()}",
        )

    @property
    def family(self) -> SequenceFamily:
        return self._family

    @property
    def metadata(self) -> AnalyticMetadata:
        return self._metadata

    def window_prob(self, w: WindowPattern) -> float:
        prob = 1.0
        for idx, occur in w.constraints():
            p = self._family.value(idx)
            prob *= p if occur else 1.0 - p
        return self._finish_prob(prob)

    def window_is_empty(self, w: WindowPattern) -> bool:
        for idx, occur in w.constraints():
            p = self._family.value(idx)
            if (occur and p == 0.0) or (not occur and p == 1.0):
                return True
        return False

    def first_occurrence_terms(self, n: int, count: int) -> np.ndarray:
        out = np.empty(count, dtype=float)
        survive = 1.0
        for k in range(count):
            p = self._family.value(n + k)
            out[k] = survive * p
            survive *= 1.0 - p
        return out

    def all_complement_prob(self, n: int, length: int) -> float:
        prob = 1.0
        for i in range(length):
            prob *= 1.0 - self._family.value(n + i)
        return self._finish_prob(prob)

    def sample_indicator_block(
        self, rng: np.random.Generator, lo: int, hi: int, count: int
    ) -> np.ndarray:
        p = np.array([self._family.value(i) for i in range(lo, hi + 1)], dtype=float)
        return rng.random((count, hi - lo + 1)) < p


# ---------------------------------------------------------------------------
# finite Markov backend


class EventSchedule:
    """Time-indexed event sets E_n over a finite state space.

    Modes: a constant set, a periodic cycle of sets, or an explicit list with
    a declared constant tail set.
    """

    def __init__(
        self,
        num_states: int,
        *,
        constant: Sequence[int] | None = None,
        cycle: Sequence[Sequence[int]] | None = None,
        explicit: Sequence[Sequence[int]] | None = None,
        tail: Sequence[int] | None = None,
    ):
        modes = sum(x is not None for x in (constant, cycle, explicit))
        if modes != 1:
            raise ValueError("exactly one of constant/cycle/explicit must be given")
        self._num_states = num_states
        if constant is not None:
            self._cycle = (self._mask(constant),)
            self._explicit: tuple[np.ndarray, ...] | None = None
            self._tail: np.ndarray | None = None
        elif cycle is not None:
            if not cycle:
                raise ValueError("periodic event schedule needs at least one set")
            self._cycle = tuple(self._mask(s) for s in cycle)
            self._explicit = None
            self._tail = None
        else:
            assert explicit is not None
            self._cycle = ()
            self._explicit = tuple(self._mask(s) for s in explicit)
            self._tail = self._mask(tail) if tail is not None else None

    def _mask(self, members: Sequence[int]) -> np.ndarray:
        mask = np.zeros(self._num_states, dtype=bool)
        for s in members:
            if not 0 <= int(s) < self._num_states:
                raise ValueError(f"event-set state {s} outside 0..{self._num_states - 1}")
            mask[int(s)] = True
        mask.setflags(write=False)
        return mask

    def mask(self, n: int) -> np.ndarray:
        """Boolean membership mask of E_n."""
        if n < 1:
            raise ValueError(f"event schedule queried at time {n} < 1")
        if self._explicit is not None:
            if n <= len(self._explicit):
                return self._explicit[n - 1]
            if self._tail is None:
                raise SequenceIndexError(
                    f"event schedule of length {len(self._explicit)} queried at time {n}"
                    " with no tail declared"
                )
            return self._tail
        return self._cycle[(n - 1) % len(self._cycle)]


class MarkovModel(EventSequenceModel):
    """Finite chain; A_n holds when the state at time n lies in E_n.

    Window probabilities are computed by propagating the time-n distribution
    through masked transition steps.  Distributions at each start time are
    cached incrementally so sweeping a series over consecutive n costs O(S^2)
    amortized per term.  The cache is guarded by a lock; queries stay pure and
    deterministic under any interleaving.
    """

    def __init__(
        self,
        transition: np.ndarray,
        initial: np.ndarray,
        events: EventSchedule,
        *,
        atol: float = 1e-12,
    ):
        transition = np.asarray(transition, dtype=float)
        initial = np.asarray(initial, dtype=float)
        if transition.ndim != 2 or transition.shape[0] != transition.shape[1]:
            raise ValueError(f"transition matrix must be square, got {transition.shape}")
        s = transition.shape[0]
        if initial.shape != (s,):
            raise ValueError(f"initial vector must have length {s}, got {initial.shape}")
        if np.any(transition < 0.0) or np.any(initial < 0.0):
            raise ValueError("transition and initial entries must be nonnegative")
        row_sums = transition.sum(axis=1)
        bad = np.flatnonzero(np.abs(row_sums - 1.0) > atol)
        if bad.size:
            raise ValueError(
                f"transition row {bad[0]} sums to {row_sums[bad[0]]!r}, expected 1"
            )
        if abs(initial.sum() - 1.0) > atol:
            raise ValueError(f"initial vector sums to {initial.sum()!r}, expected 1")
        self._transition = transition.copy()
        self._transition.setflags(write=False)
        self._initial = initial.copy()
        self._initial.setflags(write=False)
        self._events = events
        self._num_states = s
        # prefix cache: _dists[i] is the unconstrained distribution at time i+1
        self._dists: list[np.ndarray] = [self._initial]
        self._supports: list[frozenset[int]] = [frozenset(np.flatnonzero(initial > 0.0))]
        self._support_seen: dict[frozenset[int], int] = {self._supports[0]: 0}
        self._support_cycle: tuple[int, int] | None = None  # (first_seen, period)
        self._lock = threading.Lock()
        self._cum_rows = np.cumsum(self._transition, axis=1)
        self._cum_initial = np.cumsum(self._initial)
        self._metadata = AnalyticMetadata(
            description=f"finite Markov chain on {s} states with time-indexed event sets"
        )

    @property
    def num_states(self) -> int:
        return self._num_states

    @property
    def metadata(self) -> AnalyticMetadata:
        return self._metadata

    def event_mask(self, n: int) -> np.ndarray:
        return self._events.mask(n)

    def _dist_at(self, n: int) -> np.ndarray:
        """Unconstrained state distribution at time n (1-based)."""
        if n < 1:
            raise ValueError(f"time index {n} < 1")
        if len(self._dists) >= n:
            return self._dists[n - 1]
        with self._lock:
            while len(self._dists) < n:
                self._dists.append(self._dists[-1] @ self._transition)
            return self._dists[n - 1]

    def _support_at(self, n: int) -> frozenset[int]:
        """States reachable with positive probability at time n."""
        with self._lock:
            if self._support_cycle is not None:
                first, period = self._support_cycle
                if n - 1 >= first:
                    return self._supports[first + (n - 1 - first) % period]
            while len(self._supports) < n:
                prev = self._supports[-1]
                nxt = frozenset(
                    np.flatnonzero(
                        self._transition[sorted(prev), :].sum(axis=0) > 0.0
                    ).tolist()
                )
                t = len(self._supports)
                if self._support_cycle is None and nxt in self._support_seen:
                    first = self._support_seen[nxt]
                    self._support_cycle = (first, t - first)
                    break
                self._support_seen[nxt] = t
                self._supports.append(nxt)
            if self._support_cycle is not None:
                first, period = self._support_cycle
                if n - 1 >= first:
                    return self._supports[first + (n - 1 - first) % period]
            return self._supports[n - 1]

    def window_prob(self, w: WindowPattern) -> float:
        constraints = w.constraints()
        if not constraints:
            return 1.0
        start = constraints[0][0]
        v = self._dist_at(start)
        prev_idx = None
        for idx, occur in constraints:
            if prev_idx is not None:
                for _ in range(idx - prev_idx):
                    v = v @ self._transition
            mask = self._events.mask(idx)
            v = v * mask if occur else v * ~mask
            prev_idx = idx
        return self._finish_prob(float(v.sum()))

    def window_is_empty(self, w: WindowPattern) -> bool:
        constraints = w.constraints()
        if not constraints:
            return False
        start = constraints[0][0]
        supp = np.zeros(self._num_states, dtype=bool)
        supp[sorted(self._support_at(start))] = True
        pos_trans = self._transition > 0.0
        prev_idx = None
        for idx, occur in constraints:
            if prev_idx is not None:
                for _ in range(idx - prev_idx):
                    supp = pos_trans[supp, :].any(axis=0)
            mask = self._events.mask(idx)
            supp = supp & mask if occur else supp & ~mask
            prev_idx = idx
        return not supp.any()

    def first_occurrence_terms(self, n: int, count: int) -> np.ndarray:
        out = np.empty(count, dtype=float)
        v = self._dist_at(n)
        for k in range(count):
            mask = self._events.mask(n + k)
            out[k] = self._finish_prob(float(v[mask].sum()))
            v = (v * ~mask) @ self._transition
        return out

    def all_complement_prob(self, n: int, length: int) -> float:
        v = self._dist_at(n)
        for i in range(length):
            v = v * ~self._events.mask(n + i)
            if i + 1 < length:
                v = v @ self._transition
        return self._finish_prob(float(v.sum())) if length else 1.0

    def sample_indicator_block(
        self, rng: np.random.Generator, lo: int, hi: int, count: int
    ) -> np.ndarray:
        width = hi - lo + 1
        out = np.empty((count, width), dtype=bool)
        u = rng.random(count)
        states = np.searchsorted(self._cum_initial, u, side="right")
        np.clip(states, 0, self._num_states - 1, out=states)
        for t in range(1, hi + 1):
            if t > 1:
                u = rng.random(count)
                rows = self._cum_rows[states]
                states = (rows < u[:, None]).sum(axis=1)
                np.clip(states, 0, self._num_states - 1, out=states)
            if t >= lo:
                out[:, t - lo] = self._events.mask(t)[states]
        return out


# ---------------------------------------------------------------------------
# latent-uniform backend


@dataclass(frozen=True)
class GlobalThresholds:
    """One threshold family evaluated at the global index: a_n = family.value(n)."""

    family: SequenceFamily


@dataclass(frozen=True)
class PerLatentThresholds:
    """Per-latent families evaluated at the within-latent position (plus offset).

    The k-th event assigned to latent j gets threshold families[j].value(k +
    offsets[j]).  Offsets let interleaved subsequences share threshold levels
    across latents, which is how the separating examples for the multi-gap
    window criterion are built.
    """

    families: tuple[SequenceFamily, ...]
    offsets: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.families) != len(self.offsets):
            raise ValueError("families and offsets must have equal length")


class LatentUniformModel(EventSequenceModel):
    """Events are threshold cells of shared uniform-[0,1] latents.

    A periodic coloring assigns each index n a latent c(n); the event is
    A_n = {U_{c(n)} <= a_n}.  A window constrains each latent to an interval,
    so window probabilities are exact products of interval lengths and
    emptiness is an exact comparison, not a float artifact.
    """

    def __init__(
        self,
        num_latents: int,
        coloring: Sequence[int],
        thresholds: GlobalThresholds | PerLatentThresholds,
    ):
        if num_latents < 1:
            raise ValueError("need at least one latent")
        coloring = tuple(int(c) for c in coloring)
        if not coloring:
            raise ValueError("coloring cycle must be nonempty")
        for i, c in enumerate(coloring):
            if not 0 <= c < num_latents:
                raise ValueError(f"coloring[{i}] = {c} outside 0..{num_latents - 1}")
        if isinstance(thresholds, PerLatentThresholds):
            if len(thresholds.families) != num_latents:
                raise ValueError(
                    f"{len(thresholds.families)} threshold families for {num_latents} latents"
                )
            missing = set(range(num_latents)) - set(coloring)
            if missing:
                raise ValueError(f"latents {sorted(missing)} never appear in the coloring")
        self._num_latents = num_latents
        self._coloring = coloring
        self._thresholds = thresholds
        # positions of each latent within one coloring cycle
        self._cycle_slots: list[list[int]] = [[] for _ in range(num_latents)]
        for slot, c in enumerate(coloring):
            self._cycle_slots[c].append(slot)
        self._metadata = self._build_metadata()

    @property
    def num_latents(self) -> int:
        return self._num_latents

    @property
    def metadata(self) -> AnalyticMetadata:
        return self._metadata

    def color(self, n: int) -> int:
        return self._coloring[(n - 1) % len(self._coloring)]

    def position(self, n: int) -> int:
        """1-based count of indices <= n sharing n's latent."""
        cyc = len(self._coloring)
        full, slot = divmod(n - 1, cyc)
        slots = self._cycle_slots[self._coloring[slot]]
        rank = sum(1 for s in slots if s <= slot)
        return full * len(slots) + rank

    def threshold(self, n: int) -> float:
        if isinstance(self._thresholds, GlobalThresholds):
            a = self._thresholds.family.value(n)
        else:
            j = self.color(n)
            a = self._thresholds.families[j].value(
                self.position(n) + self._thresholds.offsets[j]
            )
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"threshold a_{n} = {a!r} outside [0, 1]")
        return a

    def _first_position_at_or_after(self, n: int, latent: int) -> int:
        for i in range(n, n + len(self._coloring)):
            if self.color(i) == latent:
                return self.position(i)
        raise AssertionError("latent absent from coloring cycle")

    def _latent_intervals(self, w: WindowPattern) -> list[tuple[float, float]]:
        """Per-latent (excluded_below, included_up_to) bounds: U in (lo, hi]."""
        lo = [0.0] * self._num_latents
        hi = [1.0] * self._num_latents
        for idx, occur in w.constraints():
            j = self.color(idx)
            a = self.threshold(idx)
            if occur:
                hi[j] = min(hi[j], a)
            else:
                lo[j] = max(lo[j], a)
        return list(zip(lo, hi))

    def window_prob(self, w: WindowPattern) -> float:
        prob = 1.0
        for lo, hi in self._latent_intervals(w):
            prob *= max(0.0, hi - lo)
        return self._finish_prob(prob)

    def window_is_empty(self, w: WindowPattern) -> bool:
        return any(hi <= lo for lo, hi in self._latent_intervals(w))

    def first_occurrence_terms(self, n: int, count: int) -> np.ndarray:
        out = np.empty(count, dtype=float)
        excluded = [0.0] * self._num_latents  # running max of complement thresholds
        for k in range(count):
            j = self.color(n + k)
            a = self.threshold(n + k)
            term = max(0.0, min(1.0, a) - excluded[j])
            for i in range(self._num_latents):
                if i != j:
                    term *= 1.0 - excluded[i]
            out[k] = term
            excluded[j] = max(excluded[j], a)
        return out

    def all_complement_prob(self, n: int, length: int) -> float:
        excluded = [0.0] * self._num_latents
        for i in range(length):
            j = self.color(n + i)
            excluded[j] = max(excluded[j], self.threshold(n + i))
        prob = 1.0
        for e in excluded:
            prob *= 1.0 - e
        return self._finish_prob(prob)

    def sample_indicator_block(
        self, rng: np.random.Generator, lo: int, hi: int, count: int
    ) -> np.ndarray:
        u = rng.random((count, self._num_latents))
        cols = np.array([self.color(i) for i in range(lo, hi + 1)])
        thr = np.array([self.threshold(i) for i in range(lo, hi + 1)])
        return u[:, cols] <= thr

    def _families_with_start(self, n: int) -> list[tuple[SequenceFamily, int]]:
        """(family, first index it is evaluated at for global index >= n) per latent."""
        if isinstance(self._thresholds, GlobalThresholds):
            return [(self._thresholds.family, n)] * self._num_latents
        out = []
        for j in range(self._num_latents):
            p0 = self._first_position_at_or_after(n, j) + self._thresholds.offsets[j]
            out.append((self._thresholds.families[j], p0))
        return out

    def _build_metadata(self) -> AnalyticMetadata:
        if isinstance(self._thresholds, GlobalThresholds):
            fams = [self._thresholds.family]
            desc = (
                f"{self._num_latents} uniform latent(s), coloring cycle {list(self._coloring)},"
                f" thresholds {self._thresholds.family.describe()}"
            )
        else:
            fams = list(self._thresholds.families)
            parts = [
                f"latent {j}: {f.describe()} at position{self._thresholds.offsets[j]:+d}"
                for j, f in enumerate(fams)
            ]
            desc = (
                f"{self._num_latents} uniform latent(s), coloring cycle {list(self._coloring)}; "
                + "; ".join(parts)
            )

        limits = [f.limit() for f in fams]
        limit = limits[0] if all(l == limits[0] and l is not None for l in limits) else None

        def classifier(prefix_len: int) -> tuple[SeriesClass, str] | None:
            # Only the no-complement series is a plain marginal sum; windows with
            # complements interact across latents and are left to exact-zero and
            # tail-fit analysis.
            if prefix_len != 0:
                return None
            parts = [f.series_class(0) for f in fams]
            if any(p is None for p in parts):
                return None
            if any(p[0] is SeriesClass.DIVERGENT for p in parts):  # type: ignore[index]
                why = "; ".join(p[1] for p in parts if p[0] is SeriesClass.DIVERGENT)  # type: ignore[index]
                return SeriesClass.DIVERGENT, f"marginal sum diverges per latent family: {why}"
            why = "; ".join(p[1] for p in parts)  # type: ignore[index]
            return SeriesClass.CONVERGENT, f"marginal sum converges per latent family: {why}"

        def union_bound(n: int) -> float:
            # Exact per-latent collapse: the union of threshold events on one
            # latent is the single event at the supremum threshold.
            prob_none = 1.0
            for fam, start in self._families_with_start(n):
                sup = fam.tail_sup(start)
                if sup is None:
                    return 1.0
                prob_none *= 1.0 - min(1.0, sup)
            return 1.0 - prob_none

        return AnalyticMetadata(
            marginal_limit=limit,
            series_classifier=classifier,
            tail_union_bound=union_bound,
            description=desc,
        )


# ---------------------------------------------------------------------------
# marginal decay check


class DecayVerdict(enum.Enum):
    CERTIFIED_ZERO_LIMIT = "certified-zero-limit"
    LIKELY_ZERO_LIMIT = "likely-zero-limit"
    NOT_DECAYING = "not-decaying"
    INCONCLUSIVE = "inconclusive"


def default_decay_probes(n_max: int) -> list[int]:
    """Small indices, then powers of two with their successors up to n_max.

    Adjacent pairs catch periodic alternation (a 2-cycle chain has marginals
    0, 1, 0, 1, ... which single-parity probes would miss).
    """
    probes = {1, 2, 3, 4, 5}
    k = 8
    while k <= n_max:
        probes.add(k)
        if k + 1 <= n_max:
            probes.add(k + 1)
        k *= 2
    return sorted(p for p in probes if p <= max(n_max, 1))


def marginal_decay_check(
    model: EventSequenceModel,
    probes: Sequence[int] | None = None,
    tol: float = 1e-6,
) -> tuple[DecayVerdict, str]:
    """Decide whether P(A_n) -> 0.

    Certification comes only from analytic metadata.  Probing classifies
    LikelyZeroLimit (below tol at the largest probes, non-increasing trend)
    or NotDecaying (the running level persists), else Inconclusive.
    """
    if probes is None:
        probes = default_decay_probes(4096)
    probes = list(probes)
    if any(b <= a for a, b in zip(probes, probes[1:])):
        raise ValueError("decay probes must be strictly increasing")
    meta = model.metadata
    if meta.marginal_limit is not None:
        if meta.marginal_limit == 0.0:
            return DecayVerdict.CERTIFIED_ZERO_LIMIT, (
                f"analytic marginal limit 0 ({meta.description})"
            )
        return DecayVerdict.NOT_DECAYING, (
            f"analytic marginal limit {meta.marginal_limit:g} > 0"
        )
    vals = [model.marginal_prob(n) for n in probes]
    tail_len = max(4, len(vals) // 2)
    tail = vals[-tail_len:]
    if all(v < tol for v in tail) and all(
        b <= a + tol for a, b in zip(vals[-tail_len:], vals[-tail_len + 1 :])
    ):
        return DecayVerdict.LIKELY_ZERO_LIMIT, (
            f"marginals below {tol:g} at the {tail_len} largest probes, non-increasing"
        )
    half = len(tail) // 2
    early, late = tail[:half] or tail, tail[half:]
    if max(late) >= tol and max(late) >= 0.9 * max(early):
        return DecayVerdict.NOT_DECAYING, (
            f"marginal level persists near {max(late):.3g} across the largest probes"
        )
    return DecayVerdict.INCONCLUSIVE, (
        "probed marginals decrease but have not fallen below tolerance"
    )
