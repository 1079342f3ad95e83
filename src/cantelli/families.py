"""Deterministic sequence families used for marginal probabilities and latent thresholds.

A family maps an index ``n >= 1`` to a value in ``[0, 1]``.  Besides pointwise
evaluation (``value``) and its array form over an index range (``values``),
each family knows what can be said about itself in closed form:
its limit, an upper bound on its tail sum, the supremum of its tail, and a
convergence/divergence classification of the window series it induces under an
independent model.  Those closed forms are what turns a "Likely" verdict into a
"Certified" one downstream, so every classification carries its justification.
"""

from __future__ import annotations

import enum
import math
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np


class SeriesClass(enum.Enum):
    """Closed-form classification of a nonnegative series."""

    CONVERGENT = "convergent"
    DIVERGENT = "divergent"


class SequenceIndexError(ValueError):
    """An explicit-list family was queried past its declared range."""


class ModelValueError(ValueError):
    """A constructor argument of a family or model breaks the object's rules.

    ``field`` names the offending entry relative to the object, with the key a
    spec file gives it (``scale``, ``values[3]``, ``transition[1]``), so a spec
    loader can prefix the path of the object.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


def clamp01(x: float) -> float:
    if x != x:
        raise ValueError("sequence family produced NaN")
    if x < 0.0:
        return 0.0
    if x > 1.0:
        return 1.0
    return x


def _clamp01_array(x: np.ndarray) -> np.ndarray:
    """``clamp01`` elementwise, keeping every value ``clamp01`` keeps bit for bit."""
    if np.isnan(x).any():
        raise ValueError("sequence family produced NaN")
    return np.where(x < 0.0, 0.0, np.where(x > 1.0, 1.0, x))


def _powers(bases: np.ndarray, exponent: float) -> np.ndarray:
    """``b ** exponent`` per base, bit for bit what Python's float pow returns.

    ``np.float_power`` runs the C library's ``pow`` once per element, the
    call ``float.__pow__`` makes; ``np.power`` may dispatch float64 to a SIMD
    kernel that differs from it in the last ulp, and the array path must
    reproduce ``value`` exactly.  A power past the float range is ``+inf``
    (with numpy's overflow warning, which callers silence), where
    ``float.__pow__`` raises ``OverflowError``.
    """
    return np.float_power(bases, exponent)


class SequenceFamily(ABC):
    """Index -> probability map with optional closed-form analysis.

    ``value(n)`` must be pure and defined for all n >= 1.  Indices n <= 0 occur
    only through per-latent index offsets; families saturate there (the value a
    growing formula would clamp to) rather than raising.
    """

    @abstractmethod
    def value(self, n: int) -> float:
        """The n-th value, clamped to [0, 1]."""

    def values(self, lo: int, hi: int) -> np.ndarray:
        """``value(n)`` for n = lo..hi as a float array, bit-identical to ``value``."""
        return np.array([self.value(n) for n in range(lo, hi + 1)], dtype=float)

    @abstractmethod
    def limit(self) -> float | None:
        """lim value(n), or None when unknown/undefined."""

    @abstractmethod
    def describe(self) -> str:
        """Human-readable formula, including any clamping note."""

    def tail_sum_bound(self, n: int) -> float | None:
        """Upper bound on sum_{j >= n} value(j); None when no finite bound exists.

        A family's bound is None at every n or at none: whether the tail sum is
        finite does not depend on where it starts.
        """
        return None

    def tail_sup(self, n: int) -> float | None:
        """Upper bound on sup_{j >= n} value(j); None when unknown."""
        return None

    def series_class(self, prefix_len: int) -> tuple[SeriesClass, str] | None:
        """Classify sum_n (prod of prefix_len complements) * value(n + prefix_len).

        Returns (class, justification) for the window series induced by an
        independent model with these marginals, or None when the family admits
        no closed-form answer.  The term is a product of ``prefix_len``
        complement factors and one occurrence factor.
        """
        return None


def _constant_series_class(c: float, prefix_len: int, source: str) -> tuple[SeriesClass, str]:
    if c == 0.0:
        return SeriesClass.CONVERGENT, f"{source}: all terms are exactly zero"
    if c == 1.0 and prefix_len >= 1:
        return (
            SeriesClass.CONVERGENT,
            f"{source}: complement factors are exactly zero, so every term vanishes",
        )
    return (
        SeriesClass.DIVERGENT,
        f"{source}: terms are constant at {(1.0 - c) ** prefix_len * c:.6g} > 0",
    )


@dataclass(frozen=True)
class Constant(SequenceFamily):
    """value(n) = c for all n."""

    c: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.c <= 1.0:
            raise ModelValueError("value", f"{self.c} outside [0, 1]")

    def value(self, n: int) -> float:
        return self.c

    def values(self, lo: int, hi: int) -> np.ndarray:
        return np.full(max(hi - lo + 1, 0), self.c, dtype=float)

    def limit(self) -> float | None:
        return self.c

    def tail_sum_bound(self, n: int) -> float | None:
        return 0.0 if self.c == 0.0 else None

    def tail_sup(self, n: int) -> float | None:
        return self.c

    def series_class(self, prefix_len: int) -> tuple[SeriesClass, str] | None:
        return _constant_series_class(self.c, prefix_len, f"constant p = {self.c}")

    def describe(self) -> str:
        return f"constant p_n = {self.c}"


@dataclass(frozen=True)
class _PowerType(SequenceFamily):
    """value(n) = clamp(scale * b(n)**(-exponent)) for a base b(n) that grows to infinity.

    Subclasses give b through ``_base`` and its array form ``_bases``.  The
    constructor is the one check of ``scale``.  A power past the float range
    counts as ``+inf``, so the value clamps to 1.  At offset indices n <= 0 the
    formula blows up (exponent > 0) or vanishes (exponent < 0); the family
    saturates there to the value it clamps to.
    """

    scale: float
    exponent: float

    def __post_init__(self) -> None:
        if not self.scale >= 0.0:
            raise ModelValueError("scale", f"must be nonnegative, got {self.scale!r}")
        if 0.0 < self.scale < sys.float_info.min:
            # a normal scale times a power past the float range is above 1,
            # which makes clamping an overflowed power to 1 exact
            raise ModelValueError(
                "scale", f"must be 0 or at least {sys.float_info.min!r}, got {self.scale!r}"
            )

    @staticmethod
    @abstractmethod
    def _base(n: float) -> float:
        """b(n) for one float index n >= 1."""

    @staticmethod
    @abstractmethod
    def _bases(ns: np.ndarray) -> np.ndarray:
        """``_base`` over a float array of indices n >= 1, bit for bit, as a float array."""

    def _saturated(self) -> float:
        if self.exponent == 0.0:
            return clamp01(self.scale)
        return 1.0 if self.exponent > 0.0 else 0.0

    def value(self, n: int) -> float:
        if self.scale == 0.0:
            return 0.0
        if n <= 0:
            return self._saturated()
        try:
            power = self._base(float(n)) ** (-self.exponent)
        except OverflowError:  # past the float range: +inf, as in values
            power = math.inf
        return clamp01(self.scale * power)

    def values(self, lo: int, hi: int) -> np.ndarray:
        if self.scale == 0.0:
            return np.zeros(max(hi - lo + 1, 0))
        ns = np.arange(max(lo, 1), hi + 1, dtype=float)
        with np.errstate(over="ignore"):  # overflow is +inf, which clamps to 1 as in value
            body = _clamp01_array(self.scale * _powers(self._bases(ns), -self.exponent))
        if lo >= 1:
            return body
        head = np.full(min(hi, 0) - lo + 1, self._saturated())
        return np.concatenate([head, body])

    def limit(self) -> float | None:
        if self.scale == 0.0 or self.exponent > 0.0:
            return 0.0
        return clamp01(self.scale) if self.exponent == 0.0 else 1.0

    def tail_sup(self, n: int) -> float | None:
        if self.scale == 0.0 or self.exponent <= 0.0:
            return self.limit()
        return self.value(n)


class PowerLaw(_PowerType):
    """value(n) = clamp(scale * n**(-exponent))."""

    @staticmethod
    def _base(n: float) -> float:
        return n

    @staticmethod
    def _bases(ns: np.ndarray) -> np.ndarray:
        return ns

    def tail_sum_bound(self, n: int) -> float | None:
        if self.scale == 0.0:
            return 0.0
        if self.exponent <= 1.0:
            return None
        # Integral test: sum_{j>=m} j^-s <= m^-s + m^(1-s)/(s-1); clamping only
        # lowers terms.  Indices n..0 saturate to 1 and add one each.
        m = max(n, 1)
        s = self.exponent
        head = float(m - n)
        return head + self.scale * (float(m) ** (-s) + float(m) ** (1.0 - s) / (s - 1.0))

    def series_class(self, prefix_len: int) -> tuple[SeriesClass, str] | None:
        if self.scale == 0.0:
            return SeriesClass.CONVERGENT, "power law with zero scale: all terms zero"
        s = self.exponent
        name = f"p_n = min(1, {self.scale:g}*n^{-s:g})"
        if s > 1.0:
            return (
                SeriesClass.CONVERGENT,
                f"{name}: terms dominated by the p-series with exponent {s:g} > 1",
            )
        if s > 0.0:
            return (
                SeriesClass.DIVERGENT,
                f"{name}: terms eventually exceed a positive multiple of n^{-s:g}"
                " (complement factors tend to 1), a divergent p-series",
            )
        if s == 0.0:
            return _constant_series_class(clamp01(self.scale), prefix_len, name)
        if prefix_len >= 1:
            return (
                SeriesClass.CONVERGENT,
                f"{name}: marginals clamp to 1 eventually, so complement factors"
                " are exactly zero from some index on",
            )
        return SeriesClass.DIVERGENT, f"{name}: marginals clamp to 1 eventually"

    def describe(self) -> str:
        base = f"power-law p_n = min(1, {self.scale:g}*n^{-self.exponent:g})"
        if self.scale > 1.0 or self.exponent < 0.0:
            base += " (head values clamped to 1)"
        return base


class LogPower(_PowerType):
    """value(n) = clamp(scale * ln(n+1)**(-exponent)); decays slower than any power."""

    @staticmethod
    def _base(n: float) -> float:
        return math.log(n + 1.0)

    @staticmethod
    def _bases(ns: np.ndarray) -> np.ndarray:
        # math.log per element: np.log differs from it in the last ulp on some
        # hosts, and values() must reproduce value() bit for bit
        return np.fromiter(map(math.log, ns + 1.0), dtype=float, count=ns.size)

    def tail_sum_bound(self, n: int) -> float | None:
        return 0.0 if self.scale == 0.0 else None

    def series_class(self, prefix_len: int) -> tuple[SeriesClass, str] | None:
        if self.scale == 0.0:
            return SeriesClass.CONVERGENT, "log-power with zero scale: all terms zero"
        e = self.exponent
        name = f"p_n = min(1, {self.scale:g}*ln(n+1)^{-e:g})"
        if e > 0.0:
            return (
                SeriesClass.DIVERGENT,
                f"{name}: log powers grow slower than any n^eps, so terms eventually"
                " exceed n^-1/2 times a constant, a divergent p-series",
            )
        if e == 0.0:
            return _constant_series_class(clamp01(self.scale), prefix_len, name)
        if prefix_len >= 1:
            return (
                SeriesClass.CONVERGENT,
                f"{name}: marginals clamp to 1 eventually, complement factors vanish",
            )
        return SeriesClass.DIVERGENT, f"{name}: marginals clamp to 1 eventually"

    def describe(self) -> str:
        base = f"log-power p_n = min(1, {self.scale:g}*ln(n+1)^{-self.exponent:g})"
        if self.exponent < 0.0 or self.value(1) == 1.0 and self.scale > 0.0:
            base += " (head values clamped to 1)"
        return base


@dataclass(frozen=True)
class ExplicitList(SequenceFamily):
    """A finite ``head`` of values followed by a constant ``tail``.

    A missing tail makes indices past the list undefined; querying them raises
    SequenceIndexError (a malformed-model signal, not a numeric fault).
    """

    head: tuple[float, ...]
    tail: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "head", tuple(float(v) for v in self.head))
        for i, v in enumerate(self.head):
            if not 0.0 <= v <= 1.0:
                raise ModelValueError(f"values[{i}]", f"{v} outside [0, 1]")
        if self.tail is not None and not 0.0 <= self.tail <= 1.0:
            raise ModelValueError("tail", f"{self.tail} outside [0, 1]")

    def value(self, n: int) -> float:
        if n <= 0:
            raise SequenceIndexError(f"explicit list queried at index {n} < 1")
        if n <= len(self.head):
            return self.head[n - 1]
        if self.tail is None:
            raise self._past_end(n)
        return self.tail

    def values(self, lo: int, hi: int) -> np.ndarray:
        if lo > hi:
            return np.zeros(0)
        if lo <= 0:
            raise SequenceIndexError(f"explicit list queried at index {lo} < 1")
        past = max(hi - max(lo - 1, len(self.head)), 0)
        if past and self.tail is None:
            raise self._past_end(max(lo, len(self.head) + 1))
        return np.array(self.head[lo - 1 : hi] + (self.tail,) * past, dtype=float)

    def _past_end(self, n: int) -> SequenceIndexError:
        return SequenceIndexError(
            f"explicit list of length {len(self.head)} queried at index {n}"
            " with no tail declared"
        )

    def limit(self) -> float | None:
        return self.tail

    def tail_sum_bound(self, n: int) -> float | None:
        if self.tail != 0.0:
            return None
        start = max(n, 1)
        return math.fsum(self.head[start - 1 :]) if start <= len(self.head) else 0.0

    def tail_sup(self, n: int) -> float | None:
        if self.tail is None:
            return None
        start = max(n, 1)
        rest = self.head[start - 1 :]
        return max([self.tail, *rest]) if rest else self.tail

    def series_class(self, prefix_len: int) -> tuple[SeriesClass, str] | None:
        if self.tail is None:
            return None
        if self.tail == 0.0:
            return (
                SeriesClass.CONVERGENT,
                "explicit list with zero tail: terms vanish beyond the declared prefix",
            )
        return _constant_series_class(
            self.tail, prefix_len, f"explicit list with constant tail {self.tail}"
        )

    def describe(self) -> str:
        head = ", ".join(f"{v:g}" for v in self.head[:6])
        if len(self.head) > 6:
            head += ", ..."
        tail = "no tail" if self.tail is None else f"tail {self.tail:g}"
        return f"explicit [{head}] ({len(self.head)} values, {tail})"
