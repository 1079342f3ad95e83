"""Span tracer that wraps cantelli's public functions from outside the package.

The package binds names with ``from .x import y``, so a function is replaced at
every module attribute that holds it, not only where it is defined.  Methods
are replaced on each class that defines them.  Per-term hot functions are
aggregated per (command, function); every other call keeps a span record with
its parent, so ratios such as doublings per ``tail_union`` come from the span
tree.  A tracer made with ``alloc=True`` wraps only the functions marked
``alloc`` and runs ``tracemalloc`` around their top-level spans; it belongs in
a pass of its own, because tracing allocations slows everything inside.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from dataclasses import dataclass
from typing import Any, Callable

@dataclass(frozen=True)
class Target:
    """One traced function.

    ``attr`` names a module-level function, or a method when ``base`` names a
    class: then every subclass of ``base`` defined in ``module`` that defines
    ``attr`` itself is wrapped.  ``hot`` marks per-term functions: they are
    counted and timed in aggregate, with no span records.  ``work_arg`` names the parameter whose value
    (or length, for sequences) is the work count; ``work_result`` computes it
    from the return value instead.
    """

    name: str
    module: str
    attr: str
    hot: bool = False
    base: str | None = None
    work_arg: str | None = None
    work_result: Callable[[Any], int] | None = None
    alloc: bool = False


TARGETS = (
    Target("specfile.load_spec", "cantelli.specfile", "load_spec"),
    Target("specfile.build_model", "cantelli.specfile", "build_model"),
    Target("models.init", "cantelli.models", "__init__", hot=True, base="EventSequenceModel"),
    Target("families.value", "cantelli.families", "value", hot=True, base="SequenceFamily"),
    Target("windows.pattern", "cantelli.windows", "__post_init__", hot=True, base="WindowPattern"),
    Target(
        "models.window_prob", "cantelli.models", "window_prob", hot=True,
        base="EventSequenceModel",
    ),
    Target(
        "models.window_is_empty", "cantelli.models", "window_is_empty", hot=True,
        base="EventSequenceModel",
    ),
    Target(
        "models.first_occurrence_terms", "cantelli.models", "first_occurrence_terms",
        base="EventSequenceModel", work_arg="count",
    ),
    Target(
        "models.all_complement_prob", "cantelli.models", "all_complement_prob",
        base="EventSequenceModel", work_arg="length",
    ),
    Target(
        "models.sample_indicator_block", "cantelli.models", "sample_indicator_block",
        base="EventSequenceModel", work_arg="count",
    ),
    Target("models.marginal_decay_check", "cantelli.models", "marginal_decay_check"),
    Target("criteria.sweep_prefix_len", "cantelli.criteria", "sweep_prefix_len"),
    Target("criteria.series_terms", "cantelli.criteria", "series_terms", work_arg="num_terms"),
    Target("criteria.classify_series", "cantelli.criteria", "classify_series"),
    Target("criteria.fit_tail", "cantelli.criteria", "fit_tail"),
    Target(
        "summation.compensated_cumsum", "cantelli.summation", "compensated_cumsum",
        work_arg="values",
    ),
    Target(
        "summation.compensated_sum", "cantelli.summation", "compensated_sum",
        work_arg="values",
    ),
    Target("limsup.limsup_estimate", "cantelli.limsup", "limsup_estimate"),
    Target(
        "limsup.tail_union", "cantelli.limsup", "tail_union",
        work_result=lambda estimate: estimate.truncation, alloc=True,
    ),
    Target("montecarlo.estimate_window_prob", "cantelli.montecarlo", "estimate_window_prob"),
    Target("montecarlo.estimate_tail_union", "cantelli.montecarlo", "estimate_tail_union"),
    Target("montecarlo.wilson_interval", "cantelli.montecarlo", "wilson_interval"),
    Target(
        "oracle.build_outcome_space", "cantelli.oracle", "build_outcome_space",
        work_result=lambda space: len(space.probs), alloc=True,
    ),
    Target("oracle.oracle_window_prob", "cantelli.oracle", "oracle_window_prob"),
    Target("oracle.oracle_union_prob", "cantelli.oracle", "oracle_union_prob"),
    Target("cli.analyze", "cantelli.cli", "cmd_analyze"),
    Target("cli.limsup", "cantelli.cli", "cmd_limsup"),
    Target("cli.simulate", "cantelli.cli", "cmd_simulate"),
    Target("cli.verify", "cantelli.cli", "cmd_verify"),
)


def _work_getter(fn, param: str):
    """Return f(args, kwargs) -> int reading ``param`` of ``fn``'s call."""
    params = list(inspect.signature(fn).parameters)
    index = params.index(param)

    def get(args, kwargs) -> int:
        value = args[index] if index < len(args) else kwargs[param]
        return len(value) if hasattr(value, "__len__") else int(value)

    return get


class Tracer:
    """Records spans and aggregates for the calls made while installed.

    ``command`` is the id of the command being run; every span and aggregate
    is keyed by it.  Spans are kept in memory until ``uninstall``.
    """

    def __init__(self, alloc: bool = False) -> None:
        self.alloc = alloc
        self.command = "setup"
        # span rows: [id, name, command, parent id, start, end, self, work, alloc MB]
        self.spans: list[list] = []
        # (command, name) -> [calls, total s, self s]
        self.aggregate: dict[tuple[str, str], list[float]] = {}
        self._stack: list[list] = []  # frames: [child seconds, span id or None]
        self._patched: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for target in TARGETS:
            if self.alloc and not target.alloc:
                continue
            module = sys.modules[target.module]
            if target.base is None:
                original = getattr(module, target.attr)
                wrapper = self._wrap(target, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "cantelli" or mod_name.startswith("cantelli."):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, wrapper)
            else:
                base = getattr(module, target.base)
                for cls in vars(module).values():
                    if (
                        isinstance(cls, type)
                        and issubclass(cls, base)
                        and cls.__module__ == target.module
                        and target.attr in vars(cls)
                    ):
                        self._patch(cls, target.attr, self._wrap(target, vars(cls)[target.attr]))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    # -- wrapping ---------------------------------------------------------

    def _close(self, name: str, frame: list, start: float) -> tuple[float, float]:
        """Pop ``frame``, credit its time to the parent and the aggregate.

        Returns (end time, self seconds).
        """
        end = time.perf_counter()
        elapsed = end - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += elapsed
        own = elapsed - frame[0]
        key = (self.command, name)
        row = self.aggregate.get(key)
        if row is None:
            row = self.aggregate[key] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += elapsed
        row[2] += own
        return end, own

    def _wrap(self, target: Target, fn):
        stack = self._stack
        clock = time.perf_counter
        name = target.name

        if target.hot:

            @functools.wraps(fn)
            def hot(*args, **kwargs):
                frame = [0.0, None]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(name, frame, start)

            return hot

        work_of_args = _work_getter(fn, target.work_arg) if target.work_arg else None
        spans = self.spans

        @functools.wraps(fn)
        def span(*args, **kwargs):
            span_id = len(spans)
            parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
            row = [span_id, name, self.command, parent, 0.0, 0.0, 0.0, None, None]
            spans.append(row)
            frame = [0.0, span_id]
            stack.append(frame)
            measure_alloc = self.alloc and not tracemalloc.is_tracing()
            if measure_alloc:
                tracemalloc.start()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                if measure_alloc:
                    row[8] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                end, own = self._close(name, frame, start)
                row[4], row[5], row[6] = start, end, own
            if work_of_args is not None:
                row[7] = work_of_args(args, kwargs)
            elif target.work_result is not None:
                row[7] = target.work_result(result)
            return result

        return span


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass

# span row fields
_NAME, _COMMAND, _PARENT, _WORK, _ALLOC = 1, 2, 3, 7, 8


def layer_values(
    names: list[str], spans: list[list], aggregate: list[list], alloc_spans: list[list]
) -> dict[str, float]:
    """Per-layer values of one traced run, except those the caller measures.

    ``names`` are the metrics to fill; a generic name ``<layer>.<field>`` is
    read from the layer's calls (``calls``), total time (``s``), self time
    (``self_s``) or work count (``terms``, ``paths``, ``values``).
    ``spans`` and ``aggregate`` come from the traced pass, ``alloc_spans``
    from the allocation pass.  ``aggregate`` rows are [command, name, calls,
    total s, self s]; set-up rows (command "setup") feed only the set-up layer.
    """
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    setup_calls: dict[str, int] = {}
    setup_total: dict[str, float] = {}
    for command, name, n, seconds, self_seconds in aggregate:
        if command == "setup":
            setup_calls[name] = setup_calls.get(name, 0) + n
            setup_total[name] = setup_total.get(name, 0.0) + seconds
            continue
        calls[name] = calls.get(name, 0) + n
        total[name] = total.get(name, 0.0) + seconds
        own[name] = own.get(name, 0.0) + self_seconds
    alloc: dict[str, float] = {}
    for row in alloc_spans:
        if row[_ALLOC] is not None:
            alloc[row[_NAME]] = max(alloc.get(row[_NAME], 0.0), row[_ALLOC])
    work: dict[str, int] = {}
    doublings = terms_evaluated = 0
    for row in spans:
        if row[_COMMAND] == "setup":
            continue
        name = row[_NAME]
        if row[_WORK] is not None:
            work[name] = work.get(name, 0) + row[_WORK]
        parent = row[_PARENT]
        if (
            name == "models.first_occurrence_terms"
            and parent is not None
            and spans[parent][_NAME] == "limsup.tail_union"
        ):
            doublings += 1
            terms_evaluated += row[_WORK]

    values: dict[str, float] = {
        "specfile.load_spec.s": setup_total.get("specfile.load_spec", 0.0),
        "specfile.build_model.s": setup_total.get("specfile.build_model", 0.0),
        "models.init.calls": setup_calls.get("models.init", 0),
        "limsup.doublings": doublings,
        "limsup.terms_evaluated": terms_evaluated,
        "limsup.useful_ratio": (
            work.get("limsup.tail_union", 0) / terms_evaluated if terms_evaluated else 0.0
        ),
        "limsup.tail_union.alloc_peak_mb": alloc.get("limsup.tail_union", 0.0),
        "oracle.build_outcome_space.alloc_peak_mb": alloc.get("oracle.build_outcome_space", 0.0),
        "oracle.atoms": work.get("oracle.build_outcome_space", 0),
        "cli.self_s": sum(v for k, v in own.items() if k.startswith("cli.")),
    }
    for metric in names:
        if metric in values:
            continue
        layer, _, field = metric.rpartition(".")
        if field == "calls":
            values[metric] = calls.get(layer, 0)
        elif field == "self_s":
            values[metric] = own.get(layer, 0.0)
        elif field == "s":
            values[metric] = total.get(layer, 0.0)
        elif field in ("terms", "paths", "values"):
            values[metric] = work.get(layer, 0)
    return values


def command_self_seconds(aggregate: list[list]) -> dict[str, float]:
    """Sum of every traced self time, per command id."""
    out: dict[str, float] = {}
    for command, _, _, _, self_seconds in aggregate:
        out[command] = out.get(command, 0.0) + self_seconds
    return out
