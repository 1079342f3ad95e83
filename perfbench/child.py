"""One fresh benchmark process: set-up, then closed-loop passes over a command list.

Run by perfbench/run.py as ``python3 perfbench/child.py CONFIG.json``.  The
clock starts before cantelli (and so numpy) is imported.  In "setup" mode the
child only times set-up; in "run" mode it then calls ``cantelli.cli.main`` for
every command, back to back, pass after pass, until the time budget is spent.
With tracing on it adds, after the untraced passes, one traced pass and one
pass that traces allocations only.

The child pins itself to one CPU, so the reference kernel (perfbench/reference.py)
runs where the work runs.  Set-up is followed by two kernel runs, and the untraced
passes run it between segments of at least ``SEGMENT_S`` seconds of commands;
each time is also reported scaled by the kernel times around it.
"""

from __future__ import annotations

import time

CLOCK_START = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def run_command(main, argv: list[str]) -> tuple[float, int | None, str, str | None]:
    """(seconds, exit code, report text, error) for one CLI call."""
    out = io.StringIO()
    error = None
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects flags by exiting
        error = f"SystemExit({exc.code!r})"
    except Exception:  # a raising command is a failed operation, not a crash
        error = traceback.format_exc(limit=3)
    return time.perf_counter() - start, code, out.getvalue(), error


# Commands run between two reference kernel runs take at least this long.
SEGMENT_S = 0.5


def run_pass(
    main, commands: list[list[str]], digests: dict[str, str], tracer=None, gauge=False
) -> dict:
    """Run the command list once and check every report.

    ``digests`` maps each command line to its first report's sha256; a later
    report that differs is a failure.  With ``gauge`` the reference kernel runs
    before the first command, after the last and between segments of at least
    ``SEGMENT_S`` seconds, and ``scaled_s`` is the pass time in reference
    seconds, each segment scaled by the kernel times on either side of it.
    """
    from reference import reference_s, scaled
    from workloads import check_report

    walls, problems, misses = [], [], 0
    references = [reference_s()] if gauge else []
    scaled_s = segment_s = 0.0
    for index, argv in enumerate(commands):
        line = " ".join(argv)
        if tracer is not None:
            tracer.command = f"c{index:02d}"
        seconds, code, text, error = run_command(main, argv)
        walls.append(seconds)
        segment_s += seconds
        if gauge and (segment_s >= SEGMENT_S or index == len(commands) - 1):
            references.append(reference_s())
            scaled_s += scaled(segment_s, references[-2], references[-1])
            segment_s = 0.0
        if error is not None:
            problems.append((line, [error]))
            continue
        digest = hashlib.sha256(text.encode()).hexdigest()
        found = []
        if digests.setdefault(line, digest) != digest:
            found.append("report differs from the first pass")
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            found.append(f"report is not JSON: {exc}")
        else:
            more, missed = check_report(argv, code, report)
            found += more
            misses += missed
        if found:
            problems.append((line, found))
    return {
        "wall_s": sum(walls),
        "scaled_s": scaled_s if gauge else None,
        "reference_s": references,
        "command_s": walls,
        "problems": problems,
        "misses": misses,
    }


def main() -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with open(sys.argv[1]) as fh:
        config = json.load(fh)
    sys.path.insert(0, config["src"])
    import cantelli
    import cantelli.cli  # noqa: F401 - the CLI entry point is part of a user's start-up
    import cantelli.specfile as specfile

    import_s = time.perf_counter() - CLOCK_START
    tracer = None
    if config["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    for path in config["specs"]:
        specfile.build_model(specfile.load_spec(path))
    setup_s = time.perf_counter() - CLOCK_START
    if tracer is not None:
        tracer.uninstall()
    from reference import reference_s, scaled

    references = [reference_s(), reference_s()]
    result = {
        "setup_s": setup_s,
        "setup_scaled_s": scaled(setup_s, *references),
        "setup_reference_s": references,
        "import_s": import_s,
        "cantelli_file": cantelli.__file__,
    }
    if config["mode"] == "run":
        result.update(run_passes(config, tracer))
    with open(config["result"], "w") as fh:
        json.dump(result, fh)
    return 0


def run_passes(config: dict, tracer) -> dict:
    import numpy
    import scipy
    from cantelli.cli import main as cli_main

    load_before = os.getloadavg()
    commands = config["commands"]
    digests: dict[str, str] = {}
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(cli_main, commands, digests, gauge=True))
        elapsed = time.perf_counter() - started
        typical = statistics.median(p["wall_s"] + sum(p["reference_s"]) for p in passes)
        if len(passes) >= config["min_passes"] and elapsed + typical > config["seconds"]:
            break
    out = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digests": digests,
        "provenance": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
        },
    }
    if tracer is not None:
        from tracer import Tracer

        tracer.install()
        out["traced_pass"] = run_pass(cli_main, commands, digests, tracer)
        tracer.uninstall()
        alloc_tracer = Tracer(alloc=True)
        alloc_tracer.install()
        out["alloc_pass"] = run_pass(cli_main, commands, digests, alloc_tracer)
        alloc_tracer.uninstall()
        out["trace"] = {
            "spans": tracer.spans,
            "aggregate": [
                [command, name, *row] for (command, name), row in tracer.aggregate.items()
            ],
            "alloc_spans": alloc_tracer.spans,
        }
    return out


if __name__ == "__main__":
    sys.exit(main())
