"""Benchmark of the cantelli CLI: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analyze-scaled --seed 1 --seconds 20 --trace 0

Each run starts fresh child processes that import cantelli from the
checkout's ``src/`` with BLAS/OpenMP threads pinned to 1.  Set-up (import plus
``load_spec``/``build_model`` of the workload's specs) is timed in several
children and reported as the median.  One child then calls
``cantelli.cli.main`` on the workload's commands back to back, one client in a
closed loop, pass after pass until ``--seconds`` is spent; ``wall_s`` is the
median pass time.  Both times are scaled by a reference kernel timed next to
them (perfbench/reference.py), which takes out the host's changing speed.
Every report is checked against closed-form facts of its
inputs (perfbench/workloads.py).  With ``--trace 1`` the child adds one traced
pass and one allocation pass (perfbench/tracer.py) and the run prints the
per-layer metrics instead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the metric names and units are those
BENCHMARK.json lists for the mode.  The full record of a run (provenance, report
digests, pass times, failures, trace) is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from tracer import command_self_seconds, layer_values  # noqa: E402
from workloads import SIZES, WORKLOADS, build  # noqa: E402

# A run must end within 180 s; children get what is left of this budget.
TIME_BUDGET_S = 170.0
PINNED_THREADS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in PINNED_THREADS})
    env.pop("PYTHONPATH", None)  # cantelli comes only from the checkout's src/
    return env


def spawn(config: dict, path: Path, deadline: float) -> dict:
    """Run one child on ``config`` and return the result it wrote."""
    path.write_text(json.dumps(config))
    result = Path(config["result"])
    result.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(path)],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed("child process ran past the time budget") from None
    if proc.returncode != 0:
        raise ChildFailed(f"child exited with {proc.returncode}: {proc.stderr[-2000:]}")
    data = json.loads(result.read_text())
    src = (ROOT / "src").resolve()
    if not Path(data["cantelli_file"]).resolve().is_relative_to(src):
        raise ChildFailed(f"cantelli imported from {data['cantelli_file']}, not {src}")
    return data


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
    )
    return proc.stdout.strip() or None


def source_sha256() -> str:
    """Digest of the package sources, which names the code where git does not."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cantelli").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def measure(args: argparse.Namespace) -> dict:
    deadline = time.monotonic() + TIME_BUDGET_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    printed = spec["per_layer"] if args.trace else spec["end_to_end"]
    size = SIZES[args.size]
    suffix = "" if args.size == "full" else f"-{args.size}"
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}"
    out_dir.mkdir(parents=True, exist_ok=True)
    work = build(args.workload, args.seed, args.size, ROOT, out_dir)
    base = {"src": str(ROOT / "src"), "specs": work["specs"], "mode": "setup", "trace": 0}

    def setup_sample(i: int) -> dict:
        config = {**base, "result": str(out_dir / f"setup{i}.json")}
        return spawn(config, out_dir / f"setup{i}-config.json", deadline)

    # The extra set-up children run before and after the measuring child, so
    # on a host whose speed drifts the median covers the whole run.
    extra = 0 if args.trace else size["setup_samples"] - 1
    setup_samples = [setup_sample(i) for i in range(extra // 2)]
    config = {
        **base,
        "mode": "run",
        "trace": args.trace,
        "commands": work["commands"],
        "seconds": args.seconds,
        "min_passes": size["min_passes"],
        "result": str(out_dir / "child.json"),
    }
    child = spawn(config, out_dir / "child-config.json", deadline)
    setup_samples.append(child)
    setup_samples += [setup_sample(i) for i in range(extra // 2, extra)]

    passes = child["passes"] + ([child["traced_pass"], child["alloc_pass"]] if args.trace else [])
    attempted = len(work["commands"]) * len(passes)
    failed = sum(len(p["problems"]) for p in passes)
    walls = [p["wall_s"] for p in child["passes"]]
    scaled_walls = [p["scaled_s"] for p in child["passes"]]
    wall_s = statistics.median(scaled_walls)
    setup_scaled = [s["setup_scaled_s"] for s in setup_samples]
    if args.trace:
        trace = child["trace"]
        traced = child["traced_pass"]
        values = layer_values(
            [m["name"] for m in printed], trace["spans"], trace["aggregate"], trace["alloc_spans"]
        )
        values["setup.import_s"] = child["import_s"]
        values["limsup.enclosure_strict_misses"] = traced["misses"]
        values["trace.overhead_s"] = traced["wall_s"] - statistics.median(walls)
        self_s = command_self_seconds(trace["aggregate"])
        per_command = [
            {"command": " ".join(argv), "wall_s": wall, "self_s": self_s.get(f"c{i:02d}", 0.0)}
            for i, (argv, wall) in enumerate(zip(work["commands"], traced["command_s"]))
        ]
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": child["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
        }
        per_command = None
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in printed}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_sha256(),
        "cantelli_file": child["cantelli_file"],
        "provenance": child["provenance"],
        "commands": [" ".join(argv) for argv in work["commands"]],
        "report_sha256": child["digests"],
        "pass_wall_s": walls,
        "pass_wall_quartiles_s": quartiles(walls),
        "pass_scaled_s": scaled_walls,
        "pass_reference_s": [p["reference_s"] for p in child["passes"]],
        "pass_command_s": [p["command_s"] for p in child["passes"]],
        "setup_samples_s": [s["setup_s"] for s in setup_samples],
        "setup_scaled_s": setup_scaled,
        "setup_reference_s": [s["setup_reference_s"] for s in setup_samples],
        "strict_enclosure_misses_per_pass": [p["misses"] for p in passes],
        "problems": [problem for p in passes for problem in p["problems"]],
        "per_command_traced": per_command,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }
    (out_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    print(
        f"{args.workload} seed={args.seed}: {len(walls)} passes of {len(work['commands'])}"
        f" commands, scaled pass median {wall_s:.3f} s (quartiles"
        f" {', '.join(f'{q:.3f}' for q in quartiles(scaled_walls))}; raw"
        f" {', '.join(f'{q:.3f}' for q in quartiles(walls))}), scaled set-up samples"
        f" {', '.join(f'{s:.3f}' for s in setup_scaled)} s,"
        f" fail_frac {failed}/{attempted}, strict enclosure misses {passes[0]['misses']}"
    )
    for line, found in record["problems"]:
        print(f"FAILED {line}: {'; '.join(found)}")
    print(f"record: {(out_dir / 'record.json').relative_to(ROOT)}")
    return record["result"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input sizes; 'smoke' is for perfbench/smoke.py")
    args = parser.parse_args()
    if not (ROOT / "src" / "cantelli" / "__init__.py").is_file():
        print(f"error: no cantelli sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
