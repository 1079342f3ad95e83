"""Smoke test of the benchmark itself, at reduced input sizes.

    python3 perfbench/smoke.py

Runs every workload once untraced and twice traced (same seed) with
``--size smoke`` and checks that:

* every run is correct;
* count metrics are identical across the two traced runs;
* per command, the traced self times sum to no more than the command's wall
  time, and, for commands of at least ``SHARE_MIN_WALL_S``, to at least
  ``MIN_TRACED_SHARE`` of it: less means most of the command ran outside
  any wrapper, as when the tracer installs nothing (in shorter commands
  argument parsing outside the wrappers can take half the time);
* every per-layer metric is nonzero on at least one workload, which fails
  when a wrapper is missing or a module binding is left unpatched (self times
  telescope to the outermost ``cli.*`` span, so their sum cannot show that).

run.py takes the metric names and units it prints from BENCHMARK.json and
stops with an error when one has no value, so they need no check here.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from workloads import WORKLOADS  # noqa: E402

SEED = 7
# Share of a command's wall time its traced self times must cover at least.
MIN_TRACED_SHARE = 0.5
SHARE_MIN_WALL_S = 0.02


def run(workload: str, trace: int) -> tuple[dict, dict]:
    """(printed result, run record) of one smoke-sized run."""
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "smoke",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (HERE / "out" / f"{workload}-seed{SEED}-trace{trace}-smoke" / "record.json").read_text()
    )
    return result, record


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        print("BENCHMARK.json workloads differ from perfbench/workloads.py")
        return 1
    failures = []
    nonzero: set[str] = set()
    for workload in WORKLOADS:
        results = {}
        for trace, label in ((0, "untraced"), (1, "traced"), (1, "traced again")):
            result, record = run(workload, trace)
            results[label] = (result, record)
            if not result["correct"] or result["failed"]:
                failures.append(f"{workload} {label}: {record['problems']}")
            for row in record["per_command_traced"] or []:
                if row["self_s"] > row["wall_s"]:
                    failures.append(
                        f"{workload} {label}: self times {row['self_s']} s exceed"
                        f" wall {row['wall_s']} s for {row['command']}"
                    )
                short = row["wall_s"] < SHARE_MIN_WALL_S
                if not short and row["self_s"] < MIN_TRACED_SHARE * row["wall_s"]:
                    failures.append(
                        f"{workload} {label}: self times {row['self_s']} s cover less than"
                        f" {MIN_TRACED_SHARE} of wall {row['wall_s']} s for {row['command']}"
                    )
        first, second = results["traced"][0]["metrics"], results["traced again"][0]["metrics"]
        nonzero |= {name for name, metric in first.items() if metric["value"]}
        for name, metric in first.items():
            if metric["unit"] == "count" and metric["value"] != second[name]["value"]:
                failures.append(
                    f"{workload}: count {name} differs: {metric['value']} vs"
                    f" {second[name]['value']}"
                )
        print(f"{workload}: checked", flush=True)
    for metric in spec["per_layer"]:
        if metric["name"] not in nonzero:
            failures.append(f"{metric['name']} is 0 on every workload")
    for failure in failures:
        print("FAIL", failure)
    print("smoke test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
