"""Workload command lists, seeded inputs and the closed-form output checks.

Standard library only: the parent process imports this module without
numpy, and the child uses the checks.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

SHIPPED = (
    "coin-half",
    "flipflop",
    "harmonic",
    "interleaved-nested",
    "markov-3state",
    "nested",
    "partial-maxima",
    "powerlaw-2",
)
CHAIN = "generated-chain16"
COMMANDS = ("analyze", "limsup", "simulate", "verify")
WORKLOADS = ("analyze-scaled", "limsup-far", "crosscheck", "defaults-matrix")

# Input sizes per profile.  "full" is what the benchmark measures: each pass
# of a workload takes a few seconds on a 2-core x86 box, so a 20 s run holds
# several passes and reports their median.  "smoke" is for perfbench/smoke.py.
SIZES = {
    "full": {
        "terms": 12000,
        "markov_schedule": "100000,500000,1000000",
        "latent_k_max": 32768,
        "harmonic_k_max": 131072,
        "count": 400000,
        "markov_horizon": 12,
        "indicator_horizon": 14,
        "setup_samples": 7,
        "min_passes": 3,
    },
    "smoke": {
        "terms": 2000,
        "markov_schedule": "1000,5000,10000",
        "latent_k_max": 1024,
        "harmonic_k_max": 4096,
        "count": 20000,
        "markov_horizon": 8,
        "indicator_horizon": 10,
        "setup_samples": 2,
        "min_passes": 1,
    },
}

# Contract tolerances of the repository's tests.
ENCLOSURE_TOL = 1e-12

# least m whose criterion concludes P(i.o.) = 0, from the models' closed forms
LEAST_M_IO_ZERO = {
    "interleaved-nested": 2,
    "nested": 1,
    "powerlaw-2": 0,
    "partial-maxima": 0,
    "markov-3state": None,
    "coin-half": None,
    "flipflop": None,
    "harmonic": None,
    CHAIN: None,
}


def chain_spec(seed: int, states: int = 16, denominator: int = 1024) -> dict:
    """A seeded irreducible chain whose rows are dyadic, so they sum to 1 exactly.

    Every transition entry is positive, so the chain is irreducible and
    aperiodic and its event set recurs: P(i.o.) = 1 and no criterion concludes.
    """
    rng = random.Random(seed)
    rows = []
    for _ in range(states):
        cuts = sorted(rng.sample(range(1, denominator), states - 1))
        widths = [b - a for a, b in zip([0, *cuts], [*cuts, denominator])]
        rows.append([w / denominator for w in widths])
    initial = [0.0] * states
    initial[rng.randrange(states)] = 1.0
    return {
        "name": CHAIN,
        "description": f"Seeded {states}-state chain (benchmark seed {seed}).",
        "model": {
            "family": "markov",
            "transition": rows,
            "initial": initial,
            "events": {"mode": "constant", "members": sorted(rng.sample(range(states), 4))},
        },
    }


def build(workload: str, seed: int, size: str, root: Path, out_dir: Path) -> dict:
    """Write the workload's generated inputs and return its commands and specs.

    Paths in the commands are relative to ``root``, the checkout the commands
    run in, so report digests are keyed the same way in every checkout.
    Command order is shuffled by the seed; the work each command does is not.
    """
    s = SIZES[size]
    spec = {name: f"specs/{name}.json" for name in SHIPPED}
    if workload == "analyze-scaled":
        spec[CHAIN] = (out_dir / f"{CHAIN}.json").relative_to(root).as_posix()
        (root / spec[CHAIN]).write_text(json.dumps(chain_spec(seed), indent=2) + "\n")
        names = ["powerlaw-2", "interleaved-nested", CHAIN]
        commands = [
            ["analyze", spec[n], "--terms", str(s["terms"]), "--m-max", "3"] for n in names
        ]
    elif workload == "limsup-far":
        names = ["markov-3state", "interleaved-nested", "harmonic"]
        commands = [
            ["limsup", spec["markov-3state"], "--schedule", s["markov_schedule"]],
            ["limsup", spec["interleaved-nested"], "--k-max", str(s["latent_k_max"])],
            ["limsup", spec["harmonic"], "--k-max", str(s["harmonic_k_max"])],
        ]
    elif workload == "crosscheck":
        names = ["markov-3state", "interleaved-nested", "powerlaw-2"]
        commands = [
            ["simulate", spec[n], "--count", str(s["count"]), "--seed", str(seed)] for n in names
        ]
        commands += [
            ["verify", spec["markov-3state"], "--horizon", str(s["markov_horizon"])],
            ["verify", spec["interleaved-nested"], "--horizon", str(s["indicator_horizon"])],
            ["verify", spec["powerlaw-2"], "--horizon", str(s["indicator_horizon"])],
        ]
    elif workload == "defaults-matrix":
        names = list(SHIPPED)
        commands = [[c, spec[n]] for n in names for c in COMMANDS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(commands)
    return {"specs": [spec[n] for n in names], "commands": commands}


# ---------------------------------------------------------------------------
# output checks


def exact_tail_union(name: str, n: int) -> float | None:
    """u_n = P(some A_j, j >= n) in closed form, or None when there is none."""
    if name in ("coin-half", "flipflop", "harmonic", "markov-3state"):
        return 1.0  # recurrent chains and divergent independent series
    if name in ("nested", "powerlaw-2"):
        # nested: one latent, sup of thresholds 1/j is 1/n; powerlaw-2 telescopes:
        # prod_{j>=n} (1 - 1/j^2) = (n - 1) / n
        return 1.0 / n
    if name == "interleaved-nested":
        # latent 0 holds odd indices j with threshold 1/((j+1)/2 - 1) (1 when
        # that is <= 0); latent 1 holds even j with threshold 1/(j/2); the union
        # on each latent is the event at its first index >= n
        odd = n if n % 2 else n + 1
        even = n if n % 2 == 0 else n + 1
        k0 = (odd + 1) // 2 - 1
        a = 1.0 if k0 <= 0 else 1.0 / k0
        b = 1.0 / (even // 2)
        return 1.0 - (1.0 - a) * (1.0 - b)
    return None


def tail_union_bracket(name: str, n: int) -> tuple[float, float] | None:
    """Closed-form bracket of u_n for independent power laws without a closed form."""
    if name == "partial-maxima":
        # P(A_j) = j^-1.5; S = sum_{j>=n} j^-1.5 lies in [2/sqrt(n), n^-1.5 + 2/sqrt(n)],
        # and 1 - exp(-S) <= u_n <= S
        lo_sum = 2.0 / n**0.5
        hi_sum = n**-1.5 + lo_sum
        return 1.0 - math.exp(-lo_sum), min(1.0, hi_sum)
    return None


def check_report(argv: list[str], code: int, report: dict) -> tuple[list[str], int]:
    """Problems found in one command's report, and its strict enclosure misses.

    A strict miss is a limsup interval whose upper end lies below the exact
    u_n with no tolerance; it is counted, not failed, when within tolerance.
    """
    command = argv[0]
    name = report.get("spec", {}).get("name")
    results = report.get("results", {})
    problems: list[str] = []
    misses = 0
    if code != 0:
        problems.append(f"exit code {code}")
    if command == "analyze":
        want = LEAST_M_IO_ZERO.get(name, "unknown spec")
        got = results.get("least_m_io_zero")
        if got != want:
            problems.append(f"least_m_io_zero {got!r}, expected {want!r}")
    elif command == "limsup":
        for sample in results.get("samples", []):
            n = sample["start"]
            lo, hi = sample["interval"]
            exact = exact_tail_union(name, n)
            if exact is not None:
                if not lo - ENCLOSURE_TOL <= exact <= hi + ENCLOSURE_TOL:
                    problems.append(f"u_{n} = {exact!r} outside [{lo!r}, {hi!r}]")
                misses += hi < exact
                continue
            bracket = tail_union_bracket(name, n)
            if bracket is None:
                problems.append(f"no closed form for u_{n} of {name!r}")
            elif hi < bracket[0] - ENCLOSURE_TOL or lo > bracket[1] + ENCLOSURE_TOL:
                problems.append(f"[{lo!r}, {hi!r}] misses the bracket {bracket!r} of u_{n}")
        if not results.get("samples"):
            problems.append("no limsup samples")
    elif command == "simulate":
        if results.get("flagged") != 0:
            problems.append(f"{results.get('flagged')!r} Monte Carlo checks flagged")
    elif command == "verify":
        if results.get("mismatches") != 0:
            problems.append(f"{results.get('mismatches')!r} oracle mismatches")
    return problems, misses
