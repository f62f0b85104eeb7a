"""Do two sets of runs of one workload agree within the benchmark's bounds?

    python3 perfbench/stability.py --workload sweep-pooled --runs 5 --out FILE

Runs ``perfbench/run.py`` ``2 x --runs`` times, alternating set A and
set B (and which of the pair goes first), each run with its own seed.
Prints a host block, then per end-to-end metric each set's median and
quartiles, the shift of B's median against A's, the spread of all runs
together (quartile distance over median), and whether the sets agree:
B's median no worse than A's by more than the metric's bound and,
except for ``setup_s``, the spread of each set within the bound.  Exit
status 1 when they do not.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[1]


def steal_ticks() -> int:
    """Cumulative ``steal`` ticks of all CPUs (field 8 of ``/proc/stat``)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return -1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def calibration_s() -> float:
    """Best of three passes of a fixed Python + numpy loop (lower = faster host)."""
    import numpy as np

    rng = np.random.default_rng(0)
    data = rng.random(1_000_000)
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i % 7
        np.sort(data)
        best = min(best, time.perf_counter() - started)
    return best


def one_run(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=900,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"run seed {seed} exited {completed.returncode}:\n{completed.stderr[-3000:]}"
        )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    result["seed"] = seed
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--out", type=Path, help="also write the report here")
    args = parser.parse_args(argv)

    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    import numpy

    lines = [
        f"stability: workload {args.workload}, {args.runs} runs per set, {seconds}s per run",
        f"host: {len(os.sched_getaffinity(0))} cores, {cpu_model()}",
        f"python {platform.python_version()}, numpy {numpy.__version__}",
        f"calibration loop before: {calibration_s():.4f}s",
    ]
    steal_before = steal_ticks()
    sets: dict[str, list[dict]] = {"A": [], "B": []}
    for index in range(args.runs):
        order = ("A", "B") if index % 2 == 0 else ("B", "A")
        for name in order:
            seed = 1 + 2 * index + (name == "B")
            sets[name].append(one_run(args.workload, seed, seconds))
    lines.append(f"calibration loop after: {calibration_s():.4f}s")
    lines.append(f"steal ticks over the runs: {steal_ticks() - steal_before}")
    for name, runs in sets.items():
        lines.append(
            f"set {name}: seeds {[r['seed'] for r in runs]}, "
            f"run wall {[round(r['wall_s'], 1) for r in runs]}"
        )

    agree = True
    shares = {Fraction(r["failed"], r["attempted"]) for r in sets["A"] + sets["B"]}
    correct = all(r["correct"] for r in sets["A"] + sets["B"])
    lines.append(f"all runs correct: {correct}; failed shares: {sorted(map(str, shares))}")
    agree &= correct and len(shares) == 1
    pooled_header = f"all {2 * args.runs}"
    lines.append(
        f"{'metric':<14}{'bound':>6}  {'A median [q1, q3] spread':<36}"
        f"{'B median [q1, q3] spread':<36}{'B vs A':>8}{pooled_header:>8}  verdict"
    )
    runs_values = ["per-run values, in run order:"]
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        row = {}
        for set_name, runs in sets.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = quartiles(values)
            row[set_name] = (q1, median, q3, (q3 - q1) / median)
        pooled = quartiles([r["metrics"][name]["value"] for r in sets["A"] + sets["B"]])
        pooled_spread = (pooled[2] - pooled[0]) / pooled[1]
        shift = (row["B"][1] - row["A"][1]) / row["A"][1]
        worse = shift if metric["better"] == "lower" else -shift
        widest = max(row["A"][3], row["B"][3], pooled_spread)
        ok = worse <= bound and (name == "setup_s" or max(row["A"][3], row["B"][3]) <= bound)
        agree &= ok
        if not ok:
            verdict = "DISAGREE"
        elif name != "setup_s" and widest > bound / 3:
            verdict = "agree; spread above a third of the bound"
        else:
            verdict = "agree"
        cells = [
            f"{row[s][1]:.4g} [{row[s][0]:.4g}, {row[s][2]:.4g}] {row[s][3]:6.1%}"
            for s in ("A", "B")
        ]
        lines.append(
            f"{name:<14}{bound:>6.2f}  {cells[0]:<36}{cells[1]:<36}"
            f"{shift:>+8.1%}{pooled_spread:>8.1%}  {verdict}"
        )
        runs_values.append(
            f"  {name}: A " + " ".join(f"{r['metrics'][name]['value']:.4g}" for r in sets["A"])
            + " | B " + " ".join(f"{r['metrics'][name]['value']:.4g}" for r in sets["B"])
        )
    lines.extend(runs_values)
    lines.append(f"verdict: {'the two sets agree' if agree else 'the two sets DISAGREE'}")
    report = "\n".join(lines) + "\n"
    print(report, end="")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(report, encoding="utf-8")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
