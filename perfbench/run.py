"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 40 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with no benchmark tracing; ``--trace 1`` also re-enacts each
round layer by layer and prints the per-layer metrics instead, writing
its spans to ``.perfbench-out/trace-<workload>-seed<seed>.json``.  The
metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
Exit status: 0 when every check held, 1 when a check failed or the
program raised, 2 when there is no program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from harness import CHECKOUT, SRC, CheckFailed, Run, Tracer, check  # noqa: E402

WORKLOADS = ("serve-warm", "sweep-pooled")

#: Set-up samples per run; the reported ``setup_s`` is their median.
#: Filling the cache simulates the full study, so ``serve-warm`` takes two.
SETUP_REPEATS = {"serve-warm": 2, "sweep-pooled": 3}

OUT_DIR = CHECKOUT / ".perfbench-out"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(run: Run) -> Path | None:
    """Time the workload's set-up several times; returns the served root."""
    served = None
    for _ in range(SETUP_REPEATS[run.workload]):
        if run.workload == "serve-warm":
            root = run.scratch("served-")
            run.record("setup_s", harness.setup_probe(run, "fill", str(root)))
            entries = list(root.glob("study-*.npz"))
            check(len(entries) == 1, f"set-up left {len(entries)} study entries")
            if served is not None:
                shutil.rmtree(served)
            served = root
        else:
            run.record("setup_s", harness.setup_probe(run, "import"))
    return served


def measure(run: Run, tracer: Tracer | None) -> None:
    served = set_up(run)
    if run.workload == "serve-warm":
        import serve_warm

        serve_warm.measure(run, tracer, served)
    else:
        import sweep_pooled

        sweep_pooled.measure(run, tracer)


def report(run: Run, spec: dict, correct: bool) -> dict:
    metrics = {}
    for metric in spec["per_layer" if run.trace else "end_to_end"]:
        name = metric["name"]
        value = harness.peak_rss_mb() if name == "peak_rss_mb" else run.median(name)
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    spec_path = CHECKOUT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no program to benchmark under {CHECKOUT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    root = OUT_DIR / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    harness.isolate_environment(root)
    sys.path.insert(0, str(SRC))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    tracer = Tracer(f"{args.workload}-seed{args.seed}-{os.getpid()}") if args.trace else None
    try:
        measure(run, tracer)
        correct = True
    except CheckFailed as error:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
        correct = False
    except Exception:  # noqa: BLE001 - the program raised: no result to report
        traceback.print_exc()
        return 1
    finally:
        if "repro.util.parallel" in sys.modules:
            sys.modules["repro.util.parallel"].shutdown_pool()
        shutil.rmtree(root, ignore_errors=True)
    if tracer is not None:
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    for note in run.notes:
        print(note)
    for name, values in sorted(run.samples.items()):
        print(f"{name}: " + " ".join(f"{value:.6g}" for value in values))
    print(json.dumps(report(run, spec, correct)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
