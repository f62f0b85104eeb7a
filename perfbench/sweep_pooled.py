"""``sweep-pooled``: a seed ensemble and a what-if on the warm pool.

One round runs the ``seed0-small`` preset (6 seeds x the 69-week pinned
window) through ``run_sweep`` at ``jobs=2`` (``job_s``), then the
``sav-adoption`` what-if (seeds 0-1) through ``run_whatif`` at
``jobs=2`` (``followup_cpu_s``; its wall time is ``followup_wall_s``).
Both share one fresh cache and ledger root, so the what-if's two
baseline legs are cache hits of the sweep's cells.  The pool is shut
down after each phase so its workers' CPU time is counted.
"""

from __future__ import annotations

import collections
import json
import math
import shutil
import statistics
import time
from pathlib import Path

import checks
import layers
import oracle
from harness import Run, Tracer, Wrapping, check, cpu_seconds

SWEEP_PRESET = "seed0-small"
WHATIF_PRESET = "sav-adoption"
SWEEP_CELLS = 6
WHATIF_CELLS = 4


def _specs():
    from repro.counterfactual import whatif_preset
    from repro.sweep.presets import preset

    return preset(SWEEP_PRESET), whatif_preset(WHATIF_PRESET)


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _ledger_cells(path: Path, n_cells: int) -> dict[int, dict]:
    """Cell records of a ledger; each index must appear exactly once."""
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]
    cells = [record for record in records if record.get("kind") == "cell"]
    counts = collections.Counter(record["index"] for record in cells)
    check(
        sorted(counts) == list(range(n_cells)) and set(counts.values()) == {1},
        f"ledger {path.name} cells not exactly once each: {dict(counts)}",
    )
    return {record["index"]: record for record in cells}


def _check_sweep(ledger: dict[int, dict]) -> None:
    for index, record in ledger.items():
        result = record["result"]
        check(result["conformance_ok"], f"sweep cell {index} does not conform")
        for label, weekly in result["main_weekly"].items():
            expected = oracle.trend_symbol(oracle.normalise(weekly))
            got = result["trends"][label]["symbol"]
            check(got == expected, f"cell {index} {label}: {got} but the oracle says {expected}")


def _check_whatif(pairing, ledger: dict[int, dict], report) -> None:
    from repro.sweep.spec import expand

    legs: dict[str, dict[int, dict]] = {"baseline": {}, "counterfactual": {}}
    for cell in expand(pairing.spec()):
        result = ledger[cell.index]["result"]
        check(result["conformance_ok"], f"what-if cell {cell.index} does not conform")
        legs[cell.label_map["leg"]][result["seed"]] = result["main_weekly"]
    seeds = sorted(legs["baseline"])
    check(seeds == sorted(legs["counterfactual"]) == list(pairing.seeds), "what-if legs unpaired")
    verdicts = {verdict.label: verdict for verdict in report.verdicts}
    labels = list(legs["baseline"][seeds[0]])
    check(sorted(verdicts) == sorted(labels), "detection report labels differ")
    for label in labels:
        first, max_effect = oracle.detect(
            [legs["baseline"][seed][label] for seed in seeds],
            [legs["counterfactual"][seed][label] for seed in seeds],
        )
        verdict = verdicts[label]
        check(
            verdict.first_detection_week == first,
            f"{label}: first detection week {verdict.first_detection_week}, oracle {first}",
        )
        check(
            math.isclose(verdict.divergence.max_abs_effect, max_effect, rel_tol=1e-12, abs_tol=1e-15),
            f"{label}: max |effect| {verdict.divergence.max_abs_effect}, oracle {max_effect}",
        )


def _sweep_round(run: Run) -> dict:
    from repro.core.cache import StudyCache
    from repro.counterfactual import run_whatif
    from repro.sweep.scheduler import run_sweep
    from repro.util.parallel import shutdown_pool

    spec, pairing = _specs()
    root = run.scratch("sweep-")
    check(not any(root.iterdir()), f"cache root {root} is not empty")

    own0, kids0 = cpu_seconds()
    started = time.perf_counter()
    outcome = run_sweep(spec, jobs=2, cache_dir=root)
    sweep_s = time.perf_counter() - started
    shutdown_pool()  # reaps the workers, so their CPU time is counted
    own1, kids1 = cpu_seconds()

    started = time.perf_counter()
    whatif = run_whatif(pairing, jobs=2, cache_dir=root)
    whatif_s = time.perf_counter() - started
    shutdown_pool()
    own2, kids2 = cpu_seconds()
    run.attempted += len(outcome.executed) + len(whatif.sweep.executed)

    check(len(outcome.executed) == SWEEP_CELLS and not outcome.ledger_hits,
          f"sweep executed {outcome.executed}, ledger hits {outcome.ledger_hits}")
    check(len(whatif.sweep.executed) == WHATIF_CELLS, f"what-if executed {whatif.sweep.executed}")
    hits = StudyCache(root).stats()["hits"]
    check(hits == 2, f"expected the 2 baseline legs as cache hits, got {hits}")
    sweep_ledger = _ledger_cells(outcome.ledger.path, SWEEP_CELLS)
    _check_sweep(sweep_ledger)
    _check_whatif(pairing, _ledger_cells(whatif.sweep.ledger.path, WHATIF_CELLS), whatif.report)

    run.record("job_s", sweep_s)
    run.record("job_cpu_s", (own1 - own0) + (kids1 - kids0))
    run.record("followup_cpu_s", (own2 - own1) + (kids2 - kids1))
    run.record("followup_wall_s", whatif_s)
    run.record("cache.hits", hits)
    return {"sweep_s": sweep_s, "whatif_s": whatif_s, "ledger": sweep_ledger, "root": root}


def _check_serial_rerun(last: dict) -> None:
    """The seed-0 cell re-run serially, cache off, equals its pooled record.

    ``run_cell`` spelled out, so the serial observations can also be held
    against the entry the pooled sweep stored in the last round's cache.
    """
    from repro import Study
    from repro.attacks.events import AttackClass
    from repro.core.cache import StudyCache, config_fingerprint
    from repro.sweep.report import extract_cell
    from repro.sweep.spec import expand

    spec, _ = _specs()
    cell = expand(spec)[0]
    check(cell.config.seed == 0, "first seed0-small cell is not seed 0")
    study = Study(cell.config, jobs=1, cache=False)
    result = extract_cell(study, cell)
    check(
        _canonical(result.to_dict()) == _canonical(last["ledger"][cell.index]["result"]),
        "serial cache-off seed-0 cell differs from its jobs=2 ledger payload",
    )
    stored = StudyCache(last["root"]).load(config_fingerprint(cell.config))
    check(stored is not None, "the sweep left no cache entry for its seed-0 cell")
    checks.check_observations_equal(stored[0], study.observations, "cache entry loaded back")
    for attack_class in AttackClass:
        check(
            (stored[1][attack_class] == study.ground_truth_weekly(attack_class)).all(),
            "ground truth loaded back differs",
        )


def _traced_round(run: Run, tracer: Tracer, reference: dict) -> None:
    from repro import Study
    from repro.core.shardio import read_shard, write_shard
    from repro.counterfactual import divergence, run_whatif
    from repro.sweep import report as sweep_report
    from repro.sweep import scheduler
    from repro.sweep.ledger import SweepLedger
    from repro.sweep.spec import expand
    from repro.util.parallel import shutdown_pool, simulate, warm_pool

    spec, pairing = _specs()
    root = run.scratch("sweep-traced-")
    since = len(tracer.spans)
    with Wrapping(tracer) as wrapping:
        layers.wrap_core_and_cache(wrapping)
        wrapping.function(scheduler.run_cell, "sweep.cell")
        wrapping.function(sweep_report.extract_cell, "sweep.extract")
        wrapping.function(scheduler.load_report, "sweep.report")
        wrapping.method(SweepLedger, "append_cell", "sweep.ledger_append")
        wrapping.function(divergence.detect, "counterfactual.detect")
        started = time.perf_counter()
        with tracer.span("sweep-pooled.sweep"):
            scheduler.run_sweep(spec, jobs=2, cache_dir=root)
        shutdown_pool()
        sweep_mark = len(tracer.spans)
        with tracer.span("sweep-pooled.whatif"):
            run_whatif(pairing, jobs=2, cache_dir=root)
        shutdown_pool()
        traced_s = time.perf_counter() - started

    metrics = layers.core_metrics(tracer, since)
    metrics.update(layers.cache_metrics(tracer, since))
    sweep_spans = tracer.spans[since:sweep_mark]

    def per_call(name: str) -> list[float]:
        return [s["end"] - s["start"] for s in sweep_spans if s["name"] == name]

    metrics["sweep.cell_s"] = _median(per_call("sweep.cell"))
    metrics["sweep.extract_s"] = _median(per_call("sweep.extract"))
    metrics["sweep.ledger_append_ms"] = 1000 * _median(per_call("sweep.ledger_append"))
    metrics["sweep.report_s"] = sum(per_call("sweep.report"))
    metrics["counterfactual.detect_s"] = tracer.total("counterfactual.detect", sweep_mark)
    metrics["trace.overhead_s"] = traced_s - (reference["sweep_s"] + reference["whatif_s"])

    # Serial shard compute of the seed-0 cell, its shard files, and the
    # same cell on the warm two-worker pool.
    config = expand(spec)[0].config
    hand = len(tracer.spans)
    sinks, ground_truth, results, events = layers.simulate_by_hand(config, tracer)
    metrics.update(layers.simulation_metrics(tracer, hand, events, sinks))
    study = Study(config, jobs=1, cache_dir=root)
    checks.check_observations_equal(sinks, study.observations, "re-enacted study vs Study.observations")
    for attack_class, weekly in ground_truth.items():
        check(
            (weekly == study.ground_truth_weekly(attack_class)).all(),
            "re-enacted ground truth differs",
        )
    serial_s = tracer.total("attacks.generate", hand) + tracer.total("observatories.run_shard", hand)
    shard_dir = run.scratch("shards-")
    written = 0
    for index, (shard_sinks, shard_truth) in enumerate(results):
        path = shard_dir / f"shard-{index:03d}.shard"
        with tracer.span("shardio.write"):
            write_shard(path, shard_sinks, shard_truth, {}, {})
        written += path.stat().st_size
        with tracer.span("shardio.read"):
            (read_sinks, _), _, _ = read_shard(path)
        checks.check_observations_equal(read_sinks, shard_sinks, f"shard file {path.name}")
    metrics["shardio.write_s"] = tracer.total("shardio.write", hand)
    metrics["shardio.read_s"] = tracer.total("shardio.read", hand)
    metrics["shardio.mb"] = written / 1e6
    warm_pool(2)
    with tracer.span("parallel.simulate_pooled"):
        simulate(config, jobs=2)
    shutdown_pool()
    pooled_s = tracer.total("parallel.simulate_pooled", hand)
    metrics["parallel.pool_overhead_s"] = pooled_s - serial_s / 2
    metrics["parallel.speedup"] = serial_s / pooled_s
    shutil.rmtree(root)
    shutil.rmtree(shard_dir)
    for name, value in metrics.items():
        run.record(name, value)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(run: Run, tracer: Tracer | None) -> None:
    last: dict = {}

    def one_round(_: int) -> None:
        if last:
            shutil.rmtree(last["root"])  # only the last round's root is kept
        last.update(_sweep_round(run))
        if tracer is not None:
            _traced_round(run, tracer, last)

    run.rounds(one_round)
    _check_serial_rerun(last)
