"""Traced re-enactment: the program's layers called one by one.

The untraced workloads call the program the way a user does.  The
traced mode repeats the same work through each layer's public
functions — ``build_models``, ``GroundTruthGenerator.shard_batch``,
every platform's ``observe`` as ``ObservatorySet.run_shard`` calls it,
``merge_shard_results``, ``StudyCache.store``/``load``, the analyses,
``ArtifactSpec.build`` and ``artifact_json_bytes`` — inside spans of
its own, and turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import statistics
from pathlib import Path

from harness import Tracer, Wrapping

#: The eight platforms whose ``observe`` is timed one by one.
PLATFORMS = ("UCSD", "ORION", "Hopscotch", "AmpPot", "NewKid", "IXP", "Netscout", "Akamai")

#: Analysis functions whose time and call count make up the ``core`` layer.
CORE_FUNCTIONS = (
    ("repro.core.overlap", "upset", "core.upset"),
    ("repro.core.federation", "federate", "core.federate"),
    ("repro.core.targets", "weekly_tuple_counts", "core.weekly_tuple_counts"),
    ("repro.core.correlation", "correlation_matrix", "core.correlation"),
    ("repro.core.correlation", "quarterly_correlations", "core.quarterly"),
    ("repro.core.trends", "classify_trend", "core.trends"),
    ("repro.core.conformance", "evaluate_conformance", "core.conformance"),
)


def wrap_core_and_cache(wrapping: Wrapping) -> None:
    """Wrap the analyses, ``target_tuples`` and the study cache."""
    import importlib

    from repro.core.cache import StudyCache
    from repro.observatories.base import Observations

    for module_name, attr, span_name in CORE_FUNCTIONS:
        module = importlib.import_module(module_name)
        wrapping.function(getattr(module, attr), span_name)
    wrapping.method(Observations, "target_tuples", "core.target_tuples")
    wrapping.method(
        StudyCache, "load", "cache.load", lambda loaded: {"hit": loaded is not None}
    )
    wrapping.method(StudyCache, "store", "cache.store")


def core_metrics(tracer: Tracer, since: int) -> dict[str, float]:
    metrics = {
        "core.target_tuples_s": tracer.total("core.target_tuples", since),
        "core.target_tuples_calls": tracer.count("core.target_tuples", since),
        "core.upset_calls": tracer.count("core.upset", since),
    }
    for _, _, span_name in CORE_FUNCTIONS:
        metrics[f"{span_name}_s"] = tracer.total(span_name, since)
    return metrics


def cache_metrics(tracer: Tracer, since: int) -> dict[str, float]:
    """Median store, and median load that hit (a miss costs no read)."""
    loads = [
        s["end"] - s["start"]
        for s in tracer.spans[since:]
        if s["name"] == "cache.load" and s["hit"]
    ]
    stores = tracer.durations("cache.store", since)
    return {
        "cache.load_s": statistics.median(loads) if loads else 0.0,
        "cache.store_s": statistics.median(stores) if stores else 0.0,
    }


def simulate_by_hand(config, tracer: Tracer):
    """One study simulated shard by shard through the public layers.

    Returns ``(sinks, ground_truth, shard_results, events)``; the caller
    checks the sinks against ``Study.observations``.
    """
    from repro.attacks.generator import GroundTruthGenerator
    from repro.observatories.registry import build_observatories
    from repro.util.parallel import build_models, merge_shard_results, plan_shards
    from repro.util.rng import RngFactory

    with tracer.span("models.build"):
        models = build_models(config)
    results = []
    events = 0
    for start, stop in plan_shards(config.calendar.n_days):
        with tracer.span("attacks.generate"):
            generator = GroundTruthGenerator(
                models.plan,
                config.calendar,
                models.landscape,
                models.campaigns,
                config=config.generator,
                rng_factory=RngFactory(config.seed),
                day_range=(start, stop),
                scenario=config.scenario,
            )
            shard = generator.shard_batch()
        events += len(shard)
        observatories = build_observatories(
            models.plan,
            RngFactory(config.seed),
            telescope_config=config.telescope,
            aggregate_carpet=config.aggregate_carpet,
            calendar=config.calendar,
            paper_outages=config.paper_outages,
            scenario=config.scenario,
            tuning=config.tuning,
        )
        with Wrapping(tracer) as wrapping:
            for observatory in observatories.all():
                wrapping.method(
                    observatory, "observe", f"observatories.observe.{observatory.name}"
                )
            with tracer.span("observatories.run_shard"):
                results.append(observatories.run_shard(shard, config.calendar))
    with tracer.span("parallel.merge"):
        sinks, ground_truth = merge_shard_results(results)
    return sinks, ground_truth, results, events


def simulation_metrics(tracer: Tracer, since: int, events: int, sinks) -> dict[str, float]:
    """models / attacks / observatories / merge metrics of one hand simulation."""
    generate_s = tracer.total("attacks.generate", since)
    per_platform = {
        name: tracer.total(f"observatories.observe.{name}", since) for name in PLATFORMS
    }
    observe_s = sum(per_platform.values())
    records = sum(len(sinks[name]) for name in PLATFORMS)
    metrics = {
        "models.build_s": tracer.total("models.build", since),
        "attacks.generate_s": generate_s,
        "attacks.events_per_s": events / generate_s if generate_s else 0.0,
        "observatories.observe_s": observe_s,
        "observatories.records_per_s": records / observe_s if observe_s else 0.0,
        "parallel.merge_s": tracer.total("parallel.merge", since),
    }
    for name, seconds in per_platform.items():
        metrics[f"observatories.observe_s.{name}"] = seconds
    return metrics


def build_and_encode(study, name: str, tracer: Tracer) -> bytes:
    """One artifact: ``ArtifactSpec.build`` then the canonical encoder.

    Mirrors ``study_envelope`` through public functions, so the bytes
    must equal what the service and the CLI produce.
    """
    from repro.core.artifacts import artifact_json_bytes, artifact_spec, envelope
    from repro.core.cache import config_fingerprint

    spec = artifact_spec(name)
    with tracer.span(f"artifacts.build.{name}"):
        result = spec.build(study)
    with tracer.span("artifacts.encode"):
        return artifact_json_bytes(
            envelope(
                name,
                spec.payload(result),
                title=spec.title,
                paper_anchor=spec.paper_anchor,
                schema_version=spec.schema_version,
                config_fingerprint=config_fingerprint(study.config),
                window=f"{study.calendar.start}..{study.calendar.end}",
                n_weeks=int(study.calendar.n_weeks),
                seed=int(study.config.seed),
            )
        )


def artifact_metrics(tracer: Tracer, since: int, bodies: dict[str, bytes]) -> dict[str, float]:
    from repro.core.artifacts import artifact_names

    metrics = {}
    for name in artifact_names():
        metrics[f"artifacts.build_s.{name}"] = tracer.total(f"artifacts.build.{name}", since)
    metrics["artifacts.build_s"] = sum(metrics.values())
    metrics["artifacts.encode_s"] = tracer.total("artifacts.encode", since)
    metrics["artifacts.mb"] = sum(len(body) for body in bodies.values()) / 1e6
    return metrics


def entry_mb(root: Path) -> float:
    """Size of the study-cache entries under ``root``, in MB."""
    return sum(path.stat().st_size for path in root.glob("study-*.npz")) / 1e6
