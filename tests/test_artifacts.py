"""Artifact registry tests: completeness, envelopes, canonical bytes.

The registry in :mod:`repro.core.artifacts` is the one public mapping
from stable names to study outputs; these tests pin its enumeration,
the versioned envelope shape (via ``validate_artifact``), the canonical
byte encoding shared with the service, and the absence of the removed
legacy ``figureN()`` / ``tableN()`` accessors.
"""

from __future__ import annotations

import json

import pytest

from repro.core.artifacts import (
    ARTIFACTS,
    ENVELOPE_REQUIRED,
    artifact_json_bytes,
    artifact_names,
    artifact_spec,
    registry_listing,
    study_envelope,
)
from repro.core.validate import validate_artifact


class TestRegistryShape:
    def test_names_are_stable_and_ordered(self):
        names = artifact_names()
        assert names[0] == "table1"
        assert "fig2_trends" in names
        assert "federation" in names
        assert "headline" in names
        assert "fingerprints" in names
        assert len(names) == len(set(names)) == len(ARTIFACTS)

    def test_every_spec_is_fully_described(self):
        for name, spec in ARTIFACTS.items():
            assert spec.name == name
            assert spec.title
            assert spec.description
            assert spec.schema_version >= 1
            assert callable(spec.build)
            assert callable(spec.payload)
            assert isinstance(spec.schema, dict)

    def test_listing_matches_spec_order(self):
        listing = registry_listing()
        assert [entry["name"] for entry in listing] == artifact_names()
        for entry in listing:
            assert {"name", "title", "paper_anchor", "schema_version"} <= set(
                entry
            )

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError, match="table1"):
            artifact_spec("figure99")

    def test_legacy_accessors_are_gone(self, small_study):
        # The registry is the only artifact surface now: the deprecated
        # figureN()/tableN() shims were removed after one release cycle.
        for legacy in (
            "figure2",
            "figure9",
            "figure14",
            "table1",
            "table2",
            "table4",
        ):
            assert not hasattr(small_study, legacy), legacy


class TestEnvelopes:
    def test_all_artifacts_validate(self, small_study):
        for name in artifact_names():
            document = small_study.artifact(name)
            assert validate_artifact(document) == [], name
            assert set(ENVELOPE_REQUIRED) <= set(document)
            assert document["artifact"] == name

    def test_envelope_has_no_timestamps(self, small_study):
        document = small_study.artifact("table1")
        flat = json.dumps(document).lower()
        assert "created" not in flat and "timestamp" not in flat

    def test_validate_rejects_tampered_documents(self, small_study):
        document = small_study.artifact("table1")
        broken = dict(document, schema_version=999)
        assert any("schema_version" in e for e in validate_artifact(broken))
        del (stripped := dict(document))["config_fingerprint"]
        assert validate_artifact(stripped)
        assert validate_artifact({"artifact": "nope"})

    def test_canonical_bytes_are_deterministic(self, small_study):
        first = artifact_json_bytes(small_study.artifact("fig5_shares"))
        second = artifact_json_bytes(study_envelope(small_study, "fig5_shares"))
        assert first == second
        assert first.endswith(b"\n")
        # round-trips exactly (floats use repr; sorted keys)
        assert artifact_json_bytes(json.loads(first)) == first


class TestFacade:
    def test_public_surface_reexports(self):
        import repro

        for name in (
            "run_study",
            "Study",
            "StudyConfig",
            "ScenarioSpec",
            "run_sweep",
            "ARTIFACTS",
            "artifact_names",
            "artifact_json_bytes",
            "validate_artifact",
        ):
            assert hasattr(repro, name), name
            assert name in repro.__all__

    def test_export_helpers_write_canonical_bytes(self, small_study, tmp_path):
        from repro.core.export import write_artifact_json

        path = write_artifact_json(small_study, "table2", tmp_path / "t2.json")
        assert path.read_bytes() == artifact_json_bytes(
            small_study.artifact("table2")
        )


class TestSharedAnalyses:
    def test_every_artifact_of_a_study_computes_the_upset_once(self, monkeypatch):
        """fig7, both federation joins, Akamai and the headline share one
        UpSet decomposition per study."""
        from repro.core import study as study_module
        from repro.core.golden import pinned_configs

        calls = []
        real_upset = study_module.upset

        def counting_upset(named_sets):
            calls.append(sorted(named_sets))
            return real_upset(named_sets)

        monkeypatch.setattr(study_module, "upset", counting_upset)
        study = study_module.Study(pinned_configs()["seed0-small"])
        for name in artifact_names():
            study_envelope(study, name)
        assert len(calls) == 1
