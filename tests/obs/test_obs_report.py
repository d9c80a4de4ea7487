"""RunTelemetry round-trip, side-channel attachment, hot-spot report."""

import dataclasses
import json

import pytest

from repro.obs.report import (
    TELEMETRY_SCHEMA_VERSION,
    RunTelemetry,
    attach_telemetry,
    hotspot_table,
    telemetry_of,
)


def sample_telemetry():
    return RunTelemetry(
        counters={"fastpath.payments": 100.0, "htlc.locks": 25.0},
        gauges={"network.nodes": 40.0},
        phase_seconds={"simulate": 2.0, "topology": 0.5},
        histograms={
            "lat": {"bounds": [1.0], "counts": [3, 1], "count": 4, "sum": 2.5},
        },
    )


class TestRoundTrip:
    def test_to_dict_from_dict_round_trip(self):
        telemetry = sample_telemetry()
        assert RunTelemetry.from_dict(telemetry.to_dict()) == telemetry

    def test_to_json_from_json_round_trip(self):
        telemetry = sample_telemetry()
        assert RunTelemetry.from_json(telemetry.to_json()) == telemetry

    def test_document_is_schema_versioned_and_sorted(self):
        document = sample_telemetry().to_dict()
        assert document["schema_version"] == TELEMETRY_SCHEMA_VERSION
        assert list(document["counters"]) == sorted(document["counters"])
        json.dumps(document)  # plain JSON types only


class TestStrictness:
    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            sample_telemetry().counters = {}

    def test_unsupported_version_rejected(self):
        document = sample_telemetry().to_dict()
        document["schema_version"] = 999
        with pytest.raises(ValueError, match="schema_version"):
            RunTelemetry.from_dict(document)

    def test_v1_document_refused(self):
        # v1 carried the batched backend's tree-cache sections.
        document = {
            "schema_version": 1,
            "counters": {"fastpath.payments": 10.0},
            "top_conflicting_edges": [["a", "b", 3]],
            "cache": {"conflict_rate": 0.3},
        }
        with pytest.raises(ValueError, match="schema_version 1"):
            RunTelemetry.from_dict(document)

    def test_unknown_fields_rejected(self):
        document = sample_telemetry().to_dict()
        document["surprise"] = 1
        with pytest.raises(ValueError, match="unknown RunTelemetry fields"):
            RunTelemetry.from_dict(document)

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError, match="must be a mapping"):
            RunTelemetry.from_dict([1, 2, 3])

    def test_missing_sections_default_empty(self):
        telemetry = RunTelemetry.from_dict(
            {"schema_version": TELEMETRY_SCHEMA_VERSION}
        )
        assert telemetry == RunTelemetry()


class TestAttachment:
    def test_attach_and_read_back_on_frozen_dataclass(self):
        @dataclasses.dataclass(frozen=True)
        class Artifact:
            value: int

        artifact = Artifact(3)
        telemetry = sample_telemetry()
        assert attach_telemetry(artifact, telemetry) is artifact
        assert telemetry_of(artifact) is telemetry

    def test_unattached_artifact_reads_none(self):
        assert telemetry_of(object()) is None

    def test_attachment_stays_out_of_dataclass_serialisation(self):
        @dataclasses.dataclass(frozen=True)
        class Artifact:
            value: int

            def to_dict(self):
                return dataclasses.asdict(self)

        artifact = Artifact(3)
        before = artifact.to_dict()
        attach_telemetry(artifact, sample_telemetry())
        assert artifact.to_dict() == before


class TestHotspotTable:
    def test_renders_phase_table(self):
        table = hotspot_table(sample_telemetry())
        assert "per-phase wall time" in table
        assert table.index("simulate") < table.index("topology")

    def test_empty_telemetry_explains_itself(self):
        assert "no telemetry recorded" in hotspot_table(RunTelemetry())
