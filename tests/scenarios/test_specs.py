"""Spec construction, JSON round-trips, and override semantics."""

import json

import pytest

from repro.errors import ScenarioError
from repro.scenarios import (
    AlgorithmSpec,
    FeeSpec,
    Scenario,
    SimulationSpec,
    TopologySpec,
    WorkloadSpec,
)


def full_scenario() -> Scenario:
    return Scenario(
        topology=TopologySpec("ba", {"n": 30, "attachments": 2}),
        workload=WorkloadSpec(
            "poisson",
            {
                "zipf_s": 1.5,
                "sizes": {"kind": "uniform", "low": 0.0, "high": 2.0},
            },
        ),
        fee=FeeSpec("linear", {"base": 0.01, "rate": 0.001}),
        algorithm=AlgorithmSpec(
            "greedy",
            {"budget": 8.0, "lock": 1.0},
            user="joiner",
            model={"zipf_s": 1.5},
        ),
        simulation=SimulationSpec(horizon=25.0, payment_mode="htlc"),
        name="full",
        seed=42,
    )


class TestRoundTrip:
    def test_minimal_scenario(self):
        s = Scenario(topology=TopologySpec("star", {"leaves": 5}))
        assert Scenario.from_dict(s.to_dict()) == s

    def test_full_scenario(self):
        s = full_scenario()
        assert Scenario.from_dict(s.to_dict()) == s

    def test_survives_json_text(self):
        s = full_scenario()
        assert Scenario.from_json(s.to_json()) == s

    def test_survives_json_dump_load(self):
        s = full_scenario()
        assert Scenario.from_dict(json.loads(json.dumps(s.to_dict()))) == s

    def test_tuple_params_normalise_to_json_form(self):
        # tuples become lists on construction, so equality after a JSON
        # round-trip holds even for tuple-valued params
        spec = FeeSpec("piecewise", {"knots": ((0.0, 0.1), (5.0, 0.5))})
        assert spec.params["knots"] == [[0.0, 0.1], [5.0, 0.5]]
        assert FeeSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_each_plugin_spec_round_trips(self):
        for cls, kind in [
            (TopologySpec, "ba"),
            (WorkloadSpec, "poisson"),
            (FeeSpec, "constant"),
        ]:
            spec = cls(kind, {"x": 1})
            assert cls.from_dict(spec.to_dict()) == spec

    def test_simulation_spec_round_trips(self):
        spec = SimulationSpec(horizon=5.0, payment_mode="htlc")
        assert SimulationSpec.from_dict(spec.to_dict()) == spec

    def test_optional_sections_omitted_from_dict(self):
        doc = Scenario(topology=TopologySpec("ba", {"n": 10})).to_dict()
        assert "workload" not in doc
        assert "algorithm" not in doc


class TestValidation:
    def test_empty_kind_rejected(self):
        with pytest.raises(ScenarioError):
            TopologySpec("")

    def test_non_json_params_rejected_at_construction(self):
        with pytest.raises(ScenarioError):
            TopologySpec("ba", {"rng": object()})

    def test_unknown_scenario_fields_rejected(self):
        doc = Scenario(topology=TopologySpec("ba")).to_dict()
        doc["typo"] = 1
        with pytest.raises(ScenarioError):
            Scenario.from_dict(doc)

    def test_unknown_spec_fields_rejected(self):
        with pytest.raises(ScenarioError):
            TopologySpec.from_dict({"kind": "ba", "parms": {}})

    def test_non_mapping_params_rejected(self):
        with pytest.raises(ScenarioError):
            TopologySpec.from_dict({"kind": "ba", "params": 5})
        with pytest.raises(ScenarioError):
            TopologySpec("ba", params=[1, 2])

    def test_non_mapping_model_rejected(self):
        with pytest.raises(ScenarioError):
            AlgorithmSpec.from_dict({"kind": "greedy", "model": [1]})

    def test_missing_topology_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario.from_dict({"name": "x", "seed": 0})

    def test_unsupported_schema_version_rejected(self):
        doc = Scenario(topology=TopologySpec("ba")).to_dict()
        doc["schema_version"] = 99
        with pytest.raises(ScenarioError):
            Scenario.from_dict(doc)

    def test_invalid_json_text_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario.from_json("{not json")

    def test_non_positive_horizon_rejected(self):
        with pytest.raises(ScenarioError):
            SimulationSpec(horizon=0.0)

    def test_non_numeric_horizon_rejected(self):
        # a quoted number is an easy hand-edit mistake in scenario JSON
        with pytest.raises(ScenarioError):
            SimulationSpec(horizon="100")

    def test_non_numeric_htlc_hold_mean_rejected(self):
        with pytest.raises(ScenarioError):
            SimulationSpec(htlc_hold_mean=None)

    def test_non_int_seed_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario(topology=TopologySpec("ba"), seed="7")


class TestSimulationSpecValidation:
    """Every SimulationSpec field is checked when a document is parsed,
    not later when the engine is built."""

    def test_known_backends_accepted(self):
        # "event" names the deleted event engine: old documents load as
        # the one engine, and serialise as "batched".
        for backend in ("event", "batched"):
            for mode in ("instant", "htlc"):
                spec = SimulationSpec.from_dict(
                    {"backend": backend, "payment_mode": mode}
                )
                assert (spec.backend, spec.payment_mode) == ("batched", mode)
                assert spec.to_dict()["backend"] == "batched"
        assert SimulationSpec().backend == "batched"

    def test_unknown_backend_rejected(self):
        # the message names the offending value, as for every other field
        with pytest.raises(ScenarioError, match="teleport"):
            SimulationSpec.from_dict({"backend": "teleport"})

    def test_unknown_payment_mode_rejected(self):
        with pytest.raises(ScenarioError, match="payment_mode"):
            SimulationSpec.from_dict({"payment_mode": "teleport"})

    def test_string_fee_forwarding_rejected(self):
        # "false" is truthy: accepted, it would run with forwarding on.
        with pytest.raises(ScenarioError, match="fee_forwarding"):
            SimulationSpec.from_dict({"fee_forwarding": "false"})

    def test_htlc_without_fee_forwarding_rejected(self):
        # The HTLC routers always forward fees: accepted, the flag would
        # change nothing.
        with pytest.raises(ScenarioError, match="fee_forwarding"):
            SimulationSpec.from_dict(
                {"payment_mode": "htlc", "fee_forwarding": False}
            )

    def test_unknown_path_selection_rejected(self):
        with pytest.raises(ScenarioError, match="path_selection"):
            SimulationSpec.from_dict({"path_selection": "bogus"})

    @pytest.mark.parametrize("hold", [0.0, -1.0])
    def test_non_positive_htlc_hold_mean_rejected(self, hold):
        with pytest.raises(ScenarioError, match="htlc_hold_mean"):
            SimulationSpec.from_dict({"htlc_hold_mean": hold})

    def test_unknown_route_rng_rejected(self):
        with pytest.raises(ScenarioError, match="route_rng"):
            SimulationSpec.from_dict({"route_rng": "bogus"})


class TestFeeSpecV2:
    """The two-sided fee schema: v1 documents migrate losslessly."""

    def test_v1_document_migrates_to_success_only(self):
        # A v1 FeeSpec document has no upfront fields at all.
        spec = FeeSpec.from_dict(
            {"kind": "linear", "params": {"base": 0.01, "rate": 0.001}}
        )
        assert spec.upfront_base == 0.0
        assert spec.upfront_rate == 0.0
        assert not spec.has_upfront

    def test_v1_scenario_document_loads_under_v2(self):
        document = full_scenario().to_dict()
        document["schema_version"] = 1
        del document["fee"]["upfront_base"]
        del document["fee"]["upfront_rate"]
        scenario = Scenario.from_dict(document)
        assert not scenario.fee.has_upfront
        # re-emitted documents are always current-schema
        assert scenario.to_dict()["schema_version"] == 2
        assert scenario.to_dict()["fee"]["upfront_rate"] == 0.0

    def test_upfront_round_trip(self):
        spec = FeeSpec(
            "linear", {"base": 0.01, "rate": 0.001},
            upfront_base=0.002, upfront_rate=0.05,
        )
        assert spec.has_upfront
        doc = spec.to_dict()
        assert doc["upfront_base"] == 0.002
        assert doc["upfront_rate"] == 0.05
        assert FeeSpec.from_dict(json.loads(json.dumps(doc))) == spec

    def test_negative_upfront_rejected(self):
        with pytest.raises(ScenarioError, match="upfront_rate"):
            FeeSpec("constant", {"fee": 0.1}, upfront_rate=-0.1)
        with pytest.raises(ScenarioError, match="upfront_base"):
            FeeSpec("constant", {"fee": 0.1}, upfront_base=-1.0)

    def test_non_numeric_upfront_rejected(self):
        with pytest.raises(ScenarioError, match="upfront_rate"):
            FeeSpec("constant", {"fee": 0.1}, upfront_rate="0.05")

    def test_upfront_override_path(self):
        s = full_scenario()
        out = s.with_overrides({"fee.upfront_rate": 0.05})
        assert out.fee.upfront_rate == 0.05
        assert out.fee.has_upfront
        assert not s.fee.has_upfront


class TestOverrides:
    def test_override_nested_param(self):
        s = full_scenario()
        out = s.with_overrides({"topology.params.n": 99, "seed": 1})
        assert out.topology.params["n"] == 99
        assert out.seed == 1
        # untouched sections survive
        assert out.fee == s.fee

    def test_override_creates_missing_section(self):
        s = Scenario(topology=TopologySpec("ba", {"n": 10}))
        out = s.with_overrides({"fee.kind": "constant", "fee.params.fee": 0.2})
        assert out.fee == FeeSpec("constant", {"fee": 0.2})

    def test_override_through_scalar_rejected(self):
        s = Scenario(topology=TopologySpec("ba", {"n": 10}))
        with pytest.raises(ScenarioError):
            s.with_overrides({"name.sub": 1})

    def test_original_unchanged(self):
        s = full_scenario()
        s.with_overrides({"topology.params.n": 1})
        assert s.topology.params["n"] == 30
