"""Content-address stability: the hash IS the cache key."""

import json
import math

import pytest

from repro.errors import ScenarioError
from repro.scenarios.specs import (
    AlgorithmSpec,
    AttackSpec,
    FeeSpec,
    Scenario,
    SimulationSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.service.hashing import (
    canonical_json,
    content_hash,
    point_hash,
    scenario_content_hash,
)


def scenario(**overrides):
    base = dict(
        name="hash-test",
        topology=TopologySpec("star", {"leaves": 4}),
        simulation=SimulationSpec(horizon=10.0),
        seed=7,
    )
    base.update(overrides)
    return Scenario(**base)


class TestCanonicalJson:
    def test_key_order_is_irrelevant(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )

    def test_integral_floats_collapse_to_ints(self):
        assert canonical_json({"x": 10.0}) == canonical_json({"x": 10})

    def test_negative_zero_collapses(self):
        assert canonical_json(-0.0) == canonical_json(0)

    def test_fractional_floats_survive(self):
        assert json.loads(canonical_json(0.5)) == 0.5

    def test_tuples_and_lists_agree(self):
        assert canonical_json((1, 2)) == canonical_json([1, 2])

    def test_nan_rejected(self):
        with pytest.raises(ScenarioError):
            canonical_json(float("nan"))

    def test_infinity_rejected(self):
        with pytest.raises(ScenarioError):
            canonical_json({"x": float("inf")})

    def test_payload_domain_admits_non_finite(self):
        # Result documents may carry -inf (infeasible greedy prefixes);
        # the store serialises them with stable Infinity/NaN tokens.
        text = canonical_json(
            {"v": [float("-inf"), float("inf")]}, allow_non_finite=True
        )
        assert json.loads(text) == {"v": [float("-inf"), float("inf")]}
        nan_text = canonical_json(float("nan"), allow_non_finite=True)
        assert nan_text == canonical_json(float("nan"), allow_non_finite=True)
        assert math.isnan(json.loads(nan_text))

    def test_non_json_value_rejected(self):
        with pytest.raises(ScenarioError):
            canonical_json({"x": object()})

    def test_non_string_keys_rejected(self):
        with pytest.raises(ScenarioError):
            canonical_json({1: "x"})

    @pytest.mark.parametrize("document, message", [
        (
            {"graph": {"nodes": [{"id": "a"}, {"id": ("b", {"w": {2}})}]}},
            "value of type set at document.graph.nodes[1].id[1].w "
            "is not JSON-serialisable",
        ),
        (
            {"rows": [[0.5, {"x": float("nan")}]]},
            "non-finite float nan at document.rows[0][1].x "
            "has no canonical JSON form",
        ),
        (
            {"a": [{"b": {3: "c"}}]},
            "non-string mapping key 3 at document.a[0].b",
        ),
    ])
    def test_error_names_nested_location(self, document, message):
        with pytest.raises(ScenarioError) as excinfo:
            canonical_json(document)
        assert str(excinfo.value) == message


class TestScenarioContentHash:
    def test_hash_is_sha256_hex(self):
        digest = scenario().content_hash()
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")

    def test_round_trip_preserves_hash(self):
        s = scenario()
        assert Scenario.from_dict(s.to_dict()).content_hash() == s.content_hash()
        assert Scenario.from_json(s.to_json()).content_hash() == s.content_hash()

    def test_equal_scenarios_hash_equal_across_numeric_types(self):
        a = scenario(simulation=SimulationSpec(horizon=10))
        b = scenario(simulation=SimulationSpec(horizon=10.0))
        assert a == b
        assert a.content_hash() == b.content_hash()

    def test_different_seed_changes_hash(self):
        assert scenario(seed=1).content_hash() != scenario(seed=2).content_hash()

    def test_different_params_change_hash(self):
        other = scenario(topology=TopologySpec("star", {"leaves": 5}))
        assert other.content_hash() != scenario().content_hash()

    def test_module_function_matches_method(self):
        s = scenario()
        assert scenario_content_hash(s.to_dict()) == s.content_hash()


#: Digests pinned before ``scenario_content_hash`` and ``point_hash``
#: stopped normalising their input twice: a changed digest orphans every
#: stored result, so the single pass must reproduce them exactly.
PINNED_SCENARIOS = [
    (
        scenario(),
        "87a743716095a388e9e5e7bba32d63e4334dd8025288ac6012c72038190d718f",
    ),
    (
        Scenario(
            name="pinned-ba",
            seed=11,
            topology=TopologySpec("ba", {"n": 20}),
            workload=WorkloadSpec("poisson", {"zipf_s": 1.0}),
            fee=FeeSpec("linear", {"base": 0.01, "rate": 0.001}),
            algorithm=AlgorithmSpec("greedy", {"budget": 5.0, "lock": 1.0}),
            simulation=SimulationSpec(horizon=10.0),
        ),
        "d2972efa4d94a758eee216f9aac1efe52307cde30b55f95eed67c2bef88b38d8",
    ),
    (
        Scenario(
            name="pinned-attack",
            seed=3,
            topology=TopologySpec("ba", {"n": 30}),
            attack=AttackSpec("slow-jamming", {"budget": 50.0, "victim": "hub"}),
            simulation=SimulationSpec(
                horizon=5.0, payment_mode="htlc", htlc_hold_mean=0.25
            ),
        ),
        "5940a96c17dd80ef6dde3870c43af63bd337260a6a0282dd4768d22c8ca1c26b",
    ),
]


class TestPinnedDigests:
    @pytest.mark.parametrize(
        "spec, digest", PINNED_SCENARIOS,
        ids=[spec.name for spec, _ in PINNED_SCENARIOS],
    )
    def test_scenario_digest(self, spec, digest):
        assert scenario_content_hash(spec.to_dict()) == digest

    @pytest.mark.parametrize("namespace, point, digest", [
        (
            "e",
            {"n": 10, "m": 2.0},
            "e76a3b0f5bf93d287bd92e2d6a377fd1ae0e44dd624f459c844218e031f97f18",
        ),
        (
            "countermeasures/v1",
            {"rate": 0.25, "policy": "upfront", "seeds": [1, 2]},
            "c5ea7f54ce7a35c0c26e306c330d5e688c19337e6606bf35f45145222d79f403",
        ),
    ], ids=["numeric-point", "list-point"])
    def test_point_digest(self, namespace, point, digest):
        assert point_hash(namespace, point) == digest

    def test_nested_non_finite_error_text(self):
        document = {
            "name": "x",
            "topology": {"kind": "ba", "params": {"w": [1.0, float("inf")]}},
        }
        with pytest.raises(ScenarioError) as excinfo:
            scenario_content_hash(document)
        assert str(excinfo.value) == (
            "non-finite float inf at document.topology.params.w[1] "
            "has no canonical JSON form"
        )

    def test_point_error_text_names_the_point(self):
        with pytest.raises(ScenarioError) as excinfo:
            point_hash("e", {"grid": {"x": [float("nan")]}})
        assert str(excinfo.value) == (
            "non-finite float nan at document.grid.x[0] "
            "has no canonical JSON form"
        )


class TestVersionSalting:
    def test_artifact_version_salts_the_hash(self, monkeypatch):
        import repro.service.hashing as hashing

        before = scenario_content_hash(scenario().to_dict())
        monkeypatch.setattr(
            hashing, "_HASH_SALT", hashing._HASH_SALT + "bump\n"
        )
        assert scenario_content_hash(scenario().to_dict()) != before

    def test_content_hash_differs_from_raw_sha256(self):
        # The salt means plain sha256 of the canonical JSON is NOT the key
        # — artifact-schema bumps must invalidate old entries.
        import hashlib

        doc = {"a": 1}
        raw = hashlib.sha256(canonical_json(doc).encode()).hexdigest()
        assert content_hash(doc) != raw


class TestPointHash:
    def test_namespace_separates_evaluators(self):
        point = {"n": 10}
        assert point_hash("eval-a", point) != point_hash("eval-b", point)

    def test_point_identity(self):
        assert point_hash("e", {"n": 10, "m": 2.0}) == point_hash(
            "e", {"m": 2, "n": 10.0}
        )
