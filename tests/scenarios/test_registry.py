"""Plugin registries: builtin coverage, lookup errors, collision rules."""

import json

import pytest

from repro.errors import ScenarioError, UnknownPluginError
from repro.scenarios import (
    ALGORITHMS,
    FEES,
    JoinAlgorithm,
    Registry,
    TOPOLOGIES,
    WORKLOADS,
)


class TestBuiltins:
    def test_topologies_registered(self):
        for key in ("ba", "core-periphery", "erdos-renyi", "star", "path",
                    "circle", "complete", "file"):
            assert key in TOPOLOGIES

    def test_algorithms_registered(self):
        for key in ("greedy", "exhaustive", "continuous", "bruteforce"):
            assert key in ALGORITHMS

    def test_fees_registered(self):
        for key in ("constant", "linear", "piecewise"):
            assert key in FEES

    def test_workloads_registered(self):
        assert "poisson" in WORKLOADS

    def test_algorithms_satisfy_join_protocol(self):
        for key in ALGORITHMS:
            assert isinstance(ALGORITHMS.get(key), JoinAlgorithm)


class TestLookupErrors:
    def test_unknown_topology_key(self):
        with pytest.raises(UnknownPluginError) as exc:
            TOPOLOGIES.get("hypercube")
        assert "hypercube" in str(exc.value)
        assert "ba" in str(exc.value)  # known keys are listed

    def test_unknown_algorithm_key(self):
        with pytest.raises(UnknownPluginError):
            ALGORITHMS.get("simulated-annealing")

    def test_unknown_fee_key(self):
        with pytest.raises(UnknownPluginError):
            FEES.get("quadratic")

    def test_unknown_workload_key(self):
        with pytest.raises(UnknownPluginError):
            WORKLOADS.get("burst")

    def test_unknown_plugin_error_is_scenario_error(self):
        assert issubclass(UnknownPluginError, ScenarioError)


class TestRegistration:
    def test_register_and_get(self):
        registry = Registry("thing")

        @registry.register("x", "alias-x")
        def build():
            return 1

        assert registry.get("x") is build
        assert registry.get("alias-x") is build
        assert len(registry) == 2
        assert list(registry) == ["alias-x", "x"]

    def test_reregistering_same_callable_is_idempotent(self):
        registry = Registry("thing")

        def build():
            return 1

        registry.register("x")(build)
        registry.register("x")(build)
        assert registry.get("x") is build

    def test_key_collision_rejected(self):
        registry = Registry("thing")
        registry.register("x")(lambda: 1)
        with pytest.raises(ScenarioError):
            registry.register("x")(lambda: 2)


class TestLazyProviders:
    """Each registry imports its provider modules on its first read."""

    #: Every builtin key, as registered when the scenario runner imported
    #: every provider module up front.
    BUILTIN_KEYS = {
        "TOPOLOGIES": [
            "ba", "barabasi-albert", "circle", "complete", "core-periphery",
            "er", "erdos-renyi", "file", "path", "star",
        ],
        "ALGORITHMS": [
            "bruteforce", "continuous", "exhaustive", "greedy",
            "random-attach",
        ],
        "FEES": ["constant", "linear", "piecewise"],
        "WORKLOADS": ["poisson"],
        "ATTACKS": [
            "depletion", "fee-griefing", "griefing", "jamming",
            "liquidity-depletion", "slow-jamming",
        ],
        "GROWTH": ["fixed", "poisson"],
        "CHURN": ["degree-biased", "uniform"],
    }

    @pytest.mark.parametrize("name", sorted(BUILTIN_KEYS))
    def test_first_read_lists_every_builtin_key(self, fresh_python, name):
        code = (
            "import json\n"
            "from repro.scenarios import registry\n"
            f"plugins = registry.{name}\n"
            "print(json.dumps([len(plugins), list(plugins)]))"
        )
        keys = self.BUILTIN_KEYS[name]
        assert json.loads(fresh_python(code)) == [len(keys), keys]

    def test_join_registries_leave_attacks_and_evolution_unloaded(self, fresh_python):
        code = (
            "import sys\n"
            "from repro.scenarios.registry import ALGORITHMS, TOPOLOGIES\n"
            "assert 'repro.snapshots.synthetic' not in sys.modules\n"
            "TOPOLOGIES.get('ba'), ALGORITHMS.get('greedy')\n"
            "print(sorted(m for m in ('repro.attacks', 'repro.evolution',\n"
            "    'repro.simulation', 'repro.snapshots.synthetic') if m in sys.modules))"
        )
        assert fresh_python(code) == "['repro.snapshots.synthetic']"

    def test_plugin_under_builtin_key_collides_before_any_read(self, fresh_python):
        code = (
            "from repro.errors import ScenarioError\n"
            "from repro.scenarios import register_topology\n"
            "try:\n"
            "    register_topology('ba')(lambda n: None)\n"
            "except ScenarioError as exc:\n"
            "    print(exc)\n"
        )
        assert fresh_python(code).startswith("topology key 'ba' already registered")

    def test_concurrent_first_reads_all_resolve(self, fresh_python):
        # More threads than cores, each reading a different registry
        # first, with a short switch interval: no read may see a registry
        # whose providers another thread is still importing.
        code = (
            "import sys, threading\n"
            "from repro.scenarios import registry\n"
            "sys.setswitchinterval(1e-6)\n"
            "reads = [(registry.TOPOLOGIES, 'circle'), (registry.ALGORITHMS, 'greedy'),\n"
            "         (registry.FEES, 'linear'), (registry.ATTACKS, 'jamming'),\n"
            "         (registry.GROWTH, 'fixed'), (registry.TOPOLOGIES, 'ba')] * 2\n"
            "errors = []\n"
            "def read(plugins, key):\n"
            "    try:\n"
            "        plugins.get(key)\n"
            "    except Exception as exc:\n"
            "        errors.append(repr(exc))\n"
            "threads = [threading.Thread(target=read, args=r) for r in reads]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join(timeout=60)\n"
            "assert not any(t.is_alive() for t in threads)\n"
            "print(errors)"
        )
        assert fresh_python(code) == "[]"
