"""Regression tests for the deterministic-or-loud default-seed fallback.

Historically an engine built with ``seed=None`` drew *two* independent
entropy values (one for the router, one for the per-payment RNG base) and
recorded neither, so an unseeded run could never be replayed. Now the
engine resolves the seed once through :func:`repro.determinism.resolve_seed`,
logs it, and surfaces it as ``metrics.seed``.
"""

import logging

import pytest

from repro.determinism import resolve_seed
from repro.network.graph import ChannelGraph
from repro.simulation.fastpath import BatchedSimulationEngine
from repro.transactions.workload import Transaction


def _diamond_graph() -> ChannelGraph:
    # Two equal-length a->d paths, so random tie-breaking actually
    # consumes RNG draws and a replayed seed is observable.
    return ChannelGraph.from_edges(
        [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")], balance=100.0
    )


def _trace(n: int = 40) -> list:
    return [
        Transaction(time=float(i + 1), sender="a", receiver="d", amount=1.0)
        for i in range(n)
    ]


class TestResolveSeed:
    def test_explicit_seed_is_identity(self):
        assert resolve_seed(7) == 7
        assert resolve_seed(0) == 0

    def test_none_draws_and_logs(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.determinism"):
            drawn = resolve_seed(None)
        assert isinstance(drawn, int)
        assert str(drawn) in caplog.text

    def test_none_draws_fresh_entropy(self):
        # Vanishingly unlikely to collide; a collision would mean the
        # fallback is (silently) constant, the exact bug class this guards.
        assert resolve_seed(None) != resolve_seed(None)


def _run(engine, queued: bool):
    """Run the trace as a replay or through the event queue."""
    if not queued:
        return engine.run_trace(_trace())
    engine.schedule_transactions(_trace())
    return engine.run()


class TestEngineSeedSurfacing:
    def test_seeded_run_records_seed(self):
        engine = BatchedSimulationEngine(_diamond_graph(), seed=13)
        assert engine.seed == 13
        assert engine.metrics.seed == 13

    @pytest.mark.parametrize("queued", [False, True], ids=["replay", "queued"])
    def test_unseeded_run_is_replayable(self, queued, caplog):
        graph = _diamond_graph()
        with caplog.at_level(logging.WARNING, logger="repro.determinism"):
            engine = BatchedSimulationEngine(
                graph, seed=None, route_rng="payment"
            )
        metrics = _run(engine, queued)
        assert isinstance(metrics.seed, int)
        assert str(metrics.seed) in caplog.text

        # Replaying with the surfaced seed reproduces the run exactly,
        # including per-edge traffic (i.e. the actual route choices).
        replay = BatchedSimulationEngine(
            _diamond_graph(), seed=metrics.seed, route_rng="payment"
        )
        assert _run(replay, queued) == metrics

    def test_explicit_seed_draws_no_entropy(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.determinism"):
            BatchedSimulationEngine(_diamond_graph(), seed=3)
        assert caplog.text == ""
