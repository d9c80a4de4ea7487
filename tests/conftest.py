"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.network.graph import ChannelGraph
from repro.params import ModelParameters
from repro.simulation.fastpath import BatchedSimulationEngine


@pytest.fixture(autouse=True)
def isolated_result_store(tmp_path, monkeypatch):
    """Point the default result store at a per-test tmp directory.

    Anything resolving the store location through ``$REPRO_STORE``
    (``ResultStore.open(None)``, ``JobManager()``, the CLI defaults)
    lands here instead of the user's ``~/.cache/repro``, so tests never
    read or pollute a real cache.
    """
    store_dir = tmp_path / "repro-store"
    monkeypatch.setenv("REPRO_STORE", str(store_dir))
    return store_dir


@pytest.fixture
def fresh_python():
    """Run code in a new interpreter on this checkout; returns the last
    line it printed. A new interpreter has imported nothing yet, so what
    an entry point imports, and first imports, are tested there."""

    def run(code: str, timeout: float = 120.0) -> str:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=timeout,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout.strip().splitlines()[-1]

    return run


@pytest.fixture
def diamond() -> ChannelGraph:
    """4-node diamond: a-b, b-c, c-d, b-d (all balances 5/5)."""
    return ChannelGraph.from_edges(
        [("a", "b"), ("b", "c"), ("c", "d"), ("b", "d")], balance=5.0
    )


@pytest.fixture
def line3() -> ChannelGraph:
    """3-node line a-b-c with asymmetric balances."""
    graph = ChannelGraph()
    graph.add_channel("a", "b", 10.0, 2.0)
    graph.add_channel("b", "c", 8.0, 1.0)
    return graph


@pytest.fixture
def params() -> ModelParameters:
    return ModelParameters()


@pytest.fixture
def cheap_params() -> ModelParameters:
    """Parameters where channels are cheap relative to traffic (profitable)."""
    return ModelParameters(
        onchain_cost=0.05,
        opportunity_rate=0.001,
        fee_avg=0.5,
        fee_out_avg=0.1,
        total_tx_rate=200.0,
        user_tx_rate=5.0,
        zipf_s=1.0,
    )


class BoundHtlcRouter:
    """An HTLC-mode engine's router, bound to the engine's array state.

    ``router`` is ``engine.htlc_router``, the object attack strategies
    lock and resolve through. ``balance(src, dst)`` and ``slots(src,
    dst)`` read the ``src -> dst`` direction of the array state;
    ``write_back()`` pushes the balances into the graph's channels.
    """

    def __init__(self, graph: ChannelGraph, fee=None) -> None:
        self.graph = graph
        self.engine = BatchedSimulationEngine(graph, fee=fee, payment_mode="htlc")
        self.engine.run()  # freezes the array state and binds the router
        self.router = self.engine.htlc_router
        self.state = self.engine._state

    def _entry(self, src, dst) -> int:
        return self.state.name_pair_entry[(src, dst)]

    def balance(self, src, dst) -> float:
        return float(self.state.balances[self._entry(src, dst)])

    def slots(self, src, dst) -> int:
        return self.state.slots_used[self._entry(src, dst)]

    def write_back(self) -> ChannelGraph:
        self.state.write_back()
        return self.graph


@pytest.fixture
def bound_router():
    """``bound_router(graph, fee=None)`` -> :class:`BoundHtlcRouter`."""
    return BoundHtlcRouter
