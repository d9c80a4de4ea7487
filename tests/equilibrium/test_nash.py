"""Tests for NE checking — reproduces Theorems 7, 9, 10, 11 in miniature."""

import logging

import pytest

from repro.equilibrium.conditions import harmonic
from repro.equilibrium.deviations import sampled_deviations, structured_deviations
from repro.equilibrium.nash import (
    best_response,
    best_response_dynamics,
    check_nash,
)
from repro.equilibrium.node_utility import NetworkGameModel
from repro.equilibrium.topologies import CENTER, circle, path, star
from repro.errors import InvalidParameter


def thm9_model(n: int, s: float = 2.0) -> NetworkGameModel:
    """Parameters satisfying Thm 9: s >= 2, a/H, b/H <= l."""
    l = 1.0
    h = harmonic(n, s)
    return NetworkGameModel(a=0.9 * l * h, b=0.9 * l * h, edge_cost=l, zipf_s=s)


class TestStarStability:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_star_ne_under_thm9_params(self, n):
        model = thm9_model(n)
        report = check_nash(star(n), model, mode="structured", seed=0)
        assert report.is_nash

    def test_star_ne_exhaustive_small(self):
        model = thm9_model(4)
        report = check_nash(star(4), model, mode="exhaustive")
        assert report.is_nash

    def test_star_unstable_when_edges_cheap_and_traffic_high(self):
        """With huge b, leaves want to become hubs themselves."""
        model = NetworkGameModel(a=0.1, b=50.0, edge_cost=0.01, zipf_s=0.5)
        report = check_nash(star(5), model, mode="structured", seed=0)
        assert not report.is_nash

    def test_center_never_improves(self):
        model = thm9_model(5)
        response = best_response(star(5), CENTER, model, mode="structured", seed=0)
        assert not response.can_improve


class TestPathNeverNE:
    """Thm 10: the path graph is never a Nash equilibrium.

    The theorem's argument — endpoints strictly prefer rewiring to a
    non-endpoint — needs a non-endpoint alternative to exist, i.e. n >= 4.
    For n = 3 the only alternative peer is the other endpoint and the
    rewire is utility-neutral by symmetry (documented edge case below).
    """

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("s", [0.0, 1.0, 2.5])
    def test_path_not_ne(self, n, s):
        model = NetworkGameModel(a=1.0, b=1.0, edge_cost=1.0, zipf_s=s)
        report = check_nash(path(n), model, mode="structured", seed=0)
        assert not report.is_nash

    def test_three_node_path_edge_case(self):
        """n = 3: endpoints are indifferent, so the structured family finds
        no *strict* improvement at these parameters (Thm 10 needs n >= 4)."""
        model = NetworkGameModel(a=1.0, b=1.0, edge_cost=1.0, zipf_s=1.0)
        report = check_nash(path(3), model, mode="exhaustive")
        assert report.is_nash

    def test_three_node_path_unstable_with_cheap_edges(self):
        """With cheap edges even n = 3 breaks: an endpoint adds the chord."""
        model = NetworkGameModel(a=1.0, b=1.0, edge_cost=0.01, zipf_s=1.0)
        report = check_nash(path(3), model, mode="exhaustive")
        assert not report.is_nash

    def test_endpoint_improves_by_rewiring(self):
        """The Thm 10 argument: an endpoint prefers a non-endpoint peer."""
        model = NetworkGameModel(a=1.0, b=1.0, edge_cost=1.0, zipf_s=0.0)
        response = best_response(
            path(5), "v000", model, mode="structured", seed=0
        )
        assert response.can_improve


class TestCircleNotNE:
    """Thm 11: the circle is not a NE for sufficiently large n."""

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_large_circle_not_ne(self, n):
        model = NetworkGameModel(a=1.0, b=1.0, edge_cost=0.05, zipf_s=0.0)
        report = check_nash(circle(n), model, mode="structured", seed=0)
        assert not report.is_nash

    def test_chord_improves_on_large_circle(self):
        model = NetworkGameModel(a=1.0, b=1.0, edge_cost=0.05, zipf_s=0.0)
        response = best_response(
            circle(10), "v000", model, mode="structured", seed=0
        )
        assert response.can_improve
        assert response.best_deviation.add  # adds at least one chord


class TestReportsAndDynamics:
    def test_report_lists_deviators(self):
        model = NetworkGameModel(a=1.0, b=1.0, edge_cost=1.0, zipf_s=0.0)
        report = check_nash(path(4), model, mode="structured", seed=0)
        assert report.deviating_nodes
        assert report.max_gain() > 0

    def test_nodes_restriction(self):
        model = thm9_model(5)
        report = check_nash(
            star(5), model, mode="structured", seed=0, nodes=["v000", CENTER]
        )
        assert set(report.responses) == {"v000", CENTER}

    def test_invalid_mode(self):
        model = NetworkGameModel()
        with pytest.raises(InvalidParameter):
            check_nash(star(3), model, mode="bogus")

    def test_dynamics_fixpoint_on_stable_star(self):
        model = thm9_model(5)
        final, rounds, converged = best_response_dynamics(
            star(5), model, max_rounds=3, seed=0
        )
        assert converged
        assert rounds == 1
        assert final.num_channels() == star(5).num_channels()

    def test_dynamics_changes_unstable_path(self):
        model = NetworkGameModel(a=1.0, b=1.0, edge_cost=1.0, zipf_s=0.0)
        final, _rounds, _converged = best_response_dynamics(
            path(4), model, max_rounds=2, seed=0
        )
        # some rewiring must have happened
        original_edges = {
            frozenset(c.endpoints) for c in path(4).channels
        }
        final_edges = {frozenset(c.endpoints) for c in final.channels}
        assert final_edges != original_edges


def drawn_seeds(caplog):
    """Seeds :func:`~repro.determinism.resolve_seed` drew and logged."""
    return [
        record.args[0] for record in caplog.records
        if record.name == "repro.determinism"
        and "no seed supplied" in record.getMessage()
    ]


class TestSeeding:
    """Deviation families come from ``seed=0`` by default; an explicit
    ``None`` draws one logged entropy seed per public call, and passing
    that seed back replays the run."""

    MODEL = NetworkGameModel(a=1.0, b=1.0, edge_cost=0.5, zipf_s=1.0)

    @pytest.mark.parametrize("mode", ["structured", "sampled"])
    def test_default_is_seed_zero_and_draws_nothing(self, mode, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.determinism"):
            report = check_nash(path(6), self.MODEL, mode=mode)
        assert drawn_seeds(caplog) == []
        assert report == check_nash(path(6), self.MODEL, mode=mode, seed=0)

    @pytest.mark.parametrize("mode", ["structured", "sampled"])
    def test_check_nash_none_logs_one_seed_that_replays(self, mode, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.determinism"):
            report = check_nash(path(6), self.MODEL, mode=mode, seed=None)
        seeds = drawn_seeds(caplog)
        assert len(seeds) == 1
        replay = check_nash(path(6), self.MODEL, mode=mode, seed=seeds[0])
        assert replay == report

    def test_dynamics_none_logs_one_seed_that_replays(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.determinism"):
            outcome = best_response_dynamics(
                path(5), self.MODEL, max_rounds=2, seed=None
            )
        seeds = drawn_seeds(caplog)
        assert len(seeds) == 1
        replay = best_response_dynamics(
            path(5), self.MODEL, max_rounds=2, seed=seeds[0]
        )
        assert replay.moves == outcome.moves

    def test_best_response_none_logs_one_seed(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.determinism"):
            response = best_response(path(6), "v000", self.MODEL, seed=None)
        seeds = drawn_seeds(caplog)
        assert len(seeds) == 1
        assert best_response(
            path(6), "v000", self.MODEL, seed=seeds[0]
        ) == response

    @pytest.mark.parametrize(
        "family", [structured_deviations, sampled_deviations]
    )
    def test_families_default_to_seed_zero(self, family, caplog):
        graph = path(8)
        with caplog.at_level(logging.WARNING, logger="repro.determinism"):
            drawn = family(graph, "v000")
        assert drawn_seeds(caplog) == []
        assert drawn == family(graph, "v000", seed=0)
