"""best_response_dynamics: DynamicsOutcome semantics and convergence."""

import pytest

from repro.equilibrium import (
    DynamicsOutcome,
    NetworkGameModel,
    best_response_dynamics,
    check_nash,
    circle,
    path,
    star,
)


def thm9_star_model() -> NetworkGameModel:
    """Parameters inside the star's Thm 9 stability region."""
    return NetworkGameModel(a=0.1, b=0.1, edge_cost=1.0, zipf_s=2.0)


def edge_sets(graph):
    return {frozenset(c.endpoints) for c in graph.channels}


class TestReportShape:
    def test_returns_report_with_tuple_compat(self):
        report = best_response_dynamics(star(5), thm9_star_model(), seed=0)
        assert isinstance(report, DynamicsOutcome)
        final, rounds, converged = report  # historical unpacking
        assert final is report.graph
        assert rounds == report.rounds
        assert converged is report.converged

    def test_records_one_move_tuple_per_round(self):
        report = best_response_dynamics(
            path(4),
            NetworkGameModel(a=1.0, b=1.0, edge_cost=1.0, zipf_s=0.0),
            max_rounds=6,
            seed=0,
        )
        assert len(report.moves) == report.rounds
        assert report.total_moves == sum(len(r) for r in report.moves)
        # a converged run's final round is the quiet one
        assert report.converged
        assert report.moves[-1] == ()
        first = report.moves[0][0]
        assert first.gain > 0
        assert not first.deviation.is_null


class TestConvergence:
    def test_fixpoint_on_stable_star(self):
        model = thm9_star_model()
        report = best_response_dynamics(star(5), model, max_rounds=5, seed=0)
        assert report.converged
        assert report.rounds == 1
        assert report.total_moves == 0
        assert edge_sets(report.graph) == edge_sets(star(5))

    def test_circle_converges_to_nash_fixpoint(self):
        model = thm9_star_model()
        report = best_response_dynamics(circle(5), model, max_rounds=8, seed=0)
        assert report.converged
        assert report.total_moves > 0  # the circle is not stable here
        # the reached fixpoint really is a rest point of the dynamics
        assert check_nash(
            report.graph, model, mode="structured", seed=0
        ).is_nash

    def test_star_emerges_from_circle(self):
        report = best_response_dynamics(
            circle(5), thm9_star_model(), max_rounds=8, seed=0
        )
        degrees = sorted(
            len(report.graph.neighbors(n)) for n in report.graph.nodes
        )
        assert degrees == [1, 1, 1, 1, 4]

    def test_max_rounds_reports_non_convergence(self):
        model = NetworkGameModel(a=1.0, b=1.0, edge_cost=1.0, zipf_s=0.0)
        report = best_response_dynamics(path(4), model, max_rounds=1, seed=0)
        assert not report.converged
        assert report.rounds == 1
        assert len(report.moves) == 1
        assert report.total_moves > 0


class TestDeterminismAndModes:
    def test_seed_determinism(self):
        model = thm9_star_model()
        a = best_response_dynamics(circle(6), model, max_rounds=6, seed=3)
        b = best_response_dynamics(circle(6), model, max_rounds=6, seed=3)
        assert edge_sets(a.graph) == edge_sets(b.graph)
        assert a.rounds == b.rounds
        assert a.converged == b.converged
        assert [
            [(m.node, m.deviation) for m in round_moves]
            for round_moves in a.moves
        ] == [
            [(m.node, m.deviation) for m in round_moves]
            for round_moves in b.moves
        ]

    @pytest.mark.parametrize("fixture", [path(4), circle(4)])
    def test_structured_agrees_with_exhaustive_on_tiny_graphs(self, fixture):
        model = NetworkGameModel(a=1.0, b=1.0, edge_cost=1.0, zipf_s=0.0)
        structured = best_response_dynamics(
            fixture, model, max_rounds=6, mode="structured", seed=0
        )
        exhaustive = best_response_dynamics(
            fixture, model, max_rounds=6, mode="exhaustive", seed=0
        )
        assert structured.converged and exhaustive.converged
        assert edge_sets(structured.graph) == edge_sets(exhaustive.graph)
        assert structured.rounds == exhaustive.rounds
