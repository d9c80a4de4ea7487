"""Command-line interface: run the paper's analyses from the shell.

Every subcommand is a thin adapter over the declarative scenario API
(:mod:`repro.scenarios`): it assembles a :class:`Scenario` from its flags
and hands it to :class:`ScenarioRunner`, so the CLI, the examples, and the
sweep machinery all execute experiments through the same code path.

Subcommands:

* ``join`` — compute an optimal joining strategy on a snapshot (generated
  or loaded) with the algorithm of your choice;
* ``stability`` — check whether a simple topology is a Nash equilibrium
  for given (a, b, l, s) and compare with the closed-form conditions;
* ``simulate`` — run the discrete-event simulator on a snapshot and
  report success rates and top earners (``--trace-out`` streams the
  instrumentation trace to a JSONL file);
* ``generate`` — write a synthetic snapshot to a JSON file;
* ``estimate`` — simulate traffic with known parameters (Zipf ``s``,
  per-sender rates), then recover them and report the round-trip error;
* ``run-scenario`` — execute a scenario described as a JSON file
  (topology + workload + fee + algorithm + simulation) end to end
  (``--profile`` additionally prints the hot-spot report);
* ``profile`` — run a scenario fully instrumented (:mod:`repro.obs`)
  and print the hot-spot report, wall time per phase; ``--output``
  writes the schema-versioned ``RunTelemetry`` JSON, ``--trace-out``
  the event JSONL trace;
* ``sweep`` — evaluate a scenario JSON over a grid of dotted-path
  overrides (``--set topology.params.n=10,20,50``), serially or across
  worker processes (``--executor process``);
* ``attack`` — run the adversarial traffic engine against a topology
  (jamming / depletion / griefing) and report the damage vs. an honest
  baseline; ``--compare`` sweeps the budget over the star / path / circle
  equilibria and prints the resilience table;
* ``evolve`` — run the epoch-based network evolution engine (arrivals,
  churn, traffic epochs, best-response dynamics) on a topology and emit
  the JSON trajectory; ``--emergence`` sweeps the Section IV topologies
  and prints the emergence table instead;
* ``serve`` — run the long-lived scenario service daemon
  (:mod:`repro.service`): JSON-lines over localhost TCP, content-
  addressed result store, async job queue with in-flight dedupe;
* ``submit`` — send a scenario JSON to a running daemon (``--wait``
  blocks for the result document);
* ``status`` — query a running daemon for job states;
* ``store`` — inspect (``stats``) or evict from (``gc``) a result store
  without a daemon;
* ``lint`` — run reprolint, the AST-based invariant linter
  (:mod:`repro.devtools`), over the tree: determinism, GraphView
  immutability, frozen artifacts, registry discipline, store/artifact
  serialisation hygiene (RPR001–RPR008).

Import-order note: this module imports only the spec layer and the table
helper; each handler imports the layers it runs, so ``repro --help`` and
``repro serve`` load no compute layer and no numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from . import __version__
from .analysis.tables import format_table
from .errors import ReproError, ScenarioError
from .scenarios.specs import (
    AlgorithmSpec,
    ChurnSpec,
    EvolutionSpec,
    FeeSpec,
    GrowthSpec,
    Scenario,
    SimulationSpec,
    TopologySpec,
    WorkloadSpec,
)

__all__ = ["main", "build_parser"]


def _topology_spec(args: argparse.Namespace) -> TopologySpec:
    """The snapshot-flags -> TopologySpec adapter shared by subcommands."""
    if args.snapshot:
        return TopologySpec("file", {"path": args.snapshot})
    if args.topology == "ba":
        return TopologySpec("ba", {"n": args.nodes})
    core_size = max(args.nodes // 10, 3)
    return TopologySpec(
        "core-periphery",
        {"core_size": core_size, "periphery_size": args.nodes - core_size},
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    from .scenarios.runner import ScenarioRunner
    from .snapshots import save_snapshot

    scenario = Scenario(
        topology=_topology_spec(args), name="generate", seed=args.seed
    )
    graph = ScenarioRunner().run(scenario).graph
    save_snapshot(graph, args.output)
    print(
        f"wrote snapshot: {len(graph)} nodes, {graph.num_channels()} channels "
        f"-> {args.output}"
    )
    return 0


def _cmd_join(args: argparse.Namespace) -> int:
    from .scenarios.runner import ScenarioRunner

    params: Dict[str, Any] = {"budget": args.budget}
    if args.algorithm in ("greedy", "bruteforce"):
        params["lock"] = args.lock
    elif args.algorithm == "exhaustive":
        params["granularity"] = args.granularity
        params["max_divisions"] = args.max_divisions
    scenario = Scenario(
        topology=_topology_spec(args),
        algorithm=AlgorithmSpec(
            args.algorithm,
            params,
            user=args.user,
            model={"zipf_s": args.zipf_s},
        ),
        name="join",
        seed=args.seed,
    )
    result = ScenarioRunner().run(scenario).optimisation
    print(result.summary())
    rows = [
        {"peer": str(a.peer), "locked": a.locked} for a in result.strategy
    ]
    if rows:
        print(format_table(rows, title="chosen channels"))
    return 0


def _cmd_stability(args: argparse.Namespace) -> int:
    from .equilibrium import NetworkGameModel, check_nash, star_ne_closed_form
    from .scenarios.factory import build_topology

    size_param = "leaves" if args.topology_name == "star" else "n"
    graph = build_topology(
        TopologySpec(args.topology_name, {size_param: args.size})
    )
    model = NetworkGameModel(
        a=args.a, b=args.b, edge_cost=args.edge_cost, zipf_s=args.zipf_s
    )
    report = check_nash(graph, model, mode=args.mode, seed=0)
    print(f"{args.topology_name}({args.size}): NE={report.is_nash}")
    if not report.is_nash:
        for node in report.deviating_nodes:
            response = report.responses[node]
            print(
                f"  {node}: gain={response.gain:.6g} via {response.best_deviation}"
            )
    if args.topology_name == "star":
        closed = star_ne_closed_form(
            args.size, args.zipf_s, args.a, args.b, args.edge_cost
        )
        print(f"Thm 8 closed form says NE={closed}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .scenarios.runner import ScenarioRunner

    scenario = Scenario(
        topology=_topology_spec(args),
        workload=WorkloadSpec(
            "poisson",
            {
                "zipf_s": args.zipf_s,
                "sizes": {
                    "kind": "truncated-exponential",
                    "scale": args.tx_scale,
                    "high": args.tx_max,
                },
            },
        ),
        fee=FeeSpec("linear", {"base": 0.01, "rate": 0.001}),
        simulation=SimulationSpec(horizon=args.horizon),
        name="simulate",
        seed=args.seed,
    )
    obs = None
    if args.trace_out:
        from .obs import ObsSession, TraceWriter

        obs = ObsSession(tracer=TraceWriter(args.trace_out))
    try:
        metrics = ScenarioRunner(obs=obs).run(scenario).metrics
    finally:
        if obs is not None and obs.tracer is not None:
            records = obs.tracer.records_written
            obs.tracer.close()
            print(f"wrote {records} trace records -> {args.trace_out}",
                  file=sys.stderr)
    print(metrics.summary())
    earners = sorted(
        metrics.revenue.items(), key=lambda kv: kv[1], reverse=True
    )[:10]
    rows = [
        {"node": str(node), "revenue": rev, "rate": metrics.revenue_rate(node)}
        for node, rev in earners
    ]
    if rows:
        print(format_table(rows, title="top earners"))
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    """Simulate traffic with known parameters, then recover them."""
    from .analysis.estimation import estimate_sender_rates, estimate_zipf_s
    from .determinism import ordered_sum
    from .scenarios.factory import build_topology
    from .transactions import ModifiedZipf, PoissonWorkload

    graph = build_topology(_topology_spec(args), seed=args.seed)
    workload = PoissonWorkload(
        ModifiedZipf(graph, s=args.zipf_s),
        {node: args.sender_rate for node in graph.nodes},
        seed=args.seed,
    )
    trace = workload.generate_count(args.samples)
    zipf = estimate_zipf_s(graph, trace)
    print(f"true s = {args.zipf_s:g}, estimated s = {zipf.s:.3f} "
          f"({zipf.samples} samples)")
    horizon = trace[-1].time
    rates = estimate_sender_rates(trace, horizon)
    covered = ordered_sum(e.contains(args.sender_rate) for e in rates.values())
    print(
        f"per-sender rate CIs covering the true rate {args.sender_rate:g}: "
        f"{covered}/{len(rates)}"
    )
    top = sorted(rates.items(), key=lambda kv: kv[1].rate, reverse=True)[:5]
    rows = [
        {
            "node": str(node),
            "rate": est.rate,
            "ci_low": est.ci_low,
            "ci_high": est.ci_high,
        }
        for node, est in top
    ]
    print(format_table(rows, title="busiest senders"))
    return 0


def _load_scenario(path: str) -> Scenario:
    try:
        with open(path) as handle:
            return Scenario.from_json(handle.read())
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc


def _apply_scenario_overrides(
    scenario: Scenario, args: argparse.Namespace
) -> Scenario:
    """Apply the shared ``--seed`` override flag."""
    if args.seed is not None:
        scenario = scenario.with_overrides({"seed": args.seed})
    return scenario


def _cmd_run_scenario(args: argparse.Namespace) -> int:
    from .scenarios.runner import ScenarioRunner

    scenario = _apply_scenario_overrides(_load_scenario(args.scenario), args)
    obs = None
    if args.profile:
        from .obs import ObsSession

        obs = ObsSession(enabled=True)
    result = ScenarioRunner(obs=obs).run(scenario)
    print(result.summary())
    print(format_table([result.row], title=scenario.name))
    if obs is not None:
        from .obs import hotspot_table, telemetry_of

        telemetry = telemetry_of(result)
        if telemetry is not None:
            print()
            print(hotspot_table(telemetry))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run a scenario fully instrumented and print the hot-spot report."""
    from .obs import ObsSession, TraceWriter, hotspot_table, telemetry_of
    from .scenarios.runner import ScenarioRunner

    scenario = _apply_scenario_overrides(_load_scenario(args.scenario), args)
    tracer = TraceWriter(args.trace_out) if args.trace_out else None
    obs = ObsSession(enabled=True, tracer=tracer)
    try:
        result = ScenarioRunner(obs=obs).run(scenario)
    finally:
        if tracer is not None:
            records = tracer.records_written
            tracer.close()
            print(f"wrote {records} trace records -> {args.trace_out}",
                  file=sys.stderr)
    telemetry = telemetry_of(result)
    assert telemetry is not None  # the session is enabled
    print(result.summary())
    print()
    print(hotspot_table(telemetry))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(telemetry.to_json())
            handle.write("\n")
        print(f"wrote telemetry -> {args.output}")
    return 0


def _parse_grid_setting(setting: str) -> Dict[str, List[Any]]:
    """``"topology.params.n=10,20"`` -> ``{"topology.params.n": [10, 20]}``.

    The value part is parsed as one JSON document first: a JSON array is
    the explicit list of grid values (the only way to sweep list- or
    object-valued parameters, e.g.
    ``fee.params.knots=[[[0,0.1],[5,0.5]]]`` — one value that is itself a
    list of knots). Otherwise the value splits on commas, each token
    parsing as JSON when possible and falling back to a bare string (so
    ``fee.kind=linear`` works unquoted).
    """
    path, _, values = setting.partition("=")
    if not path or not values:
        raise ScenarioError(
            f"--set expects PATH=V1[,V2,...], got {setting!r}"
        )
    try:
        document = json.loads(values)
    except json.JSONDecodeError:
        pass
    else:
        return {path: document if isinstance(document, list) else [document]}

    def parse(token: str) -> Any:
        try:
            return json.loads(token)
        except json.JSONDecodeError:
            return token

    return {path: [parse(token) for token in values.split(",")]}


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .scenarios.runner import ScenarioRunner

    scenario = _load_scenario(args.scenario)
    grid: Dict[str, List[Any]] = {}
    for setting in args.set or []:
        grid.update(_parse_grid_setting(setting))
    progress = None
    if args.verbose:
        progress = lambda index, point: print(f"[{index}] {point}", file=sys.stderr)
    rows = ScenarioRunner().run_sweep(
        scenario,
        grid,
        executor=args.executor,
        max_workers=args.workers,
        progress=progress,
        cache=args.cache,
    )
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(rows, handle, indent=2)
        print(f"wrote {len(rows)} rows -> {args.output}")
    else:
        print(format_table(rows, title=f"sweep of {scenario.name}"))
    return 0


_ATTACK_TOPOLOGY_SIZE_PARAM = {
    "star": "leaves", "path": "n", "circle": "n", "complete": "n", "ba": "n",
}


def _cmd_attack(args: argparse.Namespace) -> int:
    from .analysis.resilience import (
        TABLE_COLUMNS,
        default_attack_scenario,
        resilience_table,
    )
    from .scenarios.runner import ScenarioRunner

    attack_params: Dict[str, Any] = {"budget": args.budget}
    if args.victim is not None:
        attack_params["victim"] = args.victim
    if args.slot_cap is not None:
        attack_params["slot_cap"] = args.slot_cap
    if args.amount is not None:
        attack_params["amount"] = args.amount
    if args.hold_time is not None:
        attack_params["hold_time"] = args.hold_time

    if args.countermeasures:
        from .analysis.countermeasures import (
            TABLE_COLUMNS as COUNTERMEASURE_COLUMNS,
            countermeasure_table,
        )

        rows = countermeasure_table(
            args.upfront_rates,
            budget=args.budget,
            strategy=args.strategy,
            size=args.size,
            balance=args.balance,
            horizon=args.horizon,
            seed=args.seed,
            zipf_s=args.zipf_s,
            upfront_base=args.upfront_base,
            attack_params={
                k: v for k, v in attack_params.items() if k != "budget"
            },
            executor=args.executor,
            max_workers=args.workers,
            cache=args.cache,
        )
        print(format_table(
            rows,
            columns=list(COUNTERMEASURE_COLUMNS),
            title=f"jamming countermeasures vs {args.strategy}",
        ))
        return 0

    if args.compare:
        budgets = args.budgets if args.budgets else [args.budget]
        rows = resilience_table(
            budgets,
            strategy=args.strategy,
            size=args.size,
            balance=args.balance,
            horizon=args.horizon,
            seed=args.seed,
            zipf_s=args.zipf_s,
            attack_params={
                k: v for k, v in attack_params.items() if k != "budget"
            },
            executor=args.executor,
            max_workers=args.workers,
        )
        print(format_table(
            rows,
            columns=list(TABLE_COLUMNS),
            title=f"NE resilience under {args.strategy}",
        ))
        return 0

    size_param = _ATTACK_TOPOLOGY_SIZE_PARAM[args.topology]
    size = args.size - 1 if args.topology == "star" else args.size
    scenario = default_attack_scenario(
        TopologySpec(
            args.topology, {size_param: size, "balance": args.balance}
            if args.topology != "ba" else {"n": args.size},
        ),
        args.strategy,
        attack_params,
        horizon=args.horizon,
        seed=args.seed,
        zipf_s=args.zipf_s,
    )
    if args.fee_policy == "upfront":
        scenario = scenario.with_overrides({
            "fee.upfront_base": args.upfront_base,
            "fee.upfront_rate": args.upfront_rates[0],
        })
    result = ScenarioRunner().run(scenario)
    report = result.attack
    print(report.summary())
    print(format_table([report.to_row()], title="attack report"))
    return 0


def _cmd_evolve(args: argparse.Namespace) -> int:
    from .analysis.emergence import EMERGENCE_COLUMNS, emergence_table
    from .scenarios.runner import ScenarioRunner

    if args.emergence:
        rows = emergence_table(
            epochs=args.epochs,
            size=args.size,
            balance=args.balance,
            seed=args.seed,
            arrival_rate=args.arrival_rate,
            churn_rate=args.churn_rate,
            utility=args.utility,
            traffic_horizon=args.horizon,
            a=args.a,
            b=args.b,
            edge_cost=args.edge_cost,
            zipf_s=args.zipf_s,
            sample=args.sample,
            mode=args.mode,
            executor=args.executor,
            max_workers=args.workers,
        )
        print(format_table(
            rows,
            columns=list(EMERGENCE_COLUMNS),
            title="topology emergence under evolution",
        ))
        return 0

    growth = None
    if args.arrival_rate > 0:
        growth = GrowthSpec("poisson", {
            "rate": args.arrival_rate,
            "algorithm": args.join_algorithm,
            "params": (
                {"budget": args.join_budget, "lock": 1.0}
                if args.join_algorithm == "greedy" else {}
            ),
        })
    churn = None
    if args.churn_rate > 0:
        churn = ChurnSpec("uniform", {"rate": args.churn_rate})
    size_param = _ATTACK_TOPOLOGY_SIZE_PARAM[args.topology]
    size = args.size - 1 if args.topology == "star" else args.size
    scenario = Scenario(
        topology=TopologySpec(
            args.topology,
            {size_param: size, "balance": args.balance}
            if args.topology != "ba" else {"n": args.size},
        ),
        workload=WorkloadSpec("poisson", {"zipf_s": args.zipf_s}),
        fee=FeeSpec("linear", {"base": 0.01, "rate": 0.001}),
        evolution=EvolutionSpec(
            epochs=args.epochs,
            growth=growth,
            churn=churn,
            utility=args.utility,
            traffic_horizon=args.horizon,
            sample=args.sample,
            mode=args.mode,
            # best-response channels match the topology's funding, so
            # empirical replays don't starve deviators of liquidity
            # (ba draws its own capacities; the spec default stands)
            balance=args.balance if args.topology != "ba" else 1.0,
            a=args.a,
            b=args.b,
            edge_cost=args.edge_cost,
            zipf_s=args.zipf_s,
        ),
        name="evolve",
        seed=args.seed,
    )
    trajectory = ScenarioRunner().run(scenario).evolution
    document = trajectory.to_json()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(document + "\n")
        print(f"wrote trajectory ({trajectory.epochs_run} epochs) "
              f"-> {args.output}")
    else:
        print(document)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the daemon until shutdown.

    The daemon reaches its ready line with the service and spec layers
    alone (no numpy); its workers import the compute layers on their
    first job, so the first cold submit pays those imports once.
    """
    from .service.daemon import run_server

    def announce(host: str, port: int) -> None:
        store = args.store or "default store"
        print(
            f"repro service listening on {host}:{port} "
            f"({args.workers} x {args.worker} workers, {store})",
            flush=True,
        )

    run_server(
        store=args.store,
        host=args.host,
        port=args.port,
        workers=args.workers,
        worker=args.worker,
        ready=announce,
    )
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service.daemon import ServiceClient

    scenario = _load_scenario(args.scenario)
    if args.seed is not None:
        scenario = scenario.with_overrides({"seed": args.seed})
    client = ServiceClient(host=args.host, port=args.port, timeout=args.timeout)
    response = client.submit(scenario.to_dict(), wait=args.wait)
    if args.wait:
        result = response["result"]
        print(f"{response['hash']}  state={response['state']}")
        print(format_table([result["row"]], title=scenario.name))
    else:
        print(f"{response['hash']}  state={response['state']}")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from .service.daemon import ServiceClient

    client = ServiceClient(host=args.host, port=args.port, timeout=args.timeout)
    if args.hash:
        job = client.status(args.hash)["job"]
        print(json.dumps(job, indent=2, sort_keys=True))
        return 0
    jobs = client.status()["jobs"]
    if not jobs:
        print("no jobs")
        return 0
    rows = [
        {
            "hash": job["spec_hash"][:12],
            "state": job["state"],
            "waiters": job["waiters"],
            "attempts": job["attempts"],
            "error": job["error"] or "",
        }
        for job in jobs
    ]
    print(format_table(rows, title="service jobs"))
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from .service.store import ResultStore

    store = ResultStore.open(args.store)
    if args.store_command == "stats":
        print(json.dumps(store.stats().to_dict(), indent=2, sort_keys=True))
        return 0
    evicted = store.gc(max_entries=args.max_entries, max_bytes=args.max_bytes)
    stats = store.stats()
    print(
        f"evicted {len(evicted)} entries; {stats.entries} remain "
        f"({stats.total_bytes} bytes)"
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .devtools.cli import run_lint

    return run_lint(args)


def _add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``repro lint`` flags (:mod:`repro.devtools.cli` runs them)."""
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files/directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=["human", "json"], default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--select", default=None, metavar="RPR001,RPR002",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="baseline file (default: .reprolint-baseline.json if present)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write the current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lightning-creation-games",
        description="Lightning Creation Games (ICDCS 2023) reproduction CLI",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_snapshot_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--snapshot", help="describegraph JSON to load")
        p.add_argument("--topology", choices=["ba", "core-periphery"], default="ba")
        p.add_argument("--nodes", type=int, default=50)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--zipf-s", dest="zipf_s", type=float, default=1.0)

    p_gen = sub.add_parser("generate", help="write a synthetic snapshot")
    add_snapshot_args(p_gen)
    p_gen.add_argument("output", help="output JSON path")
    p_gen.set_defaults(func=_cmd_generate)

    p_join = sub.add_parser("join", help="optimal joining strategy")
    add_snapshot_args(p_join)
    p_join.add_argument("--user", default="new-user")
    p_join.add_argument("--budget", type=float, default=10.0)
    p_join.add_argument("--lock", type=float, default=1.0)
    p_join.add_argument("--granularity", type=float, default=1.0)
    p_join.add_argument("--max-divisions", type=int, default=200)
    p_join.add_argument(
        "--algorithm",
        choices=["greedy", "exhaustive", "continuous", "bruteforce"],
        default="greedy",
    )
    p_join.set_defaults(func=_cmd_join)

    p_stab = sub.add_parser("stability", help="Nash-equilibrium check")
    p_stab.add_argument(
        "topology_name", choices=["star", "path", "circle"]
    )
    p_stab.add_argument("--size", type=int, default=6)
    p_stab.add_argument("-a", type=float, default=0.1)
    p_stab.add_argument("-b", type=float, default=0.1)
    p_stab.add_argument("--edge-cost", type=float, default=1.0)
    p_stab.add_argument("--zipf-s", dest="zipf_s", type=float, default=2.0)
    p_stab.add_argument(
        "--mode", choices=["structured", "exhaustive"], default="structured"
    )
    p_stab.set_defaults(func=_cmd_stability)

    p_sim = sub.add_parser("simulate", help="run the payment simulator")
    add_snapshot_args(p_sim)
    p_sim.add_argument("--horizon", type=float, default=100.0)
    p_sim.add_argument("--tx-scale", type=float, default=0.5)
    p_sim.add_argument("--tx-max", type=float, default=5.0)
    p_sim.add_argument(
        "--trace-out", default=None, metavar="TRACE_JSONL",
        help="stream the instrumentation trace (events, one JSON "
        "record per line) to this file",
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_est = sub.add_parser(
        "estimate", help="round-trip parameter estimation on simulated traffic"
    )
    add_snapshot_args(p_est)
    p_est.add_argument("--samples", type=int, default=1000)
    p_est.add_argument("--sender-rate", type=float, default=1.0)
    p_est.set_defaults(func=_cmd_estimate)

    p_run = sub.add_parser(
        "run-scenario", help="execute a scenario described as a JSON file"
    )
    p_run.add_argument("scenario", help="scenario JSON path")
    p_run.add_argument(
        "--seed", type=int, default=None, help="override the scenario's seed"
    )
    p_run.add_argument(
        "--profile", action="store_true",
        help="instrument the run and print the hot-spot report "
        "(results are bit-identical either way)",
    )
    p_run.set_defaults(func=_cmd_run_scenario)

    p_prof = sub.add_parser(
        "profile",
        help="run a scenario instrumented and print the hot-spot report",
    )
    p_prof.add_argument("scenario", help="scenario JSON path")
    p_prof.add_argument(
        "--seed", type=int, default=None, help="override the scenario's seed"
    )
    p_prof.add_argument(
        "--trace-out", default=None, metavar="TRACE_JSONL",
        help="also stream the event trace to this JSONL file",
    )
    p_prof.add_argument(
        "--output", default=None, metavar="TELEMETRY_JSON",
        help="write the schema-versioned RunTelemetry document here",
    )
    p_prof.set_defaults(func=_cmd_profile)

    p_sweep = sub.add_parser(
        "sweep", help="evaluate a scenario over a grid of overrides"
    )
    p_sweep.add_argument("scenario", help="base scenario JSON path")
    p_sweep.add_argument(
        "--set",
        action="append",
        metavar="PATH=V1[,V2,...]",
        help="grid dimension as a dotted override path and its values; "
        "repeatable (e.g. --set topology.params.n=10,20,50). A JSON "
        "array is taken as the explicit value list, which allows "
        "list-valued parameters",
    )
    p_sweep.add_argument(
        "--executor", choices=["serial", "process"], default="serial"
    )
    p_sweep.add_argument(
        "--workers", type=int, default=None, help="process-pool size"
    )
    p_sweep.add_argument(
        "--output", help="write rows as JSON here instead of printing a table"
    )
    p_sweep.add_argument(
        "--verbose", action="store_true", help="log each grid point to stderr"
    )
    p_sweep.add_argument(
        "--cache", default=None, metavar="PATH",
        help="content-addressed result store: grid points whose resolved "
        "scenario hash is already stored are served without re-execution",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_atk = sub.add_parser(
        "attack",
        help="adversarial traffic: jam / deplete / grief a topology and "
        "report the damage vs an honest baseline",
    )
    p_atk.add_argument(
        "--topology",
        choices=sorted(_ATTACK_TOPOLOGY_SIZE_PARAM),
        default="star",
    )
    p_atk.add_argument(
        "--size", type=int, default=9, help="number of nodes (all topologies)"
    )
    p_atk.add_argument(
        "--balance", type=float, default=10.0,
        help="per-side channel balance of the built topology "
        "(ignored for --topology ba, which draws its own capacities)",
    )
    p_atk.add_argument(
        "--strategy",
        choices=["slow-jamming", "liquidity-depletion", "fee-griefing"],
        default="slow-jamming",
    )
    p_atk.add_argument(
        "--budget", type=float, default=1000.0,
        help="attacker capital endowment",
    )
    p_atk.add_argument(
        "--victim", default=None,
        help="node id to target (default: highest-betweenness node)",
    )
    p_atk.add_argument(
        "--slot-cap", dest="slot_cap", type=int, default=None,
        help="max_accepted_htlcs applied to every pre-attack channel "
        "(both baseline and attacked run)",
    )
    p_atk.add_argument(
        "--amount", type=float, default=None, help="per-HTLC attack amount"
    )
    p_atk.add_argument(
        "--hold-time", dest="hold_time", type=float, default=None,
        help="how long each adversarial HTLC is held",
    )
    p_atk.add_argument("--horizon", type=float, default=40.0)
    p_atk.add_argument("--seed", type=int, default=7)
    p_atk.add_argument("--zipf-s", dest="zipf_s", type=float, default=1.0)
    p_atk.add_argument(
        "--fee-policy", dest="fee_policy",
        choices=["success-only", "upfront"], default="success-only",
        help="two-sided fee policy: 'upfront' additionally charges "
        "--upfront-base + --upfront-rate * amount per placed hop on "
        "every attempt, settle or not",
    )
    p_atk.add_argument(
        "--upfront-base", dest="upfront_base", type=float, default=0.0,
        help="flat per-attempt charge of the upfront policy",
    )
    p_atk.add_argument(
        "--upfront-rate", dest="upfront_rates", type=float, nargs="+",
        default=[0.05], metavar="RATE",
        help="proportional per-attempt rate(s): the first applies to a "
        "single '--fee-policy upfront' run; all of them (strictly "
        "increasing) form the --countermeasures sweep axis",
    )
    p_atk.add_argument(
        "--compare", action="store_true",
        help="sweep the budget over star/path/circle equilibria and print "
        "the resilience table instead of a single report",
    )
    p_atk.add_argument(
        "--countermeasures", action="store_true",
        help="sweep success-only vs upfront fee policies (--upfront-rate "
        "values) over star/path/circle equilibria and print attacker "
        "cost/ROI per policy",
    )
    p_atk.add_argument(
        "--cache", default=None, metavar="PATH",
        help="content-addressed result store for --countermeasures "
        "(repeated sweeps re-execute only changed grid points)",
    )
    p_atk.add_argument(
        "--budgets", type=float, nargs="+", default=None,
        help="budgets for --compare (default: just --budget)",
    )
    p_atk.add_argument(
        "--executor", choices=["serial", "process"], default="serial",
        help="grid executor for --compare",
    )
    p_atk.add_argument(
        "--workers", type=int, default=None, help="process-pool size"
    )
    p_atk.set_defaults(func=_cmd_attack)

    p_ev = sub.add_parser(
        "evolve",
        help="evolve a topology over epochs of arrivals, churn, traffic "
        "and best-response dynamics; prints the JSON trajectory",
    )
    p_ev.add_argument(
        "--topology",
        choices=sorted(_ATTACK_TOPOLOGY_SIZE_PARAM),
        default="star",
    )
    p_ev.add_argument(
        "--size", type=int, default=6, help="number of nodes (all topologies)"
    )
    p_ev.add_argument(
        "--balance", type=float, default=10.0,
        help="per-side channel balance of the built topology "
        "(ignored for --topology ba)",
    )
    p_ev.add_argument("--epochs", type=int, default=10)
    p_ev.add_argument("--seed", type=int, default=7)
    p_ev.add_argument(
        "--arrival-rate", dest="arrival_rate", type=float, default=0.0,
        help="mean Poisson arrivals per epoch (0 disables growth)",
    )
    p_ev.add_argument(
        "--join-algorithm", dest="join_algorithm",
        choices=["greedy", "random-attach"], default="greedy",
        help="how arriving nodes place their channels",
    )
    p_ev.add_argument(
        "--join-budget", dest="join_budget", type=float, default=4.0,
        help="budget of each arriving node (greedy join only)",
    )
    p_ev.add_argument(
        "--churn-rate", dest="churn_rate", type=float, default=0.0,
        help="per-node departure probability per epoch (0 disables churn)",
    )
    p_ev.add_argument(
        "--horizon", type=float, default=20.0,
        help="traffic-epoch length in simulated time units (0 disables "
        "traffic)",
    )
    p_ev.add_argument(
        "--utility", choices=["analytic", "empirical"], default="analytic",
        help="what best responses maximise: the Section IV closed form or "
        "the revenue observed by replaying the epoch's traffic",
    )
    p_ev.add_argument(
        "--sample", type=int, default=None,
        help="nodes swept per best-response phase (default: all)",
    )
    p_ev.add_argument(
        "--mode", choices=["structured", "exhaustive", "sampled"],
        default="structured", help="deviation family per swept node",
    )
    p_ev.add_argument("-a", type=float, default=0.1)
    p_ev.add_argument("-b", type=float, default=0.1)
    p_ev.add_argument("--edge-cost", dest="edge_cost", type=float, default=1.0)
    p_ev.add_argument("--zipf-s", dest="zipf_s", type=float, default=2.0)
    p_ev.add_argument(
        "--output", help="write the JSON trajectory here instead of stdout"
    )
    p_ev.add_argument(
        "--emergence", action="store_true",
        help="sweep star/path/circle with these settings and print the "
        "emergence table instead of one trajectory",
    )
    p_ev.add_argument(
        "--executor", choices=["serial", "process"], default="serial",
        help="grid executor for --emergence",
    )
    p_ev.add_argument(
        "--workers", type=int, default=None, help="process-pool size"
    )
    p_ev.set_defaults(func=_cmd_evolve)

    def add_client_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=8923)
        p.add_argument(
            "--timeout", type=float, default=600.0,
            help="per-request socket timeout in seconds",
        )

    p_serve = sub.add_parser(
        "serve",
        help="run the scenario service daemon (JSON lines over "
        "localhost TCP; content-addressed result store; async job queue)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8923, help="TCP port (0 picks a free one)"
    )
    p_serve.add_argument(
        "--store", default=None,
        help="result-store directory (default: $REPRO_STORE or ~/.cache/repro)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2, help="concurrent scenario executions"
    )
    p_serve.add_argument(
        "--worker", choices=["process", "thread", "inline"], default="process",
        help="worker kind (process isolates crashes; thread avoids "
        "fork overhead for small scenarios)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_sub = sub.add_parser(
        "submit", help="submit a scenario JSON to a running service daemon"
    )
    p_sub.add_argument("scenario", help="scenario JSON path")
    p_sub.add_argument(
        "--seed", type=int, default=None, help="override the scenario's seed"
    )
    p_sub.add_argument(
        "--wait", action="store_true", help="block until the result is ready"
    )
    add_client_args(p_sub)
    p_sub.set_defaults(func=_cmd_submit)

    p_stat = sub.add_parser(
        "status", help="query a running service daemon for job states"
    )
    p_stat.add_argument(
        "hash", nargs="?", default=None,
        help="spec hash to inspect (default: list all jobs)",
    )
    add_client_args(p_stat)
    p_stat.set_defaults(func=_cmd_status)

    p_store = sub.add_parser(
        "store", help="inspect or garbage-collect a result store"
    )
    p_store.add_argument(
        "store_command", choices=["stats", "gc"], metavar="{stats,gc}"
    )
    p_store.add_argument(
        "--store", default=None,
        help="store directory (default: $REPRO_STORE or ~/.cache/repro)",
    )
    p_store.add_argument(
        "--max-entries", dest="max_entries", type=int, default=None,
        help="gc: keep at most this many entries (LRU eviction)",
    )
    p_store.add_argument(
        "--max-bytes", dest="max_bytes", type=int, default=None,
        help="gc: keep at most this many payload bytes (LRU eviction)",
    )
    p_store.set_defaults(func=_cmd_store)

    p_lint = sub.add_parser(
        "lint",
        help="run reprolint, the AST-based invariant linter "
        "(determinism, GraphView immutability, frozen artifacts, ...)",
    )
    _add_lint_arguments(p_lint)
    p_lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
