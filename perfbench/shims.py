"""Layer spans for the traced run, recorded from outside the program.

A :class:`Recorder` wraps functions at the boundaries between the
program's modules. Each wrapped call records one span
``[name, start, end, parent, op]`` in memory; ``parent`` is the index of
the enclosing span and ``op`` the operation id current when the call
started. A layer's self time is its spans' duration minus the time their
child spans cover. :func:`install_program_shims` and
:func:`install_service_shims` return an ``uninstall`` callable that puts
every original back and checks that it did.

The aggregation helpers at the bottom use only the standard library, so
the benchmark's parent process can import this module without importing
the program.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional

#: Span name -> per-layer metric reporting its self time.
SELF_TIME_METRICS = {
    "snapshots.build": "snapshots.build_s",
    "network.view": "network.view_s",
    "network.betweenness": "network.betweenness_s",
    "core.objective": "core.objective_self_s",
    "core.revenue": "core.revenue_self_s",
    "core.fees": "core.fees_s",
    "transactions.build": "transactions.build_s",
    "transactions.generate": "transactions.generate_s",
    "simulation.run": "simulation.run_s",
    "scenarios.to_dict": "scenarios.to_dict_s",
    "service.execute": "service.execute_self_s",
    "service.hash": "service.hash_s",
    "service.store_get": "service.store_get_s",
    "service.store_put": "service.store_put_s",
    "service.canonical_json": "service.canonical_json_s",
    "service.encode": "service.encode_s",
    "service.decode": "service.decode_s",
}


#: Shim counts reported per operation.
COUNT_METRICS = (
    "network.view_builds",
    "network.betweenness_calls",
    "core.objective_evals",
    "transactions.payments",
    "scenarios.result_bytes",
    "service.store_bytes_read",
    "service.store_bytes_written",
)


class Recorder:
    """Keeps spans and counts of one process in memory."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.op: Any = None
        self._stack: List[int] = []
        self._active: Dict[str, int] = defaultdict(int)

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        count: Optional[Callable[..., None]] = None,
        consume: bool = False,
    ) -> Callable[..., Any]:
        """``fn`` recording a span per outermost call of ``name``.

        ``count(recorder, result, *args)`` runs after the span closes.
        With ``consume``, the returned iterator is drained inside the span
        and handed back as an iterator over the drained items, so a lazy
        generator's work is timed where it happens.
        """
        rec = self

        def shim(*args: Any, **kwargs: Any) -> Any:
            if rec._active[name]:
                return fn(*args, **kwargs)
            index = len(rec.spans)
            parent = rec._stack[-1] if rec._stack else None
            span = [name, time.perf_counter(), None, parent, rec.op]
            rec.spans.append(span)
            rec._stack.append(index)
            rec._active[name] += 1
            try:
                result = fn(*args, **kwargs)
                if consume:
                    result = list(result)
            finally:
                span[2] = time.perf_counter()
                rec._active[name] -= 1
                rec._stack.pop()
            if count is not None:
                count(rec, result, *args)
            return iter(result) if consume else result

        shim.__wrapped__ = fn  # type: ignore[attr-defined]
        return shim


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: List[tuple] = []

    def wrap(self, owner: Any, attr: str, name: str, **options: Any) -> None:
        self.set(owner, attr, self.recorder.wrap(name, _current(owner, attr), **options))

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, _current(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        """Restore every original; raise if one did not come back."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        for owner, attr, original in self._saved:
            if _current(owner, attr) is not original:
                raise RuntimeError(f"shim on {owner!r}.{attr} was not removed")
        self._saved.clear()


def _current(owner: Any, attr: str) -> Any:
    """``owner.attr`` as stored: a class's own function, not a bound method."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _count_payments(rec: Recorder, items: Any, *_: Any) -> None:
    rec.counts["transactions.payments"] += len(items)


def _count_simulated(rec: Recorder, metrics: Any, *_: Any) -> None:
    rec.counts["simulation.payments"] += metrics.attempted
    rec.counts["simulation.succeeded"] += metrics.succeeded


def _count_call(metric: str) -> Callable[..., None]:
    def count(rec: Recorder, *_: Any) -> None:
        rec.counts[metric] += 1

    return count


def install_program_shims(rec: Recorder) -> Callable[[], None]:
    """Wrap the in-process layer boundaries; returns the uninstaller."""
    import repro.attacks.runner as attacks_runner
    import repro.core.revenue as core_revenue
    import repro.equilibrium.node_utility as node_utility
    import repro.network.betweenness as betweenness
    import repro.network.graph as graph
    import repro.scenarios.factory as factory
    import repro.scenarios.runner as scenarios_runner
    import repro.transactions.rates as rates
    from repro.core.utility import JoiningUserModel
    from repro.simulation.engine import SimulationEngine
    from repro.simulation.fastpath import BatchedSimulationEngine
    from repro.transactions.workload import PoissonWorkload

    patches = Patches(rec)
    patches.wrap(graph, "build_view", "network.view",
                 count=_count_call("network.view_builds"))
    for module in (betweenness, core_revenue, attacks_runner, rates, node_utility):
        patches.wrap(module, "pair_weighted_betweenness", "network.betweenness",
                     count=_count_call("network.betweenness_calls"))
    patches.wrap(JoiningUserModel, "objective", "core.objective",
                 count=_count_call("core.objective_evals"))
    patches.wrap(JoiningUserModel, "expected_revenue", "core.revenue")
    patches.wrap(JoiningUserModel, "expected_fees", "core.fees")
    for module in (scenarios_runner, attacks_runner, factory):
        patches.wrap(module, "build_topology", "snapshots.build")
        patches.wrap(module, "build_workload", "transactions.build")
    patches.wrap(PoissonWorkload, "generate", "transactions.generate",
                 count=_count_payments, consume=True)
    for engine in (BatchedSimulationEngine, SimulationEngine):
        patches.wrap(engine, "run", "simulation.run", count=_count_simulated)
    patches.wrap(BatchedSimulationEngine, "run_trace", "simulation.run",
                 count=_count_simulated)
    patches.wrap(scenarios_runner.ScenarioResult, "to_dict", "scenarios.to_dict")
    return patches.undo


# -- the scenario service ----------------------------------------------------

#: Set in the daemon before its worker pool forks; read in the workers.
_service = SimpleNamespace(execute=None, trace_dir=None, pid=None, recorder=None)


def _count_bytes(metric: str) -> Callable[..., None]:
    def count(rec: Recorder, result: Any, store: Any, key: str, *_: Any) -> None:
        if result is not None:
            rec.counts[metric] += store.path_for(key).stat().st_size

    return count


def install_service_shims(rec: Recorder, trace_dir: str) -> Callable[[], None]:
    """Wrap the daemon's store, hashing and codec, and its job executor.

    Jobs run in forked worker processes; :func:`traced_execute` records
    their spans with the in-process shims and appends them to
    ``trace_dir/worker-<pid>.jsonl`` after each job.
    """
    import repro.service.daemon as daemon
    import repro.service.queue as queue
    import repro.service.store as store

    patches = Patches(rec)
    patches.wrap(store.ResultStore, "get", "service.store_get",
                 count=_count_bytes("service.store_bytes_read"))
    patches.wrap(store.ResultStore, "put", "service.store_put",
                 count=_count_bytes("service.store_bytes_written"))
    patches.wrap(store, "canonical_json", "service.canonical_json")
    patches.wrap(queue, "scenario_content_hash", "service.hash")
    codec = SimpleNamespace(
        dumps=rec.wrap("service.encode", json.dumps),
        loads=rec.wrap("service.decode", json.loads),
        JSONDecodeError=json.JSONDecodeError,
    )
    patches.set(daemon, "json", codec)
    _service.execute = queue._execute_scenario_document
    _service.trace_dir = trace_dir
    patches.set(queue, "_execute_scenario_document", traced_execute)
    return patches.undo


def traced_execute(document: Dict[str, Any]) -> Dict[str, Any]:
    """The daemon's job executor with the in-process shims around it."""
    if _service.pid != os.getpid():
        _service.pid = os.getpid()
        _service.recorder = Recorder()
        install_program_shims(_service.recorder)
    rec = _service.recorder
    rec.op = document.get("seed")
    try:
        result = rec.wrap("service.execute", _service.execute)(document)
        rec.counts["scenarios.result_bytes"] += len(json.dumps(result))
        return result
    finally:
        path = os.path.join(_service.trace_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"spans": rec.spans, "counts": rec.counts}) + "\n")
        rec.spans = []
        rec.counts = defaultdict(float)


# -- aggregation (standard library only) -------------------------------------


def self_times(spans: List[List[Any]]) -> Dict[str, float]:
    """Span name -> summed self time (duration minus child coverage)."""
    children: Dict[int, float] = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        totals[name] += (end - start) - children[index]
    return totals


def root_coverage(spans: List[List[Any]]) -> float:
    """Wall time covered by top-level spans (they never overlap)."""
    return sum(end - start for _, start, end, parent, _ in spans if parent is None)


def layer_table(spans: List[List[Any]], counts: Dict[str, float], ops: int,
                wall: float) -> Dict[str, float]:
    """Per-operation layer numbers from spans and shim counts.

    ``wall`` is the summed wall time of the ``ops`` traced operations;
    ``unattributed_share`` is the part of it no top-level span covers.
    """
    out: Dict[str, float] = {}
    for name, value in self_times(spans).items():
        out[SELF_TIME_METRICS[name]] = value / ops
    for name in COUNT_METRICS:
        out[name] = counts.get(name, 0.0) / ops
    run_s = sum(end - start for name, start, end, _, _ in spans
                if name == "simulation.run")
    simulated = counts.get("simulation.payments", 0.0)
    out["simulation.payments_per_s"] = simulated / run_s if run_s else 0.0
    out["simulation.success_ratio"] = (
        counts.get("simulation.succeeded", 0.0) / simulated if simulated else 0.0
    )
    out["unattributed_share"] = max(0.0, 1.0 - root_coverage(spans) / wall)
    return out

