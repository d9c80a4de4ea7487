"""Grid expansion and serial/process-parallel grid evaluation.

The cartesian-product machinery that used to live in
:mod:`repro.analysis.sweeps` now lives here so both the generic sweep
driver (callable per point) and the scenario runner (scenario per point)
share one implementation — including the ``ProcessPoolExecutor`` path.

This module is a dependency leaf (stdlib + :mod:`repro.errors` only), so
anything in the library can import it without cycles.
"""

from __future__ import annotations

import hashlib
from itertools import product
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
)

from ..errors import ScenarioError

__all__ = ["EXECUTORS", "derive_seed", "evaluate_grid", "grid_points"]

#: Supported ``executor`` values for grid evaluation.
EXECUTORS = ("serial", "process")


def grid_points(grid: Mapping[str, Sequence[Any]]) -> Iterator[Dict[str, Any]]:
    """Yield every combination of the grid as a dict.

    Iteration order is deterministic: keys in insertion order, values in
    the order given.
    """
    keys = list(grid)
    for values in product(*(grid[k] for k in keys)):
        yield dict(zip(keys, values))


def derive_seed(base: int, index: int) -> int:
    """Deterministic per-point seed: hash of ``(base, index)``.

    Grid point ``index`` always gets the same seed for a given base seed,
    independent of executor, worker count, or scheduling order — the
    property that makes ``executor="process"`` row-for-row identical to
    ``executor="serial"``. Hashing (rather than ``base + index``) keeps
    neighbouring points' RNG streams uncorrelated.
    """
    digest = hashlib.sha256(f"{base}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big") % (2**31)


def evaluate_grid(
    grid: Mapping[str, Sequence[Any]],
    evaluate: Callable[[int, Dict[str, Any]], Mapping[str, Any]],
    executor: str = "serial",
    max_workers: Optional[int] = None,
    progress: Optional[Callable[[int, Dict[str, Any]], None]] = None,
) -> List[Dict[str, Any]]:
    """Evaluate ``evaluate(index, point)`` on every grid point.

    The returned rows merge each point's parameters with its results
    (results win on name clashes) and are ordered like
    :func:`grid_points` regardless of executor.

    Args:
        grid: parameter name -> values.
        evaluate: called with ``(index, point)``; must return a mapping of
            result columns. For ``executor="process"`` it must be a
            picklable top-level callable.
        executor: ``"serial"`` or ``"process"`` (a
            ``ProcessPoolExecutor`` over the grid points).
        max_workers: process-pool size (``"process"`` only; default lets
            the pool pick).
        progress: optional callback ``(index, point)``. Called before each
            evaluation when serial; called as results arrive (still in
            index order) when process-parallel.
    """
    if executor not in EXECUTORS:
        raise ScenarioError(
            f"executor must be one of {EXECUTORS}, got {executor!r}"
        )
    points = list(grid_points(grid))
    if executor == "serial":
        results = []
        for index, point in enumerate(points):
            if progress is not None:
                progress(index, point)
            results.append(evaluate(index, point))
    else:
        # Imported here: multiprocessing is a slow import that serial
        # runs, the CLI and the daemon never use.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = pool.map(evaluate, range(len(points)), points)
            results = []
            for index, result in enumerate(futures):
                if progress is not None:
                    progress(index, points[index])
                results.append(result)
    rows: List[Dict[str, Any]] = []
    for point, result in zip(points, results):
        row = dict(point)
        row.update(result)
        rows.append(row)
    return rows
