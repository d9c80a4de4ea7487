"""Seed resolution, and float totals that add the same on every interpreter.

Every headline claim of this reproduction — event-vs-batched parity,
byte-identical CLI runs, serial==process sweep equality — rests on all
randomness flowing from explicit seeds. Components therefore never call
into global RNG state themselves; when a caller genuinely supplies no
seed, they route through :func:`resolve_seed`, which draws entropy
*once*, logs the drawn value loudly, and returns it so the run is
replayable after the fact (the engines additionally surface it in
:class:`~repro.simulation.metrics.SimulationMetrics.seed`).

The static linter (:mod:`repro.devtools`) enforces this contract: rule
RPR001 flags every other entropy source in the tree; the single draw
below carries the only sanctioned suppression.

Python 3.12's ``sum()`` adds floats with compensation where 3.11 adds
left to right, so every total under ``src/`` uses :func:`ordered_sum`,
which adds left to right on both; reprolint rule RPR010 reports a
builtin ``sum()``. This module imports neither numpy nor logging at
load time, so any module can use it without slowing an entry point's
start.
"""

from __future__ import annotations

from typing import Iterable, Optional

__all__ = ["ordered_sum", "resolve_seed"]


def resolve_seed(seed: Optional[int] = None) -> int:
    """Return a concrete integer seed, drawing entropy loudly if needed.

    With an explicit ``seed`` this is the identity (coerced to ``int``).
    With ``seed=None`` it draws one entropy-based seed and logs it at
    WARNING level, so any "unseeded" run can still be replayed exactly by
    passing the logged value back in.
    """
    if seed is not None:
        return int(seed)
    # local: ordered_sum's importers load neither numpy nor logging
    import logging

    import numpy as np

    drawn = int(
        np.random.SeedSequence().entropy % (2 ** 63)  # reprolint: disable=RPR001
    )
    logging.getLogger("repro.determinism").warning(
        "no seed supplied; drew entropy seed %d (pass seed=%d to replay "
        "this run)", drawn, drawn,
    )
    return drawn


def ordered_sum(values: Iterable[float]) -> float:
    """``sum(values)`` as Python 3.11 adds it: left to right from the
    int ``0``, so an empty total is ``0`` and every float total is the
    same on every interpreter."""
    total = 0
    for value in values:
        total += value
    return total
