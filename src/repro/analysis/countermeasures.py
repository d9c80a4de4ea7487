"""Jamming countermeasures: pricing attacks with two-sided fee policies.

Slow jamming is cheap because failed (or never-settled) payments are
free: the attacker occupies HTLC slots and liquidity for the whole hold
time yet pays routing fees only on the locks it settles. The proposed
countermeasure — studied for Lightning as *upfront fees* — charges an
unconditional per-attempt fee for every hop a lock actually places,
settle or not. A two-sided :class:`~repro.network.fees.FeePolicy`
models exactly that split, and :func:`countermeasure_table` prices its
effect: identical attacks (same topology, same honest workload, same
attacker budget and RNG) run under a success-only fee and under upfront
variants of increasing rate, tabulating attacker cost and return on
investment per policy.

The upfront charge is ledger-only (no channel balance moves), so
liquidity and slot dynamics — hence the *damage* an attack does — are
identical across policies; only what the attack **costs** changes.
Attacker ROI (victim revenue destroyed per unit of attacker cost) is
therefore strictly decreasing in the upfront rate wherever the attack
launches at least one lock.

The sweep rides :meth:`ScenarioRunner.run_sweep
<repro.scenarios.runner.ScenarioRunner.run_sweep>` and is cache-aware:
pass ``cache=`` a result store (or path) and repeated tables re-execute
only grid points whose resolved scenarios changed.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..service.store import ResultStore

from ..errors import ScenarioError
from ..scenarios.specs import FeeSpec, TopologySpec
from .resilience import default_attack_scenario, equilibrium_topology_docs

__all__ = [
    "countermeasure_table",
    "fee_policy_docs",
]

#: Columns the countermeasure table keeps, in display order.
TABLE_COLUMNS = (
    "topology",
    "fee_policy",
    "upfront_base",
    "upfront_rate",
    "victim",
    "budget_spent",
    "attacker_fees_paid",
    "attacker_upfront_paid",
    "attacker_roi",
    "victim_revenue_delta",
    "victim_revenue_loss_pct",
    "baseline_success_rate",
    "attacked_success_rate",
    "baseline_victim_upfront_revenue",
    "attacked_victim_upfront_revenue",
)


def fee_policy_docs(
    upfront_rates: Sequence[float],
    fee_base: float = 0.01,
    fee_rate: float = 0.001,
    upfront_base: float = 0.0,
) -> List[Dict[str, Any]]:
    """FeeSpec documents: one success-only policy plus upfront variants.

    Every document shares the same success side (a linear fee with
    ``fee_base`` / ``fee_rate``), so the rows differ *only* in their
    per-attempt pricing. Rates must be positive and strictly increasing
    — the table's ROI claim is stated over an ordered axis.
    """
    rates = [float(r) for r in upfront_rates]
    if any(r <= 0 for r in rates):
        raise ScenarioError(
            "upfront_rates must be > 0 (the success-only baseline row is "
            f"included automatically), got {rates}"
        )
    if any(b >= a for a, b in zip(rates[1:], rates)):
        raise ScenarioError(
            f"upfront_rates must be strictly increasing, got {rates}"
        )
    success_params = {"base": fee_base, "rate": fee_rate}
    docs = [FeeSpec("linear", dict(success_params)).to_dict()]
    for rate in rates:
        docs.append(
            FeeSpec(
                "linear",
                dict(success_params),
                upfront_base=upfront_base,
                upfront_rate=rate,
            ).to_dict()
        )
    return docs


def countermeasure_table(
    upfront_rates: Sequence[float],
    budget: float = 1000.0,
    strategy: str = "slow-jamming",
    size: int = 9,
    balance: float = 10.0,
    horizon: float = 40.0,
    seed: int = 7,
    zipf_s: float = 1.0,
    fee_base: float = 0.01,
    fee_rate: float = 0.001,
    upfront_base: float = 0.0,
    attack_params: Optional[Dict[str, Any]] = None,
    executor: str = "serial",
    max_workers: Optional[int] = None,
    cache: Optional[Union["ResultStore", str, Path]] = None,
) -> List[Dict[str, Any]]:
    """Sweep fee policies across the three NE topologies under attack.

    Args:
        upfront_rates: positive, strictly increasing per-attempt rates;
            a success-only baseline row (rate 0) is prepended per
            topology automatically.
        budget: attacker capital endowment (identical on every row, so
            ROI differences are pure policy effect).
        strategy: attack registry kind (``"slow-jamming"``, ...).
        size: number of nodes in every topology.
        balance: per-side channel balance of the built topologies.
        horizon: simulated time span per run.
        seed: scenario seed, pinned on every grid point so all
            topologies and policies see the same honest RNG stream.
        zipf_s: receiver-skew of the honest workload.
        fee_base / fee_rate: the shared success-side linear fee.
        upfront_base: flat per-attempt charge of the upfront variants.
        attack_params: extra ``AttackSpec`` params merged over the
            defaults (e.g. ``{"slot_cap": 30}``).
        executor: ``"serial"`` or ``"process"`` (forwarded to
            :meth:`ScenarioRunner.run_sweep`).
        max_workers: process-pool size (``"process"`` only).
        cache: result store (or store path) memoising each grid point by
            its scenario content hash.

    Returns:
        One row per (topology, fee policy) grid point, in grid order,
        reduced to :data:`TABLE_COLUMNS`.
    """
    # Deferred: repro.scenarios.runner imports the provider modules.
    from ..scenarios.runner import ScenarioRunner

    params: Dict[str, Any] = dict(attack_params or {})
    params.setdefault("budget", float(budget))
    base = default_attack_scenario(
        TopologySpec("star", {"leaves": size - 1, "balance": balance}),
        strategy,
        params,
        horizon=horizon,
        seed=seed,
        zipf_s=zipf_s,
        name=f"countermeasure-{strategy}",
    )
    grid = {
        "topology": equilibrium_topology_docs(size, balance=balance),
        "fee": fee_policy_docs(
            upfront_rates,
            fee_base=fee_base,
            fee_rate=fee_rate,
            upfront_base=upfront_base,
        ),
        # a swept "seed" wins over run_sweep's per-point derivation:
        # every (topology, fee) point must see the same RNG stream
        "seed": [seed],
    }
    rows = ScenarioRunner().run_sweep(
        base, grid, executor=executor, max_workers=max_workers, cache=cache
    )
    table: List[Dict[str, Any]] = []
    for row in rows:
        fee_doc = row["fee"]
        has_upfront = (
            fee_doc.get("upfront_base", 0.0) > 0
            or fee_doc.get("upfront_rate", 0.0) > 0
        )
        entry: Dict[str, Any] = {
            "topology": row["topology"]["kind"],
            "fee_policy": "upfront" if has_upfront else "success-only",
            "upfront_base": fee_doc.get("upfront_base", 0.0),
            "upfront_rate": fee_doc.get("upfront_rate", 0.0),
        }
        for column in TABLE_COLUMNS[4:]:
            entry[column] = row[column]
        table.append(entry)
    return table
