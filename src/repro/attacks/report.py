"""Damage accounting for adversarial traffic runs.

An :class:`AttackReport` compares two simulations that saw the *identical*
honest transaction trace — one undisturbed baseline and one with attacker
events interleaved — and quantifies what the attack destroyed:

* **victim revenue delta** — honest routing fees the victim earned in the
  baseline but not under attack (attacker-paid fees are excluded: they go
  through the HTLC router directly and never enter the honest metrics);
* **success-rate degradation** — honest payments that failed because
  attacker locks occupied the balances / HTLC slots they needed;
* **locked-liquidity time-integral** — ``sum(locked_amount * held_time)``
  over every attacker HTLC, the in-flight-capital damage that Section II-C
  of the paper prices as opportunity cost;
* **budget spent** — attacker capital committed (channel funding + pushed
  balances). The routing fees irrecoverably burned out of that capital are
  reported separately as ``attacker_fees_paid``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict

__all__ = ["AttackReport"]

#: Version stamp of the ``to_dict`` document layout.
#: v2 added the two-sided fee-policy columns (``attacker_upfront_paid``,
#: ``baseline_victim_upfront_revenue``, ``attacked_victim_upfront_revenue``).
REPORT_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class AttackReport:
    """Headline numbers of one baseline-vs-attacked simulation pair.

    All fields are plain JSON types, so reports survive process boundaries
    (``run_sweep(executor="process")``) and concatenate into sweep tables.
    """

    strategy: str
    victim: str
    horizon: float
    #: Attacker capital endowment the strategy was allowed to commit.
    budget: float
    #: Capital actually committed (channel funding + pushed balances).
    budget_spent: float
    #: Routing fees the attacker paid on settled adversarial payments.
    attacker_fees_paid: float
    #: Unconditional per-attempt fees the attacker paid under a two-sided
    #: :class:`~repro.network.fees.FeePolicy` (0 under success-only fees)
    #: — charged per hop offered on *every* lock attempt, never refunded.
    attacker_upfront_paid: float
    #: Lock attempts / successful locks / locks rejected (no balance or
    #: no free HTLC slot on some hop).
    attacks_launched: int
    attacks_held: int
    attacks_rejected: int
    #: ``sum(locked_amount * held_time)`` over attacker HTLCs.
    locked_liquidity_integral: float
    baseline_attempted: int
    baseline_succeeded: int
    baseline_success_rate: float
    attacked_succeeded: int
    attacked_success_rate: float
    #: ``baseline_success_rate - attacked_success_rate``.
    success_rate_degradation: float
    baseline_victim_revenue: float
    attacked_victim_revenue: float
    #: ``baseline_victim_revenue - attacked_victim_revenue`` — honest
    #: revenue the attack destroyed. Positive = the victim lost income.
    victim_revenue_delta: float
    baseline_total_revenue: float
    attacked_total_revenue: float
    #: Upfront fees the victim earned from *honest* traffic (attacker
    #: upfront fees go to ``attacker_upfront_paid``, not here).
    baseline_victim_upfront_revenue: float
    attacked_victim_upfront_revenue: float

    @property
    def victim_revenue_loss_fraction(self) -> float:
        """Destroyed victim revenue as a fraction of the baseline."""
        if self.baseline_victim_revenue <= 0:
            return 0.0
        return self.victim_revenue_delta / self.baseline_victim_revenue

    @property
    def attacker_cost(self) -> float:
        """Everything the attack consumed: committed capital plus the
        fees burned on settled locks plus the unconditional upfront
        fees of every attempt."""
        return (
            self.budget_spent + self.attacker_fees_paid
            + self.attacker_upfront_paid
        )

    @property
    def attacker_roi(self) -> float:
        """Victim revenue destroyed per unit of attacker cost.

        The countermeasure lever: upfront fees grow the denominator on
        every attempt while (being ledger-only) leaving the damage
        numerator unchanged, so ROI falls strictly as the upfront rate
        rises. 0 when the attack consumed nothing.
        """
        cost = self.attacker_cost
        if cost <= 0:
            return 0.0
        return self.victim_revenue_delta / cost

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON document (every field, schema-versioned)."""
        doc: Dict[str, Any] = {"schema_version": REPORT_SCHEMA_VERSION}
        for spec_field in fields(self):
            doc[spec_field.name] = getattr(self, spec_field.name)
        return doc

    def to_row(self) -> Dict[str, Any]:
        """Flat sweep-table columns (prefixed to avoid clashing with the
        simulation columns of :class:`~repro.scenarios.runner.ScenarioResult`)."""
        return {
            "attack_strategy": self.strategy,
            "victim": self.victim,
            "attack_budget": self.budget,
            "budget_spent": self.budget_spent,
            "attacker_fees_paid": self.attacker_fees_paid,
            "attacker_upfront_paid": self.attacker_upfront_paid,
            "attacker_roi": self.attacker_roi,
            "attacks_launched": self.attacks_launched,
            "attacks_held": self.attacks_held,
            "attacks_rejected": self.attacks_rejected,
            "locked_liquidity_integral": self.locked_liquidity_integral,
            "baseline_success_rate": self.baseline_success_rate,
            "attacked_success_rate": self.attacked_success_rate,
            "success_rate_degradation": self.success_rate_degradation,
            "baseline_victim_revenue": self.baseline_victim_revenue,
            "attacked_victim_revenue": self.attacked_victim_revenue,
            "victim_revenue_delta": self.victim_revenue_delta,
            "victim_revenue_loss_pct": 100.0 * self.victim_revenue_loss_fraction,
            "baseline_victim_upfront_revenue":
                self.baseline_victim_upfront_revenue,
            "attacked_victim_upfront_revenue":
                self.attacked_victim_upfront_revenue,
        }

    def summary(self) -> str:
        """One-line human-readable damage summary."""
        return (
            f"[{self.strategy} vs {self.victim}] "
            f"victim revenue {self.baseline_victim_revenue:.4g} -> "
            f"{self.attacked_victim_revenue:.4g} "
            f"(lost {self.victim_revenue_delta:.4g}, "
            f"{100 * self.victim_revenue_loss_fraction:.1f}%), "
            f"honest success {self.baseline_success_rate:.1%} -> "
            f"{self.attacked_success_rate:.1%}, "
            f"locked-integral {self.locked_liquidity_integral:.4g}, "
            f"spent {self.budget_spent:.4g}/{self.budget:.4g}"
        )
