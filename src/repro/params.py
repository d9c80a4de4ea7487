"""Model parameters shared across the library.

The paper's model (Section II) is parameterised by a handful of scalars.
:class:`ModelParameters` gathers them in one frozen dataclass so that every
component (utility model, equilibrium analysis, simulator) reads the same
values, and so experiments can sweep a single object.

Notation mapping to the paper:

==============  =====================================================
attribute       paper symbol / meaning
==============  =====================================================
``onchain_cost``        ``C`` — total expected on-chain cost per channel
                        per party (C/2 opening share + C/2 expected
                        closing share, Section II-C)
``opportunity_rate``    ``r`` — opportunity cost per locked coin,
                        ``l_u = r * c_u``
``fee_avg``             ``f_avg`` — average routing fee earned per
                        forwarded transaction (Eq. 3)
``fee_out_avg``         ``f^T_avg`` — average fee paid per intermediary
                        hop when sending own transactions
``total_tx_rate``       ``N`` — network-wide transactions per unit time
``user_tx_rate``        ``N_u`` — transactions sent by the (new) user
                        per unit time
``zipf_s``              ``s`` — Zipf scale parameter of the transaction
                        distribution (Section II-B)
``max_tx_size``         ``T`` — maximum transaction size
``epsilon``             ``ε`` — marginal on-chain cost increment used in
                        Theorem 6's bound
==============  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameter

__all__ = ["ModelParameters", "DEFAULT_PARAMS"]


@dataclass(frozen=True)
class ModelParameters:
    """Scalar parameters of the Lightning creation-game model.

    All parameters are expressed in abstract coin/time units; the paper
    never fixes currency units, only relative magnitudes.
    """

    onchain_cost: float = 1.0
    opportunity_rate: float = 0.01
    fee_avg: float = 0.1
    fee_out_avg: float = 0.1
    total_tx_rate: float = 100.0
    user_tx_rate: float = 10.0
    zipf_s: float = 1.0
    max_tx_size: float = 10.0
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        positives = {
            "onchain_cost": self.onchain_cost,
            "total_tx_rate": self.total_tx_rate,
            "user_tx_rate": self.user_tx_rate,
            "max_tx_size": self.max_tx_size,
        }
        for name, value in positives.items():
            if value <= 0:
                raise InvalidParameter(f"{name} must be > 0, got {value}")
        non_negatives = {
            "opportunity_rate": self.opportunity_rate,
            "zipf_s": self.zipf_s,
            "epsilon": self.epsilon,
            # zero fees are meaningful: Section IV's pure-topology studies
            "fee_avg": self.fee_avg,
            "fee_out_avg": self.fee_out_avg,
        }
        for name, value in non_negatives.items():
            if value < 0:
                raise InvalidParameter(f"{name} must be >= 0, got {value}")

    def channel_cost(self, locked: float) -> float:
        """Total cost ``L_u(v, l) = C + r*l`` of one channel for one party.

        ``locked`` is the capital this party locks into the channel.
        """
        if locked < 0:
            raise InvalidParameter(f"locked capital must be >= 0, got {locked}")
        return self.onchain_cost + self.opportunity_rate * locked

    def onchain_alternative_cost(self) -> float:
        """``C_u = N_u * C / 2`` — expected cost of transacting on-chain only.

        Used by the benefit function of Section III-D.
        """
        return self.user_tx_rate * self.onchain_cost / 2.0


#: Shared default parameter set used by examples and tests.
DEFAULT_PARAMS = ModelParameters()
