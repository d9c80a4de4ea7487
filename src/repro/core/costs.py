"""The benefit function's positivity condition (Section III-D).

For one party a channel costs ``L_u(v, l) = C + r*l``
(:meth:`ModelParameters.channel_cost <repro.params.ModelParameters.channel_cost>`):
``C/2`` of the opening fee, an expected ``C/2`` of the closing fee, and
the opportunity cost ``r * l`` of the locked coins (Section II-C).
Section III-D adds ``C_u = N_u * C / 2``
(:meth:`ModelParameters.onchain_alternative_cost
<repro.params.ModelParameters.onchain_alternative_cost>`), the expected
on-chain cost of transacting purely on the blockchain, to shift the
utility into the non-negative *benefit function* ``U^b = C_u + U``.
"""

from __future__ import annotations

from ..params import ModelParameters

__all__ = ["benefit_positivity_condition"]


def benefit_positivity_condition(
    params: ModelParameters,
    expected_fees: float,
    budget: float,
    max_single_channel_cost: float,
) -> bool:
    """Check the paper's sufficient condition for ``U^b`` to stay positive.

    Section III-D: the benefit function remains submodular and positive
    whenever channels satisfy ``E_fees + (B_u / C) * L_u(v, l) < C_u``.
    ``max_single_channel_cost`` should be the largest ``L_u(v, l)`` of any
    channel the optimiser may open.
    """
    bound = params.onchain_alternative_cost()
    lhs = expected_fees + (budget / params.onchain_cost) * max_single_channel_cost
    return lhs < bound
