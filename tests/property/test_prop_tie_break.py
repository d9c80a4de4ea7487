"""Property tests: :func:`tie_break` against ``Generator.choice``.

:func:`bidirectional_route` draws each tie-break with :func:`tie_break`
where :func:`walk_csr` calls ``rng.choice(np.array(preds), p=w /
w.sum())`` over the path counts ``w``. Both must pick the same
predecessor from the same draw, for any integer-valued counts. Counts
run up to 2**52, so a total can pass 2**53, where numpy's pairwise sum
(8 or more counts) and a left-to-right one round apart.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.routing import PaymentRouteRng, tie_break
from repro.transactions.distributions import choice_cdf

#: Small counts tie often and add up exactly. Counts of 2**51 to 2**52
#: pass 2**53 from two on, and 8 or more of them often make numpy's
#: pairwise total round other than a left-to-right one.
COUNTS = st.one_of(
    st.lists(st.integers(1, 8), min_size=2, max_size=64),
    st.lists(st.integers(2**51, 2**52), min_size=2, max_size=64),
).map(lambda counts: [float(count) for count in counts])

#: ``(route RNG, the Generator its draws come from)`` for a seed.
RNGS = {
    "generator": lambda seed: (
        np.random.default_rng(seed), np.random.default_rng(seed)
    ),
    "payment": lambda seed: (
        PaymentRouteRng(seed, 7), np.random.default_rng((seed, 7))
    ),
}


@pytest.mark.parametrize("kind", sorted(RNGS))
@given(counts=COUNTS, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=400, deadline=None)
def test_matches_generator_choice_draw_for_draw(kind, counts, seed):
    preds = list(range(100, 100 + len(counts)))
    weights = np.array(counts)
    rng, expected_rng = RNGS[kind](seed)
    for _ in range(6):
        expected = expected_rng.choice(np.array(preds), p=weights / weights.sum())
        assert tie_break(preds, counts, rng) == int(expected)
    # one draw per tie-break: both streams stand at the same place
    assert rng.random() == expected_rng.random()


class Replay:
    """An RNG whose ``random()`` returns the given values in turn."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self) -> float:
        return next(self._values)


@given(counts=COUNTS)
@settings(max_examples=400, deadline=None)
def test_picks_at_every_edge_of_choices_table(counts):
    """At every edge of the table ``choice`` searches, and one float below
    it, the pick is ``choice``'s. A table one ulp off anywhere picks
    otherwise at one of these draws, which random draws would not hit."""
    weights = np.array(counts)
    cdf = choice_cdf(weights / weights.sum())
    draws = [
        draw
        for edge in cdf[:-1].tolist()
        for draw in (edge, math.nextafter(edge, 0.0))
    ]
    preds = list(range(len(counts)))
    picks = [tie_break(preds, counts, Replay([draw])) for draw in draws]
    assert picks == cdf.searchsorted(draws, side="right").tolist()
