"""Fixture: trips RPR010 (builtin sum) 3 times.

The ordered_sum, numpy and math.fsum totals below are not findings.
"""

import math

import numpy as np

from repro.determinism import ordered_sum


def totals(values, rows):
    plain = sum(values)  # finding 1
    started = sum(values, 0.0)  # finding 2
    counted = sum(1 for row in rows if row)  # finding 3
    ordered = ordered_sum(values)
    arrays = np.sum(rows) + np.asarray(values).sum()
    exact = math.fsum(values)
    return plain, started, counted, ordered, arrays, exact
