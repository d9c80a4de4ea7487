"""Opt-in pytest plugin: run tests under Python 3.12's float ``sum()``.

Python 3.12 made ``sum()`` over floats add with Neumaier's compensated
summation, where 3.11 adds left to right, so the same code can give
other bits on the two. The golden digests under ``tests/golden`` are
pinned under 3.11's ``sum()``. A digest that fails under this plugin
hashes a result whose bits depend on the interpreter. From the root of
the repository::

    PYTHONPATH=src:tests python -m pytest -p sum312 tests/golden

The plugin replaces ``builtins.sum`` for the whole session. Code that
bound ``sum`` before the session started, and C code, keep the real one.
"""

from __future__ import annotations

import builtins
import math

_BUILTIN_SUM = builtins.sum


def neumaier_sum(iterable, /, start=0):
    """``sum()`` as Python 3.12 computes it.

    Ints add exactly until the first item that makes the total a float.
    From there exact floats are added with Neumaier's compensation, ints
    are added as floats, and the compensation joins the total at the
    end if it is finite and nonzero. Any other type makes the rest of
    the sum plain ``+``.
    """
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            result = result + item
            if type(result) is not int:
                break
        else:
            return result
    if type(result) is not float:
        for item in items:
            result = result + item
        return result
    total, compensation = result, 0.0
    for item in items:
        if type(item) is float:
            step = total + item
            if abs(total) >= abs(item):
                compensation += (total - step) + item
            else:
                compensation += (item - step) + total
            total = step
        elif isinstance(item, int):
            total += float(item)
        else:
            result = total + compensation + item
            for rest in items:
                result = result + rest
            return result
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def pytest_configure(config):
    builtins.sum = neumaier_sum


def pytest_unconfigure(config):
    builtins.sum = _BUILTIN_SUM


def pytest_report_header(config):
    return "builtins.sum: Python 3.12 compensated float summation (sum312)"
