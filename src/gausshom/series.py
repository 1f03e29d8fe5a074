"""Exponential of a truncated multivariate power series.

A series in k variables is a dict from multi-indices (tuples of k
nonnegative integers) to coefficients, given on a set of multi-indices
closed downwards: with m, every multi-index at or below m is a key too.
Coefficients keep the dtype of their inputs: real series stay real.

Number-resolving detection probabilities are mixed Taylor coefficients of
det(...)^(-1/2) around t = 1.  ``detection`` builds the logarithm of that
determinant on the multi-indices at or below the requested patterns, from
dense matrix products (a power-trace expansion); this module exponentiates
it on the same multi-indices, exact to rounding.
"""

from __future__ import annotations

from itertools import product

import numpy as np


def exp(log_series: dict) -> dict:
    """Exponential of a series, on the same (downward-closed) multi-indices.

    With g = ``log_series`` and f = exp(g): f_0 = exp(g_0), and every other
    coefficient follows, in order of total degree, from the derivative
    along one variable v with m_v > 0 of f = exp(g),
    m_v f_m = sum_{0 < k <= m} k_v g_k f_(m-k),
    with k running over the box at or below m.
    """
    order = sorted(log_series, key=lambda m: (sum(m), m))
    out = {order[0]: np.exp(log_series[order[0]])}
    for m in order[1:]:
        v = next(i for i, n in enumerate(m) if n > 0)
        total = 0
        for k in product(*(range(n + 1) for n in m)):
            if k[v]:
                total += k[v] * log_series[k] * out[tuple(a - b for a, b in zip(m, k))]
        out[m] = total / m[v]
    return out
