"""Exponential of a truncated multivariate power series."""

import math
from itertools import product

import numpy as np

from gausshom import series


def below(patterns):
    """Every multi-index at or below one of ``patterns`` (a downward-closed set)."""
    return {m for p in patterns for m in product(*(range(n + 1) for n in p))}


def exp_of_linear(constant, slopes, multi_indices):
    """exp(constant + sum_v slopes[v] s_v) on the given multi-indices."""
    log_series = dict.fromkeys(multi_indices, 0.0)
    log_series[(0,) * len(slopes)] = constant
    for v, c in enumerate(slopes):
        e_v = tuple(int(i == v) for i in range(len(slopes)))
        if e_v in log_series:
            log_series[e_v] = c
    return series.exp(log_series)


def test_exp_matches_factorial_coefficients():
    # exp(x + y) has coefficients 1 / (a! b!); a constant term scales by e^c
    e = exp_of_linear(0.5, (1.0, 1.0), below([(4, 2)]))
    assert set(e) == below([(4, 2)])
    for (a, b), got in e.items():
        np.testing.assert_allclose(
            got, math.exp(0.5) / (math.factorial(a) * math.factorial(b)),
            rtol=1e-14, atol=1e-15)
    e1 = exp_of_linear(0.0, (1.0,), below([(8,)]))
    np.testing.assert_allclose([e1[(j,)] for j in range(9)],
                               [1 / math.factorial(j) for j in range(9)], rtol=1e-15)
    # a set that is no box: the downward closure of the four-fold and both
    # bunching patterns, against prod_v c_v^m_v / m_v!
    slopes = (0.7, -1.3, 0.4, 2.1)
    wanted = below([(1, 1, 1, 1), (1, 0, 2, 1), (1, 2, 0, 1)])
    e4 = exp_of_linear(0.0, slopes, wanted)
    assert set(e4) == wanted
    for m, got in e4.items():
        expected = math.prod(c ** n / math.factorial(n) for c, n in zip(slopes, m))
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=1e-15)
