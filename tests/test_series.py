"""Truncated multivariate power-series arithmetic."""

import math

import numpy as np
import pytest

from gausshom import series
from gausshom.series import SeriesContext, TruncatedSeries


def poly(ctx, mapping):
    c = np.zeros(ctx.size, dtype=complex)
    for mi, v in mapping.items():
        c[ctx.flat_index(mi)] = v
    return c


def test_context_sizes():
    ctx = SeriesContext((2, 3))
    assert ctx.box == (3, 4)
    assert ctx.size == 12
    assert ctx.total_order == 5
    with pytest.raises(ValueError):
        SeriesContext((-1,))


def test_mul_matches_polynomial_product():
    ctx = SeriesContext((2, 2))
    a = poly(ctx, {(0, 0): 1, (1, 0): 2, (0, 1): 3})
    b = poly(ctx, {(0, 0): 4, (1, 1): 5})
    c = series.mul(ctx, a, b)
    # (1 + 2x + 3y)(4 + 5xy), truncated to degree (2, 2)
    expected = poly(ctx, {(0, 0): 4, (1, 0): 8, (0, 1): 12,
                          (1, 1): 5, (2, 1): 10, (1, 2): 15})
    np.testing.assert_allclose(c, expected)


def test_exp_matches_factorial_coefficients():
    # exp(x + y) has coefficients 1 / (a! b!); a constant term scales by e^c
    ctx = SeriesContext((4, 2))
    e = series.exp(ctx, poly(ctx, {(0, 0): 0.5, (1, 0): 1.0, (0, 1): 1.0}))
    expected = poly(ctx, {(a, b): math.exp(0.5) / (math.factorial(a) * math.factorial(b))
                          for a in range(5) for b in range(3)})
    np.testing.assert_allclose(e, expected, rtol=1e-14, atol=1e-15)
    ctx1 = SeriesContext((8,))
    e1 = series.exp(ctx1, poly(ctx1, {(1,): 1.0}))
    np.testing.assert_allclose(e1, [1 / math.factorial(j) for j in range(9)],
                               rtol=1e-15)


def test_truncated_series_coefficient_lookup():
    ctx = SeriesContext((2, 1))
    c = poly(ctx, {(2, 1): 7.5})
    ts = TruncatedSeries(ctx, c)
    assert ts.coefficient((2, 1)) == 7.5
    assert ts.coefficient((0, 0)) == 0.0
