"""Truncated multivariate power-series (jet) arithmetic.

Series in k variables are truncated to a box of per-variable orders
(n_1, ..., n_k) and stored as flat coefficient arrays of length
prod(n_i + 1), in C (row-major) multi-index order.  They keep the dtype
of their inputs: real series stay real.

Number-resolving detection probabilities are mixed Taylor coefficients of
det(...)^(-1/2) around t = 1.  ``detection`` builds the logarithm of that
determinant as a scalar series from dense matrix products (a power-trace
expansion); this module supplies the box bookkeeping and the final
exponential, exact to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np


@lru_cache(maxsize=None)
def _mul_table(orders: tuple[int, ...]) -> tuple:
    """For each flat output index: the flat index pairs that convolve into it."""
    box = tuple(n + 1 for n in orders)
    table = []
    for m in product(*(range(b) for b in box)):
        pairs1, pairs2 = [], []
        for m1 in product(*(range(x + 1) for x in m)):
            m2 = tuple(a - b for a, b in zip(m, m1))
            pairs1.append(np.ravel_multi_index(m1, box))
            pairs2.append(np.ravel_multi_index(m2, box))
        table.append((np.array(pairs1), np.array(pairs2)))
    return tuple(table)


@dataclass(frozen=True)
class SeriesContext:
    """Fixed truncation box shared by all series in one computation."""

    orders: tuple[int, ...]

    def __post_init__(self):
        if any(n < 0 for n in self.orders):
            raise ValueError("series orders must be nonnegative")

    @property
    def box(self) -> tuple[int, ...]:
        return tuple(n + 1 for n in self.orders)

    @property
    def size(self) -> int:
        return math.prod(self.box)

    @property
    def total_order(self) -> int:
        return sum(self.orders)

    @property
    def table(self):
        return _mul_table(self.orders)

    def flat_index(self, multi_index: tuple[int, ...]) -> int:
        return int(np.ravel_multi_index(multi_index, self.box))

    def constant(self, value: complex) -> np.ndarray:
        c = np.zeros(self.size, dtype=np.result_type(value))
        c[0] = value
        return c


def mul(ctx: SeriesContext, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated product of two coefficient arrays of length ctx.size."""
    out = np.zeros(ctx.size, dtype=np.result_type(a, b))
    for c, (i1, i2) in enumerate(ctx.table):
        out[c] = np.sum(a[i1] * b[i2])
    return out


def _powers_sum(ctx: SeriesContext, g: np.ndarray, coeffs) -> np.ndarray:
    """sum_j coeffs[j] * g^j for a series g with zero constant term."""
    out = ctx.constant(coeffs[0])
    gp = None
    for j in range(1, min(len(coeffs), ctx.total_order + 1)):
        gp = g if gp is None else mul(ctx, gp, g)
        out = out + coeffs[j] * gp
    return out


def exp(ctx: SeriesContext, a: np.ndarray) -> np.ndarray:
    """Exponential of a scalar series."""
    g = a.copy()
    g[0] = 0
    coeffs = [1.0 / math.factorial(j) for j in range(ctx.total_order + 1)]
    return np.exp(a[0]) * _powers_sum(ctx, g, coeffs)


@dataclass(frozen=True)
class TruncatedSeries:
    """A boxed multivariate Taylor expansion (coefficients, not derivatives)."""

    context: SeriesContext
    coefficients: np.ndarray = field(repr=False)

    def coefficient(self, multi_index: tuple[int, ...]) -> complex:
        return complex(self.coefficients[self.context.flat_index(multi_index)])
