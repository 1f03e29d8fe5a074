"""Vacuum-projection, threshold and photon-number-resolving probabilities.

Every quantity is read from ``CovarianceState.v``, the real symmetric
covariance matrix of the state in the (x, p) basis, indexed by the detected
rows: no reduced state is built, and every determinant and solve runs in
real arithmetic.  A state's structure was checked where it entered
(``CovarianceState.from_sigma``), so detection checks only determinant
signs and the range of each probability.

Threshold probabilities come from inclusion-exclusion over vacuum
projections; number-resolved probabilities are mixed Taylor coefficients of
det(1 + T sigma_tilde T / 2)^(-1/2) about t = 1, where sigma_tilde is V - 1
on the detected rows.  Those come from one dense
solve, Z = (1 + S)^-1 S with S = sigma_tilde / 2, and a power-trace
expansion of log det(1 + Z D(s)) over the detector variables s, which is
exponentiated as a scalar series.  Spectral bins are always fully
marginalized inside a spatial detector; there is no per-bin detection API.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Sequence

import numpy as np

from . import series
from .core import CovarianceState, UnphysicalStateError, subset_indices
from .series import SeriesContext, TruncatedSeries

log = logging.getLogger(__name__)

DET_IMAG_TOL = 1e-10
CLAMP_TOL = 1e-10
MAX_THRESHOLD_MODES = 16
DEFAULT_PNR_CUTOFF = 12


def _is_count(n) -> bool:
    """A photon count is any integer type except bool."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool)


def _as_groups(spatial_modes) -> list[tuple[int, ...]]:
    """Normalize detector targets: each entry is a spatial mode or a group.

    A group (tuple of spatial modes) models one detector collecting several
    spatial modes, reporting only the total; no mode may appear twice.
    """
    groups = []
    for entry in spatial_modes:
        if isinstance(entry, (int, np.integer)):
            groups.append((int(entry),))
        else:
            g = tuple(int(m) for m in entry)
            if not g:
                raise ValueError("detector group must contain at least one mode")
            groups.append(g)
    flat = [m for g in groups for m in g]
    if len(set(flat)) != len(flat):
        raise ValueError("spatial modes must be distinct across detectors")
    return groups


@dataclass(frozen=True)
class DetectionPattern:
    """Per-spatial-mode outcome request.

    ``outcomes`` are either all integers (photon counts) or all strings
    ``"on"`` / ``"off"`` (threshold flags), one per entry of
    ``spatial_modes``.  An entry of ``spatial_modes`` may itself be a tuple
    of spatial modes: one detector collecting all of them.
    """

    spatial_modes: tuple
    outcomes: tuple

    def __post_init__(self):
        if len(self.spatial_modes) != len(self.outcomes):
            raise ValueError("one outcome per detector required")
        _as_groups(self.spatial_modes)
        kinds = {type(o) for o in self.outcomes}
        if all(_is_count(o) for o in self.outcomes):
            if any(o < 0 for o in self.outcomes):
                raise ValueError("photon counts must be nonnegative")
            object.__setattr__(self, "outcomes", tuple(int(o) for o in self.outcomes))
        elif all(o in ("on", "off") for o in self.outcomes):
            pass
        else:
            raise ValueError(f"mixed or invalid outcomes: {kinds}")

    @property
    def is_pnr(self) -> bool:
        return bool(self.outcomes) and _is_count(self.outcomes[0])


def _clamp(p: float, label: str) -> float:
    if not math.isfinite(p):
        raise UnphysicalStateError(f"{label} = {p} is not finite")
    if p < -CLAMP_TOL:
        raise UnphysicalStateError(f"{label} = {p} is negative beyond tolerance")
    if p > 1 + CLAMP_TOL:
        raise UnphysicalStateError(f"{label} = {p} is above 1 beyond tolerance")
    if p < 0:
        log.debug("clamping %s = %.3e to 0", label, p)
    # p <= 0 also turns -0.0 into 0.0
    return 0.0 if p <= 0 else min(p, 1.0)


def _detected(state: CovarianceState, spatial_modes: Sequence[int]) -> np.ndarray:
    """Rows and columns of the given spatial modes in V."""
    idx = subset_indices(state.layout, spatial_modes)
    return state.v[np.ix_(idx, idx)]


def _detected_tilde(state: CovarianceState, spatial_modes: Sequence[int]) -> np.ndarray:
    """``_detected`` minus the identity: sigma_tilde in the (x, p) basis."""
    sigma_tilde = _detected(state, spatial_modes)
    sigma_tilde[np.diag_indices_from(sigma_tilde)] -= 1
    return sigma_tilde


def p_vacuum(state: CovarianceState, spatial_subset: Sequence[int]) -> float:
    """Probability of vacuum on every spectral bin of the given spatial modes."""
    subset = list(spatial_subset)
    if not subset:
        return 1.0
    sigma_s = _detected(state, subset)
    n2 = sigma_s.shape[0]
    sign, logdet = np.linalg.slogdet((np.eye(n2) + sigma_s) / 2)
    if not sign > 0:
        raise UnphysicalStateError(f"vacuum-projection determinant has sign {sign}")
    return _clamp(float(np.exp(-0.5 * logdet)), "p_vacuum")


def p_threshold(state: CovarianceState, on_modes: Sequence[int],
                off_modes: Sequence[int] = ()) -> float:
    """Click in every mode of ``on_modes`` and vacuum in every ``off_modes``."""
    return inclusion_exclusion(lambda modes: p_vacuum(state, modes), on_modes, off_modes)


def inclusion_exclusion(vacuum, on_modes: Sequence[int],
                        off_modes: Sequence[int] = ()) -> float:
    """Threshold probability as a signed sum of vacuum probabilities.

    ``vacuum(modes)`` is the vacuum probability of a sorted tuple of spatial
    modes; a caller that evaluates several patterns on one state can pass a
    memoized one, since the patterns share their vacuum terms.  Exact
    inclusion-exclusion over the power set of the on-detectors; subsets are
    enumerated in order of size, then lexicographically, for reproducible
    summation.
    """
    groups = _as_groups(on_modes)
    off = [m for g in _as_groups(off_modes) for m in g] if off_modes else []
    flat_on = [m for g in groups for m in g]
    if set(flat_on) & set(off):
        raise ValueError("on and off mode sets overlap")
    if len(groups) > MAX_THRESHOLD_MODES:
        raise ValueError(f"refusing 2^{len(groups)} inclusion-exclusion terms")
    total = 0.0
    for r in range(len(groups) + 1):
        for subset in combinations(groups, r):
            modes = tuple(sorted([m for g in subset for m in g] + off))
            total += (-1) ** r * vacuum(modes)
    return _clamp(total, "p_threshold")


@lru_cache(maxsize=None)
def _power_plan(orders: tuple[int, ...], patterns: tuple[tuple[int, ...], ...]) -> tuple:
    """Multi-indices at or below one of ``patterns``, in order of total degree.

    Each entry is (m, j, preds, extend): the flat index m in the box
    ``orders``, its degree j, the pairs (v, flat index of m - e_v) for
    every v with m_v > 0, and whether some m + e_v is still wanted, so that
    M_m must be formed.  The constant term is left out.
    """
    box = tuple(n + 1 for n in orders)
    wanted = {m for p in patterns for m in product(*(range(n + 1) for n in p))}
    plan = []
    for m in sorted(wanted, key=lambda m: (sum(m), m))[1:]:
        preds = tuple((v, int(np.ravel_multi_index(m[:v] + (m[v] - 1,) + m[v + 1:], box)))
                      for v in range(len(m)) if m[v] > 0)
        extend = any(m[:v] + (m[v] + 1,) + m[v + 1:] in wanted for v in range(len(m)))
        plan.append((int(np.ravel_multi_index(m, box)), sum(m), preds, extend))
    return tuple(plan)


def series_inv_sqrt_det(sigma_tilde: np.ndarray, row_variable: np.ndarray,
                        orders: Sequence[int],
                        patterns: Sequence[Sequence[int]] | None = None) -> TruncatedSeries:
    """Taylor expansion of det(1 + T sigma_tilde T / 2)^(-1/2) about t = 1.

    ``row_variable[a]`` names the series variable (detected spatial mode)
    that weights row/column ``a`` of the detected sigma_tilde; T applies
    sqrt(t_var) on each side.  Expansion variables are s = t - 1.  The
    result is exact on every multi-index at or below one of ``patterns``
    (default: the whole box ``orders``); other coefficients of the box are
    left incomplete.  Real input is expanded in real arithmetic and gives
    real coefficients; complex Hermitian input gives complex ones.

    With S = sigma_tilde / 2 and T^2 = 1 + D(s), D the diagonal of row
    variables, Sylvester's identity gives
    det(1 + T S T) = det(1 + S) det(1 + Z D) with Z = (1 + S)^-1 S, and
    log det(1 + Z D) = sum_j (-1)^(j+1) / j tr((Z D)^j) is exact up to the
    total order.  (Z D)^j splits by multi-index m, |m| = j, into
    M_m = sum_v M_(m - e_v) Z P_v, where P_v keeps the columns of variable
    v; only the wanted multi-indices are formed, and the trace of M_m is
    taken elementwise from its predecessors.
    """
    ctx = SeriesContext(tuple(orders))
    patterns = (ctx.orders,) if patterns is None else tuple(tuple(p) for p in patterns)
    n2 = sigma_tilde.shape[0]
    s_half = 0.5 * sigma_tilde
    one_plus_s = np.eye(n2) + s_half
    sign, logabsdet = np.linalg.slogdet(one_plus_s)
    if not (sign.real > 0 and abs(sign.imag) <= DET_IMAG_TOL and np.isfinite(logabsdet)):
        raise UnphysicalStateError(
            f"determinant constant term {sign * np.exp(logabsdet)} is not positive and finite")
    z = np.linalg.solve(one_plus_s, s_half)
    cols = [np.flatnonzero(row_variable == v) for v in range(len(ctx.orders))]

    logser = np.zeros(ctx.size, dtype=z.dtype)
    logser[0] = np.log(sign) + logabsdet
    # M_m is nonzero only in the columns of the variables m uses: keep
    # those columns (indices, block) and multiply by the matching rows of Z.
    # Degree j needs only the M_m of degree j - 1, so older ones are dropped.
    previous, current = {0: (np.arange(n2), np.eye(n2, dtype=z.dtype))}, {}
    degree = 1
    for m, j, preds, extend in _power_plan(ctx.orders, patterns):
        if j > degree:
            previous, current, degree = current, {}, j
        trace, blocks = 0.0, []
        for v, p in preds:
            idx, mat = previous[p]
            z_block = z[np.ix_(idx, cols[v])]
            trace += np.sum(mat[cols[v]] * z_block.T)
            if extend:
                blocks.append(mat @ z_block)
        logser[m] = (-1) ** (j + 1) / j * trace
        if extend:
            current[m] = (np.concatenate([cols[v] for v, _ in preds]), np.hstack(blocks))
    return TruncatedSeries(ctx, series.exp(ctx, -0.5 * logser))


def p_pnr(state: CovarianceState, spatial_modes: Sequence[int], counts: Sequence):
    """Probability of detecting exactly ``counts`` photons per detector.

    Each entry of ``spatial_modes`` is a spatial mode or a group of them;
    a group models one detector collecting several spatial modes.
    ``counts`` may also be a sequence of count patterns on the same
    detectors: all of them then come from one expansion, which forms only
    the multi-indices at or below some pattern, and a list of
    probabilities is returned.  A pattern holds at most ``DEFAULT_PNR_CUTOFF`` photons.
    """
    groups = _as_groups(spatial_modes)
    single = all(np.ndim(n) == 0 for n in counts)
    patterns = [tuple(counts)] if single else [tuple(p) for p in counts]
    for pattern in patterns:
        if len(groups) != len(pattern):
            raise ValueError("one count per detector required")
        if not all(_is_count(n) and n >= 0 for n in pattern):
            raise ValueError(f"photon counts must be nonnegative integers, not {pattern}")
        if sum(pattern) > DEFAULT_PNR_CUTOFF:
            raise ValueError(f"total count {sum(pattern)} exceeds cutoff {DEFAULT_PNR_CUTOFF}")
    flat = [m for g in groups for m in g]
    var_of_mode = np.array([v for v, g in enumerate(groups) for _ in g])
    row_var = np.concatenate([np.repeat(var_of_mode, state.layout.n_spectral)] * 2)
    box = tuple(max(column) for column in zip(*patterns))
    f = series_inv_sqrt_det(_detected_tilde(state, flat), row_var, box, patterns)
    probs = [_clamp(f.coefficient(pattern).real * (-1) ** sum(pattern), "p_pnr")
             for pattern in patterns]
    return probs[0] if single else probs


def pnr_distribution(state: CovarianceState, spatial_mode: int,
                     n_max: int) -> np.ndarray:
    """P(0), ..., P(n_max) for one spatial mode, from a single jet expansion."""
    row_var = np.zeros(2 * state.layout.n_spectral, dtype=int)
    f = series_inv_sqrt_det(_detected_tilde(state, [spatial_mode]), row_var, (n_max,))
    probs = (-1.0) ** np.arange(n_max + 1) * f.coefficients
    return np.array([_clamp(float(p), f"pnr_distribution[{n}]")
                     for n, p in enumerate(probs)])


def probability(state: CovarianceState, pattern: DetectionPattern) -> float:
    """Probability of a detection pattern, PNR or threshold."""
    if pattern.is_pnr:
        return p_pnr(state, pattern.spatial_modes, pattern.outcomes)
    on = [m for m, o in zip(pattern.spatial_modes, pattern.outcomes) if o == "on"]
    off = [m for m, o in zip(pattern.spatial_modes, pattern.outcomes) if o == "off"]
    return p_threshold(state, on, off)
