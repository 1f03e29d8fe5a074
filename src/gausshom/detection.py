"""Vacuum-projection, threshold and photon-number-resolving probabilities.

Every quantity is read from ``CovarianceState.v``, the real symmetric
covariance matrix of the state in the (x, p) basis, indexed by the detected
rows: no reduced state is built, and every factorization and solve runs in
real arithmetic.  A state's structure was checked where it entered
(``CovarianceState.from_sigma``), so detection checks only that each
matrix it factors is positive definite (a Cholesky factorization fails
otherwise) and the range of each probability.

Threshold probabilities come from inclusion-exclusion over vacuum
projections.  The vacuum probabilities of all subsets a state needs come
from one factorization tree (``vacuum_probabilities``): the Cholesky factor
of one spatial mode's block of (1 + V)/2 at a time, with the Schur
complement of the later modes passed down the branches that include that
mode, so nested subsets share their factorizations.

Number-resolved probabilities are mixed Taylor coefficients of
det(1 + T sigma_tilde T / 2)^(-1/2) about t = 1, where sigma_tilde is V - 1
on the detected rows.  Those come from one dense solve,
Z = (1 + S)^-1 S with S = sigma_tilde / 2, and the power-trace expansion
of log det(1 + Z D(s)) over the detector variables s.  Its coefficients
are traces of cyclic words over the per-detector blocks of Z: by rotation,
only the words that end in one start detector per multi-index are summed,
each as the product of two half-length block paths, the second read
reversed through the Hermitian symmetry of Z.  The expansion is a dict
keyed by multi-index that holds only the multi-indices at or below the
requested count patterns; ``series.exp`` exponentiates it on those
multi-indices by the power-series recurrence.  Spectral bins are always
fully marginalized inside a spatial detector; there is no per-bin
detection API.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from operator import sub
from typing import Sequence

import numpy as np

from . import series
from .core import CovarianceState, UnphysicalStateError, subset_indices

log = logging.getLogger(__name__)

CLAMP_TOL = 1e-10
MAX_THRESHOLD_MODES = 16
DEFAULT_PNR_CUTOFF = 12


def _is_count(n) -> bool:
    """A photon count or spatial mode is any integer type except bool."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool)


def _as_groups(spatial_modes) -> list[tuple[int, ...]]:
    """Normalize detector targets: each entry is a spatial mode or a group.

    A group (tuple of spatial modes) models one detector collecting several
    spatial modes, reporting only the total; no mode may appear twice.
    """
    groups = []
    for entry in spatial_modes:
        group = (entry,) if np.ndim(entry) == 0 else tuple(entry)
        if not group:
            raise ValueError("detector group must contain at least one mode")
        if not all(_is_count(m) for m in group):
            raise ValueError(f"spatial modes must be integers, not {entry!r}")
        groups.append(tuple(int(m) for m in group))
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


def _detected_tilde(state: CovarianceState, spatial_modes: Sequence[int]) -> np.ndarray:
    """V on the given spatial modes minus the identity: sigma_tilde in the (x, p) basis."""
    idx = subset_indices(state.layout, spatial_modes)
    sigma_tilde = state.v[np.ix_(idx, idx)]
    sigma_tilde[np.diag_indices_from(sigma_tilde)] -= 1
    return sigma_tilde


def vacuum_probabilities(state: CovarianceState,
                         subsets: Sequence[Sequence[int]]) -> dict[tuple[int, ...], float]:
    """Vacuum probability of each spatial subset, keyed by the sorted subset.

    All of them come from one factorization tree of M = (1 + V)/2 on the
    union of the subsets, walked over its spatial modes in ascending order.
    A node holds M on the modes still to come, conditioned on the modes
    included above it.  The Cholesky factor of the block of its first mode
    gives that mode's log-determinant term; the Schur complement of the
    remaining modes goes down the branch that includes the mode, and their
    untouched block down the branch that excludes it.  A branch that leads
    to no requested subset is not walked.  A subset's probability is
    exp(-log det / 2), with the log-determinant summed over the terms on its
    path, so with the union fixed it does not depend on which other subsets
    were requested.
    """
    wanted = {tuple(sorted(subset)) for subset in subsets}
    if any(len(set(subset)) != len(subset) for subset in wanted):
        raise ValueError("spatial subset contains duplicates")
    modes = sorted({m for subset in wanted for m in subset})
    if not modes:
        return dict.fromkeys(wanted, 1.0)
    idx = np.concatenate([subset_indices(state.layout, [m]) for m in modes])
    half = state.v[np.ix_(idx, idx)]
    half[np.diag_indices_from(half)] += 1
    half *= 0.5
    rows = 2 * state.layout.n_spectral
    table = {}

    def walk(block, depth, below, half_logdet):
        if depth == len(modes):
            (subset,) = below
            table[subset] = _clamp(float(np.exp(-half_logdet)), "p_vacuum")
            return
        mode = modes[depth]
        rest = block[rows:, rows:]
        with_mode = [subset for subset in below if mode in subset]
        if with_mode:
            try:
                chol = np.linalg.cholesky(block[:rows, :rows])
            except np.linalg.LinAlgError:
                raise UnphysicalStateError(
                    f"vacuum-projection matrix (1 + V)/2 is not positive definite at "
                    f"spatial mode {mode}") from None
            schur = rest
            if rest.size:
                w = np.linalg.inv(chol) @ block[:rows, rows:]
                schur = rest - w.T @ w
            walk(schur, depth + 1, with_mode, half_logdet + np.sum(np.log(np.diagonal(chol))))
        without = [subset for subset in below if mode not in subset]
        if without:
            walk(rest, depth + 1, without, half_logdet)

    walk(half, 0, list(wanted), 0.0)
    return table


def p_vacuum(state: CovarianceState, spatial_subset: Sequence[int]) -> float:
    """Probability of vacuum on every spectral bin of the given spatial modes."""
    subset = tuple(sorted(spatial_subset))
    return vacuum_probabilities(state, [subset])[subset]


def p_threshold(state: CovarianceState, on_modes: Sequence[int],
                off_modes: Sequence[int] = ()) -> float:
    """Click in every mode of ``on_modes`` and vacuum in every ``off_modes``."""
    subsets = [modes for _, modes in _signed_subsets(on_modes, off_modes)]
    return inclusion_exclusion(vacuum_probabilities(state, subsets).__getitem__,
                               on_modes, off_modes)


def _signed_subsets(on_modes: Sequence[int], off_modes: Sequence[int]) -> list:
    """(sign, sorted spatial modes) of each inclusion-exclusion term.

    Exact inclusion-exclusion over the power set of the on-detectors, each
    subset joined with the off modes; subsets come in order of size, then
    lexicographically, for reproducible summation.  The detector sets are
    checked before any subset is built.
    """
    groups = _as_groups(on_modes)
    off = [m for g in _as_groups(off_modes) for m in g] if off_modes else []
    flat_on = [m for g in groups for m in g]
    if set(flat_on) & set(off):
        raise ValueError("on and off mode sets overlap")
    if len(groups) > MAX_THRESHOLD_MODES:
        raise ValueError(f"refusing 2^{len(groups)} inclusion-exclusion terms")
    return [((-1) ** r, tuple(sorted([m for g in subset for m in g] + off)))
            for r in range(len(groups) + 1) for subset in combinations(groups, r)]


def inclusion_exclusion(vacuum, on_modes: Sequence[int],
                        off_modes: Sequence[int] = ()) -> float:
    """Threshold probability as a signed sum of vacuum probabilities.

    ``vacuum(modes)`` is the vacuum probability of a sorted tuple of spatial
    modes; a caller that evaluates several patterns on one state can pass a
    lookup into one ``vacuum_probabilities`` table, since the patterns share
    their vacuum terms.
    """
    total = 0.0
    for sign, modes in _signed_subsets(on_modes, off_modes):
        total += sign * vacuum(modes)
    return _clamp(total, "p_threshold")


@lru_cache(maxsize=None)
def _power_plan(patterns: tuple[tuple[int, ...], ...]) -> tuple:
    """Multi-indices at or below one of ``patterns``, and how each is summed.

    Each entry (m, a, weight, halves) holds a multi-index m of degree
    j >= 1 (the constant term is left out), its start variable a (the
    first with m_a > 0), the weight (-1)^(j+1) / m_a of its words that end
    in a, and one (b, k1, k2) per split of those words into a path a -> b
    with arrival counts k1, |k1| = ceil(j/2), and the reversed rest, a path
    a -> b with counts k2.  A degree-1 entry has no halves.
    """
    wanted = {m for p in patterns for m in product(*(range(n + 1) for n in p))}
    plan = []
    for m in sorted(wanted, key=lambda m: (sum(m), m))[1:]:
        j, a = sum(m), next(v for v, n in enumerate(m) if n)
        halves = []
        if j > 1:
            bounds = m[:a] + (m[a] - 1,) + m[a + 1:]
            for k1 in _compositions((j + 1) // 2, bounds):
                rest = tuple(map(sub, bounds, k1))
                halves += [(b, k1, rest[:b] + (rest[b] + 1,) + rest[b + 1:])
                           for b, k in enumerate(k1) if k]
        plan.append((m, a, (-1) ** (j + 1) / m[a], tuple(halves)))
    return tuple(plan)


def _compositions(total: int, bounds: tuple):
    """Every k with 0 <= k_i <= bounds_i and sum(k) = total, in lexicographic order.

    The last entry is what the leading ones leave of ``total``, so only the
    leading entries, each capped at ``total``, are walked.
    """
    *lead, last = bounds
    for head in product(*(range(min(n, total) + 1) for n in lead)):
        rest = total - sum(head)
        if 0 <= rest <= last:
            yield head + (rest,)


def _path(blocks, memo: dict, a: int, b: int, k: tuple) -> np.ndarray:
    """Sum of Z_(a c1) Z_(c1 c2) ... Z_(c b) over the paths a -> b whose
    arrivals (c1, ..., b) have counts k, memoized in ``memo``."""
    key = (a, b, k)
    if key not in memo:
        prev = k[:b] + (k[b] - 1,) + k[b + 1:]
        memo[key] = blocks[a][b] if sum(k) == 1 else sum(
            _path(blocks, memo, a, c, prev) @ blocks[c][b] for c in range(len(k)) if prev[c])
    return memo[key]


def series_inv_sqrt_det(sigma_tilde: np.ndarray, row_variable: np.ndarray,
                        patterns: Sequence[Sequence[int]]) -> dict:
    """Taylor expansion of det(1 + T sigma_tilde T / 2)^(-1/2) about t = 1.

    ``row_variable[a]`` names the series variable (detected spatial mode)
    that weights row/column ``a`` of the detected sigma_tilde; T applies
    sqrt(t_var) on each side.  Expansion variables are s = t - 1.  The
    result maps every multi-index at or below one of ``patterns`` to its
    coefficient, and holds no other.  Real input is expanded in real
    arithmetic and gives real coefficients; complex Hermitian input gives
    complex ones.

    With S = sigma_tilde / 2 and T^2 = 1 + D(s), D the diagonal of row
    variables, Sylvester's identity gives
    det(1 + T S T) = det(1 + S) det(1 + Z D) with Z = (1 + S)^-1 S, where
    det(1 + S) comes from the Cholesky factor of 1 + S, and
    log det(1 + Z D) = sum_j (-1)^(j+1) / j tr((Z D)^j) is exact up to the
    total order.  Its s^m term, |m| = j, sums the traces of the cyclic
    words Z_(v1 v2) Z_(v2 v3) ... Z_(vj v1) of the blocks Z_ab = P_a Z P_b
    whose letters have counts m.  Rotating a word keeps its trace, so that
    sum is j / m_a times the sum over the words that end in a, the first
    variable with m_a > 0.  Each of those is a closed path from a, split
    after ceil(j/2) steps at some b into two half paths; path products are
    memoized by (start, end, arrival counts).  Z is Hermitian, so the
    second half is the conjugate transpose of a path a -> b, and each
    trace is one ``np.vdot``.  ``series.exp`` then exponentiates the
    log-series on the same multi-indices.
    """
    patterns = tuple(tuple(p) for p in patterns)
    n2 = sigma_tilde.shape[0]
    s_half = 0.5 * sigma_tilde
    one_plus_s = np.eye(n2) + s_half
    try:
        # a NaN can pass the factorization, so the log-determinant is checked too
        logdet = 2 * np.sum(np.log(np.diagonal(np.linalg.cholesky(one_plus_s)).real))
    except np.linalg.LinAlgError:
        logdet = np.nan
    if not np.isfinite(logdet):
        raise UnphysicalStateError(
            "determinant constant term det(1 + sigma_tilde / 2) is not positive and finite")
    z = np.linalg.solve(one_plus_s, s_half)
    zero = (0,) * len(patterns[0])
    # group the rows by variable, so that every block Z_ab is a slice
    order = np.argsort(row_variable, kind="stable")
    ends = np.searchsorted(row_variable[order], np.arange(len(zero) + 1))
    z = z[np.ix_(order, order)]
    blocks = [[z[ends[a]:ends[a + 1], ends[b]:ends[b + 1]] for b in range(len(zero))]
              for a in range(len(zero))]

    logser, memo = {zero: logdet}, {}
    for m, a, weight, halves in _power_plan(patterns):
        words = sum(np.vdot(_path(blocks, memo, a, b, k2), _path(blocks, memo, a, b, k1))
                    for b, k1, k2 in halves) if halves else np.trace(blocks[a][a])
        logser[m] = weight * words
    return series.exp({m: -0.5 * g for m, g in logser.items()})


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
    f = series_inv_sqrt_det(_detected_tilde(state, flat), row_var, patterns)
    probs = [_clamp(float(f[pattern].real) * (-1) ** sum(pattern), "p_pnr")
             for pattern in patterns]
    return probs[0] if single else probs


def pnr_distribution(state: CovarianceState, spatial_mode: int,
                     n_max: int) -> np.ndarray:
    """P(0), ..., P(n_max) for one spatial mode, from a single jet expansion."""
    if not _is_count(spatial_mode):
        raise ValueError(f"spatial modes must be integers, not {spatial_mode!r}")
    if not (_is_count(n_max) and n_max >= 0):
        raise ValueError(f"n_max must be a nonnegative integer, not {n_max!r}")
    row_var = np.zeros(2 * state.layout.n_spectral, dtype=int)
    f = series_inv_sqrt_det(_detected_tilde(state, [spatial_mode]), row_var, [(n_max,)])
    return np.array([_clamp(float((-1.0) ** n * f[(n,)]), f"pnr_distribution[{n}]")
                     for n in range(n_max + 1)])


def probability(state: CovarianceState, pattern: DetectionPattern) -> float:
    """Probability of a detection pattern, PNR or threshold."""
    if pattern.is_pnr:
        return p_pnr(state, pattern.spatial_modes, pattern.outcomes)
    on = [m for m, o in zip(pattern.spatial_modes, pattern.outcomes) if o == "on"]
    off = [m for m, o in zip(pattern.spatial_modes, pattern.outcomes) if o == "off"]
    return p_threshold(state, on, off)
