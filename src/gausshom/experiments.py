"""Heralded Hong-Ou-Mandel experiment assembly and figures of merit.

The circuit uses four spatial modes: 0 and 3 are herald (signal) arms with
a detector each, 1 and 2 are the interfering idler arms.  Source A pumps
the pair (0, 1), source B the pair (3, 2); optional bandpass filters and
per-arm loss follow, then a variable delay on idler 1 and a beam-splitter
of angle theta that mixes idlers (1, 2) before detection.

The circuit splits into a source stage (sources, filters and loss) and a
suffix (delay and beam-splitter).  The Schmidt basis of a source depends
only on its JSA's shape and the grid, never on its squeezing xi, so each
source shape (its ``JsaSpec`` with xi set aside) is decomposed once, in
real arithmetic, as a unit-norm JSA, and its kept Schmidt values s and
mode functions are shared by every row that has that shape
(``_kept_modes``).  The stage of a row (``_sources_and_channels``) then
costs only scalars: each source's strengths r = xi s, each arm's mode
functions scaled by its passband, and each arm's loss amplitude.  Every
element after the sources is linear in those mode functions, and a
two-mode-squeezed state is fixed by them, so every state is written in
closed form: the delay multiplies arm 1's functions by a spectral phase, a
loss scales its arm's functions by its amplitude, and one writer
(``_source_tildes``) gives source A on arms (0, 1) and source B on (3, 2).
Such a source has no anomalous correlations once its idler is conjugated
(a_i -> a_i^dag, p_i -> -p_i: an orthogonal reflection R), so R sigma_tilde R,
sigma_tilde = V - 1, is the realification [[Re H, -Im H], [Im H, Re H]] of
a complex Hermitian H, one row per mode: the passive form the writer
gives (``_realified`` undoes it for ``build_hhom``).  The beam-splitter
spreads each idler over arms 1 and 2 with scalar weights
(``_after_splitter``), a real rotation that commutes with R on both idler
arms, so it acts on H as on sigma_tilde.  ``build_hhom`` writes the state
on the bins.  A sweep row works in coordinates in an orthonormal basis of
each arm's occupied modes (``_coordinates``), with a row count set by the
Schmidt number rather than the bin count, where detection is exact: for
block-diagonal bases B with orthonormal columns and T scalar on each arm,
det(1 + T B C B^T T) = det(1 + T C T).  The stage and the coordinates are
computed per row, so no row depends on whether its Schmidt data was
shared.  The element-built circuit is the reference both match.

A sweep row builds no four-arm state: before the splitter the sources are
independent, so each source's H is factored once per delay on its own
arms' rows.  R and O keep every determinant and per-arm block of
Z = (1 + S)^-1 S, S = sigma_tilde / 2, so det_real(1 + S) = det_C(1 + H/2)^2
on every subset of rows.  With PNR detectors a row factors each H
(``detection.pnr_factor``): det(1 + S') = (det_C(1 + H_A/2) det_C(1 + H_B/2))^2
and Z' = realify(O (Z_A + Z_B) O^T), expanded to the power -1
(``pnr_series``); the heralding rate P_0(1) P_3(1) reads each herald arm's
rows of H.  With threshold detectors each figure sums the vacuum
probabilities exp(-log det(1 + S'_subset) / 2) of the 16 subsets of the
arms (Quesada, Arrazola and Killoran, PRA 98, 062322 (2018)), each
exp(-2 h) with h = log det_C(1 + H'_subset / 2) / 2, from each source's
signal term l and idler excess X of H / 2, the Schur complement C with
its herald in the subset and E without (``detection.source_vacuum_blocks``):
the l of each herald in it, plus each source's log det(1 + X) / 2 with
both idler arms, whose rows O maps onto themselves, or
log det(1 + cos^2 X_A + sin^2 X_B) / 2 with arm 1 alone (sin and cos
swapped for arm 2), as arms 1 and 2 share one basis.  A row asks for
every angle it reads at a delay at once, and all of their blocks, with
each source's signal, E and C, are factored in one stacked Cholesky per
block shape and dtype (``detection.half_logdets``).  The herald arms are
never delayed and their mode functions are real, so each signal block is
real; at delay 0 every arm's are, and every block's imaginary part
vanishes exactly, so the whole row is factored in real arithmetic.  Each
figure is then a fixed row of signs over the 16 terms (``_FIGURE_SIGNS``,
built once from ``detection._signed_subsets``), summed as
expm1(-2 (l + h)), so that no term is rounded near 1 before the
cancellation (``detection.threshold_sums``).

Every figure a sweep row needs comes from one stage: at the row's delay,
with and without the beam-splitter.  A sweep along any axis decomposes
each source shape once for all of its rows, and each row builds its own
stage from those shapes, the same way as a row on its own.

The fully distinguishable (infinite-delay) limit is the circuit that
splits each idler against a vacuum ancilla, with detectors A and B each
collecting half of both idlers.  Its generating function is the four-arm
one with both idler variables (t_A + t_B) / 2, so with PNR detectors it is
half of P(1,1,1,1) + P(1,2,0,1) + P(1,0,2,1) at angle 0, and with
threshold detectors P(A and B) = P(A) + P(B) - P(A or B), where vacuum in
A alone is vacuum in both idlers after 50% loss.  An idler amplitude t
scales both E and C by t^2, so that loss halves each idler's X.

Figures of merit: the four-fold coincidence probability, the two bunching
patterns, both visibility definitions (delay dip and beam-splitter-angle
fringe), the heralding rate and heralding efficiency, and the analytic
heralded-state purity of a Schmidt spectrum.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import io
import itertools
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import SYMPLECTIC_TOL, CovarianceState, FrequencyGrid, ModeLayout, _symmetrized
from .detection import (_count_probabilities, _signed_subsets, half_logdets, p_pnr, p_threshold,
                        pnr_factor, pnr_series, source_vacuum_blocks, threshold_sums)
from .elements import _amplitude_transmission, _passband, _spectral_phase
from .jsa import JsaSpec, SchmidtData, build_jsa, schmidt_decompose

log = logging.getLogger(__name__)

HERALD_MODES = (0, 3)
IDLER_MODES = (1, 2)
SOURCE_A_ARMS = (0, 1)   # (signal, idler)
SOURCE_B_ARMS = (3, 2)
FOUR_ARMS = (0, 1, 2, 3)
FOUR_FOLD_COUNTS = (1, 1, 1, 1)
BUNCHING_COUNTS = ((1, 0, 2, 1), (1, 2, 0, 1))
DELAY_MODE = 1
N_SPATIAL = 4

SPS_ANGLE_TOL = 1e-8
# Schmidt modes with s_k <= SCHMIDT_CUT * s_0, the same cut as on r = xi s, are
# dropped from the source stage
SCHMIDT_CUT = 1e-12

DETECTORS = ("pnr", "threshold")

CSV_COLUMNS = ("param", "value", "p4", "p_bunch", "p_herald",
               "eta_herald", "v_hom", "v_mzi")


def xi_to_db(xi: float) -> float:
    """Squeezing strength expressed in dB: 20 xi / ln 10."""
    return 20.0 * xi / math.log(10.0)


@dataclass(frozen=True)
class HhomConfig:
    """Full description of one heralded-HOM circuit evaluation."""

    source_a: JsaSpec
    source_b: JsaSpec
    grid: FrequencyGrid
    delay: float = 0.0                      # seconds, on idler mode 1
    bs_angle: float = math.pi / 4           # radians
    loss: tuple = (0.0, 0.0, 0.0, 0.0)      # per spatial mode 0..3
    filter_center: float | None = None      # rad/s
    filter_half_width: float | None = None  # rad/s
    filter_modes: tuple = ()                # spatial modes carrying the filter
    detector: str = "pnr"

    def __post_init__(self):
        if len(self.loss) != N_SPATIAL:
            raise ValueError("need one loss value per spatial mode")
        if any(not 0 <= e <= 1 for e in self.loss):
            raise ValueError("loss values must lie in [0, 1]")
        if not (math.isfinite(self.delay) and math.isfinite(self.bs_angle)):
            raise ValueError("delay and beam-splitter angle must be finite")
        if self.detector not in DETECTORS:
            raise ValueError(f"unknown detector type {self.detector!r}")
        if self.filter_modes and (self.filter_center is None
                                  or self.filter_half_width is None):
            raise ValueError("filter modes given without a filter passband")
        if any(not 0 <= m < N_SPATIAL for m in self.filter_modes):
            raise ValueError("filter modes must be spatial modes 0..3")
        if any(x is not None and not math.isfinite(x)
               for x in (self.filter_center, self.filter_half_width)):
            raise ValueError("filter center and half-width must be finite")

    def config_hash(self) -> str:
        return hashlib.sha256(repr(self).encode()).hexdigest()[:16]


class _Stage(NamedTuple):
    """The source stage of one row: each source's kept Schmidt modes and each arm's mode functions.

    ``sources`` holds, for source A (arms 0, 1) and then source B (arms 3,
    2), the excess 2 sinh^2 r_k and the pairing sinh 2 r_k of its kept
    Schmidt modes, r = xi s.  ``modes[arm]`` is the real n_f x K matrix of
    that arm's mode functions, one column per kept mode of its source: the
    columns of U on a signal arm and of Vh^T on an idler arm, each row
    scaled by the arm's passband in that bin.  ``amplitudes[arm]`` is the
    arm's loss amplitude sqrt(1 - eps); it stays out of the mode functions,
    so arms that differ only in loss keep equal functions.
    """

    sources: tuple
    modes: tuple
    amplitudes: tuple


def _kept_modes(sd: SchmidtData) -> tuple:
    """Values, signal and idler mode functions of one source shape's kept modes.

    ``sd`` decomposes the shape's unit-norm JSA; a source of squeezing xi
    is then a stack of two-mode squeezers of strengths r = xi ``sd.values``,
    a physical state exactly when U and Vh are unitary (r is real): the
    same condition as the squeezer's S J S^T = J, and checked here instead.
    Modes with s_k <= ``SCHMIDT_CUT`` s_0 are dropped, the same cut as on
    r; the kept count and the dropped weight, sum of the dropped s_k^2
    over all of them, are logged at DEBUG.
    """
    n_f = sd.values.size
    for name, w in (("U", sd.u), ("Vh", sd.vh)):
        residual = np.max(np.abs(w.conj().T @ w - np.eye(n_f)))
        if not residual <= SYMPLECTIC_TOL:
            raise ValueError(f"Schmidt basis {name} is not unitary (residual {residual:.2e})")
    kept = int(np.count_nonzero(sd.values > SCHMIDT_CUT * sd.values[0]))
    power = sd.values ** 2
    log.debug("source keeps %d of %d Schmidt modes; dropped weight sum s_k^2 = %.3e",
              kept, n_f, np.sum(power[kept:]) / np.sum(power))
    return sd.values[:kept], sd.u[:, :kept], sd.vh[:kept].T


def _sources_and_channels(config: HhomConfig, shapes: dict | None = None) -> _Stage:
    """The source stage: both pair sources, the bandpass filters and per-arm loss.

    Every state and row of a configuration is written from it, and it
    does not depend on the delay or the beam-splitter angle.  A source's
    shape is its spec with xi set aside; the kept Schmidt data
    (``_kept_modes``) of its unit-norm JSA, built at xi = 1, is taken from
    ``shapes``, a dict keyed by shape and grid, or decomposed and stored
    there, so sources that differ only in xi share one decomposition.  A
    source of xi > 0 then has the strengths r = xi s; a source of xi = 0
    is vacuum, with no kept modes.  A filter, diagonal on the bins, scales
    each row of its arm's mode functions by the passband; a loss is the
    arm's scalar amplitude.  The element-built circuit (``squeezer``,
    ``bandpass_filter``, ``loss``) gives the same state.
    """
    shapes = {} if shapes is None else shapes
    n_f = config.grid.n_bins
    t = np.ones((N_SPATIAL, n_f))
    if config.filter_modes:
        t[list(config.filter_modes)] = _passband(config.filter_center,
                                                 config.filter_half_width, config.grid)
    sources, modes = [], [None] * N_SPATIAL
    for spec, (sig, idl) in ((config.source_a, SOURCE_A_ARMS),
                             (config.source_b, SOURCE_B_ARMS)):
        s, u, v = np.zeros(0), np.zeros((n_f, 0)), np.zeros((n_f, 0))
        if spec.xi > 0:
            shape = (dataclasses.replace(spec, xi=1.0), config.grid)
            if shape not in shapes:
                shapes[shape] = _kept_modes(schmidt_decompose(build_jsa(shape[0], config.grid)))
            s, u, v = shapes[shape]
        r = spec.xi * s
        excess, pairing = 2 * np.sinh(r) ** 2, np.sinh(2 * r)
        if not (np.all(np.isfinite(excess)) and np.all(np.isfinite(pairing))):
            raise ValueError("source state has non-finite entries")
        sources.append((excess, pairing))
        modes[sig], modes[idl] = t[sig, :, None] * u, t[idl, :, None] * v
    amplitudes = tuple(_amplitude_transmission(eps) for eps in config.loss)
    return _Stage(tuple(sources), tuple(modes), amplitudes)


def _delayed(stage: _Stage, grid: FrequencyGrid, tau: float) -> list:
    """Each arm's mode functions after a delay tau on arm 1 (its spectral phase)."""
    modes = list(stage.modes)
    if tau != 0.0:
        modes[DELAY_MODE] = _spectral_phase(tau, grid)[:, None] * modes[DELAY_MODE]
    return modes


def _coordinates(modes: Sequence[np.ndarray]) -> tuple:
    """Each arm's mode functions in an orthonormal basis of its occupied modes.

    The R factor X_a of a QR of the arm's functions, W_a = Q_a X_a; Q_a is
    never formed.  Arms 1 and 2 share the basis of [W_1, W_2], or of W_1
    alone when the two are equal, so the beam-splitter mixes their
    coordinates directly.  X_a has min(n_f, K) rows for K mode functions:
    the count follows the kept Schmidt count, never the filters, so a row
    costs the same at every filter width.
    """
    x_0, x_3 = (np.linalg.qr(modes[arm], mode="r") for arm in (0, 3))
    if np.array_equal(modes[1], modes[2]):
        x_1 = x_2 = np.linalg.qr(modes[1], mode="r")
    else:
        x_1, x_2 = np.hsplit(np.linalg.qr(np.hstack(modes[1:3]), mode="r"),
                             [modes[1].shape[1]])
    return x_0, x_1, x_2, x_3


def _source_tildes(stage: _Stage, coords: Sequence[np.ndarray]) -> tuple:
    """Each arm's row count, and the passive form H of each source before
    the beam-splitter, on its own rows.

    ``coords[arm]`` holds the arm's mode functions, one row per orthonormal
    spectral mode: the bins (``build_hhom``) or a basis of the arm's
    occupied modes (``_coordinates``); each arm keeps its own row count.
    Source A's H has the rows (0, 1) and source B's (3, 2), the signal's
    first.  A loss scales its arm's coordinates by its amplitude.  With
    E = diag(2 sinh^2 r_k) and P = diag(sinh 2 r_k),
    H = [[X_s E X_s^dag, -i X_s P X_i^T], [., conj(X_i E X_i^dag)]].
    """
    tildes = []
    for (excess, pairing), (sig, idl) in zip(stage.sources, (SOURCE_A_ARMS, SOURCE_B_ARMS)):
        x_s, x_i = (stage.amplitudes[arm] * coords[arm] for arm in (sig, idl))
        r_s = x_s.shape[0]
        m = r_s + x_i.shape[0]
        h = np.empty((m, m), dtype=complex)
        h[:r_s, :r_s] = (x_s * excess) @ x_s.conj().T
        h[r_s:, r_s:] = ((x_i * excess) @ x_i.conj().T).conj()
        h[:r_s, r_s:] = (-1j * x_s * pairing) @ x_i.T
        h[r_s:, :r_s] = h[:r_s, r_s:].conj().T
        tildes.append(h)
    return tuple(x.shape[0] for x in coords), tildes


def _realified(h: np.ndarray, idlers: slice) -> np.ndarray:
    """sigma_tilde in the (x, p) basis from a passive form H: [[Re H, -Im H], [Im H, Re H]]
    with the p rows and columns of the ``idlers`` rows negated, undoing their conjugation."""
    m = h.shape[0]
    flip = np.ones(m)
    flip[idlers] = -1
    out = np.empty((2 * m, 2 * m))
    out[:m, :m], out[:m, m:] = h.real, h.imag * -flip
    out[m:, :m], out[m:, m:] = flip[:, None] * h.imag, np.outer(flip, flip) * h.real
    return out


def _after_splitter(blocks: Sequence[np.ndarray], rows: Sequence[int],
                    bs_angle: float) -> np.ndarray:
    """O (M_A + M_B) O^T on the four arms, from one complex matrix per source before the splitter.

    ``blocks`` holds source A's matrix on its rows (0, 1) and source B's on
    (3, 2), arm a with ``rows[a]`` rows (``_source_tildes``); arms 1 and 2
    have equal row counts.  The result has the rows of arms 0 to 3.  O is
    the beam-splitter of angle theta: it sends idler arm 1 to arms (1, 2)
    with weights (cos, sin) and idler arm 2 with (-sin, cos), and keeps the
    signal arms.  Each entry of the result is a sum over sources, A first,
    of (w_k w_l) m: the product of its rows' two weights, formed first,
    times the source's entry m, which fixes the rounding of every entry.
    """
    c, s = math.cos(bs_angle), math.sin(bs_angle)
    weights = {1: (c, s), 2: (-s, c)}
    starts = np.cumsum((0,) + tuple(rows))
    arms = [slice(starts[a], starts[a + 1]) for a in range(N_SPATIAL)]
    out = np.zeros((starts[-1], starts[-1]), dtype=complex)
    for block, (sig, idl) in zip(blocks, (SOURCE_A_ARMS, SOURCE_B_ARMS)):
        r_s = rows[sig]
        out[arms[sig], arms[sig]] = block[:r_s, :r_s]
        # the idler spreads over arms 1 and 2 with its weights
        for w_k, k in zip(weights[idl], IDLER_MODES):
            out[arms[sig], arms[k]] = w_k * block[:r_s, r_s:]
            out[arms[k], arms[sig]] = w_k * block[r_s:, :r_s]
            for w_l, l in zip(weights[idl], IDLER_MODES):
                out[arms[k], arms[l]] += (w_k * w_l) * block[r_s:, r_s:]
    return out


def build_hhom(config: HhomConfig) -> CovarianceState:
    """Final covariance state of the heralded-HOM circuit, on every frequency bin:
    the sources on the arms' mode functions after the delay, then the splitter."""
    stage = _sources_and_channels(config)
    rows, tildes = _source_tildes(stage, _delayed(stage, config.grid, config.delay))
    v = _realified(_after_splitter(tildes, rows, config.bs_angle),
                   slice(rows[0], rows[0] + rows[1] + rows[2]))
    v[np.diag_indices_from(v)] += 1
    return CovarianceState(ModeLayout(N_SPATIAL, config.grid.n_bins), v)


def four_fold(state: CovarianceState, detector: str = "pnr") -> float:
    """One detection event in each of the four arms."""
    if detector == "pnr":
        return p_pnr(state, FOUR_ARMS, FOUR_FOLD_COUNTS)
    return p_threshold(state, FOUR_ARMS)


def bunching(state: CovarianceState, detector: str = "pnr") -> float:
    """Both idler photons leave through the same beam-splitter port."""
    if detector == "pnr":
        return sum(p_pnr(state, FOUR_ARMS, BUNCHING_COUNTS))
    return (p_threshold(state, (0, 2, 3), (1,))
            + p_threshold(state, (0, 1, 3), (2,)))


def heralding_rate(state: CovarianceState, detector: str = "pnr") -> float:
    """Probability that both herald arms register a detection event."""
    if detector == "pnr":
        return p_pnr(state, HERALD_MODES, (1, 1))
    return p_threshold(state, HERALD_MODES)


def distinguishable_four_fold(config: HhomConfig) -> float:
    """Four-fold probability in the fully distinguishable (infinite-delay) limit.

    Exact, unlike a large finite delay, which on a frequency lattice never
    decoheres pairs in the same bin; see the module docstring.
    """
    return _RowPlan(config).distinguishable_four_fold


class _Figures(NamedTuple):
    """Four-fold, bunching and heralding probabilities of one circuit."""

    four_fold: float
    p_bunch: float
    heralding_rate: float

    @property
    def single_pair(self) -> float:
        """Four-fold plus bunching: heralds fire and two idler photons emerge."""
        return self.four_fold + self.p_bunch


def _signal_click(h: np.ndarray, r_s: int) -> float:
    """P(1) on the signal arm of a source: the first ``r_s`` rows of its H."""
    f = pnr_series(*pnr_factor(h[:r_s, :r_s]), np.zeros(r_s, dtype=int), [(1,)], exponent=-1)
    return _count_probabilities(f, [(1,)], "p_herald")[0]


# A threshold row's 16 vacuum terms, one per subset of the arms in the order
# of ``_signed_subsets``, and each one's herald A (0 or 1), herald B and
# idler set (0 none, 1 arm 1, 2 arm 2, 3 both)
_SUBSETS = [modes for _, modes in _signed_subsets(FOUR_ARMS, ())]
_COLUMNS = tuple(np.array(column) for column in zip(
    *((int(0 in s), int(3 in s), int(1 in s) + 2 * int(2 in s)) for s in _SUBSETS)))


def _sign_row(on_modes, off_modes=()) -> list:
    """One threshold figure's inclusion-exclusion signs over ``_SUBSETS``."""
    signs = {modes: sign for sign, modes in _signed_subsets(on_modes, off_modes)}
    return [signs.get(subset, 0) for subset in _SUBSETS]


# the four-fold, the two bunching patterns and the herald; the plateau sums
# its own terms with the four-fold row
_FIGURE_SIGNS = np.array([_sign_row(FOUR_ARMS), _sign_row((0, 2, 3), (1,)),
                          _sign_row((0, 1, 3), (2,)), _sign_row(HERALD_MODES)], dtype=float)


class _RowPlan:
    """Figures of merit of one configuration from its sources' factors.

    A plan writes, checks and factors each source's passive form once per
    delay, in the arms' coordinates at that delay (``source_factors``), and
    each angle's figures come from those factors (module docstring).  The
    plan builds its stage on first use and keeps it, from the Schmidt data
    in ``shapes``: a sweep passes in the dict it shares between its rows,
    so a row's figures do not depend on whether its shapes were shared.  A
    plan serves one sweep row or one public call and holds no state beyond
    it.  Its figures are keyed by (delay, angle); with threshold detectors
    the key (delay, None) holds the plateau's four-fold.
    """

    def __init__(self, config: HhomConfig, shapes: dict | None = None):
        self.config = config
        self._shapes = shapes
        self._stage = None
        self._factors = {}
        self._figures = {}
        self._heralding_rate = None

    def stage(self) -> _Stage:
        """The source stage, built on first use and kept."""
        if self._stage is None:
            self._stage = _sources_and_channels(self.config, self._shapes)
        return self._stage

    def coordinates(self, delay: float) -> tuple:
        """The arms' coordinates at this delay."""
        return _coordinates(_delayed(self.stage(), self.config.grid, delay))

    def source_factors(self, delay: float) -> tuple:
        """Each arm's row count, and each source's (log det(1 + H/2), Z) with PNR
        detectors or its unfactored vacuum blocks (X_s, E, C) with threshold
        ones at this delay; the first PNR call also detects the herald arms."""
        if delay not in self._factors:
            rows, tildes = _source_tildes(self.stage(), self.coordinates(delay))
            tildes = [_symmetrized(h) for h in tildes]
            if self.config.detector == "threshold":
                factors = [source_vacuum_blocks(h, rows[s]) for h, s in zip(tildes, HERALD_MODES)]
            else:
                if self._heralding_rate is None:
                    self._heralding_rate = (_signal_click(tildes[0], rows[SOURCE_A_ARMS[0]])
                                            * _signal_click(tildes[1], rows[SOURCE_B_ARMS[0]]))
                factors = [pnr_factor(t) for t in tildes]
            self._factors[delay] = rows, factors
        return self._factors[delay]

    def _pnr_figures(self, delay: float, bs_angle: float) -> _Figures:
        """The four-arm expansion at this angle from the sources' passive factors:
        log det = log det_A + log det_B and Z' = O (Z_A + Z_B) O^T, to the power -1."""
        rows, ((logdet_a, z_a), (logdet_b, z_b)) = self.source_factors(delay)
        z = _after_splitter((z_a, z_b), rows, bs_angle)
        row_variable = np.repeat(np.arange(N_SPATIAL), rows)
        patterns = (FOUR_FOLD_COUNTS,) + BUNCHING_COUNTS
        f = pnr_series(logdet_a + logdet_b, z, row_variable, patterns, exponent=-1)
        p4, *p_bunch = _count_probabilities(f, patterns, "p_pnr")
        return _Figures(p4, sum(p_bunch), self._heralding_rate)

    def _vacuum_logs(self, delay: float, angles: Sequence) -> dict:
        """-log of the 16 vacuum terms over ``_SUBSETS`` at each angle at this
        delay, None for the plateau's (module docstring).

        Every block is factored in one ``half_logdets`` call, one stacked
        Cholesky per block shape: each source's X_s, E and C, then per angle
        the arm-1 and arm-2 blocks of each herald combination, or the
        plateau's X / 2 (50% more idler loss halves each X).
        """
        (s_a, *xs_a), (s_b, *xs_b) = self.source_factors(delay)[1]
        blocks = [s_a, s_b, *xs_a, *xs_b]
        where = ["on a signal arm"] * 2 + ["on an idler arm"] * 4
        for angle in angles:
            if angle is None:
                blocks += [x / 2 for x in (*xs_a, *xs_b)]
                where += ["on the idlers"] * 4
            else:
                c2, s2 = math.cos(angle) ** 2, math.sin(angle) ** 2
                blocks += [w_a * x_a + w_b * x_b for x_a, x_b in itertools.product(xs_a, xs_b)
                           for w_a, w_b in ((c2, s2), (s2, c2))]
                where += ["on arm 1", "on arm 2"] * 4
        h = half_logdets(blocks, where)
        # by herald A and herald B in the subset: their l, and both idlers' h_A + h_B
        ell = np.array([0.0, h[0]])[:, None] + [0.0, h[1]]
        both = h[2:4, None] + h[4:6]
        logs, at = {}, 6
        for angle in angles:
            if angle is None:
                one = np.repeat((h[at:at + 2, None] + h[at + 2:at + 4])[..., None], 2, axis=-1)
                at += 4
            else:
                one = h[at:at + 8].reshape(2, 2, 2)
                at += 8
            # det_real(1 + S) = det_C(1 + H/2)^2 on every subset of the passive form
            idlers = np.concatenate([np.zeros((2, 2, 1)), one, both[..., None]], axis=-1)
            logs[angle] = 2 * (ell[..., None] + idlers)[_COLUMNS]
        return logs

    def _threshold_figures(self, delay: float, angles: Sequence) -> None:
        """Every threshold figure at each angle at this delay not yet known,
        None for the plateau, from one ``_vacuum_logs`` call and the sign rows."""
        angles = [a for a in dict.fromkeys(angles) if (delay, a) not in self._figures]
        if not angles:
            return
        for angle, logs in self._vacuum_logs(delay, angles).items():
            if angle is None:
                self._figures[delay, None] = threshold_sums(_FIGURE_SIGNS[:1], logs)[0]
            else:
                p4, *p_bunch, herald = threshold_sums(_FIGURE_SIGNS, logs)
                self._figures[delay, angle] = _Figures(p4, sum(p_bunch), herald)

    def _request(self, *keys) -> None:
        """With threshold detectors, every (delay, angle) figure asked for, None
        for the plateau, from one ``_threshold_figures`` call per delay."""
        if self.config.detector == "threshold":
            by_delay = {}
            for delay, angle in keys:
                by_delay.setdefault(delay, []).append(angle)
            for delay, angles in by_delay.items():
                self._threshold_figures(delay, angles)

    def figures(self, delay: float | None = None,
                bs_angle: float | None = None) -> _Figures:
        """Figures of the circuit at this delay and angle (default: the config's)."""
        key = (self.config.delay if delay is None else delay,
               self.config.bs_angle if bs_angle is None else bs_angle)
        if key not in self._figures:
            if self.config.detector == "pnr":
                self._figures[key] = self._pnr_figures(*key)
            else:
                self._threshold_figures(key[0], key[1:])
        return self._figures[key]

    @functools.cached_property
    def distinguishable_four_fold(self) -> float:
        """From the circuit without the splitter (module docstring); with
        threshold detectors, one range-checked sum in which modes 1 and 2
        are A and B."""
        if self.config.detector == "pnr":
            return 0.5 * self.figures(bs_angle=0.0).single_pair
        self._threshold_figures(self.config.delay, (None,))
        return self._figures[self.config.delay, None]

    def heralding_efficiency(self) -> float:
        self._request((self.config.delay, 0.0), (self.config.delay, math.pi / 4))
        p_sps = self.figures(bs_angle=0.0).single_pair
        at45 = self.figures(bs_angle=math.pi / 4)
        if abs(p_sps - at45.single_pair) > SPS_ANGLE_TOL:
            raise RuntimeError("heralded-pair probability depends on the beam-splitter "
                               f"angle ({p_sps} vs {at45.single_pair})")
        if at45.heralding_rate <= 0:
            raise ZeroDivisionError("heralding rate is zero")
        return p_sps / at45.heralding_rate

    def hom_visibility(self) -> float:
        self._request((0.0, math.pi / 4), (self.config.delay, None))
        return visibility_hom(self.figures(0.0, math.pi / 4).four_fold,
                              self.distinguishable_four_fold)

    def mzi_visibility(self) -> float:
        self._request((self.config.delay, 0.0), (self.config.delay, math.pi / 4))
        return visibility_mzi(self.figures(bs_angle=0.0).four_fold,
                              self.figures(bs_angle=math.pi / 4).four_fold)

    def row(self, param: str, value: float, visibilities: bool) -> dict:
        if visibilities:
            # every angle the row reads, one kernel call per delay; the dip is at delay 0
            delay = self.config.delay
            self._request((delay, self.config.bs_angle), (delay, 0.0), (delay, math.pi / 4),
                          (delay, None), (0.0, math.pi / 4))
        here = self.figures()
        row = {"param": param, "value": value, "p4": here.four_fold,
               "p_bunch": here.p_bunch, "p_herald": here.heralding_rate,
               "eta_herald": None, "v_hom": None, "v_mzi": None}
        if visibilities:
            row["eta_herald"] = self.heralding_efficiency()
            row["v_hom"] = self.hom_visibility()
            row["v_mzi"] = self.mzi_visibility()
        return row


def single_pair_probability(config: HhomConfig) -> float:
    """P_SPS: heralds fire and exactly two idler photons emerge, any split.

    Evaluated with the beam-splitter removed; the value is independent of
    the beam-splitter angle, which ``heralding_efficiency`` asserts.
    """
    return _RowPlan(config).figures(bs_angle=0.0).single_pair


def heralding_efficiency(config: HhomConfig) -> float:
    """Heralded-pair probability over heralding rate.

    The numerator is evaluated both without the beam-splitter and at angle
    pi/4, and the two must agree, as the pattern sum is invariant under the
    passive mixing of the idler arms.
    """
    return _RowPlan(config).heralding_efficiency()


def visibility_hom(p4_dip: float, p4_plateau: float) -> float:
    """Dip visibility 1 - P4(tau=0) / P4(tau -> infinity)."""
    if p4_plateau <= 0:
        raise ZeroDivisionError("four-fold plateau probability is zero")
    return 1.0 - p4_dip / p4_plateau


def visibility_mzi(p4_max: float, p4_min: float) -> float:
    """Fringe visibility (max - min) / (max + min) over the beam-splitter angle."""
    if p4_max + p4_min <= 0:
        raise ZeroDivisionError("four-fold probabilities vanish at both angles")
    return (p4_max - p4_min) / (p4_max + p4_min)


def hom_visibility(config: HhomConfig) -> float:
    """Delay-dip visibility, normalized by ``distinguishable_four_fold``.

    That exact limit replaces a large finite delay, which on a frequency
    lattice never fully decoheres the pairs; it is read from the circuit
    without the beam-splitter (see the module docstring).
    """
    return _RowPlan(config).hom_visibility()


def mzi_visibility(config: HhomConfig) -> float:
    """Fringe visibility between beam-splitter angles 0 and pi/4."""
    return _RowPlan(config).mzi_visibility()


@dataclass(frozen=True)
class RatioResult:
    """Both orderings of the plateau-to-maximum four-fold ratio."""

    p4_max: float        # no beam-splitter
    p4_plateau: float    # distinguishable limit, from the no-splitter state
    max_over_plateau: float
    plateau_over_max: float


def ratio_r(config: HhomConfig) -> RatioResult:
    """Four-fold probability without the beam-splitter versus at the plateau.

    Conventions in the literature disagree on which value is the numerator,
    so both orderings are returned.
    """
    plan = _RowPlan(config)
    plan._request((config.delay, 0.0), (config.delay, None))
    p4_max = plan.figures(bs_angle=0.0).four_fold
    p4_plateau = plan.distinguishable_four_fold
    if p4_max <= 0 or p4_plateau <= 0:
        raise ZeroDivisionError("four-fold probability vanishes")
    return RatioResult(p4_max, p4_plateau, p4_max / p4_plateau, p4_plateau / p4_max)


def analytic_heralded_purity(values: Sequence[float]) -> float:
    """Purity of the heralded single photon from a Schmidt spectrum.

    Equals sum(tanh^4) / sum(tanh^2)^2 over the Schmidt-mode squeezing
    strengths; 1 for a single Schmidt mode.
    """
    t2 = np.tanh(np.asarray(values, dtype=float)) ** 2
    total = np.sum(t2)
    if total == 0:
        raise ValueError("all Schmidt coefficients vanish")
    return float(np.sum(t2 ** 2) / total ** 2)


# Operating point of the spectral-filtering study: two identical waveguide
# sources with a walk-off of 29 ps and a bandwidth of 1e11 rad/s (so the
# dimensionless walk-off parameter zeta * walkoff / 2 is 1.45), with an
# optional rectangular bandpass of half-width 1.12e11 rad/s (fitted) on all
# four arms.
FILTER_STUDY_ZETA = 1e11                 # rad/s
FILTER_STUDY_WALKOFF = 29e-12            # s
FILTER_STUDY_HALF_WIDTH = 1.12e11        # rad/s, fitted
FILTER_STUDY_N_BINS = 61
# the grid spans 8 zeta, and build_jsa needs a step of at most zeta / 4
FILTER_STUDY_MIN_BINS = 33


def filter_study_config(xi: float, filtered: bool = True,
                        detector: str = "pnr",
                        n_bins: int = FILTER_STUDY_N_BINS) -> HhomConfig:
    """Identical waveguide sources with an optional bandpass on every arm."""
    spec = JsaSpec("waveguide", xi, FILTER_STUDY_ZETA,
                   walkoff=FILTER_STUDY_WALKOFF)
    step = 8 * FILTER_STUDY_ZETA / (n_bins - 1)
    grid = FrequencyGrid(spec.signal_center, step, n_bins)
    kwargs = {}
    if filtered:
        kwargs = dict(filter_center=spec.signal_center,
                      filter_half_width=FILTER_STUDY_HALF_WIDTH,
                      filter_modes=(0, 1, 2, 3))
    return HhomConfig(spec, spec, grid, detector=detector, **kwargs)


# Fitted constants of the structured (non-identical) source pair: a filtered
# waveguide source against a sign-flipped double-lobe source.  The lobe
# separation, filter half-width and waveguide bandwidth are fitted so the
# delay scan shows interference revivals at +-4 ps with almost no contrast
# at zero delay; the lobe width is the quoted 0.03 THz.
STRUCTURED_WAVEGUIDE_ZETA = 2 * math.pi * 1e11      # rad/s
STRUCTURED_WALKOFF = 29e-12                          # s
STRUCTURED_LOBE_WIDTH = 2 * math.pi * 0.03e12       # rad/s
STRUCTURED_LOBE_SEPARATION = 6.5e11                  # rad/s, fitted
STRUCTURED_FILTER_HALF_WIDTH = 4.5e11                # rad/s, fitted
STRUCTURED_XI = 0.4
STRUCTURED_N_BINS = 51
STRUCTURED_GRID_STEP = 4.4e10                        # rad/s


def structured_source_config(detector: str = "pnr",
                             n_bins: int = STRUCTURED_N_BINS) -> HhomConfig:
    """Non-identical source pair whose delay scan shows +-4 ps revivals.

    Source A is a waveguide JSA bandpass-filtered on both of its arms;
    source B is a rank-1 double-lobe JSA with opposite-sign lobes, so its
    heralded idler is a coherent two-color superposition.  Interference
    between the arms then beats in the delay, with local four-fold minima
    at +-4 ps and near-zero contrast at zero delay.
    """
    source_a = JsaSpec("waveguide", STRUCTURED_XI, STRUCTURED_WAVEGUIDE_ZETA,
                       walkoff=STRUCTURED_WALKOFF)
    source_b = JsaSpec("double_lobe", STRUCTURED_XI, STRUCTURED_LOBE_WIDTH,
                       lobe_separation=STRUCTURED_LOBE_SEPARATION,
                       relative_sign=-1)
    grid = FrequencyGrid(source_a.signal_center, STRUCTURED_GRID_STEP, n_bins)
    return HhomConfig(source_a, source_b, grid,
                      filter_center=source_a.signal_center,
                      filter_half_width=STRUCTURED_FILTER_HALF_WIDTH,
                      filter_modes=(0, 1), detector=detector)


PROBE_AXIS = "probe"   # one row of the configuration as given
SWEEP_AXES = ("delay", "bs_angle", "xi", "loss", "filter_width", PROBE_AXIS)


@dataclass(frozen=True)
class SweepResult:
    """Rows of figures of merit along one swept axis.

    Each row maps column names from ``CSV_COLUMNS`` to floats, with None
    for metrics not evaluated on this axis.
    """

    param: str
    rows: tuple
    detector: str
    config_hash: str

    def column(self, name: str) -> np.ndarray:
        return np.array([math.nan if r[name] is None else r[name]
                         for r in self.rows])

    def to_csv(self, path=None) -> str | None:
        """Write the CSV; with no path, return it as a string."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in self.rows:
            writer.writerow([row["param"]]
                            + [_format_cell(row[c]) for c in CSV_COLUMNS[1:]])
        if path is None:
            return buf.getvalue()
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(buf.getvalue())
        return None


def _format_cell(v) -> str:
    return "" if v is None else format(float(v), ".12e")


def _with_axis_value(config: HhomConfig, axis: str, value: float) -> HhomConfig:
    if axis == PROBE_AXIS:
        return config
    if axis == "delay":
        return dataclasses.replace(config, delay=float(value))
    if axis == "bs_angle":
        return dataclasses.replace(config, bs_angle=float(value))
    if axis == "xi":
        return dataclasses.replace(
            config,
            source_a=dataclasses.replace(config.source_a, xi=float(value)),
            source_b=dataclasses.replace(config.source_b, xi=float(value)))
    if axis == "loss":
        return dataclasses.replace(config, loss=(float(value),) * N_SPATIAL)
    if axis == "filter_width":
        if not config.filter_modes:
            raise ValueError("the filter_width axis needs a configuration with a filter")
        return dataclasses.replace(config, filter_half_width=float(value))
    raise ValueError(f"unknown sweep axis {axis!r}")


def sweep(config: HhomConfig, axis: str, values: Sequence[float],
          visibilities: bool | None = None) -> SweepResult:
    """Evaluate the figures of merit at each value of one swept parameter.

    Per row: four-fold, bunching and heralding probabilities at the row's
    circuit, plus (unless the swept axis is the delay or the beam-splitter
    angle itself, or ``visibilities`` is False) the heralding efficiency
    and both visibilities.  Rows are evaluated one at a time, in order.
    ``axis="probe"`` evaluates the configuration as given, once per value.

    No axis changes a source's shape, so the sweep decomposes each shape
    once (``_sources_and_channels``) and hands the Schmidt data to every row; it
    is dropped when the sweep returns.  Each row scales it by its own xi,
    passbands and losses, as a row on its own does.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    values = [float(v) for v in values]
    if any(not math.isfinite(v) for v in values):
        raise ValueError("swept values must be finite")
    if visibilities is None:
        visibilities = axis not in ("delay", "bs_angle")

    shapes = {}
    rows = [sweep_row(config, axis, v, visibilities, shapes=shapes) for v in values]
    return SweepResult(axis, tuple(rows), config.detector, config.config_hash())


def sweep_row(config: HhomConfig, axis: str, value: float,
              visibilities: bool, shapes: dict | None = None) -> dict:
    """Figures of merit of one sweep point, as a CSV-contract row dict.

    ``axis="probe"`` evaluates the configuration as given, under the
    param label ``probe``.  ``shapes``, if given, is a dict of Schmidt data
    per source shape (``_sources_and_channels``) shared with other rows on the
    same grid; the row fills in what it lacks.  The row's bytes do not
    depend on it.
    """
    plan = _RowPlan(_with_axis_value(config, axis, float(value)), shapes)
    return plan.row(axis, float(value), visibilities)
