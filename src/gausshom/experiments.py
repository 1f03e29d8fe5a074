"""Heralded Hong-Ou-Mandel experiment assembly and figures of merit.

The circuit uses four spatial modes: 0 and 3 are herald (signal) arms with
a detector each, 1 and 2 are the interfering idler arms.  Source A pumps
the pair (0, 1), source B the pair (3, 2); optional bandpass filters and
per-arm loss follow, then a variable delay on idler 1 and a beam-splitter
of angle theta that mixes idlers (1, 2) before detection.

The circuit splits into a source stage (sources, filters and loss) and a
suffix (delay and beam-splitter).  The stage is built in closed form, from
each source's Schmidt decomposition and one amplitude transmission per
row (``_sources_and_channels``); the element-built circuit is the
reference it matches.  Every state a
sweep row needs is derived from one stage: the state without the
beam-splitter is the stage itself (plus any delay), and the state at pi/4
adds the splitter.  A sweep along the delay, the beam-splitter angle or a
probe builds the stage once for all of its rows.

The fully distinguishable (infinite-delay) limit is the circuit that
splits each idler against a vacuum ancilla, with detectors A and B each
collecting half of both idlers.  Its generating function is the four-arm
one with both idler variables (t_A + t_B) / 2, so with PNR detectors it is
half of P(1,1,1,1) + P(1,2,0,1) + P(1,0,2,1) at angle 0, and with
threshold detectors P(A and B) = P(A) + P(B) - P(A or B), where vacuum in
A alone is vacuum in both idlers after 50% loss.

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
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (STRUCTURE_TOL, SYMPLECTIC_TOL, CovarianceState, FrequencyGrid, ModeLayout,
                   UnphysicalStateError, _quadrature_form, apply, subset_indices)
from .detection import inclusion_exclusion, p_pnr, p_threshold, vacuum_probabilities
from .elements import _amplitude_transmission, _passband, beam_splitter, delay, loss
from .jsa import JsaSpec, SchmidtData, build_jsa, schmidt_decompose

HERALD_MODES = (0, 3)
IDLER_MODES = (1, 2)
FOUR_ARMS = (0, 1, 2, 3)
FOUR_FOLD_COUNTS = (1, 1, 1, 1)
BUNCHING_COUNTS = ((1, 0, 2, 1), (1, 2, 0, 1))
DELAY_MODE = 1
N_SPATIAL = 4

SPS_ANGLE_TOL = 1e-8

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
        if self.detector not in DETECTORS:
            raise ValueError(f"unknown detector type {self.detector!r}")
        if self.filter_modes and (self.filter_center is None
                                  or self.filter_half_width is None):
            raise ValueError("filter modes given without a filter passband")
        if any(not 0 <= m < N_SPATIAL for m in self.filter_modes):
            raise ValueError("filter modes must be spatial modes 0..3")

    def config_hash(self) -> str:
        return hashlib.sha256(repr(self).encode()).hexdigest()[:16]


def _squeezed_vacuum(sd: SchmidtData) -> np.ndarray:
    """V - 1 of one pair source on its (signal, idler) rows, in closed form.

    In its Schmidt basis the source is a stack of two-mode squeezers of
    strengths r = ``sd.values``.  From vacuum, sigma - 1 then has the
    complex (a, a^dag) blocks A_ss = U diag(2 sinh^2 r) U^dag,
    A_ii = Vh^T diag(2 sinh^2 r) Vh* and B_si = -i U diag(sinh 2r) Vh, which
    are a physical state exactly when U and Vh are unitary (r is real): the
    same condition as the squeezer's S J S^T = J, and checked here instead.
    """
    n_f = sd.values.size
    for name, w in (("U", sd.u), ("Vh", sd.vh)):
        residual = np.max(np.abs(w.conj().T @ w - np.eye(n_f)))
        if not residual <= SYMPLECTIC_TOL:
            raise ValueError(f"Schmidt basis {name} is not unitary (residual {residual:.2e})")
    excess, pairing = 2 * np.sinh(sd.values) ** 2, np.sinh(2 * sd.values)
    if not (np.all(np.isfinite(excess)) and np.all(np.isfinite(pairing))):
        raise ValueError("source state has non-finite entries")
    a = np.zeros((2 * n_f, 2 * n_f), dtype=complex)
    a[:n_f, :n_f] = (sd.u * excess) @ sd.u.conj().T
    a[n_f:, n_f:] = (sd.vh.T * excess) @ sd.vh.conj()
    b = np.zeros_like(a)
    b[:n_f, n_f:] = (-1j * sd.u * pairing) @ sd.vh
    b[n_f:, :n_f] = b[:n_f, n_f:].T
    v, imag = _quadrature_form(np.block([[a, b], [b.conj(), a.conj()]]))
    if not imag <= STRUCTURE_TOL:
        raise UnphysicalStateError(f"source state lacks the conjugate block structure "
                                   f"(relative |Im(Q sigma Q^dag)| = {imag:.2e})")
    return v


def _sources_and_channels(config: HhomConfig) -> CovarianceState:
    """The source stage: both pair sources, the bandpass filters and per-arm loss.

    Every state of a configuration is derived from this four-arm state by a
    short suffix (``_with_suffix``), and it does not depend on the delay or
    the beam-splitter angle.  It is built in closed form: each source's
    V - 1 from its Schmidt decomposition (``_squeezed_vacuum``), then every
    filter and loss, all diagonal on the rows, as one amplitude
    transmission t per row, V = 1 + (t t^T) o (V_0 - 1).  The element-built
    circuit (``squeezer``, ``bandpass_filter``, ``loss``) gives the same
    state.
    """
    lay = ModeLayout(N_SPATIAL, config.grid.n_bins)
    excess = np.zeros((2 * lay.n_modes,) * 2)
    sources = {}
    for spec, arms in ((config.source_a, (0, 1)), (config.source_b, (3, 2))):
        if spec.xi > 0:
            # identical sources share one JSA and one Schmidt decomposition
            if spec not in sources:
                sources[spec] = _squeezed_vacuum(
                    schmidt_decompose(build_jsa(spec, config.grid)))
            rows = subset_indices(lay, arms)
            excess[np.ix_(rows, rows)] = sources[spec]
    t = np.ones((N_SPATIAL, lay.n_spectral))
    if config.filter_modes:
        t[list(config.filter_modes)] = _passband(config.filter_center,
                                                 config.filter_half_width, config.grid)
    t *= np.array([[_amplitude_transmission(eps)] for eps in config.loss])
    t = np.tile(t.ravel(), 2)
    v = np.outer(t, t)
    v *= excess
    v[np.diag_indices_from(v)] += 1
    return CovarianceState(lay, v)


def _with_suffix(stage: CovarianceState, config: HhomConfig) -> CovarianceState:
    """The config's delay and beam-splitter applied to its source stage."""
    state = stage
    if config.delay != 0.0:
        state = apply(state, delay(config.delay, DELAY_MODE, config.grid, state.layout))
    if config.bs_angle != 0.0:
        state = apply(state, beam_splitter(config.bs_angle, IDLER_MODES, state.layout))
    return state


def build_hhom(config: HhomConfig) -> CovarianceState:
    """Final covariance state of the heralded-HOM circuit."""
    return _with_suffix(_sources_and_channels(config), config)


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


def _subsets(modes: tuple) -> list[tuple]:
    """Every subset of ``modes``, each in the order of ``modes``."""
    return [subset for r in range(len(modes) + 1)
            for subset in itertools.combinations(modes, r)]


class _Figures:
    """Four-fold, bunching and heralding probabilities of one four-arm state.

    Each detection quantity is evaluated once.  With PNR detectors the
    four-fold and both bunching patterns come from one expansion; with
    threshold detectors every figure is an inclusion-exclusion sum over the
    same table of 16 vacuum probabilities of the four arms, built once.
    """

    def __init__(self, state: CovarianceState, detector: str):
        self.state = state
        self.detector = detector

    @functools.cached_property
    def vacuum(self) -> dict:
        """Vacuum probability of each subset of the four arms, keyed by the subset."""
        return vacuum_probabilities(self.state, _subsets(FOUR_ARMS))

    def _threshold(self, on_modes, off_modes=()) -> float:
        return inclusion_exclusion(self.vacuum.__getitem__, on_modes, off_modes)

    @functools.cached_property
    def four_fold_and_bunching(self) -> tuple[float, float]:
        if self.detector == "pnr":
            p4, *p_bunch = p_pnr(self.state, FOUR_ARMS,
                                 (FOUR_FOLD_COUNTS,) + BUNCHING_COUNTS)
            return p4, sum(p_bunch)
        return (self._threshold(FOUR_ARMS),
                self._threshold((0, 2, 3), (1,)) + self._threshold((0, 1, 3), (2,)))

    @property
    def four_fold(self) -> float:
        return self.four_fold_and_bunching[0]

    @property
    def single_pair(self) -> float:
        """Four-fold plus bunching: heralds fire and two idler photons emerge."""
        p4, p_bunch = self.four_fold_and_bunching
        return p4 + p_bunch

    @functools.cached_property
    def heralding_rate(self) -> float:
        if self.detector == "pnr":
            return p_pnr(self.state, HERALD_MODES, (1, 1))
        return self._threshold(HERALD_MODES)


class _RowPlan:
    """Figures of merit of one configuration from its distinct states.

    Every state the figures need is derived from one source stage
    (``_sources_and_channels``): the state at (delay, beam-splitter angle)
    adds those two elements to it, and the distinguishable limit is read
    from the state at angle 0.  Each state is built once, keyed by (delay,
    angle), and each of its detection quantities is evaluated once.  The
    plan builds the stage on first use and keeps it; a sweep whose axis
    leaves the stage unchanged passes in the stage it built.  A plan serves
    one sweep row or one public call and holds no state beyond it.
    """

    def __init__(self, config: HhomConfig, stage: CovarianceState | None = None):
        self.config = config
        self._stage = stage
        self._figures = {}

    def stage(self) -> CovarianceState:
        """The source stage, built on first use and kept."""
        if self._stage is None:
            self._stage = _sources_and_channels(self.config)
        return self._stage

    def figures(self, delay: float | None = None,
                bs_angle: float | None = None) -> _Figures:
        """Figures of the circuit at this delay and angle (default: the config's)."""
        key = (self.config.delay if delay is None else delay,
               self.config.bs_angle if bs_angle is None else bs_angle)
        if key not in self._figures:
            config = dataclasses.replace(self.config, delay=key[0], bs_angle=key[1])
            state = _with_suffix(self.stage(), config)
            self._figures[key] = _Figures(state, self.config.detector)
        return self._figures[key]

    @functools.cached_property
    def distinguishable_four_fold(self) -> float:
        """From the state at angle 0 (module docstring); with threshold
        detectors, one range-checked sum in which modes 1 and 2 are A and B."""
        unsplit = self.figures(bs_angle=0.0)
        if self.config.detector == "pnr":
            return 0.5 * unsplit.single_pair
        halved = vacuum_probabilities(
            apply(unsplit.state, loss(0.5, IDLER_MODES, unsplit.state.layout)),
            [IDLER_MODES + heralds for heralds in _subsets(HERALD_MODES)])

        def vacuum(modes: tuple) -> float:
            if len(set(modes) & set(IDLER_MODES)) == 1:
                return halved[tuple(sorted(set(modes) | set(IDLER_MODES)))]
            return unsplit.vacuum[modes]

        return inclusion_exclusion(vacuum, FOUR_ARMS)

    def heralding_efficiency(self) -> float:
        p_sps = self.figures(bs_angle=0.0).single_pair
        at45 = self.figures(bs_angle=math.pi / 4)
        if abs(p_sps - at45.single_pair) > SPS_ANGLE_TOL:
            raise RuntimeError("heralded-pair probability depends on the beam-splitter "
                               f"angle ({p_sps} vs {at45.single_pair})")
        if at45.heralding_rate <= 0:
            raise ZeroDivisionError("heralding rate is zero")
        return p_sps / at45.heralding_rate

    def hom_visibility(self) -> float:
        return visibility_hom(self.figures(0.0, math.pi / 4).four_fold,
                              self.distinguishable_four_fold)

    def mzi_visibility(self) -> float:
        return visibility_mzi(self.figures(bs_angle=0.0).four_fold,
                              self.figures(bs_angle=math.pi / 4).four_fold)

    def row(self, param: str, value: float, visibilities: bool) -> dict:
        here = self.figures()
        p4, p_bunch = here.four_fold_and_bunching
        row = {"param": param, "value": value, "p4": p4, "p_bunch": p_bunch,
               "p_herald": here.heralding_rate,
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
# axes that leave the source stage unchanged: a sweep builds it once for all rows
STAGE_AXES = ("delay", "bs_angle", PROBE_AXIS)


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

    The delay, beam-splitter and probe axes leave the source stage
    unchanged, so a sweep of several values on them builds the stage once
    and derives every row's states from it; it is dropped when the sweep
    returns.  Every other axis builds one stage per row.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    values = [float(v) for v in values]
    if any(not math.isfinite(v) for v in values):
        raise ValueError("swept values must be finite")
    if visibilities is None:
        visibilities = axis not in ("delay", "bs_angle")

    stage = None
    if axis in STAGE_AXES and len(values) > 1:
        stage = _sources_and_channels(config)
    rows = [sweep_row(config, axis, v, visibilities, stage=stage) for v in values]
    return SweepResult(axis, tuple(rows), config.detector, config.config_hash())


def sweep_row(config: HhomConfig, axis: str, value: float,
              visibilities: bool, stage: CovarianceState | None = None) -> dict:
    """Figures of merit of one sweep point, as a CSV-contract row dict.

    ``axis="probe"`` evaluates the configuration as given, under the
    param label ``probe``.  ``stage``, if given, is the source stage of
    ``config`` (``_sources_and_channels``); only an axis in ``STAGE_AXES``
    can take it, since every other axis changes the stage.
    """
    if stage is not None and axis not in STAGE_AXES:
        raise ValueError(f"the {axis!r} axis changes the source stage")
    plan = _RowPlan(_with_axis_value(config, axis, float(value)), stage)
    return plan.row(axis, float(value), visibilities)
