"""Heralded-HOM circuit assembly, figures of merit, and sweeps."""

import dataclasses
import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gausshom import detection, elements, experiments
from gausshom.core import (CovarianceState, FrequencyGrid, ModeLayout, apply, subset_indices,
                           vacuum_state)
from gausshom.elements import bandpass_filter, beam_splitter, loss, squeezer
from gausshom.detection import DetectionPattern, p_pnr, p_threshold
from gausshom.fock import fock_detection
from gausshom.experiments import (
    CSV_COLUMNS,
    DETECTORS,
    FOUR_ARMS,
    HhomConfig,
    build_hhom,
    bunching,
    distinguishable_four_fold,
    filter_study_config,
    four_fold,
    heralding_efficiency,
    heralding_rate,
    hom_visibility,
    mzi_visibility,
    ratio_r,
    single_pair_probability,
    structured_source_config,
    sweep,
    sweep_row,
    analytic_heralded_purity,
    visibility_hom,
    visibility_mzi,
    xi_to_db,
)
from gausshom.jsa import PS, JsaSpec, SchmidtData, build_jsa, default_grid, schmidt_decompose

from conftest import run_fock


def gaussian_config(xi=0.3, detector="pnr", **kwargs):
    """Single-frequency-bin separable sources: the analytic reference case."""
    spec = JsaSpec("gaussian", xi, 1.0, signal_center=0.0, idler_center=0.0)
    grid = FrequencyGrid(0.0, 0.125, 1)
    return HhomConfig(spec, spec, grid, detector=detector, **kwargs)


def test_xi_to_db():
    assert xi_to_db(0.0) == 0.0
    assert xi_to_db(math.log(10.0) / 20.0) == pytest.approx(1.0)


def test_config_validation():
    spec = JsaSpec("gaussian", 0.1, 1.0)
    grid = FrequencyGrid(spec.signal_center, 0.125, 1)
    with pytest.raises(ValueError, match="loss"):
        HhomConfig(spec, spec, grid, loss=(0.1, 0.2))
    with pytest.raises(ValueError, match="loss"):
        HhomConfig(spec, spec, grid, loss=(0.1, 0.2, 0.3, 1.4))
    with pytest.raises(ValueError, match="detector"):
        HhomConfig(spec, spec, grid, detector="magic")
    with pytest.raises(ValueError, match="passband"):
        HhomConfig(spec, spec, grid, filter_modes=(0,))
    for field, value in itertools.product(("delay", "bs_angle", "filter_center",
                                           "filter_half_width"),
                                          (math.nan, math.inf, -math.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            HhomConfig(spec, spec, grid, **{field: value})


def test_config_hash_distinguishes_configs():
    a = gaussian_config(0.3)
    b = gaussian_config(0.31)
    assert a.config_hash() != b.config_hash()
    assert a.config_hash() == gaussian_config(0.3).config_hash()


def test_pure_gaussian_unit_visibility():
    config = gaussian_config(0.35)
    assert hom_visibility(config) == pytest.approx(1.0, abs=1e-10)
    assert mzi_visibility(config) == pytest.approx(1.0, abs=1e-10)


def test_pure_gaussian_ratio_two():
    res = ratio_r(gaussian_config(0.05))
    assert res.max_over_plateau == pytest.approx(2.0, abs=1e-4)
    assert res.max_over_plateau * res.plateau_over_max == pytest.approx(1.0, abs=1e-12)


def test_four_fold_and_bunching_partition():
    """Without the splitter all pairs split; at pi/4 they all bunch."""
    config = gaussian_config(0.3)
    split = build_hhom(dataclasses.replace(config, bs_angle=0.0))
    mixed = build_hhom(dataclasses.replace(config, bs_angle=math.pi / 4))
    assert bunching(split, "pnr") == pytest.approx(0.0, abs=1e-12)
    assert four_fold(mixed, "pnr") == pytest.approx(0.0, abs=1e-12)
    total_split = four_fold(split, "pnr") + bunching(split, "pnr")
    total_mixed = four_fold(mixed, "pnr") + bunching(mixed, "pnr")
    assert total_split == pytest.approx(total_mixed, abs=1e-12)


def test_heralding_rate_closed_form():
    xi = 0.4
    config = gaussian_config(xi)
    state = build_hhom(config)
    t, c = math.tanh(xi), math.cosh(xi)
    expected = (t ** 2 / c ** 2) ** 2   # one pair in each source, independently
    assert heralding_rate(state, "pnr") == pytest.approx(expected, abs=1e-12)


def test_heralding_efficiency_unity_when_lossless():
    assert heralding_efficiency(gaussian_config(0.3)) == pytest.approx(1.0, abs=1e-10)


def test_heralding_efficiency_drops_with_idler_loss():
    lossy = gaussian_config(0.3, loss=(0.0, 0.4, 0.4, 0.0))
    eta = heralding_efficiency(lossy)
    assert eta == pytest.approx((1 - 0.4) ** 2, abs=0.05)
    assert eta < 1.0


def test_single_pair_probability_angle_independent():
    config = gaussian_config(0.25)
    p1 = single_pair_probability(config)
    p2 = single_pair_probability(dataclasses.replace(config, bs_angle=0.9))
    assert p1 == pytest.approx(p2, abs=1e-12)


def test_threshold_detector_path():
    """Threshold detectors admit multi-pair events, degrading visibility."""
    v_thr = hom_visibility(gaussian_config(0.3, detector="threshold"))
    v_pnr = hom_visibility(gaussian_config(0.3, detector="pnr"))
    assert v_thr < v_pnr
    # and the degradation vanishes at low squeezing
    assert hom_visibility(gaussian_config(0.05, detector="threshold")) > 0.99
    state = build_hhom(gaussian_config(0.3, detector="threshold"))
    assert heralding_rate(state, "threshold") >= heralding_rate(state, "pnr")


def test_visibility_helpers_and_errors():
    assert visibility_hom(0.2, 0.4) == pytest.approx(0.5)
    assert visibility_mzi(0.4, 0.2) == pytest.approx(1.0 / 3.0)
    with pytest.raises(ZeroDivisionError):
        visibility_hom(0.1, 0.0)
    with pytest.raises(ZeroDivisionError):
        visibility_mzi(0.0, 0.0)


def test_analytic_heralded_purity():
    assert analytic_heralded_purity([0.5]) == pytest.approx(1.0)
    lam = [0.3, 0.3]
    assert analytic_heralded_purity(lam) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        analytic_heralded_purity([0.0, 0.0])


def test_sweep_rows_and_csv_contract(tmp_path):
    config = gaussian_config(0.2)
    res = sweep(config, "xi", [0.1, 0.2], visibilities=True)
    assert res.param == "xi"
    assert [r["value"] for r in res.rows] == [0.1, 0.2]
    np.testing.assert_allclose(res.column("v_hom"), [1.0, 1.0], atol=1e-9)

    text = res.to_csv()
    lines = text.splitlines()
    assert lines[0] == "param,value,p4,p_bunch,p_herald,eta_herald,v_hom,v_mzi"
    assert len(lines) == 3
    path = tmp_path / "sweep.csv"
    res.to_csv(path)
    assert path.read_text() == text


def test_sweep_delay_axis_leaves_visibilities_blank():
    config = gaussian_config(0.2)
    res = sweep(config, "delay", [0.0, 1.0])
    for row in res.rows:
        assert row["v_hom"] is None and row["eta_herald"] is None
    # blank cells, not zeros, in the CSV
    assert res.to_csv().splitlines()[1].endswith(",,,")


def test_sweep_axis_validation():
    config = gaussian_config(0.2)
    with pytest.raises(ValueError, match="axis"):
        sweep(config, "temperature", [1.0])
    with pytest.raises(ValueError, match="finite"):
        sweep(config, "xi", [float("nan")])
    # without a filter every filter_width row would be the same circuit
    with pytest.raises(ValueError, match="needs a configuration with a filter"):
        sweep(config, "filter_width", [1.0, 2.0])
    with pytest.raises(ValueError, match="needs a configuration with a filter"):
        sweep_row(config, "filter_width", 1.0, visibilities=False)


def test_sweep_loss_axis_moves_all_arms():
    config = gaussian_config(0.3)
    res = sweep(config, "loss", [0.0, 0.5], visibilities=False)
    p = res.column("p_herald")
    assert p[1] < p[0]


def test_named_configs_are_well_formed():
    fs = filter_study_config(0.3)
    assert fs.filter_modes == (0, 1, 2, 3)
    assert fs.grid.n_bins == 61
    fs_open = filter_study_config(0.3, filtered=False)
    assert fs_open.filter_modes == ()
    ss = structured_source_config(detector="threshold")
    assert ss.detector == "threshold"
    assert ss.source_a.variant == "waveguide"
    assert ss.source_b.variant == "double_lobe"
    assert ss.source_b.relative_sign == -1
    assert ss.grid.step <= ss.source_b.zeta / 4


def lossy_waveguide_config(detector, **kwargs):
    """Multi-bin, non-separable, filtered and lossy: no figure is trivial."""
    spec = JsaSpec("waveguide", 0.3, 4.0, signal_center=0.0, idler_center=0.0,
                   walkoff=1.0)
    grid = FrequencyGrid(0.0, 1.0, 5)
    return HhomConfig(spec, spec, grid, loss=(0.1, 0.2, 0.15, 0.05),
                      filter_center=0.0, filter_half_width=1.5,
                      filter_modes=(1, 2), detector=detector, **kwargs)


@pytest.mark.parametrize("delay", [0.0, 0.7])
@pytest.mark.parametrize("detector", DETECTORS)
def test_sweep_row_matches_standalone_figures(detector, delay):
    config = lossy_waveguide_config(detector, delay=delay)
    row = sweep_row(config, "xi", 0.4, visibilities=True)

    c = dataclasses.replace(config, source_a=dataclasses.replace(config.source_a, xi=0.4),
                            source_b=dataclasses.replace(config.source_b, xi=0.4))
    here = build_hhom(c)
    split = build_hhom(dataclasses.replace(c, bs_angle=0.0))
    dip = build_hhom(dataclasses.replace(c, delay=0.0))
    plateau = distinguishable_four_fold(c)
    expected = {
        "p4": four_fold(here, detector),
        "p_bunch": bunching(here, detector),
        "p_herald": heralding_rate(here, detector),
        "eta_herald": heralding_efficiency(c),
        "v_hom": hom_visibility(c),
        "v_mzi": mzi_visibility(c),
    }
    # the same figures from one state at a time
    independent = {
        "eta_herald": (four_fold(split, detector) + bunching(split, detector))
        / heralding_rate(here, detector),
        "v_hom": visibility_hom(four_fold(dip, detector), plateau),
        "v_mzi": visibility_mzi(four_fold(split, detector), four_fold(here, detector)),
    }
    assert row["param"] == "xi" and row["value"] == 0.4
    for name, value in expected.items():
        assert row[name] == pytest.approx(value, rel=1e-12, abs=1e-15), name
    for name, value in independent.items():
        assert row[name] == pytest.approx(value, rel=1e-12, abs=1e-15), name


@pytest.mark.parametrize("detector", DETECTORS)
def test_visibility_row_builds_and_detects_each_distinct_state_once(monkeypatch, detector):
    stages, calls = [], []
    stage = experiments._sources_and_channels
    vacuum_probabilities = experiments.vacuum_probabilities
    p_pnr = experiments.p_pnr

    def counting_stage(config):
        stages.append(config)
        return stage(config)

    # the list keeps every detected state alive, so their ids stay distinct
    def counting_vacuum(state, subsets):
        calls.append((state, tuple(subsets)))
        return vacuum_probabilities(state, subsets)

    def counting_pnr(state, modes, counts):
        calls.append((state, repr(modes)))
        return p_pnr(state, modes, counts)

    monkeypatch.setattr(experiments, "_sources_and_channels", counting_stage)
    monkeypatch.setattr(experiments, "vacuum_probabilities", counting_vacuum)
    monkeypatch.setattr(detection, "vacuum_probabilities", counting_vacuum)
    monkeypatch.setattr(experiments, "p_pnr", counting_pnr)
    sweep_row(lossy_waveguide_config(detector), "xi", 0.3, visibilities=True)

    # one source stage serves bs = pi/4, bs = 0 and the distinguishable limit
    assert len(stages) == 1
    keys = [(id(state), what) for state, what in calls]
    assert len(keys) == len(set(keys))
    assert {state.layout.n_spatial for state, _ in calls} == {4}
    states = {id(state) for state, _ in calls}
    if detector == "threshold":
        # one table per state: the 16 subsets of 4 detectors at bs = pi/4
        # and at bs = 0, and the 4 subsets that hold both idlers after 50%
        # idler loss
        assert (len(calls), len(states)) == (3, 3)
        assert sorted(len(subsets) for _, subsets in calls) == [4, 16, 16]
    else:
        # at bs = pi/4 the four-arm and the herald expansions; at bs = 0 the
        # four-arm one, which also gives the plateau
        assert (len(calls), len(states)) == (3, 2)


def count_stages(monkeypatch) -> list:
    """Record every source-stage build from here on."""
    stages = []
    stage = experiments._sources_and_channels

    def counting_stage(config):
        stages.append(config)
        return stage(config)

    monkeypatch.setattr(experiments, "_sources_and_channels", counting_stage)
    return stages


def sources_filter_and_loss(config, lay):
    """The source stage on ``lay``, assembled element by element, one squeezer per source."""
    state = vacuum_state(lay)
    for spec, (sig, idl) in ((config.source_a, (0, 1)), (config.source_b, (3, 2))):
        state = apply(state, squeezer(build_jsa(spec, config.grid), sig, idl, lay))
    if config.filter_modes:
        state = apply(state, bandpass_filter(config.filter_center, config.filter_half_width,
                                             config.filter_modes, config.grid, lay))
    for eps in sorted(set(config.loss)):
        arms = [m for m, e in enumerate(config.loss) if e == eps]
        state = apply(state, loss(eps, arms, lay))
    return state


def test_identical_sources_share_one_schmidt_decomposition(monkeypatch):
    calls = []
    for name in ("build_jsa", "schmidt_decompose"):
        def counting(*args, _name=name, _original=getattr(experiments, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(experiments, name, counting)
    gaussian = JsaSpec("gaussian", 0.2, 4.0, signal_center=0.0, idler_center=0.0)
    identical = lossy_waveguide_config("pnr")
    for config, n_sources in ((identical, 1),
                              (dataclasses.replace(identical, source_b=gaussian), 2)):
        calls.clear()
        experiments._sources_and_channels(config)
        assert sorted(calls) == ["build_jsa"] * n_sources + ["schmidt_decompose"] * n_sources
        got = build_hhom(dataclasses.replace(config, bs_angle=0.0))
        want = sources_filter_and_loss(config, ModeLayout(4, config.grid.n_bins))
        np.testing.assert_allclose(got.v, want.v, rtol=0, atol=1e-13)


def stage_source(variant, xi, idler_center):
    extra = {"waveguide": dict(walkoff=1.0),
             "double_lobe": dict(lobe_separation=3.0, relative_sign=-1)}.get(variant, {})
    return JsaSpec(variant, xi, 4.0, signal_center=0.0, idler_center=idler_center, **extra)


VARIANTS = ("gaussian", "waveguide", "double_lobe")
STAGE_XI = (0.0, 0.2, 0.9)
# zero, full and partial loss on each arm
ARM_LOSS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def assert_close_probabilities(got, want):
    """Each probability within 1e-12 relative or 1e-14 absolute."""
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.abs(got - want) <= np.maximum(1e-12 * np.abs(want), 1e-14)), (got, want)


TWO_PER_ARM = list(itertools.product(range(3), repeat=4))


@settings(max_examples=25, deadline=None)
@given(variants=st.tuples(st.sampled_from(VARIANTS), st.sampled_from(VARIANTS)),
       xis=st.tuples(st.sampled_from(STAGE_XI), st.sampled_from(STAGE_XI)),
       idler_center=st.sampled_from([0.0, 0.5]),
       filter_modes=st.lists(st.integers(0, 3), unique=True, max_size=4).map(tuple),
       losses=st.tuples(ARM_LOSS, ARM_LOSS, ARM_LOSS, ARM_LOSS),
       n_bins=st.integers(2, 7),
       delay=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
       bs_angle=st.one_of(st.sampled_from([0.0, math.pi / 4]), st.floats(0.0, math.pi)))
@example(("waveguide", "waveguide"), (0.9, 0.9), 0.0, (1, 2), (0.1, 0.2, 0.15, 0.05), 5,
         0.0, math.pi / 4)
@example(("waveguide", "waveguide"), (0.9, 0.9), 0.0, (0, 1, 2, 3), (0.1,) * 4, 7, 0.0, 0.3)
@example(("waveguide", "double_lobe"), (0.9, 0.2), 0.0, (0, 2), (0.0, 1.0, 0.3, 0.05), 6,
         1.3, math.pi / 4)
@example(("gaussian", "waveguide"), (0.0, 0.9), 0.5, (), (1.0, 0.0, 0.0, 0.2), 7, -0.8, 1.1)
@example(("double_lobe", "gaussian"), (0.2, 0.0), 0.5, (3,), (0.0, 0.0, 0.0, 0.0), 4,
         2.5, 0.0)
@example(("waveguide", "gaussian"), (0.0, 0.0), 0.0, (1,), (0.0, 0.3, 0.0, 0.0), 5,
         0.7, math.pi / 4)
def test_closed_form_stage_matches_the_element_circuit(variants, xis, idler_center,
                                                       filter_modes, losses, n_bins,
                                                       delay, bs_angle):
    """The closed-form stage and its row state against squeezers, a bandpass,
    loss, the delay and the beam-splitter, element by element."""
    source_a = stage_source(variants[0], xis[0], 0.0)
    source_b = stage_source(variants[1], xis[1], idler_center)
    filter_kwargs = dict(filter_center=0.2, filter_half_width=1.5) if filter_modes else {}
    config = HhomConfig(source_a, source_b, FrequencyGrid(0.0, 1.0, n_bins), loss=losses,
                        filter_modes=filter_modes, delay=delay, bs_angle=bs_angle,
                        **filter_kwargs)
    lay = ModeLayout(4, n_bins)
    want = sources_filter_and_loss(config, lay)
    want = apply(want, elements.delay(delay, experiments.DELAY_MODE, config.grid, lay))
    want = apply(want, beam_splitter(bs_angle, experiments.IDLER_MODES, lay))
    np.testing.assert_allclose(build_hhom(config).v, want.v, rtol=0, atol=1e-13)

    # the row state detects as the state on every bin does
    got = experiments._RowPlan(config).state(delay, bs_angle)
    subsets = experiments._subsets(FOUR_ARMS)
    got_vacuum, want_vacuum = (detection.vacuum_probabilities(state, subsets)
                               for state in (got, want))
    assert_close_probabilities([got_vacuum[s] for s in subsets],
                               [want_vacuum[s] for s in subsets])
    assert_close_probabilities(p_pnr(got, FOUR_ARMS, TWO_PER_ARM),
                               p_pnr(want, FOUR_ARMS, TWO_PER_ARM))
    if xis == (0.0, 0.0):
        # no source: one vacuum row per arm, and the parent's error
        assert got.layout == ModeLayout(4, 1)
        with pytest.raises(ZeroDivisionError, match="heralding rate is zero"):
            heralding_efficiency(config)


@pytest.mark.parametrize("detector", DETECTORS)
def test_101_bin_row_matches_the_dense_element_circuit(monkeypatch, detector):
    """A lossy waveguide row at delay 0, detected in the arms' occupied
    bases, against the same row on the element circuit over all 101 bins."""
    spec = JsaSpec("waveguide", 0.3, 1e11, walkoff=29 * PS)
    config = HhomConfig(spec, spec, default_grid(spec, n_bins=101), loss=(0.1,) * 4,
                        detector=detector)
    got = sweep_row(config, experiments.PROBE_AXIS, 0.0, True)
    plan = experiments._RowPlan(config)
    state = plan.state(0.0, 0.0)
    # fails if the row is ever detected on the bins again
    assert state.layout.n_spectral <= 2 * plan.stage().modes[0].shape[1] < config.grid.n_bins
    plateau_amplitudes = pytest.approx([math.sqrt(0.9), math.sqrt(0.45),
                                        math.sqrt(0.45), math.sqrt(0.9)], rel=1e-15)

    def dense_state(plan, delay, bs_angle, amplitudes=None):
        assert delay == 0.0
        lay = ModeLayout(4, config.grid.n_bins)
        state = sources_filter_and_loss(config, lay)
        if amplitudes is not None:
            # the threshold plateau: 50% more loss on both idlers
            assert amplitudes == plateau_amplitudes
            state = apply(state, loss(0.5, experiments.IDLER_MODES, lay))
        return apply(state, beam_splitter(bs_angle, experiments.IDLER_MODES, lay))

    monkeypatch.setattr(experiments._RowPlan, "state", dense_state)
    want = sweep_row(config, experiments.PROBE_AXIS, 0.0, True)
    for name in CSV_COLUMNS[2:]:
        rel = 1e-12
        if detector == "threshold" and name in ("p4", "v_hom", "v_mzi"):
            # the element circuit forms V = S S^T, rounding V - 1 at 1e-16
            # absolute, and the four-fold's inclusion-exclusion of 16 vacuum
            # terms near 1 keeps that absolute error: 2e-15 on p4 = 6.7e-4
            rel = 1e-11
        assert got[name] == pytest.approx(want[name], rel=rel, abs=0), name


@pytest.mark.parametrize("center, half_width", [(0.0, 0.0), (0.0, -1.0), (40.0, 1.0)])
def test_stage_rejects_a_passband_as_bandpass_filter_does(center, half_width):
    config = dataclasses.replace(lossy_waveguide_config("pnr"), filter_center=center,
                                 filter_half_width=half_width)
    with pytest.raises(ValueError) as element:
        bandpass_filter(center, half_width, config.filter_modes, config.grid,
                        ModeLayout(4, config.grid.n_bins))
    with pytest.raises(ValueError) as stage:
        experiments._sources_and_channels(config)
    assert str(stage.value) == str(element.value)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_stage_rejects_a_non_unitary_schmidt_basis_and_overflow():
    grid = FrequencyGrid(0.0, 1.0, 5)
    sd = schmidt_decompose(build_jsa(stage_source("waveguide", 0.5, 0.0), grid))
    experiments._kept_modes(sd)
    for bad in (SchmidtData(sd.values, (1 + 1e-9) * sd.u, sd.vh),
                SchmidtData(sd.values, sd.u, sd.vh[::-1] + 1e-9)):
        with pytest.raises(ValueError, match="not unitary"):
            experiments._kept_modes(bad)
    # squeezing past the float range is a domain error (CLI exit code 2), as
    # the squeezer's non-finite block is, not an unphysical state
    strong = dataclasses.replace(lossy_waveguide_config("pnr"),
                                 source_a=stage_source("gaussian", 800.0, 0.0))
    with pytest.raises(ValueError, match="non-finite") as error:
        experiments._sources_and_channels(strong)
    assert not isinstance(error.value, detection.UnphysicalStateError)


def complex_stage_reference(sd):
    """V - 1 of one source through its complex sigma and ``from_sigma``'s structure check."""
    n_f = sd.values.size
    excess, pairing = np.diag(2 * np.sinh(sd.values) ** 2), np.diag(np.sinh(2 * sd.values))
    a = np.zeros((2 * n_f, 2 * n_f), dtype=complex)
    a[:n_f, :n_f] = sd.u @ excess @ sd.u.conj().T
    a[n_f:, n_f:] = sd.vh.T @ excess @ sd.vh.conj()
    b = np.zeros_like(a)
    b[:n_f, n_f:] = -1j * sd.u @ pairing @ sd.vh
    b[n_f:, :n_f] = b[:n_f, n_f:].T
    sigma = np.eye(4 * n_f) + np.block([[a, b], [b.conj(), a.conj()]])
    return CovarianceState.from_sigma(ModeLayout(2, n_f), sigma).v - np.eye(4 * n_f)


@pytest.mark.parametrize("variant", ["waveguide", "gaussian", "double_lobe"])
def test_real_stage_block_matches_the_complex_sigma(variant):
    """The state writer forms Re(Q sigma Q^dag) blockwise; here sigma is
    built on the bins and converted."""
    grid = FrequencyGrid(0.0, 1.0, 7)
    spec = stage_source(variant, 0.5, 0.0)
    sd = schmidt_decompose(build_jsa(spec, grid))
    config = HhomConfig(spec, dataclasses.replace(spec, xi=0.0), grid, bs_angle=0.0)
    got = build_hhom(config)
    assert got.v.dtype == np.float64
    rows = subset_indices(got.layout, experiments.SOURCE_A_ARMS)
    np.testing.assert_allclose(got.v[np.ix_(rows, rows)] - np.eye(rows.size),
                               complex_stage_reference(sd), rtol=0, atol=1e-15)


# The fully distinguishable limit as a circuit: each idler is split on a
# balanced beam-splitter against a vacuum ancilla (modes 4 and 5), and the
# composite detectors (1, 5) and (2, 4) each see one half of both idlers.
ANCILLA_SPLITTERS = ((1, 4), (2, 5))
SIX_MODE_DETECTORS = (0, (1, 5), (2, 4), 3)


def six_mode_four_fold(config) -> float:
    lay = ModeLayout(6, config.grid.n_bins)
    state = sources_filter_and_loss(config, lay)
    for modes in ANCILLA_SPLITTERS:
        state = apply(state, beam_splitter(math.pi / 4, modes, lay))
    if config.detector == "pnr":
        return p_pnr(state, SIX_MODE_DETECTORS, (1, 1, 1, 1))
    return p_threshold(state, SIX_MODE_DETECTORS)


def distinct_source_configs(detector, xi):
    """Multi-bin, filtered and lossy, with two different sources."""
    waveguide = JsaSpec("waveguide", xi, 4.0, signal_center=0.0, idler_center=0.0,
                        walkoff=1.0)
    gaussian = JsaSpec("gaussian", xi, 4.0, signal_center=0.0, idler_center=0.5)
    yield dataclasses.replace(lossy_waveguide_config(detector), source_a=waveguide,
                              source_b=gaussian, filter_modes=(0, 1, 3))
    yield HhomConfig(gaussian, waveguide, FrequencyGrid(0.0, 0.8, 7),
                     delay=0.6, bs_angle=0.3, loss=(0.05, 0.25, 0.1, 0.2),
                     filter_center=0.2, filter_half_width=2.0, filter_modes=(2, 3),
                     detector=detector)


@pytest.mark.parametrize("xi", [0.03, 0.1, 0.3, 1.0])
@pytest.mark.parametrize("detector", DETECTORS)
def test_distinguishable_four_fold_matches_six_mode_circuit(detector, xi):
    for config in distinct_source_configs(detector, xi):
        got, want = distinguishable_four_fold(config), six_mode_four_fold(config)
        if detector == "pnr" or xi >= 0.3:
            assert got == pytest.approx(want, rel=1e-12, abs=0)
        else:
            # threshold sums of vacuum terms near 1 keep only absolute
            # accuracy at low power, on both sides of the comparison
            assert got == pytest.approx(want, rel=0, abs=1e-12)


def test_threshold_plateau_is_range_checked(monkeypatch):
    """A plateau pushed below zero raises instead of passing through."""
    vacuum_probabilities = experiments.vacuum_probabilities

    def shifted_vacuum(state, subsets):
        # enters the plateau as +0.01 at angle 0 and -0.02 after the idler loss
        table = vacuum_probabilities(state, subsets)
        table[(1, 2)] += 0.01
        return table

    monkeypatch.setattr(experiments, "vacuum_probabilities", shifted_vacuum)
    with pytest.raises(detection.UnphysicalStateError, match="p_threshold"):
        distinguishable_four_fold(lossy_waveguide_config("threshold"))


@pytest.mark.parametrize("detector", DETECTORS)
def test_distinguishable_four_fold_matches_fock_oracle(detector):
    """The plateau of a 1-bin circuit with idler loss against the six-mode
    ancilla circuit in the Fock basis.  Loss only on the idlers, which the
    identities split, keeps the oracle small: each lossy arm adds an
    occupied ancilla to the Fock state."""
    grid = FrequencyGrid(0.0, 0.125, 1)
    source_a = JsaSpec("gaussian", 0.3, 1.0, signal_center=0.0, idler_center=0.0)
    source_b = dataclasses.replace(source_a, xi=0.2)
    config = HhomConfig(source_a, source_b, grid, loss=(0.0, 0.2, 0.15, 0.0),
                        detector=detector)
    ops = [("squeeze", build_jsa(source_a, grid), 0, 1),
           ("squeeze", build_jsa(source_b, grid), 3, 2)]
    ops += [("loss", config.loss[mode], (mode,)) for mode in experiments.IDLER_MODES]
    ops += [("bs", math.pi / 4, modes) for modes in ANCILLA_SPLITTERS]
    fock = run_fock(ModeLayout(6, 1), grid, ops, cutoff=6)
    outcomes = (1, 1, 1, 1) if detector == "pnr" else ("on",) * 4
    want = fock_detection(fock, DetectionPattern(SIX_MODE_DETECTORS, outcomes))
    assert abs(distinguishable_four_fold(config) - want) < 1e-6


@pytest.mark.parametrize("axis, values", [("delay", [0.0, 0.4, 1.1]),
                                          (experiments.PROBE_AXIS, [0.0, 1.0]),
                                          ("bs_angle", [0.0, 0.3, math.pi / 4])])
def test_stage_axis_sweep_builds_one_stage(monkeypatch, axis, values):
    config = lossy_waveguide_config("threshold", delay=0.2)
    stages = count_stages(monkeypatch)
    text = sweep(config, axis, values).to_csv()
    assert len(stages) == 1
    # one-value sweeps build their own stage and give the same bytes
    singles = [sweep(config, axis, [v]).to_csv().splitlines(keepends=True)
               for v in values]
    assert len(stages) == 1 + len(values)
    assert text == singles[0][0] + "".join(lines[1] for lines in singles)


def test_xi_sweep_builds_one_stage_per_row(monkeypatch):
    stages = count_stages(monkeypatch)
    sweep(lossy_waveguide_config("threshold"), "xi", [0.1, 0.2, 0.3])
    assert [s.source_a.xi for s in stages] == [0.1, 0.2, 0.3]


def test_only_stage_axes_take_a_stage():
    config = lossy_waveguide_config("pnr")
    stage = experiments._sources_and_channels(config)
    with pytest.raises(ValueError, match="source stage"):
        sweep_row(config, "xi", 0.2, visibilities=False, stage=stage)
    shared = sweep_row(config, "delay", 0.5, False, stage=stage)
    assert shared == sweep_row(config, "delay", 0.5, False)
    # each row builds its own bases, so a shared stage changes no bit of a
    # row, neither at delay 0, where the arms span fewer modes than there
    # are bins, nor at a delay, where arms 1 and 2 together span every bin
    for detector in DETECTORS:
        config = filter_study_config(0.3, detector=detector,
                                     n_bins=experiments.FILTER_STUDY_MIN_BINS)
        stage = experiments._sources_and_channels(config)
        for delay in (0.0, 2e-12, -7e-12, 13e-12):
            state = experiments._RowPlan(config, stage).state(delay, 0.0)
            assert (state.layout.n_spectral < config.grid.n_bins) == (delay == 0.0)
            shared = sweep_row(config, "delay", delay, True, stage=stage)
            assert shared == sweep_row(config, "delay", delay, True)


@pytest.mark.parametrize("delay", [0.0, 13e-12])
def test_row_layout_does_not_depend_on_the_filter_width(delay):
    """The row layout follows the kept Schmidt count, not the passband, so a
    row costs the same at every filter width; unequal idler losses scale
    equal mode functions and share one basis."""
    config = filter_study_config(0.3, n_bins=experiments.FILTER_STUDY_MIN_BINS)
    kept = experiments._sources_and_channels(config).modes[0].shape[1]
    sizes = set()
    for half_width, loss_per_arm in itertools.product((0.8e11, 1.12e11, 2.5e11, 4e11),
                                                      ((0.0,) * 4, (0.1, 0.1, 0.2, 0.1))):
        narrowed = dataclasses.replace(config, filter_half_width=half_width, loss=loss_per_arm)
        sizes.add(experiments._RowPlan(narrowed).state(delay, 0.0).layout.n_spectral)
    expected = kept if delay == 0.0 else min(2 * kept, config.grid.n_bins)
    assert sizes == {expected}


def test_stage_logs_the_schmidt_cut(caplog):
    """Each distinct source logs its kept mode count and the weight the cut drops."""
    config = filter_study_config(0.3, n_bins=experiments.FILTER_STUDY_MIN_BINS)
    with caplog.at_level(logging.DEBUG, logger="gausshom.experiments"):
        stage = experiments._sources_and_channels(config)
    # identical sources share one decomposition, and log once
    (record,) = [r for r in caplog.records if r.name == "gausshom.experiments"]
    values = schmidt_decompose(build_jsa(config.source_a, config.grid)).values
    kept = int(np.count_nonzero(values > experiments.SCHMIDT_CUT * values[0]))
    assert 0 < kept < values.size
    assert [m.shape[1] for m in stage.modes] == [kept] * 4
    assert record.levelno == logging.DEBUG
    assert record.args[:2] == (kept, values.size)
    dropped = np.sum(values[kept:] ** 2) / config.source_a.xi ** 2
    assert 0 < record.args[2] == pytest.approx(dropped, rel=1e-9)


@pytest.mark.parametrize("bs_angle", [0.3, math.pi / 4])
def test_swapping_the_sources_mirrors_every_pattern(bs_angle):
    """Swapping two different sources, with their filter and loss, relabels
    the arms 0 <-> 3 and 1 <-> 2 and changes no probability."""
    waveguide = JsaSpec("waveguide", 0.3, 4.0, signal_center=0.0, idler_center=0.0,
                        walkoff=1.0)
    gaussian = JsaSpec("gaussian", 0.2, 4.0, signal_center=0.0, idler_center=0.0)
    config = HhomConfig(waveguide, gaussian, FrequencyGrid(0.0, 1.0, 7),
                        bs_angle=bs_angle, loss=(0.1, 0.2, 0.15, 0.05),
                        filter_center=0.0, filter_half_width=1.5, filter_modes=(0, 1))
    swapped = dataclasses.replace(config, source_a=gaussian, source_b=waveguide,
                                  loss=config.loss[::-1], filter_modes=(3, 2))
    state, mirror = build_hhom(config), build_hhom(swapped)

    patterns = list(itertools.product(range(3), repeat=4))
    expected = p_pnr(state, FOUR_ARMS, [p[::-1] for p in patterns])
    for pattern, got, want in zip(patterns, p_pnr(mirror, FOUR_ARMS, patterns), expected):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15), pattern
    # threshold sums cancel near 1, so they are compared to an absolute bound
    for on in itertools.chain.from_iterable(
            itertools.combinations(FOUR_ARMS, r) for r in range(5)):
        off = tuple(m for m in FOUR_ARMS if m not in on)
        want = p_threshold(state, [3 - m for m in on], [3 - m for m in off])
        assert p_threshold(mirror, on, off) == pytest.approx(want, abs=1e-12), on
