"""Heralded-HOM circuit assembly, figures of merit, and sweeps."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from gausshom import detection, experiments
from gausshom.core import FrequencyGrid
from gausshom.detection import p_pnr, p_threshold
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
from gausshom.jsa import JsaSpec


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
    built, vacuum_calls, pnr_calls = [], [], []
    stage = experiments._sources_and_channels
    hhom = experiments.build_hhom
    p_vacuum = experiments.p_vacuum
    p_pnr = experiments.p_pnr

    def counting_stage(config, n_spatial):
        built.append(n_spatial)
        return stage(config, n_spatial)

    def counting_hhom(config):
        built.append("hhom")
        return hhom(config)

    def counting_vacuum(state, modes):
        vacuum_calls.append((id(state), tuple(modes)))
        return p_vacuum(state, modes)

    def counting_pnr(state, modes, counts):
        pnr_calls.append((id(state), repr(modes)))
        return p_pnr(state, modes, counts)

    monkeypatch.setattr(experiments, "_sources_and_channels", counting_stage)
    monkeypatch.setattr(experiments, "build_hhom", counting_hhom)
    monkeypatch.setattr(experiments, "p_vacuum", counting_vacuum)
    monkeypatch.setattr(detection, "p_vacuum", counting_vacuum)
    monkeypatch.setattr(experiments, "p_pnr", counting_pnr)
    sweep_row(lossy_waveguide_config(detector), "xi", 0.3, visibilities=True)

    # bs = pi/4 and bs = 0 at delay 0, plus the six-mode distinguishable limit
    assert sorted(built, key=str) == [4, 4, 6, "hhom", "hhom"]
    if detector == "threshold":
        # the 16 subsets of 4 detectors on each of 3 states
        assert len(vacuum_calls) == len(set(vacuum_calls)) == 48
    else:
        # one expansion per (state, detector set)
        assert len(pnr_calls) == len(set(pnr_calls)) == 4


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
