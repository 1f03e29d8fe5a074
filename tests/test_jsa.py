"""JSA models, discretization, normalization, Schmidt decomposition."""

import math
import warnings

import numpy as np
import pytest

from gausshom.core import FrequencyGrid, ModeLayout
from gausshom.elements import squeezer
from gausshom.fock import fock_from_jsa
from gausshom.jsa import (
    PS,
    THZ,
    JsaSpec,
    SchmidtData,
    build_jsa,
    default_grid,
    schmidt_decompose,
)


def make_grid(spec, n_bins=33):
    return default_grid(spec, n_bins=n_bins)


def test_spec_validation():
    with pytest.raises(ValueError):
        JsaSpec("unknown", 0.1, 1.0)
    with pytest.raises(ValueError):
        JsaSpec("gaussian", -0.1, 1.0)
    with pytest.raises(ValueError):
        JsaSpec("gaussian", 0.1, 0.0)
    with pytest.raises(ValueError):
        JsaSpec("waveguide", 0.1, 1.0)  # missing walk-off
    with pytest.raises(ValueError):
        JsaSpec("double_lobe", 0.1, 1.0)  # missing separation
    with pytest.raises(ValueError):
        JsaSpec("double_lobe", 0.1, 1.0, lobe_separation=2.0, relative_sign=2)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="squeezing parameter .* finite"):
            JsaSpec("gaussian", value, 1.0)
        with pytest.raises(ValueError, match="bandwidth .* finite"):
            JsaSpec("gaussian", 0.1, value)
        for center in ("signal_center", "idler_center"):
            with pytest.raises(ValueError, match="centers must be finite"):
                JsaSpec("gaussian", 0.1, 1.0, **{center: value})
        with pytest.raises(ValueError, match="walk-off"):
            JsaSpec("waveguide", 0.1, 1.0, walkoff=value)
        with pytest.raises(ValueError, match="lobe separation"):
            JsaSpec("double_lobe", 0.1, 1.0, lobe_separation=value)


def test_gaussian_is_rank_one():
    spec = JsaSpec("gaussian", 0.5, 0.1 * THZ)
    j = build_jsa(spec, make_grid(spec))
    sd = schmidt_decompose(j)
    assert sd.values[0] == pytest.approx(0.5, abs=1e-12)
    assert sd.values[1] < 1e-8


def test_frobenius_norm_equals_xi():
    import warnings
    for spec, n_bins in ((JsaSpec("gaussian", 0.37, 0.1 * THZ), 33),
                         (JsaSpec("waveguide", 0.37, 1e11, walkoff=29 * PS), 81),
                         (JsaSpec("double_lobe", 0.37, 1.884e11,
                                  lobe_separation=6.5e11), 65)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            j = build_jsa(spec, make_grid(spec, n_bins=n_bins))
        assert np.linalg.norm(j) == pytest.approx(0.37, abs=1e-12)


def test_waveguide_is_spectrally_impure():
    spec = JsaSpec("waveguide", 0.2, 1e11, walkoff=29 * PS)
    grid = FrequencyGrid(spec.signal_center, 8e11 / 40, 41)
    j = build_jsa(spec, grid)
    sd = schmidt_decompose(j)
    weights = sd.values ** 2 / np.sum(sd.values ** 2)
    assert np.sum(weights ** 2) < 0.999


def test_double_lobe_signs_have_equal_spectra():
    center = JsaSpec("gaussian", 1.0, 1.0).signal_center
    grid = FrequencyGrid(center, 4.4e10, 51)
    svs = []
    for sign in (+1, -1):
        spec = JsaSpec("double_lobe", 0.4, 1.884e11,
                       lobe_separation=6.5e11, relative_sign=sign)
        j = build_jsa(spec, grid)
        svs.append(schmidt_decompose(j).values)
    np.testing.assert_allclose(svs[0], svs[1], atol=1e-10)
    # rank 1 either way: the heralded photon is a pure two-color state
    assert svs[0][0] == pytest.approx(0.4, abs=1e-12)
    assert svs[0][1] < 1e-10


def test_grid_too_coarse_rejected():
    spec = JsaSpec("gaussian", 0.1, 1.0, signal_center=0.0, idler_center=0.0)
    with pytest.raises(ValueError, match="too coarse"):
        build_jsa(spec, FrequencyGrid(0.0, 1.0, 5))


def test_coverage_warning():
    spec = JsaSpec("gaussian", 0.1, 1.0, signal_center=0.0, idler_center=0.0)
    with pytest.warns(UserWarning, match="does not cover"):
        build_jsa(spec, FrequencyGrid(0.0, 0.25, 5))


def test_schmidt_reconstruction():
    spec = JsaSpec("waveguide", 0.3, 1e11, walkoff=29 * PS)
    grid = FrequencyGrid(spec.signal_center, 8e11 / 40, 41)
    j = build_jsa(spec, grid)
    sd = schmidt_decompose(j)
    reconstructed = (sd.u * sd.values) @ sd.vh
    assert np.linalg.norm(reconstructed - j) < 1e-10 * np.linalg.norm(j)
    assert np.all(np.diff(sd.values) <= 0)


def test_schmidt_decompose_rejects_non_finite():
    f = np.array([[np.nan, 0], [0, 0]], dtype=complex)
    with pytest.raises(ValueError, match="finite"):
        schmidt_decompose(f)


@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (2, 3), (3,)])
def test_jsa_shape_must_match_the_layout(shape):
    layout = ModeLayout(2, 3)
    f = np.full(shape, 0.1, dtype=complex)
    with pytest.raises(ValueError, match="spectral bin count"):
        squeezer(f, 0, 1, layout)
    with pytest.raises(ValueError, match="spectral bin count"):
        fock_from_jsa(f, 0, 1, layout)


def test_default_grid_resolves_bandwidth():
    spec = JsaSpec("gaussian", 0.1, 0.1 * THZ)
    grid = default_grid(spec, n_bins=33)
    assert grid.step <= spec.zeta / 4
    assert grid.center == spec.signal_center


def test_default_grid_step_fits_waveguide_bandwidth():
    """The sinc-widened waveguide span is capped by the zeta/4 step limit."""
    spec = JsaSpec("waveguide", 0.3, 1e11, walkoff=29 * PS)
    grid = default_grid(spec)
    assert grid.step == spec.zeta / 4
    j = build_jsa(spec, grid)
    assert j.shape == (41, 41)
    # a grid that was already fine enough is unchanged
    fine = default_grid(spec, n_bins=101)
    assert fine.step == 2 * 4.0 * (2 * np.pi / spec.walkoff) / 100


def test_default_grid_warns_when_the_step_cap_narrows_the_span():
    spec = JsaSpec("waveguide", 0.3, 1e11, walkoff=29 * PS)
    with pytest.warns(UserWarning, match="default grid narrowed.*71 bins would cover"):
        grid = default_grid(spec, n_bins=41)
    assert grid == FrequencyGrid(spec.signal_center, spec.zeta / 4, 41)
    # grids the cap leaves alone raise no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        default_grid(spec, n_bins=71)
        default_grid(JsaSpec("gaussian", 0.1, 0.1 * THZ), n_bins=33)
