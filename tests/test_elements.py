"""Optical elements: closed forms, symplectic residuals, physical identities."""

import numpy as np
import pytest

from gausshom.core import (
    FrequencyGrid,
    ModeLayout,
    apply,
    vacuum_state,
)
from gausshom.detection import p_pnr, pnr_distribution
from gausshom.elements import (
    bandpass_filter,
    beam_splitter,
    delay,
    loss,
    phase_shifter,
    squeezer,
)
from gausshom.jsa import JsaMatrix

from conftest import random_jsa, symplectic_from_hamiltonian


def grid_of(n_bins):
    return FrequencyGrid(0.0, 1.0, n_bins)


def symplectic_residual(t):
    k = t.layout.metric()
    m = t.matrix
    return float(np.max(np.abs(m @ k @ m.conj().T - k)))


@pytest.mark.parametrize("n_f", [1, 2, 3])
def test_squeezer_symplectic_residual(rng, n_f):
    lay = ModeLayout(2, n_f)
    f = random_jsa(rng, n_f, 0.6)
    t = squeezer(JsaMatrix(f, grid_of(n_f), grid_of(n_f)), 0, 1, lay)
    assert symplectic_residual(t) < 1e-12


def test_squeezer_matches_matrix_exponential(rng):
    """Closed form equals exp(-2iKH) for the pair-generation Hamiltonian."""
    n_f = 3
    lay = ModeLayout(2, n_f)
    f = random_jsa(rng, n_f, 0.45)
    closed = squeezer(JsaMatrix(f, grid_of(n_f), grid_of(n_f)), 0, 1, lay)

    n = lay.n_modes
    curly = np.zeros((n, n), dtype=complex)  # coupling on annihilation block
    curly[:n_f, n_f:] = f
    curly[n_f:, :n_f] = f.T
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    h[:n, n:] = curly / 2
    h[n:, :n] = curly.conj() / 2
    expm_form = symplectic_from_hamiltonian(h, lay)
    np.testing.assert_allclose(closed.matrix, expm_form.matrix, atol=1e-12)


def test_squeezer_single_mode_photon_statistics():
    """One 1x1 squeezer gives the two-mode-squeezed thermal marginal."""
    lam = 0.4
    lay = ModeLayout(2, 1)
    j = JsaMatrix(np.array([[lam]], dtype=complex), grid_of(1), grid_of(1))
    state = apply(vacuum_state(lay), squeezer(j, 0, 1, lay))
    nbar = np.sinh(lam) ** 2
    probs = pnr_distribution(state, 0, 4)
    expected = nbar ** np.arange(5) / (1 + nbar) ** (np.arange(5) + 1)
    np.testing.assert_allclose(probs, expected, atol=1e-12)
    # photon numbers in the two arms are perfectly correlated
    assert p_pnr(state, (0, 1), (1, 2)) == pytest.approx(0.0, abs=1e-12)
    assert p_pnr(state, (0, 1), (2, 2)) == pytest.approx(
        np.tanh(lam) ** 4 / np.cosh(lam) ** 2, abs=1e-12)


def test_squeezer_rejects_same_mode():
    lay = ModeLayout(2, 1)
    j = JsaMatrix(np.array([[0.1]], dtype=complex), grid_of(1), grid_of(1))
    with pytest.raises(ValueError):
        squeezer(j, 1, 1, lay)


def test_beam_splitter_half_reflectivity_hom():
    """Two indistinguishable single photons never split at a balanced splitter."""
    lam = 0.2
    lay = ModeLayout(4, 1)
    j = JsaMatrix(np.array([[lam]], dtype=complex), grid_of(1), grid_of(1))
    state = vacuum_state(lay)
    state = apply(state, squeezer(j, 0, 1, lay))
    state = apply(state, squeezer(j, 3, 2, lay))
    state = apply(state, beam_splitter(np.pi / 4, (1, 2), lay))
    assert p_pnr(state, (0, 1, 2, 3), (1, 1, 1, 1)) == pytest.approx(0.0, abs=1e-12)


def test_beam_splitter_angle_composition():
    lay = ModeLayout(2, 2)
    a = beam_splitter(0.3, (0, 1), lay).matrix
    b = beam_splitter(0.5, (0, 1), lay).matrix
    c = beam_splitter(0.8, (0, 1), lay).matrix
    np.testing.assert_allclose(b @ a, c, atol=1e-13)


def test_phase_shifter_composition_and_period():
    lay = ModeLayout(1, 2)
    a = phase_shifter(1.1, 0, lay).matrix
    b = phase_shifter(2 * np.pi - 1.1, 0, lay).matrix
    np.testing.assert_allclose(b @ a, np.eye(4), atol=1e-13)


def test_delay_is_diagonal_spectral_phase():
    grid = FrequencyGrid(5.0, 2.0, 3)
    lay = ModeLayout(1, 3)
    t = delay(0.7, 0, grid, lay)
    alpha = t.matrix[:3, :3]
    np.testing.assert_allclose(alpha, np.diag(np.exp(1j * grid.offsets() * 0.7)),
                               atol=1e-14)


def test_delay_validation():
    grid = grid_of(2)
    lay = ModeLayout(1, 3)
    with pytest.raises(ValueError):
        delay(0.1, 0, grid, lay)  # bin count mismatch
    with pytest.raises(ValueError):
        delay(np.inf, 0, grid_of(3), lay)


def test_loss_transmission_scaling():
    lam, eps = 0.3, 0.4
    lay = ModeLayout(2, 1)
    j = JsaMatrix(np.array([[lam]], dtype=complex), grid_of(1), grid_of(1))
    state = apply(vacuum_state(lay), squeezer(j, 0, 1, lay))
    lossy = apply(state, loss(eps, [1], lay))
    # mean photon number in the lossy arm scales by (1 - eps)
    nbar = np.sinh(lam) ** 2
    probs = pnr_distribution(lossy, 1, 10)
    assert probs @ np.arange(11) == pytest.approx((1 - eps) * nbar, abs=1e-10)


def test_loss_extremes():
    lay = ModeLayout(1, 2)
    assert np.allclose(loss(0.0, [0], lay).matrix, np.eye(2))
    assert np.allclose(loss(1.0, [0], lay).matrix, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        loss(1.5, [0], lay)


def test_bandpass_filter_passband_selection():
    grid = FrequencyGrid(0.0, 1.0, 5)  # bins at -2..2
    lay = ModeLayout(1, 5)
    t = bandpass_filter(0.0, 1.0, [0], grid, lay)
    np.testing.assert_allclose(np.diag(t.matrix), [0, 1, 1, 1, 0])
    with pytest.raises(ValueError, match="passband"):
        bandpass_filter(10.0, 0.5, [0], grid, lay)
    for half_width in (-1.0, np.nan):
        with pytest.raises(ValueError, match="half-width must be positive"):
            bandpass_filter(0.0, half_width, [0], grid, lay)
    with pytest.raises(ValueError, match="center must be finite"):
        bandpass_filter(np.nan, 1.0, [0], grid, lay)


def test_bandpass_filter_only_touches_named_modes():
    grid = grid_of(3)
    lay = ModeLayout(2, 3)
    t = bandpass_filter(1.0, 0.5, [1], grid, lay)
    np.testing.assert_allclose(t.matrix[:3, :3], np.eye(3))


@pytest.mark.parametrize("make", [
    lambda lay: beam_splitter(0.77, (0, 1), lay),
    lambda lay: phase_shifter(0.3, 0, lay),
    lambda lay: delay(1.3, 1, grid_of(2), lay),
])
def test_passive_unitaries_preserve_vacuum(make):
    lay = ModeLayout(2, 2)
    t = make(lay)
    assert symplectic_residual(t) < 1e-12
    out = apply(vacuum_state(lay), t)
    np.testing.assert_allclose(out.sigma, np.eye(8), atol=1e-13)
