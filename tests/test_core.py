"""Mode bookkeeping, covariance states, and transform application."""

import numpy as np
import pytest

from gausshom.core import (
    CovarianceState,
    FrequencyGrid,
    ModeLayout,
    Transform,
    apply,
    subset_indices,
    vacuum_state,
)
from gausshom.elements import (
    bandpass_filter,
    beam_splitter,
    delay,
    loss,
    phase_shifter,
    squeezer,
)
from gausshom.jsa import JsaMatrix

from conftest import symplectic_from_hamiltonian


def test_layout_indexing():
    lay = ModeLayout(3, 4)
    assert lay.n_modes == 12
    assert lay.index(0, 0) == 0
    assert lay.index(1, 2) == 6
    assert lay.index(1, 2, dagger=True) == 18
    assert list(lay.spatial_block(2)) == [8, 9, 10, 11]
    with pytest.raises(IndexError):
        lay.index(3, 0)
    with pytest.raises(IndexError):
        lay.index(0, 4)


def test_layout_validation():
    with pytest.raises(ValueError):
        ModeLayout(0, 1)
    with pytest.raises(ValueError):
        ModeLayout(1, 0)


def test_metric_structure():
    lay = ModeLayout(2, 1)
    k = lay.metric()
    assert np.array_equal(np.diag(k), [1, 1, -1, -1])


def test_frequency_grid_bins():
    grid = FrequencyGrid(100.0, 2.0, 5)
    assert grid.bin_frequency(2) == 100.0
    np.testing.assert_allclose(grid.frequencies(), [96, 98, 100, 102, 104])
    np.testing.assert_allclose(grid.offsets(), [-4, -2, 0, 2, 4])


def test_frequency_grid_validation():
    with pytest.raises(ValueError):
        FrequencyGrid(0.0, 0.0, 3)
    with pytest.raises(ValueError):
        FrequencyGrid(0.0, 1.0, 0)


def test_vacuum_state_is_identity():
    lay = ModeLayout(2, 3)
    v = vacuum_state(lay)
    np.testing.assert_array_equal(v.sigma, np.eye(12))
    assert np.max(np.abs(v.sigma_tilde)) == 0


def test_covariance_rejects_non_hermitian():
    lay = ModeLayout(1, 1)
    bad = np.eye(2, dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        CovarianceState(lay, bad)


def test_covariance_resymmetrizes_rounding():
    lay = ModeLayout(1, 1)
    s = np.eye(2, dtype=complex)
    s[0, 1] = 1e-13
    state = CovarianceState(lay, s)
    assert np.max(np.abs(state.sigma - state.sigma.conj().T)) == 0


def test_transform_symplectic_validation():
    lay = ModeLayout(1, 1)
    with pytest.raises(ValueError, match="symplectic"):
        Transform("symplectic", 2 * np.eye(2), lay)


def test_transform_passive_rejects_expanding():
    lay = ModeLayout(1, 1)
    with pytest.raises(ValueError, match="contractive"):
        Transform("passive", 1.5 * np.eye(1), lay)
    # diagonal blocks are checked by their largest |entry|, others by s_max
    lay2 = ModeLayout(1, 2)
    Transform("passive", np.diag([np.exp(0.3j), 0.5]), lay2)
    with pytest.raises(ValueError, match="contractive"):
        Transform("passive", np.diag([0.5, (1 + 1e-9) * np.exp(2j)]), lay2)
    with pytest.raises(ValueError, match="contractive"):
        Transform("passive", np.array([[0.9, 0.5], [0.0, 0.9]]), lay2)


def test_apply_dispatch_and_kind_check():
    lay = ModeLayout(1, 1)
    state = vacuum_state(lay)
    sympl = Transform("symplectic", np.eye(2), lay)
    assert np.allclose(apply(state, sympl).sigma, state.sigma)


def test_passive_channel_on_vacuum_is_identity():
    lay = ModeLayout(2, 2)
    state = vacuum_state(lay)
    out = apply(state, loss(0.7, [0, 1], lay))
    np.testing.assert_allclose(out.sigma, np.eye(8), atol=1e-14)


def test_subset_indices_order():
    lay = ModeLayout(3, 2)
    idx = subset_indices(lay, [2, 0])
    assert list(idx) == [4, 5, 0, 1, 10, 11, 6, 7]
    with pytest.raises(ValueError):
        subset_indices(lay, [])
    with pytest.raises(ValueError):
        subset_indices(lay, [1, 1])


def test_embed_permutation_consistency():
    """Embedding an element on (1, 0) equals conjugation by the mode swap."""
    lay = ModeLayout(2, 1)
    theta = 0.3
    direct = beam_splitter(theta, (1, 0), lay).matrix
    np.testing.assert_allclose(direct, beam_splitter(-theta, (0, 1), lay).matrix,
                               atol=1e-14)


def test_symplectic_from_hamiltonian_matches_beamsplitter():
    lay = ModeLayout(2, 1)
    theta = 0.41
    # quadratic Hamiltonian generating the beam-splitter rotation
    h = np.zeros((4, 4), dtype=complex)
    h[0, 1] = -1j * theta / 2
    h[1, 0] = 1j * theta / 2
    # creation block carries the transpose (= conjugate) of the upper block
    h[2, 3] = h[0, 1].conjugate()
    h[3, 2] = h[1, 0].conjugate()
    m = symplectic_from_hamiltonian(h, lay).matrix
    np.testing.assert_allclose(m, beam_splitter(theta, (0, 1), lay).matrix,
                               atol=1e-12)


def test_symplectic_from_hamiltonian_rejects_non_hermitian():
    lay = ModeLayout(1, 1)
    h = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        symplectic_from_hamiltonian(h, lay)


def test_phase_shifter_leaves_probabilities_invariant():
    """Global phase on a detected mode cannot change photon statistics."""
    from gausshom.detection import p_pnr
    lay = ModeLayout(2, 1)
    grid = FrequencyGrid(0.0, 1.0, 1)
    f = np.array([[0.3]], dtype=complex)
    state = apply(vacuum_state(lay), squeezer(JsaMatrix(f, grid, grid), 0, 1, lay))
    rotated = apply(state, phase_shifter(1.234, 0, lay))
    for counts in ((0, 0), (1, 1), (2, 2)):
        assert p_pnr(state, (0, 1), counts) == pytest.approx(
            p_pnr(rotated, (0, 1), counts), abs=1e-14)


def _dense_apply(state, t):
    """Reference: the full-layout matrix applied as a dense product."""
    m = t.matrix
    if t.kind == "symplectic":
        return m @ state.sigma @ m.conj().T
    u = np.block([[m, np.zeros_like(m)], [np.zeros_like(m), m.conj()]])
    return u @ state.sigma_tilde @ u.conj().T + np.eye(state.sigma.shape[0])


def _generic_state(layout, grid, rng):
    """Every spatial mode squeezed against a partner, then mixed."""
    state = vacuum_state(layout)
    n = layout.n_spatial
    for a in range(0, n - 1, 2):
        f = rng.normal(size=(grid.n_bins,) * 2) + 1j * rng.normal(size=(grid.n_bins,) * 2)
        j = JsaMatrix(0.4 * f / np.linalg.norm(f), grid, grid)
        state = apply(state, squeezer(j, a, a + 1, layout))
    for a in range(n - 1):
        state = apply(state, beam_splitter(0.3 + 0.1 * a, (a, a + 1), layout))
    return state


@pytest.mark.parametrize("n_spatial", [4, 6])
def test_blockwise_apply_matches_dense_product(n_spatial):
    rng = np.random.default_rng(7)
    grid = FrequencyGrid(0.0, 1.0, 3)
    lay = ModeLayout(n_spatial, 3)
    state = _generic_state(lay, grid, rng)
    f = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    j = JsaMatrix(0.5 * f / np.linalg.norm(f), grid, grid)
    h = rng.normal(size=(2 * lay.n_modes,) * 2) + 1j * rng.normal(size=(2 * lay.n_modes,) * 2)
    last = n_spatial - 1
    transforms = [
        squeezer(j, 1, 0, lay),
        squeezer(j, 3, 1, lay),
        squeezer(j, last, 2, lay),
        beam_splitter(0.7, (1, 0), lay),
        beam_splitter(-0.4, (3, 1), lay),
        phase_shifter(1.1, 2, lay),
        delay(0.8, last, grid, lay),
        loss(0.35, [3, 1], lay),
        loss(0.2, [0], lay),
        bandpass_filter(0.0, 0.5, [2, 0], grid, lay),
        # a whole-layout transform is a block on every mode
        symplectic_from_hamiltonian(0.05 * (h + h.conj().T), lay),
    ]
    for t in transforms:
        out = apply(state, t)
        np.testing.assert_allclose(out.sigma, _dense_apply(state, t), rtol=0, atol=1e-12)
        state = out


def test_block_checks_run_at_full_strength_on_a_subset_of_modes():
    lay = ModeLayout(4, 2)
    good = np.eye(8)
    assert apply(vacuum_state(lay), Transform("symplectic", good, lay, (3, 1))).layout == lay
    with pytest.raises(ValueError, match="not symplectic"):
        Transform("symplectic", (1 + 1e-9) * good, lay, (3, 1))
    with pytest.raises(ValueError, match="not contractive"):
        Transform("passive", (1 + 1e-9) * np.eye(4), lay, (0, 2))
    with pytest.raises(ValueError, match="must be 8x8"):
        Transform("symplectic", np.eye(4), lay, (0, 2))
    with pytest.raises(ValueError, match="duplicates"):
        Transform("passive", np.eye(4), lay, (1, 1))
    with pytest.raises(IndexError):
        Transform("passive", np.eye(4), lay, (1, 4))
