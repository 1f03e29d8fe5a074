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

from conftest import dense_apply, sigma_tilde, symplectic_from_hamiltonian


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
    for bad in ((0, 1), (1, 0), (4, 2.5), (True, 1)):
        with pytest.raises(ValueError, match="positive integers"):
            ModeLayout(*bad)
    assert ModeLayout(np.int64(4), 2).n_modes == 8


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
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            FrequencyGrid(0.0, value, 3)
        with pytest.raises(ValueError, match="center must be finite"):
            FrequencyGrid(value, 1.0, 3)
    for n_bins in (2.5, True):
        with pytest.raises(ValueError, match="integer number of frequency bins"):
            FrequencyGrid(0.0, 1.0, n_bins)
    assert FrequencyGrid(0.0, 1.0, np.int64(3)).frequencies().size == 3


def test_vacuum_state_is_identity():
    lay = ModeLayout(2, 3)
    v = vacuum_state(lay)
    np.testing.assert_array_equal(v.sigma, np.eye(12))
    assert np.max(np.abs(sigma_tilde(v))) == 0


def test_covariance_rejects_non_hermitian():
    lay = ModeLayout(1, 1)
    bad = np.eye(2, dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        CovarianceState.from_sigma(lay, bad)
    # V itself must be real symmetric; a complex matrix enters only by from_sigma
    with pytest.raises(ValueError, match="not symmetric"):
        CovarianceState(lay, np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(TypeError, match="from_sigma"):
        CovarianceState(lay, np.eye(2, dtype=complex))


def test_covariance_resymmetrizes_rounding():
    lay = ModeLayout(1, 1)
    s = np.eye(2, dtype=complex)
    s[0, 1] = 1e-13
    state = CovarianceState.from_sigma(lay, s)
    assert np.max(np.abs(state.sigma - state.sigma.conj().T)) == 0
    assert np.max(np.abs(state.v - state.v.T)) == 0


def test_transform_symplectic_validation():
    lay = ModeLayout(1, 1)
    with pytest.raises(ValueError, match="symplectic"):
        Transform("symplectic", 2 * np.eye(2), lay)


def test_transform_passive_rejects_expanding():
    lay = ModeLayout(1, 1)
    with pytest.raises(ValueError, match="contractive"):
        Transform("passive", 1.5 * np.eye(1), lay)
    # a passive block is checked by the spectral norm of its whole contraction
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
    f = np.array([[0.3]], dtype=complex)
    state = apply(vacuum_state(lay), squeezer(f, 0, 1, lay))
    rotated = apply(state, phase_shifter(1.234, 0, lay))
    for counts in ((0, 0), (1, 1), (2, 2)):
        assert p_pnr(state, (0, 1), counts) == pytest.approx(
            p_pnr(rotated, (0, 1), counts), abs=1e-14)


def _generic_state(layout, grid, rng):
    """Every spatial mode squeezed against a partner, then mixed."""
    state = vacuum_state(layout)
    n = layout.n_spatial
    for a in range(0, n - 1, 2):
        f = rng.normal(size=(grid.n_bins,) * 2) + 1j * rng.normal(size=(grid.n_bins,) * 2)
        j = 0.4 * f / np.linalg.norm(f)
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
    j = 0.5 * f / np.linalg.norm(f)
    a, b = (rng.normal(size=(lay.n_modes,) * 2) + 1j * rng.normal(size=(lay.n_modes,) * 2)
            for _ in range(2))
    # Hermitian with the conjugate block structure [[A, B], [B*, A*]]
    h = np.block([[a + a.conj().T, b + b.T], [(b + b.T).conj(), (a + a.conj().T).conj()]])
    # a contraction that mixes bins across two modes
    unitary, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
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
        Transform("passive", 0.8 * unitary, lay, (2, last)),
        # a whole-layout transform is a block on every mode
        symplectic_from_hamiltonian(0.05 * h, lay),
    ]
    for t in transforms:
        out = apply(state, t)
        np.testing.assert_allclose(out.sigma, dense_apply(state, t), rtol=0, atol=1e-12)
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


def test_unstructured_symplectic_block_rejected():
    """exp(-2iKH) of a Hermitian H without the [[A, B], [B*, A*]] form has no
    real (x, p) form, so it is refused instead of losing its imaginary part."""
    lay = ModeLayout(2, 1)
    h = np.zeros((4, 4), dtype=complex)
    h[0, 0] = 0.3    # a phase on a_0 with none on a_0^dag
    with pytest.raises(ValueError, match="conjugate block structure"):
        symplectic_from_hamiltonian(h, lay)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_non_finite_elements_and_states_rejected():
    lay = ModeLayout(2, 2)
    nan = float("nan")
    with pytest.raises(ValueError, match="non-finite"):
        beam_splitter(nan, (0, 1), lay)
    with pytest.raises(ValueError, match="non-finite"):
        phase_shifter(nan, 0, lay)
    with pytest.raises(ValueError, match="non-finite"):
        Transform("passive", np.diag([0.5, nan]), lay, (1,))
    with pytest.raises(ValueError, match="non-finite"):
        Transform("symplectic", np.diag([1.0, np.inf, 1.0, 1.0]), lay, (0,))
    for bad in (nan, np.inf):
        v = np.eye(8)
        v[2, 2] = bad
        with pytest.raises(ValueError, match="not symmetric"):
            CovarianceState(lay, v)
        with pytest.raises(ValueError, match="Hermitian"):
            CovarianceState.from_sigma(lay, v.astype(complex))


def test_stored_blocks_and_states_are_float64():
    """The circuit runs in real arithmetic: no element or state holds a complex matrix."""
    rng = np.random.default_rng(3)
    grid = FrequencyGrid(0.0, 1.0, 3)
    lay = ModeLayout(4, 3)
    f = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    jsa = 0.5 * f / np.linalg.norm(f)
    transforms = [squeezer(jsa, 0, 1, lay), squeezer(jsa, 3, 2, lay),
                  beam_splitter(0.4, (1, 2), lay), phase_shifter(0.7, 3, lay),
                  delay(1.3, 1, grid, lay), loss(0.2, [0, 2], lay),
                  bandpass_filter(0.0, 0.5, [3], grid, lay)]
    state = vacuum_state(lay)
    assert state.v.dtype == np.float64
    for t in transforms:
        assert t.block.dtype == np.float64
        state = apply(state, t)
        assert state.v.dtype == np.float64


def test_whole_block_checks_catch_a_defect_in_one_bin():
    """A block that never mixes bins is checked on the whole block at full
    strength, so a defect in one bin alone is caught."""
    lay = ModeLayout(2, 3)
    rot = np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]])
    for scale, ok in ((1.0, True), (1 + 1e-9, False)):
        alpha = np.kron(rot, np.diag([1.0, scale, 1.0]))
        block = np.block([[alpha, np.zeros((6, 6))], [np.zeros((6, 6)), alpha.conj()]])
        if ok:
            Transform("symplectic", block, lay)
        else:
            with pytest.raises(ValueError, match="not symplectic"):
                Transform("symplectic", block, lay)
    # a contraction that mixes modes: s_max is the spectral norm, the largest
    # per-bin one here, not the largest |entry|, which stays below 1
    for scale, ok in ((1.0, True), (1 + 1e-9, False)):
        u = np.kron(rot, np.diag([0.5, scale, 0.9]))
        assert np.max(np.abs(u)) < 1
        if ok:
            Transform("passive", u, lay)
        else:
            with pytest.raises(ValueError, match="not contractive"):
                Transform("passive", u, lay)
