"""Vacuum-projection, threshold and number-resolving probabilities."""

import numpy as np
import pytest

from gausshom.core import FrequencyGrid, ModeLayout, apply, vacuum_state
from gausshom.detection import (
    DetectionPattern,
    UnphysicalStateError,
    _clamp,
    p_pnr,
    p_threshold,
    p_vacuum,
    pnr_distribution,
    probability,
    series_inv_sqrt_det,
)
from gausshom.elements import beam_splitter, loss, squeezer
from gausshom.jsa import JsaMatrix

from conftest import random_jsa


def grid_of(n_bins):
    return FrequencyGrid(0.0, 1.0, n_bins)


def tms_state(lam, lay=None):
    lay = lay or ModeLayout(2, 1)
    j = JsaMatrix(np.array([[lam]], dtype=complex), grid_of(1), grid_of(1))
    return apply(vacuum_state(lay), squeezer(j, 0, 1, lay))


def test_vacuum_probability_of_vacuum():
    lay = ModeLayout(3, 2)
    assert p_vacuum(vacuum_state(lay), [0, 1, 2]) == 1.0
    assert p_vacuum(vacuum_state(lay), []) == 1.0


def test_vacuum_probability_two_mode_squeezed():
    lam = 0.5
    state = tms_state(lam)
    # P(vac) on both arms is 1/cosh^2; on one arm it is the thermal value
    assert p_vacuum(state, [0, 1]) == pytest.approx(1 / np.cosh(lam) ** 2, abs=1e-12)
    nbar = np.sinh(lam) ** 2
    assert p_vacuum(state, [0]) == pytest.approx(1 / (1 + nbar), abs=1e-12)


def test_threshold_two_mode_squeezed_closed_form():
    lam = 0.6
    state = tms_state(lam)
    p00 = 1 / np.cosh(lam) ** 2
    p0 = 1 / (1 + np.sinh(lam) ** 2)
    # click-click = 1 - 2 P(one arm dark) + P(both dark)
    expected = 1 - 2 * p0 + p00
    assert p_threshold(state, (0, 1)) == pytest.approx(expected, abs=1e-12)
    # click on 0 with 1 dark: perfect correlations make this the tail
    # difference P(0 dark) - P(both dark)
    assert p_threshold(state, (0,), (1,)) == pytest.approx(p0 - p00, abs=1e-12)


def test_threshold_sums_to_one():
    lam = 0.45
    state = tms_state(lam)
    total = (p_threshold(state, (0, 1))
             + p_threshold(state, (0,), (1,))
             + p_threshold(state, (1,), (0,))
             + p_vacuum(state, [0, 1]))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_threshold_overlap_rejected():
    state = tms_state(0.1)
    with pytest.raises(ValueError):
        p_threshold(state, (0,), (0,))


def test_threshold_mode_count_limit():
    lay = ModeLayout(17, 1)
    with pytest.raises(ValueError, match="inclusion-exclusion"):
        p_threshold(vacuum_state(lay), tuple(range(17)))


def test_pnr_two_mode_squeezed_closed_form():
    lam = 0.55
    state = tms_state(lam)
    t, c = np.tanh(lam), np.cosh(lam)
    for n in range(4):
        assert p_pnr(state, (0, 1), (n, n)) == pytest.approx(
            t ** (2 * n) / c ** 2, abs=1e-11)
    assert p_pnr(state, (0, 1), (0, 2)) == pytest.approx(0.0, abs=1e-11)


def test_pnr_distribution_matches_individual_terms():
    lam = 0.5
    state = tms_state(lam)
    dist = pnr_distribution(state, 1, 5)
    for n, p in enumerate(dist):
        assert p == pytest.approx(p_pnr(state, (1,), (n,)), abs=1e-11)
    # the sum misses exactly the thermal tail beyond n_max
    nbar = np.sinh(lam) ** 2
    tail = (nbar / (1 + nbar)) ** 6
    assert dist.sum() == pytest.approx(1.0 - tail, abs=1e-10)


def test_pnr_cutoff_guard():
    state = tms_state(0.1)
    with pytest.raises(ValueError, match="cutoff"):
        p_pnr(state, (0, 1), (7, 6))
    with pytest.raises(ValueError):
        p_pnr(state, (0, 1), (-1, 0))
    with pytest.raises(ValueError):
        p_pnr(state, (0, 1), (1,))


def test_pnr_pattern_list_shares_one_expansion(rng):
    """Several patterns on one detector set equal their separate expansions."""
    n_f = 2
    lay = ModeLayout(4, n_f)
    state = vacuum_state(lay)
    for sig, idl in ((0, 1), (3, 2)):
        j = JsaMatrix(random_jsa(rng, n_f, 0.5), grid_of(n_f), grid_of(n_f))
        state = apply(state, squeezer(j, sig, idl, lay))
    state = apply(state, beam_splitter(0.6, (1, 2), lay))
    state = apply(state, loss(0.2, [2], lay))
    patterns = [(1, 1, 1, 1), (1, 0, 2, 1), (1, 2, 0, 1), (0, 3, 0, 0)]
    together = p_pnr(state, (0, 1, 2, 3), patterns)
    assert isinstance(together, list) and len(together) == len(patterns)
    for pattern, p in zip(patterns, together):
        assert p == pytest.approx(p_pnr(state, (0, 1, 2, 3), pattern), rel=1e-12)
    with pytest.raises(ValueError, match="one count per detector"):
        p_pnr(state, (0, 1, 2, 3), [(1, 1, 1, 1), (1, 1)])


def test_pnr_multimode_marginalizes_spectral_bins(rng):
    """A detector sums over its spectral bins: rotating them is invisible."""
    n_f = 2
    lay = ModeLayout(2, n_f)
    f = random_jsa(rng, n_f, 0.4)
    j = JsaMatrix(f, grid_of(n_f), grid_of(n_f))
    state = apply(vacuum_state(lay), squeezer(j, 0, 1, lay))
    probs = [p_pnr(state, (0, 1), (n, n)) for n in range(3)]
    # same state with the signal's spectral bins mixed by a phase rotation
    from gausshom.elements import delay as delay_element
    rotated = apply(state, delay_element(0.9, 0, grid_of(n_f), lay))
    for n, p in enumerate(probs):
        assert p_pnr(rotated, (0, 1), (n, n)) == pytest.approx(p, abs=1e-12)


def test_grouped_detector_equals_merged_mode():
    """One detector over two spatial modes equals physically merging them.

    Splitting a mode on a balanced beam-splitter and detecting both outputs
    with one composite detector must reproduce detecting the input mode.
    """
    lam = 0.5
    lay3 = ModeLayout(3, 1)
    state = tms_state(lam, lay3)
    split = apply(state, beam_splitter(np.pi / 4, (1, 2), lay3))
    for n in range(4):
        merged = p_pnr(split, (0, (1, 2)), (n, n))
        direct = p_pnr(state, (0, 1), (n, n))
        assert merged == pytest.approx(direct, abs=1e-11)
    on_split = p_threshold(split, (0, (1, 2)))
    assert on_split == pytest.approx(p_threshold(state, (0, 1)), abs=1e-12)


def test_grouped_detector_duplicate_mode_rejected():
    state = tms_state(0.2, ModeLayout(3, 1))
    with pytest.raises(ValueError, match="distinct"):
        p_pnr(state, ((0, 1), 1), (1, 1))


def test_detection_pattern_validation():
    with pytest.raises(ValueError):
        DetectionPattern((0, 1), (1,))
    with pytest.raises(ValueError):
        DetectionPattern((0,), ("maybe",))
    with pytest.raises(ValueError):
        DetectionPattern((0,), (-1,))
    assert DetectionPattern((0, (1, 2)), (1, 2)).is_pnr
    assert not DetectionPattern((0,), ("on",)).is_pnr


def test_probability_dispatch():
    lam = 0.4
    state = tms_state(lam)
    pnr = DetectionPattern((0, 1), (1, 1))
    thr = DetectionPattern((0, 1), ("on", "off"))
    assert probability(state, pnr) == pytest.approx(p_pnr(state, (0, 1), (1, 1)))
    assert probability(state, thr) == pytest.approx(p_threshold(state, (0,), (1,)))


def test_exhaustive_pnr_sums_to_one(rng):
    n_f = 2
    lay = ModeLayout(2, n_f)
    f = random_jsa(rng, n_f, 0.3)
    j = JsaMatrix(f, grid_of(n_f), grid_of(n_f))
    state = apply(vacuum_state(lay), squeezer(j, 0, 1, lay))
    state = apply(state, loss(0.2, [1], lay))
    total = sum(p_pnr(state, (0, 1), (a, b))
                for a in range(7) for b in range(7))
    assert total == pytest.approx(1.0, abs=1e-8)


def test_unphysical_state_detected():
    lay = ModeLayout(1, 1)
    from gausshom.core import CovarianceState
    bad = CovarianceState(lay, np.diag([-3.0, 1.0]))
    with pytest.raises(UnphysicalStateError):
        p_vacuum(bad, [0])


def test_pnr_unphysical_state_detected():
    """A non-positive det(1 + sigma_tilde / 2) is rejected, not expanded."""
    lay = ModeLayout(1, 1)
    from gausshom.core import CovarianceState
    bad = CovarianceState(lay, np.diag([-3.0, 1.0]))
    with pytest.raises(UnphysicalStateError, match="not positive"):
        p_pnr(bad, (0,), (1,))


def test_state_without_conjugate_structure_rejected():
    """A Hermitian sigma not of the form [[A, B], [B*, A*]] is not detected.

    diag(2, 1) on one mode is Hermitian and positive, but its annihilation
    and creation blocks are not conjugates, so Q sigma Q^dag is not real.
    """
    from gausshom.core import CovarianceState
    bad = CovarianceState(ModeLayout(1, 1), np.diag([2.0, 1.0]))
    for detect in (lambda: p_vacuum(bad, [0]),
                   lambda: p_pnr(bad, (0,), (1,)),
                   lambda: pnr_distribution(bad, 0, 3)):
        with pytest.raises(UnphysicalStateError, match="conjugate block structure"):
            detect()


def test_clamp_rejects_probability_above_one():
    assert _clamp(1.0 + 0.5e-10, "p") == 1.0
    assert _clamp(-0.5e-10, "p") == 0.0
    with pytest.raises(UnphysicalStateError, match="above 1"):
        _clamp(1.5, "p")
    with pytest.raises(UnphysicalStateError, match="negative"):
        _clamp(-0.5, "p")


def test_series_inv_sqrt_det_vs_finite_differences(rng):
    """Expansion coefficients equal numerically fitted Taylor coefficients.

    Two detector variables with mixed orders; the reference evaluates
    det(1 + T sigma_tilde T / 2)^(-1/2) directly with T = sqrt(1 + s) on a
    real stencil and fits a 2D polynomial.
    """
    n = 6
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    sigma_tilde = 0.3 * (h + h.conj().T) / np.linalg.norm(h)
    row_var = np.array([0, 1, 0, 1, 1, 0])
    orders = (2, 3)
    got = series_inv_sqrt_det(sigma_tilde, row_var, orders).coefficients

    def direct(s0, s1):
        t = np.sqrt(1 + np.where(row_var == 0, s0, s1))
        a = np.eye(n) + t[:, None] * sigma_tilde * t[None, :] / 2
        return np.linalg.det(a) ** -0.5

    ts = np.linspace(-0.1, 0.1, 9)
    x, y = (g.ravel() for g in np.meshgrid(ts, ts, indexing="ij"))
    deg = (orders[0] + 4, orders[1] + 4)
    vander = np.polynomial.polynomial.polyvander2d(x, y, deg)
    vals = np.array([direct(a, b) for a, b in zip(x, y)])
    fitted = np.linalg.lstsq(vander, vals, rcond=None)[0].reshape(
        deg[0] + 1, deg[1] + 1)
    np.testing.assert_allclose(got.reshape(3, 4), fitted[:3, :4],
                               rtol=1e-6, atol=1e-7)
