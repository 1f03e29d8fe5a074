"""Vacuum-projection, threshold and number-resolving probabilities."""

import functools
import itertools
import math

import mpmath
import numpy as np
import pytest

from gausshom import series
from gausshom.core import FrequencyGrid, ModeLayout, apply, subset_indices, vacuum_state
from gausshom.detection import (
    DEFAULT_PNR_CUTOFF,
    DetectionPattern,
    UnphysicalStateError,
    _clamp,
    _count_probabilities,
    _power_plan,
    half_logdet,
    half_logdets,
    p_pnr,
    p_threshold,
    p_vacuum,
    pnr_distribution,
    probability,
    series_inv_sqrt_det,
    threshold_sums,
    vacuum_probabilities,
)
from gausshom.elements import beam_splitter, loss, squeezer
from gausshom.experiments import HhomConfig, build_hhom
from gausshom.jsa import JsaSpec

from conftest import random_jsa


def grid_of(n_bins):
    return FrequencyGrid(0.0, 1.0, n_bins)


def tms_state(lam, lay=None):
    lay = lay or ModeLayout(2, 1)
    j = np.array([[lam]], dtype=complex)
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


@pytest.mark.parametrize("xi", [0.03, 0.3, 1.0])
def test_vacuum_table_matches_extended_precision_determinants(xi):
    """Each subset of a lossy four-arm state against a 40-digit determinant.

    The reference is det((1 + V_S) / 2)^(-1/2) of the same float64 matrix,
    evaluated in mpmath, so the comparison measures the factorization tree's
    rounding alone.
    """
    spec = JsaSpec("waveguide", xi, 4.0, signal_center=0.0, idler_center=0.0,
                   walkoff=1.0)
    state = build_hhom(HhomConfig(spec, spec, grid_of(5), loss=(0.1, 0.2, 0.15, 0.05),
                                  detector="threshold"))
    subsets = [s for r in range(1, 5) for s in itertools.combinations(range(4), r)]
    table = vacuum_probabilities(state, subsets)
    assert sorted(table) == sorted(subsets)
    with mpmath.workdps(40):
        for subset in subsets:
            idx = subset_indices(state.layout, subset)
            half = (np.eye(idx.size) + state.v[np.ix_(idx, idx)]) / 2
            exact = mpmath.det(mpmath.matrix(half.tolist())) ** -0.5
            assert abs(mpmath.mpf(table[subset]) / exact - 1) <= 1e-14, subset


def test_half_logdet_keeps_the_excess_that_rounding_of_1_drops():
    """log det(1 + X) / 2 of a small excess, real symmetric and complex
    Hermitian, against 40 digits of the same float64 X: a plain sum of
    log diag L of the rounded 1 + X is off by 2.3e-16 (real) and 1.0e-16
    (complex) here, from the rounding of its diagonal near 1."""
    rng = np.random.default_rng(3)
    spectrum = np.concatenate([np.full(10, 1e-3), np.full(50, 2e-17)])
    for entries in (rng.normal(size=(60, 60)), rng.normal(size=(60, 60, 2)) @ [1, 1j]):
        q, _ = np.linalg.qr(entries)
        x = (q * spectrum) @ q.conj().T
        x = (x + x.conj().T) / 2
        with mpmath.workdps(40):
            chol = mpmath.cholesky(mpmath.eye(60) + mpmath.matrix(x.tolist()))
            exact = mpmath.fsum(mpmath.log(mpmath.re(chol[k, k])) for k in range(60))
            assert abs(half_logdet(x, "") - exact) <= 1e-17, x.dtype


def random_excesses(rng, n, m, dtype):
    """n random positive semidefinite m x m excesses, real or complex Hermitian."""
    entries = rng.normal(size=(n, m, m)) if dtype is float else rng.normal(size=(n, m, m, 2)) @ [1, 1j]
    return 0.1 * entries @ np.swapaxes(entries, -1, -2).conj()


@pytest.mark.parametrize("dtype", [float, complex])
def test_half_logdet_of_a_stack_matches_per_block_calls(rng, dtype):
    """One stacked call gives each block the bits of a call on it alone,
    a stack of one those of the bare block, and ``half_logdets`` the same
    for blocks of mixed shapes, one call per shape."""
    stack = random_excesses(rng, 5, 6, dtype)
    got = half_logdet(stack, "")
    assert got.shape == (5,)
    assert np.array_equal(got, [half_logdet(x, "") for x in stack])
    assert np.array_equal(half_logdet(stack[:1], ""), half_logdet(stack[0], "")[None])
    assert half_logdet(stack[0], "").shape == ()
    mixed = [stack[0], random_excesses(rng, 1, 3, dtype)[0], stack[1], stack[2][:4, :4]]
    assert np.array_equal(half_logdets(mixed, ["a"] * 4), [half_logdet(x, "") for x in mixed])


def test_half_logdets_factors_a_complex_block_with_no_imaginary_part_as_real(rng, monkeypatch):
    """A complex block whose imaginary part is exactly zero gets the bits of
    its real part, whatever it is stacked with; any other stays complex."""
    real = random_excesses(rng, 3, 4, float)
    hermitian = random_excesses(rng, 1, 4, complex)[0]
    stacks = []
    cholesky = np.linalg.cholesky

    def counting(a):
        stacks.append(a.dtype)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    blocks = [real[0].astype(complex), hermitian, real[1], real[2].astype(complex)]
    got = half_logdets(blocks, ["a"] * 4)
    assert np.array_equal(got, [half_logdet(real[0], ""), half_logdet(hermitian, ""),
                                half_logdet(real[1], ""), half_logdet(real[2], "")])
    assert stacks[:2] == [np.float64, np.complex128]


@pytest.mark.parametrize("dtype", [float, complex])
def test_half_logdet_rejects_a_stack_with_one_indefinite_block(rng, dtype):
    stack = random_excesses(rng, 4, 5, dtype)
    stack[2] -= 3 * np.eye(5)
    with pytest.raises(UnphysicalStateError, match="not positive definite on block 2"):
        half_logdet(stack, "on block 2")
    with pytest.raises(UnphysicalStateError, match="not positive definite on a or on c$"):
        half_logdets(list(stack) + [np.zeros((2, 2))], ["on a", "on c", "on c", "on a", "on b"])


def test_threshold_sums_check_each_term_and_each_sum():
    """A figure is its signed terms summed as expm1: a row whose signs sum
    to 1 (no on-detector) gives its vacuum term back, and a term above 1 or
    not finite, or a sum below 0, raises."""
    logs = np.array([0.0, 0.25, 0.5, 0.75])
    signs = np.array([[1.0, -1.0, -1.0, 1.0], [0.0, 0.0, 0.0, 1.0]])
    want = [1 - math.exp(-0.25) - math.exp(-0.5) + math.exp(-0.75), math.exp(-0.75)]
    assert threshold_sums(signs, logs) == pytest.approx(want, rel=1e-15)
    for bad in (-1e-9, np.nan):
        with pytest.raises(UnphysicalStateError, match="p_vacuum"):
            threshold_sums(signs, np.array([0.0, bad, 0.5, 0.75]))
    # a term above 1 within tolerance counts as 1
    assert threshold_sums(signs[:1], np.array([-1e-12, 0.0, 0.0, 0.0])) == [0.0]
    with pytest.raises(UnphysicalStateError, match="p_threshold"):
        threshold_sums(-signs[:1], logs)


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
    # up to (6, 6), whose total count is the cutoff
    for n in range(DEFAULT_PNR_CUTOFF // 2 + 1):
        assert p_pnr(state, (0, 1), (n, n)) == pytest.approx(
            t ** (2 * n) / c ** 2, rel=1e-12)
    assert p_pnr(state, (0, 1), (0, 2)) == pytest.approx(0.0, abs=1e-11)
    # two independent pairs on four modes: the product of the pairs' forms
    lay = ModeLayout(4, 1)
    lams = (0.7, 0.45)
    state = vacuum_state(lay)
    for (sig, idl), lam in zip(((0, 1), (2, 3)), lams):
        j = np.array([[lam]], dtype=complex)
        state = apply(state, squeezer(j, sig, idl, lay))
    patterns = [(3, 3, 3, 3), (2, 2, 4, 4)]
    for (n1, _, n2, _), p in zip(patterns, p_pnr(state, (0, 1, 2, 3), patterns)):
        expected = math.prod(np.tanh(lam) ** (2 * n) / np.cosh(lam) ** 2
                             for lam, n in zip(lams, (n1, n2)))
        assert p == pytest.approx(expected, rel=1e-12)


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
        j = random_jsa(rng, n_f, 0.5)
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
    j = random_jsa(rng, n_f, 0.4)
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
    # a bool or float is not a spatial mode, alone or in a group
    state = tms_state(0.4)
    for bad in ((True,), (1.0,), ((0, True),), ((0, 1.0),)):
        with pytest.raises(ValueError, match="spatial modes must be integers"):
            DetectionPattern(bad, (1,))
        with pytest.raises(ValueError, match="spatial modes must be integers"):
            p_pnr(state, bad, (0,))
        with pytest.raises(ValueError, match="spatial modes must be integers"):
            p_threshold(state, bad)
    with pytest.raises(ValueError, match="spatial modes must be integers"):
        pnr_distribution(state, True, 2)
    assert p_pnr(state, (np.int64(1),), (0,)) == p_pnr(state, (1,), (0,))


def test_vacuum_pnr_probability_is_positive_zero():
    lay = ModeLayout(2, 1)
    p = p_pnr(vacuum_state(lay), (0, 1), (1, 0))
    assert p == 0.0 and np.copysign(1.0, p) == 1.0


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_nan_expansion_raises():
    """A NaN in the detected matrix fails the determinant check, not later."""
    sigma_tilde = np.diag([0.1, np.nan])
    with pytest.raises(UnphysicalStateError, match="not positive"):
        series_inv_sqrt_det(sigma_tilde, np.array([0, 0]), [(2,)])


def test_counts_accept_numpy_integers_and_reject_bool():
    state = tms_state(0.4)
    counts = tuple(np.array([1, 0]))
    pattern = DetectionPattern((0, 1), counts)
    assert pattern.is_pnr and pattern.outcomes == (1, 0)
    assert all(type(o) is int for o in pattern.outcomes)
    assert probability(state, pattern) == p_pnr(state, (0, 1), (1, 0))
    assert p_pnr(state, (0, 1), counts) == p_pnr(state, (0, 1), (1, 0))
    assert p_pnr(state, (0, 1), [counts, (np.int32(1), 1)]) == \
        p_pnr(state, (0, 1), [(1, 0), (1, 1)])
    for bad in ((True, 0), (1, False)):
        with pytest.raises(ValueError):
            DetectionPattern((0, 1), bad)
        with pytest.raises(ValueError, match="integers"):
            p_pnr(state, (0, 1), bad)
    with pytest.raises(ValueError, match="integers"):
        p_pnr(state, (0, 1), (1.0, 0))
    np.testing.assert_array_equal(pnr_distribution(state, 0, np.int64(2)),
                                  pnr_distribution(state, 0, 2))
    for bad in (True, 2.5, -1):
        with pytest.raises(ValueError, match="n_max"):
            pnr_distribution(state, 0, bad)


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
    j = random_jsa(rng, n_f, 0.3)
    state = apply(vacuum_state(lay), squeezer(j, 0, 1, lay))
    state = apply(state, loss(0.2, [1], lay))
    total = sum(p_pnr(state, (0, 1), (a, b))
                for a in range(7) for b in range(7))
    assert total == pytest.approx(1.0, abs=1e-8)


# symmetric V whose (1 + V) / 2 is diag(-1, 1), with a negative determinant,
# and diag(-1, -1), whose determinant is positive although the matrix is not
UNPHYSICAL_V = ([-3.0, 1.0], [-3.0, -3.0])


def test_unphysical_state_detected():
    """A (1 + V) / 2 that is not positive definite fails its factorization."""
    from gausshom.core import CovarianceState
    for diagonal in UNPHYSICAL_V:
        bad = CovarianceState(ModeLayout(1, 1), np.diag(diagonal))
        with pytest.raises(UnphysicalStateError, match="not positive definite"):
            p_vacuum(bad, [0])
        with pytest.raises(UnphysicalStateError, match="not positive definite"):
            p_threshold(bad, (0,))


def test_pnr_unphysical_state_detected():
    """A 1 + sigma_tilde / 2 that is not positive definite is rejected, not expanded."""
    from gausshom.core import CovarianceState
    for diagonal in UNPHYSICAL_V:
        bad = CovarianceState(ModeLayout(1, 1), np.diag(diagonal))
        for counts in ((0,), (1,)):
            with pytest.raises(UnphysicalStateError, match="not positive"):
                p_pnr(bad, (0,), counts)
        with pytest.raises(UnphysicalStateError, match="not positive"):
            pnr_distribution(bad, 0, 2)


def test_state_without_conjugate_structure_rejected():
    """A Hermitian sigma not of the form [[A, B], [B*, A*]] is refused at entry.

    diag(2, 1) on one mode is Hermitian and positive, but its annihilation
    and creation blocks are not conjugates, so Q sigma Q^dag is not real and
    the state has no V: no detection can run on it.
    """
    from gausshom.core import CovarianceState
    with pytest.raises(UnphysicalStateError, match="conjugate block structure"):
        CovarianceState.from_sigma(ModeLayout(1, 1), np.diag([2.0, 1.0]))
    # a physical sigma enters and keeps its detection probabilities
    state = tms_state(0.4)
    again = CovarianceState.from_sigma(state.layout, state.sigma)
    np.testing.assert_allclose(again.v, state.v, rtol=0, atol=1e-15)
    for detect in (lambda s: p_vacuum(s, [0]),
                   lambda s: p_pnr(s, (0,), (1,)),
                   lambda s: pnr_distribution(s, 0, 3)):
        np.testing.assert_allclose(detect(again), detect(state), rtol=1e-14)


def test_clamp_rejects_probability_above_one():
    assert _clamp(1.0 + 0.5e-10, "p") == 1.0
    assert _clamp(-0.5e-10, "p") == 0.0
    # an exact zero comes back as +0.0, never -0.0
    assert np.copysign(1.0, _clamp(-0.0, "p")) == 1.0
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(UnphysicalStateError, match="not finite"):
            _clamp(bad, "p")
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
    f = series_inv_sqrt_det(sigma_tilde, row_var, [orders])
    got = np.array([[f[(a, b)] for b in range(orders[1] + 1)]
                    for a in range(orders[0] + 1)])

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
    np.testing.assert_allclose(got, fitted[:3, :4],
                               rtol=1e-6, atol=1e-7)


@pytest.mark.parametrize("complex_input", [False, True])
def test_series_inv_sqrt_det_vs_word_enumeration(rng, complex_input):
    """Every coefficient equals a brute-force sum over all words.

    log det(1 + Z D) = sum_j (-1)^(j+1) / j tr((Z D)^j), and (Z D)^j sums
    Z P_v1 Z P_v2 ... Z P_vj over every word v1 ... vj; the reference
    traces each word up to total degree 6 and exponentiates with
    ``series.exp``.  Three variables own unequal, interleaved row counts.
    """
    row_var = np.array([1, 0, 2, 2, 1, 2, 0, 2, 1, 2])
    n = len(row_var)
    h = rng.normal(size=(n, n))
    if complex_input:
        h = h + 1j * rng.normal(size=(n, n))
    sigma_tilde = 0.9 * (h + h.conj().T) / np.linalg.norm(h)
    patterns = [(2, 2, 2), (1, 0, 5), (4, 1, 1), (0, 6, 0)]
    s_half = sigma_tilde / 2
    z = np.linalg.inv(np.eye(n) + s_half) @ s_half
    zp = [z * (row_var == v)[None, :] for v in range(3)]   # Z P_v
    wanted = {m for p in patterns for m in itertools.product(*(range(k + 1) for k in p))}
    log_series = {m: 0.0 for m in wanted}
    log_series[(0, 0, 0)] = np.linalg.slogdet(np.eye(n) + s_half)[1]
    for j in range(1, 7):
        for word in itertools.product(range(3), repeat=j):
            m = tuple(word.count(v) for v in range(3))
            if m in wanted:
                word_product = functools.reduce(np.matmul, [zp[v] for v in word])
                log_series[m] += (-1) ** (j + 1) / j * np.trace(word_product)
    expected = series.exp({m: -0.5 * g for m, g in log_series.items()})
    got = series_inv_sqrt_det(sigma_tilde, row_var, patterns)
    assert set(got) == wanted
    for m in sorted(wanted):
        np.testing.assert_allclose(got[m], expected[m], rtol=1e-12, atol=1e-15,
                                   err_msg=f"coefficient {m}")


def box_walk_plan(patterns):
    """The expansion plan from a walk over the whole box below each multi-index."""
    wanted = {m for p in patterns for m in itertools.product(*(range(n + 1) for n in p))}
    plan = []
    for m in sorted(wanted, key=lambda m: (sum(m), m))[1:]:
        j, a = sum(m), next(v for v, n in enumerate(m) if n)
        halves = []
        for k1 in itertools.product(*(range(n + 1) for n in m)):
            if j > 1 and sum(k1) == (j + 1) // 2 and k1[a] < m[a]:
                rest = tuple(n - k - (v == a) for v, (n, k) in enumerate(zip(m, k1)))
                halves += [(b, k1, rest[:b] + (rest[b] + 1,) + rest[b + 1:])
                           for b in range(len(m)) if k1[b]]
        plan.append((m, a, (-1) ** (j + 1) / m[a], tuple(halves)))
    return tuple(plan)


@pytest.mark.parametrize("patterns", [((1, 1, 1, 1), (1, 0, 2, 1), (1, 2, 0, 1)),
                                      ((2,) * 6,), ((3, 3, 3, 3),), ((12,),)])
def test_power_plan_matches_a_box_walk(patterns):
    """Same splits in the same order, which sets the summation order."""
    assert _power_plan(patterns) == box_walk_plan(patterns)


def test_count_probabilities_reject_an_imaginary_part():
    """A coefficient of a complex expansion is a probability only if it is real."""
    patterns = [(0,), (1,)]
    assert _count_probabilities({(0,): 0.5 + 1e-12j, (1,): -0.25 + 0j}, patterns,
                                "p_pnr") == [0.5, 0.25]
    for imag in (1e-6, -1e-6, np.nan):
        with pytest.raises(UnphysicalStateError, match="p_pnr has imaginary part"):
            _count_probabilities({(0,): 0.5, (1,): -0.25 + 1j * imag}, patterns, "p_pnr")
