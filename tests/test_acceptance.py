"""Acceptance gate: end-to-end correctness and reproduction targets.

Each test here pins one headline behavior of the package: agreement with an
independent Fock-basis oracle, closed-form identities, the figures of merit
of the heralded Hong-Ou-Mandel experiment across source models, detectors,
loss and filtering, and the determinism of the data artifacts.
"""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from gausshom.core import FrequencyGrid, ModeLayout, apply, vacuum_state
from gausshom.detection import DetectionPattern, p_pnr, p_threshold, p_vacuum
from gausshom.elements import (
    bandpass_filter,
    beam_splitter,
    delay,
    loss,
    phase_shifter,
    squeezer,
)
from gausshom.experiments import (
    HhomConfig,
    analytic_heralded_purity,
    build_hhom,
    distinguishable_four_fold,
    filter_study_config,
    four_fold,
    heralding_efficiency,
    heralding_rate,
    hom_visibility,
    ratio_r,
    single_pair_probability,
    structured_source_config,
    sweep,
)
from gausshom.fock import fock_detection
from gausshom.jsa import JsaSpec, build_jsa, schmidt_decompose

from conftest import random_jsa, run_fock, run_gaussian


def grid_of(n_bins):
    return FrequencyGrid(0.0, 1.0, n_bins)


def separable_config(xi, detector="pnr", **kwargs):
    spec = JsaSpec("gaussian", xi, 1.0, signal_center=0.0, idler_center=0.0)
    grid = FrequencyGrid(0.0, 0.125, 1)
    return HhomConfig(spec, spec, grid, detector=detector, **kwargs)


# -------------------------------------------------------------------------
# 1. randomized equivalence against the Fock oracle


def _random_circuit(rng):
    n_s = int(rng.integers(2, 5))
    n_f = int(rng.integers(1, 3))
    layout = ModeLayout(n_s, n_f)
    xi_max, cutoff = (0.4, 8) if n_f == 1 else (0.25, 5)

    ops = []
    n_sources = int(rng.integers(1, 3)) if n_s >= 4 else 1
    pairs = rng.permutation(n_s)
    for k in range(n_sources):
        sig, idl = int(pairs[2 * k]), int(pairs[2 * k + 1])
        xi = float(rng.uniform(0.1, xi_max))
        ops.append(("squeeze", random_jsa(rng, n_f, xi), sig, idl))

    n_elements = int(rng.integers(1, 4))
    for _ in range(n_elements):
        kind = rng.choice(["bs", "phase", "delay", "loss", "filter"])
        if kind == "bs":
            a, b = rng.choice(n_s, size=2, replace=False)
            ops.append(("bs", float(rng.uniform(0, np.pi)), (int(a), int(b))))
        elif kind == "phase":
            ops.append(("phase", float(rng.uniform(0, 2 * np.pi)),
                        int(rng.integers(n_s))))
        elif kind == "delay":
            ops.append(("delay", float(rng.uniform(-2, 2)),
                        int(rng.integers(n_s))))
        elif kind == "loss":
            ops.append(("loss", float(rng.uniform(0.1, 0.6)),
                        [int(rng.integers(n_s))]))
        else:
            # passband centered on a random bin, narrow enough to cut others
            center = float(rng.choice(grid_of(n_f).frequencies()))
            ops.append(("filter", center, 0.4, [int(rng.integers(n_s))]))
    return layout, grid_of(n_f), ops, cutoff


def _oracle_patterns(rng, n_s, max_total=4, n_pnr=12):
    patterns = []
    all_counts = [c for c in itertools.product(range(max_total + 1), repeat=n_s)
                  if sum(c) <= max_total]
    chosen = rng.choice(len(all_counts), size=min(n_pnr, len(all_counts)),
                        replace=False)
    for i in chosen:
        patterns.append(DetectionPattern(tuple(range(n_s)), all_counts[i]))
    patterns.append(DetectionPattern(tuple(range(n_s)), ("on",) * n_s))
    flags = tuple(rng.choice(["on", "off"], size=n_s))
    patterns.append(DetectionPattern(tuple(range(n_s)), flags))
    return patterns


def test_oracle_equivalence_randomized():
    rng = np.random.default_rng(987123)
    start = time.monotonic()
    worst = 0.0
    for _ in range(50):
        layout, grid, ops, cutoff = _random_circuit(rng)
        patterns = _oracle_patterns(rng, layout.n_spatial)
        g_state = run_gaussian(layout, grid, ops)
        f_state = run_fock(layout, grid, ops, cutoff)
        for pattern in patterns:
            pg = (p_pnr(g_state, pattern.spatial_modes, pattern.outcomes)
                  if pattern.is_pnr else None)
            if pg is None:
                on = [m for m, o in zip(pattern.spatial_modes, pattern.outcomes)
                      if o == "on"]
                off = [m for m, o in zip(pattern.spatial_modes, pattern.outcomes)
                       if o == "off"]
                pg = p_threshold(g_state, on, off) if on else p_vacuum(g_state, off)
            pf = fock_detection(f_state, pattern)
            worst = max(worst, abs(pg - pf))
        # vacuum projector on a random spatial subset
        subset = [m for m in range(layout.n_spatial) if rng.random() < 0.5]
        if subset:
            pg = p_vacuum(g_state, subset)
            pf = fock_detection(
                f_state, DetectionPattern(tuple(subset), ("off",) * len(subset)))
            worst = max(worst, abs(pg - pf))
    elapsed = time.monotonic() - start
    assert worst < 1e-6, f"worst oracle deviation {worst:.3e}"
    assert elapsed < 300, f"oracle suite took {elapsed:.0f}s"


# -------------------------------------------------------------------------
# 2. closed-form identities of a single two-mode squeezer


@pytest.mark.parametrize("lam", [0.2, 0.5, 0.9])
def test_two_mode_squeezer_closed_forms(lam):
    layout = ModeLayout(2, 1)
    j = np.array([[lam]], dtype=complex)
    state = apply(vacuum_state(layout), squeezer(j, 0, 1, layout))
    sech2 = 1 / math.cosh(lam) ** 2
    t2 = math.tanh(lam) ** 2
    assert p_vacuum(state, [0, 1]) == pytest.approx(sech2, abs=1e-10)
    assert p_threshold(state, (0, 1)) == pytest.approx(t2, abs=1e-10)
    for n in range(5):
        assert p_pnr(state, (0, 1), (n, n)) == pytest.approx(
            sech2 * t2 ** n, abs=1e-10)
    for n, m in ((0, 1), (1, 2), (2, 0), (3, 1), (4, 2)):
        assert p_pnr(state, (0, 1), (n, m)) < 1e-10


# -------------------------------------------------------------------------
# 3. separable sources: unit visibility, heralding-rate maximum


def test_separable_sources_unit_visibility_and_rate_maximum():
    start = time.monotonic()
    xis = np.arange(0.1, 1.51, 0.05)
    rates = []
    for xi in xis:
        config = separable_config(float(xi))
        assert abs(hom_visibility(config) - 1.0) < 1e-6, f"xi = {xi}"
        rates.append(heralding_rate(build_hhom(config), "pnr"))
    rates = np.asarray(rates)
    xi_star = float(xis[np.argmax(rates)])
    # analytic optimum artanh(1/sqrt(2)) ~ 0.8814, within grid resolution
    assert abs(xi_star - math.atanh(1 / math.sqrt(2))) <= 0.05
    db = 20 * xi_star / math.log(10)
    assert 7.64 <= db <= 7.83
    # the analytic point really is the local maximum of the continuous curve
    def rate(xi):
        return heralding_rate(build_hhom(separable_config(xi)), "pnr")
    opt = math.atanh(1 / math.sqrt(2))
    assert rate(opt) > rate(opt - 0.01) and rate(opt) > rate(opt + 0.01)
    assert rate(opt) == pytest.approx(1 / 16, abs=1e-10)
    assert time.monotonic() - start < 120


# -------------------------------------------------------------------------
# 4. non-separable waveguide sources: visibility equals heralded purity


def test_waveguide_visibility_equals_schmidt_purity():
    start = time.monotonic()
    zeta, walkoff, n_bins = 1e11, 29e-12, 41
    spec0 = JsaSpec("waveguide", 0.1, zeta, walkoff=walkoff)
    grid = FrequencyGrid(spec0.signal_center, 8 * zeta / (n_bins - 1), n_bins)
    worst = 0.0
    for xi in np.linspace(0.05, 1.5, 12):
        spec = dataclasses.replace(spec0, xi=float(xi))
        config = HhomConfig(spec, spec, grid)
        v = hom_visibility(config)
        sd = schmidt_decompose(build_jsa(spec, grid))
        purity = analytic_heralded_purity(sd.values)
        worst = max(worst, abs(v - purity))
    assert worst < 1e-4, f"max |V - purity| = {worst:.3e}"
    assert time.monotonic() - start < 600


# -------------------------------------------------------------------------
# 5. low-power four-fold ratio of 2 between no-splitter and distinguishable


@pytest.mark.parametrize("detector", ["pnr", "threshold"])
def test_low_power_four_fold_ratio(detector):
    res = ratio_r(separable_config(0.05, detector=detector))
    assert res.max_over_plateau == pytest.approx(2.0, rel=0.02)


# -------------------------------------------------------------------------
# 6. spectral filtering study: visibility, heralding rate and efficiency


def test_filter_study_operating_point():
    # low-power visibility with the tight filter
    v = hom_visibility(filter_study_config(0.1))
    assert v == pytest.approx(0.9958, abs=0.004)

    # heralding rate maxima with and without the filter
    xis = np.linspace(0.80, 1.05, 6)
    def max_rate(filtered):
        rates = [heralding_rate(build_hhom(filter_study_config(float(x),
                                                               filtered=filtered)),
                                "pnr") for x in xis]
        return float(np.max(rates)), float(xis[int(np.argmax(rates))])

    rate_f, xi_f = max_rate(True)
    rate_u, _ = max_rate(False)
    assert rate_f == pytest.approx(0.063, rel=0.10)
    assert rate_u == pytest.approx(0.07, rel=0.10)

    # heralding efficiency at the filtered max-rate power
    eta = heralding_efficiency(filter_study_config(xi_f))
    assert eta == pytest.approx(0.88, abs=0.03)


# -------------------------------------------------------------------------
# 7. loss and detector trend suite


def test_lossy_visibility_decreases_with_power():
    xis = np.linspace(0.1, 1.0, 10)
    for eps in (0.25, 0.5, 0.75):
        vs = [hom_visibility(separable_config(float(xi), loss=(eps,) * 4))
              for xi in xis]
        diffs = np.diff(vs)
        assert np.all(diffs < 0), f"eps = {eps}: visibility not decreasing"


def test_threshold_visibility_below_pnr():
    for xi in np.linspace(0.1, 1.0, 10):
        v_thr = hom_visibility(separable_config(float(xi), detector="threshold"))
        v_pnr = hom_visibility(separable_config(float(xi), detector="pnr"))
        assert v_thr <= v_pnr + 1e-10


def test_threshold_heralding_rate_increases_with_power():
    rates = [heralding_rate(build_hhom(separable_config(float(xi))), "threshold")
             for xi in np.linspace(0.1, 2.0, 10)]
    assert np.all(np.diff(rates) > 0)
    assert rates[-1] < 1.0


# -------------------------------------------------------------------------
# 8. structured sources: delay-scan revivals at +-4 ps


def test_structured_sources_revival_geometry():
    config = structured_source_config()
    taus = {t: None for t in (0.0, 3.5e-12, 4.0e-12, 4.5e-12,
                              -3.5e-12, -4.0e-12, -4.5e-12)}
    for t in taus:
        state = build_hhom(dataclasses.replace(config, delay=t))
        taus[t] = four_fold(state, config.detector)
    plateau = distinguishable_four_fold(config)

    # near-zero interference contrast at zero delay
    contrast = abs(1.0 - taus[0.0] / plateau)
    assert contrast < 0.2, f"zero-delay contrast {contrast:.3f}"

    # local four-fold minima within +-0.5 ps of +-4 ps
    for sign in (+1, -1):
        mid = taus[sign * 4.0e-12]
        assert mid < taus[sign * 3.5e-12], "no revival shoulder at 3.5 ps"
        assert mid < taus[sign * 4.5e-12], "no revival shoulder at 4.5 ps"
        # the revival dips visibly below the zero-delay level
        assert mid < taus[0.0]


# -------------------------------------------------------------------------
# 9. invariants: symplecticity, purity, pattern sums, determinism


def test_every_element_is_symplectic_or_contractive(rng):
    layout = ModeLayout(2, 3)
    grid = grid_of(3)
    k = layout.metric()
    f = random_jsa(rng, 3, 0.5)
    unitaries = [
        squeezer(f, 0, 1, layout),
        beam_splitter(0.9, (0, 1), layout),
        phase_shifter(0.4, 1, layout),
        delay(1.7, 0, grid, layout),
    ]
    for t in unitaries:
        m = t.matrix
        assert np.max(np.abs(m @ k @ m.conj().T - k)) < 1e-12
    for t in (loss(0.3, [0], layout),
              bandpass_filter(0.0, 1.0, [1], grid, layout)):
        assert np.linalg.norm(t.matrix, 2) <= 1 + 1e-12


def test_pure_path_determinant_is_one(rng):
    layout = ModeLayout(2, 2)
    grid = grid_of(2)
    state = vacuum_state(layout)
    state = apply(state, squeezer(random_jsa(rng, 2, 0.5), 0, 1, layout))
    state = apply(state, beam_splitter(0.3, (0, 1), layout))
    state = apply(state, delay(0.5, 1, grid, layout))
    assert abs(np.linalg.det(state.sigma) - 1) < 1e-8


def test_single_pair_probability_angle_invariance():
    config = separable_config(0.4)
    values = [single_pair_probability(dataclasses.replace(config, bs_angle=a))
              for a in (0.0, 0.3, math.pi / 4)]
    assert max(values) - min(values) < 1e-8


def test_exhaustive_pattern_sum(rng):
    layout = ModeLayout(2, 2)
    state = vacuum_state(layout)
    state = apply(state, squeezer(random_jsa(rng, 2, 0.3), 0, 1, layout))
    state = apply(state, loss(0.35, [0], layout))
    total = sum(p_pnr(state, (0, 1), (a, b))
                for a in range(7) for b in range(7))
    assert total == pytest.approx(1.0, abs=1e-8)
    thr_total = (p_threshold(state, (0, 1))
                 + p_threshold(state, (0,), (1,))
                 + p_threshold(state, (1,), (0,))
                 + p_vacuum(state, [0, 1]))
    assert thr_total == pytest.approx(1.0, abs=1e-12)


def test_csv_byte_determinism():
    config = separable_config(0.2)
    texts = [sweep(config, "xi", [0.1, 0.25, 0.4]).to_csv() for _ in range(2)]
    assert texts[0].encode() == texts[1].encode()
