"""Property tests on random small circuits built from the conftest element tuples.

States evolve and are detected in the real quadrature basis; these tests
compare each step and each probability with the same quantities computed
directly from the complex sigma, check the identities that tie threshold,
PNR and grouped detectors together, bound the summed pattern
probabilities, and check invariance under elements that act alike on every
detector.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausshom.core import FrequencyGrid, ModeLayout, apply, subset_indices, vacuum_state
from gausshom.detection import (
    CLAMP_TOL,
    p_pnr,
    p_threshold,
    p_vacuum,
    pnr_distribution,
    series_inv_sqrt_det,
    vacuum_probabilities,
)

from conftest import dense_apply, element_transform, random_jsa, run_gaussian, sigma_tilde

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None)
REL = 1e-12
FLOOR = 1e-15   # absolute: probabilities at the rounding floor


@st.composite
def circuits(draw):
    """(layout, grid, ops): one or two pair sources, then passive elements."""
    n_spatial = draw(st.integers(2, 4))
    n_f = draw(st.integers(1, 2))
    layout = ModeLayout(n_spatial, n_f)
    grid = FrequencyGrid(0.0, 1.0, n_f)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    modes = st.integers(0, n_spatial - 1)
    mode_sets = st.lists(modes, min_size=1, max_size=n_spatial, unique=True)
    ops = []
    for _ in range(draw(st.integers(1, 2))):
        sig, idl = draw(st.lists(modes, min_size=2, max_size=2, unique=True))
        ops.append(("squeeze", random_jsa(rng, n_f, draw(st.floats(0.05, 0.9))), sig, idl))
    angle = st.floats(-np.pi, np.pi)
    passive = st.one_of(
        st.tuples(st.just("bs"), angle,
                  st.lists(modes, min_size=2, max_size=2, unique=True).map(tuple)),
        st.tuples(st.just("phase"), angle, modes),
        st.tuples(st.just("delay"), st.floats(-3.0, 3.0), modes),
        st.tuples(st.just("loss"), st.floats(0.0, 1.0), mode_sets),
        st.tuples(st.just("filter"),
                  st.sampled_from(list(grid.frequencies())), st.just(0.5), mode_sets),
    )
    ops += draw(st.lists(passive, max_size=4))
    return layout, grid, ops


@st.composite
def detectors(draw, n_spatial):
    """Detector targets on a subset of the modes; chunks of two or more are groups."""
    order = draw(st.permutations(range(n_spatial)))[:draw(st.integers(1, n_spatial))]
    cuts = sorted(draw(st.sets(st.integers(1, len(order) - 1), max_size=len(order) - 1))
                  if len(order) > 1 else [])
    chunks = [order[a:b] for a, b in zip([0] + cuts, cuts + [len(order)])]
    return tuple(c[0] if len(c) == 1 else tuple(c) for c in chunks)


def complex_p_vacuum(state, modes):
    """slogdet of the complex (1 + sigma_S) / 2 in the doubled basis."""
    idx = subset_indices(state.layout, modes)
    sign, logdet = np.linalg.slogdet((np.eye(idx.size) + state.sigma[np.ix_(idx, idx)]) / 2)
    assert abs(sign - 1) < 1e-10
    return float(np.exp(-0.5 * logdet))


def complex_p_pnr(state, groups, patterns):
    """series_inv_sqrt_det on the complex sigma_tilde of the detected modes.

    Clamped by the library's rule: rounding within CLAMP_TOL outside [0, 1]
    is cut off, so an exact zero compares as 0, not as -1e-15.
    """
    groups = [(g,) if isinstance(g, int) else g for g in groups]
    flat = [m for g in groups for m in g]
    idx = subset_indices(state.layout, flat)
    var_of_mode = np.array([v for v, g in enumerate(groups) for _ in g])
    row_var = np.concatenate([np.repeat(var_of_mode, state.layout.n_spectral)] * 2)
    f = series_inv_sqrt_det(sigma_tilde(state)[np.ix_(idx, idx)], row_var, patterns)
    coeffs = [f[p] * (-1) ** sum(p) for p in patterns]
    assert all(abs(c.imag) < 1e-10 for c in coeffs)
    return [min(max(c.real, 0.0), 1.0) if -CLAMP_TOL <= c.real <= 1 + CLAMP_TOL
            else c.real for c in coeffs]


@PROPERTY_SETTINGS
@given(data=st.data())
def test_real_basis_apply_matches_dense_complex_product(data):
    """Each element applied to V agrees with M sigma M^dag on the complex sigma."""
    layout, grid, ops = data.draw(circuits())
    state = vacuum_state(layout)
    for op in ops:
        t = element_transform(op, grid, layout)
        out = apply(state, t)
        np.testing.assert_allclose(out.sigma, dense_apply(state, t), rtol=0, atol=1e-12)
        state = out


@PROPERTY_SETTINGS
@given(data=st.data())
def test_quadrature_detection_matches_complex_basis(data):
    layout, grid, ops = data.draw(circuits())
    state = run_gaussian(layout, grid, ops)
    groups = data.draw(detectors(layout.n_spatial))
    flat = [m for g in groups for m in ((g,) if isinstance(g, int) else g)]
    assert p_vacuum(state, flat) == pytest.approx(complex_p_vacuum(state, flat),
                                                  rel=REL, abs=FLOOR)
    patterns = data.draw(st.lists(st.tuples(*[st.integers(0, 2)] * len(groups)),
                                  min_size=1, max_size=4, unique=True))
    got = p_pnr(state, groups, patterns)
    for p, ref in zip(got, complex_p_pnr(state, groups, patterns)):
        assert p == pytest.approx(ref, rel=REL, abs=FLOOR)
    mode = data.draw(st.integers(0, layout.n_spatial - 1))
    reference = complex_p_pnr(state, (mode,), [(n,) for n in range(5)])
    np.testing.assert_allclose(pnr_distribution(state, mode, 4), reference,
                               rtol=REL, atol=FLOOR)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_vacuum_table_matches_complex_basis(data):
    """Each vacuum term of a threshold pattern, from one table, against its own
    complex determinant: on-groups in every combination, joined with off modes."""
    layout, grid, ops = data.draw(circuits())
    state = run_gaussian(layout, grid, ops)
    on = [g if isinstance(g, tuple) else (g,) for g in data.draw(detectors(layout.n_spatial))]
    rest = sorted(set(range(layout.n_spatial)) - {m for g in on for m in g})
    off = data.draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
    subsets = [tuple(sorted([m for g in chosen for m in g] + off))
               for r in range(len(on) + 1) for chosen in itertools.combinations(on, r)]
    table = vacuum_probabilities(state, subsets)
    assert sorted(table) == sorted(subsets)
    for subset in subsets:
        reference = complex_p_vacuum(state, subset) if subset else 1.0
        assert table[subset] == pytest.approx(reference, rel=REL, abs=FLOOR), subset


@PROPERTY_SETTINGS
@given(data=st.data())
def test_threshold_click_is_one_minus_pnr_vacuum(data):
    layout, grid, ops = data.draw(circuits())
    state = run_gaussian(layout, grid, ops)
    for m in range(layout.n_spatial):
        assert p_threshold(state, (m,)) == pytest.approx(
            1 - p_pnr(state, (m,), (0,)), abs=1e-12)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_grouped_detector_vacuum_is_joint_vacuum(data):
    layout, grid, ops = data.draw(circuits())
    state = run_gaussian(layout, grid, ops)
    group = tuple(data.draw(st.lists(st.integers(0, layout.n_spatial - 1),
                                     min_size=2, max_size=layout.n_spatial, unique=True)))
    joint = p_vacuum(state, group)
    assert p_pnr(state, (group,), (0,)) == pytest.approx(joint, rel=REL, abs=FLOOR)
    assert p_threshold(state, (group,)) == pytest.approx(1 - joint, abs=1e-12)


def assert_close(got, expected):
    np.testing.assert_allclose(got, expected, rtol=REL, atol=FLOOR)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_box_sum_is_at_most_one_and_grows_with_the_cutoff(data):
    layout, grid, ops = data.draw(circuits())
    state = run_gaussian(layout, grid, ops)
    modes = tuple(range(layout.n_spatial))
    sums = []
    for n_max in (1, 2, 3):
        box = list(itertools.product(range(n_max + 1), repeat=len(modes)))
        sums.append(sum(p_pnr(state, modes, box)))
    assert sums[-1] <= 1 + 1e-12
    assert sums[0] <= sums[1] + 1e-12 and sums[1] <= sums[2] + 1e-12


@PROPERTY_SETTINGS
@given(data=st.data(), kind=st.sampled_from(["phase", "delay"]),
       amount=st.floats(-3.0, 3.0))
def test_common_phase_or_delay_leaves_detection_unchanged(data, kind, amount):
    layout, grid, ops = data.draw(circuits())
    state = run_gaussian(layout, grid, ops)
    shifted = run_gaussian(layout, grid, ops + [(kind, amount, m)
                                                for m in range(layout.n_spatial)])
    modes = tuple(data.draw(st.lists(st.integers(0, layout.n_spatial - 1),
                                     min_size=1, max_size=layout.n_spatial, unique=True)))
    assert_close(p_vacuum(shifted, modes), p_vacuum(state, modes))
    patterns = data.draw(st.lists(st.tuples(*[st.integers(0, 2)] * len(modes)),
                                  min_size=1, max_size=4, unique=True))
    assert_close(p_pnr(shifted, modes, patterns), p_pnr(state, modes, patterns))


@PROPERTY_SETTINGS
@given(data=st.data())
def test_quarter_turn_beam_splitter_swaps_its_modes(data):
    layout, grid, ops = data.draw(circuits())
    state = run_gaussian(layout, grid, ops)
    a, b = data.draw(st.lists(st.integers(0, layout.n_spatial - 1),
                              min_size=2, max_size=2, unique=True))
    swapped = run_gaussian(layout, grid, ops + [("bs", np.pi / 2, (a, b))])
    patterns = list(itertools.product(range(3), repeat=2))
    assert_close(p_pnr(swapped, (a, b), [(m, n) for n, m in patterns]),
                 p_pnr(state, (a, b), patterns))
