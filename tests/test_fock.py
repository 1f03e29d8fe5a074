"""The brute-force Fock simulator itself, and targeted cross-checks."""

import numpy as np
import pytest

from gausshom.core import FrequencyGrid, ModeLayout
from gausshom.detection import DetectionPattern
from gausshom.fock import (
    FockState,
    apply_contractive_fock,
    apply_passive_fock,
    combine,
    fock_detection,
    fock_from_jsa,
    fock_vacuum,
)
from gausshom.jsa import JsaMatrix, schmidt_decompose

from conftest import compare_circuit, random_jsa


def grid_of(n_bins):
    return FrequencyGrid(0.0, 1.0, n_bins)


def test_vacuum_state():
    lay = ModeLayout(2, 2)
    v = fock_vacuum(lay)
    assert v.amplitudes == {(0,) * 4: 1.0 + 0j}
    assert v.norm_squared() == 1.0


def test_source_norm_approaches_one_with_cutoff():
    lay = ModeLayout(2, 1)
    j = JsaMatrix(np.array([[0.5]], dtype=complex), grid_of(1), grid_of(1))
    norms = [fock_from_jsa(j, 0, 1, lay, cutoff=c).norm_squared()
             for c in (1, 3, 8)]
    assert norms[0] < norms[1] < norms[2]
    # tail of the two-mode squeezed photon-number distribution
    t = np.tanh(0.5)
    assert norms[2] == pytest.approx(1 - t ** 18, abs=1e-12)


def test_source_amplitudes_single_schmidt_mode():
    lam = 0.4
    lay = ModeLayout(2, 1)
    j = JsaMatrix(np.array([[lam]], dtype=complex), grid_of(1), grid_of(1))
    state = fock_from_jsa(j, 0, 1, lay, cutoff=4)
    for n in range(5):
        amp = state.amplitudes.get((n, n), 0.0)
        expected = (-1j * np.tanh(lam)) ** n / np.cosh(lam)
        assert amp == pytest.approx(expected, abs=1e-12)


def test_combine_rejects_overlap():
    lay = ModeLayout(2, 1)
    a = FockState(lay, {(1, 0): 1.0})
    b = FockState(lay, {(1, 0): 1.0})
    with pytest.raises(ValueError, match="overlap"):
        combine(a, b)


def test_passive_fock_preserves_norm(rng):
    lay = ModeLayout(2, 1)
    j = JsaMatrix(np.array([[0.3]], dtype=complex), grid_of(1), grid_of(1))
    state = fock_from_jsa(j, 0, 1, lay, cutoff=6)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    rotated = apply_passive_fock(state, q)
    assert rotated.norm_squared() == pytest.approx(state.norm_squared(), abs=1e-10)


def test_contractive_fock_adds_ancillas():
    lay = ModeLayout(2, 1)
    j = JsaMatrix(np.array([[0.3]], dtype=complex), grid_of(1), grid_of(1))
    state = fock_from_jsa(j, 0, 1, lay, cutoff=6)
    lossy = apply_contractive_fock(state, np.diag([1.0, 0.8]))
    assert lossy.layout.n_spatial == 4
    assert lossy.n_tracked == 2
    assert lossy.norm_squared() == pytest.approx(state.norm_squared(), abs=1e-10)
    with pytest.raises(ValueError, match="contractive"):
        apply_contractive_fock(state, 1.2 * np.eye(2))


def test_detection_marginalizes_ancillas():
    lay = ModeLayout(2, 1)
    lam = 0.4
    j = JsaMatrix(np.array([[lam]], dtype=complex), grid_of(1), grid_of(1))
    state = fock_from_jsa(j, 0, 1, lay, cutoff=8)
    eps = 0.35
    lossy = apply_contractive_fock(state, np.diag([1.0, np.sqrt(1 - eps)]))
    # P(signal 1, idler 0): exactly one pair was made and its idler was lost
    t, c = np.tanh(lam), np.cosh(lam)
    p = fock_detection(lossy, DetectionPattern((0, 1), (1, 0)))
    assert p == pytest.approx(t ** 2 / c ** 2 * eps, abs=1e-10)
    with pytest.raises(IndexError):
        fock_detection(lossy, DetectionPattern((0, 3), (0, 0)))


def test_grouped_fock_detection_counts_union():
    lay = ModeLayout(3, 1)
    state = FockState(lay, {(1, 2, 0): 0.6, (1, 0, 2): 0.8})
    p = fock_detection(state, DetectionPattern((0, (1, 2)), (1, 2)))
    assert p == pytest.approx(1.0, abs=1e-12)


def conditional_idler_matrix(state: FockState, signal_spatial: int,
                             idler_spatial: int) -> np.ndarray:
    """Unnormalized idler density matrix after a 1-photon signal detection.

    Restricted to the single-photon idler subspace, in the frequency-bin
    basis.
    """
    nf = state.layout.n_spectral
    sig = range(signal_spatial * nf, (signal_spatial + 1) * nf)
    idl = list(range(idler_spatial * nf, (idler_spatial + 1) * nf))
    rho = np.zeros((nf, nf), dtype=complex)
    groups: dict = {}
    for occ, amp in state.amplitudes.items():
        if sum(occ[k] for k in sig) != 1:
            continue
        if sum(occ[k] for k in idl) != 1:
            continue
        rest = tuple(occ[k] for k in range(len(occ)) if k not in idl)
        w = next(i for i, k in enumerate(idl) if occ[k] == 1)
        groups.setdefault(rest, []).append((w, amp))
    for entries in groups.values():
        for w1, a1 in entries:
            for w2, a2 in entries:
                rho[w1, w2] += a1 * np.conj(a2)
    return rho


def test_conditional_idler_matrix_purity_matches_schmidt(rng):
    """Heralded idler purity equals the analytic Schmidt-spectrum formula."""
    from gausshom.experiments import analytic_heralded_purity
    n_f = 2
    lay = ModeLayout(2, n_f)
    f = random_jsa(rng, n_f, 0.35)
    j = JsaMatrix(f, grid_of(n_f), grid_of(n_f))
    state = fock_from_jsa(j, 0, 1, lay, cutoff=6)
    rho = conditional_idler_matrix(state, 0, 1)
    rho = rho / np.trace(rho)
    purity = float(np.real(np.trace(rho @ rho)))
    sd = schmidt_decompose(j)
    assert purity == pytest.approx(analytic_heralded_purity(sd.values), abs=1e-6)


def test_oracle_agreement_with_interferometer(rng):
    """End-to-end: squeezer + delay + beam-splitter agree across pipelines."""
    n_f = 2
    lay = ModeLayout(2, n_f)
    f = random_jsa(rng, n_f, 0.3)
    ops = [("squeeze", f, 0, 1), ("delay", 0.8, 1), ("bs", 0.6, (0, 1))]
    patterns = [DetectionPattern((0, 1), c) for c in
                ((0, 0), (1, 1), (2, 0), (1, 2))]
    patterns += [DetectionPattern((0, 1), ("on", "off"))]
    assert compare_circuit(lay, grid_of(n_f), ops, patterns, cutoff=7) < 1e-7
