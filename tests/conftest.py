"""Shared helpers: run one circuit through both the covariance-matrix
pipeline and the brute-force Fock simulator, and compare detection
probabilities.

Circuits are lists of element tuples:

    ("squeeze", f, sig, idl)      f: n_f x n_f complex JSA matrix
    ("bs", theta, (a, b))
    ("phase", phi, mode)
    ("delay", tau, mode)
    ("loss", eps, modes)
    ("filter", nu0, hw, modes)

All squeezers must come first (sources), which every circuit in this
package satisfies.
"""

from __future__ import annotations

import numpy as np
import pytest

import scipy.linalg

from gausshom.core import (
    HERMITICITY_TOL,
    CovarianceState,
    FrequencyGrid,
    ModeLayout,
    Transform,
    apply,
    vacuum_state,
)
from gausshom.detection import DetectionPattern, probability
from gausshom.elements import (
    bandpass_filter,
    beam_splitter,
    delay,
    loss,
    phase_shifter,
    squeezer,
)
from gausshom.fock import (
    FockState,
    apply_contractive_fock,
    apply_passive_fock,
    combine,
    fock_detection,
    fock_from_jsa,
    fock_vacuum,
)


def symplectic_from_hamiltonian(h: np.ndarray, layout: ModeLayout) -> Transform:
    """M = exp(-2i K H) for a Hermitian coefficient matrix H.

    An independent reference for the closed forms of the elements.
    """
    h = np.asarray(h, dtype=complex)
    n = layout.n_modes
    if h.shape != (2 * n, 2 * n):
        raise ValueError(f"Hamiltonian matrix must be {2 * n}x{2 * n}")
    if np.max(np.abs(h - h.conj().T)) > HERMITICITY_TOL * max(1.0, np.linalg.norm(h)):
        raise ValueError("Hamiltonian coefficient matrix must be Hermitian")
    m = scipy.linalg.expm(-2j * layout.metric() @ h)
    return Transform("symplectic", m, layout)


def element_transform(op, grid: FrequencyGrid, layout: ModeLayout):
    kind = op[0]
    if kind == "squeeze":
        _, f, sig, idl = op
        return squeezer(f, sig, idl, layout)
    if kind == "bs":
        return beam_splitter(op[1], op[2], layout)
    if kind == "phase":
        return phase_shifter(op[1], op[2], layout)
    if kind == "delay":
        return delay(op[1], op[2], grid, layout)
    if kind == "loss":
        return loss(op[1], op[2], layout)
    if kind == "filter":
        return bandpass_filter(op[1], op[2], op[3], grid, layout)
    raise ValueError(f"unknown op {kind!r}")


def sigma_tilde(state: CovarianceState) -> np.ndarray:
    """sigma minus the identity (the vacuum-subtracted part)."""
    return state.sigma - np.eye(state.v.shape[0])


def dense_apply(state: CovarianceState, t: Transform) -> np.ndarray:
    """Reference: the complex full-layout matrix applied to sigma as a dense product."""
    m = t.matrix
    if t.kind == "symplectic":
        return m @ state.sigma @ m.conj().T
    u = np.block([[m, np.zeros_like(m)], [np.zeros_like(m), m.conj()]])
    return u @ sigma_tilde(state) @ u.conj().T + np.eye(state.sigma.shape[0])


def run_gaussian(layout: ModeLayout, grid: FrequencyGrid, ops) -> CovarianceState:
    state = vacuum_state(layout)
    for op in ops:
        state = apply(state, element_transform(op, grid, layout))
    return state


def _annihilation_block(op, grid: FrequencyGrid, layout: ModeLayout) -> np.ndarray:
    t = element_transform(op, grid, layout)
    n = layout.n_modes
    return t.matrix[:n, :n] if t.kind == "symplectic" else t.matrix


def run_fock(layout: ModeLayout, grid: FrequencyGrid, ops,
             cutoff: int = 8) -> FockState:
    n_sources = sum(op[0] == "squeeze" for op in ops)
    if any(op[0] == "squeeze" for op in ops[n_sources:]):
        raise ValueError("all squeezers must precede passive elements")

    state = fock_vacuum(layout)
    for op in ops[:n_sources]:
        _, f, sig, idl = op
        src = fock_from_jsa(f, sig, idl, layout, cutoff)
        state = combine(state, src)

    rest = ops[n_sources:]
    if rest:
        contraction = np.eye(layout.n_modes, dtype=complex)
        for op in rest:
            contraction = _annihilation_block(op, grid, layout) @ contraction
        unitary = np.allclose(contraction @ contraction.conj().T,
                              np.eye(layout.n_modes), atol=1e-12)
        if unitary:
            state = apply_passive_fock(state, contraction)
        else:
            state = apply_contractive_fock(state, contraction)
    return state


def compare_circuit(layout: ModeLayout, grid: FrequencyGrid, ops, patterns,
                    cutoff: int = 8) -> float:
    """Largest |gaussian - fock| probability difference over the patterns."""
    g_state = run_gaussian(layout, grid, ops)
    f_state = run_fock(layout, grid, ops, cutoff)
    worst = 0.0
    for pattern in patterns:
        pg = probability(g_state, pattern)
        pf = fock_detection(f_state, pattern)
        worst = max(worst, abs(pg - pf))
    return worst


def random_jsa(rng: np.random.Generator, n_f: int, xi: float) -> np.ndarray:
    f = rng.normal(size=(n_f, n_f)) + 1j * rng.normal(size=(n_f, n_f))
    return xi * f / np.linalg.norm(f)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
