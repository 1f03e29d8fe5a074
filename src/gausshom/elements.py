"""Optical elements as Transforms: squeezers, beam-splitters, phases, delays,
loss and bandpass filters.

Each element is a Transform holding only its own block and its target
spatial modes.  Blocks are written here in the (a, a^dag) basis: unitary
elements are symplectic blocks of the form diag(alpha, alpha*) (squeezers
add the off-diagonal pair terms); loss and filtering are passive channels
described by a contraction on the annihilation operators of their target
modes alone.  ``Transform`` converts each block once to its real (x, p)
form.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import FrequencyGrid, ModeLayout, Transform
from .jsa import schmidt_decompose


def _unitary_symplectic(alpha: np.ndarray, modes: Sequence[int],
                        layout: ModeLayout) -> Transform:
    n = alpha.shape[0]
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, :n] = alpha
    block[n:, n:] = alpha.conj()
    return Transform("symplectic", block, layout, tuple(modes))


def squeezer(f: np.ndarray, signal_spatial: int, idler_spatial: int,
             layout: ModeLayout) -> Transform:
    """Multimode two-mode squeezer pumping the (signal, idler) spatial pair.

    ``f`` is the n_f x n_f JSA matrix that ``build_jsa`` returns.  Built in
    the Schmidt basis, where it is a stack of independent two-mode squeezers
    with strengths equal to the singular values of ``f``, then rotated back
    to the frequency-bin basis.
    """
    if signal_spatial == idler_spatial:
        raise ValueError("signal and idler must be distinct spatial modes")
    nf = layout.n_spectral
    if np.shape(f) != (nf, nf):
        raise ValueError("JSA matrix size does not match the spectral bin count")

    sd = schmidt_decompose(f)
    c = np.diag(np.cosh(sd.values))
    s = np.diag(np.sinh(sd.values))
    z = np.zeros((nf, nf))

    # basis within the element: (a_sig, a_idl, a_sig^dag, a_idl^dag)
    m_d = np.block([
        [c, z, z, -1j * s],
        [z, c, -1j * s, z],
        [z, 1j * s, c, z],
        [1j * s, z, z, c],
    ])
    # diag(U, V*) with V = vh^dag, so V* = vh^T
    u_small = np.block([[sd.u.astype(complex), z], [z, sd.vh.T]])
    u_big = np.zeros((4 * nf, 4 * nf), dtype=complex)
    u_big[:2 * nf, :2 * nf] = u_small
    u_big[2 * nf:, 2 * nf:] = u_small.conj()

    m = u_big @ m_d @ u_big.conj().T
    return Transform("symplectic", m, layout, (signal_spatial, idler_spatial))


def beam_splitter(theta: float, mode_pair: Sequence[int], layout: ModeLayout) -> Transform:
    """Dispersionless beam-splitter rotating the pair by angle theta."""
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    alpha = np.kron(rot, np.eye(layout.n_spectral))
    return _unitary_symplectic(alpha, mode_pair, layout)


def phase_shifter(phi: float, spatial_mode: int, layout: ModeLayout) -> Transform:
    """Dispersionless phase shift on one spatial mode."""
    alpha = np.exp(1j * phi) * np.eye(layout.n_spectral)
    return _unitary_symplectic(alpha, (spatial_mode,), layout)


def _spectral_phase(tau: float, grid: FrequencyGrid) -> np.ndarray:
    """exp(i (omega - omega_0) tau) on each bin of ``grid``: a delay tau."""
    if not np.isfinite(tau):
        raise ValueError("delay must be finite")
    return np.exp(1j * grid.offsets() * tau)


def delay(tau: float, spatial_mode: int, grid: FrequencyGrid,
          layout: ModeLayout) -> Transform:
    """Time delay: a linear spectral phase on one spatial mode.

    Phases use bin offsets from the grid center; the global phase this drops
    relative to absolute frequencies has no effect on any detection
    probability.
    """
    phase = _spectral_phase(tau, grid)
    if grid.n_bins != layout.n_spectral:
        raise ValueError("grid bin count does not match the layout")
    return _unitary_symplectic(np.diag(phase), (spatial_mode,), layout)


def _amplitude_transmission(epsilon: float) -> float:
    """sqrt(1 - epsilon), the amplitude a loss epsilon in [0, 1] lets through."""
    if not 0 <= epsilon <= 1:
        raise ValueError("loss parameter must lie in [0, 1]")
    return float(np.sqrt(1 - epsilon))


def loss(epsilon: float, spatial_modes: Sequence[int], layout: ModeLayout) -> Transform:
    """Frequency-independent loss epsilon on the named spatial modes."""
    modes = sorted(set(spatial_modes))
    u = _amplitude_transmission(epsilon) * np.eye(len(modes) * layout.n_spectral)
    return Transform("passive", u, layout, tuple(modes))


def _passband(nu0: float, half_width: float, grid: FrequencyGrid) -> np.ndarray:
    """Bins of ``grid`` whose center frequency lies in [nu0 - hw, nu0 + hw], as 0/1."""
    if not 0 < half_width < np.inf:
        raise ValueError("filter half-width must be positive and finite")
    if not np.isfinite(nu0):
        raise ValueError("filter center must be finite")
    freqs = grid.frequencies()
    passing = (freqs >= nu0 - half_width) & (freqs <= nu0 + half_width)
    if not np.any(passing):
        raise ValueError("filter passband lies entirely outside the frequency grid")
    return passing.astype(float)


def bandpass_filter(nu0: float, half_width: float, spatial_modes: Sequence[int],
                    grid: FrequencyGrid, layout: ModeLayout) -> Transform:
    """Ideal bandpass: bins with center frequency in [nu0 - hw, nu0 + hw] pass.

    ``half_width`` is the half-width of the passband (the filter function is
    1 on the closed interval nu0 +- half_width).
    """
    passing = _passband(nu0, half_width, grid)
    if grid.n_bins != layout.n_spectral:
        raise ValueError("grid bin count does not match the layout")
    modes = sorted(set(spatial_modes))
    u = np.diag(np.tile(passing, len(modes)))
    return Transform("passive", u, layout, tuple(modes))
