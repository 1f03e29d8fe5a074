"""Brute-force Fock-basis simulator for small systems.

This is the independent cross-check for the Gaussian pipeline: states are
sparse maps from occupation tuples to amplitudes, sources are expanded in
their Schmidt basis, passive elements act by substituting creation
operators, and loss adds explicit ancilla modes that detection then
marginalizes.  Intended for a handful of modes and small photon cutoffs
only; never used in the production sweep path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ModeLayout
from .detection import DetectionPattern
from .jsa import schmidt_decompose

PRUNE_TOL = 1e-10
SCHMIDT_TOL = 1e-8
DILATION_TOL = 1e-12


@dataclass
class FockState:
    """Sparse amplitudes over occupation tuples.

    ``n_tracked`` spatial modes are the physical ones; any further spatial
    modes in the layout are loss ancillas that detection marginalizes over.
    """

    layout: ModeLayout
    amplitudes: dict = field(repr=False)
    n_tracked: int = 0

    def __post_init__(self):
        if self.n_tracked == 0:
            self.n_tracked = self.layout.n_spatial

    def norm_squared(self) -> float:
        return sum(abs(a) ** 2 for a in self.amplitudes.values())

    def prune(self, tol: float = PRUNE_TOL) -> "FockState":
        amps = {k: v for k, v in self.amplitudes.items() if abs(v) > tol}
        return FockState(self.layout, amps, self.n_tracked)


def fock_vacuum(layout: ModeLayout) -> FockState:
    return FockState(layout, {(0,) * layout.n_modes: 1.0 + 0j})


def _apply_creation(amps: dict, coeffs: np.ndarray) -> dict:
    """Apply the operator sum_k coeffs[k] a_k^dag to normalized Fock amplitudes."""
    out: dict = {}
    nz = np.flatnonzero(np.abs(coeffs) > 0)
    for occ, amp in amps.items():
        for k in nz:
            new = list(occ)
            new[k] = occ[k] + 1
            key = tuple(new)
            out[key] = out.get(key, 0) + amp * coeffs[k] * math.sqrt(occ[k] + 1)
    return out


def fock_from_jsa(f: np.ndarray, signal_spatial: int, idler_spatial: int,
                  layout: ModeLayout, cutoff: int = 6) -> FockState:
    """Two-mode-squeezed state of the n_f x n_f JSA ``f``, expanded in its
    Schmidt basis.

    ``cutoff`` bounds the total number of photon pairs kept; the norm
    deficit is the squeezed-state tail beyond it.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    nf = layout.n_spectral
    if np.shape(f) != (nf, nf):
        raise ValueError("JSA matrix size does not match the spectral bin count")
    sd = schmidt_decompose(f)
    lam = sd.values[sd.values > SCHMIDT_TOL]
    n_modes_kept = len(lam)

    sig_block = layout.spatial_block(signal_spatial)
    idl_block = layout.spatial_block(idler_spatial)

    total: dict = {}
    prefactor = np.prod(1 / np.cosh(lam)) if n_modes_kept else 1.0
    for occ in _bounded_tuples(n_modes_kept, cutoff):
        c = prefactor * np.prod([(-1j * np.tanh(lam[l])) ** occ[l]
                                 for l in range(n_modes_kept)]) if n_modes_kept else prefactor
        term = {(0,) * layout.n_modes: complex(c)}
        for l, n_l in enumerate(occ):
            sig_coeffs = np.zeros(layout.n_modes, dtype=complex)
            sig_coeffs[sig_block] = sd.u[:, l]
            idl_coeffs = np.zeros(layout.n_modes, dtype=complex)
            idl_coeffs[idl_block] = sd.vh[l, :]
            for _ in range(n_l):
                term = _apply_creation(term, sig_coeffs)
                term = _apply_creation(term, idl_coeffs)
            if n_l:
                term = {k: v / math.factorial(n_l) for k, v in term.items()}
        for k, v in term.items():
            total[k] = total.get(k, 0) + v
    return FockState(layout, total).prune()


def _bounded_tuples(k: int, total: int):
    """All occupation tuples of length k with sum at most total."""
    if k == 0:
        yield ()
        return
    for head in range(total + 1):
        for rest in _bounded_tuples(k - 1, total - head):
            yield (head,) + rest


def combine(a: FockState, b: FockState) -> FockState:
    """Product of two states on disjoint mode supports of the same layout."""
    if a.layout != b.layout:
        raise ValueError("states live on different layouts")
    out: dict = {}
    for occ_a, amp_a in a.amplitudes.items():
        for occ_b, amp_b in b.amplitudes.items():
            if any(x and y for x, y in zip(occ_a, occ_b)):
                raise ValueError("states overlap on a mode")
            key = tuple(x + y for x, y in zip(occ_a, occ_b))
            out[key] = out.get(key, 0) + amp_a * amp_b
    return FockState(a.layout, out, a.n_tracked)


def apply_passive_fock(state: FockState, alpha: np.ndarray) -> FockState:
    """Evolve through a unitary passive element with annihilation-block matrix alpha.

    Consistent with the covariance-side convention sigma -> M sigma M^dag with
    M = diag(alpha, alpha*): creation operators substitute as
    a_k^dag -> sum_j alpha[j, k] a_j^dag.
    """
    n = state.layout.n_modes
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape != (n, n):
        raise ValueError("alpha has the wrong shape")
    out: dict = {}
    for occ, amp in state.amplitudes.items():
        term = {(0,) * n: amp / math.prod(math.sqrt(math.factorial(x)) for x in occ)}
        for k, n_k in enumerate(occ):
            for _ in range(n_k):
                term = _apply_creation(term, alpha[:, k])
        # _apply_creation already emits normalized-ket amplitudes
        for key, v in term.items():
            out[key] = out.get(key, 0) + v
    return FockState(state.layout, out, state.n_tracked).prune()


def _unitary_dilation(u: np.ndarray) -> np.ndarray:
    """2n x 2n unitary [[u, c], [-c, u]] whose top-left block is the contraction u.

    c = p sqrt(1 - s^2) qh from the SVD u = p s qh.  Singular values within
    DILATION_TOL of 1 get an exact zero complement: the SVD returns 1 - eps
    for them, and sqrt(1 - s^2) would add ancilla couplings of ~1e-8 that
    the exact dilation lacks.
    """
    p, s, qh = np.linalg.svd(u)
    comp = np.where(s >= 1 - DILATION_TOL, 0.0, np.sqrt(np.clip(1 - s ** 2, 0, None)))
    c = p @ np.diag(comp) @ qh
    return np.block([[u, c], [-c, u]])


def apply_contractive_fock(state: FockState, u: np.ndarray) -> FockState:
    """Loss or filtering: dilate the contraction with ancilla modes and evolve.

    The returned state has one ancilla spatial mode per tracked spatial mode;
    detection never addresses ancillas, which amounts to tracing them out.
    """
    if np.linalg.norm(u, 2) > 1 + 1e-12:
        raise ValueError("matrix is not contractive")
    n = state.layout.n_modes
    big_layout = ModeLayout(2 * state.layout.n_spatial, state.layout.n_spectral)
    amps = {occ + (0,) * n: a for occ, a in state.amplitudes.items()}
    big = FockState(big_layout, amps, state.n_tracked)
    return apply_passive_fock(big, _unitary_dilation(np.asarray(u, dtype=complex)))


def fock_detection(state: FockState, pattern: DetectionPattern) -> float:
    """Born-rule probability of a detection pattern, marginalizing spectators."""
    nf = state.layout.n_spectral
    groups = [(m,) if isinstance(m, int) else tuple(m) for m in pattern.spatial_modes]
    for g in groups:
        for m in g:
            if m >= state.n_tracked:
                raise IndexError(f"spatial mode {m} is not a tracked mode")
    prob = 0.0
    for occ, amp in state.amplitudes.items():
        ok = True
        for g, want in zip(groups, pattern.outcomes):
            count = sum(sum(occ[m * nf:(m + 1) * nf]) for m in g)
            if isinstance(want, int):
                ok = count == want
            else:
                ok = (count >= 1) if want == "on" else (count == 0)
            if not ok:
                break
        if ok:
            prob += abs(amp) ** 2
    return prob
