"""Mode bookkeeping, covariance states and symplectic / passive-channel maps.

Basis convention used everywhere in this package: all annihilation
operators first (spatial-major, spectral-minor), then all creation
operators in the same order.  For a system with ``n_spatial`` spatial
modes and ``n_spectral`` frequency bins, mode ``(i, w)`` sits at row
``i * n_spectral + w`` in the annihilation block and at that row plus
``N = n_spatial * n_spectral`` in the creation block.  The vacuum has
covariance matrix equal to the 2N identity.

The covariance matrix sigma stays complex in this basis through the whole
circuit.  Detection reads it once per state in the real quadrature basis,
x = (a + a^dag)/sqrt 2 and p = -i (a - a^dag)/sqrt 2 at the same rows:
``CovarianceState.quadrature`` is Re(Q sigma Q^dag), real symmetric with
the same determinants, plus the imaginary residual that Q sigma Q^dag
drops.  That residual is zero exactly when sigma has the conjugate block
structure [[A, B], [B*, A*]] of a physical state, so it serves as the
structure check.

An element is kept as its own matrix block plus the spatial modes it acts
on (``Transform``), and ``apply`` updates only those rows and columns of
the covariance matrix: an element on k spatial modes costs O((k n_f)^2 N)
instead of the O(N^3) of a dense 2N x 2N product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.linalg

SYMPLECTIC_TOL = 1e-12
HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class ModeLayout:
    """Spatial x spectral mode lattice."""

    n_spatial: int
    n_spectral: int

    def __post_init__(self):
        if self.n_spatial < 1 or self.n_spectral < 1:
            raise ValueError("mode counts must be positive")

    @property
    def n_modes(self) -> int:
        return self.n_spatial * self.n_spectral

    def index(self, spatial: int, spectral: int, dagger: bool = False) -> int:
        """Row index of mode ``(spatial, spectral)`` (0-based)."""
        if not 0 <= spatial < self.n_spatial:
            raise IndexError(f"spatial index {spatial} out of range")
        if not 0 <= spectral < self.n_spectral:
            raise IndexError(f"spectral index {spectral} out of range")
        idx = spatial * self.n_spectral + spectral
        return idx + self.n_modes if dagger else idx

    def spatial_block(self, spatial: int) -> np.ndarray:
        """Annihilation-block row indices of one spatial mode."""
        start = spatial * self.n_spectral
        return np.arange(start, start + self.n_spectral)

    def metric(self) -> np.ndarray:
        """The commutation metric K = diag(+1 x N, -1 x N)."""
        n = self.n_modes
        return np.diag(np.concatenate([np.ones(n), -np.ones(n)]))


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform discretization of the spectral axis, symmetric about ``center``.

    All frequencies are angular (rad/s).
    """

    center: float
    step: float
    n_bins: int

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("frequency step must be positive")
        if self.n_bins < 1:
            raise ValueError("need at least one frequency bin")

    def bin_frequency(self, w: int | np.ndarray) -> float | np.ndarray:
        """Absolute angular frequency of bin ``w`` (0-based)."""
        return self.center + (np.asarray(w) - (self.n_bins - 1) / 2) * self.step

    def frequencies(self) -> np.ndarray:
        return self.bin_frequency(np.arange(self.n_bins))

    def offsets(self) -> np.ndarray:
        """Bin frequencies relative to the grid center."""
        return self.frequencies() - self.center


@dataclass(frozen=True)
class Transform:
    """An element's own matrix block and the spatial modes of ``layout`` it acts on.

    ``modes`` names the target spatial modes in block order (all modes of
    the layout when omitted); every other mode sees the identity.  With
    ``k`` target modes of ``n_f`` bins each:

    ``kind == "symplectic"``: ``block`` is the 2 k n_f square matrix M with
    M K M^dag = K, in the basis (annihilation operators of the targets,
    then their creation operators), applied as sigma -> M sigma M^dag on the
    target rows and columns.

    ``kind == "passive"``: ``block`` is the k n_f square contraction U on
    the target annihilation operators, acting conjugated on their creation
    operators: sigma - 1 -> diag(U, U*) (sigma - 1) diag(U, U*)^dag.

    Both checks run on the block alone, which is exact: identity (+) block
    is symplectic or contractive exactly when the block is.  ``matrix``
    builds the full-layout matrix on request.
    """

    kind: str
    block: np.ndarray = field(repr=False)
    layout: ModeLayout
    modes: tuple | None = None

    def __post_init__(self):
        modes = tuple(range(self.layout.n_spatial)) if self.modes is None else tuple(self.modes)
        object.__setattr__(self, "modes", modes)
        # validates the modes: nonempty, distinct and inside the layout
        rows = subset_indices(self.layout, modes)
        m = np.asarray(self.block, dtype=complex)
        object.__setattr__(self, "block", m)
        if self.kind == "symplectic":
            if m.shape != (rows.size, rows.size):
                raise ValueError(f"symplectic block must be {rows.size}x{rows.size}")
            k = np.diagonal(ModeLayout(len(modes), self.layout.n_spectral).metric())
            residual = np.max(np.abs((m * k) @ m.conj().T - np.diag(k)))
            if residual > SYMPLECTIC_TOL * max(1.0, np.max(np.abs(m)) ** 2):
                raise ValueError(f"matrix is not symplectic (residual {residual:.2e})")
        elif self.kind == "passive":
            n = rows.size // 2
            if m.shape != (n, n):
                raise ValueError(f"passive block must be {n}x{n}")
            # a diagonal block (loss, filter) has its largest |entry| as s_max
            diagonal = np.count_nonzero(m) == np.count_nonzero(np.diagonal(m))
            smax = np.max(np.abs(np.diagonal(m))) if diagonal else np.linalg.norm(m, 2)
            if smax > 1 + 1e-12:
                raise ValueError(f"passive matrix is not contractive (s_max = {smax})")
        else:
            raise ValueError(f"unknown transform kind {self.kind!r}")

    @property
    def rows(self) -> np.ndarray:
        """Doubled-basis rows of the target modes, annihilation then creation."""
        return subset_indices(self.layout, self.modes)

    @property
    def matrix(self) -> np.ndarray:
        """The full-layout matrix: 2N x 2N if symplectic, N x N if passive."""
        rows = self.rows
        if self.kind == "passive":
            rows = rows[:rows.size // 2]
        out = np.eye(2 * self.layout.n_modes if self.kind == "symplectic"
                     else self.layout.n_modes, dtype=complex)
        out[np.ix_(rows, rows)] = self.block
        return out


@dataclass(frozen=True)
class CovarianceState:
    """Vacuum-normalized covariance matrix in the doubled basis."""

    layout: ModeLayout
    sigma: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.layout.n_modes
        s = np.asarray(self.sigma, dtype=complex)
        if s.shape != (2 * n, 2 * n):
            raise ValueError(f"covariance matrix must be {2 * n}x{2 * n}")
        # sigma^dag as a contiguous copy, so the passes below stream through memory
        s_dag = np.ascontiguousarray(s.T)
        np.conjugate(s_dag, out=s_dag)
        # re-symmetrize to bound drift over long circuits
        hermitian = s + s_dag
        hermitian *= 0.5
        s_dag -= s
        if np.max(np.abs(s_dag)) > HERMITICITY_TOL * max(1.0, np.linalg.norm(s)):
            raise ValueError("covariance matrix is not Hermitian")
        object.__setattr__(self, "sigma", hermitian)

    @cached_property
    def quadrature(self) -> tuple[np.ndarray, float]:
        """Re(Q sigma Q^dag) in the real (x, p) basis, and the imaginary residual.

        Mode k keeps rows k and k + N, so ``subset_indices`` selects a
        spatial subset here as in sigma, and every principal minor keeps its
        determinant.  The residual is the largest |Im(Q sigma Q^dag)|
        relative to max(1, largest |Re|): zero up to rounding for a physical
        state.  Computed on first use and kept as long as the state.
        """
        n = self.layout.n_modes
        s = self.sigma
        a, b, c, d = s[:n, :n], s[:n, n:], s[n:, :n], s[n:, n:]
        u, v, w, y = a + d, b + c, a - d, b - c
        # Q sigma Q^dag = [[u + v, i (w - y)], [-i (w + y), u - v]] / 2
        blocks = ((u + v, 1j * (w - y)), (-1j * (w + y), u - v))
        real = np.empty((2 * n, 2 * n))
        imag = 0.0
        for i, row in enumerate(blocks):
            for j, block in enumerate(row):
                real[i * n:(i + 1) * n, j * n:(j + 1) * n] = block.real
                imag = max(imag, np.max(np.abs(block.imag)))
        real *= 0.5
        return real, 0.5 * imag / max(1.0, np.max(np.abs(real)))

    @property
    def sigma_tilde(self) -> np.ndarray:
        """sigma minus the identity (the vacuum-subtracted part)."""
        return self.sigma - np.eye(self.sigma.shape[0])


def vacuum_state(layout: ModeLayout) -> CovarianceState:
    """Vacuum on every mode of the layout."""
    return CovarianceState(layout, np.eye(2 * layout.n_modes, dtype=complex))


def apply(state: CovarianceState, t: Transform) -> CovarianceState:
    """Apply a transform on its own rows and columns of sigma.

    A symplectic block M updates sigma[rows, :] <- M sigma[rows, :] and then
    sigma[:, rows] <- sigma[:, rows] M^dag; a passive channel does the same
    to sigma - 1 with M = diag(U, U*).  A diagonal M multiplies elementwise.
    """
    if t.layout != state.layout:
        raise ValueError("transform layout does not match state layout")
    rows = t.rows
    out = state.sigma.copy()
    diagonal = np.diag_indices_from(out)
    if t.kind == "symplectic":
        m = t.block
    else:
        m = scipy.linalg.block_diag(t.block, t.block.conj())
        out[diagonal] -= 1
    if np.count_nonzero(m) == np.count_nonzero(np.diagonal(m)):
        # a diagonal block (loss, filter, delay, phase) scales rows and columns
        out[rows, :] *= np.diagonal(m)[:, None]
        out[:, rows] *= np.diagonal(m).conj()
    else:
        out[rows, :] = m @ out[rows, :]
        out[:, rows] = out[:, rows] @ m.conj().T
    if t.kind == "passive":
        out[diagonal] += 1
    return CovarianceState(state.layout, out)


def subset_indices(layout: ModeLayout, spatial_subset: Sequence[int]) -> np.ndarray:
    """Doubled-basis row indices of a spatial subset, annihilation then creation."""
    subset = list(spatial_subset)
    if not subset:
        raise ValueError("spatial subset must be nonempty")
    if len(set(subset)) != len(subset):
        raise ValueError("spatial subset contains duplicates")
    for i in subset:
        if not 0 <= i < layout.n_spatial:
            raise IndexError(f"spatial index {i} out of range")
    ann = np.concatenate([layout.spatial_block(i) for i in subset])
    return np.concatenate([ann, ann + layout.n_modes])
