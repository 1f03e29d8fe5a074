"""Mode bookkeeping, covariance states and symplectic / passive-channel maps.

Mode order used everywhere in this package: for a system with
``n_spatial`` spatial modes and ``n_spectral`` frequency bins, mode
``(i, w)`` is mode ``k = i * n_spectral + w`` of ``N = n_spatial *
n_spectral``.  Elements are given in the doubled basis, annihilation
operators first: a_k at row k and a_k^dag at row k + N.

States and elements are stored in the real quadrature basis, x_k =
(a_k + a_k^dag)/sqrt 2 at row k and p_k = -i (a_k - a_k^dag)/sqrt 2 at row
k + N, that is (x, p) = Q (a, a^dag) with Q unitary.  A state is
V = Re(Q sigma Q^dag) of its complex covariance matrix sigma: real
symmetric, the identity for the vacuum, with the same principal minors, so
``subset_indices`` selects a spatial subset in V as in sigma.  Q sigma
Q^dag is real exactly when sigma has the conjugate block structure
[[A, B], [B*, A*]] of a physical state; ``CovarianceState.from_sigma``, the
one way in for a complex sigma, checks that once.  An element's complex
block M becomes the real S = Q M Q^dag, symplectic (S J S^T = J) for a
unitary element; a passive channel's contraction U becomes
T = [[Re U, -Im U], [Im U, Re U]].  The whole circuit then runs in real
arithmetic, and detection reads V directly.

An element is kept as its own real block plus the spatial modes it acts on
(``Transform``), and ``apply`` updates only those rows and columns of V: an
element on k spatial modes costs O((k n_f)^2 N) instead of the O(N^3) of a
dense 2N x 2N product.  The block's rows fall into 2k runs of n_f rows,
the x and then the p quadratures of each target mode.  A block that never
mixes frequency bins (beam-splitter, phase, delay, loss, filter) has a
diagonal sub-block for every pair of runs; it is read as per-bin
couplings c[a, b, w] (``_bin_couplings``), applied as scaled sums of row
runs in O(k^2 n_f N), and checked bin by bin, as n_f blocks of size
2k x 2k.  A block that mixes bins, such as a multimode squeezer, keeps
the dense product and check.  ``CovarianceState.sigma`` and ``Transform.matrix`` rebuild the
complex forms on request; the circuit never calls them.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

SYMPLECTIC_TOL = 1e-12
HERMITICITY_TOL = 1e-10
STRUCTURE_TOL = 1e-10


class UnphysicalStateError(ValueError):
    """A determinant came out negative, or sigma lacks the conjugate structure."""


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
        """The commutation metric K = diag(+1 x N, -1 x N) of the (a, a^dag) basis."""
        n = self.n_modes
        return np.diag(np.concatenate([np.ones(n), -np.ones(n)]))

    def symplectic_form(self) -> np.ndarray:
        """J = [[0, 1], [-1, 0]] of the (x, p) basis, Q K Q^dag = i J."""
        return np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(self.n_modes))


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


def _quadrature_form(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Re(Q m Q^dag) for a complex doubled-basis matrix m, and its imaginary residual.

    Elementwise on the four blocks of m, with no matrix product.  The
    residual is the largest |Im(Q m Q^dag)| relative to max(1, largest
    |Re|): zero up to rounding exactly when m = [[A, B], [B*, A*]].
    """
    n = m.shape[0] // 2
    a, b, c, d = m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:]
    u, v, w, y = a + d, b + c, a - d, b - c
    # Q m Q^dag = [[u + v, i (w - y)], [-i (w + y), u - v]] / 2
    blocks = ((u + v, 1j * (w - y)), (-1j * (w + y), u - v))
    real = np.empty((2 * n, 2 * n))
    imag = []
    for i, row in enumerate(blocks):
        for j, block in enumerate(row):
            real[i * n:(i + 1) * n, j * n:(j + 1) * n] = block.real
            imag.append(np.max(np.abs(block.imag)))
    real *= 0.5
    return real, 0.5 * np.max(imag) / max(1.0, np.max(np.abs(real)))


def _complex_form(v: np.ndarray) -> np.ndarray:
    """Q^dag v Q for a real (x, p)-basis matrix v: [[A, B], [B*, A*]]."""
    n = v.shape[0] // 2
    xx, xp, px, pp = v[:n, :n], v[:n, n:], v[n:, :n], v[n:, n:]
    a = (xx + pp + 1j * (px - xp)) / 2
    b = (xx - pp + 1j * (xp + px)) / 2
    return np.block([[a, b], [b.conj(), a.conj()]])


def _bin_couplings(block: np.ndarray, n_f: int) -> np.ndarray | None:
    """Per-bin couplings c[a, b, w] of a real block over its runs of ``n_f`` rows.

    A k-mode block has 2k runs (x then p quadratures of each target mode),
    and c[a, b, w] is its entry from row w of run b to row w of run a.
    Returned only when nothing off those run-by-run diagonals is nonzero,
    that is when the block never mixes frequency bins (beam-splitter,
    delay, phase, loss, filter); None otherwise.
    """
    runs = block.shape[0] // n_f
    couplings = np.diagonal(block.reshape(runs, n_f, runs, n_f), axis1=1, axis2=3)
    return couplings if np.count_nonzero(block) == np.count_nonzero(couplings) else None


def _left_multiply(block: np.ndarray, couplings: np.ndarray | None,
                   m: np.ndarray) -> np.ndarray:
    """block @ m, as scaled sums of row runs when ``couplings`` is given."""
    if couplings is None:
        return block @ m
    runs, _, n_f = couplings.shape
    m = m.reshape(runs, n_f, -1)
    out = np.zeros_like(m)
    for a, b in zip(*np.nonzero(np.any(couplings, axis=2))):
        out[a] += couplings[a, b, :, None] * m[b]
    return out.reshape(runs * n_f, -1)


def _bin_blocks(block: np.ndarray, n_f: int) -> np.ndarray:
    """A real block as a stack of square blocks that together make it up.

    A bin-local block (``_bin_couplings``) is, up to a reordering of rows
    and columns, the direct sum of its n_f per-bin 2k x 2k blocks c[:, :, w];
    any other block is a stack of itself alone.  Either way the block is
    symplectic or contractive exactly when every stacked block is.
    """
    couplings = _bin_couplings(block, n_f)
    return block[None] if couplings is None else np.moveaxis(couplings, 2, 0)


@dataclass(frozen=True)
class Transform:
    """An element's own block and the spatial modes of ``layout`` it acts on.

    ``modes`` names the target spatial modes in block order (all modes of
    the layout when omitted); every other mode sees the identity.  With
    ``k`` target modes of ``n_f`` bins each, ``block`` is given in the
    doubled (a, a^dag) basis of the targets and stored as a real 2 k n_f
    square matrix in their (x, p) basis:

    ``kind == "symplectic"``: given as the 2 k n_f square M with
    M K M^dag = K and the conjugate block structure, stored as
    S = Q M Q^dag with S J S^T = J, and applied as V -> S V S^T on the
    target rows and columns.

    ``kind == "passive"``: given as the k n_f square contraction U on the
    target annihilation operators (acting conjugated on their creation
    operators), stored as T = [[Re U, -Im U], [Im U, Re U]], and applied as
    V - 1 -> T (V - 1) T^T.

    Both checks run on the stored block alone, which is exact: identity (+)
    block is symplectic or contractive exactly when the block is.  A block
    that never mixes frequency bins is checked bin by bin (``_bin_blocks``),
    at the same strength.
    ``matrix`` builds the complex full-layout matrix on request.
    """

    kind: str
    block: np.ndarray = field(repr=False)
    layout: ModeLayout
    modes: tuple | None = None

    def __post_init__(self):
        modes = tuple(range(self.layout.n_spatial)) if self.modes is None else tuple(self.modes)
        object.__setattr__(self, "modes", modes)
        # validates the modes: nonempty, distinct and inside the layout
        size = subset_indices(self.layout, modes).size
        if self.kind not in ("symplectic", "passive"):
            raise ValueError(f"unknown transform kind {self.kind!r}")
        n = size if self.kind == "symplectic" else size // 2
        m = np.asarray(self.block, dtype=complex)
        if m.shape != (n, n):
            raise ValueError(f"{self.kind} block must be {n}x{n}")
        if not np.all(np.isfinite(m)):
            raise ValueError(f"{self.kind} block has non-finite entries")
        if self.kind == "symplectic":
            s, imag = _quadrature_form(m)
            if not imag <= SYMPLECTIC_TOL:
                raise ValueError(f"symplectic block lacks the conjugate block structure "
                                 f"(relative |Im(Q M Q^dag)| = {imag:.2e})")
            blocks = _bin_blocks(s, self.layout.n_spectral)
            half = blocks.shape[1] // 2
            # S J moves the columns of S: [-S_p, S_x]
            s_j = np.concatenate([-blocks[:, :, half:], blocks[:, :, :half]], axis=2)
            j = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(half))
            residual = np.max(np.abs(s_j @ blocks.transpose(0, 2, 1) - j))
            if not residual <= SYMPLECTIC_TOL * max(1.0, np.max(np.abs(s)) ** 2):
                raise ValueError(f"matrix is not symplectic (residual {residual:.2e})")
        else:
            s = np.block([[m.real, -m.imag], [m.imag, m.real]])
            smax = np.max(np.linalg.norm(_bin_blocks(s, self.layout.n_spectral), 2,
                                         axis=(1, 2)))
            if not smax <= 1 + 1e-12:
                raise ValueError(f"passive matrix is not contractive (s_max = {smax})")
        object.__setattr__(self, "block", s)

    def on_modes(self, modes: Sequence[int]) -> Transform:
        """The same block on other target modes, without repeating its checks."""
        modes = tuple(modes)
        if len(modes) != len(self.modes):
            raise ValueError(f"block acts on {len(self.modes)} spatial modes, not {len(modes)}")
        subset_indices(self.layout, modes)
        moved = copy.copy(self)
        object.__setattr__(moved, "modes", modes)
        return moved

    @property
    def rows(self) -> np.ndarray:
        """Rows of the target modes in V, x quadratures then p quadratures."""
        return subset_indices(self.layout, self.modes)

    @property
    def matrix(self) -> np.ndarray:
        """The complex full-layout matrix: 2N x 2N M if symplectic, N x N U if passive."""
        rows = self.rows
        m = _complex_form(self.block)
        if self.kind == "passive":
            rows = rows[:rows.size // 2]
            m = m[:rows.size, :rows.size]
        out = np.eye(2 * self.layout.n_modes if self.kind == "symplectic"
                     else self.layout.n_modes, dtype=complex)
        out[np.ix_(rows, rows)] = m
        return out


@dataclass(frozen=True)
class CovarianceState:
    """Vacuum-normalized covariance matrix V = Re(Q sigma Q^dag), real (x, p) basis."""

    layout: ModeLayout
    v: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.layout.n_modes
        if np.iscomplexobj(self.v):
            raise TypeError("V is real: build a state from a complex sigma "
                            "with CovarianceState.from_sigma")
        v = np.asarray(self.v, dtype=float)
        if v.shape != (2 * n, 2 * n):
            raise ValueError(f"covariance matrix must be {2 * n}x{2 * n}")
        # V^T as a contiguous copy, so the passes below stream through memory
        v_t = v.T.copy()
        # re-symmetrize to bound drift over long circuits
        symmetric = v + v_t
        symmetric *= 0.5
        v_t -= v
        residual = np.max(np.abs(v_t, out=v_t))
        # written so that a NaN anywhere fails the check
        if not residual <= HERMITICITY_TOL * max(1.0, np.linalg.norm(v)):
            raise ValueError(f"covariance matrix is not symmetric (residual {residual:.2e})")
        object.__setattr__(self, "v", symmetric)

    @classmethod
    def from_sigma(cls, layout: ModeLayout, sigma: np.ndarray) -> CovarianceState:
        """The state of a complex covariance matrix sigma in the (a, a^dag) basis.

        sigma must be Hermitian and have the conjugate block structure of a
        physical state, so that Q sigma Q^dag is real: its imaginary
        residual is checked here, once, and raises ``UnphysicalStateError``.
        """
        n = layout.n_modes
        s = np.asarray(sigma, dtype=complex)
        if s.shape != (2 * n, 2 * n):
            raise ValueError(f"covariance matrix must be {2 * n}x{2 * n}")
        residual = np.max(np.abs(s - s.conj().T))
        if not residual <= HERMITICITY_TOL * max(1.0, np.linalg.norm(s)):
            raise ValueError("covariance matrix is not Hermitian")
        v, imag = _quadrature_form(s)
        if not imag <= STRUCTURE_TOL:
            raise UnphysicalStateError(
                f"covariance matrix lacks the conjugate block structure "
                f"(relative |Im(Q sigma Q^dag)| = {imag:.2e})")
        return cls(layout, v)

    @property
    def sigma(self) -> np.ndarray:
        """The complex covariance matrix Q^dag V Q in the (a, a^dag) basis."""
        return _complex_form(self.v)

    @property
    def sigma_tilde(self) -> np.ndarray:
        """sigma minus the identity (the vacuum-subtracted part)."""
        return self.sigma - np.eye(self.v.shape[0])


def vacuum_state(layout: ModeLayout) -> CovarianceState:
    """Vacuum on every mode of the layout."""
    return CovarianceState(layout, np.eye(2 * layout.n_modes))


def apply(state: CovarianceState, t: Transform) -> CovarianceState:
    """Apply a transform on its own rows and columns of V.

    With B the block (S, or T on V - 1 for a passive channel), the target
    rows become B V[rows, :] with B^T applied to their own columns, and
    since the result is symmetric the target columns are their transpose.
    A block that never mixes frequency bins multiplies as scaled sums of
    row runs (``_bin_couplings``); any other block as a dense product.
    """
    if t.layout != state.layout:
        raise ValueError("transform layout does not match state layout")
    rows = t.rows
    out = state.v.copy()
    if t.kind == "passive":
        out[rows, rows] -= 1
    couplings = _bin_couplings(t.block, state.layout.n_spectral)
    band = _left_multiply(t.block, couplings, out[rows])
    band[:, rows] = _left_multiply(t.block, couplings, band[:, rows].T).T
    out[rows] = band
    out[:, rows] = band.T
    if t.kind == "passive":
        out[rows, rows] += 1
    return CovarianceState(state.layout, out)


def subset_indices(layout: ModeLayout, spatial_subset: Sequence[int]) -> np.ndarray:
    """Rows of a spatial subset, annihilation (x) rows then creation (p) rows."""
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
