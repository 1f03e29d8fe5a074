"""Joint-spectral-amplitude models, discretization and Schmidt decomposition.

A sampled JSA is a plain complex n_f x n_f array: row k is signal bin k,
column l is idler bin l, and its Frobenius norm is the squeezing parameter
xi.  ``squeezer`` and ``fock_from_jsa`` take it as is.

All frequencies are angular (rad/s).  Helpers are provided to convert from
the units experimentalists quote (THz for bandwidths and centers, ps for
delays and walk-off lengths).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import FrequencyGrid

TWO_PI = 2 * np.pi

# unit conversions to internal angular frequency / seconds
THZ = TWO_PI * 1e12        # ordinary frequency in THz -> rad/s
PS = 1e-12                 # picoseconds -> s

TELECOM_CENTER = 193.1e12 * TWO_PI  # 193.1 THz, the band used throughout


@dataclass(frozen=True)
class JsaSpec:
    """Parametric joint-spectral-amplitude model.

    variant:
        ``gaussian``     separable product of two Gaussians, single Schmidt mode
        ``waveguide``    Gaussian in the sum frequency times a sinc in the
                         difference, the generic non-separable phase-matched form
        ``double_lobe``  separable JSA whose idler marginal is two Gaussian
                         lobes with a relative sign at
                         ``idler_center +- lobe_separation / 2``; being
                         rank 1, it heralds a coherent two-color photon
                         that beats in a delay scan
    """

    variant: str
    xi: float
    zeta: float
    signal_center: float = TELECOM_CENTER
    idler_center: float = TELECOM_CENTER
    walkoff: float = 0.0           # group-velocity walk-off time (s), waveguide only
    lobe_separation: float = 0.0   # rad/s, double_lobe only
    relative_sign: int = 1         # +-1, double_lobe only

    def __post_init__(self):
        if self.variant not in ("gaussian", "waveguide", "double_lobe"):
            raise ValueError(f"unknown JSA variant {self.variant!r}")
        if not 0 <= self.xi < math.inf:
            raise ValueError("squeezing parameter must be nonnegative and finite")
        if not 0 < self.zeta < math.inf:
            raise ValueError("bandwidth must be positive and finite")
        if not (math.isfinite(self.signal_center) and math.isfinite(self.idler_center)):
            raise ValueError("signal and idler centers must be finite")
        if self.variant == "waveguide" and not 0 < self.walkoff < math.inf:
            raise ValueError("waveguide JSA needs a positive, finite walk-off time")
        if self.variant == "double_lobe":
            if not 0 < self.lobe_separation < math.inf:
                raise ValueError("double-lobe JSA needs a positive, finite lobe separation")
            if self.relative_sign not in (+1, -1):
                raise ValueError("relative sign must be +1 or -1")


@dataclass(frozen=True)
class SchmidtData:
    """SVD of a JSA matrix: f = u @ diag(values) @ vh."""

    values: np.ndarray
    u: np.ndarray = field(repr=False)
    vh: np.ndarray = field(repr=False)


def default_grid(spec: JsaSpec, n_bins: int = 41, span_factor: float = 4.0) -> FrequencyGrid:
    """Grid spanning ``+- span_factor * scale`` around the signal center.

    The scale is the bandwidth, widened for waveguide JSAs whose sinc factor
    has side lobes on the scale 2 pi / walkoff.  The step never exceeds
    zeta / 4, the coarsest step ``build_jsa`` accepts; where that cap binds,
    the span narrows instead, with a warning that names the bin count that
    would cover the full span.
    """
    scale = spec.zeta
    if spec.variant == "waveguide":
        scale = max(scale, TWO_PI / spec.walkoff)
    if spec.variant == "double_lobe":
        scale = max(scale, spec.lobe_separation / 8 + spec.zeta)
    half_span = span_factor * scale
    step = 2 * half_span / max(n_bins - 1, 1)
    if step > spec.zeta / 4:
        step = spec.zeta / 4
        needed = math.ceil(2 * half_span / step) + 1
        warnings.warn(f"default grid narrowed: with the step capped at zeta/4 = "
                      f"{step:.3e} rad/s, {n_bins} bins span +-{(n_bins - 1) / 2 * step:.3e} "
                      f"rad/s instead of +-{half_span:.3e} rad/s; {needed} bins would "
                      "cover it", stacklevel=2)
    return FrequencyGrid(spec.signal_center, step, n_bins)


def _lobe(offsets: np.ndarray, center: float, width: float) -> np.ndarray:
    return np.exp(-0.5 * ((offsets - center) / width) ** 2)


def build_jsa(spec: JsaSpec, grid_signal: FrequencyGrid) -> np.ndarray:
    """Sample a JSA model on ``grid_signal`` and normalize it to the spec's xi.

    Returns the complex n_f x n_f matrix f with rows on the signal bins and
    columns on the idler bins, the signal grid moved to the spec's idler
    center.  Its Frobenius norm is xi, so its singular values are the
    per-Schmidt-mode squeezing strengths.
    """
    grid_idler = FrequencyGrid(spec.idler_center, grid_signal.step, grid_signal.n_bins)
    if grid_signal.step > spec.zeta / 4:
        raise ValueError("frequency grid is too coarse for this bandwidth "
                         f"(step {grid_signal.step:.3e} > zeta/4 = {spec.zeta / 4:.3e})")
    # the idler grid has the same span and sits on its center by construction
    span = (grid_signal.n_bins - 1) / 2 * grid_signal.step
    off_center = abs(grid_signal.center - spec.signal_center) > grid_signal.step / 2
    if span < 4 * spec.zeta or off_center:
        warnings.warn("frequency grid does not cover +-4 zeta around the JSA center",
                      stacklevel=2)

    d1 = grid_signal.frequencies() - spec.signal_center  # signal offsets, rad/s
    d2 = grid_idler.frequencies() - spec.idler_center

    if spec.variant == "gaussian":
        # exact outer product, rank 1 by construction
        f = np.outer(_lobe(d1, 0.0, spec.zeta), _lobe(d2, 0.0, spec.zeta))
    elif spec.variant == "waveguide":
        s = d1[:, None] + d2[None, :]
        d = d1[:, None] - d2[None, :]
        f = np.exp(-0.5 * (s / spec.zeta) ** 2) * np.sinc(spec.walkoff * d / (2 * np.pi))
    else:  # double_lobe: rank-1, idler marginal has two signed lobes
        half = spec.lobe_separation / 2
        f = np.outer(_lobe(d1, 0.0, spec.zeta),
                     _lobe(d2, +half, spec.zeta)
                     + spec.relative_sign * _lobe(d2, -half, spec.zeta))

    norm = np.linalg.norm(f)
    if norm == 0:
        raise ValueError("JSA vanishes on this grid")
    return (spec.xi * f / norm).astype(complex)


def schmidt_decompose(f: np.ndarray) -> SchmidtData:
    """SVD of a JSA matrix ``f``, taken in complex arithmetic, with descending
    singular values."""
    f = np.asarray(f, dtype=complex)
    if not np.all(np.isfinite(f)):
        raise ValueError("JSA matrix contains non-finite entries")
    u, s, vh = np.linalg.svd(f)
    return SchmidtData(s, u, vh)
