"""Seeded benchmark inputs, generated without the package under test.

Spectra are unit-norm mixtures of two-sided exponential bumps clipped to a
support set, the same family as ``apscast.experiments.ApsModel``.  Their
covariance vectors ``r_k = <rho, g_k>`` come from a fixed composite
Gauss-Legendre rule written here in numpy, so a later change to the
package's own quadrature cannot shift the benchmark's inputs or its
reference answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HALF_PI = math.pi / 2.0

# Panel width and order of the reference rule.  A panel holds at most
# omega_max * width ~ 33 rad of phase at N=64 (omega_max ~ 219), far inside
# what 32 Gauss-Legendre nodes integrate to double precision.
PANEL_WIDTH = 0.15
PANEL_ORDER = 32
_GL_X, _GL_W = np.polynomial.legendre.leggauss(PANEL_ORDER)


@dataclass(frozen=True)
class Spectrum:
    """norm * sum_j weight_j exp(-|theta - center_j| / scale_j) on ``support``
    (None: all of [-pi/2, pi/2]), zero elsewhere; unit L2 norm."""

    peaks: tuple[tuple[float, float, float], ...]   # (center, scale, weight)
    support: tuple[tuple[float, float], ...] | None
    norm: float

    def pieces(self) -> list[tuple[float, float]]:
        ivs = self.support if self.support is not None else ((-HALF_PI, HALF_PI),)
        out = []
        for a, b in ivs:
            cuts = sorted({c for c, _, _ in self.peaks if a < c < b})
            edges = [a, *cuts, b]
            out.extend(zip(edges[:-1], edges[1:]))
        return out

    def raw(self, theta: np.ndarray) -> np.ndarray:
        vals = np.zeros_like(theta)
        for c, s, w in self.peaks:
            vals += w * np.exp(-np.abs(theta - c) / s)
        return vals


def nodes_weights(pieces: list[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights over smooth pieces."""
    xs, ws = [], []
    for a, b in pieces:
        m = max(1, math.ceil((b - a) / PANEL_WIDTH))
        edges = np.linspace(a, b, m + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
        half = 0.5 * np.diff(edges)[:, None]
        xs.append((mid + half * _GL_X).ravel())
        ws.append((half * _GL_W).ravel())
    return np.concatenate(xs), np.concatenate(ws)


def bump_design(rng: np.random.Generator, max_peaks: int = 3) -> tuple:
    """Support-free description of 1..max_peaks bumps: per bump, a point in
    [0, 1) that picks the interval (by length), a relative position inside
    it, a scale and a weight."""
    return tuple((float(rng.uniform()), float(rng.uniform()),
                  float(rng.uniform(0.02, 0.2)), float(rng.uniform(0.2, 1.0)))
                 for _ in range(int(rng.integers(1, max_peaks + 1))))


def place(design: tuple, support, rng: np.random.Generator | None = None,
          jitter: float = 0.0) -> Spectrum:
    """The spectrum of ``design`` inside ``support`` (a list of intervals, or
    None for the whole angle range).  With ``rng``, each bump's relative
    position moves by up to +-jitter and its scale and weight by up to
    +-jitter relative."""
    ivs = tuple((float(a), float(b)) for a, b in support) if support else None
    choices = ivs if ivs is not None else ((-HALF_PI, HALF_PI),)
    lengths = np.array([b - a for a, b in choices])
    cumulative = np.cumsum(lengths) / lengths.sum()
    peaks = []
    for pick, pos, scale, weight in design:
        if rng is not None:
            pos = min(1.0, max(0.0, pos + rng.uniform(-jitter, jitter)))
            scale *= 1.0 + rng.uniform(-jitter, jitter)
            weight *= 1.0 + rng.uniform(-jitter, jitter)
        a, b = choices[min(int(np.searchsorted(cumulative, pick, side="right")),
                           len(choices) - 1)]
        pad = 0.03 * (b - a)
        peaks.append((a + pad + pos * (b - a - 2.0 * pad), scale, weight))
    unnormed = Spectrum(tuple(peaks), ivs, 1.0)
    x, w = nodes_weights(unnormed.pieces())
    norm = 1.0 / math.sqrt(float(w @ unnormed.raw(x) ** 2))
    return Spectrum(tuple(peaks), ivs, norm)


def r_vector(spec: Spectrum, omegas: np.ndarray) -> np.ndarray:
    """[<rho, cos(omega_k sin)>; <rho, sin(omega_k sin)>], length 2N."""
    x, w = nodes_weights(spec.pieces())
    wr = w * spec.norm * spec.raw(x)
    phase = np.outer(omegas, np.sin(x))
    return np.concatenate([np.cos(phase) @ wr, np.sin(phase) @ wr])


def ula_omegas(n: int, spacing: float) -> np.ndarray:
    """2 pi (f d / c) (k - 1), k = 1..n, for a unitless spacing f d / c."""
    return 2.0 * math.pi * spacing * np.arange(n, dtype=float)
