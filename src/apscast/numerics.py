"""Low-level numerical primitives: J0, Gauss-Legendre rules, PSD pseudo-inverse.

The production engine needs only fixed Gauss-Legendre rules; J0, the
adaptive quadrature and the eigendecomposition-based pseudo-inverse are the
independent reference paths its tests check it against.  Accuracy targets
are deliberately tight: J0 to ~1e-15 absolute, quadrature to the requested
tolerance on smooth integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError

__all__ = [
    "QuadratureSpec",
    "PinvSpec",
    "QuadratureResult",
    "PinvResult",
    "bessel_j0",
    "gauss_legendre",
    "integrate",
    "pinv_psd",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Adaptive composite Gauss-Legendre settings.

    ``panel_order`` Gauss-Legendre nodes per panel; a panel is accepted when
    the bisection estimate changes by less than the per-panel share of
    ``abs_tol`` / ``rel_tol``; panels are bisected at most
    ``max_subdivisions`` times.
    """

    panel_order: int = 32
    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_subdivisions: int = 20

    def __post_init__(self) -> None:
        if self.panel_order < 2:
            raise ContractError(f"panel_order must be >= 2, got {self.panel_order}")
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ContractError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ContractError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class PinvSpec:
    """Relative eigenvalue cutoff for the Gram pseudo-inverse.

    Eigenvalues of G below ``rel_cutoff * max eigenvalue`` are treated as
    exact zeros.  The engine factors the sampled basis X (G = X^T X), so it
    keeps the singular values s of X with ``s**2 > rel_cutoff * max(s)**2``:
    the cutoff is on squared singular values of X, not on singular values.
    """

    rel_cutoff: float = 1e-5

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_cutoff < 1.0):
            raise ContractError(f"rel_cutoff must lie in (0, 1), got {self.rel_cutoff}")


@dataclass(frozen=True)
class QuadratureResult:
    """Integral estimate plus convergence status.

    ``converged`` is False when some panel hit the subdivision limit before
    meeting tolerance; the value is then the best available estimate and
    ``error`` its (crude) accumulated bisection-difference estimate.
    """

    value: float
    error: float
    converged: bool
    panels: int


@dataclass(frozen=True)
class PinvResult:
    """Pseudo-inverse with spectral diagnostics.

    ``eigenvalues``/``eigenvectors`` hold the full symmetric eigensystem and
    ``kept`` flags the retained directions.  G^+ is never formed densely:
    its entries are O(1/lambda_min) and their cancellation destroys small
    quadratic forms, so ``quad_form`` and ``apply`` work in the eigenbasis.
    """

    rank: int
    sigma_max: float
    sigma_min_retained: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    kept: np.ndarray

    @property
    def condition(self) -> float:
        if self.rank == 0:
            return math.inf
        return self.sigma_max / self.sigma_min_retained

    def quad_form(self, z: np.ndarray) -> float:
        """z^T G^+ z evaluated in the eigenbasis (numerically stable)."""
        t = self.eigenvectors[:, self.kept].T @ np.asarray(z, dtype=float)
        lam = self.eigenvalues[self.kept]
        return float(np.dot(t, t / lam))

    def apply(self, z: np.ndarray) -> np.ndarray:
        """G^+ z evaluated in the eigenbasis; z may be a vector or a matrix."""
        vk = self.eigenvectors[:, self.kept]
        lam = self.eigenvalues[self.kept]
        return vk @ ((vk.T @ np.asarray(z, dtype=float)).T / lam).T


# ---------------------------------------------------------------------------
# Bessel J0
# ---------------------------------------------------------------------------

# Double-double helpers (Dekker splitting).  The power series for J0 suffers
# ~1e4 cancellation near x = 12; accumulating terms in double-double keeps the
# result correct to the last ulp without arbitrary precision.

_SPLITTER = 134217729.0  # 2**27 + 1


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    t = _SPLITTER * a
    ahi = t - (t - a)
    alo = a - ahi
    t = _SPLITTER * b
    bhi = t - (t - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _dd_add(xh: float, xl: float, yh: float, yl: float) -> tuple[float, float]:
    sh, sl = _two_sum(xh, yh)
    return _two_sum(sh, sl + xl + yl)


def _dd_mul(xh: float, xl: float, yh: float, yl: float) -> tuple[float, float]:
    ph, pl = _two_prod(xh, yh)
    return _two_sum(ph, pl + xh * yl + xl * yh)


def _dd_div_scalar(xh: float, xl: float, n: float) -> tuple[float, float]:
    q1 = xh / n
    ph, pl = _two_prod(q1, n)
    rh, rl = _dd_add(xh, xl, -ph, -pl)
    return _two_sum(q1, (rh + rl) / n)


def _j0_series(x: float) -> float:
    """Power series sum_m (-1)^m (x/2)^{2m} / (m!)^2 in double-double."""
    zh, zl = _two_prod(x, x)
    zh, zl = _dd_mul(zh, zl, 0.25, 0.0)
    th, tl = 1.0, 0.0
    sh, sl = 1.0, 0.0
    m = 0
    while True:
        m += 1
        th, tl = _dd_mul(th, tl, -zh, -zl)
        th, tl = _dd_div_scalar(th, tl, float(m * m))
        sh, sl = _dd_add(sh, sl, th, tl)
        if abs(th) < 1e-20 * max(1.0, abs(sh)) or m > 200:
            return sh + sl


# Hankel-expansion rational approximations for |x| > 12 (classic Cephes
# coefficient tables; peak absolute error ~4e-16 on the asymptotic branch).
_PP = (
    7.96936729297347051624e-4, 8.28352392107440799803e-2, 1.23953371646414299388e0,
    5.44725003058768775090e0, 8.74716500199817011941e0, 5.30324038235394892183e0,
    9.99999999999999997821e-1,
)
_PQ = (
    9.24408810558863637013e-4, 8.56288474354474431428e-2, 1.25352743901058953537e0,
    5.47097740330417105182e0, 8.76190883237069594232e0, 5.30605288235394617618e0,
    1.00000000000000000218e0,
)
_QP = (
    -1.13663838898469149931e-2, -1.28252718670509318512e0, -1.95539544257735972385e1,
    -9.32060152123768231369e1, -1.77681167980488790968e2, -1.47077505154951170175e2,
    -5.14105326766599330220e1, -6.05014350600728481186e0,
)
_QQ = (
    6.43178256118178023184e1, 8.56430025976980587198e2, 3.88240183605401609683e3,
    7.24046774195652478189e3, 5.93072701187316984827e3, 2.06209331660327847417e3,
    2.42005740240291393179e2,
)
_SQ2OPI = 7.9788456080286535587989e-1  # sqrt(2/pi)
_PIO4 = 0.785398163397448309615660845819875721


def _polevl(x: float, coef: Sequence[float]) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: Sequence[float]) -> float:
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _j0_asymptotic(x: float) -> float:
    w = 5.0 / x
    z = 25.0 / (x * x)
    p = _polevl(z, _PP) / _polevl(z, _PQ)
    q = _polevl(z, _QP) / _p1evl(z, _QQ)
    xn = x - _PIO4
    return _SQ2OPI * (p * math.cos(xn) - w * q * math.sin(xn)) / math.sqrt(x)


def bessel_j0(x: float) -> float:
    """Bessel function of the first kind, order zero.

    Power series (double-double compensated) for |x| <= 12, Hankel-form
    rational approximation beyond.  Absolute error stays below ~2e-15 for
    |x| <= 500.  Even in x by construction.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ContractError(f"bessel_j0 requires finite input, got {x!r}")
    ax = abs(x)
    if ax <= 12.0:
        return _j0_series(ax)
    return _j0_asymptotic(ax)


# ---------------------------------------------------------------------------
# Adaptive composite Gauss-Legendre quadrature
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _panel_estimate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                    order: int) -> float:
    nodes, weights = gauss_legendre(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.dot(weights, f(mid + half * nodes)))


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec = QuadratureSpec(),
    breakpoints: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate ``f`` over [a, b] with adaptive composite Gauss-Legendre.

    ``f`` must accept a numpy array of nodes and return values elementwise.
    ``breakpoints`` seeds initial panel boundaries (mask edges, kinks);
    points outside (a, b) are ignored.  Non-convergence is reported through
    ``QuadratureResult.converged`` rather than raised: the caller decides
    whether a flagged estimate is acceptable.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ContractError("integration limits must be finite")
    if a > b:
        raise ContractError(f"integrate requires a <= b, got a={a}, b={b}")
    if a == b:
        return QuadratureResult(0.0, 0.0, True, 0)

    edges = [a] + sorted(p for p in set(breakpoints) if a < p < b) + [b]
    total_len = b - a
    order = spec.panel_order

    seeds = [(lo, hi, _panel_estimate(f, lo, hi, order)) for lo, hi in zip(edges[:-1], edges[1:])]
    scale = max(1.0, abs(sum(s[2] for s in seeds)))

    value = 0.0
    err_acc = 0.0
    converged = True
    panels = 0
    stack = [(lo, hi, est, 0) for lo, hi, est in seeds]
    while stack:
        lo, hi, coarse, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = _panel_estimate(f, lo, mid, order)
        right = _panel_estimate(f, mid, hi, order)
        fine = left + right
        err = abs(fine - coarse)
        tol_here = max(spec.abs_tol, spec.rel_tol * scale) * (hi - lo) / total_len
        if err <= tol_here or depth >= spec.max_subdivisions:
            if err > tol_here:
                converged = False
            value += fine
            err_acc += err
            panels += 2
            continue
        stack.append((lo, mid, left, depth + 1))
        stack.append((mid, hi, right, depth + 1))
    return QuadratureResult(value, err_acc, converged, panels)


# ---------------------------------------------------------------------------
# PSD pseudo-inverse
# ---------------------------------------------------------------------------


def pinv_psd(G: np.ndarray, spec: PinvSpec = PinvSpec()) -> PinvResult:
    """Moore-Penrose pseudo-inverse of a symmetric (near-)PSD matrix.

    Uses a symmetric eigendecomposition; eigenvalues below
    ``spec.rel_cutoff * max|eigenvalue|`` in magnitude are annihilated.
    Raises ContractError when the input is asymmetric beyond 1e-12
    (relative to its largest entry).
    """
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ContractError(f"pinv_psd expects a square matrix, got shape {G.shape}")
    scale = max(1.0, float(np.abs(G).max()) if G.size else 1.0)
    asym = float(np.abs(G - G.T).max()) if G.size else 0.0
    if asym > 1e-12 * scale:
        raise ContractError(f"matrix is asymmetric: max |G - G^T| = {asym:.3e}")

    Gs = 0.5 * (G + G.T)
    eigenvalues, eigenvectors = np.linalg.eigh(Gs)
    sigma_max = float(np.abs(eigenvalues).max()) if eigenvalues.size else 0.0
    if sigma_max == 0.0:
        kept = np.zeros(G.shape[0], dtype=bool)
    else:
        kept = np.abs(eigenvalues) > spec.rel_cutoff * sigma_max
    rank = int(kept.sum())
    sigma_min = float(np.abs(eigenvalues[kept]).min()) if rank else 0.0

    return PinvResult(
        rank=rank,
        sigma_max=sigma_max,
        sigma_min_retained=sigma_min,
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        kept=kept,
    )
