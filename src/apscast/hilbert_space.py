"""Elements of L2([-pi/2, pi/2]) and their inner-product machinery.

Every function handled by the package is a trigonometric array-manifold
kernel ``cos(omega * sin(theta))`` or ``sin(omega * sin(theta))``, optionally
zeroed on a union of closed angle intervals (a support mask).
Keeping functions symbolic gives exact Bessel closed forms for unmasked
inner products and lets the Gram engine sample every kernel on one
quadrature rule with breaks at the mask edges.  ``inner_product`` and its
relatives are the tests' reference paths, not the engine's: unmasked pairs
take the closed forms and masked pairs ``numerics.integrate`` at its one
setting, so they take no quadrature argument.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError, NumericalConsistencyError
from .numerics import bessel_j0, gauss_legendre, integrate
from .records import HALF_PI, SupportSet

__all__ = [
    "Trig",
    "AngularFunction",
    "inner_product",
    "inner_product_with_status",
    "inner_product_quadrature",
    "norm_sq",
    "mask",
    "sampling_rule",
    "sample",
    "clamp_residual_sq",
    "RESIDUAL_CLAMP",
]

# Reference path only (the difference form ||g||^2 - z^T G^+ z, which can
# cancel to either sign): squared-residual values within RESIDUAL_CLAMP of
# zero are reported as an exact zero; values below -RESIDUAL_CLAMP raise
# NumericalConsistencyError.  The engine's SVD residuals are sums of squares
# and use the relative floor in ``bounds_analysis.compute_bounds`` instead.
RESIDUAL_CLAMP = 1e-9


class Trig(enum.Enum):
    COSINE = "cos"
    SINE = "sin"


@dataclass(frozen=True)
class AngularFunction:
    """trig(omega * sin(theta)), zeroed on ``mask`` when present.

    ``mask`` is the zero set: the function equals its trig kernel outside the
    mask and 0 on it (the image of the support-information projection).
    A SINE kernel with omega=0 is the zero function.
    """

    trig: Trig
    omega: float
    mask: SupportSet | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.omega) or self.omega < 0.0:
            raise ContractError(f"omega must be finite and >= 0, got {self.omega}")
        if self.mask is not None and self.mask.is_empty():
            object.__setattr__(self, "mask", None)

    def is_zero(self) -> bool:
        if self.trig is Trig.SINE and self.omega == 0.0:
            return True
        return self.mask is not None and self.mask.measure() >= math.pi

    def kernel_values(self, theta: np.ndarray) -> np.ndarray:
        """Trig kernel without mask handling (used by piecewise integrators)."""
        theta = np.asarray(theta, dtype=float)
        arg = self.omega * np.sin(theta)
        return np.cos(arg) if self.trig is Trig.COSINE else np.sin(arg)

    def evaluate(self, theta: np.ndarray) -> np.ndarray:
        vals = self.kernel_values(theta)
        if self.mask is not None:
            vals = np.where(self.mask.contains(theta), 0.0, vals)
        return vals


# ---------------------------------------------------------------------------
# Inner products (reference paths)
# ---------------------------------------------------------------------------
#
# Unmasked closed forms over the full interval, via product-to-sum plus
#   int cos(w sin t) dt = pi * J0(w),   int sin(w sin t) dt = 0:
#   <cos(a s), cos(b s)> = (pi/2) (J0(a-b) + J0(a+b))
#   <sin(a s), sin(b s)> = (pi/2) (J0(a-b) - J0(a+b))
#   <cos(a s), sin(b s)> = 0                      (odd integrand)
# Masked pairs integrate the pointwise product over the common live region
# with adaptive quadrature.  Gram systems never come through here: they are
# assembled from the sampled basis (see ``sampling_rule``/``sample``).


def _full_interval_pair(f: AngularFunction, g: AngularFunction) -> float:
    a, b = f.omega, g.omega
    if f.trig is not g.trig:
        return 0.0
    if f.trig is Trig.COSINE:
        return (math.pi / 2.0) * (bessel_j0(a - b) + bessel_j0(a + b))
    return (math.pi / 2.0) * (bessel_j0(a - b) - bessel_j0(a + b))


def _joint_live_region(f: AngularFunction, g: AngularFunction) -> SupportSet:
    """Complement of the union of both functions' masks."""
    combined = f.mask if f.mask is not None else SupportSet.empty()
    if g.mask is not None:
        combined = combined.union(g.mask)
    return combined.complement()


def _quadrature_with_status(f: AngularFunction, g: AngularFunction) -> tuple[float, bool]:
    total, ok = 0.0, True
    for a, b in _joint_live_region(f, g).intervals:
        res = integrate(lambda t: f.kernel_values(t) * g.kernel_values(t), a, b)
        total += res.value
        ok &= res.converged
    return total, ok


def inner_product_with_status(f: AngularFunction, g: AngularFunction) -> tuple[float, bool]:
    """<f, g> plus a convergence flag for any quadrature involved."""
    if f.is_zero() or g.is_zero():
        return 0.0, True
    if f.mask is None and g.mask is None:
        return _full_interval_pair(f, g), True
    return _quadrature_with_status(f, g)


def inner_product(f: AngularFunction, g: AngularFunction) -> float:
    """L2 inner product over [-pi/2, pi/2].

    Unmasked pairs evaluate through the exact J0 closed forms; pairs with a
    mask go through ``inner_product_quadrature``.
    """
    value, _ = inner_product_with_status(f, g)
    return value


def inner_product_quadrature(f: AngularFunction, g: AngularFunction) -> float:
    """Direct adaptive quadrature of the pointwise product over the common
    live region, with panel breaks at every mask boundary."""
    return _quadrature_with_status(f, g)[0]


def norm_sq(f: AngularFunction) -> float:
    return inner_product(f, f)


def mask(f: AngularFunction, c_s: SupportSet) -> AngularFunction:
    """Support-information projection: zero on ``c_s``, unchanged outside.

    Composing masks is out of scope; masking an already-masked function
    raises ContractError.
    """
    if f.mask is not None:
        raise ContractError("function is already masked; composed masks are unsupported")
    if c_s.is_empty():
        return f
    return AngularFunction(trig=f.trig, omega=f.omega, mask=c_s)


# ---------------------------------------------------------------------------
# Sampled basis (production Gram path)
# ---------------------------------------------------------------------------
#
# Every kernel is sampled on one piecewise Gauss-Legendre rule over (0, pi/2),
# mirrored onto (-pi/2, 0).  The first half of the rows holds the even parts
# sqrt(w/2) (f(t) + f(-t)) at every node, the second half the odd parts
# sqrt(w/2) (f(t) - f(-t)) in the same node order, so the column dot product
# is the rule applied to f g over [-pi/2, pi/2].
# An unmasked cosine has an exactly zero odd part and an unmasked sine an
# exactly zero even part, so their sampled inner product is exactly 0, as in
# the closed form.


def sampling_rule(funcs: Sequence[AngularFunction],
                  breakpoints: Sequence[float] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Nodes in (0, pi/2) and weights for products of any two of ``funcs``
    and of functions smooth between ``breakpoints``.

    Pieces are split at every mask edge and breakpoint (mirrored into
    (0, pi/2)), so each masked kernel is smooth on each piece.  A piece of
    length h gets ``ceil(0.55 * omega_max * h) + 30`` nodes, omega_max
    being the largest kernel frequency; that keeps sampled Gram entries
    within ~1e-13 of the closed forms.
    """
    omega_max = max((f.omega for f in funcs), default=0.0)
    cuts = {abs(p) for f in funcs if f.mask is not None
            for p in f.mask.boundary_points()} | {abs(p) for p in breakpoints}
    edges = sorted({0.0, HALF_PI} | {p for p in cuts if 0.0 < p < HALF_PI})
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        x, w = gauss_legendre(math.ceil(0.55 * omega_max * (b - a)) + 30)
        nodes.append(0.5 * (a + b) + 0.5 * (b - a) * x)
        weights.append(0.5 * (b - a) * w)
    return np.concatenate(nodes), np.concatenate(weights)


def sample(funcs: Sequence[AngularFunction], nodes: np.ndarray,
           weights: np.ndarray) -> np.ndarray:
    """Weighted even/odd samples, shape (2 * nodes, len(funcs)).

    For columns x, y of the result, x @ y is the ``sampling_rule`` estimate
    of the inner product of the two functions.  Masks are applied once per
    distinct mask, to all the columns that carry it.
    """
    cosine = np.array([f.trig is Trig.COSINE for f in funcs])
    plus = np.outer(np.sin(nodes), [f.omega for f in funcs])
    np.cos(plus, out=plus, where=cosine)
    np.sin(plus, out=plus, where=~cosine)
    minus = plus * np.where(cosine, 1.0, -1.0)
    columns: dict[SupportSet, list[int]] = {}
    for j, f in enumerate(funcs):
        if f.mask is not None:
            columns.setdefault(f.mask, []).append(j)
    for zero_set, cols in columns.items():
        plus[np.ix_(zero_set.contains(nodes), cols)] = 0.0
        minus[np.ix_(zero_set.contains(-nodes), cols)] = 0.0
    m = nodes.size
    out = np.empty((2 * m, len(funcs)))
    np.add(plus, minus, out=out[:m])
    np.subtract(plus, minus, out=out[m:])
    out *= np.sqrt(0.5 * np.tile(weights, 2))[:, None]
    return out


def clamp_residual_sq(rad: float) -> float:
    """Apply the residual clamp to a squared-residual value.

    Values in [-RESIDUAL_CLAMP, RESIDUAL_CLAMP] are
    floating-point-indistinguishable from zero and collapse to 0; values
    below -RESIDUAL_CLAMP indicate an inconsistent pseudo-inverse and raise.
    """
    if rad < -RESIDUAL_CLAMP:
        raise NumericalConsistencyError(
            f"squared residual {rad:.3e} is negative beyond the clamp tolerance "
            f"{RESIDUAL_CLAMP:.1e}; the pseudo-inverse cutoff is too aggressive for this "
            "Gram matrix"
        )
    if abs(rad) <= RESIDUAL_CLAMP:
        return 0.0
    return rad
