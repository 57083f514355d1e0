"""Gram system factorization, the conversion operator's build, and APS estimation.

The estimator is the minimum-norm member of the linear variety of spectra
consistent with the observed uplink covariance (and any support
constraints).  Conversion collapses to one matrix-vector product
r_d = A r_u with A = Q^T G^+ restricted to the uplink block, where G is the
Gram matrix of the basis (uplink then constraint functions) and Q its cross
matrix against the downlink functions.  This module builds A; applying it
(``convert``) and its file live in ``apply``.

Every quantity comes from one QR and one small SVD (Chan's R-SVD).  The
basis and the downlink kernels are sampled together on one quadrature rule,
[X | Y] (samples x (L + 2N)), so G = X^T X and Q = X^T Y.  The triangle of
[X | Y] = Z [R11 R12; 0 R22] holds all of it: R11 (L x L) has the singular
values and right vectors of X, R12 = Z1^T Y is Y in an orthonormal basis of
span(X), and R22 is the part of Y outside span(X).  With R11 = u S V^T
truncated to the kept directions, A = (R12^T u_k S_k^-1 V_k^T)[:, :2N] and
the squared projection residual of downlink slot k is
||R12_k - u_k u_k^T R12_k||^2 + ||R22_k||^2, compared with the squared norm
||Y_k||^2 on the same rule.  No samples x L factor is formed, and neither A
nor the residuals pass through G^+, so their working condition number is
sqrt(cond(G)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .apply import ConversionOperator, _real
from .array_model import FunctionSet
from .errors import ContractError
from .hilbert_space import (
    AngularFunction,
    inner_product_with_status,  # noqa: F401  unused; bench/tracing.py wraps it here
    norm_sq,  # noqa: F401  unused; bench/tracing.py wraps it here
    sample,
    sampling_rule,
)
from .numerics import PinvSpec
from .numerics import pinv_psd  # noqa: F401  unused; bench/tracing.py wraps it here

__all__ = [
    "GramSystem",
    "ApsEstimate",
    "build_gram_system",
    "build_conversion_operator",
    "estimate_aps",
]


@dataclass(frozen=True)
class GramSystem:
    """The sampled basis system (uplink then constraints) and its truncated SVD.

    ``triangle`` is R of the QR factorization of the sampled [X | Y], with
    min(samples, L + 2N) rows; its first L columns hold R11 with zeros
    below, the rest R12 over R22.  ``singular_values`` are those of X (and
    of R11), descending; the first ``rank`` are kept.  ``right_vectors`` is
    V_k (L x rank), ``downlink_coords`` is U_k^T Y = u_k^T R12 (rank x 2N),
    ``residuals_sq`` the unclamped squared projection residuals of the
    downlink kernels, R22's column norms included, and ``downlink_norms_sq``
    their squared norms, both on the rule that samples X and Y.  G = X^T X
    and Q = X^T Y are computed from the triangle when first read; the build
    of A reads neither.
    """

    function_set: FunctionSet
    basis: tuple[AngularFunction, ...]
    triangle: np.ndarray
    singular_values: np.ndarray
    rank: int
    right_vectors: np.ndarray
    downlink_coords: np.ndarray
    residuals_sq: np.ndarray
    downlink_norms_sq: np.ndarray
    pinv: PinvSpec

    @property
    def L(self) -> int:
        return len(self.basis)

    @cached_property
    def G(self) -> np.ndarray:
        """The Gram matrix X^T X = R11^T R11, exactly symmetric."""
        r11 = self.triangle[: self.L, : self.L]
        G = r11.T @ r11
        return 0.5 * (G + G.T)  # exactly symmetric with any BLAS

    @cached_property
    def Q(self) -> np.ndarray:
        """The cross matrix X^T Y = R11^T R12."""
        return self.triangle[: self.L, : self.L].T @ self.triangle[: self.L, self.L:]

    def _whiten(self, z: np.ndarray) -> np.ndarray:
        """S_k^-1 V_k^T z, so that z^T G^+ z is its squared norm."""
        return (self.right_vectors.T @ np.asarray(z, dtype=float)) / \
            self.singular_values[: self.rank]

    def quad_form(self, z: np.ndarray) -> float:
        """z^T G^+ z.  With z = [r_u; 0] it is ||rho_hat||^2, the squared norm
        of the minimum-norm estimate, which a radius bound on the consistent
        spectra needs: ||rho - rho_hat||^2 = ||rho||^2 - ||rho_hat||^2."""
        t = self._whiten(z)
        return float(np.dot(t, t))

    def apply_pinv(self, z: np.ndarray) -> np.ndarray:
        """G^+ z."""
        return self.right_vectors @ (self._whiten(z) / self.singular_values[: self.rank])


def build_gram_system(fs: FunctionSet, pinv: PinvSpec = PinvSpec()) -> GramSystem:
    """Sample the basis and downlink kernels on one rule and factor them.

    Directions with ``s**2 > pinv.rel_cutoff * max(s)**2`` are kept, which is
    the eigenvalue cutoff on G = X^T X.  A rule with fewer samples than
    L + 2N gives a short triangle: R22 then has fewer rows or none, and with
    fewer samples than L, R11 is wide and X has that many singular values.
    """
    basis = fs.basis
    L = len(basis)
    funcs = basis + fs.downlink
    XY = sample(funcs, *sampling_rule(funcs))
    R = np.linalg.qr(XY, mode="r")
    u, s, Vt = np.linalg.svd(R[:L, :L], full_matrices=False)
    rank = int(np.count_nonzero(s**2 > pinv.rel_cutoff * s[0] ** 2))
    R12, R22 = R[:L, L:], R[L:, L:]
    coords = u[:, :rank].T @ R12
    resid = R12 - u[:, :rank] @ coords
    Y = XY[:, L:]
    return GramSystem(
        function_set=fs,
        basis=basis,
        triangle=R,
        singular_values=s,
        rank=rank,
        right_vectors=Vt[:rank].T,
        downlink_coords=coords,
        residuals_sq=np.einsum("ij,ij->j", resid, resid) + np.einsum("ij,ij->j", R22, R22),
        downlink_norms_sq=np.einsum("ij,ij->j", Y, Y),
        pinv=pinv,
    )


def build_conversion_operator(gs: GramSystem) -> ConversionOperator:
    """Collapse the two estimation steps into A = (R12^T u_k S_k^-1 V_k^T)[:, :2N]."""
    fs = gs.function_set
    s_k = gs.singular_values[: gs.rank]
    A = (gs.downlink_coords.T / s_k) @ gs.right_vectors[: 2 * fs.n].T
    A.setflags(write=False)  # no other reference: the operator keeps it uncopied
    return ConversionOperator(
        config=fs.config,
        support=fs.support,
        A=A,
        downlink_norms_sq=gs.downlink_norms_sq,
        rank=gs.rank,
        L=gs.L,
    )


# ---------------------------------------------------------------------------
# APS estimation (minimum-norm consistent spectrum)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ApsEstimate:
    """Estimated angular power spectrum sum_k alpha_k x_k."""

    basis: tuple[AngularFunction, ...]
    coefficients: np.ndarray

    def evaluate(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        out = np.zeros_like(theta)
        for a, x in zip(self.coefficients, self.basis):
            if a != 0.0 and not x.is_zero():
                out += a * x.evaluate(theta)
        return out


def estimate_aps(gs: GramSystem, r_u: np.ndarray) -> ApsEstimate:
    """Minimum-norm spectrum consistent with r_u and with the support
    constraints, whose values are all 0."""
    two_n = 2 * gs.function_set.n
    r_u = np.asarray(_real(r_u, "r_u"), dtype=float)
    if r_u.shape != (two_n,):
        raise ContractError(f"r_u must have shape ({two_n},), got {r_u.shape}")
    alpha = gs.apply_pinv(np.concatenate([r_u, np.zeros(gs.L - two_n)]))
    return ApsEstimate(basis=gs.basis, coefficients=alpha)
