"""Gram system factorization, the conversion operator's build, and APS estimation.

The estimator is the minimum-norm member of the linear variety of spectra
consistent with the observed uplink covariance (and any support
constraints).  Conversion collapses to one matrix-vector product
r_d = A r_u with A = Q^T G^+ restricted to the uplink block, where G is the
Gram matrix of the basis (uplink then constraint functions) and Q its cross
matrix against the downlink functions.  This module builds A; applying it
(``convert``) and its file live in ``apply``.

Every quantity comes from one SVD.  The basis and the downlink kernels are
sampled on one quadrature rule, X (samples x L) and Y (samples x 2N), so
G = X^T X and Q = X^T Y.  With X = U S V^T truncated to the kept directions,
A = (Y^T U_k S_k^-1 V_k^T)[:, :2N] and the squared projection residual of
downlink slot k is ||Y_k - U_k U_k^T Y_k||^2, compared with the squared
norm ||Y_k||^2 on the same rule.  Neither A nor the residuals pass through
G^+, so their working condition number is sqrt(cond(G)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .apply import ConversionOperator
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

    ``singular_values`` are those of X, descending; the first ``rank`` are
    kept.  ``right_vectors`` is V_k (L x rank), ``downlink_coords`` is
    U_k^T Y (rank x 2N), ``residuals_sq`` the unclamped squared projection
    residuals of the downlink kernels, and ``downlink_norms_sq`` their
    squared norms, both on the rule that samples X and Y.
    """

    function_set: FunctionSet
    basis: tuple[AngularFunction, ...]
    G: np.ndarray
    Q: np.ndarray
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
    """Sample the basis and downlink kernels on one rule and factor the basis.

    Directions with ``s**2 > pinv.rel_cutoff * max(s)**2`` are kept, which is
    the eigenvalue cutoff on G = X^T X.
    """
    basis = fs.basis
    nodes, weights = sampling_rule(basis + fs.downlink)
    X = sample(basis, nodes, weights)
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    Y = sample(fs.downlink, nodes, weights)  # after the SVD: lowers peak memory
    rank = int(np.count_nonzero(s**2 > pinv.rel_cutoff * s[0] ** 2))
    coords = U[:, :rank].T @ Y
    resid = Y - U[:, :rank] @ coords
    G = X.T @ X
    return GramSystem(
        function_set=fs,
        basis=basis,
        G=0.5 * (G + G.T),  # exactly symmetric with any BLAS
        Q=X.T @ Y,
        singular_values=s,
        rank=rank,
        right_vectors=Vt[:rank].T,
        downlink_coords=coords,
        residuals_sq=np.einsum("ij,ij->j", resid, resid),
        downlink_norms_sq=np.einsum("ij,ij->j", Y, Y),
        pinv=pinv,
    )


def build_conversion_operator(gs: GramSystem) -> ConversionOperator:
    """Collapse the two estimation steps into A = (Y^T U_k S_k^-1 V_k^T)[:, :2N]."""
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
    r_u = np.asarray(r_u, dtype=float)
    if r_u.shape != (two_n,):
        raise ContractError(f"r_u must have shape ({two_n},), got {r_u.shape}")
    alpha = gs.apply_pinv(np.concatenate([r_u, np.zeros(gs.L - two_n)]))
    return ApsEstimate(basis=gs.basis, coefficients=alpha)
