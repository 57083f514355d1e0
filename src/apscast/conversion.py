"""Gram system factorization, the linear conversion operator, and APS estimation.

The estimator is the minimum-norm member of the linear variety of spectra
consistent with the observed uplink covariance (and any support
constraints).  Conversion collapses to one matrix-vector product
r_d = A r_u with A = Q^T G^+ restricted to the uplink block, where G is the
Gram matrix of the basis (uplink then constraint functions) and Q its cross
matrix against the downlink functions.

Every quantity comes from one SVD.  The basis and the downlink kernels are
sampled on one quadrature rule, X (samples x L) and Y (samples x 2N), so
G = X^T X and Q = X^T Y.  With X = U S V^T truncated to the kept directions,
A = (Y^T U_k S_k^-1 V_k^T)[:, :2N] and the squared projection residual of
downlink slot k is ||Y_k - U_k U_k^T Y_k||^2.  Neither passes through G^+,
so their working condition number is sqrt(cond(G)).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .array_model import FunctionSet, UlaConfig
from .errors import ContractError
from .hilbert_space import (
    AngularFunction,
    SupportSet,
    inner_product_with_status,  # noqa: F401  unused; bench/tracing.py wraps it here
    norm_sq,
    sample,
    sampling_rule,
)
from .numerics import PinvSpec, QuadratureSpec
from .numerics import pinv_psd  # noqa: F401  unused; bench/tracing.py wraps it here

__all__ = [
    "GramSystem",
    "ConversionOperator",
    "HermitianToeplitzCov",
    "ApsEstimate",
    "build_gram_system",
    "build_conversion_operator",
    "convert",
    "estimate_aps",
    "operator_to_dict",
    "operator_from_dict",
    "export_operator",
    "load_operator",
]


@dataclass(frozen=True)
class GramSystem:
    """The sampled basis system (uplink then constraints) and its truncated SVD.

    ``singular_values`` are those of X, descending; the first ``rank`` are
    kept.  ``right_vectors`` is V_k (L x rank), ``downlink_coords`` is
    U_k^T Y (rank x 2N), ``residuals_sq`` the unclamped squared projection
    residuals of the downlink kernels, and ``downlink_norms_sq`` their
    closed-form squared norms.
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
    quad: QuadratureSpec
    pinv: PinvSpec

    @property
    def L(self) -> int:
        return len(self.basis)

    def _whiten(self, z: np.ndarray) -> np.ndarray:
        """S_k^-1 V_k^T z, so that z^T G^+ z is its squared norm."""
        return (self.right_vectors.T @ np.asarray(z, dtype=float)) / \
            self.singular_values[: self.rank]

    def quad_form(self, z: np.ndarray) -> float:
        """z^T G^+ z."""
        t = self._whiten(z)
        return float(np.dot(t, t))

    def apply_pinv(self, z: np.ndarray) -> np.ndarray:
        """G^+ z."""
        return self.right_vectors @ (self._whiten(z) / self.singular_values[: self.rank])


def build_gram_system(
    fs: FunctionSet,
    quad: QuadratureSpec = QuadratureSpec(),
    pinv: PinvSpec = PinvSpec(),
) -> GramSystem:
    """Sample the basis and downlink kernels on one rule and factor the basis.

    Directions with ``s**2 > pinv.rel_cutoff * max(s)**2`` are kept, which is
    the eigenvalue cutoff on G = X^T X.  ``quad`` is carried for the bound
    report's configuration hash; the sampling rule does not depend on it.
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
        downlink_norms_sq=np.array([norm_sq(g, quad) for g in fs.downlink]),
        quad=quad,
        pinv=pinv,
    )


@dataclass(frozen=True)
class ConversionOperator:
    """Precomputed uplink-to-downlink conversion.

    ``A`` is Q^T G^+ restricted to its first 2N columns, so that
    [Re(col); Im(col)] of the converted covariance equals A @ r.  It depends
    only on the array geometry and support information, so it is built once
    and reused for every covariance.
    """

    config: UlaConfig
    support: SupportSet | None
    Q_mat: np.ndarray
    A: np.ndarray
    downlink_norms_sq: np.ndarray
    rank: int
    L: int

    @property
    def n(self) -> int:
        return self.config.n_antennas


def build_conversion_operator(gs: GramSystem) -> ConversionOperator:
    """Collapse the two estimation steps into A = (Y^T U_k S_k^-1 V_k^T)[:, :2N]."""
    fs = gs.function_set
    s_k = gs.singular_values[: gs.rank]
    A = (gs.downlink_coords.T / s_k) @ gs.right_vectors[: 2 * fs.n].T
    return ConversionOperator(
        config=fs.config,
        support=fs.support,
        Q_mat=gs.Q,
        A=A,
        downlink_norms_sq=gs.downlink_norms_sq,
        rank=gs.rank,
        L=gs.L,
    )


# ---------------------------------------------------------------------------
# Hermitian Toeplitz covariance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HermitianToeplitzCov:
    """N x N Hermitian Toeplitz covariance stored as its first column."""

    first_col: np.ndarray

    def __post_init__(self) -> None:
        col = np.asarray(self.first_col, dtype=complex)
        if col.ndim != 1 or col.size < 1:
            raise ContractError("first_col must be a nonempty vector")
        if col[0].imag != 0.0:
            raise ContractError(
                "diagonal entry must be real: imag(first_col[0]) = "
                f"{col[0].imag!r}"
            )
        col.setflags(write=False)
        object.__setattr__(self, "first_col", col)

    @property
    def n(self) -> int:
        return self.first_col.size

    def to_r_vector(self) -> np.ndarray:
        """[Re(first column); Im(first column)] in slot order."""
        return np.concatenate([self.first_col.real, self.first_col.imag])

    @classmethod
    def from_r_vector(cls, r: np.ndarray) -> "HermitianToeplitzCov":
        r = np.asarray(r, dtype=float)
        if r.ndim != 1 or r.size % 2 != 0:
            raise ContractError("r vector must have even length 2N")
        n = r.size // 2
        return cls(r[:n] + 1j * r[n:])

    def expand(self) -> np.ndarray:
        """Full Hermitian Toeplitz matrix R[n, m] = c_{n-m}."""
        c = self.first_col
        idx = np.subtract.outer(np.arange(self.n), np.arange(self.n))
        out = np.where(idx >= 0, c[np.abs(idx)], np.conj(c[np.abs(idx)]))
        return out


def convert(op: ConversionOperator, r_u: HermitianToeplitzCov) -> HermitianToeplitzCov:
    """Uplink-to-downlink covariance conversion: one matrix-vector product."""
    if r_u.n != op.n:
        raise ContractError(
            f"covariance dimension {r_u.n} does not match operator dimension {op.n}"
        )
    r = r_u.to_r_vector()
    rd = op.A @ r
    return HermitianToeplitzCov.from_r_vector(rd)


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


def estimate_aps(
    gs: GramSystem,
    r_u: np.ndarray,
    constraint_values: np.ndarray | None = None,
) -> ApsEstimate:
    """Minimum-norm spectrum consistent with r_u (and the constraint values).

    ``constraint_values`` defaults to zeros (support constraints); passing a
    vector supports general linear-variety priors.
    """
    fs = gs.function_set
    two_n = 2 * fs.n
    r_u = np.asarray(r_u, dtype=float)
    if r_u.shape != (two_n,):
        raise ContractError(f"r_u must have shape ({two_n},), got {r_u.shape}")
    q_count = gs.L - two_n
    if constraint_values is None:
        b = np.zeros(q_count)
    else:
        b = np.asarray(constraint_values, dtype=float)
        if b.shape != (q_count,):
            raise ContractError(
                f"constraint_values must have shape ({q_count},), got {b.shape}"
            )
    rbar = np.concatenate([r_u, b])
    alpha = gs.apply_pinv(rbar)
    return ApsEstimate(basis=gs.basis, coefficients=alpha)


# ---------------------------------------------------------------------------
# Operator (de)serialization
# ---------------------------------------------------------------------------


def _config_to_dict(cfg: UlaConfig) -> dict:
    return {
        "n_antennas": cfg.n_antennas,
        "spacing": cfg.spacing,
        "f_up": cfg.f_up,
        "f_down": cfg.f_down,
        "wave_speed": cfg.wave_speed,
    }


def operator_to_dict(op: ConversionOperator, G: np.ndarray | None = None) -> dict:
    doc = {
        "n": op.n,
        "L": op.L,
        "A": op.A.tolist(),
        "rank": op.rank,
        "config": _config_to_dict(op.config),
        "support": [list(iv) for iv in op.support.intervals] if op.support else [],
        "Q": op.Q_mat.tolist(),
        "downlink_norms_sq": op.downlink_norms_sq.tolist(),
    }
    if G is not None:
        doc["G"] = np.asarray(G).tolist()
    return doc


def operator_from_dict(doc: dict) -> ConversionOperator:
    try:
        cfg = UlaConfig(**doc["config"])
        support_ivs = doc.get("support") or []
        support = SupportSet(support_ivs) if support_ivs else None
        A = np.asarray(doc["A"], dtype=float)
        Q = np.asarray(doc["Q"], dtype=float)
        norms = np.asarray(doc["downlink_norms_sq"], dtype=float)
        n = int(doc["n"])
        L = int(doc["L"])
        rank = int(doc["rank"])
    except (KeyError, TypeError) as exc:
        raise ContractError(f"malformed operator document: {exc}") from exc
    if A.shape != (2 * n, 2 * n):
        raise ContractError(f"A must have shape ({2*n}, {2*n}), got {A.shape}")
    if Q.shape != (L, 2 * n):
        raise ContractError(f"Q must have shape ({L}, {2*n}), got {Q.shape}")
    return ConversionOperator(
        config=cfg, support=support, Q_mat=Q, A=A,
        downlink_norms_sq=norms, rank=rank, L=L,
    )


def export_operator(path: str, op: ConversionOperator, G: np.ndarray | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(operator_to_dict(op, G), fh)
        fh.write("\n")


def load_operator(path: str) -> ConversionOperator:
    with open(path, "r", encoding="utf-8") as fh:
        return operator_from_dict(json.load(fh))
