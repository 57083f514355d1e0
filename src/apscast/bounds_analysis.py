"""Certified per-entry error bounds for the covariance conversion.

For each first-column slot k the algorithm-independent factor is the
projection residual res_k = ||g_d[k] - P g_d[k]||, P the projection onto the
kept span of the basis (read from the Gram system's SVD):  any
consistent estimator with norm bound B has per-entry error at most
2 B res_k, and the minimum-norm estimator at most B res_k.  Bounds are
reported for the 2N first-column slots only; every other matrix entry
shares the bound of its first-column representative by the Toeplitz
symmetry.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .apply import ConversionOperator
from .conversion import GramSystem
from .errors import ContractError, NumericalConsistencyError
from .hilbert_space import norm_sq  # noqa: F401  unused; bench/tracing.py wraps it here
from .records import config_to_dict

__all__ = [
    "BoundReport",
    "compute_bounds",
    "RESIDUAL_FLOOR",
]

# A residual at most RESIDUAL_FLOOR * ||g_d[k]|| is rounding noise of the
# SVD projection (an exact member of the kept span) and is reported as 0.
RESIDUAL_FLOOR = 1e-12


@dataclass(frozen=True)
class BoundReport:
    """Residuals and squared downlink norms of the 2N first-column slots, in
    slot order (0..N-1 real parts, N..2N-1 imaginary parts)."""

    residuals: np.ndarray
    norms_sq: np.ndarray
    B: float
    config_hash: str
    rank: int

    @property
    def bounds_pv0(self) -> np.ndarray:
        """B res_k: the minimum-norm estimate's bound."""
        return self.B * self.residuals

    @property
    def bounds_generic(self) -> np.ndarray:
        """2 B res_k: the bound of any norm-bounded consistent estimate."""
        return 2.0 * self.B * self.residuals


def _config_hash(gs: GramSystem, B: float) -> str:
    import hashlib  # imported on use: ``convert`` does not need it

    fs = gs.function_set
    payload = config_to_dict(fs.config, fs.support, B=B, pinv=gs.pinv)
    return hashlib.md5(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def compute_bounds(
    gs: GramSystem,
    B: float = 1.0,
    op: ConversionOperator | None = None,
) -> BoundReport:
    """Per-entry residuals and the two bound families for norm bound B.

    Every quantity is read from ``gs``; ``op`` is accepted so callers that
    hold the operator keep working, and changes nothing.  The SVD residuals
    are sums of squares, so only a residual at rounding level relative to
    its kernel, ``res_k <= RESIDUAL_FLOOR * ||g_d[k]||``, is reported as an
    exact 0; every larger one is reported as computed.  Raises
    NumericalConsistencyError when a residual exceeds its kernel's norm.
    """
    if not (math.isfinite(B) and B > 0.0):
        raise ContractError(f"B must be positive and finite, got {B}")
    norms = np.sqrt(gs.downlink_norms_sq)
    residuals = np.sqrt(gs.residuals_sq)
    residuals[residuals <= RESIDUAL_FLOOR * norms] = 0.0
    bad = np.flatnonzero(residuals > norms + 1e-9)
    if bad.size:
        idx = bad[0]
        raise NumericalConsistencyError(
            f"residual {residuals[idx]:.3e} exceeds ||g_d|| for slot {idx + 1}"
        )
    return BoundReport(
        residuals=residuals,
        norms_sq=gs.downlink_norms_sq,
        B=B,
        config_hash=_config_hash(gs, B),
        rank=gs.rank,
    )
