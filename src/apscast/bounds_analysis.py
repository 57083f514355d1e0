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

from .conversion import ConversionOperator, GramSystem, config_to_dict
from .errors import ContractError, NumericalConsistencyError
from .hilbert_space import norm_sq  # noqa: F401  unused; bench/tracing.py wraps it here

__all__ = [
    "PerEntryBound",
    "BoundReport",
    "compute_bounds",
    "bound_tightened_by_support",
    "write_bounds_csv",
    "RESIDUAL_FLOOR",
]

# A residual at most RESIDUAL_FLOOR * ||g_d[k]|| is rounding noise of the
# SVD projection (an exact member of the kept span) and is reported as 0.
RESIDUAL_FLOOR = 1e-12


@dataclass(frozen=True)
class PerEntryBound:
    k: int                      # 1-based slot index
    entry_kind: str             # "real" | "imag"
    lag: int                    # k-1 for real slots, k-N-1 for imag slots
    residual: float
    bound_generic: float        # 2 B residual (any norm-bounded estimate)
    bound_pv0: float            # B residual (minimum-norm estimate)
    norm_gdk_sq: float


@dataclass(frozen=True)
class BoundReport:
    per_k: tuple[PerEntryBound, ...]
    B: float
    config_hash: str
    rank: int

    @property
    def residuals(self) -> np.ndarray:
        return np.array([e.residual for e in self.per_k])

    @property
    def bounds_pv0(self) -> np.ndarray:
        return np.array([e.bound_pv0 for e in self.per_k])

    @property
    def bounds_generic(self) -> np.ndarray:
        return np.array([e.bound_generic for e in self.per_k])

    @property
    def norms_sq(self) -> np.ndarray:
        return np.array([e.norm_gdk_sq for e in self.per_k])


def _config_hash(gs: GramSystem, B: float) -> str:
    import hashlib  # imported on use: ``convert`` needs neither it nor csv

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
    n = gs.function_set.n

    entries = []
    for idx in range(2 * n):
        norm_sq_k = float(gs.downlink_norms_sq[idx])
        norm_k = math.sqrt(norm_sq_k)
        residual = math.sqrt(float(gs.residuals_sq[idx]))
        if residual <= RESIDUAL_FLOOR * norm_k:
            residual = 0.0
        if residual > norm_k + 1e-9:
            raise NumericalConsistencyError(
                f"residual {residual:.3e} exceeds ||g_d|| for slot {idx + 1}"
            )
        k = idx + 1
        entries.append(PerEntryBound(
            k=k,
            entry_kind="real" if k <= n else "imag",
            lag=(k - 1) if k <= n else (k - n - 1),
            residual=residual,
            bound_generic=2.0 * B * residual,
            bound_pv0=B * residual,
            norm_gdk_sq=norm_sq_k,
        ))
    return BoundReport(
        per_k=tuple(entries),
        B=B,
        config_hash=_config_hash(gs, B),
        rank=gs.rank,
    )


@dataclass(frozen=True)
class BoundComparison:
    k: int
    residual_without: float
    residual_with: float
    delta: float                # residual_with - residual_without


def bound_tightened_by_support(
    report_no_si: BoundReport,
    report_si: BoundReport,
    tol: float = 1e-9,
) -> tuple[BoundComparison, ...]:
    """Per-entry effect of adding support information.

    Both reports must come from the same array configuration and B; support
    information enlarges the projection subspace, so each residual may only
    shrink.  A violation beyond ``tol`` raises NumericalConsistencyError
    (it indicates a pseudo-inverse cutoff discarding genuine directions).
    """
    if len(report_no_si.per_k) != len(report_si.per_k):
        raise ContractError("reports cover different numbers of entries")
    if report_no_si.B != report_si.B:
        raise ContractError("reports use different norm bounds B")
    if not np.allclose(report_no_si.norms_sq, report_si.norms_sq, atol=1e-12):
        raise ContractError("reports come from different downlink configurations")

    rows = []
    for e0, e1 in zip(report_no_si.per_k, report_si.per_k):
        delta = e1.residual - e0.residual
        if delta > tol:
            raise NumericalConsistencyError(
                f"support information increased the residual at k={e0.k}: "
                f"{e0.residual:.6e} -> {e1.residual:.6e}; the pseudo-inverse "
                "cutoff is discarding directions this comparison needs"
            )
        rows.append(BoundComparison(
            k=e0.k,
            residual_without=e0.residual,
            residual_with=e1.residual,
            delta=delta,
        ))
    return tuple(rows)


def write_bounds_csv(path: str, report: BoundReport) -> None:
    """CSV schema: k, entry_kind, lag, residual, bound_generic, bound_pv0,
    norm_gdk_sq.  Floats use repr so files round-trip bit-exactly."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "entry_kind", "lag", "residual", "bound_generic",
                         "bound_pv0", "norm_gdk_sq"])
        for e in report.per_k:
            writer.writerow([e.k, e.entry_kind, e.lag, repr(e.residual),
                             repr(e.bound_generic), repr(e.bound_pv0),
                             repr(e.norm_gdk_sq)])
