"""Experiment drivers: spectrum synthesis, bound/error sweeps, grid oracle.

Reproduces the three reference studies as data files:
  fig1  - certified per-entry bounds with and without support information,
  fig2  - realized conversion errors for a two-path spectrum model,
  fig3  - the true spectrum against both minimum-norm estimates on a grid,
plus an independent finite-dimensional projection oracle used to verify the
closed-form residual machinery.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .apply import HermitianToeplitzCov
from .array_model import FunctionSet, build_function_set
from .bounds_analysis import BoundReport, compute_bounds
from .conversion import (
    GramSystem,
    build_conversion_operator,
    build_gram_system,
    estimate_aps,
)
from .errors import ContractError, NumericalConsistencyError
from .hilbert_space import AngularFunction, sample, sampling_rule
from .numerics import PinvSpec
from .records import HALF_PI, SupportSet, UlaConfig

__all__ = [
    "ApsPeak",
    "ApsModel",
    "OracleSpec",
    "two_path_model",
    "random_aps_model",
    "synthesize_r_vector",
    "synthesize_covariance",
    "oracle_residual",
    "Fig1Result",
    "Fig2Result",
    "Fig3Result",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "write_bounds_csv",
    "write_fig1_csv",
    "write_fig2_csv",
    "write_fig3_csv",
    "write_metadata",
]


@dataclass(frozen=True)
class ApsPeak:
    center: float
    scale: float
    weight: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.center) and -HALF_PI <= self.center <= HALF_PI):
            raise ContractError(f"peak center must lie in [-pi/2, pi/2], got {self.center}")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ContractError(f"peak scale must be positive, got {self.scale}")
        if not (self.weight >= 0.0 and math.isfinite(self.weight)):
            raise ContractError(f"peak weight must be >= 0, got {self.weight}")


@dataclass(frozen=True)
class ApsModel:
    """Mixture of two-sided exponential peaks, optionally clipped to a support.

    evaluate(theta) = n * sum_j w_j exp(-|theta - c_j| / s_j), zeroed outside
    ``support`` when one is given.  With unit_norm the constant n is computed
    numerically so that the L2 norm over [-pi/2, pi/2] is 1.  Every integral
    of the spectrum is taken on ``rule``.
    """

    peaks: tuple[ApsPeak, ...]
    normalization: str = "unit_norm"      # "unit_norm" | "raw"
    support: SupportSet | None = None

    def __post_init__(self) -> None:
        if self.normalization not in ("unit_norm", "raw"):
            raise ContractError(f"unknown normalization {self.normalization!r}")
        if not self.peaks:
            raise ContractError("ApsModel needs at least one peak")
        object.__setattr__(self, "_norm_constant", self._compute_norm_constant())

    def _raw_values(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        out = np.zeros_like(theta)
        for p in self.peaks:
            if p.weight > 0.0:
                out += p.weight * np.exp(-np.abs(theta - p.center) / p.scale)
        if self.support is not None:
            out = np.where(self.support.contains(theta), out, 0.0)
        return out

    def breakpoints(self) -> list[float]:
        """Kink locations: peak centers and support edges."""
        pts = [p.center for p in self.peaks]
        if self.support is not None:
            pts.extend(self.support.boundary_points())
        return sorted({p for p in pts if -HALF_PI < p < HALF_PI})

    def rule(self, funcs: Sequence[AngularFunction] = (),
             cuts: Sequence[float] = ()) -> tuple[np.ndarray, np.ndarray]:
        """``sampling_rule`` for products of the spectrum with ``funcs``, cut
        at the breakpoints, at ``cuts`` and at distances ``scale * 2**k`` from
        each peak's center.  Between two such cuts a peak falls by a factor
        ``e**(2**k)`` from at most ``e**-(2**k)`` of its height, which the
        rule's 30 nodes per piece resolve at any scale."""
        graded = [p.center + side * p.scale * 2.0 ** k
                  for p in self.peaks for side in (-1.0, 1.0)
                  for k in range(max(0, math.ceil(math.log2(math.pi / p.scale))))]
        return sampling_rule(funcs, [*self.breakpoints(), *graded, *cuts])

    def _integral_sq(self, values, cuts: Sequence[float] = ()) -> float:
        """The integral of ``values**2`` over [-pi/2, pi/2] on ``rule``."""
        nodes, weights = self.rule(cuts=cuts)
        return float(weights @ (values(nodes) ** 2 + values(-nodes) ** 2))

    def _compute_norm_constant(self) -> float:
        if self.normalization == "raw":
            return 1.0
        total = self._integral_sq(self._raw_values)
        if total <= 0.0:
            raise ContractError("cannot unit-normalize an almost-everywhere-zero spectrum")
        return 1.0 / math.sqrt(total)

    @property
    def norm_constant(self) -> float:
        return self._norm_constant  # type: ignore[attr-defined]

    def evaluate(self, theta: np.ndarray) -> np.ndarray:
        return self.norm_constant * self._raw_values(theta)

    def norm(self) -> float:
        """L2 norm of the (normalized) spectrum."""
        return math.sqrt(self._integral_sq(self.evaluate))

    def norm_outside(self, c_s: SupportSet) -> float:
        """L2 norm of the spectrum restricted to the complement of c_s
        (the support-assumption leakage)."""
        return math.sqrt(self._integral_sq(
            lambda t: np.where(c_s.contains(t), 0.0, self.evaluate(t)),
            c_s.boundary_points()))


def two_path_model() -> ApsModel:
    """Reference two-multipath spectrum: components at 0.5 rad and 1.4 rad
    with weights 1 and 4, unit-normalized."""
    return ApsModel(peaks=(
        ApsPeak(center=0.5, scale=0.05, weight=1.0),
        ApsPeak(center=1.4, scale=0.05, weight=4.0),
    ))


def random_aps_model(rng: np.random.Generator, support: SupportSet) -> ApsModel:
    """Random unit-norm mixture of one to three peaks, strictly supported
    inside ``support``."""
    lo, hi = support.intervals[0][0], support.intervals[-1][1]
    span = hi - lo
    n_peaks = int(rng.integers(1, 4))
    peaks = tuple(
        ApsPeak(
            center=float(rng.uniform(lo + 0.03 * span, hi - 0.03 * span)),
            scale=float(rng.uniform(0.02, 0.2)),
            weight=float(rng.uniform(0.2, 1.0)),
        )
        for _ in range(n_peaks)
    )
    return ApsModel(peaks=peaks, support=support)


# ---------------------------------------------------------------------------
# Covariance synthesis  r_k = <rho, g_k>
# ---------------------------------------------------------------------------


def synthesize_r_vector(aps: ApsModel, funcs: Sequence[AngularFunction]) -> np.ndarray:
    """Inner products of the spectrum with each kernel: one product of the
    sampled kernels with the spectrum's even/odd samples on ``aps.rule``."""
    nodes, weights = aps.rule(funcs)
    plus, minus = aps.evaluate(nodes), aps.evaluate(-nodes)
    rho = np.sqrt(0.5 * np.tile(weights, 2)) * np.concatenate([plus + minus, plus - minus])
    return sample(funcs, nodes, weights).T @ rho


def synthesize_covariance(aps: ApsModel, fs: FunctionSet):
    """Hermitian Toeplitz uplink covariance for this spectrum."""
    return HermitianToeplitzCov.from_r_vector(synthesize_r_vector(aps, fs.uplink))


# ---------------------------------------------------------------------------
# Finite-dimensional grid oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleSpec:
    """Uniform-grid quadrature for the brute-force projection.

    Every smooth piece between mask edges gets its own uniform grid with
    spacing at most ``pi / (grid_points - 1)`` (the spacing of a
    ``grid_points`` grid over [-pi/2, pi/2]) and Gregory-corrected
    trapezoid weights, so the rule is O(h^6) on each piece wherever its
    ends fall.
    """

    grid_points: int = 4001

    def __post_init__(self) -> None:
        if self.grid_points < 201 or self.grid_points % 2 == 0:
            raise ContractError("grid_points must be odd and >= 201")

    @property
    def max_spacing(self) -> float:
        return math.pi / (self.grid_points - 1)


# Gregory end corrections through the 4th difference:
#   int = h [f_0/2 + f_1 + ... + f_n/2]
#         - sum_j c_j h (nabla^j f_n + (-1)^j Delta^j f_0),  j = 1..4,
# which is exact for polynomials of degree <= 5.
_GREGORY = (1.0 / 12.0, 1.0 / 24.0, 19.0 / 720.0, 3.0 / 160.0)
_MIN_INTERVALS = 2 * len(_GREGORY)   # the two end corrections share <= 1 node


def _gregory_weights(intervals: int, h: float) -> np.ndarray:
    w = np.ones(intervals + 1)
    w[0] = w[-1] = 0.5
    for j, c in enumerate(_GREGORY, start=1):
        for i in range(j + 1):
            t = c * (-1) ** i * math.comb(j, i)
            w[i] -= t
            w[intervals - i] -= t
    return h * w


def _piecewise_nodes_weights(
    spec: OracleSpec, boundaries: Sequence[float]
) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """(nodes, Gregory weights, midpoint) per smooth piece."""
    edges = sorted({-HALF_PI, HALF_PI, *(b for b in boundaries if -HALF_PI < b < HALF_PI)})
    pieces = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        m = max(math.ceil((hi - lo) / spec.max_spacing), _MIN_INTERVALS)
        nodes = np.linspace(lo, hi, m + 1)
        pieces.append((nodes, _gregory_weights(m, (hi - lo) / m), 0.5 * (lo + hi)))
    return pieces


def _live_values(f: AngularFunction, nodes: np.ndarray, mid: float) -> np.ndarray:
    """``f`` on one grid piece: its kernel, or 0 when the piece lies in its
    zero set."""
    if f.mask is not None and bool(f.mask.contains(np.array([mid]))[0]):
        return np.zeros(nodes.size)
    return f.kernel_values(nodes)


@lru_cache(maxsize=1)
def _oracle_range(basis: tuple[AngularFunction, ...], boundaries: tuple[float, ...],
                  spec: OracleSpec, rel_cutoff: float):
    """The grid pieces and the kept left singular vectors U_k of the
    sqrt(w)-weighted basis samples; cached, as checks call the oracle once
    per downlink slot with one basis."""
    pieces = _piecewise_nodes_weights(spec, boundaries)
    weighted = np.concatenate([
        np.sqrt(w)[:, None] * np.column_stack([_live_values(f, nodes, mid) for f in basis])
        for nodes, w, mid in pieces])
    U, s, _ = np.linalg.svd(weighted, full_matrices=False)
    U_k = U[:, : int(np.count_nonzero(s**2 > rel_cutoff * s[0] ** 2))]
    U_k.setflags(write=False)
    return pieces, U_k


def oracle_residual(
    y: AngularFunction,
    basis: Sequence[AngularFunction],
    spec: OracleSpec = OracleSpec(),
    pinv: PinvSpec = PinvSpec(),
) -> float:
    """Brute-force projection residual ||y - P_span(y)|| on a grid.

    Discretizes everything on per-piece uniform grids with Gregory-corrected
    trapezoid weights (see ``OracleSpec``), takes the SVD of the
    sqrt(w)-weighted basis samples, keeps the directions with
    ``s**2 > pinv.rel_cutoff * s_0**2`` and returns the norm of the weighted
    ``y`` samples minus their projection onto them: least squares, which
    unlike normal equations keeps small directions.  Shares no nodes or code with the engine's sampled
    Gauss-Legendre SVD or the closed-form kernel/Bessel path it checks.
    """
    boundaries = sorted({p for f in (*basis, y) if f.mask is not None
                         for p in f.mask.boundary_points()})
    pieces, U_k = _oracle_range(tuple(basis), tuple(boundaries), spec, pinv.rel_cutoff)
    y_bar = np.concatenate([np.sqrt(w) * _live_values(y, nodes, mid)
                            for nodes, w, mid in pieces])
    return float(np.linalg.norm(y_bar - U_k @ (U_k.T @ y_bar)))


# ---------------------------------------------------------------------------
# Figure pipelines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig1Result:
    report_no_si: BoundReport
    report_si: BoundReport


@dataclass(frozen=True)
class Fig2Result:
    errors_no_si: np.ndarray
    errors_si: np.ndarray
    bounds_si: np.ndarray
    leakage_norm: float          # ||rho|| outside the assumed support


@dataclass(frozen=True)
class Fig3Result:
    theta: np.ndarray
    rho_true: np.ndarray                  # values at theta
    rho_est_no_si: np.ndarray
    rho_est_si: np.ndarray
    constraint_errors_no_si: np.ndarray   # |<rho~, g_u[k]> - r_u[k]|
    constraint_errors_si: np.ndarray


def _gram_systems(
    cfg: UlaConfig, c_s: SupportSet | None, pinv: PinvSpec
) -> tuple[GramSystem, GramSystem]:
    """The Gram systems without and with support information; the same
    system twice when there is none."""
    gs_no = build_gram_system(build_function_set(cfg, None), pinv)
    if c_s is None or c_s.is_empty():
        return gs_no, gs_no
    return gs_no, build_gram_system(build_function_set(cfg, c_s), pinv)


def run_fig1(
    cfg: UlaConfig,
    c_s: SupportSet | None,
    B: float = 1.0,
    pinv: PinvSpec = PinvSpec(),
) -> Fig1Result:
    """Certified bounds with and without support information."""
    report_no_si, report_si = (compute_bounds(gs, B) for gs in _gram_systems(cfg, c_s, pinv))
    return Fig1Result(
        report_no_si=report_no_si,
        report_si=report_si,
    )


def run_fig2(
    cfg: UlaConfig,
    c_s: SupportSet | None,
    aps: ApsModel | None = None,
    B: float = 1.0,
    pinv: PinvSpec = PinvSpec(),
) -> Fig2Result:
    """Realized per-entry conversion errors against the certified bounds.

    The reference spectrum has a small component outside [0, pi/2], so with
    that model the support assumption is (mildly) violated; the SI bound
    then holds only up to the reported leakage term.
    """
    aps = aps or two_path_model()
    gram_pair = _gram_systems(cfg, c_s, pinv)
    fs = gram_pair[1].function_set

    r_u = synthesize_r_vector(aps, fs.uplink)
    r_d = synthesize_r_vector(aps, fs.downlink)
    errors_no_si, errors_si = (np.abs(build_conversion_operator(gs).A @ r_u - r_d)
                               for gs in gram_pair)
    return Fig2Result(
        errors_no_si=errors_no_si,
        errors_si=errors_si,
        bounds_si=compute_bounds(gram_pair[1], B).bounds_pv0,
        leakage_norm=aps.norm_outside(fs.support) if fs.support is not None else 0.0,
    )


def run_fig3(
    cfg: UlaConfig,
    c_s: SupportSet | None,
    aps: ApsModel | None = None,
    grid_points: int = 1024,
    pinv: PinvSpec = PinvSpec(),
) -> Fig3Result:
    """Spectrum estimates on a uniform grid plus constraint-satisfaction data."""
    aps = aps or two_path_model()
    gram_pair = _gram_systems(cfg, c_s, pinv)
    fs = gram_pair[1].function_set

    r_u = synthesize_r_vector(aps, fs.uplink)
    est_pair = [estimate_aps(gs, r_u) for gs in gram_pair]

    theta = np.linspace(-HALF_PI, HALF_PI, grid_points)
    rho_est_no_si, rho_est_si = (est.evaluate(theta) for est in est_pair)
    constraint_errors_no_si, constraint_errors_si = (
        np.abs((gs.G @ est.coefficients)[: 2 * fs.n] - r_u)
        for gs, est in zip(gram_pair, est_pair))
    return Fig3Result(
        theta=theta,
        rho_true=aps.evaluate(theta),
        rho_est_no_si=rho_est_no_si,
        rho_est_si=rho_est_si,
        constraint_errors_no_si=constraint_errors_no_si,
        constraint_errors_si=constraint_errors_si,
    )


# ---------------------------------------------------------------------------
# CSV / metadata emission
# ---------------------------------------------------------------------------


def _write_columns(path: str, header: Sequence[str], *columns: Sequence) -> None:
    """``header``, then one row per index of the equal-length ``columns``;
    ``csv`` writes each float as its ``repr``, so every value round-trips."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


def write_bounds_csv(path: str, report: BoundReport) -> None:
    """Row i is slot k = i + 1: the real part of lag k - 1 for k <= N, else
    the imaginary part of lag k - N - 1."""
    n = report.residuals.size // 2
    _write_columns(path, ["k", "entry_kind", "lag", "residual", "bound_generic",
                          "bound_pv0", "norm_gdk_sq"],
                   range(1, 2 * n + 1), ["real"] * n + ["imag"] * n, [*range(n)] * 2,
                   report.residuals.tolist(), report.bounds_generic.tolist(),
                   report.bounds_pv0.tolist(), report.norms_sq.tolist())


def write_fig1_csv(path: str, result: Fig1Result) -> None:
    no_si = result.report_no_si.bounds_pv0
    _write_columns(path, ["k", "bound_no_si", "bound_si"], range(1, no_si.size + 1),
                   no_si.tolist(), result.report_si.bounds_pv0.tolist())


def write_fig2_csv(path: str, result: Fig2Result) -> None:
    _write_columns(path, ["k", "err_no_si", "err_si", "bound_si"],
                   range(1, result.errors_no_si.size + 1), result.errors_no_si.tolist(),
                   result.errors_si.tolist(), result.bounds_si.tolist())


def write_fig3_csv(path: str, result: Fig3Result) -> None:
    _write_columns(path, ["theta", "rho_true", "rho_est_no_si", "rho_est_si"],
                   result.theta.tolist(), result.rho_true.tolist(),
                   result.rho_est_no_si.tolist(), result.rho_est_si.tolist())


def write_metadata(path: str, payload: dict) -> None:
    """Deterministic JSON sidecar (sorted keys, no timestamps).  A
    non-finite value raises NumericalConsistencyError and writes nothing."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalConsistencyError(f"metadata is not finite: {exc}") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
