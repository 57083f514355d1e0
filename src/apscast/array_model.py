"""Uniform linear array model: uplink/downlink function sets and steering vectors.

For a ULA the covariance is Hermitian Toeplitz, so only the 2N functions
behind the first column matter: slots 1..N carry the real parts
cos(omega_k sin(theta)) and slots N+1..2N the imaginary parts
sin(omega_k sin(theta)), with omega_k = 2 pi (f d / c) (k - 1).  Slot N+1 is
therefore the zero function; it is kept so covariance entries and function
slots stay aligned, and the Gram pseudo-inverse absorbs the resulting exact
rank deficiency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .hilbert_space import HALF_PI, AngularFunction, SupportSet, Trig, mask

__all__ = ["UlaConfig", "FunctionSet", "build_function_set", "steering_vector"]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class UlaConfig:
    """Array geometry and duplex frequencies.

    All kernels depend only on the unitless products d*f/c, exposed as
    ``spacing_up``/``spacing_down``.
    """

    n_antennas: int
    spacing: float
    f_up: float
    f_down: float
    wave_speed: float = 3.0e8

    def __post_init__(self) -> None:
        if self.n_antennas < 1:
            raise ContractError(f"n_antennas must be >= 1, got {self.n_antennas}")
        for name in ("spacing", "f_up", "f_down", "wave_speed"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ContractError(f"{name} must be positive and finite, got {v}")

    @property
    def spacing_up(self) -> float:
        return self.spacing * self.f_up / self.wave_speed

    @property
    def spacing_down(self) -> float:
        return self.spacing * self.f_down / self.wave_speed

    @classmethod
    def reference(cls, n_antennas: int = 30) -> "UlaConfig":
        """The reference 30-antenna configuration: f_u = 1.8 GHz,
        f_d = 1.9 GHz, d = 1.05 c / (2 f_u), so d f_u / c = 0.525 (above the
        half-wavelength limit: grating lobes)."""
        f_up = 1.8e9
        c = 3.0e8
        return cls(
            n_antennas=n_antennas,
            spacing=1.05 * c / (2.0 * f_up),
            f_up=f_up,
            f_down=1.9e9,
            wave_speed=c,
        )

    def omegas(self, side: str) -> np.ndarray:
        """Kernel frequencies 2 pi (f d / c) (k - 1), k = 1..N."""
        s = self.spacing_up if side == "uplink" else self.spacing_down
        return TWO_PI * s * np.arange(self.n_antennas, dtype=float)


@dataclass(frozen=True)
class FunctionSet:
    """Ordered first-column function sets plus optional support constraints.

    ``index_convention``: slots 1..N are the real parts of the covariance
    first column, slots N+1..2N the imaginary parts; ``constraints[j]`` is
    the masked downlink function P_K(g_d[j]) with constraint value 0.
    """

    config: UlaConfig
    uplink: tuple[AngularFunction, ...]
    downlink: tuple[AngularFunction, ...]
    constraints: tuple[AngularFunction, ...]
    support: SupportSet | None
    index_convention: str = field(
        default="slots 1..N: Real(first column); slots N+1..2N: Imag(first column)"
    )

    @property
    def n(self) -> int:
        return self.config.n_antennas

    @property
    def basis(self) -> tuple[AngularFunction, ...]:
        """Gram basis: uplink functions followed by constraint functions."""
        return self.uplink + self.constraints


def _first_column_functions(omegas: np.ndarray) -> tuple[AngularFunction, ...]:
    cosines = [AngularFunction(Trig.COSINE, float(w)) for w in omegas]
    sines = [AngularFunction(Trig.SINE, float(w)) for w in omegas]
    return tuple(cosines + sines)


def build_function_set(cfg: UlaConfig, c_s: SupportSet | None = None) -> FunctionSet:
    """Build the 2N uplink and 2N downlink kernels, plus constraints.

    With support information ``c_s`` the constraint set holds the 2N masked
    downlink functions (zeroed on c_s).
    """
    uplink = _first_column_functions(cfg.omegas("uplink"))
    downlink = _first_column_functions(cfg.omegas("downlink"))
    constraints: tuple[AngularFunction, ...] = ()
    if c_s is not None and not c_s.is_empty():
        constraints = tuple(mask(g, c_s) for g in downlink)
    return FunctionSet(
        config=cfg,
        uplink=uplink,
        downlink=downlink,
        constraints=constraints,
        support=c_s if (c_s is not None and not c_s.is_empty()) else None,
    )


def steering_vector(cfg: UlaConfig, theta: float, f: float) -> np.ndarray:
    """Array response a(theta, f): entry n = exp(i 2 pi (f/c) d (n-1) sin theta)."""
    if not (-HALF_PI <= theta <= HALF_PI):
        raise ContractError(f"theta must lie in [-pi/2, pi/2], got {theta}")
    if f <= 0.0:
        raise ContractError(f"frequency must be positive, got {f}")
    n = np.arange(cfg.n_antennas, dtype=float)
    phase = TWO_PI * (f / cfg.wave_speed) * cfg.spacing * n * math.sin(theta)
    return np.exp(1j * phase)
