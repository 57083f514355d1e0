"""Uniform linear array model: the uplink and downlink function sets.

For a ULA the covariance is Hermitian Toeplitz, so only the 2N functions
behind the first column matter: slots 1..N carry the real parts
cos(omega_k sin(theta)) and slots N+1..2N the imaginary parts
sin(omega_k sin(theta)), with omega_k = 2 pi (f d / c) (k - 1).  Slot N+1 is
therefore the zero function; it is kept so covariance entries and function
slots stay aligned, and the Gram pseudo-inverse absorbs the resulting exact
rank deficiency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert_space import AngularFunction, Trig, mask
from .records import SupportSet, UlaConfig

__all__ = ["FunctionSet", "build_function_set"]


@dataclass(frozen=True)
class FunctionSet:
    """Ordered first-column function sets plus optional support constraints.

    Slots 1..N are the real parts of the covariance first column, slots
    N+1..2N the imaginary parts; ``constraints[j]`` is the masked downlink
    function P_K(g_d[j]) with constraint value 0.
    """

    config: UlaConfig
    uplink: tuple[AngularFunction, ...]
    downlink: tuple[AngularFunction, ...]
    constraints: tuple[AngularFunction, ...]
    support: SupportSet | None

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

