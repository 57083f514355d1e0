"""Records shared by the build and apply layers, and their config documents.

``SupportSet`` and ``UlaConfig`` describe what an operator was built for;
the readers and writers below give every configuration record one format:
config files, the config part of ``_meta.json``, the operator file's
``config`` and ``support`` (written by ``apply.export_operator``), and the
payload ``apscast bounds`` hashes into ``bounds_meta.json``.

The checks of both records and the JSON readers they build on are in
``documents``, which needs neither ``dataclasses``, ``typing`` nor numpy,
so a cold ``convert --operator`` process checks an operator file's
``config`` and ``support`` without loading this module.  This module
imports nothing else of the package but ``errors``, so applying a stored
operator never loads the build.  It imports numpy at module level, as
every module that imports it (``apply`` and the build) does.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .documents import HALF_PI, check_array, json_fields, support_intervals, support_pairs
from .errors import ContractError

__all__ = [
    "HALF_PI",
    "SupportSet",
    "UlaConfig",
    "spec_from_dict",
    "support_from_list",
    "config_to_dict",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SupportSet:
    """Finite union of disjoint closed intervals inside [-pi/2, pi/2],
    kept sorted."""

    intervals: tuple[tuple[float, float], ...]

    def __init__(self, intervals: Iterable[Sequence[float]]) -> None:
        object.__setattr__(self, "intervals", support_intervals(intervals))

    @classmethod
    def empty(cls) -> "SupportSet":
        return cls(())

    @classmethod
    def full(cls) -> "SupportSet":
        return cls(((-HALF_PI, HALF_PI),))

    def measure(self) -> float:
        return sum(b - a for a, b in self.intervals)

    def is_empty(self) -> bool:
        return self.measure() == 0.0

    def complement(self) -> "SupportSet":
        """Closure of [-pi/2, pi/2] minus this set (zero-width gaps dropped)."""
        out = []
        cursor = -HALF_PI
        for a, b in self.intervals:
            if a > cursor:
                out.append((cursor, a))
            cursor = max(cursor, b)
        if cursor < HALF_PI:
            out.append((cursor, HALF_PI))
        return SupportSet(out)

    def union(self, other: "SupportSet") -> "SupportSet":
        ivs = sorted(self.intervals + other.intervals)
        merged: list[tuple[float, float]] = []
        for a, b in ivs:
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        return SupportSet(merged)

    def contains(self, theta: np.ndarray) -> np.ndarray:
        """Boolean membership mask, elementwise over ``theta``."""
        theta = np.asarray(theta, dtype=float)
        inside = np.zeros(theta.shape, dtype=bool)
        for a, b in self.intervals:
            inside |= (theta >= a) & (theta <= b)
        return inside

    def boundary_points(self) -> list[float]:
        pts: list[float] = []
        for a, b in self.intervals:
            pts.extend((a, b))
        return pts


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
        check_array(vars(self))

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
        """Kernel frequencies 2 pi (f d / c) (k - 1), k = 1..N, of "uplink" or "downlink"."""
        if side not in ("uplink", "downlink"):
            raise ContractError(f"side must be 'uplink' or 'downlink', got {side!r}")
        s = self.spacing_up if side == "uplink" else self.spacing_down
        return TWO_PI * s * np.arange(self.n_antennas, dtype=float)


# ---------------------------------------------------------------------------
# Configuration documents
# ---------------------------------------------------------------------------
#
# A spec section holds exactly the fields of its dataclass; a support set is
# a list of [a, b] pairs.


def spec_from_dict(cls, doc, where: str, base=None):
    """Read the dataclass ``cls``, whose fields are all int or float, from
    the JSON object ``doc`` through ``documents.json_fields``.  Absent fields
    come from ``base`` when given, else from the class defaults, and a field
    with neither is an error.  A value the record rejects raises its
    ContractError with ``where`` in front."""
    kinds = typing.get_type_hints(cls)
    defaults = None if base is not None else {
        f.name: f.default for f in dataclasses.fields(cls)
        if f.default is not dataclasses.MISSING}
    values = json_fields(doc, kinds, where, defaults)
    try:
        return cls(**values) if base is None else dataclasses.replace(base, **values)
    except ContractError as exc:
        raise ContractError(f"{where}: {exc}") from exc


def support_from_list(ivs, where: str) -> SupportSet | None:
    """A list of [a, b] pairs (radians) as a SupportSet; ``[]`` is None.
    Intervals the record rejects raise its ContractError with ``where`` in
    front."""
    pairs = support_pairs(ivs, where)
    try:
        return SupportSet(pairs) if pairs else None
    except ContractError as exc:
        raise ContractError(f"{where}: {exc}") from exc


def config_to_dict(array: UlaConfig, support: SupportSet | None, **sections) -> dict:
    """The document ``spec_from_dict`` and ``support_from_list`` read back:
    ``array``, ``support`` and each keyword section, dataclass specs written
    through ``dataclasses.asdict`` and other values as given."""
    doc = {"array": array,
           "support": [list(iv) for iv in support.intervals] if support else [],
           **sections}
    return {k: dataclasses.asdict(v) if dataclasses.is_dataclass(v) else v
            for k, v in doc.items()}
