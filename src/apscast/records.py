"""Records shared by the build and apply layers, and their JSON documents.

``SupportSet`` and ``UlaConfig`` describe what an operator was built for;
the readers and writers below give every configuration record one format:
config files, the config part of ``_meta.json``, the operator file's
``config`` and ``support``, and the bound report's hash payload.
``operator_record`` checks a whole operator document and returns plain
values, for the library's ``operator_from_dict`` and for the command line,
which converts with them.

This module imports nothing of the package but ``errors``, so applying a
stored operator never loads the build.  It imports numpy only inside the
functions that return arrays (``SupportSet.contains`` and
``UlaConfig.omegas``), so reading and applying an operator file need the
standard library alone.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
import sys
import typing
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NoReturn, Sequence

from .errors import ContractError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "HALF_PI",
    "SupportSet",
    "UlaConfig",
    "json_object",
    "json_number",
    "json_floats",
    "spec_from_dict",
    "support_from_list",
    "config_to_dict",
    "load_strict_json",
    "OperatorRecord",
    "operator_record",
    "read_operator_file",
    "float64_values",
    "dimension_error",
    "diagonal_error",
]

HALF_PI = math.pi / 2.0
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SupportSet:
    """Finite union of disjoint closed intervals inside [-pi/2, pi/2],
    kept sorted."""

    intervals: tuple[tuple[float, float], ...]

    def __init__(self, intervals: Iterable[Sequence[float]]) -> None:
        ivs = sorted((float(a), float(b)) for a, b in intervals)
        for a, b in ivs:
            if not (-HALF_PI - 1e-12 <= a <= b <= HALF_PI + 1e-12):
                raise ContractError(
                    f"interval [{a}, {b}] is not inside [-pi/2, pi/2]"
                )
        for (_, b0), (a1, _) in zip(ivs[:-1], ivs[1:]):
            if a1 < b0:
                raise ContractError("support intervals must be pairwise disjoint")
        ivs = [(max(a, -HALF_PI), min(b, HALF_PI)) for a, b in ivs]
        object.__setattr__(self, "intervals", tuple(ivs))

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
        import numpy as np

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
        import numpy as np

        s = self.spacing_up if side == "uplink" else self.spacing_down
        return TWO_PI * s * np.arange(self.n_antennas, dtype=float)


# ---------------------------------------------------------------------------
# Configuration documents
# ---------------------------------------------------------------------------
#
# A spec section holds exactly the fields of its dataclass; a support set is
# a list of [a, b] pairs.


def json_object(doc, keys, where: str) -> dict:
    """``doc``, after checking that it is a JSON object with keys in ``keys``."""
    if not isinstance(doc, dict):
        raise ContractError(f"{where} must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - set(keys)
    if unknown:
        raise ContractError(f"unknown keys in {where}: {sorted(unknown)}")
    return doc


def json_number(value, kind: type, where: str) -> int | float:
    """``value`` as ``kind`` (int or float).  Anything but a JSON number is
    rejected; an int must be integral (30.0 reads as 30) and a float finite,
    so literals that overflow, such as 1e400, are rejected too."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ContractError(f"{where} must be a number, got {value!r}")
    if kind is int:
        if isinstance(value, float) and not value.is_integer():
            raise ContractError(f"{where} must be an integer, got {value!r}")
        return int(value)
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ContractError(f"{where} must be finite, got {value!r}")
    return value


def json_floats(value, shape: tuple[int, ...], where: str) -> list[float]:
    """``value``, nested lists of ``shape``, as a flat row-major list of
    floats.  Every entry must be a JSON number as ``json.load`` gives it (an
    int or a float; not a bool, a string or null) and finite."""
    entries = [value]
    for size in shape:
        if not all(isinstance(x, list) and len(x) == size for x in entries):
            raise ContractError(f"{where} must be nested lists of shape {shape}")
        entries = [y for x in entries for y in x]
    if not set(map(type, entries)) <= {int, float}:
        bad = next(x for x in entries if type(x) not in (int, float))
        raise ContractError(f"{where} must hold numbers only, got {bad!r}")
    try:
        floats = list(map(float, entries))
    except OverflowError:  # an integer literal beyond the float range
        floats = [math.inf]
    if not all(map(math.isfinite, floats)):
        raise ContractError(f"{where} must be finite")
    return floats


def spec_from_dict(cls, doc, where: str, base=None):
    """Read the dataclass ``cls``, whose fields are all int or float, from
    the JSON object ``doc``.  Keys are the field names and every value goes
    through ``json_number``; absent fields come from ``base`` when given,
    else from the class defaults, and a field with neither is an error."""
    kinds = typing.get_type_hints(cls)
    json_object(doc, kinds, where)
    values = {k: json_number(v, kinds[k], f"{where}.{k}") for k, v in doc.items()}
    if base is not None:
        return dataclasses.replace(base, **values)
    missing = [f.name for f in dataclasses.fields(cls)
               if f.name not in values and f.default is dataclasses.MISSING]
    if missing:
        raise ContractError(f"{where} is missing {missing}")
    return cls(**values)


def support_from_list(ivs, where: str) -> SupportSet | None:
    """A list of [a, b] pairs (radians) as a SupportSet; ``[]`` is None."""
    if not (isinstance(ivs, list) and
            all(isinstance(p, list) and len(p) == 2 for p in ivs)):
        raise ContractError(f"{where} must be a list of [a, b] pairs")
    if not ivs:
        return None
    return SupportSet([json_number(x, float, f"{where}[{i}]") for x in p]
                      for i, p in enumerate(ivs))


def config_to_dict(array: UlaConfig, support: SupportSet | None, **sections) -> dict:
    """The document ``spec_from_dict`` and ``support_from_list`` read back:
    ``array``, ``support`` and each keyword section, dataclass specs written
    through ``dataclasses.asdict`` and other values as given."""
    doc = {"array": array,
           "support": [list(iv) for iv in support.intervals] if support else [],
           **sections}
    return {k: dataclasses.asdict(v) if dataclasses.is_dataclass(v) else v
            for k, v in doc.items()}


def _reject_constant(token: str) -> NoReturn:
    raise ContractError(f"non-finite number {token} is not allowed")


def load_strict_json(path: str, what: str):
    """Parse ``path`` as strict JSON (UTF-8, no NaN or Infinity tokens).
    Every failure is a ContractError that names ``what`` and the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ContractError(f"cannot read {what} {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ContractError(
            f"{what} {path} is not UTF-8 text "
            f"(byte {exc.object[exc.start]:#04x} at offset {exc.start})"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ContractError(
            f"{what} {path} is not valid JSON "
            f"(line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ContractError(f"{what} {path} is nested too deeply to read") from exc
    except ContractError as exc:
        raise ContractError(f"{what} {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Operator documents
# ---------------------------------------------------------------------------


def dimension_error(cov_n: int, op_n: int) -> ContractError:
    """The error for a covariance of dimension ``cov_n`` given to an operator
    for ``op_n`` antennas."""
    return ContractError(
        f"covariance dimension {cov_n} does not match operator dimension {op_n}"
    )


def diagonal_error(imag0: float) -> ContractError:
    """The error for a first column whose diagonal entry has the imaginary
    part ``imag0`` (not 0)."""
    return ContractError(
        f"diagonal entry must be real: imag(first_col[0]) = {float(imag0)!r}"
    )


def _byteswap_if_big_endian(values: array) -> array:
    """``values``, its items byte-swapped in place on a big-endian host.
    Swapping is its own inverse, so this turns native values into
    little-endian storage and little-endian storage into native values."""
    if sys.byteorder != "little":
        values.byteswap()
    return values


def float64_values(raw: bytes) -> array:
    """Little-endian float64 bytes as an ``array('d')`` of their values."""
    return _byteswap_if_big_endian(array("d", raw))


@dataclass(frozen=True)
class OperatorRecord:
    """An operator document after every check of ``operator_record``.

    ``A`` is the 2n x 2n operator as row-major, little-endian float64 bytes,
    8 (2n)^2 of them, whichever form the document held it in.
    """

    n: int
    L: int
    rank: int
    config: UlaConfig
    support: SupportSet | None
    A: bytes
    downlink_norms_sq: list[float]


def _read_A(value, n: int) -> bytes:
    """``A`` from a document: a base64 string of 8 (2n)^2 bytes, or (earlier
    files) nested lists, as little-endian float64 bytes."""
    if not isinstance(value, str):
        values = array("d", json_floats(value, (2 * n, 2 * n), "A"))
        return _byteswap_if_big_endian(values).tobytes()
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as exc:
        raise ContractError(f"A is not valid base64: {exc}") from exc
    size = 8 * (2 * n) ** 2
    if len(raw) != size:
        raise ContractError(f"A must decode to {size} bytes for n = {n}, got {len(raw)}")
    if not all(map(math.isfinite, float64_values(raw))):
        raise ContractError("A must be finite")
    return raw


def operator_record(doc) -> OperatorRecord:
    """Check an operator document: n, L and rank are integers that agree, A
    is a finite (2n, 2n) array (base64 or nested lists) and
    downlink_norms_sq a list of 2n finite numbers.  Keys other than those
    the operator file holds (such as ``G`` and ``Q`` in older files) are
    ignored."""
    try:
        cfg = spec_from_dict(UlaConfig, doc["config"], "config")
        support = support_from_list(doc.get("support", []), "support")
        n, L, rank = (json_number(doc[key], int, key) for key in ("n", "L", "rank"))
        if n != cfg.n_antennas:
            raise ContractError(
                f"n = {n} does not match config.n_antennas = {cfg.n_antennas}"
            )
        A = _read_A(doc["A"], n)
        norms = json_floats(doc["downlink_norms_sq"], (2 * n,), "downlink_norms_sq")
    except (KeyError, TypeError) as exc:
        raise ContractError(f"malformed operator document: {exc}") from exc
    if L < 2 * n:
        raise ContractError(f"L must be >= 2n = {2*n}, got {L}")
    if not 0 <= rank <= L:
        raise ContractError(f"rank must be in 0..L = 0..{L}, got {rank}")
    return OperatorRecord(n=n, L=L, rank=rank, config=cfg, support=support,
                          A=A, downlink_norms_sq=norms)


def read_operator_file(path: str) -> OperatorRecord:
    """The checked record of the operator file ``path``; every failure is a
    ContractError that names the file."""
    doc = load_strict_json(path, "operator file")
    try:
        return operator_record(doc)
    except ContractError as exc:
        raise ContractError(f"operator file {path}: {exc}") from exc
