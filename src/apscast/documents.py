"""Strict JSON documents and their value checks, in the standard library.

Every document the package reads goes through these readers: config files
and covariance files on the command line, and operator files in the
library's ``load_operator`` and in ``convert --operator``.
``operator_record`` checks a whole operator document and returns plain
values.  The checks on an array section, a support set and a build's
description (``check_build``) live here too; ``records.UlaConfig``,
``records.SupportSet`` and ``apply.ConversionOperator`` run the same
functions, so every check has one definition and one message.

This module imports nothing of the package but ``errors`` and, of the
standard library, only ``base64``, ``json``, ``math``, ``sys`` and
``array``: no numpy, ``dataclasses`` or ``typing``.  A cold ``convert
--operator`` process loads it and compiles its source when bytecode is not
written, so it holds the readers and checks and nothing else.
"""

import base64
import json
import math
import sys
from array import array

from .errors import ContractError

__all__ = [
    "HALF_PI",
    "ARRAY_FIELDS",
    "ARRAY_DEFAULTS",
    "check_array",
    "support_intervals",
    "support_pairs",
    "json_object",
    "json_number",
    "json_fields",
    "json_floats",
    "array_section",
    "support_section",
    "load_strict_json",
    "OperatorRecord",
    "check_build",
    "operator_record",
    "read_operator_file",
    "float64_values",
    "dimension_error",
    "diagonal_error",
]

HALF_PI = math.pi / 2.0

# The fields of ``records.UlaConfig`` with their JSON kinds, in declaration
# order, and the defaults it declares.
ARRAY_FIELDS = {"n_antennas": int, "spacing": float, "f_up": float,
                "f_down": float, "wave_speed": float}
ARRAY_DEFAULTS = {"wave_speed": 3.0e8}


# ---------------------------------------------------------------------------
# Value checks
# ---------------------------------------------------------------------------


def check_array(values: dict) -> None:
    """Check the array fields ``values`` (keys of ``ARRAY_FIELDS``): at
    least one antenna, positive and finite spacing, frequencies and wave
    speed."""
    if values["n_antennas"] < 1:
        raise ContractError(f"n_antennas must be >= 1, got {values['n_antennas']}")
    for name in ("spacing", "f_up", "f_down", "wave_speed"):
        v = values[name]
        if not (math.isfinite(v) and v > 0.0):
            raise ContractError(f"{name} must be positive and finite, got {v}")


def support_intervals(pairs) -> tuple[tuple[float, float], ...]:
    """``pairs`` of interval ends as a support set's intervals: sorted,
    each with ``a <= b`` inside [-pi/2, pi/2] (ends within 1e-12 outside are
    clipped to it), and pairwise disjoint."""
    ivs = sorted((float(a), float(b)) for a, b in pairs)
    for a, b in ivs:
        if a > b:
            raise ContractError(f"interval [{a}, {b}] is reversed: its start exceeds its end")
        if not (-HALF_PI - 1e-12 <= a and b <= HALF_PI + 1e-12):
            raise ContractError(f"interval [{a}, {b}] is not inside [-pi/2, pi/2]")
    for (_, b0), (a1, _) in zip(ivs[:-1], ivs[1:]):
        if a1 < b0:
            raise ContractError("support intervals must be pairwise disjoint")
    return tuple((max(a, -HALF_PI), min(b, HALF_PI)) for a, b in ivs)


# ---------------------------------------------------------------------------
# JSON values and sections
# ---------------------------------------------------------------------------


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


def json_fields(doc, kinds: dict, where: str, defaults: dict | None = None) -> dict:
    """The JSON object ``doc`` with keys in ``kinds`` (name -> int or
    float), every value read through ``json_number``.  With ``defaults``,
    absent keys take their default, and a key of ``kinds`` with neither is
    an error."""
    json_object(doc, kinds, where)
    values = {k: json_number(v, kinds[k], f"{where}.{k}") for k, v in doc.items()}
    if defaults is None:
        return values
    values = defaults | values
    missing = [k for k in kinds if k not in values]
    if missing:
        raise ContractError(f"{where} is missing {missing}")
    return values


def json_floats(value, size: int, where: str) -> list[float]:
    """``value``, a list of ``size`` entries, as floats.  Every entry must be
    a JSON number as ``json.load`` gives it (an int or a float; not a bool,
    a string or null) and finite."""
    if not (isinstance(value, list) and len(value) == size):
        raise ContractError(f"{where} must be a list of {size} numbers")
    if not set(map(type, value)) <= {int, float}:
        bad = next(x for x in value if type(x) not in (int, float))
        raise ContractError(f"{where} must hold numbers only, got {bad!r}")
    try:
        floats = list(map(float, value))
    except OverflowError:  # an integer literal beyond the float range
        floats = [math.inf]
    if not all(map(math.isfinite, floats)):
        raise ContractError(f"{where} must be finite")
    return floats


def array_section(doc, where: str) -> dict:
    """The array fields of the JSON object ``doc``, defaults filled in,
    after ``check_array``."""
    values = json_fields(doc, ARRAY_FIELDS, where, ARRAY_DEFAULTS)
    check_array(values)
    return values


def support_pairs(ivs, where: str) -> list[list[float]]:
    """A list of [a, b] pairs (radians) as float pairs, each end read
    through ``json_number``; ``support_intervals`` checks the pairs."""
    if not (isinstance(ivs, list) and
            all(isinstance(p, list) and len(p) == 2 for p in ivs)):
        raise ContractError(f"{where} must be a list of [a, b] pairs")
    return [[json_number(x, float, f"{where}[{i}]") for x in p] for i, p in enumerate(ivs)]


def support_section(ivs, where: str) -> tuple[tuple[float, float], ...] | None:
    """A list of [a, b] pairs (radians) as checked support intervals;
    ``[]`` is None."""
    pairs = support_pairs(ivs, where)
    return support_intervals(pairs) if pairs else None


def _reject_constant(token: str):
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
    except ValueError as exc:  # raised by int() beyond its digit limit
        raise ContractError(
            f"{what} {path} holds an integer literal with too many digits to read"
        ) from exc
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


def float64_values(raw: bytes) -> array:
    """Little-endian float64 bytes as an ``array('d')`` of their values."""
    values = array("d", raw)
    if sys.byteorder != "little":
        values.byteswap()
    return values


class OperatorRecord:
    """An operator document after every check of ``operator_record``.

    ``config`` holds the array fields (``ARRAY_FIELDS``) and ``support`` the
    checked intervals, or None.  ``A`` is the 2n x 2n operator as row-major,
    little-endian float64 bytes, 8 (2n)^2 of them.
    """

    __slots__ = ("n", "L", "rank", "config", "support", "A", "downlink_norms_sq")

    def __init__(self, n: int, L: int, rank: int, config: dict,
                 support: tuple[tuple[float, float], ...] | None, A: bytes,
                 downlink_norms_sq: list[float]) -> None:
        self.n, self.L, self.rank = n, L, rank
        self.config, self.support = config, support
        self.A, self.downlink_norms_sq = A, downlink_norms_sq


def _read_A(value, n: int) -> bytes:
    """``A`` from a document: a base64 string of 8 (2n)^2 bytes, the
    row-major, little-endian float64 values."""
    if not isinstance(value, str):
        raise ContractError("A must be a base64 string; "
                            "re-export the operator with apscast export-operator")
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


def check_build(n: int, L: int, rank: int, downlink_norms_sq) -> list[float]:
    """``downlink_norms_sq`` as floats, after the checks on what describes
    the build of an operator for n antennas: it is a list of 2n finite
    numbers (read through ``json_floats``), ``L >= 2n`` and
    ``0 <= rank <= L``.  An operator file and ``apply.ConversionOperator``
    make these checks with the same messages."""
    norms = json_floats(downlink_norms_sq, 2 * n, "downlink_norms_sq")
    if L < 2 * n:
        raise ContractError(f"L must be >= 2n = {2*n}, got {L}")
    if not 0 <= rank <= L:
        raise ContractError(f"rank must be in 0..L = 0..{L}, got {rank}")
    return norms


def operator_record(doc) -> OperatorRecord:
    """Check an operator document: ``config`` is an array section and
    ``support`` a support set, n, L and rank are integers that agree, A is
    the base64 of a finite (2n, 2n) array, and ``check_build`` passes on n,
    L, rank and downlink_norms_sq.  Other keys, such as the ``G`` that
    ``export_operator`` writes when given one, are ignored."""
    try:
        config = array_section(doc["config"], "config")
        support = support_section(doc.get("support", []), "support")
        n, L, rank = (json_number(doc[key], int, key) for key in ("n", "L", "rank"))
        if n != config["n_antennas"]:
            raise ContractError(
                f"n = {n} does not match config.n_antennas = {config['n_antennas']}"
            )
        A = _read_A(doc["A"], n)
        norms = check_build(n, L, rank, doc["downlink_norms_sq"])
    except (KeyError, TypeError) as exc:
        raise ContractError(f"malformed operator document: {exc}") from exc
    return OperatorRecord(n=n, L=L, rank=rank, config=config, support=support,
                          A=A, downlink_norms_sq=norms)


def read_operator_file(path: str) -> OperatorRecord:
    """The checked record of the operator file ``path``; every failure is a
    ContractError that names the file."""
    doc = load_strict_json(path, "operator file")
    try:
        return operator_record(doc)
    except ContractError as exc:
        raise ContractError(f"operator file {path}: {exc}") from exc
