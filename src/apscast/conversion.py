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

import dataclasses
import json
import math
import typing
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .array_model import FunctionSet, UlaConfig
from .errors import ContractError
from .hilbert_space import (
    AngularFunction,
    SupportSet,
    inner_product_with_status,  # noqa: F401  unused; bench/tracing.py wraps it here
    kernel_norms_sq,
    norm_sq,  # noqa: F401  unused; bench/tracing.py wraps it here
    sample,
    sampling_rule,
)
from .numerics import PinvSpec
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
    "json_object",
    "json_number",
    "json_array",
    "spec_from_dict",
    "support_from_list",
    "config_to_dict",
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
        downlink_norms_sq=kernel_norms_sq(fs.downlink),
        pinv=pinv,
    )


@dataclass(frozen=True)
class ConversionOperator:
    """Precomputed uplink-to-downlink conversion.

    ``A`` is Q^T G^+ restricted to its first 2N columns, so that
    [Re(col); Im(col)] of the converted covariance equals A @ r.  It depends
    only on the array geometry and support information, so it is built once
    and reused for every covariance.  ``downlink_norms_sq``, ``rank`` and
    ``L`` (the basis size) describe the build; G and Q stay on the
    ``GramSystem``.

    ``A`` is in slot order (rows and columns 0..N-1 real parts, N..2N-1
    imaginary parts); it is what operator files hold and what callers read.
    It is read-only, so writing into ``op.A`` raises ``ValueError``; a new
    ``A`` takes ``dataclasses.replace``.  A writable array given to the
    constructor is copied, a read-only one is kept.  Beside it the operator
    keeps a copy with the rows interleaved (row 2i is slot i, row 2i+1 slot
    N+i; columns in slot order), so the product in ``convert`` is the
    storage of the complex first column.  That copy costs one more 2N x 2N
    float64 per operator.
    """

    config: UlaConfig
    support: SupportSet | None
    A: np.ndarray
    downlink_norms_sq: np.ndarray
    rank: int
    L: int
    _A_interleaved: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n
        A = np.asarray(self.A, dtype=float, order="C")
        if A.shape != (2 * n, 2 * n):
            raise ContractError(f"A must have shape ({2*n}, {2*n}), got {A.shape}")
        if A.flags.writeable:
            A = A.copy()  # the caller may still write into its own array
            A.setflags(write=False)
        rows = np.empty_like(A)
        rows[0::2], rows[1::2] = A[:n], A[n:]
        rows.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "_A_interleaved", rows)

    @property
    def n(self) -> int:
        return self.config.n_antennas


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
# Hermitian Toeplitz covariance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HermitianToeplitzCov:
    """N x N Hermitian Toeplitz covariance stored as its first column.

    ``first_col`` is read-only.  A writable array given to the constructor
    is copied, a read-only one is kept, as for ``ConversionOperator.A``.
    """

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
        if col.flags.writeable:
            col = col.copy()  # the caller may still write into its own array
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
        col = r[:n] + 1j * r[n:]
        col.setflags(write=False)  # no other reference: kept uncopied
        return cls(col)

    def expand(self) -> np.ndarray:
        """Full Hermitian Toeplitz matrix R[n, m] = c_{n-m}."""
        c = self.first_col
        idx = np.subtract.outer(np.arange(self.n), np.arange(self.n))
        out = np.where(idx >= 0, c[np.abs(idx)], np.conj(c[np.abs(idx)]))
        return out


def convert(op: ConversionOperator, r_u: HermitianToeplitzCov) -> HermitianToeplitzCov:
    """Uplink-to-downlink covariance conversion: one matrix-vector product.

    The product runs over the operator's row-interleaved copy of ``A`` and
    writes its float64 output straight into the storage of the converted
    complex first column.  Each entry is the same dot product as in
    ``op.A @ r_u.to_r_vector()``, summed in the same order, so the two agree
    bit for bit.
    """
    if r_u.n != op.n:
        raise ContractError(
            f"covariance dimension {r_u.n} does not match operator dimension {op.n}"
        )
    c = r_u.first_col
    col = np.empty(op.n, dtype=complex)
    np.dot(op._A_interleaved, np.concatenate((c.real, c.imag)), out=col.view(float))
    col.setflags(write=False)  # no other reference: kept uncopied
    try:
        return HermitianToeplitzCov(col)
    except ContractError as exc:
        # Row N of a built A is zero, so a NaN or inf input surfaces here
        # as a non-real diagonal; name the cause instead.
        if not np.all(np.isfinite(c)):
            raise ContractError("covariance entries must be finite") from exc
        raise


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


# ---------------------------------------------------------------------------
# Configuration documents
# ---------------------------------------------------------------------------
#
# One format for every record of a configuration: config files, the config
# part of ``_meta.json``, the operator file's ``config`` and ``support``, and
# the bound report's hash payload.  A spec section holds exactly the fields
# of its dataclass; a support set is a list of [a, b] pairs.


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


def json_array(value, shape: tuple[int, ...], where: str) -> np.ndarray:
    """``value``, nested lists of ``shape``, as a float array.  Every entry
    must be a JSON number as ``json.load`` gives it (an int or a float; not
    a bool, a string or null) and finite."""
    entries = [value]
    for size in shape:
        if not all(isinstance(x, list) and len(x) == size for x in entries):
            raise ContractError(f"{where} must be nested lists of shape {shape}")
        entries = [y for x in entries for y in x]
    if not set(map(type, entries)) <= {int, float}:
        bad = next(x for x in entries if type(x) not in (int, float))
        raise ContractError(f"{where} must hold numbers only, got {bad!r}")
    try:
        arr = np.array(entries, dtype=float).reshape(shape)
    except OverflowError:  # an integer literal beyond the float range
        arr = np.full(shape, math.inf)
    if not np.all(np.isfinite(arr)):
        raise ContractError(f"{where} must be finite")
    return arr


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


# ---------------------------------------------------------------------------
# Operator (de)serialization
# ---------------------------------------------------------------------------


def operator_to_dict(op: ConversionOperator, G: np.ndarray | None = None) -> dict:
    """The operator as a JSON-ready document.  ``G`` is written only when
    given; no reader needs it."""
    sections = config_to_dict(op.config, op.support)
    doc = {
        "n": op.n,
        "L": op.L,
        "A": op.A.tolist(),
        "rank": op.rank,
        "config": sections["array"],
        "support": sections["support"],
        "downlink_norms_sq": op.downlink_norms_sq.tolist(),
    }
    if G is not None:
        doc["G"] = np.asarray(G).tolist()
    return doc


def operator_from_dict(doc: dict) -> ConversionOperator:
    """Build the operator from a document after checking that n, L and rank
    are integers that agree, and that A and downlink_norms_sq are arrays of
    finite numbers of the shapes n gives.  Keys other than those
    ``operator_to_dict`` writes (such as ``G`` and ``Q`` in older files) are
    ignored."""
    try:
        cfg = spec_from_dict(UlaConfig, doc["config"], "config")
        support = support_from_list(doc.get("support", []), "support")
        n, L, rank = (json_number(doc[key], int, key) for key in ("n", "L", "rank"))
        if n != cfg.n_antennas:
            raise ContractError(
                f"n = {n} does not match config.n_antennas = {cfg.n_antennas}"
            )
        A = json_array(doc["A"], (2 * n, 2 * n), "A")
        A.setflags(write=False)  # no other reference: the operator keeps it uncopied
        norms = json_array(doc["downlink_norms_sq"], (2 * n,), "downlink_norms_sq")
    except (KeyError, TypeError) as exc:
        raise ContractError(f"malformed operator document: {exc}") from exc
    if L < 2 * n:
        raise ContractError(f"L must be >= 2n = {2*n}, got {L}")
    if not 0 <= rank <= L:
        raise ContractError(f"rank must be in 0..L = 0..{L}, got {rank}")
    return ConversionOperator(
        config=cfg, support=support, A=A,
        downlink_norms_sq=norms, rank=rank, L=L,
    )


def _reject_constant(token: str) -> NoReturn:
    raise ContractError(f"non-finite number {token} is not allowed")


def load_strict_json(path: str, what: str):
    """Parse ``path`` as strict JSON (no NaN or Infinity tokens).  Every
    failure is a ContractError that names ``what`` and the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ContractError(f"cannot read {what} {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ContractError(
            f"{what} {path} is not valid JSON "
            f"(line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    except ContractError as exc:
        raise ContractError(f"{what} {path}: {exc}") from exc


def export_operator(path: str, op: ConversionOperator, G: np.ndarray | None = None) -> None:
    text = json.dumps(operator_to_dict(op, G), allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_operator(path: str) -> ConversionOperator:
    doc = load_strict_json(path, "operator file")
    try:
        return operator_from_dict(doc)
    except ContractError as exc:
        raise ContractError(f"operator file {path}: {exc}") from exc
