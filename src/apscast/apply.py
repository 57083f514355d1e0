"""Applying a stored conversion operator: the operator record, the
Hermitian Toeplitz covariance, ``convert`` and the operator file.

This is everything a library process needs to convert covariances with an
operator built earlier; it imports only ``documents``, ``records`` and
``errors`` of the package, so it never loads the build (kernel sampling,
the SVD, bounds, experiments).

The operator file is one JSON object.  ``A`` is a string: the base64
encoding of its row-major, little-endian float64 bytes, 8 (2N)^2 bytes.
``documents.operator_record`` makes every check on the document,
``config`` and ``support`` included, and returns plain values, which
``load_operator`` turns into the records and arrays here.  The command
line's ``convert --operator`` applies the same checked values without this
module, so both accept and reject the same files with the same messages.
"""

from __future__ import annotations

import base64
import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .documents import (
    OperatorRecord,
    check_build,
    diagonal_error,
    dimension_error,
    operator_record,
    read_operator_file,
)
from .errors import ContractError
from .records import SupportSet, UlaConfig, config_to_dict

__all__ = [
    "ConversionOperator",
    "HermitianToeplitzCov",
    "convert",
    "operator_to_dict",
    "operator_from_dict",
    "export_operator",
    "load_operator",
]

# Byte order and width of A in the operator file, as ``documents`` reads it.
A_DTYPE = np.dtype("<f8")


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a`` itself when it is read-only, else a read-only copy: the caller
    may still write into its own array."""
    if a.flags.writeable:
        a = a.copy()
        a.setflags(write=False)
    return a


def _aligned_empty(shape: tuple[int, int]) -> np.ndarray:
    """An uninitialised float64 array of ``shape`` whose data starts on a
    64-byte boundary (see ``ConversionOperator``).  The buffer is 64 bytes
    longer than the array."""
    size = shape[0] * shape[1]
    buf = np.empty(size + 8)
    skip = (-buf.__array_interface__["data"][0] % 64) // 8
    return buf[skip:skip + size].reshape(shape)


@dataclass(frozen=True, eq=False)
class ConversionOperator:
    """Precomputed uplink-to-downlink conversion.

    ``A`` is Q^T G^+ restricted to its first 2N columns, so that
    [Re(col); Im(col)] of the converted covariance equals A @ r.  It depends
    only on the array geometry and support information, so it is built once
    and reused for every covariance.  ``downlink_norms_sq``, ``rank`` and
    ``L`` (the basis size) describe the build; G and Q stay on the
    ``GramSystem``.  The constructor checks them by the operator file's
    rules, with its messages (``documents.check_build``): 2N finite
    ``downlink_norms_sq``, ``L >= 2N`` and ``0 <= rank <= L``.

    ``A`` is in slot order (rows and columns 0..N-1 real parts, N..2N-1
    imaginary parts); it is what operator files hold and what callers read.
    It is read-only, so writing into ``op.A`` raises ``ValueError``; a new
    ``A`` takes ``dataclasses.replace``.  A writable array given to the
    constructor is copied, a read-only one is kept; ``downlink_norms_sq``
    follows the same rule.  Beside it the operator keeps a copy with the
    rows interleaved (row 2i is slot i, row 2i+1 slot N+i; columns in slot
    order), so the product in ``convert`` is the storage of the complex
    first column.  That copy starts on a 64-byte boundary: numpy promises
    only 16 bytes, and OpenBLAS's gemv runs 9% / 32% / 45% longer at
    N = 30 / 64 / 128 on a matrix that is not 32-byte aligned (single
    thread, Xeon, OpenBLAS 0.3.31).  It costs one more 2N x 2N float64 per
    operator, plus 64 bytes.  Every way of making an operator runs the
    constructor, so every operator's copy is aligned: pickling and copying
    go back through the constructor, and a loaded operator's arrays are
    read-only again.  Two operators are ``==`` (and hash alike) when
    config, support, rank and L are equal and ``A`` and
    ``downlink_norms_sq`` are equal bit for bit, as for a pickled copy or a
    second build from the same support.
    """

    config: UlaConfig
    support: SupportSet | None
    A: np.ndarray
    downlink_norms_sq: np.ndarray
    rank: int
    L: int
    _A_interleaved: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.n
        A = np.asarray(self.A, dtype=float, order="C")
        if A.shape != (2 * n, 2 * n):
            raise ContractError(f"A must have shape ({2*n}, {2*n}), got {A.shape}")
        norms = np.asarray(self.downlink_norms_sq, dtype=float)
        check_build(n, self.L, self.rank, norms.tolist())
        rows = _aligned_empty(A.shape)
        rows[0::2], rows[1::2] = A[:n], A[n:]
        rows.setflags(write=False)
        object.__setattr__(self, "A", _read_only(A))
        object.__setattr__(self, "downlink_norms_sq", _read_only(norms))
        object.__setattr__(self, "_A_interleaved", rows)

    def __reduce__(self):
        return type(self), (self.config, self.support, self.A,
                            self.downlink_norms_sq, self.rank, self.L)

    def _key(self) -> tuple:
        return (self.config, self.support, self.A.tobytes(),
                self.downlink_norms_sq.tobytes(), self.rank, self.L)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def n(self) -> int:
        return self.config.n_antennas


# ---------------------------------------------------------------------------
# Hermitian Toeplitz covariance
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True, eq=False)
class HermitianToeplitzCov:
    """N x N Hermitian Toeplitz covariance stored as its first column.

    ``first_col`` is read-only.  A writable array given to the constructor
    is copied, a read-only one is kept, as for ``ConversionOperator.A``.

    A covariance made by ``from_r_vector`` also keeps its slot-order vector
    [Re(first_col); Im(first_col)], read-only, which ``convert`` multiplies
    without packing it again; that costs one more 2N float64 per such
    covariance.  One built from its column, and one returned by ``convert``,
    keeps none, and ``convert`` packs its column on each call.  The kept
    vector equals ``to_r_vector()`` bit for bit, so the way a covariance was
    made never changes a converted byte.  The record is slotted: it has no
    ``__dict__`` and takes no attributes beyond its two fields.  Pickling and
    copying go back through the constructor: the loaded ``first_col`` is
    read-only, and the loaded covariance keeps no slot-order vector.  Two
    covariances are ``==`` (and hash alike) when their columns are equal bit
    for bit; the kept vector takes no part.
    """

    first_col: np.ndarray
    _r_vector: np.ndarray | None = dataclasses.field(
        default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        col = np.asarray(self.first_col, dtype=complex)
        if col.ndim != 1 or col.size < 1:
            raise ContractError("first_col must be a nonempty vector")
        if col[0].imag != 0.0:
            raise diagonal_error(col[0].imag)
        object.__setattr__(self, "first_col", _read_only(col))

    def __reduce__(self):
        return type(self), (self.first_col,)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.first_col.tobytes() == other.first_col.tobytes()

    def __hash__(self) -> int:
        return hash(self.first_col.tobytes())

    @property
    def n(self) -> int:
        return self.first_col.size

    def to_r_vector(self) -> np.ndarray:
        """[Re(first column); Im(first column)] in slot order."""
        return np.concatenate([self.first_col.real, self.first_col.imag])

    @classmethod
    def from_r_vector(cls, r: np.ndarray) -> "HermitianToeplitzCov":
        """The covariance of the slot-order vector ``r``; it keeps its own
        read-only copy of that vector, packed from the stored column (not
        ``r`` itself: forming the column turns -0.0 into +0.0 and an infinite
        imaginary part into a NaN real part)."""
        r = np.asarray(r, dtype=float)
        if r.ndim != 1 or r.size % 2 != 0:
            raise ContractError("r vector must have even length 2N")
        n = r.size // 2
        col = r[:n] + 1j * r[n:]
        col.setflags(write=False)  # no other reference: kept uncopied
        cov = cls(col)
        kept = np.concatenate((col.real, col.imag))
        kept.setflags(write=False)
        object.__setattr__(cov, "_r_vector", kept)
        return cov

    def expand(self) -> np.ndarray:
        """Full Hermitian Toeplitz matrix R[n, m] = c_{n-m}."""
        c = self.first_col
        idx = np.subtract.outer(np.arange(self.n), np.arange(self.n))
        out = np.where(idx >= 0, c[np.abs(idx)], np.conj(c[np.abs(idx)]))
        return out


def convert(op: ConversionOperator, r_u: HermitianToeplitzCov) -> HermitianToeplitzCov:
    """Uplink-to-downlink covariance conversion: one matrix-vector product.

    The product runs over the operator's row-interleaved copy of ``A``,
    which starts on a 64-byte boundary (see ``ConversionOperator``), and
    writes its float64 output straight into the storage of the converted
    complex first column.  It calls the matrix's own ``dot``, which skips
    numpy's ``__array_function__`` dispatch of ``np.dot``.  Each entry is
    the same dot product as in ``op.A @ r_u.to_r_vector()``, summed in the
    same order, so the two agree bit for bit, whether ``r_u`` came from
    ``from_r_vector`` (whose kept slot-order vector is multiplied as it is)
    or from its column (packed on this call).  The checks run on the
    product: a dimension mismatch, a non-real diagonal and a non-finite
    input raise the same ContractErrors as the constructor would.  The
    result is a read-only ``HermitianToeplitzCov`` made without running the
    constructor's checks again; it keeps no slot-order vector.

    ``apscast convert`` computes the same product in plain Python, with
    ``--operator`` and ``--config`` alike (a cold process cannot afford
    numpy's import); its output agrees with this one to within rounding, not
    bit for bit: entry i differs by at most 2 gamma_{2N} (|A| |r|)_i,
    gamma_m = m u / (1 - m u), u = 2^-53.
    """
    r = r_u._r_vector
    if r is None:
        c = r_u.first_col
        r = np.concatenate((c.real, c.imag))
    col = np.empty(r.size >> 1, dtype=complex)
    out = col.view(float)
    try:
        op._A_interleaved.dot(r, out=out)
    except ValueError:
        raise dimension_error(r_u.n, op.n) from None
    if out[1] != 0.0:
        # Row N of a built A is zero, so a NaN or inf input surfaces here
        # as a non-real diagonal; name the cause instead.
        if not np.all(np.isfinite(r)):
            raise ContractError("covariance entries must be finite")
        raise diagonal_error(out[1])
    col.setflags(write=False)  # no other reference: kept uncopied
    cov = object.__new__(HermitianToeplitzCov)  # the checks above are the constructor's
    object.__setattr__(cov, "first_col", col)
    object.__setattr__(cov, "_r_vector", None)
    return cov


# ---------------------------------------------------------------------------
# Operator (de)serialization
# ---------------------------------------------------------------------------


def operator_to_dict(op: ConversionOperator, G: np.ndarray | None = None) -> dict:
    """The operator as a JSON-ready document, ``A`` base64-encoded.  ``G``
    is written, as nested lists, only when given; no reader needs it."""
    sections = config_to_dict(op.config, op.support)
    doc = {
        "n": op.n,
        "L": op.L,
        "A": base64.b64encode(op.A.astype(A_DTYPE, copy=False).tobytes()).decode("ascii"),
        "rank": op.rank,
        "config": sections["array"],
        "support": sections["support"],
        "downlink_norms_sq": op.downlink_norms_sq.tolist(),
    }
    if G is not None:
        doc["G"] = np.asarray(G).tolist()
    return doc


def _from_record(rec: OperatorRecord) -> ConversionOperator:
    """The operator of a checked record, its config and support built from
    the checked values; ``A`` is a read-only view of the record's bytes."""
    return ConversionOperator(
        config=UlaConfig(**rec.config),
        support=None if rec.support is None else SupportSet(rec.support),
        A=np.frombuffer(rec.A, dtype=A_DTYPE).reshape(2 * rec.n, 2 * rec.n),
        downlink_norms_sq=rec.downlink_norms_sq, rank=rec.rank, L=rec.L,
    )


def operator_from_dict(doc: dict) -> ConversionOperator:
    """Build the operator from a document after the checks of
    ``documents.operator_record``: config and support are valid sections,
    n, L and rank are integers that agree, A is the base64 of a finite
    (2n, 2n) array and downlink_norms_sq a list of 2n finite numbers.
    Other keys, ``G`` included, are ignored."""
    return _from_record(operator_record(doc))


def export_operator(path: str, op: ConversionOperator, G: np.ndarray | None = None) -> None:
    """Write the operator file; a non-finite ``A`` raises ValueError before
    the file is opened, as any non-finite number does."""
    if not np.all(np.isfinite(op.A)):
        raise ValueError("A must be finite to be written")
    text = json.dumps(operator_to_dict(op, G), allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_operator(path: str) -> ConversionOperator:
    """The operator of the file ``path``; every failure is a ContractError
    that names the file.  ``A`` is a read-only view of the decoded bytes."""
    return _from_record(read_operator_file(path))
