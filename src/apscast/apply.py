"""Applying a stored conversion operator: the operator record, the
Hermitian Toeplitz covariance, ``convert`` and the operator file.

This is everything a library process needs to convert covariances with an
operator built earlier; it imports only ``documents``, ``records`` and
``errors`` of the package, so it never loads the build (kernel sampling,
the SVD, bounds, experiments).

The operator file is one JSON object.  ``A`` is a string: the base64
encoding of its row-major, little-endian float64 bytes, 8 (2N)^2 bytes.
``export_operator`` is its one writer.  ``documents.read_operator_file``
makes every check on a file, ``config`` and ``support`` included, and
returns a record of plain values, from which ``load_operator`` makes the
operator; no document is held in memory on either side.  The command
line's ``convert --operator`` applies the same checked values without this
module, so both accept and reject the same files with the same messages.
"""

from __future__ import annotations

import base64
import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .documents import check_build, diagonal_error, dimension_error, read_operator_file
from .errors import ContractError
from .records import SupportSet, UlaConfig, config_to_dict

__all__ = [
    "ConversionOperator",
    "HermitianToeplitzCov",
    "convert",
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


def _real(x, name: str) -> np.ndarray:
    """``x`` as an array; a complex ``x`` is rejected, not cut to its real part."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise ContractError(f"{name} must be real, got dtype {x.dtype}")
    return x


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
    rules, with its messages (``documents.check_build``): 2N real, finite
    ``downlink_norms_sq``, integer ``L >= 2N`` and ``0 <= rank <= L``.
    An integer of any type ``operator.index`` takes, such as
    ``np.int64``, is kept as an ``int``; a bool is not a count.  ``A`` must
    be real and finite, as in a file ("A must be finite"), so every
    operator can be written and a NaN in ``A`` never reaches ``convert``.

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
        A = np.asarray(_real(self.A, "A"), dtype=float, order="C")
        if A.shape != (2 * n, 2 * n):
            raise ContractError(f"A must have shape ({2*n}, {2*n}), got {A.shape}")
        if not np.isfinite(A).all():
            raise ContractError("A must be finite")
        norms = np.asarray(_real(self.downlink_norms_sq, "downlink_norms_sq"), dtype=float)
        L, rank, _ = check_build(n, self.L, self.rank, norms.tolist())
        rows = _aligned_empty(A.shape)
        rows[0::2], rows[1::2] = A[:n], A[n:]
        rows.setflags(write=False)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "rank", rank)
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
    The column of a result of ``convert`` is the complex view of the
    read-only float64 product that the gemv allocated, so such a record
    holds one more array header (the float64 base) than one whose column
    owns its data.

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
        """The covariance of the slot-order vector ``r``, which it keeps as a
        read-only copy.  ``r[:N]`` and ``r[N:]`` are written into the float
        views of the column, so the column keeps every bit of ``r`` (-0.0,
        infinities and NaN payloads included)."""
        r = np.array(_real(r, "r vector"), dtype=float)
        if r.ndim != 1 or r.size % 2 != 0:
            raise ContractError("r vector must have even length 2N")
        n = r.size // 2
        col = np.empty(n, dtype=complex)
        col.real, col.imag = r[:n], r[n:]
        col.setflags(write=False)  # no other reference: kept uncopied
        cov = cls(col)
        r.setflags(write=False)
        _set_r_vector(cov, r)
        return cov

    def expand(self) -> np.ndarray:
        """Full Hermitian Toeplitz matrix R[n, m] = c_{n-m}."""
        c = self.first_col
        idx = np.subtract.outer(np.arange(self.n), np.arange(self.n))
        out = np.where(idx >= 0, c[np.abs(idx)], np.conj(c[np.abs(idx)]))
        return out


# The slots' own setters, which a frozen record's ``__setattr__`` does not
# reach: ``convert`` and ``from_r_vector`` fill a record through them.
_set_first_col = HermitianToeplitzCov.first_col.__set__
_set_r_vector = HermitianToeplitzCov._r_vector.__set__


def convert(op: ConversionOperator, r_u: HermitianToeplitzCov) -> HermitianToeplitzCov:
    """Uplink-to-downlink covariance conversion: one matrix-vector product.

    The product runs over the operator's row-interleaved copy of ``A``,
    which starts on a 64-byte boundary (see ``ConversionOperator``), through
    the matrix's own ``dot``, which skips numpy's ``__array_function__``
    dispatch of ``np.dot``.  ``dot`` allocates the 2N float64 product, which
    is made read-only; the converted first column is its complex view, so
    the result holds one more array header than a column that owns its data
    (112 bytes: 1296 instead of 1184 at N = 64, as ``tracemalloc`` counts
    them).  Each entry is the same dot product as in
    ``op.A @ r_u.to_r_vector()``, summed in the same order, so the two
    agree bit for bit, whether ``r_u`` came from ``from_r_vector`` (whose
    kept slot-order vector is multiplied as it is) or from its column
    (packed on this call).  The checks run on the
    product: a dimension mismatch, a non-real diagonal and a non-finite
    input raise the same ContractErrors as the constructor would.  The
    result is a read-only ``HermitianToeplitzCov`` whose slots are filled
    through their descriptors, without running the constructor's checks
    again; it keeps no slot-order vector.

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
    try:
        out = op._A_interleaved.dot(r)
    except ValueError:
        raise dimension_error(r_u.n, op.n) from None
    if out[1] != 0.0:
        # Row N of a built A is zero, so a NaN or inf input surfaces here
        # as a non-real diagonal; name the cause instead.
        if not np.all(np.isfinite(r)):
            raise ContractError("covariance entries must be finite")
        raise diagonal_error(out[1])
    out.setflags(write=False)  # no other reference: kept uncopied
    cov = object.__new__(HermitianToeplitzCov)  # the checks above are the constructor's
    _set_first_col(cov, out.view(complex))
    _set_r_vector(cov, None)
    return cov


# ---------------------------------------------------------------------------
# Operator file
# ---------------------------------------------------------------------------


def export_operator(path: str, op: ConversionOperator, G: np.ndarray | None = None) -> None:
    """Write the operator file, ``A`` base64-encoded.  ``G`` is written, as
    nested lists, only when given; no reader needs it.  The constructor has
    checked ``A`` and ``downlink_norms_sq`` finite, so only a non-finite
    ``G`` makes the write fail (ValueError, before the file is opened)."""
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
    text = json.dumps(doc, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_operator(path: str) -> ConversionOperator:
    """The operator of the file ``path``; every failure is a ContractError
    that names the file.  ``A`` is a read-only view of the decoded bytes."""
    rec = read_operator_file(path)
    return ConversionOperator(
        config=UlaConfig(**rec.config),
        support=None if rec.support is None else SupportSet(rec.support),
        A=np.frombuffer(rec.A, dtype=A_DTYPE).reshape(2 * rec.n, 2 * rec.n),
        downlink_norms_sq=rec.downlink_norms_sq, rank=rec.rank, L=rec.L,
    )
