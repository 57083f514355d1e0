import base64
import copy
import dataclasses
import functools
import json
import math
import pickle
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from apscast.apply import (
    ConversionOperator,
    HermitianToeplitzCov,
    convert,
    export_operator,
    load_operator,
)
from apscast.array_model import build_function_set
from apscast.cli import main
from apscast.conversion import build_conversion_operator, build_gram_system, estimate_aps
from apscast.documents import dimension_error, operator_record
from apscast.errors import ContractError
from apscast.experiments import (
    random_aps_model,
    synthesize_covariance,
    synthesize_r_vector,
)
from apscast.hilbert_space import inner_product_with_status, sample, sampling_rule
from apscast.records import SupportSet, UlaConfig

PI = math.pi
HALF_PI = math.pi / 2


@pytest.fixture(scope="module")
def recip_cfg():
    """f_up == f_down: conversion must act as the identity."""
    f = 1.8e9
    c = 3.0e8
    return UlaConfig(n_antennas=8, spacing=1.05 * c / (2 * f), f_up=f, f_down=f,
                     wave_speed=c)


_SUPPORTS = {
    "none": None,
    "right-half": [[0.0, HALF_PI]],
    "two-intervals": [[-1.2, -0.6], [0.1, 0.9]],
}


def _random_cov(rng, n):
    col = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    col[0] = abs(col[0].real)
    return HermitianToeplitzCov(col)


class TestGramSystem:
    def test_two_antenna_entries(self):
        cfg = UlaConfig.reference(n_antennas=2)
        gs = build_gram_system(build_function_set(cfg))
        # G[0,0] = <1, 1> = pi
        assert gs.G[0, 0] == pytest.approx(PI, abs=1e-14)
        assert gs.L == 4

    def test_zero_slot_row_is_zero(self, gs_ref_no_si):
        n = gs_ref_no_si.function_set.n
        np.testing.assert_array_equal(gs_ref_no_si.G[n], 0.0)
        np.testing.assert_array_equal(gs_ref_no_si.G[:, n], 0.0)

    def test_block_diagonal_without_constraints(self, gs_ref_no_si):
        n = gs_ref_no_si.function_set.n
        np.testing.assert_array_equal(gs_ref_no_si.G[:n, n:], 0.0)
        np.testing.assert_array_equal(gs_ref_no_si.G[n:, :n], 0.0)

    def test_reference_rank_deficient(self, gs_ref_no_si):
        assert gs_ref_no_si.rank < gs_ref_no_si.L
        assert gs_ref_no_si.rank == gs_ref_no_si.L - 1  # only the zero slot

    def test_psd(self, gs_ref_si):
        w = np.linalg.eigvalsh(gs_ref_si.G)
        s2 = gs_ref_si.singular_values ** 2
        assert w.min() >= -1e-9 * s2.max()
        np.testing.assert_allclose(np.sort(w)[::-1], s2, atol=1e-12 * s2.max())

    def test_symmetry(self, gs_ref_si):
        np.testing.assert_array_equal(gs_ref_si.G, gs_ref_si.G.T)

    def test_no_flagged_entries_at_default_tolerances(self, gs_ref_si):
        """The reference quadrature behind masked entries converges at the
        default tolerances (sampled constraint rows of the reference system)."""
        fs = gs_ref_si.function_set
        n = fs.n
        for k in (0, n // 2, n + 1, 2 * n - 1):
            row = fs.constraints[k]
            for x in fs.basis:
                _, converged = inner_product_with_status(row, x)
                assert converged


class TestConversionOperator:
    def test_downlink_norms(self, gs_ref_no_si):
        op = build_conversion_operator(gs_ref_no_si)
        n = gs_ref_no_si.function_set.n
        assert op.downlink_norms_sq[0] == pytest.approx(PI, abs=1e-14)
        assert op.downlink_norms_sq[n] == 0.0

    def test_shape_with_support(self, gs_ref_si):
        op = build_conversion_operator(gs_ref_si)
        assert op.A.shape == (60, 60)
        assert gs_ref_si.Q.shape == (120, 60)
        assert op.L == 120

    def test_identity_on_achievable_vectors(self, recip_cfg, rng):
        fs = build_function_set(recip_cfg)
        gs = build_gram_system(fs)
        op = build_conversion_operator(gs)
        aps = random_aps_model(rng, SupportSet.full())
        r = synthesize_r_vector(aps, fs.uplink)
        np.testing.assert_allclose(op.A @ r, r, atol=1e-8)

    def test_idempotent_on_achievable_vectors(self, recip_cfg, rng):
        fs = build_function_set(recip_cfg)
        op = build_conversion_operator(build_gram_system(fs))
        aps = random_aps_model(rng, SupportSet.full())
        r = synthesize_r_vector(aps, fs.uplink)
        once = op.A @ r
        np.testing.assert_allclose(op.A @ once, once, atol=1e-8)

    def test_A_read_only(self, tmp_path, gs_ref_si):
        """Built, loaded and replaced operators all refuse writes into A."""
        op = build_conversion_operator(gs_ref_si)
        path = tmp_path / "op.json"
        export_operator(str(path), op)
        for each in (op, load_operator(str(path)),
                     dataclasses.replace(op, A=np.array(op.A))):
            with pytest.raises(ValueError):
                each.A[0, 0] = 1.0
        assert dataclasses.replace(op, rank=op.rank).A is op.A  # read-only: not copied

    def test_replace_converts_with_new_A(self, gs_ref_si, rng):
        """A replaced A is copied: it converts with the new values, and later
        writes into the caller's array do not reach the operator."""
        op = build_conversion_operator(gs_ref_si)
        new_A = np.asfortranarray(2.0 * op.A)
        twice = dataclasses.replace(op, A=new_A)
        new_A[:] = 0.0
        cov = _random_cov(rng, op.n)
        want = HermitianToeplitzCov.from_r_vector(2.0 * op.A @ cov.to_r_vector())
        assert convert(twice, cov).first_col.tobytes() == want.first_col.tobytes()


class TestHermitianToeplitzCov:
    def test_rejects_complex_diagonal(self):
        with pytest.raises(ContractError):
            HermitianToeplitzCov(np.array([1.0 + 0.5j, 0.2]))

    def test_writable_input_is_copied(self):
        """The caller's array stays writable and its later writes do not
        reach the covariance; a read-only array is kept as it is."""
        c = np.array([1.0, 0.5 + 0.1j, 0.2])
        cov = HermitianToeplitzCov(c)
        c[1] = 0
        np.testing.assert_array_equal(cov.first_col, [1.0, 0.5 + 0.1j, 0.2])
        with pytest.raises(ValueError):
            cov.first_col[1] = 0
        c.setflags(write=False)
        assert HermitianToeplitzCov(c).first_col is c

    def test_r_vector_round_trip(self):
        col = np.array([2.0, 0.3 - 0.4j, -0.1 + 0.2j])
        cov = HermitianToeplitzCov(col)
        back = HermitianToeplitzCov.from_r_vector(cov.to_r_vector())
        np.testing.assert_array_equal(back.first_col, col)

    def test_kept_vector_is_the_packed_column(self):
        """``from_r_vector`` keeps ``r`` bit for bit, -0.0, NaN and infinite
        parts included, and that is what ``to_r_vector()`` of the stored
        column returns; the kept copy is read-only, and the caller's later
        writes do not reach it."""
        r = np.array([1.0, -0.0, 0.25, np.nan, -np.inf, 0.0, 0.5, np.inf, 2.0, -0.0])
        cov = HermitianToeplitzCov.from_r_vector(r)
        kept = cov._r_vector
        assert kept.tobytes() == cov.to_r_vector().tobytes()
        assert kept.tobytes() == r.tobytes()
        assert not kept.flags.writeable
        r[:] = 7.0
        assert kept.tobytes() == cov.to_r_vector().tobytes()
        assert HermitianToeplitzCov(cov.first_col)._r_vector is None

    def test_expand_is_hermitian_toeplitz(self):
        col = np.array([1.5, 0.3 - 0.7j, -0.2 + 0.1j, 0.05])
        R = HermitianToeplitzCov(col).expand()
        np.testing.assert_allclose(R, R.conj().T)
        for d in range(4):
            np.testing.assert_array_equal(np.diag(R, -d), np.full(4 - d, col[d]))


class TestConvert:
    def test_zero_maps_to_zero(self, gs_ref_si):
        op = build_conversion_operator(gs_ref_si)
        out = convert(op, HermitianToeplitzCov(np.zeros(30, dtype=complex)))
        np.testing.assert_array_equal(out.first_col, 0.0)

    def test_dimension_mismatch(self, gs_ref_si):
        op = build_conversion_operator(gs_ref_si)
        for n in (1, 5, 31):
            message = f"^covariance dimension {n} does not match operator dimension 30$"
            for cov in (HermitianToeplitzCov(np.zeros(n, dtype=complex)),
                        HermitianToeplitzCov.from_r_vector(np.zeros(2 * n))):
                with pytest.raises(ContractError, match=message):
                    convert(op, cov)

    @pytest.mark.parametrize("by_r", [False, True], ids=["from-column", "from-r-vector"])
    @pytest.mark.parametrize("n", [1, 2, 30, 64])
    def test_converted_record_is_read_only(self, rng, n, by_r):
        """The result is made without the constructor; it is still frozen,
        slotted and read-only, keeps no slot-order vector, and its column is
        complex128 storage of its own: C-contiguous, aligned, read-only also
        through its float64 base, and sharing memory with neither the
        operator, the input nor the previous result."""
        op = _built_operator(n, "right-half")
        covs = [_random_cov(rng, n) for _ in range(2)]
        if by_r:
            covs = [HermitianToeplitzCov.from_r_vector(c.to_r_vector()) for c in covs]
        prev, out = (convert(op, c) for c in covs)
        cov = covs[1]
        for name in ("first_col", "_r_vector"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(out, name, np.zeros(n, dtype=complex))
        # Python 3.11's frozen, slotted __setattr__ raises TypeError, not
        # FrozenInstanceError, for a name that is not a field.
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            out.extra = 1
        col = out.first_col
        with pytest.raises(ValueError):
            col[0] = 0
        with pytest.raises(ValueError):
            col.base[0] = 0.0
        assert type(out) is HermitianToeplitzCov and out._r_vector is None
        assert not hasattr(out, "__dict__") and "_r_vector" not in repr(out)
        assert col.dtype == np.complex128 and col.shape == (n,)
        assert col.flags.c_contiguous and col.flags.aligned and not col.flags.writeable
        others = [op.A, op._A_interleaved, cov.first_col, prev.first_col]
        if by_r:
            others.append(cov._r_vector)
        assert not any(np.shares_memory(col, other) for other in others)

    @pytest.mark.parametrize("by_r", [False, True], ids=["from-column", "from-r-vector"])
    @pytest.mark.parametrize("n", [1, 2, 30, 64])
    def test_one_call_leaves_one_block(self, rng, n, by_r):
        """After one call exactly one new numpy data block is alive, the 16N
        bytes of the converted column, whichever way the input was made:
        nothing else is kept or cached per call."""
        op = _built_operator(n, "right-half")
        cov = _random_cov(rng, n)
        if by_r:
            cov = HermitianToeplitzCov.from_r_vector(cov.to_r_vector())
        convert(op, cov)
        numpy_data = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]

        def blocks():
            snap = tracemalloc.take_snapshot().filter_traces(numpy_data)
            return Counter(trace.size for trace in snap.traces)

        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = blocks()
            out = convert(op, cov)
            after = blocks()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert after - before == Counter({16 * n: 1}) and not before - after
        assert out.first_col.nbytes == 16 * n

    @pytest.mark.parametrize("support", _SUPPORTS.values(), ids=_SUPPORTS.keys())
    @pytest.mark.parametrize("n", [1, 2, 30, 64])
    def test_bytes_match_slot_order_product(self, n, support, rng):
        """The interleaved product is the slot-order A @ r, bit for bit, also
        for a strided first column, and whether the covariance was built from
        its column or from its r-vector (multiplying the kept vector)."""
        fs = build_function_set(UlaConfig.reference(n), support and SupportSet(support))
        op = build_conversion_operator(build_gram_system(fs))
        big = np.zeros(2 * n, dtype=complex)
        big[::2] = _random_cov(rng, n).first_col
        covs = [_random_cov(rng, n) for _ in range(4)]
        covs += [HermitianToeplitzCov(np.zeros(n, dtype=complex)),
                 HermitianToeplitzCov(big[::2])]
        for cov in covs:
            want = HermitianToeplitzCov.from_r_vector(op.A @ cov.to_r_vector())
            by_r = HermitianToeplitzCov.from_r_vector(cov.to_r_vector())
            assert by_r._r_vector is not None and cov._r_vector is None
            for c in (cov, by_r):
                assert convert(op, c).first_col.tobytes() == want.first_col.tobytes()

    @pytest.mark.parametrize("slot, value", [(0, np.nan), (1, np.inf), (2, complex(0, -np.inf))],
                             ids=["nan-diagonal", "inf-real", "inf-imag"])
    def test_non_finite_covariance_rejected(self, gs_ref_si, slot, value):
        op = build_conversion_operator(gs_ref_si)
        col = np.ones(op.n, dtype=complex)
        col[slot] = value
        cov = HermitianToeplitzCov(col)
        with np.errstate(invalid="ignore"):
            for c in (cov, HermitianToeplitzCov.from_r_vector(cov.to_r_vector())):
                with pytest.raises(ContractError, match="^covariance entries must be finite$"):
                    convert(op, c)

    def test_reciprocity_identity(self, recip_cfg, rng):
        fs = build_function_set(recip_cfg)
        op = build_conversion_operator(build_gram_system(fs))
        aps = random_aps_model(rng, SupportSet.full())
        cov = synthesize_covariance(aps, fs)
        out = convert(op, cov)
        np.testing.assert_allclose(out.first_col, cov.first_col, atol=1e-6)

    def test_imag_diagonal_exactly_zero(self, gs_ref_si, rng):
        fs = gs_ref_si.function_set
        op = build_conversion_operator(gs_ref_si)
        aps = random_aps_model(rng, SupportSet([[0.0, HALF_PI]]))
        out = convert(op, synthesize_covariance(aps, fs))
        assert out.first_col[0].imag == 0.0

    def test_two_path_equivalence(self, gs_ref_si, rng):
        """convert() must equal the explicit estimate-then-inner-product path."""
        fs = gs_ref_si.function_set
        op = build_conversion_operator(gs_ref_si)
        aps = random_aps_model(rng, SupportSet([[0.0, HALF_PI]]))
        r_u = synthesize_r_vector(aps, fs.uplink)
        direct = op.A @ r_u
        est = estimate_aps(gs_ref_si, r_u)
        via_aps = gs_ref_si.Q.T @ est.coefficients
        np.testing.assert_allclose(direct, via_aps, atol=1e-10)


class TestPickleAndCopy:
    @pytest.mark.parametrize("source", ["built", "loaded"])
    @pytest.mark.parametrize("copier", [lambda x: pickle.loads(pickle.dumps(x)),
                                        copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_round_trip_goes_through_the_constructor(self, tmp_path, gs_ref_si, rng,
                                                     copier, source):
        """A built or a loaded operator, and covariances made from their
        column and by ``from_r_vector``, come back read-only and convert to
        the original bytes; a copied covariance keeps no slot-order vector."""
        op = build_conversion_operator(gs_ref_si)
        path = tmp_path / "op.json"
        export_operator(str(path), op)
        cov = _random_cov(rng, op.n)
        want = convert(op, cov).first_col.tobytes()
        got_op = copier(op if source == "built" else load_operator(str(path)))
        with pytest.raises(ValueError):
            got_op.A[0, 0] = 1.0
        assert not got_op._A_interleaved.flags.writeable
        assert got_op.A.tobytes() == op.A.tobytes()
        for each_cov in (cov, HermitianToeplitzCov.from_r_vector(cov.to_r_vector())):
            got_cov = copier(each_cov)
            with pytest.raises(ValueError):
                got_cov.first_col[0] = 1.0
            assert got_cov._r_vector is None
            assert convert(got_op, got_cov).first_col.tobytes() == want

    def test_equality_is_a_bool_over_values(self):
        """``==`` compares values, arrays bit for bit: a pickled copy and an
        operator rebuilt from the same support are equal and hash alike; an
        operator of another support, and a covariance of another column,
        are not equal."""
        cfg = UlaConfig.reference(4)

        def build(support):
            c_s = _SUPPORTS[support] and SupportSet(_SUPPORTS[support])
            return build_conversion_operator(build_gram_system(build_function_set(cfg, c_s)))

        op = build("right-half")
        for same in (pickle.loads(pickle.dumps(op)), build("right-half")):
            assert (op == same) is True
            assert hash(op) == hash(same)
        assert (op == build("none")) is False
        assert (op != build("two-intervals")) is True
        assert (op == "op") is False
        cov = HermitianToeplitzCov.from_r_vector(
            np.array([2.0, 0.5, -0.25, 0.1, 0.0, 0.3, -0.2, 0.05]))
        for same in (pickle.loads(pickle.dumps(cov)), HermitianToeplitzCov(cov.first_col.copy())):
            assert (cov == same) is True
            assert hash(cov) == hash(same)
        assert (convert(op, cov) == convert(pickle.loads(pickle.dumps(op)), cov)) is True
        assert (cov == HermitianToeplitzCov(2.0 * cov.first_col)) is False
        assert len({op, build("right-half"), build("none")}) == 2


class TestEstimateAps:
    def test_zero_input_gives_zero_estimate(self, gs_ref_si):
        est = estimate_aps(gs_ref_si, np.zeros(60))
        theta = np.linspace(-HALF_PI, HALF_PI, 64)
        np.testing.assert_array_equal(est.evaluate(theta), 0.0)

    def test_constraint_satisfaction_well_conditioned(self, gs_small_si, rng):
        """P_V(0) reproduces the uplink data and annihilates the support
        constraints on a cleanly-conditioned system."""
        fs = gs_small_si.function_set
        aps = random_aps_model(rng, SupportSet([[0.0, HALF_PI]]))
        r_u = synthesize_r_vector(aps, fs.uplink)
        est = estimate_aps(gs_small_si, r_u)
        resat = gs_small_si.G @ est.coefficients
        np.testing.assert_allclose(resat[: 2 * fs.n], r_u, atol=1e-6)
        np.testing.assert_allclose(resat[2 * fs.n:], 0.0, atol=1e-6)

    def test_minimum_norm_property(self, gs_ref_si, rng):
        """||P_V(0)|| <= ||rho|| for every spectrum consistent with the data."""
        fs = gs_ref_si.function_set
        for _ in range(5):
            aps = random_aps_model(rng, SupportSet([[0.0, HALF_PI]]))
            r_u = synthesize_r_vector(aps, fs.uplink)
            est = estimate_aps(gs_ref_si, r_u)
            rbar = np.concatenate([r_u, np.zeros(60)])
            est_norm_sq = float(rbar @ est.coefficients)  # = z^T G^+ z
            assert est_norm_sq <= aps.norm() ** 2 + 1e-9

    def test_shape_validation(self, gs_ref_si):
        with pytest.raises(ContractError):
            estimate_aps(gs_ref_si, np.zeros(10))


def _svd_of_x_reference(fs, rel_cutoff):
    """The factor the build's QR replaces: a thin SVD of the sampled basis X,
    with Y projected on the kept left singular vectors."""
    funcs = fs.basis + fs.downlink
    nodes, weights = sampling_rule(funcs)
    X = sample(fs.basis, nodes, weights)
    Y = sample(fs.downlink, nodes, weights)
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    rank = int(np.count_nonzero(s**2 > rel_cutoff * s[0] ** 2))
    coords = U[:, :rank].T @ Y
    resid = Y - U[:, :rank] @ coords
    A = (coords.T / s[:rank]) @ Vt[:rank, : 2 * fs.n]
    return X.shape[0], s, rank, np.einsum("ij,ij->j", resid, resid), A


class TestFactorAgainstSvdOfX:
    """The QR-then-SVD build against a direct SVD of X, the oracle."""

    @pytest.mark.parametrize("support", list(_SUPPORTS))
    @pytest.mark.parametrize("n, spacing_scale", [(1, 1.0), (2, 1.0), (30, 1.0),
                                                  (64, 1.0), (30, 0.05)])
    def test_same_rank_spectrum_residuals_and_operator(self, n, spacing_scale, support):
        cfg = UlaConfig.reference(n)
        cfg = dataclasses.replace(cfg, spacing=cfg.spacing * spacing_scale)
        c_s = _SUPPORTS[support] and SupportSet(_SUPPORTS[support])
        fs = build_function_set(cfg, c_s)
        gs = build_gram_system(fs)
        rows, s, rank, residuals_sq, A = _svd_of_x_reference(fs, gs.pinv.rel_cutoff)
        assert gs.triangle.shape == (min(rows, gs.L + 2 * n), gs.L + 2 * n)
        if (n, spacing_scale, support) == (30, 0.05, "right-half"):
            assert rows < gs.L  # a wide rule: R11 is short and R22 empty
        assert gs.rank == rank
        np.testing.assert_allclose(gs.singular_values, s, rtol=0, atol=1e-14 * s[0])
        np.testing.assert_allclose(gs.residuals_sq, residuals_sq, rtol=0, atol=1e-13)
        got = build_conversion_operator(gs).A
        assert np.abs(got - A).max() <= 1e-12 * np.abs(A).max()

    def test_G_and_Q_are_computed_when_first_read(self, gs_small_si):
        gs = dataclasses.replace(gs_small_si)
        assert "G" not in vars(gs) and "Q" not in vars(gs)
        assert gs.G is gs.G and gs.Q is gs.Q
        assert gs.G.shape == (gs.L, gs.L)
        assert gs.Q.shape == (gs.L, 2 * gs.function_set.n)


@functools.lru_cache(maxsize=None)
def _built_operator(n, support):
    """The operator for N = n and the ``_SUPPORTS`` entry named ``support``."""
    c_s = _SUPPORTS[support] and SupportSet(_SUPPORTS[support])
    return build_conversion_operator(build_gram_system(
        build_function_set(UlaConfig.reference(n), c_s)))


def _b64(values) -> str:
    """Base64 of little-endian float64 bytes, as operator files hold ``A``."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _decoded_A(doc) -> np.ndarray:
    """The operator document's ``A`` as a writable (2n, 2n) array."""
    n = doc["n"]
    return np.frombuffer(base64.b64decode(doc["A"]), "<f8").reshape(2 * n, 2 * n).copy()


def _A_with_entry(doc, index, value) -> str:
    """The document's ``A`` with entry ``index`` set to ``value``, in base64."""
    A = _decoded_A(doc)
    A[index] = value
    return _b64(A)


def _exported_document(op, path, G=None) -> dict:
    """The document ``export_operator`` writes for ``op`` (and ``G``) at
    ``path``, read back as JSON."""
    export_operator(str(path), op, G=G)
    return json.loads(path.read_text())


def _load_document(doc, path) -> ConversionOperator:
    """``load_operator`` on a file at ``path`` that holds ``doc``."""
    path.write_text(json.dumps(doc))
    return load_operator(str(path))


def _legacy_document(doc):
    """The document earlier versions wrote: ``A`` as row-major nested lists."""
    return doc | {"A": _decoded_A(doc).tolist()}


@pytest.fixture(scope="module")
def small_operator_doc(tmp_path_factory):
    """Operator document for N=4 with support [0, pi/2] (L = 16)."""
    fs = build_function_set(UlaConfig.reference(n_antennas=4), SupportSet([[0.0, HALF_PI]]))
    return _exported_document(build_conversion_operator(build_gram_system(fs)),
                              tmp_path_factory.mktemp("small") / "op.json")


# One broken invariant each, as a replacement of top-level keys.
_BREAKS = {
    "norms-nan": lambda d: {"downlink_norms_sq": [math.nan] + d["downlink_norms_sq"][1:]},
    "norms-shape": lambda d: {"downlink_norms_sq": d["downlink_norms_sq"][:-1]},
    "norms-nested": lambda d: {"downlink_norms_sq": [[x] for x in d["downlink_norms_sq"]]},
    "norms-one-nan": lambda d: {"downlink_norms_sq": [math.nan]},
    "L-below-2n": lambda d: {"L": 3},
    "L-zero": lambda d: {"L": 0},
    "rank-negative": lambda d: {"rank": -1},
    "rank-above-L": lambda d: {"rank": d["L"] + 1},
    "n-vs-config": lambda d: {"config": d["config"] | {"n_antennas": 5}},
    "n-fractional": lambda d: {"n": d["n"] + 0.9},
    "n-string": lambda d: {"n": str(d["n"])},
    "L-fractional": lambda d: {"L": d["L"] + 0.5},
    "rank-fractional": lambda d: {"rank": d["rank"] + 0.5},
    "rank-bool": lambda d: {"rank": True},
    "L-bool": lambda d: {"L": True},
    "rank-string": lambda d: {"rank": str(d["rank"])},
    "norms-string": lambda d: {"downlink_norms_sq": ["1.5"] + d["downlink_norms_sq"][1:]},
    "A-base64-bad-character": lambda d: {"A": "!" + d["A"][1:]},
    "A-base64-one-float-short": lambda d: {"A": _b64(_decoded_A(d).ravel()[:-1])},
    "A-base64-nan": lambda d: {"A": _A_with_entry(d, (0, 0), math.nan)},
    "A-base64-inf": lambda d: {"A": _A_with_entry(d, (0, 0), -math.inf)},
    "A-list": lambda d: {"A": _decoded_A(d).tolist()},
    "A-inf": lambda d: {"A": _A_with_entry(d, (-1, -1), math.inf)},
    "A-nan": lambda d: {"A": _A_with_entry(d, (-1, -1), math.nan)},
    "A-row-N-nan": lambda d: {"A": _A_with_entry(d, (d["n"], 0), math.nan)},
    "A-row-N-inf": lambda d: {"A": _A_with_entry(d, (d["n"], 0), math.inf)},
    "A-shape": lambda d: {"A": _b64(_decoded_A(d)[:-1])},
    "A-string": lambda d: {"A": ""},
    "A-bool": lambda d: {"A": True},
    "A-number": lambda d: {"A": 1.5},
    "A-null": lambda d: {"A": None},
    "config-unknown-key": lambda d: {"config": d["config"] | {"n_elements": 4}},
    "config-missing-f_down": lambda d: {"config": {k: v for k, v in d["config"].items()
                                                   if k != "f_down"}},
    "config-spacing-zero": lambda d: {"config": d["config"] | {"spacing": 0.0}},
    "config-spacing-negative": lambda d: {"config": d["config"] | {"spacing": -0.1}},
    "config-string": lambda d: {"config": d["config"] | {"f_up": "1.8e9"}},
    "support-outside": lambda d: {"support": [[0.0, 2.0]]},
    "support-overlapping": lambda d: {"support": [[0.0, 0.5], [0.4, 1.0]]},
    "support-three-element-pair": lambda d: {"support": [[0.0, 0.5, 1.0]]},
    "support-reversed": lambda d: {"support": [[0.5, 0.2]]},
}

# The message of each config and support break, as the records give it, and
# of a list ``A``, which asks for a re-export.
_SECTION_MESSAGES = {
    "A-list": "A must be a base64 string; re-export the operator with apscast export-operator",
    "config-unknown-key": "unknown keys in config: ['n_elements']",
    "config-missing-f_down": "config is missing ['f_down']",
    "config-spacing-zero": "spacing must be positive and finite, got 0.0",
    "config-string": "config.f_up must be a number, got '1.8e9'",
    "support-outside": "interval [0.0, 2.0] is not inside [-pi/2, pi/2]",
    "support-overlapping": "support intervals must be pairwise disjoint",
    "support-three-element-pair": "support must be a list of [a, b] pairs",
    "support-reversed": "interval [0.5, 0.2] is reversed: its start exceeds its end",
}


class TestOperatorSerialization:
    def test_round_trip_dict(self, tmp_path, gs_ref_si):
        """A file written with ``G`` holds it as nested lists and loads
        back to the operator's values; the reader ignores ``G``."""
        op = build_conversion_operator(gs_ref_si)
        path = tmp_path / "op.json"
        doc = _exported_document(op, path, G=gs_ref_si.G)
        np.testing.assert_array_equal(doc["G"], gs_ref_si.G)
        back = load_operator(str(path))
        np.testing.assert_array_equal(back.A, op.A)
        np.testing.assert_array_equal(back.downlink_norms_sq, op.downlink_norms_sq)
        assert back.L == op.L
        assert back.rank == op.rank
        assert back.support.intervals == op.support.intervals

    def test_round_trip_file_conversions_identical(self, tmp_path, gs_ref_si, rng):
        fs = gs_ref_si.function_set
        op = build_conversion_operator(gs_ref_si)
        path = tmp_path / "op.json"
        export_operator(str(path), op, G=gs_ref_si.G)
        loaded = load_operator(str(path))
        aps = random_aps_model(rng, SupportSet([[0.0, HALF_PI]]))
        cov = synthesize_covariance(aps, fs)
        a = convert(op, cov).first_col
        b = convert(loaded, cov).first_col
        np.testing.assert_array_equal(a, b)

    def test_malformed_document_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            _load_document({"n": 2}, tmp_path / "op.json")

    def test_older_document_with_g_and_q_loads(self, tmp_path, gs_ref_si, rng):
        """Files written before the slim format also carry G and Q; they load
        and convert exactly like the slim document."""
        fs = gs_ref_si.function_set
        op = build_conversion_operator(gs_ref_si)
        slim = _exported_document(op, tmp_path / "slim.json")
        old = dict(slim, G=gs_ref_si.G.tolist(), Q=gs_ref_si.Q.tolist())
        a = load_operator(str(tmp_path / "slim.json"))
        b = _load_document(old, tmp_path / "old.json")
        aps = random_aps_model(rng, SupportSet([[0.0, HALF_PI]]))
        cov = synthesize_covariance(aps, fs)
        np.testing.assert_array_equal(convert(a, cov).first_col,
                                      convert(b, cov).first_col)

    @pytest.mark.parametrize("support", _SUPPORTS)
    @pytest.mark.parametrize("n", [1, 2, 30, 64])
    def test_base64_round_trip_bit_exact(self, tmp_path, n, support):
        """The file holds A as base64 of its little-endian float64 bytes and
        loads it back bit for bit, read-only."""
        op = _built_operator(n, support)
        path = tmp_path / "op.json"
        export_operator(str(path), op)
        encoded = json.loads(path.read_text())["A"]
        assert isinstance(encoded, str)
        assert base64.b64decode(encoded) == op.A.astype("<f8").tobytes()
        loaded = load_operator(str(path))
        assert loaded.A.tobytes() == op.A.tobytes()
        assert not loaded.A.flags.writeable

    @pytest.mark.parametrize("support", _SUPPORTS)
    @pytest.mark.parametrize("n", [1, 2, 30, 64])
    def test_legacy_list_document_rejected(self, tmp_path, capsys, n, support):
        """A document with A as nested lists, as earlier versions wrote it, is
        rejected by both readers with a message that says how to re-export
        it, and the re-exported file loads the operator's A bit for bit."""
        op = _built_operator(n, support)
        doc = _exported_document(op, tmp_path / "slim.json")
        code, got = _cli_convert(tmp_path, _legacy_document(doc), [1.0] * n)
        assert code == 1 and got is None
        path = tmp_path / "op.json"
        message = (f"operator file {path}: A must be a base64 string; "
                   "re-export the operator with apscast export-operator")
        assert capsys.readouterr().err == f"error: {message}\n"
        with pytest.raises(ContractError) as exc:
            load_operator(str(path))
        assert str(exc.value) == message
        export_operator(str(path), op)
        assert load_operator(str(path)).A.tobytes() == op.A.tobytes()

    @pytest.mark.parametrize("change", _BREAKS.values(), ids=_BREAKS.keys())
    def test_inconsistent_document_rejected(self, tmp_path, small_operator_doc, change):
        doc = small_operator_doc
        _load_document(doc, tmp_path / "op.json")
        with pytest.raises(ContractError):
            _load_document(doc | change(doc), tmp_path / "op.json")

    @pytest.mark.parametrize("change", _BREAKS.values(), ids=_BREAKS.keys())
    def test_inconsistent_document_rejected_by_command_line(self, tmp_path, capsys,
                                                             small_operator_doc, change):
        """``convert --operator`` makes the library's checks without numpy:
        each broken document exits 1 with the error ``load_operator`` raises
        for the same file, which names the file, and nothing is written."""
        doc = small_operator_doc
        code, got = _cli_convert(tmp_path, doc | change(doc), [1.0, 0.5, 0.25j, 0.0])
        assert code == 1 and got is None
        op_path = str(tmp_path / "op.json")
        with pytest.raises(ContractError) as library:
            load_operator(op_path)
        assert op_path in str(library.value)
        assert capsys.readouterr().err == f"error: {library.value}\n"

    @pytest.mark.parametrize("change, message", _SECTION_MESSAGES.items(),
                             ids=_SECTION_MESSAGES.keys())
    def test_config_and_support_messages(self, tmp_path, small_operator_doc, change,
                                         message):
        """The config and support checks give the messages of the records
        they describe, and a list ``A`` a message that says how to re-export
        the file, after the file name."""
        doc = small_operator_doc
        path = tmp_path / "op.json"
        path.write_text(json.dumps(doc | _BREAKS[change](doc)))
        with pytest.raises(ContractError) as exc:
            load_operator(str(path))
        assert str(exc.value) == f"operator file {path}: {message}"

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_token_in_file_rejected(self, tmp_path, small_operator_doc, token):
        text = json.dumps(small_operator_doc).replace(
            '"downlink_norms_sq": [', f'"downlink_norms_sq": [{token}, ', 1)
        path = tmp_path / "op.json"
        path.write_text(text)
        with pytest.raises(ContractError, match=f"{token}.*not allowed"):
            load_operator(str(path))

    def test_export_writes_strict_json(self, tmp_path, gs_ref_si):
        """No non-finite number reaches a file: the constructor rejects a
        non-finite ``A``, and a non-finite ``G`` fails the write before the
        file is opened."""
        op = build_conversion_operator(gs_ref_si)
        with pytest.raises(ContractError, match="^A must be finite$"):
            dataclasses.replace(op, A=np.full_like(op.A, np.inf))
        path = tmp_path / "op.json"
        with pytest.raises(ValueError):
            export_operator(str(path), op, G=np.full((2, 2), np.inf))
        assert not path.exists()


def _cli_convert(tmp_path, doc, first_col):
    """Exit code and [Re; Im] output of ``apscast convert --operator`` run
    on the operator document ``doc`` and a covariance file holding
    ``first_col``; the output is None when no file was written."""
    op_path, inp, out = (tmp_path / name for name in ("op.json", "cov.json", "out.json"))
    op_path.write_text(json.dumps(doc))
    col = np.asarray(first_col, dtype=complex)
    inp.write_text(json.dumps({"n": col.size, "first_col_re": col.real.tolist(),
                               "first_col_im": col.imag.tolist()}))
    if out.exists():
        out.unlink()
    code = main(["convert", "--operator", str(op_path), "--input", str(inp),
                 "-o", str(out)])
    if not out.exists():
        return code, None
    got = json.loads(out.read_text())
    assert got["n"] == col.size
    return code, np.array(got["first_col_re"] + got["first_col_im"])


def _loaded(op, path):
    export_operator(path, op)
    return load_operator(path)


# Every way of making an operator from one that exists: (op, file path) -> op.
_MAKERS = {
    "built": lambda op, path: op,
    "loaded": _loaded,
    "pickle": lambda op, path: pickle.loads(pickle.dumps(op)),
    "deepcopy": lambda op, path: copy.deepcopy(op),
    "replace": lambda op, path: dataclasses.replace(op, rank=op.rank),
    "writable-A": lambda op, path: ConversionOperator(
        op.config, op.support, np.array(op.A), np.array(op.downlink_norms_sq), op.rank, op.L),
}

# The breaks the constructor checks too: of what describes the build, and of
# a non-finite ``A``.
_BUILD_BREAKS = ("norms-nan", "norms-shape", "norms-nested", "norms-one-nan",
                 "L-below-2n", "L-zero", "rank-negative", "rank-above-L",
                 "L-fractional", "rank-fractional", "rank-bool", "L-bool",
                 "A-base64-nan", "A-base64-inf", "A-nan", "A-inf",
                 "A-row-N-nan", "A-row-N-inf")


class TestOperatorConstruction:
    @pytest.mark.parametrize("make", _MAKERS.values(), ids=_MAKERS.keys())
    @pytest.mark.parametrize("n", [1, 2, 30, 64])
    def test_interleaved_copy_is_aligned_and_read_only(self, tmp_path, rng, n, make):
        """However an operator is made, its interleaved copy starts on a
        64-byte boundary, is read-only, holds A's rows interleaved and
        converts to the slot-order product's bytes; a covariance of another
        dimension still raises ``dimension_error``'s message."""
        op = make(_built_operator(n, "right-half"), str(tmp_path / "op.json"))
        rows = op._A_interleaved
        assert rows.__array_interface__["data"][0] % 64 == 0
        assert not rows.flags.writeable and rows.flags.c_contiguous
        assert rows[0::2].tobytes() == op.A[:n].tobytes()
        assert rows[1::2].tobytes() == op.A[n:].tobytes()
        cov = _random_cov(rng, n)
        want = HermitianToeplitzCov.from_r_vector(op.A @ cov.to_r_vector())
        assert convert(op, cov).first_col.tobytes() == want.first_col.tobytes()
        with pytest.raises(ContractError) as exc:
            convert(op, _random_cov(rng, n + 1))
        assert str(exc.value) == str(dimension_error(n + 1, n))

    @pytest.mark.parametrize("key", _BUILD_BREAKS)
    def test_constructor_rejects_with_the_file_readers_message(self, tmp_path,
                                                               small_operator_doc, key):
        """What an operator document may not hold, the constructor rejects
        too, with the message of the file reader's document check.  A
        non-finite ``A`` in slot 0 would pass through ``convert`` unnoticed,
        and one in row N would be reported as a non-real diagonal."""
        doc = small_operator_doc | _BREAKS[key](small_operator_doc)
        with pytest.raises(ContractError) as from_file:
            operator_record(doc)
        op = _load_document(small_operator_doc, tmp_path / "op.json")
        with pytest.raises(ContractError) as from_constructor:
            dataclasses.replace(op, A=_decoded_A(doc),
                                downlink_norms_sq=np.array(doc["downlink_norms_sq"]),
                                rank=doc["rank"], L=doc["L"])
        assert str(from_constructor.value) == str(from_file.value)

    def test_complex_A_rejected(self):
        """A complex ``A`` is rejected, not cut to its real part, even when
        its imaginary parts are zero."""
        op = _built_operator(4, "right-half")
        for A in (op.A + 0.5j, op.A.astype(complex), (op.A + 0j).tolist()):
            with pytest.raises(ContractError, match="^A must be real, got dtype complex128$"):
                dataclasses.replace(op, A=A)

    def test_numpy_integer_counts_are_kept_as_int(self, tmp_path):
        """A numpy integer rank and L are accepted and kept as ``int``, so
        the operator exports, and its file loads back equal."""
        op = _built_operator(4, "right-half")
        np_op = dataclasses.replace(op, rank=np.int64(op.rank), L=np.int64(op.L))
        assert type(np_op.rank) is int and type(np_op.L) is int
        path = tmp_path / "op.json"
        export_operator(str(path), np_op)
        assert load_operator(str(path)) == op

    def test_downlink_norms_are_held_read_only(self):
        """The operator holds its own read-only ``downlink_norms_sq``: a
        write into the Gram system's array changes neither it nor its hash,
        a list or a writable array is copied and a read-only one is kept."""
        cfg = UlaConfig.reference(4)
        gs = build_gram_system(build_function_set(cfg, SupportSet([[0.0, HALF_PI]])))
        op = build_conversion_operator(gs)
        before, norms = hash(op), op.downlink_norms_sq.tobytes()
        gs.downlink_norms_sq[0] += 1.0
        assert hash(op) == before and op.downlink_norms_sq.tobytes() == norms
        with pytest.raises(ValueError):
            op.downlink_norms_sq[0] = 1.0
        as_list = dataclasses.replace(op, downlink_norms_sq=op.downlink_norms_sq.tolist())
        assert not as_list.downlink_norms_sq.flags.writeable and as_list == op
        assert dataclasses.replace(op, rank=op.rank).downlink_norms_sq is op.downlink_norms_sq


class TestCommandLineProduct:
    """``convert --operator`` multiplies by ``A`` in plain Python, summing
    each row in its own order; ``convert`` calls BLAS."""

    # An N=2 operator document whose A is written out in base64.
    LITERAL = {
        "n": 2, "L": 4, "rank": 4,
        "A": "AAAAAAAA+D8AAAAAAAAAwAAAAAAAAAAAAAAAAAAA0D8AAAAAAADgPwAAAAAAAPA/"
             "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
             "AAAAAAAAAAAAAAAAAAAQQAAAAAAAAAAAAAAAAAAA8L8=",
        "config": dataclasses.asdict(UlaConfig.reference(2)),
        "support": [],
        "downlink_norms_sq": [1.0, 1.0, 1.0, 1.0],
    }

    @pytest.mark.parametrize("support", _SUPPORTS)
    @pytest.mark.parametrize("n", [1, 4, 64])
    def test_agrees_with_library_within_rounding(self, tmp_path, rng, n, support):
        """Each of two dot products of length 2N is within gamma_{2N} (|A| |r|)_i
        of the exact one, so the two outputs differ by at most twice that."""
        op = _built_operator(n, support)
        doc = _exported_document(op, tmp_path / "built.json")
        u = 2.0 ** -53
        gamma = 2 * n * u / (1 - 2 * n * u)
        for _ in range(3):
            cov = _random_cov(rng, n)
            code, got = _cli_convert(tmp_path, doc, cov.first_col)
            assert code == 0
            want = convert(op, cov).to_r_vector()
            bound = 2 * gamma * (np.abs(op.A) @ np.abs(cov.to_r_vector()))
            assert np.all(np.abs(got - want) <= bound)

    def test_non_real_diagonal_output_exits_1(self, tmp_path, capsys):
        """Row N of A gives Im c_0 of the output; a nonzero one is rejected
        by both paths, and the command line writes nothing."""
        doc = self.LITERAL | {"A": _b64([[1.0, 0.0, 0.0, 0.0]] * 4)}
        code, got = _cli_convert(tmp_path, doc, [2.0, 1.0])
        assert code == 1 and got is None
        assert "diagonal entry must be real: imag(first_col[0]) = 2.0" in capsys.readouterr().err
        op = load_operator(str(tmp_path / "op.json"))
        cov = HermitianToeplitzCov(np.array([2.0, 1.0]))
        for c in (cov, HermitianToeplitzCov.from_r_vector(cov.to_r_vector())):
            with pytest.raises(ContractError, match=r"^diagonal entry must be real: "
                                                    r"imag\(first_col\[0\]\) = 2\.0$"):
                convert(op, c)

    def test_reads_a_as_little_endian(self, tmp_path):
        """A literal operator: A = [[1.5, -2, 0, 0.25], [0.5, 1, 0, 0],
        [0, 0, 0, 0], [0, 4, 0, -1]], base64 of its little-endian bytes.  Every
        product is exact, so both paths must give A @ r to the bit."""
        doc = self.LITERAL
        col = [2.0, 1.0 + 0.5j]
        code, got = _cli_convert(tmp_path, doc, col)
        assert code == 0
        assert got.tolist() == [1.125, 2.0, 0.0, 3.5]
        op = load_operator(str(tmp_path / "op.json"))
        lib = convert(op, HermitianToeplitzCov(np.array(col)))
        assert lib.to_r_vector().tolist() == got.tolist()
