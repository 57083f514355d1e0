import json
import math

import numpy as np
import pytest

from apscast.array_model import UlaConfig, build_function_set
from apscast.conversion import (
    HermitianToeplitzCov,
    build_conversion_operator,
    build_gram_system,
    convert,
    estimate_aps,
    export_operator,
    load_operator,
    operator_from_dict,
    operator_to_dict,
)
from apscast.errors import ContractError
from apscast.experiments import (
    random_aps_model,
    synthesize_covariance,
    synthesize_r_vector,
)
from apscast.hilbert_space import SupportSet, inner_product_with_status

PI = math.pi
HALF_PI = math.pi / 2


@pytest.fixture(scope="module")
def recip_cfg():
    """f_up == f_down: conversion must act as the identity."""
    f = 1.8e9
    c = 3.0e8
    return UlaConfig(n_antennas=8, spacing=1.05 * c / (2 * f), f_up=f, f_down=f,
                     wave_speed=c)


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
                _, converged = inner_product_with_status(row, x, gs_ref_si.quad)
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
        assert op.Q_mat.shape == (120, 60)
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


class TestHermitianToeplitzCov:
    def test_rejects_complex_diagonal(self):
        with pytest.raises(ContractError):
            HermitianToeplitzCov(np.array([1.0 + 0.5j, 0.2]))

    def test_r_vector_round_trip(self):
        col = np.array([2.0, 0.3 - 0.4j, -0.1 + 0.2j])
        cov = HermitianToeplitzCov(col)
        back = HermitianToeplitzCov.from_r_vector(cov.to_r_vector())
        np.testing.assert_array_equal(back.first_col, col)

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
        with pytest.raises(ContractError):
            convert(op, HermitianToeplitzCov(np.zeros(5, dtype=complex)))

    def test_reciprocity_identity(self, recip_cfg, rng):
        fs = build_function_set(recip_cfg)
        op = build_conversion_operator(build_gram_system(fs))
        aps = random_aps_model(rng, SupportSet.full())
        cov = synthesize_covariance(aps, fs, "uplink")
        out = convert(op, cov)
        np.testing.assert_allclose(out.first_col, cov.first_col, atol=1e-6)

    def test_imag_diagonal_exactly_zero(self, gs_ref_si, rng):
        fs = gs_ref_si.function_set
        op = build_conversion_operator(gs_ref_si)
        aps = random_aps_model(rng, SupportSet([[0.0, HALF_PI]]))
        out = convert(op, synthesize_covariance(aps, fs, "uplink"))
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
        with pytest.raises(ContractError):
            estimate_aps(gs_ref_si, np.zeros(60), constraint_values=np.zeros(3))

    def test_nonzero_constraint_values_supported(self, gs_small_si):
        n = gs_small_si.function_set.n
        b = np.full(len(gs_small_si.function_set.constraints), 0.01)
        b[n] = 0.0  # slot N+1 is the zero function; any other value is infeasible
        est = estimate_aps(gs_small_si, np.zeros(2 * n), constraint_values=b)
        resat = gs_small_si.G @ est.coefficients
        np.testing.assert_allclose(resat[2 * n:], b, atol=1e-8)


class TestOperatorSerialization:
    def test_round_trip_dict(self, gs_ref_si):
        op = build_conversion_operator(gs_ref_si)
        doc = operator_to_dict(op, G=gs_ref_si.G)
        back = operator_from_dict(json.loads(json.dumps(doc)))
        np.testing.assert_array_equal(back.A, op.A)
        np.testing.assert_array_equal(back.Q_mat, op.Q_mat)
        assert back.rank == op.rank
        assert back.support.intervals == op.support.intervals

    def test_round_trip_file_conversions_identical(self, tmp_path, gs_ref_si, rng):
        fs = gs_ref_si.function_set
        op = build_conversion_operator(gs_ref_si)
        path = tmp_path / "op.json"
        export_operator(str(path), op, G=gs_ref_si.G)
        loaded = load_operator(str(path))
        aps = random_aps_model(rng, SupportSet([[0.0, HALF_PI]]))
        cov = synthesize_covariance(aps, fs, "uplink")
        a = convert(op, cov).first_col
        b = convert(loaded, cov).first_col
        np.testing.assert_array_equal(a, b)

    def test_malformed_document_rejected(self):
        with pytest.raises(ContractError):
            operator_from_dict({"n": 2})
