import csv
import math
import time

import numpy as np
import pytest

from apscast.array_model import UlaConfig, build_function_set
from apscast.bounds_analysis import compute_bounds
from apscast.errors import ContractError
from apscast.experiments import (
    ApsModel,
    ApsPeak,
    OracleSpec,
    oracle_residual,
    random_aps_model,
    run_fig1,
    run_fig2,
    run_fig3,
    synthesize_covariance,
    synthesize_r_vector,
    two_path_model,
    write_fig1_csv,
    write_fig2_csv,
    write_fig3_csv,
)
from apscast.hilbert_space import (
    AngularFunction,
    SupportSet,
    Trig,
    clamp_residual_sq,
    inner_product,
    norm_sq,
)
from apscast.numerics import pinv_psd

PI = math.pi
HALF_PI = math.pi / 2


class TestApsModel:
    def test_unit_norm(self):
        aps = two_path_model()
        assert abs(aps.norm() - 1.0) <= 1e-9

    def test_nonnegative(self):
        aps = two_path_model()
        theta = np.linspace(-HALF_PI, HALF_PI, 513)
        assert np.all(aps.evaluate(theta) >= 0.0)

    def test_two_path_shape(self):
        aps = two_path_model()
        v = aps.evaluate(np.array([0.5, 1.4, -1.0]))
        assert v[1] > v[0] > v[2]  # 4x weight at 1.4, background at -1.0

    def test_raw_normalization(self):
        aps = ApsModel(peaks=(ApsPeak(0.0, 0.1, 2.0),), normalization="raw")
        assert aps.evaluate(np.array([0.0]))[0] == pytest.approx(2.0)

    def test_support_clipping(self):
        aps = ApsModel(peaks=(ApsPeak(0.3, 0.1, 1.0),),
                       support=SupportSet([[0.0, HALF_PI]]))
        theta = np.array([-0.2, 0.2])
        v = aps.evaluate(theta)
        assert v[0] == 0.0 and v[1] > 0.0
        assert abs(aps.norm() - 1.0) <= 1e-9
        assert aps.norm_outside(SupportSet([[0.0, HALF_PI]])) == 0.0

    def test_leakage_norm_positive_for_two_path(self, c_s_right):
        aps = two_path_model()
        leak = aps.norm_outside(c_s_right)
        assert 0.0 < leak < 1e-4  # tiny but nonzero energy below 0 rad

    def test_validation(self):
        with pytest.raises(ContractError):
            ApsModel(peaks=())
        with pytest.raises(ContractError):
            ApsPeak(center=0.0, scale=0.0, weight=1.0)
        with pytest.raises(ContractError):
            ApsPeak(center=0.0, scale=0.1, weight=-1.0)
        with pytest.raises(ContractError):
            ApsModel(peaks=(ApsPeak(0.0, 0.1, 1.0),), normalization="bogus")

    def test_random_model_respects_support(self, rng, c_s_right):
        aps = random_aps_model(rng, c_s_right)
        theta = np.linspace(-HALF_PI, -1e-6, 100)
        np.testing.assert_array_equal(aps.evaluate(theta), 0.0)
        assert abs(aps.norm() - 1.0) <= 1e-9


class TestSynthesis:
    def test_zero_spectrum_gives_zero_covariance(self, reference_cfg):
        fs = build_function_set(reference_cfg)
        aps = ApsModel(peaks=(ApsPeak(0.0, 0.1, 0.0),), normalization="raw")
        cov = synthesize_covariance(aps, fs, "uplink")
        np.testing.assert_array_equal(cov.first_col, 0.0)

    def test_point_mass_limit_at_broadside(self):
        cfg = UlaConfig.reference(n_antennas=2)
        fs = build_function_set(cfg)
        aps = ApsModel(peaks=(ApsPeak(0.0, 1e-4, 1.0),), normalization="raw")
        r = synthesize_r_vector(aps, fs.uplink)
        mass = 2.0 * 1e-4 * (1.0 - math.exp(-HALF_PI / 1e-4))  # integral of the peak
        assert r[0] == pytest.approx(mass, rel=1e-10)
        assert r[1] == pytest.approx(mass, rel=1e-4)   # cos term: steering at 0
        assert abs(r[3]) <= 1e-8 * mass                # sin term vanishes at 0

    def test_zero_slot_exactly_zero(self, reference_cfg, rng, c_s_right):
        fs = build_function_set(reference_cfg)
        aps = random_aps_model(rng, c_s_right)
        r = synthesize_r_vector(aps, fs.uplink)
        assert r[reference_cfg.n_antennas] == 0.0

    def test_side_validation(self, reference_cfg):
        fs = build_function_set(reference_cfg)
        with pytest.raises(ContractError):
            synthesize_covariance(two_path_model(), fs, "sideways")


class TestOracle:
    def test_spec_validation(self):
        with pytest.raises(ContractError):
            OracleSpec(grid_points=200)   # even
        with pytest.raises(ContractError):
            OracleSpec(grid_points=99)    # too small

    def test_member_residual_vanishes(self, gs_small_si):
        basis = gs_small_si.basis
        got = oracle_residual(basis[2], basis)
        assert got <= 1e-6

    def test_matches_projection_residual_no_si(self, gs_ref_no_si, rng):
        """Independent grid oracle vs the closed-form residual, random targets."""
        basis = list(gs_ref_no_si.basis)
        G = np.array([[inner_product(f, g) for g in basis] for f in basis])
        res = pinv_psd(G, gs_ref_no_si.pinv)
        for _ in range(5):
            omega = float(rng.uniform(0.0, 80.0))
            kind = Trig.COSINE if rng.random() < 0.5 else Trig.SINE
            y = AngularFunction(kind, omega)
            z = np.array([inner_product(x, y) for x in basis])
            a = math.sqrt(clamp_residual_sq(norm_sq(y) - res.quad_form(z)))
            b = oracle_residual(y, basis)
            assert abs(a - b) <= 1e-4 * max(a, b, 1e-2)

    def test_grid_refinement_stability(self, gs_ref_no_si):
        y = AngularFunction(Trig.COSINE, 17.3)
        basis = gs_ref_no_si.basis
        r1 = oracle_residual(y, basis, OracleSpec(2001))
        r2 = oracle_residual(y, basis, OracleSpec(4001))
        assert abs(r1 - r2) < 1e-5


class TestFig1:
    def test_empty_support_reports_coincide(self, reference_cfg):
        result = run_fig1(reference_cfg, None)
        np.testing.assert_array_equal(result.report_no_si.residuals,
                                      result.report_si.residuals)

    def test_support_shrinks_worst_bound(self, reference_cfg, c_s_right):
        result = run_fig1(reference_cfg, c_s_right)
        assert result.report_si.bounds_pv0.max() < result.report_no_si.bounds_pv0.max()

    def test_smoke_config_is_fast(self, c_s_right):
        cfg = UlaConfig.reference(n_antennas=4)
        t0 = time.time()
        run_fig1(cfg, c_s_right)
        assert time.time() - t0 < 1.0

    def test_csv_schema(self, tmp_path, reference_cfg, c_s_right):
        result = run_fig1(reference_cfg, c_s_right)
        path = tmp_path / "fig1.csv"
        write_fig1_csv(str(path), result)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"k", "bound_no_si", "bound_si"}
        assert len(rows) == 60


@pytest.fixture(scope="module")
def truncated_two_path(c_s_right):
    """The reference spectrum clipped to the assumed support: the support
    assumption then holds exactly."""
    return ApsModel(peaks=two_path_model().peaks, support=c_s_right)


class TestFig2:
    def test_strict_support_respects_bounds(self, reference_cfg, c_s_right,
                                            truncated_two_path):
        result = run_fig2(reference_cfg, c_s_right, truncated_two_path)
        assert np.all(result.errors_si <= result.bounds_si + 1e-7)
        assert result.leakage_norm == 0.0

    def test_two_path_support_info_wins(self, reference_cfg, c_s_right):
        result = run_fig2(reference_cfg, c_s_right)
        assert result.errors_si.max() < result.errors_no_si.max()
        # without support information at least one entry is worse than the
        # entire with-support error profile
        assert result.errors_no_si.max() > result.errors_si.max() * 5

    def test_leakage_bound(self, reference_cfg, c_s_right, gs_ref_si):
        """Support violated by the reference spectrum: the excess over the
        certified bound is controlled by the out-of-support energy."""
        result = run_fig2(reference_cfg, c_s_right)
        max_norm = math.sqrt(max(e.norm_gdk_sq for e in
                                 compute_bounds(gs_ref_si).per_k))
        allowance = 2.0 * result.leakage_norm * max_norm
        excess = np.max(result.errors_si - result.bounds_si)
        assert excess <= allowance + 1e-7

    def test_csv_schema(self, tmp_path, reference_cfg, c_s_right):
        result = run_fig2(reference_cfg, c_s_right)
        path = tmp_path / "fig2.csv"
        write_fig2_csv(str(path), result)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"k", "err_no_si", "err_si", "bound_si"}
        assert len(rows) == 60
        # every value is a plain parseable number that round-trips exactly
        for i, row in enumerate(rows):
            assert float(row["err_si"]) == result.errors_si[i]
            assert float(row["bound_si"]) == result.bounds_si[i]


class TestFig3:
    def test_zero_spectrum_gives_zero_curves(self, reference_cfg, c_s_right):
        aps = ApsModel(peaks=(ApsPeak(0.0, 0.1, 0.0),), normalization="raw")
        result = run_fig3(reference_cfg, c_s_right, aps, grid_points=128)
        np.testing.assert_array_equal(result.rho_true.values, 0.0)
        np.testing.assert_array_equal(result.rho_est_no_si.values, 0.0)
        np.testing.assert_array_equal(result.rho_est_si.values, 0.0)

    def test_estimate_may_go_negative(self, reference_cfg, c_s_right):
        """The minimum-norm estimate is not sign-constrained."""
        result = run_fig3(reference_cfg, c_s_right, grid_points=512)
        assert result.rho_est_no_si.values.min() < 0.0

    def test_constraints_reproduced_no_si(self, reference_cfg, c_s_right):
        result = run_fig3(reference_cfg, c_s_right, grid_points=128)
        assert result.constraint_errors_no_si.max() <= 1e-6

    def test_grid_inner_products_match_r_u(self, reference_cfg):
        """Recomputing <rho~, g_u[k]> by grid quadrature reproduces the data."""
        fs = build_function_set(reference_cfg)
        aps = two_path_model()
        r_u = synthesize_r_vector(aps, fs.uplink)
        result = run_fig3(reference_cfg, None, aps, grid_points=4001)
        theta = result.theta
        w = np.full(theta.size, theta[1] - theta[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        for k in (0, 1, 17, 40):
            vals = fs.uplink[k].evaluate(theta) * result.rho_est_no_si.values
            assert abs(float(np.dot(w, vals)) - r_u[k]) <= 1e-4

    def test_csv_schema(self, tmp_path, reference_cfg, c_s_right):
        result = run_fig3(reference_cfg, c_s_right, grid_points=64)
        path = tmp_path / "fig3.csv"
        write_fig3_csv(str(path), result)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"theta", "rho_true", "rho_est_no_si", "rho_est_si"}
        assert len(rows) == 64
        for i, row in enumerate(rows):
            assert float(row["theta"]) == result.theta[i]
            assert float(row["rho_est_si"]) == result.rho_est_si.values[i]
