import csv
import math
import time

import numpy as np
import pytest

from apscast import hilbert_space
from apscast.array_model import build_function_set
from apscast.bounds_analysis import compute_bounds
from apscast.conversion import build_gram_system
from apscast.errors import ContractError, NumericalConsistencyError
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
    write_metadata,
)
from apscast.hilbert_space import (
    AngularFunction,
    Trig,
    clamp_residual_sq,
    inner_product,
    norm_sq,
)
from apscast.numerics import PinvSpec, gauss_legendre, integrate, pinv_psd
from apscast.records import SupportSet, UlaConfig

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
        cov = synthesize_covariance(aps, fs)
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


def _synthesis(n: int) -> list[tuple[np.ndarray, float, float]]:
    """(r over the 4N uplink and downlink kernels, norm constant, leakage
    outside [0, pi/2]) for a two-path, a 1e-3-wide and a two-interval model."""
    fs = build_function_set(UlaConfig.reference(n))
    funcs = fs.uplink + fs.downlink
    models = (
        two_path_model(),
        ApsModel(peaks=(ApsPeak(0.3, 1e-3, 1.0), ApsPeak(-0.7, 0.05, 0.5))),
        ApsModel(peaks=(ApsPeak(-0.9, 0.1, 1.0), ApsPeak(0.4, 0.03, 2.0)),
                 support=SupportSet([[-1.2, -0.6], [0.1, 0.9]])),
    )
    leak = SupportSet([[0.0, HALF_PI]])
    return [(synthesize_r_vector(m, funcs), m.norm_constant, m.norm_outside(leak))
            for m in models]


class TestSampledRule:
    """Synthesis takes every integral on ``ApsModel.rule``."""

    @pytest.mark.parametrize("n", [30, 64, 128])
    def test_doubling_the_nodes_moves_nothing(self, monkeypatch, n):
        """Twice the nodes on every piece: r, the norm constant and the
        leakage move by rounding only."""
        base = _synthesis(n)
        monkeypatch.setattr(hilbert_space, "gauss_legendre",
                            lambda order: gauss_legendre(2 * order))
        for (r, c, leak), (r2, c2, leak2) in zip(base, _synthesis(n)):
            assert np.max(np.abs(r - r2)) <= 1e-12
            assert abs(c - c2) <= 1e-12
            assert abs(leak - leak2) <= 1e-12

    def test_matches_adaptive_reference(self):
        """Every fifth kernel and the norms against ``integrate`` on the
        support intervals, cut at the model's breakpoints."""
        c_s = SupportSet([[-1.2, -0.6], [0.1, 0.9]])
        aps = ApsModel(peaks=(ApsPeak(-0.9, 0.1, 1.0), ApsPeak(0.4, 0.03, 2.0)),
                       support=c_s)
        fs = build_function_set(UlaConfig.reference(30))
        funcs = (fs.uplink + fs.downlink)[::5]

        def reference(f, pieces):
            return sum(integrate(f, a, b, breakpoints=aps.breakpoints()).value
                       for a, b in pieces)

        want = [reference(lambda t: aps.evaluate(t) * g.kernel_values(t), c_s.intervals)
                for g in funcs]
        np.testing.assert_allclose(synthesize_r_vector(aps, funcs), want, rtol=0, atol=1e-12)
        assert aps.norm() == pytest.approx(1.0, abs=1e-13)
        leak = SupportSet([[0.0, HALF_PI]])
        want_leak = math.sqrt(reference(lambda t: aps.evaluate(t) ** 2,
                                        leak.complement().intervals))
        assert aps.norm_outside(leak) == pytest.approx(want_leak, rel=1e-12)


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

    def test_matches_engine_off_grid_mask_edges(self, reference_cfg):
        """Two intervals whose edges are not nodes of a 4001-point grid:
        oracle vs engine residuals to 1e-5 relative above 1e-6."""
        c_s = SupportSet([[-1.2, -0.6], [0.1, 0.9]])
        fs = build_function_set(reference_cfg, c_s)
        gs = build_gram_system(fs)
        report = compute_bounds(gs)
        for idx, (g, residual) in enumerate(zip(fs.downlink, report.residuals)):
            if residual > 1e-6:
                b = oracle_residual(g, gs.basis, OracleSpec(4001), gs.pinv)
                assert abs(residual - b) <= 1e-5 * residual, idx + 1

    @pytest.mark.parametrize("cutoff", [1e-12, 1e-18])
    @pytest.mark.parametrize("support", [[[0.0, HALF_PI]], [[-1.2, -0.6], [0.1, 0.9]]],
                             ids=["one-interval", "two-intervals"])
    def test_matches_engine_at_small_cutoffs(self, reference_cfg, support, cutoff):
        """A least-squares oracle keeps the engine's directions where normal
        equations lose them: no slot disagrees beyond criterion 2's
        tolerance (1e-6 absolute and 1e-4 relative)."""
        gs = build_gram_system(build_function_set(reference_cfg, SupportSet(support)),
                               PinvSpec(cutoff))
        disagree = []
        for k, (g, a) in enumerate(zip(gs.function_set.downlink,
                                       compute_bounds(gs).residuals)):
            b = oracle_residual(g, gs.basis, OracleSpec(4001), gs.pinv)
            if abs(a - b) > 1e-6 and abs(a - b) > 1e-4 * max(a, b):
                disagree.append(k + 1)
        assert disagree == []

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
        # every value is a plain parseable number that round-trips exactly
        for i, row in enumerate(rows):
            assert int(row["k"]) == i + 1
            assert float(row["bound_no_si"]) == result.report_no_si.bounds_pv0[i]
            assert float(row["bound_si"]) == result.report_si.bounds_pv0[i]


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
        max_norm = math.sqrt(max(compute_bounds(gs_ref_si).norms_sq))
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
        np.testing.assert_array_equal(result.rho_true, 0.0)
        np.testing.assert_array_equal(result.rho_est_no_si, 0.0)
        np.testing.assert_array_equal(result.rho_est_si, 0.0)

    def test_estimate_may_go_negative(self, reference_cfg, c_s_right):
        """The minimum-norm estimate is not sign-constrained."""
        result = run_fig3(reference_cfg, c_s_right, grid_points=512)
        assert result.rho_est_no_si.min() < 0.0

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
            vals = fs.uplink[k].evaluate(theta) * result.rho_est_no_si
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
            assert float(row["rho_est_si"]) == result.rho_est_si[i]


def test_non_finite_metadata_writes_nothing(tmp_path):
    path = tmp_path / "meta.json"
    with pytest.raises(NumericalConsistencyError):
        write_metadata(str(path), {"B": math.inf})
    assert not path.exists()
