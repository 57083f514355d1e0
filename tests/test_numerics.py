import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apscast.errors import ContractError
from apscast.numerics import (
    PinvSpec,
    QuadratureSpec,
    bessel_j0,
    integrate,
    pinv_psd,
)

mpmath.mp.dps = 40


def j0_series_oracle(x: float) -> float:
    """Independent truncated power series sum (-1)^m (x/2)^{2m} / (m!)^2,
    evaluated in 40-digit arithmetic."""
    z = mpmath.mpf(x) ** 2 / 4
    term = mpmath.mpf(1)
    acc = mpmath.mpf(1)
    m = 0
    while abs(term) > mpmath.mpf("1e-35"):
        m += 1
        term *= -z / (m * m)
        acc += term
    return float(acc)


class TestBesselJ0:
    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_reference_value(self):
        assert abs(bessel_j0(1.0) - 0.76519768655796655) <= 1e-12

    def test_first_zero(self):
        assert abs(bessel_j0(2.40482555769577)) <= 1e-10

    def test_evenness_exact(self):
        for x in [0.3, 1.7, 11.99, 12.01, 250.0]:
            assert bessel_j0(x) == bessel_j0(-x)

    def test_against_series_oracle(self):
        rng = np.random.default_rng(42)
        xs = rng.uniform(-50.0, 50.0, 1000)
        worst = max(abs(bessel_j0(float(x)) - j0_series_oracle(float(x))) for x in xs)
        assert worst <= 1e-10, f"worst deviation {worst:.3e}"

    def test_wide_range_accuracy(self):
        rng = np.random.default_rng(7)
        xs = np.concatenate([rng.uniform(0, 500, 300), [11.999999, 12.0, 12.000001, 500.0]])
        for x in xs:
            ref = float(mpmath.besselj(0, mpmath.mpf(float(x))))
            assert abs(bessel_j0(float(x)) - ref) <= 1e-12

    def test_accuracy_to_1e15_over_the_kernel_range(self):
        """Absolute error at most 1e-15 against 40-digit mpmath over [0, 1300]
        (the closed forms reach |a + b| ~ 1260 at N = 128 with f_d = 1.5 f_u)
        and at tiny arguments on both sides of 2**-26."""
        rng = np.random.default_rng(30)
        tiny = [5e-324, 1e-300, 1e-8, 2.0**-26, math.nextafter(2.0**-26, 1.0)]
        for x in np.concatenate([rng.uniform(0, 1300, 300), tiny]):
            ref = float(mpmath.besselj(0, mpmath.mpf(float(x))))
            assert abs(bessel_j0(float(x)) - ref) <= 1e-15, x

    def test_branch_seam_continuity(self):
        # J0 is continuous across x = 12
        left = bessel_j0(12.0 - 1e-9)
        right = bessel_j0(12.0 + 1e-9)
        assert abs(left - right) < 1e-8

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ContractError):
            bessel_j0(bad)

    @given(st.floats(min_value=-60.0, max_value=60.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_even_and_bounded(self, x):
        v = bessel_j0(x)
        assert v == bessel_j0(-x)
        assert abs(v) <= 1.0 + 1e-15


class TestIntegrate:
    def test_constant(self):
        res = integrate(lambda t: np.ones_like(t), -math.pi / 2, math.pi / 2)
        assert res.converged
        assert abs(res.value - math.pi) <= 1e-13

    def test_cos_sin_kernel_identity(self):
        # int_{-pi/2}^{pi/2} cos(a sin t) dt = pi J0(a) = 2.4039394306...
        res = integrate(lambda t: np.cos(np.sin(t)), -math.pi / 2, math.pi / 2)
        assert abs(res.value - math.pi * bessel_j0(1.0)) <= 1e-12
        assert res.value == pytest.approx(2.40394, abs=1e-5)

    def test_odd_integrand_vanishes(self):
        res = integrate(lambda t: np.sin(3 * np.sin(t)), -math.pi / 2, math.pi / 2)
        assert abs(res.value) <= 1e-13

    def test_polynomial_panel_exactness(self):
        # degree <= 2 * panel_order - 1 is exact for Gauss-Legendre
        spec = QuadratureSpec(panel_order=8)
        coeffs = np.arange(1.0, 16.0)  # degree 14 < 15
        exact = sum(c / (p + 1) * (2.0 ** (p + 1) - 1.0)
                    for p, c in enumerate(coeffs))
        res = integrate(lambda t: np.polynomial.polynomial.polyval(t, coeffs), 1.0, 2.0, spec)
        assert abs(res.value - exact) <= 1e-12 * abs(exact)

    def test_breakpoints_respected_for_kinks(self):
        f = lambda t: np.abs(t - 0.3)
        res = integrate(f, 0.0, 1.0, breakpoints=[0.3])
        exact = 0.3 ** 2 / 2 + 0.7 ** 2 / 2
        assert abs(res.value - exact) <= 1e-12

    def test_non_convergence_flagged_not_raised(self):
        spec = QuadratureSpec(panel_order=2, abs_tol=1e-14, rel_tol=1e-14,
                              max_subdivisions=1)
        res = integrate(lambda t: np.cos(200.0 * np.sin(t)), -1.5, 1.5, spec)
        assert not res.converged
        assert math.isfinite(res.value)

    def test_degenerate_interval(self):
        res = integrate(lambda t: np.exp(t), 1.0, 1.0)
        assert res.value == 0.0 and res.converged

    def test_rejects_reversed_interval(self):
        with pytest.raises(ContractError):
            integrate(lambda t: t, 1.0, 0.0)

    def test_spec_validation(self):
        with pytest.raises(ContractError):
            QuadratureSpec(panel_order=1)
        with pytest.raises(ContractError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ContractError):
            QuadratureSpec(max_subdivisions=0)


class TestPinvPsd:
    def test_identity(self):
        res = pinv_psd(np.eye(3))
        assert res.rank == 3
        np.testing.assert_allclose(res.apply(np.eye(3)), np.eye(3), atol=1e-14)

    def test_singular_diagonal(self):
        res = pinv_psd(np.diag([1.0, 0.0]))
        assert res.rank == 1
        np.testing.assert_allclose(res.apply(np.eye(2)), np.diag([1.0, 0.0]), atol=1e-14)

    def test_rank_one_hand_formula(self):
        # symmetric rank one: G^+ = G / ||G||_F^2
        G = np.array([[2.0, 2.0], [2.0, 2.0]])
        res = pinv_psd(G)
        assert res.rank == 1
        np.testing.assert_allclose(res.apply(np.eye(2)), np.full((2, 2), 0.125), atol=1e-14)

    def test_moore_penrose_identities_random_psd(self):
        rng = np.random.default_rng(3)
        for n in [5, 20, 60]:
            X = rng.normal(size=(n, n - 2))
            G = X @ X.T  # PSD, rank n-2
            res = pinv_psd(G)
            gp = res.apply(np.eye(n))
            nrm = np.linalg.norm(G)
            assert np.linalg.norm(G @ gp @ G - G) <= 1e-8 * nrm
            assert np.linalg.norm(gp @ G @ gp - gp) <= 1e-8 * np.linalg.norm(gp)

    def test_quad_form_matches_dense_when_well_conditioned(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(8, 8))
        G = X @ X.T + 8 * np.eye(8)
        res = pinv_psd(G)
        z = rng.normal(size=8)
        dense = z @ res.apply(np.eye(8)) @ z
        assert abs(res.quad_form(z) - dense) <= 1e-10 * abs(res.quad_form(z))

    def test_rejects_asymmetric(self):
        with pytest.raises(ContractError):
            pinv_psd(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_diagnostics(self):
        res = pinv_psd(np.diag([4.0, 1.0, 0.0]))
        assert res.sigma_max == pytest.approx(4.0)
        assert res.sigma_min_retained == pytest.approx(1.0)
        assert res.condition == pytest.approx(4.0)

    def test_cutoff_validation(self):
        with pytest.raises(ContractError):
            PinvSpec(rel_cutoff=0.0)
        with pytest.raises(ContractError):
            PinvSpec(rel_cutoff=1.5)
