import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apscast.errors import ContractError, NumericalConsistencyError
from apscast.hilbert_space import (
    AngularFunction,
    Trig,
    clamp_residual_sq,
    inner_product,
    inner_product_quadrature,
    mask,
    norm_sq,
)
from apscast.numerics import bessel_j0, pinv_psd
from apscast.records import HALF_PI, SupportSet

PI = math.pi


def cosf(omega, **kw):
    return AngularFunction(Trig.COSINE, omega, **kw)


def sinf(omega, **kw):
    return AngularFunction(Trig.SINE, omega, **kw)


class TestSupportSet:
    def test_validation(self):
        with pytest.raises(ContractError):
            SupportSet([[0.0, 2.0]])  # outside [-pi/2, pi/2]
        with pytest.raises(ContractError):
            SupportSet([[0.0, 0.5], [0.4, 0.6]])  # overlapping

    def test_reversed_interval_has_its_own_message(self):
        with pytest.raises(ContractError, match=r"^interval \[0\.5, 0\.2\] is reversed"):
            SupportSet([[0.5, 0.2]])

    def test_complement_of_right_half(self):
        c = SupportSet([[0.0, HALF_PI]]).complement()
        assert c.intervals == ((-HALF_PI, 0.0),)

    def test_complement_involution(self):
        s = SupportSet([[-1.0, -0.5], [0.2, 0.9]])
        assert s.complement().complement().intervals == s.intervals

    def test_measure(self):
        assert SupportSet([[0.0, HALF_PI]]).measure() == pytest.approx(HALF_PI)
        assert SupportSet.full().measure() == pytest.approx(PI)
        assert SupportSet.empty().measure() == 0.0

    def test_union_merges_overlaps(self):
        u = SupportSet([[0.0, 0.5]]).union(SupportSet([[0.3, 0.8]]))
        assert u.intervals == ((0.0, 0.8),)

    def test_contains(self):
        s = SupportSet([[0.0, 1.0]])
        got = s.contains(np.array([-0.1, 0.0, 0.5, 1.0, 1.2]))
        np.testing.assert_array_equal(got, [False, True, True, True, False])


class TestAngularFunction:
    def test_evaluate_unmasked(self):
        f = cosf(2.0)
        t = np.array([0.0, 0.7])
        np.testing.assert_allclose(f.evaluate(t), np.cos(2.0 * np.sin(t)))

    def test_evaluate_masked_zeroes_on_mask(self):
        f = mask(cosf(1.0), SupportSet([[0.0, HALF_PI]]))
        t = np.array([-0.5, 0.5])
        vals = f.evaluate(t)
        assert vals[1] == 0.0
        assert vals[0] == pytest.approx(math.cos(math.sin(-0.5)))

    def test_zero_function_detection(self):
        assert sinf(0.0).is_zero()
        assert not cosf(0.0).is_zero()
        assert mask(cosf(1.0), SupportSet.full()).is_zero()

    def test_invalid_omega(self):
        with pytest.raises(ContractError):
            cosf(-1.0)


class TestInnerProduct:
    def test_constants(self):
        assert inner_product(cosf(0.0), cosf(0.0)) == pytest.approx(PI, abs=1e-14)

    def test_cos_sin_orthogonal_exactly(self):
        assert inner_product(cosf(3.7), sinf(11.2)) == 0.0

    def test_cos_cos_closed_form(self):
        a, b = 2.0, 5.0
        expected = (PI / 2) * (bessel_j0(a - b) + bessel_j0(a + b))
        assert inner_product(cosf(a), cosf(b)) == pytest.approx(expected, abs=1e-14)

    def test_sin_sin_closed_form(self):
        a, b = 4.0, 1.5
        expected = (PI / 2) * (bessel_j0(a - b) - bessel_j0(a + b))
        assert inner_product(sinf(a), sinf(b)) == pytest.approx(expected, abs=1e-14)

    def test_fast_path_vs_quadrature_unmasked(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            kind1, kind2 = rng.integers(0, 2, size=2)
            a, b = rng.uniform(0.0, 60.0, size=2)
            f = cosf(a) if kind1 == 0 else sinf(a)
            g = cosf(b) if kind2 == 0 else sinf(b)
            fast = inner_product(f, g)
            slow = inner_product_quadrature(f, g)
            assert abs(fast - slow) <= 1e-8

    def test_fast_path_vs_quadrature_masked(self):
        rng = np.random.default_rng(12)
        c_s = SupportSet([[0.0, HALF_PI]])
        for _ in range(60):
            kind1, kind2 = rng.integers(0, 2, size=2)
            a, b = rng.uniform(0.0, 40.0, size=2)
            f = cosf(a) if kind1 == 0 else sinf(a)
            g = mask(cosf(b) if kind2 == 0 else sinf(b), c_s)
            fast = inner_product(f, g)
            slow = inner_product_quadrature(f, g)
            assert abs(fast - slow) <= 1e-10

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        c_s = SupportSet([[-0.4, 0.9]])
        for _ in range(50):
            a, b = rng.uniform(0.0, 30.0, size=2)
            f = mask(cosf(a), c_s) if rng.random() < 0.5 else sinf(a)
            g = mask(sinf(b), c_s) if rng.random() < 0.5 else cosf(b)
            assert abs(inner_product(f, g) - inner_product(g, f)) <= 1e-12

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(14)
        c_s = SupportSet([[0.1, 1.2]])
        for _ in range(100):
            a, b = rng.uniform(0.0, 30.0, size=2)
            f = cosf(a) if rng.random() < 0.5 else mask(sinf(a), c_s)
            g = sinf(b) if rng.random() < 0.5 else mask(cosf(b), c_s)
            lhs = abs(inner_product(f, g))
            rhs = math.sqrt(max(norm_sq(f), 0.0)) * math.sqrt(max(norm_sq(g), 0.0))
            assert lhs <= rhs + 1e-10

    def test_disjoint_masks_give_zero(self):
        f = mask(cosf(1.0), SupportSet([[-HALF_PI, 0.0]]))
        g = mask(cosf(2.0), SupportSet([[0.0, HALF_PI]]))
        # live regions are [0, pi/2] and [-pi/2, 0]; overlap has measure zero
        assert abs(inner_product(f, g)) <= 1e-15

    @given(st.floats(min_value=0.0, max_value=50.0),
           st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=80, deadline=None)
    def test_cos_sin_block_always_zero(self, a, b):
        assert inner_product(cosf(a), sinf(b)) == 0.0


class TestMask:
    def test_full_mask_is_zero_function(self):
        f = mask(cosf(0.0), SupportSet.full())
        assert norm_sq(f) == 0.0

    def test_empty_mask_returns_function_unchanged(self):
        f = cosf(2.0)
        assert mask(f, SupportSet.empty()) == f

    def test_half_mask_norm(self):
        f = mask(cosf(0.0), SupportSet([[0.0, HALF_PI]]))
        assert norm_sq(f) == pytest.approx(HALF_PI, abs=1e-12)

    def test_double_mask_rejected(self):
        f = mask(cosf(1.0), SupportSet([[0.0, 0.5]]))
        with pytest.raises(ContractError):
            mask(f, SupportSet([[0.6, 0.7]]))


def _pinv_for(basis):
    G = np.array([[inner_product(f, g) for g in basis] for f in basis])
    return pinv_psd(G)


# Reference projection onto span(basis): pinv_psd of the closed-form Gram
# matrix applied to z = [<x_j, y>].


def _z(basis, y):
    return np.array([inner_product(x, y) for x in basis])


def _coefficients(basis, res, y):
    return res.apply(_z(basis, y))


def _residual(y, basis, res):
    z = _z(basis, y)
    return math.sqrt(clamp_residual_sq(norm_sq(y) - res.quad_form(z)))


class TestProjection:
    def test_member_coefficients(self):
        basis = [cosf(0.0)]
        res = _pinv_for(basis)
        alpha = _coefficients(basis, res, cosf(0.0))
        np.testing.assert_allclose(alpha, [1.0], atol=1e-12)

    def test_orthogonal_coefficients(self):
        basis = [cosf(2.5)]
        res = _pinv_for(basis)
        alpha = _coefficients(basis, res, sinf(4.0))
        np.testing.assert_allclose(alpha, [0.0], atol=1e-14)

    def test_dimension_mismatch(self):
        # the reference path rejects a Gram matrix that is not square
        with pytest.raises(ContractError):
            pinv_psd(np.eye(2)[:1])

    def test_member_residual_zero(self):
        basis = [cosf(0.0), cosf(3.0), sinf(2.0)]
        res = _pinv_for(basis)
        assert _residual(cosf(3.0), basis, res) <= 1e-7

    def test_orthogonal_residual_closed_form(self):
        b = 5.0
        basis = [cosf(0.0), cosf(3.0)]
        res = _pinv_for(basis)
        got = _residual(sinf(b), basis, res)
        expected = math.sqrt((PI / 2) * (1.0 - bessel_j0(2 * b)))
        assert got == pytest.approx(expected, rel=1e-10)

    def test_zero_function_residual(self):
        basis = [cosf(1.0)]
        res = _pinv_for(basis)
        assert _residual(sinf(0.0), basis, res) == 0.0

    def test_pythagoras(self):
        rng = np.random.default_rng(15)
        basis = [cosf(0.0), cosf(2.0), cosf(5.0), sinf(1.0)]
        res = _pinv_for(basis)
        G = np.array([[inner_product(f, g) for g in basis] for f in basis])
        for _ in range(25):
            y = cosf(rng.uniform(0, 20)) if rng.random() < 0.5 else sinf(rng.uniform(0, 20))
            alpha = _coefficients(basis, res, y)
            proj_sq = float(alpha @ G @ alpha)
            resid = _residual(y, basis, res)
            total = norm_sq(y)
            assert proj_sq + resid ** 2 == pytest.approx(total, rel=1e-7, abs=1e-9)

    def test_monotone_in_basis(self):
        rng = np.random.default_rng(16)
        funcs = [cosf(0.0), cosf(1.0), cosf(4.0), sinf(2.0), sinf(7.0), cosf(9.0)]
        for _ in range(10):
            y = cosf(rng.uniform(0, 25)) if rng.random() < 0.5 else sinf(rng.uniform(0, 25))
            prev = math.inf
            for size in range(1, len(funcs) + 1):
                basis = funcs[:size]
                res = _pinv_for(basis)
                r = _residual(y, basis, res)
                assert r <= prev + 1e-9
                prev = r

    def test_inconsistent_pinv_raises(self):
        # doctored pseudo-inverse overestimates the projection energy
        basis = [cosf(0.0), cosf(2.0)]
        res = _pinv_for(basis)
        z = _z(basis, cosf(0.0))
        with pytest.raises(NumericalConsistencyError):
            clamp_residual_sq(norm_sq(cosf(0.0)) - 3.0 * res.quad_form(z))

    def test_coefficients_match_grid_least_squares(self):
        """Closed-form projection coefficients against a dense grid solve."""
        omega_u = 2 * PI * 0.525
        basis = [cosf(0.0), cosf(2.0 * omega_u)]
        res = _pinv_for(basis)
        y = cosf(2 * PI * 0.525 * 19 / 18)  # a downlink-type kernel
        alpha = _coefficients(basis, res, y)

        theta = np.linspace(-HALF_PI, HALF_PI, 4001)
        w = np.full(theta.size, theta[1] - theta[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        X = np.column_stack([f.evaluate(theta) for f in basis])
        Xw = X * w[:, None]
        alpha_grid = np.linalg.solve(X.T @ Xw, Xw.T @ y.evaluate(theta))
        np.testing.assert_allclose(alpha, alpha_grid, atol=1e-4)
