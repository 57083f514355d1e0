"""The sampled-basis SVD engine against the closed-form reference paths.

Part one checks the sampling rule itself: the sampled Gram matrix over
uplink plus downlink kernels against closed-form ``inner_product`` (unmasked)
and ``inner_product_quadrature`` (masked).  Part two checks what the engine
derives from its SVD (``A``, residuals, rank) against ``pinv_psd`` applied to
the closed-form Gram matrix.
"""

import functools
import math

import numpy as np
import pytest

import apscast.hilbert_space as hilbert_space
from apscast.array_model import UlaConfig, build_function_set
from apscast.bounds_analysis import compute_bounds
from apscast.conversion import build_conversion_operator, build_gram_system
from apscast.hilbert_space import (
    SupportSet,
    clamp_residual_sq,
    inner_product,
    inner_product_quadrature,
    norm_sq,
    sample,
    sampling_rule,
)
from apscast.numerics import pinv_psd

HALF_PI = math.pi / 2
C = 3.0e8
TWO_INTERVALS = SupportSet([[-1.2, -0.6], [0.1, 0.9]])


def _geometry(n, f_up, f_down):
    return UlaConfig(n_antennas=n, spacing=1.05 * C / (2 * f_up), f_up=f_up,
                     f_down=f_down, wave_speed=C)


def _sampled_gram(funcs):
    X = sample(funcs, *sampling_rule(funcs))
    return X.T @ X


def _closed_form(rows, cols):
    return np.array([[inner_product(f, g) for g in cols] for f in rows])


@pytest.fixture
def memo_j0(monkeypatch):
    """Memoize J0 inside the closed forms: the large reference tables repeat
    few distinct arguments."""
    monkeypatch.setattr(hilbert_space, "bessel_j0",
                        functools.lru_cache(maxsize=None)(hilbert_space.bessel_j0))


@pytest.mark.parametrize("cfg", [
    UlaConfig.reference(8),
    UlaConfig.reference(30),
    UlaConfig.reference(64),
    UlaConfig.reference(128),
    _geometry(64, 1.9e9, 1.8e9),   # f_d < f_u
    _geometry(64, 1.8e9, 2.7e9),   # f_d = 1.5 f_u
], ids=["N8", "N30", "N64", "N128", "N64-fd<fu", "N64-fd=1.5fu"])
def test_sampled_gram_matches_closed_form(cfg, memo_j0):
    fs = build_function_set(cfg)
    funcs = fs.uplink + fs.downlink
    got = _sampled_gram(funcs)
    want = np.zeros_like(got)
    for i, f in enumerate(funcs):
        for j in range(i, len(funcs)):
            want[i, j] = want[j, i] = inner_product(f, funcs[j])
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("n, stride", [(8, 1), (30, 9)])
def test_sampled_masked_entries_match_quadrature(n, stride):
    fs = build_function_set(UlaConfig.reference(n), TWO_INTERVALS)
    funcs = fs.basis + fs.downlink
    got = _sampled_gram(funcs)
    worst = 0.0
    for i in range(2 * n, len(fs.basis), stride):   # constraint rows
        for j, g in enumerate(funcs):
            worst = max(worst, abs(got[i, j] - inner_product_quadrature(funcs[i], g)))
    assert worst <= 1e-12


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("c_s", [None, SupportSet([[0.0, HALF_PI]]), TWO_INTERVALS],
                         ids=["no-SI", "right-half", "two-intervals"])
def test_engine_matches_pinv_of_closed_form_gram(n, c_s):
    fs = build_function_set(UlaConfig.reference(n), c_s)
    gs = build_gram_system(fs)
    op = build_conversion_operator(gs)
    report = compute_bounds(gs)

    G = _closed_form(fs.basis, fs.basis)
    Q = _closed_form(fs.basis, fs.downlink)
    ref = pinv_psd(G, gs.pinv)
    A = ref.apply(Q).T[:, : 2 * n]
    residuals = np.array([
        math.sqrt(clamp_residual_sq(norm_sq(g) - ref.quad_form(Q[:, k])))
        for k, g in enumerate(fs.downlink)
    ])

    assert gs.rank == ref.rank
    assert np.max(np.abs(op.A - A)) <= 1e-10
    assert np.max(np.abs(report.residuals - residuals)) <= 1e-10
    np.testing.assert_allclose(gs.singular_values ** 2,
                               np.sort(ref.eigenvalues)[::-1], atol=1e-12)
