"""The sampled-basis SVD engine against the closed-form reference paths.

Part one checks the sampling rule itself: the sampled Gram matrix over
uplink plus downlink kernels against closed-form ``inner_product`` (unmasked)
and ``inner_product_quadrature`` (masked).  Part two checks what the engine
derives from its SVD (``A``, residuals, rank) against ``pinv_psd`` applied to
the closed-form Gram matrix.  Part three checks the build's grouped mask
pass in ``sample`` against a per-column reference, byte for byte, and the
downlink norms the build takes from its samples against closed-form
``norm_sq``.
"""

import functools
import math

import numpy as np
import pytest

import apscast.hilbert_space as hilbert_space
import apscast.numerics as numerics
from apscast.array_model import build_function_set
from apscast.bounds_analysis import compute_bounds
from apscast.conversion import build_conversion_operator, build_gram_system
from apscast.hilbert_space import (
    AngularFunction,
    Trig,
    clamp_residual_sq,
    inner_product,
    inner_product_quadrature,
    mask,
    norm_sq,
    sample,
    sampling_rule,
)
from apscast.numerics import pinv_psd
from apscast.records import SupportSet, UlaConfig

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


def _sample_per_column(funcs, nodes, weights):
    """``sample`` with one mask pass per column: the reference for the
    grouped passes."""
    cosine = np.array([f.trig is Trig.COSINE for f in funcs])
    plus = np.outer(np.sin(nodes), [f.omega for f in funcs])
    np.cos(plus, out=plus, where=cosine)
    np.sin(plus, out=plus, where=~cosine)
    minus = plus * np.where(cosine, 1.0, -1.0)
    for j, f in enumerate(funcs):
        if f.mask is not None:
            plus[f.mask.contains(nodes), j] = 0.0
            minus[f.mask.contains(-nodes), j] = 0.0
    m = nodes.size
    out = np.empty((2 * m, len(funcs)))
    np.add(plus, minus, out=out[:m])
    np.subtract(plus, minus, out=out[m:])
    out *= np.sqrt(0.5 * np.tile(weights, 2))[:, None]
    return out


def _mixed_masks():
    """Kernels under two different masks, interleaved with unmasked ones
    and with a fully masked one."""
    right = SupportSet([[0.0, HALF_PI]])
    kernels = [AngularFunction(trig, w) for trig in Trig for w in (0.0, 3.3, 11.7)]
    funcs = []
    for k, g in enumerate(kernels):
        funcs += [g, mask(g, right), mask(g, TWO_INTERVALS)]
        if k % 2:
            funcs.append(mask(g, SupportSet.full()))
    return funcs


def test_sample_masks_match_per_column_loop():
    funcs = _mixed_masks()
    assert len({f.mask for f in funcs}) == 4   # None, two masks, full
    nodes, weights = sampling_rule(funcs)
    got = sample(funcs, nodes, weights)
    assert got.tobytes() == _sample_per_column(funcs, nodes, weights).tobytes()


@pytest.mark.parametrize("c_s", [None, SupportSet([[0.0, HALF_PI]]), TWO_INTERVALS],
                         ids=["no-SI", "right-half", "two-intervals"])
@pytest.mark.parametrize("f_up, f_down", [(1.8e9, 1.9e9), (1.9e9, 1.8e9), (1.8e9, 2.7e9)],
                         ids=["reference", "fd<fu", "fd=1.5fu"])
@pytest.mark.parametrize("n", [1, 2, 30, 64, 128])
def test_downlink_norms_match_norm_sq(n, f_up, f_down, c_s):
    """The build's sampled norms ||Y_k||^2 against the closed form; the
    zero kernel of slot N+1 has norm exactly 0."""
    fs = build_function_set(_geometry(n, f_up, f_down), c_s)
    got = build_gram_system(fs).downlink_norms_sq
    want = np.array([norm_sq(g) for g in fs.downlink])
    assert got[n] == 0.0 and want[n] == 0.0
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("c_s", [None, TWO_INTERVALS], ids=["no-SI", "two-intervals"])
def test_build_makes_no_j0_call(monkeypatch, c_s):
    """J0 is the closed-form reference only: a build, its operator and its
    bounds run with every J0 the package could call refusing to run."""
    def refuse(x):
        raise AssertionError(f"the build called J0({x})")

    monkeypatch.setattr(numerics, "bessel_j0", refuse)
    monkeypatch.setattr(hilbert_space, "bessel_j0", refuse)
    gs = build_gram_system(build_function_set(UlaConfig.reference(30), c_s))
    build_conversion_operator(gs)
    compute_bounds(gs)
