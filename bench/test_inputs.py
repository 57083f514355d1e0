"""Tests of the benchmark's own code.

    PYTHONPATH=src python -m pytest -q bench/test_inputs.py

The input generator must agree with the package's adaptive synthesis, which
it replaces so that package changes cannot shift benchmark inputs.
"""

from __future__ import annotations

import math
import os
import sys
import time

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import apscast  # noqa: E402
from apscast import SupportSet, UlaConfig, build_function_set  # noqa: E402
from apscast.experiments import ApsModel, ApsPeak, synthesize_r_vector  # noqa: E402

import workloads  # noqa: E402
from inputs import bump_design, place, r_vector, ula_omegas  # noqa: E402
from tracing import WRAPPED, Tracer  # noqa: E402


@pytest.mark.parametrize("n, support", [
    (30, None),
    (30, [[0.0, math.pi / 2]]),
    (64, [[-1.1, -0.5], [0.4, 1.2]]),
    (64, [[-math.pi / 2, -0.4]]),
])
def test_generator_matches_package_synthesis(n, support):
    cfg = UlaConfig.reference(n)
    fs = build_function_set(cfg)
    rng = np.random.default_rng(7)
    for _ in range(2):
        spec = place(bump_design(rng), support)
        model = ApsModel(peaks=tuple(ApsPeak(*p) for p in spec.peaks),
                         support=SupportSet(support) if support else None)
        assert spec.norm == pytest.approx(model.norm_constant, rel=1e-10)
        for funcs, spacing in ((fs.uplink, cfg.spacing_up), (fs.downlink, cfg.spacing_down)):
            ours = r_vector(spec, ula_omegas(n, spacing))
            theirs = synthesize_r_vector(model, funcs)
            assert np.max(np.abs(ours - theirs)) <= 1e-10


def test_generator_is_seeded():
    design = bump_design(np.random.default_rng(5))
    a = place(design, [[0.0, 1.0]], np.random.default_rng([3, 4]), 0.02)
    b = place(design, [[0.0, 1.0]], np.random.default_rng([3, 4]), 0.02)
    assert a == b
    assert a != place(design, [[0.0, 1.0]], np.random.default_rng([3, 5]), 0.02)


def test_jittered_supports_stay_valid():
    rng = np.random.default_rng(1)
    for _ in range(50):
        for shape in (*workloads.BUILD_SHAPES, workloads.WARMUP_SHAPE,
                      *workloads.STREAM_SHAPES[1:]):
            SupportSet(workloads.jittered(shape, rng, workloads.JITTER))


def test_tail_is_highest_percentile_with_ten_beyond():
    samples = np.arange(1, 201, dtype=float)
    value, p, n = workloads.tail(samples)
    assert (p, n) == (95.0, 200)
    assert value == pytest.approx(np.percentile(samples, 95.0))
    assert workloads.tail(np.arange(12.0))[1] == 50.0
    assert workloads.tail(np.arange(1e5))[1] == workloads.TAIL_CAP


def test_tracer_self_time_and_restore():
    originals = [getattr(sys.modules[m], a) for m, a, _ in WRAPPED]
    tracer = Tracer(sys.modules)
    tracer.install()
    outer = tracer.begin(tracer.name_id("outer"))
    inner = tracer.begin(tracer.name_id("inner"))
    time.sleep(0.01)
    tracer.finish(inner)
    apscast.hilbert_space.bessel_j0(1.5)
    tracer.finish(outer)
    tracer.restore()
    assert [getattr(sys.modules[m], a) for m, a, _ in WRAPPED] == originals

    s = tracer.summary()
    assert s["numerics.bessel_j0"]["count"] == 1
    children = s["inner"]["ns"] + s["numerics.bessel_j0"]["ns"]
    assert s["outer"]["self_ns"] == pytest.approx(s["outer"]["ns"] - children)
    assert s["inner"]["self_ns"] == s["inner"]["ns"] >= 1e7
