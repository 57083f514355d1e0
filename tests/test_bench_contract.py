"""The benchmark's hold on the package: each path in ``bench/tracing.py``'s
``WRAPPED`` table must resolve, and the calls ``bench/workloads.py`` makes
must keep working in the shapes it makes them."""

import importlib
import importlib.util
import os

import numpy as np
import pytest

import apscast as ap

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracing.py")


def _wrapped():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


@pytest.mark.parametrize("module, attr, span", _wrapped())
def test_wrapped_attribute_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr)), span


def test_workload_call_shapes(tmp_path):
    """``build_operator``, ``convert_stream``, ``cli_convert`` and
    ``cli_probes`` in ``bench/workloads.py``."""
    fs = ap.build_function_set(ap.UlaConfig.reference(4), ap.SupportSet([[0.0, 1.0]]))
    gs = ap.build_gram_system(fs)
    op = ap.build_conversion_operator(gs)
    rep = ap.compute_bounds(gs, 1.0, op=op)
    assert rep.bounds_pv0.shape == (8,)
    assert np.all(np.isfinite(op.A))
    probe = str(tmp_path / "probe.json")
    ap.export_operator(probe, op, G=gs.G)
    assert np.array_equal(ap.load_operator(probe).A, op.A)
    cov = ap.HermitianToeplitzCov.from_r_vector(np.r_[1.0, np.zeros(7)])
    assert isinstance(ap.convert(op, cov), ap.HermitianToeplitzCov)
