"""The benchmark's hold on the package: each path in ``bench/tracing.py``'s
``WRAPPED`` table must resolve, and the calls ``bench/workloads.py`` makes
must keep working in the shapes it makes them and load none of the
command-line modules."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

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


# The benchmark process's calls, run in a fresh interpreter.
WORKLOAD_CALLS = """
import json, sys
import numpy as np
import apscast as ap

fs = ap.build_function_set(ap.UlaConfig.reference(4), ap.SupportSet([[0.0, 1.0]]))
gs = ap.build_gram_system(fs)
op = ap.build_conversion_operator(gs)
ap.compute_bounds(gs, 1.0, op=op)
ap.convert(op, ap.HermitianToeplitzCov.from_r_vector(np.r_[1.0, np.zeros(7)]))
ap.export_operator(sys.argv[1], op, G=gs.G)
ap.load_operator(sys.argv[1])
assert issubclass(ap.ApscastError, Exception)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("apscast"))))
"""


def test_workload_calls_leave_the_cli_layers_unloaded(tmp_path):
    """The benchmark process never loads ``cli``, ``commands`` or
    ``experiments``, so an edit to them leaves its memory layout alone."""
    src = os.path.dirname(os.path.dirname(ap.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", WORKLOAD_CALLS, str(tmp_path / "probe.json")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True)
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert "apscast.conversion" in loaded
    assert loaded & {"apscast.cli", "apscast.commands", "apscast.experiments"} == set()
