"""The traced benchmark wraps package functions by module path; each path in
``bench/tracing.py``'s ``WRAPPED`` table must resolve."""

import importlib
import importlib.util
import os

import pytest

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
