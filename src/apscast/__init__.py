"""Uplink-downlink covariance conversion with certified per-entry error bounds.

Converts an uplink channel covariance matrix into a downlink estimate via
minimum-norm angular-power-spectrum estimation in L2([-pi/2, pi/2]), and
certifies every entry of the result with projection-residual error bounds.
Coarse support information about the spectrum enters as extra constraint
functions and shrinks the bounds.

Every public name loads its module on first use (PEP 562), so
``import apscast`` imports no submodule and a process that only applies a
stored operator never loads the build.
"""

__version__ = "1.0.0"

# Public name -> the submodule that defines it.
_HOME = {
    "ApscastError": "errors",
    "ContractError": "errors",
    "NumericalConsistencyError": "errors",
    "SupportSet": "records",
    "UlaConfig": "records",
    "ConversionOperator": "apply",
    "HermitianToeplitzCov": "apply",
    "convert": "apply",
    "export_operator": "apply",
    "load_operator": "apply",
    "PinvSpec": "numerics",
    "bessel_j0": "numerics",
    "integrate": "numerics",
    "pinv_psd": "numerics",
    "AngularFunction": "hilbert_space",
    "Trig": "hilbert_space",
    "inner_product": "hilbert_space",
    "mask": "hilbert_space",
    "FunctionSet": "array_model",
    "build_function_set": "array_model",
    "ApsEstimate": "conversion",
    "GramSystem": "conversion",
    "build_conversion_operator": "conversion",
    "build_gram_system": "conversion",
    "estimate_aps": "conversion",
    "BoundReport": "bounds_analysis",
    "compute_bounds": "bounds_analysis",
    "ApsModel": "experiments",
    "ApsPeak": "experiments",
    "OracleSpec": "experiments",
    "oracle_residuals": "experiments",
    "random_aps_model": "experiments",
    "run_fig1": "experiments",
    "run_fig2": "experiments",
    "run_fig3": "experiments",
    "synthesize_covariance": "experiments",
    "synthesize_r_vector": "experiments",
    "two_path_model": "experiments",
    "write_bounds_csv": "experiments",
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
