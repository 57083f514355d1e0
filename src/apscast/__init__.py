"""Uplink-downlink covariance conversion with certified per-entry error bounds.

Converts an uplink channel covariance matrix into a downlink estimate via
minimum-norm angular-power-spectrum estimation in L2([-pi/2, pi/2]), and
certifies every entry of the result with projection-residual error bounds.
Coarse support information about the spectrum enters as extra constraint
functions and shrinks the bounds."""

from .array_model import FunctionSet, UlaConfig, build_function_set, steering_vector
from .bounds_analysis import (
    BoundReport,
    PerEntryBound,
    bound_tightened_by_support,
    compute_bounds,
    write_bounds_csv,
)
from .conversion import (
    ApsEstimate,
    ConversionOperator,
    GramSystem,
    HermitianToeplitzCov,
    build_conversion_operator,
    build_gram_system,
    convert,
    estimate_aps,
    export_operator,
    load_operator,
)
from .errors import ApscastError, ContractError, NumericalConsistencyError
from .experiments import (
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
)
from .hilbert_space import (
    AngularFunction,
    GridFunction,
    SupportSet,
    Trig,
    inner_product,
    mask,
)
from .numerics import PinvSpec, QuadratureSpec, bessel_j0, integrate, pinv_psd

__version__ = "1.0.0"

__all__ = [
    "AngularFunction",
    "ApsEstimate",
    "ApsModel",
    "ApsPeak",
    "ApscastError",
    "BoundReport",
    "ContractError",
    "ConversionOperator",
    "FunctionSet",
    "GramSystem",
    "GridFunction",
    "HermitianToeplitzCov",
    "NumericalConsistencyError",
    "OracleSpec",
    "PerEntryBound",
    "PinvSpec",
    "QuadratureSpec",
    "SupportSet",
    "Trig",
    "UlaConfig",
    "bessel_j0",
    "bound_tightened_by_support",
    "build_conversion_operator",
    "build_function_set",
    "build_gram_system",
    "compute_bounds",
    "convert",
    "estimate_aps",
    "export_operator",
    "inner_product",
    "integrate",
    "load_operator",
    "mask",
    "oracle_residual",
    "pinv_psd",
    "random_aps_model",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "steering_vector",
    "synthesize_covariance",
    "synthesize_r_vector",
    "two_path_model",
    "write_bounds_csv",
]
