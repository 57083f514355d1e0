"""Command-line front end.

Subcommands:
  bounds          per-entry residuals and certified bounds as CSV
  fig1            bounds with/without support information (fig1.csv)
  fig2            realized errors for the two-path spectrum (fig2.csv)
  fig3            spectrum estimates on a grid (fig3.csv)
  convert         convert one covariance file uplink -> downlink
  export-operator persist the conversion operator A and its metadata as JSON

Configuration is a strict JSON document; unknown keys and values of the
wrong kind are rejected.  All numeric defaults mirror the reference
30-antenna array.  Exit codes: 0 success, 1 validation/contract error,
2 numerical-consistency error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import operator
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ContractError, NumericalConsistencyError
from .records import (
    SupportSet,
    UlaConfig,
    config_to_dict,
    diagonal_error,
    dimension_error,
    float64_values,
    json_floats,
    json_number,
    json_object,
    load_strict_json,
    read_operator_file,
    spec_from_dict,
    support_from_list,
)

# Only ``records`` loads with this module, and it imports no numpy, so
# ``convert --operator`` never imports numpy, the apply layer, the build
# (array_model, hilbert_space, numerics, conversion, bounds_analysis) or
# experiments; the handlers that need them import them.
if TYPE_CHECKING:
    from .apply import ConversionOperator
    from .experiments import ApsModel
    from .numerics import PinvSpec, QuadratureSpec

__all__ = ["main", "RunConfig"]


@dataclass(frozen=True)
class RunConfig:
    """One run's configuration; its fields are the config file's keys."""

    array: UlaConfig
    support: SupportSet | None
    B: float
    quad: QuadratureSpec
    pinv: PinvSpec
    aps: ApsModel
    grid_points: int

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        """Read a config document; every key is optional and checked."""
        from .experiments import ApsModel, ApsPeak, two_path_model
        from .numerics import PinvSpec, QuadratureSpec

        json_object(doc, {f.name for f in dataclasses.fields(cls)}, "config")
        B = json_number(doc.get("B", 1.0), float, "config.B")
        if B <= 0.0:
            raise ContractError(f"config.B must be positive, got {B}")
        grid_points = json_number(doc.get("grid_points", 1024), int, "config.grid_points")
        if grid_points < 3:
            raise ContractError("config.grid_points must be >= 3")
        quad = spec_from_dict(QuadratureSpec, doc.get("quad", {}), "config.quad",
                              QuadratureSpec())
        aps_doc = json_object(doc.get("aps", {}), {"peaks", "normalization"}, "config.aps")
        peaks = two_path_model().peaks
        if "peaks" in aps_doc:
            if not isinstance(aps_doc["peaks"], list):
                raise ContractError("config.aps.peaks must be a list of peak objects")
            peaks = tuple(spec_from_dict(ApsPeak, p, f"config.aps.peaks[{i}]")
                          for i, p in enumerate(aps_doc["peaks"]))
        return cls(
            array=spec_from_dict(UlaConfig, doc.get("array", {}), "config.array",
                                 UlaConfig.reference()),
            support=support_from_list(doc.get("support", []), "config.support"),
            B=B,
            quad=quad,
            pinv=spec_from_dict(PinvSpec, doc.get("pinv", {}), "config.pinv", PinvSpec()),
            aps=ApsModel(peaks=peaks, quad=quad,
                         normalization=aps_doc.get("normalization", "unit_norm")),
            grid_points=grid_points,
        )

    def to_dict(self) -> dict:
        """The config document ``from_dict`` reads back to this config."""
        return config_to_dict(
            self.array, self.support, B=self.B, quad=self.quad, pinv=self.pinv,
            aps={"peaks": [dataclasses.asdict(p) for p in self.aps.peaks],
                 "normalization": self.aps.normalization},
            grid_points=self.grid_points,
        )


def _load_config(args: argparse.Namespace) -> RunConfig:
    doc = load_strict_json(args.config, "config file") if args.config else {}
    cfg = RunConfig.from_dict(doc)
    if getattr(args, "support", None):
        vals = args.support
        if len(vals) % 2 != 0:
            raise ContractError("--support takes an even number of values (a b pairs)")
        pairs = [[vals[i], vals[i + 1]] for i in range(0, len(vals), 2)]
        cfg = dataclasses.replace(cfg, support=SupportSet(pairs))
    return cfg


def _build_operator(cfg: RunConfig) -> ConversionOperator:
    from .array_model import build_function_set
    from .conversion import build_conversion_operator, build_gram_system

    fs = build_function_set(cfg.array, cfg.support)
    return build_conversion_operator(build_gram_system(fs, cfg.pinv))


def _out_path(args: argparse.Namespace, default_name: str) -> str:
    out = args.output or "."
    if os.path.isdir(out) or out.endswith(os.sep) or "." not in os.path.basename(out):
        os.makedirs(out, exist_ok=True)
        return os.path.join(out, default_name)
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    return out


def _read_covariance(path: str) -> tuple[list[float], list[float]]:
    """The real and imaginary parts of the first column in the covariance
    file ``path``, after checking that they are ``n >= 1`` finite numbers
    each and that the diagonal entry is real."""
    doc = json_object(load_strict_json(path, "covariance file"),
                      {"n", "first_col_re", "first_col_im"}, f"covariance file {path}")
    try:
        n = json_number(doc["n"], int, f"covariance file {path}: n")
        if n < 1:
            raise ContractError(f"covariance file {path}: n must be >= 1, got {n}")
        re, im = (json_floats(doc[key], (n,), f"covariance file {path}: {key}")
                  for key in ("first_col_re", "first_col_im"))
    except KeyError as exc:
        raise ContractError(f"malformed covariance file {path}: {exc}") from exc
    if im[0] != 0.0:
        raise diagonal_error(im[0])
    return re, im


def _write_covariance(path: str, re: list[float], im: list[float]) -> None:
    doc = {"n": len(re), "first_col_re": re, "first_col_im": im}
    try:
        text = json.dumps(doc, allow_nan=False)
    except ValueError as exc:
        raise NumericalConsistencyError(f"converted covariance is not finite: {exc}") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _convert_with_file(path: str, re: list[float],
                       im: list[float]) -> tuple[list[float], list[float]]:
    """``apply.convert`` with the operator file ``path``, in plain Python.

    A cold process would spend most of its time importing numpy for one
    2N x 2N product, so each output entry is a Python sum over a row of
    ``A``.  It agrees with ``apply.convert`` to within rounding (see there),
    not bit for bit, and makes the same checks."""
    rec = read_operator_file(path)
    n = len(re)
    if n != rec.n:
        raise dimension_error(n, rec.n)
    r, m = re + im, 2 * n
    rows = memoryview(float64_values(rec.A))
    out = [sum(map(operator.mul, rows[i:i + m], r)) for i in range(0, m * m, m)]
    if out[n] != 0.0:
        raise diagonal_error(out[n])
    return out[:n], out[n:]


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_bounds(args: argparse.Namespace) -> int:
    from .array_model import build_function_set
    from .bounds_analysis import compute_bounds, write_bounds_csv
    from .conversion import build_gram_system
    from .experiments import write_metadata

    cfg = _load_config(args)
    fs = build_function_set(cfg.array, cfg.support)
    gs = build_gram_system(fs, cfg.pinv)
    report = compute_bounds(gs, cfg.B)
    path = _out_path(args, "bounds.csv")
    write_bounds_csv(path, report)
    meta = cfg.to_dict() | {"gram_rank": gs.rank, "L": gs.L,
                            "config_hash": report.config_hash}
    write_metadata(os.path.splitext(path)[0] + "_meta.json", meta)
    print(f"wrote {path} ({report.residuals.size} entries, Gram rank {gs.rank}/{gs.L})")
    return 0


def _cmd_fig1(args: argparse.Namespace) -> int:
    from .experiments import run_fig1, write_fig1_csv, write_metadata

    cfg = _load_config(args)
    result = run_fig1(cfg.array, cfg.support, cfg.B, cfg.pinv)
    path = _out_path(args, "fig1.csv")
    write_fig1_csv(path, result)
    meta = cfg.to_dict() | {
        "gram_rank_no_si": result.report_no_si.rank,
        "gram_rank_si": result.report_si.rank,
    }
    write_metadata(os.path.splitext(path)[0] + "_meta.json", meta)
    print(f"wrote {path}")
    return 0


def _cmd_fig2(args: argparse.Namespace) -> int:
    from .experiments import run_fig2, write_fig2_csv, write_metadata

    cfg = _load_config(args)
    result = run_fig2(cfg.array, cfg.support, cfg.aps, cfg.B, cfg.quad, cfg.pinv)
    path = _out_path(args, "fig2.csv")
    write_fig2_csv(path, result)
    meta = cfg.to_dict() | {
        "max_err_no_si": float(result.errors_no_si.max()),
        "max_err_si": float(result.errors_si.max()),
        "leakage_norm": result.leakage_norm,
    }
    write_metadata(os.path.splitext(path)[0] + "_meta.json", meta)
    print(f"wrote {path} (max err {result.errors_no_si.max():.3e} -> "
          f"{result.errors_si.max():.3e} with support information)")
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    from .experiments import run_fig3, write_fig3_csv, write_metadata

    cfg = _load_config(args)
    result = run_fig3(cfg.array, cfg.support, cfg.aps, cfg.grid_points,
                      cfg.quad, cfg.pinv)
    path = _out_path(args, "fig3.csv")
    write_fig3_csv(path, result)
    meta = cfg.to_dict() | {
        "max_constraint_error_no_si": float(result.constraint_errors_no_si.max()),
        "max_constraint_error_si": float(result.constraint_errors_si.max()),
    }
    write_metadata(os.path.splitext(path)[0] + "_meta.json", meta)
    print(f"wrote {path}")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    if args.operator:
        for option in ("config", "support"):
            if getattr(args, option) is not None:
                raise ContractError(f"--{option} cannot be used with --operator: "
                                    "the operator file fixes the array and the support")
    re, im = _read_covariance(args.input)
    if args.operator:
        re, im = _convert_with_file(args.operator, re, im)
    else:
        from .apply import HermitianToeplitzCov, convert

        op = _build_operator(_load_config(args))
        col = convert(op, HermitianToeplitzCov(list(map(complex, re, im)))).first_col
        re, im = col.real.tolist(), col.imag.tolist()
    path = _out_path(args, "converted.json")
    _write_covariance(path, re, im)
    print(f"wrote {path}")
    return 0


def _cmd_export_operator(args: argparse.Namespace) -> int:
    from .apply import export_operator

    op = _build_operator(_load_config(args))
    path = _out_path(args, "operator.json")
    export_operator(path, op)
    print(f"wrote {path} (A is {op.A.shape[0]}x{op.A.shape[1]}, rank {op.rank})")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apscast",
        description="Uplink-downlink covariance conversion with certified "
                    "per-entry error bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--support", type=float, nargs="*",
                       help="support intervals as flat a b pairs (radians), "
                            "overrides the config file")
        p.add_argument("--output", "-o", help="output file or directory")

    for name, handler, blurb in [
        ("bounds", _cmd_bounds, "write the per-entry bound report as CSV"),
        ("fig1", _cmd_fig1, "bounds with/without support information"),
        ("fig2", _cmd_fig2, "realized conversion errors for the two-path spectrum"),
        ("fig3", _cmd_fig3, "spectrum estimates on a uniform grid"),
        ("export-operator", _cmd_export_operator, "persist the conversion operator"),
    ]:
        p = sub.add_parser(name, help=blurb)
        common(p)
        p.set_defaults(handler=handler)

    p = sub.add_parser("convert", help="convert a covariance file uplink -> downlink")
    common(p)
    p.add_argument("--input", required=True, help="input covariance JSON")
    p.add_argument("--operator", help="use a previously exported operator JSON")
    p.set_defaults(handler=_cmd_convert)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except NumericalConsistencyError as exc:
        print(f"numerical-consistency error: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
