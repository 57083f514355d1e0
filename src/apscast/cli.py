"""Command-line front end.

Subcommands:
  bounds          per-entry residuals and certified bounds as CSV
  fig1            bounds with/without support information (fig1.csv)
  fig2            realized errors for the two-path spectrum (fig2.csv)
  fig3            spectrum estimates on a grid (fig3.csv)
  convert         convert one covariance file uplink -> downlink
  export-operator persist the conversion operator A and its metadata as JSON

Configuration is a strict JSON document; unknown keys are rejected.  All
numeric defaults mirror the reference 30-antenna array.  Exit codes:
0 success, 1 validation/contract error, 2 numerical-consistency error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .array_model import UlaConfig, build_function_set
from .bounds_analysis import compute_bounds, write_bounds_csv
from .conversion import (
    HermitianToeplitzCov,
    build_conversion_operator,
    build_gram_system,
    convert,
    export_operator,
    load_operator,
    load_strict_json,
)
from .errors import ContractError, NumericalConsistencyError
from .hilbert_space import SupportSet
from .numerics import PinvSpec, QuadratureSpec

# experiments (figure drivers, spectrum synthesis) is imported inside the
# functions that use it, so that ``convert --operator`` never loads it.
if TYPE_CHECKING:
    from .experiments import ApsModel

__all__ = ["main", "RunConfig"]

_ARRAY_KEYS = {"n_antennas", "spacing", "f_up", "f_down", "wave_speed"}
_QUAD_KEYS = {"panel_order", "abs_tol", "rel_tol", "max_subdivisions"}
_PINV_KEYS = {"rel_cutoff"}
_APS_KEYS = {"peaks", "normalization"}
_PEAK_KEYS = {"center", "scale", "weight"}
_TOP_KEYS = {"array", "support", "B", "quad", "pinv", "aps", "seed", "grid_points"}


def _reject_unknown(d: dict, allowed: set, where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ContractError(f"unknown keys in {where}: {sorted(unknown)}")


@dataclass(frozen=True)
class RunConfig:
    array: UlaConfig
    support: SupportSet | None
    B: float
    quad: QuadratureSpec
    pinv: PinvSpec
    aps: ApsModel
    seed: int
    grid_points: int

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        from .experiments import ApsModel, ApsPeak, two_path_model

        _reject_unknown(doc, _TOP_KEYS, "config")

        array_doc = doc.get("array", {})
        _reject_unknown(array_doc, _ARRAY_KEYS, "config.array")
        defaults = UlaConfig.reference()
        array = UlaConfig(
            n_antennas=int(array_doc.get("n_antennas", defaults.n_antennas)),
            spacing=float(array_doc.get("spacing", defaults.spacing)),
            f_up=float(array_doc.get("f_up", defaults.f_up)),
            f_down=float(array_doc.get("f_down", defaults.f_down)),
            wave_speed=float(array_doc.get("wave_speed", defaults.wave_speed)),
        )

        support = None
        if "support" in doc and doc["support"]:
            ivs = doc["support"]
            if not (isinstance(ivs, list) and
                    all(isinstance(p, list) and len(p) == 2 for p in ivs)):
                raise ContractError("config.support must be a list of [a, b] pairs")
            support = SupportSet(ivs)

        quad_doc = doc.get("quad", {})
        _reject_unknown(quad_doc, _QUAD_KEYS, "config.quad")
        quad = QuadratureSpec(**{k: quad_doc[k] for k in quad_doc})

        pinv_doc = doc.get("pinv", {})
        _reject_unknown(pinv_doc, _PINV_KEYS, "config.pinv")
        pinv = PinvSpec(**{k: pinv_doc[k] for k in pinv_doc})

        if "aps" in doc:
            aps_doc = doc["aps"]
            _reject_unknown(aps_doc, _APS_KEYS, "config.aps")
            peaks = []
            for p in aps_doc.get("peaks", []):
                _reject_unknown(p, _PEAK_KEYS, "config.aps.peaks[]")
                peaks.append(ApsPeak(**p))
            aps = ApsModel(
                peaks=tuple(peaks),
                normalization=aps_doc.get("normalization", "unit_norm"),
                quad=quad,
            )
        else:
            aps = two_path_model()

        B = float(doc.get("B", 1.0))
        if B <= 0.0:
            raise ContractError(f"B must be positive, got {B}")
        grid_points = int(doc.get("grid_points", 1024))
        if grid_points < 3:
            raise ContractError("grid_points must be >= 3")
        return cls(
            array=array,
            support=support,
            B=B,
            quad=quad,
            pinv=pinv,
            aps=aps,
            seed=int(doc.get("seed", 0)),
            grid_points=grid_points,
        )

    def metadata(self) -> dict:
        return {
            "array": {
                "n_antennas": self.array.n_antennas,
                "spacing": self.array.spacing,
                "f_up": self.array.f_up,
                "f_down": self.array.f_down,
                "wave_speed": self.array.wave_speed,
            },
            "support": [list(iv) for iv in self.support.intervals] if self.support else [],
            "B": self.B,
            "quad": {
                "panel_order": self.quad.panel_order,
                "abs_tol": self.quad.abs_tol,
                "rel_tol": self.quad.rel_tol,
                "max_subdivisions": self.quad.max_subdivisions,
            },
            "pinv": {"rel_cutoff": self.pinv.rel_cutoff},
            "seed": self.seed,
        }


def _load_config(args: argparse.Namespace) -> RunConfig:
    doc = load_strict_json(args.config, "config file") if args.config else {}
    cfg = RunConfig.from_dict(doc)
    if getattr(args, "support", None):
        vals = args.support
        if len(vals) % 2 != 0:
            raise ContractError("--support takes an even number of values (a b pairs)")
        pairs = [[vals[i], vals[i + 1]] for i in range(0, len(vals), 2)]
        cfg = RunConfig(
            array=cfg.array, support=SupportSet(pairs), B=cfg.B, quad=cfg.quad,
            pinv=cfg.pinv, aps=cfg.aps, seed=cfg.seed, grid_points=cfg.grid_points,
        )
    return cfg


def _out_path(args: argparse.Namespace, default_name: str) -> str:
    out = args.output or "."
    if os.path.isdir(out) or out.endswith(os.sep) or "." not in os.path.basename(out):
        os.makedirs(out, exist_ok=True)
        return os.path.join(out, default_name)
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    return out


def _read_covariance(path: str) -> HermitianToeplitzCov:
    doc = load_strict_json(path, "covariance file")
    _reject_unknown(doc, {"n", "first_col_re", "first_col_im"}, "covariance file")
    try:
        n = int(doc["n"])
        re = np.asarray(doc["first_col_re"], dtype=float)
        im = np.asarray(doc["first_col_im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ContractError(f"malformed covariance file {path}: {exc}") from exc
    if re.shape != (n,) or im.shape != (n,):
        raise ContractError(
            f"covariance file {path}: first_col_re/first_col_im must have length n={n}"
        )
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise ContractError(f"covariance file {path}: entries must be finite")
    return HermitianToeplitzCov(re + 1j * im)


def _write_covariance(path: str, cov: HermitianToeplitzCov) -> None:
    doc = {
        "n": cov.n,
        "first_col_re": cov.first_col.real.tolist(),
        "first_col_im": cov.first_col.imag.tolist(),
    }
    try:
        text = json.dumps(doc, allow_nan=False)
    except ValueError as exc:
        raise NumericalConsistencyError(f"converted covariance is not finite: {exc}") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_bounds(args: argparse.Namespace) -> int:
    from .experiments import write_metadata

    cfg = _load_config(args)
    fs = build_function_set(cfg.array, cfg.support)
    gs = build_gram_system(fs, cfg.quad, cfg.pinv)
    report = compute_bounds(gs, cfg.B)
    path = _out_path(args, "bounds.csv")
    write_bounds_csv(path, report)
    meta = cfg.metadata() | {"gram_rank": gs.rank, "L": gs.L,
                             "config_hash": report.config_hash}
    write_metadata(os.path.splitext(path)[0] + "_meta.json", meta)
    print(f"wrote {path} ({len(report.per_k)} entries, Gram rank {gs.rank}/{gs.L})")
    return 0


def _cmd_fig1(args: argparse.Namespace) -> int:
    from .experiments import run_fig1, write_fig1_csv, write_metadata

    cfg = _load_config(args)
    result = run_fig1(cfg.array, cfg.support, cfg.B, cfg.quad, cfg.pinv)
    path = _out_path(args, "fig1.csv")
    write_fig1_csv(path, result)
    meta = cfg.metadata() | {
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
    meta = cfg.metadata() | {
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
    meta = cfg.metadata() | {
        "grid_points": cfg.grid_points,
        "max_constraint_error_no_si": float(result.constraint_errors_no_si.max()),
        "max_constraint_error_si": float(result.constraint_errors_si.max()),
    }
    write_metadata(os.path.splitext(path)[0] + "_meta.json", meta)
    print(f"wrote {path}")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    cov = _read_covariance(args.input)
    if args.operator:
        op = load_operator(args.operator)
    else:
        cfg = _load_config(args)
        fs = build_function_set(cfg.array, cfg.support)
        gs = build_gram_system(fs, cfg.quad, cfg.pinv)
        op = build_conversion_operator(gs)
    out = convert(op, cov)
    path = _out_path(args, "converted.json")
    _write_covariance(path, out)
    print(f"wrote {path}")
    return 0


def _cmd_export_operator(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    fs = build_function_set(cfg.array, cfg.support)
    gs = build_gram_system(fs, cfg.quad, cfg.pinv)
    op = build_conversion_operator(gs)
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
