"""The subcommands that build an operator: ``bounds``, ``fig1``-``fig3``,
``export-operator`` and the config side of ``convert``.

Every handler loads the config, runs its build (``_gram_system`` is the
one Gram build) and ends in ``_emit``, so each build command writes its
file at ``--output``, ``<stem>_meta.json`` with the config echo plus the
command's keys (none for ``export-operator``, whose echo records the
``pinv`` cutoff the operator file does not) and one ``wrote`` line.
``bounds`` hashes its config into ``bounds_meta.json`` here; the
library's bound report carries no hash.
``cli`` imports this module on the first use of one of them, so a
``convert --operator`` process never compiles it.  This module loads the
build when it is imported: every handler reads the config, and reading
the config (its ``aps`` and ``pinv`` sections) already loads the build.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
from dataclasses import dataclass
from typing import Callable

from . import bounds_analysis
from .apply import ConversionOperator, export_operator
from .array_model import build_function_set
from .cli import _out_path
from .conversion import GramSystem, build_conversion_operator, build_gram_system
from .documents import json_number, json_object, load_strict_json
from .errors import ContractError
from .experiments import (ApsModel, ApsPeak, run_fig1, run_fig2, run_fig3, two_path_model,
                          write_bounds_csv, write_fig1_csv, write_fig2_csv, write_fig3_csv,
                          write_metadata)
from .numerics import PinvSpec
from .records import SupportSet, UlaConfig, config_to_dict, spec_from_dict, support_from_list

__all__ = ["RunConfig", "HANDLERS"]


@dataclass(frozen=True)
class RunConfig:
    """One run's configuration; its fields are the config file's keys."""

    array: UlaConfig
    support: SupportSet | None
    B: float
    pinv: PinvSpec
    aps: ApsModel
    grid_points: int

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        """Read a config document; every key is optional and checked."""
        json_object(doc, {f.name for f in dataclasses.fields(cls)}, "config")
        B = json_number(doc.get("B", 1.0), float, "config.B")
        if B <= 0.0:
            raise ContractError(f"config.B must be positive, got {B}")
        grid_points = json_number(doc.get("grid_points", 1024), int, "config.grid_points")
        if grid_points < 3:
            raise ContractError("config.grid_points must be >= 3")
        aps_doc = json_object(doc.get("aps", {}), {"peaks", "normalization"}, "config.aps")
        peaks = two_path_model().peaks
        if "peaks" in aps_doc:
            if not isinstance(aps_doc["peaks"], list):
                raise ContractError("config.aps.peaks must be a list of peak objects")
            peaks = tuple(spec_from_dict(ApsPeak, p, f"config.aps.peaks[{i}]")
                          for i, p in enumerate(aps_doc["peaks"]))
        try:
            aps = ApsModel(peaks=peaks, normalization=aps_doc.get("normalization", "unit_norm"))
        except ContractError as exc:
            raise ContractError(f"config.aps: {exc}") from exc
        return cls(
            array=spec_from_dict(UlaConfig, doc.get("array", {}), "config.array",
                                 UlaConfig.reference()),
            support=support_from_list(doc.get("support", []), "config.support"),
            B=B,
            pinv=spec_from_dict(PinvSpec, doc.get("pinv", {}), "config.pinv", PinvSpec()),
            aps=aps,
            grid_points=grid_points,
        )

    def to_dict(self) -> dict:
        """The config document ``from_dict`` reads back to this config."""
        return config_to_dict(
            self.array, self.support, B=self.B, pinv=self.pinv,
            aps={"peaks": [dataclasses.asdict(p) for p in self.aps.peaks],
                 "normalization": self.aps.normalization},
            grid_points=self.grid_points,
        )


def _load_config(args: argparse.Namespace) -> RunConfig:
    doc = load_strict_json(args.config, "config file") if args.config else {}
    cfg = RunConfig.from_dict(doc)
    if args.support is not None:  # an empty --support means no support information
        vals = args.support
        if len(vals) % 2 != 0:
            raise ContractError("--support takes an even number of values (a b pairs)")
        pairs = [[vals[i], vals[i + 1]] for i in range(0, len(vals), 2)]
        cfg = dataclasses.replace(cfg, support=SupportSet(pairs) if pairs else None)
    return cfg


def _gram_system(cfg: RunConfig) -> GramSystem:
    return build_gram_system(build_function_set(cfg.array, cfg.support), cfg.pinv)


def _build_operator(cfg: RunConfig) -> ConversionOperator:
    return build_conversion_operator(_gram_system(cfg))


def _emit(args: argparse.Namespace, cfg: RunConfig, name: str,
          write: Callable[[str], None], meta: dict, note: str = "") -> int:
    """The output step of every build command: ``write(path)``, ``cfg`` plus
    ``meta`` as ``<stem>_meta.json`` and the ``wrote`` line."""
    path = _out_path(args, name)
    write(path)
    write_metadata(os.path.splitext(path)[0] + "_meta.json", cfg.to_dict() | meta)
    print(f"wrote {path}{note}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    import hashlib  # imported on use: its OpenSSL load is ~5 ms no other command needs

    cfg = _load_config(args)
    gs = _gram_system(cfg)
    report = bounds_analysis.compute_bounds(gs, cfg.B)
    # The function set's support, not cfg's: a zero-measure set hashes as none.
    fs = gs.function_set
    payload = config_to_dict(fs.config, fs.support, B=cfg.B, pinv=gs.pinv)
    config_hash = hashlib.md5(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    return _emit(args, cfg, "bounds.csv",
                 lambda path: write_bounds_csv(path, report),
                 {"gram_rank": gs.rank, "L": gs.L, "config_hash": config_hash},
                 f" ({report.residuals.size} entries, Gram rank {gs.rank}/{gs.L})")


def _cmd_fig1(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    result = run_fig1(cfg.array, cfg.support, cfg.B, cfg.pinv)
    return _emit(args, cfg, "fig1.csv", lambda path: write_fig1_csv(path, result),
                 {"gram_rank_no_si": result.report_no_si.rank,
                  "gram_rank_si": result.report_si.rank})


def _cmd_fig2(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    result = run_fig2(cfg.array, cfg.support, cfg.aps, cfg.B, cfg.pinv)
    no_si, si = result.errors_no_si.max(), result.errors_si.max()
    return _emit(args, cfg, "fig2.csv", lambda path: write_fig2_csv(path, result),
                 {"max_err_no_si": float(no_si), "max_err_si": float(si),
                  "leakage_norm": result.leakage_norm},
                 f" (max err {no_si:.3e} -> {si:.3e} with support information)")


def _cmd_fig3(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    result = run_fig3(cfg.array, cfg.support, cfg.aps, cfg.grid_points, cfg.pinv)
    return _emit(args, cfg, "fig3.csv", lambda path: write_fig3_csv(path, result),
                 {"max_constraint_error_no_si": float(result.constraint_errors_no_si.max()),
                  "max_constraint_error_si": float(result.constraint_errors_si.max())})


def _cmd_export_operator(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    op = _build_operator(cfg)
    return _emit(args, cfg, "operator.json", lambda path: export_operator(path, op), {},
                 note=f" (A is {op.A.shape[0]}x{op.A.shape[1]}, rank {op.rank})")


# Subcommand name -> handler; ``cli`` handles ``convert`` itself.
HANDLERS = {
    "bounds": _cmd_bounds,
    "fig1": _cmd_fig1,
    "fig2": _cmd_fig2,
    "fig3": _cmd_fig3,
    "export-operator": _cmd_export_operator,
}
