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
30-antenna array.  Exit codes: 0 success, 1 usage/validation/contract error
or an output path that cannot be written, 2 numerical-consistency error.

This module holds the parser, ``main`` and ``convert``, whose product is
a plain-Python sum over each row of ``A`` for a stored operator and for
one built from ``--config`` alike.  The subcommands that build an
operator, the build of ``convert --config`` and ``RunConfig`` live in
``commands``, which loads on first use.  Besides ``errors`` only
``documents`` loads with this module, and it needs the standard library
alone, so a ``convert --operator`` process never imports numpy,
``dataclasses``, ``typing``, ``records``, the apply layer, the build or
the experiments.  Every cold process compiles the source of the modules
it loads when bytecode is not written, so this path is kept small.
"""

import argparse
import json
import operator
import os
import sys

from .documents import (
    diagonal_error,
    dimension_error,
    float64_values,
    json_floats,
    json_number,
    json_object,
    load_strict_json,
    read_operator_file,
)
from .errors import ContractError, NumericalConsistencyError

__all__ = ["main"]


def _out_path(args: argparse.Namespace, default_name: str) -> str:
    """The file to write: ``--output``, or ``default_name`` inside it when it
    names a directory.  Missing directories are made; a directory that
    cannot be made is a ContractError that names the output path."""
    out = args.output or "."
    is_dir = os.path.isdir(out) or out.endswith(os.sep) or "." not in os.path.basename(out)
    try:
        os.makedirs(out if is_dir else os.path.dirname(out) or ".", exist_ok=True)
    except OSError as exc:
        raise ContractError(f"output path {out}: cannot create directory "
                            f"{exc.filename}: {exc.strerror}") from exc
    return os.path.join(out, default_name) if is_dir else out


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
        re, im = (json_floats(doc[key], n, f"covariance file {path}: {key}")
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


def _convert(A, op_n: int, re: list[float],
             im: list[float]) -> tuple[list[float], list[float]]:
    """``apply.convert`` in plain Python, for the operator of ``op_n``
    antennas whose ``A`` holds the row-major values (a sequence of floats).

    A cold process would spend most of its time importing numpy for one
    2N x 2N product, so each output entry is a Python sum over a row of
    ``A``.  It agrees with ``apply.convert`` to within rounding (see there),
    not bit for bit, and makes the same checks."""
    n = len(re)
    if n != op_n:
        raise dimension_error(n, op_n)
    r, m = re + im, 2 * n
    out = [sum(map(operator.mul, A[i:i + m], r)) for i in range(0, m * m, m)]
    if out[n] != 0.0:
        raise diagonal_error(out[n])
    return out[:n], out[n:]


def _cmd_convert(args: argparse.Namespace) -> int:
    if args.operator:
        for option in ("config", "support"):
            if getattr(args, option) is not None:
                raise ContractError(f"--{option} cannot be used with --operator: "
                                    "the operator file fixes the array and the support")
    re, im = _read_covariance(args.input)
    if args.operator:
        rec = read_operator_file(args.operator)
        re, im = _convert(memoryview(float64_values(rec.A)), rec.n, re, im)
    else:
        from .commands import _build_operator, _load_config

        op = _build_operator(_load_config(args))
        re, im = _convert(op.A.ravel().tolist(), op.n, re, im)
    path = _out_path(args, "converted.json")
    _write_covariance(path, re, im)
    print(f"wrote {path}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as other validation errors do (argparse's 2 is
    kept for numerical-consistency errors); subparsers inherit the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# Subcommands in the order of the help text, with their one-line help.
_COMMANDS = {
    "bounds": "write the per-entry bound report as CSV",
    "fig1": "bounds with/without support information",
    "fig2": "realized conversion errors for the two-path spectrum",
    "fig3": "spectrum estimates on a uniform grid",
    "export-operator": "persist the conversion operator",
    "convert": "convert a covariance file uplink -> downlink",
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``.  When ``argv[0]`` names a subcommand only its
    subparser is built (a cold process spends about half as long building
    one as all six), and the usage line still lists every subcommand.
    Otherwise (no command, an unknown one, ``--help``) all six are built.
    Every usage, help and error text is the same either way."""
    parser = _Parser(
        prog="apscast",
        description="Uplink-downlink covariance conversion with certified "
                    "per-entry error bounds.",
    )
    names = list(_COMMANDS)
    if argv and argv[0] in _COMMANDS:
        names = [argv[0]]
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(_COMMANDS) + "}")
    else:
        sub = parser.add_subparsers(dest="command", required=True)

    for name in names:
        p = sub.add_parser(name, help=_COMMANDS[name])
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--support", type=float, nargs="*",
                       help="support intervals as flat a b pairs (radians), "
                            "overrides the config file")
        p.add_argument("--output", "-o", help="output file or directory")
        if name == "convert":
            p.add_argument("--input", required=True, help="input covariance JSON")
            p.add_argument("--operator", help="use a previously exported operator JSON")
    return parser


def _handler(command: str):
    """The handler of ``command``; all but ``convert`` live in ``commands``."""
    if command == "convert":
        return _cmd_convert
    from .commands import HANDLERS

    return HANDLERS[command]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    try:
        return _handler(args.command)(args)
    except NumericalConsistencyError as exc:
        print(f"numerical-consistency error: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an output file that cannot be opened or written
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
