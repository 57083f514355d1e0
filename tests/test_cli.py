import base64
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import apscast
from apscast.cli import main
from apscast.commands import RunConfig
from apscast.errors import ContractError, NumericalConsistencyError

HALF_PI = math.pi / 2


@pytest.fixture()
def small_config_file(tmp_path):
    doc = {
        "array": {"n_antennas": 4, "spacing": 0.0875, "f_up": 1.8e9,
                  "f_down": 1.9e9, "wave_speed": 3.0e8},
        "support": [[0.0, HALF_PI]],
        "B": 1.0,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def recip_config_file(tmp_path):
    doc = {
        "array": {"n_antennas": 4, "spacing": 0.0875, "f_up": 1.8e9,
                  "f_down": 1.8e9, "wave_speed": 3.0e8},
    }
    path = tmp_path / "recip.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _export_operator(tmp_path, n: int) -> str:
    """Path of the operator file ``export-operator`` writes for an
    n-antenna array with equal uplink and downlink frequencies."""
    config = tmp_path / f"op_config_{n}.json"
    config.write_text(json.dumps({"array": {"n_antennas": n, "f_down": 1.8e9}}))
    path = tmp_path / f"op_{n}.json"
    assert main(["export-operator", "--config", str(config), "-o", str(path)]) == 0
    return str(path)


EVERY_KEY = {
    "array": {"n_antennas": 6, "spacing": 0.09, "f_up": 1.8e9, "f_down": 1.95e9,
              "wave_speed": 3.0e8},
    "support": [[-0.5, 0.25], [0.5, HALF_PI]],
    "B": 2.5,
    "pinv": {"rel_cutoff": 1e-7},
    "aps": {"peaks": [{"center": 0.3, "scale": 0.1, "weight": 2.0}],
            "normalization": "raw"},
    "grid_points": 65,
}


class TestRunConfig:
    def test_defaults_mirror_reference_array(self):
        cfg = RunConfig.from_dict({})
        assert cfg.array.n_antennas == 30
        assert cfg.array.spacing_up == pytest.approx(0.525)
        assert cfg.B == 1.0
        assert cfg.support is None
        assert cfg.pinv.rel_cutoff == 1e-5

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ContractError):
            RunConfig.from_dict({"bogus": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ContractError):
            RunConfig.from_dict({"array": {"antennas": 4}})
        with pytest.raises(ContractError, match="quad"):
            RunConfig.from_dict({"quad": {"panel_order": 16}})

    def test_support_shape_validated(self):
        with pytest.raises(ContractError):
            RunConfig.from_dict({"support": [[0.0, 0.5, 1.0]]})

    def test_overrides(self):
        cfg = RunConfig.from_dict({
            "array": {"n_antennas": 6},
            "pinv": {"rel_cutoff": 1e-7},
            "B": 2.5,
        })
        assert cfg.array.n_antennas == 6
        assert cfg.pinv.rel_cutoff == 1e-7
        assert cfg.B == 2.5

    def test_integral_float_reads_as_int(self):
        cfg = RunConfig.from_dict({"array": {"n_antennas": 6.0}, "grid_points": 65.0})
        assert type(cfg.array.n_antennas) is int and cfg.array.n_antennas == 6
        assert type(cfg.grid_points) is int and cfg.grid_points == 65

    @pytest.mark.parametrize("doc", [{}, EVERY_KEY], ids=["empty", "every-key"])
    def test_round_trip(self, doc):
        """The writer's document is strict JSON, names every key, and reads
        back to the same config."""
        cfg = RunConfig.from_dict(doc)
        written = json.loads(json.dumps(cfg.to_dict(), allow_nan=False))
        assert set(written) == {f.name for f in dataclasses.fields(RunConfig)}
        assert RunConfig.from_dict(written) == cfg
        if doc:
            assert written == doc


class TestCommands:
    def test_empty_support_flag_means_no_support(self, tmp_path, capsys):
        """``--support`` with no values overrides the config's support with
        none, as ``"support": []`` does."""
        config = tmp_path / "si.json"
        config.write_text(json.dumps({"support": [[0.0, HALF_PI]]}))
        for extra, rank in (([], "74/120"), (["--support"], "59/60")):
            out = tmp_path / f"out{len(extra)}"
            assert main(["bounds", "--config", str(config), *extra, "-o", str(out)]) == 0
            assert f"Gram rank {rank}" in capsys.readouterr().out
        assert json.loads((out / "bounds_meta.json").read_text())["support"] == []

    def test_bounds_with_defaults_only(self, tmp_path):
        """No config file at all: the reference 30-antenna array is used."""
        out = tmp_path / "default"
        code = main(["bounds", "-o", str(out),
                     "--support", "0", str(HALF_PI)])
        assert code == 0
        with open(out / "bounds.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 60

    def test_bounds_writes_csv(self, tmp_path, small_config_file, capsys):
        out = tmp_path / "outdir"
        code = main(["bounds", "--config", small_config_file, "-o", str(out)])
        assert code == 0
        with open(out / "bounds.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert (out / "bounds_meta.json").exists()

    def test_support_flag_overrides_config(self, tmp_path, small_config_file):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["bounds", "--config", small_config_file, "-o", str(out1)]) == 0
        assert main(["bounds", "--config", small_config_file, "-o", str(out2),
                     "--support", "0", str(HALF_PI)]) == 0
        # same support either way -> identical bytes
        assert (out1 / "bounds.csv").read_bytes() == (out2 / "bounds.csv").read_bytes()

    def test_fig_commands(self, tmp_path, small_config_file):
        out = tmp_path / "figs"
        for name in ("fig1", "fig2", "fig3"):
            assert main([name, "--config", small_config_file, "-o", str(out)]) == 0
            assert (out / f"{name}.csv").exists()
            meta = json.loads((out / f"{name}_meta.json").read_text())
            assert meta["array"]["n_antennas"] == 4

    def test_meta_reads_back_as_config(self, tmp_path, small_config_file):
        """The config part of ``_meta.json`` passed back as ``--config``
        reproduces the run byte for byte."""
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["fig1", "--config", small_config_file, "-o", str(first)]) == 0
        meta = json.loads((first / "fig1_meta.json").read_text())
        keys = {f.name for f in dataclasses.fields(RunConfig)}
        assert keys <= set(meta)
        echoed = tmp_path / "echoed.json"
        echoed.write_text(json.dumps({k: meta[k] for k in keys}))
        assert main(["fig1", "--config", str(echoed), "-o", str(second)]) == 0
        for name in ("fig1.csv", "fig1_meta.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_determinism_byte_identical(self, tmp_path, small_config_file):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["fig1", "--config", small_config_file, "-o", str(out)]) == 0
        assert (out1 / "fig1.csv").read_bytes() == (out2 / "fig1.csv").read_bytes()
        assert (out1 / "fig1_meta.json").read_bytes() == \
            (out2 / "fig1_meta.json").read_bytes()

    def test_convert_identity_when_frequencies_match(self, tmp_path, recip_config_file):
        cov = {
            "n": 4,
            "first_col_re": [2.0, 0.3, -0.1, 0.05],
            "first_col_im": [0.0, 0.2, 0.1, -0.04],
        }
        inp = tmp_path / "cov.json"
        inp.write_text(json.dumps(cov))
        out = tmp_path / "converted.json"
        code = main(["convert", "--config", recip_config_file,
                     "--input", str(inp), "-o", str(out)])
        assert code == 0
        got = json.loads(out.read_text())
        # the input covariance may not be achievable by any spectrum, so the
        # conversion projects it; compare against an achievable one instead
        assert got["n"] == 4

    def test_convert_round_trip_achievable(self, tmp_path, recip_config_file):
        from apscast import (
            SupportSet, UlaConfig, build_function_set, random_aps_model,
            synthesize_covariance,
        )
        cfg = UlaConfig(n_antennas=4, spacing=0.0875, f_up=1.8e9, f_down=1.8e9,
                        wave_speed=3.0e8)
        fs = build_function_set(cfg)
        rng = np.random.default_rng(5)
        cov = synthesize_covariance(random_aps_model(rng, SupportSet.full()), fs)
        inp = tmp_path / "cov.json"
        inp.write_text(json.dumps({
            "n": 4,
            "first_col_re": cov.first_col.real.tolist(),
            "first_col_im": cov.first_col.imag.tolist(),
        }))
        out = tmp_path / "converted.json"
        assert main(["convert", "--config", recip_config_file,
                     "--input", str(inp), "-o", str(out)]) == 0
        got = json.loads(out.read_text())
        np.testing.assert_allclose(got["first_col_re"], cov.first_col.real, atol=1e-6)
        np.testing.assert_allclose(got["first_col_im"], cov.first_col.imag, atol=1e-6)

    def test_export_then_convert_matches_in_process(self, tmp_path, small_config_file):
        from apscast import (
            SupportSet, UlaConfig, build_conversion_operator, build_function_set,
            build_gram_system, convert, random_aps_model, synthesize_covariance,
        )
        op_path = tmp_path / "op.json"
        assert main(["export-operator", "--config", small_config_file,
                     "-o", str(op_path)]) == 0

        cfg = UlaConfig(n_antennas=4, spacing=0.0875, f_up=1.8e9, f_down=1.9e9,
                        wave_speed=3.0e8)
        c_s = SupportSet([[0.0, HALF_PI]])
        fs = build_function_set(cfg, c_s)
        rng = np.random.default_rng(6)
        cov = synthesize_covariance(random_aps_model(rng, c_s), fs)
        expected = convert(build_conversion_operator(build_gram_system(fs)), cov)

        inp = tmp_path / "cov.json"
        inp.write_text(json.dumps({
            "n": 4,
            "first_col_re": cov.first_col.real.tolist(),
            "first_col_im": cov.first_col.imag.tolist(),
        }))
        out = tmp_path / "viafile.json"
        assert main(["convert", "--operator", str(op_path),
                     "--input", str(inp), "-o", str(out)]) == 0
        got = json.loads(out.read_text())
        np.testing.assert_allclose(got["first_col_re"], expected.first_col.real,
                                   atol=1e-12)
        np.testing.assert_allclose(got["first_col_im"], expected.first_col.imag,
                                   atol=1e-12)

    def test_convert_config_writes_the_operator_files_bytes(self, tmp_path):
        """``convert --config`` and ``convert --operator`` with that config's
        exported operator run the same product and write the same bytes."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"array": {"n_antennas": 64},
                                      "support": [[0.0, HALF_PI]]}))
        op_path = tmp_path / "op.json"
        assert main(["export-operator", "--config", str(config), "-o", str(op_path)]) == 0
        rng = np.random.default_rng(7)
        inp = tmp_path / "cov.json"
        inp.write_text(json.dumps({"n": 64, "first_col_re": rng.normal(size=64).tolist(),
                                   "first_col_im": [0.0, *rng.normal(size=63)]}))
        written = []
        for source in (["--config", str(config)], ["--operator", str(op_path)]):
            out = tmp_path / f"out{len(written)}.json"
            assert main(["convert", *source, "--input", str(inp), "-o", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_operator_file_schema(self, tmp_path, small_config_file):
        op_path = tmp_path / "op.json"
        assert main(["export-operator", "--config", small_config_file,
                     "-o", str(op_path)]) == 0
        doc = json.loads(op_path.read_text())
        assert set(doc) == {"n", "L", "A", "rank", "config", "support",
                            "downlink_norms_sq"}
        assert doc["n"] == 4 and doc["L"] == 16
        assert len(base64.b64decode(doc["A"], validate=True)) == 8 * 8 * 8  # float64 bytes


# Build command -> the file it writes by default.
BUILD_COMMANDS = {"bounds": "bounds.csv", "fig1": "fig1.csv", "fig2": "fig2.csv",
                  "fig3": "fig3.csv", "export-operator": "operator.json"}


def _library_outputs(command: str, cfg: RunConfig, path: str):
    """Write to ``path`` what ``command`` writes for ``cfg``, through the
    library's own calls.  Returns the command's ``_meta.json`` keys (None
    when it writes no metadata) and the text its ``wrote`` line carries
    after the path."""
    from apscast import experiments as ex
    from apscast.apply import export_operator
    from apscast.array_model import build_function_set
    from apscast.bounds_analysis import compute_bounds
    from apscast.experiments import write_bounds_csv
    from apscast.conversion import build_conversion_operator, build_gram_system

    gs = build_gram_system(build_function_set(cfg.array, cfg.support), cfg.pinv)
    if command == "bounds":
        report = compute_bounds(gs, cfg.B)
        write_bounds_csv(path, report)
        return ({"gram_rank": gs.rank, "L": gs.L, "config_hash": report.config_hash},
                f" ({report.residuals.size} entries, Gram rank {gs.rank}/{gs.L})")
    if command == "export-operator":
        op = build_conversion_operator(gs)
        export_operator(path, op)
        return None, f" (A is {op.A.shape[0]}x{op.A.shape[1]}, rank {op.rank})"
    if command == "fig1":
        r1 = ex.run_fig1(cfg.array, cfg.support, cfg.B, cfg.pinv)
        ex.write_fig1_csv(path, r1)
        return {"gram_rank_no_si": r1.report_no_si.rank,
                "gram_rank_si": r1.report_si.rank}, ""
    if command == "fig2":
        r2 = ex.run_fig2(cfg.array, cfg.support, cfg.aps, cfg.B, cfg.pinv)
        ex.write_fig2_csv(path, r2)
        no_si, si = r2.errors_no_si.max(), r2.errors_si.max()
        return ({"max_err_no_si": float(no_si), "max_err_si": float(si),
                 "leakage_norm": r2.leakage_norm},
                f" (max err {no_si:.3e} -> {si:.3e} with support information)")
    r3 = ex.run_fig3(cfg.array, cfg.support, cfg.aps, cfg.grid_points, cfg.pinv)
    ex.write_fig3_csv(path, r3)
    return {"max_constraint_error_no_si": float(r3.constraint_errors_no_si.max()),
            "max_constraint_error_si": float(r3.constraint_errors_si.max())}, ""


class TestBuildCommandBytes:
    """Each build command writes, byte for byte, what the library's writers
    write for the same call, plus the config echo with the command's keys
    as ``<stem>_meta.json`` and one ``wrote`` line."""

    @pytest.mark.parametrize("support", [None, [0.0, HALF_PI]], ids=["no-si", "si"])
    @pytest.mark.parametrize("command", list(BUILD_COMMANDS))
    def test_outputs_match_the_library(self, tmp_path, capsys, command, support):
        from apscast.experiments import write_metadata

        config = tmp_path / "config.json"
        config.write_text(json.dumps({"array": {"n_antennas": 6}}))
        flag = [] if support is None else ["--support", *map(repr, support)]
        cli_dir, lib_dir = tmp_path / "cli", tmp_path / "lib"
        lib_dir.mkdir()
        assert main([command, "--config", str(config), *flag, "-o", str(cli_dir)]) == 0
        stdout = capsys.readouterr().out

        cfg = RunConfig.from_dict({"array": {"n_antennas": 6}})
        if support is not None:
            cfg = dataclasses.replace(cfg, support=apscast.SupportSet([support]))
        name = BUILD_COMMANDS[command]
        cli_path = os.path.join(str(cli_dir), name)
        keys, note = _library_outputs(command, cfg, str(lib_dir / name))
        assert stdout == f"wrote {cli_path}{note}\n"
        assert (cli_dir / name).read_bytes() == (lib_dir / name).read_bytes()
        meta = f"{os.path.splitext(name)[0]}_meta.json"
        if keys is None:
            assert sorted(os.listdir(cli_dir)) == [name]
            return
        write_metadata(str(lib_dir / meta), cfg.to_dict() | keys)
        assert sorted(os.listdir(cli_dir)) == sorted([name, meta])
        assert (cli_dir / meta).read_bytes() == (lib_dir / meta).read_bytes()


# Modules a process that applies a stored operator must not load.
BUILD_MODULES = tuple(f"apscast.{m}" for m in (
    "numerics", "hilbert_space", "array_model", "conversion", "bounds_analysis",
    "experiments"))


def _fresh_python(code: str, *args: str) -> str:
    """stdout of ``code`` run in a new interpreter that imports this apscast."""
    src = os.path.dirname(os.path.dirname(apscast.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


class TestColdImport:
    def test_package_import_loads_no_submodule(self):
        code = ("import sys, apscast; "
                "print([m for m in sys.modules if m.startswith('apscast.')])")
        assert _fresh_python(code) == "[]"

    def test_convert_with_operator_loads_only_the_apply_layer(self, tmp_path,
                                                              small_config_file):
        """Neither ``import apscast.cli`` nor a whole ``convert --operator``
        run imports numpy, the build modules or the experiments."""
        op_path, inp = tmp_path / "op.json", tmp_path / "cov.json"
        assert main(["export-operator", "--config", small_config_file,
                     "-o", str(op_path)]) == 0
        inp.write_text(json.dumps({"n": 4, "first_col_re": [1.0, 0.5, 0.0, 0.0],
                                   "first_col_im": [0.0, 0.25, 0.0, 0.0]}))
        code = ("import json, sys\n"
                "import apscast.cli\n"
                f"unwanted = {BUILD_MODULES + ('numpy',)!r}\n"
                "loaded = [m for m in unwanted if m in sys.modules]\n"
                "op, inp, out = sys.argv[1:]\n"
                "code = apscast.cli.main(['convert', '--operator', op, '--input', inp,"
                " '-o', out])\n"
                "print(json.dumps([loaded, [m for m in unwanted if m in sys.modules], code]))")
        got = _fresh_python(code, str(op_path), str(inp), str(tmp_path / "out.json"))
        assert json.loads(got.splitlines()[-1]) == [[], [], 0]
        assert json.loads((tmp_path / "out.json").read_text())["n"] == 4

    def test_cli_import_leaves_experiments_unloaded(self):
        """``convert --operator`` needs neither the figure experiments nor
        spectrum synthesis, and no config hash or CSV writer."""
        src = os.path.dirname(os.path.dirname(apscast.__file__))
        code = ("import sys, apscast.cli; "
                "print([m for m in ('apscast.experiments', 'hashlib', 'csv') "
                "if m in sys.modules])")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"

    def test_convert_with_operator_loads_only_the_document_reader(self, tmp_path):
        """Beyond what a bare interpreter loads, a whole ``convert --operator``
        process loads ``apscast``, ``cli``, ``errors`` and ``documents`` of the
        package and none of numpy, ``dataclasses``, ``inspect``, ``typing``,
        the apply layer, the records, the build or the handler module."""
        op_path, inp = _export_operator(tmp_path, 4), tmp_path / "cov.json"
        inp.write_text(json.dumps({"n": 4, "first_col_re": [1.0, 0.5, 0.0, 0.0],
                                   "first_col_im": [0.0, 0.25, 0.0, 0.0]}))
        bare = set(_fresh_python("import sys; print(*sys.modules, sep='\\n')").split())
        code = ("import sys\n"
                "from apscast.cli import main\n"
                "op, inp, out = sys.argv[1:]\n"
                "code = main(['convert', '--operator', op, '--input', inp, '-o', out])\n"
                "print(code, *sys.modules, sep='\\n')")
        wrote, exit_code, *modules = _fresh_python(
            code, op_path, str(inp), str(tmp_path / "out.json")).splitlines()
        assert wrote.startswith("wrote ") and exit_code == "0"
        loaded = set(modules) - bare
        unwanted = {"dataclasses", "inspect", "typing", "numpy", "apscast.apply",
                    "apscast.records", "apscast.commands", *BUILD_MODULES}
        assert loaded & unwanted == set()
        assert {m for m in loaded if m.split(".")[0] == "apscast"} == {
            "apscast", "apscast.cli", "apscast.documents", "apscast.errors"}
        assert json.loads((tmp_path / "out.json").read_text())["n"] == 4

    def test_every_public_name_resolves(self):
        for name in apscast.__all__:
            assert getattr(apscast, name) is not None, name
        with pytest.raises(AttributeError):
            apscast.no_such_name


class TestErrorPaths:
    @pytest.mark.parametrize("argv, message", [
        (["convert"], "the following arguments are required: --input"),
        ([], "the following arguments are required: command"),
        (["bounds", "--bogus"], "unrecognized arguments: --bogus"),
        (["fig1", "--support", "x"], "invalid float value: 'x'"),
    ], ids=["missing-input", "missing-command", "unknown-option", "bad-float"])
    def test_usage_error_exits_1(self, capsys, argv, message):
        """Usage errors exit 1 with argparse's message; 2 stays reserved for
        numerical-consistency errors."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert message in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["convert", "--help"])
        assert exc.value.code == 0
        assert "--operator" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["convert"], ["convert", "--help"], ["convert", "--input", "x", "extra"],
        ["bounds", "--bogus"], ["fig1", "--support", "x"], ["fig2", "fig3"],
        ["export-operator", "-o"], ["fig3", "--help"],
    ], ids=lambda argv: "_".join(argv))
    def test_one_subparser_prints_what_all_six_print(self, capsys, argv):
        """A command line that names its command builds only that subparser,
        and every usage, help and error text is the one the parser with all
        six subcommands prints."""
        from apscast.cli import _build_parser

        parser = _build_parser(argv)
        assert list(parser._subparsers._group_actions[0].choices) == [argv[0]]
        printed = []
        for p in (parser, _build_parser([])):
            with pytest.raises(SystemExit) as exc:
                p.parse_args(argv)
            printed.append((exc.value.code, capsys.readouterr()))
        assert printed[0] == printed[1]

    def test_malformed_config_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["bounds", "--config", str(bad), "-o", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"arrays": {}}))
        assert main(["bounds", "--config", str(bad), "-o", str(tmp_path)]) == 1

    def test_missing_covariance_file_exits_1(self, tmp_path, recip_config_file):
        assert main(["convert", "--config", recip_config_file,
                     "--input", str(tmp_path / "nope.json"),
                     "-o", str(tmp_path)]) == 1

    @pytest.mark.parametrize("name, content, option", [
        pytest.param("missing.json", None, None, id="missing.json"),
        pytest.param(".", None, None, id="."),
        pytest.param("latin1.json", b'{"n": "caf\xe9"}', None, id="not-utf8"),
        pytest.param("deep.json", b"[" * 10**5 + b"]" * 10**5, None, id="deep-nesting"),
        pytest.param("rank.json", b'{"rank": ' + b"9" * 5000 + b"}", None,
                     id="5000-digit-rank"),
        pytest.param("op.json", "exported", "--config", id="config-ignored"),
        pytest.param("op.json", "exported", "--support", id="support-ignored"),
    ])
    def test_unreadable_operator_exits_1(self, tmp_path, capsys, small_config_file,
                                         name, content, option):
        """An operator file that cannot be read, or an option that
        ``--operator`` would ignore: exit 1 with an ``error:`` line that names
        the file or the option, and nothing is written."""
        inp = tmp_path / "cov.json"
        inp.write_text(json.dumps({"n": 4, "first_col_re": [1.0, 0.0, 0.0, 0.0],
                                   "first_col_im": [0.0, 0.0, 0.0, 0.0]}))
        op_path = tmp_path / name
        if content == "exported":
            assert main(["export-operator", "--config", small_config_file,
                         "-o", str(op_path)]) == 0
        elif content is not None:
            op_path.write_bytes(content)
        extra = {None: [], "--config": ["--config", small_config_file],
                 "--support": ["--support", "0.1", "0.2"]}[option]
        out = tmp_path / "out.json"
        assert main(["convert", "--operator", str(op_path), "--input", str(inp),
                     "-o", str(out), *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and (option or str(op_path)) in err
        assert not out.exists()

    @pytest.mark.parametrize("command, default_name", [
        pytest.param("convert --operator", "converted.json", id="convert-operator"),
        pytest.param("convert --config", "converted.json", id="convert-config"),
        pytest.param("bounds", "bounds.csv", id="bounds"),
        pytest.param("fig1", "fig1.csv", id="fig1"),
        pytest.param("export-operator", "operator.json", id="export-operator"),
    ])
    @pytest.mark.parametrize("output", ["blocker/x.json", "blocker/sub", "taken"],
                             ids=["file-under-a-file", "directory-under-a-file",
                                  "output-file-is-a-directory"])
    def test_unwritable_output_path_exits_1(self, tmp_path, capsys, small_config_file,
                                            command, default_name, output):
        """An output path under an existing file cannot be created, and an
        output file that is a directory cannot be opened: exit 1 with one
        ``error:`` line that names the path, and nothing is written."""
        inp = tmp_path / "cov.json"
        inp.write_text(json.dumps({"n": 4, "first_col_re": [1.0, 0.5, 0.0, 0.0],
                                   "first_col_im": [0.0, 0.25, 0.0, 0.0]}))
        args = {
            "convert --operator": ["convert", "--operator", _export_operator(tmp_path, 4),
                                   "--input", str(inp)],
            "convert --config": ["convert", "--config", small_config_file,
                                 "--input", str(inp)],
        }.get(command, [command, "--config", small_config_file])
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        (tmp_path / "taken" / default_name).mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        out = tmp_path / output
        assert main([*args, "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err
        assert sorted(tmp_path.rglob("*")) == before
        assert blocker.read_text() == "kept\n"

    @pytest.mark.parametrize("source", ["config-file", "--support"])
    def test_reversed_support_interval_exits_1(self, tmp_path, capsys, source):
        """A support interval with a > b is named as reversed, not as lying
        outside [-pi/2, pi/2]."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"array": {"n_antennas": 4},
                                      "support": [[0.5, 0.2]] if source == "config-file" else []}))
        extra = ["--support", "0.5", "0.2"] if source == "--support" else []
        out = tmp_path / "out"
        assert main(["bounds", "--config", str(config), "-o", str(out), *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "interval [0.5, 0.2] is reversed: its start exceeds its end" in err
        assert not out.exists()

    def test_odd_support_values_exit_1(self, tmp_path, small_config_file):
        assert main(["bounds", "--config", small_config_file,
                     "-o", str(tmp_path), "--support", "0.0"]) == 1

    def test_complex_diagonal_rejected(self, tmp_path, recip_config_file, capsys):
        inp = tmp_path / "cov.json"
        inp.write_text(json.dumps({
            "n": 2, "first_col_re": [1.0, 0.0], "first_col_im": [0.5, 0.0],
        }))
        for source in (["--config", recip_config_file],
                       ["--operator", _export_operator(tmp_path, 2)]):
            capsys.readouterr()
            assert main(["convert", *source,
                         "--input", str(inp), "-o", str(tmp_path)]) == 1
            assert "diagonal entry must be real" in capsys.readouterr().err

    @pytest.mark.parametrize("token", [
        "NaN", "1e400", '"1.5"', "true", "false",
        pytest.param('"caf\xe9"', id="not-utf8"),  # one byte 0xe9 in latin-1
        pytest.param("[" * 10**5 + "]" * 10**5, id="deep-nesting"),
        pytest.param("9" * 5000, id="5000-digit-integer"),
        pytest.param("[0.5]", id="nested-list"),
    ])
    def test_non_finite_covariance_exits_1(self, tmp_path, recip_config_file,
                                           capsys, token):
        inp = tmp_path / "cov.json"
        inp.write_text('{"n": 2, "first_col_re": [1.0, %s], '
                       '"first_col_im": [0.0, 0.0]}' % token, encoding="latin-1")
        out = tmp_path / "out.json"
        for source in (["--config", recip_config_file],
                       ["--operator", _export_operator(tmp_path, 2)]):
            capsys.readouterr()
            assert main(["convert", *source,
                         "--input", str(inp), "-o", str(out)]) == 1
            assert str(inp) in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("n_value, n", [(2.9, 2), (True, 1)], ids=["fractional", "boolean"])
    def test_non_integer_covariance_n_exits_1(self, tmp_path, capsys, n_value, n):
        """``n`` is read as a JSON integer; with a config or an operator of
        the dimension ``int(n)`` gives, these files used to convert."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"array": {"n_antennas": n}}))
        inp = tmp_path / "cov.json"
        inp.write_text(json.dumps({"n": n_value, "first_col_re": [1.0] + [0.0] * (n - 1),
                                   "first_col_im": [0.0] * n}))
        out = tmp_path / "out.json"
        for source in (["--config", str(config)],
                       ["--operator", _export_operator(tmp_path, n)]):
            capsys.readouterr()
            assert main(["convert", *source,
                         "--input", str(inp), "-o", str(out)]) == 1
            assert f"{inp}: n must be" in capsys.readouterr().err
            assert not out.exists()

    def test_empty_covariance_exits_1(self, tmp_path, recip_config_file, capsys):
        inp = tmp_path / "cov.json"
        inp.write_text(json.dumps({"n": 0, "first_col_re": [], "first_col_im": []}))
        out = tmp_path / "out.json"
        for source in (["--config", recip_config_file],
                       ["--operator", _export_operator(tmp_path, 4)]):
            capsys.readouterr()
            assert main(["convert", *source,
                         "--input", str(inp), "-o", str(out)]) == 1
            assert f"{inp}: n must be >= 1, got 0" in capsys.readouterr().err
            assert not out.exists()

    def test_operator_dimension_mismatch_exits_1(self, tmp_path, capsys):
        inp = tmp_path / "cov.json"
        inp.write_text(json.dumps({"n": 2, "first_col_re": [1.0, 0.5],
                                   "first_col_im": [0.0, 0.25]}))
        out = tmp_path / "out.json"
        assert main(["convert", "--operator", _export_operator(tmp_path, 4),
                     "--input", str(inp), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert "covariance dimension 2 does not match operator dimension 4" in err
        assert not out.exists()

    def test_integral_float_covariance_n_converts(self, tmp_path, recip_config_file):
        outputs = []
        for n_value in (4, 4.0):
            inp = tmp_path / "cov.json"
            inp.write_text(json.dumps({"n": n_value, "first_col_re": [1.0, 0.5, 0.0, 0.0],
                                       "first_col_im": [0.0, 0.25, 0.0, 0.0]}))
            out = tmp_path / f"out_{n_value}.json"
            assert main(["convert", "--config", recip_config_file,
                         "--input", str(inp), "-o", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_non_finite_config_token_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"pinv": {"rel_cutoff": NaN}}')
        assert main(["bounds", "--config", str(bad), "-o", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "NaN" in err

    @pytest.mark.parametrize("text, key", [
        ('{"array": {"n_antennas": 4.9}}', "config.array.n_antennas"),
        ('{"array": {"n_antennas": "x"}}', "config.array.n_antennas"),
        ('{"B": "abc"}', "config.B"),
        ('{"B": null}', "config.B"),
        ('{"B": 1e400}', "config.B"),
        ('{"quad": {"panel_order": 32}}', "quad"),  # synthesis takes no settings
        ('{"pinv": {"rel_cutoff": "1e-5"}}', "config.pinv.rel_cutoff"),
        ('{"array": []}', "config.array"),
        ('{"aps": {"peaks": [{"center": 0.5, "weight": 1.0}]}}', "scale"),
        ('{"support": [[0.0, "a"]]}', "config.support"),
        ("[]", "config"),
        ('{"grid_points": 1e400}', "config.grid_points"),
        ('{"B": "caf\xe9"}', "is not UTF-8"),  # one byte 0xe9 in latin-1
        ("[" * 10**5 + "]" * 10**5, "nested too deeply"),
        ('{"B": %s}' % ("9" * 5000), "integer literal with too many digits"),
        ('{"array": {"n_antennas": 0}}', "config.array: n_antennas"),
        ('{"pinv": {"rel_cutoff": 2}}', "config.pinv: rel_cutoff"),
        ('{"aps": {"peaks": [{"center": 2.0, "scale": 0.1, "weight": 1.0}]}}',
         "config.aps.peaks[0]: peak center"),
        ('{"aps": {"peaks": []}}', "config.aps: ApsModel needs at least one peak"),
        ('{"aps": {"peaks": [{"center": 0.5, "scale": 0.1, "weight": 0.0}]}}',
         "config.aps: cannot unit-normalize"),
        ('{"support": [[0.5, 0.2]]}', "config.support: interval [0.5, 0.2] is reversed"),
    ], ids=["fractional-int", "string-int", "string-float", "null-float",
            "overflowing-float", "removed-quad", "string-pinv", "array-not-object",
            "peak-without-scale", "string-support", "list-config",
            "overflowing-int", "not-utf8", "deep-nesting", "5000-digit-integer",
            "zero-antennas", "cutoff-above-one", "peak-center-outside", "no-peaks",
            "zero-weights", "reversed-support"])
    def test_bad_config_value_exits_1(self, tmp_path, capsys, text, key):
        """Each bad value is rejected while reading the config, with an
        ``error:`` line that names its key, and nothing is written."""
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="latin-1")
        out = tmp_path / "out"
        assert main(["fig3", "--config", str(bad), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not out.exists()

    def test_corrupt_operator_exits_1(self, tmp_path, small_config_file, capsys):
        """Infinity in A and an impossible rank: rejected before converting."""
        op_path = tmp_path / "op.json"
        assert main(["export-operator", "--config", small_config_file,
                     "-o", str(op_path)]) == 0
        doc = json.loads(op_path.read_text())
        doc["A"] = np.frombuffer(base64.b64decode(doc["A"]), "<f8").reshape(8, 8).tolist()
        doc["rank"] = 10**6
        doc["A"][0][0] = math.inf
        op_path.write_text(json.dumps(doc))  # writes the token Infinity
        inp = tmp_path / "cov.json"
        inp.write_text(json.dumps({"n": 4, "first_col_re": [1.0, 0.0, 0.0, 0.0],
                                   "first_col_im": [0.0, 0.0, 0.0, 0.0]}))
        out = tmp_path / "out.json"
        assert main(["convert", "--operator", str(op_path),
                     "--input", str(inp), "-o", str(out)]) == 1
        assert str(op_path) in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_conversion_exits_2(self, tmp_path, small_config_file, capsys):
        """Finite input, finite operator, non-finite product: no file is written."""
        op_path = tmp_path / "op.json"
        assert main(["export-operator", "--config", small_config_file,
                     "-o", str(op_path)]) == 0
        doc = json.loads(op_path.read_text())
        A = [[0.0 if i == 4 else 2.0] * 8 for i in range(8)]  # Im c_0 = 0
        doc["A"] = base64.b64encode(np.array(A, "<f8").tobytes()).decode("ascii")
        op_path.write_text(json.dumps(doc))
        inp = tmp_path / "cov.json"
        inp.write_text(json.dumps({"n": 4, "first_col_re": [1e308] * 4,
                                   "first_col_im": [0.0] * 4}))
        out = tmp_path / "out.json"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["convert", "--operator", str(op_path),
                         "--input", str(inp), "-o", str(out)])
        assert code == 2
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_numerical_consistency_exits_2(self, monkeypatch, tmp_path,
                                           small_config_file):
        def boom(*args, **kwargs):
            raise NumericalConsistencyError("rigged")

        monkeypatch.setattr("apscast.bounds_analysis.compute_bounds", boom)
        assert main(["bounds", "--config", small_config_file,
                     "-o", str(tmp_path)]) == 2
