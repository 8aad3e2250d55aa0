import hashlib
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from singular_forge import cli, profile, verify
from singular_forge import nonlinearity as nl_mod
from singular_forge.classification import classify
from singular_forge.cli import (
    DEFAULT_CELLS,
    DEFAULT_PAIRS,
    DEFAULT_SIGMAS,
    build_parser,
    load_config,
    main,
    write_profile_csv,
)
from singular_forge.errors import ConfigError
from singular_forge.profile import to_radial
from singular_forge.verify import run_cell


def _cfg(argv):
    return load_config(build_parser().parse_args(argv))


def test_load_config_minimal_flags():
    cfg = _cfg(["classify", "--N", "5", "--family", "power", "--p", "2"])
    assert cfg.command == "classify"
    assert cfg.N == 5 and cfg.family == "power" and cfg.p == 2.0


def test_load_config_rejects_bad_p():
    with pytest.raises(ConfigError, match="p must exceed 1"):
        _cfg(["classify", "--N", "5", "--family", "power", "--p", "-1"])


def test_load_config_rejects_bad_r():
    with pytest.raises(ConfigError, match="r"):
        _cfg(["construct", "--N", "5", "--family", "power_sum", "--p", "2",
              "--r", "5"])


def test_config_file_with_flag_override(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "N": 5, "family": "power_sum", "p": 2.0, "r": 1.0, "M": 1025,
    }))
    cfg = _cfg(["construct", "--config", str(path), "--M", "8192"])
    assert cfg.M == 8192
    assert cfg.family == "power_sum" and cfg.r == 1.0
    # input file untouched
    assert json.loads(path.read_text())["M"] == 1025


def test_classify_exit_codes(tmp_path):
    assert main(["classify", "--N", "5", "--family", "power", "--p", "2",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["classify", "--N", "5", "--family", "power", "--p", "3",
                 "--out", str(tmp_path / "b")]) == 3
    data = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert data["classification"]["regime"]["reason"] == "Supercritical"


def test_classify_reports_both_rstar_candidates(tmp_path):
    assert main(["classify", "--N", "5", "--family", "power_sum", "--p", "2",
                 "--r", "1", "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "summary.json").read_text())
    cls = data["classification"]
    assert abs(cls["r_star"] - 1.75) < 1e-12
    assert abs(cls["r_star_literal"] - 0.75) < 1e-12


def test_bad_config_returns_1(capsys):
    code = main(["classify", "--N", "5", "--family", "power", "--p", "-1"])
    assert code == 1
    assert "p must exceed 1" in capsys.readouterr().err


def test_help_exits_0_and_names_the_families(capsys):
    # --help is no refusal: the parser prints it and exits 0
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())  # however it wraps
    assert "one of power, power_sum, power_log" in out


_CONSTRUCT = ["construct", "--N", "5", "--family", "power_sum", "--p", "2",
              "--r", "1"]


@pytest.mark.parametrize("config,flags,field", [
    ({"M": "x"}, [], "M"),
    ({"alpha": float("nan")}, [], "alpha"),
    ({"pairs": [[1e-4]]}, [], "pairs"),
    ({"cells": "1.75:1"}, [], "cells"),
    ({"sigmas": [1e-3, float("inf")]}, [], "sigmas"),
    ({"formats": "csv"}, [], "formats"),
    ({"auto_rho0": 0}, [], "auto_rho0"),
    (None, ["--alpha", "nan"], "alpha"),
    (None, ["--rho0", "inf"], "rho0"),
    (None, ["--rho-max", "nan"], "rho_max"),
    (None, ["--tol", "nan"], "tol"),
    (None, ["--max-iter", "0"], "max_iter"),
    (None, ["--max-iter", "-3"], "max_iter"),
    (None, ["--format", "xml"], "formats"),
    (None, ["--pairs", "1e-4:nan"], "pairs"),
    ([1, 2], [], "config"),
    (None, ["--family", "power"], "r"),
    ({"alhpa": 1e-3}, [], "alhpa"),
    ({"m": 1025}, [], "m"),
    # the parser's own refusals; the third is from_spec's
    (None, ["--M", "abc"], "argument --M"),
    (None, ["--bogus", "1"], "unrecognized arguments"),
    (None, ["--family", "nope"], "family"),
    (None, ["--p"], "argument --p"),
    (None, ["--N", "2"], "N"),
    (None, ["--tol", "0"], "tol"),
    (None, ["--alpha", "-1"], "alpha/beta"),
    (None, ["--rho-max", "2"], "rho_max"),
    (None, ["--pairs=-1:1"], "pairs"),
    (None, ["--pairs", "1:2:3"], "pairs"),
    (None, ["--p", "2,3"], "p"),
    (None, ["--sigmas", "a"], "sigmas"),
    ({"family": 3}, [], "family"),
    ({"out": 3}, [], "out"),
    (None, ["--config", "no_such_dir/cfg.json"], "config"),
    ("{not json", [], "config"),
], ids=["file_M_str", "file_alpha_nan", "file_pairs_short", "file_cells_str",
        "file_sigmas_inf", "file_formats_str", "file_auto_rho0_int",
        "alpha_nan", "rho0_inf", "rho_max_nan", "tol_nan", "max_iter_0",
        "max_iter_neg", "format_xml", "pairs_nan", "file_list",
        "power_reads_no_r", "file_misspelt_key", "file_lower_case_M",
        "M_not_int", "unknown_flag", "unknown_family", "p_no_value", "N_2",
        "tol_0", "alpha_neg", "rho_max_below_rho0", "pairs_neg",
        "pairs_triple", "p_list", "sigmas_str", "file_family_int",
        "file_out_int", "config_missing", "config_not_json"])
def test_bad_input_exits_1_with_config_error(tmp_path, capsys, monkeypatch,
                                             config, flags, field):
    # unchecked, each of these crashes with a traceback, ends as a
    # "convergence failure" (exit 2) or exits 0 having written nothing, or
    # (a config key that names no setting) is dropped without a word, or
    # (the parser's own refusals) exits 2 with argparse's usage text
    monkeypatch.chdir(tmp_path)  # where the default out would be
    argv = _CONSTRUCT + flags + ["--out", str(tmp_path / "out")]
    if config is not None:
        path = tmp_path / "cfg.json"
        # a string is the file's text as it stands
        path.write_text(config if isinstance(config, str)
                        else json.dumps(config))
        argv += ["--config", str(path)]
        # a flag would win over the file's value: leave the flag out
        for key in config if isinstance(config, dict) else ():
            if cli._FLAGS.get(key) in argv:
                i = argv.index(cli._FLAGS[key])
                del argv[i:i + 2]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}:"), err
    assert not (tmp_path / "out").exists()


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_construct_outputs_and_determinism(tmp_path):
    args = ["construct", "--N", "5", "--family", "power_sum", "--p", "2",
            "--r", "1", "--alpha", "1e-3", "--beta", "1e-3",
            "--M", "257", "--rho-max", "18"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    csv1 = out1 / "profile.csv"
    header = csv1.read_text().splitlines()[0]
    assert header == "rho,r,phi,I,eta,eta_prime,theta,u,tilde_u,residual"
    # byte determinism for identical inputs (out path differs only)
    assert _digest(csv1) == _digest(out2 / "profile.csv")
    body = csv1.read_bytes()
    assert b"\r" not in body
    # 17 significant digits survive a parse round trip
    row = csv1.read_text().splitlines()[5].split(",")
    assert float(row[2]) != 0.0


@pytest.mark.parametrize("family", [
    ["--family", "power_sum", "--p", "2", "--r", "1"],
    ["--family", "power_exp_log", "--p", "2", "--r", "0.5"],
])
def test_profile_csv_cells_parse_back_bitwise(tmp_path, family):
    args = ["construct", "--N", "5", *family, "--M", "129",
            "--out", str(tmp_path)]
    assert main(args) == 0
    cfg = _cfg(args)
    (nl,) = cfg.nonlinearities
    ctx, sol = run_cell(nl, classify(nl, cfg.N), cfg.alpha,
                        cfg.beta, cfg.rho0, cfg.rho_max,
                        auto_rho0=cfg.auto_rho0, M=cfg.M, tol=cfg.tol,
                        max_iter=cfg.max_iter)
    prof = to_radial(ctx, sol.eta, sol.deta)
    expected = np.column_stack([
        ctx.rho, prof.r, ctx.phi, ctx.I, sol.eta, sol.deta, prof.theta,
        prof.u, prof.tilde_u, prof.residual]) + 0.0
    lines = (tmp_path / "profile.csv").read_text().splitlines()[1:]
    parsed = np.array([[float(c) for c in line.split(",")] for line in lines])
    assert parsed.shape == expected.shape
    assert np.array_equal(parsed.view(np.uint64), expected.view(np.uint64))


def test_construct_trivial_theta_columns(tmp_path):
    assert main(["construct", "--N", "5", "--family", "power", "--p", "2",
                 "--alpha", "0", "--beta", "0", "--M", "129",
                 "--rho-max", "13", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "profile.csv").read_text().splitlines()[1:]
    for line in rows:
        cells = line.split(",")
        assert cells[6] == "0"          # theta
        assert cells[7] == cells[8]     # u == tilde_u
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["solver"]["iterations"] == 1


def test_sweep_writes_aggregate_and_profiles(tmp_path):
    code = main(["sweep", "--N", "5", "--family", "power_sum", "--p", "2",
                 "--r", "1", "--pairs", "1e-4:1e-4,2e-4:1e-4",
                 "--M", "257", "--rho-max", "18", "--out", str(tmp_path)])
    assert code == 0
    agg = json.loads((tmp_path / "sweep.json").read_text())
    assert len(agg["solutions"]) == 2 and not agg["failures"]
    assert (tmp_path / "profile_000.csv").exists()
    assert (tmp_path / "profile_001.csv").exists()
    assert agg["max_converged_alpha_plus_beta"] == pytest.approx(3e-4)


def test_tables_single_cell(tmp_path):
    code = main(["tables", "--N", "5", "--family", "power_sum",
                 "--cells", "1.75:1", "--M", "513", "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "tables.json").read_text())
    cell = data["cells"][0]
    assert cell["within_tolerance"]


def test_tables_honours_max_iter(tmp_path):
    # one iteration cannot converge: a per-cell ConvergenceError, exit 2
    code = main(["tables", "--N", "5", "--cells", "2:1", "--M", "513",
                 "--max-iter", "1", "--out", str(tmp_path)])
    assert code == 2
    data = json.loads((tmp_path / "tables.json").read_text())
    assert data["config"]["max_iter"] == 1
    assert data["cells"][0]["error"].startswith("ConvergenceError: ")


def test_tables_honours_tol(tmp_path):
    args = ["tables", "--N", "5", "--cells", "2:1", "--M", "513",
            "--format", "json"]
    iterations = []
    for i, tol in enumerate(("1e-10", "1e-3")):
        out = tmp_path / str(i)
        assert main(args + ["--tol", tol, "--out", str(out)]) == 0
        cell = json.loads((out / "tables.json").read_text())["cells"][0]
        iterations.append(cell["iterations"])
    assert iterations[1] < iterations[0]


def test_tables_single_p_and_r_define_one_cell(tmp_path):
    code = main(["tables", "--N", "5", "--p", "2", "--r", "1", "--M", "513",
                 "--format", "json", "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "tables.json").read_text())
    assert data["config"]["cells"] == [[2.0, 1.0]]
    assert {"p", "r"}.isdisjoint(data["config"])
    (cell,) = data["cells"]
    assert (cell["p"], cell["r"]) == (2.0, 1.0)
    # p - r = 1: the degenerate cell carries the forcing-rate annotation
    assert set(cell) == {
        "p", "r", "rho0", "rho_max", "lambda_fit", "lambda_stderr",
        "power_fit", "power_stderr", "lambda_pred", "power_pred",
        "lambda_pred_literal", "r_star", "r_star_literal",
        "iterations", "weighted_norm", "within_tolerance", "supports",
        "degenerate_p_minus_r_1", "label", "I_rate_annotation",
    }
    assert cell["label"] == "matches predicted rate"
    # the fields tables does not read are not recorded either
    assert {"alpha", "beta", "rho0", "rho_max",
            "auto_rho0"}.isdisjoint(data["config"])


# a valid run of each subcommand, without --out
_VALID = {
    "classify": ["classify", "--N", "5", "--family", "power_sum", "--p", "2",
                 "--r", "1"],
    "construct": [*_CONSTRUCT, "--M", "257", "--rho-max", "18"],
    "verify": ["verify", "--N", "5", "--family", "power_sum", "--p", "2",
               "--r", "1", "--M", "1025"],
    "sweep": ["sweep", "--N", "5", "--family", "power_sum", "--p", "2",
              "--r", "1", "--pairs", "1e-4:1e-4,2e-4:1e-4", "--M", "257",
              "--rho-max", "18"],
    "tables": ["tables", "--N", "5", "--cells", "2:1", "--M", "513"],
    "appendix": ["appendix", "--family", "power_sum", "--p", "2", "--r",
                 "1"],
}


def _assert_refused(tmp_path, capsys, argv, flag):
    # exit 1, the error names the flag, and nothing is written
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {flag}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [
    ["--alpha", "1e-3"], ["--beta", "5e-3"], ["--rho0", "3"],
    ["--rho-max", "60"], ["--no-auto-rho0"], ["--family", "power_log"],
    ["--family", "power"], ["--sigmas", "1e-3"], ["--pairs", "1e-4:1e-4"],
], ids="=".join)
def test_tables_rejects_flags_it_does_not_read(tmp_path, capsys, flags):
    _assert_refused(tmp_path, capsys, ["tables", "--N", "5", "--cells", "2:1",
                                       *flags], flags[0])


@pytest.mark.parametrize("command,flags", [
    ("sweep", ["--alpha", "0.5"]), ("sweep", ["--cells", "9:9"]),
    ("construct", ["--pairs", "1e-4:1e-4"]), ("verify", ["--sigmas", "1e-3"]),
    ("classify", ["--M", "99999"]), ("classify", ["--rho0", "7"]),
    ("appendix", ["--N", "9"]),
], ids=lambda v: "=".join(v) if isinstance(v, list) else v)
def test_every_subcommand_rejects_flags_it_does_not_read(tmp_path, capsys,
                                                        command, flags):
    # a flag counts as set whatever its value, as tables' do
    _assert_refused(tmp_path, capsys, [*_VALID[command], *flags], flags[0])


def test_tables_replays_its_config_and_rejects_other_families(tmp_path):
    args = ["tables", "--N", "5", "--cells", "2:1", "--M", "513",
            "--format", "json"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    path = tmp_path / "a" / "tables.json"
    assert main(["tables", "--config", str(path),
                 "--out", str(tmp_path / "b")]) == 0
    cells = [json.loads((tmp_path / d / "tables.json").read_text())["cells"]
             for d in "ab"]
    assert cells[0] == cells[1]
    # a family from the config file must have a predicted rate too, and
    # "power" named there is refused as --family power is
    data = json.loads(path.read_text())
    for family in ("power_log", "power"):
        data["config"]["family"] = family
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="^--family: "):
            _cfg(["tables", "--config", str(path)])


@pytest.mark.parametrize("source", ["flag", "config"])
def test_tables_power_sum_log_needs_log_exp(tmp_path, capsys, source):
    if source == "flag":
        argv = ["--family", "power_sum_log", "--cells", "2:1"]
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"family": "power_sum_log",
                                    "cells": [[2, 1]]}))
        argv = ["--config", str(path)]
    code = main(["tables", "--M", "257", *argv,
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        "config error: log_exp: required for family 'power_sum_log'\n")
    assert not (tmp_path / "out").exists()


def test_tables_refuses_a_bad_cell(tmp_path, capsys):
    # p <= 1 is rejected by the family constructor before any cell is solved
    code = main(["tables", "--N", "5", "--cells", "0.5:0.25,1.75:1", "--M",
                 "257", "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        "config error: cells: bad cell p=0.5, r=0.25: p must exceed 1\n")
    assert not (tmp_path / "out").exists()


_CLASSIFIED = {"config", "classification"}
_SOLVED = {*_CLASSIFIED, "grid", "solver", "residuals", "fit"}
_TABLE = {"config", "cells"}
_FAILED = {"config", "error"}


# argv without --out, the exit code, the files written: each JSON with its
# top-level keys, each CSV with None; None when nothing is written, a
# configuration refused before the run; and stderr, exactly
@pytest.mark.parametrize("argv,code,written,err", [
    (["classify", "--N", "5", "--family", "power", "--p", "2"], 0,
     {"summary.json": _CLASSIFIED}, ""),
    (["classify", "--N", "5", "--family", "power", "--p", "3"], 3,
     {"summary.json": _CLASSIFIED}, "out of regime: Supercritical\n"),
    (["construct", "--N", "5", "--family", "power", "--p", "2.4"], 3,
     {"summary.json": _CLASSIFIED}, "out of regime: Supercritical\n"),
    (["verify", "--N", "5", "--family", "power", "--p", "2.4"], 3,
     {"summary.json": _CLASSIFIED}, "out of regime: Supercritical\n"),
    # a grid ending at rho0 + 40 leaves only six envelope maxima: the fit
    # error is the reason, beside the prediction and the checks without a
    # fitted rate
    (["verify", "--N", "5", "--family", "power_sum", "--p", "2", "--r", "1",
      "--M", "1025", "--rho-max", "43"], 4,
     {"profile.csv": None,
      "summary.json": {*_SOLVED, "limit_diagnostics", "lipschitz",
                       "prediction", "verification"}},
     "verification failed: only 6 envelope maxima in the fit window\n"),
    # absurd boundary data: no contracting rho0 exists
    (["construct", "--N", "5", "--family", "power_sum", "--p", "2", "--r",
      "1", "--alpha", "5", "--beta", "5", "--M", "129"], 2,
     {"summary.json": _FAILED},
     "run failed: NoContractionError: no contracting rho0 in probe window "
     "starting at 3.0 (last: iterate left the nonlinearity domain: iterate "
     "leaves domain at node 86: phi(1+eta) <= s_min)\n"),
    # near p_S = 5 sigma underflows to 0 before the default grid's far end
    (["verify", "--N", "3", "--family", "power_sum", "--p", "4.95", "--r",
      "1"], 2, {"summary.json": _FAILED},
     "run failed: GridError: sigma = e^(-2 rho)/b underflows to 0 from "
     "rho = 373.0170940170985 on; the grid runs to "
     "rho_max = 2215.000000000027\n"),
    (["sweep", "--N", "5", "--family", "power_sum", "--p", "3", "--r", "1"],
     3, {"sweep.json": _CLASSIFIED}, "out of regime: Supercritical\n"),
    (["sweep", "--N", "5", "--family", "power_sum", "--p", "2", "--r", "1",
      "--pairs", "5:5", "--M", "129"], 2, {"sweep.json": _FAILED},
     "run failed: NoContractionError: no contracting rho0 in probe window "
     "starting at 3.0 (last: iterate left the nonlinearity domain: iterate "
     "leaves domain at node 86: phi(1+eta) <= s_min)\n"),
    (["tables", "--N", "5", "--p", "3", "--r", "1", "--M", "257"], 3,
     {"tables.json": _TABLE}, ""),
    (["tables", "--N", "5", "--cells", "2:1", "--M", "513", "--max-iter",
      "1"], 2, {"tables.json": _TABLE}, ""),
    (["tables", "--N", "5", "--cells", "3:1,2:1", "--M", "513"], 0,
     {"tables.json": _TABLE, "cell_01_profile.csv": None}, ""),
    (["appendix", "--family", "power", "--p", "2"], 1, None,
     "config error: family: appendix check needs family power_sum\n"),
    (["appendix", "--family", "power_sum", "--p", "2", "--r", "0.5",
      "--sigmas", "1e3"], 1, None,
     "config error: sigmas: power_sum: sigma must lie in "
     "(0, F_sup = 2.4183991523122903)\n"),
], ids=["classify", "classify_out_of_regime", "construct_out_of_regime",
        "verify_out_of_regime", "verify_fit_fails", "construct_no_rho0",
        "verify_domain_error", "sweep_out_of_regime", "sweep_no_rho0",
        "tables_out_of_regime", "tables_max_iter_1",
        "tables_one_cell_out_of_regime", "appendix_not_power_sum",
        "appendix_sigma_above_F_sup"])
def test_exit_codes_and_written_files(tmp_path, capsys, argv, code, written,
                                      err):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == code
    assert capsys.readouterr().err == err
    if written is None:
        assert not out.exists()
        return
    assert {p.name for p in out.iterdir()} == set(written)
    for name, keys in written.items():
        if keys is None:
            continue
        assert set(json.loads((out / name).read_text())) == keys
        # the JSON replays to the same exit code
        assert main([argv[0], "--config", str(out / name),
                     "--out", str(tmp_path / "replay")]) == code


@pytest.mark.parametrize("argv,builds", [
    *[(_VALID[command], 1) for command in
      ("classify", "construct", "verify", "sweep", "appendix")],
    (["tables", "--N", "5", "--M", "257"], len(DEFAULT_CELLS)),
], ids=lambda v: v[0] if isinstance(v, list) else str(v))
def test_each_nonlinearity_is_built_once(tmp_path, capsys, monkeypatch, argv,
                                         builds):
    # validate builds every nonlinearity the run uses, and the run reads
    # them from the config: one from_spec per nonlinearity, under whatever
    # name a module calls it
    specs = []
    build = nl_mod.from_spec
    for module in list(sys.modules.values()):
        if getattr(module, "from_spec", None) is build:
            monkeypatch.setattr(module, "from_spec",
                                lambda spec: specs.append(spec) or build(spec))
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert len(specs) == builds


def test_tables_writes_each_cell_before_solving_the_next(
        tmp_path, monkeypatch):
    events = []

    def logged(name, fn):
        def wrapper(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(verify, "run_cell", logged("solve", verify.run_cell))
    monkeypatch.setattr(cli, "write_profile_csv",
                        logged("write", cli.write_profile_csv))
    assert main(["tables", "--N", "5", "--M", "257",
                 "--out", str(tmp_path)]) == 0
    assert events == ["solve", "write"] * len(DEFAULT_CELLS)


@pytest.mark.parametrize("key,value", [
    ("pairs", [[1e-4, 1e-4]]), ("sigmas", [1e-3]),
])
def test_tables_rejects_lists_of_other_subcommands_in_config(
        tmp_path, key, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: value}))
    with pytest.raises(ConfigError, match=f"^--{key}: "):
        _cfg(["tables", "--N", "5", "--config", str(path)])


@pytest.mark.parametrize("command,config,flag", [
    ("tables", {"p": 2}, "--p"), ("tables", {"rho0": 9}, "--rho0"),
    ("tables", {"alpha": 0.5, "rho0": 9, "auto_rho0": False}, "--rho0"),
    ("sweep", {"alpha": 0.5}, "--alpha"), ("sweep", {"cells": [[9, 9]]},
                                           "--cells"),
    ("construct", {"sigmas": [1e-3]}, "--sigmas"),
    ("classify", {"M": 99999}, "--M"), ("appendix", {"N": 9}, "--N"),
], ids=lambda v: "-".join(v) if isinstance(v, dict) else str(v))
def test_every_subcommand_rejects_unread_fields_in_config(
        tmp_path, capsys, command, config, flag):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    _assert_refused(tmp_path, capsys,
                    [*_VALID[command], "--config", str(path)], flag)


# the fields each subcommand's JSON records: command and those it reads
_FAMILY = {"family", "p", "r", "log_exp"}
_SOLVE = {"N", *_FAMILY, "rho0", "rho_max", "M", "tol", "max_iter",
          "auto_rho0", "out", "formats"}
_RECORDED = {
    "classify": {"N", *_FAMILY, "out", "formats"},
    "construct": {*_SOLVE, "alpha", "beta"},
    "verify": {*_SOLVE, "alpha", "beta"},
    "sweep": {*_SOLVE, "pairs"},
    "tables": {"N", "family", "log_exp", "M", "tol", "max_iter", "cells",
               "out", "formats"},
    "appendix": {*_FAMILY, "sigmas", "out", "formats"},
}
_JSON = {"classify": "summary.json", "construct": "summary.json",
         "verify": "summary.json", "sweep": "sweep.json",
         "tables": "tables.json", "appendix": "appendix.json"}


def _replay(tmp_path, command, edit=lambda config: None):
    # run, re-feed the JSON (its config edited by ``edit``) with the same
    # --out, and compare every file's bytes
    out = tmp_path / "out"
    code = main([*_VALID[command], "--out", str(out)])
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    data = json.loads(first[_JSON[command]])
    edit(data["config"])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main([command, "--config", str(path), "--out", str(out)]) == code
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first
    return code, json.loads(first[_JSON[command]])["config"]


@pytest.mark.parametrize("command", list(_VALID))
def test_every_subcommand_replays_its_json_and_records_what_it_reads(
        tmp_path, capsys, command):
    code, config = _replay(tmp_path, command)
    assert code == 0
    assert set(config) == {"command", *_RECORDED[command]}


@pytest.mark.parametrize("command,unread", [
    ("construct", {"pairs": [], "cells": [], "sigmas": []}),
    ("sweep", {"alpha": 0.001, "beta": 0.001, "cells": [], "sigmas": []}),
])
def test_unread_fields_at_their_defaults_replay(tmp_path, capsys, command,
                                                unread):
    # a JSON written when every subcommand recorded every field
    code, _ = _replay(tmp_path, command, lambda config: config.update(unread))
    assert code == 0


def test_tables_records_the_family_and_cells_it_solved(tmp_path):
    # a default run records power_sum and the five default cells, and
    # replaying its tables.json solves the same cells to the same bytes
    args = ["tables", "--N", "5", "--M", "513", "--format", "json"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    path = tmp_path / "a" / "tables.json"
    config = json.loads(path.read_text())["config"]
    assert config["family"] == "power_sum"
    assert config["cells"] == [list(c) for c in DEFAULT_CELLS]
    assert {"pairs", "sigmas"}.isdisjoint(config)
    assert main(["tables", "--config", str(path),
                 "--out", str(tmp_path / "b")]) == 0
    cells = [json.dumps(json.loads((tmp_path / d / "tables.json")
                                   .read_text())["cells"]) for d in "ab"]
    assert cells[0] == cells[1]


@pytest.mark.parametrize("argv", [
    ["construct", "--family", "power", "--p", "2"],
    ["verify", "--family", "power_sum", "--p", "2", "--r", "1"],
    ["sweep", "--family", "power_sum", "--p", "2", "--r", "1"],
], ids=lambda argv: argv[0])
def test_log_exp_is_refused_without_power_sum_log(tmp_path, capsys, argv):
    code = main([*argv, "--N", "5", "--log-exp", "3", "--M", "257",
                 "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: log_exp: ")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["construct", "verify", "sweep"])
def test_r_in_a_config_file_is_refused_for_power(tmp_path, capsys, command):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"family": "power", "p": 2, "r": 1.5}))
    code = main([command, "--N", "5", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: r: ")
    assert not (tmp_path / "out").exists()


def test_log_exp_in_a_config_file_is_refused_without_power_sum_log(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"family": "power_sum", "p": 2, "r": 1,
                                "log_exp": 3}))
    with pytest.raises(ConfigError, match="^log_exp: "):
        _cfg(["verify", "--N", "5", "--config", str(path)])


@pytest.mark.parametrize("flags", [
    ["--r", "1"], ["--p", "2", "--r", "3"],
], ids=["r_without_p", "no_cell_below_p"])
def test_tables_rejects_exponents_that_make_no_cell(flags):
    with pytest.raises(ConfigError, match="^--"):
        _cfg(["tables", "--N", "5", *flags])


def test_default_cells_cover_acceptance_table():
    assert (2.0, 1.9) in DEFAULT_CELLS and (1.8, 1.0) in DEFAULT_CELLS


def test_appendix_subcommand(tmp_path):
    code = main(["appendix", "--family", "power_sum", "--p", "2", "--r", "1",
                 "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "appendix.json").read_text())
    assert data["appendix"]["max_R"] <= 0.1


def test_appendix_requires_power_sum():
    assert main(["appendix", "--family", "power", "--p", "2"]) == 1


@pytest.mark.parametrize("sigma", ["1e3", "0", "-1"])
def test_appendix_refuses_sigmas_outside_F_range(tmp_path, capsys, sigma):
    # F maps the domain onto (0, F_sup): a sigma outside it is a
    # configuration error, refused before the run with nothing written
    out = tmp_path / "out"
    assert main(["appendix", "--family", "power_sum", "--p", "2", "--r",
                 "0.5", "--sigmas", sigma, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "config error: sigmas: power_sum: sigma must lie in (0, F_sup = "
        "2.41839915")
    assert not out.exists()


def test_failed_run_says_why_and_records_the_typed_error(tmp_path, capsys):
    argv = ["construct", "--N", "5", "--family", "power_sum", "--p", "2",
            "--r", "1", "--alpha", "5", "--beta", "5", "--M", "129",
            "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("run failed: NoContractionError: no contracting "
                          "rho0 in probe window starting at 3.0 (last: ")
    error = json.loads((tmp_path / "summary.json").read_text())["error"]
    assert err == f"run failed: {error}\n"


def test_sigma_underflow_is_a_grid_error_naming_its_rho(tmp_path, capsys):
    # near p_S = 5 the default span (about 2200) runs past rho = 372, where
    # sigma = e^(-2 rho)/b underflows to 0: build_context says so, and the
    # run fails with exit 2 and its JSON
    argv = ["verify", "--N", "3", "--family", "power_sum", "--p", "4.95",
            "--r", "1", "--out", str(tmp_path)]
    assert main(argv) == 2
    error = json.loads((tmp_path / "summary.json").read_text())["error"]
    assert capsys.readouterr().err == f"run failed: {error}\n"
    head = "GridError: sigma = e^(-2 rho)/b underflows to 0 from rho = "
    assert error.startswith(head)
    rho, rest = error[len(head):].split(" on; the grid runs to rho_max = ")
    rho, rho_max = float(rho), float(rest)
    b = classify(nl_mod.PowerSum(4.95, 1.0), 3).b
    lo, hi = 300.0, 400.0  # sigma > 0 at lo, = 0 at hi: bisect to the edge
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if np.exp(-2.0 * mid) / b == 0.0 else (mid, hi)
    # the first zero node lies within one step past the edge; rho0 is at
    # least 3, so the 4096-node grid's step is at most h
    h = (rho_max - 3.0) / 4095
    assert hi <= rho < hi + h < rho_max


@pytest.mark.parametrize("argv,key,default", [
    (["sweep", "--N", "5", "--family", "power_sum", "--p", "2", "--r", "1",
      "--M", "257", "--rho-max", "18"], "pairs", DEFAULT_PAIRS),
    (["appendix", "--family", "power_sum", "--p", "2", "--r", "1"], "sigmas",
     DEFAULT_SIGMAS),
], ids=["sweep", "appendix"])
def test_an_omitted_list_is_recorded_as_its_default(tmp_path, capsys, argv,
                                                    key, default):
    assert main([*argv, "--format", "json", "--out", str(tmp_path)]) == 0
    (path,) = tmp_path.iterdir()
    data = json.loads(path.read_text())
    assert data["config"][key] == json.loads(json.dumps(default))
    if key == "pairs":
        assert len(data["solutions"]) == len(DEFAULT_PAIRS)


# each check's name and its stated bound
BOUNDS = {"lambda_within_10pct": 0.1, "eta_residual_below_1e-5": 1e-5,
          "weighted_norm_at_most_2": 2.0, "boundary_data_exact": 0.0,
          "limits_decrease_in_tail": 1e-9}


def _outcomes(rows):
    return {row["name"]: row["ok"] for row in rows}


def test_verify_subcommand_full_report(tmp_path):
    code = main(["verify", "--N", "5", "--family", "power_sum", "--p", "2",
                 "--r", "1", "--M", "1025", "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "summary.json").read_text())
    assert "limit_diagnostics" in data and "lipschitz" in data
    assert data["prediction"]["lambda"] == pytest.approx(0.5)
    assert data["residuals"]["radial_max_relative"] < 1e-3
    assert abs(data["classification"]["r_star"] - 1.75) < 1e-12
    # the report's shape: sorted keys would hide a dropped one
    assert set(data["prediction"]) == {"lambda", "power"}
    rows = data["verification"]
    assert [row["name"] for row in rows] == list(BOUNDS)
    assert _outcomes(rows) == dict.fromkeys(BOUNDS, True)
    assert rows[0] == {"name": "lambda_within_10pct", "bound": 0.1,
                       "ok": True, "excuse": None}
    for row in rows[1:]:
        assert row == {"name": row["name"], "bound": BOUNDS[row["name"]],
                       "ok": True}


def test_verify_without_a_predicted_rate_writes_no_rate_report(tmp_path):
    # power_exp_log has no predicted decay rate: the fit is reported alone,
    # and the checks are the three every family has
    code = main(["verify", "--N", "5", "--family", "power_exp_log", "--p",
                 "2", "--r", "0.5", "--M", "192", "--no-auto-rho0",
                 "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "summary.json").read_text())
    assert "error" not in data["fit"]
    assert "limit_diagnostics" in data and "lipschitz" in data
    assert "prediction" not in data
    assert data["verification"] == [
        {"name": "weighted_norm_at_most_2", "bound": 2.0, "ok": True},
        {"name": "boundary_data_exact", "bound": 0.0, "ok": True},
        {"name": "limits_decrease_in_tail", "bound": 1e-9, "ok": True}]


def test_verify_notes_a_fit_faster_than_predicted(tmp_path, capsys):
    # r = r* = 1.75: the fit decays faster than the prediction, an upper
    # bound, so the rate check fails and its row says why; the excuse
    # holds, but on 2049 nodes the eta residual fails too: exit 4
    code = main(["verify", "--N", "5", "--family", "power_sum", "--p", "2",
                 "--r", "1.75", "--M", "2049", "--format", "json",
                 "--out", str(tmp_path)])
    assert code == 4
    data = json.loads((tmp_path / "summary.json").read_text())
    assert data["fit"]["lambda"] > 1.1 * data["prediction"]["lambda"]
    rate = data["verification"][0]
    assert rate == {"name": "lambda_within_10pct", "bound": 0.1, "ok": False,
                    "excuse": "consistent with bound (faster decay than "
                              "predicted)"}
    err = capsys.readouterr().err
    assert "eta_residual_below_1e-5" in err
    assert "lambda_within_10pct" not in err


@pytest.mark.parametrize("N, p, r, extra, fails, named", [
    # the fit, 0.292, is more than 10% below the predicted 1/3
    (4, 2.5, 1.0, [], {"lambda_within_10pct"}, ["lambda_within_10pct"]),
    # eta residuals 2.2e-5 and 1.8e-5
    (10, 1.3, 1.1, [], {"eta_residual_below_1e-5"},
     ["eta_residual_below_1e-5"]),
    (3, 3.05, 1.0, [], {"eta_residual_below_1e-5"},
     ["eta_residual_below_1e-5"]),
    # faster than predicted, which excuses the rate check alone: residual
    # 3.6e-5 on 2049 nodes, 9.1e-6 on the default 4096
    (5, 2.0, 1.75, ["--M", "2049"],
     {"lambda_within_10pct", "eta_residual_below_1e-5"},
     ["eta_residual_below_1e-5"]),
    (5, 2.0, 1.75, [], {"lambda_within_10pct"}, []),
    (5, 2.0, 1.0, [], set(), []),
    (3, 3.5, 1.0, [], set(), []),
    (6, 1.9, 1.0, [], set(), []),
    (10, 1.4, 1.0, [], set(), []),
    # lipschitz's heuristic cap, 2.335, is below its sampled 2.459 (and the
    # exact supremum 2.468): recorded, it decides nothing
    (3, 4.7, 1.0, [], set(), []),
])
def test_verify_exits_4_on_a_failed_check(tmp_path, capsys, N, p, r, extra,
                                          fails, named):
    # every check counts but the excused rate check; the JSON is the same
    # whatever the exit code
    code = main(["verify", "--N", str(N), "--family", "power_sum", "--p",
                 str(p), "--r", str(r), *extra, "--format", "json",
                 "--out", str(tmp_path)])
    data = json.loads((tmp_path / "summary.json").read_text())
    rows = data["verification"]
    assert _outcomes(rows) == {name: name not in fails for name in BOUNDS}
    assert data["lipschitz"]["bounded"] == ((N, p) != (3, 4.7))
    err = capsys.readouterr().err
    if named:
        assert code == 4
        assert err == f"verification failed: {', '.join(named)}\n"
    else:
        assert code == 0 and err == ""


def _leaves(node, key=None):
    """(key, value) of every leaf of a JSON value, a list's items under
    the list's key."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _leaves(v, k)
    elif isinstance(node, list):
        for v in node:
            yield from _leaves(v, key)
    else:
        yield key, node


# the quad_verify benchmark's invocation at seed 1, without --out
QUAD_VERIFY_ARGV = [
    "verify", "--N", "5", "--family", "power_exp_log", "--p", "2", "--r",
    "0.5", "--M", "192", "--no-auto-rho0", "--alpha",
    "0.00042012443052897615", "--beta", "0.00039494106589712326"]


@pytest.mark.parametrize("argv, names", [
    (None, list(BOUNDS)),
    (QUAD_VERIFY_ARGV, ["weighted_norm_at_most_2", "boundary_data_exact",
                        "limits_decrease_in_tail"]),
], ids=["readme_verify", "quad_verify"])
def test_verification_holds_the_checks_and_no_copied_field(tmp_path, argv,
                                                           names):
    # README's verify line or the quad_verify argv: each row is a check's
    # name, its stated bound, its outcome and, for the rate, its excuse;
    # no field repeats one summary.json records elsewhere, under the same
    # key or, for a number, under any key
    argv = argv or _readme_argv("verify")
    assert main([*argv, "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "summary.json").read_text())
    rows = data.pop("verification")
    assert [row["name"] for row in rows] == names
    recorded = set(_leaves(data))
    numbers = {v for _, v in recorded if isinstance(v, float)}
    for row in rows:
        assert set(row) <= {"name", "bound", "ok", "excuse"}
        assert row["bound"] == BOUNDS[row["name"]]
        for key, value in _leaves(row):
            assert (key, value) not in recorded, (row["name"], key)
            if isinstance(value, float) and key != "bound":
                assert value not in numbers, (row["name"], key)


def test_verify_fit_failure_exits_4(tmp_path):
    # a grid ending at rho0 + 40 leaves only six envelope maxima
    code = main(["verify", "--N", "5", "--family", "power_sum", "--p", "2",
                 "--r", "1", "--M", "1025", "--rho-max", "43",
                 "--out", str(tmp_path)])
    assert code == 4
    data = json.loads((tmp_path / "summary.json").read_text())
    assert "envelope maxima" in data["fit"]["error"]


@pytest.mark.parametrize("family", [
    ["--family", "power", "--p", "2"],
    ["--family", "power_sum", "--p", "2", "--r", "1"],
    ["--family", "power_sum_log", "--p", "2", "--r", "1", "--log-exp", "1"],
])
def test_verify_default_grid_fits_half(tmp_path, family):
    code = main(["verify", "--N", "5", *family, "--M", "1025",
                 "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "summary.json").read_text())
    assert data["config"]["rho_max"] is None
    assert abs(data["fit"]["lambda"] - 0.5) <= 0.05


def _readme_argv(subcommand):
    """The argv of README's line for the subcommand, without --out."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text().splitlines()
    i = next(i for i, line in enumerate(lines)
             if line.startswith(f"singular-forge {subcommand} "))
    text = lines[i]
    while text.endswith("\\"):
        i += 1
        text = text[:-1] + lines[i]
    argv = shlex.split(text)[1:]
    out = argv.index("--out")
    return argv[:out] + argv[out + 2:]


def test_readme_construct_example_fits_half(tmp_path):
    # run the README's construct line as written, output redirected
    assert main([*_readme_argv("construct"), "--out", str(tmp_path)]) == 0
    fit = json.loads((tmp_path / "summary.json").read_text())["fit"]
    assert "error" not in fit
    assert abs(fit["lambda"] - 0.5) <= 0.05


def test_readme_library_sketch_runs():
    # exec the README's Library sketch as written and check its comments
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sketch = readme.split("## Library sketch", 1)[1]
    code = sketch.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    assert namespace["ctx"].grid.rho_max == 58.0
    assert namespace["sol"].converged
    assert abs(namespace["fit"].lambda_fit - 0.5) <= 0.005
    assert namespace["pred"] == (0.5, 0.0)


def test_write_profile_csv_golden_bytes(tmp_path):
    n = 600  # more than two 256-row blocks, not a multiple of 256
    rng = np.random.default_rng(7)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308,
               -1e308, 3.0, -17.0, 2.0 ** 53, 1e16, 0.1, 1.0 / 3.0]
    cols = []
    for _ in range(10):
        c = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        c[rng.permutation(n)[:len(special)]] = special
        cols.append(c)
    cols[6][n - 5:] = np.round(cols[6][n - 5:])  # integer-valued floats
    cols[4] = cols[6]  # eta is theta
    ctx = SimpleNamespace(rho=cols[0], phi=cols[2], I=cols[3])
    prof = SimpleNamespace(ctx=ctx, r=cols[1], theta=cols[6],
                           rtheta_prime=-cols[5], u=cols[7],
                           tilde_u=cols[8], residual=cols[9])
    path = tmp_path / "profile.csv"
    write_profile_csv(path, prof)
    expected = ["rho,r,phi,I,eta,eta_prime,theta,u,tilde_u,residual\n"]
    for i in range(n):
        expected.append(",".join(format(float(c[i]) + 0.0, ".17g")
                                 for c in cols) + "\n")
    assert path.read_bytes() == "".join(expected).encode("ascii")
    body = path.read_text()
    for token in ("nan", "inf", "-inf", "4.9406564584124654e-324",
                  "1e+308", ",0,"):
        assert token in body
    assert "-0," not in body and ",-0\n" not in body


# 0.89 MB measured; a formatter that keeps a, e and d through the gather,
# and the 10-column slots beside their bytes copy and the text, holds 1.24
WRITER_PEAK_BYTES = 1.0e6


def test_write_profile_csv_working_set(tmp_path):
    # tracemalloc's peak for one 4096-row write, the tables are built
    n = 4096
    rng = np.random.default_rng(5)
    cols = [rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
            for _ in range(10)]
    cols[4], cols[8] = cols[6], cols[2]  # as to_radial shares them
    ctx = SimpleNamespace(rho=cols[0], phi=cols[2], I=cols[3])
    prof = SimpleNamespace(ctx=ctx, r=cols[1], theta=cols[6],
                           rtheta_prime=-cols[5], u=cols[7],
                           tilde_u=cols[8], residual=cols[9])
    path = tmp_path / "profile.csv"
    write_profile_csv(path, prof)
    tracemalloc.start()
    try:
        write_profile_csv(path, prof)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= WRITER_PEAK_BYTES, peak


# 2.22 MB measured, one cell's context alive at a time; holding the previous
# cell's context through the next solve reads 2.69 MB, and holding all five
# until the last is solved 4.53 MB
TABLES_PEAK_BYTES = 2.5e6


def test_tables_working_set(tmp_path, capsys):
    # tracemalloc's peak for a second in-process `tables --N 5`, the first
    # having filled every cache
    argv = ["tables", "--N", "5", "--out", str(tmp_path)]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= TABLES_PEAK_BYTES, peak


@pytest.mark.parametrize("case", ["tilde_u_is_phi", "tilde_u_copy",
                                  "shared_nan_and_minus_zero"])
def test_write_profile_csv_shared_columns_golden_bytes(tmp_path, case):
    # more than two blocks, not a multiple of the block; a column array
    # shared by two CSV columns is formatted once and printed twice
    n = 2500
    assert n > 2 * cli._CSV_BLOCK and n % cli._CSV_BLOCK
    rng = np.random.default_rng(11)
    cols = [rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
            for _ in range(10)]
    cols[4] = cols[6]  # eta is theta
    if case == "tilde_u_copy":
        cols[8] = cols[2].copy()  # equal values, a distinct array
    else:
        cols[8] = cols[2]
    if case == "shared_nan_and_minus_zero":
        for j in (2, 6):
            cols[j][rng.permutation(n)[:40]] = [np.nan, -0.0] * 20
    ctx = SimpleNamespace(rho=cols[0], phi=cols[2], I=cols[3])
    prof = SimpleNamespace(ctx=ctx, r=cols[1], theta=cols[6],
                           rtheta_prime=-cols[5], u=cols[7],
                           tilde_u=cols[8], residual=cols[9])
    path = tmp_path / "profile.csv"
    write_profile_csv(path, prof)
    expected = ["rho,r,phi,I,eta,eta_prime,theta,u,tilde_u,residual\n"]
    for i in range(n):
        expected.append(",".join(format(float(c[i]) + 0.0, ".17g")
                                 for c in cols) + "\n")
    assert path.read_bytes() == "".join(expected).encode("ascii")
    if case == "shared_nan_and_minus_zero":
        body = path.read_text()
        assert "nan" in body and "-0," not in body


def test_sweep_small_grid(tmp_path):
    code = main(["sweep", "--N", "5", "--family", "power_sum", "--p", "2",
                 "--r", "1", "--pairs", "1e-4:1e-4,2e-4:2e-4",
                 "--M", "129", "--rho-max", "16", "--out", str(tmp_path)])
    assert code == 0


def test_cli_import_loads_no_scipy():
    # start-up cost: numpy is the only runtime dependency
    code = "import sys, singular_forge.cli; print('scipy' in sys.modules)"
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_cli_runs_load_no_scipy(tmp_path):
    # power_sum (2F1), power_exp_log (tail quadrature) and power_log
    # (incomplete gamma): scipy is still absent after each run
    runs = [
        ["tables", "--N", "5"],
        ["verify", "--N", "5", "--family", "power_exp_log", "--p", "2",
         "--r", "0.5", "--M", "192", "--no-auto-rho0"],
        ["construct", "--N", "5", "--family", "power_log", "--p", "2",
         "--r", "0.5"],
    ]
    code = "\n".join([
        "import contextlib, io, json, sys",
        "from singular_forge.cli import main",
        "for argv in json.loads(sys.argv[1]):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        code = main(argv)",
        "    print(argv[0], code, 'scipy' in sys.modules)",
    ])
    argvs = [argv + ["--out", str(tmp_path / argv[0])] for argv in runs]
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    assert out.split("\n")[:3] == [f"{argv[0]} 0 False" for argv in runs]


def test_consecutive_main_calls_match_fresh_processes(tmp_path, monkeypatch):
    # main() reuses one parser; a call must not see state a previous
    # subcommand left behind
    runs = [
        ("classify", ["classify", "--N", "5", "--family", "power", "--p",
                      "3"]),
        ("verify", ["verify", "--N", "5", "--family", "power_sum", "--p",
                    "2", "--r", "1", "--M", "1025"]),
        ("sweep", ["sweep", "--N", "5", "--family", "power_sum", "--p", "2",
                   "--r", "1", "--pairs", "1e-4:1e-4,2e-4:1e-4", "--M",
                   "257", "--rho-max", "18"]),
    ]
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    fresh.mkdir()
    reused.mkdir()
    fresh_codes = [
        subprocess.run([sys.executable, "-m", "singular_forge.cli", *argv,
                        "--out", name], cwd=fresh, env=env,
                       capture_output=True).returncode
        for name, argv in runs
    ]
    monkeypatch.chdir(reused)
    reused_codes = [main(argv + ["--out", name]) for name, argv in runs]
    assert reused_codes == fresh_codes == [3, 0, 0]
    files = sorted(p.relative_to(fresh) for p in fresh.rglob("*")
                   if p.is_file())
    assert len(files) == 6
    assert files == sorted(p.relative_to(reused) for p in reused.rglob("*")
                           if p.is_file())
    for rel in files:
        assert (fresh / rel).read_bytes() == (reused / rel).read_bytes(), rel


def test_verify_quadrature_family_outputs_repeat_bytewise(tmp_path,
                                                          monkeypatch):
    # the quad_verify benchmark's invocation, which Newton finishes
    args = ["verify", "--N", "5", "--family", "power_exp_log", "--p", "2",
            "--r", "0.5", "--M", "192", "--no-auto-rho0", "--alpha",
            "0.00019785589333897073", "--beta", "0.00022014553227391682",
            "--out", "qv"]
    monkeypatch.chdir(tmp_path)
    assert main(args) == 0
    first = {name: (tmp_path / "qv" / name).read_bytes()
             for name in ("summary.json", "profile.csv")}
    solver = json.loads(first["summary.json"])["solver"]
    assert solver["newton_steps"] > 0 and solver["iterations"] <= 6
    assert main(args) == 0
    for name, body in first.items():
        assert (tmp_path / "qv" / name).read_bytes() == body, name


def test_every_remainder_pass_goes_through_nonlinear_term(tmp_path,
                                                          monkeypatch):
    # the quad_verify benchmark's invocation makes six full-grid N passes
    # (T steps and the eta residual), three (N, N') passes in Newton and
    # two index-array passes in lipschitz_check, all through the one entry,
    # counted in every module that binds it, as the benchmark tracer wraps
    # it by name
    real, calls = profile.nonlinear_term, []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "singular_forge" or name.startswith("singular_forge."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
    assert main(["verify", "--N", "5", "--family", "power_exp_log", "--p",
                 "2", "--r", "0.5", "--M", "192", "--no-auto-rho0",
                 "--alpha", "0.00019785589333897073",
                 "--beta", "0.00022014553227391682",
                 "--out", str(tmp_path)]) == 0
    assert len(calls) == 11
