import hashlib
import json
import os
import shlex
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from singular_forge.cli import (
    DEFAULT_CELLS,
    build_parser,
    load_config,
    main,
    write_profile_csv,
)
from singular_forge.errors import ConfigError


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


def test_summary_roundtrip_reproduces_run(tmp_path):
    out1 = tmp_path / "a"
    args = ["construct", "--N", "5", "--family", "power_sum", "--p", "2",
            "--r", "1", "--M", "257", "--rho-max", "18",
            "--out", str(out1)]
    assert main(args) == 0
    d1 = _digest(out1 / "profile.csv")
    s1 = (out1 / "summary.json").read_bytes()
    # re-feed the summary as config into the same output directory
    assert main(["construct", "--config", str(out1 / "summary.json"),
                 "--out", str(out1)]) == 0
    assert _digest(out1 / "profile.csv") == d1
    assert (out1 / "summary.json").read_bytes() == s1


def test_construct_out_of_regime_exit3(tmp_path):
    code = main(["construct", "--N", "5", "--family", "power", "--p", "2.4",
                 "--out", str(tmp_path)])
    assert code == 3


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


def test_convergence_failure_exit2(tmp_path):
    # absurd boundary data: no contracting rho0 exists
    code = main(["construct", "--N", "5", "--family", "power_sum", "--p", "2",
                 "--r", "1", "--alpha", "5", "--beta", "5",
                 "--M", "129", "--out", str(tmp_path)])
    assert code == 2


def test_verify_subcommand_full_report(tmp_path):
    code = main(["verify", "--N", "5", "--family", "power_sum", "--p", "2",
                 "--r", "1", "--M", "1025", "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "summary.json").read_text())
    assert "limit_diagnostics" in data and "lipschitz" in data
    assert data["prediction"]["lambda"] == pytest.approx(0.5)
    assert data["residuals"]["radial_max_relative"] < 1e-3
    # truncation effect reported and small relative to the data scale
    assert data["truncation_effect"] < 1e-6
    rep = data["verification"]
    assert rep["passes"]["boundary_data_exact"]
    assert rep["passes"]["weighted_norm_at_most_2"]
    assert abs(rep["r_star"] - 1.75) < 1e-12


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


def test_readme_construct_example_fits_half(tmp_path):
    # run the README's construct line as written, output redirected
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text().splitlines()
    i = next(i for i, line in enumerate(lines)
             if line.startswith("singular-forge construct "))
    text = lines[i]
    while text.endswith("\\"):
        i += 1
        text = text[:-1] + lines[i]
    argv = shlex.split(text)[1:]
    argv[argv.index("--out") + 1] = str(tmp_path)
    assert main(argv) == 0
    fit = json.loads((tmp_path / "summary.json").read_text())["fit"]
    assert "error" not in fit
    assert abs(fit["lambda"] - 0.5) <= 0.05


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
    ctx = SimpleNamespace(rho=cols[0], phi=cols[2], I=cols[3])
    prof = SimpleNamespace(r=cols[1], theta=cols[6], u=cols[7],
                           tilde_u=cols[8], residual=cols[9])
    path = tmp_path / "profile.csv"
    write_profile_csv(path, prof, ctx, cols[4], cols[5])
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


def test_sweep_small_grid(tmp_path):
    code = main(["sweep", "--N", "5", "--family", "power_sum", "--p", "2",
                 "--r", "1", "--pairs", "1e-4:1e-4,2e-4:2e-4",
                 "--M", "129", "--rho-max", "16", "--out", str(tmp_path)])
    assert code == 0
