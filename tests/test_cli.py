"""Command-line surface: outputs, formats, exit codes, reproducibility."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import oligosched as og
from oligosched import _textio
from oligosched.cli import main

PARAMS = '{"q1":1,"q2":0.75,"mu1":0,"mu2":0,"sigma1":1,"sigma2":1}'
PD_PARAMS = '{"q1":0.6,"q2":0.6,"mu1":15,"mu2":15,"sigma1":6,"sigma2":6}'


def row_csv_oracle(header, rows):
    """The former per-row CSV writer: every value through _textio.fmt."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_textio.fmt(v) for v in row))
    return "\n".join(lines) + "\n"


class TestL2Commands:
    def test_strategy_prints_full_precision(self, capsys):
        assert main(["l2", "strategy", "--arch", "coop", "--params", PARAMS]) == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        assert data["a"] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert data["b"] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert "0.66666666666666663" in out  # 17 significant digits survive

    def test_all_arch_forms_parse(self, capsys):
        for arch in ("nc", "coop", "naive", "none", "k:3", "rs:-0.1,0.8", "cong:0.4"):
            assert main(["l2", "strategy", "--arch", arch, "--params", PARAMS]) == 0

    def test_unknown_params_key_is_validation_error(self, capsys):
        bad = '{"q1":1,"q2":0.5,"mu1":0,"mu2":0,"sigma1":1,"sigma2":1,"extra":2}'
        assert main(["l2", "strategy", "--arch", "coop", "--params", bad]) == 2
        assert "unknown params keys" in capsys.readouterr().err

    def test_missing_params_key_is_validation_error(self):
        bad = '{"q1":1,"q2":0.5}'
        assert main(["l2", "strategy", "--arch", "coop", "--params", bad]) == 2

    def test_metrics_json(self, capsys):
        code = main(
            ["l2", "metrics", "--arch", "nc", "--params", PD_PARAMS,
             "--threshold", "150"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"strategy", "moments", "efficiency", "risk_bound"}
        p = og.MarketParamsL2(0.6, 0.6, 15, 15, 6, 6)
        m = og.stationary_moments(og.mpe_strategy(p), p)
        assert data["moments"]["second_u"] == pytest.approx(m.second_u, rel=1e-14)
        # q1 != 1 here, so the bound must report its precondition failure
        assert "error" in data["risk_bound"]

    def test_simulate_reproducible_files(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        base = [
            "l2", "simulate", "--arch", "coop", "--params", PD_PARAMS,
            "--horizon", "20000", "--burn-in", "100", "--seed", "5",
        ]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        manifest = json.loads((tmp_path / "a.json.manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["outputs"] == [str(out1)]
        assert manifest["version"] == og.__version__

    def test_simulate_series_csv(self, tmp_path):
        out = tmp_path / "s.json"
        series = tmp_path / "s.csv"
        code = main(
            ["l2", "simulate", "--arch", "none", "--params", PD_PARAMS,
             "--horizon", "500", "--seed", "1", "--out", str(out),
             "--series-csv", str(series)]
        )
        assert code == 0
        lines = series.read_text().strip().splitlines()
        assert lines[0] == "t,U,x_sum,o_flags"
        assert len(lines) == 501

    def test_simulate_manifest_records_backend(self, tmp_path):
        out = tmp_path / "a.json"
        assert main(
            ["l2", "simulate", "--arch", "coop", "--params", PD_PARAMS,
             "--horizon", "2000", "--seed", "3", "--out", str(out)]
        ) == 0
        manifest = json.loads((tmp_path / "a.json.manifest.json").read_text())
        assert manifest["sim_backend"] == "numpy"
        assert "threads" not in manifest["config"]

    def test_series_csv_columns_match_row_text(self):
        n = _textio._CSV_CHUNK + 1000  # a full block and a partial one
        rng = np.random.default_rng(3)
        t = np.arange(n)
        U = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
        special = [0.0, -0.0, 3.0, -42.0, 1e-300, 1.0 / 3.0, 0.1, 2.0 ** 60,
                   123456789.01234567]
        U[: len(special)] = special
        x = np.round(7.0 * U)  # integer-valued floats, -0 where U is -0
        flags = (t % 4).astype(np.uint8)
        U[-3:] = [np.nan, np.inf, -np.inf]
        header = ["t", "U", "x_sum", "o_flags"]
        text = _textio.csv_text(header, (t, U, x, flags))
        rows = zip(t.tolist(), U.tolist(), x.tolist(), flags.tolist())
        assert text == row_csv_oracle(header, rows)
        lines = text.splitlines()
        assert lines[2:7] == ["1,-0,-0,1", "2,3,21,2", "3,-42,-294,3",
                              "4,1e-300,0,0",
                              "5,0.33333333333333331,2,1"]
        assert lines[-3:] == [f"{n - 3},NaN,{x[-3]:.17g},{(n - 3) % 4}",
                              f"{n - 2},Infinity,{x[-2]:.17g},{(n - 2) % 4}",
                              f"{n - 1},-Infinity,{x[-1]:.17g},{(n - 1) % 4}"]

    @pytest.mark.parametrize("rows", [0, 3 * _textio._CSV_CHUNK])
    def test_atomic_write_round_trips_csv(self, tmp_path, rows):
        # 196,608 rows are over 2 MiB, so the text is written in slices
        U = np.random.default_rng(4).standard_normal(rows)
        text = _textio.csv_text(["t", "U"], (np.arange(rows), U))
        assert len(text) > 2 * _textio._WRITE_SLICE or rows == 0
        path = tmp_path / "series.csv"
        _textio.atomic_write_text(str(path), text)
        assert path.read_bytes() == text.encode()

    def test_import_leaves_scipy_special_unloaded(self):
        # scipy.special costs about 0.3 s of start-up; only draws and the
        # mixture tail use it
        code = "import sys, oligosched.cli; print('scipy.special' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_env_seed_override(self, tmp_path, monkeypatch):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = [
            "l2", "simulate", "--arch", "coop", "--params", PD_PARAMS,
            "--horizon", "5000", "--seed", "1",
        ]
        monkeypatch.setenv("OLIGO_SEED", "99")
        assert main(args + ["--out", str(out1)]) == 0
        monkeypatch.delenv("OLIGO_SEED")
        assert main(args + ["--seed", "99", "--out", str(out2)]) == 0
        assert json.loads(out1.read_text()) == json.loads(out2.read_text())


class TestLtiCommands:
    def test_build_matches_construction(self, tmp_path, capsys):
        assert main(["lti", "build", "--L", "3", "--out-dir", str(tmp_path)]) == 0
        mat, D, L = og.statespace.load_matrix_csv(tmp_path / "R1.csv")
        ss = og.build_state_space(3)
        assert (D, L) == (6, 3)
        assert np.array_equal(mat, ss.R1)
        mat2, _, _ = og.statespace.load_matrix_csv(tmp_path / "R2.csv")
        assert np.array_equal(mat2, ss.R2)
        stored = json.loads((tmp_path / "state_space.json").read_text())
        assert stored["L"] == 3 and stored["D_c"] == 6

    def test_h2_roundtrip(self, tmp_path, capsys):
        ss = og.build_state_space(3)
        gain_path = tmp_path / "gain.csv"
        br = og.make_f_br(0.3, ss)
        og.statespace.save_matrix_csv(gain_path, br.F, ss)
        code = main(
            ["lti", "h2", "--gain", str(gain_path), "--alpha", "1,1,1"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        rep = og.h2_norms(br, ss)
        assert data["z1sq"] == pytest.approx(rep.z1sq, rel=1e-14)
        assert data["weighted_objective"] == pytest.approx(
            (rep.z1sq + rep.z2sq + rep.z3sq) / 3.0, rel=1e-12
        )

    def test_mpe_command(self, capsys):
        assert main(["lti", "mpe", "--L", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["residual"] <= 1e-9
        assert data["gain"][2][2] == pytest.approx(0.414213562, abs=1e-6)

    def test_mpe_nonconvergence_exit_code(self, capsys):
        assert main(["lti", "mpe", "--L", "3", "--max-iter", "2"]) == 3
        assert "residual" in capsys.readouterr().err

    def test_pareto_front_csv(self, tmp_path):
        out = tmp_path / "front.csv"
        grid = json.dumps([[1, 1, 1], [1, 1, 10], [5, 1, 1]])
        code = main(
            ["lti", "pareto", "--L", "2", "--grid", grid, "--out", str(out),
             "--tol-grad", "1e-5"]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha1,alpha2,alpha3,z1sq,z2sq,z3sq"
        assert len(lines) >= 2
        gains = json.loads((tmp_path / "front.csv.gains.json").read_text())
        assert len(gains) == len(lines) - 1
        manifest = json.loads((tmp_path / "front.csv.manifest.json").read_text())
        assert str(out) in manifest["outputs"]

    def test_pareto_manifest_records_certificates(self, tmp_path):
        out = tmp_path / "front.csv"
        grid = json.dumps([[1, 1, 1], [1, 1, 10]])
        assert main(["lti", "pareto", "--L", "3", "--grid", grid, "--out", str(out)]) == 0
        config = json.loads((tmp_path / "front.csv.manifest.json").read_text())["config"]
        assert len(config["certificates"]) == len(config["grid"]) == 2
        for cert in config["certificates"]:
            assert 0.0 <= cert["grad_inf"] <= config["tol_grad"]
            assert 1e-9 <= cert["epsilon"] <= 1e-5

    def test_operator_command(self, capsys):
        code = main(
            ["lti", "operator", "--L", "2", "--alpha1", "1", "--alpha2", "1",
             "--budget", "40", "--seed", "2"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["objective"] <= data["baseline_objective"]
        assert data["evaluations"] >= 40

    def test_operator_manifest_records_telemetry(self, tmp_path):
        out = tmp_path / "operator.json"
        argv = ["lti", "operator", "--L", "2", "--alpha1", "1", "--alpha2", "1",
                "--budget", "20", "--seed", "2", "--out", str(out)]
        assert main(argv) == 0
        data = json.loads(out.read_text())
        assert set(data) == {
            "L", "pricing", "gain", "objective", "baseline_objective", "evaluations"
        }
        telemetry = json.loads(
            (tmp_path / "operator.json.manifest.json").read_text()
        )["telemetry"]
        assert telemetry["failures"] == {
            "singular-row": 0, "not-converged": 0, "unstable": 0
        }
        assert telemetry["inner_sweeps"] >= data["evaluations"]

    def test_bad_gain_file_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("nonsense\n")
        assert main(["lti", "h2", "--gain", str(path)]) == 2
