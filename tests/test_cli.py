"""Command-line surface: outputs, formats, exit codes, reproducibility."""
import argparse
import dataclasses
import importlib
import importlib.util
import inspect
import itertools
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oligosched as og
from oligosched import _textio
from oligosched.cli import _build_parser, main

PARAMS = '{"q1":1,"q2":0.75,"mu1":0,"mu2":0,"sigma1":1,"sigma2":1}'
PD_PARAMS = '{"q1":0.6,"q2":0.6,"mu1":15,"mu2":15,"sigma1":6,"sigma2":6}'


def row_csv_oracle(header, rows):
    """The former per-row CSV writer: every value through _textio.fmt."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_textio.fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def single_string_csv_oracle(header, columns):
    """The former csv_text: every block formatted, then joined in one string."""
    line = ",".join("%d" if col.dtype.kind in "iu" else "%.17g" for col in columns)
    lines = [",".join(header)]
    for i in range(0, len(columns[0]), _textio._CSV_CHUNK):
        block = list(zip(*(col[i:i + _textio._CSV_CHUNK].tolist() for col in columns)))
        text = "\n".join([line] * len(block)) % tuple(itertools.chain(*block))
        lines.append(text.replace("nan", "NaN").replace("inf", "Infinity"))
    lines.append("")
    return "\n".join(lines)


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
        assert main(["l2", "strategy", "--arch", "k3", "--params", PARAMS]) == 2
        assert "unknown arch 'k3'" in capsys.readouterr().err

    def test_unknown_params_key_is_validation_error(self, capsys):
        bad = '{"q1":1,"q2":0.5,"mu1":0,"mu2":0,"sigma1":1,"sigma2":1,"extra":2}'
        assert main(["l2", "strategy", "--arch", "coop", "--params", bad]) == 2
        assert "unknown params keys" in capsys.readouterr().err

    def test_missing_params_key_is_validation_error(self, capsys):
        for bad, error in (('{"q1":1,"q2":0.5}', "missing params keys"),
                           ("[1, 2]", "params must be a JSON object")):
            assert main(["l2", "strategy", "--arch", "coop", "--params", bad]) == 2
            assert error in capsys.readouterr().err

    def test_non_numeric_params_value_is_validation_error(self, capsys):
        bad = '{"q1":1,"q2":0.75,"mu1":0,"mu2":0,"sigma1":1,"sigma2":[1]}'
        assert main(["l2", "strategy", "--arch", "nc", "--params", bad]) == 2
        assert "validation error: params values must be numbers" in capsys.readouterr().err

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

    def test_metrics_reports_risk_bound_from_literal_or_file(self, tmp_path, capsys):
        params = {"q1": 1, "q2": 0.9, "mu1": 15, "mu2": 15, "sigma1": 4, "sigma2": 4}
        argv = ["l2", "metrics", "--arch", "nc", "--threshold", "60", "--params"]
        assert main(argv + [json.dumps(params)]) == 0
        out = capsys.readouterr().out
        p = og.MarketParamsL2(**params)
        bound = og.risk_upper_bound(og.mpe_strategy(p), p, 60.0)
        assert bound.condition_holds
        assert json.loads(out)["risk_bound"] == {"M": 60.0, **dataclasses.asdict(bound)}
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        assert main(argv + [str(path)]) == 0
        assert capsys.readouterr().out == out

    def test_rs_at_q2_one_with_mean_is_validation_error(self, capsys):
        # the linear equation for the constant term vanishes at q2 = 1
        params = '{"q1":1,"q2":1,"mu1":1,"mu2":0,"sigma1":0.5,"sigma2":1}'
        assert main(["l2", "strategy", "--arch", "rs:-5,0.05", "--params", params]) == 2
        assert "mu1 + mu2 = 0" in capsys.readouterr().err

    def test_zero_variance_risk_bound_reports_error(self, capsys):
        params = '{"q1":1,"q2":0.5,"mu1":0,"mu2":0,"sigma1":0,"sigma2":0}'
        code = main(["l2", "metrics", "--arch", "coop", "--params", params,
                     "--threshold", "1"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert "variance" in data["risk_bound"]["error"]

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

    def test_series_csv_without_out_writes_manifest_beside_it(self, tmp_path, capsys):
        series = tmp_path / "s.csv"
        argv = ["l2", "simulate", "--arch", "nc", "--params", PD_PARAMS,
                "--horizon", "1000", "--seed", "5", "--series-csv", str(series)]
        assert main(argv) == 0
        record = capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "s.csv.manifest.json"]
        manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        assert manifest["outputs"] == [str(series)]
        assert manifest["seed"] == 5 and manifest["command"] == ["oligosched", *argv]
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text() == record

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

    def test_dumps_spells_each_kind(self):
        record = {"empty": [], "none": {}, "flag": np.bool_(True), "n": np.int64(3),
                  "x": np.array([np.nan, -np.inf, 0.1]), "s": 'é"'}
        assert _textio.dumps(record).splitlines() == [
            "{", '  "empty": [],', '  "none": {},', '  "flag": true,', '  "n": 3,',
            '  "x": [', "    NaN,", "    -Infinity,", "    0.10000000000000001", "  ],",
            '  "s": "é\\""', "}",
        ]
        with pytest.raises(TypeError, match="cannot serialize"):
            _textio.dumps({"obj": object()})

    @pytest.mark.parametrize("rows", [0, 3 * _textio._CSV_CHUNK])
    def test_atomic_write_round_trips_csv(self, tmp_path, rows):
        # 196,608 rows are over 4 MB, written as one block
        U = np.random.default_rng(4).standard_normal(rows)
        text = _textio.csv_text(["t", "U"], (np.arange(rows), U))
        assert len(text) > 4e6 or rows == 0
        path = tmp_path / "series.csv"
        _textio.atomic_write_text(str(path), text)
        assert path.read_bytes() == text.encode()

    @pytest.mark.parametrize("rows", [0, 1, _textio._CSV_CHUNK, _textio._CSV_CHUNK + 1,
                                      3 * _textio._CSV_CHUNK])
    def test_streamed_csv_matches_single_string_at_block_boundaries(self, tmp_path, rows):
        chunk = _textio._CSV_CHUNK
        rng = np.random.default_rng(rows)
        t = np.arange(rows)
        U = rng.standard_normal(rows)
        x = np.round(5.0 * U)
        special = [np.nan, np.inf, -np.inf, -0.0]
        for edge in range(chunk, rows, chunk):  # both sides of each boundary
            after = min(4, rows - edge)
            U[edge - 4:edge + after] = special + special[::-1][:after]
            x[edge - 4:edge + after] = special[::-1] + special[:after]
        flags = (t % 3).astype(np.uint8)
        header = ["t", "U", "x_sum", "o_flags"]
        columns = (t, U, x, flags)
        path = tmp_path / "series.csv"
        _textio.atomic_write_text(str(path), _textio.csv_blocks(header, columns))
        streamed = path.read_text()
        rows_iter = zip(t.tolist(), U.tolist(), x.tolist(), flags.tolist())
        assert streamed == row_csv_oracle(header, rows_iter)
        assert streamed == single_string_csv_oracle(header, columns)
        assert streamed == _textio.csv_text(header, columns)
        blocks = list(_textio.csv_blocks(header, columns))
        assert len(blocks) == max(1, -(-rows // chunk))
        if rows > chunk:
            assert blocks[0].endswith(f"\n{chunk - 1},-0,NaN,{(chunk - 1) % 3}\n")
            assert blocks[1].startswith(f"{chunk},-0,NaN,{chunk % 3}\n")

    def test_failing_stream_leaves_target_untouched(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("old contents\n")

        def blocks():
            yield "t,U\n"
            yield "0,1\n" * (1 << 21)  # 8 MiB written before the failure
            raise OSError("formatting failed")

        with pytest.raises(OSError, match="formatting failed"):
            _textio.atomic_write_text(str(path), blocks())
        assert path.read_text() == "old contents\n"
        assert os.listdir(tmp_path) == ["series.csv"]

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss read in KiB")
    def test_series_csv_adds_less_than_half_its_size_to_peak_memory(self, tmp_path):
        # the whole text held at once, as a joined string or its blocks,
        # would add at least the CSV's size
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        env.pop("OLIGO_SEED", None)
        base = [sys.executable, "-m", "oligosched.cli", "l2", "simulate", "--arch", "nc",
                "--params", PD_PARAMS, "--horizon", "500000", "--seed", "5",
                "--out", str(tmp_path / "s.json")]
        series = tmp_path / "s.csv"

        def peak_bytes(cmd):
            proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
            assert proc.returncode == 0
            return usage.ru_maxrss * 1024

        with_csv = peak_bytes(base + ["--series-csv", str(series)])
        without = peak_bytes(base)
        size = series.stat().st_size
        assert size > 20e6
        assert with_csv - without < size / 2

    def test_import_leaves_scipy_special_unloaded(self):
        # scipy.special costs about 0.3 s of start-up; only draws and the
        # mixture tail use it
        code = "import sys, oligosched.cli; print('scipy.special' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("arch", ["cong:0.5", "rs:-0.1,0.5"])
    def test_root_selection_strategies_load_no_scipy(self, arch):
        # both root selections need only numpy
        code = (
            "import sys; from oligosched.cli import main; "
            f"main(['l2', 'strategy', '--arch', {arch!r}, '--params', {PARAMS!r}]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip().splitlines()[-1] == "[]"

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
        out = tmp_path / "state_space.json"
        assert main(["lti", "build", "--L", "3", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        stored = json.loads(out.read_text())
        ss = og.build_state_space(3)
        assert list(stored) == ["L", "D_c", "R1", "R2"]
        assert stored["L"] == 3 and stored["D_c"] == 6
        assert np.array_equal(stored["R1"], ss.R1)
        assert np.array_equal(stored["R2"], ss.R2)
        assert all(isinstance(v, int) for row in stored["R1"] + stored["R2"] for v in row)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "state_space.json", "state_space.json.manifest.json"
        ]

    def test_h2_roundtrip(self, tmp_path, capsys):
        ss = og.build_state_space(3)
        gain_path = tmp_path / "gain.json"
        br = og.make_f_br(0.3, ss)
        gain_path.write_text(_textio.dumps(br.F))
        code = main(
            ["lti", "h2", "--gain", str(gain_path), "--alpha", "1,1,1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        rep = og.h2_norms(br, ss)
        assert data["L"] == 3
        assert data["z1sq"] == rep.z1sq
        assert data["weighted_objective"] == pytest.approx(
            (rep.z1sq + rep.z2sq + rep.z3sq) / 3.0, rel=1e-12
        )
        # the same matrix given as a literal
        assert main(["lti", "h2", "--gain", gain_path.read_text(), "--alpha", "1,1,1"]) == 0
        assert capsys.readouterr().out == out

    def test_mpe_gain_roundtrips_through_h2(self, tmp_path, capsys):
        out = tmp_path / "mpe.json"
        assert main(["lti", "mpe", "--L", "3", "--out", str(out)]) == 0
        gain = json.loads(out.read_text())["gain"]
        gain_path = tmp_path / "gain.json"
        gain_path.write_text(json.dumps(gain))
        assert main(["lti", "h2", "--gain", str(gain_path)]) == 0
        data = json.loads(capsys.readouterr().out)
        ss = og.build_state_space(3)
        rep = og.h2_norms(og.solve_mpe(og.marginal_cost_pricing(ss), ss).gain, ss)
        assert data == {"L": 3, **dataclasses.asdict(rep)}

    def test_pareto_gain_roundtrips_through_h2(self, tmp_path, capsys):
        out = tmp_path / "front.csv"
        grid = json.dumps([[1, 1, 1], [0.9, 0.1, 10]])
        assert main(["lti", "pareto", "--L", "3", "--grid", grid, "--out", str(out)]) == 0
        front = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        gains = json.loads((tmp_path / "front.csv.gains.json").read_text())
        for i, row in enumerate(front):
            gain_path = tmp_path / f"point_{i}.json"
            gain_path.write_text(json.dumps(gains[f"point_{i}"]))
            alpha = ",".join(repr(v) for v in row[:3].tolist())
            assert main(["lti", "h2", "--gain", str(gain_path), "--alpha", alpha]) == 0
            data = json.loads(capsys.readouterr().out)
            J = float(np.sum(row[:3] ** 2 * row[3:]))
            assert data["weighted_objective"] == pytest.approx(J, rel=1e-12)

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
        # without --grid the 25 weights of the default grid are traced
        assert main(["lti", "pareto", "--L", "2", "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 26
        grid = json.dumps([[1, 1, 1], [1, 1, 10], [5, 1, 1]])
        code = main(["lti", "pareto", "--L", "2", "--grid", grid, "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha1,alpha2,alpha3,z1sq,z2sq,z3sq"
        assert len(lines) == 4  # every weight's optimum is on the front
        gains = json.loads((tmp_path / "front.csv.gains.json").read_text())
        assert len(gains) == len(lines) - 1
        manifest = json.loads((tmp_path / "front.csv.manifest.json").read_text())
        assert str(out) in manifest["outputs"]

    def test_pareto_manifest_records_certificates(self, tmp_path):
        out = tmp_path / "front.csv"
        grid = json.dumps([[1, 1, 1], [1, 1, 10]])
        assert main(["lti", "pareto", "--L", "3", "--grid", grid, "--out", str(out)]) == 0
        config = json.loads((tmp_path / "front.csv.manifest.json").read_text())["config"]
        assert set(config) == {"L", "grid", "certificates"}
        assert len(config["certificates"]) == len(config["grid"]) == 2
        for cert in config["certificates"]:
            assert 0.0 <= cert["grad_inf"] <= og.pareto._TOL_GRAD
            assert isinstance(cert["iterations"], int)
            assert 1 <= cert["iterations"] <= og.pareto._POLICY_CAP

    def test_pareto_loads_no_scipy(self, tmp_path):
        # synthesis needs only numpy; scipy.linalg alone costs about 0.3 s
        code = (
            "import sys; from oligosched.cli import main; "
            f"main(['lti', 'pareto', '--L', '3', '--out', {str(tmp_path / 'front.csv')!r}]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_operator_and_mpe_load_no_scipy(self):
        # the pricing search and the equilibrium solve need only numpy;
        # scipy.optimize alone costs about 0.7 s and 42 MB
        code = (
            "import sys; from oligosched.cli import main; "
            "main(['lti', 'operator', '--L', '2', '--alpha1', '1', '--alpha2', '1', "
            "'--budget', '50']); "
            "main(['lti', 'mpe', '--L', '3']); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip().splitlines()[-1] == "[]"

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

    def test_operator_without_finite_objective_exits_3(self, capsys):
        # at L = 9 the marginal-cost equilibrium does not converge in 600 sweeps
        argv = ["lti", "operator", "--L", "9", "--alpha1", "1", "--alpha2", "1",
                "--budget", "1"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no finite objective in 1 evaluations" in captured.err
        assert "'not-converged': 1" in captured.err

    def test_bad_gain_file_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        for text, error in [
            ("nonsense\n", "validation error: Expecting value"),
            ("[[1, 0], [0, 1]]\n", "gain must be a JSON list of L(L+1)/2 rows"),
            ("[" + "[1, 0], " * 2 + "[1, 0]]\n", "gain shape (3, 2) is not 3 x 3"),
        ]:
            path.write_text(text)
            assert main(["lti", "h2", "--gain", str(path)]) == 2
            assert error in capsys.readouterr().err

    @pytest.mark.parametrize("gain", [
        pytest.param("[[1, 0, 0], [0, 1, 0], [-0.15, NaN, 0.7]]", id="nan"),
        pytest.param("[[1, 0, 0], [0, 1, 0], [-0.15, -0.15, Infinity]]", id="infinity"),
        pytest.param("[[1, 0], [0, 1], [0, 0]]", id="non-square"),
        pytest.param(json.dumps(np.eye(4).tolist()), id="4x4-not-triangular"),
        pytest.param("[[1, 0, 0], [0, 1], [0, 0, 1]]", id="ragged"),
        pytest.param('[["a", 0, 0], [0, 1, 0], [0, 0, 1]]', id="string-entry"),
        pytest.param('"gain"', id="string"),
        pytest.param('{"gain": [[1]]}', id="object"),
        pytest.param("[]", id="empty"),
    ])
    def test_malformed_gain_is_validation_error(self, capsys, gain):
        assert main(["lti", "h2", "--gain", gain]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "validation error" in captured.err

    @pytest.mark.parametrize("pricing", ["5", "[1, 2]", '"q1"'])
    def test_non_object_pricing_is_validation_error(self, capsys, pricing):
        assert main(["lti", "mpe", "--L", "2", "--pricing", pricing]) == 2
        assert "validation error: pricing must be a JSON object" in capsys.readouterr().err

    def test_non_numeric_pricing_value_is_validation_error(self, capsys):
        pricing = '{"q1": {"a": 1}, "q2": [1, 1, 1]}'
        assert main(["lti", "mpe", "--L", "2", "--pricing", pricing]) == 2
        err = capsys.readouterr().err
        assert "validation error: pricing coefficients must be numbers" in err
        pricing = '{"q1": [0, 0, 0], "q2": [1, 1, 1], "q3": [1, 1, 1]}'
        assert main(["lti", "mpe", "--L", "2", "--pricing", pricing]) == 2
        assert "unknown pricing keys: ['q3']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid", ["[[1, 2]]", "[1, 2]", "[[1, 2, 3, 4]]", "[[1, 2, null]]", "5", '{"123": 1}']
    )
    def test_malformed_grid_is_validation_error(self, tmp_path, capsys, grid):
        out = tmp_path / "front.csv"
        assert main(["lti", "pareto", "--L", "2", "--grid", grid, "--out", str(out)]) == 2
        assert not out.exists()
        assert "validation error: grid must be" in capsys.readouterr().err


BR_GAIN_L2 = json.dumps(og.make_f_br(0.3, og.build_state_space(2)).F.tolist())


class TestOutputConvention:
    """A record prints to stdout without --out; with --out it goes to <out>,
    beside <out>.manifest.json, whose outputs list starts with <out>."""

    @pytest.mark.parametrize("argv", [
        pytest.param(["l2", "strategy", "--arch", "coop", "--params", PARAMS], id="l2-strategy"),
        pytest.param(["l2", "metrics", "--arch", "nc", "--params", PARAMS], id="l2-metrics"),
        pytest.param(["lti", "build", "--L", "2"], id="lti-build"),
        pytest.param(["lti", "h2", "--gain", BR_GAIN_L2, "--alpha", "1,1,1"], id="lti-h2"),
        pytest.param(["lti", "mpe", "--L", "2"], id="lti-mpe"),
    ])
    def test_stdout_or_out_and_manifest(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        record = capsys.readouterr().out
        assert json.loads(record)
        assert os.listdir(tmp_path) == []
        assert main(argv + ["--out", "r.json"]) == 0
        assert capsys.readouterr().out == ""
        assert sorted(os.listdir(tmp_path)) == ["r.json", "r.json.manifest.json"]
        assert (tmp_path / "r.json").read_text() == record
        manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
        assert manifest["outputs"][0] == "r.json"
        assert manifest["command"] == ["oligosched", *argv, "--out", "r.json"]


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands(*commands):
    """argv of each line of README's CLI code block that runs one of
    ``commands``, continuation lines joined."""
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("\n```", 1)[0].replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith(tuple(f"oligosched {c} " for c in commands))]


class TestReadmeExamples:
    def test_lti_build_and_h2_lines_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        gain = og.make_f_br(0.3, og.build_state_space(3)).F
        (tmp_path / "gain.json").write_text(json.dumps(gain.tolist()))
        argvs = readme_commands("lti build", "lti h2")
        assert [argv[:2] for argv in argvs] == [["lti", "build"], ["lti", "h2"], ["lti", "h2"]]
        for argv in argvs:
            assert main(argv) == 0, (argv, capsys.readouterr().err)
        assert (tmp_path / "state_space.json.manifest.json").exists()


# Every option string of every (sub)command besides -h/--help.  Adding or
# removing a flag means editing this table.
OPTION_SURFACE = {
    "": ["--version"],
    "l2": [],
    "l2 strategy": ["--arch", "--out", "--params"],
    "l2 metrics": ["--arch", "--out", "--params", "--threshold"],
    "l2 simulate": ["--arch", "--burn-in", "--horizon", "--nonneg", "--out", "--params",
                    "--quantiles", "--replications", "--seed", "--series-csv",
                    "--thresholds"],
    "lti": [],
    "lti build": ["--L", "--out"],
    "lti h2": ["--alpha", "--gain", "--out"],
    "lti mpe": ["--L", "--damping", "--max-iter", "--mode", "--out", "--pricing", "--tol"],
    "lti pareto": ["--L", "--grid", "--out"],
    "lti operator": ["--L", "--alpha1", "--alpha2", "--budget", "--out", "--seed"],
}


def _option_table(parser, prefix=()):
    table = {" ".join(prefix): sorted(
        opt for action in parser._actions for opt in action.option_strings
        if opt not in ("-h", "--help")
    )}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                table.update(_option_table(sub, prefix + (name,)))
    return table


class TestOptionSurface:
    def test_matches_table(self):
        assert _option_table(_build_parser()) == OPTION_SURFACE

    @pytest.mark.parametrize("argv", [
        ["l2", "strategy", "--arch", "coop", "--params", PARAMS, "--rs-constant", "headline"],
        ["lti", "h2", "--gain", "gain.json", "--mismatch", "unmasked"],
        ["lti", "pareto", "--L", "2", "--out", "front.csv", "--tol-grad", "1e-6"],
    ])
    def test_retired_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class TestPerfbenchLookups:
    """Every library name the benchmark harness looks up exists, so a change
    that would break a benchmark run fails here first."""

    def test_traced_targets_resolve(self):
        spec = importlib.util.spec_from_file_location("perfbench_child",
                                                      PERFBENCH / "child.py")
        child = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(child)
        assert child.TARGETS
        for module, attr, _, _ in child.TARGETS:
            assert callable(getattr(importlib.import_module(module), attr)), (module, attr)

    def test_run_lookups_resolve(self):
        text = (PERFBENCH / "run.py").read_text()
        names = set(re.findall(r"\bog\.(\w+)", text))
        assert names
        for name in names:
            assert hasattr(og, name), name
        assert callable(og.simulate._l2_kernel)


NAN = float("nan")
INF = float("inf")


def _nan_params(**values):
    base = {"q1": 1, "q2": 0.9, "mu1": 15, "mu2": 15, "sigma1": 4, "sigma2": 4}
    return json.dumps({**base, **values})  # json.dumps spells nan as NaN


class TestNonFiniteInputs:
    """NaN and infinity are refused where each value enters the library,
    and the CLI reports them as validation errors."""

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: og.OperatorWeights(INF, 1.0), id="OperatorWeights-inf"),
        pytest.param(lambda: og.OperatorWeights(1.0, NAN), id="OperatorWeights-nan"),
        pytest.param(lambda: og.OutputWeights(NAN, 0.0, 0.0), id="OutputWeights-nan"),
        pytest.param(lambda: og.OutputWeights.normalized(INF, 1.0, 1.0),
                     id="OutputWeights.normalized-inf"),
        pytest.param(lambda: og.FixedPointConfig(tol=NAN), id="FixedPointConfig-tol-nan"),
        pytest.param(lambda: og.FixedPointConfig(tol=INF), id="FixedPointConfig-tol-inf"),
        pytest.param(lambda: og.MarketParamsL2(1.0, 0.5, mu1=NAN), id="MarketParamsL2-mu1-nan"),
        pytest.param(lambda: og.MarketParamsL2(1.0, 0.5, mu2=INF), id="MarketParamsL2-mu2-inf"),
        pytest.param(lambda: og.MarketParamsL2(1.0, 0.5, sigma1=NAN),
                     id="MarketParamsL2-sigma1-nan"),
        pytest.param(lambda: og.MarketParamsL2(1.0, 0.5, sigma2=INF),
                     id="MarketParamsL2-sigma2-inf"),
        pytest.param(lambda: og.RiskSensitivity(INF, 0.5), id="RiskSensitivity-theta-inf"),
        pytest.param(lambda: og.RiskSensitivity(NAN, 0.5), id="RiskSensitivity-theta-nan"),
        pytest.param(lambda: og.SimConfig(horizon=10, tail_thresholds=(50.0, NAN)),
                     id="SimConfig-threshold-nan"),
        pytest.param(lambda: og.risk_upper_bound(og.mpe_strategy(og.MarketParamsL2(1.0, 0.5)),
                                                 og.MarketParamsL2(1.0, 0.5), NAN),
                     id="risk_upper_bound-M-nan"),
        pytest.param(lambda: og.ArrivalSpec(q=(NAN,)).resolved(2), id="ArrivalSpec-q-nan"),
        pytest.param(lambda: og.ArrivalSpec(q=(0.5,), mu=(INF,)).resolved(2),
                     id="ArrivalSpec-mu-inf"),
        pytest.param(lambda: og.ArrivalSpec(q=(0.5,), sigma=(NAN,)).resolved(2),
                     id="ArrivalSpec-sigma-nan"),
        pytest.param(lambda: og.ArrivalSpec(q=(0.5, 0.5)).resolved(3),
                     id="ArrivalSpec-q-wrong-length"),
    ])
    def test_library_raises_invalid_params(self, make):
        with pytest.raises(og.InvalidParamsError):
            make()

    @pytest.mark.parametrize("argv", [
        pytest.param(["lti", "operator", "--L", "2", "--alpha1", "nan", "--alpha2", "1",
                      "--budget", "1"], id="operator-alpha1-nan"),
        pytest.param(["lti", "pareto", "--L", "2", "--grid", "[[NaN, 1, 1]]", "--out", "{out}"],
                     id="pareto-grid-nan"),
        pytest.param(["lti", "mpe", "--L", "3", "--tol", "nan"], id="mpe-tol-nan"),
        pytest.param(["l2", "strategy", "--arch", "rs:inf,0.5", "--params", _nan_params()],
                     id="strategy-rs-theta-inf"),
        pytest.param(["l2", "metrics", "--arch", "nc", "--params", _nan_params(sigma1=NAN)],
                     id="metrics-sigma1-nan"),
        pytest.param(["l2", "metrics", "--arch", "nc", "--params", _nan_params(mu1=NAN)],
                     id="metrics-mu1-nan"),
        pytest.param(["l2", "simulate", "--arch", "nc", "--params", _nan_params(),
                      "--horizon", "100", "--thresholds", "nan"], id="simulate-thresholds-nan"),
    ])
    def test_cli_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "front.csv"
        assert main([str(out) if a == "{out}" else a for a in argv]) == 2
        assert "validation error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("arch, sigma1", [("rs:-1e300,0.5", 1.0), ("rs:-1,0.5", 1e200)],
                             ids=["theta-1e300", "sigma1-1e200"])
    def test_risk_sensitive_overflow_exits_2(self, capsys, arch, sigma1):
        # finite, but theta*sigma1^2 or the exact roots leave the float range
        params = json.dumps({"q1": 1, "q2": 0.5, "mu1": 0, "mu2": 0,
                             "sigma1": sigma1, "sigma2": 1})
        assert main(["l2", "strategy", "--arch", arch, "--params", params]) == 2
        assert "overflow a float" in capsys.readouterr().err

    def test_metrics_reports_non_finite_threshold_as_bound_error(self, capsys):
        argv = ["l2", "metrics", "--arch", "nc", "--params", _nan_params(), "--threshold"]
        assert main(argv + ["nan"]) == 0
        bound = json.loads(capsys.readouterr().out)["risk_bound"]
        assert bound["error"] == "threshold M=nan must be finite"


# Every defaulted parameter of a public function and every defaulted field
# of a public dataclass, by public module.  Adding or removing a library
# knob means editing this table.
KNOB_SURFACE = {
    "cli.main": ["argv"],
    "fixed_point.FixedPointConfig": ["tol", "max_iter", "damping", "sweep"],
    "fixed_point.f_map": ["sweep"],
    "fixed_point.solve_mpe": ["cfg"],
    "operator_design.evaluate_pricing": ["fp_cfg"],
    "operator_design.optimize_pricing": ["seed"],
    "pareto.objective_and_gradient": ["margin"],
    "simulate.ArrivalSpec": ["mu", "sigma"],
    "simulate.SimConfig": ["burn_in", "replications", "seed", "nonneg_demand",
                           "tail_thresholds", "quantile_levels", "keep_series"],
    "statespace.solve_lyapunov": ["margin"],
    "strategies.MarketParamsL2": ["mu1", "mu2", "sigma1", "sigma2"],
}


def _knob_table():
    table = {}
    for info in pkgutil.iter_modules(og.__path__):
        if info.name.startswith("_"):
            continue
        mod = importlib.import_module(f"oligosched.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if dataclasses.is_dataclass(obj):
                knobs = [f.name for f in dataclasses.fields(obj)
                         if f.default is not dataclasses.MISSING
                         or f.default_factory is not dataclasses.MISSING]
            elif inspect.isfunction(obj):
                knobs = [n for n, prm in inspect.signature(obj).parameters.items()
                         if prm.default is not prm.empty]
            else:
                continue
            if knobs:
                table[f"{info.name}.{name}"] = knobs
    return table


class TestKnobSurface:
    def test_matches_table(self):
        assert _knob_table() == KNOB_SURFACE
