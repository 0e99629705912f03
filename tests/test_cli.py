"""Command-line surface: outputs, formats, exit codes, reproducibility."""
import argparse
import ast
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
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oligosched as og
from conftest import subprocess_env, traced_peak
from oligosched import _render, _textio
from oligosched import cli
from oligosched.cli import _build_parser, main

PARAMS = '{"q1":1,"q2":0.75,"mu1":0,"mu2":0,"sigma1":1,"sigma2":1}'
PD_PARAMS = '{"q1":0.6,"q2":0.6,"mu1":15,"mu2":15,"sigma1":6,"sigma2":6}'
THIRD = _render.ROWS // 3  # rows per chunk on three workers (8,192)


def assert_same_text(text, expected):
    """``text == expected``, failing fast: on a mismatch it reports the two
    lengths and the first differing offset with 40 characters of context
    either side, where pytest's rewritten ``==`` would build a difflib
    diff of megabytes of text, which can run for minutes."""
    if text != expected:
        at, hi = 0, min(len(text), len(expected))  # bisect the common prefix
        while at < hi:
            mid = (at + hi + 1) // 2
            if text[:mid] == expected[:mid]:
                at = mid
            else:
                hi = mid - 1
        around = slice(max(0, at - 40), at + 40)
        pytest.fail(f"texts differ: lengths {len(text)} and {len(expected)}, first at offset "
                    f"{at}: {text[around]!r} != {expected[around]!r}")


def row_csv_oracle(header, rows):
    """The former per-row CSV writer: every value through _textio.fmt."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_textio.fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def single_string_csv_oracle(header, columns):
    """The former csv_text: each block of 65,536 rows formatted by one
    ``%`` format, then joined in one string."""
    block = 65536
    line = ",".join("%d" if col.dtype.kind in "iu" else "%.17g" for col in columns)
    lines = [",".join(header)]
    for i in range(0, len(columns[0]), block):
        block_rows = list(zip(*(col[i:i + block].tolist() for col in columns)))
        text = "\n".join([line] * len(block_rows)) % tuple(itertools.chain(*block_rows))
        lines.append(text.replace("nan", "NaN").replace("inf", "Infinity"))
    lines.append("")
    return "\n".join(lines)


def recursive_dumps_oracle(obj, level=0):
    """The former dumps: every array through tolist, every float through
    _textio.fmt, one call per value."""
    pad = "  " * level
    pad_in = "  " * (level + 1)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _textio.fmt(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{pad_in}{json.dumps(str(k), ensure_ascii=False)}: "
                 f"{recursive_dumps_oracle(v, level + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{pad_in}{recursive_dumps_oracle(v, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def adversarial_doubles():
    """Doubles where a decimal rendering can go wrong, both signs."""
    k = np.arange(-300, 301)
    powers = 10.0 ** np.arange(-10, 25)
    up, down = [powers], [powers]  # up to 40 ulp either side of each power of ten
    for _ in range(40):
        up.append(np.nextafter(up[-1], np.inf))
        down.append(np.nextafter(down[-1], 0.0))
    special = [9.99999999999999999, 0.000999999999999999999, 99999.9999999999999999,
               1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0), 1e16,
               np.nextafter(1e16, 0.0), np.nextafter(1e16, np.inf), 1e17,
               np.nextafter(1e17, 0.0), 2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** 54 + 4,
               5e-324, 1e-310, 2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0),
               1.7976931348623157e308, 0.0, np.nan, np.inf, 0.1, 0.2, 0.3, 1 / 3, 2 / 3]
    values = np.concatenate([1 + k * 2.0 ** -17, 9 + k * 2.0 ** -16, 123 + k * 2.0 ** -10,
                             *up, *down, special])
    return np.concatenate([values, -values])


def scipy_modules_after(code, cwd=None):
    """Sorted names of the scipy modules loaded once a fresh interpreter
    has run ``code``."""
    script = (f"import json, sys\n{code}\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    out = subprocess.run([sys.executable, "-c", script], env=subprocess_env(), cwd=cwd,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


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
        assert manifest["numpy"] == np.__version__

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
        assert manifest["numpy"] == np.__version__
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text() == record

    def test_simulate_manifest_records_backend(self, tmp_path):
        out = tmp_path / "a.json"
        assert main(
            ["l2", "simulate", "--arch", "coop", "--params", PD_PARAMS,
             "--horizon", "2000", "--seed", "3", "--thresholds", "45,,50", "--out", str(out)]
        ) == 0
        manifest = json.loads((tmp_path / "a.json.manifest.json").read_text())
        assert manifest["sim_backend"] == "numpy"
        assert "threads" not in manifest["config"]
        # the levels the record's tail_probs and quantiles were computed at
        record = json.loads(out.read_text())
        assert manifest["config"]["tail_thresholds"] == [45.0, 50.0]
        assert list(record["tail_probs"]) == ["45", "50"]
        levels = manifest["config"]["quantile_levels"]
        assert levels == list(og.SimConfig.quantile_levels)
        assert list(record["quantiles"]) == [f"{q:g}" for q in levels]

    def test_series_csv_columns_match_row_text(self):
        n = 8 * THIRD + 1000  # full chunks and a partial one
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
        assert_same_text(text, row_csv_oracle(header, rows))
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

    @pytest.mark.parametrize("value, spelled", [
        (1.5, "1.5"), (0.1, "0.10000000000000001"), (float("nan"), "NaN"), (3, "3"),
        (True, "true"),
    ])
    def test_dumps_zero_dim_array_is_its_scalar(self, value, spelled):
        assert _textio.dumps(np.array(value)) == _textio.dumps(value) == spelled
        assert _textio.dumps({"v": np.array(value)}) == '{\n  "v": ' + spelled + "\n}"

    @pytest.mark.parametrize("rows", [0, 3 * 65536])
    def test_atomic_write_round_trips_csv(self, tmp_path, rows):
        # 196,608 rows are over 4 MB, written as one string
        U = np.random.default_rng(4).standard_normal(rows)
        text = _textio.csv_text(["t", "U"], (np.arange(rows), U))
        assert len(text) > 4e6 or rows == 0
        path = tmp_path / "series.csv"
        _textio.atomic_write_text(str(path), text)
        assert path.read_bytes() == text.encode()

    @pytest.mark.parametrize("rows", [0, 1, 8 * THIRD, 8 * THIRD + 1, 24 * THIRD])
    def test_streamed_csv_matches_single_string_at_block_boundaries(self, tmp_path,
                                                                    monkeypatch, rows):
        # on three workers the streamed blocks are the header line, then one
        # block per chunk of THIRD rows, each equal to its rows' oracle text
        monkeypatch.setattr(_render, "_cpus", lambda: 3)
        rng = np.random.default_rng(rows)
        t = np.arange(rows)
        U = rng.standard_normal(rows)
        x = np.round(5.0 * U)
        special = [np.nan, np.inf, -np.inf, -0.0]
        for edge in range(THIRD, rows, THIRD):  # both sides of each chunk edge
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
        oracle = row_csv_oracle(header, rows_iter)
        assert_same_text(streamed, oracle)
        assert_same_text(streamed, single_string_csv_oracle(header, columns))
        assert_same_text(streamed, _textio.csv_text(header, columns))
        blocks = list(_textio.csv_blocks(header, columns))
        lines = oracle.splitlines(keepends=True)
        assert len(blocks) == 1 + -(-rows // THIRD)
        assert blocks[0] == lines[0]
        for k, block in enumerate(blocks[1:]):
            assert_same_text(block, "".join(lines[1 + k * THIRD:1 + (k + 1) * THIRD]))
        if rows > THIRD:
            assert blocks[1].endswith(f"\n{THIRD - 1},-0,NaN,{(THIRD - 1) % 3}\n")
            assert blocks[2].startswith(f"{THIRD},-0,NaN,{THIRD % 3}\n")

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
        # scipy.special alone costs about 0.2 s and 24 MB of start-up
        assert scipy_modules_after("import oligosched.cli") == []

    @pytest.mark.parametrize("argv", [
        pytest.param(["l2", "strategy", "--arch", arch, "--params", PARAMS], id=arch)
        for arch in ("cong:0.5", "rs:-0.1,0.5")
    ] + [pytest.param(["l2", "metrics", "--arch", "nc", "--threshold", "3", "--params", PARAMS],
                      id="metrics-threshold")])
    def test_root_selection_strategies_load_no_scipy(self, argv):
        # both root selections, and the tail bound of --threshold, need only numpy
        assert scipy_modules_after(f"from oligosched.cli import main; main({argv!r})") == []

    @pytest.mark.parametrize("extra", [
        pytest.param(["--series-csv", "s.csv"], id="series-csv"),
        pytest.param([], id="statistics"),
        pytest.param(["--nonneg"], id="nonneg"),
    ])
    def test_simulate_loads_no_scipy(self, tmp_path, extra):
        # the normal draws are the library's own inverse CDF
        argv = ["l2", "simulate", "--arch", "nc", "--params", PD_PARAMS, "--horizon", "3000",
                "--seed", "5", "--out", "r.json", *extra]
        code = f"from oligosched.cli import main; assert main({argv!r}) == 0"
        assert scipy_modules_after(code, cwd=tmp_path) == []
        assert (tmp_path / "r.json").exists()

    def test_general_simulator_loads_no_scipy(self):
        code = (
            "import oligosched as og; ss = og.build_state_space(3); "
            "og.simulate_general(og.make_f_br(0.3, ss), ss, og.ArrivalSpec(q=(0.7,)), "
            "og.SimConfig(horizon=2000, replications=2, seed=5))"
        )
        assert scipy_modules_after(code) == []

    def test_mixture_tail_loads_no_scipy(self):
        code = (
            "import oligosched as og; "
            "p = og.MarketParamsL2(1.0, 0.6, 0.0, 0.0, 1.0, 1.0); "
            "s = og.LinearStrategyL2(0.5, 0.5, 0.0); "
            "assert 0.0 < og.mixture_tail_probability(s, p, 2.0) < 1.0"
        )
        assert scipy_modules_after(code) == []

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


class TestTextRenderer:
    """The numpy renderer behind csv_text and dumps, byte for byte against
    the per-value oracles."""

    @staticmethod
    def assert_csv_matches(columns, by_row=True):
        # row_csv_oracle spells integers through float, exact below 2^53
        header = [f"c{k}" for k in range(len(columns))]
        text = _textio.csv_text(header, columns)
        if by_row:
            assert_same_text(text, row_csv_oracle(header, zip(*(col.tolist() for col in columns))))
        assert_same_text(text, single_string_csv_oracle(header, columns))
        assert_same_text("".join(_textio.csv_blocks(header, columns)), text)

    def test_adversarial_doubles(self):
        U = adversarial_doubles()
        self.assert_csv_matches((np.arange(len(U)), U))
        assert _textio.dumps(U) == recursive_dumps_oracle(U)
        text = _textio.csv_text(None, [np.array([9.99999999999999999, 0.000999999999999999999,
                                                 99999.9999999999999999, -0.0, 1e16, 1e17])])
        assert text == "10\n0.001\n100000\n-0\n10000000000000000\n1e+17\n"

    def test_halfway_ties_round_to_even(self):
        # 1 + 2^-17 = 1.00000762939453125 has 18 significant digits
        text = _textio.csv_text(None, [np.array([1 + 2.0 ** -17, 1 + 3 * 2.0 ** -17])])
        assert text == "1.0000076293945312\n1.0000228881835938\n"

    @pytest.mark.parametrize("bias", [-1e-9, 1e-9])
    def test_exponent_estimate_one_off_is_corrected(self, monkeypatch, bias):
        # a log10 one decade low at a power of ten gives N = 10^17, which
        # rolls over; one decade high gives N < 10^16, which is re-scaled
        real = np.log10
        monkeypatch.setattr(np, "log10", lambda a: real(a) + bias)
        U = adversarial_doubles()
        self.assert_csv_matches((U,))

    def test_log_uniform_doubles(self):
        rng = np.random.default_rng(17)
        U = 10.0 ** rng.uniform(-8, 20, 100_000) * rng.choice([-1.0, 1.0], 100_000)
        self.assert_csv_matches((U, np.round(U)))
        assert _textio.dumps(U[:5000]) == recursive_dumps_oracle(U[:5000])

    @pytest.mark.parametrize("column", [
        pytest.param(np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1, 1,
                               10 ** 16 - 1, 10 ** 16, -10 ** 16 + 1, -10 ** 16, 9999, 10000]),
                     id="int64"),
        pytest.param(np.array([2 ** 63, 2 ** 64 - 1, 0, 10 ** 16 - 1, 10 ** 16], np.uint64),
                     id="uint64"),
        pytest.param(np.arange(256, dtype=np.uint8), id="uint8"),
        pytest.param(np.arange(-128, 128, dtype=np.int8), id="int8"),
        pytest.param(np.array([np.iinfo(np.int32).min, -1, 0, np.iinfo(np.int32).max],
                              np.int32), id="int32"),
        pytest.param(np.array([True, False]), id="bool"),
    ])
    def test_integer_columns(self, column):
        self.assert_csv_matches((column, column.astype(float)),
                                by_row=bool(np.all(np.abs(column.astype(float)) < 2.0 ** 53)))
        if column.dtype.kind != "b":  # bool arrays stay true/false in JSON
            assert _textio.dumps(column) == recursive_dumps_oracle(column)

    @pytest.mark.parametrize("rows", [0, 1, 2, 2 * THIRD - 1, 2 * THIRD, 2 * THIRD + 1,
                                      4 * THIRD + 3, 8 * THIRD - 1, 8 * THIRD + 1])
    def test_sub_block_and_block_boundaries(self, monkeypatch, rows):
        # on three workers: chunk edges every THIRD rows, ROWS = 3 * THIRD
        # rows rendered at once, and the stream 6 chunks ahead of its consumer
        monkeypatch.setattr(_render, "_cpus", lambda: 3)
        rng = np.random.default_rng(rows)
        t = np.arange(rows)
        U = rng.standard_normal(rows) * 10.0 ** rng.integers(-8, 20, rows)
        for edge in (2 * THIRD, 3 * THIRD, 4 * THIRD, 6 * THIRD, 8 * THIRD):
            U[max(0, edge - 2):edge + 2] = [np.nan, -0.0, 1e300, -np.inf][:len(U[edge - 2:edge + 2])]
        self.assert_csv_matches((t, U, np.round(U), (t % 4).astype(np.uint8)))

    @pytest.mark.parametrize("shape", [(1,), (3,), (1, 1), (2, 3), (2, 1, 3), (3, 2, 2, 2),
                                       (0,), (2, 0), (40, 500)])
    @pytest.mark.parametrize("level", [0, 1, 3])
    def test_dumps_arrays_match_recursive_oracle(self, shape, level):
        rng = np.random.default_rng(len(shape) + level)
        size = int(np.prod(shape))
        values = adversarial_doubles()
        A = rng.choice(values, size).reshape(shape)
        with np.errstate(over="ignore"):
            A32 = A.astype(np.float32)
        for arr in (A, A32, rng.integers(-10 ** 6, 10 ** 6, shape), A > 0, A.T):
            assert _textio.dumps(arr, level) == recursive_dumps_oracle(arr, level)
        record = {"gain": A, "nested": {"rows": [A, np.arange(3)], "x": np.float64(-0.0)},
                  "empty": {}}
        assert _textio.dumps(record, level) == recursive_dumps_oracle(record, level)
        blocks = list(_textio.dumps_blocks(record, level))
        assert len(blocks) == len(record) + 1  # one per item, then the closing brace
        assert "".join(blocks) == recursive_dumps_oracle(record, level)
        assert list(_textio.dumps_blocks({}, level)) == ["{}"]

    def test_renderer_loads_on_first_array(self):
        # parsing _render is about 2 ms of start-up that --version and
        # commands writing no array never need
        script = ("import sys, numpy as np, oligosched.cli as c\n"
                  "print('oligosched._render' in sys.modules)\n"
                  "c._textio.dumps({'x': 1.5, 'y': [2]})\n"
                  "print('oligosched._render' in sys.modules)\n"
                  "c._textio.dumps(np.ones(2))\n"
                  "print('oligosched._render' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", script], env=subprocess_env(),
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "False", "True"]

    @staticmethod
    def working_set_peak(n):
        """Traced peak bytes of streaming the 4-column CSV of ``n`` series
        rows; the columns are made before tracing starts."""
        rng = np.random.default_rng(8)
        t = np.arange(n)
        U = 15.0 + 8.0 * rng.standard_normal(n)
        columns = (t, U, np.round(U), (t % 4).astype(np.uint8))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            size = sum(len(b) for b in _textio.csv_blocks(["t", "U", "x_sum", "o_flags"], columns))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert size > n * 30  # the text itself is ~32 bytes a row
        return peak

    def assert_working_set_bounded(self, monkeypatch, workers):
        # about 16 and 33 MB of text are written through a working set of at
        # most 6 MB (4.3-5.4 MB traced on 1, 2 and 8 workers): the
        # rendering's temporaries and the text rendered ahead depend on
        # ROWS, not on the length of the series or the worker count
        monkeypatch.setattr(_render, "_cpus", lambda: workers)
        short, long = self.working_set_peak(8 * 65536), self.working_set_peak(16 * 65536)
        assert short < 6e6 and long < 6e6, (short, long)
        assert long < short + 1e6, (short, long)

    def test_streaming_working_set_is_bounded(self, monkeypatch):
        self.assert_working_set_bounded(monkeypatch, 1)
        self.assert_working_set_bounded(monkeypatch, 2)

    def test_streaming_working_set_is_bounded_on_eight_workers(self, monkeypatch):
        self.assert_working_set_bounded(monkeypatch, 8)

    @staticmethod
    def chunk_edge_columns(workers):
        """(t, U, i) rows of more than 2 * ``workers`` chunks, so that the
        stream runs its full render-ahead, with nan, +-inf, -0, 1e-5, 1e16
        and integers beyond 1e16 on both sides of every chunk edge of
        ``workers`` workers."""
        size = _render.ROWS // workers
        n = 3 * _render.ROWS + 5
        rng = np.random.default_rng(workers)
        t = np.arange(n)
        U = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 20, n)
        i = rng.integers(-10 ** 6, 10 ** 6, n)
        for edge in range(size, n, size):
            if 3 <= edge <= n - 3:
                U[edge - 3:edge + 3] = [np.nan, 1e-5, -0.0, np.inf, 1e16, -np.inf]
                i[edge - 2:edge + 2] = [10 ** 16, -10 ** 17 - 3, 2 ** 62, -1]
        return t, U, i

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_worker_count_leaves_bytes_unchanged(self, monkeypatch, workers):
        monkeypatch.setattr(_render, "_cpus", lambda: workers)
        t, U, i = self.chunk_edge_columns(workers)
        self.assert_csv_matches((t, U, np.round(U), i, (t % 4).astype(np.uint8)), by_row=False)
        m = 2 * _render.ROWS + 8
        assert_same_text(_textio.dumps(U[:m].reshape(-1, 4)),
                         recursive_dumps_oracle(U[:m].reshape(-1, 4)))
        assert_same_text(_textio.dumps(i[:m]), recursive_dumps_oracle(i[:m]))

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_slow_consumer_gets_every_chunk_in_order(self, monkeypatch, workers):
        # the consumer sleeps on every block while the pool renders ahead;
        # it still gets each chunk once, in row order, and the pool starts
        # no chunk more than 2 * workers ahead of it
        monkeypatch.setattr(_render, "_cpus", lambda: workers)
        real, started = _render._compact, []

        def compact(cols, n):
            started.append(n)
            return real(cols, n)

        monkeypatch.setattr(_render, "_compact", compact)
        t, U, _ = self.chunk_edge_columns(workers)
        columns = (t, U, np.round(U), (t % 4).astype(np.uint8))
        header = ["t", "U", "x_sum", "o_flags"]
        blocks = []
        for block in _textio.csv_blocks(header, columns):
            assert len(started) <= len(blocks) + 2 * workers
            blocks.append(block)
            time.sleep(0.01)
        assert len(blocks) == 1 + -(-len(t) // (_render.ROWS // workers)) == 1 + len(started)
        text = "".join(blocks)
        assert_same_text(text, row_csv_oracle(header, zip(*(col.tolist() for col in columns))))
        assert_same_text(text, _textio.csv_text(header, columns))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_chunk_leaves_target_untouched(self, tmp_path, monkeypatch, workers):
        # the failing chunk lies past the first 2 * ROWS rows, after the
        # first chunks are written
        monkeypatch.setattr(_render, "_cpus", lambda: workers)
        real = _render._float_fill

        def fill(v, data):
            if np.any(v == 123.25):
                raise ArithmeticError("chunk failed")
            real(v, data)

        monkeypatch.setattr(_render, "_float_fill", fill)
        n = 4 * _render.ROWS
        U = np.linspace(0.0, 1.0, n)
        U[2 * _render.ROWS + THIRD + 5] = 123.25
        path = tmp_path / "series.csv"
        path.write_text("old contents\n")
        with pytest.raises(ArithmeticError, match="chunk failed"):
            _textio.atomic_write_text(str(path), _textio.csv_blocks(["t", "U"], (np.arange(n), U)))
        assert path.read_text() == "old contents\n"
        assert os.listdir(tmp_path) == ["series.csv"]

    @pytest.mark.parametrize("fails", ["chunk", "write"])
    def test_failed_write_stops_the_render_pool(self, tmp_path, monkeypatch, fails):
        # a chunk that raises ends the stream itself; a write that fails
        # leaves it suspended with chunks rendered ahead, and
        # atomic_write_text closes it: either way the pool threads have
        # ended when the error reaches the caller, though the caller still
        # holds the stream
        monkeypatch.setattr(_render, "_cpus", lambda: 3)
        real = _render._compact

        def compact(cols, n):
            text = real(cols, n)
            if text.startswith(f"{3 * THIRD},"):
                if fails == "chunk":
                    raise ArithmeticError("chunk failed")
                return "\ud800"  # a lone surrogate: no codec can write it
            return text

        monkeypatch.setattr(_render, "_compact", compact)
        n = 4 * _render.ROWS
        path = tmp_path / "series.csv"
        path.write_text("old contents\n")
        before = threading.active_count()
        stream = _textio.csv_blocks(["t", "U"], (np.arange(n), np.linspace(0.0, 1.0, n)))
        with pytest.raises(ArithmeticError if fails == "chunk" else UnicodeEncodeError):
            _textio.atomic_write_text(str(path), stream)
        assert threading.active_count() == before
        assert path.read_text() == "old contents\n"
        assert os.listdir(tmp_path) == ["series.csv"]
        assert next(stream, None) is None

    def test_pool_lives_for_one_call(self, monkeypatch):
        # chunks render off the calling thread, and every pool thread has
        # ended when csv_text returns; a single chunk renders in the caller
        monkeypatch.setattr(_render, "_cpus", lambda: 2)
        real, threads = _render._compact, []

        def compact(cols, n):
            threads.append(threading.current_thread())
            return real(cols, n)

        monkeypatch.setattr(_render, "_compact", compact)
        before = threading.active_count()
        U = np.random.default_rng(3).standard_normal(3 * _render.ROWS)
        text = _textio.csv_text(None, [U])
        assert threading.active_count() == before
        assert not any(thread.is_alive() for thread in threads)
        assert len(threads) == 6 and threading.main_thread() not in threads
        assert 1 <= len(set(threads)) <= 2
        assert text == "".join(_textio.fmt(u) + "\n" for u in U.tolist())
        del threads[:]
        _textio.csv_text(None, [U[:_render.ROWS // 2]])
        assert threads == [threading.main_thread()]


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

    def test_pareto_gains_are_written_one_point_at_a_time(self, tmp_path, monkeypatch):
        # at L = 14 the gains file holds 25 points of 105 x 105 gains, about
        # 8 MB; writing it holds one point's text, not the whole file
        points, trace_front = [], cli.trace_front

        def cached(grid, ss):
            if not points:
                points.extend(trace_front(grid, ss))
            return points

        monkeypatch.setattr(cli, "trace_front", cached)
        argv = ["lti", "pareto", "--L", "14", "--out", str(tmp_path / "front.csv")]
        peak = traced_peak(lambda: main(argv), lambda: main(argv))
        text = (tmp_path / "front.csv.gains.json").read_text()
        assert text == _textio.dumps({f"point_{i}": p.gain.F for i, p in enumerate(points)}) + "\n"
        assert peak < len(text) / 2

    def test_mpe_command(self, capsys):
        assert main(["lti", "mpe", "--L", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["residual"] <= 1e-9
        assert data["gain"][2][2] == pytest.approx(0.414213562, abs=1e-6)

    def test_mpe_nonconvergence_exit_code(self, capsys):
        assert main(["lti", "mpe", "--L", "3", "--max-iter", "2"]) == 3
        assert "residual" in capsys.readouterr().err

    def test_mpe_manifest_records_the_second_order_certificate(self, tmp_path, capsys):
        out = tmp_path / "mpe.json"
        assert main(["lti", "mpe", "--L", "2", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "mpe.json.manifest.json").read_text())
        certificates = manifest["certificates"]
        assert certificates["stability_margin"] == json.loads(out.read_text())["stability_margin"]
        assert certificates["min_denominator"] == pytest.approx(2.0 + np.sqrt(2.0), abs=1e-9)
        # negated marginal cost has the same fixed point with every
        # denominator negated: no equilibrium, exit 3
        pricing = json.dumps({"q1": [0, 0, 0], "q2": [-1, -1, -1]})
        capsys.readouterr()
        assert main(["lti", "mpe", "--L", "2", "--pricing", pricing]) == 3
        assert "no equilibrium" in capsys.readouterr().err

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
            assert set(cert) == {"lower_bound", "gap"}
            assert abs(cert["gap"]) <= og.pareto._TOL_GAP * cert["lower_bound"] + 1e-14

    def test_pareto_without_synthesized_weight_exits_3(self, tmp_path, capsys):
        # a2 = 0 < r: the only weight of the grid has no stabilizing optimum
        argv = ["lti", "pareto", "--L", "3", "--grid", "[[1,0,1]]",
                "--out", str(tmp_path / "front.csv")]
        with pytest.warns(UserWarning, match="K = 0"):
            assert main(argv) == 3
        assert "no weight of the 1-weight grid synthesized" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_pareto_loads_no_scipy(self, tmp_path):
        # synthesis needs only numpy; scipy.linalg alone costs about 0.3 s
        code = ("from oligosched.cli import main; "
                f"main(['lti', 'pareto', '--L', '3', '--out', {str(tmp_path / 'front.csv')!r}])")
        assert scipy_modules_after(code) == []

    def test_operator_and_mpe_load_no_scipy(self):
        # the pricing search and the equilibrium solve need only numpy;
        # scipy.optimize alone costs about 0.7 s and 42 MB
        code = (
            "from oligosched.cli import main; "
            "main(['lti', 'operator', '--L', '2', '--alpha1', '1', '--alpha2', '1', "
            "'--budget', '50']); "
            "main(['lti', 'mpe', '--L', '3'])"
        )
        assert scipy_modules_after(code) == []

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
            "singular-row": 0, "not-converged": 0, "unstable": 0, "not-an-equilibrium": 0
        }
        assert telemetry["inner_sweeps"] >= data["evaluations"]

    def test_operator_manifest_records_bound_and_gap(self, tmp_path):
        out = tmp_path / "operator.json"
        assert main(["lti", "operator", "--L", "3", "--alpha1", "1", "--alpha2", "1",
                     "--budget", "5", "--out", str(out)]) == 0
        objective = json.loads(out.read_text())["objective"]
        telemetry = json.loads(
            (tmp_path / "operator.json.manifest.json").read_text()
        )["telemetry"]
        assert telemetry["lower_bound"] == pytest.approx(1.5 * (1.0 + 5 ** 0.5), rel=1e-15)
        assert telemetry["gap"] == objective - telemetry["lower_bound"]
        assert telemetry["colsum_dev"] > 0.0

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
        pytest.param("[[1e308]]", id="overflowing-h2-report"),
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

    def test_missing_pricing_key_is_validation_error(self, capsys):
        assert main(["lti", "mpe", "--L", "2", "--pricing", '{"q1": [0, 0, 0]}']) == 2
        assert "validation error: missing pricing keys: ['q2']" in capsys.readouterr().err

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
        # normal draws round through numpy's SIMD log and sqrt
        assert manifest["numpy"] == np.__version__


class TestModuleEntry:
    """Under ``python -m oligosched.cli`` the module runs as ``__main__``; the
    handlers and ``main`` read the library's names, error classes included,
    off that module."""

    @pytest.mark.parametrize("argv, code, message", [
        (["l2", "strategy", "--arch", "bogus", "--params", PARAMS], 2,
         "validation error: unknown arch 'bogus'"),
        (["lti", "pareto", "--L", "2", "--grid", "[[1,0,1]]", "--out", "f.csv"], 3,
         "convergence failure: no weight of the 1-weight grid synthesized"),
    ], ids=["l2-strategy", "lti-pareto"])
    def test_errors_map_to_exit_codes(self, tmp_path, argv, code, message):
        proc = subprocess.run([sys.executable, "-m", "oligosched.cli", *argv],
                              env=subprocess_env(), cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr[-500:]
        assert message in proc.stderr
        assert list(tmp_path.iterdir()) == []


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

    def test_help_describes_exit_codes_seed_and_manifest(self):
        text = _build_parser().format_help()
        assert "Exit codes" in text and "OLIGO_SEED" in text and "manifest.json" in text
        for internal in ("_emit", "__getattr__", "_cli."):
            assert internal not in text, internal

    def test_defaults_are_library_defaults(self):
        ap = _build_parser()
        sim = ap.parse_args(["l2", "simulate", "--arch", "nc", "--params", PARAMS,
                             "--horizon", "10"])
        defaults = {f.name: f.default for f in dataclasses.fields(og.SimConfig)}
        for name in ("burn_in", "replications", "seed"):
            assert getattr(sim, name) == defaults[name], name
        levels = tuple(float(v) for v in sim.quantiles.split(","))
        assert levels == defaults["quantile_levels"]
        mpe = ap.parse_args(["lti", "mpe", "--L", "2"])
        cfg = og.FixedPointConfig()
        assert (mpe.tol, mpe.max_iter, mpe.damping) == (cfg.tol, cfg.max_iter, cfg.damping)

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


ROOT = Path(__file__).resolve().parent.parent


class TestDependencies:
    def test_third_party_imports_are_the_declared_dependencies(self):
        # every import in src/, at module level or inside a function
        tomllib = pytest.importorskip("tomllib")
        found = set()
        for path in sorted((ROOT / "src" / "oligosched").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    found.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    found.add(node.module.split(".")[0])
        third_party = found - set(sys.stdlib_module_names) - {"oligosched"}
        with open(ROOT / "pyproject.toml", "rb") as fh:
            deps = tomllib.load(fh)["project"]["dependencies"]
        declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in deps}
        assert third_party == declared == {"numpy"}


NAN = float("nan")
INF = float("inf")


def _nan_params(**values):
    base = {"q1": 1, "q2": 0.9, "mu1": 15, "mu2": 15, "sigma1": 4, "sigma2": 4}
    return json.dumps({**base, **values})  # json.dumps spells nan as NaN


class TestNonFiniteInputs:
    """NaN, infinity and counts or seeds that are not integers are refused
    where each value enters the library, and the CLI reports them as
    validation errors."""

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
        pytest.param(lambda: og.MarketParamsL2(1.0, 0.5, mu2=-1e155),
                     id="MarketParamsL2-mu2-square-overflows"),
        pytest.param(lambda: og.MarketParamsL2(1.0, 0.5, sigma2=1e155),
                     id="MarketParamsL2-sigma2-square-overflows"),
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
        pytest.param(lambda: og.SimConfig(horizon=1e4), id="SimConfig-horizon-float"),
        pytest.param(lambda: og.SimConfig(horizon=10, burn_in=1.0), id="SimConfig-burn_in-float"),
        pytest.param(lambda: og.SimConfig(horizon=10, replications=2.0),
                     id="SimConfig-replications-float"),
        pytest.param(lambda: og.SimConfig(horizon=10, seed=1.5), id="SimConfig-seed-float"),
        pytest.param(lambda: og.build_state_space(2.0), id="build_state_space-L-float"),
        pytest.param(lambda: og.FixedPointConfig(max_iter=10.5),
                     id="FixedPointConfig-max_iter-float"),
        pytest.param(lambda: og.optimize_pricing(og.OperatorWeights(1.0, 1.0),
                                                 og.build_state_space(2), budget=10.5),
                     id="optimize_pricing-budget-float"),
        pytest.param(lambda: og.optimize_pricing(og.OperatorWeights(1.0, 1.0),
                                                 og.build_state_space(2), budget=1, seed=3.7),
                     id="optimize_pricing-seed-float"),
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
        pytest.param(["l2", "simulate", "--arch", "nc", "--params", PARAMS, "--horizon", "100",
                      "--thresholds", "30.0000001,30.0000004"], id="simulate-thresholds-one-key"),
        pytest.param(["l2", "simulate", "--arch", "nc", "--params", PARAMS, "--horizon", "100",
                      "--quantiles", "0.5,0.50000001"], id="simulate-quantiles-one-key"),
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

    @pytest.mark.parametrize("arch", ["nc", "coop", "cong:0.5", "k:3"])
    @pytest.mark.parametrize("key", ["mu1", "sigma1"])
    def test_metrics_overflowing_moment_exits_2(self, capsys, arch, key):
        # finite, but the stationary moments square it past the float range
        params = {"q1": 1, "q2": 0.5, "mu1": 0, "mu2": 0, "sigma1": 1, "sigma2": 1}
        params[key] = 1e200
        assert main(["l2", "metrics", "--arch", arch, "--params", json.dumps(params)]) == 2
        err = capsys.readouterr().err
        assert "validation error" in err and f"{key}=1e+200" in err

    def test_params_integer_beyond_float_exits_2(self, capsys):
        params = _nan_params().replace('"sigma1": 4', '"sigma1": 1' + "0" * 400)
        assert main(["l2", "metrics", "--arch", "nc", "--params", params]) == 2
        assert "params values must be numbers" in capsys.readouterr().err

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
    "simulate.ArrivalSpec": ["mu", "sigma"],
    "simulate.SimConfig": ["burn_in", "replications", "seed", "nonneg_demand",
                           "tail_thresholds", "quantile_levels", "keep_series"],
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


class TestBlasThreads:
    """``import oligosched`` before numpy defaults OpenBLAS to one thread,
    never over a count the user set, and every manifest records the count."""

    @staticmethod
    def _run(code, **env):
        return subprocess.run([sys.executable, "-c", code], env=subprocess_env(**env),
                              capture_output=True, text=True, check=True).stdout.split()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_default_is_one_thread(self):
        code = ("import os, oligosched; "
                "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))")
        assert self._run(code) == ["1", "1"]

    @pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_user_setting_is_kept(self, var):
        code = ("import os, oligosched; "
                "print(os.environ.get('OPENBLAS_NUM_THREADS'), os.environ.get('OMP_NUM_THREADS'))")
        expected = {"OPENBLAS_NUM_THREADS": ["2", "None"], "OMP_NUM_THREADS": ["None", "2"]}
        assert self._run(code, **{var: "2"}) == expected[var]

    def test_numpy_imported_first_is_left_alone(self):
        code = "import os, numpy, oligosched; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        assert self._run(code) == ["None"]

    @pytest.mark.parametrize("env, expected", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")],
                             ids=["default", "user-2"])
    def test_manifest_records_thread_count(self, tmp_path, env, expected):
        out = tmp_path / "ss.json"
        subprocess.run([sys.executable, "-m", "oligosched.cli", "lti", "build", "--L", "2",
                        "--out", str(out)], env=subprocess_env(**env), check=True)
        manifest = json.loads((tmp_path / "ss.json.manifest.json").read_text())
        assert manifest["blas_threads"] == expected

    @pytest.mark.parametrize("env, expected", [
        ({}, "default"),
        ({"OMP_NUM_THREADS": "3"}, "3"),
        ({"GOTO_NUM_THREADS": "4", "OMP_NUM_THREADS": "3"}, "4"),
        ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "3"}, "3"),
    ], ids=["none", "omp", "goto-before-omp", "empty-openblas"])
    def test_manifest_reads_first_variable_set(self, tmp_path, monkeypatch, env, expected):
        # in this process numpy was imported first, so the variables are as set here
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        out = tmp_path / "ss.json"
        assert main(["lti", "build", "--L", "1", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "ss.json.manifest.json").read_text())
        assert manifest["blas_threads"] == expected


_AS_CAP = 2 << 30  # address space of the capped interpreters below


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
class TestSizesBeyondMemory:
    """A size whose arrays cannot be allocated ends in InvalidParamsError
    (exit 2) before any long Python loop.  Each case runs in an interpreter
    whose address space is capped first, so a regression cannot take the
    machine's memory."""

    @staticmethod
    def _capped(body):
        code = ("import resource, sys\n"
                f"resource.setrlimit(resource.RLIMIT_AS, ({_AS_CAP}, {_AS_CAP}))\n" + body)
        return subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                              capture_output=True, text=True, timeout=120)

    @pytest.mark.parametrize("argv, what", [
        (["l2", "simulate", "--arch", "nc", "--params", PARAMS,
          "--horizon", "100000000000"], "pooled U"),
        (["l2", "simulate", "--arch", "nc", "--params", PARAMS, "--horizon", "10",
          "--replications", "1000000000000"], "pooled U"),
        (["lti", "mpe", "--L", "3000"], "R1"),
        (["lti", "build", "--L", "100000"], "R1"),
        (["lti", "build", "--L", "100000000000"], "R1"),
        (["lti", "operator", "--L", "100000", "--alpha1", "1", "--alpha2", "1",
          "--budget", "1"], "R1"),
    ], ids=["horizon", "replications", "mpe-L", "build-L", "build-L-beyond-int64",
            "operator-L"])
    def test_cli_exits_2(self, argv, what):
        proc = self._capped(f"from oligosched.cli import main\nsys.exit(main({argv!r}))\n")
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"validation error: {what} of shape" in proc.stderr
        assert "bytes" in proc.stderr

    @pytest.mark.parametrize("L, horizon, replications, what", [
        (3, 10, 10 ** 12, "pooled U"),
        (8, 10, 10 ** 6, "chunk Z"),  # the pooled outputs fit, the chunk does not
    ], ids=["pooled", "chunk"])
    def test_general_simulator_raises_invalid_params(self, L, horizon, replications, what):
        body = ("import oligosched as og\n"
                f"ss = og.build_state_space({L})\n"
                f"c = og.SimConfig(horizon={horizon}, replications={replications})\n"
                "try:\n"
                "    og.simulate_general(og.even_split_gain(ss), ss, og.ArrivalSpec(q=1.0), c)\n"
                "except og.InvalidParamsError as exc:\n"
                "    print(exc)\n")
        proc = self._capped(body)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(f"{what} of shape")


# The standing CLI sweep: for each subcommand a valid base command line
# and, per option, values that are extreme, non-finite, of the wrong type
# or empty.  Every value is swapped in alone, and a seeded draw adds
# combinations of them.  Sizes stay small (horizons <= 2000, --budget <= 5,
# --max-iter <= 50): sizes beyond memory are TestSizesBeyondMemory's.
_BAD_NUMBERS = ["nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "0", "-1", "x", ""]
_BAD_INTS = ["0", "-1", "1", "2", "x", "", "1.5", "nan"]
_BAD_JSON = ["{}", "[]", "null", "1", '"x"', "", "{", "[[]]", '{"a": 1}', "true"]


def _params_values():
    base = json.loads(PARAMS)
    out = list(_BAD_JSON)
    for key in base:
        for v in ("NaN", "Infinity", "-Infinity", "1e308", "-1e308", "-1", "2", '"x"', "null",
                  "true", "[1]", "1" + "0" * 400):
            out.append(json.dumps({**base, key: "@"}).replace('"@"', v))
    return out


_SWEEP = {
    "l2 strategy": (["--arch", "nc", "--params", PARAMS], {
        "--arch": ["nc", "coop", "naive", "none", "k:0", "k:-1", "k:x", "k:", "k:1e308",
                   "k:1.5", "rs:", "rs:1", "rs:1,2,3", "rs:1,,2", "rs:nan,0.5",
                   "rs:1e308,1e308", "rs:-1e308,0.5", "rs:x,y", "cong:", "cong:x",
                   "cong:nan", "cong:1e308", "cong:-1", "cong:1", "", "zz"],
        "--params": _params_values(),
    }),
    "l2 metrics": (["--arch", "nc", "--params", PARAMS, "--threshold", "3"], {
        "--arch": ["coop", "k:3", "rs:-0.1,0.5", "cong:0.5", "naive", "none"],
        "--params": _params_values()[::3],
        "--threshold": _BAD_NUMBERS,
    }),
    "l2 simulate": (["--arch", "nc", "--params", PARAMS, "--horizon", "2000",
                     "--out", "{tmp}/s.json"], {
        "--arch": ["coop", "naive", "none", "k:2", "cong:0.5"],
        "--params": _params_values()[::4],
        "--horizon": _BAD_INTS + ["100"],
        "--burn-in": _BAD_INTS + ["1999", "2000"],
        "--replications": _BAD_INTS,
        "--seed": ["-1", "0", str(2 ** 64), "x", ""],
        "--thresholds": ["", ",", "nan", "1,1", "x", "1,x", "1e308", "-1e308"],
        "--quantiles": ["", "0", "1", "0.5,0.5", "nan", "x", "1e-300", ","],
        "--series-csv": ["{tmp}/s.csv", "", "{tmp}", "{tmp}/no/such/s.csv"],
        "--out": ["", "{tmp}", "{tmp}/no/such/s.json"],
    }),
    "lti build": (["--L", "2"], {
        "--L": _BAD_INTS + ["3"],
        "--out": ["", "{tmp}", "{tmp}/no/such/ss.json", "{tmp}/ss.json"],
    }),
    "lti h2": (["--gain", "[[1,0,0],[0,1,0],[0.5,0.5,0.5]]"], {
        "--gain": _BAD_JSON + ["[[1]]", "[[NaN]]", "[[1e308]]", "[[1,2],[3,4]]",
                               "[[1,2,3],[4,5,6],[7,8,9]]", "[[0,0,0],[0,0,0],[0,0,0]]",
                               "[1,2,3]", "[[true]]", '[["a"]]', "[[[1]]]",
                               "[[1,0,0],[0,1,0],[0.5,0.5]]", "{tmp}"],
        "--alpha": ["1,1,1", "", "nan,1,1", "0,0,0", "1,2", "1,2,3,4", "1,,2,3", "x",
                    "1e308,1e308,1e308", "-1,1,1", "inf,1,1"],
        "--out": ["", "{tmp}"],
    }),
    "lti mpe": (["--L", "3", "--max-iter", "50"], {
        "--L": _BAD_INTS + ["5"],
        "--pricing": _BAD_JSON + [
            '{"q1":[0,0,0,0,0,0],"q2":[1,1,1,1,1,1]}', '{"q1":[0,0,0],"q2":[1,1,1]}',
            '{"q1":[NaN,0,0,0,0,0],"q2":[1,1,1,1,1,1]}', '{"q1":0,"q2":1}',
            '{"q1":[0,0,0,0,0,0],"q2":[0,0,0,0,0,0]}', '{"q1":["a",0,0,0,0,0],"q2":[1,1,1,1,1,1]}',
            '{"q1":[1e308,0,0,0,0,0],"q2":[1e-308,1,1,1,1,1]}', '{"q1":[0,0,0,0,0,0]}'],
        "--tol": _BAD_NUMBERS + ["1e-300"],
        "--max-iter": _BAD_INTS + ["50"],
        "--damping": _BAD_NUMBERS + ["1", "1.5", "0.5"],
        "--mode": ["gs", "jacobi", "x", ""],
        "--out": ["", "{tmp}"],
    }),
    "lti pareto": (["--L", "2", "--out", "{tmp}/front.csv"], {
        "--L": _BAD_INTS + ["5"],
        "--grid": _BAD_JSON + ["[[0,0,0]]", "[[1,1,1]]", "[[NaN,1,1]]", "[[1e308,1e308,1e308]]",
                               "[[1,1]]", "[[true,1,1]]", "[[-1,1,1]]", "[[1,0,1]]",
                               "[[1,0,0]]", "[[0,1,0]]", "[[1e-300,1,1e-300]]", '[[1,"a",2]]',
                               "{tmp}"],
        "--out": ["", "{tmp}", "{tmp}/no/such/front.csv"],
    }),
    "lti operator": (["--L", "2", "--alpha1", "1", "--alpha2", "1", "--budget", "3"], {
        "--L": _BAD_INTS + ["3", "9"],
        "--alpha1": _BAD_NUMBERS,
        "--alpha2": _BAD_NUMBERS,
        "--budget": ["0", "-1", "1", "5", "x", "", "nan"],
        "--seed": ["-1", str(2 ** 64), "x"],
        "--out": ["", "{tmp}"],
    }),
}


def _sweep_vectors(command, n_combined=15, seed=2026):
    base, options = _SWEEP[command]
    swaps = [{opt: v} for opt, values in options.items() for v in values]
    rng = np.random.default_rng(seed)
    for _ in range(n_combined):
        picked = rng.choice(list(options), size=min(3, len(options)), replace=False)
        swaps.append({str(o): options[o][rng.integers(len(options[o]))] for o in picked})
    return [command.split() + list(itertools.chain(*{**dict(zip(base[::2], base[1::2])),
                                                     **swap}.items()))
            for swap in swaps]


class TestCliSweep:
    @pytest.mark.parametrize("command", list(_SWEEP))
    def test_every_vector_exits_0_2_or_3(self, tmp_path, monkeypatch, capsys, command):
        # every file lands under tmp_path: "{tmp}" is a directory in it, and
        # relative names ("--out ''" gives "lti pareto" a ".gains.json") too
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        escaped = []
        for argv in _sweep_vectors(command):
            argv = [a.replace("{tmp}", str(tmp_path / "d")) for a in argv]
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the command line
                code = exc.code
            except Exception as exc:  # an escape: record it and sweep on
                code = f"{type(exc).__name__}: {exc}"
            err = capsys.readouterr().err
            if code not in (0, 2, 3) or "Traceback" in err:
                escaped.append((argv, code, err[-300:]))
        assert escaped == []


class TestCliBoundary:
    """Exit 2 covers malformed arguments and typed library refusals only,
    and an unwritable --out leaves no file of the command behind."""

    @pytest.mark.parametrize("error", [ValueError, KeyError])
    def test_library_bug_propagates(self, monkeypatch, capsys, error):
        def broken(L):
            raise error("library bug")

        monkeypatch.setattr(cli, "build_state_space", broken)
        with pytest.raises(error, match="library bug"):
            main(["lti", "build", "--L", "2"])
        assert "validation error" not in capsys.readouterr().err

    def test_malformed_env_seed_is_validation_error(self, monkeypatch, capsys):
        monkeypatch.setenv("OLIGO_SEED", "x")
        argv = ["lti", "operator", "--L", "2", "--alpha1", "1", "--alpha2", "1", "--budget", "1"]
        assert main(argv) == 2
        assert "validation error: OLIGO_SEED must be numbers" in capsys.readouterr().err

    def test_pareto_unwritable_out_leaves_no_gains_file(self, tmp_path, capsys):
        out = tmp_path / "d"
        out.mkdir()
        assert main(["lti", "pareto", "--L", "2", "--grid", "[[1,1,1]]", "--out", str(out)]) == 2
        assert "validation error" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]
        assert list(out.iterdir()) == []

    def test_simulate_unwritable_out_leaves_no_series(self, tmp_path, capsys):
        out = tmp_path / "d"
        out.mkdir()
        argv = ["l2", "simulate", "--arch", "nc", "--params", PD_PARAMS, "--horizon", "1000",
                "--series-csv", str(tmp_path / "s.csv"), "--out", str(out)]
        assert main(argv) == 2
        assert "validation error" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]
        assert list(out.iterdir()) == []
