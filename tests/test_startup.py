"""Start-up: what ``import oligosched`` and each subcommand load, and the
lazily resolved names of the package and of ``oligosched.cli``."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oligosched as og
from conftest import subprocess_env
from oligosched import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PARAMS = '{"q1":0.6,"q2":0.6,"mu1":15,"mu2":15,"sigma1":6,"sigma2":6}'
GAIN = "[[0,0,0],[0,0.5,0],[0,0,0.5]]"  # a stable L = 2 gain


def _fresh(code, cwd=None):
    """The last line of what a fresh interpreter prints after ``code``."""
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), cwd=cwd,
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()[-1]


def _loaded_after(code, cwd=None):
    """(the exit code ``code`` leaves in ``rc``, the sorted ``oligosched``
    modules loaded then) in a fresh interpreter."""
    script = (f"import json, sys\nrc = 0\n{code}\n"
              "print(json.dumps([rc, sorted(m for m in sys.modules"
              " if m.split('.')[0] == 'oligosched')]))")
    return tuple(json.loads(_fresh(script, cwd)))


PKG = ["oligosched", "oligosched._textio", "oligosched.cli", "oligosched.errors"]

# Every oligosched module each subcommand loads, on small inputs.
SUBCOMMAND_MODULES = {
    "--version": (["--version"], ["oligosched", "oligosched.cli"]),
    "l2 strategy": (["l2", "strategy", "--arch", "nc", "--params", PARAMS],
                    PKG + ["oligosched.strategies"]),
    "l2 metrics": (["l2", "metrics", "--arch", "nc", "--params", PARAMS, "--threshold", "30"],
                   PKG + ["oligosched.analysis", "oligosched.strategies"]),
    "l2 simulate": (["l2", "simulate", "--arch", "nc", "--params", PARAMS, "--horizon", "300"],
                    PKG + ["oligosched.rngstreams", "oligosched.simulate",
                           "oligosched.statespace", "oligosched.strategies"]),
    "l2 simulate --series-csv": (
        ["l2", "simulate", "--arch", "nc", "--params", PARAMS, "--horizon", "300",
         "--series-csv", "s.csv"],
        PKG + ["oligosched._render", "oligosched.rngstreams", "oligosched.simulate",
               "oligosched.statespace", "oligosched.strategies"]),
    "lti build": (["lti", "build", "--L", "2"],
                  PKG + ["oligosched._render", "oligosched.statespace"]),
    "lti h2": (["lti", "h2", "--gain", GAIN, "--alpha", "1,1,1"],
               PKG + ["oligosched.statespace"]),
    "lti mpe": (["lti", "mpe", "--L", "2"],
                PKG + ["oligosched._render", "oligosched.fixed_point", "oligosched.statespace"]),
    "lti pareto": (["lti", "pareto", "--L", "2", "--grid", "[[1,1,1]]", "--out", "f.csv"],
                   PKG + ["oligosched._render", "oligosched.pareto", "oligosched.statespace"]),
    "lti operator": (["lti", "operator", "--L", "2", "--alpha1", "1", "--alpha2", "1",
                      "--budget", "3"],
                     PKG + ["oligosched._render", "oligosched.fixed_point",
                            "oligosched.operator_design", "oligosched.statespace"]),
}


class TestSubcommandImports:
    def test_import_loads_no_submodule(self):
        assert _loaded_after("import oligosched") == (0, ["oligosched"])

    @pytest.mark.parametrize("command", list(SUBCOMMAND_MODULES))
    def test_subcommand_loads_only_its_modules(self, command, tmp_path):
        argv, modules = SUBCOMMAND_MODULES[command]
        code = ("from oligosched.cli import main\n"
                f"try:\n    rc = main({argv!r})\nexcept SystemExit as exc:\n    rc = exc.code")
        assert _loaded_after(code, cwd=tmp_path) == (0, sorted(modules))

    @pytest.mark.parametrize("command", ["lti mpe", "l2 simulate --series-csv"])
    def test_small_outputs_start_no_thread_pool(self, command, tmp_path):
        # their arrays are one chunk of rows, rendered in the calling thread
        argv = SUBCOMMAND_MODULES[command][0]
        code = ("import sys, threading\nfrom oligosched.cli import main\n"
                f"try:\n    main({argv!r})\nexcept SystemExit:\n    pass\n"
                "print('concurrent.futures' in sys.modules, threading.active_count())")
        assert _fresh(code, cwd=tmp_path) == "False 1"

    def test_parsing_loads_no_numpy(self):
        code = ("import sys\nimport oligosched.cli\nafter_import = 'numpy' in sys.modules\n"
                "try:\n    oligosched.cli.main(['--version'])\nexcept SystemExit:\n    pass\n"
                "print(after_import, 'numpy' in sys.modules)")
        assert _fresh(code) == "False False"


class TestTracedNames:
    """The benchmark's tracer replaces library names at ``oligosched.cli``
    before any command has run, and the command calls the replacement."""

    @pytest.mark.parametrize("argv, span", [
        (["l2", "simulate", "--arch", "nc", "--params", PARAMS, "--horizon", "300"],
         "simulate.l2"),
        (["lti", "mpe", "--L", "2"], "fixed_point.solve_mpe"),
        (["lti", "operator", "--L", "2", "--alpha1", "1", "--alpha2", "1", "--budget", "3"],
         "operator_design.optimize_pricing"),
        (["lti", "pareto", "--L", "2", "--grid", "[[1,1,1]]", "--out", "f.csv"],
         "pareto.trace_front"),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v[:2]))
    def test_traced_command_records_its_span(self, argv, span, tmp_path):
        spans = tmp_path / "spans.json"
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "child.py"), "--trace", str(spans), "cli", *argv],
            env=subprocess_env(), cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-500:]
        names = [s[0] for s in json.loads(spans.read_text())["spans"]]
        assert span in names and "cli.main" in names

    def test_cli_names_resolve_before_any_command(self):
        code = ("import oligosched.cli as c, oligosched.simulate as s; "
                "print(c.simulate_l2 is s.simulate_l2, 'simulate_l2' in vars(c))")
        assert _fresh(code) == "True False"

    def test_cli_keeps_no_name_after_a_command(self):
        # a command reads library names off the module without binding them,
        # so a name set after a first command is the one the second calls
        argv = ["l2", "simulate", "--arch", "nc", "--params", PARAMS, "--horizon", "300"]
        code = ("import oligosched.cli as c, oligosched.simulate as s\n"
                f"c.main({argv!r})\n"
                "kept = c.simulate_l2 is s.simulate_l2, 'simulate_l2' in vars(c)\n"
                "calls = []\n"
                "c.simulate_l2 = lambda *a: calls.append(a) or s.simulate_l2(*a)\n"
                f"c.main({argv!r})\n"
                "print(*kept, len(calls))")
        assert _fresh(code) == "True False 1"

    def test_cli_refuses_other_names(self):
        for name in ("nope", "__path__", "simulate"):
            assert not hasattr(cli, name), name


class TestPackageContract:
    def test_each_name_is_the_defining_modules_object(self):
        assert og.__all__ == sorted(set(og.__all__))
        for name in og.__all__:
            module = importlib.import_module(f"oligosched.{og._MODULE_OF[name]}")
            obj = getattr(og, name)
            assert obj is getattr(module, name), name
            assert obj.__module__ == module.__name__, name

    def test_dir_lists_every_name_before_any_is_used(self):
        code = "import json, oligosched; print(json.dumps(dir(oligosched)))"
        listed = set(json.loads(_fresh(code)))
        assert set(og.__all__) <= listed
        assert {"simulate", "statespace", "cli", "rngstreams"} <= listed

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="'oligosched' has no attribute 'nope'"):
            og.nope  # noqa: B018
        assert not hasattr(og, "_l2_kernel")

    def test_star_import_binds_all(self):
        scope = {}
        exec("from oligosched import *", scope)
        del scope["__builtins__"]
        assert sorted(scope) == og.__all__
        assert all(scope[name] is getattr(og, name) for name in scope)

    def test_submodule_attributes_resolve(self):
        code = ("import oligosched as og; "
                "print(callable(og.simulate._l2_kernel), callable(og.strategies._rs_system_residual),"
                " og.cli.main is og.cli.main)")
        assert _fresh(code) == "True True True"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_blas_default_holds_when_numpy_follows(self):
        # the pin must precede numpy's import even though the package itself
        # no longer imports numpy
        code = ("import os, oligosched, numpy; numpy.ones((64, 64)) @ numpy.ones((64, 64)); "
                "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))")
        assert _fresh(code) == "1 1"
