"""Command-line surface tying the library together.

``_HELP``, the description ``oligosched --help`` prints, lists the
subcommands, the exit codes, the ``OLIGO_SEED`` override and what each
manifest records.  Manifests are written atomically, and re-running the
recorded command with the recorded OpenBLAS thread count, on the same
numpy build and CPU, reproduces the outputs byte for byte (normal draws go
through numpy's vectorised ``log`` and ``sqrt``, whose SIMD paths can
round differently on another CPU).
``_emit`` writes every record, file and manifest, ``--out`` first, so an
unwritable ``--out`` leaves no file behind.

Parsing imports no library module.  Every handler reads each library name
as an attribute of this module (``_cli.<name>``), which ``__getattr__``
takes from the package, so a command loads only the modules it runs, and a
name a tracer or a test sets here is the one the handler calls.
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys
import time

import oligosched as _pkg

from . import __version__, _blas_threads

_HELP = """\
Dynamic-oligopoly load scheduling: markets, equilibria and gain synthesis.

subcommands:
  l2 strategy   print {a, b, g} for a chosen market architecture
  l2 metrics    closed-form moments / welfare / tail bound as JSON
  l2 simulate   Monte Carlo path statistics (JSON) + optional series CSV
  lti build     print the R1/R2 matrices for a given L as JSON
  lti h2        H2 report of a gain given as a JSON matrix
  lti mpe       equilibrium gain under a linear pricing rule
  lti pareto    trace the three-way front over a weight grid
  lti operator  optimize the pricing rule for the operator objective

Exit codes: 0 success, 2 validation error (a malformed argument or a typed
library refusal), 3 convergence failure, 1 a bug (with a traceback).

OLIGO_SEED, when set, overrides any configured seed.

Every file-writing command also writes <out>.manifest.json, or
<first file>.manifest.json when the record goes to stdout.  It records the
command line, the resolved configuration, the library and numpy versions,
the seed, the wall-clock time, the OpenBLAS thread count and every file
the command wrote.
"""

# This module, also when ``python -m`` runs it as ``__main__``.
_cli = sys.modules[__name__]


def __getattr__(name):
    """A library name nobody has set here (PEP 562), read from the package
    on each use, so that ``cli.<name>`` can be replaced at any time."""
    if name in _pkg._MODULE_OF or name == "_textio":
        return getattr(_pkg, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _load_json(arg: str):
    try:
        if os.path.exists(arg):
            with open(arg) as fh:
                return json.load(fh)
        return json.loads(arg)
    except ValueError as exc:  # undecodable bytes or text
        raise _cli.InvalidParamsError(str(exc)) from exc


def _numbers(arg, what: str, count: int | None = None, kind=float) -> tuple:
    """``arg``, comma-separated text (empty items skipped unless ``count`` is
    given) or a JSON list, as a tuple of ``kind``, of ``count`` items if given;
    anything else raises InvalidParamsError "<what> must be numbers: ..."."""
    items = [v for v in arg.split(",") if v or count] if isinstance(arg, str) else arg
    try:
        if count is not None and len(items) != count:
            raise ValueError(f"{len(items)} given, {count} expected")
        return tuple(kind(v) for v in items)
    except (TypeError, ValueError, OverflowError) as exc:
        raise _cli.InvalidParamsError(f"{what} must be numbers: {exc}") from exc


def _load_object(arg: str, what: str, keys) -> dict:
    """The JSON object ``arg`` (file or literal), holding exactly ``keys``."""
    data = _load_json(arg)
    if not isinstance(data, dict):
        raise _cli.InvalidParamsError(f"{what} must be a JSON object")
    for kind, extra in (("unknown", set(data) - set(keys)), ("missing", set(keys) - set(data))):
        if extra:
            raise _cli.InvalidParamsError(f"{kind} {what} keys: {sorted(extra)}")
    return data


def _parse_params(arg: str) -> _cli.MarketParamsL2:
    keys = tuple(f.name for f in dataclasses.fields(_cli.MarketParamsL2))
    data = _load_object(arg, "params", keys)
    return _cli.MarketParamsL2(*_numbers([data[k] for k in keys], "params values"))


def _parse_arch(arch: str, p: _cli.MarketParamsL2):
    if arch == "nc":
        return _cli.mpe_strategy(p)
    if arch == "coop":
        return _cli.coop_strategy(p)
    if arch == "naive":
        return _cli.baseline_strategies()[0]
    if arch == "none":
        return _cli.baseline_strategies()[1]
    if arch.startswith("k:"):
        return _cli.k_agent_strategy(p, *_numbers(arch[2:], f"arch {arch!r}", 1, int))
    if arch.startswith("rs:"):
        rs = _cli.RiskSensitivity(*_numbers(arch[3:], f"arch {arch!r}", 2))
        return _cli.risk_sensitive_strategy(p, rs)
    if arch.startswith("cong:"):
        return _cli.congestion_strategy(p, *_numbers(arch[5:], f"arch {arch!r}", 1))
    raise _cli.InvalidParamsError(
        f"unknown arch {arch!r}; expected nc|coop|naive|none|k:<K>|"
        f"rs:<theta>,<beta>|cong:<gamma>"
    )


def _seed_override(seed: int) -> int:
    env = os.environ.get("OLIGO_SEED")
    return seed if env is None else _numbers(env, "OLIGO_SEED", 1, int)[0]


_T0 = time.perf_counter()


def _emit(record, out, argv, config: dict, seed=None, files=(), **fields):
    """Write ``record`` to ``out`` (print it when ``out`` is None), then each
    ``(path, text)`` of ``files`` and, if any file was written, the manifest
    ``<first file>.manifest.json``.

    A dict or list is written as JSON, a string as it is; a ``text`` that is
    an iterable of strings is consumed while it is written.  An unwritable
    ``out`` leaves no file; a failing file leaves ``out`` without manifest.
    The manifest records the command line, ``config``, version, ``numpy``
    (its version), ``seed``, wall-clock time, ``blas_threads`` (the first
    OpenBLAS thread variable set, or "default"), any further ``fields`` and
    every file written.
    """
    text = record if isinstance(record, str) else _cli._textio.dumps(record) + "\n"
    written = ([] if out is None else [(out, text)]) + list(files)
    for path, body in written:
        _cli._textio.atomic_write_text(path, body)
    if out is None:
        sys.stdout.write(text)
    outputs = [path for path, _ in written]
    if not outputs:
        return
    import numpy

    manifest = {
        "command": ["oligosched", *argv],
        "config": config,
        "version": __version__,
        "numpy": numpy.__version__,
        "seed": seed,
        "wall_clock_s": time.perf_counter() - _T0,
        "blas_threads": _blas_threads() or "default",
        **fields,
        "outputs": outputs,
    }
    _cli._textio.atomic_write_text(outputs[0] + ".manifest.json",
                                   _cli._textio.dumps(manifest) + "\n")


def _cmd_l2_strategy(ns, argv):
    p = _parse_params(ns.params)
    s = _parse_arch(ns.arch, p)
    _emit(vars(s), ns.out, argv, {"arch": ns.arch, "params": vars(p)})
    return 0


def _cmd_l2_metrics(ns, argv):
    p = _parse_params(ns.params)
    s = _parse_arch(ns.arch, p)
    result = {
        "strategy": vars(s),
        "moments": vars(_cli.stationary_moments(s, p)),
        "efficiency": _cli.efficiency(s, p),
    }
    if ns.threshold is not None:
        try:
            bound = vars(_cli.risk_upper_bound(s, p, ns.threshold))
        except _cli.OligoschedError as exc:
            bound = {"error": str(exc)}
        result["risk_bound"] = {"M": ns.threshold, **bound}
    _emit(result, ns.out, argv, {"arch": ns.arch, "params": vars(p), "M": ns.threshold})
    return 0


def _cmd_l2_simulate(ns, argv):
    p = _parse_params(ns.params)
    s = _parse_arch(ns.arch, p)
    seed = _seed_override(ns.seed)
    cfg = _cli.SimConfig(
        horizon=ns.horizon,
        burn_in=ns.burn_in,
        replications=ns.replications,
        seed=seed,
        nonneg_demand=ns.nonneg,
        tail_thresholds=_numbers(ns.thresholds, "--thresholds"),
        quantile_levels=_numbers(ns.quantiles, "--quantiles"),
        keep_series=ns.series_csv is not None,
    )
    stats = _cli.simulate_l2(s, p, cfg)
    result = {"strategy": vars(s), **vars(stats)}
    del result["conditional"], result["series"]
    for key in ("quantiles", "tail_probs"):
        result[key] = {f"{k:g}": v for k, v in result[key].items()}
    if stats.conditional is not None:
        result["conditional"] = {k: v for k, v in vars(stats.conditional).items()
                                 if k == "threshold" or k.startswith("p_spike")}
    files = [] if ns.series_csv is None else [
        (ns.series_csv, _cli._textio.csv_blocks(list(stats.series), list(stats.series.values())))]
    config = {
        "arch": ns.arch,
        "params": vars(p),
        "horizon": ns.horizon,
        "burn_in": ns.burn_in,
        "replications": ns.replications,
        "nonneg_demand": ns.nonneg,
        "tail_thresholds": cfg.tail_thresholds,
        "quantile_levels": cfg.quantile_levels,
    }
    _emit(result, ns.out, argv, config, seed, files, sim_backend="numpy")
    return 0


def _cmd_lti_build(ns, argv):
    ss = _cli.build_state_space(ns.L)
    record = {"L": ss.L, "D_c": ss.D_c, "R1": ss.R1.astype(int), "R2": ss.R2.astype(int)}
    _emit(record, ns.out, argv, {"L": ns.L})
    return 0


def _cmd_lti_h2(ns, argv):
    gain = _load_json(ns.gain)
    D = len(gain) if isinstance(gain, list) else 0
    L = math.isqrt(2 * D)  # D = L(L+1)/2 rows
    if D == 0 or L * (L + 1) // 2 != D:
        raise _cli.InvalidParamsError("gain must be a JSON list of L(L+1)/2 rows")
    ss = _cli.build_state_space(L)
    rep = _cli.h2_norms(gain, ss)
    result = {"L": L, **vars(rep)}
    if ns.alpha:
        w = _cli.OutputWeights.normalized(*_numbers(ns.alpha, "--alpha", 3))
        result["alpha"] = [w.alpha1, w.alpha2, w.alpha3]
        result["weighted_objective"] = (
            w.alpha1 ** 2 * rep.z1sq + w.alpha2 ** 2 * rep.z2sq + w.alpha3 ** 2 * rep.z3sq
        )
    _emit(result, ns.out, argv, {"gain": ns.gain, "alpha": ns.alpha})
    return 0


def _cmd_lti_mpe(ns, argv):
    ss = _cli.build_state_space(ns.L)
    if ns.pricing is None:
        pricing = _cli.marginal_cost_pricing(ss)
    else:
        pricing = _cli.PricingRule(**_load_object(ns.pricing, "pricing", ("q1", "q2")))
    cfg = _cli.FixedPointConfig(
        tol=ns.tol,
        max_iter=ns.max_iter,
        damping=ns.damping,
        sweep={"jacobi": "jacobi", "gs": "gauss-seidel"}[ns.mode],
    )
    sol = _cli.solve_mpe(pricing, ss, cfg)
    result = {
        "L": ns.L,
        "gain": sol.gain.F,
        "iterations": sol.iterations,
        "residual": sol.residual,
        "stability_margin": sol.stability_margin,
        "sweep": cfg.sweep,
    }
    config = {
        "L": ns.L,
        "pricing": vars(pricing),
        "tol": ns.tol,
        "max_iter": ns.max_iter,
        "damping": ns.damping,
        "mode": ns.mode,
    }
    certificates = {"stability_margin": sol.stability_margin,
                    "min_denominator": sol.min_denominator}
    _emit(result, ns.out, argv, config, certificates=certificates)
    return 0


def _cmd_lti_pareto(ns, argv):
    ss = _cli.build_state_space(ns.L)
    if ns.grid is None:
        grid = _cli.default_weight_grid()
    else:
        data = _load_json(ns.grid)
        if not isinstance(data, list) or not all(isinstance(t, list) for t in data):
            raise _cli.InvalidParamsError("grid must be a JSON list of three-number lists")
        grid = [_cli.OutputWeights.normalized(*_numbers(t, "grid", 3)) for t in data]
    points = _cli.trace_front(grid, ss)
    if not points:
        raise _cli.NotConvergedError(f"no weight of the {len(grid)}-weight grid synthesized")
    import numpy as np

    weights = [list(vars(p.weights).values()) for p in points]
    front = np.array([w + list(vars(p.report).values()) for w, p in zip(weights, points)])
    csv = _cli._textio.csv_text(["alpha1", "alpha2", "alpha3", "z1sq", "z2sq", "z3sq"],
                                front.T)
    gains = _cli._textio.dumps_blocks({f"point_{i}": p.gain.F for i, p in enumerate(points)})
    gains = itertools.chain(gains, ["\n"])  # written one point at a time
    config = {
        "L": ns.L,
        "grid": weights,
        "certificates": [{"lower_bound": p.lower_bound, "gap": p.gap} for p in points],
    }
    _emit(csv, ns.out, argv, config, files=[(ns.out + ".gains.json", gains)])
    return 0


def _cmd_lti_operator(ns, argv):
    ss = _cli.build_state_space(ns.L)
    seed = _seed_override(ns.seed)
    res = _cli.optimize_pricing(
        _cli.OperatorWeights(ns.alpha1, ns.alpha2), ss, budget=ns.budget, seed=seed
    )
    if res.gain is None:
        raise _cli.NotConvergedError(
            f"no finite objective in {res.evaluations} evaluations; "
            f"failures: {res.failures}"
        )
    result = {
        "L": ns.L,
        "pricing": vars(res.pricing),
        "gain": res.gain.F,
        "objective": res.objective,
        "baseline_objective": res.baseline_objective,
        "evaluations": res.evaluations,
    }
    config = {"L": ns.L, "alpha1": ns.alpha1, "alpha2": ns.alpha2, "budget": ns.budget}
    telemetry = {"failures": res.failures, "inner_sweeps": res.inner_sweeps,
                 "lower_bound": res.lower_bound, "gap": res.gap, "colsum_dev": res.colsum_dev}
    _emit(result, ns.out, argv, config, seed, telemetry=telemetry)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="oligosched", description=_HELP,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="group", required=True)

    l2 = sub.add_parser("l2", help="two-type market").add_subparsers(
        dest="cmd", required=True
    )
    for name, handler in (("strategy", _cmd_l2_strategy), ("metrics", _cmd_l2_metrics),
                          ("simulate", _cmd_l2_simulate)):
        sp = l2.add_parser(name)
        sp.set_defaults(handler=handler)
        sp.add_argument("--arch", required=True)
        sp.add_argument("--params", required=True, help="JSON file or literal")
        sp.add_argument("--out", default=None)
        if name == "metrics":
            sp.add_argument("--threshold", type=float, default=None, metavar="M")
        if name == "simulate":
            sp.add_argument("--horizon", type=int, required=True)
            # SimConfig's defaults, spelled out so that parsing imports no
            # library module (TestOptionSurface checks they agree)
            sp.add_argument("--burn-in", type=int, default=0)
            sp.add_argument("--replications", type=int, default=1)
            sp.add_argument("--seed", type=int, default=0)
            sp.add_argument("--thresholds", default="")
            sp.add_argument("--quantiles", default="0.5,0.95,0.999")
            sp.add_argument("--nonneg", action="store_true")
            sp.add_argument("--series-csv", default=None)

    lti = sub.add_parser("lti", help="general-L surrogate system").add_subparsers(
        dest="cmd", required=True
    )
    sp = lti.add_parser("build")
    sp.set_defaults(handler=_cmd_lti_build)
    sp.add_argument("--L", type=int, required=True)
    sp.add_argument("--out", default=None)

    sp = lti.add_parser("h2")
    sp.set_defaults(handler=_cmd_lti_h2)
    sp.add_argument("--gain", required=True, help="JSON file or literal: D_c x D_c gain matrix")
    sp.add_argument("--alpha", default=None, help="a1,a2,a3")
    sp.add_argument("--out", default=None)

    sp = lti.add_parser("mpe")
    sp.set_defaults(handler=_cmd_lti_mpe)
    sp.add_argument("--L", type=int, required=True)
    sp.add_argument("--pricing", default=None, help="JSON file or literal")
    sp.add_argument("--tol", type=float, default=1e-10)  # FixedPointConfig's defaults
    sp.add_argument("--max-iter", type=int, default=2000)
    sp.add_argument("--damping", type=float, default=0.5)
    sp.add_argument("--mode", default="jacobi", choices=["jacobi", "gs"])
    sp.add_argument("--out", default=None)

    sp = lti.add_parser("pareto")
    sp.set_defaults(handler=_cmd_lti_pareto)
    sp.add_argument("--L", type=int, required=True)
    sp.add_argument("--grid", default=None, help="JSON list of weight triples")
    sp.add_argument("--out", required=True)

    sp = lti.add_parser("operator")
    sp.set_defaults(handler=_cmd_lti_operator)
    sp.add_argument("--L", type=int, required=True)
    sp.add_argument("--alpha1", type=float, required=True)
    sp.add_argument("--alpha2", type=float, required=True)
    sp.add_argument("--budget", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    return ap


def main(argv=None) -> int:
    global _T0
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    ns = _build_parser().parse_args(argv)
    try:
        _T0 = time.perf_counter()
        return ns.handler(ns, argv)
    except (_cli.NotConvergedError, _cli.UnstableError) as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    except (_cli.OligoschedError, OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
