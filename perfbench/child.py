"""One benchmark process: an oligosched CLI command or a library leg.

    python3 perfbench/child.py [--trace SPANS --run-id ID] cli <CLI args...>
    python3 perfbench/child.py [--trace SPANS --run-id ID] general OUT SEED
    python3 perfbench/child.py scaling OUT

``cli`` calls ``oligosched.cli.main`` with the given arguments, which is
what ``python -m oligosched.cli`` runs.  ``general`` runs the two
general-L simulation legs of the ``mc-stats`` workload through the library
and writes their statistics to OUT.  ``scaling`` times single layer calls
at L in {2, 3, 5, 8} and writes the samples to OUT.

With ``--trace``, the public layer functions listed in ``TARGETS`` are
replaced, where the calling module looks them up, by wrappers that record
one span per call.  The spans stay in memory and are written to SPANS as
JSON when the process ends.  Nothing inside ``src/`` changes.
"""
from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import sys
import time


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _draws(args, kwargs, out):
    return {"draws": int(out.size)}


def _periods(pos):
    def attrs(args, kwargs, out):
        c = _arg(args, kwargs, pos, "c")
        return {"periods": int(c.horizon) * int(c.replications)}

    return attrs


def _text_bytes(args, kwargs, out):
    return {"bytes": len(out)}


def _inf(args, kwargs, out):
    return {"inf": int(not math.isfinite(out[0]))}


# (module the caller looks the name up in, attribute, span name, attrs).
# Per-value helpers (_textio.fmt, _textio.dumps, which recurses per value)
# are left unwrapped: a span per formatted number would swamp the layer it
# measures.  series_rows is a generator; its rows are produced while
# csv_text consumes them, so that work lands in csv_text's self time.
TARGETS = (
    ("oligosched.cli", "simulate_l2", "simulate.l2", _periods(2)),
    ("oligosched.cli", "solve_mpe", "fixed_point.solve_mpe", None),
    ("oligosched.cli", "optimize_pricing", "operator_design.optimize_pricing", None),
    ("oligosched.cli", "trace_front", "pareto.trace_front", None),
    ("oligosched.simulate", "simulate_general", "simulate.general", _periods(3)),
    ("oligosched.simulate", "conditional_tail_report",
     "simulate.conditional_tail_report", None),
    ("oligosched.rngstreams", "stream", "rngstreams.stream", None),
    ("oligosched.rngstreams", "bernoulli", "rngstreams.bernoulli", _draws),
    ("oligosched.rngstreams", "standard_normals", "rngstreams.standard_normals", _draws),
    ("oligosched._textio", "csv_text", "_textio.csv_text", _text_bytes),
    ("oligosched._textio", "atomic_write_text", "_textio.atomic_write_text", None),
    ("oligosched.fixed_point", "f_map", "fixed_point.f_map", None),
    ("oligosched.operator_design", "evaluate_pricing",
     "operator_design.evaluate_pricing", _inf),
    ("oligosched.operator_design", "solve_mpe", "fixed_point.solve_mpe", None),
    ("oligosched.operator_design", "solve_lyapunov", "statespace.solve_lyapunov", None),
    ("oligosched.operator_design", "minimize", "operator_design.minimize", None),
    ("oligosched.pareto", "synthesize", "pareto.synthesize", None),
    ("oligosched.pareto", "objective_and_gradient",
     "pareto.objective_and_gradient", None),
    ("oligosched.pareto", "h2_norms", "statespace.h2_norms", None),
    ("oligosched.pareto", "solve_lyapunov", "statespace.solve_lyapunov", None),
    ("oligosched.statespace", "solve_lyapunov", "statespace.solve_lyapunov", None),
)


class Tracer:
    """In-memory spans: [name, start, end, parent index, failed, attrs]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, out)
            return out

        return traced

    def install(self):
        for module, attr, name, attrs in TARGETS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(getattr(mod, attr), name, attrs))

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


def run_general(out: str, seed: int) -> int:
    """The general-L legs of mc-stats: L=3 with q=1, L=8 with q=0.7."""
    from oligosched import simulate
    from oligosched.statespace import build_state_space, make_f_br

    legs = {}
    for name, L, q, horizon in (("L3", 3, 1.0, 100_000), ("L8", 8, 0.7, 50_000)):
        ss = build_state_space(L)
        cfg = simulate.SimConfig(horizon=horizon, burn_in=500, replications=2, seed=seed)
        st = simulate.simulate_general(
            make_f_br(0.3, ss), ss, simulate.ArrivalSpec(q=(q,)), cfg
        )
        legs[name] = {
            "L": L, "q": q, "mean_u": st.mean_u, "var_u": st.var_u,
            "mean_x": st.mean_x, "second_x": st.second_x,
            "mc_stderr": st.mc_stderr, "n_samples": st.n_samples,
        }
    with open(out, "w") as fh:
        json.dump(legs, fh, indent=1)
    return 0


def _time_calls(fn, min_calls=5, budget_s=0.25, max_calls=400):
    """Per-call seconds of ``fn()`` over at least ``min_calls`` calls."""
    samples = []
    t_end = time.perf_counter() + budget_s
    while len(samples) < max_calls and (
        len(samples) < min_calls or time.perf_counter() < t_end
    ):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return samples


SCALING_LS = (2, 3, 5, 8)
SCALING_FNS = ("statespace.solve_lyapunov", "statespace.h2_norms", "fixed_point.f_map",
               "pareto.objective_and_gradient", "simulate.general")
SCALING_PERIODS = 2000


def run_scaling(out: str) -> int:
    """Per-call seconds of the layer kernels at each L in SCALING_LS."""
    from oligosched import fixed_point, pareto, simulate, statespace

    table = {}
    for L in SCALING_LS:
        ss = statespace.build_state_space(L)
        F = statespace.make_f_br(0.3, ss).F
        pricing = fixed_point.marginal_cost_pricing(ss)
        weights = statespace.OutputWeights.normalized(0.5, 0.5, 1.0)
        start = fixed_point.even_split_gain(ss)
        cfg = simulate.SimConfig(horizon=SCALING_PERIODS, seed=L)
        arrival = simulate.ArrivalSpec(q=(0.7,))
        calls = {
            "statespace.solve_lyapunov": lambda: statespace.solve_lyapunov(F, ss),
            "statespace.h2_norms": lambda: statespace.h2_norms(F, ss),
            "fixed_point.f_map": lambda: fixed_point.f_map(start, pricing, ss),
            "pareto.objective_and_gradient":
                lambda: pareto.objective_and_gradient(F, weights, ss),
            "simulate.general": lambda: simulate.simulate_general(F, ss, arrival, cfg),
        }
        for name in SCALING_FNS:
            calls[name]()  # the first call pays lazy imports and warm-up
            table[f"{name}.L{L}"] = _time_calls(calls[name])
    with open(out, "w") as fh:
        json.dump(table, fh)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", default=None, metavar="SPANS")
    ap.add_argument("--run-id", default="")
    ap.add_argument("mode", choices=["cli", "general", "scaling"])
    ap.add_argument("rest", nargs=argparse.REMAINDER)
    ns = ap.parse_args(argv)

    tracer = None
    if ns.trace:
        tracer = Tracer(ns.run_id)
        tracer.install()
    try:
        if ns.mode == "cli":
            from oligosched import cli

            if tracer is None:
                return cli.main(ns.rest)
            return tracer.wrap(cli.main, "cli.main")(ns.rest)
        if ns.mode == "general":
            return run_general(ns.rest[0], int(ns.rest[1]))
        return run_scaling(ns.rest[0])
    finally:
        if tracer is not None:
            tracer.dump(ns.trace)


if __name__ == "__main__":
    sys.exit(main())
