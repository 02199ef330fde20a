"""Per-layer spans for the traced benchmark run.

Layers are wsqopt's modules. Each traced function is wrapped from outside:
the wrapper replaces every module-level name bound to the original function
in every loaded ``wsqopt`` module, because the modules import each other's
functions by name (``rqaoa.depth1_edge_correlators``, ``cli.brute_force``).
Spans are kept in memory and written as JSON when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _grid_points(args, kwargs, point):
    spec = _arg(args, kwargs, 1, "spec")
    return spec.beta_points * spec.gamma_points


def _energy_table_bytes(args, kwargs, table):
    # one read and one write of the table per nonzero field or coupling
    ising = _arg(args, kwargs, 0, "ising")
    terms = len(ising.couplings) + int((ising.fields != 0.0).sum())
    return 2 * table.nbytes * terms


# (module, function, {counter: f(args, kwargs, result) -> number})
LAYERS = [
    ("simulator", "depth1_edge_correlators", {"pairs": lambda a, k, r: r.shape[0]}),
    # every qubit pass reads and writes the whole state once
    ("simulator", "apply_mixer", {"bytes_computed": lambda a, k, r: 2 * r.amplitudes.nbytes * r.n}),
    ("simulator", "energy_table", {"bytes_computed": _energy_table_bytes}),
    ("rqaoa", "depth1_energy", {}),
    ("rqaoa", "correlation_matrix_depth1", {}),
    ("rqaoa", "eliminate", {}),
    ("rqaoa", "run_rqaoa", {"levels": lambda a, k, r: len(r.records)}),
    ("variational", "grid_search", {"points": _grid_points}),
    (
        "variational",
        "minimize",
        {"evals": lambda a, k, r: r.evals, "max_evals_stops": lambda a, k, r: r.reason == "max_evals"},
    ),
    ("variational", "run_qaoa", {}),
    ("relaxation", "solve_qp", {"iterations": lambda a, k, r: r.iterations}),
    ("relaxation", "solve_maxcut_sdp", {"unconverged": lambda a, k, r: not r.converged}),
    (
        "relaxation",
        "gw_best_cuts",
        {"roundings": lambda a, k, r: _arg(a, k, 1, "n_samples"), "cuts_kept": lambda a, k, r: len(r)},
    ),
    ("relaxation", "gw_round", {}),
    (
        "diffusion",
        "simulate_signs",
        {"cells": lambda a, k, r: r.signs.size, "truncated_cells": lambda a, k, r: int(r.truncated.sum())},
    ),
    ("problems", "brute_force", {}),
    ("problems", "reduce_maxcut", {}),
    ("cli", "main", {}),
]

# every public function of wsqopt.io is traced and reported as one layer
IO_MODULE = "io"


class Tracer:
    """Records spans (name, parent, start, end) and counters per span name."""

    def __init__(self):
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.counts = defaultdict(float)
        self._stack: list = []

    def wrap(self, name: str, fn, counters: dict):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.starts[index] = start
                self.ends[index] = end
            for counter, count in counters.items():
                self.counts[f"{name}.{counter}"] += float(count(args, kwargs, result))
            return result

        return traced

    def install(self, package: str = "wsqopt"):
        """Wrap every traced function and rebind each name that refers to it."""
        modules = [m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")]
        io = sys.modules[f"{package}.{IO_MODULE}"]
        targets = list(LAYERS) + [
            (IO_MODULE, attr, {})
            for attr, value in vars(io).items()
            if inspect.isfunction(value) and not attr.startswith("_") and value.__module__ == io.__name__
        ]
        for module, func, counters in targets:
            original = getattr(sys.modules[f"{package}.{module}"], func)
            wrapper = self.wrap(f"{module}.{func}", original, counters)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def self_times(self) -> dict:
        """Total self time per span name: duration minus child durations."""
        child = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[index] - self.starts[index]
        totals = defaultdict(float)
        for index, name in enumerate(self.names):
            totals[name] += self.ends[index] - self.starts[index] - child[index]
        return totals

    def top_level_seconds(self) -> float:
        return sum(e - s for p, s, e in zip(self.parents, self.starts, self.ends) if p < 0)

    def layer_metrics(self, rounds: int) -> dict:
        """Per-round calls, self time and counters for every reported layer."""
        calls = defaultdict(int)
        for name in self.names:
            calls[name] += 1
        selfs = self.self_times()
        io_prefix = IO_MODULE + "."
        values = {}
        for module, func, counters in LAYERS:
            name = f"{module}.{func}"
            values[f"{name}.calls"] = calls[name] / rounds
            values[f"{name}.self_s"] = selfs[name] / rounds
            for counter in counters:
                values[f"{name}.{counter}"] = self.counts[f"{name}.{counter}"] / rounds
        values[f"{IO_MODULE}.calls"] = sum(c for n, c in calls.items() if n.startswith(io_prefix)) / rounds
        values[f"{IO_MODULE}.self_s"] = sum(s for n, s in selfs.items() if n.startswith(io_prefix)) / rounds
        return values

    def write(self, path):
        """Spans as JSON: a name table and [name, parent, start, end] rows."""
        table = sorted(set(self.names))
        ids = {name: i for i, name in enumerate(table)}
        rows = [
            [ids[n], p, round(s, 9), round(e, 9)]
            for n, p, s, e in zip(self.names, self.parents, self.starts, self.ends)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": table, "spans": rows}, handle, separators=(",", ":"))
