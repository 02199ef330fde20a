"""Seeded `solve` outputs against results recorded from an earlier version.

Reruns within one version are checked in test_cli.py; this module catches a
change of the code that changes the seeded results. Integers, booleans and
assignments must match exactly and floats to 1e-12. The fields that depend
on the run (`wall_time_s`, `instance`) or echo the flags (`config`) are left
out, and so is `cut`, which older versions wrote as a copy of `assignment`.
When a change of results is intended, record the fixture again with

    PYTHONPATH=src python tests/test_recorded_outputs.py
"""

import json
import math
import sys
import tempfile
from pathlib import Path

from wsqopt.cli import main

FIXTURE = Path(__file__).with_name("recorded_outputs.json")
IGNORED = ("wall_time_s", "instance", "config", "cut")
GRAPH_METHODS = ("sdp", "gw", "qaoa", "ws-qaoa", "rqaoa", "ws-rqaoa", "classical-gw", "brute")
PORTFOLIO_METHODS = ("qp", "qaoa", "ws-qaoa", "brute")
SOLVE_FLAGS = ("--seed", "3", "--n-stop", "4", "--gw-samples", "4", "--gw-keep", "2")


def solve_all(workdir: Path) -> dict:
    """Result of every method on an 8-node complete graph and a 4-asset portfolio,
    and of a depth-two ws-qaoa at epsilon 0 on a degenerate 5-asset portfolio."""
    graph, portfolio = workdir / "graph.txt", workdir / "portfolio.json"
    degenerate = workdir / "degenerate.json"
    assert main(["generate", "graph-complete", "--n", "8", "--seed", "5", "--out", str(graph)]) == 0
    assert main(["generate", "portfolio", "--n", "4", "--seed", "2", "--out", str(portfolio)]) == 0
    # the relaxed optimum has exactly two fractional coordinates, so at
    # epsilon 0 three qubits start in basis states
    assert main(["generate", "portfolio", "--n", "5", "--seed", "3", "--out", str(degenerate)]) == 0
    results = {}
    # the graph's qaoa and ws-qaoa keep their default grid seeding
    for instance, methods, flags in (
        (graph, GRAPH_METHODS, SOLVE_FLAGS),
        (portfolio, PORTFOLIO_METHODS, SOLVE_FLAGS + ("--multistart", "2")),
        (degenerate, ("ws-qaoa",), SOLVE_FLAGS + ("--p", "2", "--multistart", "10", "--epsilon", "0")),
    ):
        for method in methods:
            out = workdir / f"{instance.stem}-{method}.json"
            argv = ["solve", "--method", method, "--instance", str(instance), "--out", str(out)]
            assert main(argv + list(flags)) == 0
            result = json.loads(out.read_text())
            results[f"{instance.stem}/{method}"] = {k: v for k, v in result.items() if k not in IGNORED}
    return results


def mismatches(expected, actual, path="") -> list:
    """Paths at which two JSON values differ beyond the tolerances above."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return [f"{path}: keys {sorted(expected)} != {sorted(actual)}"]
        return [m for key in expected for m in mismatches(expected[key], actual[key], f"{path}/{key}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual)) for m in mismatches(e, a, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, float):
        if math.isclose(expected, actual, rel_tol=1e-12, abs_tol=1e-12):
            return []
    elif type(expected) is type(actual) and expected == actual:
        return []
    return [f"{path}: {expected!r} != {actual!r}"]


def test_matches_recorded_outputs(tmp_path):
    expected = json.loads(FIXTURE.read_text())
    assert mismatches(expected, solve_all(tmp_path)) == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = solve_all(Path(tmp))
    FIXTURE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
