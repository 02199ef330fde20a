"""File formats: graph text files, instance JSON, factor JSON, result JSON."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .problems import PortfolioInstance, WeightedGraph
from .relaxation import GramFactor


def _format_weight(w: float) -> str:
    if float(w).is_integer():
        return str(int(w))
    return repr(float(w))


def write_graph(path, g: WeightedGraph):
    """Write the text format: first line "n m", then "i j w" per edge."""
    lines = [f"{g.n} {g.m}"]
    for i, j, w in g.edges:
        lines.append(f"{i} {j} {_format_weight(w)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_graph(path) -> WeightedGraph:
    text = Path(path).read_text(encoding="ascii").strip().splitlines()
    if not text:
        raise ValueError("empty graph file")
    header = text[0].split()
    if len(header) != 2:
        raise ValueError("first line must be 'n m'")
    n, m = int(header[0]), int(header[1])
    if len(text) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(text) - 1}")
    edges = []
    for line in text[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"malformed edge line: {line!r}")
        edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
    return WeightedGraph(n=n, edges=edges)


def write_portfolio(path, p: PortfolioInstance, seed: int | None = None):
    payload = {
        "sigma": p.sigma.tolist(),
        "mu": p.mu.tolist(),
        "q": p.q,
        "B": p.budget,
        "lambda": p.penalty,
    }
    if seed is not None:
        payload["seed"] = int(seed)
    write_json(path, payload)


def _portfolio_field(payload: dict, key: str, convert):
    """One converted field; a missing, null or ill-typed one is a ValueError."""
    value = payload.get(key)
    if value is None:
        raise ValueError(f"portfolio field {key!r} is missing or null")
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"portfolio field {key!r}: {exc}") from exc


def read_portfolio(path) -> PortfolioInstance:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("a portfolio file holds one JSON object")
    matrix = lambda value: np.asarray(value, dtype=float)
    return PortfolioInstance(
        sigma=_portfolio_field(payload, "sigma", matrix),
        mu=_portfolio_field(payload, "mu", matrix),
        q=_portfolio_field(payload, "q", float),
        budget=_portfolio_field(payload, "B", int),
        penalty=_portfolio_field(payload, "lambda", float),
    )


def gram_factor_to_dict(f: GramFactor) -> dict:
    return {"k": f.k, "vectors": f.vectors.tolist()}


def gram_factor_from_dict(payload: dict) -> GramFactor:
    vectors = np.asarray(payload["vectors"], dtype=float)
    if vectors.shape[1] != int(payload["k"]):
        raise ValueError("vector width disagrees with k")
    # objective is graph-dependent; callers recompute it when needed
    return GramFactor(vectors=vectors, objective=0.0)


def write_json(path, payload: dict):
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def write_jsonl(path, rows):
    lines = [json.dumps(row, sort_keys=True) for row in rows]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
