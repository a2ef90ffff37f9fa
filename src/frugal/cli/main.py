"""`frugal run <instance.json>`: run one auction and print its outcome.

The instance file is one JSON object with a `kind` and the agents' `bids`:

    {"kind": "kpath", "k": 1, "bids": [...],
     "graph": {"n_vertices": 4, "edges": [[0, 1], ...], "s": 0, "t": 3}}
    {"kind": "vertex_cover", "mode": "exact", "bids": [...],
     "graph": {"n_vertices": 3, "edges": [[0, 1], ...]}}
    {"kind": "r_out_of_k", "r": 1, "groups": [[0], [1, 2], ...], "bids": [...]}

`mode` is optional ("exact" by default).  The outcome is printed as one
JSON line with the sorted winners and, keyed by winner id, t1, t2 and the
payments; an infinite threshold is printed as the string "inf".  A
malformed file exits with code 2, an instance the mechanism rejects
(for example one with a monopoly) with code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from typing import Any, Callable

from .. import core, flows, mechanisms
from ..errors import FrugalError, ParseError, ValidationError

KINDS = ("kpath", "vertex_cover", "r_out_of_k")
JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer"}


def _field(obj: dict, key: str, kind: type, where: str = "instance") -> Any:
    if key not in obj:
        raise ParseError(f"{where} has no {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParseError(f"{where} field {key!r} must be a JSON {JSON_TYPES[kind]}")
    return value


def _int_list(value: Any, what: str) -> list[int]:
    if not isinstance(value, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in value):
        raise ParseError(f"{what} must be a list of integers")
    return value


def _graph_edges(spec: dict) -> tuple[tuple[int, int], ...]:
    edges = []
    for pair in _field(spec, "edges", list, "graph"):
        ends = _int_list(pair, "each graph edge")
        if len(ends) != 2:
            raise ParseError("each graph edge must have exactly two ends")
        edges.append((ends[0], ends[1]))
    return tuple(edges)


def parse_instance(text: str) -> Callable[[], mechanisms.MechanismOutcome]:
    """The auction described by `text`, ready to run; ParseError if malformed."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from None
    if not isinstance(obj, dict):
        raise ParseError("instance must be a JSON object")
    kind = _field(obj, "kind", str)
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    bids_raw = _field(obj, "bids", list)
    if not all(isinstance(b, (int, float)) and not isinstance(b, bool) for b in bids_raw):
        raise ParseError("bids must be a list of numbers")
    try:
        bids = [float(b) for b in bids_raw]
    except OverflowError:
        raise ParseError("a bid is too large for a float") from None
    try:
        if kind == "kpath":
            spec = _field(obj, "graph", dict)
            g = flows.DiGraph(_field(spec, "n_vertices", int, "graph"), _graph_edges(spec),
                              _field(spec, "s", int, "graph"), _field(spec, "t", int, "graph"))
            kpaths = core.KPathSystem(g, _field(obj, "k", int))
            n_agents = g.n_edges
            auction = partial(mechanisms.kpath_mechanism, g, bids, kpaths.k)
        elif kind == "vertex_cover":
            spec = _field(obj, "graph", dict)
            graph = core.UndirectedGraph(_field(spec, "n_vertices", int, "graph"),
                                         _graph_edges(spec))
            mode = _field(obj, "mode", str) if "mode" in obj else "exact"
            n_agents = graph.n_vertices
            auction = partial(mechanisms.vertex_cover_mechanism, graph, bids, mode)
        else:
            groups = tuple(tuple(_int_list(grp, "each group"))
                           for grp in _field(obj, "groups", list))
            system = core.ROutOfKSystem(groups, _field(obj, "r", int))
            n_agents = core.n_agents(system)
            auction = partial(mechanisms.r_out_of_k_mechanism, system, bids)
    except ValidationError as exc:
        raise ParseError(f"invalid {kind} instance: {exc}") from None
    if len(bids) != n_agents:
        raise ParseError(f"{len(bids)} bids for {n_agents} agents")
    return auction


def _number(x: float) -> float | str:
    return "inf" if math.isinf(x) else x


def outcome_json(outcome: mechanisms.MechanismOutcome) -> str:
    """One-line JSON of the winners and each paid winner's t1, t2 and payment."""
    return json.dumps({
        "winners": sorted(outcome.winners),
        "t1": {e: _number(v) for e, v in sorted(outcome.t1.items())},
        "t2": {e: _number(v) for e, v in sorted(outcome.t2.items())},
        "payments": {e: _number(v) for e, v in sorted(outcome.payments.items())},
    }, allow_nan=False)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="frugal", description="Frugal truthful set-system auctions.")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the auction in a JSON instance file")
    run.add_argument("instance", help="path of the instance file")
    args = parser.parse_args(argv)
    try:
        with open(args.instance, encoding="utf-8") as fh:
            auction = parse_instance(fh.read())
    except OSError as exc:
        print(f"frugal: cannot read {args.instance}: {exc.strerror}", file=sys.stderr)
        return 2
    except (ParseError, UnicodeDecodeError) as exc:
        print(f"frugal: {args.instance}: {exc}", file=sys.stderr)
        return 2
    try:
        outcome = auction()
    except FrugalError as exc:
        print(f"frugal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(outcome_json(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
