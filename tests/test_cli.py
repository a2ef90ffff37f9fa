"""The `frugal run` command: one auction per instance kind, and malformed files."""

import json
import math

import pytest

from frugal.cli.main import main, parse_instance
from frugal.core import ROutOfKSystem
from frugal.errors import ParseError
from frugal.mechanisms import kpath_mechanism, r_out_of_k_mechanism, vertex_cover_mechanism

from fixtures import DIAMOND_COSTS, diamond, star_graph


def _run(tmp_path, capsys, instance, name="instance.json"):
    path = tmp_path / name
    path.write_text(instance if isinstance(instance, str) else json.dumps(instance))
    code = main(["run", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


def _expected(outcome):
    def num(x):
        return "inf" if math.isinf(x) else x

    return {
        "winners": sorted(outcome.winners),
        "t1": {str(e): num(v) for e, v in outcome.t1.items()},
        "t2": {str(e): num(v) for e, v in outcome.t2.items()},
        "payments": {str(e): num(v) for e, v in outcome.payments.items()},
    }


@pytest.mark.parametrize("kind", ["kpath", "vertex_cover", "vertex_cover_approx2", "r_out_of_k"])
def test_run_prints_the_mechanism_outcome(tmp_path, capsys, kind):
    if kind == "kpath":
        g = diamond()
        instance = {"kind": "kpath", "k": 1, "bids": DIAMOND_COSTS,
                    "graph": {"n_vertices": g.n_vertices, "edges": [list(e) for e in g.edges],
                              "s": g.s, "t": g.t}}
        outcome = kpath_mechanism(g, DIAMOND_COSTS, 1)
    elif kind.startswith("vertex_cover"):
        graph = star_graph(3)
        bids = [4.0, 1.0, 2.0, 3.0]
        mode = "approx2" if kind.endswith("approx2") else "exact"
        instance = {"kind": "vertex_cover", "bids": bids,
                    "graph": {"n_vertices": graph.n_vertices,
                              "edges": [list(e) for e in graph.edges]}}
        if mode == "approx2":
            instance["mode"] = mode
        outcome = vertex_cover_mechanism(graph, bids, mode)
    else:
        groups = [[0], [1, 2], [3, 4, 5]]
        bids = [3.0, 1.0, 1.5, 0.5, 1.0, 2.0]
        instance = {"kind": "r_out_of_k", "r": 1, "groups": groups, "bids": bids}
        outcome = r_out_of_k_mechanism(ROutOfKSystem(tuple(map(tuple, groups)), 1), bids)
    code, out, err = _run(tmp_path, capsys, instance)
    assert (code, err) == (0, "")
    assert out.count("\n") == 1
    assert json.loads(out) == _expected(outcome)
    assert outcome.winners


def test_malformed_instance_exits_with_code_2(tmp_path, capsys):
    code, out, err = _run(tmp_path, capsys, '{"kind": "kpath", "bids": [1, 2,')
    assert code == 2 and out == "" and "invalid JSON" in err
    with pytest.raises(ParseError, match="line 1"):
        parse_instance('{"kind": "kpath", "bids": [1, 2,')
    for text in ('[1, 2]', '{"kind": "flow", "bids": []}',
                 '{"kind": "r_out_of_k", "r": 1, "groups": [[0], [1]], "bids": [1, true]}',
                 '{"kind": "kpath", "k": 1, "bids": [1], '
                 '"graph": {"n_vertices": 2, "edges": [[0, 0]], "s": 0, "t": 1}}',
                 '{"kind": "vertex_cover", "bids": [1, 2], '
                 '"graph": {"n_vertices": 3, "edges": [[0, 1], [1, 2]]}}'):
        with pytest.raises(ParseError):
            parse_instance(text)


def test_instance_the_mechanism_rejects_exits_with_code_1(tmp_path, capsys):
    # One s-t edge: the only path is a monopoly.
    instance = {"kind": "kpath", "k": 1, "bids": [1.0],
                "graph": {"n_vertices": 2, "edges": [[0, 1]], "s": 0, "t": 1}}
    code, out, err = _run(tmp_path, capsys, instance)
    assert code == 1 and out == "" and "InfeasibleFlowError" in err


def test_exact_cover_above_the_size_cap_exits_with_code_1(tmp_path, capsys):
    instance = {"kind": "vertex_cover", "mode": "exact", "bids": [1.0] * 31,
                "graph": {"n_vertices": 31, "edges": [[v, v + 1] for v in range(30)]}}
    code, out, err = _run(tmp_path, capsys, instance)
    assert code == 1 and out == "" and "SizeCapError" in err
