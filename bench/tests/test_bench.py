"""Tests of the benchmark's own code: generators, trace wrappers, self times.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import random
import sys
from importlib import import_module
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

LAYER_MODULES = [import_module(f"frugal.{layer}") for layer in tracing.LAYERS]


def _frugal_bindings():
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if name == "frugal" or name.startswith("frugal.")
            for attr, value in vars(mod).items()}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_is_deterministic_per_seed(workload):
    first = workloads.build(workload, 7, size=12)
    assert first == workloads.build(workload, 7, size=12)
    assert first != workloads.build(workload, 8, size=12)


@pytest.mark.parametrize("make", [
    lambda rng: workloads.layered_grid(rng, 6, 4),
    lambda rng: workloads.gnp_graph(rng, 30),
    lambda rng: workloads.unequal_groups(rng, (3, 5, 8, 2)),
    lambda rng: workloads.continuous_bids(rng, 20),
    lambda rng: workloads.tied_bids(rng, 20),
])
def test_generator_is_deterministic_per_seed(make):
    assert make(random.Random(3)) == make(random.Random(3))


def test_gnp_graph_is_connected():
    g = workloads.gnp_graph(random.Random(1), 40, mean_degree=1.0)
    adj = g.adjacency()
    seen, frontier = {0}, [0]
    while frontier:
        for w in adj[frontier.pop()] - seen:
            seen.add(w)
            frontier.append(w)
    assert seen == set(range(40))


def test_every_workload_passes_its_output_check():
    for workload in workloads.WORKLOADS:
        if workload == "kpath-ties":
            continue  # its failing auctions are the workload's point
        for auction in workloads.build(workload, 1, size=8):
            assert workloads.check(auction, auction.call()) is None


def test_check_rejects_a_payment_below_the_bid():
    auction = workloads.build("groups-generic", 1, size=1)[0]
    out = auction.call()
    winner = min(out.winners)
    bad = type(out)(out.pruned, out.lift, out.winners, out.t1, out.t2,
                    {**out.payments, winner: auction.bids[winner] - 1.0}, out.total_payment)
    assert "below its bid" in workloads.check(auction, bad)


def test_trace_wrappers_restore_every_attribute_after_an_exception():
    import frugal.flows
    import frugal.spectral

    before = _frugal_bindings()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(LAYER_MODULES) as names:
            assert "flows.min_cost_flow" in names
            assert frugal.flows.min_cost_flow.__wrapped__ is before[("frugal.flows", "min_cost_flow")]
            # bound by name through `from .dependency import components`
            assert frugal.spectral.components is not before[("frugal.spectral", "components")]
            raise RuntimeError("abort inside the traced block")
    after = _frugal_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_times_add_up_to_the_parent_span():
    auctions = workloads.build("groups-generic", 2, size=8)
    tracer = tracing.Tracer()
    with tracer.installed(LAYER_MODULES):
        for i, auction in enumerate(auctions):
            tracer.begin_auction(i)
            auction.call()
    selfs = tracing.self_times(tracer.spans)
    children: dict[int, list[int]] = {}
    duration = {}
    root_auctions = set()
    for auction_id, sid, parent, _, start, end in tracer.spans:
        children.setdefault(parent, []).append(sid)
        duration[sid] = end - start
        if parent == -1:
            root_auctions.add(auction_id)

    def subtree_self(sid):
        return selfs[sid] + sum(subtree_self(c) for c in children.get(sid, ()))

    roots = children[-1]
    assert root_auctions == set(range(len(auctions)))
    for sid in duration:
        assert subtree_self(sid) == duration[sid]
        assert selfs[sid] >= 0

    metrics, absent = tracing.layer_metrics(tracer, [name for *_, name, _, _ in tracer.spans])
    layer_total = sum(metrics[f"{layer}.self_s"]["value"] for layer in tracing.LAYERS)
    root_total = sum(duration[sid] for sid in roots) / len(auctions) / 1e9
    assert layer_total == pytest.approx(root_total, rel=1e-9, abs=1e-12)


def test_probe_counter_matches_predicate_calls():
    import frugal.mechanisms

    calls = []

    def wins(beta):
        calls.append(beta)
        return beta < 0.3

    tracer = tracing.Tracer()
    with tracer.installed(LAYER_MODULES) as names:
        tracer.begin_auction(0)
        frugal.mechanisms.threshold_bid(wins, 1.0)
    metrics, absent = tracing.layer_metrics(tracer, names)
    assert absent == []
    assert metrics["mechanisms.threshold_bid.calls"]["value"] == 1
    assert metrics["mechanisms.threshold_probes"]["value"] == len(calls) > 32
    assert metrics["mechanisms.probes_per_threshold"]["value"] == len(calls)


def test_absent_target_reads_zero_and_is_listed():
    tracer = tracing.Tracer()
    names = ["flows.min_cost_flow"]
    metrics, absent = tracing.layer_metrics(tracer, names)
    assert "flows.max_flow_value" in absent and "flows.min_cost_flow" not in absent
    assert metrics["flows.max_flow_value.calls"]["value"] == 0


def test_p90_leaves_ten_samples_above_it_at_one_hundred():
    import run

    samples = list(range(1, 101))
    assert sum(x > run.p90(samples) for x in samples) == 10


def test_host_speed_samples_only_when_due():
    import run

    speed = run.HostSpeed()
    assert speed.sample() > 0.0
    assert speed.sample() == 0.0
    (start, seconds), = speed.samples
    assert speed.scaled(start, seconds) == pytest.approx(run.REFERENCE_NOMINAL_S)


def test_host_speed_scales_by_the_samples_near_each_time():
    import run

    speed = run.HostSpeed()
    window = run.REFERENCE_WINDOW_S
    speed.samples = [(0.0, 0.002), (0.5 * window, 0.004), (3 * window, 0.010)]
    assert speed.scaled(0.0, 1.0) == pytest.approx(run.REFERENCE_NOMINAL_S / 0.003)
    assert speed.scaled(3 * window, 1.0) == pytest.approx(run.REFERENCE_NOMINAL_S / 0.010)
    assert speed.scaled(10 * window, 1.0) == pytest.approx(run.REFERENCE_NOMINAL_S / 0.004)


def test_benchmark_file_names_the_metrics_the_harness_prints():
    import json

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layer = [(name, unit, better) for name, unit, better, _ in tracing.LAYER_METRICS]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        layer + [("trace_overhead", "%", "lower")]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
