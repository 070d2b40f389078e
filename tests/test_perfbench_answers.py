"""The benchmark's answer checks, run on every benchmark market, and its
per-layer tracer.

``perfbench/run.py`` reports ``correct: false`` when an answer fails these
checks.  Running the same checks here makes such a solver change fail the
test suite, without a timed benchmark run.  The tracer wraps solver
functions by name: one that is renamed, or no longer called, fails the
tracer test instead of leaving its metrics at 0.  Only the market builders, the checks and the
tracer are imported, without writing bytecode next to them; ``run.py``
re-executes itself and is never imported.
"""

import importlib
import importlib.util
import itertools
import random
import sys
from pathlib import Path

import pytest

import flowauction
import flowauction.verify  # noqa: F401  (the market builders read flowauction.verify)
from flowauction import auction, flow
from flowauction.auction import SolveOptions, solve
from flowauction.model import PriceVector
from flowauction.verify import min_competitive_bruteforce
from conftest import check_carried_breakpoints

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


markets, checks, layers = load("markets"), load("checks"), load("layers")


@pytest.mark.parametrize("workload", sorted(markets.WORKLOADS))
def test_every_configuration_passes_the_benchmark_checks(workload):
    for market in markets.WORKLOADS[workload](flowauction, random.Random(1)):
        reference = checks.reference_prices(flowauction, market)
        for mode in auction.MODES:
            options = SolveOptions(mode=mode, start_prices=market.start)
            equilibrium = solve(market.instance, options)
            prices, quantities = equilibrium.prices.as_dict(), dict(equilibrium.allocation.quantities)
            errors = checks.answer_errors(market, reference, prices, quantities)
            assert errors == [], (market.name, mode)


def test_supply_bound_keeps_the_certify_grid_minima():
    """On every ``certify`` twin the grid minimum, over the whole grid and
    over the box below the solver's prices, equals the minimum this test
    enumerates with the max flow alone, without the supply bound."""
    for market in markets.WORKLOADS["certify"](flowauction, random.Random(1)):
        inst = market.instance
        competitive = []
        grid = range(inst.max_valuation + 2)
        for combo in itertools.product(grid, repeat=len(inst.objects)):
            network = flow.build_demand_network(inst, PriceVector(dict(zip(inst.objects, combo))))
            if flow.max_flow(network).value == network.cap_s:
                competitive.append(combo)
        minimum = PriceVector(dict(zip(inst.objects, map(min, zip(*competitive)))))
        upper = solve(inst, SolveOptions(start_prices=market.start)).prices
        assert min_competitive_bruteforce(inst) == minimum, market.name
        assert min_competitive_bruteforce(inst, upper=upper) == minimum, market.name


def test_carried_breakpoints_on_the_dense_market(monkeypatch):
    """The check of ``check_carried_breakpoints`` on the ``dense`` market,
    where most walks raise the cut of the walk before."""
    (market,) = markets.WORKLOADS["dense"](flowauction, random.Random(1))
    checked, across = check_carried_breakpoints(monkeypatch, [(market.instance, market.start)])
    assert checked > 100 and across > 0


def test_a_dense_walk_redoes_work_only_for_the_buyers_who_changed(monkeypatch):
    """An adapted solve of the ``dense`` market (68 buyers, 10 walks,
    then the allocation).  A walk asks only the buyers that the walk
    before recomputed for their breakpoint, and on a new cut also those
    for whom an object that entered or left the cut is in supply and has
    payoff at least 0: 132 questions, where asking every buyer on a new
    cut takes 173, and every buyer on every walk 680.  Each cut reads the
    search that ended its max flow: 16 residual searches, 11 in the climb
    and 5 in the allocation.  The tier-oracle calls stay 154."""
    counts = {"breakpoints": 0, "searches": 0}
    breakpoint, search = auction.next_breakpoint, flow._residual_search

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(auction, "next_breakpoint", counted("breakpoints", breakpoint))
    monkeypatch.setattr(flow, "_residual_search", counted("searches", search))
    (market,) = markets.WORKLOADS["dense"](flowauction, random.Random(1))
    options = SolveOptions(mode="adapted", start_prices=market.start)
    trace = solve(market.instance, options).trace
    assert len(trace.walks) == 10 and trace.oracle_calls == 154
    assert counts["breakpoints"] == 132
    assert counts["searches"] <= 16


def test_a_dense_solve_asks_the_tier_oracle_only_in_the_climb(monkeypatch):
    """An adapted solve of the ``dense`` market makes 154 tier-oracle
    calls, the climb's ``oracle_calls``: ``allocate`` reads the climb's
    final reports and asks for none, where one per buyer of the balanced
    market takes 68 more.  Counted by the buyers of every batch, through
    every binding that asks for one."""
    calls = 0
    reports_of = flow.tier_reports

    def counted(instance, buyers, prices):
        nonlocal calls
        buyers = list(buyers)
        calls += len(buyers)
        return reports_of(instance, buyers, prices)

    monkeypatch.setattr(auction, "tier_reports", counted)
    monkeypatch.setattr(flow, "tier_reports", counted)
    (market,) = markets.WORKLOADS["dense"](flowauction, random.Random(1))
    options = SolveOptions(mode="adapted", start_prices=market.start)
    trace = solve(market.instance, options).trace
    assert calls == trace.oracle_calls == 154


def test_a_dense_walk_lays_again_only_the_blocks_of_the_due_buyers(monkeypatch):
    """An adapted solve of the ``dense`` market: 10 walks over 68
    buyers, each with 2 tier nodes, and 86 tier reports after the first 68.
    Of the 1360 tier-node ``out`` lists of the 10 walks' networks, 1188 are
    the very lists of the network before, and the 2 * 86 of the due buyers
    are new, so no buyer who is not due has its arcs laid again."""
    shared = new = 0
    build = flow.build_demand_network

    def counted(instance, prices, reports=None, base=None, due=()):
        nonlocal shared, new
        network = build(instance, prices, reports, base=base, due=due)
        if base is not None:
            for u in range(1, network.first_object):
                if network.out[u] is base.out[u]:
                    shared += 1
                else:
                    new += 1
        return network

    monkeypatch.setattr(flow, "build_demand_network", counted)
    (market,) = markets.WORKLOADS["dense"](flowauction, random.Random(1))
    inst = market.instance
    options = SolveOptions(mode="adapted", start_prices=market.start)
    trace = solve(inst, options).trace
    assert (len(trace.walks), len(inst.buyers), trace.oracle_calls) == (10, 68, 154)
    assert (shared, new) == (1188, 2 * 86)


def test_every_max_flow_starts_from_the_direct_paths(monkeypatch):
    """The climbs of the ``dense`` market, 10 walks over 11 networks.
    ``max_flow`` starts each flow it is not handed from the network's
    direct paths, which are maximum on every one of these networks, so a
    climb runs one residual search per network, to confirm the flow and
    read its cut: 11, where starting from zero takes 240.  ``allocate``
    runs 5, where 76 from zero."""
    searches = 0
    search = flow._residual_search

    def counted(*args):
        nonlocal searches
        searches += 1
        return search(*args)

    monkeypatch.setattr(flow, "_residual_search", counted)
    (market,) = markets.WORKLOADS["dense"](flowauction, random.Random(1))
    for mode in auction.MODES:
        searches = 0
        options = SolveOptions(mode=mode, start_prices=market.start)
        prices, trace = auction.price_raising(market.instance, options)
        assert len(trace.walks) == 10
        assert searches == 11, (mode, searches)
    searches = 0
    auction.allocate(market.instance, prices)
    assert searches == 5


def test_the_tracer_still_fits_the_solver():
    """Install the tracer on a fresh import of the package, as ``run.py``
    does, and solve one ``dense`` market under every solve operation's
    name: every function the tracer wraps still exists by name, and the
    flow functions the climb calls and the adapted step length are
    counted.  ``flow_update`` and ``check_feasible`` stay wrapped but
    uncalled: no climb carries a flow."""
    def ours(name):
        return name == "flowauction" or name.startswith("flowauction.")

    saved = {name: module for name, module in sys.modules.items() if ours(name)}
    try:
        for name in saved:
            del sys.modules[name]
        fa = importlib.import_module("flowauction")
        for name in layers.MODULES:
            importlib.import_module(f"flowauction.{name}")
        (market,) = markets.WORKLOADS["dense"](fa, random.Random(1))
        tracer = layers.Tracer()
        tracer.install(fa)
        missing = [
            f"{module}.{function}"
            for module, function, *_ in layers.TRACED
            if not callable(getattr(getattr(fa, module), function, None))
        ]
        assert missing == []
        for op in layers.SOLVE_OPS:
            tracer.begin(op)
            mode, _ = op.split("-")
            options = fa.auction.SolveOptions(mode=mode, start_prices=market.start)
            fa.auction.solve(market.instance, options)
        tracer.end_pass(dict.fromkeys(layers.SOLVE_OPS, 1.0))
        metrics = tracer.metrics()
    finally:
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(saved)
    counted = [
        *(f"flow.max_flow.calls.{op}" for op in layers.SOLVE_OPS),
        *(f"flow.leftmost_min_cut.calls.{op}" for op in layers.SOLVE_OPS),
        *(f"flow.build_demand_network.calls.{op}" for op in layers.SOLVE_OPS),
        "auction.step_length.calls.adapted-warm",
        "auction.step_length.calls.adapted-cold",
        "auction.price_raising.oracle_calls.unit-cold",
    ]
    assert [name for name in counted if not metrics[name]["value"]] == []
