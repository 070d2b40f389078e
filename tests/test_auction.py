import ast
import hashlib
import json
import random
from pathlib import Path

import pytest

from flowauction import auction, cli, flow
from flowauction.auction import (
    AuctionError,
    SolveOptions,
    allocate,
    first_prices,
    price_raising,
    solve,
)
from flowauction.flow import build_demand_network, check_feasible, flow_update, leftmost_min_cut, max_flow
from flowauction.model import (
    InstanceError,
    IterationRecord,
    PriceVector,
    duplicate_instance,
    instance_from_dict,
    validate_instance,
)
from flowauction.tiers import tier_report
from flowauction.verify import (
    check_equilibrium,
    min_competitive_bruteforce,
    perturb_instance,
    random_instance,
    random_prices,
)
from conftest import HUGE_VALUES, carried_gaps, check_carried_breakpoints, pinned_markets


def cut_and_flow(instance, prices):
    network = build_demand_network(instance, prices)
    best = max_flow(network)
    return leftmost_min_cut(network, best), best


def linear_scan_step(instance, prices, raised):
    """Oracle for the adapted step: try every raise until the cut changes."""
    for amount in range(1, instance.max_valuation + 2):
        cut, _ = cut_and_flow(instance, prices.raised(raised, amount))
        if cut.objects != frozenset(raised):
            return amount
    raise AssertionError("cut never changed")


def unit_walk_records(instance, per_unit=False):
    """Reference for the climb: walk in unit steps, with every tier report
    and the network rebuilt at every step, and the max flow carried over
    each step by ``flow_update``, checked by ``check_feasible`` and
    augmented by a warm-started ``max_flow``.  Each carried flow leaves at
    most the source capacity unmet that the flow before it left.  Adapted
    mode writes one record per jump, which lasts until the left-most cut's
    object set changes; ``per_unit`` writes one record per unit step, as
    unit mode does."""
    prices = PriceVector.zero(instance)
    network = build_demand_network(instance, prices)
    best = max_flow(network)
    records = []
    while best.value < network.cap_s:
        cut = leftmost_min_cut(network, best)
        raised = tuple(i for i in instance.objects if i in cut.objects)
        step_network, step_best, step = network, best, 0
        while True:
            step += 1
            step_prices = prices.raised(raised, step)
            next_network = build_demand_network(instance, step_prices)
            update = flow_update(step_network, step_best, next_network)
            check_feasible(next_network, update.flow)
            gap = next_network.cap_s - update.flow.value
            assert gap <= step_network.cap_s - step_best.value
            step_network = next_network
            step_best = max_flow(next_network, warm_start=update.flow)
            if per_unit or step_best.value == step_network.cap_s:
                break
            if leftmost_min_cut(step_network, step_best).objects != cut.objects:
                break
        records.append(
            IterationRecord(
                index=len(records),
                prices=prices.as_dict(),
                raised=raised,
                cut_nodes=cut.labels,
                flow_value=best.value,
                cap_s=network.cap_s,
                step=step,
            )
        )
        prices, network, best = step_prices, step_network, step_best
    return prices, tuple(records)


def unit_cold_records(instance):
    """Reference for unit mode with a cold start, by its definition: at
    every unit raise every tier report, the network, a cold max flow and
    the left-most cut are computed afresh, and no flow is handed over.
    Returns the prices, the records and the tier-oracle calls made."""
    prices = PriceVector.zero(instance)
    network = build_demand_network(instance, prices)
    best = max_flow(network)
    calls = len(instance.buyers)
    records = []
    while best.value < network.cap_s:
        cut = leftmost_min_cut(network, best)
        raised = tuple(i for i in instance.objects if i in cut.objects)
        records.append(
            IterationRecord(
                index=len(records),
                prices=prices.as_dict(),
                raised=raised,
                cut_nodes=cut.labels,
                flow_value=best.value,
                cap_s=network.cap_s,
                step=1,
            )
        )
        prices = prices.raised(raised, 1)
        network = build_demand_network(instance, prices)
        best = max_flow(network)
        calls += len(instance.buyers)
    return prices, tuple(records), calls


def restart_fault_pair():
    """Supplies a:1, b:1 and three unit-demand buyers valuing (5, 4), (5, 4)
    and (5, 1); the twin has no supply of a."""
    values = {"x": {"a": 5, "b": 4}, "y": {"a": 5, "b": 4}, "z": {"a": 5, "b": 1}}
    base = validate_instance({"a": 1, "b": 1}, {"x": 1, "y": 1, "z": 1}, values)
    twin = validate_instance({"a": 0, "b": 1}, {"x": 1, "y": 1, "z": 1}, values)
    return base, twin


def scaled(instance, factor):
    return validate_instance(
        instance.supplies,
        instance.demands,
        {j: {i: instance.valuations[(i, j)] * factor for i in instance.objects} for j in instance.buyers},
    )


class TestPriceRaising:
    def test_example1(self, example1):
        prices, trace = price_raising(example1)
        assert prices.as_dict() == {"alpha": 0, "beta": 0}
        assert trace.iterations == ()

    def test_three_buyers(self, three_buyers):
        prices, trace = price_raising(three_buyers)
        assert prices.as_dict() == {"alpha": 2, "beta": 0}
        assert [rec.raised for rec in trace.iterations] == [("alpha",), ("alpha",)]

    def test_fig1(self, fig1):
        prices, trace = price_raising(fig1)
        assert prices.as_dict() == {"alpha": 0, "beta": 1, "gamma": 0}
        assert trace.iterations[0].raised == ("beta",)
        assert trace.iterations[0].flow_value == 4
        assert trace.iterations[0].cap_s == 5

    def test_trace_invariants(self, three_buyers, fig1, contested_single):
        for inst in (three_buyers, fig1, contested_single):
            _, trace = price_raising(inst)
            for rec in trace.iterations:
                assert rec.raised
                assert set(rec.raised) <= set(inst.objects)
                assert rec.flow_value < rec.cap_s
                assert rec.step >= 1

    def test_price_monotone_within_run(self, three_buyers):
        final, trace = price_raising(three_buyers)
        rows = [rec.prices for rec in trace.iterations] + [final.prices]
        for before, after, rec in zip(rows, rows[1:], trace.iterations):
            for i in before:
                assert before[i] <= after[i]
            for i in rec.raised:
                assert before[i] < after[i]

    def test_start_prices_respected(self, three_buyers):
        start = PriceVector({"alpha": 1, "beta": 0})
        prices, trace = price_raising(three_buyers, SolveOptions(start_prices=start))
        assert prices.as_dict() == {"alpha": 2, "beta": 0}
        assert len(trace.iterations) == 1

    def test_records_and_reports_are_value_types(self):
        # zeta comes first in canonical order; records 1 and 2 are one run.
        inst = validate_instance(
            {"zeta": 1, "alpha": 2},
            {"u": 1, "v": 2, "w": 1},
            {"u": {"zeta": 6, "alpha": 5}, "v": {"zeta": 6, "alpha": 3}, "w": {"zeta": 4}},
        )
        _, trace = price_raising(inst)
        records = trace.iterations
        assert IterationRecord._fields == (
            "index", "prices", "raised", "cut_nodes", "flow_value", "cap_s", "step"
        )
        assert [rec.index for rec in records] == [0, 1, 2, 3]
        assert records[1].raised == records[2].raised == ("zeta",)
        report = tier_report(inst, "u", PriceVector.zero(inst))
        assert type(report)._fields == (
            "above", "at_margin", "zero", "demand_above", "demand_at_margin", "demand_zero"
        )
        with pytest.raises(AttributeError):
            records[0].step = 2
        with pytest.raises(AttributeError):
            report.demand_above = 0
        expected = [{"zeta": k, "alpha": 0} for k in range(4)]
        assert [list(rec.prices) for rec in records] == [["zeta", "alpha"]] * 4
        assert [rec.prices for rec in records] == expected
        records[1].prices["zeta"] = 99
        assert [rec.prices for k, rec in enumerate(records) if k != 1] == expected[:1] + expected[2:]

    def test_rejects_unknown_mode(self, example1):
        with pytest.raises(ValueError):
            price_raising(example1, SolveOptions(mode="bogus"))

    def test_restart_invariance(self, fig1, three_buyers, contested_single):
        for inst in (fig1, three_buyers, contested_single):
            final, trace = price_raising(inst)
            for rec in trace.iterations:
                restart = PriceVector(dict(rec.prices))
                again, _ = price_raising(inst, SolveOptions(start_prices=restart))
                assert again == final

    def test_restart_after_supply_cut_to_zero(self):
        base, twin = restart_fault_pair()
        start, _ = price_raising(base)
        assert start.as_dict() == {"a": 5, "b": 4}
        for mode in auction.MODES:
            options = SolveOptions(mode=mode, start_prices=start)
            prices, _ = price_raising(twin, options)
            assert prices.as_dict() == {"a": 0, "b": 4}

    def test_first_prices_start_unsupplied_objects_at_zero(self):
        base, twin = restart_fault_pair()
        start = PriceVector({"a": 5, "b": 4})
        assert first_prices(base, start) == start
        assert first_prices(twin, start).as_dict() == {"a": 0, "b": 4}
        assert first_prices(twin, None) == PriceVector.zero(twin)
        with pytest.raises(InstanceError, match="unknown objects"):
            first_prices(twin, PriceVector({"c": 1}))

    def test_restarted_twins_reach_the_grid_minimum(self):
        rng = random.Random(83)
        zeroed = 0
        for _ in range(60):
            inst = random_instance(rng, max_objects=3, max_buyers=4, max_value=6)
            start, _ = price_raising(inst)
            twin, change = perturb_instance(rng, inst)
            if change.kind == "supply" and twin.supplies[change.target] == 0 and start[change.target] > 0:
                zeroed += 1
            expected = min_competitive_bruteforce(twin)
            for mode in auction.MODES:
                options = SolveOptions(mode=mode, start_prices=start)
                assert price_raising(twin, options)[0] == expected, (mode, change)
        assert zeroed > 0


def adapted_steps(instance):
    """Adapted steps of the climb, each checked against the linear scan at
    the prices of its record."""
    _, trace = price_raising(instance, SolveOptions(mode="adapted"))
    for rec in trace.iterations:
        assert rec.step == linear_scan_step(instance, PriceVector(rec.prices), rec.raised)
    return [rec.step for rec in trace.iterations]


class TestAdaptedStepLength:
    def test_contested_object_steps_to_the_change_point(self, contested_single):
        assert adapted_steps(contested_single)[0] == 5

    def test_immediate_change_gives_one(self):
        inst = validate_instance(
            {"x": 1, "y": 1},
            {"u": 1, "w": 1},
            {"u": {"x": 3, "y": 2}, "w": {"x": 3, "y": 2}},
        )
        cut, _ = cut_and_flow(inst, PriceVector.zero(inst))
        assert cut.objects == frozenset({"x"})
        assert adapted_steps(inst)[0] == 1

    def test_three_buyers_steps_to_terminal(self, three_buyers):
        assert adapted_steps(three_buyers) == [2]

    def test_competitive_market_takes_no_step(self, example1):
        assert adapted_steps(example1) == []

    def test_steps_match_linear_scan(self):
        rng = random.Random(99)
        checked = 0
        while checked < 40:
            inst = random_instance(rng)
            cut, _ = cut_and_flow(inst, PriceVector.zero(inst))
            if not cut.objects:
                continue
            assert adapted_steps(inst)
            checked += 1


class TestAllocate:
    def test_example1(self, example1):
        allocation = allocate(example1, PriceVector.zero(example1))
        assert allocation.to_nested() == {"alpha": {"b1": 1}, "beta": {"b1": 1}}

    def test_three_buyers_aggregates(self, three_buyers):
        allocation = allocate(three_buyers, PriceVector({"alpha": 2, "beta": 0}))
        assert allocation.total == 5
        assert allocation.sold_of("alpha") == 3
        assert allocation.sold_of("beta") == 2
        assert allocation.bought_by("b1") == 2
        assert allocation.bought_by("b2") == 2
        assert allocation.bought_by("b3") == 1
        assert allocation.quantity("beta", "b3") == 1

    def test_single_buyer_limited_demand(self):
        inst = validate_instance({"x": 1, "y": 1}, {"j": 1}, {"j": {"x": 1}})
        allocation = allocate(inst, PriceVector.zero(inst))
        assert allocation.total == 1

    def test_no_buyers_sells_nothing(self):
        inst = validate_instance({"x": 2}, {}, {})
        allocation = allocate(inst, PriceVector.zero(inst))
        assert allocation.quantities == {}


class TestSolve:
    def test_example1(self, example1):
        eq = solve(example1)
        assert eq.prices.as_dict() == {"alpha": 0, "beta": 0}
        assert eq.allocation.to_nested() == {"alpha": {"b1": 1}, "beta": {"b1": 1}}

    def test_duplicated_example1_prices_differ(self, example1):
        eq = solve(duplicate_instance(example1))
        assert eq.prices.as_dict() == {"alpha#1": 4, "beta#1": 0}

    def test_empty_instance(self):
        inst = validate_instance({}, {}, {})
        eq = solve(inst)
        assert eq.prices.as_dict() == {}
        assert eq.allocation.quantities == {}

    def test_output_is_equilibrium(self, example1, fig1, three_buyers, contested_single):
        for inst in (example1, fig1, three_buyers, contested_single):
            eq = solve(inst)
            report = check_equilibrium(inst, eq.prices, eq.allocation)
            assert report.feasible and all(report.stable.values())
            assert report.quantity_sold == report.expected_quantity and report.positive_price_sellout


class TestModeAndWarmEquivalence:
    def test_modes_and_warm_starts_agree(self):
        """The mode decides only how the climb is read, never the climb,
        and the ``warm_start`` field decides nothing at all: every run
        gives the same prices, allocation, walks and ``oracle_calls``."""
        rng = random.Random(4)
        for _ in range(60):
            inst = random_instance(rng)
            runs, records = [], {}
            for mode in auction.MODES:
                for warm in (True, False):
                    equilibrium = solve(inst, SolveOptions(mode=mode, warm_start=warm))
                    trace = equilibrium.trace
                    allocation = list(equilibrium.allocation.quantities.items())
                    runs.append((equilibrium.prices, allocation, trace.walks, trace.oracle_calls))
                    records[mode] = len(trace.iterations)
            assert all(run == runs[0] for run in runs)
            assert records["adapted"] <= records["unit"]

    def test_iteration_bound(self):
        rng = random.Random(12)
        for _ in range(60):
            inst = random_instance(rng)
            prices, trace = price_raising(inst)
            biggest = max(prices.as_dict().values(), default=0)
            assert len(trace.iterations) <= biggest

    def test_warm_start_gap_never_grows(self):
        """Replayed with its max flow carried over each walk and each unit
        raise, the climb's carried flows are feasible and leave no more of
        the source capacity unmet than the flows before them."""
        rng = random.Random(21)
        carried = 0
        for _ in range(60):
            inst = random_instance(rng)
            _, trace = price_raising(inst, SolveOptions(mode="unit"))
            for rec, gap in carried_gaps(inst, trace.walks + trace.iterations):
                assert gap <= rec.cap_s - rec.flow_value
                carried += 1
        assert carried > 50


def walk_markets():
    rng = random.Random(31)
    for k in range(300):
        max_value = 1000 if k % 5 == 0 else 6
        yield random_instance(rng, max_objects=4, max_buyers=4, max_value=max_value)


class TestBreakpointWalk:
    def test_records_equal_the_unit_step_walk(self):
        for inst in walk_markets():
            prices, trace = price_raising(inst, SolveOptions(mode="adapted"))
            assert (prices, trace.iterations) == unit_walk_records(inst)

    def test_unit_records_equal_the_unit_step_walk(self):
        for inst in walk_markets():
            prices, trace = price_raising(inst, SolveOptions(mode="unit"))
            assert (prices, trace.iterations) == unit_walk_records(inst, per_unit=True)

    def test_cold_unit_records_equal_the_definition(self):
        fewer = 0
        for inst in walk_markets():
            prices, trace = price_raising(inst, SolveOptions(mode="unit"))
            ref_prices, ref_records, ref_calls = unit_cold_records(inst)
            assert prices == ref_prices
            assert len(trace.iterations) == len(ref_records)
            for record, ref in zip(trace.iterations, ref_records):
                assert record == ref
            assert trace.oracle_calls <= ref_calls
            fewer += trace.oracle_calls < ref_calls
        assert fewer > 50

    def test_every_network_built_in_the_walk_is_new(self, monkeypatch):
        """The walk builds a network only at a breakpoint, where some
        buyer's above-margin or at-margin tier changed, and such a change
        moves an arc; an object without supply is in no tier."""
        walk, build = auction._step_length, flow.build_demand_network
        handed, walks = [], 0

        def traced_walk(instance, network, *args):
            nonlocal walks
            walks += 1
            handed.append(network.arcs)
            try:
                return walk(instance, network, *args)
            finally:
                handed.pop()

        def traced_build(*args, **kwargs):
            network = build(*args, **kwargs)
            assert not handed or network.arcs != handed[-1]
            return network

        monkeypatch.setattr(auction, "_step_length", traced_walk)
        monkeypatch.setattr(flow, "build_demand_network", traced_build)
        unsupplied = 0
        for inst in walk_markets():
            unsupplied += not all(inst.supplies.values())
            for mode in auction.MODES:
                price_raising(inst, SolveOptions(mode=mode))
        assert walks > 100 and unsupplied > 50

    def test_the_walk_is_one_jump_to_the_first_breakpoint(self, monkeypatch):
        """Every breakpoint moves an arc, so the walk recomputes the reports
        of exactly the buyers whose breakpoint, carried or fresh, is the
        raise it returns, in one batch.  It asks each buyer for its
        breakpoint at most once, and exactly these: on a climb's first walk
        every buyer; on any later walk the buyers the walk before
        recomputed, and on a new cut also the buyers for whom an object
        that entered or left the cut is in supply and has payoff at least 0
        at the walk's prices.  The others carry theirs."""
        walk, breakpoint, reports_of = auction._step_length, auction.next_breakpoint, auction.tier_reports
        asked, recomputed, walks, carried_walks, kept_across = {}, [], 0, 0, 0
        previous = None

        def counted_breakpoint(instance, buyer, *args):
            assert buyer not in asked
            asked[buyer] = breakpoint(instance, buyer, *args)
            return asked[buyer]

        def counted_reports(instance, buyers, prices):
            recomputed.extend(buyers)
            return reports_of(instance, buyers, prices)

        def traced_walk(instance, network, reports, raised, levels, climbed):
            nonlocal walks, carried_walks, kept_across, previous
            carried = {j: None if t is None else t - climbed for j, t in levels.items()}
            asked.clear()
            recomputed.clear()
            step, calls, step_network = walk(instance, network, reports, raised, levels, climbed)
            if previous is None:
                expected = list(instance.buyers)
            else:
                moved = raised ^ previous[0]
                prices = network.prices
                expected = [
                    j
                    for j in instance.buyers
                    if j in previous[1]
                    or any(instance.supplies[i] and instance.payoff(i, j, prices) >= 0 for i in moved)
                ]
                carried_walks += 1
                kept_across += bool(moved) and len(expected) < len(instance.buyers)
            assert list(asked) == expected
            assert recomputed == [j for j in instance.buyers if {**carried, **asked}[j] == step]
            assert calls == len(recomputed)
            previous = (raised, list(recomputed))
            walks += 1
            return step, calls, step_network

        monkeypatch.setattr(auction, "_step_length", traced_walk)
        monkeypatch.setattr(auction, "next_breakpoint", counted_breakpoint)
        monkeypatch.setattr(auction, "tier_reports", counted_reports)
        for inst in walk_markets():
            for mode in auction.MODES:
                previous = None
                price_raising(inst, SolveOptions(mode=mode))
        assert walks > 100 and carried_walks > 100 and kept_across > 20

    def test_carried_breakpoints_are_fresh_ones(self, monkeypatch):
        """A buyer that was not due keeps its breakpoint, less the step,
        while the cut stays: on 1500 seeded markets, some of them with
        objects without supply, each carried breakpoint equals a fresh one,
        and the climb gives what a climb that carries none gives."""
        rng = random.Random(47)
        markets = [
            random_instance(rng, max_objects=5, max_buyers=5, max_value=1000 if k % 5 == 0 else 8)
            for k in range(1500)
        ]
        checked, across = check_carried_breakpoints(monkeypatch, [(inst, None) for inst in markets])
        assert sum(not all(inst.supplies.values()) for inst in markets) > 600
        assert checked > 2000 and across > 0

    def test_carried_levels_sweep_across_cut_changes(self, monkeypatch):
        """On 1500 seeded markets, with values up to 6, 30 and 300 in turn,
        half of them climbed from random prices below the minimum: every
        level a walk carries, over a new cut too, equals a fresh
        breakpoint, and the climb gives what a climb that carries none
        gives.  Many new cuts ask fewer than every buyer."""
        rng = random.Random(61)
        markets = []
        for k in range(1500):
            inst = random_instance(
                rng, max_objects=5, max_buyers=5, max_supply=4, max_demand=4, max_value=(6, 30, 300)[k % 3]
            )
            start = None
            if k % 2:
                minimum, _ = price_raising(inst)
                start = PriceVector({i: rng.randint(0, p) for i, p in minimum.prices.items()})
            markets.append((inst, start))
        checked, across = check_carried_breakpoints(monkeypatch, markets)
        assert checked > 2000 and across > 250, (checked, across)

    def test_the_tiers_change_exactly_where_their_arcs_do(self):
        """The walk stops at the first breakpoint, where some buyer's
        above-margin or at-margin tier changed, which is sound only if those
        tiers and the buyer's source and tier arcs fix each other."""
        rng = random.Random(43)
        pairs = unequal = 0
        for _ in range(2000):
            inst = random_instance(rng, max_objects=4, max_buyers=4, max_value=6)
            parts, arcs = [], []
            for prices in (random_prices(rng, inst), random_prices(rng, inst)):
                reports = {j: tier_report(inst, j, prices) for j in inst.buyers}
                network = build_demand_network(inst, prices, reports)
                parts.append({j: (reports[j].above, reports[j].at_margin) for j in inst.buyers})
                # Buyer b's tier nodes are 1 + 2b and 2 + 2b; its source
                # arcs enter them and its tier arcs leave them.
                tiers = {j: (1 + 2 * b, 2 + 2 * b) for b, j in enumerate(inst.buyers)}
                arcs.append(
                    {
                        j: [arc for arc in network.arcs if arc[1 if arc[0] == 0 else 0] in tiers[j]]
                        for j in inst.buyers
                    }
                )
            for j in inst.buyers:
                same = parts[0][j] == parts[1][j]
                assert same == (arcs[0][j] == arcs[1][j])
                pairs += 1
                unequal += not same
        assert pairs > 4000 and unequal > 1000

    def test_cost_does_not_grow_with_values(self):
        base, _ = restart_fault_pair()
        calls, unit_calls = set(), set()
        for factor in (1, 200, 2000, 20000):
            inst = scaled(base, factor)
            prices, adapted = price_raising(inst, SolveOptions(mode="adapted"))
            assert prices.as_dict() == {"a": 5 * factor, "b": 4 * factor}
            calls.add(adapted.oracle_calls)
            # Unit mode takes the same walks; only its view of them, built
            # when read, grows with the values.
            unit_prices, unit = price_raising(inst, SolveOptions(mode="unit"))
            assert unit_prices == prices
            unit_calls.add(unit.oracle_calls)
        assert len(calls) == 1
        assert len(unit_calls) == 1

    def test_unit_mode_counts_a_billion_raises_without_writing_them(self):
        """Values near 10^9 take unit mode 10^9 raises: it climbs them in
        the walks adapted mode takes, and counts its records without
        building them."""
        inst = instance_from_dict(HUGE_VALUES)
        prices, trace = price_raising(inst, SolveOptions(mode="unit"))
        adapted_prices, adapted = price_raising(inst, SolveOptions(mode="adapted"))
        assert prices.as_dict() == adapted_prices.as_dict() == {"a": 10**9, "b": 10**9 - 1}
        assert trace.record_count == 10**9
        assert trace.walks == adapted.walks
        assert trace.oracle_calls == adapted.oracle_calls
        assert "iterations" not in trace.__dict__


class TestOneClimbTwoViews:
    def test_a_unit_solve_builds_unit_records_only_when_read(self, monkeypatch):
        """Values in the hundreds take unit mode hundreds of unit raises in
        a few walks: the climb writes one record per walk, and the unit
        records are built the first time ``iterations`` is read."""
        inst = scaled(restart_fault_pair()[0], 100)
        walk, walks, built = auction._step_length, [], []

        def traced_walk(*args):
            walks.append(args)
            return walk(*args)

        def counted(*fields):
            built.append(fields)
            return IterationRecord(*fields)

        monkeypatch.setattr(auction, "_step_length", traced_walk)
        monkeypatch.setattr(auction, "IterationRecord", counted)
        equilibrium = solve(inst, SolveOptions(mode="unit"))
        trace = equilibrium.trace
        assert equilibrium.prices.as_dict() == {"a": 500, "b": 400}
        assert cli._final_payload(equilibrium)["iterations"] == trace.record_count == 500
        assert len(built) <= len(walks) < 10
        assert "iterations" not in vars(trace)
        records = trace.iterations
        assert len(records) == 500 and trace.iterations is records
        assert [record.step for record in records] == [1] * 500
        assert len(built) <= len(walks)

    def test_the_count_and_the_views_agree(self):
        for inst in walk_markets():
            traces = {}
            for mode in auction.MODES:
                _, trace = price_raising(inst, SolveOptions(mode=mode))
                assert trace.record_count == len(trace.iterations)
                traces[mode] = trace
            unit, adapted = traces["unit"], traces["adapted"]
            assert unit.walks == adapted.walks
            assert len(unit.iterations) == sum(record.step for record in adapted.iterations)


PINNED_DIGESTS = {
    "unit": "9099c2c544534725",
    "adapted": "fb4adfdb6be1683d",
}


def test_solve_outputs_are_pinned():
    """Per mode, a digest of the prices, the allocation items in
    order, ``trace_records`` and ``oracle_calls`` of every solve in a seeded
    sweep: each market from zero prices, then its perturbed twin restarted
    from the market's prices.  Only sound starts are used, so a solver that
    also lowers prices leaves the digests as they are.  They do not depend
    on the string-hash seed.  A change that moves them changes the solver's
    output; re-recording them needs a line in CHANGES.md saying why."""
    markets = list(pinned_markets())
    digests = {}
    for mode in auction.MODES:
        digest = hashlib.sha256()
        for base, twin in markets:
            start = None
            for inst in (base, twin):
                equilibrium = solve(inst, SolveOptions(mode=mode, start_prices=start))
                output = [
                    equilibrium.prices.as_dict(),
                    list(equilibrium.allocation.quantities.items()),
                    cli.trace_records(equilibrium.trace),
                    equilibrium.trace.oracle_calls,
                ]
                digest.update(json.dumps(output).encode())
                start = equilibrium.prices
        digests[mode] = digest.hexdigest()[:16]
    assert digests == PINNED_DIGESTS


def test_the_solver_imports_no_oracle_or_frontend():
    """The solver layer (model, tiers, flow, auction) imports nothing from
    the oracles in ``verify`` or the frontend in ``cli``."""
    package = Path(auction.__file__).parent
    for name in ("model", "tiers", "flow", "auction"):
        path = package / f"{name}.py"
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(part for alias in node.names for part in alias.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                imported.update((node.module or "").split("."))
                imported.update(alias.name for alias in node.names)
        forbidden = imported & {"verify", "cli"}
        assert not forbidden, f"{name}.py imports {sorted(forbidden)}"
