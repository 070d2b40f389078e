import hashlib
import itertools
import random
import weakref
from collections import Counter, deque

import pytest

from flowauction import flow
from flowauction.auction import SolveOptions, first_prices, price_raising
from flowauction.flow import (
    FlowError,
    FlowNetwork,
    IntegralFlow,
    _residual_search,
    build_allocation_network,
    build_demand_network,
    check_feasible,
    direct_flow,
    dump_network,
    flow_update,
    leftmost_min_cut,
    max_flow,
)
from flowauction.model import DUMMY_BUYER, DUMMY_OBJECT, PriceVector, balance_instance, validate_instance
from flowauction.tiers import tier_report, tier_reports
from flowauction.verify import random_instance, random_prices
from conftest import pinned_markets

FIG1_DUMP = """\
s -> j1' [2, 0]
s -> j1'' [2, 0]
s -> j2' [0, 0]
s -> j2'' [1, 0]
j1' -> alpha [1, 0]
j1' -> beta [1, 0]
j1'' -> gamma [2, 0]
j2'' -> beta [1, 0]
alpha -> t [1, 0]
beta -> t [1, 0]
gamma -> t [4, 0]
"""


def node_labels(network):
    """The node labels, indexed by node id."""
    return [network.label(k) for k in range(network.sink + 1)]


def labelled_arcs(network):
    """The present arcs as (tail, head, capacity) with node labels, in slot
    order."""
    labels = node_labels(network)
    return [(labels[u], labels[v], c) for u, v, c in network.arcs]


def present_slots(network):
    """The present arcs as (slot, tail, head) node ids, in slot order."""
    return [(a, network.tails[a], network.heads[a]) for a, c in enumerate(network.cap) if c]


def capacities(network):
    """The arc capacities keyed by (tail, head) node labels."""
    return {(u, v): c for u, v, c in labelled_arcs(network)}


def amounts(network, flow):
    """The flow's amounts keyed by (tail, head) node labels."""
    labels = node_labels(network)
    return {(labels[u], labels[v]): flow.flows[a] for a, u, v in present_slots(network)}


def flow_of(network, by_arc, value):
    """A flow in ``network`` from amounts keyed by node labels."""
    labels = node_labels(network)
    flows = [0] * len(network.cap)
    for a, u, v in present_slots(network):
        flows[a] = by_arc.get((labels[u], labels[v]), 0)
    return IntegralFlow(flows, value)


def side_capacity(network, side):
    """The capacity of the arcs leaving a set of node ids."""
    return sum(c for u, v, c in network.arcs if u in side and v not in side)


def cut_side(network, cut):
    """The node ids of a cut's source side, from its labels."""
    return {node_labels(network).index(label) for label in cut.labels}


def enumerate_min_cuts(network):
    """All minimum s-t cuts, as sets of node ids, by brute force over
    internal node subsets."""
    internal = range(1, network.sink)
    cuts = []
    for bits in itertools.product((False, True), repeat=len(internal)):
        side = {0} | {k for k, take in zip(internal, bits) if take}
        cuts.append((side_capacity(network, side), side))
    best = min(cap for cap, _ in cuts)
    return best, [side for cap, side in cuts if cap == best]


def two_pass_arcs(instance, reports, width):
    """The arcs by node label in a two-pass emission order: every source
    arc, buyer by buyer in tier order, then every tier arc, buyer by buyer,
    tier by tier, in object order, then every sink arc."""
    supplies = instance.supplies
    arcs = []
    for j in instance.buyers:
        demands = (reports[j].demand_above, reports[j].demand_at_margin, reports[j].demand_zero)
        arcs += [("s", j + "'" * (t + 1), d) for t, d in enumerate(demands[:width]) if d > 0]
    for j in instance.buyers:
        report = reports[j]
        arcs += [(j + "'", i, supplies[i]) for i in report.above if supplies[i] > 0]
        for i in report.at_margin:
            cap = min(supplies[i], report.demand_at_margin)
            if cap > 0:
                arcs.append((j + "''", i, cap))
        if width == 3 and report.demand_zero > 0:
            arcs += [(j + "'''", i, supplies[i]) for i in report.zero if supplies[i] > 0]
    return arcs + [(i, "t", supplies[i]) for i in instance.objects if supplies[i] > 0]


NETWORK_FIELDS = ("cap", "out", "into", "sink_arc", "cap_s", "arcs", "labels", "label_order")


def check_slots(network):
    """Every absent slot has capacity 0 and is in no adjacency list: the
    slots the ``out`` lists hold, and those the ``into`` lists hold, are
    each exactly the slots with a positive capacity."""
    present = [a for a, c in enumerate(network.cap) if c]
    assert min(network.cap, default=0) >= 0
    assert sorted(a for arcs in network.out for a, _ in arcs) == present
    assert sorted(a for arcs in network.into for a, _ in arcs) == present


def snapshot(network):
    """Copies of the lists a network built on this one must leave alone."""
    return (
        list(network.cap),
        [list(arcs) for arcs in network.out],
        [list(arcs) for arcs in network.into],
        list(network.sink_arc),
        network.cap_s,
    )


class TestBuildDemandNetwork:
    def test_fig1_capacities(self, fig1):
        zero = PriceVector.zero(fig1)
        network = build_demand_network(fig1, zero)
        # The network keeps the prices it was built at, not a copy.
        assert network.prices is zero
        cap = capacities(network)
        assert cap[("s", "j1'")] == 2
        assert cap[("s", "j1''")] == 2
        assert ("s", "j2'") not in cap  # zero capacity omitted
        assert cap[("s", "j2''")] == 1
        assert cap[("j1'", "alpha")] == 1
        assert cap[("j1'", "beta")] == 1
        assert cap[("j1''", "gamma")] == 2
        assert cap[("j2''", "beta")] == 1
        assert cap[("alpha", "t")] == 1
        assert cap[("beta", "t")] == 1
        assert cap[("gamma", "t")] == 4
        assert len(cap) == 10
        assert network.cap_s == 5

    def test_fig1_golden_dump(self, fig1):
        network = build_demand_network(fig1, PriceVector.zero(fig1))
        assert dump_network(network) == FIG1_DUMP

    def test_an_unsupplied_price_shapes_no_network(self):
        """An object without supply is in no tier, so its price moves no
        arc: at Z = 5, as at Z = 0, A is j's margin object."""
        inst = validate_instance({"A": 1, "Z": 0}, {"j": 3}, {"j": {"A": 5, "Z": 3}})
        network = build_demand_network(inst, PriceVector({"A": 0, "Z": 0}))
        assert build_demand_network(inst, PriceVector({"A": 0, "Z": 5})).arcs == network.arcs
        assert labelled_arcs(network) == [("s", "j''", 1), ("j''", "A", 1), ("A", "t", 1)]

    def test_no_buyers(self):
        inst = validate_instance({"a": 2}, {}, {})
        network = build_demand_network(inst, PriceVector.zero(inst))
        assert network.cap_s == 0
        assert set(capacities(network)) == {("a", "t")}

    def test_example1(self, example1):
        network = build_demand_network(example1, PriceVector.zero(example1))
        cap = capacities(network)
        assert cap[("s", "b1'")] == 1
        assert cap[("s", "b1''")] == 1
        assert cap[("b1'", "alpha")] == 1
        assert cap[("b1''", "beta")] == 1
        assert cap[("alpha", "t")] == 1
        assert cap[("beta", "t")] == 1
        assert len(cap) == 6

    def test_patch_sweep_equals_a_fresh_build(self, monkeypatch):
        """On 1500 seeded markets, with values up to 4, 30 and 300 in turn,
        climbed in every mode and warm setting, half of them from zero
        prices and half from random prices below the minimum: every network
        a walk patches from the network before equals a fresh one at its
        prices, from the walk's reports, in every slot's capacity, every
        node's arc lists in order, the sink arcs, the source capacity, the
        present arcs and the labels, and has the arcs of one from fresh
        reports.  Every absent slot has capacity 0 and is in no adjacency
        list, and the base is left as it was before the patched network
        was built on it.  The sweep holds walks that copy blocks, walks on
        which every buyer is due, objects without supply and buyers
        without demand.  On each market, in both widths, a network patched
        from one at random prices with the reports at other random prices
        for chosen due buyers equals a fresh one too, with the due buyers
        first, last, adjacent, all of them, none of them and a random
        set."""
        build = flow.build_demand_network
        seen = Counter()

        def checked(instance, prices, reports=None, base=None, due=()):
            before = snapshot(base) if base is not None else None
            network = build(instance, prices, reports, base=base, due=due)
            check_slots(network)
            if base is not None:
                assert snapshot(base) == before
                fresh = FlowNetwork(instance, prices, reports, 2)
                for name in NETWORK_FIELDS:
                    assert getattr(network, name) == getattr(fresh, name), name
                assert network.arcs == build_demand_network(instance, prices).arcs
                seen["copies blocks" if len(due) < len(instance.buyers) else "every buyer due"] += 1
            return network

        monkeypatch.setattr(flow, "build_demand_network", checked)
        rng = random.Random(59)
        for k in range(1500):
            inst = random_instance(
                rng, max_objects=4, max_buyers=5, max_supply=4, max_demand=4, max_value=(4, 30, 300)[k % 3]
            )
            start = None
            if k % 2:
                minimum, _ = price_raising(inst)
                start = PriceVector({i: rng.randint(0, p) for i, p in minimum.prices.items()})
                seen["start below the minimum"] += start != minimum
            for mode in ("unit", "adapted"):
                for warm in (True, False):
                    price_raising(inst, SolveOptions(mode=mode, warm_start=warm, start_prices=start))
            seen["object without supply"] += 0 in inst.supplies.values()
            seen["buyer without demand"] += 0 in inst.demands.values()
            buyers = inst.buyers
            k = rng.randrange(len(buyers))
            chosen = {
                "due first": buyers[:1],
                "due last": buyers[-1:],
                "due adjacent": buyers[k : k + 2],
                "all due": buyers,
                "none due": (),
                "random due": tuple(j for j in buyers if rng.random() < 0.5),
            }
            before, after = random_prices(rng, inst), random_prices(rng, inst)
            old, new = tier_reports(inst, buyers, before), tier_reports(inst, buyers, after)
            for width in (2, 3):
                base = FlowNetwork(inst, before, old, width)
                kept = snapshot(base)
                for case, due in chosen.items():
                    reports = {j: new[j] if j in due else old[j] for j in buyers}
                    patched = FlowNetwork(inst, after, reports, width, base=base, due=due)
                    fresh = FlowNetwork(inst, after, reports, width)
                    check_slots(patched)
                    for name in NETWORK_FIELDS:
                        assert getattr(patched, name) == getattr(fresh, name), (case, name)
                    seen[case] += not due or any(new[j] != old[j] for j in due)
                assert snapshot(base) == kept
        assert min(seen.values()) >= 50 and len(seen) == 11, seen

    def test_a_base_of_other_nodes_is_refused(self, fig1, example1):
        zero = PriceVector.zero(fig1)
        reports = {j: tier_report(fig1, j, zero) for j in fig1.buyers}
        base = build_demand_network(fig1, zero, reports)
        # 2 buyers, 2 tiers and 3 objects: tier node k's source arc is slot
        # 4 * (k - 1) and its arc to the x-th object 4 * (k - 1) + 1 + x,
        # and the sink arcs are slots 16 to 18.  j2' has no demand.
        assert [a for a, c in enumerate(base.cap) if c] == [0, 1, 2, 4, 7, 12, 14, 16, 17, 18]
        # Other buyers, other objects, another width.
        renamed = validate_instance(
            {"alpha": 1, "beta": 1, "gamma": 4},
            {"j1": 4, "j3": 2},
            {"j1": {"alpha": 3, "beta": 2, "gamma": 1}, "j3": {"beta": 2}},
        )
        renamed_reports = {j: tier_report(renamed, j, zero) for j in renamed.buyers}
        other = PriceVector.zero(example1)
        example_reports = {j: tier_report(example1, j, other) for j in example1.buyers}
        misfits = [
            (renamed, zero, renamed_reports, 2),
            (example1, other, example_reports, 2),
            (fig1, zero, reports, 3),
        ]
        for instance, prices, misfit_reports, width in misfits:
            with pytest.raises(FlowError, match="^the base network does not share this network's nodes$"):
                FlowNetwork(instance, prices, misfit_reports, width, base=base, due=())
        # A base that fits, with no buyer due, lends every list.
        patched = FlowNetwork(fig1, zero, {}, 2, base=base, due=())
        assert patched.arcs == base.arcs and patched.cap is not base.cap
        assert all(a is b for a, b in zip(patched.out + patched.into, base.out + base.into))

    def test_a_due_id_that_names_no_buyer_is_refused(self, fig1):
        """A due buyer that is not one of the network's buyers raises
        rather than being skipped, with or without a base."""
        zero = PriceVector.zero(fig1)
        reports = {j: tier_report(fig1, j, zero) for j in fig1.buyers}
        base = build_demand_network(fig1, zero, reports)
        for due in (["j3"], ["j1", "j3"], ("j3", "j2")):
            for lender in (base, None):
                with pytest.raises(FlowError, match="^due buyer 'j3' is not a buyer of this network$"):
                    FlowNetwork(fig1, zero, reports, 2, base=lender, due=due)
        assert FlowNetwork(fig1, zero, reports, 2, base=base, due=["j2", "j1"]).arcs == base.arcs

    def test_a_climb_holds_two_networks_at_a_time(self, monkeypatch):
        """A patched network keeps no reference to its base: when a walk
        builds its network, the only earlier network still alive is the
        base, and none is once the climb is over."""
        build = flow.build_demand_network
        built = []
        patched = 0

        def tracked(instance, prices, reports=None, base=None, due=()):
            nonlocal patched
            alive = [network for network in (ref() for ref in built) if network is not None]
            assert alive == ([base] if base is not None else [])
            del alive
            patched += base is not None
            network = build(instance, prices, reports, base=base, due=due)
            built.append(weakref.ref(network))
            return network

        monkeypatch.setattr(flow, "build_demand_network", tracked)
        rng = random.Random(7)
        for _ in range(30):
            inst = random_instance(rng, max_objects=4, max_buyers=4, max_value=30)
            for warm in (True, False):
                price_raising(inst, SolveOptions(mode="adapted", warm_start=warm))
                assert all(ref() is None for ref in built)
                built.clear()
        assert patched >= 50


def reference_allocation_network(instance, prices):
    """The allocation network by the rule that reads no climb: one tier
    report per buyer of the balanced market, a dummy object priced 0."""
    balanced = balance_instance(instance)
    prices = PriceVector.for_instance(balanced, prices.prices)
    reports = {j: tier_report(balanced, j, prices) for j in balanced.buyers}
    return FlowNetwork(balanced, prices, reports, 3)


class TestBuildAllocationNetwork:
    def test_allocation_sweep_matches_the_balanced_market_reports(self):
        """On 1500 seeded markets, the allocation network built from the
        final reports of a warm and of a cold climb, and from reports it
        computes itself at random prices, equals the reference built from
        tier reports over the balanced market: its nodes, every arc, every
        node's arc lists, the prices and the dump, bare and with a max
        flow.  The sweep holds markets short of supply (a dummy object) and
        of demand (a dummy buyer), buyers without demand, objects without
        supply, and climbs that end with a zero tier out of date."""
        rng = random.Random(43)
        seen = Counter()
        for _ in range(1500):
            inst = random_instance(
                rng, max_objects=4, max_buyers=4, max_supply=4, max_demand=4, max_value=6
            )
            cases = []
            for warm in (True, False):
                prices, trace = price_raising(inst, SolveOptions(warm_start=warm))
                fresh = {j: tier_report(inst, j, prices) for j in inst.buyers}
                seen["stale zero tier"] += trace.reports != fresh
                cases.append((prices, trace.reports))
            cases.append((random_prices(rng, inst), None))
            for prices, reports in cases:
                network = build_allocation_network(inst, prices, reports)
                expected = reference_allocation_network(inst, prices)
                assert (network.buyers, network.objects) == (expected.buyers, expected.objects)
                assert network.arcs == expected.arcs
                assert (network.out, network.into) == (expected.out, expected.into)
                assert list(network.prices.prices.items()) == list(expected.prices.prices.items())
                assert dump_network(network) == dump_network(expected)
                assert dump_network(network, max_flow(network)) == dump_network(
                    expected, max_flow(expected)
                )
                seen["networks"] += 1
            gap = inst.total_demand - inst.total_supply
            seen["dummy object" if gap > 0 else "dummy buyer" if gap < 0 else "balanced"] += 1
            seen["buyer without demand"] += 0 in inst.demands.values()
            seen["object without supply"] += 0 in inst.supplies.values()
        assert seen["networks"] == 4500
        assert min(seen.values()) >= 100, seen

    def test_three_buyers_at_final_prices(self, three_buyers):
        network = build_allocation_network(three_buyers, PriceVector({"alpha": 2, "beta": 0}))
        cap = capacities(network)
        # the zero-payoff buyer contributes only third-tier arcs
        assert cap[("s", "b2'''")] == 2
        assert cap[("b2'''", "alpha")] == 3
        assert cap[("b2'''", "beta")] == 2
        assert not any(
            arc[0] in ("b2'", "b2''") for arc in cap
        )
        assert cap[("s", "b1''")] == 2
        assert cap[("s", "b3''")] == 1

    def test_all_positive_payoffs_add_no_arcs(self):
        """The allocation network is the demand network plus zero-tier arcs,
        in the same order; with no zero-payoff demand it adds none."""
        fixed = validate_instance(
            {"x": 1, "y": 1},
            {"u": 1, "w": 1},
            {"u": {"x": 2, "y": 1}, "w": {"x": 1, "y": 2}},
        )
        allocation = build_allocation_network(fixed, PriceVector.zero(fixed))
        demand = build_demand_network(fixed, PriceVector.zero(fixed))
        assert labelled_arcs(allocation) == labelled_arcs(demand)
        assert "u'''" in node_labels(allocation)
        rng = random.Random(29)
        balanced = with_zero_tier = 0
        for _ in range(400):
            inst = random_instance(rng, max_objects=4, max_buyers=4)
            if inst.total_supply != inst.total_demand:
                continue
            balanced += 1
            prices = random_prices(rng, inst)
            demand = build_demand_network(inst, prices)
            allocation = build_allocation_network(inst, prices)
            zero_nodes = {j + "'''" for j in inst.buyers}
            arcs = labelled_arcs(allocation)
            kept = [arc for arc in arcs if not zero_nodes & {arc[0], arc[1]}]
            with_zero_tier += len(kept) < len(arcs)
            assert kept == labelled_arcs(demand)
        assert balanced >= 40 and with_zero_tier >= 10

    def test_fig1_after_first_raise(self, fig1):
        network = build_allocation_network(fig1, PriceVector({"alpha": 0, "beta": 1, "gamma": 0}))
        cap = capacities(network)
        assert cap[("s", "j2'''")] == 1
        assert cap[("j2'''", "alpha")] == 1
        assert cap[("j2'''", "gamma")] == 4
        assert ("s", "j1'''") not in cap

    def test_fig1_arc_order(self, fig1):
        # One block per buyer, each tier's source arc before its arcs to
        # objects.  Max-flow path order, and so the allocation, follows
        # each node's arc order.
        network = build_allocation_network(fig1, PriceVector({"alpha": 0, "beta": 1, "gamma": 0}))
        assert [f"{u} -> {v} [{c}]" for u, v, c in labelled_arcs(network)] == [
            "s -> j1' [1]",
            "j1' -> alpha [1]",
            "s -> j1'' [3]",
            "j1'' -> beta [1]",
            "j1'' -> gamma [3]",
            "s -> j2'' [1]",
            "j2'' -> beta [1]",
            "s -> j2''' [1]",
            "j2''' -> alpha [1]",
            "j2''' -> gamma [4]",
            "alpha -> t [1]",
            "beta -> t [1]",
            "gamma -> t [4]",
        ]
        labels = node_labels(network)
        assert [labels[v] for _, v in network.out[0]] == ["j1'", "j1''", "j2''", "j2'''"]

    def test_every_node_keeps_the_two_pass_arc_order(self):
        """Each node's outgoing and incoming arcs, by label and capacity,
        come in the order of a two-pass emission that lays every source
        arc, then every tier arc, then every sink arc: the order the
        solver's paths, flows and cuts were pinned on.  An absent arc has
        capacity 0 and is in no adjacency list."""
        rng = random.Random(41)
        checked = 0
        for k in range(400):
            inst = random_instance(rng, max_objects=4, max_buyers=4)
            prices = random_prices(rng, inst) if k % 2 else PriceVector.zero(inst)
            balanced = balance_instance(inst)
            for market, network in (
                (inst, build_demand_network(inst, prices)),
                (balanced, build_allocation_network(inst, prices)),
            ):
                check_slots(network)
                reports = {j: tier_report(market, j, network.prices) for j in market.buyers}
                arcs = two_pass_arcs(market, reports, network.width)
                labels = node_labels(network)
                for node, label in enumerate(labels):
                    out = [(labels[v], network.cap[a]) for a, v in network.out[node]]
                    into = [(labels[u], network.cap[a]) for a, u in network.into[node]]
                    assert out == [(v, c) for u, v, c in arcs if u == label]
                    assert into == [(u, c) for u, v, c in arcs if v == label]
                checked += 1
        assert checked == 800

    def test_an_unbalanced_market_gets_a_dummy(self):
        """The network balances its own market: a zero-value dummy buyer
        takes surplus supply, a dummy object priced at 0 fills surplus
        demand."""
        surplus = validate_instance({"a": 3}, {"j": 1}, {"j": {"a": 2}})
        network = build_allocation_network(surplus, PriceVector.zero(surplus))
        assert network.buyers == ("j", DUMMY_BUYER)
        assert capacities(network)[("s", DUMMY_BUYER + "'''")] == 2
        short = validate_instance({"a": 1}, {"j": 3}, {"j": {"a": 2}})
        network = build_allocation_network(short, PriceVector({"a": 1}))
        assert network.objects == ("a", DUMMY_OBJECT)
        assert network.prices.as_dict() == {"a": 1, DUMMY_OBJECT: 0}
        assert capacities(network)[(DUMMY_OBJECT, "t")] == 2


class TestMaxFlow:
    def test_fig1_value(self, fig1):
        network = build_demand_network(fig1, PriceVector.zero(fig1))
        assert max_flow(network).value == 4

    def test_empty_network(self):
        inst = validate_instance({"a": 1}, {}, {})
        network = build_demand_network(inst, PriceVector.zero(inst))
        assert max_flow(network).value == 0

    def test_example1_saturates(self, example1):
        network = build_demand_network(example1, PriceVector.zero(example1))
        best = max_flow(network)
        assert best.value == 2 == network.cap_s

    def test_deterministic(self, fig1):
        network = build_demand_network(fig1, PriceVector.zero(fig1))
        assert max_flow(network).flows == max_flow(network).flows

    def test_warm_start_resumes(self, fig1):
        network = build_demand_network(fig1, PriceVector.zero(fig1))
        partial = flow_of(
            network,
            {("s", "j1'"): 1, ("j1'", "alpha"): 1, ("alpha", "t"): 1},
            1,
        )
        assert max_flow(network, warm_start=partial).value == 4

    def test_a_warm_start_is_left_unchanged(self, fig1, monkeypatch):
        """A caller's warm start is copied before it is augmented; the seed
        ``max_flow`` builds itself is not."""
        network = build_demand_network(fig1, PriceVector.zero(fig1))
        partial = flow_of(network, {("s", "j1'"): 1, ("j1'", "alpha"): 1, ("alpha", "t"): 1}, 1)
        amounts_before = list(partial.flows)
        best = max_flow(network, warm_start=partial)
        assert best.value == 4 and partial.flows == amounts_before and partial.value == 1
        seeds = []

        def kept(network):
            seeds.append(direct_flow(network))
            return seeds[-1]

        monkeypatch.setattr(flow, "direct_flow", kept)
        assert max_flow(network).flows is seeds[0].flows

    def test_warm_start_must_be_feasible(self, fig1):
        network = build_demand_network(fig1, PriceVector.zero(fig1))
        overfull = flow_of(network, {("s", "j1'"): 5}, 5)
        with pytest.raises(FlowError, match=r"^flow 5 outside \[0, 2\] on s -> j1'$"):
            max_flow(network, warm_start=overfull)
        # A flow is read by arc slot, so one of another length fits no
        # network: fig1 has 2 buyers, 2 tiers and 3 objects, so 2 * 2 * 4 + 3
        # slots.
        with pytest.raises(FlowError, match="^flow has 20 amounts for a network of 19 arc slots$"):
            max_flow(network, warm_start=IntegralFlow([0] * (len(network.cap) + 1), 0))
        # An absent arc carries nothing: s -> j2' has no demand.
        absent = IntegralFlow([0] * len(network.cap), 0)
        absent.flows[2 * 4] = 1
        with pytest.raises(FlowError, match=r"^flow 1 outside \[0, 0\] on s -> j2'$"):
            check_feasible(network, absent)
        stuck = flow_of(network, {("s", "j1'"): 1}, 1)
        with pytest.raises(FlowError, match="^conservation violated at j1'$"):
            max_flow(network, warm_start=stuck)
        path = {("s", "j1'"): 1, ("j1'", "alpha"): 1, ("alpha", "t"): 1}
        with pytest.raises(FlowError, match="^declared value 2 != source outflow 1$"):
            max_flow(network, warm_start=flow_of(network, path, 2))

    def test_flow_conservation_and_capacities(self):
        rng = random.Random(11)
        for _ in range(50):
            inst = random_instance(rng)
            prices = random_prices(rng, inst)
            network = build_demand_network(inst, prices)
            best = max_flow(network)
            balance = {}
            carried = amounts(network, best)
            for u, v, cap in labelled_arcs(network):
                amount = carried[(u, v)]
                assert 0 <= amount <= cap
                balance[u] = balance.get(u, 0) - amount
                balance[v] = balance.get(v, 0) + amount
            for node in node_labels(network):
                if node not in ("s", "t"):
                    assert balance.get(node, 0) == 0
            assert best.value == -balance.get("s", 0)

    def test_search_stops_at_the_first_sink_feeder(self, fig1):
        # At zero flow the search reaches j1', j1'' and j2'' from the source,
        # then alpha from j1'; alpha's arc into the sink has residual
        # capacity, so beta and gamma, which come later, are never reached.
        network = build_demand_network(fig1, PriceVector.zero(fig1))
        pred = _residual_search(network, [0] * len(network.cap))
        assert network.label(network.tails[pred[network.sink]]) == "alpha"
        assert {network.label(k) for k, a in enumerate(pred) if a is not None} == {
            "s",
            "j1'",
            "j1''",
            "j2''",
            "alpha",
            "t",
        }


def from_zero(network):
    """Edmonds-Karp from the zero flow, handed in as a warm start."""
    return max_flow(network, warm_start=IntegralFlow([0] * len(network.cap), 0))


class TestDirectFlow:
    def test_fig1_direct_paths_are_maximum(self, fig1):
        network = build_demand_network(fig1, PriceVector.zero(fig1))
        seed = direct_flow(network)
        assert amounts(network, seed) == {
            ("s", "j1'"): 2, ("s", "j1''"): 2, ("s", "j2''"): 0,
            ("j1'", "alpha"): 1, ("j1'", "beta"): 1, ("j1''", "gamma"): 2, ("j2''", "beta"): 0,
            ("alpha", "t"): 1, ("beta", "t"): 1, ("gamma", "t"): 2,
        }
        assert seed.value == 4 == max_flow(network).value

    def test_a_seed_that_is_not_maximum_is_augmented(self):
        # a takes x first, so b, who wants only x, gets nothing from the seed.
        inst = validate_instance(
            {"x": 1, "y": 1}, {"a": 1, "b": 1}, {"a": {"x": 5, "y": 5}, "b": {"x": 5, "y": 0}}
        )
        network = build_demand_network(inst, PriceVector.zero(inst))
        seed = direct_flow(network)
        check_feasible(network, seed)
        assert seed.value == 1 and amounts(network, seed)[("a''", "x")] == 1
        seeded, zero = max_flow(network), from_zero(network)
        assert seeded.value == 2 and amounts(network, seeded)[("b''", "x")] == 1
        assert seeded == zero
        assert leftmost_min_cut(network, seeded) == leftmost_min_cut(network, zero)

    def test_seed_sweep_keeps_the_flow_and_the_cut(self):
        """On seeded random markets at random prices, in the demand and the
        allocation network: the direct flow, which ``max_flow`` starts from
        unchecked, is feasible, and the max flow from it is the one from
        zero, arc for arc, with the same left-most cut.  Some seeds are not
        maximum, so augmenting from a seed is exercised."""
        rng = random.Random(67)
        networks = short = 0
        for _ in range(1500):
            inst = random_instance(rng, max_objects=4, max_buyers=4, max_supply=4, max_demand=4)
            prices = random_prices(rng, inst)
            for network in (build_demand_network(inst, prices), build_allocation_network(inst, prices)):
                seed = direct_flow(network)
                check_feasible(network, seed)
                seeded, zero = max_flow(network), from_zero(network)
                assert seeded.flows == zero.flows and seeded.value == zero.value
                assert leftmost_min_cut(network, seeded) == leftmost_min_cut(network, zero)
                networks += 1
                short += seed.value < zero.value
        assert networks == 3000 and short >= 50


class TestLeftmostMinCut:
    def test_fig1(self, fig1):
        network = build_demand_network(fig1, PriceVector.zero(fig1))
        cut = leftmost_min_cut(network, max_flow(network))
        assert cut.labels == ("beta", "j1'", "j2''", "s")
        assert cut.objects == frozenset({"beta"})
        assert side_capacity(network, cut_side(network, cut)) == 4

    def test_saturating_flow_gives_source_only(self, example1):
        network = build_demand_network(example1, PriceVector.zero(example1))
        cut = leftmost_min_cut(network, max_flow(network))
        assert cut.labels == ("s",)
        assert cut.objects == frozenset()

    def test_three_buyers_at_zero(self, three_buyers):
        network = build_demand_network(three_buyers, PriceVector.zero(three_buyers))
        cut = leftmost_min_cut(network, max_flow(network))
        assert cut.objects == frozenset({"alpha"})

    def test_rejects_non_maximum_flow(self, fig1):
        network = build_demand_network(fig1, PriceVector.zero(fig1))
        zero = IntegralFlow([0] * len(network.cap), 0)
        with pytest.raises(FlowError, match="^sink reachable in residual graph; flow is not maximum$"):
            leftmost_min_cut(network, zero)

    def test_the_kept_search_gives_the_cut_of_a_fresh_search(self):
        """``max_flow`` keeps the search that ended it, and the cut read off
        it equals the cut of a fresh search of the same flows, cold and
        warm.  A flow without a kept search is searched afresh, so a
        hand-built flow that is not maximum is still rejected, and flows
        compare equal whether or not they keep one."""
        rng = random.Random(23)
        cold = warm = rejected = 0
        for k in range(400):
            inst = random_instance(rng, max_objects=4, max_buyers=4, max_value=6)
            prices = random_prices(rng, inst) if k % 2 else PriceVector.zero(inst)
            network = build_demand_network(inst, prices)
            best = max_flow(network)
            cold += 1
            if best.value:
                with pytest.raises(FlowError, match="^sink reachable"):
                    leftmost_min_cut(network, IntegralFlow([0] * len(network.cap), 0))
                rejected += 1
            while True:
                bare = IntegralFlow(list(best.flows), best.value)
                assert bare.search is None and bare == best
                assert best.search == _residual_search(network, best.flows)
                cut = leftmost_min_cut(network, best)
                assert cut == leftmost_min_cut(network, bare)
                if not cut.objects:
                    break
                prices = prices.raised(cut.objects)
                raised = build_demand_network(inst, prices)
                update = flow_update(network, best, raised)
                assert update.flow.search is None
                network, best = raised, max_flow(raised, warm_start=update.flow)
                warm += 1
        assert cold == 400 and warm > 300 and rejected > 200

    def test_label_sweep_reads_the_cut_labels_off_one_table(self):
        """On seeded markets whose labels sort otherwise than their nodes
        are numbered, at widths 2 and 3: upper-case against lower-case ids,
        an object ``b1`` beside a buyer ``b``, whose tier labels, ``b``
        with one to three primes, sort before it, and the dummies.  Each
        node's label follows the labelling rule, and a cut's labels, read
        off a kept search or a fresh one, are the reached nodes' labels,
        sorted."""
        rng = random.Random(31)
        object_ids, buyer_ids = ["b1", "A", "a", "Z", "c1"], ["b", "B", "a1", "z", "c"]
        checked = Counter()
        for _ in range(500):
            objects = rng.sample(object_ids, rng.randint(1, 4))
            buyers = rng.sample(buyer_ids, rng.randint(1, 4))
            inst = validate_instance(
                {i: rng.randint(0, 3) for i in objects},
                {j: rng.randint(0, 3) for j in buyers},
                {j: {i: rng.randint(0, 5) for i in objects} for j in buyers},
            )
            prices = random_prices(rng, inst)
            for network in (build_demand_network(inst, prices), build_allocation_network(inst, prices)):
                tiers = range(1, network.width + 1)
                rule = ["s", *(j + "'" * t for j in network.buyers for t in tiers), *network.objects, "t"]
                assert node_labels(network) == rule
                best = max_flow(network)
                reached = [network.label(k) for k, a in enumerate(best.search) if a is not None]
                expected = tuple(sorted(reached))
                assert leftmost_min_cut(network, best).labels == expected
                bare = IntegralFlow(list(best.flows), best.value)
                assert leftmost_min_cut(network, bare).labels == expected
                checked[network.width] += 1
                checked["reordered"] += list(expected) != reached
        assert checked[2] == checked[3] == 500 and checked["reordered"] >= 300, checked

    def test_minimality_against_enumeration(self):
        rng = random.Random(5)
        checked = 0
        for _ in range(60):
            inst = random_instance(rng, max_objects=2, max_buyers=2)
            prices = random_prices(rng, inst)
            network = build_demand_network(inst, prices)
            best = max_flow(network)
            cut = leftmost_min_cut(network, best)
            min_cap, sides = enumerate_min_cuts(network)
            assert side_capacity(network, cut_side(network, cut)) == min_cap == best.value
            for side in sides:
                assert cut_side(network, cut) <= side
            checked += 1
        assert checked == 60


class TestFlowUpdate:
    def test_tier_change_reroutes(self, fig1):
        zero = PriceVector.zero(fig1)
        old = build_demand_network(fig1, zero)
        old_flow = max_flow(old)
        assert amounts(old, old_flow)[("j1'", "beta")] == 1
        raised = zero.raised(["beta"])
        new = build_demand_network(fig1, raised)
        result = flow_update(old, old_flow, new)
        check_feasible(new, result.flow)
        assert result.dropped == {}
        carried = amounts(new, result.flow)
        assert carried[("j1''", "beta")] == 1
        assert ("j1'", "beta") not in carried
        assert result.flow.value == old_flow.value
        assert max_flow(new, warm_start=result.flow).value == 5

    def test_unchanged_tiers_keep_flow(self, contested_single):
        zero = PriceVector.zero(contested_single)
        old = build_demand_network(contested_single, zero)
        old_flow = max_flow(old)
        raised = zero.raised(["item"])
        new = build_demand_network(contested_single, raised)
        result = flow_update(old, old_flow, new)
        check_feasible(new, result.flow)
        assert result.flow.value == old_flow.value
        assert result.dropped == {}
        assert {a: f for a, f in amounts(new, result.flow).items() if f} == {
            a: f for a, f in amounts(old, old_flow).items() if f
        }

    def test_dropped_units_recorded_and_gap_kept(self):
        inst = validate_instance({"x": 1}, {"j": 1}, {"j": {"x": 1}})
        zero = PriceVector.zero(inst)
        old = build_demand_network(inst, zero)
        old_flow = max_flow(old)
        assert old_flow.value == 1
        raised = zero.raised(["x"])
        new = build_demand_network(inst, raised)
        result = flow_update(old, old_flow, new)
        check_feasible(new, result.flow)
        assert result.dropped == {("j", "x"): 1}
        assert result.flow.value == 0
        old_gap = old.cap_s - old_flow.value
        new_gap = new.cap_s - result.flow.value
        assert new_gap <= old_gap

    def test_carry_sweep_equals_a_carry_between_fresh_builds(self, monkeypatch):
        """On 1500 seeded markets climbed warm, half of them from random
        prices below the minimum: each walk's carried flow, from a network
        to the one built on it, equals the flow carried between two fresh
        builds at the same prices, slot for slot, and the reference's,
        arc by arc, with the same value and the same dropped units.  The
        sweep holds walks with units on tier nodes whose arcs the new
        network shares with the old, walks that reroute units to another
        tier, and walks that drop units."""
        update = flow.flow_update
        seen = Counter()
        market = None

        def checked(old, old_flow, new):
            result = update(old, old_flow, new)
            fresh_old = build_demand_network(market, old.prices)
            fresh_new = build_demand_network(market, new.prices)
            assert fresh_old.arcs == old.arcs and fresh_new.arcs == new.arcs
            apart = update(fresh_old, old_flow, fresh_new)
            assert (result.flow.flows, result.flow.value) == (apart.flow.flows, apart.flow.value)
            assert result.dropped == apart.dropped
            carried, dropped = reference_flow_update(new, amounts(old, old_flow))
            assert amounts(new, result.flow) == carried and result.dropped == dropped
            assert result.flow.value == sum(f for (u, _), f in carried.items() if u == "s")
            kept = [u for u in range(1, new.first_object) if new.out[u] is old.out[u]]
            seen["units on shared arcs"] += any(old_flow.flows[a] for u in kept for a, _ in old.out[u])
            moved = amounts(old, old_flow).items() - amounts(new, result.flow).items()
            seen["units rerouted"] += any(f and u != "s" and v != "t" for (u, v), f in moved)
            seen["units dropped"] += bool(result.dropped)
            seen["walks"] += 1
            return result

        monkeypatch.setattr(flow, "flow_update", checked)
        rng = random.Random(61)
        for k in range(1500):
            market = random_instance(
                rng, max_objects=4, max_buyers=5, max_supply=4, max_demand=4, max_value=(6, 30)[k % 2]
            )
            start = None
            if k % 2:
                minimum, _ = price_raising(market)
                start = PriceVector({i: rng.randint(0, p) for i, p in minimum.prices.items()})
            price_raising(market, SolveOptions(mode="adapted", warm_start=True, start_prices=start))
        assert seen["walks"] >= 1500 and min(seen.values()) >= 200, seen

    def test_rejects_non_uniform_raise(self, fig1):
        zero = PriceVector.zero(fig1)
        old = build_demand_network(fig1, zero)
        old_flow = max_flow(old)
        crooked = {"alpha": 1, "beta": 2, "gamma": 0}
        new = build_demand_network(fig1, PriceVector.for_instance(fig1, crooked))
        with pytest.raises(FlowError, match="^price changes .* are not a uniform raise on one object set$"):
            flow_update(old, old_flow, new)

    def test_rejects_unchanged_prices(self, fig1):
        zero = PriceVector.zero(fig1)
        network = build_demand_network(fig1, zero)
        best = max_flow(network)
        with pytest.raises(FlowError, match="^new prices equal old prices; nothing to update$"):
            flow_update(network, best, network)

    def test_rejects_networks_with_other_nodes(self, fig1, example1):
        zero = PriceVector.zero(fig1)
        network = build_demand_network(fig1, zero)
        best = max_flow(network)
        # Other tiers, then other objects and buyers.
        others = (
            build_allocation_network(fig1, zero.raised(["beta"])),
            build_demand_network(example1, PriceVector.zero(example1)),
        )
        for other in others:
            with pytest.raises(FlowError, match="^the two networks do not share their nodes$"):
                flow_update(network, best, other)



# ---------------------------------------------------------------------------
# The dict-keyed solver that the arc-id core replaced, kept as a reference:
# capacities and flows keyed by (tail, head) node labels, and the same
# shortest-augmenting-path search over outgoing, then incoming arcs, each
# in arc order.


def reference_graph(network):
    capacity = capacities(network)
    out = {n: [] for n in node_labels(network)}
    into = {n: [] for n in node_labels(network)}
    for u, v in capacity:
        out[u].append(v)
        into[v].append(u)
    return capacity, out, into


def reference_neighbors(graph, flows, u):
    capacity, out, into = graph
    for v in out[u]:
        if capacity[(u, v)] - flows.get((u, v), 0) > 0:
            yield v
    for v in into[u]:
        if flows.get((v, u), 0) > 0:
            yield v


def reference_max_flow(network, warm=None):
    graph = reference_graph(network)
    capacity = graph[0]
    flows = {arc: 0 for arc in capacity}
    flows.update(warm or {})
    while True:
        parent = {"s": "s"}
        queue = deque(["s"])
        while queue and "t" not in parent:
            u = queue.popleft()
            for v in reference_neighbors(graph, flows, u):
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
        if "t" not in parent:
            return flows
        path = ["t"]
        while path[-1] != "s":
            path.append(parent[path[-1]])
        path.reverse()
        steps = list(zip(path, path[1:]))
        bottleneck = min(
            capacity[(u, v)] - flows[(u, v)] if (u, v) in capacity else flows[(v, u)]
            for u, v in steps
        )
        for u, v in steps:
            if (u, v) in capacity:
                flows[(u, v)] += bottleneck
            else:
                flows[(v, u)] -= bottleneck


def reference_cut(network, flows):
    graph = reference_graph(network)
    reached = {"s"}
    queue = deque(["s"])
    while queue:
        u = queue.popleft()
        for v in reference_neighbors(graph, flows, u):
            if v not in reached:
                reached.add(v)
                queue.append(v)
    return frozenset(reached)


def reference_flow_update(new_network, old_flows):
    capacity = capacities(new_network)
    flows = {arc: 0 for arc in capacity}
    dropped = {}
    for (u, obj), carried in old_flows.items():
        if carried == 0 or u == "s" or obj == "t":
            continue
        j = u.rstrip("'")
        for tier in (1, 2):
            if (j + "'" * tier, obj) in capacity:
                tier_node = j + "'" * tier
                break
        else:
            dropped[(j, obj)] = dropped.get((j, obj), 0) + carried
            continue
        for arc in (("s", tier_node), (tier_node, obj), (obj, "t")):
            flows[arc] += carried
    return flows, dropped


class TestAgainstTheDictReference:
    def test_cold_and_warm_flows_and_cuts_match(self):
        """On seeded random markets, each network of a unit-step climb from
        random or zero prices to competitive prices, and the allocation
        network of the balanced market where the climb ends: every arc's
        flow, cold, carried over and warm, and every node of the left-most
        cut equal the reference's."""
        rng = random.Random(17)
        cold = warm = 0
        for k in range(600):
            inst = random_instance(
                rng, max_objects=4, max_buyers=4, max_supply=4, max_demand=4, max_value=6
            )
            prices = random_prices(rng, inst) if k % 2 else PriceVector.zero(inst)
            network = build_demand_network(inst, prices)
            best = max_flow(network)
            expected = reference_max_flow(network)
            assert amounts(network, best) == expected
            cold += 1
            while True:
                assert best.value == sum(f for (u, _), f in expected.items() if u == "s")
                cut = leftmost_min_cut(network, best)
                assert cut.labels == tuple(sorted(reference_cut(network, expected)))
                assert side_capacity(network, cut_side(network, cut)) == best.value
                if not cut.objects:
                    break
                prices = prices.raised(cut.objects)
                raised = build_demand_network(inst, prices)
                update = flow_update(network, best, raised)
                check_feasible(raised, update.flow)
                carried, dropped = reference_flow_update(raised, expected)
                assert amounts(raised, update.flow) == carried
                assert update.dropped == dropped
                network, best = raised, max_flow(raised, warm_start=update.flow)
                expected = reference_max_flow(raised, carried)
                assert amounts(network, best) == expected
                warm += 1
            allocation = build_allocation_network(inst, prices)
            assert amounts(allocation, max_flow(allocation)) == reference_max_flow(allocation)
            cold += 1
        assert cold == 1200 and warm >= 500


PINNED_DUMP_DIGEST = "66b1e480c8392547"


def test_network_dumps_are_pinned():
    """A digest of ``dump_network`` text, the demand network at first
    prices and its max flow, over the pinned sweep: each market from zero
    prices, its twin from random start prices.  A change that moves it
    changes the networks or the flows the solver sees; re-recording it
    needs a line in CHANGES.md saying why."""
    rng = random.Random(2027)
    digest = hashlib.sha256()
    for base, twin in pinned_markets():
        for inst, start in ((base, None), (twin, random_prices(rng, twin))):
            network = build_demand_network(inst, first_prices(inst, start))
            digest.update(dump_network(network, max_flow(network)).encode())
    assert digest.hexdigest()[:16] == PINNED_DUMP_DIGEST
