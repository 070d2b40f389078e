import itertools
import random
from collections import deque

import pytest

from flowauction.flow import (
    TIER_ZERO,
    InfeasibleFlowError,
    IntegralFlow,
    NotMaximumError,
    PriceStepError,
    UnbalancedInstanceError,
    _residual_search,
    build_allocation_network,
    build_demand_network,
    dump_network,
    flow_update,
    leftmost_min_cut,
    max_flow,
)
from flowauction.model import DUMMY_OBJECT, PriceVector, balance_instance, validate_instance
from flowauction.tiers import tier_report
from flowauction.verify import random_instance, random_prices

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


def demand_network(instance, prices):
    reports = {j: tier_report(instance, j, prices) for j in instance.buyers}
    return build_demand_network(instance, prices, reports)


def node_labels(network):
    """The node labels, indexed by node id."""
    return [network.label(k) for k in range(network.sink + 1)]


def labelled_arcs(network):
    """The arcs as (tail, head, capacity) with node labels, in arc order."""
    labels = node_labels(network)
    return [(labels[u], labels[v], c) for u, v, c in network.arcs]


def capacities(network):
    """The arc capacities keyed by (tail, head) node labels."""
    return {(u, v): c for u, v, c in labelled_arcs(network)}


def amounts(network, flow):
    """The flow's amounts keyed by (tail, head) node labels."""
    labels = node_labels(network)
    return {(labels[u], labels[v]): f for (u, v, _), f in zip(network.arcs, flow.flows)}


def flow_of(network, by_arc, value):
    """A flow in ``network`` from amounts keyed by node labels."""
    labels = node_labels(network)
    return IntegralFlow([by_arc.get((labels[u], labels[v]), 0) for u, v, _ in network.arcs], value)


def side_capacity(network, side):
    """The capacity of the arcs leaving a set of node ids."""
    return sum(c for u, v, c in network.arcs if u in side and v not in side)


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


class TestBuildDemandNetwork:
    def test_fig1_capacities(self, fig1):
        network = demand_network(fig1, PriceVector.zero(fig1))
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
        network = demand_network(fig1, PriceVector.zero(fig1))
        assert dump_network(network) == FIG1_DUMP

    def test_no_buyers(self):
        inst = validate_instance({"a": 2}, {}, {})
        network = demand_network(inst, PriceVector.zero(inst))
        assert network.cap_s == 0
        assert set(capacities(network)) == {("a", "t")}

    def test_example1(self, example1):
        network = demand_network(example1, PriceVector.zero(example1))
        cap = capacities(network)
        assert cap[("s", "b1'")] == 1
        assert cap[("s", "b1''")] == 1
        assert cap[("b1'", "alpha")] == 1
        assert cap[("b1''", "beta")] == 1
        assert cap[("alpha", "t")] == 1
        assert cap[("beta", "t")] == 1
        assert len(cap) == 6


class TestBuildAllocationNetwork:
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
        assert labelled_arcs(allocation) == labelled_arcs(demand_network(fixed, PriceVector.zero(fixed)))
        assert "u'''" in node_labels(allocation)
        rng = random.Random(29)
        balanced = with_zero_tier = 0
        for _ in range(400):
            inst = random_instance(rng, max_objects=4, max_buyers=4)
            if inst.total_supply != inst.total_demand:
                continue
            balanced += 1
            prices = random_prices(rng, inst)
            demand = demand_network(inst, prices)
            allocation = build_allocation_network(inst, prices)
            zero_nodes = {j + "'" * TIER_ZERO for j in inst.buyers}
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
        # Max-flow path order, and so the allocation, follows the arc order.
        network = build_allocation_network(fig1, PriceVector({"alpha": 0, "beta": 1, "gamma": 0}))
        assert [f"{u} -> {v} [{c}]" for u, v, c in labelled_arcs(network)] == [
            "s -> j1' [1]",
            "s -> j1'' [3]",
            "s -> j2'' [1]",
            "s -> j2''' [1]",
            "j1' -> alpha [1]",
            "j1'' -> beta [1]",
            "j1'' -> gamma [3]",
            "j2'' -> beta [1]",
            "j2''' -> alpha [1]",
            "j2''' -> gamma [4]",
            "alpha -> t [1]",
            "beta -> t [1]",
            "gamma -> t [4]",
        ]

    def test_unbalanced_rejected(self):
        inst = validate_instance({"a": 3}, {"j": 1}, {"j": {"a": 2}})
        with pytest.raises(UnbalancedInstanceError):
            build_allocation_network(inst, PriceVector.zero(inst))


class TestMaxFlow:
    def test_fig1_value(self, fig1):
        network = demand_network(fig1, PriceVector.zero(fig1))
        assert max_flow(network).value == 4

    def test_empty_network(self):
        inst = validate_instance({"a": 1}, {}, {})
        network = demand_network(inst, PriceVector.zero(inst))
        assert max_flow(network).value == 0

    def test_example1_saturates(self, example1):
        network = demand_network(example1, PriceVector.zero(example1))
        best = max_flow(network)
        assert best.value == 2 == network.cap_s

    def test_deterministic(self, fig1):
        network = demand_network(fig1, PriceVector.zero(fig1))
        assert max_flow(network).flows == max_flow(network).flows

    def test_warm_start_resumes(self, fig1):
        network = demand_network(fig1, PriceVector.zero(fig1))
        partial = flow_of(
            network,
            {("s", "j1'"): 1, ("j1'", "alpha"): 1, ("alpha", "t"): 1},
            1,
        )
        assert max_flow(network, warm_start=partial).value == 4

    def test_warm_start_must_be_feasible(self, fig1):
        network = demand_network(fig1, PriceVector.zero(fig1))
        overfull = flow_of(network, {("s", "j1'"): 5}, 5)
        with pytest.raises(InfeasibleFlowError):
            max_flow(network, warm_start=overfull)
        # A flow is read by arc id, so one of another length fits no network.
        with pytest.raises(InfeasibleFlowError):
            max_flow(network, warm_start=IntegralFlow([0] * (len(network.arcs) + 1), 0))

    def test_flow_conservation_and_capacities(self):
        rng = random.Random(11)
        for _ in range(50):
            inst = random_instance(rng)
            prices = random_prices(rng, inst)
            network = demand_network(inst, prices)
            best = max_flow(network)
            balance = {}
            for (u, v, cap), amount in zip(labelled_arcs(network), best.flows):
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
        network = demand_network(fig1, PriceVector.zero(fig1))
        pred = _residual_search(network, [0] * len(network.arcs))
        assert network.label(network.tail[pred[network.sink]]) == "alpha"
        assert {network.label(k) for k, a in enumerate(pred) if a is not None} == {
            "s",
            "j1'",
            "j1''",
            "j2''",
            "alpha",
            "t",
        }


class TestLeftmostMinCut:
    def test_fig1(self, fig1):
        network = demand_network(fig1, PriceVector.zero(fig1))
        cut = leftmost_min_cut(network, max_flow(network))
        assert cut.labels == ("beta", "j1'", "j2''", "s")
        assert cut.objects == frozenset({"beta"})
        assert side_capacity(network, set(cut.reached)) == 4

    def test_saturating_flow_gives_source_only(self, example1):
        network = demand_network(example1, PriceVector.zero(example1))
        cut = leftmost_min_cut(network, max_flow(network))
        assert cut.labels == ("s",)
        assert cut.objects == frozenset()

    def test_three_buyers_at_zero(self, three_buyers):
        network = demand_network(three_buyers, PriceVector.zero(three_buyers))
        cut = leftmost_min_cut(network, max_flow(network))
        assert cut.objects == frozenset({"alpha"})

    def test_rejects_non_maximum_flow(self, fig1):
        network = demand_network(fig1, PriceVector.zero(fig1))
        zero = IntegralFlow([0] * len(network.arcs), 0)
        with pytest.raises(NotMaximumError):
            leftmost_min_cut(network, zero)

    def test_minimality_against_enumeration(self):
        rng = random.Random(5)
        checked = 0
        for _ in range(60):
            inst = random_instance(rng, max_objects=2, max_buyers=2)
            prices = random_prices(rng, inst)
            network = demand_network(inst, prices)
            best = max_flow(network)
            cut = leftmost_min_cut(network, best)
            min_cap, sides = enumerate_min_cuts(network)
            assert side_capacity(network, set(cut.reached)) == min_cap == best.value
            for side in sides:
                assert set(cut.reached) <= side
            checked += 1
        assert checked == 60


class TestFlowUpdate:
    def test_tier_change_reroutes(self, fig1):
        zero = PriceVector.zero(fig1)
        old = demand_network(fig1, zero)
        old_flow = max_flow(old)
        assert amounts(old, old_flow)[("j1'", "beta")] == 1
        raised = zero.raised(["beta"])
        new = demand_network(fig1, raised)
        result = flow_update(old, old_flow, new)
        assert result.dropped == {}
        carried = amounts(new, result.flow)
        assert carried[("j1''", "beta")] == 1
        assert ("j1'", "beta") not in carried
        assert result.flow.value == old_flow.value
        assert max_flow(new, warm_start=result.flow).value == 5

    def test_unchanged_tiers_keep_flow(self, contested_single):
        zero = PriceVector.zero(contested_single)
        old = demand_network(contested_single, zero)
        old_flow = max_flow(old)
        raised = zero.raised(["item"])
        new = demand_network(contested_single, raised)
        result = flow_update(old, old_flow, new)
        assert result.flow.value == old_flow.value
        assert result.dropped == {}
        assert {a: f for a, f in amounts(new, result.flow).items() if f} == {
            a: f for a, f in amounts(old, old_flow).items() if f
        }

    def test_dropped_units_recorded_and_gap_kept(self):
        inst = validate_instance({"x": 1}, {"j": 1}, {"j": {"x": 1}})
        zero = PriceVector.zero(inst)
        old = demand_network(inst, zero)
        old_flow = max_flow(old)
        assert old_flow.value == 1
        raised = zero.raised(["x"])
        new = demand_network(inst, raised)
        result = flow_update(old, old_flow, new)
        assert result.dropped == {("j", "x"): 1}
        assert result.flow.value == 0
        old_gap = old.cap_s - old_flow.value
        new_gap = new.cap_s - result.flow.value
        assert new_gap <= old_gap

    def test_rejects_non_uniform_raise(self, fig1):
        zero = PriceVector.zero(fig1)
        old = demand_network(fig1, zero)
        old_flow = max_flow(old)
        crooked = {"alpha": 1, "beta": 2, "gamma": 0}
        new = demand_network(fig1, PriceVector.for_instance(fig1, crooked))
        with pytest.raises(PriceStepError):
            flow_update(old, old_flow, new)

    def test_rejects_unchanged_prices(self, fig1):
        zero = PriceVector.zero(fig1)
        network = demand_network(fig1, zero)
        best = max_flow(network)
        with pytest.raises(PriceStepError):
            flow_update(network, best, network)



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
            network = demand_network(inst, prices)
            best = max_flow(network)
            expected = reference_max_flow(network)
            assert amounts(network, best) == expected
            cold += 1
            while True:
                assert best.value == sum(f for (u, _), f in expected.items() if u == "s")
                cut = leftmost_min_cut(network, best)
                assert cut.labels == tuple(sorted(reference_cut(network, expected)))
                assert side_capacity(network, set(cut.reached)) == best.value
                if not cut.objects:
                    break
                prices = prices.raised(cut.objects)
                raised = demand_network(inst, prices)
                update = flow_update(network, best, raised)
                carried, dropped = reference_flow_update(raised, expected)
                assert amounts(raised, update.flow) == carried
                assert update.dropped == dropped
                network, best = raised, max_flow(raised, warm_start=update.flow)
                expected = reference_max_flow(raised, carried)
                assert amounts(network, best) == expected
                warm += 1
            balanced = balance_instance(inst)
            if DUMMY_OBJECT in balanced.objects:
                prices = PriceVector(prices.prices | {DUMMY_OBJECT: 0})
            allocation = build_allocation_network(balanced, prices)
            assert amounts(allocation, max_flow(allocation)) == reference_max_flow(allocation)
            cold += 1
        assert cold == 1200 and warm >= 500
