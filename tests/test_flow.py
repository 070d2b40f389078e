import itertools
import random

import pytest

from flowauction.flow import (
    TIER_ZERO,
    InfeasibleFlowError,
    IntegralFlow,
    NotMaximumError,
    PriceStepError,
    SINK,
    SOURCE,
    UnbalancedInstanceError,
    build_allocation_network,
    build_demand_network,
    buyer_node,
    dump_network,
    flow_update,
    leftmost_min_cut,
    max_flow,
    node_label,
    object_node,
)
from flowauction.model import PriceVector, validate_instance
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


def enumerate_min_cuts(network):
    """All minimum s-t cuts by brute force over internal node subsets."""
    internal = [n for n in network.nodes if n not in (SOURCE, SINK)]
    cuts = []
    for bits in itertools.product((False, True), repeat=len(internal)):
        side = {SOURCE} | {n for n, take in zip(internal, bits) if take}
        cap = sum(c for (u, v), c in network.capacity.items() if u in side and v not in side)
        cuts.append((cap, side))
    best = min(cap for cap, _ in cuts)
    return best, [side for cap, side in cuts if cap == best]


class TestBuildDemandNetwork:
    def test_fig1_capacities(self, fig1):
        network = demand_network(fig1, PriceVector.zero(fig1))
        cap = network.capacity
        assert cap[(SOURCE, buyer_node("j1", 1))] == 2
        assert cap[(SOURCE, buyer_node("j1", 2))] == 2
        assert (SOURCE, buyer_node("j2", 1)) not in cap  # zero capacity omitted
        assert cap[(SOURCE, buyer_node("j2", 2))] == 1
        assert cap[(buyer_node("j1", 1), object_node("alpha"))] == 1
        assert cap[(buyer_node("j1", 1), object_node("beta"))] == 1
        assert cap[(buyer_node("j1", 2), object_node("gamma"))] == 2
        assert cap[(buyer_node("j2", 2), object_node("beta"))] == 1
        assert cap[(object_node("alpha"), SINK)] == 1
        assert cap[(object_node("beta"), SINK)] == 1
        assert cap[(object_node("gamma"), SINK)] == 4
        assert len(cap) == 10
        assert network.cap_s == 5

    def test_fig1_golden_dump(self, fig1):
        network = demand_network(fig1, PriceVector.zero(fig1))
        assert dump_network(network) == FIG1_DUMP

    def test_no_buyers(self):
        inst = validate_instance({"a": 2}, {}, {})
        network = demand_network(inst, PriceVector.zero(inst))
        assert network.cap_s == 0
        assert set(network.capacity) == {(object_node("a"), SINK)}

    def test_example1(self, example1):
        network = demand_network(example1, PriceVector.zero(example1))
        cap = network.capacity
        assert cap[(SOURCE, buyer_node("b1", 1))] == 1
        assert cap[(SOURCE, buyer_node("b1", 2))] == 1
        assert cap[(buyer_node("b1", 1), object_node("alpha"))] == 1
        assert cap[(buyer_node("b1", 2), object_node("beta"))] == 1
        assert cap[(object_node("alpha"), SINK)] == 1
        assert cap[(object_node("beta"), SINK)] == 1
        assert len(cap) == 6


class TestBuildAllocationNetwork:
    def test_three_buyers_at_final_prices(self, three_buyers):
        network = build_allocation_network(three_buyers, PriceVector({"alpha": 2, "beta": 0}))
        cap = network.capacity
        # the zero-payoff buyer contributes only third-tier arcs
        assert cap[(SOURCE, buyer_node("b2", 3))] == 2
        assert cap[(buyer_node("b2", 3), object_node("alpha"))] == 3
        assert cap[(buyer_node("b2", 3), object_node("beta"))] == 2
        assert not any(
            arc[0] in (buyer_node("b2", 1), buyer_node("b2", 2)) for arc in cap
        )
        assert cap[(SOURCE, buyer_node("b1", 2))] == 2
        assert cap[(SOURCE, buyer_node("b3", 2))] == 1

    def test_all_positive_payoffs_add_no_arcs(self):
        """The allocation network is the demand network plus zero-tier arcs,
        in the same order; with no zero-payoff demand it adds none."""
        fixed = validate_instance(
            {"x": 1, "y": 1},
            {"u": 1, "w": 1},
            {"u": {"x": 2, "y": 1}, "w": {"x": 1, "y": 2}},
        )
        allocation = build_allocation_network(fixed, PriceVector.zero(fixed))
        assert allocation.arcs == demand_network(fixed, PriceVector.zero(fixed)).arcs
        assert buyer_node("u", 3) in allocation.nodes
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
            zero_nodes = {buyer_node(j, TIER_ZERO) for j in inst.buyers}
            kept = [arc for arc in allocation.arcs if not zero_nodes & {arc[0], arc[1]}]
            with_zero_tier += len(kept) < len(allocation.arcs)
            assert kept == list(demand.arcs)
        assert balanced >= 40 and with_zero_tier >= 10

    def test_fig1_after_first_raise(self, fig1):
        network = build_allocation_network(fig1, PriceVector({"alpha": 0, "beta": 1, "gamma": 0}))
        cap = network.capacity
        assert cap[(SOURCE, buyer_node("j2", 3))] == 1
        assert cap[(buyer_node("j2", 3), object_node("alpha"))] == 1
        assert cap[(buyer_node("j2", 3), object_node("gamma"))] == 4
        assert (SOURCE, buyer_node("j1", 3)) not in cap

    def test_fig1_arc_order(self, fig1):
        # Max-flow path order, and so the allocation, follows the arc order.
        network = build_allocation_network(fig1, PriceVector({"alpha": 0, "beta": 1, "gamma": 0}))
        assert [f"{node_label(u)} -> {node_label(v)} [{c}]" for u, v, c in network.arcs] == [
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
        partial = IntegralFlow(
            {(SOURCE, buyer_node("j1", 1)): 1, (buyer_node("j1", 1), object_node("alpha")): 1, (object_node("alpha"), SINK): 1},
            1,
        )
        assert max_flow(network, warm_start=partial).value == 4

    def test_warm_start_must_be_feasible(self, fig1):
        network = demand_network(fig1, PriceVector.zero(fig1))
        overfull = IntegralFlow({(SOURCE, buyer_node("j1", 1)): 5}, 5)
        with pytest.raises(InfeasibleFlowError):
            max_flow(network, warm_start=overfull)

    def test_flow_conservation_and_capacities(self):
        rng = random.Random(11)
        for _ in range(50):
            inst = random_instance(rng)
            prices = random_prices(rng, inst)
            network = demand_network(inst, prices)
            best = max_flow(network)
            balance = {}
            for (u, v), amount in best.flows.items():
                assert 0 <= amount <= network.capacity[(u, v)]
                balance[u] = balance.get(u, 0) - amount
                balance[v] = balance.get(v, 0) + amount
            for node in network.nodes:
                if node not in (SOURCE, SINK):
                    assert balance.get(node, 0) == 0
            assert best.value == -balance.get(SOURCE, 0)


class TestLeftmostMinCut:
    def test_fig1(self, fig1):
        network = demand_network(fig1, PriceVector.zero(fig1))
        cut = leftmost_min_cut(network, max_flow(network))
        assert cut.node_set == frozenset(
            {SOURCE, buyer_node("j1", 1), buyer_node("j2", 2), object_node("beta")}
        )
        assert cut.objects == frozenset({"beta"})
        assert cut.capacity == 4

    def test_saturating_flow_gives_source_only(self, example1):
        network = demand_network(example1, PriceVector.zero(example1))
        cut = leftmost_min_cut(network, max_flow(network))
        assert cut.node_set == frozenset({SOURCE})
        assert cut.objects == frozenset()

    def test_three_buyers_at_zero(self, three_buyers):
        network = demand_network(three_buyers, PriceVector.zero(three_buyers))
        cut = leftmost_min_cut(network, max_flow(network))
        assert cut.objects == frozenset({"alpha"})

    def test_rejects_non_maximum_flow(self, fig1):
        network = demand_network(fig1, PriceVector.zero(fig1))
        zero = IntegralFlow({arc: 0 for arc in network.capacity}, 0)
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
            assert cut.capacity == min_cap == best.value
            for side in sides:
                assert cut.node_set <= side
            checked += 1
        assert checked == 60


class TestFlowUpdate:
    def test_tier_change_reroutes(self, fig1):
        zero = PriceVector.zero(fig1)
        old = demand_network(fig1, zero)
        old_flow = max_flow(old)
        assert old_flow.on((buyer_node("j1", 1), object_node("beta"))) == 1
        raised = zero.raised(["beta"])
        new = demand_network(fig1, raised)
        result = flow_update(old, old_flow, new)
        assert result.dropped == {}
        assert result.flow.on((buyer_node("j1", 2), object_node("beta"))) == 1
        assert result.flow.on((buyer_node("j1", 1), object_node("beta"))) == 0
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
        assert {a: f for a, f in result.flow.flows.items() if f} == {
            a: f for a, f in old_flow.flows.items() if f
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

