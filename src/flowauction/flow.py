"""Auxiliary flow networks, an exact integral max-flow solver, left-most
min cuts, and the warm-start flow update.

The networks are layered: source, one node per buyer payoff tier, one node
per object, sink.  The demand network carries the above-margin and
at-margin tiers; the allocation network adds the zero-payoff tier, which
lets zero-payoff items be assigned.  Capacities are integers and the solver
(shortest augmenting path) returns an integral flow deterministically given
the canonical node and arc order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

from .model import Instance, PriceVector
from .tiers import TierReport, tier_report

Node = tuple
Arc = tuple[Node, Node]

SOURCE: Node = ("s",)
SINK: Node = ("t",)

TIER_ABOVE = 1
TIER_AT_MARGIN = 2
TIER_ZERO = 3
DEMAND_TIERS = (TIER_ABOVE, TIER_AT_MARGIN)
ALLOCATION_TIERS = (TIER_ABOVE, TIER_AT_MARGIN, TIER_ZERO)


class FlowError(RuntimeError):
    """Base class for flow-layer failures."""


class UnbalancedInstanceError(FlowError):
    """Allocation networks require total supply to equal total demand."""


class InfeasibleFlowError(FlowError):
    """A supplied flow violates capacities or conservation."""


class NotMaximumError(FlowError):
    """A cut was requested for a flow that is not maximum."""


class PriceStepError(FlowError):
    """The new prices are not a uniform raise on a single object set."""


def object_node(obj: str) -> Node:
    return ("obj", obj)


def buyer_node(buyer: str, tier: int) -> Node:
    return ("tier", buyer, tier)


def node_label(node: Node) -> str:
    if node == SOURCE:
        return "s"
    if node == SINK:
        return "t"
    if node[0] == "obj":
        return node[1]
    return node[1] + "'" * node[2]


class FlowNetwork:
    """A layered s-t network with positive integer arc capacities.

    ``tiers`` is ``DEMAND_TIERS`` or ``ALLOCATION_TIERS``.  Zero-capacity
    arcs are omitted from ``arcs`` but every tier node exists in ``nodes``,
    so node identity is stable across price changes.
    """

    def __init__(
        self,
        tiers: tuple[int, ...],
        buyers: tuple[str, ...],
        objects: tuple[str, ...],
        prices: dict[str, int],
        arcs: list[tuple[Node, Node, int]],
    ):
        self.tiers = tiers
        self.buyers = buyers
        self.objects = objects
        self.prices = prices
        nodes: list[Node] = [SOURCE]
        for j in buyers:
            nodes.extend(buyer_node(j, tier) for tier in self.tiers)
        nodes.extend(object_node(i) for i in objects)
        nodes.append(SINK)
        self.nodes: tuple[Node, ...] = tuple(nodes)
        self.arcs: tuple[tuple[Node, Node, int], ...] = tuple(arcs)
        self.capacity: dict[Arc, int] = {(u, v): c for u, v, c in self.arcs}
        out: dict[Node, list[Node]] = {n: [] for n in self.nodes}
        into: dict[Node, list[Node]] = {n: [] for n in self.nodes}
        for u, v, _ in self.arcs:
            out[u].append(v)
            into[v].append(u)
        self.out_arcs = {u: tuple(vs) for u, vs in out.items()}
        self.in_arcs = {v: tuple(us) for v, us in into.items()}
        self.cap_s = sum(c for (u, _), c in self.capacity.items() if u == SOURCE)


@dataclass(frozen=True)
class IntegralFlow:
    """An integral flow: per-arc amounts plus the value leaving the source."""

    flows: dict[Arc, int]
    value: int

    def on(self, arc: Arc) -> int:
        return self.flows.get(arc, 0)


@dataclass(frozen=True)
class CutResult:
    """The source side of an s-t cut, its object members, and its capacity."""

    node_set: frozenset[Node]
    objects: frozenset[str]
    capacity: int

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(sorted(node_label(n) for n in self.node_set))


@dataclass(frozen=True)
class FlowUpdateResult:
    """Warm-start flow for the new network plus the units that were dropped
    because their object left the buyer's positive-payoff tiers."""

    flow: IntegralFlow
    dropped: dict[tuple[str, str], int] = field(default_factory=dict)


def _build_network(
    instance: Instance,
    prices: PriceVector,
    reports: Mapping[str, TierReport],
    tiers: tuple[int, ...],
) -> FlowNetwork:
    """Build the layered network over ``tiers`` from one report per buyer.

    Source arcs carry the tier demands, tier arcs carry the supply visible
    to the tier (capped by the tier demand for the at-margin tier), the
    zero-payoff tier takes part only when ``TIER_ZERO`` is in ``tiers``,
    and every object forwards its supply to the sink.  The arc order is
    canonical: the max-flow solver's path order depends on it.
    """
    zero_tier = TIER_ZERO in tiers
    supplies = instance.supplies
    arcs: list[tuple[Node, Node, int]] = []
    for j in instance.buyers:
        report = reports[j]
        if report.demand_above > 0:
            arcs.append((SOURCE, buyer_node(j, TIER_ABOVE), report.demand_above))
        if report.demand_at_margin > 0:
            arcs.append((SOURCE, buyer_node(j, TIER_AT_MARGIN), report.demand_at_margin))
        if zero_tier and report.demand_zero > 0:
            arcs.append((SOURCE, buyer_node(j, TIER_ZERO), report.demand_zero))
    for j in instance.buyers:
        report = reports[j]
        for i in report.above:
            if supplies[i] > 0:
                arcs.append((buyer_node(j, TIER_ABOVE), object_node(i), supplies[i]))
        for i in report.at_margin:
            cap = min(supplies[i], report.demand_at_margin)
            if cap > 0:
                arcs.append((buyer_node(j, TIER_AT_MARGIN), object_node(i), cap))
        if zero_tier and report.demand_zero > 0:
            for i in report.zero:
                if supplies[i] > 0:
                    arcs.append((buyer_node(j, TIER_ZERO), object_node(i), supplies[i]))
    for i in instance.objects:
        if supplies[i] > 0:
            arcs.append((object_node(i), SINK, supplies[i]))
    return FlowNetwork(tiers, instance.buyers, instance.objects, prices.as_dict(), arcs)


def build_demand_network(
    instance: Instance, prices: PriceVector, reports: Mapping[str, TierReport]
) -> FlowNetwork:
    """Build the demand network (above-margin and at-margin tiers) from one
    tier report per buyer."""
    return _build_network(instance, prices, reports, DEMAND_TIERS)


def build_allocation_network(instance: Instance, prices: PriceVector) -> FlowNetwork:
    """Build the allocation network: the demand network plus the
    zero-payoff tier.  Requires a balanced instance."""
    if instance.total_supply != instance.total_demand:
        raise UnbalancedInstanceError(
            f"total supply {instance.total_supply} != total demand {instance.total_demand}"
        )
    reports = {j: tier_report(instance, j, prices) for j in instance.buyers}
    return _build_network(instance, prices, reports, ALLOCATION_TIERS)


def check_feasible(network: FlowNetwork, flow: IntegralFlow) -> None:
    """Raise :class:`InfeasibleFlowError` unless the flow obeys capacities
    and conservation in this network and its value matches."""
    balance: dict[Node, int] = {n: 0 for n in network.nodes}
    for arc, amount in flow.flows.items():
        if amount == 0:
            continue
        if arc not in network.capacity:
            raise InfeasibleFlowError(f"flow on unknown arc {arc}")
        if amount < 0 or amount > network.capacity[arc]:
            raise InfeasibleFlowError(
                f"flow {amount} outside [0, {network.capacity[arc]}] on {arc}"
            )
        u, v = arc
        balance[u] -= amount
        balance[v] += amount
    for node in network.nodes:
        if node in (SOURCE, SINK):
            continue
        if balance[node] != 0:
            raise InfeasibleFlowError(f"conservation violated at {node_label(node)}")
    if flow.value != -balance[SOURCE]:
        raise InfeasibleFlowError(
            f"declared value {flow.value} != source outflow {-balance[SOURCE]}"
        )


def _residual_neighbors(network: FlowNetwork, flows: dict[Arc, int], u: Node):
    for v in network.out_arcs[u]:
        if network.capacity[(u, v)] - flows.get((u, v), 0) > 0:
            yield v
    for v in network.in_arcs[u]:
        if flows.get((v, u), 0) > 0:
            yield v


def max_flow(network: FlowNetwork, warm_start: IntegralFlow | None = None) -> IntegralFlow:
    """Integral maximum flow via shortest augmenting paths.

    ``warm_start`` seeds the computation with an existing feasible flow;
    it is validated and raises :class:`InfeasibleFlowError` if it does not
    fit this network.
    """
    flows: dict[Arc, int] = {arc: 0 for arc in network.capacity}
    value = 0
    if warm_start is not None:
        check_feasible(network, warm_start)
        for arc, amount in warm_start.flows.items():
            flows[arc] = amount
        value = warm_start.value
    while True:
        parent: dict[Node, Node] = {SOURCE: SOURCE}
        queue = deque([SOURCE])
        while queue and SINK not in parent:
            u = queue.popleft()
            for v in _residual_neighbors(network, flows, u):
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
        if SINK not in parent:
            return IntegralFlow(flows, value)
        path = [SINK]
        while path[-1] != SOURCE:
            path.append(parent[path[-1]])
        path.reverse()
        bottleneck = None
        for u, v in zip(path, path[1:]):
            if (u, v) in network.capacity:
                residual = network.capacity[(u, v)] - flows.get((u, v), 0)
            else:
                residual = flows.get((v, u), 0)
            bottleneck = residual if bottleneck is None else min(bottleneck, residual)
        for u, v in zip(path, path[1:]):
            if (u, v) in network.capacity:
                flows[(u, v)] = flows.get((u, v), 0) + bottleneck
            else:
                flows[(v, u)] = flows.get((v, u), 0) - bottleneck
        value += bottleneck


def leftmost_min_cut(network: FlowNetwork, flow: IntegralFlow) -> CutResult:
    """The inclusion-wise minimal min cut: all nodes the source reaches in
    the residual graph of a maximum flow."""
    reached = {SOURCE}
    queue = deque([SOURCE])
    while queue:
        u = queue.popleft()
        for v in _residual_neighbors(network, flow.flows, u):
            if v not in reached:
                reached.add(v)
                queue.append(v)
    if SINK in reached:
        raise NotMaximumError("sink reachable in residual graph; flow is not maximum")
    capacity = sum(c for (u, v), c in network.capacity.items() if u in reached and v not in reached)
    objects = frozenset(i for i in network.objects if object_node(i) in reached)
    return CutResult(frozenset(reached), objects, capacity)


def flow_update(
    old_network: FlowNetwork, old_flow: IntegralFlow, new_network: FlowNetwork
) -> FlowUpdateResult:
    """Carry a maximum flow over to the network at raised prices, the
    prices ``new_network`` was built at.

    Every unit a buyer received of an object is rerouted through the tier
    the object now sits in (above-margin first, then at-margin) and dropped
    if the object left both tiers.  The result is feasible in the new
    network whenever the raise happened on the left-most min cut's objects;
    feasibility is asserted and :class:`InfeasibleFlowError` raised on
    violation, since that signals a bug rather than bad input.
    """
    deltas = {i: new_network.prices[i] - old_network.prices[i] for i in old_network.objects}
    raised = {i for i, d in deltas.items() if d != 0}
    if not raised:
        raise PriceStepError("new prices equal old prices; nothing to update")
    steps = {deltas[i] for i in raised}
    if len(steps) != 1 or min(steps) < 1:
        raise PriceStepError(f"price changes {deltas} are not a uniform raise on one object set")

    flows: dict[Arc, int] = {arc: 0 for arc in new_network.capacity}
    dropped: dict[tuple[str, str], int] = {}
    value = 0
    for (u, obj), carried in old_flow.flows.items():
        # Only tier arcs, buyer tier to object, say who received what.
        if carried == 0 or u == SOURCE or obj == SINK:
            continue
        j = u[1]
        if (buyer_node(j, TIER_ABOVE), obj) in new_network.capacity:
            tier_node = buyer_node(j, TIER_ABOVE)
        elif (buyer_node(j, TIER_AT_MARGIN), obj) in new_network.capacity:
            tier_node = buyer_node(j, TIER_AT_MARGIN)
        else:
            dropped[(j, obj[1])] = dropped.get((j, obj[1]), 0) + carried
            continue
        for arc in ((SOURCE, tier_node), (tier_node, obj), (obj, SINK)):
            flows[arc] = flows.get(arc, 0) + carried
        value += carried
    updated = IntegralFlow(flows, value)
    check_feasible(new_network, updated)
    return FlowUpdateResult(updated, dropped)


def dump_network(network: FlowNetwork, flow: IntegralFlow | None = None) -> str:
    """Render the network one arc per line as ``from -> to [cap, flow]``.

    Source arcs and object-to-sink arcs are rendered even at capacity 0
    (the tier and object nodes always exist); tier-to-object arcs appear
    only when present.  The order is canonical, so output is byte-stable.
    """
    get = (flow.on if flow is not None else lambda arc: 0)
    lines = []

    def line(u: Node, v: Node) -> str:
        return f"{node_label(u)} -> {node_label(v)} [{network.capacity.get((u, v), 0)}, {get((u, v))}]"

    for j in network.buyers:
        for tier in network.tiers:
            lines.append(line(SOURCE, buyer_node(j, tier)))
    for j in network.buyers:
        for tier in network.tiers:
            for i in network.objects:
                if (buyer_node(j, tier), object_node(i)) in network.capacity:
                    lines.append(line(buyer_node(j, tier), object_node(i)))
    for i in network.objects:
        lines.append(line(object_node(i), SINK))
    return "\n".join(lines) + "\n"
