"""Auxiliary flow networks, an exact integral max-flow solver, left-most
min cuts, and the warm-start flow update.

The networks are layered: source, one node per buyer payoff tier, one node
per object, sink.  The demand network carries the above-margin and
at-margin tiers; the allocation network adds the zero-payoff tier, which
lets zero-payoff items be assigned.

A network numbers its nodes once: the source is 0, the tier nodes follow
buyer by buyer in tier order, then the objects in canonical order, and the
sink comes last.  Arcs are numbered in the canonical order the builder
emits them in, and the network keeps each arc's tail, head and capacity in
lists indexed by arc id, with one list of outgoing and one of incoming
(arc id, neighbour) pairs per node.  A flow is a list of amounts by arc id.
Capacities are integers, and the solver (shortest augmenting paths,
Edmonds-Karp) scans a node's outgoing arcs and then its incoming arcs, each
in arc order, so the integral flow it returns is a deterministic function
of the network.  Node labels appear only at the edges, and all come from
``FlowNetwork.label``: the network dump, the infeasible-flow messages and a
cut's labels.  The tier flows an allocation is read from name buyers and
objects by id.

An augmenting search stops as soon as it reaches an object whose arc into
the sink has residual capacity, and takes that arc.  A search run until the
sink is reached finds the same path: only objects have an arc into the
sink, one each, and nothing leaves the sink, so it reaches the sink from
the first object it pops with a residual sink arc.  An object is reached
only forward, since its one outgoing arc goes to the sink.  A breadth-first
search pops nodes in the order it reaches them, so that object is the
first one reached with a residual sink arc, and every node reached before
it, with its predecessor, is the same in both searches.  So every
augmenting path, and with it every flow, cut and allocation, is the same.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

from .model import Instance, PriceVector
from .tiers import TierReport, tier_report

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


class FlowNetwork:
    """A layered s-t network with positive integer arc capacities.

    ``tiers`` is ``DEMAND_TIERS`` or ``ALLOCATION_TIERS``.  ``arcs`` holds
    one (tail, head, capacity) triple of node ids per arc id.  Zero-capacity
    arcs are omitted, but every tier node has its id, so the numbering
    depends only on the buyers, the tiers and the objects and stays the
    same across price changes.  ``sink_arc`` holds, per node id, the id of
    the node's arc into the sink, or -1 if it has none (only objects have
    one).
    """

    def __init__(
        self,
        tiers: tuple[int, ...],
        buyers: tuple[str, ...],
        objects: tuple[str, ...],
        prices: dict[str, int],
        arcs: list[tuple[int, int, int]],
    ):
        self.tiers = tiers
        self.buyers = buyers
        self.objects = objects
        self.prices = prices
        self.first_object = 1 + len(buyers) * len(tiers)
        self.sink = self.first_object + len(objects)
        self.arcs: tuple[tuple[int, int, int], ...] = tuple(arcs)
        self.tail = [u for u, _, _ in self.arcs]
        self.head = [v for _, v, _ in self.arcs]
        self.cap = [c for _, _, c in self.arcs]
        self.out: list[list[tuple[int, int]]] = [[] for _ in range(self.sink + 1)]
        self.into: list[list[tuple[int, int]]] = [[] for _ in range(self.sink + 1)]
        self.sink_arc = [-1] * (self.sink + 1)
        for a, (u, v, _) in enumerate(self.arcs):
            self.out[u].append((a, v))
            self.into[v].append((a, u))
            if v == self.sink:
                self.sink_arc[u] = a
        self.cap_s = sum(c for u, _, c in self.arcs if u == 0)

    def label(self, k: int) -> str:
        """Node ``k``'s label: ``s``, ``t``, the object id, or the buyer id
        with one prime per tier."""
        if k == 0:
            return "s"
        if k == self.sink:
            return "t"
        if k >= self.first_object:
            return self.objects[k - self.first_object]
        b, t = divmod(k - 1, len(self.tiers))
        return self.buyers[b] + "'" * self.tiers[t]


@dataclass(frozen=True)
class IntegralFlow:
    """An integral flow: the amount on each arc, by arc id of the network
    it was computed in, plus the value leaving the source."""

    flows: list[int]
    value: int


@dataclass(frozen=True)
class CutResult:
    """The source side of an s-t cut: its node ids, its objects, and its
    node labels in sorted order."""

    reached: tuple[int, ...]
    objects: frozenset[str]
    labels: tuple[str, ...]


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
    # Node ids as FlowNetwork numbers them; a buyer's tier nodes are
    # consecutive, above-margin first.
    width = len(tiers)
    first_object = 1 + len(instance.buyers) * width
    obj_id = {i: first_object + k for k, i in enumerate(instance.objects)}
    sink = first_object + len(instance.objects)
    arcs: list[tuple[int, int, int]] = []
    for b, j in enumerate(instance.buyers):
        report = reports[j]
        above = 1 + b * width
        if report.demand_above > 0:
            arcs.append((0, above, report.demand_above))
        if report.demand_at_margin > 0:
            arcs.append((0, above + 1, report.demand_at_margin))
        if zero_tier and report.demand_zero > 0:
            arcs.append((0, above + 2, report.demand_zero))
    for b, j in enumerate(instance.buyers):
        report = reports[j]
        above = 1 + b * width
        for i in report.above:
            if supplies[i] > 0:
                arcs.append((above, obj_id[i], supplies[i]))
        for i in report.at_margin:
            cap = min(supplies[i], report.demand_at_margin)
            if cap > 0:
                arcs.append((above + 1, obj_id[i], cap))
        if zero_tier and report.demand_zero > 0:
            for i in report.zero:
                if supplies[i] > 0:
                    arcs.append((above + 2, obj_id[i], supplies[i]))
    for i in instance.objects:
        if supplies[i] > 0:
            arcs.append((obj_id[i], sink, supplies[i]))
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
    """Raise :class:`InfeasibleFlowError` unless the flow has one amount
    per arc, obeys capacities and conservation, and its value matches."""
    if len(flow.flows) != len(network.arcs):
        raise InfeasibleFlowError(
            f"flow has {len(flow.flows)} amounts for a network of {len(network.arcs)} arcs"
        )
    balance = [0] * (network.sink + 1)
    for (u, v, cap), amount in zip(network.arcs, flow.flows):
        if amount == 0:
            continue
        if amount < 0 or amount > cap:
            raise InfeasibleFlowError(
                f"flow {amount} outside [0, {cap}] on {network.label(u)} -> {network.label(v)}"
            )
        balance[u] -= amount
        balance[v] += amount
    for k in range(1, network.sink):
        if balance[k] != 0:
            raise InfeasibleFlowError(f"conservation violated at {network.label(k)}")
    if flow.value != -balance[0]:
        raise InfeasibleFlowError(f"declared value {flow.value} != source outflow {-balance[0]}")


def _residual_search(network: FlowNetwork, flows: list[int]) -> list[int | None]:
    """Breadth-first search of the residual graph from the source, until
    it reaches an object with a residual arc into the sink, and the sink
    over that arc, or nothing more.

    Returns, per node id, the arc id the node was reached by (``~a`` when
    arc ``a`` was crossed backwards) or ``None`` if it was not reached.
    """
    cap, out, into, sink = network.cap, network.out, network.into, network.sink
    sink_arc = network.sink_arc
    pred: list[int | None] = [None] * (sink + 1)
    pred[0] = 0  # marks the source reached; no path is traced past it
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for a, v in out[u]:
            if pred[v] is None and flows[a] < cap[a]:
                pred[v] = a
                t = sink_arc[v]
                if t >= 0 and flows[t] < cap[t]:
                    pred[sink] = t
                    return pred
                queue.append(v)
        for a, v in into[u]:
            if pred[v] is None and flows[a] > 0:
                pred[v] = ~a
                queue.append(v)
    return pred


def max_flow(network: FlowNetwork, warm_start: IntegralFlow | None = None) -> IntegralFlow:
    """Integral maximum flow via shortest augmenting paths.

    ``warm_start`` seeds the computation with an existing feasible flow;
    it is validated and raises :class:`InfeasibleFlowError` if it does not
    fit this network.
    """
    cap, tail, head, sink = network.cap, network.tail, network.head, network.sink
    flows = [0] * len(cap)
    value = 0
    if warm_start is not None:
        check_feasible(network, warm_start)
        flows = list(warm_start.flows)
        value = warm_start.value
    while True:
        pred = _residual_search(network, flows)
        if pred[sink] is None:
            return IntegralFlow(flows, value)
        path = []
        v = sink
        while v != 0:
            a = pred[v]
            path.append(a)
            v = tail[a] if a >= 0 else head[~a]
        bottleneck = min(cap[a] - flows[a] if a >= 0 else flows[~a] for a in path)
        for a in path:
            if a >= 0:
                flows[a] += bottleneck
            else:
                flows[~a] -= bottleneck
        value += bottleneck


def leftmost_min_cut(network: FlowNetwork, flow: IntegralFlow) -> CutResult:
    """The inclusion-wise minimal min cut: all nodes the source reaches in
    the residual graph of a maximum flow."""
    pred = _residual_search(network, flow.flows)
    if pred[network.sink] is not None:
        raise NotMaximumError("sink reachable in residual graph; flow is not maximum")
    reached = tuple(k for k, a in enumerate(pred) if a is not None)
    first = network.first_object
    objects = frozenset(network.objects[k - first] for k in reached if k >= first)
    return CutResult(reached, objects, tuple(sorted(network.label(k) for k in reached)))


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
    nodes = (old_network.tiers, old_network.buyers, old_network.objects)
    if nodes != (new_network.tiers, new_network.buyers, new_network.objects):
        raise FlowError("the two networks do not share their nodes")
    deltas = {i: new_network.prices[i] - old_network.prices[i] for i in old_network.objects}
    raised = {i for i, d in deltas.items() if d != 0}
    if not raised:
        raise PriceStepError("new prices equal old prices; nothing to update")
    steps = {deltas[i] for i in raised}
    if len(steps) != 1 or min(steps) < 1:
        raise PriceStepError(f"price changes {deltas} are not a uniform raise on one object set")

    arc_id = {(u, v): a for a, (u, v, _) in enumerate(new_network.arcs)}
    width, first, sink = len(new_network.tiers), new_network.first_object, new_network.sink
    flows = [0] * len(new_network.arcs)
    dropped: dict[tuple[str, str], int] = {}
    value = 0
    for (u, obj, _), carried in zip(old_network.arcs, old_flow.flows):
        # Only tier arcs, buyer tier to object, say who received what.
        if carried == 0 or u == 0 or obj == sink:
            continue
        above = u - (u - 1) % width
        tier_arc = arc_id.get((above, obj))
        tier_node = above
        if tier_arc is None:
            tier_arc = arc_id.get((above + 1, obj))
            tier_node = above + 1
        if tier_arc is None:
            key = (new_network.buyers[(u - 1) // width], new_network.objects[obj - first])
            dropped[key] = dropped.get(key, 0) + carried
            continue
        for a in (arc_id[(0, tier_node)], tier_arc, arc_id[(obj, sink)]):
            flows[a] += carried
        value += carried
    updated = IntegralFlow(flows, value)
    check_feasible(new_network, updated)
    return FlowUpdateResult(updated, dropped)


def tier_flows(network: FlowNetwork, flow: IntegralFlow) -> list[tuple[str, str, int]]:
    """(buyer, object, amount) for every tier arc that carries flow, in
    canonical buyer, then object order."""
    width, first, sink = len(network.tiers), network.first_object, network.sink
    carried = sorted(
        ((u - 1) // width, v, amount)
        for (u, v, _), amount in zip(network.arcs, flow.flows)
        if amount > 0 and u != 0 and v != sink
    )
    return [(network.buyers[b], network.objects[v - first], amount) for b, v, amount in carried]


def dump_network(network: FlowNetwork, flow: IntegralFlow | None = None) -> str:
    """Render the network one arc per line as ``from -> to [cap, flow]``.

    Source arcs and object-to-sink arcs are rendered even at capacity 0
    (the tier and object nodes always exist); tier-to-object arcs appear
    only when present.  The order is canonical, so output is byte-stable.
    """
    amounts = flow.flows if flow is not None else [0] * len(network.arcs)
    present = {(u, v): (c, f) for (u, v, c), f in zip(network.arcs, amounts)}
    labels = [network.label(k) for k in range(network.sink + 1)]
    first, sink = network.first_object, network.sink

    def line(u: int, v: int) -> str:
        cap, amount = present.get((u, v), (0, 0))
        return f"{labels[u]} -> {labels[v]} [{cap}, {amount}]"

    lines = [line(0, k) for k in range(1, first)]
    # The builder emits tier arcs buyer by buyer, tier by tier, in object order.
    lines.extend(line(u, v) for u, v, _ in network.arcs if u != 0 and v != sink)
    lines.extend(line(k, sink) for k in range(first, sink))
    return "\n".join(lines) + "\n"
