"""Auxiliary flow networks, an exact integral max-flow solver, left-most
min cuts, and the warm-start flow update.

The networks are layered: source, one node per buyer payoff tier, one node
per object, sink.  A network's ``width`` is its number of tier nodes per
buyer.  The demand network has width 2, the above-margin and at-margin
tiers, and reads only those two tiers of each report and their demands.
The allocation network has width 3: it adds the zero-payoff tier,
which lets zero-payoff items be assigned.  It balances its own market, so
it holds a zero-value dummy where supply and demand differ.

``FlowNetwork`` alone numbers the nodes and lays the arcs.  The source is
0, the tier nodes follow buyer by buyer in tier order, then the objects in
canonical order, and the sink comes last.  The arcs come in one block per
buyer, each tier's source arc followed by that tier's arcs to objects in
object order, and the object-to-sink arcs close the list.  A buyer's block
depends only on its report and the node numbering, so a climb's network
copies, from the network before, the blocks of the buyers whose reports
the walk did not recompute, each run of them as one slice, and lays only
the others.  A network keeps each arc's (tail, head, capacity) by arc id,
with one list of outgoing and one of incoming (arc id, neighbour) pairs
per node.  A flow is a list of amounts by arc id.  Capacities are
integers, and the solver (shortest augmenting paths, Edmonds-Karp) scans a
node's outgoing arcs and then its incoming arcs, each in arc order, so the
integral flow it returns is a deterministic function of the network.  It returns that flow with the
residual search that found no more augmenting path, and the left-most min
cut is read off that search rather than a second one.  ``flow_update``
finds each carried unit's arcs in the new network through its per-node arc
lists.  Node labels appear only at the edges: the network dump, the
infeasible-flow messages and a cut's labels.  All come from one label
table per node numbering, built once per (buyers, objects, width) and
shared by every network of a climb, which also holds the node ids sorted
by label, so a cut filters that order instead of sorting.  The tier
flows an allocation is read from name buyers and objects by id.  Every
failure of this layer, a bug in its caller, raises :class:`FlowError`.

``build_allocation_network`` takes the tier reports at its prices, as the
climb leaves them, and ``tiers.balanced_reports`` fills in their zero
tiers, so no tier report runs on the balanced market.

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

``max_flow`` starts from ``direct_flow``, one greedy pass along the direct
source -> tier -> object -> sink paths, unless it is given a warm start.
That seed is where Edmonds-Karp gets to from zero before its first longer
path: a search pops every tier node before any object, so while a direct
path is left it takes the first tier node in source-arc order that has
one, and that node's first such arc in object order, by the least residual
of the three arcs, which is what the seed pushes there; augmenting a
direct path only adds flow, so a tier node left without one stays so.
The seeded max flow is therefore the zero-start one, arc for arc, and the
seed saves only searches.  Even without that argument the value and the
left-most min cut would not depend on the seed, since every maximum flow
has them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Collection, Mapping

from .model import Instance, PriceVector, balance_instance
from .tiers import TierReport, balanced_reports, tier_reports


class FlowError(RuntimeError):
    """A flow-layer precondition failed: an infeasible flow, a cut of a
    flow that is not maximum, or a flow update between networks that do
    not share their nodes or whose prices are not one uniform raise."""


@lru_cache(maxsize=64)
def _label_table(
    buyers: tuple[str, ...], objects: tuple[str, ...], width: int
) -> tuple[tuple[str, ...], tuple[int, ...], dict[str, int]]:
    """The node labels by node id, the node ids in label order, and each
    object's node id by object id.  The dict is shared and must not be
    changed."""
    labels = ("s", *(j + "'" * t for j in buyers for t in range(1, width + 1)), *objects, "t")
    first = 1 + len(buyers) * width
    obj_id = {i: first + k for k, i in enumerate(objects)}
    return labels, tuple(sorted(range(len(labels)), key=labels.__getitem__)), obj_id


class FlowNetwork:
    """The layered s-t network at ``prices`` with ``width`` tier nodes per
    buyer (2 or 3), from one tier report per buyer.

    Source arcs carry the tier demands, tier arcs the supply the tier sees
    (capped by the tier demand for the at-margin tier), and every object
    forwards its supply to the sink.  A tier without demand gets no arcs,
    and a report's tiers name only objects in supply, so an object lacks
    an arc only when it has no supply: its sink arc.  No arc has capacity
    0.  ``arcs`` holds one (tail, head, capacity) triple of node ids per
    arc id, and ``cap`` the capacities.  Every tier node has its id, so
    the numbering depends only on the buyers, the width and the objects,
    and so do ``labels``, each node's label by node id, and
    ``label_order``, the node ids sorted by label: one shared table.
    Each node's ``out`` and ``into`` arcs come in tier, then object order:
    the solver's path order depends on that order, not on arc ids.
    ``sink_arc`` holds, per node id, the id of the node's arc into the
    sink, or -1 if it has none (only objects do).  ``ends`` holds, per
    buyer, the arc id where the buyer's block ends.

    ``base``, a network with the same width, buyers and objects (else
    :class:`FlowError`), lends its blocks: each run of buyers not in
    ``due`` has its blocks copied from ``base`` as one slice, with their
    ``ends`` shifted, and only the buyers in ``due`` are read from
    ``reports``.  ``cap_s`` is the base's, less the due buyers' source
    arcs there, plus theirs here.  The caller promises that a buyer not in
    ``due`` has the report, in the tiers this width reads, that ``base``
    was built from.  The network keeps no reference to ``base``.
    """

    def __init__(
        self,
        instance: Instance,
        prices: PriceVector,
        reports: Mapping[str, TierReport],
        width: int,
        base: FlowNetwork | None = None,
        due: Collection[str] = (),
    ):
        supplies = instance.supplies
        self.width = width
        self.buyers = buyers = instance.buyers
        self.objects = instance.objects
        self.prices = prices
        self.first_object = 1 + len(buyers) * width
        self.sink = sink = self.first_object + len(self.objects)
        self.labels, self.label_order, obj_id = _label_table(buyers, self.objects, width)
        if base is None:
            base_arcs, base_ends, cap_s = (), [], 0
            laid: Collection[int] = range(len(buyers))
        else:
            if (base.width, base.buyers, base.objects) != (width, buyers, self.objects):
                raise FlowError("the base network does not share this network's nodes")
            base_arcs, base_ends, cap_s = base.arcs, base.ends, base.cap_s
            due = set(due)
            laid = [k for k, j in enumerate(buyers) if j in due]
        arcs: list[tuple[int, int, int]] = []
        ends: list[int] = []
        copied = 0  # the first buyer whose block is neither copied nor laid
        for k in (*laid, len(buyers)):
            if copied < k:
                # Buyers copied..k-1 keep their reports, so their blocks
                # are the base's.
                start = base_ends[copied - 1] if copied else 0
                shift = len(arcs) - start
                arcs += base_arcs[start : base_ends[k - 1]]
                ends += [e + shift for e in base_ends[copied:k]] if shift else base_ends[copied:k]
            if k == len(buyers):
                break
            if base is not None:
                block = base_arcs[base_ends[k - 1] if k else 0 : base_ends[k]]
                cap_s -= sum(c for u, _, c in block if u == 0)
            r = reports[buyers[k]]
            # (objects, demand, whether the demand caps the tier's arcs)
            tiers = (
                (r.above, r.demand_above, False),
                (r.at_margin, r.demand_at_margin, True),
                (r.zero, r.demand_zero, False),
            )
            node = k * width
            for objects, demand, capped in tiers[:width]:
                node += 1
                if demand > 0:
                    arcs.append((0, node, demand))
                    cap_s += demand
                    for i in objects:
                        cap = supplies[i]
                        if capped and cap > demand:
                            cap = demand
                        arcs.append((node, obj_id[i], cap))
            ends.append(len(arcs))
            copied = k + 1
        for i in self.objects:
            if supplies[i] > 0:
                arcs.append((obj_id[i], sink, supplies[i]))
        self.arcs: tuple[tuple[int, int, int], ...] = tuple(arcs)
        self.ends = ends
        self.cap = [c for _, _, c in arcs]
        self.out: list[list[tuple[int, int]]] = [[] for _ in range(sink + 1)]
        self.into: list[list[tuple[int, int]]] = [[] for _ in range(sink + 1)]
        self.sink_arc = [-1] * (sink + 1)
        for a, (u, v, _) in enumerate(arcs):
            self.out[u].append((a, v))
            self.into[v].append((a, u))
            if v == sink:
                self.sink_arc[u] = a
        self.cap_s = cap_s

    def label(self, k: int) -> str:
        """Node ``k``'s label: ``s``, ``t``, the object id, or the buyer id
        with one prime per tier."""
        return self.labels[k]


@dataclass(frozen=True)
class IntegralFlow:
    """An integral flow: the amount on each arc, by arc id of the network
    it was computed in, plus the value leaving the source.

    ``search`` is the residual search that ended ``max_flow`` on that
    network, kept for ``leftmost_min_cut``; it is ``None`` for a flow from
    anywhere else and takes no part in equality.
    """

    flows: list[int]
    value: int
    search: list[int | None] | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class CutResult:
    """The source side of an s-t cut: its objects and its node labels in
    sorted order."""

    objects: frozenset[str]
    labels: tuple[str, ...]


@dataclass(frozen=True)
class FlowUpdateResult:
    """Warm-start flow for the new network plus the units that were dropped
    because their object left the buyer's positive-payoff tiers."""

    flow: IntegralFlow
    dropped: dict[tuple[str, str], int] = field(default_factory=dict)


def build_demand_network(
    instance: Instance,
    prices: PriceVector,
    reports: Mapping[str, TierReport] | None = None,
    base: FlowNetwork | None = None,
    due: Collection[str] = (),
) -> FlowNetwork:
    """Build the demand network (above-margin and at-margin tiers) at
    ``prices`` from one tier report per buyer.  Omitted ``reports`` are
    computed at ``prices``; the walk passes its own, current in the
    above-margin and at-margin tiers.  The walk also passes the network
    it came from as ``base`` and the buyers whose reports it recomputed
    as ``due``, and ``FlowNetwork`` copies every other buyer's arc block
    from ``base``."""
    if reports is None:
        reports = tier_reports(instance, instance.buyers, prices)
    return FlowNetwork(instance, prices, reports, 2, base, due)


def build_allocation_network(
    instance: Instance, prices: PriceVector, reports: Mapping[str, TierReport] | None = None
) -> FlowNetwork:
    """Build the allocation network: the demand network plus the
    zero-payoff tier, over the market balanced by ``balance_instance``.
    A dummy object, missing from ``prices``, prices at 0.

    ``reports`` holds one tier report per buyer of ``instance`` at
    ``prices``, current in the above-margin and at-margin tiers, as a
    climb leaves them; omitted ones are computed at ``prices``.  The
    balanced market's reports follow from them by
    ``tiers.balanced_reports``, which recomputes only the zero tiers."""
    if reports is None:
        reports = tier_reports(instance, instance.buyers, prices)
    balanced = balance_instance(instance)
    reports = balanced_reports(instance, prices, reports)
    prices = PriceVector.for_instance(balanced, prices.prices)
    return FlowNetwork(balanced, prices, reports, 3)


def check_feasible(network: FlowNetwork, flow: IntegralFlow) -> None:
    """Raise :class:`FlowError` unless the flow has one amount per arc,
    obeys capacities and conservation, and its value matches."""
    if len(flow.flows) != len(network.arcs):
        raise FlowError(
            f"flow has {len(flow.flows)} amounts for a network of {len(network.arcs)} arcs"
        )
    balance = [0] * (network.sink + 1)
    for (u, v, cap), amount in zip(network.arcs, flow.flows):
        if amount == 0:
            continue
        if amount < 0 or amount > cap:
            raise FlowError(
                f"flow {amount} outside [0, {cap}] on {network.label(u)} -> {network.label(v)}"
            )
        balance[u] -= amount
        balance[v] += amount
    for k in range(1, network.sink):
        if balance[k] != 0:
            raise FlowError(f"conservation violated at {network.label(k)}")
    if flow.value != -balance[0]:
        raise FlowError(f"declared value {flow.value} != source outflow {-balance[0]}")


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


def direct_flow(network: FlowNetwork) -> IntegralFlow:
    """A feasible flow along the direct source -> tier -> object -> sink
    paths, in one greedy pass.

    The source arcs are taken in arc order, and each tier node pushes its
    demand along its tier arcs in object order, each up to what is left of
    the object's sink arc.  No unit is rerouted, so the flow need not be
    maximum; ``max_flow`` starts from it and augments it.
    """
    cap, out, sink_arc = network.cap, network.out, network.sink_arc
    flows = [0] * len(cap)
    value = 0
    for source_arc, tier in out[0]:
        left = cap[source_arc]
        for a, obj in out[tier]:
            if left == 0:
                break
            t = sink_arc[obj]
            amount = cap[t] - flows[t]
            if amount > left:
                amount = left
            if amount > cap[a]:
                amount = cap[a]
            if amount > 0:
                flows[a] = amount
                flows[t] += amount
                left -= amount
        flows[source_arc] = cap[source_arc] - left
        value += flows[source_arc]
    return IntegralFlow(flows, value)


def max_flow(network: FlowNetwork, warm_start: IntegralFlow | None = None) -> IntegralFlow:
    """Integral maximum flow via shortest augmenting paths.

    ``warm_start`` seeds the computation with an existing feasible flow;
    it is validated and raises :class:`FlowError` if it does not fit this
    network, and it is copied, so the caller's flow is left as it was.
    Without one the computation starts from ``direct_flow``,
    feasible by construction, and returns the flow it would reach from
    zero (see the module docstring).
    """
    arcs, cap, sink = network.arcs, network.cap, network.sink
    if warm_start is None:
        seed = direct_flow(network)
        flows, value = seed.flows, seed.value
    else:
        check_feasible(network, warm_start)
        flows, value = list(warm_start.flows), warm_start.value
    while True:
        pred = _residual_search(network, flows)
        if pred[sink] is None:
            return IntegralFlow(flows, value, pred)
        path = []
        v = sink
        while v != 0:
            a = pred[v]
            path.append(a)
            v = arcs[a][0] if a >= 0 else arcs[~a][1]
        bottleneck = min(cap[a] - flows[a] if a >= 0 else flows[~a] for a in path)
        for a in path:
            if a >= 0:
                flows[a] += bottleneck
            else:
                flows[~a] -= bottleneck
        value += bottleneck


def leftmost_min_cut(network: FlowNetwork, flow: IntegralFlow) -> CutResult:
    """The inclusion-wise minimal min cut: all nodes the source reaches in
    the residual graph of a maximum flow.

    A flow from ``max_flow`` on ``network`` carries the search that ended
    it, which found no augmenting path and so reached exactly these nodes;
    the cut reads that search.  Any other flow, such as a hand-built one or
    one from ``flow_update``, is searched here.
    """
    pred = flow.search if flow.search is not None else _residual_search(network, flow.flows)
    if pred[network.sink] is not None:
        raise FlowError("sink reachable in residual graph; flow is not maximum")
    first, labels = network.first_object, network.labels
    objects = frozenset(
        i for i, a in zip(network.objects, pred[first : network.sink]) if a is not None
    )
    return CutResult(objects, tuple(labels[k] for k in network.label_order if pred[k] is not None))


def flow_update(
    old_network: FlowNetwork, old_flow: IntegralFlow, new_network: FlowNetwork
) -> FlowUpdateResult:
    """Carry a maximum flow over to the network at raised prices, the
    prices ``new_network`` was built at.

    Every unit a buyer received of an object is rerouted through the tier
    the object now sits in (above-margin first, then at-margin) and dropped
    if the object left both tiers.  The new arcs are read off the new
    network's per-node arc lists, one buyer at a time: the tier arcs leave
    the buyer's tier nodes, each tier node's source arc is its one incoming
    arc, and each object has its sink arc.  The result is feasible in the
    new network whenever the raise happened on the left-most min cut's
    objects.
    It is checked once, by ``max_flow`` when warm started from it (or by
    ``check_feasible``), whose :class:`FlowError` signals a bug.
    """
    nodes = (old_network.width, old_network.buyers, old_network.objects)
    if nodes != (new_network.width, new_network.buyers, new_network.objects):
        raise FlowError("the two networks do not share their nodes")
    deltas = {i: new_network.prices[i] - old_network.prices[i] for i in old_network.objects}
    raised = {i for i, d in deltas.items() if d != 0}
    if not raised:
        raise FlowError("new prices equal old prices; nothing to update")
    steps = {deltas[i] for i in raised}
    if len(steps) != 1 or min(steps) < 1:
        raise FlowError(f"price changes {deltas} are not a uniform raise on one object set")

    width, first, sink = new_network.width, new_network.first_object, new_network.sink
    out, into, sink_arc = new_network.out, new_network.into, new_network.sink_arc
    flows = [0] * len(new_network.arcs)
    dropped: dict[tuple[str, str], int] = {}
    value = 0
    block, tier_arcs = -1, {}
    for (u, obj, _), carried in zip(old_network.arcs, old_flow.flows):
        # Only tier arcs, buyer tier to object, say who received what.
        if carried == 0 or u == 0 or obj == sink:
            continue
        above = u - (u - 1) % width
        if above != block:
            # The buyer's (source arc, tier arc) in the new network by
            # object: a tier node's one incoming arc is its source arc, and
            # a report's tiers are disjoint.
            block = above
            tier_arcs = {v: (into[k][0][0], a) for k in (above, above + 1) for a, v in out[k]}
        arcs = tier_arcs.get(obj)
        if arcs is None:
            key = (new_network.buyers[(u - 1) // width], new_network.objects[obj - first])
            dropped[key] = dropped.get(key, 0) + carried
            continue
        for a in (*arcs, sink_arc[obj]):
            flows[a] += carried
        value += carried
    return FlowUpdateResult(IntegralFlow(flows, value), dropped)


def tier_flows(network: FlowNetwork, flow: IntegralFlow) -> list[tuple[str, str, int]]:
    """(buyer, object, amount) for every tier arc that carries flow, in
    canonical buyer, then object order."""
    width, first, sink = network.width, network.first_object, network.sink
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
    labels, first, sink = network.labels, network.first_object, network.sink

    def line(u: int, v: int) -> str:
        cap, amount = present.get((u, v), (0, 0))
        return f"{labels[u]} -> {labels[v]} [{cap}, {amount}]"

    lines = [line(0, k) for k in range(1, first)]
    # Without its source arc, each buyer's block lists its tier arcs tier
    # by tier, in object order.
    lines.extend(line(u, v) for u, v, _ in network.arcs if u != 0 and v != sink)
    lines.extend(line(k, sink) for k in range(first, sink))
    return "\n".join(lines) + "\n"
