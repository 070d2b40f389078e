"""Auxiliary flow networks, an exact integral max-flow solver, left-most
min cuts, and the flow update that carries a max flow across a raise.

The networks are layered: source, one node per buyer payoff tier, one node
per object, sink.  A network's ``width`` is its number of tier nodes per
buyer.  The demand network has width 2, the above-margin and at-margin
tiers, and reads only those two tiers of each report and their demands.
The allocation network has width 3: it adds the zero-payoff tier,
which lets zero-payoff items be assigned.  It balances its own market, so
it holds a zero-value dummy where supply and demand differ.

``FlowNetwork`` alone numbers the nodes and the arcs.  The source is 0,
the tier nodes follow buyer by buyer in tier order, then the objects in
canonical order, and the sink comes last.  Every arc that could exist has
its slot, fixed by the numbering as the nodes are: with ``n`` buyers,
width ``w`` and ``m`` objects, buyer k's tier-t source arc takes slot
``(k * w + t) * (m + 1)``, that tier's arc to the x-th object the slot
after it plus x, and object x's arc into the sink slot ``end + x``, where
``end = n * w * (m + 1)`` closes the buyers' blocks.  So the slots run in
one block per buyer, each tier's source arc followed by that tier's arcs
to objects in object order, and the sink arcs close them.
The slot layout is the network: a capacity per slot, 0 for an absent
arc, and one ``out`` list per tier node of its present arcs to objects,
as (slot, object node) pairs in slot order.  Source arcs are read by
stride, and sink arcs at ``end + x``.  A flow is a list of amounts by
slot.  A buyer's arcs depend only on its report and the numbering, so one
loop lays them, whatever the network starts from: a fresh network starts
from zero capacities with its sink slots set and lays every buyer, and a
climb's network copies the capacities and the ``out`` lists of the
network before and lays again only the buyers whose reports the walk
recomputed, sharing every other ``out`` list; no list of a built network
changes.  Capacities are integers, and the solver (shortest augmenting
paths, Edmonds-Karp) scans each node's residual arcs in slot order, so the
integral flow it returns is a deterministic function of the network.  It
returns that flow with the residual search that found no more augmenting
path, and the left-most min cut is read off that search rather than a
second one.  ``flow_update`` reroutes a flow's units by slot.  The climb
calls neither it, nor ``check_feasible``, nor ``max_flow`` with a start
flow: they stay as the reference that checks the paper's flow-update
claim and the direct-path seed.  Node labels appear only at the edges:
the network dump, the infeasible-flow messages and a cut's labels.  All
come from one label table per node numbering, built once per (buyers,
objects, width) and shared by every network of a climb, which also holds
the node ids sorted by label, so a cut filters that order instead of
sorting, and each slot's tail and head.  The tier flows an allocation is
read from name buyers and objects by id.  Every failure of this layer, a
bug in its caller, raises :class:`FlowError`.

``build_allocation_network`` takes the tier reports at its prices, as the
climb leaves them, and ``tiers.balanced_reports`` fills in their zero
tiers, so no tier report runs on the balanced market.

The residual search needs no list of incoming arcs.  A residual arc runs
forward along an arc with room or backward along an arc with flow.  The
source is reached first, so a tier node's one incoming arc, its source
arc, never adds a node.  An object's one outgoing arc goes to the sink,
and an augmenting search stops as soon as it reaches an object whose sink
arc has residual capacity, and takes that arc; so every object it pops
has a full sink arc.  What is left to scan is the source arcs, each tier
node's ``out`` list, and each object's backward arcs: the tier arcs that
carry flow into it, in slot order.  ``max_flow`` keeps those per-object
lists with its flow, laid by the direct pass and updated by each
augmentation; only a flow from elsewhere, a start flow or a hand-built
flow handed to ``leftmost_min_cut``, has them found by a scan.  Stopping
at the first such object finds the path a search run until the sink is
reached would: only objects have an arc into the sink, one each, and
nothing leaves the sink, so it reaches the sink from the first object it
pops with a residual sink arc.  An object is reached only forward, since
its one outgoing arc goes to the sink.  A breadth-first search pops nodes
in the order it reaches them, so that object is the first one reached
with a residual sink arc, and every node reached before it, with its
predecessor, is the same in both searches.  So every augmenting path, and
with it every flow, cut and allocation, is the same.

``max_flow`` starts from ``direct_flow``, one greedy pass along the direct
source -> tier -> object -> sink paths, unless it is given a start flow.
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

from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
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
) -> tuple[
    tuple[str, ...],
    tuple[int, ...],
    dict[str, int],
    dict[str, int],
    tuple[int, ...],
    tuple[int, ...],
]:
    """The node labels by node id, the node ids in label order, each
    object's and each buyer's index by id, and each arc slot's tail and
    head node.  The dicts are shared and must not be changed."""
    labels = ("s", *(j + "'" * t for j in buyers for t in range(1, width + 1)), *objects, "t")
    first = 1 + len(buyers) * width
    sink = first + len(objects)
    tails: list[int] = []
    heads: list[int] = []
    for node in range(1, first):
        tails += [0, *[node] * len(objects)]
        heads += [node, *range(first, sink)]
    tails += range(first, sink)
    heads += [sink] * len(objects)
    return (
        labels,
        tuple(sorted(range(len(labels)), key=labels.__getitem__)),
        {i: x for x, i in enumerate(objects)},
        {j: k for k, j in enumerate(buyers)},
        tuple(tails),
        tuple(heads),
    )


def _tiers(
    report: TierReport, width: int, top: int
) -> tuple[tuple[tuple[str, ...], int, int], ...]:
    """The arc rule for one buyer: (objects, demand, bound) for each of its
    ``width`` tier nodes, in tier order.  The tier node's source arc
    carries the demand, and its arc to an object the object's supply, at
    most ``bound``: the demand in the at-margin tier, and ``top``, the
    largest supply, in the others."""
    tiers = (
        (report.above, report.demand_above, top),
        (report.at_margin, report.demand_at_margin, report.demand_at_margin),
        (report.zero, report.demand_zero, top),
    )
    return tiers[:width]


class FlowNetwork:
    """The layered s-t network at ``prices`` with ``width`` tier nodes per
    buyer (2 or 3), from one tier report per buyer.

    Source arcs carry the tier demands, tier arcs the supply the tier sees
    (capped by the tier demand for the at-margin tier), by the rule in
    ``_tiers``, and every object forwards its supply to the sink.  A tier
    without demand gets no arcs, and a report's tiers name only objects in
    supply, so an object lacks an arc only when it has no supply: its sink
    arc.  ``cap`` holds the capacity of every arc slot (see the module
    docstring), 0 for an absent arc, and ``tails`` and ``heads`` its end
    nodes; tier node u's source arc is slot ``(u - 1) * (m + 1)`` and
    object x's sink arc slot ``end + x``.  ``out`` holds, for each tier
    node u, its present arcs to objects as (slot, object node) pairs in
    slot order, which is object order: the solver's path order depends on
    it.  ``out[0]`` is empty: the source's arcs are read by stride.  No
    other node needs a list: the residual search never takes a tier node's
    one incoming arc, its source arc, since the source is reached first,
    nor an object's one outgoing arc, its sink arc, which is full on every
    object it pops; an object's backward arcs come from the flow (see the
    module docstring).  ``arcs``, built on first read, lists the present
    arcs as (tail, head, capacity) triples of node ids, in slot order.
    Every tier node has its id, so the numbering depends only on the
    buyers, the width and the objects, and so do ``labels``, each node's
    label by node id, ``label_order``, the node ids sorted by label, and
    the slots' ends: one shared table.  No network changes a list after it
    is built, so networks share them.

    One loop lays a buyer's arcs: it clears the capacities of the arcs in
    the buyer's ``out`` lists, sets its source arcs and lays new tier
    arcs and ``out`` lists.  A fresh network starts from zero capacities
    with its sink slots set, and empty lists, and lays every buyer.
    ``base``, a network with the same width, buyers and objects (else
    :class:`FlowError`), lends its layout instead: ``cap`` is one copy of
    the base's, ``out`` shares the base's lists, and only the buyers in
    ``due``, whose reports are read from ``reports``, are laid again.
    ``cap_s`` is the base's, less the due buyers' source capacities there,
    plus theirs here.  The caller promises that ``base`` was built on the
    same supplies, and that a buyer not in ``due`` has the report, in the
    tiers this width reads, that ``base`` was built from; a ``due`` id that
    names no buyer raises :class:`FlowError`, with or without a base.  The
    network keeps no reference to ``base`` and never changes it.
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
        self.width = width
        self.buyers = buyers = instance.buyers
        self.objects = objects = instance.objects
        self.prices = prices
        self.first_object = first = 1 + len(buyers) * width
        self.sink = first + len(objects)
        self.labels, self.label_order, index, rank, self.tails, self.heads = _label_table(
            buyers, objects, width
        )
        supply = instance.supply_row
        row = len(objects) + 1
        self.end = (first - 1) * row
        top = max(supply, default=0)
        try:
            laid = sorted({rank[j] for j in due})
        except KeyError as missing:
            message = f"due buyer {missing.args[0]!r} is not a buyer of this network"
            raise FlowError(message) from None
        if base is None:
            self.cap = cap = [0] * self.end
            cap += supply
            self.out = out = [[]] * first
            cap_s = 0
            laid = range(len(buyers))
        else:
            if (base.width, base.buyers, base.objects) != (width, buyers, objects):
                raise FlowError("the base network does not share this network's nodes")
            self.cap = cap = base.cap[:]
            self.out = out = base.out[:]
            cap_s = base.cap_s
        for k in laid:
            node = k * width
            for tier_objects, demand, bound in _tiers(reports[buyers[k]], width, top):
                node += 1
                src = (node - 1) * row
                for a, _ in out[node]:
                    cap[a] = 0
                cap_s += demand - cap[src]
                cap[src] = demand
                arcs = []
                if demand > 0:
                    for i in tier_objects:
                        x = index[i]
                        c = supply[x]
                        cap[src + 1 + x] = c if c < bound else bound
                        arcs.append((src + 1 + x, first + x))
                out[node] = arcs
        self.cap_s = cap_s

    @cached_property
    def arcs(self) -> tuple[tuple[int, int, int], ...]:
        """The present arcs as (tail, head, capacity), in slot order, built
        on first read: the solver reads the slot lists."""
        tails, heads = self.tails, self.heads
        return tuple((tails[a], heads[a], c) for a, c in enumerate(self.cap) if c)


@dataclass(frozen=True)
class IntegralFlow:
    """An integral flow: the amount on each arc, by arc slot of the network
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
    """The flow carried to the new network plus the units that were dropped
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
    as ``due``, and ``FlowNetwork`` shares every other buyer's arcs with
    ``base``."""
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
    """Raise :class:`FlowError` unless the flow has one amount per arc
    slot, obeys capacities and conservation, and its value matches.  It
    walks the slots, so an absent arc, whose capacity is 0, that carries
    flow fails the capacity test."""
    flows = flow.flows
    if len(flows) != len(network.cap):
        raise FlowError(
            f"flow has {len(flows)} amounts for a network of {len(network.cap)} arc slots"
        )
    cap, labels, tails, heads = network.cap, network.labels, network.tails, network.heads
    balance = [0] * (network.sink + 1)
    for a, amount in enumerate(flows):
        if amount == 0:
            continue
        if amount < 0 or amount > cap[a]:
            raise FlowError(
                f"flow {amount} outside [0, {cap[a]}] on {labels[tails[a]]} -> {labels[heads[a]]}"
            )
        balance[tails[a]] -= amount
        balance[heads[a]] += amount
    for k in range(1, network.sink):
        if balance[k] != 0:
            raise FlowError(f"conservation violated at {labels[k]}")
    if flow.value != -balance[0]:
        raise FlowError(f"declared value {flow.value} != source outflow {-balance[0]}")


def _carrying(network: FlowNetwork, flows: list[int]) -> list[list[int]]:
    """Per object index, the tier nodes whose arc into the object carries
    flow, in node order, which is slot order: the object's backward arcs
    in the residual graph.  ``max_flow`` keeps these lists as it augments;
    this scan is for a flow from elsewhere."""
    first = network.first_object
    carrying: list[list[int]] = [[] for _ in network.objects]
    for u, arcs in enumerate(network.out[1:], 1):
        for a, v in arcs:
            if flows[a] > 0:
                carrying[v - first].append(u)
    return carrying


def _residual_search(
    network: FlowNetwork, flows: list[int], carrying: list[list[int]]
) -> list[int | None]:
    """Breadth-first search of the residual graph from the source, until
    it reaches an object with a residual arc into the sink, and the sink
    over that arc, or nothing more.  ``carrying`` holds each object's
    backward arcs, as ``_carrying`` lists them.

    Returns, per node id, the slot of the arc the node was reached by
    (``~a`` when arc ``a`` was crossed backwards) or ``None`` if it was not
    reached.
    """
    cap, out, end, sink = network.cap, network.out, network.end, network.sink
    first, row = network.first_object, len(network.objects) + 1
    shift = end - first  # an object node's sink arc slot, less the node id
    pred: list[int | None] = [None] * (sink + 1)
    pred[0] = 0  # marks the source reached; no path is traced past it
    queue = deque()
    for u, a in enumerate(range(0, end, row), 1):
        if flows[a] < cap[a]:
            pred[u] = a
            queue.append(u)
    while queue:
        u = queue.popleft()
        if u < first:
            for a, v in out[u]:
                if pred[v] is None and flows[a] < cap[a]:
                    pred[v] = a
                    t = v + shift
                    if flows[t] < cap[t]:
                        pred[sink] = t
                        return pred
                    queue.append(v)
        else:
            back = u - first + 1 - row  # tier node v's arc into u is slot v * row + back
            for v in carrying[u - first]:
                if pred[v] is None:
                    pred[v] = ~(v * row + back)
                    queue.append(v)
    return pred


def _direct_paths(network: FlowNetwork) -> tuple[list[int], int, list[list[int]]]:
    """``direct_flow``'s amounts and value, and per object the tier nodes
    whose arc into it carries that flow, as ``_carrying`` lists them, laid
    as the pass goes."""
    cap, out, end, first = network.cap, network.out, network.end, network.first_object
    row = len(network.objects) + 1
    shift = end - first
    flows = [0] * len(cap)
    carrying: list[list[int]] = [[] for _ in network.objects]
    value = 0
    for tier, src in enumerate(range(0, end, row), 1):
        demand = cap[src]
        if demand == 0:
            continue
        left = demand
        for a, obj in out[tier]:
            t = obj + shift
            amount = cap[t] - flows[t]
            if amount > left:
                amount = left
            if amount > cap[a]:
                amount = cap[a]
            if amount > 0:
                flows[a] = amount
                flows[t] += amount
                carrying[obj - first].append(tier)
                left -= amount
                if left == 0:
                    break
        flows[src] = demand - left
        value += demand - left
    return flows, value, carrying


def direct_flow(network: FlowNetwork) -> IntegralFlow:
    """A feasible flow along the direct source -> tier -> object -> sink
    paths, in one greedy pass.

    The source arcs are taken in arc order, and each tier node pushes its
    demand along its tier arcs in object order, each up to what is left of
    the object's sink arc.  No unit is rerouted, so the flow need not be
    maximum; ``max_flow`` starts from it and augments it.
    """
    flows, value, _ = _direct_paths(network)
    return IntegralFlow(flows, value)


def max_flow(network: FlowNetwork, warm_start: IntegralFlow | None = None) -> IntegralFlow:
    """Integral maximum flow via shortest augmenting paths.

    ``warm_start`` seeds the computation with an existing feasible flow;
    it is validated and raises :class:`FlowError` if it does not fit this
    network, and it is copied, so the caller's flow is left as it was.
    The climb never passes one; tests do, to augment a flow carried by
    ``flow_update`` or the zero flow.  Without one the computation starts
    from ``direct_flow``, feasible by construction, and returns the flow it
    would reach from zero (see the module docstring).  Each object's
    backward arcs are kept with the flow: an augmentation adds a tier arc
    that starts to carry flow, in slot order, and takes out one that stops.
    """
    cap, sink, tails, heads = network.cap, network.sink, network.tails, network.heads
    first = network.first_object
    if warm_start is None:
        flows, value, carrying = _direct_paths(network)
    else:
        check_feasible(network, warm_start)
        flows, value = list(warm_start.flows), warm_start.value
        carrying = _carrying(network, flows)
    while True:
        pred = _residual_search(network, flows, carrying)
        if pred[sink] is None:
            return IntegralFlow(flows, value, pred)
        path = []
        v = sink
        while v != 0:
            a = pred[v]
            path.append(a)
            v = tails[a] if a >= 0 else heads[~a]
        bottleneck = min(cap[a] - flows[a] if a >= 0 else flows[~a] for a in path)
        # Traced back from the sink, the path holds the sink arc first and
        # the source arc last; between them it crosses tier arcs, forward
        # and backward, and only those change the backward-arc lists.
        flows[path[0]] += bottleneck
        flows[path[-1]] += bottleneck
        for a in path[1:-1]:
            if a >= 0:
                if flows[a] == 0:
                    insort(carrying[heads[a] - first], tails[a])
                flows[a] += bottleneck
            else:
                a = ~a
                flows[a] -= bottleneck
                if flows[a] == 0:
                    carrying[heads[a] - first].remove(tails[a])
        value += bottleneck


def leftmost_min_cut(network: FlowNetwork, flow: IntegralFlow) -> CutResult:
    """The inclusion-wise minimal min cut: all nodes the source reaches in
    the residual graph of a maximum flow.

    A flow from ``max_flow`` on ``network`` carries the search that ended
    it, which found no augmenting path and so reached exactly these nodes;
    the cut reads that search.  Any other flow, such as a hand-built one or
    one from ``flow_update``, is searched here.
    """
    pred = flow.search
    if pred is None:
        pred = _residual_search(network, flow.flows, _carrying(network, flow.flows))
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
    if the object left both tiers; a dropped unit leaves its object's sink
    arc too.  The two networks share their arc slots, so a unit's new tier
    arc is the slot of that tier and object, if it is present there.  The
    result is feasible in the new network whenever the raise happened on
    the left-most min cut's objects, and the source capacity it leaves
    unmet is at most what the old flow left unmet: the paper's flow-update
    claim.  ``check_feasible``, or ``max_flow`` started from it, checks it,
    and a :class:`FlowError` there signals a bug.  The climb does not call
    it: a max flow has the same value and left-most cut whatever flow it
    starts from, and a fresh one was measured faster.
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

    width, first = new_network.width, new_network.first_object
    row = len(new_network.objects) + 1
    cap = new_network.cap
    flows = list(old_flow.flows)
    value = old_flow.value
    # Take every unit off its tier node, as (above-margin tier node, object
    # index, amount), before any is laid again.
    moved = []
    for u, arcs in enumerate(old_network.out[1:], 1):
        src = (u - 1) * row
        for a, v in arcs:
            amount = flows[a]
            if amount:
                flows[a] = 0
                flows[src] -= amount
                moved.append((u - (u - 1) % width, v - first, amount))
    dropped: dict[tuple[str, str], int] = {}
    for above, x, amount in moved:
        src = (above - 1) * row
        for s in (src, src + row):
            if cap[s + 1 + x]:
                flows[s] += amount
                flows[s + 1 + x] += amount
                break
        else:
            key = (new_network.buyers[(above - 1) // width], new_network.objects[x])
            dropped[key] = dropped.get(key, 0) + amount
            flows[new_network.end + x] -= amount
            value -= amount
    return FlowUpdateResult(IntegralFlow(flows, value), dropped)


def tier_flows(network: FlowNetwork, flow: IntegralFlow) -> list[tuple[str, str, int]]:
    """(buyer, object, amount) for every tier arc that carries flow, in
    canonical buyer, then object order."""
    width, first, out, flows = network.width, network.first_object, network.out, flow.flows
    carried = sorted(
        ((u - 1) // width, v, flows[a])
        for u in range(1, first)
        for a, v in out[u]
        if flows[a] > 0
    )
    return [(network.buyers[b], network.objects[v - first], amount) for b, v, amount in carried]


def dump_network(network: FlowNetwork, flow: IntegralFlow | None = None) -> str:
    """Render the network one arc per line as ``from -> to [cap, flow]``.

    Source arcs and object-to-sink arcs are rendered even at capacity 0
    (the tier and object nodes always exist); tier-to-object arcs appear
    only when present.  The order is canonical, so output is byte-stable.
    """
    cap, labels, tails, heads = network.cap, network.labels, network.tails, network.heads
    amounts = flow.flows if flow is not None else [0] * len(cap)
    end = network.end

    def line(a: int) -> str:
        return f"{labels[tails[a]]} -> {labels[heads[a]]} [{cap[a]}, {amounts[a]}]"

    lines = [line(a) for a in range(0, end, len(network.objects) + 1)]
    # Without its source arc, each buyer's block lists its tier arcs tier
    # by tier, in object order.
    lines.extend(line(a) for arcs in network.out for a, _ in arcs)
    lines.extend(line(a) for a in range(end, len(cap)))
    return "\n".join(lines) + "\n"
