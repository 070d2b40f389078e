"""The ascending auctions and allocation extraction.

``price_raising`` runs the ascending auction: while the demand network does
not admit a saturating flow, raise prices on the objects of the left-most
min cut, by one unit per iteration or, in adapted mode, by as many units as
the cut's object set survives.  The final prices are the component-wise
minimum competitive prices.  ``allocate`` then reads a stable,
market-clearing assignment off a max flow in the allocation network of the
balanced instance.

The demand network depends on the prices only through the above-margin
and at-margin parts of the buyers' tier reports.  So the auction raises the
cut's objects from one network breakpoint to the next
(``tiers.next_breakpoint``: a raise where some buyer's part can change)
until the network changes (``_step_length``), recomputing only the
reports of the buyers whose breakpoint it reaches; its oracle and flow work
do not grow with the valuations.  Every mode and start takes this one
advance.  A warm start carries the flow over to the changed network, a
cold start computes a fresh max flow there.  The mode decides how the
climb is recorded: unit mode writes one record per unit of the raise,
adapted mode one per run of raises on the same object set.  A unit record
is a named tuple whose prices are a fresh dict in canonical order: the
run's start prices with the raised objects lifted by the units raised so
far.  So a climb of ``v_max`` units writes ``v_max`` small records and
does no other work per unit.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import flow as flownet
from .model import (
    Allocation,
    AuctionTrace,
    Instance,
    IterationRecord,
    PriceVector,
    balance_instance,
)
from .tiers import TierReport, next_breakpoint, tier_report

MODES = ("unit", "adapted")


class AuctionError(RuntimeError):
    """Raised when a guaranteed property of the auction fails to hold."""


@dataclass(frozen=True)
class SolveOptions:
    """Solver configuration.

    ``start_prices`` must be component-wise at most the minimum competitive
    prices for the result to be meaningful; this is the caller's
    responsibility and cannot be checked up front.  The auction starts from
    ``first_prices``, which sets the one exception, an object without
    supply, to 0.
    """

    mode: str = "unit"
    warm_start: bool = True
    start_prices: PriceVector | None = None


@dataclass(frozen=True)
class Equilibrium:
    prices: PriceVector
    allocation: Allocation
    trace: AuctionTrace


def first_prices(instance: Instance, start: PriceVector | None) -> PriceVector:
    """The prices a solve starts from: ``start`` (zero prices if ``None``),
    checked against the instance, with every object without supply at 0.

    No feasible bundle holds an object without supply, so its minimum
    competitive price is 0 whatever the start prices say; the auction never
    lowers a price, so it has to start there.  So a previous equilibrium
    stays a sound start after a supply cut to zero.
    """
    checked = PriceVector.for_instance(instance, start.prices if start is not None else {})
    return PriceVector({i: p if instance.supplies[i] else 0 for i, p in checked.prices.items()})


def _network_part(report: TierReport, supplies: dict[str, int]) -> tuple:
    """The part of a tier report that the demand network reads: the two
    tier demands and the above-margin and at-margin objects in supply."""
    return (
        report.demand_above,
        report.demand_at_margin,
        tuple(i for i in report.above if supplies[i] > 0),
        tuple(i for i in report.at_margin if supplies[i] > 0),
    )


def _step_length(
    instance: Instance,
    network: flownet.FlowNetwork,
    reports: dict[str, TierReport],
    raised: frozenset[str],
) -> tuple[int, int, flownet.FlowNetwork]:
    """Smallest raise of ``raised`` at which the demand network's arcs change.

    ``network`` is the demand network at the current prices, and ``reports``
    holds every buyer's tier report there.  The raise advances from one
    network breakpoint to the next, and only the buyers whose breakpoint it
    is recompute their report, in place in ``reports``.  So at the returned
    prices the parts the network reads are current, while a zero tier and
    its demand may be out of date.  Every smaller raise builds the same
    network, with the same left-most cut, so the auction may jump by this
    step in one go; the network is rebuilt only where a recomputed report's
    network part changed.  Returns the raise, the tier-oracle calls made and
    the network at the raised prices.
    """
    prices = PriceVector(network.prices)
    breakpoints = {
        j: next_breakpoint(instance, j, prices, raised, 0, reports[j]) for j in instance.buyers
    }
    calls = 0
    while True:
        step = min((t for t in breakpoints.values() if t is not None), default=None)
        if step is None:
            raise AuctionError("demand network did not change within the valuation bound")
        step_prices = prices.raised(raised, step)
        moved = False
        for j in [j for j, t in breakpoints.items() if t == step]:
            calls += 1
            before = _network_part(reports[j], instance.supplies)
            reports[j] = tier_report(instance, j, step_prices)
            breakpoints[j] = next_breakpoint(instance, j, prices, raised, step, reports[j])
            moved = moved or _network_part(reports[j], instance.supplies) != before
        if not moved:
            continue
        step_network = flownet.build_demand_network(instance, step_prices, reports)
        if step_network.arcs != network.arcs:
            return step, calls, step_network


def price_raising(
    instance: Instance, options: SolveOptions | None = None
) -> tuple[PriceVector, AuctionTrace]:
    """Run the ascending auction and return the minimum competitive prices.

    Returns the final price vector and a trace with one record per price
    raise.
    """
    opts = options or SolveOptions()
    if opts.mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {opts.mode!r}")
    prices = first_prices(instance, opts.start_prices)
    price_bound = instance.max_valuation + 1

    calls = len(instance.buyers)
    reports = {j: tier_report(instance, j, prices) for j in instance.buyers}
    network = flownet.build_demand_network(instance, prices, reports)
    best = flownet.max_flow(network)
    records: list[IterationRecord] = []

    # Each raise lifts at least one price by at least one and prices stay
    # below the bound, so this limit is never hit unless something is wrong.
    for _ in range(len(instance.objects) * (price_bound + 1) + 1):
        if best.value == network.cap_s:
            trace = AuctionTrace(tuple(records), prices.as_dict(), calls)
            return prices, trace
        cut = flownet.leftmost_min_cut(network, best)
        cut_nodes = cut.labels
        raised = tuple(i for i in instance.objects if i in cut.objects)
        if not raised:
            raise AuctionError("unsaturated network with an object-free min cut")
        step, walk_calls, next_network = _step_length(instance, network, reports, cut.objects)
        calls += walk_calls
        if opts.warm_start:
            update = flownet.flow_update(network, best, next_network)
            next_best = flownet.max_flow(next_network, warm_start=update.flow)
            handoff_gap = next_network.cap_s - update.flow.value
        else:
            next_best, handoff_gap = flownet.max_flow(next_network), None
        next_prices = PriceVector(next_network.prices)
        if any(next_prices[i] > price_bound for i in raised):
            raise AuctionError("price raised beyond the maximum valuation")
        if opts.mode == "adapted" and records and records[-1].raised == raised:
            # The cut kept its object set across the network change, so
            # the jump goes on.
            records[-1] = records[-1]._replace(step=records[-1].step + step, handoff_gap=handoff_gap)
        else:
            # Unit mode writes a record per unit raise.  Each but the last
            # rebuilds this network and, warm, carries this flow over whole.
            # The fields go in by position: keywords cost more per record.
            runs = [1] * step if opts.mode == "unit" else [step]
            last = len(runs) - 1
            carried_gap = network.cap_s - best.value if opts.warm_start else None
            base = prices.prices
            for k, run in enumerate(runs):
                records.append(
                    IterationRecord(
                        len(records),
                        base | {i: base[i] + k for i in raised},
                        raised,
                        cut_nodes,
                        best.value,
                        network.cap_s,
                        run,
                        handoff_gap if k == last else carried_gap,
                    )
                )
        prices, network, best = next_prices, next_network, next_best
    raise AuctionError("auction failed to terminate within the price bound")


def allocate(instance: Instance, prices: PriceVector) -> Allocation:
    """Extract a stable, market-clearing allocation at the given prices.

    The instance is balanced with a zero-value dummy, the allocation
    network is saturated by a max flow, and the per-buyer quantities are
    read off the tier arcs.  ``prices`` must be the minimum competitive
    prices; at those a saturating flow exists, so failing to saturate
    signals a bug and raises :class:`AuctionError`.
    """
    balanced = balance_instance(instance)
    # A dummy object, missing from ``prices``, prices at 0.
    network = flownet.build_allocation_network(
        balanced, PriceVector.for_instance(balanced, prices.prices)
    )
    best = flownet.max_flow(network)
    if best.value != network.cap_s:
        raise AuctionError(
            "allocation flow does not saturate the source; "
            "market clearing should guarantee saturation"
        )
    # What the dummy buyer receives or the dummy object supplies is left out.
    quantities: dict[tuple[str, str], int] = {}
    for j, i, amount in flownet.tier_flows(network, best):
        if j in instance.demands and i in instance.supplies:
            quantities[(i, j)] = amount
    return Allocation(quantities)


def solve(instance: Instance, options: SolveOptions | None = None) -> Equilibrium:
    """Minimum competitive prices plus a supporting stable allocation."""
    prices, trace = price_raising(instance, options)
    allocation = allocate(instance, prices)
    return Equilibrium(prices, allocation, trace)


def trace_records(trace: AuctionTrace) -> list[dict]:
    """Iteration records in the documented JSON layout."""
    return [
        {
            "iter": record.index,
            "prices": record.prices,
            "raised_set": list(record.raised),
            "cut_nodes": list(record.cut_nodes),
            "alpha": record.step,
            "flow_value": record.flow_value,
            "cap_s": record.cap_s,
            "handoff_gap": record.handoff_gap,
        }
        for record in trace.iterations
    ]
