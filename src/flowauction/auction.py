"""The ascending auction and allocation extraction.

``price_raising`` runs the ascending auction: while the demand network does
not admit a saturating flow, raise prices on the objects of the left-most
min cut.  The final prices are the component-wise minimum competitive
prices.  ``allocate`` then reads a stable, market-clearing assignment off a
max flow in the allocation network, which balances the market with a
zero-value dummy.  ``solve`` hands it the climb's final tier reports,
which the trace carries (``AuctionTrace.reports``): they are current in
the tiers the demand network reads, and the allocation network recomputes
only their zero tiers, so the allocation asks the tier oracle nothing.

The demand network depends on the prices only through the above-margin and
at-margin tiers of the buyers' reports, which name only objects in supply,
and each change to them moves an arc.  So every mode and start raises the
cut's objects in one jump to the first network breakpoint
(``tiers.next_breakpoint``: a raise where some buyer's tiers change), where
the network changes (``_step_length``), and recomputes only the reports of
the buyers whose breakpoint that is, in one pass of the tier oracle
(``tiers.tier_reports``); its oracle and flow work do not grow with the
valuations.  The other buyers keep their breakpoints, carried as levels of
the climb's total raise, so a walk finds its step with one ``min`` and
asks only the buyers that the walk before recomputed.  A new cut asks
again only the buyers for whom an object that entered or left the cut is
in supply and has payoff at least 0: ``next_breakpoint`` reads the raised
set through no other object.  That saves breakpoint questions, not tier
reports: ``oracle_calls`` is the same as if every buyer were asked on
every walk.  Every possible arc has a slot fixed by its buyer, tier and
object, so the walk's network copies the capacities of the network before
in one slice, shares its arc lists wherever the recomputed buyers' arcs do
not reach, and lays only those buyers' arcs.  A warm start carries the
flow over to the changed network, a cold start computes a fresh max flow
there, which ``max_flow`` starts from the network's direct paths; either
way the cut is read off the search that ended the max flow.  The trace
keeps one record per walk, and the mode decides only how it is read
(``AuctionTrace``): one record per unit raise, or one per run of raises on
the same object set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import flow as flownet
from .model import Allocation, AuctionTrace, Instance, IterationRecord, PriceVector
from .tiers import TierReport, next_breakpoint, tier_reports

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
    competitive price is 0 whatever the start prices say.  No network reads
    that price, and the auction never raises it, so zeroing it only makes
    the answer the minimum.  So a previous equilibrium stays a sound start
    after a supply cut to zero.
    """
    checked = PriceVector.for_instance(instance, start.prices if start is not None else {})
    return PriceVector({i: p if instance.supplies[i] else 0 for i, p in checked.prices.items()})


def _step_length(
    instance: Instance,
    network: flownet.FlowNetwork,
    reports: dict[str, TierReport],
    raised: frozenset[str],
    levels: dict[str, int | None],
    climbed: int,
) -> tuple[int, int, flownet.FlowNetwork]:
    """Smallest raise of ``raised`` at which the demand network's arcs change.

    ``network`` is the demand network at the current prices, ``climbed``
    above the climb's first prices in total, and ``reports`` holds every
    buyer's tier report there.  The raise is the smallest of the buyers'
    network breakpoints.  Every smaller raise builds the same network, with
    the same left-most cut, so the auction may jump by this step in one go;
    at it, each buyer whose breakpoint it is changes its above-margin or
    at-margin tier, and so an arc.  Only those buyers recompute their
    report, in one ``tier_reports`` pass, in place in ``reports``.  So at
    the returned prices the tiers the network reads are current, while a
    zero tier and its demand may be out of date.  The network at the
    returned prices is built on ``network``: the buyers that were not due
    keep their reports, so it shares their arcs, and it lays only the due
    buyers' (see ``flow.FlowNetwork``).

    ``levels`` holds the breakpoints carried over from earlier walks, each
    as a level of the total raise: ``climbed`` plus the breakpoint, or
    ``None`` for a buyer whose tiers never change again.  Only a buyer
    without a level is asked, and the step is the lowest level less
    ``climbed``.  On return the due buyers have left ``levels``, and every
    other buyer keeps its level, which is exactly what ``next_breakpoint``
    would say at the returned prices on the same cut: such a buyer keeps
    its report, and either its margin falls by ``step`` with no unraised
    payoff in the gap it crossed, or its margin stays and every raised
    payoff above it falls by ``step``.  Returns the raise, the tier-oracle
    calls made and the network at the raised prices.
    """
    prices = network.prices
    for j in instance.buyers:
        if j not in levels:
            t = next_breakpoint(instance, j, prices, raised, reports[j])
            levels[j] = None if t is None else climbed + t
    # A breakpoint is positive, so every level is, and filter drops
    # exactly the buyers without one.
    level = min(filter(None, levels.values()), default=None)
    if level is None:
        raise AuctionError("demand network did not change within the valuation bound")
    step = level - climbed
    step_prices = prices.raised(raised, step)
    due = [j for j in instance.buyers if levels[j] == level]
    for j in due:
        del levels[j]
    reports.update(tier_reports(instance, due, step_prices))
    return step, len(due), flownet.build_demand_network(
        instance, step_prices, reports, base=network, due=due
    )


def _drop_moved_levels(
    instance: Instance,
    prices: PriceVector,
    levels: dict[str, int | None],
    moved: frozenset[str],
) -> None:
    """Drop from ``levels`` the buyers for whom an object in ``moved``,
    the objects that entered or left the cut, has payoff at least 0 at
    ``prices``.  Such an object is in supply, since an object without
    supply has no arc and never joins a cut, and ``next_breakpoint``
    reads the raised set through no other object, so every level kept is
    still current on the new cut."""
    price, rows = prices.prices, instance.value_rows
    bars = [(k, price[i]) for k, i in enumerate(instance.objects) if i in moved]
    for j in [j for j in levels if any(rows[j][k] >= p for k, p in bars)]:
        del levels[j]


def price_raising(
    instance: Instance, options: SolveOptions | None = None
) -> tuple[PriceVector, AuctionTrace]:
    """Run the ascending auction: the minimum competitive prices and the
    trace of the climb."""
    opts = options or SolveOptions()
    if opts.mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {opts.mode!r}")
    first = first_prices(instance, opts.start_prices)
    price_bound = instance.max_valuation + 1

    calls = len(instance.buyers)
    reports = tier_reports(instance, instance.buyers, first)
    network = flownet.build_demand_network(instance, first, reports)
    best = flownet.max_flow(network)
    walks: list[IterationRecord] = []
    # The breakpoints carried over between walks, as levels of ``climbed``,
    # the total raise so far, and the cut they were carried on.
    levels: dict[str, int | None] = {}
    climbed = 0
    held: frozenset[str] = frozenset()

    # Each raise lifts at least one price by at least one and prices stay
    # below the bound, so this limit is never hit unless something is wrong.
    for _ in range(len(instance.objects) * (price_bound + 1) + 1):
        if best.value == network.cap_s:
            return network.prices, AuctionTrace(tuple(walks), calls, opts.mode, reports)
        cut = flownet.leftmost_min_cut(network, best)
        raised = tuple(i for i in instance.objects if i in cut.objects)
        if not raised:
            raise AuctionError("unsaturated network with an object-free min cut")
        if cut.objects != held:
            _drop_moved_levels(instance, network.prices, levels, cut.objects ^ held)
            held = cut.objects
        step, walk_calls, next_network = _step_length(
            instance, network, reports, cut.objects, levels, climbed
        )
        climbed += step
        calls += walk_calls
        if opts.warm_start:
            update = flownet.flow_update(network, best, next_network)
            next_best = flownet.max_flow(next_network, warm_start=update.flow)
            handoff_gap = next_network.cap_s - update.flow.value
        else:
            next_best, handoff_gap = flownet.max_flow(next_network), None
        if any(next_network.prices[i] > price_bound for i in raised):
            raise AuctionError("price raised beyond the maximum valuation")
        state = (network.prices.prices, raised, cut.labels, best.value, network.cap_s)
        walks.append(IterationRecord(len(walks), *state, step, handoff_gap))
        network, best = next_network, next_best
    raise AuctionError("auction failed to terminate within the price bound")


def allocate(
    instance: Instance, prices: PriceVector, reports: Mapping[str, TierReport] | None = None
) -> Allocation:
    """Extract a stable, market-clearing allocation at the given prices.

    The allocation network, which balances the market with a zero-value
    dummy, is saturated by a max flow, and the per-buyer quantities are
    read off the tier arcs.  ``prices`` must be the minimum competitive
    prices; at those a saturating flow exists, so failing to saturate
    signals a bug and raises :class:`AuctionError`.  ``reports``, one
    tier report per buyer at ``prices`` and current in the above-margin
    and at-margin tiers, such as a climb's final ones, go to
    ``build_allocation_network``; omitted ones are computed there.
    """
    network = flownet.build_allocation_network(instance, prices, reports)
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
    allocation = allocate(instance, prices, trace.reports)
    return Equilibrium(prices, allocation, trace)

