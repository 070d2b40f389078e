"""The tier oracle: greedy bundle construction and payoff-tier reports.

For a buyer at given prices, the objects in supply split into three tiers
relative to the marginal payoff, the payoff of the last object in supply
that the greedy bundle construction takes from: objects strictly above the
margin, exactly at it, and with payoff exactly zero.  No bundle holds an
object without supply, so it is in no tier.  A report, a bundle or a
utility reads the buyer's value row and the supply row, both kept by
``Instance`` in canonical object order, and subtracts the price row from
the value row to get one payoff list.  ``tier_reports`` reports a batch
of buyers at one price vector: it builds the price row once, and runs on
each buyer's payoffs the greedy of the bundle construction as far as the
margin.  ``tier_report`` is its one-buyer view.  ``next_breakpoint``
reads the value row and the prices.  It tells the auction how far a raise
can go before the part of a report that the demand network reads changes;
everything here is a pure function of the instance and the prices.

``balanced_reports`` gives the reports of the market that
``balance_instance`` balances without a tier report on it.  From reports
whose above-margin and at-margin tiers are current, it recomputes only
the zero tier from the rows: the objects in supply with payoff exactly 0,
in canonical order, then the dummy object if balancing adds one, with
demand ``min(zero supply, d - d_above - d_margin)``.  The dummy object is
worth 0 to everyone and priced 0, and the greedy stops at payoff 0, so it
sits in every zero tier and moves no margin.  A buyer with demand 0 keeps
the all-empty report, and a dummy buyer, who values everything at 0,
reports only a zero tier: the supplied objects priced 0.
"""

from __future__ import annotations

from operator import sub
from typing import Collection, Iterable, Mapping, NamedTuple

from .model import DUMMY_BUYER, DUMMY_OBJECT, Instance, PriceVector


class TierReport(NamedTuple):
    """A buyer's demand, split by payoff tier.

    ``above`` holds the objects in supply with payoff strictly above the
    margin (the payoff of the last object the greedy bundle construction
    takes from), ``at_margin`` those exactly at it, and ``zero`` those with
    payoff exactly 0.  The three demand figures are the amounts the buyer
    wants from each tier.
    """

    above: tuple[str, ...]
    at_margin: tuple[str, ...]
    zero: tuple[str, ...]
    demand_above: int
    demand_at_margin: int
    demand_zero: int


_EMPTY = TierReport((), (), (), 0, 0, 0)


def _payoffs(instance: Instance, buyer: str, prices: PriceVector) -> list[int]:
    """The buyer's payoff for each object, in canonical object order."""
    price = prices.prices
    return [v - price[i] for i, v in zip(instance.objects, instance.value_rows[buyer])]


def _greedy(
    instance: Instance, buyer: str, payoffs: list[int]
) -> tuple[list[tuple[int, int]], int | None]:
    """The greedy of :func:`preferred_bundle` on a payoff list: the
    (object index, units taken) visits and the last index visited."""
    residual = instance.demands[buyer]
    supplies = instance.supply_row
    visits: list[tuple[int, int]] = []
    last: int | None = None
    # A reversed sort is still stable, so ties keep canonical order.
    for k in sorted(range(len(payoffs)), key=payoffs.__getitem__, reverse=True):
        if residual <= 0 or payoffs[k] <= 0:
            break
        take = min(supplies[k], residual)
        if take:  # an object without supply is skipped
            visits.append((k, take))
            residual -= take
            last = k
    return visits, last


def preferred_bundle(
    instance: Instance, buyer: str, prices: PriceVector
) -> tuple[dict[str, int], str | None]:
    """Construct a minimal preferred bundle greedily.

    The objects in supply are visited in order of non-increasing payoff
    (canonical order on ties); each visit takes ``min(supply, residual
    demand)`` units while the residual demand and the payoff stay positive.
    Returns the bundle (object to positive units) and the last object
    visited, or ``None`` if no object in supply has positive payoff or the
    demand is 0.
    """
    visits, last = _greedy(instance, buyer, _payoffs(instance, buyer, prices))
    objects = instance.objects
    bundle = {objects[k]: take for k, take in visits}
    return bundle, None if last is None else objects[last]


def tier_reports(
    instance: Instance, buyers: Iterable[str], prices: PriceVector
) -> dict[str, TierReport]:
    """Report each buyer's payoff tiers and tier demands at these prices.

    Buyers with zero demand report empty tiers.  The zero-payoff tier is
    reported even when the demand is already met, so its demand figure may
    be 0.  Every tier names only objects in supply.  The margin is found
    by the greedy of :func:`preferred_bundle`, run until it stops.
    """
    objects, supplies, rows = instance.objects, instance.supply_row, instance.value_rows
    price = prices.prices
    price_row = [price[i] for i in objects]
    order = range(len(objects))
    reports: dict[str, TierReport] = {}
    for j in buyers:
        demand = instance.demands[j]
        if demand == 0:
            reports[j] = _EMPTY
            continue
        payoffs = list(map(sub, rows[j], price_row))
        # The greedy stops at payoff 0, so a margin is positive.  Without
        # one no object in supply has a positive payoff, and a margin of 1
        # leaves the first two tiers empty.
        residual, margin = demand, 1
        # A reversed sort is still stable, so ties keep canonical order.
        for k in sorted(order, key=payoffs.__getitem__, reverse=True):
            g = payoffs[k]
            if residual <= 0 or g <= 0:
                break
            if supplies[k]:  # an object without supply is skipped
                margin = g
                residual -= supplies[k]
        above: list[str] = []
        at_margin: list[str] = []
        zero: list[str] = []
        d_above = margin_supply = zero_supply = 0
        for i, g, b in zip(objects, payoffs, supplies):
            if not b:
                continue
            if g > margin:
                above.append(i)
                d_above += b
            elif g == margin:
                at_margin.append(i)
                margin_supply += b
            elif g == 0:
                zero.append(i)
                zero_supply += b
        d_margin = min(margin_supply, demand - d_above)
        d_zero = min(zero_supply, demand - d_above - d_margin)
        reports[j] = TierReport(
            tuple(above), tuple(at_margin), tuple(zero), d_above, d_margin, d_zero
        )
    return reports


def tier_report(instance: Instance, buyer: str, prices: PriceVector) -> TierReport:
    """The buyer's tier report at these prices: :func:`tier_reports` for
    one buyer."""
    return tier_reports(instance, (buyer,), prices)[buyer]


def balanced_reports(
    instance: Instance, prices: PriceVector, reports: Mapping[str, TierReport]
) -> dict[str, TierReport]:
    """The tier reports of ``balance_instance(instance)`` at ``prices``,
    from ``reports``, which must be current at ``prices`` in their
    above-margin and at-margin tiers and their demands.  Only the zero
    tiers are recomputed, from the rows (see the module docstring)."""
    gap = instance.total_demand - instance.total_supply
    dummy, dummy_supply = ((DUMMY_OBJECT,), gap) if gap > 0 else ((), 0)
    objects, supplies = instance.objects, instance.supply_row
    row = [prices.prices[i] for i in objects]
    balanced: dict[str, TierReport] = {}
    for j, values in instance.value_rows.items():
        r = reports[j]
        demand = instance.demands[j]
        if demand == 0:
            balanced[j] = r
            continue
        zero: list[str] = []
        zero_supply = dummy_supply
        for i, v, p, b in zip(objects, values, row, supplies):
            if b and v == p:
                zero.append(i)
                zero_supply += b
        d_zero = min(zero_supply, demand - r.demand_above - r.demand_at_margin)
        balanced[j] = TierReport(
            r.above, r.at_margin, (*zero, *dummy), r.demand_above, r.demand_at_margin, d_zero
        )
    if gap < 0:
        free = [(i, b) for i, p, b in zip(objects, row, supplies) if b and p == 0]
        supply = sum(b for _, b in free)
        balanced[DUMMY_BUYER] = TierReport(
            (), (), tuple(i for i, _ in free), 0, 0, min(supply, -gap)
        )
    return balanced


def next_breakpoint(
    instance: Instance,
    buyer: str,
    prices: PriceVector,
    raised: Collection[str],
    report: TierReport,
) -> int | None:
    """Smallest positive raise of ``raised`` at which the part of the
    buyer's tier report that the demand network reads changes.

    ``report`` is the buyer's report at ``prices``.  The network reads
    ``above``, ``at_margin`` and their demands, and these stay fixed as
    long as the margin keeps its place among the payoffs:

    - if the margin's objects are not raised, the margin stays put until a
      raised object above it comes down to it;
    - if they are raised, the margin falls with them until it reaches 0 or
      the highest payoff in ``[0, margin)`` of an unraised object in supply;
    - if the margin holds both kinds, they part at the next raise.

    One of those fields differs at the returned raise, and with it an arc
    of the demand network.  ``None`` means that they never change again,
    as when nothing in supply has positive payoff.  ``raised`` is read
    only through objects in supply with payoff at least 0: the
    above-margin and at-margin ones, and the unraised ones with payoff in
    ``[0, margin)``.  So moving other objects into or out of ``raised``
    leaves the answer as it was.
    """
    if not report.at_margin:
        return None
    falls = [i in raised for i in report.at_margin]
    if any(falls) != all(falls):
        return 1
    objects, price = instance.objects, prices.prices
    values = instance.value_rows[buyer]
    first = report.at_margin[0]
    top = values[objects.index(first)] - price[first]
    if falls[0]:
        fixed = 0  # the highest unraised payoff in [0, top) of an object in supply
        for i, v, b in zip(objects, values, instance.supply_row):
            if b and i not in raised:
                g = v - price[i]
                if fixed < g < top:
                    fixed = g
        return top - fixed
    return min((values[objects.index(i)] - price[i] - top for i in report.above if i in raised), default=None)


def indirect_utility(instance: Instance, buyer: str, prices: PriceVector) -> int:
    """Maximum payoff the buyer can obtain at these prices.

    Equals the payoff of the greedy preferred bundle, which maximizes
    the buyer's payoff over all feasible bundles.
    """
    payoffs = _payoffs(instance, buyer, prices)
    visits, _ = _greedy(instance, buyer, payoffs)
    return sum(payoffs[k] * take for k, take in visits)
