"""The tier oracle: greedy bundle construction and payoff-tier reports.

For a buyer at given prices, the objects split into three tiers relative to
the marginal payoff (the payoff of the last object the greedy bundle
construction touches): objects strictly above the margin, objects exactly at
the margin, and objects with payoff exactly zero.  The auction queries one
report per buyer per price vector it tries, and ``next_breakpoint`` tells it
how far a raise can go before a report can change; everything here is a
pure function of the instance and the prices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .model import Instance, PriceVector


@dataclass(frozen=True)
class Bundle:
    """A single buyer's purchase; only positive quantities are stored."""

    quantities: dict[str, int]


@dataclass(frozen=True)
class TierReport:
    """A buyer's demand, split by payoff tier.

    ``above`` holds the objects with payoff strictly above the marginal
    payoff, ``at_margin`` those exactly at it, and ``zero`` those with
    payoff exactly 0.  The three demand figures are the amounts the buyer
    wants from each tier; ``last_item`` is the object the greedy bundle
    construction selected last (absent when nothing has positive payoff).
    """

    above: tuple[str, ...]
    at_margin: tuple[str, ...]
    zero: tuple[str, ...]
    demand_above: int
    demand_at_margin: int
    demand_zero: int
    last_item: str | None


def _ranked_objects(instance: Instance, buyer: str, prices: PriceVector) -> list[str]:
    # Non-increasing payoff; sort stability keeps canonical order on ties.
    return sorted(instance.objects, key=lambda i: -instance.payoff(i, buyer, prices))


def preferred_bundle(
    instance: Instance, buyer: str, prices: PriceVector
) -> tuple[Bundle, str | None]:
    """Construct a minimal preferred bundle greedily.

    Objects are visited in order of non-increasing payoff (canonical order
    on ties); each visit takes ``min(supply, residual demand)`` units while
    the residual demand and the payoff stay positive.  Returns the bundle
    and the last object visited, or ``None`` if no object has positive
    payoff or the demand is 0.
    """
    residual = instance.demands[buyer]
    quantities: dict[str, int] = {}
    last: str | None = None
    for obj in _ranked_objects(instance, buyer, prices):
        if residual <= 0 or instance.payoff(obj, buyer, prices) <= 0:
            break
        take = min(instance.supplies[obj], residual)
        if take > 0:
            quantities[obj] = take
        residual -= take
        last = obj
    return Bundle(quantities), last


def tier_report(instance: Instance, buyer: str, prices: PriceVector) -> TierReport:
    """Report the buyer's payoff tiers and tier demands at these prices.

    Buyers with zero demand report empty tiers.  The zero-payoff tier is
    reported even when the demand is already met, so its demand figure may
    be 0.
    """
    demand = instance.demands[buyer]
    if demand == 0:
        return TierReport((), (), (), 0, 0, 0, None)

    _, last = preferred_bundle(instance, buyer, prices)
    zero = tuple(i for i in instance.objects if instance.payoff(i, buyer, prices) == 0)
    if last is None:
        above: tuple[str, ...] = ()
        at_margin: tuple[str, ...] = ()
        d_above = d_margin = 0
    else:
        margin = instance.payoff(last, buyer, prices)
        above = tuple(
            i for i in instance.objects if instance.payoff(i, buyer, prices) > margin
        )
        at_margin = tuple(
            i for i in instance.objects if instance.payoff(i, buyer, prices) == margin
        )
        d_above = sum(instance.supplies[i] for i in above)
        d_margin = min(sum(instance.supplies[i] for i in at_margin), demand - d_above)
    d_zero = min(sum(instance.supplies[i] for i in zero), demand - d_above - d_margin)
    return TierReport(above, at_margin, zero, d_above, d_margin, d_zero, last)


def next_breakpoint(
    instance: Instance, buyer: str, prices: PriceVector, raised: Iterable[str], t: int
) -> int | None:
    """Smallest raise above ``t`` at which the buyer's tier report can change.

    Raising the objects in ``raised`` by ``t`` from ``prices`` changes the
    report only through the order of payoffs that are not negative: where a
    raised object's payoff reaches 0 or the payoff ``g >= 0`` of a
    non-raised object, and where it falls below it.  For a raised object
    with payoff ``pi`` at ``prices`` these are the raises ``u = pi - g``
    and ``u + 1``, with ``g = 0`` included.  The report is the same for
    every raise in ``[t, result)``; ``None`` means it never changes again.
    """
    if instance.demands[buyer] == 0:
        return None
    raised = set(raised)
    payoffs = {i: instance.payoff(i, buyer, prices) for i in instance.objects}
    levels = {0} | {g for i, g in payoffs.items() if i not in raised and g >= 0}
    points = (payoffs[i] - g + d for i in raised for g in levels for d in (0, 1))
    return min((u for u in points if u > t), default=None)


def indirect_utility(instance: Instance, buyer: str, prices: PriceVector) -> int:
    """Maximum payoff the buyer can obtain at these prices.

    Equals the payoff of the greedy preferred bundle, which maximizes
    the buyer's payoff over all feasible bundles.
    """
    bundle, _ = preferred_bundle(instance, buyer, prices)
    return sum(instance.payoff(i, buyer, prices) * q for i, q in bundle.quantities.items())
