"""Independent oracles and checkers for every claim the solver relies on.

Competitiveness is decided by exhaustive bundle enumeration, by the
Hall-style counting condition or by the flow criterion, minimum prices by
enumerating the price grid, and descent sets by evaluating the potential on
every object subset.

The flow criterion and the Hall condition are functions of a demand
network, the one ``build_demand_network`` lays at the prices in question,
so a caller builds one network per price vector and hands it to both.  The
flow criterion runs ``max_flow`` on it; the Hall condition counts each
object subset's overdemand off its arcs, read as (tail, head, capacity)
triples.  Both share with the solver ``tier_reports`` and ``FlowNetwork``,
which lays every arc, and the flow criterion also ``max_flow``, with its
start along the direct paths.  That start does not weaken it: a feasible
flow that is not maximum is augmented until no augmenting path is left, so
the value decided on is the max-flow value whatever the start.  Bundle
enumeration and the descent potential read no network, so they check those
rules.  No check shares the solver's search path: ``next_breakpoint`` and
the breakpoints ``_step_length`` carries from walk to walk.

The price grid decides most of its vectors before any network, by two
exact supply bounds that read only the instance rows, nothing of the
solver.  Let P_j be the objects in supply that buyer j values above their
price, and c_j = min(d_j, supply of P_j).  The greedy behind a tier report
takes the objects of positive payoff in order of falling payoff until the
demand is met, and takes every object above the margin in full, so c_j is
the buyer's source capacity and each of its tier arcs leads into P_j.  A
saturating flow carries all of c_j into P_j and out through sink arcs that
hold the objects' supplies, so prices are not competitive when (1) the c_j
sum to more than total supply, or (2) for some j, the c_k of the buyers k
with P_k a subset of P_j sum to more than the supply of P_j.  When every
c_j is 0 the source capacity is 0, and the empty flow saturates the
network.  Only a vector that the bounds leave undecided gets a network,
and the flow criterion decides it.

The checkers are desk-scale by design and each raises
:class:`BudgetExceededError` beyond its enumeration budget.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from operator import add, gt, or_
from typing import Iterable, Iterator

from .flow import FlowNetwork, build_demand_network, max_flow
from .model import Allocation, Instance, InstanceError, PriceVector, validate_instance
from .tiers import indirect_utility


DEFAULT_BUDGET = 1_000_000
#: ``hall_check`` enumerates the subsets of at most this many objects.
HALL_MAX_OBJECTS = 16
#: ``steepest_descent_bruteforce`` scores at most this many object subsets.
DESCENT_BUDGET = 1 << 16
#: ``perturb_instance`` changes a demand or a supply by at most this much.
PERTURB_MAX_DELTA = 3


class BudgetExceededError(RuntimeError):
    """An enumeration oracle was asked to search beyond its budget."""


class GuaranteeViolation(RuntimeError):
    """A guaranteed property failed on concrete data: an implementation bug."""


class PerturbationError(ValueError):
    """Two instances do not form a valid (demand up, supply down) pair."""


def _unique_minimal(sets: list[frozenset[str]], what: str) -> frozenset[str]:
    """The one inclusion-minimal set among ``sets``; raises
    :class:`GuaranteeViolation` naming ``what`` if there is not exactly one."""
    minimal = [s for s in sets if not any(o < s for o in sets)]
    if len(minimal) != 1:
        raise GuaranteeViolation(f"{what} is not unique: {minimal}")
    return minimal[0]


# ---------------------------------------------------------------------------
# Bundle enumeration: the ground-truth demand oracle.

def enumerate_bundles(instance: Instance, buyer: str) -> Iterator[dict[str, int]]:
    """All feasible bundles of the buyer: 0 <= x_i <= min(b_i, d_j),
    total at most d_j; at most ``DEFAULT_BUDGET`` candidates."""
    demand = instance.demands[buyer]
    ranges = [range(min(instance.supplies[i], demand) + 1) for i in instance.objects]
    count = 1
    for r in ranges:
        count *= len(r)
        if count > DEFAULT_BUDGET:
            raise BudgetExceededError(f"bundle enumeration for {buyer!r} exceeds {DEFAULT_BUDGET}")
    for combo in itertools.product(*ranges):
        if sum(combo) <= demand:
            yield {i: q for i, q in zip(instance.objects, combo) if q > 0}


def best_bundle_payoff(instance: Instance, buyer: str, prices: PriceVector) -> int:
    """Maximum bundle payoff by exhaustive search; independent of the
    greedy construction it is used to check."""
    best = 0
    for bundle in enumerate_bundles(instance, buyer):
        payoff = sum(instance.payoff(i, buyer, prices) * q for i, q in bundle.items())
        best = max(best, payoff)
    return best


# ---------------------------------------------------------------------------
# Overdemand and the Hall-style competitiveness condition.

def _tier_arc_table(
    network: FlowNetwork,
) -> tuple[list[tuple[int, dict[str, int]]], dict[str, int]]:
    """The network's arcs, read as (tail, head, capacity): per tier node
    with demand, that demand, its source arc's capacity, and its arc
    capacities to objects; and each object's supply, its sink arc's
    capacity (0 without one)."""
    labels, sink = network.labels, network.sink
    demands: dict[int, int] = {}
    caps: dict[int, dict[str, int]] = {}
    supplies = dict.fromkeys(network.objects, 0)
    for tail, head, c in network.arcs:
        if tail == 0:
            demands[head], caps[head] = c, {}
        elif head == sink:
            supplies[labels[tail]] = c
        else:
            caps[tail][labels[head]] = c
    return [(demand, caps[u]) for u, demand in demands.items()], supplies


def _overdemand_from_table(
    table: list[tuple[int, dict[str, int]]], subset: frozenset[str]
) -> int:
    total = 0
    for demand, caps in table:
        if not any(i in subset for i in caps):
            continue
        outside = sum(c for i, c in caps.items() if i not in subset)
        total += max(0, demand - outside)
    return total


def overdemand(network: FlowNetwork, objects: Iterable[str]) -> int:
    """Demand on the object set that cannot be served from outside it, in
    the demand network ``network``.

    Sums, over tier nodes adjacent to the set, the part of the tier demand
    exceeding the arc capacity towards objects outside the set.
    """
    subset = frozenset(objects)
    unknown = subset - set(network.objects)
    if unknown:
        raise InstanceError(f"unknown object ids: {sorted(unknown)}")
    return _overdemand_from_table(_tier_arc_table(network)[0], subset)


def hall_check(network: FlowNetwork) -> tuple[bool, tuple[str, ...] | None]:
    """Competitiveness by subset enumeration on the demand network
    ``network``: supply must cover the overdemand of every object subset.

    On failure, returns the inclusion-minimal set of largest overdemand
    minus supply.  It is unique, since that excess is supermodular in the
    object set; a second such set raises :class:`GuaranteeViolation`.
    """
    objects = network.objects
    if len(objects) > HALL_MAX_OBJECTS:
        raise BudgetExceededError(
            f"{len(objects)} objects exceed the enumeration budget of {HALL_MAX_OBJECTS}"
        )
    table, supplies = _tier_arc_table(network)
    violations: list[tuple[int, frozenset[str]]] = []
    for size in range(1, len(objects) + 1):
        for combo in itertools.combinations(objects, size):
            subset = frozenset(combo)
            supply = sum(supplies[i] for i in combo)
            excess = _overdemand_from_table(table, subset) - supply
            if excess > 0:
                violations.append((excess, subset))
    if not violations:
        return True, None
    worst = max(excess for excess, _ in violations)
    candidates = [subset for excess, subset in violations if excess == worst]
    minimal = _unique_minimal(candidates, "minimal most overdemanded set")
    return False, tuple(i for i in objects if i in minimal)


def _bound_rows(
    instance: Instance,
) -> tuple[list[int], list[tuple[int, ...]], tuple[int, ...], tuple[int, ...]]:
    """The instance rows the supply bounds read: the demands and value rows
    of the buyers with demand, the supplies, and each object's bit in a
    buyer's mask (0 for an object without supply)."""
    demands, rows = instance.demands, instance.value_rows
    buyers = [j for j in instance.buyers if demands[j]]
    supplies = instance.supply_row
    bits = tuple(b and 1 << k for k, b in enumerate(supplies))
    return [demands[j] for j in buyers], [rows[j] for j in buyers], supplies, bits


def _valued_above(
    rows: Iterable[tuple[int, ...]],
    price_row: tuple[int, ...],
    supplies: tuple[int, ...],
    bits: tuple[int, ...],
) -> tuple[list[int], list[int]]:
    """Per value row, over the objects it values above ``price_row``: the
    mask of those in supply and the sum of their supplies.  The rows may
    be any slice of the objects, with the matching slices of the rest."""
    masks, reach = [], []
    for row in rows:
        supply = sum(itertools.compress(supplies, map(gt, row, price_row)))
        masks.append(supply and sum(itertools.compress(bits, map(gt, row, price_row))))
        reach.append(supply)
    return masks, reach


def _supply_verdict(total: int, demands: list[int], masks: list[int], reach: list[int]) -> bool | None:
    """What the supply bounds (see the module docstring) decide of a price
    vector, given per buyer its demand d_j, the mask of P_j and the supply
    of P_j: ``False`` when a bound rejects it, ``True`` when every c_j is
    0, and ``None`` when only the network can decide."""
    caps = list(map(min, demands, reach))
    capacity = sum(caps)
    if capacity > total:
        return False
    if capacity == 0:
        return True
    # A buyer without capacity adds to no sum, and its P_j is empty; a P_j
    # with as much supply as all the capacity holds any sum of it.
    live = list(itertools.compress(range(len(caps)), caps))
    for j in live:
        if reach[j] < capacity:
            mask = masks[j]
            if sum(caps[k] for k in live if not masks[k] & ~mask) > reach[j]:
                return False
    return None


def is_competitive_flowcheck(network: FlowNetwork) -> bool:
    """Competitiveness via the demand network at the prices in question:
    its max flow saturates the source."""
    return max_flow(network).value == network.cap_s


def is_competitive_bruteforce(instance: Instance, prices: PriceVector) -> bool:
    """Competitiveness by first principles: search for a supply-feasible
    assignment giving every buyer a payoff-maximal bundle, visiting at most
    ``DEFAULT_BUDGET`` search nodes."""
    optimal: list[list[dict[str, int]]] = []
    for j in instance.buyers:
        best = best_bundle_payoff(instance, j, prices)
        options = [
            bundle
            for bundle in enumerate_bundles(instance, j)
            if sum(instance.payoff(i, j, prices) * q for i, q in bundle.items()) == best
        ]
        optimal.append(options)

    nodes = 0

    def fits(index: int, remaining: dict[str, int]) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > DEFAULT_BUDGET:
            raise BudgetExceededError("stable-assignment search exceeded its budget")
        if index == len(optimal):
            return True
        for bundle in optimal[index]:
            if all(q <= remaining[i] for i, q in bundle.items()):
                for i, q in bundle.items():
                    remaining[i] -= q
                if fits(index + 1, remaining):
                    return True
                for i, q in bundle.items():
                    remaining[i] += q
        return False

    return fits(0, dict(instance.supplies))


def min_competitive_bruteforce(
    instance: Instance, budget: int = DEFAULT_BUDGET, upper: PriceVector | None = None
) -> PriceVector:
    """Component-wise minimum competitive prices by grid enumeration.

    Every price vector in {0, ..., v_max + 1}^objects is decided, by the
    supply bounds or else by the flow criterion on its demand network (see
    the module docstring); at v_max + 1 nothing is demanded, so the grid
    always holds a competitive vector.  ``upper``, if given, is a price
    vector the caller knows to be competitive.  The minimum lies below it,
    so only the box {0, ..., min(upper_i, v_max + 1)} is enumerated, and
    its corner, when it is ``upper`` itself, is not decided again.  A grid
    or box beyond the budget raises before any vector is decided.

    The box is walked in lexicographic order, as prefixes over every
    object but the last times the price of the last: each buyer's P_j and
    its supply are taken once per prefix, and each price of the last
    object adds a precomputed column.  Every competitive vector lies above
    the minimum component-wise, so also lexicographically: when the
    minimum is competitive, it is the first competitive vector the walk
    meets.  A minimum other than that vector was met before it and decided
    not competitive, and :class:`GuaranteeViolation` is raised.
    """
    objects = instance.objects
    top = instance.max_valuation + 1
    bounds = [top] * len(objects)
    corner: tuple[int, ...] | None = None  # ``upper``, if it is a grid vector
    if upper is not None:
        bounds = [min(upper[i], top) for i in objects]
        if all(upper[i] <= top for i in objects):
            corner = tuple(bounds)
    count = math.prod(b + 1 for b in bounds)
    if count > budget:
        raise BudgetExceededError(f"price grid of {count} vectors exceeds budget {budget}")
    demands, rows, supplies, bits = _bound_rows(instance)
    total = instance.total_supply
    # Prefixes over every object but the last, times the prices of the
    # last; with no objects, one empty prefix times one empty price.
    cut = max(len(objects) - 1, 0)
    head_rows, head_supplies, head_bits = [row[:cut] for row in rows], supplies[:cut], bits[:cut]
    tail_rows = [row[cut:] for row in rows]
    columns = [
        (tail, *_valued_above(tail_rows, tail, supplies[cut:], bits[cut:]))
        for tail in itertools.product(*(range(b + 1) for b in bounds[cut:]))
    ]
    first: tuple[int, ...] | None = None
    minimum: tuple[int, ...] | None = None
    for head in itertools.product(*(range(b + 1) for b in bounds[:cut])):
        masks, reach = _valued_above(head_rows, head, head_supplies, head_bits)
        for tail, tail_masks, tail_reach in columns:
            combo = head + tail
            if combo != corner:
                verdict = _supply_verdict(
                    total, demands, list(map(or_, masks, tail_masks)), list(map(add, reach, tail_reach))
                )
                if verdict is None:
                    prices = PriceVector(dict(zip(objects, combo)))
                    verdict = is_competitive_flowcheck(build_demand_network(instance, prices))
                if not verdict:
                    continue
            if minimum is None:
                first = minimum = combo
            else:
                minimum = tuple(map(min, minimum, combo))
    if minimum is None:
        raise GuaranteeViolation("no competitive vector found in the price grid")
    if minimum != first:
        raise GuaranteeViolation(
            "component-wise minimum of competitive prices is not competitive"
        )
    return PriceVector(dict(zip(objects, minimum)))


# ---------------------------------------------------------------------------
# The descent potential.

def lyapunov(instance: Instance, prices: PriceVector) -> int:
    """Sum of buyer indirect utilities plus supply-weighted prices.

    Minimized exactly at market-clearing competitive prices.
    """
    utilities = sum(indirect_utility(instance, j, prices) for j in instance.buyers)
    return utilities + sum(instance.supplies[i] * prices[i] for i in instance.objects)


def steepest_descent_bruteforce(instance: Instance, prices: PriceVector) -> frozenset[str]:
    """Inclusion-wise minimal minimizer of the potential after a unit raise.

    Evaluates the potential for every object subset and asserts that the
    inclusion-minimal minimizer is unique, raising :class:`GuaranteeViolation`
    otherwise.
    """
    m = len(instance.objects)
    if 2**m > DESCENT_BUDGET:
        raise BudgetExceededError(f"{2**m} subsets exceed budget {DESCENT_BUDGET}")
    scored: list[tuple[int, frozenset[str]]] = []
    for size in range(m + 1):
        for combo in itertools.combinations(instance.objects, size):
            subset = frozenset(combo)
            scored.append((lyapunov(instance, prices.raised(subset)), subset))
    best = min(score for score, _ in scored)
    minimizers = [subset for score, subset in scored if score == best]
    return _unique_minimal(minimizers, "minimal potential minimizer")


# ---------------------------------------------------------------------------
# Equilibrium and comparative-statics checks.

@dataclass(frozen=True)
class EquilibriumReport:
    """Outcome of the three equilibrium clauses plus feasibility."""

    feasible: bool
    stable: dict[str, bool]
    quantity_sold: int
    expected_quantity: int
    positive_price_sellout: bool


def check_equilibrium(
    instance: Instance, prices: PriceVector, allocation: Allocation
) -> EquilibriumReport:
    """Validate stability, total quantity, and positive-price sellout.

    A buyer is stable when the assigned bundle is feasible for her and its
    payoff matches her indirect utility.  Infeasibility is reported in the
    result, never raised.
    """
    feasible = allocation.is_feasible(instance)
    # One pass: each buyer's bundle of known objects, and what is sold of
    # each object, to any buyer.
    bundles: dict[str, dict[str, int]] = {j: {} for j in instance.buyers}
    sold = dict.fromkeys(instance.objects, 0)
    for (i, j), q in allocation.quantities.items():
        if i in sold:
            sold[i] += q
            if j in bundles:
                bundles[j][i] = q
    stable: dict[str, bool] = {}
    for j, bundle in bundles.items():
        ok = sum(bundle.values()) <= instance.demands[j] and all(
            q <= instance.supplies[i] for i, q in bundle.items()
        )
        payoff = sum(instance.payoff(i, j, prices) * q for i, q in bundle.items())
        stable[j] = ok and payoff == indirect_utility(instance, j, prices)
    expected = min(instance.total_supply, instance.total_demand)
    sellout = all(q == instance.supplies[i] for i, q in sold.items() if prices[i] > 0)
    return EquilibriumReport(feasible, stable, allocation.total, expected, sellout)


def check_monotonicity_pair(
    instance_old: Instance,
    instance_new: Instance,
    prices_old: PriceVector,
    prices_new: PriceVector,
) -> bool:
    """Prices of surviving objects may only rise when demand grows or
    supply shrinks.  Raises :class:`PerturbationError` unless the two
    instances form such a pair."""
    if instance_old.objects != instance_new.objects or instance_old.buyers != instance_new.buyers:
        raise PerturbationError("instances do not share objects and buyers")
    if instance_old.valuations != instance_new.valuations:
        raise PerturbationError("valuations differ between the instances")
    if any(instance_new.demands[j] < instance_old.demands[j] for j in instance_old.buyers):
        raise PerturbationError("demands decreased")
    if any(instance_new.supplies[i] > instance_old.supplies[i] for i in instance_old.objects):
        raise PerturbationError("supplies increased")
    return all(
        prices_old[i] <= prices_new[i]
        for i in instance_old.objects
        if instance_new.supplies[i] > 0
    )


# ---------------------------------------------------------------------------
# Seeded generators for the experiment sweeps.

@dataclass(frozen=True)
class Perturbation:
    """A single-coordinate change: demand up or supply down by ``amount``."""

    kind: str
    target: str
    amount: int


def random_instance(
    rng: random.Random,
    max_objects: int = 3,
    max_buyers: int = 3,
    max_supply: int = 3,
    max_demand: int = 3,
    max_value: int = 4,
) -> Instance:
    """A small random market with ids o1.., b1.. in canonical order."""
    objects = [f"o{k}" for k in range(1, rng.randint(1, max_objects) + 1)]
    buyers = [f"b{k}" for k in range(1, rng.randint(1, max_buyers) + 1)]
    supplies = {i: rng.randint(0, max_supply) for i in objects}
    demands = {j: rng.randint(0, max_demand) for j in buyers}
    valuations = {j: {i: rng.randint(0, max_value) for i in objects} for j in buyers}
    return validate_instance(supplies, demands, valuations)


def random_prices(rng: random.Random, instance: Instance) -> PriceVector:
    cap = instance.max_valuation + 1
    return PriceVector({i: rng.randint(0, cap) for i in instance.objects})


def perturb_instance(rng: random.Random, instance: Instance) -> tuple[Instance, Perturbation]:
    """Raise one buyer's demand or cut one object's supply by 1..PERTURB_MAX_DELTA."""
    choices = []
    if instance.buyers:
        choices.append("demand")
    if instance.objects:
        choices.append("supply")
    if not choices:
        return instance, Perturbation("none", "", 0)
    kind = rng.choice(choices)
    delta = rng.randint(1, PERTURB_MAX_DELTA)
    supplies = dict(instance.supplies)
    demands = dict(instance.demands)
    if kind == "demand":
        target = rng.choice(instance.buyers)
        demands[target] += delta
    else:
        target = rng.choice(instance.objects)
        before = supplies[target]
        supplies[target] = max(0, before - delta)
        delta = before - supplies[target]
    valuations = {
        j: {i: instance.valuations[(i, j)] for i in instance.objects} for j in instance.buyers
    }
    perturbed = validate_instance(supplies, demands, valuations)
    signed = delta if kind == "demand" else -delta
    return perturbed, Perturbation(kind, target, signed)
