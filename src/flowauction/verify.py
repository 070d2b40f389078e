"""Independent oracles and checkers for every claim the solver relies on.

Competitiveness is decided by exhaustive bundle enumeration, by the
Hall-style counting condition or by the flow criterion, minimum prices by
enumerating the price grid, and descent sets by evaluating the potential on
every object subset.  The checks share ``tier_report``,
``build_demand_network`` and, through ``is_competitive_flowcheck``,
``max_flow`` with the solver, but not its search path: ``next_breakpoint``,
``_step_length`` and ``flow_update``.  The checkers are desk-scale by design
and each raises :class:`BudgetExceededError` beyond its enumeration budget.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .flow import build_demand_network, max_flow
from .model import Allocation, Instance, InstanceError, PriceVector, validate_instance
from .tiers import indirect_utility, tier_report


DEFAULT_BUDGET = 1_000_000
#: ``hall_check`` enumerates the subsets of at most this many objects.
HALL_MAX_OBJECTS = 16
#: ``steepest_descent_bruteforce`` scores at most this many object subsets.
DESCENT_BUDGET = 1 << 16


class BudgetExceededError(RuntimeError):
    """An enumeration oracle was asked to search beyond its budget."""


class GuaranteeViolation(RuntimeError):
    """A guaranteed property failed on concrete data: an implementation bug."""


class PerturbationError(ValueError):
    """Two instances do not form a valid (demand up, supply down) pair."""


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
    instance: Instance, prices: PriceVector
) -> list[tuple[int, dict[str, int]]]:
    """Per tier node of the demand network: its demand and its arc
    capacities to objects."""
    table = []
    for j in instance.buyers:
        report = tier_report(instance, j, prices)
        table.append(
            (report.demand_above, {i: instance.supplies[i] for i in report.above if instance.supplies[i] > 0})
        )
        table.append(
            (
                report.demand_at_margin,
                {
                    i: min(instance.supplies[i], report.demand_at_margin)
                    for i in report.at_margin
                    if min(instance.supplies[i], report.demand_at_margin) > 0
                },
            )
        )
    return table


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


def overdemand(instance: Instance, prices: PriceVector, objects: Iterable[str]) -> int:
    """Demand on the object set that cannot be served from outside it.

    Sums, over tier nodes adjacent to the set, the part of the tier demand
    exceeding the arc capacity towards objects outside the set.
    """
    subset = frozenset(objects)
    unknown = subset - set(instance.objects)
    if unknown:
        raise InstanceError(f"unknown object ids: {sorted(unknown)}")
    return _overdemand_from_table(_tier_arc_table(instance, prices), subset)


def hall_check(instance: Instance, prices: PriceVector) -> tuple[bool, tuple[str, ...] | None]:
    """Competitiveness by subset enumeration: supply must cover the
    overdemand of every object subset.

    On failure, returns a most overdemanded violating set (largest
    overdemand minus supply; ties resolved towards inclusion-minimal sets,
    then canonical order).
    """
    if len(instance.objects) > HALL_MAX_OBJECTS:
        raise BudgetExceededError(
            f"{len(instance.objects)} objects exceed the enumeration budget of {HALL_MAX_OBJECTS}"
        )
    table = _tier_arc_table(instance, prices)
    violations: list[tuple[int, frozenset[str]]] = []
    for size in range(1, len(instance.objects) + 1):
        for combo in itertools.combinations(instance.objects, size):
            subset = frozenset(combo)
            supply = sum(instance.supplies[i] for i in combo)
            excess = _overdemand_from_table(table, subset) - supply
            if excess > 0:
                violations.append((excess, subset))
    if not violations:
        return True, None
    worst = max(excess for excess, _ in violations)
    candidates = [subset for excess, subset in violations if excess == worst]
    minimal = [s for s in candidates if not any(o < s for o in candidates)]
    ordered = min(
        minimal, key=lambda s: (len(s), tuple(instance.object_index(i) for i in sorted(s)))
    )
    return False, tuple(i for i in instance.objects if i in ordered)


def is_competitive_flowcheck(instance: Instance, prices: PriceVector) -> bool:
    """Competitiveness via the demand network: max flow saturates the source."""
    reports = {j: tier_report(instance, j, prices) for j in instance.buyers}
    network = build_demand_network(instance, prices, reports)
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

    Every price vector in {0, ..., v_max + 1}^objects is tested with the
    flow criterion; at v_max + 1 nothing is demanded, so the grid always
    contains a competitive vector.  The minimum lies below every
    competitive vector, so if ``upper`` is given and passes the flow
    criterion, only the box {0, ..., upper_i} of the grid is enumerated;
    otherwise the whole grid is.  The whole grid is never smaller than the
    box, so a box beyond the budget raises with the box's count before
    ``upper`` is checked.  The component-wise minimum of the competitive
    vectors must itself be competitive; if not, a
    :class:`GuaranteeViolation` is raised.
    """
    top = instance.max_valuation + 1
    bounds = [top] * len(instance.objects)
    if upper is not None:
        box = [min(upper[i], top) for i in instance.objects]
        if math.prod(b + 1 for b in box) > budget or is_competitive_flowcheck(instance, upper):
            bounds = box
    count = math.prod(b + 1 for b in bounds)
    if count > budget:
        raise BudgetExceededError(f"price grid of {count} vectors exceeds budget {budget}")
    minimum: list[int] | None = None
    for combo in itertools.product(*(range(b + 1) for b in bounds)):
        prices = PriceVector(dict(zip(instance.objects, combo)))
        if is_competitive_flowcheck(instance, prices):
            if minimum is None:
                minimum = list(combo)
            else:
                minimum = [min(a, b) for a, b in zip(minimum, combo)]
    if minimum is None:
        raise GuaranteeViolation("no competitive vector found in the price grid")
    result = PriceVector(dict(zip(instance.objects, minimum)))
    if not is_competitive_flowcheck(instance, result):
        raise GuaranteeViolation(
            "component-wise minimum of competitive prices is not competitive"
        )
    return result


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
    minimal = [s for s in minimizers if not any(o < s for o in minimizers)]
    if len(minimal) != 1:
        raise GuaranteeViolation(f"minimal potential minimizer is not unique: {minimal}")
    return minimal[0]


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

    @property
    def overall(self) -> bool:
        return (
            self.feasible
            and all(self.stable.values())
            and self.quantity_sold == self.expected_quantity
            and self.positive_price_sellout
        )


def check_equilibrium(
    instance: Instance, prices: PriceVector, allocation: Allocation
) -> EquilibriumReport:
    """Validate stability, total quantity, and positive-price sellout.

    A buyer is stable when the assigned bundle is feasible for her and its
    payoff matches her indirect utility.  Infeasibility is reported in the
    result, never raised.
    """
    feasible = allocation.is_feasible(instance)
    stable: dict[str, bool] = {}
    for j in instance.buyers:
        bought = {i: allocation.quantity(i, j) for i in instance.objects}
        ok = sum(bought.values()) <= instance.demands[j] and all(
            q <= instance.supplies[i] for i, q in bought.items()
        )
        payoff = sum(instance.payoff(i, j, prices) * q for i, q in bought.items())
        stable[j] = ok and payoff == indirect_utility(instance, j, prices)
    sold = allocation.total
    expected = min(instance.total_supply, instance.total_demand)
    sellout = all(
        allocation.sold_of(i) == instance.supplies[i]
        for i in instance.objects
        if prices[i] > 0
    )
    return EquilibriumReport(feasible, stable, sold, expected, sellout)


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


def perturb_instance(
    rng: random.Random, instance: Instance, max_delta: int = 3
) -> tuple[Instance, Perturbation]:
    """Raise one buyer's demand or cut one object's supply by 1..max_delta."""
    choices = []
    if instance.buyers:
        choices.append("demand")
    if instance.objects:
        choices.append("supply")
    if not choices:
        return instance, Perturbation("none", "", 0)
    kind = rng.choice(choices)
    delta = rng.randint(1, max_delta)
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
