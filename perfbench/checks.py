"""Answer checks that do not reuse the solver.

A buyer's best payoff comes from this file's own greedy, and the minimum
prices are recomputed three ways, one per workload: as a local minimum of
the potential ``L(p) = sum_j U_j(p) + sum_i b_i p_i`` (dense), by
enumerating assignments or scaling a grid-enumerated small market
(high-value), and by enumerating the whole price grid for the minimizers
of ``L`` (certify).  An answer is a price dict plus an allocation given as
``{(object, buyer): quantity}``.
"""

from __future__ import annotations

import itertools


def utility(instance, buyer: str, prices: dict) -> int:
    """The buyer's best payoff: take the highest-payoff units first."""
    ranked = sorted(
        ((instance.valuations[(i, buyer)] - prices[i], instance.supplies[i]) for i in instance.objects),
        reverse=True,
    )
    left = instance.demands[buyer]
    total = 0
    for payoff, supply in ranked:
        if left == 0 or payoff <= 0:
            break
        take = min(supply, left)
        total += take * payoff
        left -= take
    return total


def potential(instance, prices: dict) -> int:
    return sum(utility(instance, j, prices) for j in instance.buyers) + sum(
        instance.supplies[i] * prices[i] for i in instance.objects
    )


def equilibrium_errors(instance, prices: dict, quantities: dict) -> list[str]:
    """Feasibility, stability, quantity sold and sellout of positive prices."""
    errors = []
    sold = dict.fromkeys(instance.objects, 0)
    bought = dict.fromkeys(instance.buyers, 0)
    payoff = dict.fromkeys(instance.buyers, 0)
    for (i, j), q in quantities.items():
        if i not in sold or j not in bought or q <= 0:
            return [f"allocation entry {(i, j)}: {q}"]
        sold[i] += q
        bought[j] += q
        payoff[j] += q * (instance.valuations[(i, j)] - prices[i])
    errors += [f"{i} oversold" for i in instance.objects if sold[i] > instance.supplies[i]]
    errors += [f"{j} overserved" for j in instance.buyers if bought[j] > instance.demands[j]]
    errors += [
        f"{j} unstable" for j in instance.buyers if payoff[j] != utility(instance, j, prices)
    ]
    if sum(sold.values()) != min(instance.total_supply, instance.total_demand):
        errors.append("quantity sold is not min(supply, demand)")
    errors += [
        f"{i} priced but not sold out"
        for i in instance.objects
        if prices[i] > 0 and sold[i] != instance.supplies[i]
    ]
    return errors


def potential_errors(instance, prices: dict) -> list[str]:
    """Lowering a positive price must raise L; raising any price must not lower it."""
    base = potential(instance, prices)
    errors = []
    for i in instance.objects:
        if prices[i] > 0 and potential(instance, {**prices, i: prices[i] - 1}) <= base:
            errors.append(f"lowering {i} does not raise the potential")
        if potential(instance, {**prices, i: prices[i] + 1}) < base:
            errors.append(f"raising {i} lowers the potential")
    return errors


def _best_assignment(instance, buyers) -> tuple[int, dict]:
    """Largest total value of a unit-demand assignment, and one that attains it."""
    best, best_match = 0, {}
    slots = list(buyers) + [None] * len(instance.objects)
    for chosen in itertools.permutations(slots, len(instance.objects)):
        match = {i: j for i, j in zip(instance.objects, chosen) if j is not None}
        total = sum(instance.valuations[(i, j)] for i, j in match.items())
        if total > best:
            best, best_match = total, match
    return best, best_match


def vcg_prices(instance) -> dict:
    """Minimum Walrasian prices of a unit-supply/unit-demand market
    (Leonard 1983): the buyer served object i pays its value less its
    marginal contribution to the optimal assignment."""
    total, match = _best_assignment(instance, instance.buyers)
    prices = dict.fromkeys(instance.objects, 0)
    for i, j in match.items():
        without, _ = _best_assignment(instance, [b for b in instance.buyers if b != j])
        prices[i] = instance.valuations[(i, j)] - (total - without)
    return prices


def grid_minimum(instance) -> dict:
    """Component-wise minimum of the minimizers of L on {0..v_max+1}^m."""
    span = range(instance.max_valuation + 2)
    best, minimum = None, None
    for combo in itertools.product(span, repeat=len(instance.objects)):
        value = potential(instance, dict(zip(instance.objects, combo)))
        if best is None or value < best:
            best, minimum = value, list(combo)
        elif value == best:
            minimum = [min(a, b) for a, b in zip(minimum, combo)]
    prices = dict(zip(instance.objects, minimum))
    if potential(instance, prices) != best:
        raise ArithmeticError("the minimizers of the potential have no least element")
    return prices


def reference_prices(fa, market) -> dict | None:
    """The minimum prices computed apart from the solver, or ``None`` where
    the workload checks the potential instead."""
    if market.reference == "vcg":
        return vcg_prices(market.instance)
    if market.reference == "scaled":
        small = fa.verify.min_competitive_bruteforce(market.unscaled).as_dict()
        return {i: p * market.scale for i, p in small.items()}
    if market.reference == "grid":
        return grid_minimum(market.instance)
    return None


def answer_errors(market, reference: dict | None, prices: dict, quantities: dict) -> list[str]:
    instance = market.instance
    errors = equilibrium_errors(instance, prices, quantities)
    if reference is None:
        errors += potential_errors(instance, prices)
    elif prices != reference:
        errors.append(f"prices {prices} differ from the reference {reference}")
    if market.base_prices is not None:
        errors += [
            f"{i} fell below its base price"
            for i in instance.objects
            if instance.supplies[i] > 0 and prices[i] < market.base_prices[i]
        ]
    return errors


def corruptions(instance, prices: dict, quantities: dict):
    """One price raised by 1, one positive price lowered by 1, and one
    allocated unit with positive payoff moved to another buyer, as far as
    the answer has such a price and such a unit."""
    first = instance.objects[0]
    yield "price raised", {**prices, first: prices[first] + 1}, quantities
    positive = [i for i in instance.objects if prices[i] > 0]
    if positive:
        yield "price lowered", {**prices, positive[0]: prices[positive[0]] - 1}, quantities
    for (i, j), q in quantities.items():
        others = [b for b in instance.buyers if b != j]
        if instance.valuations[(i, j)] > prices[i] and others:
            moved = dict(quantities)
            moved[(i, j)] = q - 1
            if moved[(i, j)] == 0:
                del moved[(i, j)]
            moved[(i, others[0])] = moved.get((i, others[0]), 0) + 1
            yield "unit moved", prices, moved
            return
