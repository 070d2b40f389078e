import itertools
import math
import random

import pytest

from flowauction.auction import SolveOptions, price_raising, solve
from flowauction.flow import build_demand_network, max_flow
from flowauction.model import Allocation, InstanceError, PriceVector, validate_instance
from flowauction.tiers import indirect_utility, tier_report, tier_reports
from flowauction import flow, verify
from flowauction.verify import (
    BudgetExceededError,
    EquilibriumReport,
    GuaranteeViolation,
    PerturbationError,
    best_bundle_payoff,
    check_equilibrium,
    check_monotonicity_pair,
    hall_check,
    is_competitive_bruteforce,
    is_competitive_flowcheck,
    lyapunov,
    min_competitive_bruteforce,
    overdemand,
    perturb_instance,
    random_instance,
    random_prices,
    steepest_descent_bruteforce,
)
from conftest import price_pressure_pair


def subset_bound_rejects(inst, prices):
    """The subset supply bound from its definition, on object sets: for
    some buyer j, the set P_j of objects in supply that j values above
    their price holds less supply than the source capacities, min(d_k,
    supply of P_k), of the buyers k whose P_k lies in P_j."""
    valued = {
        j: frozenset(i for i in inst.objects if inst.supplies[i] and inst.valuations[(i, j)] > prices[i])
        for j in inst.buyers
    }
    supply = {j: sum(inst.supplies[i] for i in s) for j, s in valued.items()}
    cap = {j: min(inst.demands[j], supply[j]) for j in inst.buyers}
    return any(
        sum(cap[k] for k in inst.buyers if valued[k] <= valued[j]) > supply[j] for j in inst.buyers
    )


def count_grid_work(monkeypatch):
    """Record, through verify's bindings, the verdict of each call of the
    supply bounds (one per vector decided; True rejects) and the prices,
    in object order, of each demand network built."""
    exceeds, build = verify._exceeds_supply, verify.build_demand_network
    verdicts, built = [], []

    def counted_bounds(*args):
        verdicts.append(exceeds(*args))
        return verdicts[-1]

    def counted_build(instance, prices, reports=None):
        built.append(tuple(prices[i] for i in instance.objects))
        return build(instance, prices, reports)

    monkeypatch.setattr(verify, "_exceeds_supply", counted_bounds)
    monkeypatch.setattr(verify, "build_demand_network", counted_build)
    return verdicts, built


class TestOverdemand:
    def test_fig1_beta(self, fig1):
        assert overdemand(fig1, PriceVector.zero(fig1), {"beta"}) == 2

    def test_empty_set(self, fig1):
        assert overdemand(fig1, PriceVector.zero(fig1), set()) == 0

    def test_whole_market_with_positive_payoffs(self):
        inst = validate_instance(
            {"x": 1, "y": 1},
            {"u": 2, "w": 1},
            {"u": {"x": 2, "y": 1}, "w": {"x": 1, "y": 2}},
        )
        prices = PriceVector.zero(inst)
        reports = [tier_report(inst, j, prices) for j in inst.buyers]
        total = sum(r.demand_above + r.demand_at_margin for r in reports)
        assert overdemand(inst, prices, {"x", "y"}) == total

    def test_unknown_object(self, fig1):
        with pytest.raises(InstanceError, match="unknown"):
            overdemand(fig1, PriceVector.zero(fig1), {"delta"})


class TestHallCheck:
    def test_example1_competitive(self, example1):
        ok, violating = hall_check(example1, PriceVector.zero(example1))
        assert ok and violating is None

    def test_fig1_violating_set(self, fig1):
        ok, violating = hall_check(fig1, PriceVector.zero(fig1))
        assert not ok
        assert violating == ("beta",)

    def test_no_buyers(self):
        inst = validate_instance({"a": 1}, {}, {})
        ok, violating = hall_check(inst, PriceVector.zero(inst))
        assert ok and violating is None

    def test_budget(self):
        supplies = {f"o{k}": 1 for k in range(17)}
        inst = validate_instance(supplies, {}, {})
        with pytest.raises(BudgetExceededError):
            hall_check(inst, PriceVector.zero(inst))

    def test_overdemand_minus_supply_is_supermodular(self):
        """So the sets of largest overdemand minus supply are closed under
        intersection, and hall_check's inclusion-minimal one is unique."""
        rng = random.Random(29)
        pairs = 0
        for _ in range(1000):
            inst = random_instance(rng, max_objects=4, max_buyers=4, max_value=6)
            prices = random_prices(rng, inst)
            subsets = [
                frozenset(combo)
                for size in range(len(inst.objects) + 1)
                for combo in itertools.combinations(inst.objects, size)
            ]
            excess = {
                s: overdemand(inst, prices, s) - sum(inst.supplies[i] for i in s) for s in subsets
            }
            for a, b in itertools.combinations(subsets, 2):
                assert excess[a | b] + excess[a & b] >= excess[a] + excess[b], (inst, prices, a, b)
                pairs += 1
        assert pairs > 30_000

    def test_a_second_minimal_violating_set_is_a_violation(self, monkeypatch):
        # A constant overdemand makes both singletons most overdemanded.
        inst = validate_instance({"a": 1, "b": 1}, {}, {})
        monkeypatch.setattr(verify, "_overdemand_from_table", lambda table, subset: 5)
        with pytest.raises(GuaranteeViolation, match="not unique"):
            hall_check(inst, PriceVector.zero(inst))


class TestCompetitiveChecks:
    def test_example1(self, example1):
        assert is_competitive_flowcheck(example1, PriceVector.zero(example1))
        assert is_competitive_bruteforce(example1, PriceVector.zero(example1))

    def test_fig1_not_competitive_at_zero(self, fig1):
        assert not is_competitive_flowcheck(fig1, PriceVector.zero(fig1))
        assert not is_competitive_bruteforce(fig1, PriceVector.zero(fig1))

    def test_priced_out_market_is_competitive(self, fig1):
        top = PriceVector({i: fig1.max_valuation + 1 for i in fig1.objects})
        assert is_competitive_flowcheck(fig1, top)
        assert is_competitive_bruteforce(fig1, top)

    def test_flowcheck_matches_bruteforce(self):
        rng = random.Random(17)
        for _ in range(80):
            inst = random_instance(rng, max_objects=2, max_buyers=2)
            prices = random_prices(rng, inst)
            assert is_competitive_flowcheck(inst, prices) == is_competitive_bruteforce(
                inst, prices
            )

    def test_supply_bound_is_the_source_capacity_in_closed_form(self):
        """The bound rows give, per buyer with demand, the mask and the
        supply of P_j, the objects in supply it values above their price;
        sum_j min(d_j, supply of P_j) is the demand network's source
        capacity, and every tier arc of buyer j leads into P_j.  On markets
        with unsupplied objects, buyers without demand, zero values and
        prices above every value."""
        rng = random.Random(79)
        seen = dict.fromkeys(("unsupplied", "no demand", "zero value", "priced out"), 0)
        for k in range(1800):
            inst = random_instance(rng, max_value=(4, 30, 300)[k % 3])
            prices = random_prices(rng, inst)
            network = build_demand_network(inst, prices)
            demands, rows, supplies, bits = verify._bound_rows(inst)
            price_row = tuple(prices[i] for i in inst.objects)
            masks, reach = verify._valued_above(rows, price_row, supplies, bits)
            buyers = [j for j in inst.buyers if inst.demands[j]]
            assert demands == [inst.demands[j] for j in buyers]
            assert sum(map(min, demands, reach)) == network.cap_s, (inst, prices)
            valued = {
                j: {i for i in inst.objects if inst.supplies[i] and inst.valuations[(i, j)] > prices[i]}
                for j in inst.buyers
            }
            for j, mask, supply in zip(buyers, masks, reach):
                assert {i for x, i in enumerate(inst.objects) if mask >> x & 1} == valued[j]
                assert supply == sum(inst.supplies[i] for i in valued[j])
            for node in range(1, network.first_object):
                heads = {network.labels[v] for _, v in network.out[node]}
                assert heads <= valued[inst.buyers[(node - 1) // 2]], (inst, prices)
            seen["unsupplied"] += 0 in inst.supplies.values()
            seen["no demand"] += 0 in inst.demands.values()
            seen["zero value"] += 0 in inst.valuations.values()
            seen["priced out"] += all(p > inst.max_valuation for p in prices.prices.values())
        assert all(count > 0 for count in seen.values()), seen

    def test_supply_bound_sweep_agrees_with_the_flow_and_the_bundles(self, monkeypatch):
        """The flow criterion rejects prices whose source capacity exceeds
        total supply, or whose buyers' source capacities exceed the supply
        of some buyer's P_j, without a tier report or a network, and agrees
        with the max flow on the demand network and with bundle
        enumeration.  It reaches the tier oracle only through the network
        builder."""
        built, reported = [], []

        def counted(instance, prices, reports=None):
            built.append(prices)
            return build_demand_network(instance, prices, reports)

        def counted_reports(instance, buyers, prices):
            reported.extend(buyers)
            return tier_reports(instance, buyers, prices)

        monkeypatch.setattr(verify, "build_demand_network", counted)
        monkeypatch.setattr(flow, "tier_reports", counted_reports)
        rng = random.Random(73)
        decided = {"bound": 0, "subset bound": 0, "flow accepts": 0, "flow rejects": 0}
        enumerated = 0
        for k in range(1800):
            inst = random_instance(rng, max_value=(4, 30, 300)[k % 3])
            prices = random_prices(rng, inst)
            network = build_demand_network(inst, prices)
            saturated = max_flow(network).value == network.cap_s
            built.clear()
            reported.clear()
            assert is_competitive_flowcheck(inst, prices) == saturated, (inst, prices)
            if network.cap_s > inst.total_supply:
                assert not saturated and built == [] and reported == []
                decided["bound"] += 1
            elif subset_bound_rejects(inst, prices):
                assert not saturated and built == [] and reported == []
                decided["subset bound"] += 1
            else:
                assert built == [prices] and reported == list(inst.buyers)
                decided["flow accepts" if saturated else "flow rejects"] += 1
            try:
                brute = is_competitive_bruteforce(inst, prices)
            except BudgetExceededError:
                continue
            assert brute == saturated, (inst, prices)
            enumerated += 1
        assert all(count > 0 for count in decided.values()), decided
        assert enumerated > 1500

    def test_hall_matches_flowcheck(self):
        rng = random.Random(23)
        for _ in range(150):
            inst = random_instance(rng)
            prices = random_prices(rng, inst)
            ok, _ = hall_check(inst, prices)
            assert ok == is_competitive_flowcheck(inst, prices)


class TestMinCompetitiveBruteforce:
    def test_example1(self, example1):
        assert min_competitive_bruteforce(example1).as_dict() == {"alpha": 0, "beta": 0}

    def test_three_buyers(self, three_buyers):
        assert min_competitive_bruteforce(three_buyers).as_dict() == {"alpha": 2, "beta": 0}

    def test_fig1(self, fig1):
        assert min_competitive_bruteforce(fig1).as_dict() == {
            "alpha": 0,
            "beta": 1,
            "gamma": 0,
        }

    def test_budget(self, fig1):
        with pytest.raises(BudgetExceededError):
            min_competitive_bruteforce(fig1, budget=10)

    def test_a_box_beyond_the_budget_raises_before_the_flow_check(self, fig1, monkeypatch):
        """The whole grid is never smaller than the box, so a box beyond
        the budget ends the search before the bound is checked: no vector
        is decided and no network built."""
        verdicts, built = count_grid_work(monkeypatch)
        bound = PriceVector({"alpha": 3, "beta": 3, "gamma": 3})
        with pytest.raises(BudgetExceededError, match="^price grid of 64 vectors exceeds budget 10$"):
            min_competitive_bruteforce(fig1, budget=10, upper=bound)
        assert verdicts == [] and built == []

    def test_box_below_a_competitive_bound_finds_the_grid_minimum(self, monkeypatch):
        """A competitive bound limits the search to the box under it; one
        that is not competitive leaves the whole grid to search.  The
        supply bounds decide each vector once, in grid order, and exactly
        the vectors they pass get a network."""
        verdicts, built = count_grid_work(monkeypatch)
        rng = random.Random(41)
        boxed = rejected = 0
        for _ in range(150):
            inst = random_instance(rng, max_objects=3, max_buyers=3)
            full = min_competitive_bruteforce(inst)
            bound = random_prices(rng, inst)
            competitive = is_competitive_flowcheck(inst, bound)
            verdicts.clear()
            built.clear()
            assert min_competitive_bruteforce(inst, upper=bound) == full
            corner = tuple(bound[i] for i in inst.objects)
            minimum = tuple(full[i] for i in inst.objects)
            if competitive:
                # The bound's verdict stands for the box corner, the last
                # box vector, and for the minimum when it is that corner.
                boxed += 1
                vectors = list(itertools.product(*(range(p + 1) for p in corner)))[:-1]
                final = [minimum] if minimum != corner else []
            else:
                top = inst.max_valuation + 1
                vectors = list(itertools.product(range(top + 1), repeat=len(inst.objects)))
                final = [minimum]
            decided = [corner, *vectors, *final]
            assert len(verdicts) == len(decided)
            assert built == [p for p, out in zip(decided, verdicts) if not out]
            rejected += sum(verdicts)
        assert boxed >= 40 and rejected > 0

    def test_a_bound_above_the_grid_still_checks_the_clamped_corner(self, fig1, monkeypatch):
        """Beyond v_max + 1 = 4 the box corner is a vector other than the
        bound, so it is decided like the rest of the box."""
        verdicts, built = count_grid_work(monkeypatch)
        bound = PriceVector({"alpha": 9, "beta": 1, "gamma": 0})
        assert min_competitive_bruteforce(fig1, upper=bound).as_dict() == {
            "alpha": 0,
            "beta": 1,
            "gamma": 0,
        }
        # The bound, the 5 * 2 * 1 box vectors, the last of them the clamped
        # corner, and the minimum found.  gamma's supply of 4 covers j1's
        # demand, so the supply bounds pass every one to its network.
        decided = [(9, 1, 0), *itertools.product(range(5), range(2), range(1)), (0, 1, 0)]
        assert verdicts == [False] * 12 and built == decided
        assert decided[-2] == (4, 1, 0)

    def test_a_minimum_other_than_the_corner_is_checked_again(self, monkeypatch):
        """A criterion under which the box's minimum is not competitive
        still trips the final check, though the corner's verdict is
        reused."""
        inst = validate_instance({"a": 1, "b": 1}, {}, {})
        monkeypatch.setattr(verify, "is_competitive_flowcheck", lambda instance, p: p["a"] + p["b"] > 0)
        with pytest.raises(GuaranteeViolation, match="minimum of competitive prices is not competitive"):
            min_competitive_bruteforce(inst, upper=PriceVector({"a": 1, "b": 1}))


    def test_a_market_without_objects_has_the_empty_minimum(self, monkeypatch):
        """The grid is one vector, the empty one, and nothing is demanded
        at it: it is decided once, by its network."""
        inst = validate_instance({}, {"b": 2}, {"b": {}})
        verdicts, built = count_grid_work(monkeypatch)
        assert min_competitive_bruteforce(inst) == PriceVector({})
        assert verdicts == [False, False] and built == [(), ()]
        verdicts.clear()
        built.clear()
        # The bound passes, and its verdict stands for the one vector.
        assert min_competitive_bruteforce(inst, upper=PriceVector({})) == PriceVector({})
        assert verdicts == [False] and built == [()]

    def test_a_market_without_buyers_is_competitive_at_zero(self, monkeypatch):
        inst = validate_instance({"a": 1, "b": 0}, {}, {})
        verdicts, built = count_grid_work(monkeypatch)
        assert min_competitive_bruteforce(inst).as_dict() == {"a": 0, "b": 0}
        # The 2 * 2 grid, then the minimum found.
        assert verdicts == [False] * 5
        assert built == [(0, 0), (0, 1), (1, 0), (1, 1), (0, 0)]

    def test_a_market_without_demand_is_competitive_at_zero(self, monkeypatch):
        inst = validate_instance(
            {"a": 2, "b": 1}, {"x": 0, "y": 0}, {"x": {"a": 3, "b": 1}, "y": {"a": 0, "b": 2}}
        )
        verdicts, built = count_grid_work(monkeypatch)
        assert min_competitive_bruteforce(inst).as_dict() == {"a": 0, "b": 0}
        assert len(verdicts) == 5 * 5 + 1 and not any(verdicts) and len(built) == 26
        verdicts.clear()
        built.clear()
        upper = PriceVector({"a": 1, "b": 2})
        assert min_competitive_bruteforce(inst, upper=upper).as_dict() == {"a": 0, "b": 0}
        # The bound, the 2 * 3 box less its corner, and the minimum found.
        assert verdicts == [False] * 7
        assert built == [(1, 2), (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (0, 0)]

    def test_subset_supply_bound_sweep_against_a_reference_grid(self):
        """On 1500 random markets, with values up to 4, 30 and 300,
        unsupplied objects and buyers without demand: the supply bounds
        never reject a vector whose demand network saturates, the subset
        bound rejects vectors that the total-supply bound passes, and the
        grid minimum, with and without ``upper``, equals a reference that
        decides every vector of the grid by its network's max flow alone.
        The reference runs where the whole grid holds at most 216 vectors;
        elsewhere the bounds are checked on 10 random vectors."""
        rng = random.Random(83)
        seen = dict.fromkeys(("unsupplied", "no demand", "subset only", "compared"), 0)
        for k in range(1500):
            inst = random_instance(rng, max_buyers=4, max_value=(4, 30, 300)[k % 3])
            demands, rows, supplies, bits = verify._bound_rows(inst)
            top = inst.max_valuation + 1
            grid = (top + 1) ** len(inst.objects)
            if grid <= 216:
                vectors = list(itertools.product(range(top + 1), repeat=len(inst.objects)))
            else:
                vectors = [tuple(random_prices(rng, inst).prices.values()) for _ in range(10)]
            competitive = []
            for combo in vectors:
                prices = PriceVector(dict(zip(inst.objects, combo)))
                network = build_demand_network(inst, prices)
                saturated = max_flow(network).value == network.cap_s
                masks, reach = verify._valued_above(rows, combo, supplies, bits)
                if verify._exceeds_supply(inst.total_supply, demands, masks, reach):
                    assert not saturated, (inst, prices)
                    seen["subset only"] += network.cap_s <= inst.total_supply
                if saturated:
                    competitive.append(combo)
            if grid <= 216:
                reference = PriceVector(dict(zip(inst.objects, (min(c) for c in zip(*competitive)))))
                assert min_competitive_bruteforce(inst) == reference, inst
                assert min_competitive_bruteforce(inst, upper=reference) == reference, inst
                seen["compared"] += 1
            seen["unsupplied"] += 0 in inst.supplies.values()
            seen["no demand"] += 0 in inst.demands.values()
        assert all(count > 0 for count in seen.values()) and seen["compared"] >= 600, seen


class TestLyapunov:
    def test_fig1_at_zero(self, fig1):
        prices = PriceVector.zero(fig1)
        assert lyapunov(fig1, prices) == 9
        oracle = sum(best_bundle_payoff(fig1, j, prices) for j in fig1.buyers)
        assert lyapunov(fig1, prices) == oracle

    def test_priced_out_reduces_to_supply_revenue(self, fig1):
        top = PriceVector({i: 9 for i in fig1.objects})
        assert lyapunov(fig1, top) == sum(9 * fig1.supplies[i] for i in fig1.objects)

    def test_difference_formula(self):
        rng = random.Random(31)
        for _ in range(40):
            inst = random_instance(rng, max_objects=3, max_buyers=2)
            prices = random_prices(rng, inst)
            base = lyapunov(inst, prices)
            for size in range(len(inst.objects) + 1):
                for combo in itertools.combinations(inst.objects, size):
                    raised = lyapunov(inst, prices.raised(combo))
                    supply = sum(inst.supplies[i] for i in combo)
                    assert base - raised == overdemand(inst, prices, combo) - supply


class TestSteepestDescent:
    def test_fig1_at_zero(self, fig1):
        assert steepest_descent_bruteforce(fig1, PriceVector.zero(fig1)) == {"beta"}

    def test_at_equilibrium_the_empty_set_remains(self, fig1):
        prices = PriceVector({"alpha": 0, "beta": 1, "gamma": 0})
        assert steepest_descent_bruteforce(fig1, prices) == frozenset()

    def test_three_buyers_at_zero(self, three_buyers):
        assert steepest_descent_bruteforce(three_buyers, PriceVector.zero(three_buyers)) == {
            "alpha"
        }

    def test_budget(self):
        supplies = {f"o{k}": 1 for k in range(20)}
        inst = validate_instance(supplies, {}, {})
        with pytest.raises(BudgetExceededError):
            steepest_descent_bruteforce(inst, PriceVector.zero(inst))

    def test_matches_leftmost_cut_along_auction(self):
        rng = random.Random(37)
        for _ in range(50):
            inst = random_instance(rng)
            _, trace = price_raising(inst)
            for rec in trace.iterations:
                prices = PriceVector(dict(rec.prices))
                assert steepest_descent_bruteforce(inst, prices) == frozenset(rec.raised)

    def test_potential_strictly_decreases_while_not_competitive(self):
        rng = random.Random(41)
        for _ in range(50):
            inst = random_instance(rng)
            final, trace = price_raising(inst)
            values = [
                lyapunov(inst, PriceVector(dict(rec.prices))) for rec in trace.iterations
            ]
            values.append(lyapunov(inst, final))
            for before, after in zip(values, values[1:]):
                assert after < before


def reference_is_feasible(allocation, instance):
    """``Allocation.is_feasible`` as it was, summing per object and buyer."""
    for (i, j), q in allocation.quantities.items():
        if q < 0 or i not in instance.supplies or j not in instance.demands:
            return False
    return all(
        allocation.sold_of(i) <= instance.supplies[i] for i in instance.objects
    ) and all(allocation.bought_by(j) <= instance.demands[j] for j in instance.buyers)


def reference_check_equilibrium(instance, prices, allocation):
    """``check_equilibrium`` as it was, looking up every buyer x object pair."""
    feasible = reference_is_feasible(allocation, instance)
    stable = {}
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


def random_allocation(rng, instance, base):
    """``base``'s quantities, each kept or redrawn, plus random entries;
    now and then one of a negative amount or for an unknown object or
    buyer, in shuffled order."""
    objects = [*instance.objects, "ghost"]
    buyers = [*instance.buyers, "stranger"]
    quantities = {key: q if rng.random() < 0.8 else rng.randint(0, 3) for key, q in base.items()}
    for _ in range(rng.randint(0, 2)):
        i = rng.choice(objects) if rng.random() < 0.1 else rng.choice(instance.objects)
        j = rng.choice(buyers) if rng.random() < 0.1 else rng.choice(instance.buyers)
        quantities[(i, j)] = rng.randint(-1, 3) if rng.random() < 0.2 else rng.randint(0, 3)
    keys = list(quantities)
    rng.shuffle(keys)
    return Allocation({key: quantities[key] for key in keys})


class TestCheckEquilibrium:
    def test_example1_passes(self, example1):
        eq = solve(example1)
        report = check_equilibrium(example1, eq.prices, eq.allocation)
        assert report.overall
        assert report.quantity_sold == report.expected_quantity == 2

    def test_suboptimal_bundle_flagged(self, example1):
        report = check_equilibrium(
            example1, PriceVector.zero(example1), Allocation({("beta", "b1"): 1})
        )
        assert report.stable == {"b1": False}
        assert not report.overall

    def test_infeasible_allocation_reported_not_raised(self, example1):
        report = check_equilibrium(
            example1, PriceVector.zero(example1), Allocation({("alpha", "b1"): 5})
        )
        assert not report.feasible
        assert not report.overall

    def test_one_pass_equals_the_pair_by_pair_definition(self):
        """On random allocations, at the minimum prices or at random ones,
        ``check_equilibrium`` and ``Allocation.is_feasible`` equal their
        old definitions, ``stable`` in the same order.  The allocations
        start from the solver's and are varied, so the sweep meets
        equilibria and every kind of infeasibility."""
        rng = random.Random(71)
        seen = dict.fromkeys(("overall", "unknown", "negative", "oversold", "overbought"), 0)
        for k in range(1600):
            inst = random_instance(rng, max_objects=4, max_buyers=4)
            eq = solve(inst)
            prices = eq.prices if k % 2 else random_prices(rng, inst)
            allocation = random_allocation(rng, inst, eq.allocation.quantities)
            report = check_equilibrium(inst, prices, allocation)
            expected = reference_check_equilibrium(inst, prices, allocation)
            assert report == expected and list(report.stable) == list(expected.stable)
            assert allocation.is_feasible(inst) == expected.feasible
            items = allocation.quantities.items()
            seen["overall"] += report.overall
            seen["unknown"] += any(i not in inst.supplies or j not in inst.demands for (i, j), _ in items)
            seen["negative"] += any(q < 0 for q in allocation.quantities.values())
            seen["oversold"] += any(allocation.sold_of(i) > inst.supplies[i] for i in inst.objects)
            seen["overbought"] += any(allocation.bought_by(j) > inst.demands[j] for j in inst.buyers)
        assert min(seen.values()) >= 50, seen

    def test_three_buyers_clauses(self, three_buyers):
        eq = solve(three_buyers)
        report = check_equilibrium(three_buyers, eq.prices, eq.allocation)
        assert report.overall
        assert report.quantity_sold == 5
        assert report.positive_price_sellout


class TestMonotonicity:
    def test_demand_bump_drives_prices_to_valuations(self, m_example):
        base, bumped = m_example
        p_old = solve(base).prices
        p_new = solve(bumped).prices
        assert p_old.as_dict() == {"x": 0, "y": 0}
        assert p_new.as_dict() == {"x": 5, "y": 5}
        assert check_monotonicity_pair(base, bumped, p_old, p_new)

    def test_identical_instances(self, fig1):
        prices = solve(fig1).prices
        assert check_monotonicity_pair(fig1, fig1, prices, prices)

    def test_zeroed_supply_excluded_from_comparison(self):
        inst = validate_instance(
            {"x": 1, "y": 1}, {"u": 1}, {"u": {"x": 3, "y": 2}}
        )
        chopped = validate_instance(
            {"x": 0, "y": 1}, {"u": 1}, {"u": {"x": 3, "y": 2}}
        )
        p_old = solve(inst).prices
        p_new = solve(chopped).prices
        assert check_monotonicity_pair(inst, chopped, p_old, p_new)

    def test_invalid_pair_rejected(self, fig1, example1):
        prices = PriceVector.zero(fig1)
        with pytest.raises(PerturbationError):
            check_monotonicity_pair(fig1, example1, prices, PriceVector.zero(example1))
        shrunk = validate_instance(
            {"alpha": 1, "beta": 1, "gamma": 4},
            {"j1": 3, "j2": 2},
            {"j1": {"alpha": 3, "beta": 2, "gamma": 1}, "j2": {"beta": 2}},
        )
        with pytest.raises(PerturbationError, match="demand"):
            check_monotonicity_pair(fig1, shrunk, prices, prices)

    def test_random_perturbations(self):
        rng = random.Random(47)
        for _ in range(40):
            inst = random_instance(rng)
            p_old = solve(inst).prices
            perturbed, change = perturb_instance(rng, inst)
            p_new = solve(perturbed).prices
            assert check_monotonicity_pair(inst, perturbed, p_old, p_new), change

    def test_warm_restart_from_old_prices(self):
        rng = random.Random(53)
        for _ in range(40):
            inst = random_instance(rng)
            p_old = solve(inst).prices
            perturbed, _ = perturb_instance(rng, inst)
            cold = solve(perturbed).prices
            warm, _ = price_raising(perturbed, SolveOptions(start_prices=p_old))
            assert warm == cold


class TestOracleEquivalence:
    def test_auction_equals_bruteforce_on_fixtures(self, example1, fig1, three_buyers):
        for inst in (example1, fig1, three_buyers):
            auction_prices, _ = price_raising(inst)
            assert auction_prices == min_competitive_bruteforce(inst)

    def test_m_example_pair(self, m_example):
        base, bumped = m_example
        assert min_competitive_bruteforce(base).as_dict() == {"x": 0, "y": 0}
        assert min_competitive_bruteforce(bumped).as_dict() == {"x": 5, "y": 5}

    def test_balanced_instance_solves_to_the_same_prices(self):
        from flowauction.model import DUMMY_OBJECT, balance_instance

        rng = random.Random(61)
        for _ in range(40):
            inst = random_instance(rng)
            balanced = balance_instance(inst)
            raw_prices, _ = price_raising(inst)
            balanced_prices, _ = price_raising(balanced)
            assert all(raw_prices[i] == balanced_prices[i] for i in inst.objects)
            if DUMMY_OBJECT in balanced.objects:
                assert balanced_prices[DUMMY_OBJECT] == 0
