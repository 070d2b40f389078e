import itertools
import math
import random

import pytest

from flowauction.auction import SolveOptions, price_raising, solve
from flowauction.model import Allocation, InstanceError, PriceVector, validate_instance
from flowauction.tiers import tier_report
from flowauction.verify import (
    BudgetExceededError,
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
        the budget ends the search before the bound is checked."""
        import flowauction.verify as verify

        flowcheck, tried = verify.is_competitive_flowcheck, []

        def counted(instance, prices):
            tried.append(prices)
            return flowcheck(instance, prices)

        monkeypatch.setattr(verify, "is_competitive_flowcheck", counted)
        bound = PriceVector({"alpha": 3, "beta": 3, "gamma": 3})
        with pytest.raises(BudgetExceededError, match="^price grid of 64 vectors exceeds budget 10$"):
            min_competitive_bruteforce(fig1, budget=10, upper=bound)
        assert tried == []

    def test_box_below_a_competitive_bound_finds_the_grid_minimum(self, monkeypatch):
        """A competitive bound limits the search to the box under it; one
        that is not competitive leaves the whole grid to search."""
        import flowauction.verify as verify

        flowcheck, tried = verify.is_competitive_flowcheck, []

        def counted(instance, prices):
            tried.append(prices)
            return flowcheck(instance, prices)

        rng = random.Random(41)
        boxed = 0
        for _ in range(150):
            inst = random_instance(rng, max_objects=3, max_buyers=3)
            full = min_competitive_bruteforce(inst)
            grid = (inst.max_valuation + 2) ** len(inst.objects)
            bound = random_prices(rng, inst)
            monkeypatch.setattr(verify, "is_competitive_flowcheck", counted)
            tried.clear()
            assert min_competitive_bruteforce(inst, upper=bound) == full
            monkeypatch.setattr(verify, "is_competitive_flowcheck", flowcheck)
            if flowcheck(inst, bound):
                boxed += 1
                assert all(p[i] <= bound[i] for p in tried[1:-1] for i in inst.objects)
                assert len(tried) == 2 + math.prod(bound[i] + 1 for i in inst.objects)
            else:
                assert len(tried) == 2 + grid
        assert boxed >= 40


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
            _, trace = price_raising(inst)
            values = [
                lyapunov(inst, PriceVector(dict(rec.prices))) for rec in trace.iterations
            ]
            values.append(lyapunov(inst, PriceVector(dict(trace.final_prices))))
            for before, after in zip(values, values[1:]):
                assert after < before


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
