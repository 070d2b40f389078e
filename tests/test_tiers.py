import random

import pytest
from hypothesis import given, settings, strategies as st

from flowauction.model import PriceVector, validate_instance
from flowauction.tiers import (
    TierReport,
    indirect_utility,
    next_breakpoint,
    preferred_bundle,
    tier_report,
    tier_reports,
)
from flowauction.verify import (
    BudgetExceededError,
    best_bundle_payoff,
    random_instance,
    random_prices,
)


@st.composite
def instance_and_prices(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    supplies = {f"o{k}": draw(st.integers(0, 3)) for k in range(m)}
    demands = {f"b{k}": draw(st.integers(0, 3)) for k in range(n)}
    valuations = {j: {i: draw(st.integers(0, 4)) for i in supplies} for j in demands}
    inst = validate_instance(supplies, demands, valuations)
    prices = PriceVector({i: draw(st.integers(0, 5)) for i in inst.objects})
    return inst, prices


def bundle_payoff(instance, buyer, prices, bundle):
    return sum(instance.payoff(i, buyer, prices) * q for i, q in bundle.items())


class TestPreferredBundle:
    def test_fig1_first_buyer_at_zero(self, fig1):
        bundle, last = preferred_bundle(fig1, "j1", PriceVector.zero(fig1))
        assert bundle == {"alpha": 1, "beta": 1, "gamma": 2}
        assert last == "gamma"

    def test_no_positive_payoff_gives_empty_bundle(self, fig1):
        prices = PriceVector({"alpha": 3, "beta": 2, "gamma": 1})
        bundle, last = preferred_bundle(fig1, "j1", prices)
        assert bundle == {}
        assert last is None

    def test_tie_resolved_by_canonical_order(self, three_buyers):
        # payoffs (1, 1): canonical order puts alpha first, supply covers it
        bundle, last = preferred_bundle(three_buyers, "b1", PriceVector({"alpha": 2, "beta": 0}))
        assert bundle == {"alpha": 2}
        assert last == "alpha"
        assert bundle_payoff(three_buyers, "b1", PriceVector({"alpha": 2, "beta": 0}), bundle) == (
            best_bundle_payoff(three_buyers, "b1", PriceVector({"alpha": 2, "beta": 0}))
        )


class TestTierReport:
    def test_fig1_second_buyer(self, fig1):
        report = tier_report(fig1, "j2", PriceVector.zero(fig1))
        assert report.above == ()
        assert report.at_margin == ("beta",)
        assert report.zero == ("alpha", "gamma")
        assert (report.demand_above, report.demand_at_margin) == (0, 1)
        assert report.demand_zero == 1

    def test_fig1_first_buyer(self, fig1):
        report = tier_report(fig1, "j1", PriceVector.zero(fig1))
        assert report.above == ("alpha", "beta")
        assert report.at_margin == ("gamma",)
        assert report.zero == ()
        assert (report.demand_above, report.demand_at_margin, report.demand_zero) == (2, 2, 0)

    def test_all_zero_valuations(self):
        inst = validate_instance({"a": 2, "b": 3}, {"j": 4}, {"j": {}})
        report = tier_report(inst, "j", PriceVector.zero(inst))
        assert report.above == () and report.at_margin == ()
        assert report.zero == ("a", "b")
        assert report.demand_zero == min(5, 4)

    def test_zero_demand_buyer_reports_empty_tiers(self):
        inst = validate_instance({"a": 2}, {"j": 0}, {"j": {"a": 4}})
        report = tier_report(inst, "j", PriceVector.zero(inst))
        assert report == tier_report(inst, "j", PriceVector({"a": 1}))
        assert report.above == report.at_margin == report.zero == ()
        assert (report.demand_above, report.demand_at_margin, report.demand_zero) == (0, 0, 0)


class TestIndirectUtility:
    def test_fig1_first_buyer(self, fig1):
        prices = PriceVector.zero(fig1)
        assert indirect_utility(fig1, "j1", prices) == 7
        assert best_bundle_payoff(fig1, "j1", prices) == 7

    def test_priced_out_buyer(self, fig1):
        prices = PriceVector({"alpha": 9, "beta": 9, "gamma": 9})
        assert indirect_utility(fig1, "j1", prices) == 0

    def test_example1(self, example1):
        prices = PriceVector.zero(example1)
        assert indirect_utility(example1, "b1", prices) == 6
        assert best_bundle_payoff(example1, "b1", prices) == 6


@settings(max_examples=150, deadline=None)
@given(instance_and_prices())
def test_greedy_bundle_is_optimal(data):
    inst, prices = data
    for j in inst.buyers:
        bundle, _ = preferred_bundle(inst, j, prices)
        assert bundle_payoff(inst, j, prices, bundle) == best_bundle_payoff(inst, j, prices)
        assert indirect_utility(inst, j, prices) == best_bundle_payoff(inst, j, prices)


@settings(max_examples=150, deadline=None)
@given(instance_and_prices())
def test_report_invariants(data):
    inst, prices = data
    for j in inst.buyers:
        report = tier_report(inst, j, prices)
        bundle, last = preferred_bundle(inst, j, prices)
        assert set(report.above).isdisjoint(report.at_margin)
        assert set(report.above).isdisjoint(report.zero)
        assert set(report.at_margin).isdisjoint(report.zero)
        assert report.demand_above + report.demand_at_margin <= inst.demands[j]
        assert (last is None) == (not report.at_margin)
        assert report.at_margin or not report.above
        assert all(inst.payoff(i, j, prices) > 0 for i in report.at_margin)
        # the minimal bundle buys exactly the above-margin and at-margin amounts
        assert sum(bundle.values()) == report.demand_above + report.demand_at_margin


def shuffled_greedy(instance, buyer, prices, rng):
    """Greedy construction over the objects in supply under a random
    payoff-monotone tie-break order."""
    ranked = sorted(
        (i for i in instance.objects if instance.supplies[i]),
        key=lambda i: (-instance.payoff(i, buyer, prices), rng.random()),
    )
    residual = instance.demands[buyer]
    last = None
    for obj in ranked:
        if residual <= 0 or instance.payoff(obj, buyer, prices) <= 0:
            break
        residual -= min(instance.supplies[obj], residual)
        last = obj
    return last


@settings(max_examples=100, deadline=None)
@given(instance_and_prices(), st.integers(0, 2**30))
def test_tiers_independent_of_tie_breaking(data, seed):
    inst, prices = data
    rng = random.Random(seed)
    for j in inst.buyers:
        report = tier_report(inst, j, prices)
        last = shuffled_greedy(inst, j, prices, rng)
        if last is None:
            assert report.above == report.at_margin == ()
            continue
        margin = inst.payoff(last, j, prices)
        supplied = [i for i in inst.objects if inst.supplies[i]]
        assert set(report.above) == {i for i in supplied if inst.payoff(i, j, prices) > margin}
        assert set(report.at_margin) == {i for i in supplied if inst.payoff(i, j, prices) == margin}


def network_fields(report):
    """The part of a tier report that the demand network reads."""
    return report.above, report.at_margin, report.demand_above, report.demand_at_margin


@settings(max_examples=200, deadline=None)
@given(instance_and_prices(), st.data())
def test_report_constant_up_to_next_breakpoint(data, draw):
    inst, prices = data
    raised = draw.draw(st.sets(st.sampled_from(inst.objects), min_size=1))
    t0 = draw.draw(st.integers(0, 6))
    # Beyond v_max + 1 every raised object is priced out, so fields that
    # never change again are checked over that whole range.
    horizon = inst.max_valuation + 2
    start = prices.raised(raised, t0)
    for j in inst.buyers:
        report = tier_report(inst, j, start)
        step = next_breakpoint(inst, j, start, raised, report)
        assert step is None or step > 0
        stop = None if step is None else t0 + step
        fields = network_fields(report)
        for t in range(t0, horizon if stop is None else stop):
            assert network_fields(tier_report(inst, j, prices.raised(raised, t))) == fields
        if stop is not None:
            assert network_fields(tier_report(inst, j, prices.raised(raised, stop))) != fields


def breakpoints(inst, buyer, prices, raised):
    points = [0]
    while True:
        at = prices.raised(raised, points[-1])
        t = next_breakpoint(inst, buyer, at, raised, tier_report(inst, buyer, at))
        if t is None:
            return points
        points.append(points[-1] + t)


def test_breakpoints_are_payoff_crossings():
    inst = validate_instance({"a": 1, "b": 1}, {"x": 1}, {"x": {"a": 5, "b": 4}})
    prices = PriceVector.zero(inst)
    # a ties b at the margin at a raise of 1 and falls below it at 2; from
    # then on b alone is the margin.  a reaching 0 at 5 and falling below 0
    # at 6 moves only the zero tier, which the demand network does not read.
    assert breakpoints(inst, "x", prices, {"a"}) == [0, 1, 2]
    zero_demand = validate_instance({"a": 1}, {"x": 0}, {"x": {"a": 5}})
    assert breakpoints(zero_demand, "x", PriceVector.zero(zero_demand), {"a"}) == [0]


def reference_report(instance, buyer, prices):
    """A tier report by its definition: rank the objects in supply by
    payoff, ties in canonical order, walk the greedy to find the margin,
    then compare every object in supply with it."""
    demand = instance.demands[buyer]
    if demand == 0:
        return TierReport((), (), (), 0, 0, 0), None
    payoff = {i: instance.valuations[(i, buyer)] - prices[i] for i in instance.objects}
    supply = instance.supplies
    supplied = [i for i in instance.objects if supply[i] > 0]
    ranked = sorted(supplied, key=lambda i: (-payoff[i], instance.objects.index(i)))
    residual, last = demand, None
    for i in ranked:
        if residual == 0 or payoff[i] <= 0:
            break
        residual -= min(supply[i], residual)
        last = i
    margin = None if last is None else payoff[last]
    above = tuple(i for i in supplied if margin is not None and payoff[i] > margin)
    at_margin = tuple(i for i in supplied if payoff[i] == margin)
    zero = tuple(i for i in supplied if payoff[i] == 0)
    d_above = sum(supply[i] for i in above)
    d_margin = min(sum(supply[i] for i in at_margin), demand - d_above)
    d_zero = min(sum(supply[i] for i in zero), demand - d_above - d_margin)
    return TierReport(above, at_margin, zero, d_above, d_margin, d_zero), last


def test_tier_oracle_sweep_matches_the_reference():
    """``tier_report`` equals the definition on 1800 seeded markets and
    prices, and the greedy bundle is payoff-maximal on them."""
    rng = random.Random(71)
    seen = dict.fromkeys(
        ("unsupplied object", "zero demand", "tie at the margin", "no positive payoff"), 0
    )
    enumerated = 0
    for k in range(1800):
        inst = random_instance(rng, max_objects=4, max_buyers=4, max_value=(4, 30, 300)[k % 3])
        prices = random_prices(rng, inst)
        seen["unsupplied object"] += 0 in inst.supplies.values()
        for j in inst.buyers:
            expected, last = reference_report(inst, j, prices)
            report = tier_report(inst, j, prices)
            bundle, bundle_last = preferred_bundle(inst, j, prices)
            assert report == expected, (inst, prices, j)
            assert bundle_last == last
            seen["zero demand"] += inst.demands[j] == 0
            seen["tie at the margin"] += len(report.at_margin) > 1
            seen["no positive payoff"] += inst.demands[j] > 0 and last is None
            try:
                best = best_bundle_payoff(inst, j, prices)
            except BudgetExceededError:
                continue
            assert bundle_payoff(inst, j, prices, bundle) == best
            assert indirect_utility(inst, j, prices) == best
            enumerated += 1
    assert all(count > 0 for count in seen.values()), seen
    assert enumerated > 1500


def test_batch_oracle_sweep_matches_the_reference():
    """``tier_reports`` equals the definition, buyer by buyer, on 1800
    seeded markets and prices: for every buyer at once, for a random
    subset in random order, and one buyer at a time as ``tier_report``.
    The sweep holds one-object markets, buyers without demand, objects
    without supply and ties at the margin."""
    rng = random.Random(83)
    seen = dict.fromkeys(
        ("one object", "zero demand", "unsupplied object", "tie at the margin"), 0
    )
    for k in range(1800):
        inst = random_instance(rng, max_objects=4, max_buyers=4, max_value=(4, 30, 300)[k % 3])
        prices = random_prices(rng, inst)
        expected = {j: reference_report(inst, j, prices)[0] for j in inst.buyers}
        reports = tier_reports(inst, inst.buyers, prices)
        assert list(reports) == list(inst.buyers) and reports == expected, (inst, prices)
        some = rng.sample(inst.buyers, rng.randint(0, len(inst.buyers)))
        assert list(tier_reports(inst, some, prices).items()) == [(j, expected[j]) for j in some]
        assert {j: tier_report(inst, j, prices) for j in inst.buyers} == expected
        seen["one object"] += len(inst.objects) == 1
        seen["zero demand"] += 0 in inst.demands.values()
        seen["unsupplied object"] += 0 in inst.supplies.values()
        seen["tie at the margin"] += any(len(r.at_margin) > 1 for r in reports.values())
    assert all(count > 50 for count in seen.values()), seen
