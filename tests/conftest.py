import random

import pytest

from flowauction import auction, tiers
from flowauction.model import validate_instance
from flowauction.verify import perturb_instance, random_instance


@pytest.fixture
def example1():
    """One buyer wanting two items, two unit-supply objects valued (5, 1)."""
    return validate_instance(
        {"alpha": 1, "beta": 1},
        {"b1": 2},
        {"b1": {"alpha": 5, "beta": 1}},
    )


@pytest.fixture
def fig1():
    """Two buyers, three objects; the worked network-construction market."""
    return validate_instance(
        {"alpha": 1, "beta": 1, "gamma": 4},
        {"j1": 4, "j2": 2},
        {"j1": {"alpha": 3, "beta": 2, "gamma": 1}, "j2": {"beta": 2}},
    )


@pytest.fixture
def three_buyers():
    """Three buyers, two objects; minimum prices are (2, 0)."""
    return validate_instance(
        {"alpha": 3, "beta": 2},
        {"b1": 2, "b2": 2, "b3": 1},
        {"b1": {"alpha": 3, "beta": 1}, "b2": {"alpha": 2}, "b3": {"beta": 1}},
    )


@pytest.fixture
def contested_single():
    """Two unit-demand buyers both valuing the single unit-supply object at 5."""
    return validate_instance(
        {"item": 1},
        {"u": 1, "v": 1},
        {"u": {"item": 5}, "v": {"item": 5}},
    )


def price_pressure_pair(m=5):
    """Two buyers, two objects, all values m; bumping one demand by one
    drives the minimum prices from (0, 0) to (m, m)."""
    base = validate_instance(
        {"x": 2, "y": 2},
        {"u": 2, "w": 2},
        {"u": {"x": m, "y": m}, "w": {"x": m, "y": m}},
    )
    bumped = validate_instance(
        {"x": 2, "y": 2},
        {"u": 3, "w": 2},
        {"u": {"x": m, "y": m}, "w": {"x": m, "y": m}},
    )
    return base, bumped


#: Two unit-supply objects and three unit-demand buyers with values near
#: 10^9, as an instance file: the minimum prices are (10^9, 10^9 - 1).
HUGE_VALUES = {
    "objects": [{"id": "a", "supply": 1}, {"id": "b", "supply": 1}],
    "buyers": [
        {"id": "u", "demand": 1, "valuations": {"a": 10**9, "b": 10**9 - 1}},
        {"id": "v", "demand": 1, "valuations": {"a": 10**9, "b": 10**9 - 3}},
        {"id": "w", "demand": 1, "valuations": {"a": 10**9 - 2, "b": 10**9}},
    ],
}


@pytest.fixture
def m_example():
    return price_pressure_pair(5)


def seeded_rng(seed=20240901):
    return random.Random(seed)


def pinned_markets():
    """The seeded sweep the pinned digests are taken over: 400 small
    markets, each with a perturbed twin."""
    rng = random.Random(2026)
    for k in range(400):
        base = random_instance(rng, max_objects=4, max_buyers=4, max_value=(6, 30, 300)[k % 3])
        twin, _ = perturb_instance(rng, base)
        yield base, twin


def check_carried_breakpoints(monkeypatch, markets):
    """Solve each (instance, start prices) pair in every configuration twice:
    as the solver does, with every breakpoint a walk carries over, as a
    level of the total raise, checked against a fresh ``next_breakpoint``
    on a fresh report at the walk's prices, and once more with nothing
    carried, so that every walk asks every buyer.  The prices, allocation,
    walks and ``oracle_calls`` of the two climbs must be equal.  Returns
    the number of carried breakpoints checked and the number of walks on
    a new cut that carried some breakpoint over the cut change, and so
    asked fewer than every buyer."""
    walk = auction._step_length
    carry = True
    checked = across = 0
    held = None

    def checked_walk(instance, network, reports, raised, levels, climbed):
        nonlocal checked, across, held
        if not carry:
            levels.clear()
        for j, level in levels.items():
            report = tiers.tier_report(instance, j, network.prices)
            t = tiers.next_breakpoint(instance, j, network.prices, raised, report)
            assert level == (None if t is None else climbed + t)
            checked += 1
        across += carry and held is not None and raised != held and bool(levels)
        held = raised
        return walk(instance, network, reports, raised, levels, climbed)

    monkeypatch.setattr(auction, "_step_length", checked_walk)
    for instance, start in markets:
        for mode in ("unit", "adapted"):
            for warm in (True, False):
                outputs = []
                for carry in (True, False):
                    held = None
                    options = auction.SolveOptions(mode=mode, warm_start=warm, start_prices=start)
                    equilibrium = auction.solve(instance, options)
                    allocation = list(equilibrium.allocation.quantities.items())
                    trace = equilibrium.trace
                    outputs.append((equilibrium.prices, allocation, trace.walks, trace.oracle_calls))
                assert outputs[0] == outputs[1]
    return checked, across
