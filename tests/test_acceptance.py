"""Acceptance suite: every criterion runs at its stated tolerance (exact
integer equality throughout) and prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import json
import random
import time
from dataclasses import dataclass

import pytest

from flowauction.auction import SolveOptions, price_raising, solve
from flowauction.cli import run
from flowauction.flow import build_demand_network, dump_network
from flowauction.model import Instance, PriceVector, validate_instance
from flowauction.verify import (
    check_equilibrium,
    check_monotonicity_pair,
    hall_check,
    is_competitive_flowcheck,
    min_competitive_bruteforce,
    perturb_instance,
    random_instance,
    random_prices,
    steepest_descent_bruteforce,
)
from conftest import carried_gaps, price_pressure_pair

SUITE_SEED = 20240901
SUITE_SIZE = 500
MONOTONE_SEED = 777
MONOTONE_PAIRS = 200
HALL_SEED = 4242
HALL_PAIRS = 1000

FIG1_GOLDEN_DUMP = """\
s -> j1' [2, 0]
s -> j1'' [2, 0]
s -> j2' [0, 0]
s -> j2'' [1, 0]
j1' -> alpha [1, 0]
j1' -> beta [1, 0]
j1'' -> gamma [2, 0]
j2'' -> beta [1, 0]
alpha -> t [1, 0]
beta -> t [1, 0]
gamma -> t [4, 0]
"""


def report(number, passed, description):
    print(f"ACCEPTANCE {number:02d} [{'PASS' if passed else 'FAIL'}] {description}")
    assert passed, f"criterion {number}: {description}"


@dataclass
class SuiteEntry:
    instance: Instance
    equilibrium: object
    unit_trace: object
    adapted_prices: PriceVector
    adapted_trace: object
    brute_prices: PriceVector


@pytest.fixture(scope="module")
def suite():
    started = time.monotonic()
    rng = random.Random(SUITE_SEED)
    entries = []
    for _ in range(SUITE_SIZE):
        instance = random_instance(rng, max_objects=3, max_buyers=3, max_supply=3, max_demand=3, max_value=4)
        equilibrium = solve(instance, SolveOptions(mode="unit"))
        adapted_prices, adapted_trace = price_raising(instance, SolveOptions(mode="adapted"))
        brute_prices = min_competitive_bruteforce(instance)
        entries.append(
            SuiteEntry(
                instance,
                equilibrium,
                equilibrium.trace,
                adapted_prices,
                adapted_trace,
                brute_prices,
            )
        )
    return entries, time.monotonic() - started


def test_criterion_01_example1_and_duplication(example1, tmp_path, capsys):
    started = time.monotonic()
    equilibrium = solve(example1)
    ok = equilibrium.prices.as_dict() == {"alpha": 0, "beta": 0}
    ok = ok and equilibrium.allocation.to_nested() == {"alpha": {"b1": 1}, "beta": {"b1": 1}}
    path = tmp_path / "example1.json"
    path.write_text(
        json.dumps(
            {
                "objects": [{"id": "alpha", "supply": 1}, {"id": "beta", "supply": 1}],
                "buyers": [{"id": "b1", "demand": 2, "valuations": {"alpha": 5, "beta": 1}}],
            }
        )
    )
    code = run(["duplicate-demo", str(path)])
    payload = json.loads(capsys.readouterr().out)
    ok = ok and code == 0
    ok = ok and payload["original"]["prices"] == {"alpha": 0, "beta": 0}
    ok = ok and payload["duplicated"]["prices"] == {"alpha#1": 4, "beta#1": 0}
    ok = ok and time.monotonic() - started < 1.0
    with capsys.disabled():
        report(1, ok, "single-buyer market solves to (0,0)/(1,1); duplication gives (4,0)")


def test_criterion_02_three_buyer_market(three_buyers, capsys):
    started = time.monotonic()
    equilibrium = solve(three_buyers)
    ok = equilibrium.prices.as_dict() == {"alpha": 2, "beta": 0}
    ok = ok and equilibrium.allocation.total == 5 == min(
        three_buyers.total_supply, three_buyers.total_demand
    )
    ok = ok and equilibrium.allocation.sold_of("alpha") == 3
    ok = ok and time.monotonic() - started < 1.0
    with capsys.disabled():
        report(2, ok, "three-buyer market solves to (2,0), sells 5, sells out alpha")


def test_criterion_03_network_construction(fig1, capsys):
    started = time.monotonic()
    prices = PriceVector.zero(fig1)
    network = build_demand_network(fig1, prices)
    ok = dump_network(network) == FIG1_GOLDEN_DUMP
    _, trace = price_raising(fig1)
    ok = ok and trace.iterations[0].raised == ("beta",)
    ok = ok and time.monotonic() - started < 1.0
    with capsys.disabled():
        report(3, ok, "demand network at zero prices matches the golden dump; first raise is beta")


def test_criterion_04_oracle_equivalence(suite, capsys):
    entries, elapsed = suite
    ok = len(entries) >= 500
    for entry in entries:
        ok = ok and entry.equilibrium.prices == entry.brute_prices
    ok = ok and elapsed < 60.0
    with capsys.disabled():
        report(
            4,
            ok,
            f"auction prices equal grid-enumerated minimum competitive prices on "
            f"{len(entries)} seeded instances ({elapsed:.1f}s)",
        )


def test_criterion_05_steepest_descent_equivalence(suite, capsys):
    entries, _ = suite
    ok = True
    iterations = 0
    for entry in entries:
        for record in entry.unit_trace.iterations:
            prices = PriceVector(dict(record.prices))
            descent = steepest_descent_bruteforce(entry.instance, prices)
            ok = ok and descent == frozenset(record.raised)
            iterations += 1
    with capsys.disabled():
        report(
            5,
            ok,
            f"left-most cut objects equal the minimal potential minimizer on "
            f"{iterations} iterations",
        )


def test_criterion_06_equilibrium_validity(suite, capsys):
    entries, _ = suite
    ok = True
    for entry in entries:
        result = check_equilibrium(
            entry.instance, entry.equilibrium.prices, entry.equilibrium.allocation
        )
        ok = ok and result.feasible and all(result.stable.values())
        ok = ok and result.quantity_sold == result.expected_quantity and result.positive_price_sellout
    with capsys.disabled():
        report(6, ok, f"stability, quantity, and sellout hold on all {len(entries)} solves")


def test_criterion_07_monotonicity(m_example, capsys):
    started = time.monotonic()
    base, bumped = m_example
    ok = solve(base).prices.as_dict() == {"x": 0, "y": 0}
    ok = ok and solve(bumped).prices.as_dict() == {"x": 5, "y": 5}
    rng = random.Random(MONOTONE_SEED)
    pairs = 0
    while pairs < MONOTONE_PAIRS:
        instance = random_instance(rng)
        perturbed, change = perturb_instance(rng, instance)
        if change.kind == "none":
            continue
        old_prices = solve(instance).prices
        new_prices = solve(perturbed).prices
        ok = ok and check_monotonicity_pair(instance, perturbed, old_prices, new_prices)
        pairs += 1
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60.0
    with capsys.disabled():
        report(
            7,
            ok,
            f"prices never fall on {pairs} perturbation pairs; demand bump drives (0,0) to (5,5) "
            f"({elapsed:.1f}s)",
        )


def test_criterion_08_iteration_bounds(suite, capsys):
    entries, _ = suite
    ok = True
    for entry in entries:
        final = entry.equilibrium.prices
        sup_norm = max(final.as_dict().values(), default=0)
        unit_iterations = len(entry.unit_trace.iterations) + 1
        adapted_iterations = len(entry.adapted_trace.iterations) + 1
        ok = ok and unit_iterations <= sup_norm + 1
        ok = ok and adapted_iterations <= unit_iterations
        ok = ok and entry.adapted_prices == final
    with capsys.disabled():
        report(8, ok, "iteration counts stay within the price bound; adapted never exceeds unit")


def test_criterion_09_flow_update_contracts(suite, capsys):
    entries, _ = suite
    ok = True
    carried = 0
    for entry in entries:
        # Each walk and each unit raise of the climb is replayed with its
        # max flow carried over; check_feasible raises on an infeasible carry.
        records = entry.unit_trace.walks + entry.unit_trace.iterations
        for record, gap in carried_gaps(entry.instance, records):
            ok = ok and gap <= record.cap_s - record.flow_value
            carried += 1
    with capsys.disabled():
        report(9, ok, f"updated flows stay feasible with non-increasing gap on {carried} raises")


def test_criterion_10_hall_flow_agreement(capsys):
    rng = random.Random(HALL_SEED)
    ok = True
    for _ in range(HALL_PAIRS):
        instance = random_instance(rng)
        prices = random_prices(rng, instance)
        network = build_demand_network(instance, prices)
        hall_ok, _ = hall_check(network)
        ok = ok and hall_ok == is_competitive_flowcheck(network)
    with capsys.disabled():
        report(10, ok, f"counting condition agrees with the flow criterion on {HALL_PAIRS} pairs")
