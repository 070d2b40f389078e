"""The benchmark's answer checks, run on every benchmark market.

``perfbench/run.py`` reports ``correct: false`` when an answer fails these
checks.  Running the same checks here makes such a solver change fail the
test suite, without a timed benchmark run.  Only the market builders and
the checks are imported, without writing bytecode next to them; ``run.py``
re-executes itself and is never imported.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

import flowauction
import flowauction.verify  # noqa: F401  (the market builders read flowauction.verify)
from flowauction.auction import SolveOptions, solve

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CONFIGS = [(mode, warm) for mode in ("unit", "adapted") for warm in (True, False)]


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


markets, checks = load("markets"), load("checks")


@pytest.mark.parametrize("workload", sorted(markets.WORKLOADS))
def test_every_configuration_passes_the_benchmark_checks(workload):
    for market in markets.WORKLOADS[workload](flowauction, random.Random(1)):
        reference = checks.reference_prices(flowauction, market)
        for mode, warm in CONFIGS:
            options = SolveOptions(mode=mode, warm_start=warm, start_prices=market.start)
            equilibrium = solve(market.instance, options)
            prices, quantities = equilibrium.prices.as_dict(), dict(equilibrium.allocation.quantities)
            errors = checks.answer_errors(market, reference, prices, quantities)
            assert errors == [], (market.name, mode, warm)
