"""Command-line frontend: solve, verify, brute, monotone, duplicate-demo.

All JSON output is canonical (sorted keys, two-space indent) so golden-file
comparisons are byte-stable.  Exit codes: 0 success, 1 parse or input
error, 2 verification failure, 3 enumeration or record budget
exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import replace

from . import flow as flownet
from .auction import MODES, AuctionError, SolveOptions, first_prices, price_raising, solve
from .model import AuctionTrace, Instance, InstanceError, PriceVector, duplicate_instance, load_instance, read_json
from .verify import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    _grid_minimum,
    check_equilibrium,
    check_monotonicity_pair,
    hall_check,
    is_competitive_flowcheck,
    min_competitive_bruteforce,
    perturb_instance,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VERIFY = 2
EXIT_BUDGET = 3

DEFAULT_SEED = 7


class CliParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliParseError(message)


def _emit(payload: object) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _count(text: str) -> int:
    """An integer argument that counts something, so at least 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 0, got {text!r}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="flowauction", description=__doc__)
    verbs = parser.add_subparsers(dest="verb", required=True)

    solver_flags = {
        "--mode": {"choices": MODES},
        "--warm-start": {
            "action": argparse.BooleanOptionalAction,
            "help": "reuse the previous iteration's flow (default on)",
        },
        "--start-prices": {"metavar": "FILE", "help": "JSON object-to-price mapping"},
    }

    def verb(name: str, handler, *flags: str) -> argparse.ArgumentParser:
        """A verb's parser with the solver flags whose effect its output
        shows; one without a flag solves at that option's default."""
        sub = verbs.add_parser(name)
        sub.set_defaults(handler=handler, mode=SolveOptions.mode, warm_start=SolveOptions.warm_start)
        sub.add_argument("instance", help="path to a JSON instance file")
        for flag in flags:
            sub.add_argument(flag, **solver_flags[flag])
        return sub

    solve_verb = verb("solve", _cmd_solve, *solver_flags)
    solve_verb.add_argument("--trace", metavar="FILE", help="write the iteration trace as JSON")
    solve_verb.add_argument(
        "--dump-network", metavar="FILE", help="write the demand network at the first prices and its max flow"
    )
    for sub in (verb("verify", _cmd_verify, "--mode", "--start-prices"), verb("brute", _cmd_brute)):
        sub.add_argument("--budget", type=_count, default=DEFAULT_BUDGET)
    monotone = verb("monotone", _cmd_monotone, "--start-prices")
    monotone.add_argument("--seed", type=int, default=DEFAULT_SEED)
    monotone.add_argument("--pairs", type=_count, default=200, help="number of perturbations to sweep")
    verb("duplicate-demo", _cmd_duplicate_demo, "--start-prices")
    return parser


def _options(args, instance: Instance) -> SolveOptions:
    start = None
    if args.start_prices:
        raw = read_json(args.start_prices)
        if not isinstance(raw, dict):
            raise InstanceError(f"{args.start_prices}: expected a JSON object")
        start = PriceVector.for_instance(instance, raw)
    return SolveOptions(mode=args.mode, warm_start=args.warm_start, start_prices=start)


def _final_payload(equilibrium) -> dict:
    return {
        "prices": equilibrium.prices.as_dict(),
        "allocation": equilibrium.allocation.to_nested(),
        "iterations": equilibrium.trace.record_count,
        "oracle_calls": equilibrium.trace.oracle_calls,
    }


def trace_records(trace: AuctionTrace) -> list[dict]:
    """Iteration records in the documented JSON layout; a trace of more than
    ``DEFAULT_BUDGET`` records raises :class:`BudgetExceededError` before
    any is built."""
    if trace.record_count > DEFAULT_BUDGET:
        raise BudgetExceededError(
            f"the trace would hold {trace.record_count} records, beyond the budget of {DEFAULT_BUDGET}"
        )
    return [
        {
            "iter": record.index,
            "prices": record.prices,
            "raised_set": list(record.raised),
            "cut_nodes": list(record.cut_nodes),
            "alpha": record.step,
            "flow_value": record.flow_value,
            "cap_s": record.cap_s,
            "handoff_gap": record.handoff_gap,
        }
        for record in trace.iterations
    ]


def _write_files(texts: dict[str, str]) -> None:
    """Write each text to its path so that a run whose writes fail changes
    no regular file.  A path that resolves to a regular file, or to nothing
    yet, is written under a temporary name beside the file it resolves to,
    and these are moved into place only once every write has succeeded.
    Any other path (a device such as /dev/null, or a pipe) is written in
    place before the moves; a directory fails there."""
    moves: list[tuple[str, str]] = []
    in_place: list[tuple[str, str]] = []
    try:
        for n, (path, text) in enumerate(texts.items()):
            real = os.path.realpath(path)
            if os.path.exists(real) and not os.path.isfile(real):
                in_place.append((path, text))
                continue
            temp = f"{real}.{os.getpid()}.{n}.tmp"
            try:
                with open(temp, "x", encoding="utf-8") as handle:
                    moves.append((temp, real))
                    handle.write(text)
            except OSError as exc:
                exc.filename = path  # name the file asked for, not the temporary one
                raise
        for path, text in in_place:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        while moves:
            os.replace(*moves[0])
            moves.pop(0)
    finally:
        for temp, _ in moves:
            os.remove(temp)


def _cmd_solve(args) -> int:
    if args.trace and args.dump_network:
        real = os.path.realpath(args.trace)
        same = real == os.path.realpath(args.dump_network)
        if same and (os.path.isfile(real) or not os.path.exists(real)):
            raise CliParseError(f"--trace and --dump-network name the same file: {real}")
    instance = load_instance(args.instance)
    options = _options(args, instance)
    first = first_prices(instance, options.start_prices)
    if any(first.prices.values()):
        print(
            "warning: nonzero start prices are only sound below the minimum "
            "competitive prices; use the verify command to check the result",
            file=sys.stderr,
        )
    equilibrium = solve(instance, options)
    final = _final_payload(equilibrium)
    # The records are built, and their budget checked, before any file is written.
    records = trace_records(equilibrium.trace) if args.trace else None
    texts: dict[str, str] = {}
    if args.dump_network:
        network = flownet.build_demand_network(instance, first)
        texts[args.dump_network] = flownet.dump_network(network, flownet.max_flow(network))
    if args.trace:
        payload = {"iterations": records, "final": final}
        texts[args.trace] = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write_files(texts)
    _emit(final)
    return EXIT_OK


def _cmd_brute(args) -> int:
    instance = load_instance(args.instance)
    prices = min_competitive_bruteforce(instance, budget=args.budget)
    _emit({"prices": prices.as_dict()})
    return EXIT_OK


def run_verification(instance: Instance, options: SolveOptions, grid_budget: int) -> dict:
    """Solve and run every checker; returns a machine-readable report."""
    equilibrium = solve(instance, options)
    prices = equilibrium.prices

    # The mode enters only the view of the climb, never the climb, so one
    # run in the other mode and the other warm setting checks both.
    other_mode = "adapted" if options.mode == "unit" else "unit"
    cross, _ = price_raising(instance, replace(options, mode=other_mode, warm_start=not options.warm_start))

    checks: list[dict] = []

    def record(name: str, claim: str, passed: bool | None, detail: str = "") -> None:
        entry = {"name": name, "claim": claim, "passed": passed}
        if passed is None:
            entry["skipped"] = True
        if detail:
            entry["detail"] = detail
        checks.append(entry)

    report = check_equilibrium(instance, prices, equilibrium.allocation)
    record(
        "stability",
        "every buyer's assigned bundle is feasible and payoff-maximal",
        report.feasible and all(report.stable.values()),
        "" if all(report.stable.values()) else f"unstable buyers: {[j for j, ok in report.stable.items() if not ok]}",
    )
    record(
        "market-clearing-quantity",
        "total quantity sold equals min(total supply, total demand)",
        report.quantity_sold == report.expected_quantity,
        f"sold {report.quantity_sold}, expected {report.expected_quantity}",
    )
    record(
        "positive-price-sellout",
        "every object with a positive price is completely sold",
        report.positive_price_sellout,
    )
    competitive = is_competitive_flowcheck(instance, prices)
    record(
        "competitive-flow-criterion",
        "the demand network at the final prices admits a saturating flow",
        competitive,
    )
    claim = "no object subset is overdemanded at the final prices"
    try:
        ok, violating = hall_check(instance, prices)
    except BudgetExceededError as exc:
        record("hall-condition", claim, None, str(exc))
    else:
        record("hall-condition", claim, ok, "" if ok else f"violating set: {list(violating)}")
    claim = "the auction prices equal the grid-enumerated minimum competitive prices"
    try:
        # Below competitive auction prices only their box is searched, on
        # the verdict just recorded.
        brute = _grid_minimum(instance, grid_budget, prices, competitive)
    except BudgetExceededError as exc:
        record("bruteforce-minimum-agreement", claim, None, str(exc))
    else:
        detail = f"auction {prices.as_dict()}, bruteforce {brute.as_dict()}"
        record("bruteforce-minimum-agreement", claim, brute == prices, detail)
    record(
        "unit-adapted-agreement",
        "unit-step and adapted-step modes return identical prices",
        cross == prices,
    )
    record(
        "warm-cold-agreement",
        "warm-started and cold-started runs return identical prices",
        cross == prices,
    )
    raises = equilibrium.trace.record_count
    first = first_prices(instance, options.start_prices)
    increase = max([0, *(prices[i] - first[i] for i in instance.objects)])
    # From start prices at most the minimum, unit mode takes exactly as many
    # raises as the largest increase (Murota-Shioura-Yang 2016).
    unit = options.mode == "unit"
    record(
        "iteration-bound",
        f"the number of price raises {'equals' if unit else 'is at most'} the largest price increase",
        raises == increase if unit else raises <= increase,
        f"{raises} raises, largest increase {increase}",
    )
    passed = all(entry["passed"] is not False for entry in checks)
    return {"passed": passed, "prices": prices.as_dict(), "checks": checks}


def _cmd_verify(args) -> int:
    instance = load_instance(args.instance)
    options = _options(args, instance)
    report = run_verification(instance, options, args.budget)
    _emit(report)
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def _cmd_monotone(args) -> int:
    instance = load_instance(args.instance)
    options = _options(args, instance)
    rng = random.Random(args.seed)
    base = solve(instance, options).prices
    failures = 0
    print(f"{'idx':>4}  {'kind':<7}  {'target':<16}  {'delta':>5}  result")
    for index in range(args.pairs):
        perturbed, change = perturb_instance(rng, instance)
        new_prices = solve(perturbed, SolveOptions()).prices
        ok = check_monotonicity_pair(instance, perturbed, base, new_prices)
        if not ok:
            failures += 1
        print(
            f"{index:>4}  {change.kind:<7}  {change.target:<16}  {change.amount:>+5}  "
            f"{'pass' if ok else 'FAIL'}"
        )
    print(f"{args.pairs - failures}/{args.pairs} passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def _cmd_duplicate_demo(args) -> int:
    instance = load_instance(args.instance)
    # The duplicated market holds a value per unit copy and unit buyer.
    supply, demand = instance.total_supply, instance.total_demand
    if (supply + 1) * (demand + 1) > DEFAULT_BUDGET:
        raise BudgetExceededError(
            f"duplicating supply {supply} and demand {demand} exceeds budget {DEFAULT_BUDGET}"
        )
    options = _options(args, instance)
    original = solve(instance, options)
    # The start prices name the original objects: the copies start at 0.
    duplicated = solve(duplicate_instance(instance), SolveOptions())
    _emit(
        {
            "original": {
                "prices": original.prices.as_dict(),
                "allocation": original.allocation.to_nested(),
            },
            "duplicated": {
                "prices": duplicated.prices.as_dict(),
                "allocation": duplicated.allocation.to_nested(),
            },
        }
    )
    return EXIT_OK


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.handler(args)
    except (CliParseError, InstanceError, OSError, AuctionError) as exc:
        message = str(exc)
        if isinstance(exc, AuctionError) and getattr(args, "start_prices", None):
            # From start prices at most the minimum competitive prices the
            # market clears, so the fault lies with these start prices.
            message = f"the start prices in {args.start_prices} are above the minimum competitive prices"
        print(f"error: {message}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
