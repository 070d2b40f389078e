"""Seeded benchmark of flowauction's ``solve`` and ``verify`` operations.

Run from the repository root:

    python3 perfbench/run.py --workload dense --seed 1 --seconds 40 --trace 0

It imports ``flowauction`` from ``src/``, builds the workload's markets (the
seed draws the order of their objects and buyers), then runs passes until ``--seconds`` have gone by.  A pass runs
each operation (``solve`` in its four configurations, then
``cli.run_verification``) once on every market of the workload, timing the
whole market set.  Each timed call is followed by a fixed reference
computation (``pace.py``), and the call's seconds are scaled to the speed
that computation shows, so that the machine's changes of speed cancel.
The first pass is a discarded warm-up whose answers are
checked in full; every later answer must equal it.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  The same object, plus every pass's timings, is written to
``perfbench/out/``.
"""

from __future__ import annotations

import os
import sys

# String hashing decides the probe sequences of the solver's tuple-keyed
# dicts; with a random hash seed the same run varies by about 10 % from one
# process to the next.  Re-executing in place starts no second process.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})

import argparse
import functools
import gc
import importlib
import json
import random
import resource
import statistics
from pathlib import Path
from time import perf_counter

import checks
import layers
import markets
import pace

SRC = Path.cwd() / "src"
OUT = Path(__file__).resolve().parent / "out"
OPS = layers.ALL_OPS
CONFIGS = {
    "unit-warm": ("unit", True),
    "unit-cold": ("unit", False),
    "adapted-warm": ("adapted", True),
    "adapted-cold": ("adapted", False),
}
SETUP_REPEATS = 9
# Reference time after each timed call, as a share of the call's time.
# Shares from 0.25 to 1.0 tracked the machine's speed about equally well;
# 0.25 leaves room for 20 or more passes in a 40 s run.
PACE_SHARE = 0.25


def import_flowauction():
    """Import the package afresh from ``src/``, so that each set-up pays
    for executing its modules."""
    for name in [n for n in sys.modules if n == "flowauction" or n.startswith("flowauction.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    fa = importlib.import_module("flowauction")
    for name in layers.MODULES:
        importlib.import_module(f"flowauction.{name}")
    if SRC.resolve() not in Path(fa.__file__).resolve().parents:
        raise ImportError(f"flowauction was imported from {fa.__file__}, not from {SRC}")
    return fa


def set_up(workload: str, seed: int):
    """Import, build and validate the markets, and bind each operation to
    its market and options."""
    fa = import_flowauction()
    built = markets.WORKLOADS[workload](fa, random.Random(seed))
    solve, verify = fa.auction.solve, fa.cli.run_verification
    SolveOptions = fa.auction.SolveOptions
    calls = {
        op: [
            functools.partial(solve, m.instance, SolveOptions(mode=mode, warm_start=warm, start_prices=m.start))
            for m in built
        ]
        for op, (mode, warm) in CONFIGS.items()
    }
    calls["verify"] = [
        functools.partial(verify, m.instance, SolveOptions(start_prices=m.start), fa.cli.DEFAULT_BUDGET)
        for m in built
    ]
    return fa, built, calls


def run_pass(calls: dict, begin, speed: pace.Pace) -> tuple[dict, dict, dict]:
    """Each operation once on every market: wall time per operation, the
    factor that scales it to the reference speed, and the raw answers."""
    times, factors, answers = {}, {}, {}
    for op in OPS:
        out = []
        total = 0.0
        for call in calls[op]:
            begin(op)
            start = perf_counter()
            try:
                out.append(call())
            except Exception as exc:  # a failed operation, counted below
                out.append(exc)
            elapsed = perf_counter() - start
            total += elapsed
            speed.follow(elapsed)
        times[op] = total
        factors[op] = speed.factor()
        answers[op] = out
    return times, factors, answers


def answer_of(result):
    """A comparable form of one operation's result."""
    if isinstance(result, Exception):
        return ("error", repr(result))
    if isinstance(result, dict):
        return result
    return (result.prices.as_dict(), dict(result.allocation.quantities))


def check_warm_up(built: list, references: list, answers: dict) -> dict:
    """Errors of every first answer, by operation and market."""
    verdicts = {op: [] for op in OPS}
    for k, (market, reference) in enumerate(zip(built, references)):
        solved = {}
        for op in CONFIGS:
            answer = answers[op][k]
            if answer[0] == "error":
                verdicts[op].append([answer[1]])
                continue
            prices, quantities = answer
            solved[op] = prices
            verdicts[op].append(checks.answer_errors(market, reference, prices, quantities))
        if len({json.dumps(p, sort_keys=True) for p in solved.values()}) > 1:
            for op in solved:
                verdicts[op][k].append("the four configurations disagree on prices")
        expected = reference if reference is not None else solved.get("unit-warm")
        report = answers["verify"][k]
        if isinstance(report, tuple):
            errors = [report[1]]
        else:
            errors = [f"check {c['name']} failed" for c in report["checks"] if c["passed"] is False]
            if report["passed"] is not True:
                errors.append("verification did not pass")
            if report["prices"] != expected:
                errors.append(f"verified prices {report['prices']} differ from {expected}")
        verdicts["verify"].append(errors)
    return verdicts


def self_test(built: list, references: list, answers: dict, verdicts: dict) -> list[str]:
    """Every corruption of a checked answer must be rejected."""
    problems, exercised = [], set()
    for k, (market, reference) in enumerate(zip(built, references)):
        if market.known_fault or verdicts["unit-warm"][k]:
            continue
        prices, quantities = answers["unit-warm"][k]
        for label, bad_prices, bad_quantities in checks.corruptions(market.instance, prices, quantities):
            exercised.add(label)
            if not checks.answer_errors(market, reference, bad_prices, bad_quantities):
                problems.append(f"{market.name}: the check accepts an answer with one {label}")
    for label in ("price raised", "price lowered", "unit moved"):
        if label not in exercised:
            problems.append(f"no market gave an answer to test '{label}' on")
    return problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(markets.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    speed = pace.Pace(PACE_SHARE)
    setup_times, setup_scaled = [], []
    try:
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            fa, built, calls = set_up(args.workload, args.seed)
            elapsed = perf_counter() - start
            speed.follow(elapsed)
            setup_times.append(elapsed)
            setup_scaled.append(elapsed * speed.factor())
    except ImportError as exc:
        print(f"error: cannot import flowauction from {SRC}: {exc}", file=sys.stderr)
        return 2

    references = [checks.reference_prices(fa, m) for m in built]
    tracer = None
    begin = lambda op: None  # noqa: E731
    if args.trace:
        tracer = layers.Tracer()
        tracer.install(fa)
        begin = tracer.begin

    gc.collect()
    answers = {op: [answer_of(r) for r in results] for op, results in run_pass(calls, begin, speed)[2].items()}
    verdicts = check_warm_up(built, references, answers)
    problems = self_test(built, references, answers, verdicts)

    if tracer is not None:
        tracer.discard()
        for _ in range(3):
            tracer.begin("setup")
            start = perf_counter()
            markets.WORKLOADS[args.workload](fa, random.Random(args.seed))
            speed.follow(perf_counter() - start)
            tracer.end_pass({"setup": speed.factor()})

    per_pass = len(OPS) * len(built)
    attempted = per_pass
    failed = sum(bool(errors) for op in OPS for errors in verdicts[op])
    samples = {op: [] for op in OPS}
    raw = {op: [] for op in OPS}
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline:
        gc.collect()
        times, factors, results = run_pass(calls, begin, speed)
        if tracer is not None:
            tracer.end_pass(factors)
        attempted += per_pass
        for op in OPS:
            samples[op].append(times[op] * factors[op])
            raw[op].append(times[op])
            for k, result in enumerate(results[op]):
                if verdicts[op][k]:
                    failed += 1
                elif answer_of(result) != answers[op][k]:
                    failed += 1
                    problems.append(f"{op} on {built[k].name}: the answer changed between passes")

    for op in OPS:
        for market, errors in zip(built, verdicts[op]):
            if errors and not market.known_fault:
                problems.append(f"{op} on {market.name}: {'; '.join(errors[:3])}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if tracer is not None:
        metrics = tracer.metrics()
    else:
        metrics = {"setup_s": {"value": statistics.median(setup_scaled), "unit": "s"}}
        for op in CONFIGS:
            metrics[f"solve_s.{op}"] = {"value": statistics.median(samples[op]), "unit": "s"}
        metrics["verify_s"] = {"value": statistics.median(samples["verify"]), "unit": "s"}
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}

    passes = len(samples["verify"])
    print(
        f"{args.workload} seed {args.seed} trace {args.trace}: {len(built)} markets, "
        f"{passes} timed passes; median scaled (wall) s per pass: "
        + ", ".join(f"{op} {statistics.median(samples[op]):.4f} ({statistics.median(raw[op]):.4f})" for op in OPS),
        file=sys.stderr,
    )
    OUT.mkdir(exist_ok=True)
    record = {
        **result,
        "setup_samples": setup_scaled,
        "setup_wall_samples": setup_times,
        "pass_samples": samples,
        "pass_wall_samples": raw,
    }
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
