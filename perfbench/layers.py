"""Per-layer tracing from outside the program.

Each traced function is replaced, in every ``flowauction`` module that
binds it, by a wrapper that records a span and counts.  A span's self time
is its duration minus the spans of wrapped functions it called.  Time spent
in the wrappers' own bookkeeping is charged to no span.

Values are kept per operation (the ``op`` passed to :meth:`Tracer.begin`)
and per pass, so a run reports the median pass.  Times are scaled to the
reference speed of ``pace``, pass by pass and operation by operation.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter

SOLVE_OPS = ("unit-warm", "unit-cold", "adapted-warm", "adapted-cold")
ALL_OPS = SOLVE_OPS + ("verify",)
WARM_OPS = ("unit-warm", "adapted-warm", "verify")
ADAPTED_OPS = ("adapted-warm", "adapted-cold", "verify")

LOWER, HIGHER = "lower", "higher"

# (module, function, label, [(stat, unit, better)], ops it runs in)
TRACED = [
    ("tiers", "tier_report", "tiers.tier_report",
     [("calls", "count", LOWER), ("self_s", "s", LOWER), ("unchanged", "count", LOWER)], ALL_OPS),
    ("flow", "build_demand_network", "flow.build_demand_network",
     [("calls", "count", LOWER), ("self_s", "s", LOWER), ("arcs", "count", LOWER),
      ("unchanged", "count", LOWER)], ALL_OPS),
    ("flow", "max_flow", "flow.max_flow",
     [("calls", "count", LOWER), ("self_s", "s", LOWER), ("units", "count", LOWER)], ALL_OPS),
    ("flow", "leftmost_min_cut", "flow.leftmost_min_cut",
     [("calls", "count", LOWER), ("self_s", "s", LOWER)], ALL_OPS),
    ("flow", "flow_update", "flow.flow_update",
     [("calls", "count", LOWER), ("self_s", "s", LOWER), ("carried", "count", HIGHER),
      ("dropped", "count", LOWER)], WARM_OPS),
    ("flow", "check_feasible", "flow.check_feasible",
     [("calls", "count", LOWER), ("self_s", "s", LOWER)], WARM_OPS),
    ("flow", "build_allocation_network", "flow.build_allocation_network",
     [("self_s", "s", LOWER)], ALL_OPS),
    ("auction", "allocate", "auction.allocate", [("self_s", "s", LOWER)], ALL_OPS),
    ("auction", "_step_length", "auction.step_length",
     [("calls", "count", LOWER), ("total_s", "s", LOWER)], ADAPTED_OPS),
    ("auction", "price_raising", "auction.price_raising",
     [("price_raises", "count", LOWER), ("oracle_calls", "count", LOWER)], ALL_OPS),
    ("verify", "min_competitive_bruteforce", "verify.min_competitive_bruteforce",
     [("self_s", "s", LOWER)], ("verify",)),
    ("verify", "is_competitive_flowcheck", "verify.is_competitive_flowcheck",
     [("calls", "count", LOWER), ("self_s", "s", LOWER)], ("verify",)),
    ("verify", "hall_check", "verify.hall_check", [("self_s", "s", LOWER)], ("verify",)),
    ("verify", "check_equilibrium", "verify.check_equilibrium", [("self_s", "s", LOWER)], ("verify",)),
    ("model", "validate_instance", "model.validate_instance", [("self_s", "s", LOWER)], ("setup",)),
]

MODULES = ("model", "tiers", "flow", "auction", "verify", "cli")


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    return [
        (f"{label}.{stat}.{op}", unit, better)
        for _, _, label, stats, ops in TRACED
        for op in ops
        for stat, unit, better in stats
    ]


class Tracer:
    def __init__(self):
        self._stack: list[float] = []
        self._op = None
        self._pass: dict = defaultdict(float)
        self._pass_ops: set = set()
        self._passes: list[tuple[set, dict]] = []
        self._last_report: dict = {}
        self._last_arcs: dict = {}

    def begin(self, op: str) -> None:
        """Start one operation on one market: "the same solve" for the
        unchanged counts."""
        self._op = op
        self._pass_ops.add(op)
        self._last_report.clear()
        self._last_arcs.clear()

    def end_pass(self, factors: dict) -> None:
        """Close a pass, scaling its times by each operation's factor from
        ``pace`` so that they read at the reference speed, as the
        end-to-end times do."""
        for name in self._pass:
            _, stat, op = name.rsplit(".", 2)
            if stat.endswith("_s"):
                self._pass[name] *= factors[op]
        self._passes.append((self._pass_ops, self._pass))
        self._pass = defaultdict(float)
        self._pass_ops = set()

    def discard(self) -> None:
        """Forget everything recorded so far (the warm-up)."""
        self._passes.clear()
        self._pass = defaultdict(float)
        self._pass_ops = set()

    def metrics(self) -> dict:
        """Each per-layer metric's median over the passes that ran its
        operation; 0 where the function never ran."""
        result = {}
        for name, unit, _ in metric_specs():
            op = name.rsplit(".", 1)[1]
            values = [p.get(name, 0) for ops, p in self._passes if op in ops]
            result[name] = {"value": statistics.median(values) if values else 0, "unit": unit}
        return result

    def _add(self, label: str, stat: str, amount) -> None:
        self._pass[f"{label}.{stat}.{self._op}"] += amount

    # Counts read off arguments and results, by label.

    def _tier_report(self, args, kwargs, report) -> None:
        instance, buyer = args[0], args[1]
        key = (id(instance), buyer)
        if self._last_report.get(key) == report:
            self._add("tiers.tier_report", "unchanged", 1)
        self._last_report[key] = report

    def _build_demand_network(self, args, kwargs, network) -> None:
        self._add("flow.build_demand_network", "arcs", len(network.arcs))
        key = id(args[0])
        if self._last_arcs.get(key) == network.arcs:
            self._add("flow.build_demand_network", "unchanged", 1)
        self._last_arcs[key] = network.arcs

    def _max_flow(self, args, kwargs, flow) -> None:
        warm = args[1] if len(args) > 1 else kwargs.get("warm_start")
        self._add("flow.max_flow", "units", flow.value - (warm.value if warm is not None else 0))

    def _flow_update(self, args, kwargs, update) -> None:
        self._add("flow.flow_update", "carried", update.flow.value)
        self._add("flow.flow_update", "dropped", sum(update.dropped.values()))

    def _price_raising(self, args, kwargs, result) -> None:
        trace = result[1]
        self._add("auction.price_raising", "price_raises", len(trace.iterations))
        self._add("auction.price_raising", "oracle_calls", trace.oracle_calls)

    def _wrap(self, label: str, fn, counts):
        add = self._add
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                children = stack.pop()
                add(label, "calls", 1)
                add(label, "self_s", span - children)
                add(label, "total_s", span)
                if stack:
                    stack[-1] += span
            if counts is not None:
                mark = perf_counter()
                counts(args, kwargs, result)
                if stack:
                    stack[-1] += perf_counter() - mark
            return result

        return traced

    def install(self, fa) -> None:
        """Replace every binding of each traced function in ``fa``'s modules."""
        counts = {
            "tier_report": self._tier_report,
            "build_demand_network": self._build_demand_network,
            "max_flow": self._max_flow,
            "flow_update": self._flow_update,
            "price_raising": self._price_raising,
        }
        modules = [fa] + [getattr(fa, name) for name in MODULES]
        for module_name, function, label, _, _ in TRACED:
            original = getattr(getattr(fa, module_name), function)
            wrapper = self._wrap(label, original, counts.get(function))
            for module in modules:
                if getattr(module, function, None) is original:
                    setattr(module, function, wrapper)
