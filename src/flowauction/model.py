"""Core domain types: market instances, price vectors, allocations, traces.

A market instance consists of objects with integer supplies, buyers with
integer demand caps, and a nonnegative integer per-unit valuation for each
(object, buyer) pair.  All quantities stay exact integers throughout; there
is no floating point anywhere in the solver.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

if TYPE_CHECKING:
    from .tiers import TierReport

#: Everything is checked to fit comfortably in signed 64-bit arithmetic so
#: that instances round-trip losslessly through any consumer of the JSON
#: trace/report formats.
INT_BOUND = 2**63 - 1

DUMMY_OBJECT = "__dummy_object"
DUMMY_BUYER = "__dummy_buyer"
#: Ids that would read as a dummy or a flow network node, as would any id
#: ending in ``'`` (a buyer's tier label).
RESERVED_IDS = frozenset({DUMMY_OBJECT, DUMMY_BUYER, "s", "t"})


class InstanceError(ValueError):
    """Raised when raw market data violates the input contract."""


def _check_count(kind: str, entity: str, value: object) -> int:
    # bool is an int subclass; reject it explicitly.
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceError(f"{kind} of {entity!r} must be an integer, got {value!r}")
    if value < 0:
        raise InstanceError(f"{kind} of {entity!r} must be nonnegative, got {value}")
    if value > INT_BOUND:
        raise InstanceError(f"{kind} of {entity!r} exceeds the 64-bit bound {INT_BOUND}, got {value}")
    return value


@dataclass(frozen=True)
class Instance:
    """An immutable market instance.

    ``objects`` and ``buyers`` fix the canonical ordering used for all
    tie-breaking and for deterministic output.  ``valuations`` is fully
    populated: every (object, buyer) pair has an entry.

    ``value_rows`` (each buyer's values) and ``supply_row`` (the supplies)
    lay the same data out in canonical object order, for the tier oracle
    to read by index.  Each is computed when first read and kept; neither
    is a field, so equality, ``repr`` and ``dataclasses.replace`` see only
    the five fields, and a replaced instance computes its own rows.
    """

    objects: tuple[str, ...]
    supplies: dict[str, int]
    buyers: tuple[str, ...]
    demands: dict[str, int]
    valuations: dict[tuple[str, str], int]

    def payoff(self, obj: str, buyer: str, prices: "PriceVector") -> int:
        return self.valuations[(obj, buyer)] - prices[obj]

    @cached_property
    def value_rows(self) -> dict[str, tuple[int, ...]]:
        values = self.valuations
        return {j: tuple(values[(i, j)] for i in self.objects) for j in self.buyers}

    @cached_property
    def supply_row(self) -> tuple[int, ...]:
        return tuple(self.supplies[i] for i in self.objects)

    @property
    def total_supply(self) -> int:
        return sum(self.supplies.values())

    @property
    def total_demand(self) -> int:
        return sum(self.demands.values())

    @property
    def max_valuation(self) -> int:
        return max(self.valuations.values(), default=0)


def validate_instance(
    supplies: Mapping[str, int],
    demands: Mapping[str, int],
    valuations: Mapping[str, Mapping[str, int]],
) -> Instance:
    """Check raw market data and build an :class:`Instance`.

    ``supplies`` maps object id to supply, ``demands`` maps buyer id to
    demand, and ``valuations`` maps buyer id to a (possibly sparse) mapping
    from object id to per-unit value.  Missing valuation entries are read
    as 0.  Mapping insertion order defines the canonical object and buyer
    order.
    """
    objects = tuple(supplies)
    buyers = tuple(demands)
    for name in (*objects, *buyers):
        if not isinstance(name, str):
            raise InstanceError(f"ids must be strings, got {name!r}")
    if set(objects) & set(buyers):
        clash = sorted(set(objects) & set(buyers))[0]
        raise InstanceError(f"id {clash!r} used for both an object and a buyer")
    for name in (*objects, *buyers):
        if name in RESERVED_IDS or name.endswith("'"):
            raise InstanceError(f"id {name!r} is reserved")

    checked_supplies = {i: _check_count("supply", i, supplies[i]) for i in objects}
    checked_demands = {j: _check_count("demand", j, demands[j]) for j in buyers}

    values: dict[tuple[str, str], int] = {}
    for j, per_buyer in valuations.items():
        if j not in checked_demands:
            raise InstanceError(f"valuations given for unknown buyer {j!r}")
        if not isinstance(per_buyer, Mapping):
            raise InstanceError(f"valuations of buyer {j!r} must be a mapping")
        for i, v in per_buyer.items():
            if i not in checked_supplies:
                raise InstanceError(f"buyer {j!r} values unknown object {i!r}")
            values[(i, j)] = _check_count("valuation", f"({i}, {j})", v)
    for i in objects:
        for j in buyers:
            values.setdefault((i, j), 0)

    total_supply = sum(checked_supplies.values())
    total_demand = sum(checked_demands.values())
    max_value = max(values.values(), default=0)
    max_demand = max(checked_demands.values(), default=0)
    if total_supply > INT_BOUND or total_demand > INT_BOUND:
        raise InstanceError("total supply or demand exceeds the 64-bit bound")
    if max_value * max_demand > INT_BOUND:
        raise InstanceError("max valuation times max demand exceeds the 64-bit bound")

    return Instance(objects, checked_supplies, buyers, checked_demands, values)


def instance_from_dict(data: object) -> Instance:
    """Parse the JSON instance schema.  Unknown keys are rejected."""
    if not isinstance(data, dict):
        raise InstanceError("instance file must contain a JSON object")
    unknown = set(data) - {"objects", "buyers"}
    if unknown:
        raise InstanceError(f"unknown top-level keys: {sorted(unknown)}")
    for key in ("objects", "buyers"):
        if not isinstance(data.get(key, []), list):
            raise InstanceError(f"{key!r} must be a list, got {data[key]!r}")
    supplies: dict[str, int] = {}
    for entry in data.get("objects", []):
        if not isinstance(entry, dict) or set(entry) - {"id", "supply"}:
            raise InstanceError(f"object entries must have exactly 'id' and 'supply': {entry!r}")
        oid = entry.get("id")
        if not isinstance(oid, str):
            raise InstanceError(f"object id must be a string, got {oid!r}")
        if oid in supplies:
            raise InstanceError(f"duplicate object ids: {oid!r}")
        supplies[oid] = entry.get("supply")
    demands: dict[str, int] = {}
    valuations: dict[str, dict[str, int]] = {}
    for entry in data.get("buyers", []):
        if not isinstance(entry, dict) or set(entry) - {"id", "demand", "valuations"}:
            raise InstanceError(
                f"buyer entries must have exactly 'id', 'demand' and optional 'valuations': {entry!r}"
            )
        bid = entry.get("id")
        if not isinstance(bid, str):
            raise InstanceError(f"buyer id must be a string, got {bid!r}")
        if bid in demands:
            raise InstanceError(f"duplicate buyer ids: {bid!r}")
        demands[bid] = entry.get("demand")
        valuations[bid] = entry.get("valuations", {})
    return validate_instance(supplies, demands, valuations)


def read_json(path: str) -> object:
    """Read a JSON file; bytes or text that do not decode as UTF-8 JSON
    raise :class:`InstanceError`."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise InstanceError(f"{path}: invalid JSON ({exc})") from exc


def load_instance(path: str) -> Instance:
    """Load an instance from a JSON file."""
    return instance_from_dict(read_json(path))


def balance_instance(instance: Instance) -> Instance:
    """Equalize total supply and total demand with a zero-value dummy.

    If total supply falls short of total demand a dummy object,
    ``DUMMY_OBJECT``, supplies the missing units; in the opposite case a
    dummy buyer, ``DUMMY_BUYER``, demands the surplus.  Either is added last
    in canonical order.  A balanced instance is returned unchanged, which
    makes the operation idempotent.
    """
    gap = instance.total_demand - instance.total_supply
    if gap == 0:
        return instance
    if gap > 0:
        objects = instance.objects + (DUMMY_OBJECT,)
        supplies = dict(instance.supplies)
        supplies[DUMMY_OBJECT] = gap
        valuations = dict(instance.valuations)
        for j in instance.buyers:
            valuations[(DUMMY_OBJECT, j)] = 0
        return Instance(objects, supplies, instance.buyers, dict(instance.demands), valuations)
    buyers = instance.buyers + (DUMMY_BUYER,)
    demands = dict(instance.demands)
    demands[DUMMY_BUYER] = -gap
    valuations = dict(instance.valuations)
    for i in instance.objects:
        valuations[(i, DUMMY_BUYER)] = 0
    return Instance(instance.objects, dict(instance.supplies), buyers, demands, valuations)


def duplicate_instance(instance: Instance) -> Instance:
    """Split every object into unit-supply copies and every buyer into
    unit-demand copies, keeping the valuations.

    The result is a single-unit matching market.  Copies are named
    ``<id>#<k>``; entities with zero supply or demand produce no copies.
    """
    supplies: dict[str, int] = {}
    demands: dict[str, int] = {}
    valuations: dict[str, dict[str, int]] = {}
    object_copies = {
        i: [f"{i}#{k}" for k in range(1, instance.supplies[i] + 1)] for i in instance.objects
    }
    for copies in object_copies.values():
        for name in copies:
            supplies[name] = 1
    for j in instance.buyers:
        for k in range(1, instance.demands[j] + 1):
            name = f"{j}#{k}"
            demands[name] = 1
            valuations[name] = {
                copy: instance.valuations[(i, j)]
                for i in instance.objects
                for copy in object_copies[i]
                if instance.valuations[(i, j)] != 0
            }
    return validate_instance(supplies, demands, valuations)


@dataclass(frozen=True)
class PriceVector:
    """Per-object nonnegative integer prices, keyed exactly by the object set."""

    prices: dict[str, int]

    @classmethod
    def zero(cls, instance: Instance) -> "PriceVector":
        return cls({i: 0 for i in instance.objects})

    @classmethod
    def for_instance(cls, instance: Instance, raw: Mapping[str, int]) -> "PriceVector":
        """Validate a mapping against an instance.  Missing objects price at 0."""
        unknown = set(raw) - set(instance.objects)
        if unknown:
            raise InstanceError(f"prices given for unknown objects: {sorted(unknown)}")
        prices = {}
        for i in instance.objects:
            prices[i] = _check_count("price", i, raw.get(i, 0))
        return cls(prices)

    def __getitem__(self, obj: str) -> int:
        return self.prices[obj]

    def raised(self, objects: Iterable[str], amount: int = 1) -> "PriceVector":
        """Return a copy with ``amount`` added to the given objects."""
        raised_set = set(objects)
        return PriceVector({i: p + (amount if i in raised_set else 0) for i, p in self.prices.items()})

    def as_dict(self) -> dict[str, int]:
        return dict(self.prices)


@dataclass(frozen=True)
class Allocation:
    """Item-to-buyer assignment; only positive quantities are stored."""

    quantities: dict[tuple[str, str], int] = field(default_factory=dict)

    def quantity(self, obj: str, buyer: str) -> int:
        return self.quantities.get((obj, buyer), 0)

    def sold_of(self, obj: str) -> int:
        return sum(q for (i, _), q in self.quantities.items() if i == obj)

    def bought_by(self, buyer: str) -> int:
        return sum(q for (_, j), q in self.quantities.items() if j == buyer)

    @property
    def total(self) -> int:
        return sum(self.quantities.values())

    def is_feasible(self, instance: Instance) -> bool:
        """Whether every quantity is a nonnegative amount of a known object
        for a known buyer, within every supply and demand; one pass sums
        them."""
        sold = dict.fromkeys(instance.supplies, 0)
        bought = dict.fromkeys(instance.demands, 0)
        for (i, j), q in self.quantities.items():
            if q < 0 or i not in sold or j not in bought:
                return False
            sold[i] += q
            bought[j] += q
        return all(q <= instance.supplies[i] for i, q in sold.items()) and all(
            q <= instance.demands[j] for j, q in bought.items()
        )

    def to_nested(self) -> dict[str, dict[str, int]]:
        """``{object: {buyer: quantity}}`` with positive quantities only."""
        nested: dict[str, dict[str, int]] = {}
        for (i, j), q in self.quantities.items():
            if q > 0:
                nested.setdefault(i, {})[j] = q
        return nested


class IterationRecord(NamedTuple):
    """One raise of the left-most cut's objects: the state inspected before
    it."""

    index: int
    prices: dict[str, int]
    raised: tuple[str, ...]
    cut_nodes: tuple[str, ...]
    flow_value: int
    cap_s: int
    step: int


@dataclass(frozen=True)
class AuctionTrace:
    """A climb kept as one record per walk, a raise up to the next network
    change.  ``iterations`` is the mode's view, built when first read: unit
    mode reads a walk of step s as s records of step 1, the k-th at prices
    raised by k; adapted mode merges consecutive walks on one raised set.
    ``record_count`` is the view's length, counted without building it;
    reading ``iterations`` is not bounded, only the CLI's trace file is.
    ``reports`` holds each buyer's tier report at the final prices as the
    climb left it, for ``allocate``: current in the above-margin and
    at-margin tiers, while a zero tier may be out of date.  It is ``None``
    for a trace from anywhere else and takes no part in equality."""

    walks: tuple[IterationRecord, ...]
    oracle_calls: int
    mode: str
    reports: Mapping[str, TierReport] | None = field(default=None, compare=False, repr=False)

    @property
    def record_count(self) -> int:
        if self.mode == "unit":
            return sum(walk.step for walk in self.walks)
        return len(self.walks) - sum(a.raised == b.raised for a, b in zip(self.walks, self.walks[1:]))

    @cached_property
    def iterations(self) -> tuple[IterationRecord, ...]:
        records: list[IterationRecord] = []
        for walk in self.walks:
            if self.mode == "unit":
                base, raised = walk.prices, walk.raised
                # The fields go in by position: keywords cost more per record.
                head = (raised, walk.cut_nodes, walk.flow_value, walk.cap_s)
                for k in range(walk.step):
                    prices = base | {i: base[i] + k for i in raised}
                    records.append(IterationRecord(len(records), prices, *head, 1))
            elif records and records[-1].raised == walk.raised:
                records[-1] = records[-1]._replace(step=records[-1].step + walk.step)
            else:
                records.append(walk._replace(index=len(records)))
        return tuple(records)
