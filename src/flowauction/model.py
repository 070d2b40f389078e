"""Core domain types: market instances, price vectors, allocations, traces.

A market instance consists of objects with integer supplies, buyers with
integer demand caps, and a nonnegative integer per-unit valuation for each
(object, buyer) pair.  All quantities stay exact integers throughout; there
is no floating point anywhere in the solver.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

#: Everything is checked to fit comfortably in signed 64-bit arithmetic so
#: that instances round-trip losslessly through any consumer of the JSON
#: trace/report formats.
INT_BOUND = 2**63 - 1

DUMMY_OBJECT = "__dummy_object"
DUMMY_BUYER = "__dummy_buyer"
RESERVED_IDS = frozenset({DUMMY_OBJECT, DUMMY_BUYER})


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
    """

    objects: tuple[str, ...]
    supplies: dict[str, int]
    buyers: tuple[str, ...]
    demands: dict[str, int]
    valuations: dict[tuple[str, str], int]

    def payoff(self, obj: str, buyer: str, prices: "PriceVector") -> int:
        return self.valuations[(obj, buyer)] - prices[obj]

    @property
    def total_supply(self) -> int:
        return sum(self.supplies.values())

    @property
    def total_demand(self) -> int:
        return sum(self.demands.values())

    @property
    def max_valuation(self) -> int:
        return max(self.valuations.values(), default=0)

    def object_index(self, obj: str) -> int:
        return self.objects.index(obj)

    def to_dict(self) -> dict:
        """Serialize to the canonical instance file schema."""
        return {
            "objects": [{"id": i, "supply": self.supplies[i]} for i in self.objects],
            "buyers": [
                {
                    "id": j,
                    "demand": self.demands[j],
                    "valuations": {
                        i: self.valuations[(i, j)]
                        for i in self.objects
                        if self.valuations[(i, j)] != 0
                    },
                }
                for j in self.buyers
            ],
        }


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
    if len(set(objects)) != len(objects):
        raise InstanceError("duplicate object ids")
    if len(set(buyers)) != len(buyers):
        raise InstanceError("duplicate buyer ids")
    if set(objects) & set(buyers):
        clash = sorted(set(objects) & set(buyers))[0]
        raise InstanceError(f"id {clash!r} used for both an object and a buyer")
    for name in (*objects, *buyers):
        if name in RESERVED_IDS:
            raise InstanceError(f"id {name!r} is reserved")

    checked_supplies = {i: _check_count("supply", i, supplies[i]) for i in objects}
    checked_demands = {j: _check_count("demand", j, demands[j]) for j in buyers}

    values: dict[tuple[str, str], int] = {}
    for j, per_buyer in valuations.items():
        if j not in checked_demands:
            raise InstanceError(f"valuations given for unknown buyer {j!r}")
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
        vals = entry.get("valuations", {})
        if not isinstance(vals, dict):
            raise InstanceError(f"valuations of buyer {bid!r} must be a mapping")
        valuations[bid] = vals
    return validate_instance(supplies, demands, valuations)


def load_instance(path: str) -> Instance:
    """Load an instance from a JSON file."""
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"{path}: invalid JSON ({exc})") from exc
    return instance_from_dict(data)


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
        for (i, j), q in self.quantities.items():
            if q < 0 or i not in instance.supplies or j not in instance.demands:
                return False
        return all(
            self.sold_of(i) <= instance.supplies[i] for i in instance.objects
        ) and all(self.bought_by(j) <= instance.demands[j] for j in instance.buyers)

    def to_nested(self) -> dict[str, dict[str, int]]:
        """``{object: {buyer: quantity}}`` with positive quantities only."""
        nested: dict[str, dict[str, int]] = {}
        for (i, j), q in self.quantities.items():
            if q > 0:
                nested.setdefault(i, {})[j] = q
        return nested


class IterationRecord(NamedTuple):
    """One price-raising step: the state inspected before the raise.

    ``handoff_gap`` is only set on warm-started iterations: it is the gap
    between the next network's source capacity and the value of the updated
    (not yet re-augmented) flow carried over to it.
    """

    index: int
    prices: dict[str, int]
    raised: tuple[str, ...]
    cut_nodes: tuple[str, ...]
    flow_value: int
    cap_s: int
    step: int
    handoff_gap: int | None = None


@dataclass(frozen=True)
class AuctionTrace:
    iterations: tuple[IterationRecord, ...]
    final_prices: dict[str, int]
    oracle_calls: int
