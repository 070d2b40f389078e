import copy
import dataclasses
import json
import pickle
import re

import pytest
from hypothesis import given, strategies as st

from flowauction.model import (
    DUMMY_BUYER,
    DUMMY_OBJECT,
    Allocation,
    Instance,
    InstanceError,
    PriceVector,
    balance_instance,
    duplicate_instance,
    instance_from_dict,
    load_instance,
    validate_instance,
)


@st.composite
def instances(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(0, 3))
    supplies = {f"o{k}": draw(st.integers(0, 3)) for k in range(m)}
    demands = {f"b{k}": draw(st.integers(0, 3)) for k in range(n)}
    valuations = {j: {i: draw(st.integers(0, 4)) for i in supplies} for j in demands}
    return validate_instance(supplies, demands, valuations)


class TestValidateInstance:
    def test_example1_is_valid(self, example1):
        assert example1.objects == ("alpha", "beta")
        assert example1.supplies == {"alpha": 1, "beta": 1}
        assert example1.demands == {"b1": 2}
        assert example1.valuations[("alpha", "b1")] == 5

    def test_degenerate_market_without_buyers(self):
        inst = validate_instance({"alpha": 2}, {}, {})
        assert inst.buyers == ()
        assert inst.total_demand == 0

    def test_negative_supply_names_the_object(self):
        with pytest.raises(InstanceError, match="beta"):
            validate_instance({"alpha": 1, "beta": -1}, {}, {})

    def test_non_integer_demand_rejected(self):
        with pytest.raises(InstanceError, match="b1"):
            validate_instance({"alpha": 1}, {"b1": 1.5}, {})

    def test_bool_counts_rejected(self):
        with pytest.raises(InstanceError):
            validate_instance({"alpha": True}, {}, {})

    def test_missing_valuations_read_as_zero(self):
        inst = validate_instance({"alpha": 1, "beta": 1}, {"b1": 1}, {"b1": {"alpha": 2}})
        assert inst.valuations[("beta", "b1")] == 0

    def test_unknown_object_in_valuations_rejected(self):
        with pytest.raises(InstanceError, match="gamma"):
            validate_instance({"alpha": 1}, {"b1": 1}, {"b1": {"gamma": 2}})

    def test_reserved_ids_rejected(self):
        with pytest.raises(InstanceError, match="reserved"):
            validate_instance({DUMMY_OBJECT: 1}, {}, {})
        with pytest.raises(InstanceError, match="reserved"):
            validate_instance({}, {DUMMY_BUYER: 1}, {})

    @pytest.mark.parametrize("name", ["s", "t", "x'", "x''", "'"])
    def test_ids_that_read_as_node_labels_rejected(self, name):
        message = f"^id {name!r} is reserved$"
        with pytest.raises(InstanceError, match=message):
            validate_instance({name: 1}, {}, {})
        with pytest.raises(InstanceError, match=message):
            validate_instance({}, {name: 1}, {})

    def test_ids_near_the_node_labels_allowed(self):
        inst = validate_instance({"st": 1, "x'y": 1}, {"S": 1, "'t": 1}, {})
        assert inst.objects == ("st", "x'y") and inst.buyers == ("S", "'t")

    def test_shared_object_buyer_id_rejected(self):
        with pytest.raises(InstanceError, match="both"):
            validate_instance({"x": 1}, {"x": 1}, {})

    def test_overflow_guard(self):
        with pytest.raises(InstanceError, match="64-bit"):
            validate_instance({"alpha": 2**63}, {}, {})
        with pytest.raises(InstanceError, match="64-bit"):
            validate_instance({"alpha": 1}, {"b1": 2**32}, {"b1": {"alpha": 2**32}})
        # Each supply is within the bound, their total is not.
        with pytest.raises(InstanceError, match="^total supply or demand exceeds the 64-bit bound$"):
            validate_instance({"a": 2**62, "b": 2**62}, {}, {})

    @pytest.mark.parametrize(
        "supplies, demands", [({1: 1}, {"b": 1}), ({"a": 1}, {None: 1})], ids=["object", "buyer"]
    )
    def test_ids_that_are_not_strings_rejected(self, supplies, demands):
        with pytest.raises(InstanceError, match="^ids must be strings, got (1|None)$"):
            validate_instance(supplies, demands, {})

    def test_valuation_row_that_is_not_a_mapping_rejected(self):
        with pytest.raises(InstanceError, match="^valuations of buyer 'b' must be a mapping$"):
            validate_instance({"a": 1}, {"b": 1}, {"b": [1]})

    def test_valuations_for_an_unknown_buyer_rejected(self):
        with pytest.raises(InstanceError, match="^valuations given for unknown buyer 'c'$"):
            validate_instance({"a": 1}, {"b": 1}, {"c": {"a": 1}})


class TestInstanceFile:
    def test_round_trip(self, fig1, tmp_path):
        path = tmp_path / "fig1.json"
        path.write_text(
            json.dumps(
                {
                    "objects": [
                        {"id": "alpha", "supply": 1},
                        {"id": "beta", "supply": 1},
                        {"id": "gamma", "supply": 4},
                    ],
                    "buyers": [
                        {"id": "j1", "demand": 4, "valuations": {"alpha": 3, "beta": 2, "gamma": 1}},
                        {"id": "j2", "demand": 2, "valuations": {"beta": 2}},
                    ],
                }
            )
        )
        again = load_instance(str(path))
        assert again == fig1

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(InstanceError, match="unknown"):
            instance_from_dict({"objects": [], "buyers": [], "extra": 1})

    def test_unknown_entry_key_rejected(self):
        with pytest.raises(InstanceError):
            instance_from_dict({"objects": [{"id": "a", "supply": 1, "note": "x"}], "buyers": []})

    def test_array_order_is_canonical(self):
        inst = instance_from_dict(
            {
                "objects": [{"id": "z", "supply": 1}, {"id": "a", "supply": 1}],
                "buyers": [{"id": "q", "demand": 1}],
            }
        )
        assert inst.objects == ("z", "a")

    @pytest.mark.parametrize("key", ["objects", "buyers"])
    @pytest.mark.parametrize("value", [5, None, {"id": "a"}])
    def test_entries_that_are_not_a_list_rejected(self, key, value):
        with pytest.raises(InstanceError, match=f"^{key!r} must be a list"):
            instance_from_dict({key: value})

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(InstanceError, match="invalid JSON"):
            load_instance(str(path))

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000], ids=["not-utf-8", "too-deep"])
    def test_undecodable_json_reported(self, tmp_path, content):
        path = tmp_path / "undecodable.json"
        path.write_bytes(content)
        with pytest.raises(InstanceError, match=f"^{re.escape(str(path))}: invalid JSON"):
            load_instance(str(path))


class TestBalance:
    def test_already_balanced_unchanged(self, three_buyers):
        balanced = balance_instance(three_buyers)
        assert DUMMY_OBJECT not in balanced.objects and DUMMY_BUYER not in balanced.buyers
        assert balanced is three_buyers

    def test_dummy_object_added(self):
        inst = validate_instance({"alpha": 2}, {"b1": 5}, {"b1": {"alpha": 1}})
        balanced = balance_instance(inst)
        assert balanced.objects == ("alpha", DUMMY_OBJECT) and DUMMY_BUYER not in balanced.buyers
        assert balanced.supplies[DUMMY_OBJECT] == 3
        assert balanced.valuations[(DUMMY_OBJECT, "b1")] == 0
        assert balanced.total_supply == balanced.total_demand

    def test_dummy_buyer_added(self):
        inst = validate_instance({"alpha": 5}, {"b1": 2}, {"b1": {"alpha": 1}})
        balanced = balance_instance(inst)
        assert balanced.buyers == ("b1", DUMMY_BUYER) and DUMMY_OBJECT not in balanced.objects
        assert balanced.demands[DUMMY_BUYER] == 3
        assert balanced.valuations[("alpha", DUMMY_BUYER)] == 0
        assert balanced.total_supply == balanced.total_demand

    @given(instances())
    def test_idempotent(self, inst):
        once = balance_instance(inst)
        twice = balance_instance(once)
        assert twice is once
        assert twice == once


def rows(inst):
    return inst.value_rows, inst.supply_row


class TestRows:
    """``value_rows`` and ``supply_row`` are cached, not fields."""

    def test_the_fields_are_unchanged(self):
        names = [f.name for f in dataclasses.fields(Instance)]
        assert names == ["objects", "supplies", "buyers", "demands", "valuations"]

    def test_rows_in_canonical_object_order(self, fig1):
        assert fig1.value_rows == {"j1": (3, 2, 1), "j2": (0, 2, 0)}
        assert fig1.supply_row == (1, 1, 4)

    def test_computed_rows_change_nothing_else(self, fig1):
        fresh = dataclasses.replace(fig1)
        assert "value_rows" not in vars(fresh) and "supply_row" not in vars(fresh)
        computed = dataclasses.replace(fig1)
        expected = rows(computed)
        assert "value_rows" in vars(computed) and "supply_row" in vars(computed)
        assert fresh == computed and computed == fresh
        assert repr(fresh) == repr(computed)
        assert dataclasses.replace(computed) == dataclasses.replace(fresh) == fig1
        for copied in (copy.copy(computed), copy.copy(fresh)):
            assert copied == fig1 and rows(copied) == expected
        for loaded in (pickle.loads(pickle.dumps(computed)), pickle.loads(pickle.dumps(fresh))):
            assert loaded == fig1 and repr(loaded) == repr(fig1) and rows(loaded) == expected
        assert "value_rows" not in vars(fresh) and "supply_row" not in vars(fresh)

    def test_a_replaced_instance_computes_its_own_rows(self, fig1):
        rows(fig1)
        cut = dataclasses.replace(fig1, supplies={"alpha": 0, "beta": 1, "gamma": 2})
        assert cut.supply_row == (0, 1, 2)
        assert cut.value_rows == fig1.value_rows

    def test_rows_follow_the_objects(self, fig1):
        rows(fig1)
        order = ("gamma", "alpha", "beta")
        valuations = {j: {i: fig1.valuations[(i, j)] for i in order} for j in fig1.buyers}
        permuted = validate_instance({i: fig1.supplies[i] for i in order}, fig1.demands, valuations)
        assert permuted.value_rows == {"j1": (1, 3, 2), "j2": (0, 0, 2)}
        assert permuted.supply_row == (4, 1, 1)

    def test_a_balanced_instance_has_its_own_rows(self):
        short = validate_instance({"alpha": 2}, {"b1": 5, "b2": 1}, {"b1": {"alpha": 3}})
        rows(short)
        balanced = balance_instance(short)
        assert balanced.value_rows == {"b1": (3, 0), "b2": (0, 0)}
        assert balanced.supply_row == (2, 4)
        assert rows(short) == ({"b1": (3,), "b2": (0,)}, (2,))
        surplus = validate_instance({"alpha": 5, "beta": 1}, {"b1": 2}, {"b1": {"alpha": 1}})
        rows(surplus)
        balanced = balance_instance(surplus)
        assert balanced.value_rows == {"b1": (1, 0), DUMMY_BUYER: (0, 0)}
        assert balanced.supply_row == (5, 1)


class TestDuplicate:
    def test_example1_duplication(self, example1):
        dup = duplicate_instance(example1)
        assert dup.objects == ("alpha#1", "beta#1")
        assert dup.buyers == ("b1#1", "b1#2")
        assert all(v == 1 for v in dup.supplies.values())
        assert all(d == 1 for d in dup.demands.values())
        assert dup.valuations[("alpha#1", "b1#2")] == 5
        assert dup.valuations[("beta#1", "b1#1")] == 1

    def test_unit_instance_is_isomorphic_copy(self):
        inst = validate_instance({"a": 1}, {"j": 1}, {"j": {"a": 3}})
        dup = duplicate_instance(inst)
        assert dup.objects == ("a#1",)
        assert dup.buyers == ("j#1",)
        assert dup.valuations[("a#1", "j#1")] == 3

    def test_zero_supply_object_dropped(self):
        inst = validate_instance({"a": 0, "b": 2}, {"j": 1}, {"j": {"a": 3, "b": 1}})
        dup = duplicate_instance(inst)
        assert dup.objects == ("b#1", "b#2")

    @given(instances())
    def test_totals_preserved(self, inst):
        dup = duplicate_instance(inst)
        assert dup.total_supply == inst.total_supply
        assert dup.total_demand == inst.total_demand


class TestPriceVector:
    def test_zero_and_raise(self, example1):
        prices = PriceVector.zero(example1)
        raised = prices.raised(["alpha"], 2)
        assert raised["alpha"] == 2 and raised["beta"] == 0
        assert prices["alpha"] == 0

    def test_for_instance_fills_missing(self, example1):
        prices = PriceVector.for_instance(example1, {"alpha": 3})
        assert prices.as_dict() == {"alpha": 3, "beta": 0}

    def test_unknown_object_rejected(self, example1):
        with pytest.raises(InstanceError, match="unknown"):
            PriceVector.for_instance(example1, {"gamma": 1})

    def test_negative_rejected(self, example1):
        with pytest.raises(InstanceError):
            PriceVector.for_instance(example1, {"alpha": -1})

    def test_above_the_64_bit_bound_rejected(self, example1):
        assert PriceVector.for_instance(example1, {"alpha": 2**63 - 1})["alpha"] == 2**63 - 1
        with pytest.raises(InstanceError, match="^price of 'alpha' exceeds the 64-bit bound"):
            PriceVector.for_instance(example1, {"alpha": 2**63})


class TestAllocation:
    def test_feasibility(self, example1):
        good = Allocation({("alpha", "b1"): 1, ("beta", "b1"): 1})
        assert good.is_feasible(example1)
        too_much = Allocation({("alpha", "b1"): 2})
        assert not too_much.is_feasible(example1)

    def test_nested_view_drops_zeros(self):
        alloc = Allocation({("a", "j"): 2, ("b", "j"): 0})
        assert alloc.to_nested() == {"a": {"j": 2}}
        assert alloc.total == 2
