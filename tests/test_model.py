import json

import pytest
from hypothesis import given, strategies as st

from flowauction.model import (
    DUMMY_BUYER,
    DUMMY_OBJECT,
    Allocation,
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

    def test_shared_object_buyer_id_rejected(self):
        with pytest.raises(InstanceError, match="both"):
            validate_instance({"x": 1}, {"x": 1}, {})

    def test_overflow_guard(self):
        with pytest.raises(InstanceError, match="64-bit"):
            validate_instance({"alpha": 2**63}, {}, {})
        with pytest.raises(InstanceError, match="64-bit"):
            validate_instance({"alpha": 1}, {"b1": 2**32}, {"b1": {"alpha": 2**32}})


class TestInstanceFile:
    def test_round_trip(self, fig1, tmp_path):
        path = tmp_path / "fig1.json"
        path.write_text(json.dumps(fig1.to_dict()))
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
