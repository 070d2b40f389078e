"""Buyer-optimal market-clearing prices for multi-unit markets.

A flow-based ascending auction computes the component-wise minimum
competitive price vector and a stable, market-clearing allocation for
markets where buyers have per-unit values capped by a total demand.
Every structural claim the solver relies on has an independent
brute-force checker in :mod:`flowauction.verify`.
"""

from .auction import Equilibrium, SolveOptions, allocate, price_raising, solve
from .model import (
    Allocation,
    AuctionTrace,
    Instance,
    InstanceError,
    PriceVector,
    balance_instance,
    duplicate_instance,
    instance_from_dict,
    load_instance,
    validate_instance,
)
from .tiers import TierReport, indirect_utility, preferred_bundle, tier_report

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "AuctionTrace",
    "Equilibrium",
    "Instance",
    "InstanceError",
    "PriceVector",
    "SolveOptions",
    "TierReport",
    "allocate",
    "balance_instance",
    "duplicate_instance",
    "indirect_utility",
    "instance_from_dict",
    "load_instance",
    "preferred_bundle",
    "price_raising",
    "solve",
    "tier_report",
    "validate_instance",
]
