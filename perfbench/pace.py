"""The machine's current speed, read off a fixed reference computation.

The 2-core guest this benchmark was tuned on runs the same code 1.7-1.9x
slower for stretches of a fraction of a second to minutes; wall time and
CPU time move together, so no clock removes it.  A fixed computation run
right after each timed call slows down with it.  So every timed call is
followed by reference units that take a set share of the call's time, and
a call's seconds are reported as measured seconds scaled by
``NOMINAL_UNIT_S / (reference seconds per unit)`` over the same stretch:
the seconds the call would take on the machine when one unit takes
``NOMINAL_UNIT_S``.  A change to ``src/`` moves the call's seconds and not
the reference's, so it shows in the scaled figure in full.

The reference builds a fixed layered network, keyed as
``flowauction.flow`` keys its networks by tuples of strings in dicts, and
finds its max flow by breadth-first augmenting paths: the same kind of
interpreter work as the timed calls.  It imports nothing from
``flowauction``.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter

# Seconds one unit takes in the guest's fast state (Xeon at 2.1 GHz,
# Python 3.11.7, PYTHONHASHSEED=0).  Only the scale of the reported
# figures depends on it.
NOMINAL_UNIT_S = 1.9e-4

SOURCE, SINK = ("s", ""), ("t", "")
OBJECTS, BUYERS = 6, 8
# (object, buyer, capacity) of the middle arcs.
ARCS = [(k, m, 1 + (k + m) % 2) for k in range(OBJECTS) for m in range(BUYERS) if (k * 5 + m * 3) % 4]
FLOW_VALUE = 12


def unit() -> int:
    """Build the reference network afresh and return its max flow value.

    Each unit allocates its node labels, capacities and adjacency as the
    solver does for every network it builds.
    """
    capacity = {}
    for k in range(OBJECTS):
        capacity[(SOURCE, ("o", f"o{k}"))] = 1 + k % 3
    for k, m, c in ARCS:
        capacity[(("o", f"o{k}"), ("b", f"b{m}"))] = c
    for m in range(BUYERS):
        capacity[(("b", f"b{m}"), SINK)] = 1 + m % 2
    out = {}
    for u, v in capacity:
        out.setdefault(u, []).append(v)
        out.setdefault(v, []).append(u)
    flows = dict.fromkeys(capacity, 0)
    value = 0
    while True:
        parent = {SOURCE: None}
        queue = deque([SOURCE])
        while queue and SINK not in parent:
            u = queue.popleft()
            for v in out[u]:
                if v in parent:
                    continue
                if (u, v) in capacity and flows[(u, v)] < capacity[(u, v)]:
                    parent[v] = u
                    queue.append(v)
                elif (v, u) in capacity and flows[(v, u)] > 0:
                    parent[v] = u
                    queue.append(v)
        if SINK not in parent:
            return value
        v = SINK
        while parent[v] is not None:
            u = parent[v]
            if (u, v) in capacity:
                flows[(u, v)] += 1
            else:
                flows[(v, u)] -= 1
            v = u
        value += 1


class Pace:
    """Reference units run after timed calls, and the speed they show."""

    def __init__(self, share: float) -> None:
        if unit() != FLOW_VALUE:
            raise AssertionError("the reference max flow has the wrong value")
        self.share = share
        self.seconds = 0.0
        self.units = 0

    def follow(self, elapsed: float) -> None:
        """Run units for ``share`` of a call that took ``elapsed`` seconds
        (at least one unit)."""
        target = self.share * elapsed
        start = perf_counter()
        units = 0
        while True:
            unit()
            units += 1
            spent = perf_counter() - start
            if spent >= target:
                break
        self.seconds += spent
        self.units += units

    def factor(self) -> float:
        """The scale from measured to nominal seconds since the last call,
        and start a new stretch."""
        factor = NOMINAL_UNIT_S * self.units / self.seconds
        self.seconds, self.units = 0.0, 0
        return factor
