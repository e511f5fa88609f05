"""Port sequences, inversion-counted crossings and the cyclic boundary order.

Each maximal domain gets an entry sequence (standard composite order) and
an exit sequence (adaptive order); one trajectory strand per crossing orbit
runs from its entry port to its exit port.  Two strands cross inside a
domain exactly when the pair's relative order differs between the two
sequences, and consecutive domains hand strands over through the shared
leaf in a common order, so the total crossing count of a pair is the number
of domains at which it inverts.

The boundary order is the cyclic order of trajectory ends read off the
outer face of the box-and-corridor embedding of the reduced forest.  Both
forest walks, this one and ``geometry.layout``, start a tree at each box
id, in sorted order, that no earlier tree reached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .decompose import MaxDomain, ReducedStructure, reduce_scenario
from .model import FoliageError, Scenario, index
from .relations import (
    OrderedOrbitList,
    chain_orders,
    leaf_keys,
    met_pair_relations,
    sorted_by_key,
    weak_from_verdicts,
)

BACKWARD = "backward"
FORWARD = "forward"


class SideItem(NamedTuple):
    """One attachment on a box side: a corridor group or a single stub.

    A corridor carries the shared leaf and the orbit run; a stub has no
    leaf and a single orbit.  ``lo``/``hi`` are the first and last port
    index of the run within the side's sequence.
    """

    leaf: Optional[str]
    orbits: tuple[str, ...]
    lo: int
    hi: int


class PortPlan(NamedTuple):
    """One box's port sequences and side attachments, top to bottom; ``all_port_plans`` keys it by box id."""

    entry_seq: tuple[str, ...]
    exit_seq: tuple[str, ...]
    entry_items: tuple[SideItem, ...]
    exit_items: tuple[SideItem, ...]


@dataclass(frozen=True)
class PairEntry:
    a: str
    b: str
    count: int
    witness: Optional[str]


@dataclass(frozen=True)
class CrossingMatrix:
    """Symmetric pair matrix; only non-zero entries are stored."""

    orbits: tuple[str, ...]
    entries: tuple[PairEntry, ...]
    _by_pair: dict[tuple[str, str], PairEntry] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_by_pair", {(e.a, e.b): e for e in self.entries})

    def entry(self, a: str, b: str) -> Optional[PairEntry]:
        """The pair's entry; None when the pair does not cross."""
        return self._by_pair.get((min(a, b), max(a, b)))

    def count(self, a: str, b: str) -> int:
        e = self.entry(a, b)
        return e.count if e is not None else 0

    def witness(self, a: str, b: str) -> Optional[str]:
        e = self.entry(a, b)
        return e.witness if e is not None else None

    def as_dict(self) -> dict[tuple[str, str], int]:
        return {(e.a, e.b): e.count for e in self.entries}


@dataclass(frozen=True)
class BoundaryOrder:
    """Cyclic sequence of trajectory ends, one backward + one forward per orbit."""

    ends: tuple[tuple[str, str], ...]


class RealizationError(FoliageError):
    """A pair accumulated more than one crossing; indicates a bug."""


def port_plan(s: Scenario, m: MaxDomain) -> PortPlan:
    """The entry side in the standard order and the exit side in the adaptive
    one, each grouped by the leaf its orbits cross beyond the box."""
    standard, adaptive = chain_orders(s, m)
    _keys, entry_seq, entry_leaves, _exits = zip(*standard)
    _keys, exit_seq, _entries, exit_leaves = zip(*adaptive)
    return PortPlan(entry_seq, exit_seq, _side_items(entry_seq, entry_leaves), _side_items(exit_seq, exit_leaves))


def all_port_plans(s: Scenario) -> dict[str, PortPlan]:
    """The port plan of each maximal domain by id, kept on the scenario's index."""
    idx = index(s)
    if idx.plans is None:
        idx.plans = {m.id: port_plan(s, m) for m in reduce_scenario(s).maxdomains}
    return idx.plans


def _side_items(seq: tuple[str, ...], leaves: tuple[Optional[str], ...]) -> tuple[SideItem, ...]:
    """A stub per orbit whose leaf is None, a corridor per run of one leaf."""
    items, lo = [], 0
    for hi, leaf in enumerate(leaves):
        if leaf is None:
            items.append(SideItem(None, seq[hi : hi + 1], hi, hi))
            lo = hi + 1
        elif hi + 1 == len(leaves) or leaves[hi + 1] != leaf:
            items.append(SideItem(leaf, seq[lo : hi + 1], lo, hi))
            lo = hi + 1
    return tuple(items)


def crossing_matrix(s: Scenario, r: ReducedStructure) -> CrossingMatrix:
    """Sum, over maximal domains, the entry/exit order inversions per pair."""
    plans = all_port_plans(s)
    counts: dict[tuple[str, str], int] = {}
    witnesses: dict[tuple[str, str], str] = {}
    for m in r.maxdomains:
        plan = plans[m.id]
        entry_pos = {o: i for i, o in enumerate(plan.entry_seq)}
        exit_pos = {o: i for i, o in enumerate(plan.exit_seq)}
        ids = sorted(m.crossers)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                if (entry_pos[a] - entry_pos[b]) * (exit_pos[a] - exit_pos[b]) < 0:
                    key = (a, b)
                    counts[key] = counts.get(key, 0) + 1
                    witnesses.setdefault(key, m.id)
                    if counts[key] > 1:
                        raise RealizationError(f"pair {key} accumulated {counts[key]} crossings")
    orbits = tuple(sorted(o.id for o in s.orbits))
    entries = tuple(
        PairEntry(a, b, counts[(a, b)], witnesses[(a, b)]) for a, b in sorted(counts)
    )
    return CrossingMatrix(orbits=orbits, entries=entries)


def _one_sided(s: Scenario, leaf: str, step: int) -> OrderedOrbitList:
    """Sorted by the key of the side ``step`` names (left for +1), then the
    tie rank, then the other side's key."""
    keys = leaf_keys(s, leaf)
    side = 1 if step > 0 else 0
    order = sorted_by_key(s, keys, lambda o: (keys[o][side], keys[o][2], keys[o][1 - side]))
    return OrderedOrbitList(context=leaf, order=order)


def one_sided_order(s: Scenario, leaf: str) -> OrderedOrbitList:
    """Strict total order on the orbits crossing a leaf extending the left preorder."""
    return _one_sided(s, leaf, 1)


def one_sided_order_right(s: Scenario, leaf: str) -> OrderedOrbitList:
    """Strict total order on the orbits crossing a leaf extending the right preorder."""
    return _one_sided(s, leaf, -1)


def _box_cycle(plan: PortPlan) -> list:
    """Cyclic attachment list of one box: entry side top to bottom, then
    exit side bottom to top.  A corridor is its leaf, a stub its end
    ``(orbit, BACKWARD|FORWARD)``."""
    cyc: list = [(item.orbits[0], BACKWARD) if item.leaf is None else item.leaf for item in plan.entry_items]
    cyc += [(item.orbits[0], FORWARD) if item.leaf is None else item.leaf for item in reversed(plan.exit_items)]
    return cyc


def run_nested(walk):
    """Run a generator that yields a generator wherever it would recurse.

    ``child = yield build(...)`` stands for ``child = build(...)``: the
    yielded generator runs to its return value, which is sent back.  The
    nesting lives on an explicit stack, so walks of any depth finish.
    """
    stack = [walk]
    value = None
    while True:
        try:
            nested = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            value = done.value
        else:
            stack.append(nested)
            value = None


def boundary_order(s: Scenario, r: ReducedStructure) -> BoundaryOrder:
    """Outer-face walk of the box embedding, trees concatenated by root id.

    Each tree is walked from its least box id.  A box's attachments are read
    from the one after the corridor it was entered by, and each further
    corridor is walked into; the open boxes live on an explicit stack, so
    walks of any depth finish."""
    if not r.maxdomains:
        raise FoliageError("boundary order requires a non-empty forest")
    plans = all_port_plans(s)
    ends: list[tuple[str, str]] = []
    seen: set[str] = set()
    for root in sorted(m.id for m in r.maxdomains):
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(_box_cycle(plans[root])))]
        while stack:
            mid, items = stack[-1]
            for item in items:
                if isinstance(item, tuple):
                    ends.append(item)
                    continue
                nxt = r.across(mid, item)
                seen.add(nxt)
                cyc = _box_cycle(plans[nxt])
                k = cyc.index(item)
                stack.append((nxt, iter(cyc[k + 1 :] + cyc[:k])))
                break
            else:
                stack.pop()
    return BoundaryOrder(ends=tuple(ends))


def interleaving_matrix(b: BoundaryOrder) -> CrossingMatrix:
    """Pairs whose chords cross: exactly one end of one lies inside the other's span."""
    positions = {end: i for i, end in enumerate(b.ends)}
    orbits = tuple(sorted({orbit for orbit, _kind in b.ends}))
    ends = {o: (positions[(o, BACKWARD)], positions[(o, FORWARD)]) for o in orbits}
    entries = []
    for i, a in enumerate(orbits):
        lo, hi = sorted(ends[a])
        for c in orbits[i + 1 :]:
            back, fwd = ends[c]
            if (lo < back < hi) != (lo < fwd < hi):
                entries.append(PairEntry(a, c, 1, None))
    return CrossingMatrix(orbits=orbits, entries=tuple(entries))


def weak_matrix(s: Scenario) -> CrossingMatrix:
    """Pairwise weak-transverse indicator in the same matrix shape; a
    Disjoint pair is never weak, so only pairs that meet are compared."""
    entries = tuple(
        PairEntry(a, b, 1, None) for a, b, p in met_pair_relations(s) if weak_from_verdicts(p.left, p.right)
    )
    return CrossingMatrix(orbits=tuple(sorted(o.id for o in s.orbits)), entries=entries)
