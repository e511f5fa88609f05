"""Asymptotic equivalences, sided preorders and the composite total orders.

Two orbits with a common subpath are compared at its two ends.  On the left
end the verdict is decided by which boundary leaf each orbit exits through
(clause L1), by an exit leaf against the other orbit's terminal cut (L2/L3),
or by comparing the two terminal cuts (L4); the right end mirrors this with
entry leaves and entry cuts.  Equal terminal data in the L4/R4 case is the
forward/backward asymptotic equivalence.

``standard_order`` sorts the orbits crossing one leaf by the right-end
comparison first, then the left-end one, then the tie rank; the adaptive
order over a maximal domain compares its exit classes by the left-end
relation and falls back to the standard composite inside a class.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .decompose import MaxDomain, ReducedStructure, common_subpath
from .model import FoliageError, Orbit, Scenario, index


class Direction(Enum):
    FIRST_LESS = "FirstLess"
    SECOND_LESS = "SecondLess"
    EQUIVALENT = "Equivalent"
    INCOMPARABLE = "Incomparable"


class Clause(Enum):
    L1 = "L1"
    L2 = "L2"
    L3 = "L3"
    L4 = "L4"
    R1 = "R1"
    R2 = "R2"
    R3 = "R3"
    R4 = "R4"
    ASYMPTOTIC = "Asymptotic"
    DISJOINT = "Disjoint"


@dataclass(frozen=True)
class RelationVerdict:
    direction: Direction
    clause: Clause

    @property
    def strict(self) -> bool:
        return self.direction in (Direction.FIRST_LESS, Direction.SECOND_LESS)

    def __str__(self) -> str:
        return f"{self.direction.value}({self.clause.value})"


@dataclass(frozen=True)
class OrderedOrbitList:
    context: str
    order: tuple[str, ...]


class TieRankError(FoliageError):
    """Two fully equivalent orbits carry the same tie rank."""


def plus_asymptotic(s: Scenario, a: str, b: str) -> bool:
    """Forward equivalence: shared terminal domain with equal exit cuts."""
    idx = index(s)
    oa, ob = idx.orbit_by_id[a], idx.orbit_by_id[b]
    if a == b:
        return True
    return common_subpath(s, a, b) is not None and oa.omega == ob.omega and oa.exit_cut == ob.exit_cut


def minus_asymptotic(s: Scenario, a: str, b: str) -> bool:
    """Backward equivalence: shared initial domain with equal entry cuts."""
    idx = index(s)
    oa, ob = idx.orbit_by_id[a], idx.orbit_by_id[b]
    if a == b:
        return True
    return common_subpath(s, a, b) is not None and oa.alpha == ob.alpha and oa.entry_cut == ob.entry_cut


def _continuation(idx, o: Orbit, shared_last: str) -> str | None:
    """Leaf through which o leaves the shared run, or None if it ends there."""
    if o.omega == shared_last:
        return None
    pos = idx.domain_pos[o.id][shared_last]
    return o.path[pos + 1]


def _entry(idx, o: Orbit, shared_first: str) -> str | None:
    if o.alpha == shared_first:
        return None
    pos = idx.domain_pos[o.id][shared_first]
    return o.path[pos - 1]


def compare_left(s: Scenario, a: str, b: str) -> RelationVerdict:
    """Compare two orbits at the left end of their common subpath."""
    if a == b:
        return RelationVerdict(Direction.EQUIVALENT, Clause.ASYMPTOTIC)
    idx = index(s)
    cs = common_subpath(s, a, b)
    if cs is None:
        return RelationVerdict(Direction.INCOMPARABLE, Clause.DISJOINT)
    boundary = idx.domain_by_id[cs.last].left
    pos = {leaf: i for i, leaf in enumerate(boundary)}
    oa, ob = idx.orbit_by_id[a], idx.orbit_by_id[b]
    leaf_a, leaf_b = _continuation(idx, oa, cs.last), _continuation(idx, ob, cs.last)
    if leaf_a is not None and leaf_b is not None:
        if leaf_a == leaf_b:
            raise FoliageError("common subpath ended before a shared crossing")
        first = pos[leaf_a] < pos[leaf_b]
        return RelationVerdict(Direction.FIRST_LESS if first else Direction.SECOND_LESS, Clause.L1)
    if leaf_a is not None:
        if pos[leaf_a] < ob.exit_cut:
            return RelationVerdict(Direction.FIRST_LESS, Clause.L2)
        return RelationVerdict(Direction.SECOND_LESS, Clause.L3)
    if leaf_b is not None:
        if pos[leaf_b] >= oa.exit_cut:
            return RelationVerdict(Direction.FIRST_LESS, Clause.L3)
        return RelationVerdict(Direction.SECOND_LESS, Clause.L2)
    if oa.exit_cut < ob.exit_cut:
        return RelationVerdict(Direction.FIRST_LESS, Clause.L4)
    if oa.exit_cut > ob.exit_cut:
        return RelationVerdict(Direction.SECOND_LESS, Clause.L4)
    return RelationVerdict(Direction.EQUIVALENT, Clause.L4)


def compare_right(s: Scenario, a: str, b: str) -> RelationVerdict:
    """Compare two orbits at the right end of their common subpath."""
    if a == b:
        return RelationVerdict(Direction.EQUIVALENT, Clause.ASYMPTOTIC)
    idx = index(s)
    cs = common_subpath(s, a, b)
    if cs is None:
        return RelationVerdict(Direction.INCOMPARABLE, Clause.DISJOINT)
    boundary = idx.domain_by_id[cs.first].right
    pos = {leaf: i for i, leaf in enumerate(boundary)}
    oa, ob = idx.orbit_by_id[a], idx.orbit_by_id[b]
    leaf_a, leaf_b = _entry(idx, oa, cs.first), _entry(idx, ob, cs.first)
    if leaf_a is not None and leaf_b is not None:
        if leaf_a == leaf_b:
            raise FoliageError("common subpath started after a shared crossing")
        first = pos[leaf_a] < pos[leaf_b]
        return RelationVerdict(Direction.FIRST_LESS if first else Direction.SECOND_LESS, Clause.R1)
    if leaf_a is not None:
        if pos[leaf_a] < ob.entry_cut:
            return RelationVerdict(Direction.FIRST_LESS, Clause.R2)
        return RelationVerdict(Direction.SECOND_LESS, Clause.R3)
    if leaf_b is not None:
        if pos[leaf_b] >= oa.entry_cut:
            return RelationVerdict(Direction.FIRST_LESS, Clause.R3)
        return RelationVerdict(Direction.SECOND_LESS, Clause.R2)
    if oa.entry_cut < ob.entry_cut:
        return RelationVerdict(Direction.FIRST_LESS, Clause.R4)
    if oa.entry_cut > ob.entry_cut:
        return RelationVerdict(Direction.SECOND_LESS, Clause.R4)
    return RelationVerdict(Direction.EQUIVALENT, Clause.R4)


def weak_from_verdicts(left: RelationVerdict, right: RelationVerdict) -> bool:
    """Weak transversality from a pair's left and right verdicts."""
    return left.strict and right.strict and left.direction != right.direction


def weak_transverse(s: Scenario, a: str, b: str) -> bool:
    """Strictly and oppositely ordered by the two sided comparisons."""
    return weak_from_verdicts(compare_left(s, a, b), compare_right(s, a, b))


def classic_transverse(s: Scenario, a: str, b: str) -> bool:
    """Both orbits cross distinct leaves on both ends, in opposite orders."""
    if a == b:
        return False
    idx = index(s)
    cs = common_subpath(s, a, b)
    if cs is None:
        return False
    oa, ob = idx.orbit_by_id[a], idx.orbit_by_id[b]
    exit_a, exit_b = _continuation(idx, oa, cs.last), _continuation(idx, ob, cs.last)
    entry_a, entry_b = _entry(idx, oa, cs.first), _entry(idx, ob, cs.first)
    if None in (exit_a, exit_b, entry_a, entry_b):
        return False
    left_pos = {leaf: i for i, leaf in enumerate(idx.domain_by_id[cs.last].left)}
    right_pos = {leaf: i for i, leaf in enumerate(idx.domain_by_id[cs.first].right)}
    left_first = left_pos[exit_a] < left_pos[exit_b]
    right_first = right_pos[entry_a] < right_pos[entry_b]
    return left_first != right_first


def _direction_cmp(v: RelationVerdict) -> int | None:
    if v.direction is Direction.FIRST_LESS:
        return -1
    if v.direction is Direction.SECOND_LESS:
        return 1
    if v.direction is Direction.INCOMPARABLE:
        raise FoliageError("orbits without a common subpath cannot be ordered")
    return None


def standard_cmp(s: Scenario, a: str, b: str) -> int:
    """Composite comparator: right end, then left end, then tie rank."""
    if a == b:
        return 0
    got = _direction_cmp(compare_right(s, a, b))
    if got is not None:
        return got
    got = _direction_cmp(compare_left(s, a, b))
    if got is not None:
        return got
    idx = index(s)
    ra, rb = idx.orbit_by_id[a].tie_rank, idx.orbit_by_id[b].tie_rank
    if ra == rb:
        raise TieRankError(f"orbits {a!r} and {b!r} are equivalent but share tie rank {ra}")
    return -1 if ra < rb else 1


def standard_sorted(s: Scenario, orbit_ids: Iterable[str]) -> tuple[str, ...]:
    ids = sorted(orbit_ids)
    ids.sort(key=functools.cmp_to_key(lambda x, y: standard_cmp(s, x, y)))
    return tuple(ids)


def standard_order(s: Scenario, leaf: str) -> OrderedOrbitList:
    idx = index(s)
    orbs = idx.orbits_crossing(leaf)
    if not orbs:
        raise FoliageError(f"leaf {leaf!r} is crossed by no orbit")
    return OrderedOrbitList(context=leaf, order=standard_sorted(s, orbs))


def exit_class(s: Scenario, m: MaxDomain, orbit_id: str) -> tuple:
    """Grouping key on a maximal domain: shared exit leaf, or terminal cut."""
    idx = index(s)
    o = idx.orbit_by_id[orbit_id]
    if o.omega in m.chain:
        return ("term", o.exit_cut)
    pos = idx.domain_pos[orbit_id][m.chain[-1]]
    return ("exit", o.path[pos + 1])


def adaptive_cmp(s: Scenario, m: MaxDomain, a: str, b: str) -> int:
    """Left-end comparison across exit classes, standard composite inside."""
    if a == b:
        return 0
    if exit_class(s, m, a) == exit_class(s, m, b):
        return standard_cmp(s, a, b)
    got = _direction_cmp(compare_left(s, a, b))
    if got is None:
        raise FoliageError(f"orbits {a!r} and {b!r} in distinct exit classes compare as equivalent")
    return got


def adaptive_sorted(s: Scenario, m: MaxDomain) -> tuple[str, ...]:
    ids = sorted(m.crossers)
    ids.sort(key=functools.cmp_to_key(lambda x, y: adaptive_cmp(s, m, x, y)))
    return tuple(ids)


def adaptive_order(s: Scenario, r: ReducedStructure, mid: str) -> OrderedOrbitList:
    m = r.maxdomain(mid)
    return OrderedOrbitList(context=mid, order=adaptive_sorted(s, m))
