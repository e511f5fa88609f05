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
from typing import Iterable, NamedTuple

from .decompose import CommonSubpath, MaxDomain, ReducedStructure, common_subpath
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

    @functools.cached_property
    def _text(self) -> str:
        return f"{self.direction.value}({self.clause.value})"

    def __str__(self) -> str:
        return self._text


@dataclass(frozen=True)
class OrderedOrbitList:
    context: str
    order: tuple[str, ...]


class TieRankError(FoliageError):
    """Two fully equivalent orbits carry the same tie rank."""


class PairRelations(NamedTuple):
    """Both sided verdicts and both asymptotic flags of one ordered pair;
    weak and classic transversality follow from the two verdicts."""

    left: RelationVerdict
    right: RelationVerdict
    forward_asymptotic: bool
    backward_asymptotic: bool


class _SideVerdicts(NamedTuple):
    """The verdicts one end can give; index k of a tuple is clause k + 1."""

    first: tuple[RelationVerdict, ...]
    second: tuple[RelationVerdict, ...]
    equivalent: RelationVerdict


def _side_verdicts(*clauses: Clause) -> _SideVerdicts:
    return _SideVerdicts(
        tuple(RelationVerdict(Direction.FIRST_LESS, c) for c in clauses),
        tuple(RelationVerdict(Direction.SECOND_LESS, c) for c in clauses),
        RelationVerdict(Direction.EQUIVALENT, clauses[-1]),
    )


# Verdicts are shared constants, so each one's text is formatted once.
_LEFT = _side_verdicts(Clause.L1, Clause.L2, Clause.L3, Clause.L4)
_RIGHT = _side_verdicts(Clause.R1, Clause.R2, Clause.R3, Clause.R4)
_SAME = RelationVerdict(Direction.EQUIVALENT, Clause.ASYMPTOTIC)
_DISJOINT = RelationVerdict(Direction.INCOMPARABLE, Clause.DISJOINT)


def _same_end(oa: Orbit, ob: Orbit) -> bool:
    return oa.omega == ob.omega and oa.exit_cut == ob.exit_cut


def _same_start(oa: Orbit, ob: Orbit) -> bool:
    return oa.alpha == ob.alpha and oa.entry_cut == ob.entry_cut


def plus_asymptotic(s: Scenario, a: str, b: str) -> bool:
    """Forward equivalence: shared terminal domain with equal exit cuts."""
    idx = index(s)
    oa, ob = idx.orbit_by_id[a], idx.orbit_by_id[b]
    if a == b:
        return True
    return common_subpath(s, a, b) is not None and _same_end(oa, ob)


def minus_asymptotic(s: Scenario, a: str, b: str) -> bool:
    """Backward equivalence: shared initial domain with equal entry cuts."""
    idx = index(s)
    oa, ob = idx.orbit_by_id[a], idx.orbit_by_id[b]
    if a == b:
        return True
    return common_subpath(s, a, b) is not None and _same_start(oa, ob)


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


def _sided(
    verdicts: _SideVerdicts, rank: dict[str, int], leaf_a: str | None, leaf_b: str | None, cut_a: int, cut_b: int
) -> RelationVerdict:
    """One end's verdict from the leaves the orbits cross past the shared
    run there (None for an orbit that ends in it) and their terminal cuts."""
    first, second = verdicts.first, verdicts.second
    if leaf_a is not None and leaf_b is not None:
        return first[0] if rank[leaf_a] < rank[leaf_b] else second[0]
    if leaf_a is not None:
        return first[1] if rank[leaf_a] < cut_b else second[2]
    if leaf_b is not None:
        return first[2] if rank[leaf_b] >= cut_a else second[1]
    if cut_a < cut_b:
        return first[3]
    if cut_a > cut_b:
        return second[3]
    return verdicts.equivalent


def _left_verdict(idx, cs: CommonSubpath, oa: Orbit, ob: Orbit) -> RelationVerdict:
    leaf_a, leaf_b = _continuation(idx, oa, cs.last), _continuation(idx, ob, cs.last)
    if leaf_a is not None and leaf_a == leaf_b:
        raise FoliageError("common subpath ended before a shared crossing")
    return _sided(_LEFT, idx.left_rank, leaf_a, leaf_b, oa.exit_cut, ob.exit_cut)


def _right_verdict(idx, cs: CommonSubpath, oa: Orbit, ob: Orbit) -> RelationVerdict:
    leaf_a, leaf_b = _entry(idx, oa, cs.first), _entry(idx, ob, cs.first)
    if leaf_a is not None and leaf_a == leaf_b:
        raise FoliageError("common subpath started after a shared crossing")
    return _sided(_RIGHT, idx.right_rank, leaf_a, leaf_b, oa.entry_cut, ob.entry_cut)


def compare_left(s: Scenario, a: str, b: str) -> RelationVerdict:
    """Compare two orbits at the left end of their common subpath."""
    if a == b:
        return _SAME
    cs = common_subpath(s, a, b)
    if cs is None:
        return _DISJOINT
    idx = index(s)
    return _left_verdict(idx, cs, idx.orbit_by_id[a], idx.orbit_by_id[b])


def compare_right(s: Scenario, a: str, b: str) -> RelationVerdict:
    """Compare two orbits at the right end of their common subpath."""
    if a == b:
        return _SAME
    cs = common_subpath(s, a, b)
    if cs is None:
        return _DISJOINT
    idx = index(s)
    return _right_verdict(idx, cs, idx.orbit_by_id[a], idx.orbit_by_id[b])


def pair_relations(s: Scenario, a: str, b: str) -> PairRelations:
    """Both sided verdicts and both asymptotic flags of a pair, from one
    common-subpath lookup; equal to ``compare_left``, ``compare_right``,
    ``plus_asymptotic`` and ``minus_asymptotic`` called one by one."""
    if a == b:
        return PairRelations(_SAME, _SAME, True, True)
    cs = common_subpath(s, a, b)
    if cs is None:
        return PairRelations(_DISJOINT, _DISJOINT, False, False)
    idx = index(s)
    oa, ob = idx.orbit_by_id[a], idx.orbit_by_id[b]
    return PairRelations(
        _left_verdict(idx, cs, oa, ob), _right_verdict(idx, cs, oa, ob), _same_end(oa, ob), _same_start(oa, ob)
    )


def weak_from_verdicts(left: RelationVerdict, right: RelationVerdict) -> bool:
    """Weak transversality from a pair's left and right verdicts."""
    return left.strict and right.strict and left.direction != right.direction


def weak_transverse(s: Scenario, a: str, b: str) -> bool:
    """Strictly and oppositely ordered by the two sided comparisons."""
    return weak_from_verdicts(compare_left(s, a, b), compare_right(s, a, b))


def classic_from_verdicts(left: RelationVerdict, right: RelationVerdict) -> bool:
    """Classic transversality from a pair's left and right verdicts: both
    orbits cross distinct leaves on both ends (L1 and R1), in opposite orders."""
    return left.clause is Clause.L1 and right.clause is Clause.R1 and left.direction != right.direction


def classic_transverse(s: Scenario, a: str, b: str) -> bool:
    """Both orbits cross distinct leaves on both ends, in opposite orders."""
    return classic_from_verdicts(compare_left(s, a, b), compare_right(s, a, b))


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
