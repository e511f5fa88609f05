"""Asymptotic equivalences, sided preorders and the composite total orders.

Two orbits with a common subpath are compared at its two ends.  On the left
end the verdict is decided by which boundary leaf each orbit exits through
(clause L1), by an exit leaf against the other orbit's terminal cut (L2/L3),
or by comparing the two terminal cuts (L4); the right end mirrors this with
entry leaves and entry cuts.  Equal terminal data in the L4/R4 case is the
forward/backward asymptotic equivalence.

A pair's record holds both verdicts and both asymptotic flags, read at the
two ends of the pair's shared run of domains, and is kept per ordered pair
on the scenario's index; ``pair_relations`` builds one from
``decompose.common_subpath``.  The sided comparisons, asymptotic and
transversality tests and pairwise comparators below read its fields.

``met_pair_relations`` is the one pass over the pairs ``a < b`` that share
a skeleton domain, in id order, finding each pair's run in one walk along
each orbit's path; the ``relations`` command and ``realize.weak_matrix``
read it.  Every other pair has no common subpath, so it is Disjoint on both
ends and asymptotic on neither: its record is the shared ``DISJOINT_PAIR``,
which only the table writer fills in.

Verdicts and orders read one walk per orbit and direction, kept on the
index (``orbit_walks``): ``2*rank+1`` per leaf crossed, then ``2*cut``;
left ranks and the exit cut forward, right ranks and the entry cut back.
A verdict compares the entries just past the common subpath, and an order
sorts by key: ``side_key(idx, o, domain, step)`` is o's walk from
``domain``.  Orbits through ``domain`` compare by these keys as
``compare_left`` and ``compare_right`` order them.  With rkey walking
back from the first domain and lkey on from the last, the standard order
sorts by ``(rkey, lkey, tie_rank)``, the adaptive order by
``(lkey[0], rkey, lkey, tie_rank)`` (``lkey[0]`` is the exit class) and the
one-sided orders by ``(lkey, tie_rank, rkey)`` or its mirror.  Equal keys
raise ``TieRankError``, naming the two orbits in id order.  ``standard_cmp``
and ``adaptive_cmp`` are the pairwise reference definitions, kept as oracles.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, NamedTuple

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


def _side_verdicts(*clauses: Clause) -> tuple:
    """The verdicts one end can give: the FirstLess and the SecondLess ones
    (index k is clause k + 1), and the Equivalent one of the last clause."""
    return (
        tuple(RelationVerdict(Direction.FIRST_LESS, c) for c in clauses),
        tuple(RelationVerdict(Direction.SECOND_LESS, c) for c in clauses),
        RelationVerdict(Direction.EQUIVALENT, clauses[-1]),
    )


# Verdicts are shared constants, so each one's text is formatted once.
_LEFT = _side_verdicts(Clause.L1, Clause.L2, Clause.L3, Clause.L4)
_RIGHT = _side_verdicts(Clause.R1, Clause.R2, Clause.R3, Clause.R4)
_SAME = RelationVerdict(Direction.EQUIVALENT, Clause.ASYMPTOTIC)
_DISJOINT = RelationVerdict(Direction.INCOMPARABLE, Clause.DISJOINT)
# The relations of an orbit with itself, and of every pair of distinct
# orbits with no common subpath.
_SAME_PAIR = PairRelations(_SAME, _SAME, True, True)
DISJOINT_PAIR = PairRelations(_DISJOINT, _DISJOINT, False, False)


def beyond(idx, o: Orbit, domain: str, step: int) -> str | None:
    """The leaf o crosses right after ``domain`` (``step=+1``) or right
    before it (``step=-1``); None when o ends (starts) at ``domain``."""
    pos = idx.domain_pos[o.id][domain] + step
    return o.path[pos] if 0 <= pos < len(o.path) else None


def orbit_walks(idx) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each orbit's walks by id, built for all orbits on first use: back (right
    ranks, then the entry cut) and forward (left ranks, then the exit cut),
    both in path order, so entry k of either lies just past domain k."""
    if idx.walks is None:
        left, right = idx.left_rank, idx.right_rank
        idx.walks = {
            o.id: (
                (2 * o.entry_cut, *[2 * right[leaf] + 1 for leaf in o.path[1::2]]),
                (*[2 * left[leaf] + 1 for leaf in o.path[1::2]], 2 * o.exit_cut),
            )
            for o in idx.orbit_by_id.values()
        }
    return idx.walks


def side_key(idx, o: Orbit, domain: str, step: int) -> tuple[int, ...]:
    """The slice of o's walk away from ``domain``, forward when ``step > 0``."""
    k = idx.domain_pos[o.id][domain] >> 1
    back, forward = orbit_walks(idx)[o.id]
    return forward[k:] if step > 0 else back[k::-1]


def _verdict(idx, oa: Orbit, ob: Orbit, domain: str, step: int) -> RelationVerdict:
    """The verdict at the end of the common subpath that ``domain`` closes
    (its last domain on the left, ``step=+1``; its first on the right), from
    the two orbits' walk entries just past it."""
    walks, pos, forward = orbit_walks(idx), idx.domain_pos, step > 0
    ka = walks[oa.id][forward][pos[oa.id][domain] >> 1]
    kb = walks[ob.id][forward][pos[ob.id][domain] >> 1]
    first, second, equivalent = _LEFT if forward else _RIGHT
    if ka == kb:
        if ka & 1:
            raise FoliageError(f"common subpath {'ended before' if forward else 'started after'} a shared crossing")
        return equivalent
    # Clause 1: two leaves; 2: only the lesser leaves; 3: only the greater; 4: two cuts.
    lo, hi = (ka, kb) if ka < kb else (kb, ka)
    return (first if ka < kb else second)[3 - 2 * (lo & 1) - (hi & 1)]


def _pair_record(idx, oa: Orbit, ob: Orbit, first: str, last: str) -> PairRelations:
    """The relations of two distinct orbits whose common subpath runs ``first``..``last``."""
    return PairRelations(
        _verdict(idx, oa, ob, last, 1),
        _verdict(idx, oa, ob, first, -1),
        oa.omega == ob.omega and oa.exit_cut == ob.exit_cut,
        oa.alpha == ob.alpha and oa.entry_cut == ob.entry_cut,
    )


def pair_relations(s: Scenario, a: str, b: str) -> PairRelations:
    """Both sided verdicts and both asymptotic flags of ``(a, b)``, computed
    once per ordered pair and kept on the scenario's index.  A pair that
    raises is not kept, so it raises again on every call."""
    idx = index(s)
    p = idx.pairs.get((a, b))
    if p is None:
        oa, ob = idx.orbit(a), idx.orbit(b)
        cs = common_subpath(s, a, b) if a != b else None
        if cs is None:
            p = _SAME_PAIR if a == b else DISJOINT_PAIR
        else:
            p = _pair_record(idx, oa, ob, cs.first, cs.last)
        idx.pairs[(a, b)] = p
    return p


def compare_left(s: Scenario, a: str, b: str) -> RelationVerdict:
    """Compare two orbits at the left end of their common subpath."""
    return pair_relations(s, a, b).left


def compare_right(s: Scenario, a: str, b: str) -> RelationVerdict:
    """Compare two orbits at the right end of their common subpath."""
    return pair_relations(s, a, b).right


def plus_asymptotic(s: Scenario, a: str, b: str) -> bool:
    """Forward equivalence: shared terminal domain with equal exit cuts."""
    return pair_relations(s, a, b).forward_asymptotic


def minus_asymptotic(s: Scenario, a: str, b: str) -> bool:
    """Backward equivalence: shared initial domain with equal entry cuts."""
    return pair_relations(s, a, b).backward_asymptotic


def met_pair_relations(s: Scenario) -> Iterator[tuple[str, str, PairRelations]]:
    """``(a, b, pair_relations(s, a, b))`` for the pairs of orbit ids
    ``a < b`` that share a skeleton domain, in id order; every other pair
    is ``DISJOINT_PAIR``.  One walk along each ``a``'s path lists the ``n`` domains each later
    ``b`` shares with it: one run in both paths when its ends lie ``2*(n-1)`` apart in each."""
    idx = index(s)
    pos, pairs = idx.domain_pos, idx.pairs
    for a in sorted(idx.orbit_by_id):
        pa, shared = pos[a], {}
        for d in pa:
            for b in filter(a.__lt__, idx.domain_orbits[d]):
                shared.setdefault(b, []).append(d)
        for b in sorted(shared):
            p = pairs.get((a, b))
            if p is None:
                first, last = shared[b][0], shared[b][-1]
                if not pa[last] - pa[first] == pos[b][last] - pos[b][first] == 2 * len(shared[b]) - 2:
                    raise FoliageError(f"orbits {a!r} and {b!r} share a non-contiguous domain set")
                p = pairs[(a, b)] = _pair_record(idx, idx.orbit_by_id[a], idx.orbit_by_id[b], first, last)
            yield a, b, p


def weak_from_verdicts(left: RelationVerdict, right: RelationVerdict) -> bool:
    """Weak transversality from a pair's left and right verdicts."""
    return left.strict and right.strict and left.direction != right.direction


def weak_transverse(s: Scenario, a: str, b: str) -> bool:
    """Strictly and oppositely ordered by the two sided comparisons."""
    return weak_from_verdicts(*pair_relations(s, a, b)[:2])


def classic_from_verdicts(left: RelationVerdict, right: RelationVerdict) -> bool:
    """Classic transversality from a pair's left and right verdicts: both
    orbits cross distinct leaves on both ends (L1 and R1), in opposite orders."""
    return left.clause is Clause.L1 and right.clause is Clause.R1 and left.direction != right.direction


def classic_transverse(s: Scenario, a: str, b: str) -> bool:
    """Both orbits cross distinct leaves on both ends, in opposite orders."""
    return classic_from_verdicts(*pair_relations(s, a, b)[:2])


def sorted_by_key(s: Scenario, ids: Iterable[str], key: Callable[[str], tuple]) -> tuple[str, ...]:
    """The orbits sorted by ``(key, id)``; two orbits with equal keys are
    equivalent and share a tie rank, and raise ``TieRankError``."""
    ranked = sorted((key(o), o) for o in ids)
    for (ka, a), (kb, b) in zip(ranked, ranked[1:]):
        if ka == kb:
            rank = index(s).orbit_by_id[a].tie_rank
            raise TieRankError(f"orbits {a!r} and {b!r} are equivalent but share tie rank {rank}")
    return tuple(o for _key, o in ranked)


def standard_keys(s: Scenario, ids: Iterable[str], first: str, last: str) -> dict[str, tuple]:
    """``(rkey, lkey, tie_rank)`` of each orbit through ``first``..``last``:
    rkey walks back from ``first`` and lkey on from ``last``."""
    idx = index(s)
    orbits = [idx.orbit_by_id[oid] for oid in ids]
    return {o.id: (side_key(idx, o, first, -1), side_key(idx, o, last, 1), o.tie_rank) for o in orbits}


def leaf_keys(s: Scenario, leaf: str) -> dict[str, tuple]:
    """Standard keys of the orbits crossing a leaf, from its two domains."""
    idx = index(s)
    orbs = idx.orbits_crossing(leaf)
    if not orbs:
        raise FoliageError(f"leaf {leaf!r} is crossed by no orbit")
    return standard_keys(s, orbs, *idx.edge_by_leaf[leaf])


def chain_orders(s: Scenario, m: MaxDomain) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The standard and the adaptive order of a maximal domain's crossers."""
    keys = standard_keys(s, m.crossers, m.chain[0], m.chain[-1])
    return sorted_by_key(s, keys, keys.__getitem__), sorted_by_key(s, keys, lambda o: (keys[o][1][0], *keys[o]))


def standard_order(s: Scenario, leaf: str) -> OrderedOrbitList:
    keys = leaf_keys(s, leaf)
    return OrderedOrbitList(context=leaf, order=sorted_by_key(s, keys, keys.__getitem__))


def adaptive_order(s: Scenario, r: ReducedStructure, mid: str) -> OrderedOrbitList:
    return OrderedOrbitList(context=mid, order=chain_orders(s, r.maxdomain(mid))[1])


# The pairwise reference definitions of the standard and adaptive orders.
_SIGN = {Direction.FIRST_LESS: -1, Direction.SECOND_LESS: 1}


def _direction_cmp(v: RelationVerdict) -> int | None:
    if v.direction is Direction.INCOMPARABLE:
        raise FoliageError("orbits without a common subpath cannot be ordered")
    return _SIGN.get(v.direction)


def standard_cmp(s: Scenario, a: str, b: str) -> int:
    """Composite comparator: right end, then left end, then tie rank."""
    p = pair_relations(s, a, b)
    if a == b:
        return 0
    for verdict in (p.right, p.left):
        got = _direction_cmp(verdict)
        if got is not None:
            return got
    idx = index(s)
    ra, rb = idx.orbit_by_id[a].tie_rank, idx.orbit_by_id[b].tie_rank
    if ra == rb:
        raise TieRankError(f"orbits {a!r} and {b!r} are equivalent but share tie rank {ra}")
    return -1 if ra < rb else 1


def adaptive_cmp(s: Scenario, m: MaxDomain, a: str, b: str) -> int:
    """Left-end comparison across exit classes (the leaf an orbit leaves the
    chain by, or its exit cut if it ends there), standard composite inside."""
    p = pair_relations(s, a, b)
    if a == b:
        return 0
    idx = index(s)
    oa, ob = idx.orbit_by_id[a], idx.orbit_by_id[b]
    leaf_a, leaf_b = beyond(idx, oa, m.chain[-1], 1), beyond(idx, ob, m.chain[-1], 1)
    if leaf_a == leaf_b and (leaf_a is not None or oa.exit_cut == ob.exit_cut):
        return standard_cmp(s, a, b)
    got = _direction_cmp(p.left)
    if got is None:
        raise FoliageError(f"orbits {a!r} and {b!r} in distinct exit classes compare as equivalent")
    return got
