"""Common subpaths and the maximal-domain decomposition.

A connecting leaf between two skeleton domains is absorbed into a merged
maximal domain exactly when the orbit sets crossing the leaf and both of
its neighbouring domains coincide and are non-empty; every other crossed
connecting leaf is critical and becomes an edge of the reduced forest.
Skeleton domains crossed by no orbit are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .model import FoliageError, Scenario, _UnionFind, index


@dataclass(frozen=True)
class CommonSubpath:
    """The maximal contiguous run of domains shared by two orbit paths."""

    first: str
    last: str
    chain: tuple[str, ...]


@dataclass(frozen=True)
class MaxDomain:
    """A maximal chain of skeleton domains crossed by one orbit set.

    ``left``/``right`` are the boundary lists of the chain's last and first
    element; ``internal`` holds the merged connecting leaves in chain order
    and ``shed`` the remaining boundary leaves of interior chain positions.
    """

    id: str
    chain: tuple[str, ...]
    left: tuple[str, ...]
    right: tuple[str, ...]
    crossers: frozenset[str]
    internal: tuple[str, ...] = ()
    shed: tuple[str, ...] = ()


@dataclass(frozen=True)
class Roles:
    alpha: frozenset[str]
    omega: frozenset[str]
    incoming: frozenset[str]
    outgoing: frozenset[str]


@dataclass(frozen=True)
class ReducedStructure:
    maxdomains: tuple[MaxDomain, ...]
    critical: frozenset[str]
    forest_edges: tuple[tuple[str, str, str], ...]
    roles: tuple[tuple[str, Roles], ...]
    _maxdomain_by_id: dict[str, MaxDomain] = field(init=False, compare=False, repr=False)
    _roles_by_id: dict[str, Roles] = field(init=False, compare=False, repr=False)
    _across: dict[str, dict[str, str]] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_maxdomain_by_id", {m.id: m for m in self.maxdomains})
        object.__setattr__(self, "_roles_by_id", dict(self.roles))
        across: dict[str, dict[str, str]] = {m.id: {} for m in self.maxdomains}
        for a, leaf, b in self.forest_edges:
            across[a][leaf] = b
            across[b][leaf] = a
        object.__setattr__(self, "_across", across)

    def maxdomain(self, mid: str) -> MaxDomain:
        return _by_maxdomain(self._maxdomain_by_id, mid)

    def roles_of(self, mid: str) -> Roles:
        return _by_maxdomain(self._roles_by_id, mid)

    def across(self, mid: str, leaf: str) -> str:
        """The maximal domain at the far end of ``mid``'s corridor through ``leaf``."""
        return _by_maxdomain(self._across, mid)[leaf]

    def neighbours(self, mid: str) -> tuple[str, ...]:
        """The maximal domains one corridor away from ``mid``, sorted."""
        return tuple(sorted(_by_maxdomain(self._across, mid).values()))

    def membership(self) -> dict[str, str]:
        """Map each surviving skeleton domain to its maximal domain id."""
        return {d: m.id for m in self.maxdomains for d in m.chain}


def _by_maxdomain(table: dict, mid: str):
    try:
        return table[mid]
    except KeyError:
        raise FoliageError(f"unknown maximal domain {mid!r}") from None


def common_subpath(s: Scenario, a: str, b: str) -> Optional[CommonSubpath]:
    """Shared domain run of two orbits, or None when they are separated.

    Computed on each call; ``relations.pair_relations`` keeps, per ordered
    pair, the relations it compares at the two ends of this run.
    """
    idx = index(s)
    pos_a, pos_b = idx.domain_pos[idx.orbit(a).id], idx.domain_pos[idx.orbit(b).id]
    shared = pos_a.keys() & pos_b.keys()
    if not shared:
        return None
    run_a = sorted(shared, key=pos_a.__getitem__)
    run_b = sorted(shared, key=pos_b.__getitem__)
    # Paths of a forest meet in one contiguous run traversed the same way;
    # consecutive domains sit two path positions apart.
    start_a, start_b = pos_a[run_a[0]], pos_b[run_b[0]]
    if run_a != run_b or any(pos_a[d] != start_a + 2 * k for k, d in enumerate(run_a)) or any(
        pos_b[d] != start_b + 2 * k for k, d in enumerate(run_b)
    ):
        raise FoliageError(f"orbits {a!r} and {b!r} share a non-contiguous domain set")
    return CommonSubpath(first=run_a[0], last=run_a[-1], chain=tuple(run_a))


def _mergeable(idx, edge: tuple[str, str, str]) -> bool:
    a, leaf, b = edge
    orbs = idx.leaf_orbits.get(leaf, frozenset())
    return bool(orbs) and orbs == idx.domain_orbits[a] == idx.domain_orbits[b]


def reduce_scenario(s: Scenario) -> ReducedStructure:
    """Partition the crossed skeleton into maximal domains and critical leaves.

    Computed on first use and kept on the scenario's index.
    """
    idx = index(s)
    if idx.reduced is None:
        idx.reduced = _reduce(s)
    return idx.reduced


def _reduce(s: Scenario) -> ReducedStructure:
    idx = index(s)
    crossed = [d for d in s.domains if idx.domain_orbits[d.id]]
    uf = _UnionFind(d.id for d in crossed)
    merge_edges = [e for e in idx.edges if _mergeable(idx, e)]
    for a, _leaf, b in merge_edges:
        uf.union(a, b)

    components: dict[str, list[str]] = {}
    for d in crossed:
        components.setdefault(uf.find(d.id), []).append(d.id)

    succ = {a: (leaf, b) for a, leaf, b in merge_edges}
    has_pred = {b for _a, _leaf, b in merge_edges}
    maxdomains: list[MaxDomain] = []
    membership: dict[str, str] = {}
    for ids in components.values():
        starts = [d for d in ids if d not in has_pred]
        if len(starts) != 1:
            raise FoliageError("merged component is not a simple chain")
        chain = [starts[0]]
        internal: list[str] = []
        while chain[-1] in succ:
            leaf, nxt = succ[chain[-1]]
            internal.append(leaf)
            chain.append(nxt)
        if set(chain) != set(ids):
            raise FoliageError("merged component is not a simple chain")
        first, last = idx.domain_by_id[chain[0]], idx.domain_by_id[chain[-1]]
        shed = sorted(
            (
                {leaf for d in chain[:-1] for leaf in idx.domain_by_id[d].left}
                | {leaf for d in chain[1:] for leaf in idx.domain_by_id[d].right}
            )
            - set(internal)
        )
        mid = "M:" + "+".join(chain)
        maxdomains.append(
            MaxDomain(
                id=mid,
                chain=tuple(chain),
                left=last.left,
                right=first.right,
                crossers=idx.domain_orbits[chain[0]],
                internal=tuple(internal),
                shed=tuple(shed),
            )
        )
        for d in chain:
            membership[d] = mid
    maxdomains.sort(key=lambda m: m.id)

    critical = frozenset(
        leaf for a, leaf, b in idx.edges if idx.leaf_orbits.get(leaf) and not _mergeable(idx, (a, leaf, b))
    )
    forest_edges = tuple(
        sorted((membership[a], leaf, membership[b]) for a, leaf, b in idx.edges if leaf in critical)
    )

    roles = []
    for m in maxdomains:
        chain_set = set(m.chain)
        alpha = frozenset(o for o in m.crossers if idx.orbit_by_id[o].alpha in chain_set)
        omega = frozenset(o for o in m.crossers if idx.orbit_by_id[o].omega in chain_set)
        roles.append((m.id, Roles(alpha=alpha, omega=omega, incoming=m.crossers - alpha, outgoing=m.crossers - omega)))

    return ReducedStructure(
        maxdomains=tuple(maxdomains),
        critical=critical,
        forest_edges=forest_edges,
        roles=tuple(roles),
    )
