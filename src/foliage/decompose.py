"""Common subpaths and the maximal-domain decomposition.

Two orbit paths of a forest meet in one run of domains, walked the same
way; ``pair_runs`` finds the ends of every such run in one walk per scenario.

A connecting leaf between two skeleton domains is absorbed into a merged
maximal domain exactly when the orbit sets crossing the leaf and both of
its neighbouring domains coincide and are non-empty; every other crossed
connecting leaf is critical and becomes an edge of the reduced forest.
Skeleton domains crossed by no orbit are dropped.  Each maximal domain, a
lone domain being a chain of length one, holds its role sets Oα, Oω, Oin, Oout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .model import FoliageError, Scenario, index


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
    ``alpha``/``omega`` are the crossers that start/stop in the chain; the
    rest enter (``incoming``) or leave (``outgoing``) through a boundary leaf.
    """

    id: str
    chain: tuple[str, ...]
    left: tuple[str, ...]
    right: tuple[str, ...]
    crossers: frozenset[str]
    alpha: frozenset[str]
    omega: frozenset[str]
    internal: tuple[str, ...] = ()
    shed: tuple[str, ...] = ()

    @property
    def incoming(self) -> frozenset[str]:
        return self.crossers - self.alpha

    @property
    def outgoing(self) -> frozenset[str]:
        return self.crossers - self.omega


@dataclass(frozen=True)
class ReducedStructure:
    maxdomains: tuple[MaxDomain, ...]
    critical: frozenset[str]
    forest_edges: tuple[tuple[str, str, str], ...]
    _maxdomain_by_id: dict[str, MaxDomain] = field(init=False, compare=False, repr=False)
    _across: dict[str, dict[str, str]] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_maxdomain_by_id", {m.id: m for m in self.maxdomains})
        across: dict[str, dict[str, str]] = {m.id: {} for m in self.maxdomains}
        for a, leaf, b in self.forest_edges:
            across[a][leaf] = b
            across[b][leaf] = a
        object.__setattr__(self, "_across", across)

    def maxdomain(self, mid: str) -> MaxDomain:
        return _by_maxdomain(self._maxdomain_by_id, mid)

    def across(self, mid: str, leaf: str) -> str:
        """The maximal domain at the far end of ``mid``'s corridor through ``leaf``."""
        return _by_maxdomain(self._across, mid)[leaf]

    def membership(self) -> dict[str, str]:
        """Map each surviving skeleton domain to its maximal domain id."""
        return {d: m.id for m in self.maxdomains for d in m.chain}


def _by_maxdomain(table: dict, mid: str):
    try:
        return table[mid]
    except KeyError:
        raise FoliageError(f"unknown maximal domain {mid!r}") from None


def pair_runs(s: Scenario) -> dict[tuple[str, str], tuple[str, str]]:
    """``(first, last)`` of the common subpath of each pair of orbit ids
    ``a < b`` that meet, in id order; built on first use, kept on the index.
    A walk along each ``a``'s path lists the ``n`` domains each later ``b``
    shares: one run in both paths when its ends lie ``2*(n-1)`` apart in each."""
    idx = index(s)
    if idx.runs is None:
        pos, runs = idx.domain_pos, {}
        for a in sorted(idx.orbit_by_id):
            pa, shared = pos[a], {}
            for d in pa:
                for b in filter(a.__lt__, idx.domain_orbits[d]):
                    shared.setdefault(b, []).append(d)
            for b in sorted(shared):
                first, last = shared[b][0], shared[b][-1]
                if not pa[last] - pa[first] == pos[b][last] - pos[b][first] == 2 * len(shared[b]) - 2:
                    raise FoliageError(f"orbits {a!r} and {b!r} share a non-contiguous domain set")
                runs[a, b] = first, last
        idx.runs = runs
    return idx.runs


def common_subpath(s: Scenario, a: str, b: str) -> Optional[CommonSubpath]:
    """Shared domain run of two orbits, or None when they are separated: the
    ends ``pair_runs`` found, or the orbit's whole run when ``a == b``."""
    idx, runs = index(s), pair_runs(s)
    oa, _ob = idx.orbit(a), idx.orbit(b)
    run = (oa.alpha, oa.omega) if a == b else runs.get((a, b) if a < b else (b, a))
    if run is None:
        return None
    pa = idx.domain_pos[a]
    return CommonSubpath(*run, oa.path[pa[run[0]] : pa[run[1]] + 1 : 2])


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
    # A crossed leaf merges its two domains when all three carry one orbit
    # set.  An orbit visits a domain once, so each domain has at most one
    # merge successor and one merge predecessor, and a merged component is
    # the chain that follows successors from a domain with no predecessor.
    succ: dict[str, tuple[str, str]] = {}
    merged: set[str] = set()
    critical: list[tuple[str, str, str]] = []
    for a, leaf, b in idx.edges:
        orbs = idx.leaf_orbits.get(leaf)
        if not orbs:
            continue
        if orbs == idx.domain_orbits[a] == idx.domain_orbits[b]:
            if a in succ or b in merged:
                raise FoliageError("merged component is not a simple chain")
            succ[a] = (leaf, b)
            merged.add(b)
        else:
            critical.append((a, leaf, b))

    maxdomains: list[MaxDomain] = []
    membership: dict[str, str] = {}
    crossed = 0
    for d in s.domains:
        crossers = idx.domain_orbits[d.id]
        if not crossers:
            continue
        crossed += 1
        if d.id in merged:
            continue
        chain, internal = [d.id], []
        while chain[-1] in succ:
            leaf, nxt = succ[chain[-1]]
            internal.append(leaf)
            chain.append(nxt)
        doms = [idx.domain_by_id[c] for c in chain]
        shed = {leaf for c in doms[:-1] for leaf in c.left} | {leaf for c in doms[1:] for leaf in c.right}
        alpha = frozenset(o for o in crossers if idx.orbit_by_id[o].alpha in chain)
        omega = frozenset(o for o in crossers if idx.orbit_by_id[o].omega in chain)
        m = MaxDomain(
            "M:" + "+".join(chain), tuple(chain), doms[-1].left, d.right, crossers, alpha, omega,
            tuple(internal), tuple(sorted(shed - set(internal))),
        )
        maxdomains.append(m)
        membership.update(dict.fromkeys(chain, m.id))
    if len(membership) != crossed:
        raise FoliageError("merged component is not a simple chain")
    maxdomains.sort(key=lambda m: m.id)

    return ReducedStructure(
        maxdomains=tuple(maxdomains),
        critical=frozenset(leaf for _a, leaf, _b in critical),
        forest_edges=tuple(sorted((membership[a], leaf, membership[b]) for a, leaf, b in critical)),
    )
