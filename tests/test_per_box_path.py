"""The per-maximal-domain path: reduce, port plans and the boundary order.

``decompose._reduce``, ``realize.port_plan`` and ``realize.boundary_order``
each make one pass per maximal domain.  They are checked against the
bodies they replaced, kept here as oracles: a reduce by union-find and a
components dict; port plans from a per-orbit key dict sorted twice, with
side items grouped through a ``beyond`` callback; and the boundary walk
over ``box_cycle`` lists of tagged attachments, one nested generator per
box, from the least box of each tree, the trees found by a search of
their own.
"""

import functools
import time

import pytest

from foliage import decompose
from foliage.decompose import MaxDomain, ReducedStructure, reduce_scenario
from foliage.generator import GeneratorConfig, generate_scenario
from foliage.model import FIXTURE_NAMES, FoliageError, Scenario, _UnionFind, fixture, index
from foliage.realize import (
    BACKWARD,
    FORWARD,
    BoundaryOrder,
    PortPlan,
    SideItem,
    all_port_plans,
    boundary_order,
    port_plan,
    run_nested,
)
from foliage.relations import TieRankError, beyond, side_key

from deep_families import binary, caterpillar, chain, linked_chain, zigzag


# -- the oracles ----------------------------------------------------------------


def _mergeable(idx, edge):
    a, leaf, b = edge
    orbs = idx.leaf_orbits.get(leaf, frozenset())
    return bool(orbs) and orbs == idx.domain_orbits[a] == idx.domain_orbits[b]


def reduce_oracle(s):
    idx = index(s)
    crossed = [d for d in s.domains if idx.domain_orbits[d.id]]
    uf = _UnionFind(d.id for d in crossed)
    merge_edges = [e for e in idx.edges if _mergeable(idx, e)]
    for a, _leaf, b in merge_edges:
        uf.union(a, b)

    components = {}
    for d in crossed:
        components.setdefault(uf.find(d.id), []).append(d.id)

    succ = {a: (leaf, b) for a, leaf, b in merge_edges}
    has_pred = {b for _a, _leaf, b in merge_edges}
    maxdomains = []
    membership = {}
    for ids in components.values():
        starts = [d for d in ids if d not in has_pred]
        if len(starts) != 1:
            raise FoliageError("merged component is not a simple chain")
        chain_ = [starts[0]]
        internal = []
        while chain_[-1] in succ:
            leaf, nxt = succ[chain_[-1]]
            internal.append(leaf)
            chain_.append(nxt)
        if set(chain_) != set(ids):
            raise FoliageError("merged component is not a simple chain")
        first, last = idx.domain_by_id[chain_[0]], idx.domain_by_id[chain_[-1]]
        shed = sorted(
            (
                {leaf for d in chain_[:-1] for leaf in idx.domain_by_id[d].left}
                | {leaf for d in chain_[1:] for leaf in idx.domain_by_id[d].right}
            )
            - set(internal)
        )
        mid = "M:" + "+".join(chain_)
        crossers, chain_set = idx.domain_orbits[chain_[0]], set(chain_)
        maxdomains.append(
            MaxDomain(
                id=mid,
                chain=tuple(chain_),
                left=last.left,
                right=first.right,
                crossers=crossers,
                alpha=frozenset(o for o in crossers if idx.orbit_by_id[o].alpha in chain_set),
                omega=frozenset(o for o in crossers if idx.orbit_by_id[o].omega in chain_set),
                internal=tuple(internal),
                shed=tuple(shed),
            )
        )
        for d in chain_:
            membership[d] = mid
    maxdomains.sort(key=lambda m: m.id)

    critical = frozenset(
        leaf for a, leaf, b in idx.edges if idx.leaf_orbits.get(leaf) and not _mergeable(idx, (a, leaf, b))
    )
    forest_edges = tuple(
        sorted((membership[a], leaf, membership[b]) for a, leaf, b in idx.edges if leaf in critical)
    )
    return ReducedStructure(maxdomains=tuple(maxdomains), critical=critical, forest_edges=forest_edges)


def _sorted_by_key(s, ids, key):
    ranked = sorted((key(o), o) for o in ids)
    for (ka, a), (kb, b) in zip(ranked, ranked[1:]):
        if ka == kb:
            rank = index(s).orbit_by_id[a].tie_rank
            raise TieRankError(f"orbits {a!r} and {b!r} are equivalent but share tie rank {rank}")
    return tuple(o for _key, o in ranked)


def _chain_orders(s, m):
    idx = index(s)
    orbits = [idx.orbit_by_id[oid] for oid in m.crossers]
    first, last = m.chain[0], m.chain[-1]
    keys = {o.id: (side_key(idx, o, first, -1), side_key(idx, o, last, 1), o.tie_rank) for o in orbits}
    return _sorted_by_key(s, keys, keys.__getitem__), _sorted_by_key(s, keys, lambda o: (keys[o][1][0], *keys[o]))


def _side_items(seq, group_of):
    items = []
    i = 0
    while i < len(seq):
        leaf = group_of(seq[i])
        if leaf is None:
            items.append(SideItem(None, (seq[i],), i, i))
            i += 1
            continue
        j = i
        while j + 1 < len(seq) and group_of(seq[j + 1]) == leaf:
            j += 1
        items.append(SideItem(leaf, tuple(seq[i : j + 1]), i, j))
        i = j + 1
    return tuple(items)


def port_plan_oracle(s, m):
    idx = index(s)
    entry_seq, exit_seq = _chain_orders(s, m)
    return PortPlan(
        entry_seq=entry_seq,
        exit_seq=exit_seq,
        entry_items=_side_items(entry_seq, lambda o: beyond(idx, idx.orbit_by_id[o], m.chain[0], -1)),
        exit_items=_side_items(exit_seq, lambda o: beyond(idx, idx.orbit_by_id[o], m.chain[-1], 1)),
    )


def box_cycle(plan):
    cyc = []
    for item in plan.entry_items:
        if item.leaf is not None:
            cyc.append(("edge", item.leaf))
        else:
            cyc.append(("end", item.orbits[0], BACKWARD))
    for item in reversed(plan.exit_items):
        if item.leaf is not None:
            cyc.append(("edge", item.leaf))
        else:
            for orbit in reversed(item.orbits):
                cyc.append(("end", orbit, FORWARD))
    return tuple(cyc)


def boundary_order_oracle(s, r):
    if not r.maxdomains:
        raise FoliageError("boundary order requires a non-empty forest")
    plans = {m.id: port_plan_oracle(s, m) for m in r.maxdomains}
    cycles = {m.id: box_cycle(plans[m.id]) for m in r.maxdomains}
    ends = []

    def walk(mid, entry_leaf):
        cyc = cycles[mid]
        if entry_leaf is not None:
            k = cyc.index(("edge", entry_leaf))
            cyc = cyc[k + 1 :] + cyc[:k]
        for item in cyc:
            if item[0] == "end":
                ends.append((item[1], item[2]))
            else:
                yield walk(r.across(mid, item[1]), item[1])

    # The trees, each listed from its least box by a search over the edges.
    neighbours = {m.id: set() for m in r.maxdomains}
    for a, _leaf, b in r.forest_edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    trees, seen = [], set()
    for m in r.maxdomains:
        if m.id not in seen:
            tree, stack = [], [m.id]
            seen.add(m.id)
            while stack:
                tree.append(stack.pop())
                fresh = neighbours[tree[-1]] - seen
                seen |= fresh
                stack += fresh
            trees.append(min(tree))
    for root in sorted(trees):
        run_nested(walk(root, None))
    return BoundaryOrder(ends=tuple(ends))


# -- the families ---------------------------------------------------------------


def _generated(bounds):
    return [generate_scenario(GeneratorConfig(seed=seed, **bounds)) for seed in range(1, 301)]


FAMILIES = {
    "fixtures": lambda: [fixture(name) for name in FIXTURE_NAMES],
    "seeds-10-8-4": lambda: _generated({"max_domains": 10, "max_orbits": 8, "max_boundary": 4}),
    "seeds-40-40-6": lambda: _generated({"max_domains": 40, "max_orbits": 40, "max_boundary": 6}),
    "deep-k20": lambda: [linked_chain(20, seed) for seed in range(1, 11)],
    "deep-k40": lambda: [linked_chain(40, seed) for seed in range(1, 11)],
    "deep-k60": lambda: [linked_chain(60, seed) for seed in range(1, 11)],
    "chain300": lambda: [chain(300)],
    "chain1200": lambda: [chain(1200)],
    "zigzag": lambda: [zigzag(k) for k in (2, 3, 10, 81)],
    "caterpillar": lambda: [caterpillar(k) for k in (1, 2, 3, 300)],
    "binary": lambda: [binary(depth) for depth in range(1, 9)],
}


@functools.cache
def _family(name):
    return FAMILIES[name]()


def _fresh(s):
    """A copy of s with its own index, so nothing computed on s is shared."""
    return Scenario(domains=s.domains, orbits=s.orbits)


@pytest.mark.parametrize("family", FAMILIES)
def test_reduce_plans_and_boundary_order_equal_the_oracles(family):
    checked = 0
    for n, original in enumerate(_family(family)):
        s = _fresh(original)
        r = reduce_scenario(s)
        assert r == reduce_oracle(_fresh(s)), (family, n)
        plans = all_port_plans(s)
        assert list(plans) == [m.id for m in r.maxdomains]
        assert plans == {m.id: port_plan_oracle(s, m) for m in r.maxdomains}, (family, n)
        if r.maxdomains:
            assert boundary_order(s, r) == boundary_order_oracle(_fresh(s), r), (family, n)
            checked += 1
    assert checked


def test_port_plans_are_named_tuples_with_the_dataclass_fields_and_repr():
    plan = all_port_plans(fixture("S1"))["M:D"]
    assert PortPlan._fields == ("entry_seq", "exit_seq", "entry_items", "exit_items")
    assert SideItem._fields == ("leaf", "orbits", "lo", "hi")
    assert repr(plan.entry_items[0]).startswith("SideItem(leaf=")
    assert repr(plan).startswith("PortPlan(entry_seq=('O_a', 'O_b'), exit_seq=('O_b', 'O_a'), ")
    assert plan == port_plan_oracle(fixture("S1"), reduce_scenario(fixture("S1")).maxdomain("M:D"))


def _tied(chain_length, ranks):
    """A chain whose through orbits all share every key but the tie rank."""
    s = chain(chain_length)
    through = s.orbits[-1]
    extra = tuple(
        type(through)(id=f"T{n}", path=through.path, entry_cut=1, exit_cut=1, tie_rank=rank)
        for n, rank in enumerate(ranks)
    )
    return Scenario(domains=s.domains, orbits=s.orbits[:-1] + extra)


@pytest.mark.parametrize("length, ranks", [(1, (0, 0)), (3, (5, 5)), (3, (1, 7, 7)), (4, (2, 0, 2))])
def test_a_tie_rank_collision_raises_the_oracles_text(length, ranks):
    s = _tied(length, ranks)
    r = reduce_scenario(s)
    for m in r.maxdomains:
        with pytest.raises(TieRankError) as fast:
            port_plan(s, m)
        with pytest.raises(TieRankError) as slow:
            port_plan_oracle(s, m)
        assert str(fast.value) == str(slow.value)
        assert "share tie rank" in str(fast.value)


def test_a_merge_cycle_is_not_a_simple_chain():
    """Validation rules a cycle out; the guard still holds on a tampered index."""
    s = fixture("S4")  # D1 -k-> D2, merged
    idx = index(s)
    a, leaf, b = next(e for e in idx.edges if e[1] == "k")
    idx.edges = idx.edges + ((b, "k2", a),)
    idx.leaf_orbits = {**idx.leaf_orbits, "k2": idx.leaf_orbits[leaf]}
    for reduce in (decompose._reduce, reduce_oracle):
        with pytest.raises(FoliageError, match="merged component is not a simple chain"):
            reduce(s)


def test_reduce_plans_and_boundary_order_on_a_1200_chain_are_quick():
    s = chain(1200)
    index(s)
    start = time.process_time()
    boundary_order(s, reduce_scenario(s))
    elapsed = time.process_time() - start
    assert len(all_port_plans(s)) == 1200
    assert elapsed <= 0.25, elapsed
