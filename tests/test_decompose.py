import itertools

import pytest

from foliage.decompose import common_subpath, reduce_scenario
from foliage import relations
from foliage.model import FIXTURE_NAMES, FoliageError, Scenario, fixture, index

# The public functions that read one pair's record.
PAIR_FUNCTIONS = (
    relations.pair_relations,
    relations.compare_left,
    relations.compare_right,
    relations.plus_asymptotic,
    relations.minus_asymptotic,
    relations.weak_transverse,
    relations.classic_transverse,
    relations.standard_cmp,
)


def test_orbit_sequences_s1():
    o = index(fixture("S1")).orbit("O_a")
    assert o.domains == ("A1", "D", "B2")
    assert o.crossings == ("r1", "l2")
    assert (o.alpha, o.omega) == ("A1", "B2")


def test_orbit_sequences_single_domain():
    o = index(fixture("S0")).orbit("O")
    assert o.domains == ("D0",)
    assert o.crossings == ()
    assert o.alpha == o.omega == "D0"


def test_orbit_sequences_o4_resides_in_d():
    o = index(fixture("S2")).orbit("O4")
    assert o.domains == ("D",)
    assert o.crossings == ()


def test_index_orbit_rejects_an_unknown_id():
    with pytest.raises(FoliageError, match="unknown orbit"):
        index(fixture("S0")).orbit("nope")


def test_common_subpath_s1():
    cs = common_subpath(fixture("S1"), "O_a", "O_b")
    assert (cs.first, cs.last, cs.chain) == ("D", "D", ("D",))


def test_common_subpath_s2_o1_o3():
    cs = common_subpath(fixture("S2"), "O1", "O3")
    assert (cs.first, cs.last, cs.chain) == ("D", "D", ("D",))


def test_common_subpath_separated():
    # Two S0-style islands with no shared domain.
    from foliage.model import Orbit, Scenario, SkeletonDomain, validate

    s = Scenario(
        domains=(SkeletonDomain(id="P"), SkeletonDomain(id="Q")),
        orbits=(Orbit(id="a", path=("P",)), Orbit(id="b", path=("Q",))),
    )
    assert validate(s).ok
    assert common_subpath(s, "a", "b") is None
    assert relations.pair_relations(s, "a", "b") is relations.DISJOINT_PAIR
    assert index(s).pairs[("a", "b")] is relations.DISJOINT_PAIR  # a separated pair is kept too


def test_reduce_s4_merges_the_chain():
    r = reduce_scenario(fixture("S4"))
    assert len(r.maxdomains) == 1
    m = r.maxdomains[0]
    assert m.id == "M:D1+D2"
    assert m.chain == ("D1", "D2")
    assert m.internal == ("k",)
    assert r.critical == frozenset()
    assert r.forest_edges == ()


def test_reduce_s1_stays_unmerged():
    r = reduce_scenario(fixture("S1"))
    assert {m.id for m in r.maxdomains} == {"M:A1", "M:A2", "M:D", "M:B1", "M:B2"}
    assert r.critical == frozenset({"r1", "r2", "l1", "l2"})


def test_reduce_s2_roles_match_the_worked_figure():
    r = reduce_scenario(fixture("S2"))
    roles = r.roles_of("M:D")
    assert roles.alpha == frozenset({"O1", "O4"})
    assert roles.omega == frozenset({"O3", "O4"})
    assert roles.incoming == frozenset({"O2", "O3"})
    assert roles.outgoing == frozenset({"O1", "O2"})


def test_roles_single_resident_orbit():
    r = reduce_scenario(fixture("S0"))
    roles = r.roles_of("M:D0")
    assert roles.alpha == roles.omega == frozenset({"O"})
    assert roles.incoming == roles.outgoing == frozenset()


def test_roles_merged_domain():
    r = reduce_scenario(fixture("S4"))
    roles = r.roles_of("M:D1+D2")
    assert roles.alpha == roles.omega == frozenset({"O"})
    assert roles.incoming == roles.outgoing == frozenset()


def test_roles_unknown_domain():
    with pytest.raises(FoliageError, match="unknown maximal domain"):
        reduce_scenario(fixture("S0")).roles_of("M:none")


def test_uncrossed_domains_are_dropped():
    from foliage.model import Orbit, Scenario, SkeletonDomain, validate

    s = Scenario(
        domains=(SkeletonDomain(id="P"), SkeletonDomain(id="Q")),
        orbits=(Orbit(id="a", path=("P",)),),
    )
    assert validate(s).ok
    r = reduce_scenario(s)
    assert [m.id for m in r.maxdomains] == ["M:P"]


@pytest.mark.parametrize("name", ["S1", "S2", "S3", "S4"])
def test_reduce_invariants(name):
    s = fixture(name)
    idx = index(s)
    r = reduce_scenario(s)
    n = len(s.orbits)
    assert len(r.critical) <= 2 * n * n
    for m in r.maxdomains:
        # Chains are simple directed paths and crossers cover the chain.
        assert len(set(m.chain)) == len(m.chain)
        for orbit in m.crossers:
            assert any(d in m.chain for d in idx.orbit_by_id[orbit].domains)
        roles = r.roles_of(m.id)
        assert roles.incoming | roles.alpha == m.crossers
        assert roles.outgoing | roles.omega == m.crossers
    edge_leaves = {leaf for _a, leaf, _b in r.forest_edges}
    assert edge_leaves == set(r.critical)
    for leaf in r.critical:
        assert idx.leaf_orbits.get(leaf)


def test_common_subpath_is_symmetric():
    s = fixture("S2")
    ids = sorted(o.id for o in s.orbits)
    for a, b in itertools.combinations(ids, 2):
        ab = common_subpath(s, a, b)
        ba = common_subpath(s, b, a)
        assert (ab is None) == (ba is None)
        if ab is not None:
            assert ab.chain == ba.chain


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_each_ordered_pair_record_is_built_once(monkeypatch, name):
    s, fresh = fixture(name), fixture(name)
    real, built = relations._pair_record, []

    def counting(idx, oa, ob, first, last):
        built.append((oa.id, ob.id))
        return real(idx, oa, ob, first, last)

    monkeypatch.setattr(relations, "_pair_record", counting)
    ids = sorted(o.id for o in s.orbits)
    met = [(a, b) for a, b, _p in relations.met_pair_relations(s)]
    assert built == met
    for a, b in itertools.permutations(ids, 2):
        first = relations.pair_relations(s, a, b)
        for fn in PAIR_FUNCTIONS:
            fn(s, a, b)
        assert relations.pair_relations(s, a, b) is first
        assert index(s).pairs[(a, b)] is first
        assert built.count((a, b)) == (common_subpath(s, a, b) is not None)
        assert common_subpath(s, a, b) == common_subpath(fresh, a, b)
    list(relations.met_pair_relations(s))
    assert len(built) == len(set(built))
    assert len(index(s).pairs) == len(ids) * (len(ids) - 1)


def test_non_contiguous_pair_raises_on_every_call(monkeypatch):
    from test_realize import _chain

    # O0 crosses D0-D1 and O2 runs D0-D1-D2; O1, on D1-D2, is left out.
    s = _chain(3)
    s = Scenario(domains=s.domains, orbits=tuple(o for o in s.orbits if o.id != "O1"))
    # No valid scenario has such a pair, so give O0 a gapped position map.
    monkeypatch.setitem(index(s).domain_pos, "O0", {"D0": 0, "D2": 4})

    def met(s, _a, _b):
        return list(relations.met_pair_relations(s))

    for fn in (common_subpath, *PAIR_FUNCTIONS, met):
        for _ in range(2):
            with pytest.raises(FoliageError, match="non-contiguous"):
                fn(s, "O0", "O2")
    assert ("O0", "O2") not in index(s).pairs
