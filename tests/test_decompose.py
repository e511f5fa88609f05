import itertools

import pytest

from foliage.decompose import CommonSubpath, common_subpath, pair_runs, reduce_scenario
from foliage import relations
from foliage.generator import GeneratorConfig, generate_scenario
from foliage.model import FIXTURE_NAMES, FoliageError, Scenario, fixture, index
from deep_families import caterpillar, chain, linked_chain, zigzag

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


def subpath_oracle(s, a, b):
    """``common_subpath`` as it was before ``pair_runs``: the shared domains,
    sorted by each path's positions, must be one list of consecutive domains
    in both paths."""
    idx = index(s)
    pos_a, pos_b = idx.domain_pos[idx.orbit(a).id], idx.domain_pos[idx.orbit(b).id]
    shared = pos_a.keys() & pos_b.keys()
    if not shared:
        return None
    run_a = sorted(shared, key=pos_a.__getitem__)
    run_b = sorted(shared, key=pos_b.__getitem__)
    start_a, start_b = pos_a[run_a[0]], pos_b[run_b[0]]
    if run_a != run_b or any(pos_a[d] != start_a + 2 * k for k, d in enumerate(run_a)) or any(
        pos_b[d] != start_b + 2 * k for k, d in enumerate(run_b)
    ):
        raise FoliageError(f"orbits {a!r} and {b!r} share a non-contiguous domain set")
    return CommonSubpath(first=run_a[0], last=run_a[-1], chain=tuple(run_a))


def _subpath_scenarios():
    named = {name: fixture(name) for name in FIXTURE_NAMES}
    small = {"max_domains": 10, "max_orbits": 8, "max_boundary": 4}
    named.update((f"seed{n}", generate_scenario(GeneratorConfig(seed=n, **small))) for n in range(1, 301))
    named.update((f"linked{k}-{seed}", linked_chain(k, seed)) for k in (20, 40, 60) for seed in range(1, 4))
    named.update(chain300=chain(300), zigzag81=zigzag(81), caterpillar300=caterpillar(300))
    return named


def test_common_subpath_equals_the_sort_oracle_on_every_ordered_pair():
    for name, s in _subpath_scenarios().items():
        oracle = Scenario(domains=s.domains, orbits=s.orbits)
        ids = sorted(o.id for o in s.orbits)
        for a, b in itertools.product(ids, repeat=2):
            assert common_subpath(s, a, b) == subpath_oracle(oracle, a, b), (name, a, b)
        met = sum(subpath_oracle(oracle, a, b) is not None for a, b in itertools.combinations(ids, 2))
        assert len(pair_runs(s)) == met, name


def test_caterpillar_neighbours_share_two_domains():
    s = caterpillar(6)
    assert pair_runs(s) == {
        ("O0", "O1"): ("S0", "S0"),
        ("O0", "O2"): ("S1", "S2"),
        ("O0", "O3"): ("S1", "S2"),
        ("O0", "O4"): ("S3", "S4"),
        ("O0", "O5"): ("S3", "S4"),
        ("O0", "O6"): ("S5", "S5"),
        ("O2", "O3"): ("S1", "S2"),
        ("O4", "O5"): ("S3", "S4"),
    }
    assert common_subpath(s, "O3", "O2").chain == ("S1", "S2")
    assert "M:S1+S2" in {m.id for m in reduce_scenario(s).maxdomains}


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
    m = r.maxdomain("M:D")
    assert m.alpha == frozenset({"O1", "O4"})
    assert m.omega == frozenset({"O3", "O4"})
    assert m.incoming == frozenset({"O2", "O3"})
    assert m.outgoing == frozenset({"O1", "O2"})


def test_roles_single_resident_orbit():
    r = reduce_scenario(fixture("S0"))
    m = r.maxdomain("M:D0")
    assert m.alpha == m.omega == frozenset({"O"})
    assert m.incoming == m.outgoing == frozenset()


def test_roles_merged_domain():
    r = reduce_scenario(fixture("S4"))
    m = r.maxdomain("M:D1+D2")
    assert m.alpha == m.omega == frozenset({"O"})
    assert m.incoming == m.outgoing == frozenset()


def test_roles_unknown_domain():
    with pytest.raises(FoliageError, match="unknown maximal domain"):
        reduce_scenario(fixture("S0")).maxdomain("M:none")


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
        assert m.incoming | m.alpha == m.crossers
        assert m.outgoing | m.omega == m.crossers
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
        assert built.count((a, b)) == (subpath_oracle(fresh, a, b) is not None)
        assert common_subpath(s, a, b) == subpath_oracle(fresh, a, b)
    list(relations.met_pair_relations(s))
    assert len(built) == len(set(built))
    assert len(index(s).pairs) == len(ids) * (len(ids) - 1)


def test_non_contiguous_pair_raises_on_every_call(monkeypatch):
    # O0 crosses D0-D1 and O2 runs D0-D1-D2; O1, on D1-D2, is left out.
    s = chain(3)
    s = Scenario(domains=s.domains, orbits=tuple(o for o in s.orbits if o.id != "O1"))
    # No valid scenario has such a pair, so give O0 a gapped position map.
    monkeypatch.setitem(index(s).domain_pos, "O0", {"D0": 0, "D2": 4})

    def met(s, _a, _b):
        return list(relations.met_pair_relations(s))

    for fn in (common_subpath, subpath_oracle, *PAIR_FUNCTIONS, met):
        for _ in range(2):
            with pytest.raises(FoliageError, match="non-contiguous"):
                fn(s, "O0", "O2")
    # The run table is built whole, so a query on any pair of the scenario raises.
    for fn in (common_subpath, relations.pair_relations):
        with pytest.raises(FoliageError, match="non-contiguous"):
            fn(s, "O2", "O2")
    assert ("O0", "O2") not in index(s).pairs
    assert index(s).runs is None
