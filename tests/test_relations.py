"""Relation tests backed by a definitional clause oracle.

The oracle below evaluates the four left clauses and four right clauses
literally, as existence statements about explicit leaf sets, top/bottom cut
sets and ordered boundary lists.  The implementation under test derives the
same verdicts from the orbits' walk entries just past the ends of the common
subpath; agreement is checked on the fixtures and on generated scenarios.
"""

import itertools

import pytest

from foliage.generator import GeneratorConfig, generate_scenario
from foliage.model import FoliageError, Orbit, Scenario, SkeletonDomain, fixture, index, validate
from foliage.relations import (
    Clause,
    Direction,
    TieRankError,
    adaptive_cmp,
    adaptive_order,
    classic_from_verdicts,
    classic_transverse,
    compare_left,
    compare_right,
    minus_asymptotic,
    pair_relations,
    plus_asymptotic,
    standard_cmp,
    standard_order,
    weak_from_verdicts,
    weak_transverse,
)
from foliage.decompose import common_subpath, reduce_scenario


# --- the oracle -----------------------------------------------------------


def _shared_run(s, a, b):
    idx = index(s)
    oa, ob = idx.orbit_by_id[a], idx.orbit_by_id[b]
    shared = set(oa.domains) & set(ob.domains)
    if not shared:
        return None
    ordered = [d for d in oa.domains if d in shared]
    return ordered[0], ordered[-1]


def _top_left(s, oid):
    idx = index(s)
    o = idx.orbit_by_id[oid]
    return set(idx.domain_by_id[o.omega].left[: o.exit_cut])


def _bot_left(s, oid):
    idx = index(s)
    o = idx.orbit_by_id[oid]
    return set(idx.domain_by_id[o.omega].left[o.exit_cut :])


def _top_right(s, oid):
    idx = index(s)
    o = idx.orbit_by_id[oid]
    return set(idx.domain_by_id[o.alpha].right[: o.entry_cut])


def _bot_right(s, oid):
    idx = index(s)
    o = idx.orbit_by_id[oid]
    return set(idx.domain_by_id[o.alpha].right[o.entry_cut :])


def oracle_left(s, x, y):
    """All left clauses under which x precedes y, as a set of Clause values."""
    run = _shared_run(s, x, y)
    if run is None:
        return None
    idx = index(s)
    bnd = idx.domain_by_id[run[1]].left
    cx = set(idx.orbit_by_id[x].crossings)
    cy = set(idx.orbit_by_id[y].crossings)
    held = set()
    if any(
        p < q for p, leaf_p in enumerate(bnd) for q, leaf_q in enumerate(bnd)
        if leaf_p in cx and leaf_q in cy
    ):
        held.add(Clause.L1)
    if any(leaf in cx and leaf in _top_left(s, y) for leaf in bnd):
        held.add(Clause.L2)
    if any(leaf in cy and leaf in _bot_left(s, x) for leaf in bnd):
        held.add(Clause.L3)
    ox, oy = idx.orbit_by_id[x], idx.orbit_by_id[y]
    if (
        bnd == idx.domain_by_id[ox.omega].left == idx.domain_by_id[oy.omega].left
        and ox.omega == oy.omega == run[1]
        and _top_left(s, x) <= _top_left(s, y)
    ):
        held.add(Clause.L4)
    return held


def oracle_right(s, x, y):
    run = _shared_run(s, x, y)
    if run is None:
        return None
    idx = index(s)
    bnd = idx.domain_by_id[run[0]].right
    cx = set(idx.orbit_by_id[x].crossings)
    cy = set(idx.orbit_by_id[y].crossings)
    held = set()
    if any(
        p < q for p, leaf_p in enumerate(bnd) for q, leaf_q in enumerate(bnd)
        if leaf_p in cx and leaf_q in cy
    ):
        held.add(Clause.R1)
    if any(leaf in cx and leaf in _top_right(s, y) for leaf in bnd):
        held.add(Clause.R2)
    if any(leaf in cy and leaf in _bot_right(s, x) for leaf in bnd):
        held.add(Clause.R3)
    ox, oy = idx.orbit_by_id[x], idx.orbit_by_id[y]
    if (
        bnd == idx.domain_by_id[ox.alpha].right == idx.domain_by_id[oy.alpha].right
        and ox.alpha == oy.alpha == run[0]
        and _top_right(s, x) <= _top_right(s, y)
    ):
        held.add(Clause.R4)
    return held


def assert_verdict_matches_oracle(s, a, b, side):
    compare, oracle = (compare_left, oracle_left) if side == "L" else (compare_right, oracle_right)
    v = compare(s, a, b)
    ab = oracle(s, a, b)
    ba = oracle(s, b, a)
    if ab is None:
        assert v.direction is Direction.INCOMPARABLE
        return
    assert ab or ba, f"totality violated for {a},{b}"
    if ab and ba:
        assert v.direction is Direction.EQUIVALENT
    elif ab:
        assert v.direction is Direction.FIRST_LESS
        assert v.clause in ab
    else:
        assert v.direction is Direction.SECOND_LESS
        assert v.clause in ba


# --- fixture variants used by the order examples --------------------------


def s1_with_middle_leaf():
    s = Scenario(
        domains=(
            SkeletonDomain(id="A1", left=("r1",)),
            SkeletonDomain(id="A2", left=("r2",)),
            SkeletonDomain(id="Dx", left=("g",), right=("r1", "r2")),
            SkeletonDomain(id="Dy", left=("l1", "l2"), right=("g",)),
            SkeletonDomain(id="B1", right=("l1",)),
            SkeletonDomain(id="B2", right=("l2",)),
        ),
        orbits=(
            Orbit(id="O_a", path=("A1", "r1", "Dx", "g", "Dy", "l2", "B2"), tie_rank=0),
            Orbit(id="O_b", path=("A2", "r2", "Dx", "g", "Dy", "l1", "B1"), tie_rank=1),
        ),
    )
    assert validate(s).ok
    return s


def s3_with_shared_exit():
    s = Scenario(
        domains=(
            SkeletonDomain(id="A1", left=("r1",)),
            SkeletonDomain(id="A2", left=("r2",)),
            SkeletonDomain(id="D", left=("m1",), right=("r1", "r2")),
            SkeletonDomain(id="E", right=("m1",)),
        ),
        orbits=(
            Orbit(id="O_x", path=("A1", "r1", "D", "m1", "E"), tie_rank=0),
            Orbit(id="O_y", path=("A2", "r2", "D", "m1", "E"), tie_rank=1),
            # A resident of E keeps the shared exit leaf critical.
            Orbit(id="O_z", path=("E",), tie_rank=2),
        ),
    )
    assert validate(s).ok
    return s


# --- asymptotic equivalences ----------------------------------------------


def test_plus_asymptotic_examples():
    s3 = fixture("S3")
    assert plus_asymptotic(s3, "O_x", "O_y")
    s1 = fixture("S1")
    assert not plus_asymptotic(s1, "O_a", "O_b")
    assert plus_asymptotic(s1, "O_a", "O_a")


def test_minus_asymptotic_examples():
    s3 = fixture("S3")
    assert not minus_asymptotic(s3, "O_x", "O_y")
    s2 = fixture("S2")
    assert not minus_asymptotic(s2, "O1", "O4")
    assert minus_asymptotic(s2, "O1", "O1")


# --- sided comparisons ------------------------------------------------------


def test_compare_left_examples():
    v = compare_left(fixture("S1"), "O_a", "O_b")
    assert (v.direction, v.clause) == (Direction.SECOND_LESS, Clause.L1)
    v = compare_left(fixture("S3"), "O_x", "O_y")
    assert (v.direction, v.clause) == (Direction.EQUIVALENT, Clause.L4)
    v = compare_left(fixture("S2"), "O1", "O3")
    assert (v.direction, v.clause) == (Direction.SECOND_LESS, Clause.L3)


def test_compare_right_examples():
    v = compare_right(fixture("S1"), "O_a", "O_b")
    assert (v.direction, v.clause) == (Direction.FIRST_LESS, Clause.R1)
    v = compare_right(fixture("S3"), "O_x", "O_y")
    assert (v.direction, v.clause) == (Direction.FIRST_LESS, Clause.R1)
    v = compare_right(fixture("S2"), "O2", "O4")
    assert (v.direction, v.clause) == (Direction.FIRST_LESS, Clause.R2)


def test_comparisons_against_oracle_on_fixtures():
    for name in ("S1", "S2", "S3", "S4"):
        s = fixture(name)
        ids = sorted(o.id for o in s.orbits)
        for a, b in itertools.permutations(ids, 2):
            assert_verdict_matches_oracle(s, a, b, "L")
            assert_verdict_matches_oracle(s, a, b, "R")


@pytest.mark.parametrize("seed", range(1, 41))
def test_comparisons_against_oracle_on_generated(seed):
    s = generate_scenario(GeneratorConfig(seed=seed))
    ids = sorted(o.id for o in s.orbits)
    for a, b in itertools.permutations(ids, 2):
        assert_verdict_matches_oracle(s, a, b, "L")
        assert_verdict_matches_oracle(s, a, b, "R")


# --- transverse intersections ------------------------------------------------


def test_weak_examples():
    assert weak_transverse(fixture("S1"), "O_a", "O_b")
    assert not weak_transverse(fixture("S3"), "O_x", "O_y")
    assert not weak_transverse(fixture("S2"), "O1", "O2")


def test_classic_examples():
    assert classic_transverse(fixture("S1"), "O_a", "O_b")
    assert not classic_transverse(fixture("S2"), "O1", "O2")
    assert not classic_transverse(fixture("S3"), "O_x", "O_y")


def test_classic_implies_weak_on_fixtures():
    for name in ("S1", "S2", "S3", "S4"):
        s = fixture(name)
        ids = sorted(o.id for o in s.orbits)
        for a, b in itertools.combinations(ids, 2):
            if classic_transverse(s, a, b):
                assert weak_transverse(s, a, b)


# --- composite orders ---------------------------------------------------------


def test_standard_order_singletons():
    assert standard_order(fixture("S1"), "r1").order == ("O_a",)
    assert standard_order(fixture("S2"), "lB").order == ("O2",)


def test_standard_order_on_shared_exit_leaf():
    s = s3_with_shared_exit()
    assert standard_order(s, "m1").order == ("O_x", "O_y")


def test_standard_order_requires_a_crossed_leaf():
    import foliage.model as model

    with pytest.raises(model.FoliageError, match="crossed by no orbit"):
        standard_order(fixture("S3"), "m1")


def test_adaptive_order_s1():
    s = fixture("S1")
    r = reduce_scenario(s)
    assert adaptive_order(s, r, "M:D").order == ("O_b", "O_a")


def test_adaptive_order_s2_frozen():
    # Frozen output of the brute-force clause oracle below.
    s = fixture("S2")
    r = reduce_scenario(s)
    order = adaptive_order(s, r, "M:D").order
    assert order == ("O3", "O1", "O4", "O2")
    assert_adaptive_consistent(s, r, "M:D", order)


def test_adaptive_order_singleton():
    s = fixture("S0")
    r = reduce_scenario(s)
    assert adaptive_order(s, r, "M:D0").order == ("O",)


def assert_adaptive_consistent(s, r, mid, order):
    """Every adjacent pair of the output satisfies the definitional order."""
    from foliage.relations import beyond

    m = r.maxdomain(mid)
    idx = index(s)

    def exit_class(o):
        """The leaf o leaves the chain by, or its exit cut if it ends there."""
        leaf = beyond(idx, idx.orbit_by_id[o], m.chain[-1], 1)
        return ("exit", leaf) if leaf is not None else ("term", idx.orbit_by_id[o].exit_cut)

    for i, a in enumerate(order):
        for b in order[i + 1 :]:
            if exit_class(a) != exit_class(b):
                held = oracle_left(s, a, b)
                assert held, f"{a} should precede {b} by a left clause"
            else:
                held_r = oracle_right(s, a, b)
                back_r = oracle_right(s, b, a)
                if held_r and not back_r:
                    continue
                if back_r and not held_r:
                    raise AssertionError(f"{a} precedes {b} against the right relation")
                held_l = oracle_left(s, a, b)
                back_l = oracle_left(s, b, a)
                if held_l and not back_l:
                    continue
                if back_l and not held_l:
                    raise AssertionError(f"{a} precedes {b} against the left relation")
                assert idx.orbit_by_id[a].tie_rank < idx.orbit_by_id[b].tie_rank


@pytest.mark.parametrize("seed", range(1, 21))
def test_adaptive_order_consistent_on_generated(seed):
    s = generate_scenario(GeneratorConfig(seed=seed))
    r = reduce_scenario(s)
    for m in r.maxdomains:
        assert_adaptive_consistent(s, r, m.id, adaptive_order(s, r, m.id).order)


def test_tie_rank_collision_is_surfaced_lazily():
    s = Scenario(
        domains=(SkeletonDomain(id="D0"),),
        orbits=(Orbit(id="a", path=("D0",), tie_rank=0), Orbit(id="b", path=("D0",), tie_rank=0)),
    )
    assert validate(s).ok  # the collision is not a validation finding
    r = reduce_scenario(s)
    with pytest.raises(TieRankError):
        adaptive_order(s, r, "M:D0")


def test_restriction_of_adaptive_to_exit_group_is_standard():
    s = s3_with_shared_exit()
    r = reduce_scenario(s)
    adapt = adaptive_order(s, r, "M:D").order
    std = standard_order(s, "m1").order
    group = [o for o in adapt if o in set(std)]
    assert group == list(std)


@pytest.mark.parametrize("seed", range(1, 51))
def test_weak_transverse_is_decided_by_the_two_verdicts(seed):
    s = generate_scenario(GeneratorConfig(seed=seed))
    ids = sorted(o.id for o in s.orbits)
    for a, b in itertools.product(ids, repeat=2):
        verdicts = compare_left(s, a, b), compare_right(s, a, b)
        assert weak_transverse(s, a, b) == weak_from_verdicts(*verdicts)


PAIR_SCENARIOS = ("S0", "S1", "S2", "S3", "S4", *(f"seed{n}" for n in range(1, 51)), "chain60", "nested", "crossed")


def _through_one_domain(exits):
    """Two orbits from A1 and A2 through M, leaving by the given leaves of
    M's left list; both cross leaves on both ends (clauses L1 and R1)."""
    domains = (
        SkeletonDomain("A1", left=("p",)),
        SkeletonDomain("A2", left=("q",)),
        SkeletonDomain("M", left=("r", "s"), right=("p", "q")),
        SkeletonDomain("B1", right=("r",)),
        SkeletonDomain("B2", right=("s",)),
    )
    owner = {"r": "B1", "s": "B2"}
    orbits = tuple(
        Orbit(oid, (start, entry, "M", leaf, owner[leaf]))
        for oid, start, entry, leaf in (("X", "A1", "p", exits[0]), ("Y", "A2", "q", exits[1]))
    )
    return Scenario(domains=domains, orbits=orbits)


def _pair_scenario(name):
    from deep_families import chain

    if name == "chain60":
        return chain(60)
    if name in ("nested", "crossed"):
        return _through_one_domain(("r", "s") if name == "nested" else ("s", "r"))
    if name.startswith("seed"):
        return generate_scenario(GeneratorConfig(seed=int(name[4:])))
    return fixture(name)


def _classic_oracle(s, a, b):
    """Classic transversality as first written: both orbits cross distinct
    leaves on both ends of their common subpath, in opposite orders."""
    cs = common_subpath(s, a, b) if a != b else None
    if cs is None:
        return False
    idx = index(s)
    oa, ob = idx.orbit_by_id[a], idx.orbit_by_id[b]
    if cs.last in (oa.omega, ob.omega) or cs.first in (oa.alpha, ob.alpha):
        return False
    exits = [o.path[idx.domain_pos[o.id][cs.last] + 1] for o in (oa, ob)]
    entries = [o.path[idx.domain_pos[o.id][cs.first] - 1] for o in (oa, ob)]
    left, right = idx.domain_by_id[cs.last].left, idx.domain_by_id[cs.first].right
    return (left.index(exits[0]) < left.index(exits[1])) != (right.index(entries[0]) < right.index(entries[1]))


@pytest.mark.parametrize("name", PAIR_SCENARIOS)
def test_pair_relations_equals_the_separate_functions(name):
    s = _pair_scenario(name)
    ids = sorted(o.id for o in s.orbits)
    for a, b in itertools.product(ids, repeat=2):
        left, right, forward, backward = pair_relations(s, a, b)
        assert left == compare_left(s, a, b)
        assert right == compare_right(s, a, b)
        assert forward == plus_asymptotic(s, a, b)
        assert backward == minus_asymptotic(s, a, b)
        assert weak_from_verdicts(left, right) == weak_transverse(s, a, b)
        assert classic_from_verdicts(left, right) == classic_transverse(s, a, b) == _classic_oracle(s, a, b)


def test_leaf_ranks_are_positions_in_the_boundary_lists():
    for name in PAIR_SCENARIOS:
        s = _pair_scenario(name)
        idx = index(s)
        for d in s.domains:
            assert [idx.left_rank[leaf] for leaf in d.left] == list(range(len(d.left)))
            assert [idx.right_rank[leaf] for leaf in d.right] == list(range(len(d.right)))


@pytest.mark.parametrize(
    "fn",
    [
        common_subpath,
        pair_relations,
        compare_left,
        compare_right,
        plus_asymptotic,
        minus_asymptotic,
        weak_transverse,
        classic_transverse,
        standard_cmp,
        lambda s, a, b: adaptive_cmp(s, reduce_scenario(s).maxdomains[0], a, b),
    ],
)
def test_an_unknown_orbit_id_is_a_foliage_error(fn):
    s = fixture("S2")
    for a, b in (("nope", "O1"), ("O1", "nope"), ("nope", "nope")):
        with pytest.raises(FoliageError) as exc:
            fn(s, a, b)
        assert str(exc.value) == "unknown orbit 'nope'"
    assert not any("nope" in pair for pair in index(s).pairs)


def test_an_end_short_of_a_shared_crossing_raises():
    from foliage import relations
    from deep_families import chain

    s = chain(3)  # O0 runs D0-L1-D1, O1 runs D1-L2-D2, O2 runs through all three
    idx = index(s)
    o0, o1, o2 = (idx.orbit_by_id[f"O{n}"] for n in range(3))
    with pytest.raises(FoliageError) as exc:
        relations._verdict(idx, o1, o2, "D1", 1)
    assert str(exc.value) == "common subpath ended before a shared crossing"
    with pytest.raises(FoliageError) as exc:
        relations._verdict(idx, o0, o2, "D1", -1)
    assert str(exc.value) == "common subpath started after a shared crossing"
