import itertools
from collections import Counter

import pytest

from foliage.decompose import reduce_scenario
from foliage.generator import GeneratorConfig, generate_scenario
from foliage.model import Orbit, Scenario, SkeletonDomain, fixture, index
from foliage.realize import (
    BACKWARD,
    FORWARD,
    BoundaryOrder,
    all_port_plans,
    boundary_order,
    crossing_matrix,
    interleaving_matrix,
    one_sided_order,
    one_sided_order_right,
    port_plan,
    weak_matrix,
)
from foliage.relations import Direction, compare_left, compare_right, standard_order

from test_relations import s1_with_middle_leaf, s3_with_shared_exit


def ends_interleave(b, a, c):
    """True when the two ends of one orbit separate the two ends of the other.

    The pairwise definition, kept as the oracle for ``interleaving_matrix``.
    """
    positions = {end: i for i, end in enumerate(b.ends)}
    pa = sorted((positions[(a, BACKWARD)], positions[(a, FORWARD)]))
    inside = [p for p in (positions[(c, BACKWARD)], positions[(c, FORWARD)]) if pa[0] < p < pa[1]]
    return len(inside) == 1


def _plan(name, mid):
    s = fixture(name)
    r = reduce_scenario(s)
    return port_plan(s, r.maxdomain(mid))


def test_port_plan_s1():
    plan = _plan("S1", "M:D")
    assert plan.entry_seq == ("O_a", "O_b")
    assert plan.exit_seq == ("O_b", "O_a")


def test_port_plan_s0():
    plan = _plan("S0", "M:D0")
    assert plan.entry_seq == ("O",)
    assert plan.exit_seq == ("O",)


def test_port_plan_s3():
    plan = _plan("S3", "M:D")
    assert plan.entry_seq == ("O_x", "O_y")
    assert plan.exit_seq == ("O_x", "O_y")


def test_crossing_matrix_s1():
    s = fixture("S1")
    m = crossing_matrix(s, reduce_scenario(s))
    assert m.count("O_a", "O_b") == 1
    assert m.witness("O_a", "O_b") == "M:D"


def test_crossing_matrix_s3_zero():
    s = fixture("S3")
    m = crossing_matrix(s, reduce_scenario(s))
    assert m.as_dict() == {}


def test_crossing_matrix_s0_trivial():
    s = fixture("S0")
    m = crossing_matrix(s, reduce_scenario(s))
    assert m.orbits == ("O",)
    assert m.as_dict() == {}


def test_one_sided_order_on_shared_middle_leaf():
    s = s1_with_middle_leaf()
    assert one_sided_order(s, "g").order == ("O_b", "O_a")


def test_one_sided_order_singleton():
    assert one_sided_order(fixture("S1"), "r1").order == ("O_a",)


def test_one_sided_order_tie_rank_breaks_equivalent_pairs():
    s = s3_with_shared_exit()
    assert one_sided_order(s, "m1").order == ("O_x", "O_y")  # forward equivalent, ranks 0 < 1


def test_one_sided_order_right_extends_the_right_relation():
    s = fixture("S2")
    idx = index(s)
    for leaf, orbs in idx.leaf_orbits.items():
        if not orbs:
            continue
        order = one_sided_order_right(s, leaf).order
        for i, a in enumerate(order):
            for b in order[i + 1 :]:
                assert compare_right(s, a, b).direction in (Direction.FIRST_LESS, Direction.EQUIVALENT)


def _rotations(seq):
    return [seq[i:] + seq[:i] for i in range(len(seq))]


def test_boundary_order_s0():
    s = fixture("S0")
    b = boundary_order(s, reduce_scenario(s))
    assert b.ends in _rotations((("O", BACKWARD), ("O", FORWARD)))


def test_boundary_order_s1_interleaves():
    s = fixture("S1")
    b = boundary_order(s, reduce_scenario(s))
    expected = (("O_a", BACKWARD), ("O_b", BACKWARD), ("O_a", FORWARD), ("O_b", FORWARD))
    assert b.ends in _rotations(expected)
    assert ends_interleave(b, "O_a", "O_b")


def test_boundary_order_s3_nested():
    s = fixture("S3")
    b = boundary_order(s, reduce_scenario(s))
    expected = (("O_x", BACKWARD), ("O_y", BACKWARD), ("O_y", FORWARD), ("O_x", FORWARD))
    assert b.ends in _rotations(expected)
    assert not ends_interleave(b, "O_x", "O_y")


@pytest.mark.parametrize("seed", range(1, 31))
def test_interleaving_equals_crossings(seed):
    s = generate_scenario(GeneratorConfig(seed=seed))
    r = reduce_scenario(s)
    b = boundary_order(s, r)
    assert interleaving_matrix(b).as_dict() == crossing_matrix(s, r).as_dict()


@pytest.mark.parametrize("seed", range(1, 31))
def test_crossing_matrix_equals_weak_matrix(seed):
    s = generate_scenario(GeneratorConfig(seed=seed))
    r = reduce_scenario(s)
    assert crossing_matrix(s, r).as_dict() == weak_matrix(s).as_dict()


@pytest.mark.parametrize("seed", range(1, 31))
def test_handoff_consistency(seed):
    s = generate_scenario(GeneratorConfig(seed=seed))
    r = reduce_scenario(s)
    plans = all_port_plans(s)
    idx = index(s)
    for up, leaf, down in r.forest_edges:
        carried = set(idx.leaf_orbits[leaf])
        upper = [o for o in plans[up].exit_seq if o in carried]
        lower = [o for o in plans[down].entry_seq if o in carried]
        assert upper == lower == list(standard_order(s, leaf).order)


@pytest.mark.parametrize("seed", range(1, 31))
def test_one_sided_order_is_a_left_extension(seed):
    s = generate_scenario(GeneratorConfig(seed=seed))
    idx = index(s)
    for leaf, orbs in sorted(idx.leaf_orbits.items()):
        if not orbs:
            continue
        order = one_sided_order(s, leaf).order
        for i, a in enumerate(order):
            for b in order[i + 1 :]:
                assert compare_left(s, a, b).direction in (Direction.FIRST_LESS, Direction.EQUIVALENT)


def test_entry_seq_is_a_permutation_of_crossers():
    for name in ("S1", "S2", "S3", "S4"):
        s = fixture(name)
        r = reduce_scenario(s)
        for m in r.maxdomains:
            plan = port_plan(s, m)
            assert sorted(plan.entry_seq) == sorted(m.crossers)
            assert sorted(plan.exit_seq) == sorted(m.crossers)


def test_boundary_order_has_one_end_pair_per_orbit():
    for name in ("S1", "S2", "S3", "S4"):
        s = fixture(name)
        b = boundary_order(s, reduce_scenario(s))
        for o in s.orbits:
            assert b.ends.count((o.id, BACKWARD)) == 1
            assert b.ends.count((o.id, FORWARD)) == 1


def _chain(k):
    """k domains in a line, one orbit per link and one through all of them.

    Each link leaf is crossed by its own orbit and the through orbit, so it
    is critical and the reduced forest is a path of k maximal domains.  Link
    positions alternate by parity, so that some pairs cross.
    """

    def side(i, link, free):
        if link is None:
            return (free,)
        return (free, link) if i % 2 == 0 else (link, free)

    domains = tuple(
        SkeletonDomain(
            id=f"D{i}",
            left=side(i, f"L{i + 1}" if i + 1 < k else None, f"x{i}"),
            right=side(i, f"L{i}" if i else None, f"y{i}"),
        )
        for i in range(k)
    )
    paths = [(f"D{i - 1}", f"L{i}", f"D{i}") for i in range(1, k)]
    paths.append(tuple(name for i in range(k) for name in ((f"L{i}",) if i else ()) + (f"D{i}",)))
    orbits = tuple(
        Orbit(id=f"O{n}", path=path, entry_cut=1, exit_cut=1, tie_rank=n) for n, path in enumerate(paths)
    )
    return Scenario(domains=domains, orbits=orbits)


def test_boundary_order_walks_a_1200_deep_forest():
    s = _chain(1200)
    r = reduce_scenario(s)
    assert len(r.forest_edges) == 1199
    counts = Counter(boundary_order(s, r).ends)
    assert counts == Counter({(o.id, kind): 1 for o in s.orbits for kind in (BACKWARD, FORWARD)})


def test_crossing_matrix_equals_weak_matrix_on_a_400_chain():
    s = _chain(400)
    crossings = crossing_matrix(s, reduce_scenario(s))
    assert crossings.entries
    assert crossings.as_dict() == weak_matrix(s).as_dict()


def _oracle_interleavings(b):
    orbits = sorted({orbit for orbit, _kind in b.ends})
    return {(a, c): 1 for a, c in itertools.combinations(orbits, 2) if ends_interleave(b, a, c)}


def test_interleaving_matrix_equals_the_pairwise_oracle_on_every_arrangement():
    ends = [(o, kind) for o in ("a", "b", "c") for kind in (BACKWARD, FORWARD)]
    for arrangement in itertools.permutations(ends):
        b = BoundaryOrder(ends=arrangement)
        assert interleaving_matrix(b).as_dict() == _oracle_interleavings(b)


def test_interleaving_matrix_equals_the_pairwise_oracle_on_a_60_chain():
    s = _chain(60)
    b = boundary_order(s, reduce_scenario(s))
    matrix = interleaving_matrix(b)
    assert matrix.entries
    assert matrix.as_dict() == _oracle_interleavings(b)
