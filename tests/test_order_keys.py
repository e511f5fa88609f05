"""The key-sorted orders against their pairwise reference definitions.

Every order the program builds sorts by a key made of ``side_key`` walks,
slices of the walks the index keeps; ``walk_oracle`` below walks the path
on each call and checks every slice.  These tests sort the same orbits
with ``functools.cmp_to_key`` over the comparators ``standard_cmp`` and
``adaptive_cmp`` (and a local extension comparator for the one-sided
orders) and require the same output, or the same ``TieRankError``.  They
also check that the right side is the left side of the reversed scenario.
"""

import functools
import itertools
from fractions import Fraction

import pytest

from foliage import relations
from foliage.decompose import reduce_scenario
from foliage.generator import GeneratorConfig, generate_scenario
from foliage.model import FIXTURE_NAMES, Orbit, Scenario, SkeletonDomain, fixture, index, validate
from foliage.realize import one_sided_order, one_sided_order_right, port_plan
from foliage.relations import (
    Clause,
    RelationVerdict,
    TieRankError,
    adaptive_order,
    compare_left,
    compare_right,
    side_key,
    standard_order,
)
from test_cli_bytes import DIGESTS, _digest
from deep_families import chain

BOUNDS = {
    "default": {},
    "large": {"max_domains": 25, "max_orbits": 14, "max_boundary": 6, "weak_bias": Fraction(9, 10)},
}


def walk_oracle(idx, o, domain, step):
    """o's walk away from ``domain``, read off its path on each call:
    ``2*rank+1`` per leaf crossed (left ranks forward, right ranks back),
    then ``2*cut`` where o ends (its exit cut forward, its entry cut back)."""
    pos = idx.domain_pos[o.id][domain]
    if step > 0:
        leaves, rank, cut = o.path[pos + 1 :: 2], idx.left_rank, o.exit_cut
    else:
        leaves, rank, cut = reversed(o.path[1:pos:2]), idx.right_rank, o.entry_cut
    return (*(2 * rank[leaf] + 1 for leaf in leaves), 2 * cut)


def _walk_scenarios():
    for bounds in sorted(BOUNDS):
        for seed in range(1, 101):
            yield f"seed {seed} at {bounds} bounds", generate_scenario(GeneratorConfig(seed=seed, **BOUNDS[bounds]))
    for name in FIXTURE_NAMES:
        yield name, fixture(name)
    yield "chain300", chain(300)


def test_side_keys_are_slices_of_the_walk_oracle():
    checked = 0
    for label, s in _walk_scenarios():
        idx = index(s)
        for o in s.orbits:
            for d in o.domains:
                for step in (1, -1):
                    assert side_key(idx, o, d, step) == walk_oracle(idx, o, d, step), (label, o.id, d, step)
                    checked += 1
    assert checked > 4000


def _cmp_sorted(ids, cmp):
    ids = sorted(ids)
    ids.sort(key=functools.cmp_to_key(cmp))
    return tuple(ids)


def _extension_cmp(s, sided_compare, a, b):
    """The one-sided orders' pairwise definition: the sided relation, then
    the tie rank, then the standard composite."""
    got = relations._direction_cmp(sided_compare(s, a, b))
    if got is not None:
        return got
    idx = index(s)
    ra, rb = idx.orbit_by_id[a].tie_rank, idx.orbit_by_id[b].tie_rank
    if ra != rb:
        return -1 if ra < rb else 1
    return relations.standard_cmp(s, a, b)


def _outcome(fn):
    """The order fn builds, or the error class it raises."""
    try:
        return fn()
    except TieRankError:
        return TieRankError


def _order_pairs(s):
    """(name, key-sorted order, comparator-sorted order) for every order of s."""
    idx = index(s)
    r = reduce_scenario(s)
    for leaf in sorted(idx.leaf_orbits):
        orbs = idx.leaf_orbits[leaf]
        yield (
            f"standard at {leaf}",
            lambda leaf=leaf: standard_order(s, leaf).order,
            lambda orbs=orbs: _cmp_sorted(orbs, lambda a, b: relations.standard_cmp(s, a, b)),
        )
        for name, fn, side in (("left", one_sided_order, compare_left), ("right", one_sided_order_right, compare_right)):
            yield (
                f"one-sided {name} at {leaf}",
                lambda fn=fn, leaf=leaf: fn(s, leaf).order,
                lambda orbs=orbs, side=side: _cmp_sorted(orbs, lambda a, b: _extension_cmp(s, side, a, b)),
            )
    for m in r.maxdomains:
        yield (
            f"entry sequence of {m.id}",
            lambda m=m: port_plan(s, m).entry_seq,
            lambda m=m: _cmp_sorted(m.crossers, lambda a, b: relations.standard_cmp(s, a, b)),
        )
        yield (
            f"adaptive at {m.id}",
            lambda m=m: adaptive_order(s, r, m.id).order,
            lambda m=m: _cmp_sorted(m.crossers, lambda a, b: relations.adaptive_cmp(s, m, a, b)),
        )


def _assert_keys_match_comparators(s, label):
    for name, by_key, by_cmp in _order_pairs(s):
        assert _outcome(by_key) == _outcome(by_cmp), f"{label}: {name}"


@pytest.mark.parametrize("bounds", sorted(BOUNDS))
@pytest.mark.parametrize("block", range(4))
def test_key_orders_equal_comparator_orders_on_generated(bounds, block):
    for seed in range(1 + 100 * block, 101 + 100 * block):
        s = generate_scenario(GeneratorConfig(seed=seed, **BOUNDS[bounds]))
        _assert_keys_match_comparators(s, f"seed {seed} at {bounds} bounds")


@pytest.mark.parametrize("k", [2, 5, 20, 60])
def test_key_orders_equal_comparator_orders_on_chains(k):
    _assert_keys_match_comparators(chain(k), f"chain{k}")


def _twins():
    """Two orbits with one path, equal cuts and equal tie ranks through D0-x-D1."""
    domains = (SkeletonDomain(id="D0", left=("x", "f")), SkeletonDomain(id="D1", right=("x",)))
    orbits = tuple(Orbit(id=oid, path=("D0", "x", "D1"), entry_cut=0, exit_cut=0, tie_rank=3) for oid in ("b", "a"))
    s = Scenario(domains=domains, orbits=orbits)
    assert validate(s).ok
    return s


@pytest.mark.parametrize(
    "build",
    [
        lambda s: standard_order(s, "x"),
        lambda s: adaptive_order(s, reduce_scenario(s), reduce_scenario(s).maxdomains[0].id),
        lambda s: one_sided_order(s, "x"),
        lambda s: one_sided_order_right(s, "x"),
    ],
    ids=["standard", "adaptive", "one-sided-left", "one-sided-right"],
)
def test_tie_rank_collision_raises_like_the_comparator_sort(build):
    s = _twins()
    with pytest.raises(TieRankError) as caught:
        build(s)
    assert str(caught.value) == "orbits 'a' and 'b' are equivalent but share tie rank 3"
    with pytest.raises(TieRankError):
        _cmp_sorted(["a", "b"], lambda a, b: relations.standard_cmp(s, a, b))


def reverse(s):
    """The scenario read backwards: left and right lists swap, every path
    runs the other way and entry and exit cuts swap."""
    return Scenario(
        domains=tuple(SkeletonDomain(id=d.id, left=d.right, right=d.left) for d in s.domains),
        orbits=tuple(
            Orbit(id=o.id, path=o.path[::-1], entry_cut=o.exit_cut, exit_cut=o.entry_cut, tie_rank=o.tie_rank)
            for o in s.orbits
        ),
    )


_MIRROR = {"L1": "R1", "L2": "R2", "L3": "R3", "L4": "R4", "R1": "L1", "R2": "L2", "R3": "L3", "R4": "L4"}


def _mirrored(v: RelationVerdict) -> RelationVerdict:
    return RelationVerdict(v.direction, Clause(_MIRROR.get(v.clause.value, v.clause.value)))


@pytest.mark.parametrize("block", range(3))
def test_right_side_is_the_left_side_of_the_reversed_scenario(block):
    pairs = 0
    for seed in range(1 + 100 * block, 101 + 100 * block):
        s = generate_scenario(GeneratorConfig(seed=seed))
        rev = reverse(s)
        assert validate(rev).ok
        ids = sorted(o.id for o in s.orbits)
        for a, b in itertools.permutations(ids, 2):
            assert compare_right(s, a, b) == _mirrored(compare_left(rev, a, b)), f"seed {seed}: {a},{b}"
            assert compare_left(s, a, b) == _mirrored(compare_right(rev, a, b)), f"seed {seed}: {a},{b}"
            pairs += 1
        idx, ridx = index(s), index(rev)
        for o in s.orbits:
            ro = ridx.orbit_by_id[o.id]
            for d in o.domains:
                assert side_key(idx, o, d, -1) == side_key(ridx, ro, d, 1)
                assert side_key(idx, o, d, 1) == side_key(ridx, ro, d, -1)
    assert pairs > 1000


GUARDED = [
    (name, command)
    for name in ("S0", "S1", "S2", "S3", "S4", "chain20")
    for command in ("relations", "matrix", "boundary", "svg")
]


@pytest.mark.parametrize("name, command", GUARDED)
def test_outputs_need_no_comparator(tmp_path, capsys, monkeypatch, name, command):
    def refuse(*args):
        raise AssertionError("a comparator was called on the program path")

    monkeypatch.setattr(relations, "standard_cmp", refuse)
    monkeypatch.setattr(relations, "adaptive_cmp", refuse)
    assert _digest(tmp_path, capsys, name, command) == DIGESTS[(name, command)]
