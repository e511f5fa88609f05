"""Pins on ``validate``'s findings and on the contract of invalid scenarios.

The findings pin runs ``validate`` over a seeded family of scenarios built
in code, most of them invalid, and compares the sha256 of the findings'
reprs with a recorded digest: codes, messages and their order are part of
the output.
"""

import hashlib

import pytest

from foliage import decompose, relations
from foliage.generator import GeneratorConfig, SplitMix64, generate_scenario
from foliage.model import (
    InvalidScenarioError,
    Orbit,
    Scenario,
    SkeletonDomain,
    fixture_text,
    index,
    parse_scenario,
    validate,
)

LEAVES = ("a", "b", "c", "d", "e", "f")
CODES = {
    "empty-id",
    "duplicate-id",
    "boundary-repeat",
    "left-reuse",
    "right-reuse",
    "forest-violation",
    "path-alternation",
    "unknown-domain",
    "not-an-edge",
    "domain-revisit",
    "cut-out-of-range",
}
FINDINGS_SHA256 = "7f78c21bda3ec7902a2931bd1f289bbb4643d9aa869a3a47c52d9e4fef4b02f9"


def _leaves(rng: SplitMix64) -> tuple[str, ...]:
    return tuple(rng.choice(LEAVES) for _ in range(rng.below(3)))


def _path(rng: SplitMix64, domains: list[SkeletonDomain]) -> tuple[str, ...]:
    """Random tokens, or a walk along left/right leaf matches (self-loops and
    cycles included), so that paths of every kind occur."""
    if rng.below(2):
        names = [d.id for d in domains] + ["X"]
        return tuple(rng.choice(names) if k % 2 == 0 else rng.choice(LEAVES) for k in range(rng.below(6)))
    d = rng.choice(domains)
    path = [d.id]
    for _ in range(rng.below(4)):
        steps = [(leaf, e) for leaf in d.left for e in domains if leaf in e.right]
        if not steps:
            break
        leaf, d = rng.choice(steps)
        path += [leaf, d.id]
    return tuple(path)


def _drawn(seed: int) -> Scenario:
    rng = SplitMix64(seed)
    domains = []
    for i in range(1 + rng.below(4)):
        did = f"D{i}" if rng.below(8) else rng.choice(("", "D0"))
        domains.append(SkeletonDomain(did, _leaves(rng), _leaves(rng)))
    orbits = []
    for k in range(1 + rng.below(3)):
        oid = f"O{k}" if rng.below(8) else rng.choice(("", "O0"))
        orbits.append(Orbit(oid, _path(rng, domains), rng.below(5) - 1, rng.below(5) - 1, k))
    return Scenario(tuple(domains), tuple(orbits))


def _family() -> list[Scenario]:
    family = [_drawn(seed) for seed in range(1, 2001)]
    for seed in range(1, 201):
        s = generate_scenario(GeneratorConfig(seed=seed, max_domains=6, max_orbits=4))
        family += [
            s,
            Scenario(s.domains[::-1], s.orbits),
            Scenario(s.domains, s.orbits + s.orbits[:1]),
        ]
    return family


def test_findings_are_pinned_over_a_seeded_family():
    reports = [validate(s) for s in _family()]
    text = "\n".join(repr(r.findings) for r in reports)
    assert {f.code for r in reports for f in r.findings} == CODES
    assert sum(r.ok for r in reports) > 200
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == FINDINGS_SHA256


def _invalid() -> Scenario:
    s = parse_scenario(fixture_text("S1"))
    o = s.orbits[0]
    bad = Orbit(o.id, o.path, o.entry_cut, 99, o.tie_rank)  # exit cut out of range
    return Scenario(s.domains, (bad,) + s.orbits[1:])


@pytest.mark.parametrize(
    "call",
    [
        index,
        decompose.reduce_scenario,
        lambda s: relations.compare_left(s, s.orbits[0].id, s.orbits[1].id),
    ],
    ids=["index", "reduce_scenario", "compare_left"],
)
def test_an_invalid_scenario_raises_with_its_findings_and_keeps_no_index(call):
    s = _invalid()
    with pytest.raises(InvalidScenarioError) as info:
        call(s)
    assert info.value.report.findings == validate(s).findings != ()
    assert s._index is None


def test_a_valid_scenario_keeps_one_index_across_validations():
    s = parse_scenario(fixture_text("S2"))
    assert validate(s).findings == ()
    idx = index(s)
    assert validate(s).findings == ()
    assert index(s) is idx
