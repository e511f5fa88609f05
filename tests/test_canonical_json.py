"""The canonical JSON writer against the standard library's encoder, and
the scenario writer against the canonical writer."""

import json
import random

import pytest

from foliage.generator import GeneratorConfig, generate_scenario
from foliage.model import Orbit, Scenario, SkeletonDomain, dumps, emit_scenario, parse_scenario

STRINGS = ("", "a", 'say "hi"', "back\\slash", "tab\tnew\nline", "\x00\x1f\x7f", "é", "€", " ", "😀", "\ud834")
INTS = (0, 1, -1, 2**31, -(2**63), 2**200, -(10**40))
KEYS = ("", "a", "b", "B", "aa", "é", "😀", '"q"', "\n", "0", "10", "9")


def _scalar(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice(STRINGS) + rng.choice(STRINGS)
    if kind == 1:
        return rng.choice(INTS)
    if kind == 2:
        return rng.choice((True, False))
    return None


def _document(rng, depth=0):
    kind = rng.randrange(6 if depth < 4 else 1)
    if kind == 0:
        return _scalar(rng)
    size = rng.randrange(5)
    if kind in (1, 2):
        return {rng.choice(KEYS): _document(rng, depth + 1) for _ in range(size)}
    if kind in (3, 4):
        return [_document(rng, depth + 1) for _ in range(size)]
    return tuple(_document(rng, depth + 1) for _ in range(size))


def _corpus():
    rng = random.Random(20251018)
    docs = [_document(rng) for _ in range(400)]
    docs += [{}, [], (), {"a": {}, "b": [], "c": ()}, [[], [[]], {}]]
    docs += [{"flag": True, "count": 1, "off": False, "zero": 0}, [True, 1, False, 0, None]]
    return docs


@pytest.mark.parametrize("ensure_ascii", (True, False))
def test_dumps_equals_the_standard_encoder(ensure_ascii):
    for doc in _corpus():
        assert dumps(doc, ensure_ascii=ensure_ascii) == json.dumps(
            doc, sort_keys=True, indent=2, ensure_ascii=ensure_ascii
        )


def test_dumps_escapes_non_ascii_by_default():
    assert dumps({"k": "é😀"}) == '{\n  "k": "\\u00e9\\ud83d\\ude00"\n}'
    assert dumps({"k": "é"}, ensure_ascii=False) == '{\n  "k": "é"\n}'


@pytest.mark.parametrize("doc", (1.5, [0.0], {"a": {"b": float("nan")}}, {1: "a"}, {"a": {None: 1}}, {("a",): 1}, {"a"}))
def test_dumps_rejects_types_outside_the_documents(doc):
    with pytest.raises(TypeError):
        dumps(doc)


def _emit_by_dumps(s):
    """The scenario's document through the generic writer."""
    doc = {
        "domains": [{"id": d.id, "left": list(d.left), "right": list(d.right)} for d in s.domains],
        "orbits": [
            {"entry_cut": o.entry_cut, "exit_cut": o.exit_cut, "id": o.id, "path": list(o.path), "tie_rank": o.tie_rank}
            for o in s.orbits
        ],
    }
    return dumps(doc, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("bounds", ({}, {"max_domains": 25, "max_orbits": 14, "max_boundary": 6}, {"max_boundary": 0}))
def test_emit_scenario_equals_the_generic_writer_on_generated_scenarios(bounds):
    for seed in range(1, 201):
        s = generate_scenario(GeneratorConfig(seed=seed, **bounds))
        assert emit_scenario(s) == _emit_by_dumps(s), seed


ODD_IDS = ('say "hi"', "back\\slash", "tab\tnew\nline", "\x00\x1f\x7f", "é", "€", "😀", "\ud834", "")


@pytest.mark.parametrize(
    "s",
    (
        Scenario(domains=(), orbits=()),
        Scenario(domains=(SkeletonDomain("D"),), orbits=()),
        Scenario(domains=(SkeletonDomain("D", left=("a",)),), orbits=(Orbit("O", ("D",)),)),
        Scenario(
            domains=tuple(SkeletonDomain(i, left=ODD_IDS, right=(i,)) for i in ODD_IDS),
            orbits=tuple(Orbit(i, (i, i, i), entry_cut=-3, exit_cut=2**70, tie_rank=7) for i in ODD_IDS),
        ),
    ),
)
def test_emit_scenario_equals_the_generic_writer_on_edge_cases(s):
    assert emit_scenario(s) == _emit_by_dumps(s)


def test_emitted_odd_ids_parse_back():
    s = Scenario(domains=tuple(SkeletonDomain(i) for i in ODD_IDS if i), orbits=())
    assert parse_scenario(emit_scenario(s)).domains == s.domains
