import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliage import decompose, model, realize, relations
from foliage.model import (
    FIXTURE_NAMES,
    Orbit,
    Scenario,
    ScenarioParseError,
    SkeletonDomain,
    emit_scenario,
    fixture,
    fixture_text,
    parse_scenario,
    validate,
)


def derived_edges(s):
    """All triples (D, leaf, D') with leaf in left(D) and right(D'), from
    the first owner of each leaf: the reference for ``ScenarioIndex.edges``."""
    left_owner, right_owner = {}, {}
    for d in s.domains:
        for leaf in d.left:
            left_owner.setdefault(leaf, d.id)
        for leaf in d.right:
            right_owner.setdefault(leaf, d.id)
    return model._edges(left_owner, right_owner)


def test_parse_smallest_document():
    s = parse_scenario(fixture_text("S0"))
    assert len(s.domains) == 1
    assert len(s.orbits) == 1
    assert s.orbits[0].path == ("D0",)


def test_parse_s1_shape():
    s = parse_scenario(fixture_text("S1"))
    assert len(s.domains) == 5
    leaves = {leaf for d in s.domains for leaf in d.left + d.right}
    assert leaves == {"r1", "r2", "l1", "l2"}
    assert len(s.orbits) == 2


def test_parse_unknown_leaf():
    doc = json.loads(fixture_text("S1"))
    doc["orbits"][0]["path"] = ["A1", "r9", "D"]
    with pytest.raises(ScenarioParseError, match="unknown leaf"):
        parse_scenario(json.dumps(doc))


def test_parse_unknown_domain():
    doc = json.loads(fixture_text("S1"))
    doc["orbits"][0]["path"] = ["A9"]
    with pytest.raises(ScenarioParseError, match="unknown domain"):
        parse_scenario(json.dumps(doc))


def test_parse_duplicate_id():
    doc = json.loads(fixture_text("S0"))
    doc["domains"].append(dict(doc["domains"][0]))
    with pytest.raises(ScenarioParseError, match="duplicate id"):
        parse_scenario(json.dumps(doc))


def test_parse_duplicate_key():
    text = fixture_text("S0").replace('"exit_cut": 0,', '"exit_cut": 0, "exit_cut": 1,')
    with pytest.raises(ScenarioParseError, match="duplicate key 'exit_cut'"):
        parse_scenario(text)


def test_parse_unknown_field():
    doc = json.loads(fixture_text("S0"))
    doc["domains"][0]["colour"] = "blue"
    with pytest.raises(ScenarioParseError, match="unknown field"):
        parse_scenario(json.dumps(doc))


def test_parse_syntax_error_carries_position():
    with pytest.raises(ScenarioParseError, match=r"line \d+, column \d+"):
        parse_scenario('{"domains": [,]}')


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixtures_round_trip_byte_identically(name):
    text = fixture_text(name)
    assert emit_scenario(parse_scenario(text)) == text


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixtures_validate_clean(name):
    assert validate(parse_scenario(fixture_text(name))).findings == ()


def test_parse_emit_parse_is_identity():
    s = parse_scenario(fixture_text("S2"))
    assert parse_scenario(emit_scenario(s)) == s


def test_cycle_is_a_forest_violation():
    doc = json.loads(fixture_text("S1"))
    for d in doc["domains"]:
        if d["id"] == "D":
            d["left"].append("c9")
        if d["id"] == "A1":
            d["right"] = ["c9"]
    report = validate(parse_scenario(json.dumps(doc)))
    assert any(f.code == "forest-violation" for f in report.findings)
    assert any("forest violation" in f.message for f in report.findings)


def test_cut_out_of_range():
    doc = json.loads(fixture_text("S1"))
    doc["orbits"][0]["exit_cut"] = 5
    report = validate(parse_scenario(json.dumps(doc)))
    assert any(f.code == "cut-out-of-range" for f in report.findings)
    assert any("cut out of range" in f.message for f in report.findings)


def test_boundary_repeat_and_reuse():
    s = Scenario(
        domains=(
            SkeletonDomain(id="A", left=("x", "x")),
            SkeletonDomain(id="B", left=("y",)),
            SkeletonDomain(id="C", left=("y",)),
        ),
        orbits=(),
    )
    codes = {f.code for f in validate(s).findings}
    assert "boundary-repeat" in codes
    assert "left-reuse" in codes


def test_path_must_follow_derived_edges():
    s = Scenario(
        domains=(SkeletonDomain(id="A", left=("p",)), SkeletonDomain(id="B", right=("q",))),
        orbits=(Orbit(id="O", path=("A", "p", "B")),),
    )
    codes = {f.code for f in validate(s).findings}
    assert "not-an-edge" in codes


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_validation_is_order_independent(seed):
    import random

    rng = random.Random(seed)
    s = parse_scenario(fixture_text("S2"))
    domains = list(s.domains)
    orbits = list(s.orbits)
    rng.shuffle(domains)
    rng.shuffle(orbits)
    shuffled = Scenario(domains=tuple(domains), orbits=tuple(orbits))
    assert validate(shuffled).findings == validate(s).findings


def test_every_derived_edge_has_one_left_and_one_right_owner():
    s = fixture("S2")
    lefts = {leaf: d.id for d in s.domains for leaf in d.left}
    rights = {leaf: d.id for d in s.domains for leaf in d.right}
    for a, leaf, b in derived_edges(s):
        assert lefts[leaf] == a
        assert rights[leaf] == b


def test_index_edges_equal_derived_edges():
    from foliage.generator import GeneratorConfig, generate_scenario

    generated = [generate_scenario(GeneratorConfig(seed=seed)) for seed in range(1, 31)]
    for s in [fixture(name) for name in FIXTURE_NAMES] + generated:
        assert model.index(s).edges == derived_edges(s)


def test_derived_structures_are_not_cached_by_scenario_hash():
    assert not hasattr(model.index, "cache_info")
    assert not hasattr(decompose.reduce_scenario, "cache_info")


def test_equal_scenarios_each_get_their_own_index_and_the_same_results():
    warm, cold = fixture("S2"), parse_scenario(fixture_text("S2"))
    assert warm == cold and hash(warm) == hash(cold) and warm is not cold
    assert model.index(warm) is model.index(warm)
    assert model.index(cold) is not model.index(warm)
    assert decompose.reduce_scenario(cold) is not decompose.reduce_scenario(warm)

    def results(s):
        r = decompose.reduce_scenario(s)
        pairs = [
            (str(relations.compare_left(s, a.id, b.id)), str(relations.compare_right(s, a.id, b.id)))
            for a in s.orbits
            for b in s.orbits
        ]
        return pairs, realize.crossing_matrix(s, r), realize.boundary_order(s, r), realize.weak_matrix(s)

    assert results(warm) == results(cold)


def test_public_names_are_pinned():
    """``foliage.__all__``, sorted: the exported classes and functions and
    the submodules the package imports.  Adding or removing a public name
    changes this list."""
    import foliage

    assert foliage.__all__ == [
        "BoundaryOrder", "CheckReport", "ChordDiagram", "Clause", "CrossingMatrix", "DegeneracyError",
        "Direction", "FoliageError", "GeneratorConfig", "Layout", "MaxDomain", "Orbit", "OrderedOrbitList",
        "PairRelations", "PolylineSet", "PortPlan", "ReducedStructure", "RelationVerdict", "Scenario",
        "ScenarioParseError", "SkeletonDomain", "SplitMix64", "TieRankError", "ValidationReport",
        "adaptive_order", "boundary_order", "checks", "chord_diagram", "classic_from_verdicts",
        "classic_transverse", "common_subpath", "compare_left", "compare_right", "crossing_matrix",
        "decompose", "dumps", "emit_chord_svg", "emit_scenario", "emit_svg", "exact_crossings", "fixture",
        "fixture_text", "generate_scenario", "generator", "geometry", "interleaving_matrix", "layout",
        "met_pair_relations", "minus_asymptotic", "model", "one_sided_order", "one_sided_order_right",
        "pair_relations", "parse_scenario", "plus_asymptotic", "port_plan", "realize", "reduce_scenario",
        "relations", "route", "run_check", "standard_order", "validate", "weak_from_verdicts",
        "weak_matrix", "weak_transverse",
    ]
