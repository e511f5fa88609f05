import pytest

from foliage.checks import PROPERTIES, _Context, run_check, shrink
from foliage.generator import GeneratorConfig
from foliage.model import FIXTURE_NAMES, fixture, parse_scenario


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_every_property_holds_on_the_fixtures(name):
    ctx = _Context(fixture(name))
    for prop_name, fn in PROPERTIES:
        assert fn(ctx) == [], f"{prop_name} fails on {name}"


def test_property_registry_covers_the_documented_laws():
    names = {name for name, _fn in PROPERTIES}
    assert {
        "preorder-totality",
        "preorder-transitivity",
        "mutual-iff-asymptotic",
        "classic-implies-weak",
        "order-totality",
        "hand-off",
        "one-sided-extension",
        "crossing-minimality",
        "oracle-agreement",
        "chord-law",
    } <= names


def test_run_check_report_is_deterministic():
    cfg = GeneratorConfig(seed=11)
    a = run_check(cfg, 5)
    b = run_check(cfg, 5)
    assert a.render_text() == b.render_text()
    assert a.render_json() == b.render_json()
    assert a.ok


def test_failing_seed_reproduces_and_shrinks():
    def tiny_orbit_count(ctx):
        if len(ctx.scenario.orbits) > 1:
            return ["more than one orbit"]
        return []

    report = run_check(GeneratorConfig(seed=1), 10, properties=(("tiny", tiny_orbit_count),))
    assert not report.ok
    failure = report.failures[0]
    from foliage.generator import generate_scenario

    again = generate_scenario(GeneratorConfig(seed=failure.seed))
    assert tiny_orbit_count(_Context(again))  # the seed reproduces the failure
    small = parse_scenario(failure.shrunk)
    assert len(small.orbits) == 2  # shrinking stopped at the minimal witness


def test_shrink_keeps_scenarios_valid():
    from foliage.generator import generate_scenario
    from foliage.model import validate

    def always_fails(_ctx):
        return ["nope"]

    s = generate_scenario(GeneratorConfig(seed=4))
    small = shrink(s, always_fails)
    assert validate(small).ok
    # Domain deletion may orphan every orbit; one domain always survives.
    assert len(small.domains) == 1
    assert len(small.orbits) == 0


def test_context_builds_port_plans_once(monkeypatch):
    from foliage import realize

    calls = []
    plans = realize.all_port_plans

    def counting(s, r):
        calls.append(s)
        return plans(s, r)

    monkeypatch.setattr(realize, "all_port_plans", counting)
    ctx = _Context(fixture("S2"))
    assert ctx.boundary is not None and ctx.layout is not None
    assert len(calls) == 1


def test_a_raising_property_is_a_shrunk_failure_not_an_abort():
    def raises_with_two_orbits(ctx):
        if len(ctx.scenario.orbits) > 1:
            raise KeyError("boom")
        return []

    report = run_check(GeneratorConfig(seed=1), 10, properties=(("raises", raises_with_two_orbits),))
    assert not report.ok
    failure = report.failures[0]
    assert failure.prop == "raises"
    assert failure.detail == "raised KeyError: 'boom'"
    assert len(parse_scenario(failure.shrunk).orbits) == 2
    (name, passes, fails), = report.results
    assert passes + fails == 10 and fails == len(report.failures)
    assert "raised KeyError" in report.render_text() and "raised KeyError" in report.render_json()


def test_a_case_whose_context_raises_fails_every_property(monkeypatch):
    from foliage import checks

    build = checks._Context.__post_init__

    def fragile(ctx):
        if len(ctx.scenario.orbits) > 2:
            raise ZeroDivisionError("no context")
        build(ctx)

    monkeypatch.setattr(checks._Context, "__post_init__", fragile)
    report = run_check(GeneratorConfig(seed=1), 5, properties=PROPERTIES[:2])
    assert not report.ok
    context_failures = [f for f in report.failures if f.prop == checks.CONTEXT]
    assert context_failures
    for f in context_failures:
        assert f.detail == "raised ZeroDivisionError: no context"
        assert len(parse_scenario(f.shrunk).orbits) == 3
    for _name, passes, fails in report.results:
        assert passes + fails == 5 and fails == len(context_failures)
