import itertools
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from foliage import checks
from foliage.checks import PROPERTIES, _Context, _strict_total, run_check, shrink
from foliage.cli import main
from foliage.generator import GeneratorConfig, generate_scenario
from foliage.model import FIXTURE_NAMES, FoliageError, fixture, parse_scenario


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_every_property_holds_on_the_fixtures(name):
    ctx = _Context(fixture(name))
    for prop_name, fn in PROPERTIES:
        assert fn(ctx) == [], f"{prop_name} fails on {name}"


def test_no_fraction_is_built_by_the_context_or_any_property(monkeypatch):
    """The geometry the check reads is ints throughout: the layout, the
    routed trajectories and the crossing triples.  The scenarios are
    generated first, since the generator's bias is a ``Fraction``."""
    scenarios = [generate_scenario(GeneratorConfig(seed=seed)) for seed in range(1, 51)]
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    problems = []
    for s in scenarios:
        ctx = _Context(s)
        problems += [problem for _name, fn in PROPERTIES for problem in fn(ctx)]
    monkeypatch.undo()
    assert problems == [] and built == []
    assert len(PROPERTIES) == 16


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


def test_a_last_seed_past_64_bits_raises_before_any_case_runs(monkeypatch):
    generated = []
    monkeypatch.setattr(checks, "generate_scenario", lambda cfg: generated.append(cfg.seed))
    with pytest.raises(FoliageError, match="^seed must fit in 64 bits$"):
        run_check(GeneratorConfig(seed=2**64 - 1), 2)
    assert generated == []


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


def test_each_port_plan_is_built_once_per_scenario_object(monkeypatch):
    from foliage import geometry, realize
    from foliage.decompose import reduce_scenario

    built = []
    port_plan = realize.port_plan

    def counting(s, m):
        built.append(s)
        return port_plan(s, m)

    monkeypatch.setattr(realize, "port_plan", counting)
    s = fixture("S2")
    ctx = _Context(s)
    assert all(fn(ctx) == [] for _name, fn in PROPERTIES)
    r = reduce_scenario(s)
    realize.crossing_matrix(s, r)
    realize.boundary_order(s, r)
    geometry.layout(s, r)
    n = len(r.maxdomains)
    assert n > 1 and len(built) == n and all(b is s for b in built)
    # An equal but distinct scenario holds its own index, so its own plans.
    twin = fixture("S2")
    assert twin == s and twin is not s
    _Context(twin)
    assert len(built) == 2 * n and all(b is twin for b in built[n:])


def test_each_orbit_walk_is_built_once_per_scenario_object(tmp_path, capsys, monkeypatch):
    from foliage import relations
    from foliage.model import fixture_text, validate

    built = []
    orbit_walks = relations.orbit_walks

    def counting(idx):
        if idx.walks is None:
            built.append(idx)
        return orbit_walks(idx)

    monkeypatch.setattr(relations, "orbit_walks", counting)
    path = tmp_path / "S2.json"
    path.write_text(fixture_text("S2"), encoding="utf-8")
    # Validating builds no walk, in the library or on the command line.
    s = parse_scenario(fixture_text("S2"))
    assert validate(s).ok and main(["validate", str(path)]) == 0
    assert built == []
    ctx = _Context(s)
    assert all(fn(ctx) == [] for _name, fn in PROPERTIES)
    assert built == [s._index]
    assert main(["diagram", str(path), "--format", "boundary"]) == 0
    assert len(built) == 2 and built[1] is not s._index
    # An equal but distinct scenario holds its own index, so its own walks.
    twin = fixture("S2")
    assert twin == s and twin is not s
    _Context(twin)
    assert built[2:] == [twin._index]


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


def _strict_total_by_loops(items, cmp):
    """The cubic definition that ``_strict_total`` falls back to."""
    bad = []
    for a, b in itertools.combinations(items, 2):
        if cmp(a, b) == 0 or cmp(a, b) != -cmp(b, a):
            bad.append(f"not antisymmetric on {a},{b}")
    for a, b, c in itertools.permutations(items, 3):
        if cmp(a, b) < 0 and cmp(b, c) < 0 and not cmp(a, c) < 0:
            bad.append(f"not transitive on {a},{b},{c}")
    return bad


def _outcome(fn, items, cmp):
    try:
        return fn(items, cmp)
    except Exception as exc:
        return type(exc), str(exc)


BROKEN = ("non-antisymmetric", "cyclic", "tying", "raising", "scaled")


def _comparator(kind, items, rng):
    """A total order by random rank, broken as ``kind`` says on random items."""
    rank = {o: rng.random() for o in items}
    x, y, z = rng.sample(items, 3)
    forced = {"cyclic": {(x, y): -1, (y, z): -1, (z, x): -1}}.get(kind, {})
    forced = {**forced, **{(b, a): -v for (a, b), v in forced.items()}}

    def cmp(a, b):
        if (a, b) in forced:
            return forced[(a, b)]
        if {a, b} == {x, y}:
            if kind == "non-antisymmetric":
                return -1
            if kind == "tying":
                return 0
            if kind == "raising":
                raise ValueError(f"cannot compare {a} with {b}")
        c = (rank[a] > rank[b]) - (rank[a] < rank[b])
        return 2 * c if kind == "scaled" and a == x else c

    return cmp


@pytest.mark.parametrize("kind", ("total",) + BROKEN)
@pytest.mark.parametrize("seed", range(8))
def test_strict_total_agrees_with_the_cubic_loops(kind, seed):
    rng = random.Random(f"{kind}/{seed}")
    items = [f"o{i}" for i in range(rng.randint(3, 9))]
    cmp = _comparator(kind, items, rng)
    got = _outcome(_strict_total, items, cmp)
    assert got == _outcome(_strict_total_by_loops, items, cmp)
    assert (got == []) == (kind == "total")


def test_strict_total_on_no_or_one_item():
    assert _strict_total([], None) == []
    assert _strict_total(["a"], lambda a, b: 0) == []


def test_check_on_100_orbits_in_one_domain_is_quick(capsys):
    start = time.perf_counter()
    argv = ["check", "--seed", "2", "--cases", "1", "--max-domains", "1", "--max-orbits", "120", "--max-boundary", "4"]
    assert main(argv) == 0
    assert time.perf_counter() - start < 2.0
    assert "result: all properties hold" in capsys.readouterr().out


def _decompose_invariants_by_rescanning(ctx):
    """The decompose-invariants property as it was written before it built
    the edge leaves and each orbit's maximal domains once: both rescanned
    for every critical leaf and every (maximal domain, orbit) pair."""
    bad = []
    s = ctx.scenario
    idx = checks.index(s)
    r = ctx.reduced
    n_orbits = len(s.orbits)
    if len(r.critical) > 2 * n_orbits * n_orbits:
        bad.append("critical leaf count exceeds the pair bound")
    membership = r.membership()
    for m in r.maxdomains:
        roles = r.roles_of(m.id)
        if roles.incoming | roles.alpha != m.crossers or roles.outgoing | roles.omega != m.crossers:
            bad.append(f"role sets of {m.id} do not partition its crossers")
        incoming = frozenset(o for leaf in m.right for o in idx.leaf_orbits.get(leaf, frozenset()))
        outgoing = frozenset(o for leaf in m.left for o in idx.leaf_orbits.get(leaf, frozenset()))
        if incoming != roles.incoming or outgoing != roles.outgoing:
            bad.append(f"boundary-leaf role characterization fails at {m.id}")
        for o in s.orbits:
            touches = any(d in m.chain for d in o.domains)
            if touches != (o.id in m.crossers):
                bad.append(f"crosser set of {m.id} disagrees with path membership for {o.id}")
    for leaf in r.critical:
        if leaf not in {e[1] for e in r.forest_edges}:
            bad.append(f"critical leaf {leaf} carries no forest edge")
        if not idx.leaf_orbits.get(leaf):
            bad.append(f"critical leaf {leaf} is uncrossed")
    ids = sorted(o.id for o in s.orbits)
    for a, b in itertools.combinations(ids, 2):
        ab, ba = checks.common_subpath(s, a, b), checks.common_subpath(s, b, a)
        if (ab is None) != (ba is None) or (ab is not None and ab.chain != ba.chain):
            bad.append(f"common subpath of {a},{b} is not symmetric")
    for oid in ids:
        mid_seq = []
        for d in idx.orbit(oid).domains:
            if not mid_seq or mid_seq[-1] != membership[d]:
                mid_seq.append(membership[d])
        if len(set(mid_seq)) != len(mid_seq):
            bad.append(f"maximal-domain sequence of {oid} revisits a domain")
    return bad


def test_decompose_invariants_report_what_the_rescanning_body_reported():
    """On seeds 1..100 at 25/14/6, as reduced and with each maximal domain
    given the next one's crossers and the first forest edge dropped, so
    that the crosser and forest-edge messages are reported."""
    reported = 0
    for seed in range(1, 101):
        ctx = _Context(generate_scenario(GeneratorConfig(seed=seed, max_domains=25, max_orbits=14, max_boundary=6)))
        assert checks.prop_decompose_invariants(ctx) == _decompose_invariants_by_rescanning(ctx) == []
        r = ctx.reduced
        crossers = [m.crossers for m in r.maxdomains]
        maxdomains = tuple(replace(m, crossers=c) for m, c in zip(r.maxdomains, crossers[1:] + crossers[:1]))
        ctx.reduced = replace(r, maxdomains=maxdomains, forest_edges=r.forest_edges[1:])
        found = checks.prop_decompose_invariants(ctx)
        assert found == _decompose_invariants_by_rescanning(ctx)
        reported += len(found)
    assert reported
