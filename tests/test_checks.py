import itertools
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from foliage import checks, decompose, relations
from foliage.checks import PROPERTIES, _Context, _strict_total, run_check, shrink
from foliage.cli import main
from foliage.generator import GeneratorConfig, generate_scenario
from foliage.model import (
    FIXTURE_NAMES,
    FoliageError,
    Orbit,
    Scenario,
    SkeletonDomain,
    emit_scenario,
    fixture,
    index,
    parse_scenario,
    validate,
)
from foliage.relations import Clause, Direction, RelationVerdict

from deep_families import binary, caterpillar, chain


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
    from foliage import checks, relations

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


def _transitivity_by_loops(leaf, orbs, sides):
    """The triple loop that ``_intransitive`` falls back to, as the
    preorder-transitivity property ran it on every leaf."""
    le = (Direction.FIRST_LESS, Direction.EQUIVALENT)
    bad = []
    for a, b, c in itertools.permutations(orbs, 3):
        for name, direction in sides.items():
            if direction(a, b) in le and direction(b, c) in le:
                if direction(a, c) not in le:
                    bad.append(f"{name} not transitive on {a},{b},{c} at leaf {leaf}")
    return bad


SIDED_BROKEN = ("gapped", "cyclic", "one-way", "raising", "incomparable", "rock-paper-scissors")


def _sided(kind, items, rng):
    """A total preorder by random rank with ties, broken as ``kind`` says
    on random items: the direction of each ordered pair."""
    rank = {o: rng.randrange(len(items) // 2 + 1) for o in items}
    x, y, z = rng.sample(items, 3)
    forced = {}
    if kind == "gapped":  # x ~ z, but y lies strictly between them
        rank.update({x: -3, y: -2, z: -1})
        forced = {(x, z): Direction.EQUIVALENT, (z, x): Direction.EQUIVALENT}
    elif kind == "cyclic":
        forced = {(x, y): Direction.FIRST_LESS, (y, z): Direction.FIRST_LESS, (z, x): Direction.FIRST_LESS}
        forced.update({(b, a): Direction.SECOND_LESS for a, b in list(forced)})
    elif kind == "one-way":
        forced = {(x, y): Direction.FIRST_LESS, (y, x): Direction.FIRST_LESS}
    elif kind == "incomparable":
        forced = {(x, y): Direction.INCOMPARABLE, (y, x): Direction.INCOMPARABLE}

    def direction(a, b):
        if kind == "raising" and {a, b} == {x, y}:
            raise FoliageError(f"cannot compare {a} with {b}")
        if kind == "rock-paper-scissors":
            return (Direction.EQUIVALENT, Direction.FIRST_LESS, Direction.SECOND_LESS)[(rank[b] - rank[a]) % 3]
        if (a, b) in forced:
            return forced[(a, b)]
        if rank[a] == rank[b]:
            return Direction.EQUIVALENT
        return Direction.FIRST_LESS if rank[a] < rank[b] else Direction.SECOND_LESS

    return direction


@pytest.mark.parametrize("kind", ("total",) + SIDED_BROKEN)
@pytest.mark.parametrize("seed", range(8))
def test_intransitive_agrees_with_the_triple_loop(kind, seed):
    rng = random.Random(f"{kind}/{seed}")
    items = [f"o{i}" for i in range(rng.randint(3, 9))]
    broken = _sided(kind, items, rng)
    sides = {"compare_left": broken, "compare_right": _sided("total", items, rng)}
    if seed % 2:
        sides = {"compare_left": sides["compare_right"], "compare_right": broken}
    got = _outcome(lambda orbs, sides: checks._intransitive("m", orbs, sides), items, sides)
    assert got == _outcome(lambda orbs, sides: _transitivity_by_loops("m", orbs, sides), items, sides)
    if kind == "total":
        assert got == []
    if kind in ("gapped", "cyclic"):
        assert got and all(isinstance(msg, str) for msg in got)


def _crowded_leaf(n, seed=0):
    """n orbits through leaf m of a line P -p- A -m- B -q- C: each starts in
    P or A and ends in B or C, with random cuts and its own tie rank."""
    rng = random.Random(seed)

    def free(tag):
        return tuple(f"{tag}{i}" for i in range(3))

    domains = (
        SkeletonDomain("P", left=("p", *free("pl")), right=free("pr")),
        SkeletonDomain("A", left=(*free("al"), "m"), right=("p", *free("ar"))),
        SkeletonDomain("B", left=("bl0", "q", "bl1"), right=(*free("br"), "m")),
        SkeletonDomain("C", left=free("cl"), right=("q", *free("cr"))),
    )
    orbits = []
    for k in range(n):
        path = ("P", "p") * (rng.random() < 0.5) + ("A", "m", "B") + ("q", "C") * (rng.random() < 0.5)
        orbits.append(Orbit(f"o{k:03d}", path, rng.randrange(4), rng.randrange(4), k))
    return Scenario(domains=domains, orbits=tuple(orbits))


def _preorder_transitivity_by_loops(ctx):
    s = ctx.scenario
    sides = {
        side.__name__: lambda a, b, side=side: side(s, a, b).direction
        for side in (relations.compare_left, relations.compare_right)
    }
    idx = checks.index(s)
    bad = []
    for leaf in ctx.crossed_leaves:
        bad += _transitivity_by_loops(leaf, sorted(idx.leaf_orbits[leaf]), sides)
    return bad


def _rock_paper_scissors(s, a, b):
    """A left comparison whose "at most" is not transitive: by id position mod 3."""
    ids = sorted(o.id for o in s.orbits)
    d = (Direction.EQUIVALENT, Direction.FIRST_LESS, Direction.SECOND_LESS)[(ids.index(b) - ids.index(a)) % 3]
    return RelationVerdict(d, Clause.L4)


@pytest.mark.parametrize("broken", (False, True))
def test_preorder_transitivity_equals_the_triple_loop(monkeypatch, broken):
    scenarios = [_crowded_leaf(30, seed) for seed in range(3)]
    bounds = {"max_domains": 25, "max_orbits": 14, "max_boundary": 6}
    scenarios += [generate_scenario(GeneratorConfig(seed=seed, **bounds)) for seed in range(1, 41)]
    contexts = [_Context(s) for s in scenarios]
    if broken:
        monkeypatch.setattr(relations, "compare_left", _rock_paper_scissors)
    messages = 0
    for ctx in contexts:
        got = checks.prop_preorder_transitivity(ctx)
        assert got == _preorder_transitivity_by_loops(ctx)
        messages += len(got)
    assert (messages > 0) == broken


def test_preorder_transitivity_at_200_orbits_on_one_leaf_is_quick():
    s = _crowded_leaf(200)
    assert validate(s).ok
    ctx = _Context(s)
    assert len(checks.index(s).leaf_orbits["m"]) == 200
    start = time.perf_counter()
    assert checks.prop_preorder_transitivity(ctx) == []
    assert time.perf_counter() - start < 2.0  # 20 s when every triple was looped over


def test_check_on_100_orbits_in_one_domain_is_quick(capsys):
    start = time.perf_counter()
    argv = ["check", "--seed", "2", "--cases", "1", "--max-domains", "1", "--max-orbits", "120", "--max-boundary", "4"]
    assert main(argv) == 0
    assert time.perf_counter() - start < 2.0
    assert "result: all properties hold" in capsys.readouterr().out


def _decompose_invariants_by_rescanning(ctx):
    """The decompose-invariants property as it was written before it built
    the edge leaves and each orbit's maximal domains once: both rescanned
    for every critical leaf and every (maximal domain, orbit) pair, and each
    pair's shared domains rescanned from both paths."""
    bad = []
    s = ctx.scenario
    idx = checks.index(s)
    r = ctx.reduced
    n_orbits = len(s.orbits)
    if len(r.critical) > 2 * n_orbits * n_orbits:
        bad.append("critical leaf count exceeds the pair bound")
    membership = r.membership()
    for m in r.maxdomains:
        if m.incoming | m.alpha != m.crossers or m.outgoing | m.omega != m.crossers:
            bad.append(f"role sets of {m.id} do not partition its crossers")
        incoming = frozenset(o for leaf in m.right for o in idx.leaf_orbits.get(leaf, frozenset()))
        outgoing = frozenset(o for leaf in m.left for o in idx.leaf_orbits.get(leaf, frozenset()))
        if incoming != m.incoming or outgoing != m.outgoing:
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
        shared = [d for d in idx.orbit(a).domains if d in idx.orbit(b).domains] or None
        for c in (checks.common_subpath(s, a, b), checks.common_subpath(s, b, a)):
            if (list(c.chain) if c is not None else None) != shared:
                bad.append(f"common subpath of {a},{b} is not the run of domains they share")
                break
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


def test_decompose_invariants_report_a_common_subpath_cut_short():
    """The run table is read both ways round, so a run that is wrong the
    same way in both reads is caught only against the shared domains."""
    s = chain(4)
    ctx = _Context(s)
    runs = index(s).runs
    pair = next(p for p, (first, last) in runs.items() if first != last)
    runs[pair] = (runs[pair][0], runs[pair][0])
    a, b = pair
    message = f"common subpath of {a},{b} is not the run of domains they share"
    assert checks.prop_decompose_invariants(ctx) == [message]
    assert _decompose_invariants_by_rescanning(ctx) == [message]


@pytest.mark.parametrize("build, size", [(binary, 8), (caterpillar, 300)])
def test_every_property_holds_on_the_deep_forests(build, size):
    ctx = _Context(build(size))
    problems = {name: fn(ctx) for name, fn in PROPERTIES}
    assert {name: found for name, found in problems.items() if found} == {}


def test_check_builds_one_run_table_per_case(monkeypatch):
    real, built = decompose.pair_runs, []

    def counting(s):
        if index(s).runs is None:
            built.append(s)
        return real(s)

    for module in (decompose, relations):
        monkeypatch.setattr(module, "pair_runs", counting)
    report = run_check(GeneratorConfig(seed=1), 50)
    assert not report.failures
    assert [emit_scenario(s) for s in built] == [
        emit_scenario(generate_scenario(GeneratorConfig(seed=seed))) for seed in range(1, 51)
    ]
    assert len({id(s) for s in built}) == 50
