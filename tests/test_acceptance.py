"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The corpus is 200 generated scenarios (seeds 1..200, at most 10 domains,
8 orbits and 4 boundary leaves per side, bias 1/2).  All comparisons are
exact; no tolerances apply anywhere.
"""

import itertools
import time
from fractions import Fraction

import pytest

from fraction_layout import in_fractions
from foliage import geometry, model, realize, relations
from foliage.cli import main
from foliage.decompose import reduce_scenario
from foliage.generator import GeneratorConfig, generate_scenario
from foliage.model import fixture, fixture_text, index
from foliage.relations import Direction
from test_crossing_kernel import _clip_by_fractions, _oracle_disjoint, _y_at_by_fractions

SEEDS = range(1, 201)
BOUNDS = dict(max_domains=10, max_orbits=8, max_boundary=4, weak_bias=Fraction(1, 2))


def _cfg(seed):
    return GeneratorConfig(seed=seed, **BOUNDS)


@pytest.fixture(scope="module")
def corpus():
    return [(seed, generate_scenario(_cfg(seed))) for seed in SEEDS]


@pytest.fixture(scope="module")
def realized(corpus):
    out = []
    for seed, s in corpus:
        r = reduce_scenario(s)
        lay = geometry.layout(s, r)
        routed = geometry.route(s, r, lay)
        out.append((seed, s, r, lay, routed))
    return out


_CAPTURE = None


@pytest.fixture(autouse=True)
def _capture_bypass(pytestconfig):
    global _CAPTURE
    _CAPTURE = pytestconfig.pluginmanager.getplugin("capturemanager")
    yield


def _report(number, description, failures):
    status = "PASS" if not failures else "FAIL"
    line = f"{status} criterion {number}: {description}"
    # Written past pytest's capture so every run shows one line per criterion.
    if _CAPTURE is not None:
        with _CAPTURE.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert not failures, failures[:5]


def test_criterion_1_crossing_equals_weak():
    failures = []
    start = time.perf_counter()
    for seed in SEEDS:
        s = generate_scenario(_cfg(seed))
        r = reduce_scenario(s)
        crossings = realize.crossing_matrix(s, r)
        weak = realize.weak_matrix(s)
        if crossings.as_dict() != weak.as_dict():
            failures.append(f"seed {seed}: crossing matrix differs from weak matrix")
        if any(e.count > 1 for e in crossings.entries):
            failures.append(f"seed {seed}: a pair crosses more than once")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _report(1, f"crossing matrix equals weak matrix on {len(SEEDS)} scenarios in {elapsed:.1f}s", failures)


def test_criterion_2_geometric_oracle(realized):
    failures = []
    for seed, s, r, lay, routed in realized:
        exact = geometry.exact_crossings(routed, lay)
        planned = realize.crossing_matrix(s, r)
        if exact.as_dict() != planned.as_dict():
            failures.append(f"seed {seed}: exact crossings differ")
            continue
        for e in exact.entries:
            if e.witness != planned.witness(e.a, e.b):
                failures.append(f"seed {seed}: witness differs for {e.a},{e.b}")
    _report(2, "exact-rational crossing counts equal the planned matrix", failures)


def test_criterion_3_chord_law(realized):
    failures = []
    for seed, s, r, _lay, _routed in realized:
        order = realize.boundary_order(s, r)
        inter = realize.interleaving_matrix(order)
        if inter.as_dict() != realize.weak_matrix(s).as_dict():
            failures.append(f"seed {seed}: interleaving differs from weak matrix")
    _report(3, "chord-diagram interleaving equals the weak matrix", failures)


def test_criterion_4_preorder_laws(corpus):
    failures = []
    for seed, s in corpus:
        idx = index(s)
        ids = sorted(o.id for o in s.orbits)
        for a, b in itertools.combinations(ids, 2):
            left = relations.compare_left(s, a, b)
            right = relations.compare_right(s, a, b)
            if (left.direction is Direction.EQUIVALENT) != relations.plus_asymptotic(s, a, b):
                failures.append(f"seed {seed}: left mutuality fails on {a},{b}")
            if (right.direction is Direction.EQUIVALENT) != relations.minus_asymptotic(s, a, b):
                failures.append(f"seed {seed}: right mutuality fails on {a},{b}")
        for leaf, orbs in sorted(idx.leaf_orbits.items()):
            orbs = sorted(orbs)
            for a, b in itertools.combinations(orbs, 2):
                for side in (relations.compare_left, relations.compare_right):
                    if side(s, a, b).direction is Direction.INCOMPARABLE:
                        failures.append(f"seed {seed}: {a},{b} incomparable on {leaf}")
            for a, b, c in itertools.permutations(orbs, 3):
                for side in (relations.compare_left, relations.compare_right):
                    def le(x, y):
                        return side(s, x, y).direction in (Direction.FIRST_LESS, Direction.EQUIVALENT)

                    if le(a, b) and le(b, c) and not le(a, c):
                        failures.append(f"seed {seed}: {side.__name__} intransitive at {leaf}")
    _report(4, "sided preorders are total, transitive, and mutual exactly on asymptotic pairs", failures)


def test_criterion_5_total_orders(corpus):
    failures = []
    for seed, s in corpus:
        idx = index(s)
        r = reduce_scenario(s)
        for leaf, orbs in sorted(idx.leaf_orbits.items()):
            orbs = sorted(orbs)
            cmp = lambda a, b: relations.standard_cmp(s, a, b)
            failures += [f"seed {seed} leaf {leaf}: {m}" for m in _order_violations(orbs, cmp)]
        for m in r.maxdomains:
            orbs = sorted(m.crossers)
            cmp = lambda a, b, mm=m: relations.adaptive_cmp(s, mm, a, b)
            failures += [f"seed {seed} domain {m.id}: {msg}" for msg in _order_violations(orbs, cmp)]
            exit_seq = relations.adaptive_order(s, r, m.id).order
            groups = {}
            for o in exit_seq:
                leaf = relations.beyond(idx, idx.orbit_by_id[o], m.chain[-1], 1)
                if leaf is not None:
                    groups.setdefault(leaf, []).append(o)
            for leaf, group in groups.items():
                std = [o for o in relations.standard_order(s, leaf).order if o in set(group)]
                if std != group:
                    failures.append(f"seed {seed}: restriction mismatch on {leaf} of {m.id}")
    _report(5, "standard and adaptive orders are strict total orders with consistent restrictions", failures)


def _order_violations(items, cmp):
    bad = []
    for a, b in itertools.combinations(items, 2):
        if cmp(a, b) == 0 or cmp(a, b) != -cmp(b, a):
            bad.append(f"antisymmetry fails on {a},{b}")
    for a, b, c in itertools.permutations(items, 3):
        if cmp(a, b) < 0 and cmp(b, c) < 0 and not cmp(a, c) < 0:
            bad.append(f"transitivity fails on {a},{b},{c}")
    return bad


def test_criterion_6_one_sided_realization(realized):
    failures = []
    for seed, s, r, lay, routed in realized:
        idx = index(s)
        for leaf, orbs in sorted(idx.leaf_orbits.items()):
            orbs = sorted(orbs)
            order = realize.one_sided_order(s, leaf).order
            for i, a in enumerate(order):
                for b in order[i + 1 :]:
                    if relations.compare_left(s, a, b).direction not in (
                        Direction.FIRST_LESS,
                        Direction.EQUIVALENT,
                    ):
                        failures.append(f"seed {seed}: order at {leaf} is not a left extension")
            tick = lay.tick_for(leaf)
            if tick is None:
                failures.append(f"seed {seed}: crossed leaf {leaf} has no drawn line")
                continue
            x = in_fractions(tick.x, lay.den)
            for a, b in itertools.combinations(orbs, 2):
                ya = _y_at_by_fractions(routed.by_orbit(a).points, x)
                yb = _y_at_by_fractions(routed.by_orbit(b).points, x)
                if ya == yb:
                    continue
                first, second = (a, b) if ya < yb else (b, a)
                if relations.compare_left(s, first, second).direction not in (
                    Direction.FIRST_LESS,
                    Direction.EQUIVALENT,
                ):
                    continue
                pa = _clip_by_fractions(routed.by_orbit(first).points, x)
                pb = _clip_by_fractions(routed.by_orbit(second).points, x)
                if not _oracle_disjoint(pa, pb):
                    failures.append(f"seed {seed}: forward pieces of {first},{second} meet past {leaf}")
    _report(6, "one-sided orders extend the left relation; compatible pieces stay disjoint", failures)


def test_criterion_7_worked_figure_roles():
    s = fixture("S2")
    r = reduce_scenario(s)
    roles = r.roles_of("M:D")
    failures = []
    expected = {
        "alpha": {"O1", "O4"},
        "omega": {"O3", "O4"},
        "incoming": {"O2", "O3"},
        "outgoing": {"O1", "O2"},
    }
    for field, want in expected.items():
        got = set(getattr(roles, field))
        if got != want:
            failures.append(f"{field}: got {sorted(got)}, want {sorted(want)}")
    _report(7, "fixture S2 reproduces the worked role sets", failures)


def test_criterion_8_classic_implies_weak(corpus):
    failures = []
    for seed, s in corpus:
        ids = sorted(o.id for o in s.orbits)
        for a, b in itertools.combinations(ids, 2):
            if relations.classic_transverse(s, a, b) and not relations.weak_transverse(s, a, b):
                failures.append(f"seed {seed}: classic without weak on {a},{b}")
    s1 = fixture("S1")
    if not (relations.classic_transverse(s1, "O_a", "O_b") and relations.weak_transverse(s1, "O_a", "O_b")):
        failures.append("S1 should be both classic and weak")
    s3 = fixture("S3")
    if relations.classic_transverse(s3, "O_x", "O_y") or relations.weak_transverse(s3, "O_x", "O_y"):
        failures.append("S3 should be neither classic nor weak")
    _report(8, "no classic pair fails to be weak; S1 is both, S3 neither", failures)


def test_criterion_9_determinism(capsys):
    failures = []
    assert main(["check", "--seed", "42", "--cases", "10"]) == 0
    first = capsys.readouterr().out
    assert main(["check", "--seed", "42", "--cases", "10"]) == 0
    second = capsys.readouterr().out
    if first != second:
        failures.append("check reports differ between runs")
    for name in model.FIXTURE_NAMES:
        text = fixture_text(name)
        if model.emit_scenario(model.parse_scenario(text)) != text:
            failures.append(f"fixture {name} does not round-trip")
    _report(9, "repeated checks are byte-identical and fixtures round-trip", failures)
