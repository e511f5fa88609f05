"""Property suite driven by generated scenarios.

Each property inspects one validated scenario and returns a list of
violation messages.  ``run_check`` generates one scenario per seed, runs
every property, and shrinks failing scenarios by deterministic deletion
(orbits first, then domains) before reporting.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace
from functools import cached_property, cmp_to_key
from typing import Callable, Iterable, Optional

from . import geometry, realize, relations
from .decompose import common_subpath, reduce_scenario
from .model import Scenario, dumps, emit_scenario, index, parse_scenario, validate
from .generator import GeneratorConfig, generate_scenario
from .relations import Direction


@dataclass
class _Context:
    scenario: Scenario

    def __post_init__(self):
        self.reduced = reduce_scenario(self.scenario)
        self.crossings = realize.crossing_matrix(self.scenario, self.reduced)
        self.weak = realize.weak_matrix(self.scenario)
        self.boundary = realize.boundary_order(self.scenario, self.reduced) if self.reduced.maxdomains else None
        self.layout = geometry.layout(self.scenario, self.reduced) if self.reduced.maxdomains else None
        self.routed = (
            geometry.route(self.scenario, self.reduced, self.layout) if self.layout is not None else None
        )
        idx = index(self.scenario)
        self.crossed_leaves = sorted(leaf for leaf, orbs in idx.leaf_orbits.items() if orbs)

    @cached_property
    def crossing_points(self):
        """The geometric oracle's crossings, found once per case on first use."""
        return geometry.crossing_points(self.routed)


def _verdict_pairs(s: Scenario, leaf: str):
    idx = index(s)
    orbs = sorted(idx.leaf_orbits[leaf])
    return [(a, b) for a, b in itertools.combinations(orbs, 2)]


def prop_preorder_totality(ctx: _Context) -> list[str]:
    bad = []
    for leaf in ctx.crossed_leaves:
        for a, b in _verdict_pairs(ctx.scenario, leaf):
            for side in (relations.compare_left, relations.compare_right):
                if side(ctx.scenario, a, b).direction is Direction.INCOMPARABLE:
                    bad.append(f"{side.__name__}({a},{b}) incomparable on shared leaf {leaf}")
    return bad


_AT_MOST = (Direction.FIRST_LESS, Direction.EQUIVALENT)
_MIRROR = {Direction.FIRST_LESS: Direction.SECOND_LESS, Direction.EQUIVALENT: Direction.EQUIVALENT}
_SIGN = {Direction.FIRST_LESS: -1, Direction.SECOND_LESS: 1}


def _total_preorder(items: list[str], direction: Callable[[str, str], Direction]) -> bool:
    """Whether ``direction`` totally preorders ``items``: a sort by it cuts
    them into runs, each pair reading Equivalent inside a run and FirstLess
    across runs, and each reversed pair its mirror.  A pass costs O(n²)
    calls; a comparison that raises fails it."""
    try:
        seq = sorted(items, key=cmp_to_key(lambda a, b: _SIGN.get(direction(a, b), 0)))
        steps = (direction(a, b) is not Direction.EQUIVALENT for a, b in zip(seq, seq[1:]))
        run = list(itertools.accumulate(steps, initial=0))
        return all(
            direction(a, b) is (d := Direction.EQUIVALENT if run[i] == run[j] else Direction.FIRST_LESS)
            and direction(b, a) is _MIRROR[d]
            for (i, a), (j, b) in itertools.combinations(enumerate(seq), 2)
        )
    except Exception:
        return False  # the loop below raises it again, where it always has


def _intransitive(leaf: str, orbs: list[str], sides: dict[str, Callable[[str, str], Direction]]) -> list[str]:
    """The triples of ``orbs`` on which a side's "FirstLess or Equivalent"
    is not transitive, each side named by its key in ``sides``.  There are
    none when every side totally preorders ``orbs``; otherwise, or when a
    comparison raises, the triple loop names them."""
    if len(orbs) < 3 or all(_total_preorder(orbs, direction) for direction in sides.values()):
        return []
    bad = []
    for a, b, c in itertools.permutations(orbs, 3):
        for name, direction in sides.items():
            if direction(a, b) in _AT_MOST and direction(b, c) in _AT_MOST and direction(a, c) not in _AT_MOST:
                bad.append(f"{name} not transitive on {a},{b},{c} at leaf {leaf}")
    return bad


def prop_preorder_transitivity(ctx: _Context) -> list[str]:
    s = ctx.scenario
    sides = {
        side.__name__: lambda a, b, side=side: side(s, a, b).direction
        for side in (relations.compare_left, relations.compare_right)
    }
    idx = index(s)
    return [msg for leaf in ctx.crossed_leaves for msg in _intransitive(leaf, sorted(idx.leaf_orbits[leaf]), sides)]


def prop_mutual_iff_asymptotic(ctx: _Context) -> list[str]:
    bad = []
    s = ctx.scenario
    ids = sorted(o.id for o in s.orbits)
    for a, b in itertools.combinations(ids, 2):
        mutual_l = relations.compare_left(s, a, b).direction is Direction.EQUIVALENT
        if mutual_l != relations.plus_asymptotic(s, a, b):
            bad.append(f"left mutuality mismatch on {a},{b}")
        mutual_r = relations.compare_right(s, a, b).direction is Direction.EQUIVALENT
        if mutual_r != relations.minus_asymptotic(s, a, b):
            bad.append(f"right mutuality mismatch on {a},{b}")
    return bad


def prop_classic_implies_weak(ctx: _Context) -> list[str]:
    bad = []
    s = ctx.scenario
    ids = sorted(o.id for o in s.orbits)
    for a, b in itertools.combinations(ids, 2):
        if relations.classic_transverse(s, a, b) and not relations.weak_transverse(s, a, b):
            bad.append(f"classic without weak on {a},{b}")
    return bad


def _strict_total(items: list[str], cmp: Callable[[str, str], int]) -> list[str]:
    """What keeps ``cmp`` from being a strict total order on ``items``.

    It is one exactly when some sequence of the items has ``cmp(a, b) < 0``
    and ``cmp(b, a) == -cmp(a, b)`` for every earlier ``a`` and later ``b``;
    any sort yields the candidate, so a pass costs O(n²) calls.  Otherwise,
    or when a comparison raises, the cubic loops name the witnesses."""
    try:
        seq = sorted(items, key=cmp_to_key(cmp))
        if all((c := cmp(a, b)) < 0 and cmp(b, a) == -c for a, b in itertools.combinations(seq, 2)):
            return []
    except Exception:
        pass  # the loops below raise it again, where they always have
    bad = []
    for a, b in itertools.combinations(items, 2):
        if cmp(a, b) == 0 or cmp(a, b) != -cmp(b, a):
            bad.append(f"not antisymmetric on {a},{b}")
    for a, b, c in itertools.permutations(items, 3):
        if cmp(a, b) < 0 and cmp(b, c) < 0 and not cmp(a, c) < 0:
            bad.append(f"not transitive on {a},{b},{c}")
    return bad


def prop_order_totality(ctx: _Context) -> list[str]:
    bad = []
    s = ctx.scenario
    for leaf in ctx.crossed_leaves:
        orbs = sorted(index(s).leaf_orbits[leaf])
        bad += [f"standard order at {leaf}: {m}" for m in _strict_total(orbs, lambda a, b: relations.standard_cmp(s, a, b))]
    for m in ctx.reduced.maxdomains:
        orbs = sorted(m.crossers)
        bad += [
            f"adaptive order at {m.id}: {msg}"
            for msg in _strict_total(orbs, lambda a, b, mm=m: relations.adaptive_cmp(s, mm, a, b))
        ]
    return bad


def prop_restriction_consistency(ctx: _Context) -> list[str]:
    bad = []
    s = ctx.scenario
    idx = index(s)
    plans = realize.all_port_plans(s)
    for m in ctx.reduced.maxdomains:
        exit_seq = plans[m.id].exit_seq
        by_leaf: dict[str, list[str]] = {}
        for o in exit_seq:
            leaf = relations.beyond(idx, idx.orbit_by_id[o], m.chain[-1], 1)
            if leaf is not None:
                by_leaf.setdefault(leaf, []).append(o)
        for leaf, group in by_leaf.items():
            members = set(group)
            std = [o for o in relations.standard_order(s, leaf).order if o in members]
            if std != group:
                bad.append(f"adaptive vs standard mismatch on leaf {leaf} of {m.id}")
    return bad


def prop_handoff(ctx: _Context) -> list[str]:
    bad = []
    s = ctx.scenario
    plans = realize.all_port_plans(s)
    for up, leaf, down in ctx.reduced.forest_edges:
        carried = set(index(s).leaf_orbits[leaf])
        upper = [o for o in plans[up].exit_seq if o in carried]
        lower = [o for o in plans[down].entry_seq if o in carried]
        std = list(relations.standard_order(s, leaf).order)
        if upper != std or lower != std:
            bad.append(f"hand-off through {leaf} differs from the standard order")
    return bad


def prop_one_sided_extension(ctx: _Context) -> list[str]:
    bad = []
    s = ctx.scenario
    for leaf in ctx.crossed_leaves:
        order = realize.one_sided_order(s, leaf).order
        for i, a in enumerate(order):
            for b in order[i + 1 :]:
                if relations.compare_left(s, a, b).direction not in (Direction.FIRST_LESS, Direction.EQUIVALENT):
                    bad.append(f"one-sided order at {leaf} places {a} before {b} against the left relation")
    return bad


def prop_crossing_minimality(ctx: _Context) -> list[str]:
    bad = []
    if ctx.crossings.as_dict() != ctx.weak.as_dict():
        bad.append("crossing matrix differs from the weak-transverse matrix")
    for e in ctx.crossings.entries:
        if e.count > 1:
            bad.append(f"pair {e.a},{e.b} crosses {e.count} times")
    return bad


def prop_oracle_agreement(ctx: _Context) -> list[str]:
    if ctx.routed is None:
        return []
    exact = geometry.tally_crossings(ctx.routed, ctx.crossing_points, ctx.layout)
    bad = []
    if exact.as_dict() != ctx.crossings.as_dict():
        bad.append("geometric crossing counts differ from the inversion counts")
    for e in exact.entries:
        if e.witness != ctx.crossings.witness(e.a, e.b):
            bad.append(f"crossing witness differs for {e.a},{e.b}")
    return bad


def prop_chord_law(ctx: _Context) -> list[str]:
    if ctx.boundary is None:
        return []
    inter = realize.interleaving_matrix(ctx.boundary)
    if inter.as_dict() != ctx.weak.as_dict():
        return ["chord interleaving differs from the weak-transverse matrix"]
    return []


def prop_boundary_ends(ctx: _Context) -> list[str]:
    if ctx.boundary is None:
        return []
    bad = []
    counts: dict[tuple[str, str], int] = {}
    for end in ctx.boundary.ends:
        counts[end] = counts.get(end, 0) + 1
    for o in ctx.scenario.orbits:
        for kind in (realize.BACKWARD, realize.FORWARD):
            if counts.get((o.id, kind), 0) != 1:
                bad.append(f"orbit {o.id} has {counts.get((o.id, kind), 0)} {kind} ends")
    return bad


def prop_embedding(ctx: _Context) -> list[str]:
    if ctx.routed is None:
        return []
    bad = []
    for a, b, point in ctx.crossing_points:
        if ctx.layout.box_of(point) is None:
            bad.append(f"crossing of {a},{b} lies outside every box")
    for poly in ctx.routed.polylines:
        for p, q in zip(poly.scaled, poly.scaled[1:]):
            if p[0] >= q[0]:
                bad.append(f"trajectory of {poly.orbit} is not x-monotone")
    return bad


def prop_forward_disjointness(ctx: _Context) -> list[str]:
    """On the integer form: the tick's x and the polylines are ints over the
    layout's ``den``.  The trajectories are x-monotone and the oracle raises
    on a touch, so two of them that differ in height at a tick meet beyond
    it exactly when the oracle finds a crossing of theirs at or right of it."""
    if ctx.routed is None:
        return []
    bad = []
    s = ctx.scenario
    idx = index(s)
    den = ctx.layout.den
    crossings: dict[tuple[str, str], list[tuple[int, int]]] = {}
    for a, b, (x, _y, d) in ctx.crossing_points:
        crossings.setdefault((min(a, b), max(a, b)), []).append((x, d))
    for leaf in ctx.crossed_leaves:
        tick = ctx.layout.tick_for(leaf)
        if tick is None:
            bad.append(f"crossed leaf {leaf} has no tick")
            continue
        orbs = sorted(idx.leaf_orbits[leaf])
        for a, b in itertools.combinations(orbs, 2):
            sign = geometry.height_order(ctx.routed.by_orbit(a), ctx.routed.by_orbit(b), tick.x)
            if sign == 0:
                continue  # the pair crosses exactly at the leaf line
            first, second = (a, b) if sign < 0 else (b, a)
            v = relations.compare_left(s, first, second)
            if v.direction not in (Direction.FIRST_LESS, Direction.EQUIVALENT):
                continue  # order at the leaf is not compatible; nothing asserted
            if any(x * den >= tick.x * d for x, d in crossings.get((a, b), ())):
                bad.append(f"forward pieces of {first},{second} meet beyond leaf {leaf}")
    return bad


def prop_decompose_invariants(ctx: _Context) -> list[str]:
    bad = []
    s = ctx.scenario
    idx = index(s)
    r = ctx.reduced
    n_orbits = len(s.orbits)
    if len(r.critical) > 2 * n_orbits * n_orbits:
        bad.append("critical leaf count exceeds the pair bound")
    membership = r.membership()
    visited = {o.id: {membership[d] for d in o.domains} for o in s.orbits}
    for m in r.maxdomains:
        roles = r.roles_of(m.id)
        if roles.incoming | roles.alpha != m.crossers or roles.outgoing | roles.omega != m.crossers:
            bad.append(f"role sets of {m.id} do not partition its crossers")
        incoming = frozenset(
            o for leaf in m.right for o in idx.leaf_orbits.get(leaf, frozenset())
        )
        outgoing = frozenset(
            o for leaf in m.left for o in idx.leaf_orbits.get(leaf, frozenset())
        )
        if incoming != roles.incoming or outgoing != roles.outgoing:
            bad.append(f"boundary-leaf role characterization fails at {m.id}")
        for o in s.orbits:
            if (m.id in visited[o.id]) != (o.id in m.crossers):
                bad.append(f"crosser set of {m.id} disagrees with path membership for {o.id}")
    edge_leaves = {e[1] for e in r.forest_edges}
    for leaf in r.critical:
        if leaf not in edge_leaves:
            bad.append(f"critical leaf {leaf} carries no forest edge")
        if not idx.leaf_orbits.get(leaf):
            bad.append(f"critical leaf {leaf} is uncrossed")
    ids = sorted(o.id for o in s.orbits)
    for a, b in itertools.combinations(ids, 2):
        ab, ba = common_subpath(s, a, b), common_subpath(s, b, a)
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


def prop_roundtrip(ctx: _Context) -> list[str]:
    text = emit_scenario(ctx.scenario)
    again = emit_scenario(parse_scenario(text))
    if text != again:
        return ["canonical emission does not round-trip"]
    return []


PROPERTIES: tuple[tuple[str, Callable[[_Context], list[str]]], ...] = (
    ("preorder-totality", prop_preorder_totality),
    ("preorder-transitivity", prop_preorder_transitivity),
    ("mutual-iff-asymptotic", prop_mutual_iff_asymptotic),
    ("classic-implies-weak", prop_classic_implies_weak),
    ("order-totality", prop_order_totality),
    ("restriction-consistency", prop_restriction_consistency),
    ("hand-off", prop_handoff),
    ("one-sided-extension", prop_one_sided_extension),
    ("crossing-minimality", prop_crossing_minimality),
    ("oracle-agreement", prop_oracle_agreement),
    ("chord-law", prop_chord_law),
    ("boundary-ends", prop_boundary_ends),
    ("embedding", prop_embedding),
    ("forward-disjointness", prop_forward_disjointness),
    ("decompose-invariants", prop_decompose_invariants),
    ("emission-roundtrip", prop_roundtrip),
)


@dataclass(frozen=True)
class CaseFailure:
    seed: int
    prop: str
    detail: str
    shrunk: str


@dataclass(frozen=True)
class CheckReport:
    cases: int
    results: tuple[tuple[str, int, int], ...]  # (property, passes, failures)
    failures: tuple[CaseFailure, ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def render_text(self) -> str:
        lines = [f"cases: {self.cases}"]
        for name, passes, fails in self.results:
            lines.append(f"{'PASS' if fails == 0 else 'FAIL'} {name}: {passes} ok, {fails} failing")
        for f in self.failures:
            lines.append(f"failure seed={f.seed} property={f.prop}: {f.detail}")
            lines.append("minimal failing scenario:")
            lines.append(f.shrunk.rstrip("\n"))
        lines.append("result: " + ("all properties hold" if self.ok else "FAILURES detected"))
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        doc = {
            "cases": self.cases,
            "results": [
                {"property": name, "passes": p, "failures": f} for name, p, f in self.results
            ],
            "failures": [
                {"seed": f.seed, "property": f.prop, "detail": f.detail, "scenario": f.shrunk}
                for f in self.failures
            ],
            "ok": self.ok,
        }
        return dumps(doc) + "\n"


def _run_property(prop: Callable, s: Scenario) -> list[str]:
    return prop(_Context(s))


def _drop_orbit(s: Scenario, oid: str) -> Scenario:
    return Scenario(domains=s.domains, orbits=tuple(o for o in s.orbits if o.id != oid))


def _drop_domain(s: Scenario, did: str) -> Scenario:
    domains = tuple(d for d in s.domains if d.id != did)
    orbits = tuple(o for o in s.orbits if did not in o.domains)
    return Scenario(domains=domains, orbits=orbits)


def shrink(s: Scenario, prop: Callable[[_Context], list[str]]) -> Scenario:
    """Greedy deterministic deletion keeping the property failing."""

    def still_fails(cand: Scenario) -> bool:
        if not validate(cand).ok:
            return False
        try:
            return bool(_run_property(prop, cand))
        except Exception:
            return True  # an erroring candidate still witnesses the problem

    changed = True
    while changed:
        changed = False
        for o in sorted(o.id for o in s.orbits):
            cand = _drop_orbit(s, o)
            if cand.orbits and still_fails(cand):
                s = cand
                changed = True
        for d in sorted(d.id for d in s.domains):
            cand = _drop_domain(s, d)
            if cand.domains and still_fails(cand):
                s = cand
                changed = True
    return s


# The ``prop`` of a failure raised while building a case's derived structures.
CONTEXT = "context"


def _raised(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def _nothing_to_report(_ctx: _Context) -> list[str]:
    """Holds on every case, so ``shrink`` keeps only what makes ``_Context`` raise."""
    return []


def run_check(
    cfg: GeneratorConfig,
    n_cases: int,
    properties: Optional[Iterable[tuple[str, Callable]]] = None,
) -> CheckReport:
    if n_cases < 1:
        raise ValueError("n_cases must be at least 1")
    replace(cfg, seed=cfg.seed + n_cases - 1)  # the last case's seed must be valid too, before any case runs
    props = tuple(properties) if properties is not None else PROPERTIES
    start = time.monotonic()
    passes = {name: 0 for name, _fn in props}
    fails = {name: 0 for name, _fn in props}
    failures: list[CaseFailure] = []
    for i in range(n_cases):
        seed = cfg.seed + i
        scenario = generate_scenario(replace(cfg, seed=seed))
        try:
            ctx = _Context(scenario)
        except Exception as exc:
            # No property can be checked on this case, so none of them passes.
            for name in fails:
                fails[name] += 1
            small = shrink(scenario, _nothing_to_report)
            failures.append(CaseFailure(seed=seed, prop=CONTEXT, detail=_raised(exc), shrunk=emit_scenario(small)))
            continue
        for name, fn in props:
            try:
                problems = fn(ctx)
            except Exception as exc:
                problems = [_raised(exc)]
            if problems:
                fails[name] += 1
                small = shrink(scenario, fn)
                failures.append(
                    CaseFailure(seed=seed, prop=name, detail=problems[0], shrunk=emit_scenario(small))
                )
            else:
                passes[name] += 1
    failures.sort(key=lambda f: (f.seed, f.prop))
    results = tuple((name, passes[name], fails[name]) for name, _fn in props)
    return CheckReport(cases=n_cases, results=results, failures=tuple(failures), elapsed=time.monotonic() - start)
