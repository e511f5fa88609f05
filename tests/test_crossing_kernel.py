"""The crossing oracle's sweep against two slower oracles.

``geometry.crossing_points`` runs on every coordinate as an int over one
common denominator (the layout's, for routed polylines, or else the least
common one of the set), sweeps the segments in x and classifies, with
``segment_relation``, only the pairs of segments whose closed boxes
overlap.  Each crossing point is an int triple ``(x, y, d)`` for
``(x/d, y/d)``.  The first oracle below is the per-pair loop: one
classification per segment pair, in ``Fraction``s, each computing its own
four orientations and, for pairs that do not cross, the touch test's
again.  The second is the orientation-table kernel the sweep replaced: two
tables per pair of polylines, every vertex of one against every segment of
the other, and each segment pair classified from its four entries.
Crossing points, read as ``Fraction``s, must be the same points in the
same order, and a touch must raise the same ``DegeneracyError`` at the
same pair.  Every coordinate the geometry hands out is checked to be an
int of the integer form or a ``Fraction``: a float equal to the exact value
would pass every equality.

The forward-disjointness property reads the crossing list.  The sweep of
two polylines clipped at a tick, which it ran before (``forward_disjoint``
and ``_clip`` below), is the oracle it is checked against.
"""

import collections
import dataclasses
import functools
import itertools
import random
from fractions import Fraction

import pytest

from fraction_layout import in_fractions, polyline
from foliage import checks, geometry, relations
from foliage.decompose import reduce_scenario
from foliage.generator import GeneratorConfig, generate_scenario
from foliage.geometry import (
    DegeneracyError,
    Polyline,
    PolylineSet,
    _fmt,
    crossing_points,
    layout,
    route,
    segment_relation,
)
from foliage.model import FIXTURE_NAMES, fixture
from test_realize import _chain


def _orient(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _within(a, lo, hi):
    return min(lo, hi) <= a <= max(lo, hi)


def _on_segment(p, q, t):
    return _orient(p, q, t) == 0 and _within(t[0], p[0], q[0]) and _within(t[1], p[1], q[1])


def _relation(p1, p2, q1, q2):
    """One segment pair, classified from scratch."""
    o1 = _orient(p1, p2, q1)
    o2 = _orient(p1, p2, q2)
    o3 = _orient(q1, q2, p1)
    o4 = _orient(q1, q2, p2)
    if (o1 > 0 > o2 or o1 < 0 < o2) and (o3 > 0 > o4 or o3 < 0 < o4):
        t = o1 / (o1 - o2)
        return "cross", (q1[0] + t * (q2[0] - q1[0]), q1[1] + t * (q2[1] - q1[1]))
    for p, q, t in ((p1, p2, q1), (p1, p2, q2), (q1, q2, p1), (q1, q2, p2)):
        if _on_segment(p, q, t):
            return "touch", None
    return "none", None


def _segments(points):
    return zip(points, points[1:])


def _oracle_crossings(p):
    found = []
    polys = p.polylines
    for i, pa in enumerate(polys):
        for pb in polys[i + 1 :]:
            for s1, s2 in _segments(pa.points):
                for t1, t2 in _segments(pb.points):
                    kind, point = _relation(s1, s2, t1, t2)
                    if kind == "touch":
                        raise DegeneracyError(f"trajectories {pa.orbit!r} and {pb.orbit!r} touch without crossing")
                    if kind == "cross":
                        found.append((pa.orbit, pb.orbit, point))
    return tuple(found)


def _oracle_disjoint(a, b):
    return all(_relation(s1, s2, t1, t2)[0] == "none" for s1, s2 in _segments(a) for t1, t2 in _segments(b))


def _in_fractions(relation):
    """A ``segment_relation`` outcome with the crossing triple read as a
    point of ``Fraction``s."""
    kind, point = relation
    return kind, point if point is None else (Fraction(point[0], point[2]), Fraction(point[1], point[2]))


def _fraction_crossings(p):
    """``crossing_points`` with each triple read as a point of ``Fraction``s."""
    return tuple((a, b, (Fraction(x, d), Fraction(y, d))) for a, b, (x, y, d) in crossing_points(p))


def _clip(poly, x):
    """The part of the polyline with first coordinate at least x, an int
    over the polyline's ``den``."""
    pts = poly.scaled
    if x <= pts[0][0]:
        return poly
    if x > pts[-1][0]:
        return Polyline(poly.orbit, (), poly.den)
    n, k = geometry._height(pts, x)
    scaled = ((x * k, n),) + tuple((px * k, py * k) for px, py in pts if px > x)
    return Polyline(poly.orbit, scaled, k * poly.den)


def forward_disjoint(a, b, x):
    """No shared point between the two polylines clipped at x, an int over
    their shared ``den``."""
    return next(geometry._meetings(PolylineSet((_clip(a, x), _clip(b, x))).scaled), None) is None


def _classify(p1, p2, q1, q2, o1, o2, o3, o4):
    """One segment pair, classified from its four orientations: ``o1``,
    ``o2`` of q1, q2 against p1p2 and ``o3``, ``o4`` of p1, p2 against q1q2."""
    if (o1 > 0 > o2 or o1 < 0 < o2) and (o3 > 0 > o4 or o3 < 0 < o4):
        t = o1 / (o1 - o2)
        return "cross", (q1[0] + t * (q2[0] - q1[0]), q1[1] + t * (q2[1] - q1[1]))
    for o, (p, q, t) in zip((o1, o2, o3, o4), ((p1, p2, q1), (p1, p2, q2), (q1, q2, p1), (q1, q2, p2))):
        if o == 0 and _within(t[0], p[0], q[0]) and _within(t[1], p[1], q[1]):
            return "touch", None
    return "none", None


def _orientations(a, b):
    """Row k holds every point of ``b`` against segment k of ``a``."""
    rows = []
    for (x0, y0), (x1, y1) in zip(a, a[1:]):
        dx, dy = x1 - x0, y1 - y0
        rows.append([dx * (y - y0) - dy * (x - x0) for x, y in b])
    return rows


def _relations(a, b):
    """Every segment pair of two pieces, ``a``'s segment in the outer loop,
    classified from two orientation tables built once."""
    of_b = _orientations(a, b)
    of_a = _orientations(b, a)
    for k, row in enumerate(of_b):
        p1, p2 = a[k], a[k + 1]
        for l in range(len(b) - 1):
            yield _classify(p1, p2, b[l], b[l + 1], row[l], row[l + 1], of_a[l][k], of_a[l][k + 1])


def _table_crossings(p):
    found = []
    polys = p.polylines
    for i, pa in enumerate(polys):
        for pb in polys[i + 1 :]:
            for kind, point in _relations(pa.points, pb.points):
                if kind == "touch":
                    raise DegeneracyError(f"trajectories {pa.orbit!r} and {pb.orbit!r} touch without crossing")
                if kind == "cross":
                    found.append((pa.orbit, pb.orbit, point))
    return tuple(found)


def _outcome(fn, *args):
    """What fn returns, or the text of the DegeneracyError it raises."""
    try:
        return fn(*args)
    except DegeneracyError as exc:
        return ("DegeneracyError", str(exc))


# The default generator bounds are the corpus bounds, 10/8/4 with weak
# bias 1/2, so "default" stands for both.
FAMILIES = ("in-code", "default", "wide")


@functools.cache
def _routed_family(family):
    """The routed polylines and the layout of every scenario of a family
    that has a layout: S0-S4 and chains k = 2, 5, 20, 40, or seeds 1..300
    at the default bounds or at 25/14/6."""
    if family == "in-code":
        scenarios = [fixture(name) for name in FIXTURE_NAMES] + [_chain(k) for k in (2, 5, 20, 40)]
    else:
        bounds = {} if family == "default" else {"max_domains": 25, "max_orbits": 14, "max_boundary": 6}
        scenarios = [generate_scenario(GeneratorConfig(seed=seed, **bounds)) for seed in range(1, 301)]
    out = []
    for s in scenarios:
        r = reduce_scenario(s)
        if not r.maxdomains:
            continue
        lay = layout(s, r)
        out.append((route(s, r, lay), lay))
    return out


@functools.cache
def _oracle_family(family):
    """The per-pair loop's outcome on every case of the family."""
    return [_outcome(_oracle_crossings, routed) for routed, _lay in _routed_family(family)]


@pytest.mark.parametrize("family", FAMILIES)
def test_crossing_points_equal_the_per_pair_loop(family):
    crossing = 0
    for (routed, _lay), expected in zip(_routed_family(family), _oracle_family(family)):
        found = _outcome(_fraction_crossings, routed)
        assert found == expected
        crossing += bool(found)
    assert crossing  # the family is not vacuous


@pytest.mark.parametrize("family", FAMILIES)
def test_forward_disjoint_equals_the_per_pair_loop(family):
    """Each polyline against the next, whole and clipped at the middle tick
    as the forward-disjointness property clips them.  The loop's verdict on
    whole polylines is read from its crossings: no case touches, so two
    polylines are disjoint exactly when the loop finds no crossing of them."""
    verdicts = set()
    for (routed, lay), expected in zip(_routed_family(family), _oracle_family(family)):
        met = {(a, b) for a, b, _point in expected}
        polys = routed.polylines
        for pa, pb in zip(polys, polys[1:]):
            verdict = forward_disjoint(pa, pb, min(pa.scaled[0][0], pb.scaled[0][0]))
            assert verdict == ((pa.orbit, pb.orbit) not in met)
            verdicts.add(verdict)
            for tick in lay.ticks[len(lay.ticks) // 2 :][:1]:
                x = in_fractions(tick.x, lay.den)
                a, b = _clip_by_fractions(pa.points, x), _clip_by_fractions(pb.points, x)
                verdict = forward_disjoint(pa, pb, tick.x)
                assert verdict == forward_disjoint(pb, pa, tick.x) == _oracle_disjoint(a, b)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def _y_at_by_fractions(pts, x):
    """Height over x of x-monotone ``Fraction`` points, segment by segment."""
    for p, q in zip(pts, pts[1:]):
        if p[0] <= x <= q[0]:
            return p[1] if p[0] == q[0] else p[1] + (x - p[0]) / (q[0] - p[0]) * (q[1] - p[1])
    raise AssertionError("coordinate outside trajectory range")


def _clip_by_fractions(pts, x):
    if x <= pts[0][0]:
        return pts
    if x > pts[-1][0]:
        return ()
    return ((x, _y_at_by_fractions(pts, x)),) + tuple(p for p in pts if p[0] > x)


@pytest.mark.parametrize("family", FAMILIES)
def test_the_integer_form_readers_equal_fraction_arithmetic(family):
    """``_height`` and ``_clip`` against the same steps in ``Fraction``s,
    and ``height_order``, which the forward-disjointness property runs on
    the integer form, and ``forward_disjoint``, its oracle, against those
    and the per-pair loop: at every fifth tick over each polyline and the
    next, where both span it."""
    seen = collections.Counter()
    for routed, lay in _routed_family(family):
        polys = routed.polylines
        for tick in lay.ticks[::5]:
            x = in_fractions(tick.x, lay.den)
            for pa, pb in zip(polys, polys[1:]):
                if not all(p.points[0][0] <= x <= p.points[-1][0] for p in (pa, pb)):
                    continue
                ya, yb = _y_at_by_fractions(pa.points, x), _y_at_by_fractions(pb.points, x)
                heights = [geometry._height(p.scaled, tick.x) for p in (pa, pb)]
                assert [Fraction(n, k * lay.den) for n, k in heights] == [ya, yb]
                a, b = _clip_by_fractions(pa.points, x), _clip_by_fractions(pb.points, x)
                assert (_clip(pa, tick.x).points, _clip(pb, tick.x).points) == (a, b)
                sign = (ya > yb) - (ya < yb)
                assert geometry.height_order(pa, pb, tick.x) == sign
                verdict = _oracle_disjoint(a, b)
                assert forward_disjoint(pa, pb, tick.x) == verdict
                seen[sign, verdict] += 1
    assert {sign for sign, _v in seen} >= {-1, 1} and {v for _s, v in seen} == {True, False}, seen


def _pt(x, y):
    return (Fraction(x), Fraction(y))


def _set(*polylines):
    return PolylineSet(tuple(polyline(name, points) for name, points in polylines))


TOUCHES = {
    "collinear overlap": _set(("a", [(0, 0), (2, 0)]), ("b", [(1, 0), (3, 0)])),
    # One endpoint on the other segment's interior, for each of the four.
    "first endpoint of b on a": _set(("a", [(0, 0), (2, 0)]), ("b", [(1, 0), (1, 2)])),
    "second endpoint of b on a": _set(("a", [(0, 0), (2, 0)]), ("b", [(1, 2), (1, 0)])),
    "first endpoint of a on b": _set(("a", [(1, 0), (1, 2)]), ("b", [(0, 0), (2, 0)])),
    "second endpoint of a on b": _set(("a", [(1, 2), (1, 0)]), ("b", [(0, 0), (2, 0)])),
    "shared vertex": _set(("a", [(0, 0), (1, 1), (2, 0)]), ("b", [(0, 2), (1, 1), (2, 2)])),
    "touch after a crossing": _set(("a", [(0, 0), (2, 2), (4, 1), (6, 1)]), ("b", [(0, 2), (2, 0), (4, 1), (6, 3)])),
    "touching pair after a crossing pair": _set(
        ("a", [(0, 0), (4, 4)]), ("b", [(0, 4), (4, 0)]), ("c", [(0, 0), (4, -4)])
    ),
    "first of two touching pairs": _set(("a", [(0, 5), (4, 5)]), ("b", [(0, 0), (4, 0)]), ("c", [(2, 0), (2, 5)])),
    # Segments whose x-spans share only one end.
    "end to end": _set(("a", [(0, 0), (1, 0)]), ("b", [(1, 0), (2, 1)])),
    "end on a vertical segment": _set(("a", [(0, 0), (1, 0)]), ("b", [(1, -1), (1, 1)])),
}


@pytest.mark.parametrize("name", sorted(TOUCHES))
def test_touches_raise_the_loop_error(name):
    p = TOUCHES[name]
    expected = _outcome(_oracle_crossings, p)
    assert expected[0] == "DegeneracyError"
    assert _outcome(crossing_points, p) == expected


def test_touch_errors_name_the_first_touching_pair():
    assert _outcome(crossing_points, TOUCHES["touching pair after a crossing pair"])[1] == (
        "trajectories 'a' and 'c' touch without crossing"
    )
    assert _outcome(crossing_points, TOUCHES["first of two touching pairs"])[1] == (
        "trajectories 'a' and 'c' touch without crossing"
    )


def test_crossings_come_in_segment_order_on_a_polyline_that_doubles_back():
    """The sweep meets b's last segment first; the output is in segment order."""
    p = _set(("a", [(0, 0), (4, 0)]), ("b", [(3, -1), (4, 1), (1, 1), (2, -1)]))
    expected = (("a", "b", _pt(Fraction(7, 2), 0)), ("a", "b", _pt(Fraction(3, 2), 0)))
    assert _fraction_crossings(p) == _oracle_crossings(p) == expected


def test_crossings_and_touches_equal_the_loop_on_small_integer_polylines():
    """Random polylines on a 5x5 grid: collinear runs, shared vertices and
    endpoints on segments are common, and none of them is x-monotone."""
    rng = random.Random(20250101)
    kinds = set()
    for _ in range(1500):
        polylines = [
            (name, [(rng.randrange(5), rng.randrange(5)) for _ in range(rng.randrange(1, 5))]) for name in "abc"
        ]
        p = _set(*polylines[: rng.randrange(1, 4)])
        found = _outcome(_fraction_crossings, p)
        assert found == _outcome(_oracle_crossings, p)
        kinds.add("touch" if isinstance(found, tuple) and found and found[0] == "DegeneracyError" else "other")
        a, b = p.polylines[0], p.polylines[-1]
        for (s1, s2), (u1, u2) in zip(_segments(a.points), _segments(p.scaled[0])):
            for (t1, t2), (v1, v2) in zip(_segments(b.points), _segments(p.scaled[-1])):
                assert _in_fractions(segment_relation(u1, u2, v1, v2, p.den)) == _relation(s1, s2, t1, t2)
    assert kinds == {"touch", "other"}


def _points(values):
    return [c for point in values if point is not None for c in point]


def test_crossings_and_touches_equal_the_loop_on_polylines_with_coprime_denominators():
    """Each polyline's coordinates are multiples of its own 1/2, 1/3, 1/5
    or 1/7, so the sweep scales by a true common multiple and a crossing
    point's denominator is not a plain product.  The grids share their
    integer points, so touches still occur."""
    rng = random.Random(20261019)
    kinds = set()
    for _ in range(1000):
        names = rng.sample("abc", rng.randrange(1, 4))
        polylines = []
        for name, den in zip(names, rng.sample((2, 3, 5, 7), len(names))):
            grid = [Fraction(n, den) for n in range(3 * den + 1)]
            polylines.append((name, [(rng.choice(grid), rng.choice(grid)) for _ in range(rng.randrange(1, 5))]))
        p = _set(*polylines)
        found = _outcome(crossing_points, p)
        assert _outcome(_fraction_crossings, p) == _outcome(_oracle_crossings, p)
        if found and found[0] == "DegeneracyError":
            kinds.add("touch")
        elif found:
            kinds.add("cross")
            assert all(type(c) is int for c in _points(point for _a, _b, point in found))
        a, b = p.polylines[0], p.polylines[-1]
        for (s1, s2), (u1, u2) in zip(_segments(a.points), _segments(p.scaled[0])):
            for (t1, t2), (v1, v2) in zip(_segments(b.points), _segments(p.scaled[-1])):
                kind, point = segment_relation(u1, u2, v1, v2, p.den)
                assert _in_fractions((kind, point)) == _relation(s1, s2, t1, t2)
                assert all(type(c) is int for c in _points([point]))
    assert kinds == {"touch", "cross"}


@pytest.mark.parametrize("family", FAMILIES)
def test_crossing_points_equal_the_table_kernel(family):
    for routed, _lay in _routed_family(family):
        assert _outcome(_fraction_crossings, routed) == _outcome(_table_crossings, routed)


def test_crossing_points_equal_the_table_kernel_on_a_deep_chain():
    """On an 80-domain chain the coordinates carry denominators of more
    than 250 bits, so the sweep's ints are far wider than a machine word."""
    s = _chain(80)
    r = reduce_scenario(s)
    routed = route(s, r, layout(s, r))
    assert max(c.denominator.bit_length() for c in _points(p for poly in routed.polylines for p in poly.points)) > 250
    found = _fraction_crossings(routed)
    assert found and found == _table_crossings(routed)


def test_the_sweep_tests_a_linear_number_of_pairs_on_chains(monkeypatch):
    """Each segment pair the sweep tests goes through ``segment_relation``.
    On chains the count grows linearly with the depth, far below the number
    of segment pairs of different orbits."""
    calls = []

    def counted(*segments):
        calls.append(segments)
        return segment_relation(*segments)

    monkeypatch.setattr(geometry, "segment_relation", counted)
    tested, total = [], []
    for k in (20, 40, 80):
        s = _chain(k)
        r = reduce_scenario(s)
        routed = route(s, r, layout(s, r))
        calls.clear()
        crossing_points(routed)
        sizes = [len(poly.points) - 1 for poly in routed.polylines]
        tested.append(len(calls))
        total.append(sum(m * n for m, n in itertools.combinations(sizes, 2)))
    assert tested[2] - tested[1] == 2 * (tested[1] - tested[0]) > 0
    assert tested[2] * 100 < total[2]


def _numbers(value):
    """Every leaf of a value built from dataclasses, dicts, tuples and
    lists that is not a string; dict keys are skipped."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _numbers(getattr(value, f.name))
    elif isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _numbers(v)
    elif not isinstance(value, str):
        yield value


@pytest.mark.parametrize("family", FAMILIES)
def test_every_coordinate_is_an_int_or_a_fraction(family):
    """Every field of every layout and of every routed polyline, ``_height``
    at every tick over every polyline that spans it, and every crossing
    triple are ints; every point of ``points`` is a ``Fraction``.
    ``int / int`` is a float in Python, and a float equal to the exact value
    would slip past the equalities above and past the SVG pins, which round
    to six decimals."""
    kinds = collections.Counter()
    for routed, lay in _routed_family(family):
        ints = {
            "layout": list(_numbers(lay)),
            "route": list(_numbers(routed)),
            "height": [],
            "crossing": _points(point for _a, _b, point in crossing_points(routed)),
        }
        for tick in lay.ticks:
            for poly in routed.polylines:
                if poly.scaled[0][0] <= tick.x <= poly.scaled[-1][0]:
                    ints["height"] += geometry._height(poly.scaled, tick.x)
        fractions = {"points": _points(p for poly in routed.polylines for p in poly.points)}
        for kind, found in ints.items():
            assert [v for v in found if type(v) is not int] == [], kind
            kinds[kind] += len(found)
        for kind, found in fractions.items():
            assert [v for v in found if type(v) is not Fraction] == [], kind
            kinds[kind] += len(found)
    assert all(kinds[kind] for kind in ("layout", "route", "height", "crossing", "points"))


@functools.cache
def _chain300():
    s = _chain(300)
    r = reduce_scenario(s)
    lay = layout(s, r)
    return [(route(s, r, lay), lay)]


@pytest.mark.parametrize("family", FAMILIES + ("chain300",))
def test_crossing_triples_are_the_fraction_points(family):
    """Each meeting the sweep finds, against the per-pair loop's point of
    the same two segments in ``Fraction``s: the triple's ``d`` is positive,
    ``(x/d, y/d)`` is that point, and ``_fmt`` writes what ``float`` of it
    writes."""
    cases = _chain300() if family == "chain300" else _routed_family(family)
    found = 0
    for routed, _lay in cases:
        points = [poly.points for poly in routed.polylines]
        for i, j, k, l, kind, triple in geometry._meetings(routed.scaled, routed.den):
            assert kind == "cross"
            x, y, d = triple
            assert d > 0
            a, b = points[i], points[j]
            assert _relation(a[k], a[k + 1], b[l], b[l + 1]) == ("cross", (Fraction(x, d), Fraction(y, d)))
            assert (_fmt(x, d), _fmt(y, d)) == (f"{float(Fraction(x, d)):.6f}", f"{float(Fraction(y, d)):.6f}")
            found += 1
    assert found


def _moved(p, shift, scale):
    """Every point of every polyline times ``scale``, plus ``shift`` on both
    coordinates, each polyline over its own ``den``."""
    return PolylineSet(
        tuple(
            Polyline(q.orbit, tuple((x * scale + shift * q.den, y * scale + shift * q.den) for x, y in q.scaled), q.den)
            for q in p.polylines
        )
    )


@pytest.mark.parametrize("family", FAMILIES + ("touches",))
def test_crossings_map_under_translation_and_scaling(family):
    """A huge translation leaves the orientations as they are, so each
    triple ``(x, y, d)`` becomes ``(x + t·d, y + t·d, d)``; scaling by
    ``2**k`` multiplies the orientations by ``4**k``, so it becomes
    ``(8**k·x, 8**k·y, 4**k·d)``.  Every touch raises the same error."""
    sets = list(TOUCHES.values()) if family == "touches" else [routed for routed, _lay in _routed_family(family)]
    t, k = 2**4000, 37
    kinds = set()
    for p in sets:
        found = _outcome(crossing_points, p)
        if found and found[0] == "DegeneracyError":
            kinds.add("touch")
            assert _outcome(crossing_points, _moved(p, t, 1)) == found
            assert _outcome(crossing_points, _moved(p, 0, 2**k)) == found
            continue
        kinds.add("cross" if found else "none")
        assert crossing_points(_moved(p, t, 1)) == tuple((a, b, (x + t * d, y + t * d, d)) for a, b, (x, y, d) in found)
        scaled = tuple((a, b, (8**k * x, 8**k * y, 4**k * d)) for a, b, (x, y, d) in found)
        assert crossing_points(_moved(p, 0, 2**k)) == scaled
    assert kinds == ({"touch"} if family == "touches" else {"cross", "none"})


def _forward_disjointness_by_clipping(ctx):
    """The forward-disjointness property as it was written before it read
    the crossing list: each compatible pair clipped at the tick and swept
    again by ``forward_disjoint``."""
    if ctx.routed is None:
        return []
    bad = []
    s = ctx.scenario
    idx = checks.index(s)
    for leaf in ctx.crossed_leaves:
        tick = ctx.layout.tick_for(leaf)
        if tick is None:
            bad.append(f"crossed leaf {leaf} has no tick")
            continue
        orbs = sorted(idx.leaf_orbits[leaf])
        for a, b in itertools.combinations(orbs, 2):
            pa, pb = ctx.routed.by_orbit(a), ctx.routed.by_orbit(b)
            sign = geometry.height_order(pa, pb, tick.x)
            if sign == 0:
                continue
            (first, pf), (second, ps) = ((a, pa), (b, pb)) if sign < 0 else ((b, pb), (a, pa))
            v = relations.compare_left(s, first, second)
            if v.direction not in (relations.Direction.FIRST_LESS, relations.Direction.EQUIVALENT):
                continue
            if not forward_disjoint(pf, ps, tick.x):
                bad.append(f"forward pieces of {first},{second} meet beyond leaf {leaf}")
    return bad


@functools.cache
def _contexts():
    """The check's context of seeds 1..300 at the default bounds and at
    25/14/6, and of chains k = 2, 5, 40, 80 and 300."""
    scenarios = [
        generate_scenario(GeneratorConfig(seed=seed, **bounds))
        for bounds in ({}, {"max_domains": 25, "max_orbits": 14, "max_boundary": 6})
        for seed in range(1, 301)
    ]
    return [checks._Context(s) for s in scenarios + [_chain(k) for k in (2, 5, 40, 80, 300)]]


@pytest.mark.parametrize("every_pair_first_less", (False, True))
def test_forward_disjointness_reads_the_crossings_as_the_clipped_sweep_did(monkeypatch, every_pair_first_less):
    """The same messages in the same order as the clipped sweep.  As the
    relations are, no case reports one; with every pair read as FirstLess,
    the pairs that meet beyond their leaf do."""
    contexts = _contexts()
    if every_pair_first_less:
        first_less = relations.RelationVerdict(relations.Direction.FIRST_LESS, relations.Clause.L1)
        monkeypatch.setattr(relations, "compare_left", lambda _s, _a, _b: first_less)
    reported = 0
    for ctx in contexts:
        found = checks.prop_forward_disjointness(ctx)
        assert found == _forward_disjointness_by_clipping(ctx)
        reported += len(found)
    assert bool(reported) == every_pair_first_less
