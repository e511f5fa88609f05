import itertools
import math
from fractions import Fraction

import pytest

from fraction_layout import in_fractions
from foliage import geometry
from foliage.decompose import reduce_scenario
from foliage.generator import GeneratorConfig, generate_scenario
from foliage.geometry import (
    DegeneracyError,
    Polyline,
    PolylineSet,
    chord_diagram,
    emit_chord_svg,
    emit_svg,
    exact_crossings,
    layout,
    route,
    segment_relation,
)
from foliage.model import fixture, index
from foliage.realize import boundary_order, crossing_matrix, interleaving_matrix
from test_crossing_kernel import _clip_by_fractions, _oracle_disjoint, _y_at_by_fractions


def _realized(name):
    s = fixture(name)
    r = reduce_scenario(s)
    lay = layout(s, r)
    return s, r, lay, route(s, r, lay)


def test_layout_s0_single_box_with_two_stubs():
    s, r, lay, routed = _realized("S0")
    assert list(lay.boxes) == ["M:D0"]
    assert lay.corridors == ()
    assert set(lay.back_whiskers) == {"O"}
    assert set(lay.fwd_whiskers) == {"O"}


def test_layout_s1_star():
    s, r, lay, routed = _realized("S1")
    assert len(lay.boxes) == 5
    assert len(lay.corridors) == 4
    for a, _leaf, b in r.forest_edges:
        assert lay.boxes[a].x1 < lay.boxes[b].x0


def test_layout_s4_merged_box():
    s, r, lay, routed = _realized("S4")
    assert len(lay.boxes) == 1
    assert lay.corridors == ()
    assert any(t.kind == "internal" and t.leaf == "k" for t in lay.ticks)


def test_boxes_are_pairwise_disjoint_and_edges_point_forward():
    for seed in range(1, 21):
        s = generate_scenario(GeneratorConfig(seed=seed))
        r = reduce_scenario(s)
        lay = layout(s, r)
        boxes = list(lay.boxes.items())
        for (ma, a), (mb, b) in itertools.combinations(boxes, 2):
            disjoint = a.x1 <= b.x0 or b.x1 <= a.x0 or a.y1 <= b.y0 or b.y1 <= a.y0
            assert disjoint, f"boxes {ma} and {mb} overlap (seed {seed})"
        for up, _leaf, down in r.forest_edges:
            assert lay.boxes[up].x1 < lay.boxes[down].x0


def test_route_s1_crosses_once_inside_d():
    s, r, lay, routed = _realized("S1")
    points = geometry.crossing_points(routed)
    assert len(points) == 1
    a, b, point = points[0]
    assert {a, b} == {"O_a", "O_b"}
    assert _inside(lay.boxes["M:D"], point, lay.den)


def test_route_s3_disjoint():
    _s, _r, _lay, routed = _realized("S3")
    assert geometry.crossing_points(routed) == ()


def test_route_s0_single_polyline():
    _s, _r, _lay, routed = _realized("S0")
    assert len(routed.polylines) == 1


def test_exact_crossings_matches_plan_matrix_on_fixtures():
    for name in ("S0", "S1", "S2", "S3", "S4"):
        s, r, lay, routed = _realized(name)
        exact = exact_crossings(routed, lay)
        planned = crossing_matrix(s, r)
        assert exact.as_dict() == planned.as_dict()
        for e in exact.entries:
            assert e.witness == planned.witness(e.a, e.b)


def test_polylines_are_x_monotone():
    for name in ("S1", "S2", "S4"):
        _s, _r, _lay, routed = _realized(name)
        for poly in routed.polylines:
            xs = [p[0] for p in poly.points]
            assert all(x0 < x1 for x0, x1 in zip(xs, xs[1:]))


def test_polyline_points_are_a_fraction_view_built_once():
    """``perfbench/tracer.py`` reads ``points`` for each coordinate's
    denominator: each is ``Fraction(c, den)`` of ``scaled``."""
    s = generate_scenario(GeneratorConfig(seed=3))
    r = reduce_scenario(s)
    lay = layout(s, r)
    for p in route(s, r, lay).polylines:
        assert p.den == lay.den
        assert p.points == tuple((Fraction(x, p.den), Fraction(y, p.den)) for x, y in p.scaled)
        assert all(type(c) is Fraction for point in p.points for c in point)
        assert p.points is p.points


def test_degeneracy_touch_is_an_error():
    a = Polyline("a", ((0, 0), (2, 0)), 1)
    b = Polyline("b", ((1, 0), (1, 2)), 1)
    with pytest.raises(DegeneracyError):
        exact_crossings(PolylineSet((a, b)))


def test_degeneracy_collinear_overlap_is_an_error():
    a = Polyline("a", ((0, 0), (2, 0)), 1)
    b = Polyline("b", ((1, 0), (3, 0)), 1)
    with pytest.raises(DegeneracyError):
        exact_crossings(PolylineSet((a, b)))


def test_segment_relation_proper_cross_point():
    # (1, 1) as (x/d, y/d), with d = |o1 − o2| = 8 and no gcd taken.
    assert segment_relation((0, 0), (2, 2), (0, 2), (2, 0)) == ("cross", (8, 8, 8))
    # The points are ints over den, and d takes den in.
    assert segment_relation((0, 0), (2, 2), (0, 2), (2, 0), 4) == ("cross", (8, 8, 32))
    # With the segments swapped, o1 − o2 is negative; d stays positive.
    assert segment_relation((0, 2), (2, 0), (0, 0), (2, 2), 4) == ("cross", (8, 8, 32))


def test_svg_counts_s0():
    s, r, lay, routed = _realized("S0")
    svg = emit_svg(lay, routed)
    assert svg.count("<rect") == 1
    assert svg.count("<path") == 1
    assert svg.count("<circle") == 0


def test_svg_counts_s1():
    s, r, lay, routed = _realized("S1")
    svg = emit_svg(lay, routed)
    assert svg.count("<rect") == 5
    assert svg.count("<path") == 2
    assert svg.count("<circle") == 1  # the single crossing marker


def test_svg_role_legend_s2():
    s, r, lay, routed = _realized("S2")
    svg = emit_svg(lay, routed, roles=r)
    assert "Oα={O1,O4}" in svg
    assert "Oω={O3,O4}" in svg
    assert "Oin={O2,O3}" in svg
    assert "Oout={O1,O2}" in svg


def test_svg_is_byte_stable():
    s, r, lay, routed = _realized("S2")
    first = emit_svg(lay, routed, roles=r)
    s2, r2, lay2, routed2 = _realized("S2")
    assert emit_svg(lay2, routed2, roles=r2) == first


def test_chord_diagram_s1_interleaves():
    s = fixture("S1")
    r = reduce_scenario(s)
    order = boundary_order(s, r)
    cd = chord_diagram(order)
    assert interleaving_matrix(order).count("O_a", "O_b") == 1
    assert len(cd.points) == 4
    svg = emit_chord_svg(cd)
    assert svg.count("<line") == 2  # one chord per orbit


def test_chord_diagram_s3_nested():
    s = fixture("S3")
    order = boundary_order(s, reduce_scenario(s))
    assert len(chord_diagram(order).chords) == 2
    assert interleaving_matrix(order).as_dict() == {}


def test_chord_diagram_s0_single_chord():
    s = fixture("S0")
    order = boundary_order(s, reduce_scenario(s))
    assert len(chord_diagram(order).chords) == 1
    assert interleaving_matrix(order).as_dict() == {}


@pytest.mark.parametrize("seed", range(1, 21))
def test_oracle_agreement_on_generated(seed):
    s = generate_scenario(GeneratorConfig(seed=seed))
    r = reduce_scenario(s)
    lay = layout(s, r)
    routed = route(s, r, lay)
    assert exact_crossings(routed, lay).as_dict() == crossing_matrix(s, r).as_dict()


@pytest.mark.parametrize("seed", range(1, 21))
def test_all_crossings_lie_inside_boxes(seed):
    s = generate_scenario(GeneratorConfig(seed=seed))
    r = reduce_scenario(s)
    lay = layout(s, r)
    routed = route(s, r, lay)
    for _a, _b, point in geometry.crossing_points(routed):
        assert any(_inside(box, point, lay.den) for box in lay.boxes.values())


def test_forward_pieces_disjoint_when_leaf_order_is_compatible():
    """Checked in ``Fraction``s by the tests' own oracles, apart from the
    integer kernels that the forward-disjointness property runs."""
    from foliage.relations import Direction, compare_left

    for seed in range(1, 16):
        s = generate_scenario(GeneratorConfig(seed=seed))
        r = reduce_scenario(s)
        lay = layout(s, r)
        routed = route(s, r, lay)
        idx = index(s)
        for leaf, orbs in sorted(idx.leaf_orbits.items()):
            if len(orbs) < 2:
                continue
            tick = lay.tick_for(leaf)
            assert tick is not None
            x = in_fractions(tick.x, lay.den)
            for a, b in itertools.combinations(sorted(orbs), 2):
                ya = _y_at_by_fractions(routed.by_orbit(a).points, x)
                yb = _y_at_by_fractions(routed.by_orbit(b).points, x)
                if ya == yb:
                    continue
                first, second = (a, b) if ya < yb else (b, a)
                if compare_left(s, first, second).direction not in (
                    Direction.FIRST_LESS,
                    Direction.EQUIVALENT,
                ):
                    continue
                pa = _clip_by_fractions(routed.by_orbit(first).points, x)
                pb = _clip_by_fractions(routed.by_orbit(second).points, x)
                assert _oracle_disjoint(pa, pb)


def _inside(box, point, den):
    """The interior of the box, in ints over ``den``, holds the point ``(x/d, y/d)`` of the triple."""
    x, y = (Fraction(c, point[2]) * den for c in point[:2])
    return box.x0 < x < box.x1 and box.y0 < y < box.y1


def _box_by_scan(lay, point):
    """The first box, in ``boxes`` order, whose interior holds the point of the triple."""
    return next((mid for mid, box in lay.boxes.items() if _inside(box, point, lay.den)), None)


def _triple(x, y):
    """The point of two ``Fraction``s as a triple over their least common denominator."""
    d = math.lcm(x.denominator, y.denominator)
    return x.numerator * (d // x.denominator), y.numerator * (d // y.denominator), d


def _probe_points(routed, crossings):
    """Each polyline's vertices and segment midpoints, and the crossings, as triples."""
    den = routed.den
    points = [(x, y, den) for pts in routed.scaled for x, y in pts]
    for pts in routed.scaled:
        points += [(p[0] + q[0], p[1] + q[1], 2 * den) for p, q in zip(pts, pts[1:])]
    return points + [pt for _a, _b, pt in crossings]


@pytest.mark.parametrize("seed", range(1, 41))
def test_box_of_equals_the_scan_over_every_box(seed):
    s = generate_scenario(GeneratorConfig(seed=seed))
    r = reduce_scenario(s)
    lay = layout(s, r)
    routed = route(s, r, lay)
    for point in _probe_points(routed, geometry.crossing_points(routed)):
        assert lay.box_of(point) == _box_by_scan(lay, point)


def test_box_of_equals_the_scan_on_a_40_chain():
    from deep_families import chain

    s = chain(40)
    r = reduce_scenario(s)
    lay = layout(s, r)
    points = _probe_points(route(s, r, lay), ())
    found = [lay.box_of(point) for point in points]
    assert found == [_box_by_scan(lay, point) for point in points]
    assert set(found) == set(lay.boxes) | {None}


def test_box_of_takes_the_first_box_in_order_when_boxes_overlap():
    box = geometry.BoxRect
    # "b" comes first in ``boxes`` but starts right of "a" and "c".
    boxes = {"b": box(2, 0, 6, 4), "a": box(0, 0, 10, 10), "c": box(1, 1, 3, 3)}
    lay = geometry.Layout(boxes, (), {}, {}, {}, {}, (), (0, 0, 10, 10), den=1)
    for x, y in itertools.product(range(-1, 12), repeat=2):
        point = (2 * x + 1, 2 * y + 1, 4)
        assert lay.box_of(point) == _box_by_scan(lay, point)
    assert lay.box_of((5, 4, 2)) == "b"
    assert lay.box_of((3, 4, 2)) == "a"
    assert lay.box_of((11, 2, 1)) is None


def test_box_of_leaves_out_every_edge():
    """Points on a box's edges are outside it, in every order of three
    overlapping boxes: a half-unit grid hits every edge."""

    # The boxes of the test above over den 2, so the half-unit grid is every int of the integer form.
    box = geometry.BoxRect
    boxes = {"b": box(4, 0, 12, 8), "a": box(0, 0, 20, 20), "c": box(2, 2, 6, 6)}
    grid = [(x, y, 2) for x, y in itertools.product(range(-1, 22), repeat=2)]
    for order in itertools.permutations(boxes):
        lay = geometry.Layout({mid: boxes[mid] for mid in order}, (), {}, {}, {}, {}, (), (0, 0, 20, 20), den=2)
        assert [lay.box_of(point) for point in grid] == [_box_by_scan(lay, point) for point in grid], order
