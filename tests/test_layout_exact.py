"""The exact layout, pinned, against its ``Fraction`` oracle, and a layout
far deeper than the call stack.

The ``--svg`` pins in ``test_cli_bytes.py`` round every coordinate to six
decimals, so they cannot see a change below 1e-6.  Here the sha256 covers
``repr`` of every ``Layout`` field and of the routed polylines, exact
``Fraction``s and dict order included, over 604 scenarios: seeds 1..300 at
default bounds and at 25/14/6, and chains of 2, 5, 40 and 80 domains.  The
layout's coordinates are ints over its ``den``, read as ``Fraction``s
through ``fraction_layout.in_fractions``, and each polyline is hashed in
the form it then had, ``Polyline(orbit=..., points=...)`` with its
``Fraction`` points; the digest was recorded when the layout held
``Fraction``s, before it placed each point only once.  The same
scenarios and a chain of 300 are laid out again by the layout as it was
first written, in ``Fraction``s throughout (``fraction_layout.py``): every
coordinate of every field must be an int, and read as a ``Fraction``, equal
to the oracle's, in value and dict order.
"""

import dataclasses
import hashlib

import pytest

import fraction_layout
from foliage.decompose import reduce_scenario
from foliage.generator import GeneratorConfig, generate_scenario
from foliage.geometry import Layout, PolylineSet, crossing_points, layout, route
from test_crossing_kernel import _fraction_crossings
from test_geometry import _box_by_scan, _triple
from test_realize import _chain

LAYOUT_DIGEST = "208de4dd78b785a58ad098138758a5b0609355dfffc48f06da8a2b83ec846622"

# A polyline as it was when the digest was recorded, for its ``repr``.
FractionPolyline = dataclasses.make_dataclass("Polyline", ["orbit", "points"], frozen=True)


def _scenarios():
    for bounds in ({}, {"max_domains": 25, "max_orbits": 14, "max_boundary": 6}):
        for seed in range(1, 301):
            yield generate_scenario(GeneratorConfig(seed=seed, **bounds))
    for k in (2, 5, 40, 80):
        yield _chain(k)


def test_exact_layouts_are_pinned():
    h = hashlib.sha256()
    count = 0
    for s in _scenarios():
        r = reduce_scenario(s)
        lay = layout(s, r)
        placed = (
            lay.boxes,
            lay.corridors,
            lay.entry_ports,
            lay.exit_ports,
            lay.back_whiskers,
            lay.fwd_whiskers,
            lay.ticks,
            lay.bounds,
        )
        polylines = tuple(FractionPolyline(p.orbit, p.points) for p in route(s, r, lay).polylines)
        fields = (*fraction_layout.in_fractions(placed, lay.den), polylines)
        h.update(repr(fields).encode("utf-8"))
        count += 1
    assert count == 604
    assert h.hexdigest() == LAYOUT_DIGEST


def test_layout_and_route_on_a_1200_deep_forest():
    s = _chain(1200)
    r = reduce_scenario(s)
    lay = layout(s, r)
    for poly in route(s, r, lay).polylines:
        assert all(p[0] < q[0] for p, q in zip(poly.points, poly.points[1:])), poly.orbit
    expected = sorted((m.id, o) for m in r.maxdomains for o in m.crossers)
    for ports in (lay.entry_ports, lay.exit_ports):
        assert sorted(ports) == expected
        assert len(set(ports.values())) == len(ports)


def _coordinates(value):
    """Every coordinate in a layout field's value."""
    if isinstance(value, dict):
        value = list(value.values())
    for v in value:
        if isinstance(v, (tuple, list)):
            yield from _coordinates(v)
        elif hasattr(v, "__dataclass_fields__"):
            names = [name for name in v.__dataclass_fields__ if name not in ("leaf", "kind", "edge")]
            yield from _coordinates([getattr(v, name) for name in names])
        else:
            yield v


FIELDS = [f.name for f in dataclasses.fields(fraction_layout.FractionLayout)]


def _oracle_cases():
    yield from _scenarios()
    yield _chain(300)


@pytest.mark.parametrize("part", range(4))
def test_the_integer_layout_equals_the_fraction_oracle(part):
    assert [f.name for f in dataclasses.fields(Layout)] == FIELDS + ["den"]
    for n, s in enumerate(_oracle_cases()):
        if n % 4 != part:
            continue
        r = reduce_scenario(s)
        fast, slow = layout(s, r), fraction_layout.layout(s, r)
        assert type(fast.den) is int
        for name in FIELDS:
            placed, expected = getattr(fast, name), getattr(slow, name)
            assert all(type(c) is int for c in _coordinates(placed)), name
            got = fraction_layout.in_fractions(placed, fast.den)
            assert got == expected, name
            if isinstance(got, dict):
                assert list(got) == list(expected), name
        routed = route(s, r, fast)
        # The integer hand-off and a set built from the same points in Fractions.
        again = PolylineSet(tuple(fraction_layout.polyline(p.orbit, p.points) for p in routed.polylines))
        assert _fraction_crossings(routed) == _fraction_crossings(again)
        assert routed.den % again.den == 0


def test_box_of_equals_the_scan_at_crossings_segments_and_box_sides():
    s = generate_scenario(GeneratorConfig(seed=3, max_domains=25, max_orbits=14, max_boundary=6))
    r = reduce_scenario(s)
    built = layout(s, r)
    routed = route(s, r, built)
    boxes = fraction_layout.in_fractions(built.boxes, built.den)
    probes = [point for _a, _b, point in crossing_points(routed)]
    for poly in routed.polylines:
        probes += [_triple((p[0] + q[0]) / 2, (p[1] + q[1]) / 2) for p, q in zip(poly.points, poly.points[1:])]
    for b in boxes.values():  # each box's centre and the midpoints of its sides
        xm, ym = (b.x0 + b.x1) / 2, (b.y0 + b.y1) / 2
        probes += [_triple(*p) for p in ((xm, ym), (xm, b.y0), (xm, b.y1), (b.x0, ym), (b.x1, ym))]
    found = [built.box_of(point) for point in probes]
    scan = [_box_by_scan(built, point) for point in probes]
    assert found == scan
    assert None in found and len(set(found)) > 2
