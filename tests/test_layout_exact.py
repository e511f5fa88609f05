"""The exact layout, pinned, and a layout far deeper than the call stack.

The ``--svg`` pins in ``test_cli_bytes.py`` round every coordinate to six
decimals, so they cannot see a change below 1e-6.  Here the sha256 covers
``repr`` of every ``Layout`` field and of the routed polylines, exact
``Fraction``s and dict order included, over 604 scenarios: seeds 1..300 at
default bounds and at 25/14/6, and chains of 2, 5, 40 and 80 domains.  The
digest was recorded before the layout placed each point only once.
"""

import hashlib

from foliage.decompose import reduce_scenario
from foliage.generator import GeneratorConfig, generate_scenario
from foliage.geometry import layout, route
from test_realize import _chain

LAYOUT_DIGEST = "208de4dd78b785a58ad098138758a5b0609355dfffc48f06da8a2b83ec846622"


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
        fields = (
            lay.boxes,
            lay.corridors,
            lay.entry_ports,
            lay.exit_ports,
            lay.back_whiskers,
            lay.fwd_whiskers,
            lay.ticks,
            lay.bounds,
            route(s, r, lay).polylines,
        )
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
