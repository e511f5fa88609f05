"""The layout as it was first written, in ``fractions.Fraction``s throughout.

``foliage.geometry.layout`` builds the same layout on ints; this slower form
is kept as its oracle.  Each box's subtree is built in the box's own frame,
which keeps its bounds as ``Fraction``s and, per child, the child's map
``(f, dx, dy)`` into it; the maps are composed top-down as integers over one
denominator, and every point is mapped once, into a ``Fraction``.

``in_fractions`` turns the integer layout, or any part of it, into the same
``Fraction``s, for the tests that compare or pin ``Fraction`` values, and
``polyline`` turns ``Fraction`` points into a polyline's integer form.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from foliage.decompose import ReducedStructure
from foliage.geometry import BOX_WIDTH, BoxRect, Corridor, Polyline, Tick
from foliage.model import FoliageError, Scenario
from foliage.realize import SideItem, all_port_plans, run_nested

Point = tuple[Fraction, Fraction]
WHISKER = Fraction(1, 2)


@dataclass
class FractionLayout:
    """The fields of ``foliage.geometry.Layout``, each coordinate a ``Fraction``."""

    boxes: dict[str, BoxRect]
    corridors: tuple[Corridor, ...]
    entry_ports: dict[tuple[str, str], Point]
    exit_ports: dict[tuple[str, str], Point]
    back_whiskers: dict[str, Point]
    fwd_whiskers: dict[str, Point]
    ticks: tuple[Tick, ...]
    bounds: tuple[Fraction, Fraction, Fraction, Fraction]


def in_fractions(value, den: int):
    """A ``Layout`` field's value, or any part of one, with every int
    coordinate ``c`` as ``Fraction(c, den)``; ids and dict keys stay."""
    if isinstance(value, int):
        return Fraction(value, den)
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {key: in_fractions(v, den) for key, v in value.items()}
    if isinstance(value, tuple):
        return tuple(in_fractions(v, den) for v in value)
    return type(value)(*(in_fractions(getattr(value, f.name), den) for f in dataclasses.fields(value)))


def polyline(orbit: str, points) -> Polyline:
    """The polyline through ``Fraction`` (or int) points, as ints over the
    LCM of their denominators."""
    points = tuple((Fraction(x), Fraction(y)) for x, y in points)
    den = math.lcm(*(c.denominator for point in points for c in point))
    return Polyline(orbit, tuple(tuple(c.numerator * (den // c.denominator) for c in point) for point in points), den)


@dataclass
class _Frame:
    """One box and its subtree, in the box's own coordinates.

    ``bounds`` is the hull of the subtree's boxes and whisker tips, and
    ``place`` the map ``(f, dx, dy)``, ``p -> f·p + (dx, dy)``, into the
    parent frame; ``page``, once composed, the map into the page as integers
    ``(f, dx, dy, d)``, over ``d``.  ``connect`` is the port run of the
    corridor to the parent, on the side at ``connect_x``.
    """

    parent: Optional["_Frame"]
    bounds: tuple = ()
    place: tuple = ()
    page: tuple[int, int, int, int] = ()
    connect_x: Fraction | int = 0
    connect: Optional[SideItem] = None

    def x(self, v: Fraction | int) -> Fraction:
        f, dx, _dy, d = self.page
        return Fraction(f * v.numerator + dx * v.denominator, d * v.denominator)

    def y(self, v: Fraction | int) -> Fraction:
        f, _dx, dy, d = self.page
        return Fraction(f * v.numerator + dy * v.denominator, d * v.denominator)


def _compose(outer: tuple[int, int, int, int], place: tuple) -> tuple[int, int, int, int]:
    """The integer map ``outer`` after the map ``place``, gcd-reduced."""
    d = math.lcm(*(v.denominator for v in place))
    f, dx, dy = (v.numerator * (d // v.denominator) for v in place)
    of, odx, ody, od = outer
    f, dx, dy, d = of * f, of * dx + odx * d, of * dy + ody * d, od * d
    g = math.gcd(f, dx, dy, d)
    return f // g, dx // g, dy // g, d // g


def _hull(a: tuple, b: tuple) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    return (min(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), max(a[3], b[3]))


def _scale_factor(span: int, above: Fraction | int, below: Fraction | int) -> Fraction:
    half = Fraction(2 * span + 1, 4)
    return min(Fraction(1), Fraction(half, above + Fraction(span, 2)), Fraction(half, below + Fraction(span, 2)))


def layout(s: Scenario, r: ReducedStructure) -> FractionLayout:
    """Deterministic nested embedding of the reduced forest.

    Each box's subtree is built in the box's own frame, which keeps only its
    bounds and, per child, the child's map into it.  When the walk ends the
    maps are composed top-down and every point is placed once.
    """
    plans = all_port_plans(s)
    edge_by_leaf = {leaf: (a, leaf, b) for a, leaf, b in r.forest_edges}
    # Everything drawn, in local coordinates and in the order the layout lists it.
    boxes: list[tuple[_Frame, str]] = []
    ticks: list[Optional[tuple[_Frame, Tick]]] = []
    whiskers: dict[str, list[tuple[_Frame, str, Point]]] = {"entry": [], "exit": []}
    corridors: list[tuple[_Frame, Corridor]] = []
    placed: set[str] = set()

    def build(mid: str, parent_leaf: Optional[str], parent: Optional[_Frame]):
        placed.add(mid)
        m = r.maxdomain(mid)
        plan = plans[mid]
        frame = _Frame(parent)
        boxes.append((frame, mid))
        height = len(plan.entry_seq) + 2
        bounds = (0, 0, BOX_WIDTH, height)

        chain_len = len(m.chain)
        for j, leaf in enumerate(m.internal, start=1):
            x = Fraction(BOX_WIDTH * j, chain_len)
            ticks.append((frame, Tick(leaf, "internal", x, Fraction(1, 4), height - Fraction(1, 4))))

        sides = (
            ("entry", plan.entry_items, 0, -1, -WHISKER),
            ("exit", plan.exit_items, BOX_WIDTH, 1, BOX_WIDTH + WHISKER),
        )
        corridor_leaves = set()
        for side, items, side_x, direction, tip_x in sides:
            for item in items:
                lo, hi = item.lo, item.hi
                if item.leaf is None:
                    tip = (tip_x, lo + 1)
                    whiskers[side].append((frame, item.orbits[0], tip))
                    bounds = _hull(bounds, tip + tip)
                    continue
                corridor_leaves.add(item.leaf)
                if item.leaf == parent_leaf:
                    frame.connect_x, frame.connect = side_x, item
                    continue
                # The critical tick is listed before the subtree's ticks.
                slot = len(ticks)
                ticks.append(None)
                child = yield build(r.across(mid, item.leaf), item.leaf, frame)
                if child.connect.orbits != item.orbits:
                    raise FoliageError(f"corridor hand-off mismatch at leaf {item.leaf!r}")
                span = hi - lo
                cb = child.bounds
                hull_top, hull_bot = child.connect.lo + 1, child.connect.hi + 1
                f = _scale_factor(span, hull_top - cb[1], cb[3] - hull_bot)
                # How far the subtree reaches back past its own connecting side.
                overhang = child.connect_x - cb[0] if child.connect_x == 0 else cb[2] - child.connect_x
                g = (2 * span + 1) * overhang + 1
                target_x = side_x + direction * g
                dy = (lo + 1) + Fraction(span * (1 - f), 2) - f * hull_top
                dx = target_x - f * child.connect_x
                child.place = (f, dx, dy)
                bounds = _hull(bounds, (f * cb[0] + dx, f * cb[1] + dy, f * cb[2] + dx, f * cb[3] + dy))
                parent_iv = (lo + Fraction(3, 4), hi + Fraction(5, 4))
                child_iv = (f * hull_top + dy - Fraction(f, 4), f * hull_bot + dy + Fraction(f, 4))
                if side == "entry":
                    up_x, up_iv, down_x, down_iv = target_x, child_iv, side_x, parent_iv
                else:
                    up_x, up_iv, down_x, down_iv = side_x, parent_iv, target_x, child_iv
                quad = ((up_x, up_iv[0]), (up_x, up_iv[1]), (down_x, down_iv[1]), (down_x, down_iv[0]))
                corridors.append((frame, Corridor(edge_by_leaf[item.leaf], quad)))
                mid_y0, mid_y1 = Fraction(up_iv[0] + down_iv[0], 2), Fraction(up_iv[1] + down_iv[1], 2)
                ticks[slot] = (frame, Tick(item.leaf, "critical", Fraction(up_x + down_x, 2), mid_y0, mid_y1))

        # Decorative ticks for boundary leaves with no corridor of their own.
        for side_x, leaves in ((0, m.right), (BOX_WIDTH, m.left)):
            for pos, leaf in enumerate(leaves):
                if leaf not in corridor_leaves:
                    y = Fraction(height * (pos + 1), len(leaves) + 1)
                    ticks.append((frame, Tick(leaf, "fringe", side_x, y - Fraction(1, 4), y + Fraction(1, 4))))
        frame.bounds = bounds
        return frame

    roots = [run_nested(build(mid, None, None)) for mid in sorted(m.id for m in r.maxdomains) if mid not in placed]
    if not roots:
        raise FoliageError("layout requires a non-empty forest")
    # The trees side by side, two units apart, top edges on y = 0.
    cursor, depth = 0, 0
    for root in roots:
        b = root.bounds
        root.place = (1, cursor - b[0], -b[1])
        cursor += (b[2] - b[0]) + 2
        depth = max(depth, b[3] - b[1])
    for frame, _mid in boxes:  # every parent comes before its children
        frame.page = _compose(frame.parent.page if frame.parent is not None else (1, 0, 0, 1), frame.place)

    placed_boxes = []
    entry_ports: dict[tuple[str, str], Point] = {}
    exit_ports: dict[tuple[str, str], Point] = {}
    for frame, mid in boxes:
        plan = plans[mid]
        # Both sides carry the same orbits, so port i has one height on either side.
        x0, x1, ys = frame.x(0), frame.x(BOX_WIDTH), [frame.y(i) for i in range(len(plan.entry_seq) + 3)]
        placed_boxes.append((mid, BoxRect(x0, ys[0], x1, ys[-1])))
        entry_ports.update({(mid, orbit): (x0, ys[i + 1]) for i, orbit in enumerate(plan.entry_seq)})
        exit_ports.update({(mid, orbit): (x1, ys[i + 1]) for i, orbit in enumerate(plan.exit_seq)})
    placed_corridors = (Corridor(c.edge, tuple((frame.x(x), frame.y(y)) for x, y in c.quad)) for frame, c in corridors)
    return FractionLayout(
        boxes=dict(sorted(placed_boxes)),
        corridors=tuple(sorted(placed_corridors, key=lambda c: c.edge)),
        entry_ports=entry_ports,
        exit_ports=exit_ports,
        back_whiskers={orbit: (frame.x(x), frame.y(y)) for frame, orbit, (x, y) in whiskers["entry"]},
        fwd_whiskers={orbit: (frame.x(x), frame.y(y)) for frame, orbit, (x, y) in whiskers["exit"]},
        ticks=tuple(Tick(t.leaf, t.kind, frame.x(t.x), frame.y(t.y0), frame.y(t.y1)) for frame, t in ticks),
        bounds=(Fraction(0), Fraction(0), Fraction(cursor - 2), Fraction(depth)),
    )
