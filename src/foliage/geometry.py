"""Exact-rational planar realization and the independent crossing oracle.

Boxes are axis-aligned rectangles, one per maximal domain, with entry ports
on the west side and exit ports on the east side at unit spacing (port 0 on
top; the transverse order increases downward).  Every neighbour of a box
hangs off the port run of its shared leaf, shrunk so that its whole subtree
fits inside the horizontal band owned by that run, and the corridor is a
single quadrilateral across the gap between the two box sides.  The gap of
each corridor is sized so that its slanted walls clear every piece of
subtree content that pokes back toward the parent.  Each box's subtree is
built in the box's own local frame, which keeps its bounds and one map
``(f, dx, dy)`` into its parent's frame; the maps are composed top-down once
the forest has been walked, as integer numerators over one denominator, and
every point is mapped once, into a ``fractions.Fraction``.  The crossing
oracle runs on ints scaled by a common denominator, so its counts are exact.

Trajectories are polylines: a short backward whisker, one straight segment
per traversed box, one strand per corridor, and a forward whisker.  They are
strictly monotone in x, so every pairwise intersection is transversal and
lies strictly inside a box.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .decompose import ReducedStructure
from .model import FoliageError, Scenario, index
from .realize import (
    BACKWARD,
    FORWARD,
    BoundaryOrder,
    CrossingMatrix,
    PairEntry,
    PortPlan,
    SideItem,
    all_port_plans,
    entry_items,
    exit_items,
    forest_components,
    interleaving_matrix,
    run_nested,
)

Point = tuple[Fraction, Fraction]

BOX_WIDTH = 4
WHISKER = Fraction(1, 2)


class DegeneracyError(FoliageError):
    """Two trajectories touch or overlap instead of crossing transversally."""


@dataclass(frozen=True)
class BoxRect:
    x0: Fraction
    y0: Fraction
    x1: Fraction
    y1: Fraction

    def contains_interior(self, p: Point) -> bool:
        return self.x0 < p[0] < self.x1 and self.y0 < p[1] < self.y1


@dataclass(frozen=True)
class Corridor:
    """Quadrilateral channel of one forest edge, upstream side first."""

    edge: tuple[str, str, str]
    quad: tuple[Point, Point, Point, Point]  # up-top, up-bottom, down-bottom, down-top


@dataclass(frozen=True)
class Tick:
    leaf: str
    kind: str  # "critical" | "internal" | "fringe"
    x: Fraction
    y0: Fraction
    y1: Fraction


@dataclass
class Layout:
    boxes: dict[str, BoxRect]
    corridors: tuple[Corridor, ...]
    entry_ports: dict[tuple[str, str], Point]
    exit_ports: dict[tuple[str, str], Point]
    back_whiskers: dict[str, Point]
    fwd_whiskers: dict[str, Point]
    ticks: tuple[Tick, ...]
    bounds: tuple[Fraction, Fraction, Fraction, Fraction]
    _tick_by_leaf: dict[str, Tick] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # Reversed, so that the first tick of a leaf is the one kept.
        self._tick_by_leaf = {t.leaf: t for t in reversed(self.ticks) if t.kind in ("critical", "internal")}

    def tick_for(self, leaf: str) -> Optional[Tick]:
        """The first critical or internal tick drawn for the leaf."""
        return self._tick_by_leaf.get(leaf)

    @functools.cached_property
    def _boxes_by_x0(self) -> tuple[list[Fraction], list[Fraction], list[tuple[int, str]]]:
        """The boxes sorted by ``(x0, position in boxes)``: their ``x0``s,
        the running maximum of their ``x1``s, and ``(position, id)``."""
        ranked = sorted((box.x0, k, mid) for k, (mid, box) in enumerate(self.boxes.items()))
        reach = itertools.accumulate((self.boxes[mid].x1 for _x0, _k, mid in ranked), max)
        return [x0 for x0, _k, _mid in ranked], list(reach), [(k, mid) for _x0, k, mid in ranked]

    def box_of(self, p: Point) -> Optional[str]:
        """The first box, in ``boxes`` order, whose interior holds p."""
        starts, reach, ranked = self._boxes_by_x0
        found = None
        # Boxes at i and after start at or right of p; walk left while some
        # box at or before i - 1 still reaches past p.
        i = bisect.bisect_left(starts, p[0])
        while i > 0 and reach[i - 1] > p[0]:
            i -= 1
            if self.boxes[ranked[i][1]].contains_interior(p) and (found is None or ranked[i] < found):
                found = ranked[i]
        return found[1] if found is not None else None


@dataclass(frozen=True)
class Polyline:
    orbit: str
    points: tuple[Point, ...]


@dataclass(frozen=True)
class PolylineSet:
    polylines: tuple[Polyline, ...]
    _by_orbit: dict[str, Polyline] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_by_orbit", {p.orbit: p for p in self.polylines})

    def by_orbit(self, orbit: str) -> Polyline:
        try:
            return self._by_orbit[orbit]
        except KeyError:
            raise FoliageError(f"no polyline for orbit {orbit!r}") from None


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


def layout(s: Scenario, r: ReducedStructure, plans: Optional[dict[str, PortPlan]] = None) -> Layout:
    """Deterministic nested embedding of the reduced forest.

    Each box's subtree is built in the box's own frame, which keeps only its
    bounds and, per child, the child's map into it.  When the walk ends the
    maps are composed top-down and every point is placed once.
    """
    plans = plans if plans is not None else all_port_plans(s, r)
    edge_by_leaf = {leaf: (a, leaf, b) for a, leaf, b in r.forest_edges}
    # Everything drawn, in local coordinates and in the order the layout lists it.
    boxes: list[tuple[_Frame, str]] = []
    ticks: list[Optional[tuple[_Frame, Tick]]] = []
    whiskers: dict[str, list[tuple[_Frame, str, Point]]] = {"entry": [], "exit": []}
    corridors: list[tuple[_Frame, Corridor]] = []

    def build(mid: str, parent_leaf: Optional[str], parent: Optional[_Frame]):
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
            ("entry", entry_items(s, m, plan), 0, -1, -WHISKER),
            ("exit", exit_items(s, m, plan), BOX_WIDTH, 1, BOX_WIDTH + WHISKER),
        )
        corridor_leaves = set()
        for side, items, side_x, direction, tip_x in sides:
            for item in items:
                lo, hi = item.lo, item.hi
                if item.kind == "stub":
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

    roots = [run_nested(build(comp[0], None, None)) for comp in forest_components(r)]
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
    return Layout(
        boxes=dict(sorted(placed_boxes)),
        corridors=tuple(sorted(placed_corridors, key=lambda c: c.edge)),
        entry_ports=entry_ports,
        exit_ports=exit_ports,
        back_whiskers={orbit: (frame.x(x), frame.y(y)) for frame, orbit, (x, y) in whiskers["entry"]},
        fwd_whiskers={orbit: (frame.x(x), frame.y(y)) for frame, orbit, (x, y) in whiskers["exit"]},
        ticks=tuple(Tick(t.leaf, t.kind, frame.x(t.x), frame.y(t.y0), frame.y(t.y1)) for frame, t in ticks),
        bounds=(Fraction(0), Fraction(0), Fraction(cursor - 2), Fraction(depth)),
    )


def route(s: Scenario, r: ReducedStructure, lay: Layout) -> PolylineSet:
    """Assemble one x-monotone polyline per orbit through the layout."""
    idx = index(s)
    membership = r.membership()
    polylines = []
    for oid in sorted(idx.orbit_by_id):
        o = idx.orbit_by_id[oid]
        mids = []
        for d in o.domains:
            mid = membership[d]
            if not mids or mids[-1] != mid:
                mids.append(mid)
        points: list[Point] = [lay.back_whiskers[oid]]
        for mid in mids:
            points.append(lay.entry_ports[(mid, oid)])
            points.append(lay.exit_ports[(mid, oid)])
        points.append(lay.fwd_whiskers[oid])
        polylines.append(Polyline(orbit=oid, points=tuple(points)))
    return PolylineSet(polylines=tuple(polylines))


def _orient(p: Point, q: Point, r_: Point) -> Fraction:
    return (q[0] - p[0]) * (r_[1] - p[1]) - (q[1] - p[1]) * (r_[0] - p[0])


def _in_bounds(t: Point, p: Point, q: Point) -> bool:
    """t lies in the bounding box of segment pq."""
    return min(p[0], q[0]) <= t[0] <= max(p[0], q[0]) and min(p[1], q[1]) <= t[1] <= max(p[1], q[1])


def segment_relation(p1: Point, p2: Point, q1: Point, q2: Point):
    """Classify two segments: ("cross", point), ("touch", None) or ("none", None).

    ``o1``, ``o2`` are the orientations of q1, q2 against p1p2 and ``o3``,
    ``o4`` those of p1, p2 against q1q2.  A proper crossing needs strict
    opposite signs on both sides.  Otherwise the segments touch exactly when
    some endpoint with orientation 0 lies within the other segment's bounds
    (Shewchuk 1997).  On ints and ``Fraction``s alike, the crossing point
    ``q1 + o1·(q2 − q1)/(o1 − o2)`` is one ``Fraction`` per coordinate."""
    o1, o2 = _orient(p1, p2, q1), _orient(p1, p2, q2)
    o3, o4 = _orient(q1, q2, p1), _orient(q1, q2, p2)
    if (o1 > 0 > o2 or o1 < 0 < o2) and (o3 > 0 > o4 or o3 < 0 < o4):
        d = o1 - o2
        return "cross", tuple(Fraction(a * d + o1 * (b - a), d) for a, b in zip(q1, q2))
    if (
        (o1 == 0 and _in_bounds(q1, p1, p2))
        or (o2 == 0 and _in_bounds(q2, p1, p2))
        or (o3 == 0 and _in_bounds(p1, q1, q2))
        or (o4 == 0 and _in_bounds(p2, q1, q2))
    ):
        return "touch", None
    return "none", None


def _meetings(pieces: tuple[tuple[Point, ...], ...]):
    """``(i, j, k, l, kind, point)`` for every segment ``k`` of piece ``i``
    and segment ``l`` of piece ``j > i`` that meet, in no set order.

    The coordinates are scaled by the LCM of their denominators, so that
    the predicates run on ints, exact by construction (Yap 1997), and each
    crossing point is divided back by it.  Then an x-sweep (Shamos–Hoey
    1976; Bentley–Ottmann 1979): the segments are visited by their left
    end, and a heap keyed by the right end holds the segments whose closed
    x-span still reaches the one visited.  Of those, only segments of other
    pieces whose closed y-span also overlaps are classified, by
    ``segment_relation``.  Two segments can share a point
    only inside both their closed boxes, so no meeting is missed; the pairs
    come from the segments' own coordinates alone."""
    scale = math.lcm(*{c.denominator for piece in pieces for point in piece for c in point})
    scaled = [
        [(x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator)) for x, y in piece]
        for piece in pieces
    ]
    segments = []
    for i, piece in enumerate(scaled):
        for k, ((xp, yp), (xq, yq)) in enumerate(zip(piece, piece[1:])):
            segments.append((min(xp, xq), max(xp, xq), min(yp, yq), max(yp, yq), i, k))
    segments.sort()
    active: list[tuple[int, int, int, int, int]] = []  # a heap on the right end
    for x0, x1, y0, y1, i, k in segments:
        while active and active[0][0] < x0:
            heapq.heappop(active)
        for _x1, j, l, v0, v1 in active:
            if j != i and v0 <= y1 and y0 <= v1:
                i1, k1, j1, l1 = (j, l, i, k) if j < i else (i, k, j, l)
                a, b = scaled[i1], scaled[j1]
                kind, point = segment_relation(a[k1], a[k1 + 1], b[l1], b[l1 + 1])
                if kind == "cross":
                    point = (point[0] / scale, point[1] / scale)
                if kind != "none":
                    yield i1, j1, k1, l1, kind, point
        heapq.heappush(active, (x1, i, k, y0, y1))


def crossing_points(p: PolylineSet) -> tuple[tuple[str, str, Point], ...]:
    """Every pairwise transversal intersection, polyline i < j, then i's
    segment, then j's; touching is an error, raised at the first touch."""
    polys = p.polylines
    found = []
    for i, j, _k, _l, kind, point in sorted(_meetings(tuple(poly.points for poly in polys))):
        if kind == "touch":
            raise DegeneracyError(f"trajectories {polys[i].orbit!r} and {polys[j].orbit!r} touch without crossing")
        found.append((polys[i].orbit, polys[j].orbit, point))
    return tuple(found)


def exact_crossings(p: PolylineSet, lay: Optional[Layout] = None) -> CrossingMatrix:
    """Count pairwise crossings from the geometry alone."""
    return tally_crossings(p, crossing_points(p), lay)


def tally_crossings(
    p: PolylineSet, found: tuple[tuple[str, str, Point], ...], lay: Optional[Layout] = None
) -> CrossingMatrix:
    """Count the crossings ``found`` in ``p``; the witness is the box holding the first."""
    counts: dict[tuple[str, str], int] = {}
    witnesses: dict[tuple[str, str], Optional[str]] = {}
    for a, b, point in found:
        key = (min(a, b), max(a, b))
        counts[key] = counts.get(key, 0) + 1
        if key not in witnesses:
            witnesses[key] = lay.box_of(point) if lay is not None else None
    orbits = tuple(sorted(poly.orbit for poly in p.polylines))
    entries = tuple(PairEntry(a, b, counts[(a, b)], witnesses[(a, b)]) for a, b in sorted(counts))
    return CrossingMatrix(orbits=orbits, entries=entries)


def y_at(poly: Polyline, x: Fraction) -> Fraction:
    """Height of an x-monotone polyline over x; x must lie in its range."""
    pts = poly.points
    if not pts[0][0] <= x <= pts[-1][0]:
        raise FoliageError("coordinate outside trajectory range")
    for p, q in zip(pts, pts[1:]):
        if p[0] <= x <= q[0]:
            if p[0] == q[0]:
                return p[1]
            t = (x - p[0]) / (q[0] - p[0])
            return p[1] + t * (q[1] - p[1])
    raise FoliageError("coordinate outside trajectory range")


def clip_forward(poly: Polyline, x: Fraction) -> tuple[Point, ...]:
    """The part of the polyline with first coordinate at least x."""
    pts = poly.points
    if x <= pts[0][0]:
        return pts
    if x > pts[-1][0]:
        return ()
    out: list[Point] = [(x, y_at(poly, x))]
    for p in pts:
        if p[0] > x:
            out.append(p)
    return tuple(out)


def pieces_disjoint(a: tuple[Point, ...], b: tuple[Point, ...]) -> bool:
    """No shared point between two polyline pieces of different orbits."""
    return next(_meetings((a, b)), None) is None


_PALETTE = (
    "#c0392b",
    "#2980b9",
    "#27ae60",
    "#8e44ad",
    "#d35400",
    "#16a085",
    "#7f8c8d",
    "#f39c12",
    "#2c3e50",
    "#e74c3c",
)


def _fmt(x) -> str:
    return f"{float(x):.6f}"


def emit_svg(lay: Layout, p: PolylineSet, roles: Optional[ReducedStructure] = None) -> str:
    """Deterministic SVG rendering of the layout and trajectories."""
    orbits = sorted(poly.orbit for poly in p.polylines)
    color = {o: _PALETTE[i % len(_PALETTE)] for i, o in enumerate(orbits)}
    x0, y0, x1, y1 = lay.bounds
    legend_lines = []
    if roles is not None:
        for mid, rr in roles.roles:
            legend_lines.append(
                f"{mid}: "
                f"Oα={{{','.join(sorted(rr.alpha))}}} "
                f"Oω={{{','.join(sorted(rr.omega))}}} "
                f"Oin={{{','.join(sorted(rr.incoming))}}} "
                f"Oout={{{','.join(sorted(rr.outgoing))}}}"
            )
    margin = Fraction(1)
    legend_h = Fraction(len(legend_lines)) if legend_lines else Fraction(0)
    vb = (x0 - margin, y0 - margin, (x1 - x0) + 2 * margin, (y1 - y0) + 2 * margin + legend_h)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(vb[0])} {_fmt(vb[1])} {_fmt(vb[2])} {_fmt(vb[3])}" '
        f'width="{_fmt(vb[2] * 40)}" height="{_fmt(vb[3] * 40)}">',
    ]
    for c in lay.corridors:
        pts = " ".join(f"{_fmt(q[0])},{_fmt(q[1])}" for q in c.quad)
        out.append(f'<polygon points="{pts}" fill="#eef3f7" stroke="#9fb3c8" stroke-width="0.02"/>')
    for mid in sorted(lay.boxes):
        b = lay.boxes[mid]
        out.append(
            f'<rect x="{_fmt(b.x0)}" y="{_fmt(b.y0)}" width="{_fmt(b.x1 - b.x0)}" '
            f'height="{_fmt(b.y1 - b.y0)}" fill="#dce8f2" stroke="#3d5a80" stroke-width="0.04"/>'
        )
        size = (b.y1 - b.y0) / 8
        out.append(
            f'<text x="{_fmt((b.x0 + b.x1) / 2)}" y="{_fmt(b.y0 - size / 2)}" '
            f'font-size="{_fmt(size)}" text-anchor="middle" fill="#3d5a80">{mid}</text>'
        )
    for t in lay.ticks:
        dash = ' stroke-dasharray="0.1,0.1"' if t.kind == "fringe" else ""
        out.append(
            f'<line x1="{_fmt(t.x)}" y1="{_fmt(t.y0)}" x2="{_fmt(t.x)}" y2="{_fmt(t.y1)}" '
            f'stroke="#222222" stroke-width="0.03"{dash}/>'
        )
        size = (t.y1 - t.y0) / 4
        out.append(
            f'<text x="{_fmt(t.x)}" y="{_fmt(t.y0 - size / 2)}" font-size="{_fmt(size)}" '
            f'text-anchor="middle" fill="#222222">{t.leaf}</text>'
        )
    for poly in p.polylines:
        d = "M " + " L ".join(f"{_fmt(q[0])} {_fmt(q[1])}" for q in poly.points)
        out.append(f'<path d="{d}" fill="none" stroke="{color[poly.orbit]}" stroke-width="0.06"/>')
        tail = poly.points[-1]
        out.append(
            f'<text x="{_fmt(tail[0] + Fraction(1, 10))}" y="{_fmt(tail[1])}" font-size="0.3" '
            f'fill="{color[poly.orbit]}">{poly.orbit}</text>'
        )
    for a, b, point in crossing_points(p):
        out.append(
            f'<circle cx="{_fmt(point[0])}" cy="{_fmt(point[1])}" r="0.09" '
            f'fill="none" stroke="#111111" stroke-width="0.03"/>'
        )
    for i, line in enumerate(legend_lines):
        out.append(
            f'<text x="{_fmt(x0)}" y="{_fmt(y1 + margin / 2 + i)}" font-size="0.5" '
            f'fill="#111111">{line}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class ChordDiagram:
    """Trajectory ends on the unit circle with one straight chord per orbit."""

    ends: tuple[tuple[str, str], ...]
    points: tuple[tuple[float, float], ...]
    chords: tuple[tuple[str, int, int], ...]
    interleaving: CrossingMatrix


def chord_diagram(b: BoundaryOrder) -> ChordDiagram:
    if not b.ends:
        raise FoliageError("chord diagram requires a non-empty boundary order")
    total = len(b.ends)
    points = tuple(
        (math.cos(2 * math.pi * k / total), math.sin(2 * math.pi * k / total)) for k in range(total)
    )
    position = {end: i for i, end in enumerate(b.ends)}
    orbits = sorted({orbit for orbit, _kind in b.ends})
    chords = tuple((o, position[(o, BACKWARD)], position[(o, FORWARD)]) for o in orbits)
    return ChordDiagram(ends=b.ends, points=points, chords=chords, interleaving=interleaving_matrix(b))


def emit_chord_svg(cd: ChordDiagram) -> str:
    orbits = sorted({orbit for orbit, _kind in cd.ends})
    color = {o: _PALETTE[i % len(_PALETTE)] for i, o in enumerate(orbits)}
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="-1.300000 -1.300000 2.600000 2.600000" width="390.000000" height="390.000000">',
        '<circle cx="0.000000" cy="0.000000" r="1.000000" fill="none" stroke="#555555" stroke-width="0.015"/>',
    ]
    for orbit, i, j in cd.chords:
        xi, yi = cd.points[i]
        xj, yj = cd.points[j]
        out.append(
            f'<line x1="{xi:.6f}" y1="{yi:.6f}" x2="{xj:.6f}" y2="{yj:.6f}" '
            f'stroke="{color[orbit]}" stroke-width="0.025"/>'
        )
    for k, (orbit, kind) in enumerate(cd.ends):
        x, y = cd.points[k]
        out.append(f'<circle cx="{x:.6f}" cy="{y:.6f}" r="0.030" fill="{color[orbit]}"/>')
        mark = "-" if kind == BACKWARD else "+"
        out.append(
            f'<text x="{1.12 * x:.6f}" y="{1.12 * y:.6f}" font-size="0.1" text-anchor="middle" '
            f'fill="{color[orbit]}">{orbit}{mark}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
