"""Exact-rational planar realization and the independent crossing oracle.

Boxes are axis-aligned rectangles, one per maximal domain, with entry ports
on the west side and exit ports on the east side at unit spacing (port 0 on
top; the transverse order increases downward).  Every neighbour of a box
hangs off the port run of its shared leaf, shrunk so that its whole subtree
fits inside the horizontal band owned by that run, and the corridor is a
single quadrilateral across the gap between the two box sides.  The gap of
each corridor is sized so that its slanted walls clear every piece of
subtree content that pokes back toward the parent.  Each box's subtree is
built in the box's own local frame, on ints: the box's own points over one
unit per box, each corridor over one unit per child, and the frame's bounds
over one gcd-reduced denominator.  Each child keeps one map ``(f, dx, dy)``
into its parent's frame, as ints over one denominator; the maps are
composed top-down once the forest has been walked, and every point is
mapped once, to an int over one page denominator.  That integer form is
the layout's only form, and what ``route``, the crossing oracle, the
checks and ``emit_svg`` read, so the predicates are exact by construction
(Yap 1997).  ``route`` hands each trajectory over in the same form, its
only one.  Each crossing point is an int triple ``(x, y, d)`` for
``(x/d, y/d)``, and ``box_of`` takes one.  ``fractions.Fraction`` remains
only in ``Polyline.points``, a view of a polyline's ints in ``Fraction``s,
built on first read.

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
    SideItem,
    all_port_plans,
    run_nested,
)

IntPoint = tuple[int, int]

BOX_WIDTH = 4


class DegeneracyError(FoliageError):
    """Two trajectories touch or overlap instead of crossing transversally."""


@dataclass(frozen=True)
class BoxRect:
    x0: int
    y0: int
    x1: int
    y1: int


@dataclass(frozen=True)
class Corridor:
    """Quadrilateral channel of one forest edge, upstream side first."""

    edge: tuple[str, str, str]
    quad: tuple[IntPoint, IntPoint, IntPoint, IntPoint]  # up-top, up-bottom, down-bottom, down-top


@dataclass(frozen=True)
class Tick:
    leaf: str
    kind: str  # "critical" | "internal" | "fringe"
    x: int
    y0: int
    y1: int


@dataclass(frozen=True)
class Layout:
    """The placed boxes, corridors, ports, whiskers and ticks, with every
    coordinate an int over the one page denominator ``den``."""

    boxes: dict[str, BoxRect]
    corridors: tuple[Corridor, ...]
    entry_ports: dict[tuple[str, str], IntPoint]
    exit_ports: dict[tuple[str, str], IntPoint]
    back_whiskers: dict[str, IntPoint]
    fwd_whiskers: dict[str, IntPoint]
    ticks: tuple[Tick, ...]
    bounds: tuple[int, int, int, int]
    den: int

    @functools.cached_property
    def _tick_at(self) -> dict[str, Tick]:
        # Reversed, so that the first tick of a leaf is the one kept.
        return {t.leaf: t for t in reversed(self.ticks) if t.kind in ("critical", "internal")}

    def tick_for(self, leaf: str) -> Optional[Tick]:
        """The first critical or internal tick drawn for the leaf."""
        return self._tick_at.get(leaf)

    @functools.cached_property
    def _boxes_by_x0(self) -> tuple[list[int], list[int], list[tuple[int, str]]]:
        """The boxes sorted by ``(x0, position in boxes)``: their ``x0``s,
        the running maximum of their ``x1``s, and ``(position, id)``."""
        boxes = self.boxes
        ranked = sorted((box.x0, k, mid) for k, (mid, box) in enumerate(boxes.items()))
        reach = itertools.accumulate((boxes[mid].x1 for _x0, _k, mid in ranked), max)
        return [x0 for x0, _k, _mid in ranked], list(reach), [(k, mid) for _x0, k, mid in ranked]

    def box_of(self, p: tuple[int, int, int]) -> Optional[str]:
        """The first box, in ``boxes`` order, whose interior holds the point
        ``(x/d, y/d)`` of the triple ``p = (x, y, d)``, ``d > 0``."""
        starts, reach, ranked = self._boxes_by_x0
        boxes = self.boxes
        # The point's coordinates times den, against the boxes' times d.
        x, y, d = p[0] * self.den, p[1] * self.den, p[2]
        found = None
        # Boxes at i and after start at or right of p; walk left while some
        # box at or before i - 1 still reaches past p.
        i = bisect.bisect_left(starts, x, key=lambda x0: x0 * d)
        while i > 0 and reach[i - 1] * d > x:
            i -= 1
            b = boxes[ranked[i][1]]
            if b.x0 * d < x < b.x1 * d and b.y0 * d < y < b.y1 * d and (found is None or ranked[i] < found):
                found = ranked[i]
        return found[1] if found is not None else None


@dataclass(frozen=True)
class Polyline:
    """One orbit's trajectory in the integer form: ``scaled``, its points
    as ints over ``den``."""

    orbit: str
    scaled: tuple[IntPoint, ...]
    den: int

    @functools.cached_property
    def points(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The points as ``Fraction``s, built on first read."""
        den = self.den
        return tuple((Fraction(x, den), Fraction(y, den)) for x, y in self.scaled)


@dataclass(frozen=True)
class PolylineSet:
    """The trajectories, and in ``scaled`` all their points as ints over one
    denominator ``den``: the polylines' own when they share it, as those of
    ``route`` do, or else rescaled to the least common one."""

    polylines: tuple[Polyline, ...]
    _by_orbit: dict[str, Polyline] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        den = math.lcm(*(p.den for p in self.polylines))
        scaled = tuple(
            p.scaled if p.den == den else tuple((x * (den // p.den), y * (den // p.den)) for x, y in p.scaled)
            for p in self.polylines
        )
        self.__dict__.update(_by_orbit={p.orbit: p for p in self.polylines}, den=den, scaled=scaled)

    def by_orbit(self, orbit: str) -> Polyline:
        try:
            return self._by_orbit[orbit]
        except KeyError:
            raise FoliageError(f"no polyline for orbit {orbit!r}") from None


@dataclass(eq=False)
class _Frame:
    """One box and its subtree, in the box's own coordinates.

    The box's own points are ints over ``unit``.  ``bounds`` is the hull of
    the subtree's boxes and whisker tips, as ints ``(x0, y0, x1, y1, d)``
    over ``d``.  ``place`` is the map into the parent frame and ``page``,
    once composed, the map into the page, both as ints ``(f, dx, dy, d)``
    for ``p -> (f·p + (dx, dy))/d``.  ``connect`` is the port run of the
    corridor to the parent, on the side at ``connect_x``.
    """

    parent: Optional["_Frame"]
    unit: int
    bounds: tuple[int, int, int, int, int] = ()
    place: tuple[int, int, int, int] = ()
    page: tuple[int, int, int, int] = ()
    connect_x: int = 0
    connect: Optional[SideItem] = None


def _compose(outer: tuple[int, int, int, int], place: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """The integer map ``outer`` after the map ``place``, gcd-reduced."""
    f, dx, dy, d = place
    of, odx, ody, od = outer
    f, dx, dy, d = of * f, of * dx + odx * d, of * dy + ody * d, od * d
    g = math.gcd(f, dx, dy, d)
    return f // g, dx // g, dy // g, d // g


def _hull(a: tuple, b: tuple) -> tuple[int, int, int, int, int]:
    """The hull of two boxes ``(x0, y0, x1, y1, d)`` of ints over d, over the LCM of their ds."""
    d = math.lcm(a[4], b[4])
    (ax0, ay0, ax1, ay1), (bx0, by0, bx1, by1) = ([v * (d // t[4]) for v in t[:4]] for t in (a, b))
    return min(ax0, bx0), min(ay0, by0), max(ax1, bx1), max(ay1, by1), d


def layout(s: Scenario, r: ReducedStructure) -> Layout:
    """Deterministic nested embedding of the reduced forest.

    Each box's subtree is built in the box's own frame, which keeps only its
    bounds and, per child, the child's map into it.  A tree starts at each
    box id, in sorted order, that no earlier tree placed.  When the walk
    ends the maps are composed top-down and every point is placed once.
    """
    plans = all_port_plans(s)
    edge_by_leaf = {leaf: (a, leaf, b) for a, leaf, b in r.forest_edges}
    # Everything drawn, in local coordinates over a unit of its frame, in the order the layout lists it.
    boxes: list[tuple[_Frame, str]] = []
    ticks: list[Optional[tuple[_Frame, int, Tick]]] = []
    whiskers: dict[str, list[tuple[_Frame, str, tuple[int, int]]]] = {"entry": [], "exit": []}
    corridors: list[tuple[_Frame, int, Corridor]] = []
    placed: set[str] = set()

    def build(mid: str, parent_leaf: Optional[str], parent: Optional[_Frame]):
        placed.add(mid)
        m = r.maxdomain(mid)
        plan = plans[mid]
        height = len(plan.entry_seq) + 2
        chain_len = len(m.chain)
        # Quarters, halves, internal ticks at 4j/chain_len and fringe ticks
        # at height·(pos + 1)/(count + 1) are all multiples of 1/u.
        u = 4 * math.lcm(chain_len, len(m.right) + 1, len(m.left) + 1)
        q = u // 4
        frame = _Frame(parent, u)
        boxes.append((frame, mid))
        bounds = (0, 0, BOX_WIDTH * u, height * u, u)

        for j, leaf in enumerate(m.internal, start=1):
            ticks.append((frame, u, Tick(leaf, "internal", BOX_WIDTH * j * u // chain_len, q, height * u - q)))

        sides = (
            ("entry", plan.entry_items, 0, -1, -2 * q),
            ("exit", plan.exit_items, BOX_WIDTH, 1, BOX_WIDTH * u + 2 * q),
        )
        corridor_leaves = set()
        for side, items, side_x, direction, tip_x in sides:
            for item in items:
                lo, hi = item.lo, item.hi
                if item.leaf is None:
                    tip = (tip_x, (lo + 1) * u)
                    whiskers[side].append((frame, item.orbits[0], tip))
                    bounds = _hull(bounds, tip + tip + (u,))
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
                bx0, by0, bx1, by1, cd = child.bounds
                cx, top, bot = child.connect_x, child.connect.lo + 1, child.connect.hi + 1
                # The scale f = fn/fd = min(1, half/(above + span/2), half/(below + span/2)),
                # half = (2·span + 1)/4, with the child's reach above its top port and below its bottom one.
                fn = (2 * span + 1) * cd
                fd = max(fn, 2 * (2 * (top * cd - by0) + span * cd), 2 * (2 * (by1 - bot * cd) + span * cd))
                g = math.gcd(fn, fd)
                fn, fd = fn // g, fd // g
                # The gap is (2·span + 1) times how far the subtree reaches back
                # past its own connecting side, plus one; tx is target_x over cd.
                overhang = -bx0 if cx == 0 else bx1 - cx * cd
                tx = side_x * cd + direction * ((2 * span + 1) * overhang + cd)
                ey = 4 * fd * (lo + 1) + 2 * span * (fd - fn) - 4 * fn * top  # dy over 4·fd
                fx, dx, dy = 4 * fn, 4 * (tx * fd - fn * cx * cd), cd * ey  # over 4·cd·fd, f times cd
                child.place = (fx * cd, dx, dy, 4 * cd * fd)
                bounds = _hull(bounds, (fx * bx0 + dx, fx * by0 + dy, fx * bx1 + dx, fx * by1 + dy, 4 * cd * fd))
                # Both sides' x and port intervals, and the critical tick on the
                # midpoints, over w; then reduced by one gcd.
                w = 16 * cd * fd
                ends = [
                    (16 * fd * tx, 4 * cd * (4 * fn * top + ey - fn), 4 * cd * (4 * fn * bot + ey + fn)),
                    (16 * fd * cd * side_x, 4 * cd * fd * (4 * lo + 3), 4 * cd * fd * (4 * hi + 5)),
                ]  # the child's side and the parent's: x, then the port interval
                (ux, u0, u1), (vx, v0, v1) = ends if side == "entry" else ends[::-1]
                quad = (ux, u0, ux, u1, vx, v1, vx, v0)
                centre = ((ux + vx) // 2, (u0 + v0) // 2, (u1 + v1) // 2)
                g = math.gcd(w, *quad, *centre)
                quad = tuple(v // g for v in quad)
                corridor = Corridor(edge_by_leaf[item.leaf], tuple(zip(quad[::2], quad[1::2])))
                corridors.append((frame, w // g, corridor))
                ticks[slot] = (frame, w // g, Tick(item.leaf, "critical", *(v // g for v in centre)))

        # Decorative ticks for boundary leaves with no corridor of their own.
        for side_x, leaves in ((0, m.right), (BOX_WIDTH, m.left)):
            for pos, leaf in enumerate(leaves):
                if leaf not in corridor_leaves:
                    y = height * (pos + 1) * u // (len(leaves) + 1)
                    ticks.append((frame, u, Tick(leaf, "fringe", side_x * u, y - q, y + q)))
        g = math.gcd(*bounds)
        frame.bounds = tuple(v // g for v in bounds)
        return frame

    roots = [run_nested(build(mid, None, None)) for mid in sorted(m.id for m in r.maxdomains) if mid not in placed]
    if not roots:
        raise FoliageError("layout requires a non-empty forest")
    # The trees side by side, two units apart, top edges on y = 0; the next
    # tree's left edge is at cursor/cd.
    cursor, cd = 0, 1
    for root in roots:
        x0, y0, x1, _y1, d = root.bounds
        root.place = (d * cd, cursor * d - x0 * cd, -y0 * cd, d * cd)
        cursor, cd = cursor * d + (x1 - x0 + 2 * d) * cd, cd * d
        g = math.gcd(cursor, cd)
        cursor, cd = cursor // g, cd // g
    for frame, _mid in boxes:  # every parent comes before its children
        frame.page = _compose(frame.parent.page if frame.parent is not None else (1, 0, 0, 1), frame.place)

    # One page denominator over every unit of every frame; then each point is
    # placed by one multiply and add per coordinate.
    units = {(frame, frame.unit) for frame, _mid in boxes} | {(frame, w) for frame, w, _c in corridors}
    den = math.lcm(*{frame.page[3] * w for frame, w in units})
    maps = {}
    for frame, w in units:
        f, dx, dy, d = frame.page
        k = den // (d * w)
        maps[frame, w] = (f * k, dx * w * k, dy * w * k)

    def place(frame: _Frame, w: int, x: int, *ys: int) -> tuple[int, ...]:
        a, bx, by = maps[frame, w]
        return (a * x + bx, *(a * y + by for y in ys))

    placed_boxes = []
    entry_ports: dict[tuple[str, str], IntPoint] = {}
    exit_ports: dict[tuple[str, str], IntPoint] = {}
    for frame, mid in boxes:
        plan = plans[mid]
        a, x0, y0 = maps[frame, frame.unit]
        # Both sides carry the same orbits, so port i has one height on either side.
        step = a * frame.unit
        x1, ys = x0 + BOX_WIDTH * step, [y0 + i * step for i in range(len(plan.entry_seq) + 3)]
        placed_boxes.append((mid, BoxRect(x0, ys[0], x1, ys[-1])))
        entry_ports.update({(mid, orbit): (x0, ys[i + 1]) for i, orbit in enumerate(plan.entry_seq)})
        exit_ports.update({(mid, orbit): (x1, ys[i + 1]) for i, orbit in enumerate(plan.exit_seq)})
    fwd_whiskers = {orbit: place(frame, frame.unit, *tip) for frame, orbit, tip in whiskers["exit"]}
    right = max([b.x1 for _mid, b in placed_boxes] + [x for x, _y in fwd_whiskers.values()])
    placed_corridors = (Corridor(c.edge, tuple(place(frame, w, *p) for p in c.quad)) for frame, w, c in corridors)
    return Layout(
        boxes=dict(sorted(placed_boxes)),
        corridors=tuple(sorted(placed_corridors, key=lambda c: c.edge)),
        entry_ports=entry_ports,
        exit_ports=exit_ports,
        back_whiskers={orbit: place(frame, frame.unit, *tip) for frame, orbit, tip in whiskers["entry"]},
        fwd_whiskers=fwd_whiskers,
        ticks=tuple(Tick(t.leaf, t.kind, *place(frame, w, t.x, t.y0, t.y1)) for frame, w, t in ticks),
        # The hull of the boxes and whisker tips: only forward whiskers reach
        # past the boxes to the right, and none reaches below its box.
        bounds=(0, 0, right, max(b.y1 for _mid, b in placed_boxes)),
        den=den,
    )


def route(s: Scenario, r: ReducedStructure, lay: Layout) -> PolylineSet:
    """Assemble one x-monotone polyline per orbit through the layout, in its integer form."""
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
        points = [lay.back_whiskers[oid]]
        for mid in mids:
            points.append(lay.entry_ports[(mid, oid)])
            points.append(lay.exit_ports[(mid, oid)])
        points.append(lay.fwd_whiskers[oid])
        polylines.append(Polyline(oid, tuple(points), lay.den))
    return PolylineSet(polylines=tuple(polylines))


def _orient(p: IntPoint, q: IntPoint, r_: IntPoint) -> int:
    return (q[0] - p[0]) * (r_[1] - p[1]) - (q[1] - p[1]) * (r_[0] - p[0])


def _in_bounds(t: IntPoint, p: IntPoint, q: IntPoint) -> bool:
    """t lies in the bounding box of segment pq."""
    return min(p[0], q[0]) <= t[0] <= max(p[0], q[0]) and min(p[1], q[1]) <= t[1] <= max(p[1], q[1])


def segment_relation(p1: IntPoint, p2: IntPoint, q1: IntPoint, q2: IntPoint, den: int = 1):
    """Classify two segments: ("cross", (x, y, d)), ("touch", None) or ("none", None).

    ``o1``, ``o2`` are the orientations of q1, q2 against p1p2 and ``o3``,
    ``o4`` those of p1, p2 against q1q2.  A proper crossing needs strict
    opposite signs on both sides.  Otherwise the segments touch exactly when
    some endpoint with orientation 0 lies within the other segment's bounds
    (Shewchuk 1997).  The points are ints, their coordinates times ``den``,
    and the crossing point ``q1 + o1·(q2 − q1)/(o1 − o2)``, divided by
    ``den``, is the int triple ``(x, y, d)`` for ``(x/d, y/d)``: ``d`` is
    ``|o1 − o2|·den > 0``, and no gcd is taken."""
    o1, o2 = _orient(p1, p2, q1), _orient(p1, p2, q2)
    o3, o4 = _orient(q1, q2, p1), _orient(q1, q2, p2)
    if (o1 > 0 > o2 or o1 < 0 < o2) and (o3 > 0 > o4 or o3 < 0 < o4):
        # o1 and o2 have opposite signs, so o1/(o1 − o2) is |o1|/|o1 − o2|.
        t, d = abs(o1), abs(o1 - o2)
        return "cross", (q1[0] * d + t * (q2[0] - q1[0]), q1[1] * d + t * (q2[1] - q1[1]), d * den)
    if (
        (o1 == 0 and _in_bounds(q1, p1, p2))
        or (o2 == 0 and _in_bounds(q2, p1, p2))
        or (o3 == 0 and _in_bounds(p1, q1, q2))
        or (o4 == 0 and _in_bounds(p2, q1, q2))
    ):
        return "touch", None
    return "none", None


def _meetings(pieces: tuple[tuple[tuple[int, int], ...], ...], den: int = 1):
    """``(i, j, k, l, kind, point)`` for every segment ``k`` of piece ``i``
    and segment ``l`` of piece ``j > i`` that meet, in no set order.

    The pieces' points are ints, their coordinates times ``den``, so the
    predicates are exact by construction (Yap 1997), and each crossing
    point is an int triple ``(x, y, d)`` with ``den`` folded into ``d``.
    Then an x-sweep (Shamos–Hoey 1976; Bentley–Ottmann 1979): the segments
    are visited by their left end, and a heap keyed by the right end holds
    the segments whose closed x-span still reaches the one visited.  Of
    those, only segments of other pieces whose closed y-span also overlaps
    are classified, by ``segment_relation``.  Two segments can share a
    point only inside both their closed boxes, so no meeting is missed; the
    pairs come from the segments' own coordinates alone."""
    segments = []
    for i, piece in enumerate(pieces):
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
                a, b = pieces[i1], pieces[j1]
                kind, point = segment_relation(a[k1], a[k1 + 1], b[l1], b[l1 + 1], den)
                if kind != "none":
                    yield i1, j1, k1, l1, kind, point
        heapq.heappush(active, (x1, i, k, y0, y1))


def crossing_points(p: PolylineSet) -> tuple[tuple[str, str, tuple[int, int, int]], ...]:
    """Every pairwise transversal intersection, polyline i < j, then i's
    segment, then j's, as ``(a, b, (x, y, d))`` for the point ``(x/d, y/d)``;
    touching is an error, raised at the first touch."""
    polys = p.polylines
    found = []
    for i, j, _k, _l, kind, point in sorted(_meetings(p.scaled, p.den)):
        if kind == "touch":
            raise DegeneracyError(f"trajectories {polys[i].orbit!r} and {polys[j].orbit!r} touch without crossing")
        found.append((polys[i].orbit, polys[j].orbit, point))
    return tuple(found)


def exact_crossings(p: PolylineSet, lay: Optional[Layout] = None) -> CrossingMatrix:
    """Count pairwise crossings from the geometry alone."""
    return tally_crossings(p, crossing_points(p), lay)


def tally_crossings(
    p: PolylineSet, found: tuple[tuple[str, str, tuple[int, int, int]], ...], lay: Optional[Layout] = None
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


def _height(pts: tuple[IntPoint, ...], x: int) -> tuple[int, int]:
    """The height over x of an x-monotone polyline of int points, as
    ``(n, k)`` for ``n/k`` with ``k > 0``."""
    if not pts[0][0] <= x <= pts[-1][0]:
        raise FoliageError("coordinate outside trajectory range")
    for (px, py), (qx, qy) in zip(pts, pts[1:]):
        if px <= x <= qx:
            k = max(qx - px, 1)  # at a vertical step x is px, and the height py
            return py * k + (x - px) * (qy - py), k
    raise FoliageError("coordinate outside trajectory range")


def height_order(a: Polyline, b: Polyline, x: int) -> int:
    """The sign of a's height minus b's over x, an int over their shared ``den``."""
    (na, ka), (nb, kb) = _height(a.scaled, x), _height(b.scaled, x)
    return (na * kb > nb * ka) - (na * kb < nb * ka)


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


def _escape(text: str) -> str:
    """Text with ``&``, ``<`` and ``>`` written as XML entities."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(n: int, d: int) -> str:
    """``n/d`` to six decimals: int true division rounds correctly, as ``float(Fraction(n, d))`` does.
    A value past the float range raises FoliageError."""
    try:
        return f"{n / d:.6f}"
    except OverflowError:
        raise FoliageError(f"SVG coordinate past the float range (about 2^{n.bit_length() - d.bit_length()})") from None


def emit_svg(lay: Layout, p: PolylineSet, roles: Optional[ReducedStructure] = None) -> str:
    """Deterministic SVG rendering of the layout and trajectories, formatted from
    their integer forms as ints over a multiple of ``lay.den`` or ``p.den``."""
    orbits = sorted(poly.orbit for poly in p.polylines)
    color = {o: _PALETTE[i % len(_PALETTE)] for i, o in enumerate(orbits)}
    den = lay.den
    x0, y0, x1, y1 = lay.bounds
    legend_lines = []
    if roles is not None:
        for m in roles.maxdomains:
            legend_lines.append(
                f"{m.id}: "
                f"Oα={{{','.join(sorted(m.alpha))}}} "
                f"Oω={{{','.join(sorted(m.omega))}}} "
                f"Oin={{{','.join(sorted(m.incoming))}}} "
                f"Oout={{{','.join(sorted(m.outgoing))}}}"
            )
    # A margin of one unit on every side, and one more unit per legend line below.
    w, h = x1 - x0 + 2 * den, y1 - y0 + (2 + len(legend_lines)) * den
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(x0 - den, den)} {_fmt(y0 - den, den)} {_fmt(w, den)} {_fmt(h, den)}" '
        f'width="{_fmt(w * 40, den)}" height="{_fmt(h * 40, den)}">',
    ]
    for c in lay.corridors:
        pts = " ".join(f"{_fmt(x, den)},{_fmt(y, den)}" for x, y in c.quad)
        out.append(f'<polygon points="{pts}" fill="#eef3f7" stroke="#9fb3c8" stroke-width="0.02"/>')
    for mid in sorted(lay.boxes):
        b = lay.boxes[mid]
        out.append(
            f'<rect x="{_fmt(b.x0, den)}" y="{_fmt(b.y0, den)}" width="{_fmt(b.x1 - b.x0, den)}" '
            f'height="{_fmt(b.y1 - b.y0, den)}" fill="#dce8f2" stroke="#3d5a80" stroke-width="0.04"/>'
        )
        # The label's font is an eighth of the box's height, its baseline half that above the box.
        out.append(
            f'<text x="{_fmt(b.x0 + b.x1, 2 * den)}" y="{_fmt(16 * b.y0 - (b.y1 - b.y0), 16 * den)}" '
            f'font-size="{_fmt(b.y1 - b.y0, 8 * den)}" text-anchor="middle" fill="#3d5a80">{_escape(mid)}</text>'
        )
    for t in lay.ticks:
        dash = ' stroke-dasharray="0.1,0.1"' if t.kind == "fringe" else ""
        out.append(
            f'<line x1="{_fmt(t.x, den)}" y1="{_fmt(t.y0, den)}" x2="{_fmt(t.x, den)}" y2="{_fmt(t.y1, den)}" '
            f'stroke="#222222" stroke-width="0.03"{dash}/>'
        )
        # The label's font is a quarter of the tick's length, its baseline half that above the tick.
        out.append(
            f'<text x="{_fmt(t.x, den)}" y="{_fmt(8 * t.y0 - (t.y1 - t.y0), 8 * den)}" '
            f'font-size="{_fmt(t.y1 - t.y0, 4 * den)}" text-anchor="middle" fill="#222222">{_escape(t.leaf)}</text>'
        )
    for poly, pts in zip(p.polylines, p.scaled):
        d = "M " + " L ".join(f"{_fmt(x, p.den)} {_fmt(y, p.den)}" for x, y in pts)
        out.append(f'<path d="{d}" fill="none" stroke="{color[poly.orbit]}" stroke-width="0.06"/>')
        tx, ty = pts[-1]
        out.append(
            f'<text x="{_fmt(10 * tx + p.den, 10 * p.den)}" y="{_fmt(ty, p.den)}" font-size="0.3" '
            f'fill="{color[poly.orbit]}">{_escape(poly.orbit)}</text>'
        )
    for _a, _b, (cx, cy, cd) in crossing_points(p):
        out.append(
            f'<circle cx="{_fmt(cx, cd)}" cy="{_fmt(cy, cd)}" r="0.09" '
            f'fill="none" stroke="#111111" stroke-width="0.03"/>'
        )
    for i, line in enumerate(legend_lines):
        out.append(
            f'<text x="{_fmt(x0, den)}" y="{_fmt(2 * y1 + (2 * i + 1) * den, 2 * den)}" font-size="0.5" '
            f'fill="#111111">{_escape(line)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class ChordDiagram:
    """Trajectory ends on the unit circle with one straight chord per orbit."""

    ends: tuple[tuple[str, str], ...]
    points: tuple[tuple[float, float], ...]
    chords: tuple[tuple[str, int, int], ...]


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
    return ChordDiagram(ends=b.ends, points=points, chords=chords)


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
            f'fill="{color[orbit]}">{_escape(orbit)}{mark}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
