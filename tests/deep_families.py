"""Deep forests built in code, shared by the tests.

- ``chain(k)``: k domains in a line, one orbit per link and one through all;
  every edge points the same way, so no subtree pokes back toward its parent.
- ``zigzag(k)``: k domains in a line whose links alternate direction, so
  each domain's two links sit on one of its sides and each subtree pokes
  back toward its parent; two orbits with opposite cuts cross each link.
- ``linked_chain(k, seed)``: the deep benchmark's chain shape, with seeded
  free leaves, link positions, cuts and tie ranks.
- ``caterpillar(k)``: a spine of k domains with a pendant domain on each,
  on alternating sides, so neighbouring short orbits share two domains.
- ``binary(depth)``: a complete binary tree of domains, each internal box
  with both child corridors on one side, so the reduced forest branches.
"""

import random

from foliage.model import Orbit, Scenario, SkeletonDomain


def chain(k):
    """k domains in a line, one orbit per link and one through all of them.

    Each link leaf is crossed by its own orbit and the through orbit, so it
    is critical and the reduced forest is a path of k maximal domains.  Link
    positions alternate by parity, so that some pairs cross.
    """

    def side(i, link, free):
        if link is None:
            return (free,)
        return (free, link) if i % 2 == 0 else (link, free)

    domains = tuple(
        SkeletonDomain(
            id=f"D{i}",
            left=side(i, f"L{i + 1}" if i + 1 < k else None, f"x{i}"),
            right=side(i, f"L{i}" if i else None, f"y{i}"),
        )
        for i in range(k)
    )
    paths = [(f"D{i - 1}", f"L{i}", f"D{i}") for i in range(1, k)]
    paths.append(tuple(name for i in range(k) for name in ((f"L{i}",) if i else ()) + (f"D{i}",)))
    orbits = tuple(
        Orbit(id=f"O{n}", path=path, entry_cut=1, exit_cut=1, tie_rank=n) for n, path in enumerate(paths)
    )
    return Scenario(domains=domains, orbits=orbits)


def zigzag(k):
    """Domains ``D0..D(k-1)`` (k >= 2) and link leaf ``Mi`` between ``Di`` and
    ``D(i+1)``.  Even links lead from ``Di`` to ``D(i+1)``, odd links back,
    so ``D(i+1)`` hangs off the side of ``Di`` that ``D(i-1)`` hangs off.
    Each domain also has a free leaf at the top of each side.  Link ``i`` is
    crossed by ``P<i>`` (entry cut 0, exit cut 1) and ``Q<i>`` (entry cut 1,
    exit cut 0), which cross each other; every link is critical.
    """
    left: list[list[str]] = [[f"x{i}"] for i in range(k)]
    right: list[list[str]] = [[f"y{i}"] for i in range(k)]
    paths = []
    for i in range(k - 1):
        a, b = (i, i + 1) if i % 2 == 0 else (i + 1, i)
        left[a].append(f"M{i}")
        right[b].append(f"M{i}")
        paths.append((i, (f"D{a}", f"M{i}", f"D{b}")))
    domains = tuple(SkeletonDomain(id=f"D{i}", left=tuple(left[i]), right=tuple(right[i])) for i in range(k))
    orbits = tuple(
        Orbit(id=f"{name}{i}", path=path, entry_cut=cut, exit_cut=1 - cut, tie_rank=2 * i + cut)
        for i, path in paths
        for name, cut in (("P", 0), ("Q", 1))
    )
    return Scenario(domains=domains, orbits=orbits)


def linked_chain(k, seed):
    """k domains in a line, one short orbit per link and one through all, as
    the deep benchmark builds them: link leaf ``L<i>`` joins ``D<i-1>`` (left
    side) to ``D<i>`` (right side), every domain gets up to two free leaves
    per side, and the link positions, cuts and tie ranks (a permutation, so
    no two orbits tie) are drawn from ``seed``.
    """
    rng = random.Random(seed)
    left: list[list[str]] = [[] for _ in range(k)]
    right: list[list[str]] = [[] for _ in range(k)]
    free = 0
    for i in range(k):
        for side in (left[i], right[i]):
            for _ in range(rng.randrange(3)):
                free += 1
                side.insert(rng.randrange(len(side) + 1), f"x{free}")
    for i in range(1, k):
        left[i - 1].insert(rng.randrange(len(left[i - 1]) + 1), f"L{i}")
        right[i].insert(rng.randrange(len(right[i]) + 1), f"L{i}")
    domains = tuple(SkeletonDomain(id=f"D{i}", left=tuple(left[i]), right=tuple(right[i])) for i in range(k))
    paths = [((i - 1, i), (f"D{i - 1}", f"L{i}", f"D{i}")) for i in range(1, k)]
    paths.append(((0, k - 1), tuple(name for i in range(k) for name in ((f"L{i}",) if i else ()) + (f"D{i}",))))
    ranks = rng.sample(range(len(paths)), len(paths))
    orbits = tuple(
        Orbit(
            id=f"O{n}",
            path=path,
            entry_cut=rng.randrange(len(right[first]) + 1),
            exit_cut=rng.randrange(len(left[last]) + 1),
            tie_rank=ranks[n],
        )
        for n, ((first, last), path) in enumerate(paths)
    )
    return Scenario(domains=domains, orbits=orbits)


def caterpillar(k):
    """A spine ``S0..S(k-1)`` linked as ``chain`` links its domains (leaf
    ``L<i>`` leads from ``S(i-1)`` to ``Si``) and a pendant domain ``Pi`` on
    each ``Si``, on alternating sides: leaf ``Ki`` leads from ``Si`` out to
    ``Pi`` for even i and from ``Pi`` in to ``Si`` for odd i.  Every domain
    has a free leaf on each side, and each side's list is reversed on odd
    spine domains.  One orbit runs the spine; the orbit of pendant i runs
    ``S(i-1), Si, Pi`` for even i and ``Pi, Si, S(i+1)`` for odd i (cut
    short at the spine's ends), so the orbits of pendants 2j-1 and 2j share
    ``S(2j-1), S(2j)`` with each other and the spine orbit.
    """

    def side(i, free, *links):
        leaves = (free, *(leaf for leaf in links if leaf))
        return leaves[::-1] if i % 2 else leaves

    even = [i % 2 == 0 for i in range(k)]
    domains = tuple(
        SkeletonDomain(
            id=f"S{i}",
            left=side(i, f"x{i}", f"L{i + 1}" if i + 1 < k else None, f"K{i}" if even[i] else None),
            right=side(i, f"y{i}", f"L{i}" if i else None, None if even[i] else f"K{i}"),
        )
        for i in range(k)
    ) + tuple(
        SkeletonDomain(
            id=f"P{i}",
            left=(f"u{i}",) if even[i] else (f"u{i}", f"K{i}"),
            right=(f"K{i}", f"v{i}") if even[i] else (f"v{i}",),
        )
        for i in range(k)
    )
    paths = [tuple(name for i in range(k) for name in ((f"L{i}",) if i else ()) + (f"S{i}",))]
    for i in range(k):
        if even[i]:
            paths.append((*((f"S{i - 1}", f"L{i}") if i else ()), f"S{i}", f"K{i}", f"P{i}"))
        else:
            paths.append((f"P{i}", f"K{i}", f"S{i}", *((f"L{i + 1}", f"S{i + 1}") if i + 1 < k else ())))
    orbits = tuple(
        Orbit(id=f"O{n}", path=path, entry_cut=n % 2, exit_cut=(n + 1) % 2, tie_rank=n)
        for n, path in enumerate(paths)
    )
    return Scenario(domains=domains, orbits=orbits)


def binary(depth):
    """A complete binary tree of ``2**depth - 1`` domains (depth >= 1).

    Domain ``D<bits>`` sits at the end of the root-to-node path ``bits``
    (``D`` is the root); leaf ``L<bits>`` leads from its parent's left side
    to its own right side, both children's links on the parent's left side
    and in reverse order on odd levels.  Every domain has a free leaf on
    each side.  One short orbit ``E<bits>`` crosses each link, and one
    orbit ``R<bits>`` runs from the root to each leaf domain, so a link
    carries fewer orbits than its parent domain and no link merges.
    """
    nodes = [""]
    for level in range(1, depth):
        nodes += [bits + c for bits in nodes if len(bits) == level - 1 for c in "01"]
    domains = []
    for bits in nodes:
        links = (f"L{bits}0", f"L{bits}1") if len(bits) + 1 < depth else ()
        links = links[::-1] if len(bits) % 2 else links
        domains.append(
            SkeletonDomain(
                id=f"D{bits}",
                left=(f"x{bits}", *links),
                right=(f"L{bits}", f"y{bits}") if bits else (f"y{bits}",),
            )
        )
    paths = [(f"E{bits}", (f"D{bits[:-1]}", f"L{bits}", f"D{bits}")) for bits in nodes if bits]
    for bits in nodes:
        if len(bits) + 1 == depth:
            route = ("D",) + tuple(name for i in range(1, depth) for name in (f"L{bits[:i]}", f"D{bits[:i]}"))
            paths.append((f"R{bits}", route))
    orbits = tuple(
        Orbit(id=oid, path=path, entry_cut=n % 2, exit_cut=(n + 1) % 2, tie_rank=n)
        for n, (oid, path) in enumerate(paths)
    )
    return Scenario(domains=tuple(domains), orbits=orbits)
