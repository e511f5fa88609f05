"""Scenario data model: parsing, validation and canonical emission.

A scenario is a finite skeleton forest of leaf domains together with a set
of orbits.  Each domain carries two boundary lists, ``left`` and ``right``,
holding the named boundary leaves in ascending transverse order (index 0 is
the minimum).  A leaf appearing in the ``left`` list of one domain and the
``right`` list of another induces a directed edge between the two domains;
orbits are directed paths in that forest, decorated with an entry cut, an
exit cut and a tie rank.

:func:`validate` checks a scenario and builds its :class:`ScenarioIndex` in
one walk; a scenario is valid exactly when it holds an index, and everything
downstream reads scenarios through :func:`index`.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from importlib import resources
from itertools import repeat
from json.encoder import encode_basestring, encode_basestring_ascii
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:
    from .decompose import ReducedStructure
    from .realize import PortPlan
    from .relations import PairRelations


class FoliageError(Exception):
    """Base class for all errors raised by this package."""


class ScenarioParseError(FoliageError):
    """Raised when a scenario document cannot be parsed."""

    def __init__(self, message: str, line: Optional[int] = None, column: Optional[int] = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class InvalidScenarioError(FoliageError):
    """Raised when an operation requires a valid scenario but validation failed."""

    def __init__(self, report: "ValidationReport"):
        lines = "; ".join(f.message for f in report.findings)
        super().__init__(f"invalid scenario: {lines}")
        self.report = report


@dataclass(frozen=True)
class SkeletonDomain:
    """One leaf domain of the skeleton, with ordered boundary lists."""

    id: str
    left: tuple[str, ...] = ()
    right: tuple[str, ...] = ()


@dataclass(frozen=True)
class Orbit:
    """An orbit: a directed domain/leaf path plus cut data.

    ``path`` alternates domain ids (even positions) and crossing-leaf ids
    (odd positions) and has odd length.  ``entry_cut`` splits the right
    list of the first domain, ``exit_cut`` the left list of the last one;
    the prefix before the cut is the top part.  ``tie_rank`` breaks ties
    between orbits that are equivalent in both directions.
    """

    id: str
    path: tuple[str, ...]
    entry_cut: int = 0
    exit_cut: int = 0
    tie_rank: int = 0

    @property
    def domains(self) -> tuple[str, ...]:
        return self.path[0::2]

    @property
    def crossings(self) -> tuple[str, ...]:
        return self.path[1::2]

    @property
    def alpha(self) -> str:
        return self.path[0]

    @property
    def omega(self) -> str:
        return self.path[-1]


@dataclass(frozen=True)
class Scenario:
    """A skeleton forest and its orbits.

    Hash and equality use ``domains`` and ``orbits`` only.  The private
    ``_index`` holds everything derived from them: :func:`validate` sets it
    once per object, when it finds nothing, so a scenario is valid exactly
    when it holds an index.
    """

    domains: tuple[SkeletonDomain, ...]
    orbits: tuple[Orbit, ...]
    _index: Optional[ScenarioIndex] = field(default=None, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class Finding:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not self.findings


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ScenarioParseError(message)


def _check_fields(obj: dict, allowed: set[str], what: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ScenarioParseError(f"unknown field {key!r} in {what}")


def _leaf_list(raw: object, key: str, owner: str) -> tuple[str, ...]:
    """The non-empty strings of ``raw``, the ``key`` field of ``owner``,
    checked by C-level passes; the error text is formatted only when a check fails."""
    if not isinstance(raw, list):
        raise ScenarioParseError(f"{key} of {owner!r} must be an array")
    if not all(map(isinstance, raw, repeat(str))) or "" in raw:
        raise ScenarioParseError(f"{key} of {owner!r} entries must be non-empty strings")
    return tuple(raw)


def _int_field(obj: dict, key: str, what: str) -> int:
    raw = obj.get(key, 0)
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise ScenarioParseError(f"{key} of {what} must be an integer")
    return raw


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ScenarioParseError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario document.

    Performs structural checks only (well-formed JSON without repeated
    keys, known fields, unique ids, resolvable path references); the
    semantic invariants are the job of :func:`validate`.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"syntax error: {exc.msg}", exc.lineno, exc.colno) from exc
    except RecursionError as exc:
        raise ScenarioParseError("nested too deeply") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise ScenarioParseError(f"number longer than {sys.get_int_max_str_digits()} digits") from exc
    _require(isinstance(doc, dict), "top level must be an object")
    _check_fields(doc, {"domains", "orbits"}, "scenario")
    raw_domains = doc.get("domains", [])
    raw_orbits = doc.get("orbits", [])
    _require(isinstance(raw_domains, list), "domains must be an array")
    _require(isinstance(raw_orbits, list), "orbits must be an array")

    domains: list[SkeletonDomain] = []
    seen_domains: set[str] = set()
    for raw in raw_domains:
        _require(isinstance(raw, dict), "each domain must be an object")
        _check_fields(raw, {"id", "left", "right"}, "domain")
        did = raw.get("id")
        _require(isinstance(did, str) and did != "", "domain id must be a non-empty string")
        if did in seen_domains:
            raise ScenarioParseError(f"duplicate id {did!r}")
        seen_domains.add(did)
        domains.append(
            SkeletonDomain(
                id=did,
                left=_leaf_list(raw.get("left", []), "left", did),
                right=_leaf_list(raw.get("right", []), "right", did),
            )
        )

    declared_leaves = {leaf for d in domains for leaf in d.left + d.right}

    orbits: list[Orbit] = []
    seen_orbits: set[str] = set()
    for raw in raw_orbits:
        _require(isinstance(raw, dict), "each orbit must be an object")
        _check_fields(raw, {"id", "path", "entry_cut", "exit_cut", "tie_rank"}, "orbit")
        oid = raw.get("id")
        _require(isinstance(oid, str) and oid != "", "orbit id must be a non-empty string")
        if oid in seen_orbits:
            raise ScenarioParseError(f"duplicate id {oid!r}")
        seen_orbits.add(oid)
        path = _leaf_list(raw.get("path", []), "path", oid)
        if len(path) % 2 == 0:
            raise ScenarioParseError(f"path of {oid!r} must alternate domain, leaf, ... with odd length")
        if not (seen_domains.issuperset(path[0::2]) and declared_leaves.issuperset(path[1::2])):
            # Name the first unknown reference.
            for pos, name in enumerate(path):
                if pos % 2 == 0:
                    if name not in seen_domains:
                        raise ScenarioParseError(f"unknown domain {name!r} in path of {oid!r}")
                elif name not in declared_leaves:
                    raise ScenarioParseError(f"unknown leaf {name!r} in path of {oid!r}")
        orbits.append(
            Orbit(
                id=oid,
                path=path,
                entry_cut=_int_field(raw, "entry_cut", oid),
                exit_cut=_int_field(raw, "exit_cut", oid),
                tie_rank=_int_field(raw, "tie_rank", oid),
            )
        )

    return Scenario(domains=tuple(domains), orbits=tuple(orbits))


def emit_scenario(s: Scenario) -> str:
    """Serialize canonically: sorted keys, declaration-order arrays, LF.

    The text is ``dumps(doc, ensure_ascii=False)`` of the scenario's
    document, plus LF; a scenario's shape is fixed, so it is written
    directly."""

    def array(items: list[str], indent: str) -> str:
        inner = "\n" + indent + "  "
        return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]" if items else "[]"

    def ids(values: tuple[str, ...]) -> str:
        return array([encode_basestring(v) for v in values], "      ")

    domains = [
        f'{{\n      "id": {encode_basestring(d.id)},\n      "left": {ids(d.left)},\n'
        f'      "right": {ids(d.right)}\n    }}'
        for d in s.domains
    ]
    orbits = [
        f'{{\n      "entry_cut": {int.__repr__(o.entry_cut)},\n      "exit_cut": {int.__repr__(o.exit_cut)},\n'
        f'      "id": {encode_basestring(o.id)},\n      "path": {ids(o.path)},\n'
        f'      "tie_rank": {int.__repr__(o.tie_rank)}\n    }}'
        for o in s.orbits
    ]
    return f'{{\n  "domains": {array(domains, "  ")},\n  "orbits": {array(orbits, "  ")}\n}}\n'


def dumps(doc: object, ensure_ascii: bool = True) -> str:
    """The canonical JSON text of ``doc``: sorted keys, two-space indent.

    Equal to ``json.dumps(doc, sort_keys=True, indent=2,
    ensure_ascii=ensure_ascii)``, which encodes in pure Python whenever an
    indent is given.  Only the types the package's documents hold are
    accepted: dicts with ``str`` keys, lists, tuples, ``str``, ``int``,
    ``bool`` and ``None``; anything else raises ``TypeError``.  Each
    container is joined once, so no list of single tokens is built.
    """
    encode = encode_basestring_ascii if ensure_ascii else encode_basestring

    def text(o: object, indent: str) -> str:
        if isinstance(o, str):
            return encode(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, int):
            return int.__repr__(o)
        inner = indent + "  "
        sep = "," + inner
        if isinstance(o, dict):
            if not o:
                return "{}"
            # ``encode`` raises TypeError on a key that is not a str.
            items = sep.join([encode(k) + ": " + text(v, inner) for k, v in sorted(o.items())])
            return "{" + inner + items + indent + "}"
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            return "[" + inner + sep.join([text(v, inner) for v in o]) + indent + "]"
        raise TypeError(f"cannot encode {type(o).__name__}")

    return text(doc, "\n")


class _UnionFind:
    def __init__(self, items: Iterable[str]):
        self.parent = {x: x for x in items}

    def find(self, x: str) -> str:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> bool:
        """Join the classes of a and b; False if already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _edges(left_owner: dict[str, str], right_owner: dict[str, str]) -> tuple[tuple[str, str, str], ...]:
    """Triples (D, leaf, D') by leaf, from the owner of each left and right leaf."""
    return tuple((left_owner[leaf], leaf, right_owner[leaf]) for leaf in sorted(left_owner.keys() & right_owner.keys()))


def validate(s: Scenario) -> ValidationReport:
    """Check every model invariant; findings are data, never exceptions.

    The checks build the scenario's index in the same walk, and ``s`` keeps
    it when there are no findings; a scenario that holds an index is valid.
    """
    if s._index is not None:
        return ValidationReport(())
    idx = ScenarioIndex(s)
    if not idx.findings:
        object.__setattr__(s, "_index", idx)
    return ValidationReport(idx.findings)


class ScenarioIndex:
    """Derived lookup tables for one scenario, built while it is validated.

    ``findings`` are the scenario's validation findings; the tables are
    meant to be read only when there are none.
    """

    def __init__(self, s: Scenario):
        findings: list[Finding] = []

        def add(code: str, message: str) -> None:
            findings.append(Finding(code, message))

        # A valid scenario holds each leaf in at most one left and one right
        # list, so one owner and one position per leaf and side suffice.  The
        # first owner is kept; a later one is a reuse finding.
        self.domain_by_id: dict[str, SkeletonDomain] = {}
        self.left_owner: dict[str, str] = {}
        self.right_owner: dict[str, str] = {}
        self.left_rank: dict[str, int] = {}
        self.right_rank: dict[str, int] = {}
        dom_acc: dict[str, set[str]] = {}
        for d in s.domains:
            if not d.id:
                add("empty-id", "domain with empty id")
            if d.id in self.domain_by_id:
                add("duplicate-id", f"duplicate domain id {d.id!r}")
            self.domain_by_id[d.id] = d
            dom_acc[d.id] = set()
            members = d.left + d.right
            if len(members) != len(set(members)):
                add("boundary-repeat", f"leaf repeated within the boundary of {d.id!r}")
            for side, leaves, owner, rank in (
                ("left", d.left, self.left_owner, self.left_rank),
                ("right", d.right, self.right_owner, self.right_rank),
            ):
                for i, leaf in enumerate(leaves):
                    prior = owner.setdefault(leaf, d.id)
                    if prior != d.id:
                        add(f"{side}-reuse", f"leaf {leaf!r} appears in the {side} list of {prior!r} and {d.id!r}")
                    rank[leaf] = i

        # Derived edges must leave the undirected domain graph acyclic.
        self.edges = _edges(self.left_owner, self.right_owner)
        self.edge_by_leaf = {leaf: (a, b) for a, leaf, b in self.edges}
        uf = _UnionFind(self.domain_by_id)
        for a, leaf, b in self.edges:
            if a == b or not uf.union(a, b):
                add("forest-violation", f"forest violation: leaf {leaf!r} closes a cycle through {a!r} and {b!r}")

        self.orbit_by_id: dict[str, Orbit] = {}
        self.domain_pos: dict[str, dict[str, int]] = {}
        leaf_acc: dict[str, set[str]] = {}
        for o in s.orbits:
            if not o.id:
                add("empty-id", "orbit with empty id")
            if o.id in self.orbit_by_id:
                add("duplicate-id", f"duplicate orbit id {o.id!r}")
            self.orbit_by_id[o.id] = o
            path = o.path
            if len(path) % 2 == 0:
                add("path-alternation", f"path of {o.id!r} must have odd length")
                continue
            unknown = [name for name in path[0::2] if name not in self.domain_by_id]
            for name in unknown:
                add("unknown-domain", f"unknown domain {name!r} in path of {o.id!r}")
            if unknown:
                continue
            for i in range(1, len(path) - 1, 2):
                a, leaf, b = path[i - 1 : i + 2]
                if self.edge_by_leaf.get(leaf) != (a, b):
                    add("not-an-edge", f"path of {o.id!r} uses {leaf!r} which does not join {a!r} to {b!r}")
            pos = {name: 2 * k for k, name in enumerate(path[0::2])}
            if len(pos) != len(path) // 2 + 1:
                add("domain-revisit", f"path of {o.id!r} visits a domain twice")
            first, last = self.domain_by_id[o.alpha], self.domain_by_id[o.omega]
            if not 0 <= o.entry_cut <= len(first.right):
                add("cut-out-of-range", f"cut out of range: entry_cut {o.entry_cut} of {o.id!r} over {len(first.right)} leaves")
            if not 0 <= o.exit_cut <= len(last.left):
                add("cut-out-of-range", f"cut out of range: exit_cut {o.exit_cut} of {o.id!r} over {len(last.left)} leaves")
            self.domain_pos[o.id] = pos
            for name in pos:
                dom_acc[name].add(o.id)
            for leaf in path[1::2]:
                leaf_acc.setdefault(leaf, set()).add(o.id)
        self.domain_orbits = {k: frozenset(v) for k, v in dom_acc.items()}
        self.leaf_orbits = {k: frozenset(v) for k, v in leaf_acc.items()}
        findings.sort(key=lambda f: (f.code, f.message))
        self.findings = tuple(findings)
        # Filled on first use: the relations of each ordered pair compared (``relations.pair_relations``),
        # the met pairs' common-subpath ends, the orbits' walks, the reduced structure and its port plans.
        self.pairs: dict[tuple[str, str], PairRelations] = {}
        self.runs: Optional[dict[tuple[str, str], tuple[str, str]]] = None
        self.walks: Optional[dict[str, tuple[tuple[int, ...], tuple[int, ...]]]] = None
        self.reduced: Optional[ReducedStructure] = None
        self.plans: Optional[dict[str, PortPlan]] = None

    def orbit(self, oid: str) -> Orbit:
        """The orbit with id ``oid``; an unknown id raises FoliageError."""
        o = self.orbit_by_id.get(oid)
        if o is None:
            raise FoliageError(f"unknown orbit {oid!r}")
        return o

    def orbits_crossing(self, leaf: str) -> frozenset[str]:
        return self.leaf_orbits.get(leaf, frozenset())


def index(s: Scenario) -> ScenarioIndex:
    """The index that :func:`validate` kept on ``s``; a scenario not yet
    validated is validated here, and an invalid one raises
    :class:`InvalidScenarioError`."""
    if s._index is None:
        report = validate(s)
        if not report.ok:
            raise InvalidScenarioError(report)
    return s._index


FIXTURE_NAMES = ("S0", "S1", "S2", "S3", "S4")


def fixture_text(name: str) -> str:
    if name not in FIXTURE_NAMES:
        raise FoliageError(f"unknown fixture {name!r}")
    return resources.files("foliage.fixtures").joinpath(f"{name}.json").read_text("utf-8")


def fixture(name: str) -> Scenario:
    s = parse_scenario(fixture_text(name))
    index(s)
    return s
