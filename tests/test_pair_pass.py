"""The pair record, the sparse pair pass and the pair-table writer.

The functions that read one pair's ``pair_relations`` record are checked
against each end computed alone, as they were before the record (the
common subpath, then ``_verdict`` at one of its ends, or the equal-end and
equal-start flags), on every ordered pair of a fresh copy of each scenario.
``relations.met_pair_relations`` yields only the pairs that share a
skeleton domain; it is checked against ``pair_relations`` on every pair of
a fresh copy of each scenario, each pair it leaves out being
``DISJOINT_PAIR``, and the two ends of each shared run its sweep finds
against ``decompose.common_subpath``.  The ``relations`` and ``diagram``
tables are checked against row dicts written by ``dumps`` (the JSON) and
formatted one by one (the text), one per pair, the boundary JSON against
``dumps`` of the ends, and ``weak_matrix`` against the all-pairs
``weak_transverse`` loop.
"""

import functools
import itertools
import json

import pytest

from foliage import cli, relations
from foliage.cli import main
from foliage.generator import GeneratorConfig, generate_scenario
from foliage.decompose import common_subpath, reduce_scenario
from foliage.model import FIXTURE_NAMES, FoliageError, Orbit, Scenario, SkeletonDomain, dumps, emit_scenario, fixture, index
from foliage.relations import Clause, Direction, RelationVerdict, TieRankError
from foliage.realize import PairEntry, boundary_order, crossing_matrix, weak_matrix
from test_realize import _chain
from test_relations import _through_one_domain

# Orbit ids that a %-template, a JSON string escape or a line separator
# could get wrong.
ODD_IDS = ("%s", '"', "\\", "é", "\u2028")
# Domain ids that reach the ``diagram`` witness, a maximal domain's id,
# through the doubling of ``%`` in a filled row.
ODD_DOMAIN_IDS = ("%s", "%(a)s", "%%", "é")


def _renamed(s, names):
    new = dict(zip(sorted(o.id for o in s.orbits), names))
    orbits = tuple(Orbit(new[o.id], o.path, o.entry_cut, o.exit_cut, o.tie_rank) for o in s.orbits)
    return Scenario(domains=s.domains, orbits=orbits)


def _domains_renamed(s, names):
    new = dict(zip((d.id for d in s.domains), names))
    domains = tuple(SkeletonDomain(new[d.id], d.left, d.right) for d in s.domains)
    orbits = tuple(
        Orbit(o.id, tuple(new.get(x, x) for x in o.path), o.entry_cut, o.exit_cut, o.tie_rank) for o in s.orbits
    )
    return Scenario(domains=domains, orbits=orbits)


FAMILIES = ("in-code", "default", "wide")


@functools.cache
def _family(family):
    """The named scenarios of one family: the fixtures and scenarios built
    in code, or seeds 1..300 at the default bounds or at 25/14/6."""
    if family == "in-code":
        named = {name: fixture(name) for name in FIXTURE_NAMES}
        named["nested"] = _through_one_domain(("r", "s"))
        named["crossed"] = _through_one_domain(("s", "r"))
        named["no-orbits"] = Scenario(domains=(SkeletonDomain("D", left=("x",)),), orbits=())
        named["odd-ids"] = _renamed(_chain(5), ODD_IDS)
        named["odd-ids-crossed"] = _renamed(_through_one_domain(("s", "r")), ("%s", "\u2028"))
        named.update((f"chain{k}", _chain(k)) for k in (2, 5, 20, 60))
        return named
    bounds = {} if family == "default" else {"max_domains": 25, "max_orbits": 14, "max_boundary": 6}
    return {f"{family}{seed}": generate_scenario(GeneratorConfig(seed=seed, **bounds)) for seed in range(1, 301)}


def _fresh(s):
    """A copy of s with its own index, so no value computed on s is shared."""
    return Scenario(domains=s.domains, orbits=s.orbits)


def _meets(s, a, b):
    by_id = {o.id: o for o in s.orbits}
    return bool(set(by_id[a].domains) & set(by_id[b].domains))


def test_the_scenarios_cover_zero_one_and_two_orbits_and_mostly_disjoint_pairs():
    assert {0, 1, 2} <= {len(s.orbits) for s in _family("in-code").values()}
    s = _family("in-code")["chain60"]
    pairs = list(itertools.combinations(sorted(o.id for o in s.orbits), 2))
    assert sum(not _meets(s, a, b) for a, b in pairs) > 0.9 * len(pairs)


# --- each end alone: the oracle of the pair record ------------------------


def _end_verdict(s, a, b, step):
    """One end's verdict, from the common subpath and ``_verdict`` at its
    last domain (``step=+1``, left) or its first (right)."""
    if a == b:
        return RelationVerdict(Direction.EQUIVALENT, Clause.ASYMPTOTIC)
    cs = common_subpath(s, a, b)
    if cs is None:
        return RelationVerdict(Direction.INCOMPARABLE, Clause.DISJOINT)
    idx = index(s)
    return relations._verdict(idx, idx.orbit_by_id[a], idx.orbit_by_id[b], cs.last if step > 0 else cs.first, step)


def _same_end(s, a, b, step):
    """Forward (``step=+1``) or backward asymptotic: a common subpath and
    equal terminal domains and cuts at that end."""
    idx = index(s)
    oa, ob = idx.orbit_by_id[a], idx.orbit_by_id[b]
    if a == b:
        return True
    end = (lambda o: (o.omega, o.exit_cut)) if step > 0 else (lambda o: (o.alpha, o.entry_cut))
    return common_subpath(s, a, b) is not None and end(oa) == end(ob)


def _direction(v):
    if v.direction is Direction.INCOMPARABLE:
        raise FoliageError("orbits without a common subpath cannot be ordered")
    return {Direction.FIRST_LESS: -1, Direction.SECOND_LESS: 1}.get(v.direction)


def _standard_oracle(s, a, b):
    if a == b:
        return 0
    for step in (-1, 1):
        got = _direction(_end_verdict(s, a, b, step))
        if got is not None:
            return got
    ra, rb = index(s).orbit_by_id[a].tie_rank, index(s).orbit_by_id[b].tie_rank
    if ra == rb:
        raise TieRankError(f"orbits {a!r} and {b!r} are equivalent but share tie rank {ra}")
    return -1 if ra < rb else 1


def _adaptive_oracle(s, m, a, b):
    if a == b:
        return 0
    idx = index(s)
    oa, ob = idx.orbit_by_id[a], idx.orbit_by_id[b]
    leaf_a, leaf_b = (relations.beyond(idx, o, m.chain[-1], 1) for o in (oa, ob))
    if leaf_a == leaf_b and (leaf_a is not None or oa.exit_cut == ob.exit_cut):
        return _standard_oracle(s, a, b)
    got = _direction(_end_verdict(s, a, b, 1))
    if got is None:
        raise FoliageError(f"orbits {a!r} and {b!r} in distinct exit classes compare as equivalent")
    return got


def _outcome(fn, *args):
    """What ``fn`` returns, or the type and text of the error it raises."""
    try:
        return fn(*args)
    except FoliageError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("family", FAMILIES)
def test_the_pair_record_equals_each_end_computed_alone(family):
    for name, s in _family(family).items():
        s, oracle = _fresh(s), _fresh(s)
        ids = sorted(o.id for o in s.orbits)
        for a, b in itertools.product(ids, repeat=2):
            left, right = _end_verdict(oracle, a, b, 1), _end_verdict(oracle, a, b, -1)
            assert relations.compare_left(s, a, b) == left, (name, a, b)
            assert relations.compare_right(s, a, b) == right, (name, a, b)
            assert relations.plus_asymptotic(s, a, b) == _same_end(oracle, a, b, 1), (name, a, b)
            assert relations.minus_asymptotic(s, a, b) == _same_end(oracle, a, b, -1), (name, a, b)
            assert relations.weak_transverse(s, a, b) == relations.weak_from_verdicts(left, right), (name, a, b)
            assert relations.classic_transverse(s, a, b) == relations.classic_from_verdicts(left, right), (name, a, b)
            assert relations.pair_relations(s, a, b) == (
                left,
                right,
                _same_end(oracle, a, b, 1),
                _same_end(oracle, a, b, -1),
            ), (name, a, b)
            want = _outcome(_standard_oracle, oracle, a, b)
            assert _outcome(relations.standard_cmp, s, a, b) == want, (name, a, b)
        assert len(index(s).pairs) == len(ids) ** 2, name
        for m in reduce_scenario(s).maxdomains:
            for a, b in itertools.product(sorted(m.crossers), repeat=2):
                want = _outcome(_adaptive_oracle, oracle, m, a, b)
                assert _outcome(relations.adaptive_cmp, s, m, a, b) == want, (name, m.id, a, b)


@pytest.mark.parametrize("family", FAMILIES)
def test_the_sparse_pass_equals_pair_relations_on_every_pair(family):
    for name, s in _family(family).items():
        oracle = _fresh(s)
        yielded = [((a, b), p) for a, b, p in relations.met_pair_relations(s)]
        got = dict(yielded)
        pairs = list(itertools.combinations(sorted(o.id for o in s.orbits), 2))
        assert [pair for pair, _p in yielded] == [pair for pair in pairs if pair in got], name
        for a, b in pairs:
            want = relations.pair_relations(oracle, a, b)
            if (a, b) in got:
                assert got[(a, b)] == want, (name, a, b)
            else:
                assert want is relations.DISJOINT_PAIR, (name, a, b)


def _counting_records(monkeypatch):
    """The ``(a, b, first, last)`` of each pair record built from here on."""
    real, built = relations._pair_record, []

    def counting(idx, oa, ob, first, last):
        built.append((oa.id, ob.id, first, last))
        return real(idx, oa, ob, first, last)

    monkeypatch.setattr(relations, "_pair_record", counting)
    return built


@pytest.mark.parametrize(
    "family, name",
    [("in-code", n) for n in ("S1", "S2", "S3", "nested", "chain20", "chain60")]
    + [("default", "default7"), ("wide", "wide3")],
)
def test_pairs_that_share_no_domain_build_no_record(monkeypatch, family, name):
    s = _fresh(_family(family)[name])
    built = _counting_records(monkeypatch)
    pairs = [(a, b) for a, b, _p in relations.met_pair_relations(s)]
    ids = sorted(o.id for o in s.orbits)
    assert [(a, b) for a, b, _first, _last in built] == pairs
    assert pairs == [(a, b) for a, b in itertools.combinations(ids, 2) if _meets(s, a, b)]
    # A second pass, and every pair function on every pair, build nothing new.
    list(relations.met_pair_relations(s))
    for a, b in itertools.combinations(ids, 2):
        relations.pair_relations(s, a, b)
    assert len(built) == len(pairs)


@pytest.mark.parametrize("family", FAMILIES + ("chain300",))
def test_the_sweep_finds_the_common_subpath_ends(monkeypatch, family):
    named = {"chain300": _chain(300)} if family == "chain300" else _family(family)
    for name, s in named.items():
        s, oracle = _fresh(s), _fresh(s)
        built = _counting_records(monkeypatch)
        list(relations.met_pair_relations(s))
        for a, b, first, last in built:
            cs = common_subpath(oracle, a, b)
            assert (first, last) == (cs.first, cs.last), (name, a, b)


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_relations_looks_up_no_subpath_and_fills_each_distinct_row_once(tmp_path, capsys, monkeypatch, flags):
    s = _chain(60)
    met = [p for _a, _b, p in relations.met_pair_relations(_fresh(s))]
    records = set(met)
    assert len(records) < len(met) // 10  # 9 distinct records over 117 pairs
    real, rows = cli._relations_row, []

    def counting(p):
        rows.append(p)
        return real(p)

    def no_lookup(*args):
        raise AssertionError("common_subpath called")

    monkeypatch.setattr(relations, "common_subpath", no_lookup)
    monkeypatch.setattr(cli, "_relations_row", counting)
    _relations_output(tmp_path, capsys, s, *flags)
    assert sorted(map(str, rows)) == sorted(map(str, records | {relations.DISJOINT_PAIR}))
    assert len(rows) == len(records) + 1


def _rows_oracle(s):
    """The row dicts ``relations`` printed before the pair pass."""
    rows = []
    for a, b in itertools.combinations(sorted(o.id for o in s.orbits), 2):
        p = relations.pair_relations(s, a, b)
        rows.append(
            {
                "pair": [a, b],
                "left": str(p.left),
                "right": str(p.right),
                "forward_asymptotic": p.forward_asymptotic,
                "backward_asymptotic": p.backward_asymptotic,
                "weak": relations.weak_from_verdicts(p.left, p.right),
                "classic": relations.classic_from_verdicts(p.left, p.right),
            }
        )
    return rows


def _text_oracle(rows):
    return "".join(
        f"{row['pair'][0]},{row['pair'][1]} L={row['left']} R={row['right']} "
        f"+~={str(row['forward_asymptotic']).lower()} -~={str(row['backward_asymptotic']).lower()} "
        f"weak={str(row['weak']).lower()} classic={str(row['classic']).lower()}\n"
        for row in rows
    )


def _output(tmp_path, capsys, command, s, *flags):
    path = tmp_path / "scenario.json"
    path.write_text(emit_scenario(s), encoding="utf-8")
    assert main([command, str(path), *flags]) == 0
    return capsys.readouterr().out


def _relations_output(tmp_path, capsys, s, *flags):
    return _output(tmp_path, capsys, "relations", s, *flags)


@pytest.mark.parametrize("family", FAMILIES)
def test_relations_output_equals_the_row_dict_oracle(tmp_path, capsys, family):
    for name, s in _family(family).items():
        rows = _rows_oracle(_fresh(s))
        assert _relations_output(tmp_path, capsys, s, "--json") == dumps({"pairs": rows}) + "\n", name
        assert _relations_output(tmp_path, capsys, s) == _text_oracle(rows), name


def test_odd_orbit_ids_come_back_from_the_json(tmp_path, capsys):
    out = _relations_output(tmp_path, capsys, _family("in-code")["odd-ids"], "--json")
    pairs = [tuple(row["pair"]) for row in json.loads(out)["pairs"]]
    assert pairs == list(itertools.combinations(sorted(ODD_IDS), 2))
    assert out.isascii()


def _matrix_oracle(s):
    """The ``diagram`` JSON and text that the per-pair ``matrix.entry``
    loop printed before the pair-table writer."""
    matrix = crossing_matrix(s, reduce_scenario(s))
    none = PairEntry("", "", 0, None)
    ids = sorted(o.id for o in s.orbits)
    entries = [(a, b, matrix.entry(a, b) or none) for a, b in itertools.combinations(ids, 2)]
    pairs = [{"pair": [a, b], "crossings": e.count, "witness": e.witness} for a, b, e in entries]
    lines = (f"{a},{b} {e.count}" + (f" witness={e.witness}\n" if e.witness else "\n") for a, b, e in entries)
    return dumps({"pairs": pairs}) + "\n", "".join(lines)


def _first_difference(got, want):
    """None when the texts are equal, else the first line where they part.
    pytest's own diff of two texts of megabytes takes minutes."""
    if got == want:
        return None
    lines = itertools.zip_longest(got.splitlines(True), want.splitlines(True))
    return next((i, g, w) for i, (g, w) in enumerate(lines) if g != w)


@pytest.mark.parametrize("family", FAMILIES + ("chain300",))
def test_diagram_matrix_output_equals_the_per_pair_entry_oracle(tmp_path, capsys, family):
    named = {"chain300": _chain(300)} if family == "chain300" else _family(family)
    for name, s in named.items():
        want_json, want_text = _matrix_oracle(_fresh(s))
        assert _first_difference(_output(tmp_path, capsys, "diagram", s, "--json"), want_json) is None, name
        assert _first_difference(_output(tmp_path, capsys, "diagram", s), want_text) is None, name


def test_odd_domain_ids_reach_the_witness_through_the_escape(tmp_path, capsys):
    s = _domains_renamed(_chain(4), ODD_DOMAIN_IDS)
    for s in (s, _renamed(s, ODD_IDS)):
        want_json, want_text = _matrix_oracle(_fresh(s))
        witnesses = {row["witness"] for row in json.loads(want_json)["pairs"]}
        assert {"M:%(a)s", "M:%%"} <= witnesses
        assert _output(tmp_path, capsys, "diagram", s, "--json") == want_json
        assert _output(tmp_path, capsys, "diagram", s) == want_text


@pytest.mark.parametrize("family", FAMILIES)
def test_boundary_json_equals_dumps_of_the_ends(tmp_path, capsys, family):
    named = _family(family)
    if family == "in-code":
        named = {**named, "odd-domain-ids": _renamed(_domains_renamed(_chain(4), ODD_DOMAIN_IDS), ODD_IDS)}
    for name, s in named.items():
        r = reduce_scenario(s)
        if r.maxdomains:
            want = dumps({"ends": [list(end) for end in boundary_order(s, r).ends]}) + "\n"
            assert _output(tmp_path, capsys, "diagram", s, "--format", "boundary", "--json") == want, name


@pytest.mark.parametrize("family", FAMILIES)
def test_weak_matrix_equals_the_all_pairs_weak_transverse_loop(family):
    for name, s in _family(family).items():
        oracle = _fresh(s)
        ids = sorted(o.id for o in s.orbits)
        weak = {(a, b): 1 for a, b in itertools.combinations(ids, 2) if relations.weak_transverse(oracle, a, b)}
        assert weak_matrix(s).as_dict() == weak, name
