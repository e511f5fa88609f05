"""Command-line interface.

Subcommands: validate, decompose, relations, diagram, check, generate.
Exit status is 0 on success, 1 when validation findings (or property
failures) are present or stdout closes before the output is written, and
2 on usage errors.  The environment variable FOLIAGE_SEED overrides
--seed where one is accepted.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import os
import sys
from dataclasses import replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable, Hashable, Iterable

from . import geometry, realize, relations
from .checks import run_check
from .decompose import reduce_scenario
from .generator import GeneratorConfig, generate_scenario
from .model import (
    FoliageError,
    Scenario,
    ScenarioParseError,
    dumps,
    emit_scenario,
    parse_scenario,
    validate,
)

USAGE_ERROR = 2
FINDINGS = 1


def _load(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SystemExit(_usage_error(f"cannot read {path!r}: {exc.strerror}"))
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"not UTF-8: {exc.reason} at byte {exc.start}") from exc
    return parse_scenario(text)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise SystemExit(_usage_error(f"cannot write {path!r}: {exc.strerror}"))


def _usage_error(message: str) -> int:
    print(f"foliage: {message}", file=sys.stderr)
    return USAGE_ERROR


def _exit_on_findings(s: Scenario) -> None:
    report = validate(s)
    if not report.ok:
        for f in report.findings:
            print(f"finding: {f.code}: {f.message}", file=sys.stderr)
        raise SystemExit(FINDINGS)


def _cmd_validate(args) -> int:
    s = _load(args.file)
    report = validate(s)
    if args.json:
        doc = {"findings": [{"code": f.code, "message": f.message} for f in report.findings]}
        print(dumps(doc))
    else:
        for f in report.findings:
            print(f"finding: {f.code}: {f.message}")
        print(f"{len(report.findings)} findings")
    return 0 if report.ok else FINDINGS


def _cmd_decompose(args) -> int:
    s = _load(args.file)
    _exit_on_findings(s)
    r = reduce_scenario(s)
    if args.json:
        doc = {
            "maxdomains": [
                {
                    "id": m.id,
                    "chain": list(m.chain),
                    "left": list(m.left),
                    "right": list(m.right),
                    "crossers": sorted(m.crossers),
                    "internal": list(m.internal),
                    "shed": list(m.shed),
                }
                for m in r.maxdomains
            ],
            "critical": sorted(r.critical),
            "edges": [list(e) for e in r.forest_edges],
            "roles": {
                m.id: {
                    "alpha": sorted(m.alpha),
                    "omega": sorted(m.omega),
                    "in": sorted(m.incoming),
                    "out": sorted(m.outgoing),
                }
                for m in r.maxdomains
            },
        }
        print(dumps(doc))
        return 0
    print("maxdomains:")
    for m in r.maxdomains:
        print(
            f"  {m.id} chain=[{','.join(m.chain)}] left=[{','.join(m.left)}] "
            f"right=[{','.join(m.right)}] crossers={{{','.join(sorted(m.crossers))}}}"
            + (f" shed=[{','.join(m.shed)}]" if m.shed else "")
        )
    print(f"critical: {{{','.join(sorted(r.critical))}}}")
    print("edges:")
    for a, leaf, b in r.forest_edges:
        print(f"  {a} -[{leaf}]-> {b}")
    print("roles:")
    for m in r.maxdomains:
        print(
            f"  {m.id} alpha={{{','.join(sorted(m.alpha))}}} omega={{{','.join(sorted(m.omega))}}} "
            f"in={{{','.join(sorted(m.incoming))}}} out={{{','.join(sorted(m.outgoing))}}}"
        )
    return 0


def _text(value) -> str:
    """A value as the plain-text outputs print it: booleans in lower case."""
    return str(value).lower() if isinstance(value, bool) else str(value)


def _pair_line(s: Scenario, a: str, b: str) -> str:
    p = relations.pair_relations(s, a, b)
    return f"L: {p.left}; R: {p.right}; weak: {_text(relations.weak_from_verdicts(p.left, p.right))}"


def _relations_row(p: relations.PairRelations) -> dict:
    """A pair's ``relations`` row: its record, with the verdicts as text, and both transversality flags."""
    weak, classic = relations.weak_from_verdicts(p.left, p.right), relations.classic_from_verdicts(p.left, p.right)
    return {**p._asdict(), "left": str(p.left), "right": str(p.right), "weak": weak, "classic": classic}


# How one pair table is written: a row template with a ``%(field)s`` per
# field, the ids being ``a`` and ``b``; a blank-pair template, for a pair with
# no record, whose only ``%`` are the two ids' ``%s``; the encoder of ids and
# values; the head, row separator and tail; and the text of a table with no pair.
_Form = collections.namedtuple("_Form", "row blank encode head sep tail empty", defaults=("", "", "", ""))


def _blank(row: str, values: dict, encode: Callable[[object], str]) -> str:
    """``row`` filled with ``values``, each ``%`` in them doubled, its ids left open as ``%s``."""
    return row % {**{key: encode(value).replace("%", "%%") for key, value in values.items()}, "a": "%s", "b": "%s"}


def _json_list(key: str, item: object) -> tuple[str, str, str, str]:
    """``dumps({key: [item]})`` cut into the list's head, item and tail, and
    the list's item separator; each ``"\\0"`` string in the item becomes ``%s``."""
    head, sep, tail = dumps({key: ["\0", "\0"]}).split(dumps("\0"))
    return head, dumps({key: [item]})[len(head) : -len(tail)].replace(dumps("\0"), "%s"), tail, sep


def _json_form(blank: dict) -> _Form:
    """``dumps({"pairs": rows})`` and a newline, for rows holding ``blank``'s
    keys and ``"pair"``.  The parts are cut from what ``dumps`` writes for
    sentinel rows, so the canonical writer sets indentation and key order."""
    head, row, tail, sep = _json_list("pairs", {**{key: "\0" + key for key in blank}, "pair": ["\0a", "\0b"]})
    for key in (*blank, "a", "b"):
        row = row.replace(dumps("\0" + key), f"%({key})s")
    return _Form(row, _blank(row, blank, dumps), dumps, head, sep, tail + "\n", dumps({"pairs": []}) + "\n")


# ``dumps({"ends": ...})`` cut as ``_json_list`` cuts it, and one item
# template per end kind, each cut from what ``dumps`` writes for a sentinel id.
_ENDS_LIST = _json_list("ends", None)
_END_ITEMS = {kind: _json_list("ends", ["\0", kind])[1] for kind in (realize.BACKWARD, realize.FORWARD)}


def _ends_json(ends: tuple[tuple[str, str], ...]) -> str:
    """``dumps({"ends": [list(end) for end in ends]})`` for ``ends`` not empty: each end's id fills its kind's item."""
    head, _item, tail, sep = _ENDS_LIST
    return head + sep.join([_END_ITEMS[kind] % encode_basestring_ascii(orbit) for orbit, kind in ends]) + tail


_RELATIONS_TEXT = "%(a)s,%(b)s L=%(left)s R=%(right)s +~=%(forward_asymptotic)s -~=%(backward_asymptotic)s "
_RELATIONS_TEXT += "weak=%(weak)s classic=%(classic)s\n"
_RELATIONS_BLANK = _relations_row(relations.DISJOINT_PAIR)
# The forms of the relations table and of the crossing matrix, built once: text, then JSON (indexed by ``--json``).
_RELATIONS_FORMS = (
    _Form(_RELATIONS_TEXT, _blank(_RELATIONS_TEXT, _RELATIONS_BLANK, _text), _text),
    _json_form(_RELATIONS_BLANK),
)
_MATRIX_FORMS = (
    _Form("%(a)s,%(b)s %(crossings)s witness=%(witness)s\n", "%s,%s 0\n", _text),
    _json_form({"crossings": 0, "witness": None}),
)


def _write_pairs(ids: list[str], rows: Iterable[tuple[str, str, Hashable]], values_of: Callable, form: _Form) -> None:
    """Write the table of every pair ``a < b`` of the sorted ``ids`` to
    stdout.  ``rows`` yields ``(a, b, record)`` in id order for the pairs
    that have a record; each distinct record's row is filled from
    ``values_of(record)`` once, its ids left open.  Each run of other pairs
    with one ``a`` is filled into the blank template by one ``join``.  The
    table goes out a run at a time and is never held whole."""
    out, encode, filled = sys.stdout, form.encode, {}
    if len(ids) < 2:
        out.write(form.empty)
        return
    blank_head, blank_mid, blank_tail = form.blank.split("%s")
    names, at = list(map(encode, ids)), {o: i for i, o in enumerate(ids)}
    rows = iter(rows)
    row = next(rows, None)
    sep = form.head
    for i, a in enumerate(ids):
        opened, start = blank_head + names[i] + blank_mid, i + 1
        while start < len(ids):
            stop = at[row[1]] if row is not None and row[0] == a else len(ids)
            if start < stop:
                out.write(sep + opened + (blank_tail + form.sep + opened).join(names[start:stop]) + blank_tail)
                sep = form.sep
            if stop < len(ids):
                text = filled.get(row[2]) or filled.setdefault(row[2], _blank(form.row, values_of(row[2]), encode))
                out.write(sep + text % (names[i], names[stop]))
                sep, row = form.sep, next(rows, None)
            start = stop + 1
    out.write(form.tail)


def _cmd_relations(args) -> int:
    s = _load(args.file)
    _exit_on_findings(s)
    ids = sorted(o.id for o in s.orbits)
    if args.pair:
        a, b = args.pair
        if a not in ids or b not in ids:
            return _usage_error("unknown orbit in --pair")
        print(_pair_line(s, a, b))
        return 0
    _write_pairs(ids, relations.met_pair_relations(s), _relations_row, _RELATIONS_FORMS[args.json])
    return 0


def _cmd_diagram(args) -> int:
    s = _load(args.file)
    _exit_on_findings(s)
    r = reduce_scenario(s)
    # Only the matrix format reads the crossing matrix, and only the chord
    # diagram and the boundary format read the boundary order.
    matrix = realize.crossing_matrix(s, r) if args.format == "matrix" else None
    order = realize.boundary_order(s, r) if r.maxdomains and (args.chord or matrix is None) else None
    if args.svg:
        if not r.maxdomains:
            return _usage_error("SVG diagram requires at least one orbit")
        lay = geometry.layout(s, r)
        routed = geometry.route(s, r, lay)
        _write(args.svg, geometry.emit_svg(lay, routed, roles=r))
    if args.chord:
        if order is None:
            return _usage_error("chord diagram requires at least one orbit")
        _write(args.chord, geometry.emit_chord_svg(geometry.chord_diagram(order)))
    ids = sorted(o.id for o in s.orbits)
    if matrix is not None:
        rows = ((e.a, e.b, (e.count, e.witness)) for e in matrix.entries)
        _write_pairs(ids, rows, lambda entry: dict(zip(("crossings", "witness"), entry)), _MATRIX_FORMS[args.json])
    else:
        if order is None:
            return _usage_error("boundary order requires at least one orbit")
        if args.json:
            print(_ends_json(order.ends))
        else:
            print(" ".join(f"({orbit},{kind})" for orbit, kind in order.ends))
    return 0


def _seed(args) -> int:
    env = os.environ.get("FOLIAGE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise SystemExit(_usage_error(f"FOLIAGE_SEED must be an integer, got {env!r}")) from exc
    return args.seed


def _config(args) -> GeneratorConfig:
    try:
        bias = Fraction(args.weak_bias)
    except (ValueError, ZeroDivisionError) as exc:
        raise SystemExit(_usage_error(f"invalid weak bias {args.weak_bias!r}")) from exc
    try:
        return GeneratorConfig(
            seed=_seed(args),
            max_domains=args.max_domains,
            max_orbits=args.max_orbits,
            max_boundary=args.max_boundary,
            weak_bias=bias,
        )
    except FoliageError as exc:
        raise SystemExit(_usage_error(str(exc))) from exc


def _cmd_generate(args) -> int:
    s = generate_scenario(_config(args))
    sys.stdout.write(emit_scenario(s))
    return 0


def _cmd_check(args) -> int:
    cfg = _config(args)
    if args.cases < 1:
        return _usage_error("--cases must be at least 1")
    try:  # the cases run on seeds seed, seed + 1, ..., and the last must be valid too
        replace(cfg, seed=cfg.seed + args.cases - 1)
    except FoliageError as exc:
        return _usage_error(f"the last case's {exc}")
    report = run_check(cfg, args.cases)
    if args.json:
        sys.stdout.write(report.render_json())
    else:
        sys.stdout.write(report.render_text())
    print(f"elapsed: {report.elapsed:.3f}s", file=sys.stderr)
    return 0 if report.ok else FINDINGS


def _add_generator_args(sub) -> None:
    sub.add_argument("--seed", type=int, default=1)
    sub.add_argument("--max-domains", type=int, default=10)
    sub.add_argument("--max-orbits", type=int, default=8)
    sub.add_argument("--max-boundary", type=int, default=4)
    sub.add_argument("--weak-bias", default="1/2")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="foliage", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check a scenario file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_validate)

    p = subs.add_parser("decompose", help="maximal domains, critical leaves, roles")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_decompose)

    p = subs.add_parser("relations", help="pairwise relation matrices")
    p.add_argument("file")
    one_output = p.add_mutually_exclusive_group()
    one_output.add_argument("--pair", nargs=2, metavar=("ORBIT", "ORBIT"))
    one_output.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_relations)

    p = subs.add_parser("diagram", help="crossing matrix, boundary order, SVG output")
    p.add_argument("file")
    p.add_argument("--format", choices=("matrix", "boundary"), default="matrix")
    p.add_argument("--svg")
    p.add_argument("--chord")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_diagram)

    p = subs.add_parser("check", help="run the property suite over generated scenarios")
    _add_generator_args(p)
    p.add_argument("--cases", type=int, default=50)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_check)

    p = subs.add_parser("generate", help="emit one generated scenario")
    _add_generator_args(p)
    p.add_argument("--json", action="store_true")  # the canonical output is JSON already
    p.set_defaults(fn=_cmd_generate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later ``main`` call."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout was closed early: stop quietly, and point it at devnull so
        # the interpreter's last flush is silent too (an in-process caller's
        # stream may have no descriptor).
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, fd)
            finally:
                os.close(devnull)
        return FINDINGS
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    except ScenarioParseError as exc:
        print(f"finding: parse: {exc}", file=sys.stderr)
        return FINDINGS
    except FoliageError as exc:
        print(f"foliage: {exc}", file=sys.stderr)
        return FINDINGS


if __name__ == "__main__":
    raise SystemExit(main())
