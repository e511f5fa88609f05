"""Command-line interface.

Subcommands: validate, decompose, relations, diagram, check, generate.
Exit status is 0 on success, 1 when validation findings (or property
failures) are present or stdout closes before the output is written, and
2 on usage errors.  The environment variable FOLIAGE_SEED overrides
--seed where one is accepted.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import os
import sys
from dataclasses import replace
from fractions import Fraction

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
                mid: {
                    "alpha": sorted(rr.alpha),
                    "omega": sorted(rr.omega),
                    "in": sorted(rr.incoming),
                    "out": sorted(rr.outgoing),
                }
                for mid, rr in r.roles
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
    for mid, rr in r.roles:
        print(
            f"  {mid} alpha={{{','.join(sorted(rr.alpha))}}} omega={{{','.join(sorted(rr.omega))}}} "
            f"in={{{','.join(sorted(rr.incoming))}}} out={{{','.join(sorted(rr.outgoing))}}}"
        )
    return 0


def _pair_line(s: Scenario, a: str, b: str) -> str:
    p = relations.pair_relations(s, a, b)
    weak = relations.weak_from_verdicts(p.left, p.right)
    return f"L: {p.left}; R: {p.right}; weak: {str(weak).lower()}"


# The fields of a ``relations --json`` row, in the order the canonical
# writer puts them (sorted keys; "a" and "b" are the two ids of "pair").
_ROW_FIELDS = ("backward_asymptotic", "classic", "forward_asymptotic", "left", "a", "b", "right", "weak")
_MARKS = tuple("\0" + f for f in _ROW_FIELDS)


def _row_values(a: str, b: str, p: relations.PairRelations) -> tuple:
    """The values of a pair's row, in ``_ROW_FIELDS`` order."""
    weak = relations.weak_from_verdicts(p.left, p.right)
    classic = relations.classic_from_verdicts(p.left, p.right)
    return (p.backward_asymptotic, classic, p.forward_asymptotic, str(p.left), a, b, str(p.right), weak)


@functools.cache
def _relations_template() -> tuple[str, str, str, str, str]:
    """Head, row separator and tail of ``relations --json``, and two
    ``%``-templates of a row: one with a ``%s`` per field, in
    ``_ROW_FIELDS`` order, and one of a Disjoint pair with a ``%s`` per id.
    All are cut from what ``dumps`` writes for sentinel rows, so
    indentation and key order come from the canonical writer."""
    head, sep, tail = dumps({"pairs": ["\0", "\0"]}).split(dumps("\0"))

    def template(values: tuple) -> str:
        row = dict(zip(_ROW_FIELDS, values))
        row["pair"] = [row.pop("a"), row.pop("b")]
        body = dumps({"pairs": [row]})[len(head) : -len(tail)].replace("%", "%%")
        marks = [dumps(v) for v in values if v in _MARKS]
        spots = [body.index(mark) for mark in marks]
        if spots != sorted(spots):
            raise AssertionError("relations row fields are out of the writer's order")
        for mark in marks:
            body = body.replace(mark, "%s")
        return body

    id_marks = _MARKS[_ROW_FIELDS.index("a")], _MARKS[_ROW_FIELDS.index("b")]
    return head, sep, tail, template(_MARKS), template(_row_values(*id_marks, relations.DISJOINT_PAIR))


def _write_relations_json(s: Scenario) -> None:
    """Write ``dumps({"pairs": rows})`` of the pair rows and a newline to
    stdout, the head, each run of rows and the tail as they are made.  Each
    row is filled into a template; each orbit id and each verdict is
    encoded once.  Each run of Disjoint rows with the same ``a`` is one
    ``join`` over the ``b`` ids."""
    head, sep, tail, row, disjoint = _relations_template()
    # ``dumps`` never writes a raw NUL, so this splits at the two ids.
    d_head, d_mid, d_tail = (disjoint % ("\0", "\0")).split("\0")
    encode = functools.cache(dumps)
    out = sys.stdout
    wrote = False
    runs = itertools.groupby(relations.all_pair_relations(s), lambda r: (r[0], r[2] is relations.DISJOINT_PAIR))
    for (a, is_disjoint), run in runs:
        out.write(sep if wrote else head)
        wrote = True
        if is_disjoint:
            opened = d_head + encode(a) + d_mid
            out.write(opened)
            out.write((d_tail + sep + opened).join(encode(b) for _a, b, _p in run))
            out.write(d_tail)
        else:
            out.write(sep.join(row % tuple(map(encode, _row_values(a, b, p))) for a, b, p in run))
    out.write((tail if wrote else dumps({"pairs": []})) + "\n")


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
    if args.json:
        _write_relations_json(s)
        return 0
    lines = []
    for a, b, p in relations.all_pair_relations(s):
        backward, classic, forward, left, _a, _b, right, weak = _row_values(a, b, p)
        lines.append(
            f"{a},{b} L={left} R={right} +~={str(forward).lower()} -~={str(backward).lower()} "
            f"weak={str(weak).lower()} classic={str(classic).lower()}\n"
        )
    sys.stdout.write("".join(lines))
    return 0


def _cmd_diagram(args) -> int:
    s = _load(args.file)
    _exit_on_findings(s)
    r = reduce_scenario(s)
    plans = realize.all_port_plans(s, r)
    # Only the matrix format reads the crossing matrix.
    matrix = realize.crossing_matrix(s, r, plans) if args.format == "matrix" else None
    order = realize.boundary_order(s, r, plans) if r.maxdomains else None
    if args.svg:
        if order is None:
            return _usage_error("SVG diagram requires at least one orbit")
        lay = geometry.layout(s, r, plans)
        routed = geometry.route(s, r, lay)
        _write(args.svg, geometry.emit_svg(lay, routed, roles=r))
    if args.chord:
        if order is None:
            return _usage_error("chord diagram requires at least one orbit")
        _write(args.chord, geometry.emit_chord_svg(geometry.chord_diagram(order)))
    ids = sorted(o.id for o in s.orbits)
    if matrix is not None:
        # One lookup per pair; a pair that does not cross has no entry.
        none = realize.PairEntry("", "", 0, None)
        entries = [(a, b, matrix.entry(a, b) or none) for a, b in itertools.combinations(ids, 2)]
        if args.json:
            pairs = [{"pair": [a, b], "crossings": e.count, "witness": e.witness} for a, b, e in entries]
            print(dumps({"pairs": pairs}))
        else:
            lines = (f"{a},{b} {e.count}" + (f" witness={e.witness}\n" if e.witness else "\n") for a, b, e in entries)
            sys.stdout.write("".join(lines))
    else:
        if order is None:
            return _usage_error("boundary order requires at least one orbit")
        if args.json:
            print(dumps({"ends": [list(e) for e in order.ends]}))
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
