"""Workload inputs, operations and output checks for the foliage benchmark.

Every input is built here from the workload seed; the program only ever
sees the generated scenario files and command lines.  An operation (op) is
one scenario pushed through one or two real CLI commands, called in-process
through ``foliage.cli.main`` so that interpreter start-up is paid once, in
set-up.

Ops come in blocks.  A timed run always finishes the block it started, so
every run measures the same mix of input sizes whatever its seed; see
README.md for why each workload has the shape it has.

This module imports ``foliage``: the caller puts the checkout's ``src`` on
``sys.path`` first.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import itertools
import json
import re
import traceback
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from foliage import cli, geometry, realize
from foliage.decompose import reduce_scenario
from foliage.generator import GeneratorConfig, SplitMix64, generate_scenario
from foliage.model import Orbit, Scenario, SkeletonDomain, emit_scenario, parse_scenario, validate

WORKLOADS = ("corpus", "wide", "deep")

# corpus: the acceptance bounds of the property suite.  A block holds one
# case from each stratum of the segment-pair estimate; the upper edges
# below are the estimate's deciles over 6,000 cases generated at these
# bounds (ties at small sizes make the strata hold 8-12% of cases each).
# Op time spans 2 ms to 0.3 s and doubles between the 40th and 60th
# percentile, so a run of plain consecutive cases would move its median
# op by about 10% with the luck of the draw.
CORPUS_BOUNDS = {"max_domains": 10, "max_orbits": 8, "max_boundary": 4, "weak_bias": "1/2"}
CORPUS_STRATA = (9, 15, 35, 55, 94, 142, 199, 265, 345)
CORPUS_BLOCK = len(CORPUS_STRATA) + 1
# wide: shallow, many-orbit scenarios, one per block: those whose
# segment-pair estimate (see segment_pair_estimate) lies in WIDE_BAND, the
# top tenth of the generator's range at these bounds, 28-40 orbits and
# about 1.5 s per op on a 2-core x86-64 VM.  The 1.6% of scenarios above
# it are skipped, since their spread of sizes would spread the run's
# totals.  Smaller scenarios are left to corpus: their op times spread
# more on a shared machine (see README.md).
WIDE_BOUNDS = {"max_domains": 40, "max_orbits": 40, "max_boundary": 6}
WIDE_BAND = (9000, 13000)
# deep: chain lengths, one of each per block, in seeded order; about 0.1 s,
# 0.45 s and 1.1 s per op on the same VM.
DEEP_LADDER = (20, 40, 60)
BLOCK_SIZE = {"corpus": CORPUS_BLOCK, "wide": 1, "deep": len(DEEP_LADDER)}

# Blocks built in set-up per measured second.  A run that uses up this
# pool builds more from the same seeded stream between blocks, outside any
# op's timing, so every run measures for the whole of its seconds.
POOL_PER_SECOND = {"corpus": 4, "wide": 1, "deep": 1}
# Ops of the traced run: a fixed prefix of whole blocks, so that its counts
# do not depend on speed.
TRACED_OPS = {"corpus": 100, "wide": 4, "deep": 3}

_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class Input:
    """One scenario of a workload; ``text`` is its canonical JSON."""

    id: str
    text: str
    case_seed: int = 0  # corpus only: the seed handed to `foliage check`


@dataclass
class OpResult:
    """What one op produced: exit codes, stdout and written files."""

    input: Input
    seconds: float
    codes: list[int]
    stdout: list[str]
    files: dict[str, bytes]
    error: str = ""

    def digest(self) -> str:
        h = hashlib.sha256()
        for code, out in zip(self.codes, self.stdout):
            h.update(f"{code}\n".encode())
            h.update(out.encode())
        for name in sorted(self.files):
            h.update(name.encode() + b"\n")
            h.update(self.files[name])
        return h.hexdigest()


def _stream(seed: int, salt: int) -> SplitMix64:
    # Start from a hashed state: consecutive raw states would give streams
    # that are shifted copies of each other.
    return SplitMix64(SplitMix64(((seed & _MASK) << 8) ^ salt).next_u64())


def _shuffled(rng: SplitMix64, items) -> list:
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def corpus_blocks(seed: int) -> Iterator[list[Input]]:
    """Consecutive check seeds from a seeded start, one per stratum in each
    block, in seeded order; repeats are skipped."""
    rng = _stream(seed, 0xC0_9905)
    start = 1 + (seed % 100_000) * 100_000
    queues: list[list[Input]] = [[] for _ in range(CORPUS_BLOCK)]
    seen: set[str] = set()
    for case_seed in itertools.count(start):
        cfg = GeneratorConfig(
            seed=case_seed,
            max_domains=CORPUS_BOUNDS["max_domains"],
            max_orbits=CORPUS_BOUNDS["max_orbits"],
            max_boundary=CORPUS_BOUNDS["max_boundary"],
            weak_bias=Fraction(CORPUS_BOUNDS["weak_bias"]),
        )
        s = generate_scenario(cfg)
        text = emit_scenario(s)
        if text in seen:
            continue
        seen.add(text)
        stratum = bisect.bisect_right(CORPUS_STRATA, segment_pair_estimate(s))
        queues[stratum].append(Input(id=f"corpus-{case_seed}", text=text, case_seed=case_seed))
        if all(queues):
            yield _shuffled(rng, [q.pop(0) for q in queues])


def segment_pair_estimate(s: Scenario) -> int:
    """Segment pairs the crossing oracle would test if no domains merged.

    A trajectory through d skeleton domains is drawn with at most 2d + 1
    segments, and the oracle tests every segment pair of every orbit pair,
    so this bounds (and tracks) its work without touching the program.
    """
    x = [2 * len(o.domains) + 1 for o in s.orbits]
    return (sum(x) ** 2 - sum(v * v for v in x)) // 2


def wide_blocks(seed: int) -> Iterator[list[Input]]:
    """Generated 40/40/6 scenarios in WIDE_BAND, one per block."""
    rng = _stream(seed, 0x57_1DE)
    lo, hi = WIDE_BAND
    seen: set[str] = set()
    while True:
        cfg = GeneratorConfig(seed=rng.next_u64(), **WIDE_BOUNDS)
        s = generate_scenario(cfg)
        if not lo <= segment_pair_estimate(s) < hi:
            continue
        text = emit_scenario(s)
        if text in seen:
            continue
        seen.add(text)
        yield [Input(id=f"wide-{cfg.seed:016x}", text=text)]


def chain_scenario(rng: SplitMix64, k: int) -> Scenario:
    """k domains in a line, one short orbit per link and one through all.

    Link leaf L<i> joins D<i-1> (left side) to D<i> (right side); every
    domain also gets up to two free leaves per side, so that cuts and leaf
    positions vary.  Tie ranks are a permutation, so no two orbits tie.
    """
    left: list[list[str]] = [[] for _ in range(k)]
    right: list[list[str]] = [[] for _ in range(k)]
    free = 0
    for i in range(k):
        for side in (left[i], right[i]):
            for _ in range(rng.below(3)):
                free += 1
                side.insert(rng.below(len(side) + 1), f"x{free}")
    for i in range(1, k):
        left[i - 1].insert(rng.below(len(left[i - 1]) + 1), f"L{i}")
        right[i].insert(rng.below(len(right[i]) + 1), f"L{i}")
    domains = tuple(SkeletonDomain(id=f"D{i}", left=tuple(left[i]), right=tuple(right[i])) for i in range(k))
    paths = [((i - 1, i), (f"D{i - 1}", f"L{i}", f"D{i}")) for i in range(1, k)]
    through = ["D0"]
    for i in range(1, k):
        through += [f"L{i}", f"D{i}"]
    paths.append(((0, k - 1), tuple(through)))
    ranks = _shuffled(rng, range(len(paths)))
    orbits = tuple(
        Orbit(
            id=f"O{n}",
            path=path,
            entry_cut=rng.below(len(right[first]) + 1),
            exit_cut=rng.below(len(left[last]) + 1),
            tie_rank=ranks[n],
        )
        for n, ((first, last), path) in enumerate(paths)
    )
    return Scenario(domains=domains, orbits=orbits)


def deep_blocks(seed: int) -> Iterator[list[Input]]:
    """Blocks of chains, one per ladder length, in seeded order."""
    rng = _stream(seed, 0xDEE9)
    for b in itertools.count():
        block = []
        for n, k in enumerate(_shuffled(rng, DEEP_LADDER)):
            text = emit_scenario(chain_scenario(rng, k))
            block.append(Input(id=f"deep-{seed}-{b}-{n}-k{k}", text=text))
        yield block


# Each workload's endless, seeded stream of blocks.
BUILDERS = {"corpus": corpus_blocks, "wide": wide_blocks, "deep": deep_blocks}


def build_blocks(workload: str, seed: int, n_blocks: int) -> list[list[Input]]:
    """The first ``n_blocks`` blocks of the workload's stream."""
    return list(itertools.islice(BUILDERS[workload](seed), n_blocks))


def write_inputs(blocks: list[list[Input]], workdir: Path) -> None:
    """Serialise the scenario files the wide and deep commands read."""
    for block in blocks:
        for inp in block:
            if not inp.case_seed:
                (workdir / f"{inp.id}.json").write_text(inp.text, encoding="utf-8")


def commands(workload: str, inp: Input, workdir: Path) -> list[list[str]]:
    """The CLI argument lists of one op."""
    if workload == "corpus":
        bounds = [f"--{k.replace('_', '-')}={v}" for k, v in CORPUS_BOUNDS.items()]
        return [["check", "--seed", str(inp.case_seed), "--cases", "1", *bounds]]
    path = str(workdir / f"{inp.id}.json")
    if workload == "wide":
        svg, chord = (str(workdir / f"{inp.id}.{ext}") for ext in ("svg", "chord.svg"))
        return [["diagram", path, "--svg", svg, "--chord", chord]]
    return [["relations", path, "--json"], ["diagram", path, "--format", "boundary", "--json"]]


def output_files(workload: str, inp: Input, workdir: Path) -> dict[str, bytes]:
    """The files an op wrote, by suffix."""
    suffixes = ("svg", "chord.svg") if workload == "wide" else ()
    paths = {suffix: workdir / f"{inp.id}.{suffix}" for suffix in suffixes}
    return {suffix: path.read_bytes() for suffix, path in paths.items() if path.exists()}


def run_op(workload: str, inp: Input, workdir: Path, clock) -> OpResult:
    """Run one op through ``foliage.cli.main``; only the calls are timed."""
    codes, outs = [], []
    elapsed = 0.0
    error = ""
    for argv in commands(workload, inp, workdir):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = clock()
                try:
                    code = cli.main(argv)
                finally:
                    elapsed += clock() - t0
        except Exception:  # an op that raises is a failed op, not a failed run
            error = traceback.format_exc(limit=-3)
            break
        codes.append(code)
        outs.append(out.getvalue())
    return OpResult(inp, elapsed, codes, outs, output_files(workload, inp, workdir), error)


# -- output checks ----------------------------------------------------------

_MATRIX_LINE = re.compile(r"^(\S+),(\S+) (\d+)(?: witness=\S+)?$")
_CHORD_LABEL = re.compile(r">([^<>]+)([+-])</text>")


def interleaving(ends: list[tuple[str, str]]) -> dict[tuple[str, str], int]:
    """1 for each orbit pair whose ends alternate around the cycle."""
    pos: dict[str, list[int]] = {}
    for i, (orbit, _kind) in enumerate(ends):
        pos.setdefault(orbit, []).append(i)
    out = {}
    for a, c in itertools.combinations(sorted(pos), 2):
        lo, hi = sorted(pos[a])
        out[(a, c)] = int(sum(lo < p < hi for p in pos[c]) == 1)
    return out


def _all_pairs(s: Scenario, nonzero: dict[tuple[str, str], int]) -> dict[tuple[str, str], int]:
    ids = sorted(o.id for o in s.orbits)
    return {pair: nonzero.get(pair, 0) for pair in itertools.combinations(ids, 2)}


def check_op(workload: str, res: OpResult) -> str:
    """Empty when the op's outputs are right, else the first problem found."""
    if res.error:
        return res.error
    if any(code != 0 for code in res.codes):
        return f"exit codes {res.codes}"
    if workload == "corpus":
        lines = res.stdout[0].splitlines()
        if not lines or lines[0] != "cases: 1" or lines[-1] != "result: all properties hold":
            return "check report is not ok"
        return ""
    s = parse_scenario(res.input.text)
    if not validate(s).ok:
        return "input does not validate"
    if workload == "wide":
        weak = _all_pairs(s, realize.weak_matrix(s).as_dict())
        crossings = {}
        for line in res.stdout[0].splitlines():
            m = _MATRIX_LINE.match(line)
            if not m:
                return f"unreadable matrix line {line!r}"
            crossings[(m[1], m[2])] = int(m[3])
        chord = res.files.get("chord.svg", b"").decode()
        ends = _CHORD_LABEL.findall(chord)
        r = reduce_scenario(s)
        routed = geometry.route(s, r, geometry.layout(s, r))
        if _all_pairs(s, geometry.exact_crossings(routed).as_dict()) != weak:
            return "geometric crossings differ from the weak matrix"
    else:
        weak = {tuple(p["pair"]): int(p["weak"]) for p in json.loads(res.stdout[0])["pairs"]}
        if weak.keys() != _all_pairs(s, {}).keys():
            return "relations output does not cover every orbit pair"
        ends = [tuple(e) for e in json.loads(res.stdout[1])["ends"]]
        crossings = _all_pairs(s, realize.crossing_matrix(s, reduce_scenario(s)).as_dict())
    if crossings != weak:
        return "crossing matrix differs from the weak matrix"
    if sorted(orbit for orbit, _kind in ends) != sorted(2 * [o.id for o in s.orbits]):
        return "boundary order does not hold both ends of every orbit once"
    if interleaving(ends) != weak:
        return "interleaving matrix differs from the weak matrix"
    return ""
