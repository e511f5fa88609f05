"""One benchmark process: set-up, then a timed, fixed, traced or verify run.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS WORKDIR

Every mode first imports foliage from the checkout's ``src``; all but
``verify`` then build the workload's inputs from SEED and write them to
WORKDIR.  Then the worker prints ``READY``; the parent times set-up up to
that line.  After that:

- ``setup``   stops.
- ``measure`` runs whole blocks of ops until SECONDS have passed, building
              more blocks between blocks if it uses up the set-up pool.
- ``fixed``   runs the workload's traced prefix (``TRACED_OPS``).
- ``traced``  does the same with the tracer installed.
- ``verify``  checks the outputs a measure or fixed run left in WORKDIR,
              in two processes of its own.

The last line of stdout is one JSON object.  Each op's stdout is written to
WORKDIR/out so that the run holds no output in memory and ``verify`` can
check it in a fresh process.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import multiprocessing
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import foliage  # noqa: E402

if Path(foliage.__file__).resolve().parent.parent != SRC:
    sys.exit(f"perfbench: foliage imported from {foliage.__file__}, not from {SRC}")

from foliage import decompose, model  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

MODES = ("setup", "measure", "fixed", "traced", "verify")
# Processes that share the output checks, one per core of the 2-core VM
# the benchmark was tuned on.
VERIFY_PROCESSES = 2


# The scenario-keyed caches, while the program has them; taken before any
# tracer wraps the functions.
CACHES = {
    name: fn.cache_info
    for name, fn in (("model.index", model.index), ("decompose.reduce_scenario", decompose.reduce_scenario))
    if hasattr(fn, "cache_info")
}


def _cache_misses() -> dict[str, int]:
    return {name: info().misses for name, info in CACHES.items()}


def _save(res: workloads.OpResult, outdir: Path) -> None:
    record = {"id": res.input.id, "codes": res.codes, "stdout": res.stdout, "error": res.error}
    (outdir / f"{res.input.id}.json").write_text(json.dumps(record), encoding="utf-8")


def _written(blocks, workdir: Path):
    """Yield blocks from ``blocks``, writing each one's inputs first."""
    for block in blocks:
        workloads.write_inputs([block], workdir)
        yield block


def run_ops(workload: str, ops, workdir: Path, deadline: float | None = None) -> dict:
    """Run ops, one scenario each, and check the cache-trap invariant.

    With a deadline, ``ops`` is an iterable of blocks and a new block starts
    only while time is left; otherwise it is a flat list.
    """
    outdir = workdir / "out"
    outdir.mkdir(exist_ok=True)
    clock = time.perf_counter
    misses = dict.fromkeys(CACHES, 0)
    results = []
    start = clock()
    blocks = iter(ops if deadline is not None else [ops])
    while deadline is None or clock() - start < deadline:
        block = next(blocks, None)
        if block is None:
            break
        for inp in block:
            gc.collect()
            before = _cache_misses()
            res = workloads.run_op(workload, inp, workdir, clock)
            for name, n in _cache_misses().items():
                misses[name] += n - before[name]
            _save(res, outdir)
            results.append({"id": inp.id, "seconds": res.seconds, "digest": res.digest(), "error": res.error})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Each scenario is processed once per process, so a cache hit can only
    # come from inside one op; a miss count below the scenario count means
    # an op timed a cache hit left by another op.  Only misses inside ops
    # count: building more blocks between them is not measured.
    trap = [f"{name}: {n} misses for {len(results)} scenarios" for name, n in misses.items() if n != len(results)]
    return {"ops": results, "peak_rss_mb": peak_rss_mb, "cache_trap": trap}


def _check(workload: str, workdir: Path, path: Path) -> tuple[str, str]:
    """The op id saved at ``path`` and its first problem, empty if none."""
    record = json.loads(path.read_text(encoding="utf-8"))
    text = "" if workload == "corpus" else (workdir / f"{record['id']}.json").read_text(encoding="utf-8")
    inp = workloads.Input(id=record["id"], text=text)
    files = workloads.output_files(workload, inp, workdir)
    res = workloads.OpResult(inp, 0.0, record["codes"], record["stdout"], files, record["error"])
    try:
        return record["id"], workloads.check_op(workload, res)
    except Exception as exc:  # output the checks cannot even read is wrong output
        return record["id"], f"unreadable output: {exc!r}"


def verify(workload: str, workdir: Path) -> dict:
    """Check every saved op, in VERIFY_PROCESSES spawned processes.

    On wide the checks recompute the crossing oracle, about as much work
    as the measured ops; sharing it out keeps a run's wall time short.
    """
    paths = sorted((workdir / "out").glob("*.json"))
    check = functools.partial(_check, workload, workdir)
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(VERIFY_PROCESSES, mp_context=context) as pool:
        problems = dict(pool.map(check, paths))
    return {"checked": len(problems), "failures": {i: p for i, p in sorted(problems.items()) if p}}


def n_blocks(mode: str, workload: str, seconds: int) -> int:
    if mode in ("measure", "setup"):
        return max(1, workloads.POOL_PER_SECOND[workload] * seconds)
    return -(-workloads.TRACED_OPS[workload] // workloads.BLOCK_SIZE[workload])


def main(argv: list[str]) -> int:
    if len(argv) != 5 or argv[0] not in MODES or argv[1] not in workloads.WORKLOADS:
        print(f"usage: {__doc__.splitlines()[2].strip()}", file=sys.stderr)
        return 2
    mode, workload = argv[:2]
    seed, seconds, workdir = int(argv[2]), int(argv[3]), Path(argv[4])
    workdir.mkdir(parents=True, exist_ok=True)
    if mode == "verify":
        print("READY", flush=True)
        print(json.dumps(verify(workload, workdir)))
        return 0
    stream = workloads.BUILDERS[workload](seed)
    blocks = list(itertools.islice(stream, n_blocks(mode, workload, seconds)))
    workloads.write_inputs(blocks, workdir)
    print("READY", flush=True)
    if mode == "setup":
        print(json.dumps({}))
        return 0
    if mode == "measure":
        pool = itertools.chain(blocks, _written(stream, workdir))
        print(json.dumps(run_ops(workload, pool, workdir, deadline=seconds)))
        return 0
    flat = [inp for block in blocks for inp in block][: workloads.TRACED_OPS[workload]]
    if mode == "fixed":
        print(json.dumps(run_ops(workload, flat, workdir)))
        return 0
    t = tracer.Tracer().install()
    result = run_ops(workload, flat, workdir)
    t.uninstall()
    result["layers"] = t.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
