"""The foliage benchmark.

    python3 perfbench/run.py --workload corpus|wide|deep --seed N --seconds S --trace 0|1

Run from the root of a checkout; foliage is imported from its ``src``.
Each stage runs in a worker process of its own (see worker.py), so this
process never imports foliage and the untraced run never sees a wrapper.

``--trace 0`` times the workload and prints the end-to-end metrics:
set-up is timed in three fresh processes (median), then one process runs
whole blocks of ops for S seconds and a fresh process checks every op's
outputs.  ``--trace 1`` runs the workload's fixed op prefix untraced and
checked, then again traced, and prints the per-layer metrics; the traced
outputs must match the untraced ones byte for byte.

Lines ``op <id> <sha256>`` give a digest of each op's stdout and files, so
that two commits can be compared byte for byte.  The last line is the JSON
result.  The exit code is 0 when every op was correct, 1 when any op or
check failed, and 2 when the run could not be made at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "wide", "deep")
SETUP_REPEATS = 3
# A worker is killed after a fixed margin for set-up plus a multiple of
# --seconds: a measure run overruns its seconds by up to one block, and
# verify on wide recomputes about as much as the measured ops did.
WORKER_MARGIN_S = 60
WORKER_SECONDS_FACTOR = 3
END_TO_END = {
    "setup_s": "s",
    "scenarios_per_s": "1/s",
    "scenario_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


class WorkerError(Exception):
    pass


def worker_timeout(seconds: int) -> float:
    """Seconds after which a worker of a run of ``seconds`` is killed."""
    return WORKER_MARGIN_S + WORKER_SECONDS_FACTOR * seconds


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill every process left in the worker's process group."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:  # the group has ended
        pass


class Workers:
    """Starts worker processes for one run, each with a fresh directory."""

    def __init__(self, workload: str, seed: int, seconds: int, workdir: Path):
        self.args = [workload, str(seed), str(seconds)]
        self.timeout = worker_timeout(seconds)
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items() if k != "FOLIAGE_SEED"}
        # Write no byte-code cache, and read none either (each worker gets an
        # empty cache prefix), so that every set-up compiles the benchmark
        # and foliage from source, as the first run in a fresh checkout
        # does, whatever ran in the checkout before.
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.count = 0

    def run(self, mode: str, workdir: Path | None = None) -> tuple[float, dict]:
        """Run one worker; return its set-up seconds and its result."""
        if workdir is None:
            self.count += 1
            workdir = self.workdir / f"{mode}-{self.count}"
        cmd = [sys.executable, str(HERE / "worker.py"), mode, *self.args, str(workdir)]
        env = dict(self.env, PYTHONPYCACHEPREFIX=str(workdir / "pycache"))
        t0 = time.perf_counter()
        # A group of its own, so that killing it also ends the processes
        # the verify worker starts.
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, start_new_session=True)
        timer = threading.Timer(self.timeout, _kill_group, (proc,))
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.returncode is None:  # an exception left it running
                _kill_group(proc)
                proc.wait()
            proc.stdout.close()
        lines = rest.strip().splitlines()
        if ready.strip() != "READY" or code != 0 or not lines:
            raise WorkerError(f"{mode} worker failed with exit code {code}")
        result = json.loads(lines[-1])
        result["workdir"] = str(workdir)
        return setup_s, result


def _report(ops: list[dict], failures: dict[str, str], traps: list[str]) -> None:
    for op in ops:
        print(f"op {op['id']} {op['digest']}")
    for op_id, problem in sorted(failures.items()):
        print(f"failed {op_id}: {problem}", file=sys.stderr)
    for problem in traps:
        print(f"cache trap: {problem}", file=sys.stderr)


def end_to_end(workers: Workers) -> tuple[dict, int, int, bool]:
    setups = [workers.run("setup")[0] for _ in range(SETUP_REPEATS - 1)]
    setup_s, run = workers.run("measure")
    setups.append(setup_s)
    _, checked = workers.run("verify", Path(run["workdir"]))
    ops = run["ops"]
    _report(ops, checked["failures"], run["cache_trap"])
    # Runs measure whole blocks, so the pooled rate is at the workload's
    # fixed size mix; it varies less with the inputs than a median over
    # blocks, whose time the largest op of each dominates.
    values = {
        "setup_s": statistics.median(setups),
        "scenarios_per_s": len(ops) / sum(op["seconds"] for op in ops),
        "scenario_ms_p50": statistics.median(op["seconds"] for op in ops) * 1000.0,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    failed = len(checked["failures"])
    correct = failed == 0 and checked["checked"] == len(ops) and not run["cache_trap"]
    return values, len(ops), failed, correct


def per_layer(workers: Workers) -> tuple[dict, int, int, bool]:
    _, base = workers.run("fixed")
    _, checked = workers.run("verify", Path(base["workdir"]))
    _, traced = workers.run("traced")
    expected = {op["id"]: op["digest"] for op in base["ops"]}
    failures = {
        op["id"]: "traced output differs from the untraced output"
        for op in traced["ops"]
        if expected.get(op["id"]) != op["digest"]
    }
    failures.update(checked["failures"])
    traps = base["cache_trap"] + traced["cache_trap"]
    _report(base["ops"], failures, traps)
    values = dict(traced["layers"])
    traced_s = sum(op["seconds"] for op in traced["ops"])
    values["trace_overhead"] = traced_s / sum(op["seconds"] for op in base["ops"])
    complete = checked["checked"] == len(base["ops"]) == len(traced["ops"])
    return values, len(base["ops"]), len(failures), not failures and complete and not traps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "foliage" / "__init__.py").is_file():
        print(f"perfbench: no foliage sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds positive")
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workers = Workers(args.workload, args.seed, args.seconds, workdir)
    try:
        measure = per_layer if args.trace else end_to_end
        values, attempted, failed, correct = measure(workers)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    if args.trace:
        from tracer import metric_units  # plain Python; imports no foliage

        units = metric_units()
    else:
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
