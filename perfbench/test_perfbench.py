"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import bisect
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracer
import worker
import workloads
from foliage import checks
from foliage.generator import SplitMix64
from foliage.model import emit_scenario, parse_scenario, validate

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload,n_blocks", [("corpus", 40), ("wide", 2), ("deep", 1)])
def test_inputs_repeat_byte_for_byte_and_validate(workload, n_blocks):
    first = workloads.build_blocks(workload, 7, n_blocks)
    again = workloads.build_blocks(workload, 7, n_blocks)
    assert first == again
    other = workloads.build_blocks(workload, 8, n_blocks)
    assert [i.text for b in first for i in b] != [i.text for b in other for i in b]
    texts = [inp.text for block in first for inp in block]
    assert len(set(texts)) == len(texts), "a scenario repeats within one run"
    assert all(len(block) == workloads.BLOCK_SIZE[workload] for block in first)
    for text in texts:
        s = parse_scenario(text)
        assert validate(s).ok
        assert emit_scenario(s) == text
    sizes = [[workloads.segment_pair_estimate(parse_scenario(i.text)) for i in block] for block in first]
    if workload == "corpus":
        for block in sizes:
            strata = sorted(bisect.bisect_right(workloads.CORPUS_STRATA, size) for size in block)
            assert strata == list(range(workloads.CORPUS_BLOCK)), "one case from each stratum"
    if workload == "wide":
        lo, hi = workloads.WIDE_BAND
        assert all(lo <= size < hi for block in sizes for size in block)


def _chain_input(k: int) -> workloads.Input:
    s = workloads.chain_scenario(SplitMix64(12345 + k), k)
    return workloads.Input(id=f"test-chain-{k}", text=emit_scenario(s))


def _wide_input() -> workloads.Input:
    return workloads.build_blocks("wide", 3, 1)[0][0]


def _op(workload, inp, tmp_path):
    workloads.write_inputs([[inp]], tmp_path)
    return workloads.run_op(workload, inp, tmp_path, time.perf_counter)


def test_right_outputs_pass(tmp_path):
    corpus = workloads.build_blocks("corpus", 5, 1)[0][0]
    for workload, inp in (("corpus", corpus), ("wide", _wide_input()), ("deep", _chain_input(12))):
        res = _op(workload, inp, tmp_path)
        assert workloads.check_op(workload, res) == "", workload


def _first_adjacent_pair(orbits: list[str]) -> int:
    """Index i with ends i and i+1 of different orbits: swapping them flips
    whether exactly those two orbits interleave."""
    return next(i for i in range(len(orbits) - 1) if orbits[i] != orbits[i + 1])


def _tamper(workload: str, res: workloads.OpResult, how: str) -> workloads.OpResult:
    codes, out, files, error = list(res.codes), list(res.stdout), dict(res.files), ""
    if how == "exit":
        codes = [1] * len(codes)
    elif how == "raise":
        error = "Traceback: boom"
    elif how == "garbage":
        out[0] = "not a report\n"
    elif how == "report":
        out[0] = out[0].replace("all properties hold", "FAILURES detected")
    elif (workload, how) == ("wide", "matrix"):
        head, rest = out[0].split("\n", 1)
        pair, count = head.split(" ")[:2]
        out[0] = f"{pair} {1 - int(count)}\n{rest}"
    elif (workload, how) == ("deep", "matrix"):
        doc = json.loads(out[0])
        doc["pairs"][0]["weak"] = not doc["pairs"][0]["weak"]
        out[0] = json.dumps(doc)
    elif workload == "wide":
        chord = files["chord.svg"].decode()
        labels = list(workloads._CHORD_LABEL.finditer(chord))
        i = _first_adjacent_pair([m[1] for m in labels])
        a, b = labels[i], labels[i + 1]
        chord = chord[: a.start()] + b[0] + chord[a.end() : b.start()] + a[0] + chord[b.end() :]
        files["chord.svg"] = chord.encode()
    else:
        doc = json.loads(out[1])
        ends = doc["ends"]
        i = _first_adjacent_pair([orbit for orbit, _kind in ends])
        ends[i], ends[i + 1] = ends[i + 1], ends[i]
        out[1] = json.dumps(doc)
    return workloads.OpResult(res.input, 0.0, codes, out, files, error)


@pytest.mark.parametrize(
    "workload,how",
    [
        ("corpus", "report"),
        ("corpus", "exit"),
        ("corpus", "raise"),
        ("wide", "matrix"),
        ("wide", "ends"),
        ("wide", "exit"),
        ("deep", "matrix"),
        ("deep", "ends"),
        ("deep", "exit"),
        ("deep", "garbage"),
    ],
)
def test_wrong_output_is_counted_as_failed(workload, how, tmp_path):
    inp = {
        "corpus": workloads.build_blocks("corpus", 5, 1)[0][0],
        "wide": _wide_input(),
        "deep": _chain_input(9),
    }[workload]
    good = _op(workload, inp, tmp_path)
    bad = _tamper(workload, good, how)
    # The verify stage counts it: one failure among the saved ops.
    outdir = tmp_path / "out"
    outdir.mkdir()
    other = workloads.Input(id=f"{inp.id}-copy", text=inp.text, case_seed=inp.case_seed)
    workloads.write_inputs([[other]], tmp_path)
    for suffix, data in good.files.items():
        (tmp_path / f"{other.id}.{suffix}").write_bytes(data)
    worker._save(workloads.OpResult(other, 0.0, good.codes, good.stdout, good.files), outdir)
    for suffix, data in bad.files.items():
        (tmp_path / f"{inp.id}.{suffix}").write_bytes(data)
    worker._save(bad, outdir)
    result = worker.verify(workload, tmp_path)
    assert result["checked"] == 2
    assert list(result["failures"]) == [inp.id]


def test_repeated_scenario_is_reported_as_cache_trap(tmp_path):
    fresh, repeated = _chain_input(8), _chain_input(7)
    workloads.write_inputs([[fresh, repeated]], tmp_path)
    assert worker.run_ops("deep", [fresh], tmp_path)["cache_trap"] == []
    assert worker.run_ops("deep", [repeated, repeated], tmp_path)["cache_trap"] != []


def test_measure_builds_more_blocks_when_the_pool_runs_out(tmp_path):
    # An empty set-up pool: every block comes from the stream, written to
    # the workdir just before it runs, and the cache-trap check still holds.
    stream = iter([[_chain_input(10)], [_chain_input(11)]])
    result = worker.run_ops("deep", worker._written(stream, tmp_path), tmp_path, deadline=60)
    assert [op["id"] for op in result["ops"]] == ["test-chain-10", "test-chain-11"]
    assert result["cache_trap"] == []
    assert (tmp_path / "test-chain-11.json").is_file()


def test_worker_timeout_grows_with_the_run():
    for seconds in (1, 25, 60, 200):
        # Room for set-up, a measure run that overruns by a block, and a
        # verify as long as the measured ops.
        assert run.worker_timeout(seconds) >= 2 * seconds + 30


def _traced(workload: str, seed: int, workdir: Path) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "traced", workload, str(seed), "1", str(workdir)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=300).stdout
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first = _traced(workload, 4, tmp_path / "a")
    again = _traced(workload, 4, tmp_path / "b")
    assert len(first["ops"]) == workloads.TRACED_OPS[workload]
    units = tracer.metric_units()
    exact = [name for name, unit in units.items() if unit != "ms" and name != "trace_overhead"]
    assert {k: first["layers"][k] for k in exact} == {k: again["layers"][k] for k in exact}
    assert [op["digest"] for op in first["ops"]] == [op["digest"] for op in again["ops"]]
    assert first["layers"]["cli.main.ms"] > 0 and first["layers"]["size.orbits"] > 0
    # Self times add up to the traced op time: nothing is counted twice.
    self_ms = sum(v for k, v in first["layers"].items() if units.get(k) == "ms")
    op_ms = 1000.0 * sum(op["seconds"] for op in first["ops"])
    assert self_ms == pytest.approx(op_ms, rel=0.02)
    assert first["cache_trap"] == []


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
    # wide runs on request only (see README.md).
    assert [w["name"] for w in spec["workloads"]] == ["corpus", "deep"]
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS) == ["corpus", "wide", "deep"]
    assert tuple(name for name, _fn in checks.PROPERTIES) == tracer.PROPERTIES


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
