import hashlib
import io
import json
import os
import sys
import time
from fractions import Fraction
from xml.dom import minidom

import pytest

from foliage import decompose, generator, geometry, model, realize
from foliage.cli import _parser, main
from foliage.model import emit_scenario, fixture_text
from test_crossing_kernel import _numbers
from deep_families import chain, zigzag


@pytest.fixture
def s1_path(tmp_path):
    path = tmp_path / "S1.json"
    path.write_text(fixture_text("S1"), encoding="utf-8")
    return str(path)


@pytest.fixture
def s2_path(tmp_path):
    path = tmp_path / "S2.json"
    path.write_text(fixture_text("S2"), encoding="utf-8")
    return str(path)


def test_validate_clean_fixture(s1_path, capsys):
    assert main(["validate", s1_path]) == 0
    assert capsys.readouterr().out == "0 findings\n"


def test_validate_broken_file_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"domains": [', encoding="utf-8")
    assert main(["validate", str(path)]) == 1


def test_validate_findings_exit_one(tmp_path, capsys):
    doc = json.loads(fixture_text("S1"))
    doc["orbits"][0]["exit_cut"] = 5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "cut out of range" in out
    assert out.endswith("1 findings\n")


def test_validate_json_flag(s1_path, capsys):
    assert main(["validate", s1_path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"findings": []}


def test_relations_pair_line(s1_path, capsys):
    assert main(["relations", s1_path, "--pair", "O_a", "O_b"]) == 0
    assert capsys.readouterr().out == "L: SecondLess(L1); R: FirstLess(R1); weak: true\n"


def test_relations_matrix_lists_all_pairs(s2_path, capsys):
    assert main(["relations", s2_path]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 6  # all pairs of four orbits
    assert "O1,O3" in out


def test_relations_unknown_pair_is_usage_error(s1_path, capsys):
    assert main(["relations", s1_path, "--pair", "O_a", "nope"]) == 2


def test_relations_pair_with_json_is_usage_error(s1_path, capsys):
    assert main(["relations", s1_path, "--pair", "O_a", "O_b", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not allowed with argument" in captured.err


def test_decompose_text(s2_path, capsys):
    assert main(["decompose", s2_path]) == 0
    out = capsys.readouterr().out
    assert "M:D alpha={O1,O4} omega={O3,O4} in={O2,O3} out={O1,O2}" in out


def test_decompose_json(s2_path, capsys):
    assert main(["decompose", s2_path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["roles"]["M:D"]["alpha"] == ["O1", "O4"]


def test_diagram_matrix(s1_path, capsys):
    assert main(["diagram", s1_path]) == 0
    assert capsys.readouterr().out == "O_a,O_b 1 witness=M:D\n"


def test_diagram_boundary(s1_path, capsys):
    assert main(["diagram", s1_path, "--format", "boundary"]) == 0
    out = capsys.readouterr().out
    assert out.count("(O_a,backward)") == 1
    assert out.count("(O_b,forward)") == 1


def test_diagram_writes_svg_files(s1_path, tmp_path, capsys):
    svg = tmp_path / "out.svg"
    chord = tmp_path / "chord.svg"
    assert main(["diagram", s1_path, "--svg", str(svg), "--chord", str(chord)]) == 0
    assert svg.read_text(encoding="utf-8").startswith("<?xml")
    assert "<circle" in chord.read_text(encoding="utf-8")


def test_svg_ids_are_xml_escaped(tmp_path, capsys):
    doc = {
        "domains": [{"id": "D<&", "left": ["k&1"], "right": []}, {"id": "E", "left": [], "right": ["k&1"]}],
        "orbits": [{"id": "O<1>", "path": ["D<&", "k&1", "E"], "entry_cut": 0, "exit_cut": 0, "tie_rank": 0}],
    }
    path, svg, chord = tmp_path / "ids.json", tmp_path / "out.svg", tmp_path / "chord.svg"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["diagram", str(path), "--svg", str(svg), "--chord", str(chord)]) == 0

    def texts(file):
        return [node.firstChild.data for node in minidom.parse(str(file)).getElementsByTagName("text")]

    drawn = texts(svg)
    assert "k&1" in drawn and "O<1>" in drawn
    assert any("D<&" in text for text in drawn)  # the box label
    assert any(text.endswith("Oα={O<1>} Oω={O<1>} Oin={} Oout={}") for text in drawn)  # the role legend
    assert texts(chord) == ["O<1>-", "O<1>+"]


def test_generate_is_deterministic(capsys):
    assert main(["generate", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["generate", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first
    json.loads(first)


def test_env_seed_override(monkeypatch, capsys):
    monkeypatch.setenv("FOLIAGE_SEED", "9")
    assert main(["generate", "--seed", "5"]) == 0
    with_env = capsys.readouterr().out
    monkeypatch.delenv("FOLIAGE_SEED")
    assert main(["generate", "--seed", "9"]) == 0
    assert capsys.readouterr().out == with_env


def test_check_reports_and_exits_zero(capsys):
    assert main(["check", "--seed", "3", "--cases", "3"]) == 0
    out = capsys.readouterr().out
    assert "cases: 3" in out
    assert "result: all properties hold" in out
    assert "FAIL" not in out


def test_check_json(capsys):
    assert main(["check", "--seed", "3", "--cases", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["cases"] == 2


def test_check_is_byte_deterministic(capsys):
    assert main(["check", "--seed", "42", "--cases", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["check", "--seed", "42", "--cases", "5"]) == 0
    assert capsys.readouterr().out == first


def test_usage_error_exit_code():
    assert main([]) == 2
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--cases", "0"],
        ["generate", "--max-domains", "0"],
        ["generate", "--seed", "-1"],
    ],
)
def test_out_of_range_generator_arguments_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("foliage: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["generate", "check"])
@pytest.mark.parametrize("flag", ["--max-domains", "--max-orbits", "--max-boundary"])
def test_generator_bounds_above_the_ceiling_are_usage_errors(command, flag, monkeypatch, capsys):
    def draw(*_args):
        raise AssertionError("a scenario was drawn")

    monkeypatch.setattr(generator, "_draw", draw)
    bound = generator.MAX_BOUND
    assert main([command, flag, str(bound + 1)]) == 2
    assert capsys.readouterr().err == f"foliage: domain, orbit and boundary bounds must be at most {bound}\n"
    # The ceiling itself is accepted.
    generator.GeneratorConfig(seed=1, max_domains=bound, max_orbits=bound, max_boundary=bound)


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "{file}", "--json"],
        ["relations", "{file}"],
        ["relations", "{file}", "--json"],
        ["relations", "{file}", "--pair", "O1", "O2"],
        ["diagram", "{file}"],
        ["diagram", "{file}", "--format", "boundary", "--json"],
        ["diagram", "{file}", "--svg", "{svg}"],
        ["check", "--cases", "3"],
    ],
    ids=" ".join,
)
def test_one_index_per_scenario_object(argv, s2_path, tmp_path, monkeypatch, capsys):
    built = []
    init = model.ScenarioIndex.__init__

    def counting_init(self, s):
        built.append(s)
        init(self, s)

    monkeypatch.setattr(model.ScenarioIndex, "__init__", counting_init)
    argv = [arg.format(file=s2_path, svg=tmp_path / "out.svg") for arg in argv]
    assert main(argv) == 0
    assert built and len({id(s) for s in built}) == len(built)
    if argv[0] != "check":
        assert len(built) == 1


def test_missing_file_is_usage_error(capsys):
    assert main(["validate", "/nonexistent/scenario.json"]) == 2


def test_check_harness_detects_a_corrupted_property(capsys):
    # Self-test: a deliberately wrong comparator must surface as a failure.
    from foliage.checks import run_check
    from foliage.generator import GeneratorConfig

    def corrupted_crossing_property(ctx):
        from foliage.relations import classic_transverse

        ids = sorted(o.id for o in ctx.scenario.orbits)
        import itertools

        classic = {
            (a, b): 1
            for a, b in itertools.combinations(ids, 2)
            if classic_transverse(ctx.scenario, a, b)
        }
        if classic != ctx.crossings.as_dict():
            return ["crossing matrix differs from the (wrong) classic matrix"]
        return []

    report = run_check(GeneratorConfig(seed=1), 20, properties=(("crossing-minimality", corrupted_crossing_property),))
    assert not report.ok
    assert report.failures[0].seed >= 1
    assert "minimal failing scenario" in report.render_text()


def _count_calls(monkeypatch, mod, name):
    """Count calls to ``mod.name``, made through any foliage module that holds it."""
    fn, calls = getattr(mod, name), []

    def counting(*args):
        calls.append(args)
        return fn(*args)

    for key, m in list(sys.modules.items()):
        if key == "foliage" or key.startswith("foliage."):
            for attr, value in list(vars(m).items()):
                if value is fn:
                    monkeypatch.setattr(m, attr, counting)
    return calls


@pytest.mark.parametrize(
    "flags, orders",
    [
        (["--format", "matrix"], 0),
        (["--format", "matrix", "--svg", "{tmp}/d.svg"], 0),
        (["--format", "matrix", "--json", "--svg", "{tmp}/d.svg", "--chord", "{tmp}/c.svg"], 1),
        (["--format", "boundary", "--json"], 1),
        (["--format", "boundary", "--chord", "{tmp}/c.svg", "--svg", "{tmp}/d.svg"], 1),
    ],
    ids=["matrix", "matrix-svg", "matrix-json-svg-chord", "boundary-json", "boundary-chord-svg"],
)
def test_diagram_builds_each_port_plan_once_and_only_what_it_reads(
    s2_path, tmp_path, capsys, monkeypatch, flags, orders
):
    plans = _count_calls(monkeypatch, realize, "port_plan")
    boundary = _count_calls(monkeypatch, realize, "boundary_order")
    interleaving = _count_calls(monkeypatch, realize, "interleaving_matrix")
    assert main(["diagram", s2_path] + [f.format(tmp=tmp_path) for f in flags]) == 0
    # Only --format boundary and --chord read the boundary order; no output
    # reads the chords' interleaving matrix.
    assert len(boundary) == orders
    assert interleaving == []
    maxdomains = decompose.reduce_scenario(model.fixture("S2")).maxdomains
    assert len(maxdomains) > 1
    assert sorted(m.id for _s, m in plans) == sorted(m.id for m in maxdomains)
    assert len({id(s) for s, _m in plans}) == 1


def test_repeated_main_calls_match_fresh_ones(s2_path, capsys):
    runs = [["relations", s2_path, "--pair", "O1", "O3"], ["relations", s2_path, "--json"]]
    fresh = []
    for argv in runs:
        _parser.cache_clear()
        assert main(argv) == 0
        fresh.append(capsys.readouterr())
    _parser.cache_clear()
    assert [main(argv) for argv in runs] == [0, 0]
    assert _parser.cache_info().misses == 1  # one parser served both calls
    out = capsys.readouterr()
    assert out.out == "".join(f.out for f in fresh)
    assert out.err == "".join(f.err for f in fresh) == ""


def test_chord_on_a_1200_deep_chain_skips_the_layout(tmp_path, capsys):
    s = chain(1200)
    path, chord = tmp_path / "chain.json", tmp_path / "chord.svg"
    path.write_text(emit_scenario(s), encoding="utf-8")
    assert main(["diagram", str(path), "--format", "boundary", "--chord", str(chord)]) == 0
    svg = chord.read_text(encoding="utf-8")
    for o in s.orbits:
        assert svg.count(f">{o.id}-</text>") == 1
        assert svg.count(f">{o.id}+</text>") == 1


@pytest.fixture(scope="module")
def chain1200_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("chain1200") / "chain.json"
    path.write_text(emit_scenario(chain(1200)), encoding="utf-8")
    return str(path)


def _timed_main(argv, capsys, seconds):
    """``main(argv)``'s stdout, after asserting it exited 0 within ``seconds`` of CPU."""
    start = time.process_time()
    assert main(argv) == 0
    assert time.process_time() - start < seconds
    out = capsys.readouterr()
    assert out.err == ""
    return out.out


def test_an_svg_past_the_float_range_exits_one_without_a_traceback(tmp_path, capsys):
    # The zigzag's page width grows exponentially with its depth; at k = 700
    # the viewBox no longer fits in a float.
    path, svg = tmp_path / "zz700.json", tmp_path / "out.svg"
    path.write_text(emit_scenario(zigzag(700)), encoding="utf-8")
    assert main(["diagram", str(path), "--format", "boundary", "--svg", str(svg)]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("foliage: SVG coordinate past the float range")
    assert out.err.count("\n") == 1 and "Traceback" not in out.err
    assert not svg.exists()


def test_decompose_json_on_a_1200_deep_chain(chain1200_path, capsys):
    doc = json.loads(_timed_main(["decompose", chain1200_path, "--json"], capsys, 3.0))
    assert [m["id"] for m in doc["maxdomains"]] == sorted(f"M:D{i}" for i in range(1200))
    assert len(doc["edges"]) == len(doc["critical"]) == 1199


def test_boundary_json_on_a_1200_deep_chain_has_each_end_once(chain1200_path, capsys):
    doc = json.loads(_timed_main(["diagram", chain1200_path, "--format", "boundary", "--json"], capsys, 3.0))
    ends = [tuple(end) for end in doc["ends"]]
    assert sorted(ends) == sorted((f"O{n}", kind) for n in range(1200) for kind in ("backward", "forward"))


def test_relations_pair_and_validate_on_a_1200_deep_chain(chain1200_path, capsys):
    line = _timed_main(["relations", chain1200_path, "--pair", "O0", "O1199"], capsys, 3.0)
    assert line == "L: SecondLess(L2); R: Equivalent(R4); weak: false\n"
    assert _timed_main(["validate", chain1200_path], capsys, 3.0) == "0 findings\n"


CHAIN400_SVG_DIGEST ="96bbc6c3ac586642794304a9c507a8a63c91cc6ce7525d53c928126cb1ca344b"


def test_svg_on_a_400_deep_chain_draws_every_crossing(tmp_path, capsys, monkeypatch):
    s = chain(400)
    path, svg = tmp_path / "chain.json", tmp_path / "chain.svg"
    path.write_text(emit_scenario(s), encoding="utf-8")
    drawn, built = [], []
    emit_svg = geometry.emit_svg
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    def spy(lay, routed, roles=None):
        drawn.append((lay, routed))
        with monkeypatch.context() as m:
            m.setattr(Fraction, "__new__", staticmethod(counted))
            return emit_svg(lay, routed, roles)

    monkeypatch.setattr(geometry, "emit_svg", spy)
    assert main(["diagram", str(path), "--format", "boundary", "--svg", str(svg)]) == 0
    data = svg.read_bytes()
    assert data.count(b"<circle ") == 795
    # Denominators reach about 1,400 bits here, against the few bits of the test_cli_bytes.py pins.
    assert hashlib.sha256(data).hexdigest() == CHAIN400_SVG_DIGEST
    # The layout and the crossing points are ints only, and the writer built
    # no Fraction: no polyline's Fraction view either.
    ((lay, routed),) = drawn
    assert lay.den > 1 and all(type(v) is int for v in _numbers(lay))
    assert len(built) == 0
    assert not any("points" in poly.__dict__ for poly in routed.polylines)


def test_chord_without_orbits_is_usage_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"domains": [{"id": "D", "left": [], "right": []}], "orbits": []}', encoding="utf-8")
    assert main(["diagram", str(path), "--chord", str(tmp_path / "c.svg")]) == 2
    assert "chord diagram requires at least one orbit" in capsys.readouterr().err
    assert main(["diagram", str(path), "--svg", str(tmp_path / "d.svg")]) == 2
    assert capsys.readouterr().err == "foliage: SVG diagram requires at least one orbit\n"
    # Given together, the SVG error comes first, then the chord one, then the boundary one.
    for flags, error in (
        (["--format", "matrix", "--chord", "c.svg", "--svg", "d.svg"], "SVG diagram"),
        (["--format", "boundary", "--chord", "c.svg"], "chord diagram"),
        (["--format", "boundary", "--json"], "boundary order"),
    ):
        assert main(["diagram", str(path)] + [str(tmp_path / f) if f.endswith(".svg") else f for f in flags]) == 2
        assert capsys.readouterr() == ("", f"foliage: {error} requires at least one orbit\n")
    assert not list(tmp_path.glob("*.svg"))


def test_non_utf8_scenario_is_a_parse_finding(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_bytes(b"\xff\xfe")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err.startswith("finding: parse: not UTF-8")


@pytest.mark.parametrize("flag", ["--svg", "--chord"])
@pytest.mark.parametrize("target", ["missing/x.svg", "."])
def test_unwritable_output_path_is_usage_error(s1_path, tmp_path, capsys, flag, target):
    out = str(tmp_path / target)
    assert main(["diagram", s1_path, "--format", "boundary", flag, out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"foliage: cannot write {out!r}: ")
    assert "Traceback" not in err


def test_deeply_nested_json_is_a_parse_finding(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == "finding: parse: nested too deeply\n"


def test_oversized_number_is_a_parse_finding(tmp_path, capsys):
    doc = json.loads(fixture_text("S1"))
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc).replace('"entry_cut": 0', '"entry_cut": ' + "9" * 5000, 1), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    limit = sys.get_int_max_str_digits()
    assert capsys.readouterr().err == f"finding: parse: number longer than {limit} digits\n"


def test_python_dash_m_foliage_validates_s0(tmp_path):
    import subprocess
    from pathlib import Path

    path = tmp_path / "S0.json"
    path.write_text(fixture_text("S0"), encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-m", "foliage", "validate", str(path)], capture_output=True, text=True, env=env, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "0 findings\n", "")


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize(
    "args",
    [["relations"], ["relations", "--json"], ["decompose", "--json"], ["diagram"], ["diagram", "--json"], ["validate"]],
)
def test_a_closed_stdout_exits_one_without_a_traceback(tmp_path, args, unbuffered):
    import subprocess
    from pathlib import Path

    path = tmp_path / "chain.json"
    path.write_text(emit_scenario(chain(60)), encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    env["PYTHONUNBUFFERED"] = unbuffered
    # The read end is closed before the command starts, so its first write
    # (or, when buffered, the flush) fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "foliage", args[0], str(path), *args[1:]],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")


class _Closed:
    """A stdout whose writes fail as on a closed pipe, over the descriptor
    ``fd``, or over none, as an ``io.StringIO``."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        if self.fd is None:
            raise io.UnsupportedOperation("fileno")
        return self.fd


@pytest.mark.parametrize("on_a_file", [False, True])
def test_a_broken_stream_exits_one_and_keeps_its_descriptors(on_a_file, s1_path, tmp_path, monkeypatch):
    with open(tmp_path / "out", "w") as handle:
        monkeypatch.setattr(sys, "stdout", _Closed(handle.fileno() if on_a_file else None))
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            assert main(["relations", s1_path]) == 1
        assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize("env", [False, True])
def test_a_last_case_seed_past_64_bits_is_a_usage_error(env, monkeypatch, capsys):
    def draw(*_args):
        raise AssertionError("a scenario was drawn")

    top = str((1 << 64) - 1)
    if env:
        monkeypatch.setenv("FOLIAGE_SEED", top)
    argv = ["check", "--seed", "1" if env else top, "--cases", "2"]
    with monkeypatch.context() as m:
        m.setattr(generator, "_draw", draw)
        assert main(argv) == 2
    assert capsys.readouterr() == ("", "foliage: the last case's seed must fit in 64 bits\n")
    # One case at the largest seed runs.
    argv[-1] = "1"
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("cases: 1\n")
