"""Pinned bytes of the CLI's canonical outputs.

Each case runs one command on a fixture (or on a 20- or 60-domain chain
built in code) and compares the sha256 of what it prints, or of the chord
or box SVG it writes, with a digest recorded before the all-pairs paths were
optimised.  ``check --seed 1 --cases 50 --json`` is pinned as well, with its
bounds left to the defaults and spelled out as the corpus benchmark runs it.
A failure here means some output changed by at least one byte.
"""

import hashlib

import pytest

from foliage import realize
from foliage.cli import main
from foliage.model import FIXTURE_NAMES, emit_scenario, fixture_text
from test_realize import _chain

COMMANDS = {
    "relations": ["relations", "{file}", "--json"],
    "relations-text": ["relations", "{file}"],
    "matrix": ["diagram", "{file}", "--format", "matrix", "--json"],
    "matrix-text": ["diagram", "{file}"],
    "boundary": ["diagram", "{file}", "--format", "boundary", "--json"],
    "chord": ["diagram", "{file}", "--format", "boundary", "--chord", "{chord}"],
    "svg": ["diagram", "{file}", "--svg", "{svg}"],
}

DIGESTS = {
    ("S0", "boundary"): "accda6da73c06f98edecd339d724d8eef930866361e61af3f731c8418e24e06b",
    ("S0", "chord"): "ea739bb3757788822475e43be43c8e80324fcf2ac8a2674d806149b42bea2d2f",
    ("S0", "matrix"): "b454b84e1bb0baa6beab3b020e4cfa218014024afd8694d3a2809ab3ca6cfafc",
    ("S0", "relations"): "b454b84e1bb0baa6beab3b020e4cfa218014024afd8694d3a2809ab3ca6cfafc",
    ("S1", "boundary"): "8a7ce2ff0b816af804392f850e372c371ef3fdd1c95f521e42c019568a8241bf",
    ("S1", "chord"): "e2b4f5b4d450cac53fc4d475da86edf595fb545163262014c51b8400e694767f",
    ("S1", "matrix"): "76f5572799c80fd3bc426a5dc55cfdfdb3d538a2a8d1bd439b14a5687acbc2b0",
    ("S1", "relations"): "29a59e4046c5e68ddab37addff03a94ec803e4b3c2fb9cad6b2ad576abd22597",
    ("S2", "boundary"): "41bb89909ade050341fec8304ba3d5cef77875837d7e37de68a7048d7bd996f6",
    ("S2", "chord"): "65786e6ae2504f2e29ba1192e5f738349ff2e171f5203ac2379ca9303a3013e3",
    ("S2", "matrix"): "812ffbd4ca28cceda9b174145ffaa808a3621c23b2028889e15736c348aa410e",
    ("S2", "relations"): "bd9e6b024d8c1b879a139d3de5d86b64c62d96027c977f593958a53bf14956a0",
    ("S3", "boundary"): "6c2614df9744d9ef91e0dfe007d505347e11f24ef9b100e846f7045fbc2f7579",
    ("S3", "chord"): "525cf6e16df844e39b1491f322a927d525d47aa3030c12180ab9dc1b94754dd3",
    ("S3", "matrix"): "dea8ba69a0de14f61866b63a4ffd2f9a88cb9679c7c1d236282aada43ba3a798",
    ("S3", "relations"): "0fe88cba5301730b2d79f4a3bfd014a6439752d466470437dc4661b6cd636713",
    ("S4", "boundary"): "accda6da73c06f98edecd339d724d8eef930866361e61af3f731c8418e24e06b",
    ("S4", "chord"): "ea739bb3757788822475e43be43c8e80324fcf2ac8a2674d806149b42bea2d2f",
    ("S4", "matrix"): "b454b84e1bb0baa6beab3b020e4cfa218014024afd8694d3a2809ab3ca6cfafc",
    ("S4", "relations"): "b454b84e1bb0baa6beab3b020e4cfa218014024afd8694d3a2809ab3ca6cfafc",
    ("chain20", "boundary"): "fb0df1fc74d4f18603190f0527f5f5c9d463f270fd2c71b3c51da72a2f46994b",
    ("chain20", "chord"): "ca6aca709020907f9ccac71631c5f6da9e296bb0db4edbddf450d96d2fee36f7",
    ("chain20", "matrix"): "ed4f889b64a5749d850ed992bdf5ca02aca689ac3fbe8376d0dc92e56dfb5ace",
    ("chain20", "relations"): "318eac70d5eaad4ad40ac5d5730e0e498c49150747213de67d5801a8eb095b30",
    ("S0", "svg"): "f4336f6e9c64292a2980975cd6b5318530e0f899fca4d551771862642bbd5f5b",
    ("S1", "svg"): "7b51e465a0f1e088b79ce1ed184b97202e0d836b7f8e643aab11c0250c29606f",
    ("S2", "svg"): "4695e738cb00ca4918dfe35ed671bbcca26ed78c22dc1b64cd0a16db011c201d",
    ("S3", "svg"): "62805e6c7c4781a6fe21f93fdbd288002888aa4e11d5d6aa4491576b98423997",
    ("S4", "svg"): "f902bc0476fbc0dcccb5417a8ead22d250185ed343adf4dedc5eba3eae6aa7b8",
    ("chain20", "svg"): "20611fdacbf18aabbb6c58dcc5471f54ab064f74d9dc40d0a389cc2977581db8",
    # The deep benchmark's largest chain, for the two commands it runs.
    ("chain60", "boundary"): "47648c4d7125e6c1f76d03a7799765ee9dc63f51e32fd8e39784805ba9e03678",
    ("chain60", "relations"): "cf2d73825af4459f2232f45bae2a04632a8d1aeff572c705a840985d7e668129",
    # Plain-text relations, recorded before the sparse pair pass.  S0 and S4
    # have at most one orbit, so they print nothing.
    ("S0", "relations-text"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("S1", "relations-text"): "ea83147c2105fe7687f6be426e81cc4e5165aeb2dafd1e96f74fc44bfbea368b",
    ("S2", "relations-text"): "80c533c39804be6272e7d7a1cb069aaf4e20e12091208ef31aa33a1ef937c2de",
    ("S3", "relations-text"): "52883594e4245784a2bf7b55c6a1197b9968e2162c9fa44388f278f4779a87e3",
    ("S4", "relations-text"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("chain20", "relations-text"): "1b9af495354114f1cfca71be927c4a847d137886d926f6c4893b283673565a4e",
    ("chain60", "relations-text"): "89655035dfc4519323d04d902f619f53f857225f12de3f8205f7cc8d0aa80c77",
    # The plain-text crossing matrix, the default format, recorded before it
    # was written in one piece.  S0 and S4 have one orbit, so no pair.
    ("S0", "matrix-text"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("S1", "matrix-text"): "6c294e9fc390fa2ed33cafb85447a8982cb337adb6cf0f4a25451368ab5d0de6",
    ("S2", "matrix-text"): "12c48ffac24f500e5f16133f45881b9348fff00af02d6c902bcc66288659e1cb",
    ("S3", "matrix-text"): "307890c16ae92f874d294154db37c93f26ccb32ae1ce57e5d1a62c1a8d7bcaaa",
    ("S4", "matrix-text"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("chain20", "matrix-text"): "4f22cc44d2eaa35c40b700c7c7789694de3370ff3605e6127fdbbddb47de8e4a",
    ("chain60", "matrix-text"): "646c4bef6d34dad9adf142d9265b2288e1d4e6e5ba7634e06534581b2ff1f237",
}


def _scenario_text(name: str) -> str:
    if name.startswith("chain"):
        return emit_scenario(_chain(int(name[5:])))
    return fixture_text(name)


def _digest(tmp_path, capsys, name: str, command: str, *extra: str) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(_scenario_text(name), encoding="utf-8")
    written = tmp_path / "out.svg"
    argv = [arg.format(file=path, chord=written, svg=written) for arg in COMMANDS[command]] + list(extra)
    assert main(argv) == 0
    out = capsys.readouterr().out
    data = written.read_bytes() if command in ("chord", "svg") else out.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command, name", sorted((command, name) for name, command in DIGESTS))
def test_cli_output_bytes_are_pinned(tmp_path, capsys, name, command):
    assert _digest(tmp_path, capsys, name, command) == DIGESTS[(name, command)]


@pytest.mark.parametrize(
    "command, name", sorted((command, name) for name, command in DIGESTS if command in ("boundary", "chord", "svg"))
)
def test_only_the_matrix_format_builds_the_crossing_matrix(tmp_path, capsys, monkeypatch, name, command):
    """The SVGs and the boundary order never read the crossing matrix; the
    svg pin runs under the default ``--format matrix``, so it is rerun here
    under ``--format boundary``."""

    def refuse(*args, **kwargs):
        raise realize.RealizationError("the crossing matrix was built")

    monkeypatch.setattr(realize, "crossing_matrix", refuse)
    extra = ("--format", "boundary") if command == "svg" else ()
    assert _digest(tmp_path, capsys, name, command, *extra) == DIGESTS[(name, command)]


CHECK_DIGEST = "1e5e0529f93c70ffc833c9dd5953cc94caf0ffeb9536abc79307defcaaca3682"


def test_check_json_bytes_are_pinned(capsys):
    assert main(["check", "--seed", "1", "--cases", "50", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CHECK_DIGEST


# What each corpus benchmark op runs, with the bounds spelled out.  They are
# the generator's defaults, so the digest, recorded before the orientation
# tables replaced the per-pair loop, is the one above.
CORPUS_CHECK = ["check", "--seed", "1", "--cases", "50", "--max-domains", "10", "--max-orbits", "8"]
CORPUS_CHECK += ["--max-boundary", "4", "--weak-bias", "1/2", "--json"]
CORPUS_CHECK_DIGEST = "1e5e0529f93c70ffc833c9dd5953cc94caf0ffeb9536abc79307defcaaca3682"


def test_check_json_bytes_at_the_corpus_bounds_are_pinned(capsys):
    assert main(CORPUS_CHECK) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CORPUS_CHECK_DIGEST
