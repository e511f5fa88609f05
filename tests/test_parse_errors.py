"""Every structural parse error's exact text, and which error wins.

Each malformed document is S1-shaped: one good domain and one good orbit,
then the faults listed.  When a document holds several faults, the first
one met in document order is reported: the top level, then each domain in
turn (id, left, right), then each orbit (id, path, entry_cut, exit_cut,
tie_rank).
"""

import json

import pytest

from foliage.model import ScenarioParseError, parse_scenario


def _doc(domains=None, orbits=None, **top):
    """A valid document, with its domain or orbit fields overridden."""
    d = {"id": "D", "left": ["a"], "right": ["b"]}
    o = {"id": "O", "path": ["D"], "entry_cut": 0, "exit_cut": 0, "tie_rank": 0}
    doc = {"domains": [dict(d, **(domains or {}))], "orbits": [dict(o, **(orbits or {}))]}
    doc.update(top)
    return json.dumps(doc)


CASES = [
    # The top level.
    ("[]", "top level must be an object"),
    ('{"domains": [], "extra": 1}', "unknown field 'extra' in scenario"),
    ('{"domains": {}}', "domains must be an array"),
    ('{"orbits": 3}', "orbits must be an array"),
    ('{"domains": [], "domains": []}', "duplicate key 'domains'"),
    # One domain.
    ('{"domains": [1]}', "each domain must be an object"),
    (_doc(domains={"bad": 1}), "unknown field 'bad' in domain"),
    (_doc(domains={"id": ""}), "domain id must be a non-empty string"),
    (_doc(domains={"id": 7}), "domain id must be a non-empty string"),
    (_doc(domains={"left": "a"}), "left of 'D' must be an array"),
    (_doc(domains={"left": ["a", ""]}), "left of 'D' entries must be non-empty strings"),
    (_doc(domains={"right": [None]}), "right of 'D' entries must be non-empty strings"),
    (_doc(domains={"right": {}}), "right of 'D' must be an array"),
    ('{"domains": [{"id": "D"}, {"id": "D"}]}', "duplicate id 'D'"),
    # One orbit.
    (_doc().replace('"orbits": [{', '"orbits": [5, {'), "each orbit must be an object"),
    (_doc(orbits={"bad": 1}), "unknown field 'bad' in orbit"),
    (_doc(orbits={"id": ""}), "orbit id must be a non-empty string"),
    (_doc(orbits={"id": ["O"]}), "orbit id must be a non-empty string"),
    (_doc().replace('"orbits": [{', '"orbits": [{"id": "O", "path": ["D"]}, {'), "duplicate id 'O'"),
    (_doc(orbits={"path": "D"}), "path of 'O' must be an array"),
    (_doc(orbits={"path": ["D", 1, "D"]}), "path of 'O' entries must be non-empty strings"),
    (_doc(orbits={"path": []}), "path of 'O' must alternate domain, leaf, ... with odd length"),
    (_doc(orbits={"path": ["D", "a"]}), "path of 'O' must alternate domain, leaf, ... with odd length"),
    (_doc(orbits={"path": ["E"]}), "unknown domain 'E' in path of 'O'"),
    (_doc(orbits={"path": ["D", "z", "D"]}), "unknown leaf 'z' in path of 'O'"),
    (_doc(orbits={"entry_cut": "1"}), "entry_cut of O must be an integer"),
    (_doc(orbits={"exit_cut": True}), "exit_cut of O must be an integer"),
    (_doc(orbits={"tie_rank": 1.5}), "tie_rank of O must be an integer"),
    # Several faults: the first in document order wins.
    (_doc(domains={"left": 1, "right": 2}), "left of 'D' must be an array"),
    (_doc(domains={"left": ["", 3]}, orbits={"entry_cut": "x"}), "left of 'D' entries must be non-empty strings"),
    (_doc(domains={"right": [""]}, orbits={"path": 1}), "right of 'D' entries must be non-empty strings"),
    (
        _doc(orbits={"path": ["D", "a"], "entry_cut": "x"}),
        "path of 'O' must alternate domain, leaf, ... with odd length",
    ),
    (_doc(orbits={"path": ["E", "z", "F"]}), "unknown domain 'E' in path of 'O'"),
    (_doc(orbits={"path": ["D", "z", "E"]}), "unknown leaf 'z' in path of 'O'"),
    (_doc(orbits={"path": ["D", "a", "E"], "tie_rank": None}), "unknown domain 'E' in path of 'O'"),
    (_doc(orbits={"entry_cut": None, "exit_cut": None, "tie_rank": None}), "entry_cut of O must be an integer"),
    (_doc(orbits={"exit_cut": [], "tie_rank": {}}), "exit_cut of O must be an integer"),
    (_doc(domains={"id": ""}, orbits={"id": ""}), "domain id must be a non-empty string"),
    (_doc(domains={"bad": 1, "left": 1}), "unknown field 'bad' in domain"),
    ('{"domains": {}, "orbits": 1}', "domains must be an array"),
]


@pytest.mark.parametrize("text, message", CASES)
def test_parse_error_text_is_pinned(text, message):
    with pytest.raises(ScenarioParseError) as caught:
        parse_scenario(text)
    assert str(caught.value) == message


def test_an_orbit_error_follows_every_domain():
    """A fault in the second domain wins over one in the first orbit."""
    doc = json.loads(_doc(orbits={"entry_cut": "x"}))
    doc["domains"].append({"id": "E", "left": [""]})
    with pytest.raises(ScenarioParseError) as caught:
        parse_scenario(json.dumps(doc))
    assert str(caught.value) == "left of 'E' entries must be non-empty strings"


def test_the_unmodified_document_parses():
    s = parse_scenario(_doc())
    assert [d.id for d in s.domains] == ["D"] and [o.id for o in s.orbits] == ["O"]
