"""Extreme inputs through ``cli.main``: a seeded family of broken scenarios.

Generated scenarios at 8/6/3 each get the seven mutations below, one at a
time, and every mutant runs under seven commands.  Every run must end in a
documented exit code (0, 1 or 2); no exception may escape ``main``.
"""

import random
import time
from dataclasses import replace

from foliage.cli import main
from foliage.generator import GeneratorConfig, generate_scenario
from foliage.model import Scenario, emit_scenario


def _orbits(s, rng, change):
    """s with ``change`` applied to one orbit picked by ``rng``."""
    if not s.orbits:
        return s
    k = rng.randrange(len(s.orbits))
    orbits = list(s.orbits)
    orbits[k] = change(orbits[k])
    return Scenario(domains=s.domains, orbits=tuple(orbits))


def _reset_cuts(s, rng):
    """Every cut redrawn, some of them out of range."""
    orbits = tuple(replace(o, entry_cut=rng.randint(-1, 4), exit_cut=rng.randint(-1, 4)) for o in s.orbits)
    return Scenario(domains=s.domains, orbits=orbits)


def _equal_tie_ranks(s, rng):
    return Scenario(domains=s.domains, orbits=tuple(replace(o, tie_rank=0) for o in s.orbits))


def _truncate_path(s, rng):
    return _orbits(s, rng, lambda o: replace(o, path=o.path[: rng.randrange(len(o.path) + 1)]))


def _reverse_path(s, rng):
    return _orbits(s, rng, lambda o: replace(o, path=o.path[::-1]))


def _shuffle_boundary(s, rng):
    k = rng.randrange(len(s.domains))
    d = s.domains[k]
    left, right = list(d.left), list(d.right)
    rng.shuffle(left)
    rng.shuffle(right)
    domains = list(s.domains)
    domains[k] = replace(d, left=tuple(left), right=tuple(right))
    return Scenario(domains=tuple(domains), orbits=s.orbits)


def _copy_leaf(s, rng):
    """A leaf of one domain's list appended to another domain's list."""
    leaves = [leaf for d in s.domains for leaf in d.left + d.right]
    if not leaves:
        return s
    leaf, k = rng.choice(leaves), rng.randrange(len(s.domains))
    d = s.domains[k]
    side = rng.choice(("left", "right"))
    domains = list(s.domains)
    domains[k] = replace(d, **{side: getattr(d, side) + (leaf,)})
    return Scenario(domains=tuple(domains), orbits=s.orbits)


def _copy_path(s, rng):
    """One orbit's path copied onto another."""
    source = rng.choice(s.orbits).path if s.orbits else ()
    return _orbits(s, rng, lambda o: replace(o, path=source))


MUTATIONS = (_reset_cuts, _equal_tie_ranks, _truncate_path, _reverse_path, _shuffle_boundary, _copy_leaf, _copy_path)
COMMANDS = (
    ("validate",),
    ("decompose", "--json"),
    ("relations",),
    ("relations", "--json"),
    ("diagram", "--json"),
    ("diagram", "--svg", "{svg}", "--chord", "{chord}"),
    ("diagram", "--format", "boundary"),
)


def test_mutated_scenarios_end_in_a_documented_exit_code(tmp_path, capsys):
    paths = {"svg": str(tmp_path / "out.svg"), "chord": str(tmp_path / "chord.svg")}
    scenario_path = tmp_path / "scenario.json"
    codes = {}
    start = time.process_time()
    for seed in range(1, 31):
        base = generate_scenario(GeneratorConfig(seed=seed, max_domains=8, max_orbits=6, max_boundary=3))
        for mutate in MUTATIONS:
            mutant = mutate(base, random.Random(f"{seed} {mutate.__name__}"))
            scenario_path.write_text(emit_scenario(mutant), encoding="utf-8")
            for command in COMMANDS:
                argv = [command[0], str(scenario_path), *(arg.format(**paths) for arg in command[1:])]
                try:
                    code = main(argv)
                except Exception as exc:  # any escape is the failure under test
                    raise AssertionError(f"{argv} on seed {seed}, {mutate.__name__}: {exc!r}") from exc
                assert code in (0, 1, 2), (argv, seed, mutate.__name__, code)
                codes[code] = codes.get(code, 0) + 1
            capsys.readouterr()
    assert time.process_time() - start < 10
    assert codes.get(0) and codes.get(1), codes
