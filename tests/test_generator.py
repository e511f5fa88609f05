from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliage.generator import GeneratorConfig, SplitMix64, generate_scenario
from foliage.model import FoliageError, emit_scenario, parse_scenario, validate
from foliage.realize import weak_matrix


def test_splitmix64_reference_vectors():
    # First outputs of the reference splitmix64 for seed 0.
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_determinism():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_splitmix64_below_range():
    r = SplitMix64(7)
    for _ in range(1000):
        assert 0 <= r.below(13) < 13


class _Fixed(SplitMix64):
    """A generator whose next draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def next_u64(self):
        return self.u


@pytest.mark.parametrize(
    "p", [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 2**64), 1 - Fraction(1, 2**64)]
)
def test_chance_equals_the_fraction_formula(p):
    edge = p * 2**64
    near = {int(edge) + d for d in (-2, -1, 0, 1, 2)} | {0, 1, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1}
    r = SplitMix64(1234)
    draws = sorted(u for u in near if 0 <= u < 2**64) + [r.next_u64() for _ in range(2000)]
    for u in draws:
        assert _Fixed(u).chance(p) == (u < p * (1 << 64)), (p, u)


def test_degenerate_bounds_force_the_smallest_scenario():
    s = generate_scenario(GeneratorConfig(seed=1, max_domains=1, max_orbits=1, max_boundary=0))
    assert len(s.domains) == 1
    assert len(s.orbits) == 1
    orbit = s.orbits[0]
    assert orbit.path == (s.domains[0].id,)
    assert orbit.entry_cut == orbit.exit_cut == 0
    assert s.domains[0].left == s.domains[0].right == ()


def test_generation_is_byte_deterministic():
    cfg = GeneratorConfig(seed=20260810)
    assert emit_scenario(generate_scenario(cfg)) == emit_scenario(generate_scenario(cfg))


@pytest.mark.parametrize("seed", range(1, 51))
def test_generated_scenarios_always_validate(seed):
    s = generate_scenario(GeneratorConfig(seed=seed))
    assert validate(s).ok


def test_weak_pairs_appear_in_the_default_corpus():
    cfg = GeneratorConfig(seed=1)
    hits = sum(
        1
        for i in range(100)
        if weak_matrix(generate_scenario(replace(cfg, seed=1 + i))).entries
    )
    assert hits >= 1
    # Frozen from the first run of this corpus; guards the stream itself.
    assert hits == 56


def test_bounds_are_respected():
    for seed in range(1, 31):
        cfg = GeneratorConfig(seed=seed, max_domains=4, max_orbits=3, max_boundary=2)
        s = generate_scenario(cfg)
        assert 1 <= len(s.domains) <= 4
        assert 1 <= len(s.orbits) <= 3
        for d in s.domains:
            assert len(d.left) <= 2
            assert len(d.right) <= 2


def test_config_rejects_bad_values():
    with pytest.raises(FoliageError):
        GeneratorConfig(seed=-1)
    with pytest.raises(FoliageError):
        GeneratorConfig(seed=1, max_domains=0)
    with pytest.raises(FoliageError):
        GeneratorConfig(seed=1, weak_bias=Fraction(3, 2))


@given(st.integers(0, 2**64 - 1))
@settings(max_examples=30, deadline=None)
def test_generated_scenarios_round_trip(seed):
    s = generate_scenario(GeneratorConfig(seed=seed, max_domains=5, max_orbits=4, max_boundary=3))
    assert validate(s).ok
    text = emit_scenario(s)
    assert emit_scenario(parse_scenario(text)) == text
