"""Seeded random scenario generation for property testing.

The stream is SplitMix64, fixed so that corpora are bit-identical across
platforms.  A draw builds a random skeleton forest within the configured
bounds, then walks random orbit paths along derived edges; ``weak_bias``
is the probability of picking extreme boundary positions and cuts, with
the preferred side alternating per orbit, which steers pairs toward
oppositely ordered ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import FoliageError, Orbit, Scenario, SkeletonDomain, validate

_MASK = (1 << 64) - 1

# The largest domain, orbit or boundary bound: a draw at it on all three takes seconds.
MAX_BOUND = 1000


class SplitMix64:
    """The standard splitmix64 generator over 64-bit state."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        if n <= 0:
            raise FoliageError("below() needs a positive bound")
        return self.next_u64() % n

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def chance(self, p: Fraction) -> bool:
        """Whether the next draw ``u`` has ``u < p * 2**64``, in integers."""
        return self.next_u64() * p.denominator < p.numerator << 64


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    max_domains: int = 10
    max_orbits: int = 8
    max_boundary: int = 4
    weak_bias: Fraction = Fraction(1, 2)

    def __post_init__(self):
        if not 0 <= self.seed <= _MASK:
            raise FoliageError("seed must fit in 64 bits")
        if self.max_domains < 1 or self.max_orbits < 1:
            raise FoliageError("domain and orbit bounds must be at least 1")
        if self.max_boundary < 0:
            raise FoliageError("max_boundary must be non-negative")
        if max(self.max_domains, self.max_orbits, self.max_boundary) > MAX_BOUND:
            raise FoliageError(f"domain, orbit and boundary bounds must be at most {MAX_BOUND}")
        if not 0 <= self.weak_bias <= 1:
            raise FoliageError("weak_bias must lie in [0, 1]")


class GenerationError(FoliageError):
    pass


def _draw(rng: SplitMix64, cfg: GeneratorConfig) -> Scenario:
    n_domains = 1 + rng.below(cfg.max_domains)
    left: list[list[str]] = [[] for _ in range(n_domains)]
    right: list[list[str]] = [[] for _ in range(n_domains)]
    leaf_counter = 0

    def fresh_leaf() -> str:
        nonlocal leaf_counter
        leaf_counter += 1
        return f"g{leaf_counter}"

    for i in range(1, n_domains):
        if cfg.max_boundary == 0 or rng.below(4) == 0:
            continue  # start a new tree component
        j = rng.below(i)
        downstream = rng.below(2) == 0
        src, dst = (j, i) if downstream else (i, j)
        if len(left[src]) >= cfg.max_boundary or len(right[dst]) >= cfg.max_boundary:
            continue
        leaf = fresh_leaf()
        left[src].insert(rng.below(len(left[src]) + 1), leaf)
        right[dst].insert(rng.below(len(right[dst]) + 1), leaf)

    for i in range(n_domains):
        for side in (left, right):
            target = rng.below(cfg.max_boundary + 1)
            while len(side[i]) < target:
                side[i].insert(rng.below(len(side[i]) + 1), fresh_leaf())

    domains = tuple(
        SkeletonDomain(id=f"D{i}", left=tuple(left[i]), right=tuple(right[i])) for i in range(n_domains)
    )
    right_owner = {leaf: i for i in range(n_domains) for leaf in right[i]}

    orbits = []
    n_orbits = 1 + rng.below(cfg.max_orbits)
    for k in range(n_orbits):
        contrarian = rng.chance(cfg.weak_bias)
        # Alternate the preferred end per orbit so biased pairs reverse.
        prefer_last = k % 2 == 1
        cur = rng.below(n_domains)
        path: list[str] = [f"D{cur}"]
        while True:
            candidates = [(pos, leaf) for pos, leaf in enumerate(left[cur]) if leaf in right_owner]
            if not candidates or rng.below(5) < 2:
                break
            if contrarian:
                pos, leaf = candidates[-1] if prefer_last else candidates[0]
            else:
                pos, leaf = rng.choice(candidates)
            cur = right_owner[leaf]
            path.extend([leaf, f"D{cur}"])
        entry_len = len(right[int(path[0][1:])])
        exit_len = len(left[cur])
        if contrarian:
            entry_cut = entry_len if prefer_last else 0
            exit_cut = 0 if prefer_last else exit_len
        else:
            entry_cut = rng.below(entry_len + 1)
            exit_cut = rng.below(exit_len + 1)
        orbits.append(
            Orbit(id=f"O{k}", path=tuple(path), entry_cut=entry_cut, exit_cut=exit_cut, tie_rank=k)
        )

    return Scenario(domains=domains, orbits=tuple(orbits))


def generate_scenario(cfg: GeneratorConfig) -> Scenario:
    """Deterministic scenario for a seed; always passes validation."""
    rng = SplitMix64(cfg.seed)
    for _attempt in range(1000):
        s = _draw(rng, cfg)
        if validate(s).ok:
            return s
    raise GenerationError(f"no valid scenario after 1000 draws for seed {cfg.seed}")
