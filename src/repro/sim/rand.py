"""Seeded random streams for reproducible experiments.

Each named component draws from its own :class:`random.Random` stream,
derived deterministically from the root seed.  Separate streams keep
components statistically independent and — more importantly — keep one
component's draw count from perturbing another's, so adding a monitor or a
workload does not change unrelated results.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Sequence


class RandomStreams:
    """A factory of named, deterministic random streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the stream for ``name``."""
        rng = self._streams.get(name)
        if rng is None:
            # Stable derivation: hash of (seed, name) via Random's own
            # str-seeding, which is version-stable for str seeds.
            rng = random.Random(f"{self.seed}/{name}")
            self._streams[name] = rng
        return rng

    def __contains__(self, name: str) -> bool:
        return name in self._streams


class LatencyJitter:
    """Lognormal jitter around a base latency.

    Real host stacks show right-skewed latency: most packets take close to
    the base cost, a tail takes much longer (scheduler preemption, cache
    misses, interrupt coalescing).  A lognormal with small sigma models this
    with a single shape parameter.

    ``sample(base_ns)`` returns the jittered latency, always >= a floor of
    half the base so jitter can never produce implausibly fast packets.
    """

    def __init__(self, rng: random.Random, sigma: float = 0.12) -> None:
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        self.sigma = sigma
        # E[lognormal(mu, sigma)] = exp(mu + sigma^2/2); pick mu so the
        # mean multiplier is exactly 1.0.
        self.mu = -sigma * sigma / 2.0
        #: The stream's bound ``normalvariate``: ``lognormvariate(mu,
        #: sigma)`` is ``exp(normalvariate(mu, sigma))``, so hot callers
        #: may draw through this directly, value for value.
        self.normalvariate = rng.normalvariate

    def sample(self, base_ns: int) -> int:
        """One jittered sample around ``base_ns`` (mean-preserving)."""
        if base_ns <= 0 or self.sigma == 0.0:
            return max(base_ns, 0)
        factor = math.exp(self.normalvariate(self.mu, self.sigma))
        return max(base_ns // 2, round(base_ns * factor))


def zipfian_ranks(rng: random.Random, population: int, theta: float,
                  count: int) -> list[int]:
    """Draw ``count`` ranks in ``[0, population)`` from a Zipf distribution.

    Uses the standard YCSB rejection-free inverse-CDF construction with
    exponent ``theta`` (0 = uniform, 0.99 = YCSB default skew).
    """
    if population <= 0:
        raise ValueError(f"population must be positive, got {population}")
    if not 0.0 <= theta < 1.0:
        raise ValueError(f"theta must be in [0, 1), got {theta}")
    if theta == 0.0:
        return [rng.randrange(population) for _ in range(count)]
    zetan = _zeta(population, theta)
    zeta2 = _zeta(2, theta)
    alpha = 1.0 / (1.0 - theta)
    # For population <= 2 every draw lands in the first two branches
    # (u * zetan < zetan = zeta2), so eta is never used; guarding the
    # division avoids the 0/0 at population == 2.
    denominator = 1.0 - zeta2 / zetan
    if denominator == 0.0:
        eta = 0.0
    else:
        eta = (1.0 - (2.0 / population) ** (1.0 - theta)) / denominator
    ranks = []
    for _ in range(count):
        u = rng.random()
        uz = u * zetan
        if uz < 1.0:
            ranks.append(0)
        elif uz < 1.0 + 0.5 ** theta:
            ranks.append(1)
        else:
            ranks.append(min(population - 1,
                             int(population * (eta * u - eta + 1.0) ** alpha)))
    return ranks


#: Memoized Zipf normalizers.  ``_zeta`` is O(n) and the YCSB generator
#: needs the same ``(population, theta)`` constant for *every* operation,
#: so recomputing it per draw used to dominate whole experiment runs.
_ZETA_CACHE: Dict[tuple[int, float], float] = {}


def _zeta(n: int, theta: float) -> float:
    """Generalized harmonic number H_{n,theta} (the Zipf normalizer)."""
    key = (n, theta)
    value = _ZETA_CACHE.get(key)
    if value is None:
        # A list, not a generator: the same left-to-right float sum,
        # without resuming a generator frame per term.
        value = sum([1.0 / (i ** theta) for i in range(1, n + 1)])
        _ZETA_CACHE[key] = value
    return value


def exponential_delay(rng: random.Random, mean_ns: int) -> int:
    """One exponential inter-arrival delay with the given mean (>= 0 ns)."""
    if mean_ns <= 0:
        return 0
    return max(0, round(rng.expovariate(1.0 / mean_ns)))


def choose_weighted(rng: random.Random, items: Sequence[object],
                    weights: Sequence[float]) -> object:
    """Pick one item with probability proportional to its weight."""
    if len(items) != len(weights) or not items:
        raise ValueError("items and weights must be equal-length, non-empty")
    total = math.fsum(weights)
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    point = rng.random() * total
    acc = 0.0
    for item, weight in zip(items, weights):
        acc += weight
        if point < acc:
            return item
    return items[-1]
