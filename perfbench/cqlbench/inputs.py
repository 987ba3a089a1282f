"""Seeded input generators.

Everything here is plain Python data (edge lists, intervals, rectangles,
ledger rows): the engine never sees a generator, only what it produces.
The same seed always yields the same inputs, and each workload draws from
its own ``random.Random(seed)`` so workloads do not perturb one another.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Edge = tuple[int, int]


def shuffled_blocks(rng: random.Random, block: list[str]):
    """An endless stream of ``block`` permutations.

    Every run therefore sees the same mix of operation kinds in the same
    proportions, whatever the seed; the seed only orders them (and fills
    them with data).
    """
    while True:
        order = list(block)
        rng.shuffle(order)
        yield from order


def chain(n: int, rng: random.Random) -> tuple[list[int], list[Edge]]:
    """An n-edge path over n + 1 distinct labels in seeded shuffled order."""
    labels = rng.sample(range(4 * (n + 1)), n + 1)
    return labels, [(labels[i], labels[i + 1]) for i in range(n)]


def dag(n: int, rng: random.Random, window: int = 8, segment: int | None = None) -> list[Edge]:
    """A random DAG on nodes 0..n-1 with fan-out 2 into a forward window.

    With ``segment``, edges stay inside consecutive runs of that many
    nodes, which bounds every node's reachable set by the segment length.
    """
    segment = segment or n
    edges: set[Edge] = set()
    for i in range(n - 1):
        high = min(n - 1, i + window, (i // segment + 1) * segment - 1)
        if high > i:
            targets = rng.sample(range(i + 1, high + 1), min(2, high - i))
            edges.update((i, j) for j in targets)
    return sorted(edges)


def intervals(count: int, rng: random.Random) -> list[tuple[int, int]]:
    """Closed integer intervals [a, b], a < b, some overlapping, some apart."""
    out = []
    start = 0
    for _ in range(count):
        start += rng.randint(0, 4)
        width = rng.randint(1, 4)
        out.append((start, start + width))
        start += rng.randint(0, 3)
    return out


@dataclass(frozen=True)
class Rectangle:
    name: int
    x1: int
    y1: int
    x2: int
    y2: int


def rectangles(count: int, rng: random.Random, universe: int = 120) -> list[Rectangle]:
    """Axis-parallel closed rectangles in a [0, universe]^2 box."""
    out = []
    for name in range(count):
        x1, y1 = rng.randrange(universe), rng.randrange(universe)
        out.append(
            Rectangle(name, x1, y1, x1 + rng.randint(1, 30), y1 + rng.randint(1, 30))
        )
    return out


@dataclass(frozen=True)
class Ledger:
    """One user's checkbook rows (Fig. 3): expenses, savings, income."""

    user: int
    food: int
    rent: int
    misc: int
    savings: int
    wages: int
    interest: int


def ledgers(users: int, rng: random.Random) -> list[Ledger]:
    """Ledgers for users 1..users; about half of them balance."""
    out = []
    for user in range(1, users + 1):
        food, rent, misc = rng.randint(100, 400), rng.randint(500, 1200), rng.randint(0, 200)
        savings, interest = rng.randint(0, 300), rng.randint(0, 60)
        wages = food + rent + misc + savings - interest
        if rng.random() < 0.5:
            wages += rng.choice((-1, 1)) * rng.randint(1, 50)
        out.append(Ledger(user, food, rent, misc, savings, wages, interest))
    return out


def zipf_index(rng: random.Random, size: int, s: float = 1.0) -> int:
    """A rank in [0, size) drawn with probability proportional to 1/(rank+1)^s."""
    weights = [1.0 / (rank + 1) ** s for rank in range(size)]
    return rng.choices(range(size), weights=weights)[0]
