"""Answer oracles that share no code with the engine they check.

Expected answers come from plain Python: BFS reachability, closed forms,
and integer arithmetic.  Engine answers are read back by looking at the
atoms' ``op``/``left``/``right`` fields directly (a ``Var`` has a ``name``,
a ``Const`` a ``value``), never through a theory's solver.  The two
exceptions are stated where they occur: the Fig. 2 oracle is the repo's
sweep-line geometry (not the constraint engine), and the B_1 and checkbook
answers are read back through ``contains_values``, because their atoms are
Boolean terms and polynomials rather than ``x = c`` pins.
"""

from __future__ import annotations

from collections import defaultdict, deque
from fractions import Fraction
from typing import Iterable

from cqlbench.inputs import Edge, Ledger, Rectangle

# ------------------------------------------------------------ reachability


def successors(edges: Iterable[Edge]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = defaultdict(list)
    for a, b in edges:
        out[a].append(b)
    return out


def reachable_from(succ: dict[int, list[int]], start: int) -> set[int]:
    """Nodes reachable from ``start`` by one or more edges (BFS)."""
    seen: set[int] = set()
    queue = deque(succ.get(start, ()))
    while queue:
        node = queue.popleft()
        if node not in seen:
            seen.add(node)
            queue.extend(succ.get(node, ()))
    return seen


def closure(edges: Iterable[Edge]) -> set[Edge]:
    """The transitive closure as a set of pairs."""
    edges = list(edges)
    succ = successors(edges)
    nodes = {a for a, _ in edges}
    return {(a, b) for a in nodes for b in reachable_from(succ, a)}


def separated(edges: Iterable[Edge], nodes: Iterable[int]) -> set[Edge]:
    """Closed form of ``Sep``: node pairs joined by no path."""
    nodes = list(nodes)
    reach = closure(edges)
    return {(a, b) for a in nodes for b in nodes if (a, b) not in reach}


def interval_reach(spans: list[tuple[int, int]], x: Fraction, y: Fraction) -> bool:
    """Closed form of TC over interval edges ``a <= x < y <= b`` (Ex 1.11).

    ``y`` is reachable from ``x`` iff ``x < y`` and ``[x, y]`` lies inside one
    connected component of the union of the closed intervals: a path
    climbs within an interval and crosses to any interval that touches it.
    """
    if not x < y:
        return False
    for low, high in merged(spans):
        if low <= x and y <= high:
            return True
    return False


def merged(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    out: list[list[int]] = []
    for low, high in sorted(spans):
        if out and low <= out[-1][1]:
            out[-1][1] = max(out[-1][1], high)
        else:
            out.append([low, high])
    return [(low, high) for low, high in out]


def interval_samples(spans: list[tuple[int, int]]) -> list[Fraction]:
    """Endpoints, midpoints between them, and one point beyond each end."""
    ends = sorted({Fraction(v) for span in spans for v in span})
    mids = [(a + b) / 2 for a, b in zip(ends, ends[1:])]
    return sorted(ends + mids + [ends[0] - 1, ends[-1] + 1])


def balanced_users(rows: list[Ledger]) -> set[int]:
    """Fig. 3 in integer arithmetic: food + rent + misc + savings = wages + interest."""
    return {
        r.user
        for r in rows
        if r.food + r.rent + r.misc + r.savings == r.wages + r.interest
    }


def intersecting(rects: list[Rectangle]) -> set[Edge]:
    """Fig. 2 via the geometry package's sweep line (ordered pairs, a != b)."""
    from repro.geometry.rectangles import Rect, intersecting_pairs_sweepline

    shapes = [
        Rect(r.name, Fraction(r.x1), Fraction(r.y1), Fraction(r.x2), Fraction(r.y2))
        for r in rects
    ]
    return {(int(a), int(b)) for a, b in intersecting_pairs_sweepline(shapes)}


# ---------------------------------------------------------- reading answers


def _term(term):
    """('var', name) or ('const', value) for a Var/Const term."""
    if hasattr(term, "name"):
        return ("var", term.name)
    return ("const", term.value)


def pins(item) -> dict[str, object]:
    """The ``var = const`` pins of one generalized tuple, by variable."""
    out: dict[str, object] = {}
    for atom in item.atoms:
        if getattr(atom, "op", None) != "=":
            continue
        left, right = _term(atom.left), _term(atom.right)
        if left[0] == "var" and right[0] == "const":
            out[left[1]] = right[1]
        elif right[0] == "var" and left[0] == "const":
            out[right[1]] = left[1]
    return out


def points(relation) -> list[tuple] | None:
    """Every tuple of ``relation`` as a point, or None if one is not a point."""
    out = []
    for item in relation:
        pinned = pins(item)
        if any(v not in pinned for v in item.variables):
            return None
        out.append(tuple(pinned[v] for v in item.variables))
    return out


def pairs(relation) -> set[Edge] | None:
    """A binary point relation as integer pairs (None if not all points)."""
    found = points(relation)
    if found is None:
        return None
    return {(int(a), int(b)) for a, b in found}


_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def holds(relation, values: tuple) -> bool:
    """Whether the point ``values`` lies in a dense-order relation.

    Evaluates each atom's comparison directly from its fields.
    """
    for item in relation:
        env = dict(zip(item.variables, values))

        def value(term):
            kind, payload = _term(term)
            return env[payload] if kind == "var" else payload

        if all(_OPS[a.op](value(a.left), value(a.right)) for a in item.atoms):
            return True
    return False
