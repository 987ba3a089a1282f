"""Predicate dependency graph, SCC condensation, recursion/negation facts.

The graph is built once per analysis and shared by the closure, dead-code and
classification passes.  Nodes are predicate names; there is an edge
``head -> body-predicate`` for every body occurrence, labelled positive or
negative.  SCCs are computed with an iterative Tarjan (no recursion-depth
limit on deep rule chains) and condensed in reverse topological order, which
is also the stratum order used by the stratifiability check.

The module is deliberately independent of :mod:`repro.core.datalog` (which
imports the closure pass back): rules are consumed through the structural
:class:`RuleLike` protocol that :class:`repro.core.datalog.Rule` satisfies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Protocol, Sequence, runtime_checkable


@runtime_checkable
class AtomLike(Protocol):
    """The slice of ``RelationAtom`` the analyzer needs."""

    name: str
    args: tuple[str, ...]


@runtime_checkable
class RuleLike(Protocol):
    """The slice of ``repro.core.datalog.Rule`` the analyzer needs."""

    head: AtomLike

    @property
    def positive_atoms(self) -> list:  # pragma: no cover - protocol
        ...

    @property
    def negative_atoms(self) -> list:  # pragma: no cover - protocol
        ...

    @property
    def constraint_atoms(self) -> list:  # pragma: no cover - protocol
        ...


@dataclass
class DependencyGraph:
    """The condensed predicate dependency structure of one program."""

    #: every predicate mentioned anywhere (head or body)
    nodes: tuple[str, ...]
    #: predicates defined by at least one rule head
    idb: frozenset[str]
    #: body-only predicates (assumed database-supplied)
    edb: frozenset[str]
    #: ``head -> body`` edges through positive literals
    positive_edges: frozenset[tuple[str, str]]
    #: ``head -> body`` edges through negated literals
    negative_edges: frozenset[tuple[str, str]]
    #: strongly connected components, reverse-topological (callees first)
    sccs: tuple[tuple[str, ...], ...] = ()
    _scc_index: dict[str, int] = field(default_factory=dict)

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        return self.positive_edges | self.negative_edges

    def scc_of(self, predicate: str) -> tuple[str, ...]:
        return self.sccs[self._scc_index[predicate]]

    def in_same_scc(self, left: str, right: str) -> bool:
        return self._scc_index.get(left) == self._scc_index.get(right)

    def recursive_predicates(self) -> frozenset[str]:
        """Predicates on a dependency cycle (SCC of size > 1 or a self-loop)."""
        result: set[str] = set()
        for scc in self.sccs:
            if len(scc) > 1:
                result.update(scc)
        for a, b in self.edges:
            if a == b:
                result.add(a)
        return frozenset(result)

    def is_recursive(self) -> bool:
        return bool(self.recursive_predicates())

    def recursive_negative_edges(self) -> frozenset[tuple[str, str]]:
        """Negative edges inside an SCC -- the stratifiability obstruction."""
        return frozenset(
            (a, b) for a, b in self.negative_edges if self.in_same_scc(a, b)
        )

    def is_stratifiable(self) -> bool:
        return not self.recursive_negative_edges()

    def reachable_from(self, *starts: str) -> frozenset[str]:
        """Predicates reachable from any of ``starts`` along dependency
        edges, the starts included."""
        adjacency: dict[str, set[str]] = {}
        for a, b in self.edges:
            adjacency.setdefault(a, set()).add(b)
        seen = set(starts)
        stack = list(starts)
        while stack:
            node = stack.pop()
            for successor in adjacency.get(node, ()):
                if successor not in seen:
                    seen.add(successor)
                    stack.append(successor)
        return frozenset(seen)


def build_dependency_graph(rules: Sequence[RuleLike]) -> DependencyGraph:
    """The dependency graph of a rule list (see module docstring)."""
    idb = {rule.head.name for rule in rules}
    nodes: list[str] = []
    positive: set[tuple[str, str]] = set()
    negative: set[tuple[str, str]] = set()

    def note(name: str) -> None:
        if name not in nodes:
            nodes.append(name)

    for rule in rules:
        note(rule.head.name)
        for atom in rule.positive_atoms:
            note(atom.name)
            positive.add((rule.head.name, atom.name))
        for atom in rule.negative_atoms:
            note(atom.name)
            negative.add((rule.head.name, atom.name))
    graph = DependencyGraph(
        nodes=tuple(nodes),
        idb=frozenset(idb),
        edb=frozenset(nodes) - frozenset(idb),
        positive_edges=frozenset(positive),
        negative_edges=frozenset(negative),
    )
    graph.sccs = strongly_connected_components(graph.nodes, graph.edges)
    graph._scc_index = {
        name: index for index, scc in enumerate(graph.sccs) for name in scc
    }
    return graph


def strongly_connected_components(
    nodes: Sequence[str], edges: Iterable[tuple[str, str]]
) -> tuple[tuple[str, ...], ...]:
    """Iterative Tarjan SCCs, emitted callees-first (reverse topological).

    Roots are tried in ``nodes`` order and successors in sorted order, so
    the output is a function of the arguments alone; each component is
    sorted.  Every edge must join two of ``nodes``.  No recursion, so the
    depth of a rule chain is not bounded by the interpreter's stack.
    """
    adjacency: dict[str, list[str]] = {node: [] for node in nodes}
    for a, b in sorted(edges):
        adjacency[a].append(b)
    index_of: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[tuple[str, ...]] = []
    counter = 0

    for root in nodes:
        if root in index_of:
            continue
        # each work item is (node, iterator over successors)
        work = [(root, iter(adjacency[root]))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in index_of:
                    index_of[successor] = lowlink[successor] = counter
                    counter += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(adjacency[successor])))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(tuple(sorted(component)))
    return tuple(sccs)
