"""Qubit-connectivity topologies.

The paper groups its 5-qubit devices by coupling-map shape ('–' line, 'T', '+')
and evaluates larger machines (15–65 qubits) with ladder / heavy-hex style
lattices.  This module provides those shapes as undirected coupling graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

import networkx as nx

__all__ = ["Topology", "line_topology", "t_topology", "plus_topology",
           "bowtie_topology", "h_topology", "ladder_topology",
           "heavy_hex_like_topology", "grid_topology"]


@dataclass(frozen=True)
class Topology:
    """An undirected coupling map over ``n_qubits`` physical qubits.

    Routing asks for adjacency and shortest paths once per two-qubit gate,
    so the adjacency set and one graph are built once per topology and
    every path is memoized per ordered pair (``nx.shortest_path``'s own
    tie-breaking, so each path is the one a fresh graph yields).  The
    lookups are derived state: pickles carry the fields only.
    """

    name: str
    n_qubits: int
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        normalized = tuple(
            sorted({(min(a, b), max(a, b)) for a, b in self.edges})
        )
        object.__setattr__(self, "edges", normalized)
        for a, b in normalized:
            if a == b:
                raise ValueError("self-loop in coupling map")
            if not (0 <= a < self.n_qubits and 0 <= b < self.n_qubits):
                raise ValueError("edge references a qubit outside the register")

    def __getstate__(self) -> dict:
        return {"name": self.name, "n_qubits": self.n_qubits, "edges": self.edges}

    def graph(self) -> nx.Graph:
        """A new coupling graph (the caller may modify it)."""
        graph = nx.Graph()
        graph.add_nodes_from(range(self.n_qubits))
        graph.add_edges_from(self.edges)
        return graph

    @cached_property
    def _graph(self) -> nx.Graph:
        return self.graph()

    @cached_property
    def _adjacent(self) -> FrozenSet[Tuple[int, int]]:
        return frozenset(self.edges)

    @cached_property
    def _paths(self) -> Dict[Tuple[int, int], Tuple[int, ...]]:
        return {}

    def are_adjacent(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self._adjacent

    def neighbors(self, qubit: int) -> List[int]:
        out = []
        for a, b in self.edges:
            if a == qubit:
                out.append(b)
            elif b == qubit:
                out.append(a)
        return sorted(out)

    def degree(self, qubit: int) -> int:
        return len(self.neighbors(qubit))

    def shortest_path(self, a: int, b: int) -> List[int]:
        path = self._paths.get((a, b))
        if path is None:
            path = self._paths[(a, b)] = tuple(nx.shortest_path(self._graph, a, b))
        return list(path)

    def distance(self, a: int, b: int) -> int:
        return len(self.shortest_path(a, b)) - 1

    def is_connected(self) -> bool:
        return nx.is_connected(self._graph)

    def connected_subsets(self, size: int) -> Iterable[Tuple[int, ...]]:
        """Yield connected subsets of ``size`` qubits (used by layout search).

        Enumeration is pruned by growing subsets from each seed node; for large
        devices callers should cap the number of candidates they consume.
        """
        graph = self._graph
        seen: set[Tuple[int, ...]] = set()
        for seed in range(self.n_qubits):
            frontier = [(seed,)]
            while frontier:
                subset = frontier.pop()
                if len(subset) == size:
                    key = tuple(sorted(subset))
                    if key not in seen:
                        seen.add(key)
                        yield key
                    continue
                candidates = set()
                for node in subset:
                    candidates.update(graph.neighbors(node))
                for candidate in sorted(candidates - set(subset)):
                    if candidate > seed or candidate in subset:
                        frontier.append(subset + (candidate,))


def line_topology(n_qubits: int, name: str = "line") -> Topology:
    """Linear chain 0-1-2-...-(n-1) — the '–' shape (Santiago, Athens, Rome)."""
    edges = tuple((i, i + 1) for i in range(n_qubits - 1))
    return Topology(name, n_qubits, edges)


def t_topology(name: str = "t") -> Topology:
    """5-qubit 'T' shape (Belem, Quito, Lima): 0-1-2, 1-3-4."""
    return Topology(name, 5, ((0, 1), (1, 2), (1, 3), (3, 4)))


def plus_topology(name: str = "plus") -> Topology:
    """5-qubit '+' shape: a centre qubit connected to four arms."""
    return Topology(name, 5, ((0, 2), (1, 2), (2, 3), (2, 4)))


def bowtie_topology(name: str = "bowtie") -> Topology:
    """IBMQ-Yorktown's bowtie: two triangles sharing the centre qubit."""
    return Topology(name, 5, ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)))


def h_topology(name: str = "h") -> Topology:
    """7-qubit 'H' shape (Jakarta, Casablanca): 0-1-2 and 4-5-6 bridged by 3."""
    return Topology(name, 7, ((0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)))


def ladder_topology(n_qubits: int, name: str = "ladder") -> Topology:
    """Two parallel rows with rungs — the IBMQ-Melbourne style layout.

    Odd register sizes put the extra qubit on the top row (as on the 15-qubit
    Melbourne device).
    """
    if n_qubits < 2:
        raise ValueError("ladder topology needs at least two qubits")
    top = (n_qubits + 1) // 2
    bottom = n_qubits - top
    edges: List[Tuple[int, int]] = []
    for i in range(top - 1):
        edges.append((i, i + 1))
    for i in range(bottom - 1):
        edges.append((top + i, top + i + 1))
    for i in range(bottom):
        edges.append((i, top + i))
    return Topology(name, n_qubits, tuple(edges))


def grid_topology(rows: int, cols: int, name: str = "grid") -> Topology:
    """Rectangular grid topology."""
    edges: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                edges.append((node, node + 1))
            if r + 1 < rows:
                edges.append((node, node + cols))
    return Topology(name, rows * cols, tuple(edges))


def heavy_hex_like_topology(n_qubits: int, name: str = "heavy_hex") -> Topology:
    """A heavy-hex-like sparse lattice for the 16/27/65-qubit devices.

    Constructed as a degree-limited grid: rows of qubits connected in a line,
    with every third qubit bridged to the next row.  This matches the sparse,
    low-degree character of IBM's heavy-hex devices (Guadalupe, Montreal,
    Manhattan) without reproducing their exact lattices.
    """
    cols = max(4, int(round(n_qubits**0.5)) + 1)
    rows = (n_qubits + cols - 1) // cols
    edges: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if node >= n_qubits:
                continue
            right = node + 1
            if c + 1 < cols and right < n_qubits:
                edges.append((node, right))
            below = node + cols
            if r + 1 < rows and below < n_qubits and c % 3 == (r % 2) * 2 % 3:
                edges.append((node, below))
    topology = Topology(name, n_qubits, tuple(edges))
    if not topology.is_connected():
        # Stitch any disconnected components with extra vertical links.
        graph = topology.graph()
        components = list(nx.connected_components(graph))
        extra = list(topology.edges)
        for first, second in zip(components, components[1:]):
            extra.append((min(first), min(second)))
        topology = Topology(name, n_qubits, tuple(extra))
    return topology
