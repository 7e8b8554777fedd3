"""Directed and undirected graph storage plus component extraction.

Adjacency lists rather than a dense matrix: generated graphs are sparse
(expected edges scale with node count times activity times tree depth),
and the largest target sizes would not fit a dense representation
comfortably.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, TextIO

from .errors import EdgeListFormatError, ParameterError

__all__ = [
    "DirectedGraph",
    "UndirectedGraph",
    "undirected_projection",
    "giant_component",
    "write_edge_list",
    "read_edge_list",
]


class DirectedGraph:
    """Deduplicated directed edges over nodes 0..N-1; no self-loops.

    Immutable once built; out-edge lists are sorted ascending.
    """

    __slots__ = ("out_edges", "in_degree")

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int]] = ()):
        if node_count < 1:
            raise ParameterError(f"node_count must be >= 1, got {node_count}")
        out: list[set[int]] = [set() for _ in range(node_count)]
        for src, dst in edges:
            if not (0 <= src < node_count and 0 <= dst < node_count):
                raise ParameterError(f"edge ({src}, {dst}) references node out of range")
            if src == dst:
                raise ParameterError(f"self-loop ({src}, {dst}) not allowed")
            out[src].add(dst)
        self._finish(out)

    @classmethod
    def from_out_sets(cls, out: list[set[int]]) -> "DirectedGraph":
        """Adopt per-node destination sets (trusted: in-range, no self-loops)."""
        g = cls.__new__(cls)
        g._finish(out)
        return g

    def _finish(self, out: list[set[int]]) -> None:
        n = len(out)
        in_deg = [0] * n
        out_lists = []
        for dsts in out:
            lst = sorted(dsts)
            out_lists.append(lst)
            for d in lst:
                in_deg[d] += 1
        self.out_edges = out_lists
        self.in_degree = in_deg

    @property
    def node_count(self) -> int:
        return len(self.out_edges)

    @property
    def edge_count(self) -> int:
        return sum(len(lst) for lst in self.out_edges)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges in (src, dst) ascending order."""
        for src, dsts in enumerate(self.out_edges):
            for dst in dsts:
                yield src, dst


class UndirectedGraph:
    """Symmetric deduplicated adjacency over nodes 0..N-1; no self-loops."""

    __slots__ = ("neighbors",)

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int]] = ()):
        if node_count < 1:
            raise ParameterError(f"node_count must be >= 1, got {node_count}")
        nbr: list[set[int]] = [set() for _ in range(node_count)]
        for u, v in edges:
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise ParameterError(f"edge ({u}, {v}) references node out of range")
            if u == v:
                raise ParameterError(f"self-loop ({u}, {v}) not allowed")
            nbr[u].add(v)
            nbr[v].add(u)
        self.neighbors = [sorted(s) for s in nbr]

    @property
    def node_count(self) -> int:
        return len(self.neighbors)

    @property
    def edge_count(self) -> int:
        return sum(len(lst) for lst in self.neighbors) // 2

    def degree(self, u: int) -> int:
        return len(self.neighbors[u])

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, ascending."""
        for u, nbrs in enumerate(self.neighbors):
            for v in nbrs:
                if u < v:
                    yield u, v


def undirected_projection(g: DirectedGraph) -> UndirectedGraph:
    """Collapse edge directions: {i, j} present iff i->j or j->i is."""
    return UndirectedGraph(g.node_count, g.edges())


def giant_component(g: UndirectedGraph) -> tuple[list[int], UndirectedGraph]:
    """Largest connected component by node count; ties go to the one
    containing the smallest node id.

    Returns the sorted member ids and the induced subgraph with members
    relabeled to 0..len(members)-1 in that sorted order.
    """
    n = g.node_count
    label = [-1] * n
    best_members: list[int] = []
    for start in range(n):
        if label[start] != -1:
            continue
        members = [start]
        label[start] = start
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in g.neighbors[u]:
                if label[v] == -1:
                    label[v] = start
                    members.append(v)
                    queue.append(v)
        # Scan order makes the first maximal component the smallest-id one.
        if len(members) > len(best_members):
            best_members = members

    best_members.sort()
    index = {node: i for i, node in enumerate(best_members)}
    induced = UndirectedGraph.__new__(UndirectedGraph)
    induced.neighbors = [
        [index[v] for v in g.neighbors[node]] for node in best_members
    ]
    return best_members, induced


def write_edge_list(g: DirectedGraph, stream: TextIO) -> None:
    """Write the `# nodes=<N> edges=<E>` header then one `src,dst` line per edge."""
    stream.write(f"# nodes={g.node_count} edges={g.edge_count}\n")
    for src, dst in g.edges():
        stream.write(f"{src},{dst}\n")


def read_edge_list(stream: TextIO) -> DirectedGraph:
    """Parse a file written by :func:`write_edge_list`.

    Raises :class:`EdgeListFormatError` naming the offending line: the
    header for a malformed header or a wrong edge count, otherwise the
    edge line that is malformed, out of range, a self-loop or a repeat.
    """
    header = stream.readline()
    if not header.startswith("# nodes="):
        raise EdgeListFormatError(1, "expected header '# nodes=<N> edges=<E>'")
    try:
        nodes_field, edges_field = header[2:].split()
        if not edges_field.startswith("edges="):
            raise ValueError(edges_field)
        node_count = int(nodes_field[len("nodes="):])
        edge_count = int(edges_field[len("edges="):])
    except ValueError:
        raise EdgeListFormatError(1, "malformed header") from None

    edges = []
    blank_lines = []
    for line_no, line in enumerate(stream, start=2):
        line = line.strip()
        if not line:
            blank_lines.append(line_no)
            continue
        src_s, sep, dst_s = line.partition(",")
        if not sep:
            raise EdgeListFormatError(line_no, f"expected 'src,dst', got {line!r}")
        try:
            edges.append((int(src_s), int(dst_s)))
        except ValueError:
            raise EdgeListFormatError(line_no, f"non-integer node id in {line!r}") from None

    if len(edges) != edge_count:
        raise EdgeListFormatError(
            1, f"header says {edge_count} edges, file has {len(edges)}"
        )
    # Edges are validated in bulk by the graph build; only a failure pays
    # for finding the line.
    try:
        graph = DirectedGraph(node_count, edges)
    except ParameterError as exc:
        line_no = 1  # the header's node count itself is invalid
        for i, (src, dst) in enumerate(edges):
            if src == dst or not (0 <= src < node_count and 0 <= dst < node_count):
                line_no = _edge_line(i, blank_lines)
                break
        raise EdgeListFormatError(line_no, str(exc)) from None
    if graph.edge_count != len(edges):
        first_index = {}
        for i, edge in enumerate(edges):
            first = first_index.setdefault(edge, i)
            if first != i:
                raise EdgeListFormatError(
                    _edge_line(i, blank_lines),
                    f"duplicate edge {edge}, first on line {_edge_line(first, blank_lines)}",
                )
    return graph


def _edge_line(index: int, blank_lines: list[int]) -> int:
    """File line of the index-th edge, given the ascending skipped blank lines."""
    line_no = index + 2
    for blank in blank_lines:
        if blank > line_no:
            break
        line_no += 1
    return line_no
