"""Directed and undirected graph storage plus component extraction.

Adjacency lists rather than a dense matrix: generated graphs are sparse
(expected edges scale with node count times activity times tree depth),
and the largest target sizes would not fit a dense representation
comfortably.
"""

from __future__ import annotations

from itertools import islice
from operator import eq
from typing import Iterable, Iterator, TextIO

from .errors import EdgeListFormatError, ParameterError

__all__ = [
    "DirectedGraph",
    "UndirectedGraph",
    "undirected_projection",
    "giant_members",
    "giant_component",
    "write_edge_list",
    "read_edge_list",
]

# Characters of edge-list text parsed per block by read_edge_list. A
# block's line strings and freshly parsed ints are the reader's transient
# peak, so blocks are kept small; the per-block work is a few slices.
_BLOCK_CHARS = 1 << 16


class DirectedGraph:
    """Deduplicated directed edges over nodes 0..N-1; no self-loops.

    Immutable once built; out-edge lists are sorted ascending. A list may
    be shared with another graph (a projection adopts out-lists), so none
    is ever mutated. In-degrees are counted on first read and then kept.
    """

    __slots__ = ("out_edges", "_in_degree", "__weakref__")

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int]] = ()):
        edges = list(edges)
        error = _first_bad_edge(node_count, edges)[1]
        if error:
            raise ParameterError(error)
        out: list[set[int]] = [set() for _ in range(node_count)]
        for src, dst in edges:
            out[src].add(dst)
        self.out_edges = [sorted(dsts) for dsts in out]
        self._in_degree = None

    @classmethod
    def _adopt(cls, out_edges: list[list[int]]) -> "DirectedGraph":
        """Take over sorted, deduplicated, in-range out-lists without a self-loop
        as they are."""
        g = cls.__new__(cls)
        g.out_edges = out_edges
        g._in_degree = None
        return g

    @property
    def in_degree(self) -> list[int]:
        """In-degree of every node, counted from the out-lists on first read."""
        if self._in_degree is None:
            in_degree = [0] * len(self.out_edges)
            for dsts in self.out_edges:
                for dst in dsts:
                    in_degree[dst] += 1
            self._in_degree = in_degree
        return self._in_degree

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
    """Symmetric deduplicated adjacency over nodes 0..N-1; no self-loops.

    Neighbour lists are sorted ascending. A list may be shared with the
    directed graph it was projected from, so none is ever mutated. Built
    from edges, it is the projection of ``DirectedGraph(node_count, edges)``.
    """

    __slots__ = ("neighbors", "__weakref__")

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int]] = ()):
        self.neighbors = undirected_projection(DirectedGraph(node_count, edges)).neighbors

    @classmethod
    def _adopt(cls, neighbors: list[list[int]]) -> "UndirectedGraph":
        """Take over sorted, symmetric, deduplicated neighbour lists as they are."""
        g = cls.__new__(cls)
        g.neighbors = neighbors
        return g

    @property
    def node_count(self) -> int:
        return len(self.neighbors)

    @property
    def edge_count(self) -> int:
        return sum(len(lst) for lst in self.neighbors) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, ascending."""
        for u, nbrs in enumerate(self.neighbors):
            for v in nbrs:
                if u < v:
                    yield u, v


def undirected_projection(g: DirectedGraph) -> UndirectedGraph:
    """Collapse edge directions: {i, j} present iff i->j or j->i is.

    Each node's in-list comes out sorted because sources are visited in
    ascending order; it is merged with the node's out-list. A node with
    no in-edges shares its out-list as its neighbour list. A
    DirectedGraph is already valid, so nothing is checked again.
    """
    out = g.out_edges
    nbr: list[list[int]] = [[] for _ in out]
    for u, dsts in enumerate(out):
        for v in dsts:
            nbr[v].append(u)
    for u, dsts in enumerate(out):
        if dsts:
            ins = nbr[u]
            nbr[u] = sorted(set(ins).union(dsts)) if ins else dsts
    return UndirectedGraph._adopt(nbr)


def giant_members(g: UndirectedGraph) -> list[int]:
    """Sorted node ids of the largest connected component by node count;
    ties go to the one containing the smallest node id."""
    neighbors = g.neighbors
    seen = bytearray(len(neighbors))
    best_members: list[int] = []
    for start in range(len(neighbors)):
        if seen[start]:
            continue
        seen[start] = 1
        members = [start]
        for u in members:  # breadth-first: the list is its own queue
            for v in neighbors[u]:
                if not seen[v]:
                    seen[v] = 1
                    members.append(v)
        # Scan order makes the first maximal component the smallest-id one.
        if len(members) > len(best_members):
            best_members = members
    best_members.sort()
    return best_members


def giant_component(g: UndirectedGraph) -> tuple[list[int], UndirectedGraph]:
    """The :func:`giant_members` and the induced subgraph with members
    relabeled to 0..len(members)-1 in that sorted order."""
    neighbors = g.neighbors
    members = giant_members(g)
    # Every neighbour of a member is a member, so only members' entries
    # are read back.
    new_ids = [0] * len(neighbors)
    for new_id, node in enumerate(members):
        new_ids[node] = new_id
    relabel = new_ids.__getitem__
    induced = UndirectedGraph._adopt(
        [list(map(relabel, neighbors[node])) for node in members]
    )
    return members, induced


def write_edge_list(g: DirectedGraph, stream: TextIO) -> None:
    """Write the `# nodes=<N> edges=<E>` header then one `src,dst` line per edge."""
    stream.write(f"# nodes={g.node_count} edges={g.edge_count}\n")
    for src, dsts in enumerate(g.out_edges):
        if dsts:
            prefix = f"{src},"
            stream.write(prefix + f"\n{prefix}".join(map(str, dsts)) + "\n")


def read_edge_list(stream: TextIO) -> DirectedGraph:
    """Parse a file written by :func:`write_edge_list`.

    Raises :class:`EdgeListFormatError` naming the offending line: the
    header for a malformed header or a wrong edge count, otherwise the
    edge line that is malformed, out of range, a self-loop or a repeat.
    Lines may come in any order and carry surrounding whitespace; blank
    lines are skipped.
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

    # Lines are parsed a block at a time. Each block's ids are swapped for
    # one shared int object per node id, so the ints parsed from a block
    # are freed at once and every list that names a node points into one
    # compact run of objects.
    node_ids: list[int] = []
    srcs: list[int] = []
    dsts: list[int] = []
    blank_lines: list[int] = []
    first_line = 2
    all_ids = True  # every block held only valid node ids
    while block := stream.readlines(_BLOCK_CHARS):
        start = len(srcs)
        for line_no, line in enumerate(block, first_line):
            line = line.strip()
            if not line:
                blank_lines.append(line_no)
                continue
            src_s, sep, dst_s = line.partition(",")
            if not sep:
                raise EdgeListFormatError(line_no, f"expected 'src,dst', got {line!r}")
            try:
                srcs.append(int(src_s))
                dsts.append(int(dst_s))
            except ValueError:
                raise EdgeListFormatError(
                    line_no, f"non-integer node id in {line!r}"
                ) from None
        first_line += len(block)
        all_ids &= _share_ids(srcs, start, node_ids, node_count)
        all_ids &= _share_ids(dsts, start, node_ids, node_count)

    if len(srcs) != edge_count:
        raise EdgeListFormatError(
            1, f"header says {edge_count} edges, file has {len(srcs)}"
        )
    # Edges are validated in bulk, their ranges block by block; only a
    # failure pays for finding the line.
    if node_count < 1 or not all_ids or any(map(eq, srcs, dsts)):
        index, error = _first_bad_edge(node_count, zip(srcs, dsts))
        # With no bad edge (index -1) the header's node count is at fault: line 1.
        raise EdgeListFormatError(_edge_line(index, blank_lines), error)

    out_edges: list[list[int]] = [[] for _ in range(node_count)]
    for src, dst in zip(srcs, dsts):
        out_edges[src].append(dst)
    repeated = False
    for row in out_edges:
        if len(row) > 1:
            row.sort()
            repeated = repeated or any(map(eq, row, islice(row, 1, None)))
    if repeated:
        first_index: dict[tuple[int, int], int] = {}
        for i, edge in enumerate(zip(srcs, dsts)):
            first = first_index.setdefault(edge, i)
            if first != i:
                raise EdgeListFormatError(
                    _edge_line(i, blank_lines),
                    f"duplicate edge {edge}, first on line {_edge_line(first, blank_lines)}",
                )
    return DirectedGraph._adopt(out_edges)


def _first_bad_edge(node_count: int, edges: Iterable[tuple[int, int]]) -> tuple[int, str]:
    """The index of the first edge out of range or a self-loop (-1 if
    none) and the error :class:`DirectedGraph` raises for these edges (""
    if none). A node count below 1 is the error whatever the edges."""
    for i, (src, dst) in enumerate(edges):
        if not (0 <= src < node_count and 0 <= dst < node_count):
            error = f"edge ({src}, {dst}) references node out of range"
            break
        if src == dst:
            error = f"self-loop ({src}, {dst}) not allowed"
            break
    else:
        i, error = -1, ""
    if node_count < 1:
        error = f"node_count must be >= 1, got {node_count}"
    return i, error


def _share_ids(values: list[int], start: int, node_ids: list[int], node_count: int) -> bool:
    """Replace ``values[start:]`` by the shared objects in ``node_ids``,
    extending it up to the largest id seen, if all are in [0, node_count).
    Otherwise leave them as parsed and return False."""
    block = values[start:]
    if not block:
        return True
    high = max(block)
    if min(block) < 0 or high >= node_count:
        return False
    if high >= len(node_ids):
        node_ids.extend(range(len(node_ids), high + 1))
    values[start:] = map(node_ids.__getitem__, block)
    return True


def _edge_line(index: int, blank_lines: list[int]) -> int:
    """File line of the index-th edge, given the ascending skipped blank lines."""
    line_no = index + 2
    for blank in blank_lines:
        if blank > line_no:
            break
        line_no += 1
    return line_no
