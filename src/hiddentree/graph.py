"""Directed and undirected graph storage plus component extraction.

Both graph classes are stored in compressed sparse row (CSR) form: two
flat buffers, ``offsets`` (``array('q')``, N+1 entries) and ``targets``
(``array('i')``), where row u is ``targets[offsets[u]:offsets[u+1]]``,
sorted ascending. Generated graphs are sparse, so this costs 4 bytes per
stored edge end and 8 per node. No object is kept per node, so the
cyclic garbage collector has nothing of a graph to walk. ``out_edges``
and ``neighbors`` are read-only row views over the buffers.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import accumulate, chain, compress, islice, repeat
from operator import add, and_, eq, ge, le, lt, ne, sub
from typing import Iterable, Iterator, Optional, TextIO

from .errors import EdgeListFormatError, ParameterError

__all__ = [
    "DirectedGraph",
    "UndirectedGraph",
    "undirected_projection",
    "project_in_place",
    "giant_members",
    "giant_component",
    "write_edge_list",
    "read_edge_list",
]

#: Node counts must stay below this: ids are ``array('i')`` entries.
NODE_LIMIT = 1 << 31

# Characters of edge-list text parsed per block by read_edge_list. A
# block's line strings and freshly parsed ints are the reader's transient
# peak, so blocks are kept small; the per-block work is a few slices.
_BLOCK_CHARS = 1 << 14


def node_count_error(node_count: int) -> str:
    """The error for a node count outside [1, NODE_LIMIT), or "" if none."""
    if node_count < 1:
        return f"node_count must be >= 1, got {node_count}"
    if node_count >= NODE_LIMIT:
        return f"node_count must be < {NODE_LIMIT}, got {node_count}"
    return ""


class Rows:
    """Read-only rows of a CSR graph: ``len()`` is the node count and
    ``rows[u]`` is row u, a read-only ``memoryview`` of ints."""

    __slots__ = ("_offsets", "_targets")

    def __init__(self, offsets: array, targets: array):
        self._offsets = offsets
        self._targets = memoryview(targets).toreadonly()

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, u: int) -> memoryview:
        if not 0 <= u < len(self._offsets) - 1:
            raise IndexError(f"node id {u} out of range [0, {len(self)})")
        return self._targets[self._offsets[u]:self._offsets[u + 1]]

    def __iter__(self) -> Iterator[memoryview]:
        offsets = self._offsets
        return map(self._targets.__getitem__, map(slice, offsets, islice(offsets, 1, None)))


class _Csr:
    """The two buffers and what both graph classes read from them. The
    buffers of a built graph are never mutated, with one exception:
    :func:`project_in_place` takes over a directed graph's buffers, builds
    the projection in them and leaves that graph empty."""

    __slots__ = ("offsets", "targets", "__weakref__")

    @classmethod
    def _adopt(cls, offsets: array, targets: array):
        """Take over CSR buffers whose rows are sorted, deduplicated and in
        range, as they are."""
        g = cls.__new__(cls)
        g.offsets = offsets
        g.targets = targets
        return g

    @property
    def node_count(self) -> int:
        return len(self.offsets) - 1


class DirectedGraph(_Csr):
    """Deduplicated directed edges over nodes 0..N-1; no self-loops.

    ``out_edges[u]`` is node u's sorted out-row. In-degrees are counted
    on first read and then kept.
    """

    __slots__ = ("_in_degree",)

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int]] = ()):
        edges = list(edges)
        error = _edge_error(node_count, edges)
        if error:
            raise ParameterError(error)
        edges = sorted(set(edges))
        out_degree = _count([src for src, _ in edges], node_count)
        self.offsets = array("q", accumulate(out_degree, initial=0))
        self.targets = array("i", [dst for _, dst in edges])

    @property
    def out_edges(self) -> Rows:
        """Every node's out-row, indexable by node id."""
        return Rows(self.offsets, self.targets)

    @property
    def in_degree(self) -> list[int]:
        """In-degree of every node, counted from the targets on first read."""
        in_degree = getattr(self, "_in_degree", None)
        if in_degree is None:
            in_degree = self._in_degree = _count(self.targets, self.node_count)
        return in_degree

    @property
    def edge_count(self) -> int:
        return len(self.targets)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges in (src, dst) ascending order."""
        for src, dsts in enumerate(self.out_edges):
            for dst in dsts:
                yield src, dst


class UndirectedGraph(_Csr):
    """Symmetric deduplicated adjacency over nodes 0..N-1; no self-loops.

    ``neighbors[u]`` is node u's sorted neighbour row. Built from edges,
    it is the projection of ``DirectedGraph(node_count, edges)``.
    """

    __slots__ = ()

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int]] = ()):
        projection = project_in_place(DirectedGraph(node_count, edges))
        self.offsets = projection.offsets
        self.targets = projection.targets

    @property
    def neighbors(self) -> Rows:
        """Every node's neighbour row, indexable by node id."""
        return Rows(self.offsets, self.targets)

    @property
    def edge_count(self) -> int:
        return len(self.targets) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, ascending."""
        for u, nbrs in enumerate(self.neighbors):
            for v in nbrs:
                if u < v:
                    yield u, v


def undirected_projection(g: DirectedGraph) -> UndirectedGraph:
    """Collapse edge directions: {i, j} present iff i->j or j->i is.

    For a graph the caller keeps: :func:`project_in_place` runs on a copy
    of its targets, and ``g`` is left as it is. The offsets are shared, as
    the projection only reads them.
    """
    copy = DirectedGraph._adopt(g.offsets, g.targets[:])
    copy._in_degree = g.in_degree
    return project_in_place(copy)


def project_in_place(g: DirectedGraph) -> UndirectedGraph:
    """:func:`undirected_projection` of a graph the caller hands over: the
    projection is built in ``g``'s own buffers, and ``g`` is left empty,
    with no nodes and no edges.

    A node's row is its out-row merged with its in-row, the edge sources
    grouped by target. A DirectedGraph is already valid, so nothing is
    checked again. The target buffer grows once to 2m entries (m directed
    edges), and row v's out-row and in-row then sit side by side from
    offsets[v] + in_offsets[v]:

    1. the out-rows move right, last row first: a row's new start is at or
       after its old one, and the rows above it have moved already;
    2. the in-rows are grouped into the slots after each out-row; sources
       come in ascending order, so each in-row comes out sorted, and only
       out-row slots are read while only in-row slots are written;
    3. each row is merged and moved left; a merged row is no longer than
       its two parts, so it never reaches the next row's unread slots.
    """
    offsets, targets, in_degree = g.offsets, g.targets, g.in_degree
    g.offsets, g.targets, g._in_degree = array("q", [0]), array("i"), []
    n = len(offsets) - 1
    # One realloc: growing it in steps would copy it and leave the old
    # copies behind.
    targets *= 2
    starts = array("q", map(add, offsets, accumulate(in_degree, initial=0)))
    fill = array("q", map(add, islice(offsets, 1, None), accumulate(in_degree, initial=0)))
    del in_degree
    nbr_offsets = array("q", [0])
    with memoryview(targets) as buf:
        for s, b, a in zip(
            islice(reversed(starts), 1, None), reversed(offsets), islice(reversed(offsets), 1, None)
        ):
            if s == a:
                break  # no in-edge lies below this row, so none below an earlier one
            if a != b:  # most out-rows of a generated graph are empty
                buf[s:s + b - a] = buf[a:b]
        out_rows = map(slice, starts, map(add, starts, _row_lengths(offsets)))
        sources = chain.from_iterable(map(repeat, range(n), _row_lengths(offsets)))
        _group_by(chain.from_iterable(map(buf.__getitem__, out_rows)), sources, fill, targets)
        del starts, out_rows, sources
        # fill[v] is now the end of row v's slots, where row v+1's begin.
        s = end = 0
        for out_degree, e in zip(_row_lengths(offsets), fill):
            if out_degree == 0 or s + out_degree == e:
                if s != end:
                    buf[end:end + e - s] = buf[s:e]
                end += e - s
            else:
                # Two sorted runs, which sorted() merges; then repeats,
                # now adjacent, are dropped.
                row = sorted(buf[s:e])
                row = array("i", compress(row, map(ne, row, chain((None,), row))))
                buf[end:end + len(row)] = row
                end += len(row)
            nbr_offsets.append(end)
            s = e
    del targets[end:]
    return UndirectedGraph._adopt(nbr_offsets, targets)


def giant_members(g: UndirectedGraph) -> array:
    """Sorted node ids of the largest connected component by node count,
    as an ``array('i')``; ties go to the one containing the smallest node
    id."""
    n = g.node_count
    offsets, targets = g.offsets, memoryview(g.targets)
    seen = bytearray(n)
    best = array("i")
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = 1
        members = array("i", (start,))
        for u in members:  # breadth-first: the array is its own queue
            for v in targets[offsets[u]:offsets[u + 1]]:
                if not seen[v]:
                    seen[v] = 1
                    members.append(v)
        # Scan order makes the first maximal component the smallest-id one.
        if len(members) > len(best):
            best = members
    # Marked and read back in id order: sorted, with no int object held
    # per member.
    in_best = bytearray(n)
    for v in best:
        in_best[v] = 1
    return array("i", compress(range(n), in_best))


def giant_component(g: UndirectedGraph) -> tuple[array, UndirectedGraph]:
    """The :func:`giant_members` and the induced subgraph with members
    relabeled to 0..len(members)-1 in that sorted order."""
    offsets, targets = g.offsets, memoryview(g.targets)
    members = giant_members(g)
    # Every neighbour of a member is a member, so only members' entries
    # are read back; relabelling keeps each row sorted.
    new_ids = [0] * g.node_count
    for new_id, node in enumerate(members):
        new_ids[node] = new_id
    starts = array("q", map(offsets.__getitem__, members))
    ends = array("q", map(offsets.__getitem__, map((1).__add__, members)))
    rows = map(targets.__getitem__, map(slice, starts, ends))
    sub_targets = array("i", map(new_ids.__getitem__, chain.from_iterable(rows)))
    sub_offsets = array("q", accumulate(map(sub, ends, starts), initial=0))
    return members, UndirectedGraph._adopt(sub_offsets, sub_targets)


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
    header for a malformed header, a node count of 2**31 or more or a
    wrong edge count, otherwise the edge line that is malformed, out of
    range, a self-loop or a repeat. Lines may come in any order and carry
    surrounding whitespace; blank lines are skipped.
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
    if node_count >= NODE_LIMIT:
        raise EdgeListFormatError(1, node_count_error(node_count))

    # Lines are parsed a block at a time, the source column as runs of
    # equal text (see _parse_block). A block whose ids are all in range and
    # that has no self-loop is kept. The first block that is not gives the
    # error, found by a rescan of its lines; later blocks are only parsed,
    # as a malformed line wins. While the edges run in strictly ascending
    # order, the order write_edge_list writes, the target column is already
    # CSR and no source column is kept: offsets[u], the first edge whose
    # source is not below u, is filled from the run starts up to the last
    # source read. Once the order breaks, the source column is rebuilt
    # from those offsets and kept from then on.
    offsets = array("q")
    srcs = None  # the source column, once the order has broken
    dsts = array("i")
    error = None  # the first out-of-range edge or self-loop
    blank_lines: list[int] = []
    next_line = 2
    while block := stream.readlines(_BLOCK_CHARS):
        first_line, next_line = next_line, next_line + len(block)
        try:
            values, starts, block_dsts = _parse_block(block)
        except ValueError:
            # A blank line, or padding int() does not strip: parse the
            # block again with its lines stripped.
            lines = list(map(str.strip, block))
            if "" in lines:
                blank_lines += [no for no, line in enumerate(lines, first_line) if not line]
                lines = list(filter(None, lines))
            try:
                values, starts, block_dsts = _parse_block(list(map("{}\n".format, lines)))
            except ValueError:
                raise _line_error(block, first_line, None) from None
        if error is not None or not block_dsts:
            continue
        ends = starts[1:]
        ends.append(len(block_dsts))
        in_order = srcs is None and _ascends(values, starts, block_dsts) and not (
            dsts
            and (len(offsets) - 1, dsts[-1]) >= (values[0], block_dsts[0])
        )
        if in_order:
            # Each run's destinations ascend: a self-loop is where its source
            # would be inserted, at or before the run's last destination.
            lasts = map((-1).__add__, ends)
            found = map(bisect_left, repeat(block_dsts), values, starts, lasts)
            loops = map(eq, map(block_dsts.__getitem__, found), values)
        else:
            block_srcs = list(chain.from_iterable(map(repeat, values, map(sub, ends, starts))))
            loops = map(eq, block_srcs, block_dsts)
        if (
            min(values) < 0 or max(values) >= node_count
            or min(block_dsts) < 0 or max(block_dsts) >= node_count
            or any(loops)
        ):
            error = _line_error(block, first_line, node_count)
            continue
        if in_order:
            # The rows of the nodes after the previous run's source, up to
            # this run's, start where this run does; a run with the previous
            # run's source starts no row.
            firsts = map(len(dsts).__add__, starts)
            gaps = map(sub, values, chain((len(offsets) - 1,), values))
            offsets.extend(chain.from_iterable(map(repeat, firsts, gaps)))
        else:
            if srcs is None:
                offsets.append(len(dsts))
                rows = map(repeat, range(len(offsets)), _row_lengths(offsets))
                srcs = array("i", chain.from_iterable(rows))
            srcs.fromlist(block_srcs)
        dsts.fromlist(block_dsts)

    edges_read = next_line - 2 - len(blank_lines)
    if edges_read != edge_count:
        raise EdgeListFormatError(1, f"header says {edge_count} edges, file has {edges_read}")
    if error is None and node_count < 1:
        error = EdgeListFormatError(1, node_count_error(node_count))
    if error is not None:
        raise error

    if srcs is None:
        offsets.extend(repeat(len(dsts), node_count + 1 - len(offsets)))
        targets = dsts
    else:
        targets = array("i", [0]) * len(dsts)
        offsets = array("q", accumulate(_count(srcs, node_count), initial=0))
        _group_by(srcs, dsts, offsets[:], targets)
        if _sort_rows(offsets, targets):
            _raise_first_repeat(srcs, dsts, blank_lines)
    return DirectedGraph._adopt(offsets, targets)


def _parse_block(lines: list[str]) -> tuple[list[int], list[int], list[int]]:
    """Parse ``src,dst`` lines, each but the last ending in "\\n": the
    values of the source runs (lines with the same source text in a row),
    the index of each run's first line, and the destinations. Raises
    ValueError unless every line has exactly one comma and integer ids.

    2L fields for L lines means L commas in the lines. A line's "\\n" is
    in a source field when the commas before it, the joining ones
    included, are even in number. So if no run key, and thus no source
    field, holds one, every line ending in "\\n" holds an odd number of
    commas, and with L in all, every line holds one.
    """
    if not lines:
        return [], [], []
    fields = ",".join(lines).split(",")
    if len(fields) != 2 * len(lines):
        raise ValueError("not one comma per line")
    src_fields = fields[::2]
    changes = map(ne, src_fields, islice(src_fields, 1, None))
    starts = [0, *compress(range(1, len(src_fields)), changes)]
    keys = list(map(src_fields.__getitem__, starts))
    if "\n" in "".join(keys):
        raise ValueError("not one comma per line")
    return list(map(int, keys)), starts, list(map(int, islice(fields, 1, None, 2)))


def _ascends(values: list[int], starts: list[int], dsts: list[int]) -> bool:
    """Whether a parsed block's edges strictly ascend: its run values never
    descend, and every destination that is not above the one before starts
    a run with a larger value than the run before (two texts of one value,
    such as a padded one, make two runs)."""
    later = starts[1:]
    descents = sum(map(ge, dsts, islice(dsts, 1, None)))
    befores = map(dsts.__getitem__, map((-1).__add__, later))
    rises = map(lt, values, islice(values, 1, None))
    at_rises = sum(map(and_, rises, map(ge, befores, map(dsts.__getitem__, later))))
    return descents == at_rises and all(map(le, values, islice(values, 1, None)))


def _line_error(block: list[str], first_line: int, node_count: Optional[int]) -> EdgeListFormatError:
    """The error of the first line of ``block`` that is not blank and not
    ``src,dst`` with integer ids or, given a ``node_count``, whose edge
    :func:`_edge_error` rejects; ``block`` starts at line ``first_line``."""
    for line_no, line in enumerate(block, first_line):
        line = line.strip()
        if not line:
            continue
        src_s, sep, dst_s = line.partition(",")
        if not sep:
            return EdgeListFormatError(line_no, f"expected 'src,dst', got {line!r}")
        try:
            edge = int(src_s), int(dst_s)
        except ValueError:
            return EdgeListFormatError(line_no, f"non-integer node id in {line!r}")
        if node_count is not None:
            error = _edge_error(node_count, [edge])
            if error:
                return EdgeListFormatError(line_no, error)
    raise ValueError("block holds no bad line")


def _row_lengths(offsets: array) -> Iterator[int]:
    """The length of each row of CSR ``offsets``."""
    return map(sub, islice(offsets, 1, None), offsets)


def _count(keys: Iterable[int], n: int) -> list[int]:
    """How many of ``keys`` equal each of 0..n-1."""
    counts = [0] * n
    for key in keys:
        counts[key] += 1
    return counts


def _group_by(keys: Iterable[int], values: Iterable[int], fill: array, out: array) -> None:
    """A counting sort: write each of ``values`` into ``out`` at the
    position ``fill`` holds for its key, and advance that position, so the
    values of a key are laid out from where ``fill[key]`` started, in the
    order given. ``fill[key]`` ends one past the key's last value."""
    for key, value in zip(keys, values):
        i = fill[key]
        out[i] = value
        fill[key] = i + 1


def _sort_rows(offsets: array, targets: array) -> bool:
    """Sort every row in place; whether some row holds a target twice."""
    repeated = False
    for a, b in zip(offsets, islice(offsets, 1, None)):
        if b - a > 1:
            row = sorted(targets[a:b])
            targets[a:b] = array("i", row)
            repeated = repeated or any(map(eq, row, islice(row, 1, None)))
    return repeated


def _raise_first_repeat(srcs: array, dsts: array, blank_lines: list[int]) -> None:
    first_index: dict[tuple[int, int], int] = {}
    for i, edge in enumerate(zip(srcs, dsts)):
        first = first_index.setdefault(edge, i)
        if first != i:
            raise EdgeListFormatError(
                _edge_line(i, blank_lines),
                f"duplicate edge {edge}, first on line {_edge_line(first, blank_lines)}",
            )


def _edge_error(node_count: int, edges: Iterable[tuple[int, int]]) -> str:
    """The error :class:`DirectedGraph` raises for these edges ("" if
    none): the first edge out of range or a self-loop. A node count outside
    [1, NODE_LIMIT) is the error whatever the edges."""
    error = node_count_error(node_count)
    if error:
        return error
    for src, dst in edges:
        if not (0 <= src < node_count and 0 <= dst < node_count):
            return f"edge ({src}, {dst}) references node out of range"
        if src == dst:
            return f"self-loop ({src}, {dst}) not allowed"
    return ""


def _edge_line(index: int, blank_lines: list[int]) -> int:
    """File line of the index-th edge, given the ascending skipped blank lines."""
    line_no = index + 2
    for blank in blank_lines:
        if blank > line_no:
            break
        line_no += 1
    return line_no
