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
from itertools import accumulate, chain, compress, islice, repeat, tee
from operator import add, eq, ge, lt, ne, sub
from typing import Iterable, Iterator, TextIO

from . import _exports
from .errors import EdgeListFormatError, ParameterError

__all__ = _exports(__name__)

#: Node counts must stay below this: ids are ``array('i')`` entries.
NODE_LIMIT = 1 << 31

# Characters of edge-list text parsed per block by read_edge_list. A
# block's line strings and freshly parsed ints are the reader's transient
# peak, so blocks are kept small (under 1 MB beyond the graph's buffers,
# whatever the file's length); the per-block work is a few slices.
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
        if error := node_count_error(node_count):
            raise ParameterError(error)
        srcs, dsts = array("i"), array("i")
        for src, dst in edges:
            if not (0 <= src < node_count and 0 <= dst < node_count and src != dst):
                raise ParameterError(_edge_error(node_count, src, dst))
            srcs.append(src)
            dsts.append(dst)
        self.offsets, self.targets = _rows(srcs, dsts, node_count)

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
    with new targets and ``g``'s own offsets and in-degrees, which it only
    reads, so ``g`` is left as it is.
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
    edges), and row v's out-row and in-row then sit side by side from the
    sum of the out- and in-degrees below v:

    1. the out-rows move right, last row first: a row's new start is at or
       after its old one, and the rows above it have moved already;
    2. the in-rows are grouped into the slots after each out-row; sources
       come in ascending order, so each in-row comes out sorted, and only
       out-row slots are read while only in-row slots are written;
    3. each row is merged and moved left; a merged row is no longer than
       its two parts, so it never reaches the next row's unread slots.

    Beside the doubled buffer it holds 16 bytes per node: the out- and
    in-degrees, ``array('i')`` each, and the fill cursor, ``array('q')``,
    which becomes the projection's offsets. The directed offsets are
    dropped before the buffer doubles, and each row's old and new start
    is a running sum of the degrees, never read from the cursor. The
    in-degrees are dropped before step 3, which holds one row's sorted
    entries at a time.
    """
    offsets, targets, in_degree = g.offsets, g.targets, g.in_degree
    g.offsets, g.targets, g._in_degree = array("q", [0]), array("i"), []
    # Node counts are below 2**31, so every degree fits in 4 bytes. A
    # handed-over graph's in-degree list and offsets are freed here, before
    # the buffer doubles, so neither peaks with it.
    in_degree = array("i", in_degree)
    out_degree = array("i", _row_lengths(offsets))
    del offsets
    n, m = len(out_degree), len(targets)
    # fill[v] starts where row v's in-row slots begin, after its out-row.
    fill = array("q", map(add, accumulate(map(add, out_degree, in_degree), initial=0), out_degree))
    # One realloc: growing it in steps would copy it and leave the old
    # copies behind.
    targets *= 2
    with memoryview(targets) as buf:
        # Old row v is [a, b) and its new start is s: descending sums.
        a, s = m, 2 * m
        for d_out, d_in in zip(reversed(out_degree), reversed(in_degree)):
            b = a
            a -= d_out
            s -= d_out + d_in
            if s == a:
                break  # no in-edge lies below this row, so none below an earlier one
            if d_out:  # most out-rows of a generated graph are empty
                buf[s:s + d_out] = buf[a:b]
        # Out-row v is [s, s + d_out) with s the ascending sums; the two
        # copies of the sums advance together, so tee buffers one at most.
        starts, row_starts = tee(accumulate(map(add, out_degree, in_degree), initial=0))
        out_rows = map(slice, starts, map(add, row_starts, out_degree))
        sources = chain.from_iterable(map(repeat, range(n), out_degree))
        _group_by(chain.from_iterable(map(buf.__getitem__, out_rows)), sources, fill, targets)
        del in_degree, starts, row_starts, out_rows, sources
        # fill[v] is now the end of row v's slots, where row v+1's begin.
        # Once read, it is overwritten with the end of merged row v, so fill
        # becomes the projection's offsets and no further per-node array grows.
        s = end = 0
        for v, (d_out, e) in enumerate(zip(out_degree, fill)):
            # A row with one part, or whose out-part ends below its in-part,
            # is already sorted and free of repeats.
            if d_out == 0 or s + d_out == e or buf[s + d_out - 1] < buf[s + d_out]:
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
            fill[v] = end
            s = e
    del targets[end:]
    fill.insert(0, 0)
    return UndirectedGraph._adopt(fill, targets)


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
    # One % format per row: no str object per destination.
    for src, dsts in enumerate(g.out_edges):
        if dsts:
            stream.write((f"{src},%d\n" * len(dsts)) % tuple(dsts))


def read_edge_list(stream: TextIO) -> DirectedGraph:
    """Parse a file written by :func:`write_edge_list`.

    Raises :class:`EdgeListFormatError` naming the offending line: the
    header for a malformed header, a node count of 2**31 or more or a
    wrong edge count, otherwise the edge line that is malformed, out of
    range, a self-loop or a repeat. Node ids are ASCII decimal integers.
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
        counts = nodes_field[len("nodes="):], edges_field[len("edges="):]
        node_count, edge_count = map(int, counts)
        if not all(map(_is_decimal, counts)):
            raise ValueError(header)
    except ValueError:
        raise EdgeListFormatError(1, "malformed header") from None
    if node_count >= NODE_LIMIT:
        raise EdgeListFormatError(1, node_count_error(node_count))

    # Blocks in the form write_edge_list writes (see _parse_block) are
    # taken whole: their target column is already CSR and no source column
    # is kept. offsets[u], the first edge whose source is not below u, is
    # filled from the run starts up to the last source read. The first
    # block in any other form, and the rest of the stream, are read line
    # by line.
    offsets = array("q")
    dsts = array("i")
    while block := stream.readlines(_BLOCK_CHARS):
        last = (len(offsets) - 1, dsts[-1] if dsts else -1)
        try:
            values, starts, block_dsts = _parse_block(block, node_count, last)
        except ValueError:
            return _read_lines(chain(block, stream), node_count, edge_count, offsets, dsts)
        # The rows of the nodes after the previous run's source, up to this
        # run's, start where this run does; a run that goes on with the
        # previous block's last source starts no row.
        firsts = map(len(dsts).__add__, starts)
        gaps = map(sub, values, chain((len(offsets) - 1,), values))
        offsets.extend(chain.from_iterable(map(repeat, firsts, gaps)))
        dsts.fromlist(block_dsts)
    if len(dsts) != edge_count or node_count < 1:
        return _read_lines((), node_count, edge_count, offsets, dsts)  # raises the error
    offsets.extend(repeat(len(dsts), node_count + 1 - len(offsets)))
    return DirectedGraph._adopt(offsets, dsts)


def _parse_block(
    lines: list[str], node_count: int, last: tuple[int, int]
) -> tuple[list[int], list[int], list[int]]:
    """Parse ``src,dst`` lines, each but the last ending in "\\n", in the
    form :func:`write_edge_list` writes: the values of the source runs
    (lines with the same source text in a row, found by comparing each
    source field with the next, so each run's id is parsed once), the
    index of each run's first line, and the destinations. Raises
    ValueError unless every line has exactly one comma and ids in ASCII
    decimal in [0, node_count), the run values strictly ascend, each run's
    destinations strictly ascend and never equal its source, and the
    first edge is above ``last``.

    2L fields for L lines means L commas in the lines. A line's "\\n" is
    in a source field when the commas before it, the joining ones
    included, are even in number. So if no run key, and thus no source
    field, holds one, every line ending in "\\n" holds an odd number of
    commas, and with L in all, every line holds one.
    """
    text = ",".join(lines)
    # int() also takes "_" between digits, a "+" sign and non-ASCII digits.
    if not text.isascii() or "_" in text or "+" in text:
        raise ValueError("not ASCII decimal ids")
    fields = text.split(",")
    if len(fields) != 2 * len(lines):
        raise ValueError("not one comma per line")
    src_fields = fields[::2]
    changes = map(ne, src_fields, islice(src_fields, 1, None))
    starts = [0, *compress(range(1, len(src_fields)), changes)]
    keys = list(map(src_fields.__getitem__, starts))
    if "\n" in "".join(keys):
        raise ValueError("not one comma per line")
    values = list(map(int, keys))
    dsts = list(map(int, islice(fields, 1, None, 2)))
    # Destinations may descend only where a run starts.
    later = starts[1:]
    befores = map(dsts.__getitem__, map((-1).__add__, later))
    at_starts = sum(map(ge, befores, map(dsts.__getitem__, later)))
    # A self-loop is where its run's source would be inserted, at or
    # before the run's last destination.
    lasts = map((-1).__add__, chain(later, (len(dsts),)))
    found = map(bisect_left, repeat(dsts), values, starts, lasts)
    if not (
        0 <= values[0] and values[-1] < node_count
        and 0 <= min(dsts) and max(dsts) < node_count
        and last < (values[0], dsts[0])
        and all(map(lt, values, islice(values, 1, None)))
        and sum(map(ge, dsts, islice(dsts, 1, None))) == at_starts
        and not any(map(eq, map(dsts.__getitem__, found), values))
    ):
        raise ValueError("not in ascending order and range")
    return values, starts, dsts


def _read_lines(lines: Iterable[str], node_count: int, edge_count: int,
                offsets: array, dsts: array) -> DirectedGraph:
    """Finish :func:`read_edge_list` line by line, in any order, from
    ``lines``, which follow the ``len(dsts)`` edges already read; the
    sources of those are given by ``offsets`` up to the last one, and are
    rebuilt from it once.

    Blank lines are skipped and fields stripped. A malformed line raises
    at once; the first out-of-range edge or self-loop is held until the
    edge count is checked, and a wrong count wins over it. The rows are
    then built by :func:`_rows`, and a repeated edge named from them. Per
    edge this takes about three times the block path's time: 0.22 s
    against 0.08 s for 177k edges on a 2-vCPU VM.
    """
    offsets.append(len(dsts))
    srcs = array("i", chain.from_iterable(map(repeat, range(len(offsets)), _row_lengths(offsets))))
    blank_lines: list[int] = []
    error = None  # the first out-of-range edge or self-loop
    line_no = len(dsts) + 1
    for line_no, line in enumerate(lines, line_no + 1):
        line = line.strip()
        if not line:
            blank_lines.append(line_no)
            continue
        src_s, sep, dst_s = line.partition(",")
        if not sep:
            raise EdgeListFormatError(line_no, f"expected 'src,dst', got {line!r}")
        try:
            src, dst = int(src_s), int(dst_s)
            # Only such a line can hold an id int() takes but no writer writes.
            if (not line.isascii() or "_" in line or "+" in line) and not (
                _is_decimal(src_s) and _is_decimal(dst_s)
            ):
                raise ValueError(line)
        except ValueError:
            raise EdgeListFormatError(line_no, f"non-integer node id in {line!r}") from None
        if error is None:
            if 0 <= src < node_count and 0 <= dst < node_count and src != dst:
                srcs.append(src)
                dsts.append(dst)
            else:
                error = EdgeListFormatError(line_no, _edge_error(node_count, src, dst))
    edges_read = line_no - 1 - len(blank_lines)
    if edges_read != edge_count:
        raise EdgeListFormatError(1, f"header says {edge_count} edges, file has {edges_read}")
    if error is None and node_count < 1:
        error = EdgeListFormatError(1, node_count_error(node_count))
    if error is not None:
        raise error

    offsets, targets = _rows(srcs, dsts, node_count)
    if len(targets) != len(dsts):
        _raise_first_repeat(srcs, dsts, offsets, blank_lines)
    return DirectedGraph._adopt(offsets, targets)


def _is_decimal(field: str) -> bool:
    """Whether a field that int() reads is written as write_edge_list
    writes ids: ASCII digits after at most one "-", with whitespace around."""
    digits = field.strip().removeprefix("-")
    return digits.isascii() and digits.isdigit()


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


def _rows(srcs: array, dsts: array, node_count: int) -> tuple[array, array]:
    """CSR ``(offsets, targets)`` of the in-range edges ``zip(srcs, dsts)``:
    grouped by source, then each row sorted and deduplicated, in place."""
    offsets = array("q", accumulate(_count(srcs, node_count), initial=0))
    targets = array("i", [0]) * len(dsts)
    _group_by(srcs, dsts, offsets[:], targets)
    a = end = 0
    for v, b in enumerate(islice(offsets, 1, None), 1):  # row v-1 is targets[a:b]
        row = targets[a:b] if b - a < 2 else array("i", sorted(set(targets[a:b])))
        targets[end:end + len(row)] = row
        end += len(row)
        a, offsets[v] = b, end
    del targets[end:]
    return offsets, targets


def _raise_first_repeat(srcs: array, dsts: array, offsets: array,
                        blank_lines: list[int]) -> None:
    """Raise the error for the first edge, in file order, that repeats an
    earlier one. Every repeat lies in a row that :func:`_rows` made shorter
    than its count of edges, so only the edges of those rows are held."""
    shrunk = bytearray(map(lt, _row_lengths(offsets), _count(srcs, len(offsets) - 1)))
    first_index: dict[tuple[int, int], int] = {}
    for i in compress(range(len(srcs)), map(shrunk.__getitem__, srcs)):
        edge = srcs[i], dsts[i]
        first = first_index.setdefault(edge, i)
        if first != i:
            raise EdgeListFormatError(
                _edge_line(i, blank_lines),
                f"duplicate edge {edge}, first on line {_edge_line(first, blank_lines)}",
            )


def _edge_error(node_count: int, src: int, dst: int) -> str:
    """The error for an edge that is out of range or a self-loop. Below 1
    node every edge is out of range, and the node count is named."""
    if node_count < 1:
        return node_count_error(node_count)
    if not (0 <= src < node_count and 0 <= dst < node_count):
        return f"edge ({src}, {dst}) references node out of range"
    return f"self-loop ({src}, {dst}) not allowed"


def _edge_line(index: int, blank_lines: list[int]) -> int:
    """File line of the index-th edge, given the ascending skipped blank lines."""
    line_no = index + 2
    for blank in blank_lines:
        if blank > line_no:
            break
        line_no += 1
    return line_no
