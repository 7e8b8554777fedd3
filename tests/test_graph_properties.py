"""Edge-list reader, projection and giant component against plain oracles.

The reader's oracle is the straightforward line-by-line parser: strip each
line, split it at the first comma, collect ``(src, dst)`` tuples, and let
the validating :class:`DirectedGraph` constructor find range errors,
self-loops and repeats. The fast reader must return the same graph or fail
on the same line with the same message. Projection is checked against a
set-based symmetric closure, and the giant component and its members
against union-find. Clustering and path length over a member list must
equal those of the relabelled giant.
"""

import io
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hiddentree import (
    ALL,
    DirectedGraph,
    EdgeListFormatError,
    ParameterError,
    UndirectedGraph,
    avg_clustering,
    avg_shortest_path,
    giant_component,
    giant_members,
    project_in_place,
    read_edge_list,
    undirected_projection,
)
from hiddentree import graph as graph_module

graph_settings = settings(
    derandomize=True,
    deadline=None,
    max_examples=400,
    suppress_health_check=[HealthCheck.too_slow],
)


def oracle_read_edge_list(stream):
    """Line-by-line reference parser with the reader's error contract."""
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
        raise EdgeListFormatError(1, f"header says {edge_count} edges, file has {len(edges)}")
    try:
        graph = DirectedGraph(node_count, edges)
    except ParameterError as exc:
        line_no = 1
        for i, (src, dst) in enumerate(edges):
            if src == dst or not (0 <= src < node_count and 0 <= dst < node_count):
                line_no = oracle_edge_line(i, blank_lines)
                break
        raise EdgeListFormatError(line_no, str(exc)) from None
    if graph.edge_count != len(edges):
        first_index = {}
        for i, edge in enumerate(edges):
            first = first_index.setdefault(edge, i)
            if first != i:
                raise EdgeListFormatError(
                    oracle_edge_line(i, blank_lines),
                    f"duplicate edge {edge}, first on line "
                    f"{oracle_edge_line(first, blank_lines)}",
                )
    return graph


def oracle_edge_line(index, blank_lines):
    line_no = index + 2
    for blank in blank_lines:
        if blank > line_no:
            break
        line_no += 1
    return line_no


def outcome(reader, text):
    try:
        graph = reader(io.StringIO(text))
    except EdgeListFormatError as exc:
        return ("error", exc.line_number, str(exc))
    return ("graph", [list(r) for r in graph.out_edges], graph.in_degree)


# Whitespace str.strip removes, including \x1c-\x1f, which int() keeps.
PADDING = st.text(alphabet=" \t\x0b\x0c\x1c\x1f　", max_size=2)
JUNK_LINES = ["a,1", "1,b", "1,2,3", "1.0,2", ",", "1,", ",2", "1 2", "12", "1,,2", "0x1,2"]


@st.composite
def edge_list_texts(draw):
    """A valid edge list, then a few mutations of its lines or header."""
    n = draw(st.integers(2, 8))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), unique=True, max_size=15))
    if draw(st.booleans()):
        edges.sort()
    lines = [f"{src},{dst}" for src, dst in edges]
    header_nodes, header_edges = str(n), len(lines)

    def position():
        return draw(st.integers(0, len(lines)))

    for mutation in draw(st.lists(st.sampled_from([
        "blank", "pad", "repeat", "late_repeat", "self_loop", "negative",
        "out_of_range", "junk", "header_count", "header_nodes",
    ]), max_size=3)):
        if mutation == "blank":
            lines.insert(position(), draw(PADDING))
        elif mutation == "pad" and lines:
            i = draw(st.integers(0, len(lines) - 1))
            src, _, dst = lines[i].partition(",")
            pad = [draw(PADDING) for _ in range(4)]
            lines[i] = f"{pad[0]}{src}{pad[1]},{pad[2]}{dst}{pad[3]}"
        elif mutation == "repeat" and lines:
            lines.insert(position(), draw(st.sampled_from(lines)))
            header_edges += 1
        elif mutation == "late_repeat" and lines:
            # An earlier line moved to the end breaks a sorted list's order
            # late, and a repeat after it is found in the rebuilt sources.
            lines.append(lines.pop(draw(st.integers(0, len(lines) - 1))))
            lines.append(draw(st.sampled_from(lines)))
            header_edges += 1
        elif mutation == "self_loop":
            k = draw(st.integers(0, n - 1))
            lines.insert(position(), f"{k},{k}")
            header_edges += 1
        elif mutation == "negative":
            k = draw(st.integers(0, n - 1))
            neg = -draw(st.integers(1, 3))
            lines.insert(position(), draw(st.sampled_from([f"{neg},{k}", f"{k},{neg}"])))
            header_edges += 1
        elif mutation == "out_of_range":
            k = draw(st.integers(0, n - 1))
            big = draw(st.sampled_from([n, n + 1, 10**20]))
            lines.insert(position(), draw(st.sampled_from([f"{big},{k}", f"{k},{big}"])))
            header_edges += 1
        elif mutation == "junk":
            lines.insert(position(), draw(st.sampled_from(JUNK_LINES)))
            header_edges += 1
        elif mutation == "header_count":
            header_edges += draw(st.sampled_from([-1, 1]))
        elif mutation == "header_nodes":
            header_nodes = draw(st.sampled_from(["0", "-1", "1", str(n - 1)]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = f"# nodes={header_nodes} edges={header_edges}\n"
    text += "".join(line + newline for line in lines)
    if lines and draw(st.booleans()):
        text = text[: -len(newline)]  # no newline after the last line
    return text


@graph_settings
@given(edge_list_texts(), st.sampled_from([1, 7, 64, 1 << 20, graph_module._BLOCK_CHARS]))
# Error order: a malformed line wins over an earlier bad edge; a node count
# below 1 is named at the first edge, or at line 1 when there is none.
@example("# nodes=3 edges=3\n5,1\n0,1\na,1\n", 1)
@example("# nodes=3 edges=3\n5,1\n0,1\na,1\n", 1 << 16)
@example("# nodes=3 edges=3\n1,0\n0,1\n2,2\n", 1)
@example("# nodes=3 edges=3\n1,0\n0,1\n2,2\n", 1 << 16)
@example("# nodes=0 edges=2\n\n0,1\n1,0\n", 1)
@example("# nodes=0 edges=2\n\n0,1\n1,0\n", 1 << 16)
@example("# nodes=0 edges=0\n", 1)
@example("# nodes=0 edges=0\n", 1 << 16)
@example("# nodes=3 edges=3\n0,1\n\n1,2\n0,1\n", 1)
@example("# nodes=3 edges=3\n0,1\n\n1,2\n0,1\n", 1 << 16)
# The order breaks after the first block, then a line repeats an earlier one.
@example("# nodes=6 edges=7\n0,1\n0,2\n1,3\n\n3,4\n2,5\n1,0\n0,2\n", 7)
@example("# nodes=6 edges=7\n0,1\n0,2\n1,3\n\n3,4\n2,5\n1,0\n0,2\n", 16)
@example("# nodes=6 edges=6\n0,1\n0,2\n1,3\n\n3,4\n2,5\n1,0\n", 7)
# A line with two commas and one with none hold two commas in all: in one
# block at either size, then across a block boundary at size 7.
@example("# nodes=20 edges=2\n1,2,3\n12\n", 7)
@example("# nodes=20 edges=2\n1,2,3\n12\n", 16)
@example("# nodes=20 edges=2\n12\n1,2,3\n", 7)
@example("# nodes=20 edges=2\n12\n1,2,3\n", 16)
@example("# nodes=20 edges=3\n0,1\n1,2,3\n12\n", 7)
@example("# nodes=20 edges=3\n0,1\n1,2,3\n12\n", 16)
@example("# nodes=20 edges=3\n0,1\n12\n1,2,3\n", 7)
@example("# nodes=20 edges=3\n0,1\n12\n1,2,3\n", 16)
# A padded source splits its run in two runs of one value: out of order,
# in order, and a repeat across the padded line.
@example("# nodes=9 edges=3\n5,1\n 5,7\n5,3\n", 7)
@example("# nodes=9 edges=3\n5,1\n 5,7\n5,3\n", 16)
@example("# nodes=9 edges=3\n5,1\n 5,3\n5,7\n", 7)
@example("# nodes=9 edges=3\n5,1\n 5,3\n5,7\n", 16)
@example("# nodes=9 edges=3\n5,1\n 5,3\n5,3\n", 7)
@example("# nodes=9 edges=3\n5,1\n 5,3\n5,3\n", 16)
# Two source texts of one value as adjacent runs, with and without a
# destination descent where the second starts, and a repeat across them.
@example("# nodes=9 edges=3\n05,1\n05,4\n5,2\n", 7)
@example("# nodes=9 edges=3\n05,1\n05,4\n5,2\n", 16)
@example("# nodes=9 edges=3\n05,1\n5,2\n5,4\n", 7)
@example("# nodes=9 edges=3\n05,1\n5,2\n5,4\n", 16)
@example("# nodes=9 edges=2\n05,1\n5,1\n", 7)
@example("# nodes=9 edges=2\n05,1\n5,1\n", 16)
# A self-loop inside a long run of ascending destinations.
@example("# nodes=9 edges=8\n3,8\n4,0\n4,1\n4,2\n4,3\n4,4\n4,5\n4,6\n", 7)
@example("# nodes=9 edges=8\n3,8\n4,0\n4,1\n4,2\n4,3\n4,4\n4,5\n4,6\n", 16)
def test_reader_matches_line_by_line_oracle(text, block_chars):
    expected = outcome(oracle_read_edge_list, text)
    # Small blocks put block boundaries between any two lines.
    with mock.patch.object(graph_module, "_BLOCK_CHARS", block_chars):
        assert outcome(read_edge_list, text) == expected


@st.composite
def directed_graphs(draw):
    n = draw(st.integers(1, 30))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=4 * n))
    if draw(st.booleans()):
        # Reciprocal pairs: both directions must collapse to one edge.
        pairs += [(v, u) for u, v in pairs[: len(pairs) // 2]]
    return DirectedGraph(n, [(u, v) for u, v in pairs if u != v])


@graph_settings
@given(directed_graphs())
def test_projection_equals_symmetric_closure(graph):
    closure = [set() for _ in range(graph.node_count)]
    for src, dsts in enumerate(graph.out_edges):
        for dst in dsts:
            closure[src].add(dst)
            closure[dst].add(src)
    out_edges = [list(dsts) for dsts in graph.out_edges]
    projection = undirected_projection(graph)
    assert [list(r) for r in projection.neighbors] == [sorted(nbrs) for nbrs in closure]
    # Neither the projection nor a component extraction on it may change
    # the directed graph's rows.
    giant_component(projection)
    giant_members(projection)
    assert [list(r) for r in graph.out_edges] == out_edges


@graph_settings
@given(directed_graphs(), st.booleans())
@example(DirectedGraph(1), False)  # no edge
@example(DirectedGraph(4), True)  # isolated nodes only
@example(DirectedGraph(3, [(0, 1), (1, 0), (1, 2), (2, 1)]), True)  # reciprocal pairs
@example(DirectedGraph(5, [(0, 3), (0, 4), (1, 3), (4, 3)]), False)  # only out, only in, none
def test_handed_over_projection_equals_the_kept_graphs(graph, counted):
    handed = DirectedGraph(graph.node_count, graph.edges())
    if counted:
        handed.in_degree
    projection = project_in_place(handed)
    assert [list(r) for r in projection.neighbors] == [
        list(r) for r in undirected_projection(graph).neighbors
    ]
    assert (handed.node_count, handed.edge_count, handed.in_degree) == (0, 0, [])


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


@st.composite
def component_graphs(draw):
    """Disjoint connected parts of drawn sizes under a random relabelling.

    Equal sizes force the tie-break, size-1 parts are isolated nodes, and
    a single part makes the giant every node.
    """
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=6))
    n = sum(sizes)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    label = list(range(n))
    rng.shuffle(label)
    edges = []
    first = 0
    for size in sizes:
        part = label[first:first + size]
        edges += [(part[i], part[rng.randrange(i)]) for i in range(1, size)]
        edges += [(rng.choice(part), rng.choice(part)) for _ in range(draw(st.integers(0, size)))]
        first += size
    return UndirectedGraph(n, [(u, v) for u, v in edges if u != v])


def union_find_giant(graph):
    n = graph.node_count
    uf = UnionFind(n)
    for u, v in graph.edges():
        uf.union(u, v)
    classes = {}
    for node in range(n):
        classes.setdefault(uf.find(node), []).append(node)
    # Each class is keyed by its smallest id: the largest class wins, ties
    # going to the smallest id.
    return min(classes.values(), key=lambda members: (-len(members), members[0]))


any_undirected_graphs = st.one_of(component_graphs(), directed_graphs().map(undirected_projection))


@graph_settings
@given(any_undirected_graphs)
def test_giant_component_equals_union_find(graph):
    members, induced = giant_component(graph)
    assert list(members) == union_find_giant(graph)
    new_id = {node: i for i, node in enumerate(members)}
    assert [list(r) for r in induced.neighbors] == [
        sorted(new_id[v] for v in graph.neighbors[node]) for node in members
    ]
    relabeled_edges = {(members[u], members[v]) for u, v in induced.edges()}
    assert relabeled_edges == {(u, v) for u, v in graph.edges() if u in new_id}


@graph_settings
@given(any_undirected_graphs)
@example(UndirectedGraph(5))  # isolated nodes only: node 0 wins the tie
@example(UndirectedGraph(6, [(4, 5), (5, 3), (0, 2), (2, 1)]))  # tie: {0, 1, 2} wins
@example(UndirectedGraph(4, [(3, 0), (0, 1), (1, 3), (2, 1)]))  # spans every node
def test_giant_members_equals_union_find_and_giant_component(graph):
    members = giant_members(graph)
    assert list(members) == union_find_giant(graph)
    assert members == giant_component(graph)[0]


@graph_settings
@given(any_undirected_graphs, st.integers(1, 10), st.integers(0, 99))
@example(UndirectedGraph(3, [(0, 2)]), 1, 0)  # a two-node giant around a gap
def test_member_list_metrics_equal_the_relabelled_giant(graph, sample_sources, seed):
    members = giant_members(graph)
    giant = giant_component(graph)[1]
    assert avg_clustering(graph, members) == avg_clustering(giant)
    for samples in (ALL, sample_sources):
        if len(members) < 2:
            with pytest.raises(ParameterError):
                avg_shortest_path(graph, samples, seed, members)
        else:
            assert avg_shortest_path(graph, samples, seed, members) == avg_shortest_path(
                giant, samples, seed
            )
