"""Graph storage, projection, component extraction, and edge-list round trips."""

import gc
import io
import pickle
import random
import sys
import tracemalloc
from unittest import mock

import pytest

from hiddentree import (
    DirectedGraph,
    EdgeListFormatError,
    ModelParams,
    ParameterError,
    TreeParams,
    UndirectedGraph,
    build_tree,
    compute_report,
    generate,
    giant_component,
    giant_members,
    project_in_place,
    read_edge_list,
    undirected_projection,
    write_edge_list,
)
from hiddentree import graph as graph_module


class UnionFind:
    """Independent component oracle."""

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
            self.parent[rb] = ra


def random_directed_graph(rng, n):
    edges = set()
    for _ in range(rng.randint(0, 3 * n)):
        src, dst = rng.randrange(n), rng.randrange(n)
        if src != dst:
            edges.add((src, dst))
    return DirectedGraph(n, edges)


def test_in_degree_examples():
    assert DirectedGraph(3).in_degree == [0, 0, 0]
    assert DirectedGraph(3, [(2, 1), (2, 0)]).in_degree == [1, 1, 0]


def test_in_degree_of_read_graph_is_counted_from_its_edges():
    rng = random.Random(5)
    for n in (1, 2, 9, 40):
        graph = random_directed_graph(rng, n)
        buffer = io.StringIO()
        write_edge_list(graph, buffer)
        buffer.seek(0)
        expected = [0] * n
        for _, dst in graph.edges():
            expected[dst] += 1
        assert read_edge_list(buffer).in_degree == expected == graph.in_degree


def test_degree_conservation_on_generated_graph():
    graph = generate(ModelParams(tree=TreeParams(10000, 2.0, seed=100), activity=0.4, seed=0))
    assert sum(graph.in_degree) == graph.edge_count
    assert sum(len(lst) for lst in graph.out_edges) == graph.edge_count


def test_projection_collapses_reciprocal_pairs():
    projection = undirected_projection(DirectedGraph(3, [(2, 1), (1, 2)]))
    assert list(projection.edges()) == [(1, 2)]
    projection = undirected_projection(DirectedGraph(3, [(2, 1), (2, 0)]))
    assert list(projection.edges()) == [(0, 2), (1, 2)]


def test_projection_never_grows_edge_count():
    rng = random.Random(31)
    for _ in range(20):
        directed = random_directed_graph(rng, rng.randint(2, 60))
        projection = undirected_projection(directed)
        assert projection.edge_count <= directed.edge_count


def test_projection_holds_one_buffer_of_edge_ends():
    # The projection of a kept graph grows a copy of its targets to 2m
    # entries, so the peak is about 8 bytes per directed edge (two ends)
    # plus offsets.
    graph = generate(ModelParams(tree=TreeParams(20000, 2.0, seed=7), activity=0.4, seed=7))
    graph.in_degree  # counted before, as analyze_graph counts it
    tracemalloc.start()
    try:
        projection = undirected_projection(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert projection.edge_count > 0.9 * graph.edge_count
    assert peak < 10 * graph.edge_count + 32 * graph.node_count


def test_hand_over_peak_beyond_the_graph_is_its_growth():
    # The hand-over grows the graph's own target buffer from m to 2m
    # entries, so beyond the buffers it is handed its peak is the new
    # entries plus a few per-node arrays: under 4 bytes per directed edge
    # plus 48 per node, where a separate 2m-entry buffer would take 8.
    graph = generate(ModelParams(tree=TreeParams(20000, 2.0, seed=7), activity=0.4, seed=7))
    graph.in_degree  # counted before, as analyze_graph counts it
    m, n = graph.edge_count, graph.node_count
    own_buffers = 4 * m + 8 * (n + 1)
    tracemalloc.start()
    try:
        # The grown buffer is traced whole, as its first allocation is not.
        projection = project_in_place(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (graph.node_count, graph.edge_count, list(graph.out_edges)) == (0, 0, [])
    assert projection.edge_count > 0.9 * m
    assert peak - own_buffers < 4 * m + 48 * n


def test_kept_graph_is_left_as_it_is():
    graph = generate(ModelParams(tree=TreeParams(300, 2.0, seed=5), activity=0.4, seed=5))
    offsets, targets = graph.offsets, graph.targets
    before = offsets[:], targets[:]
    projection = undirected_projection(graph)
    compute_report(graph, path_samples=20)
    rebuilt = UndirectedGraph(graph.node_count, graph.edges())
    assert graph.offsets is offsets and graph.targets is targets
    assert (offsets, targets) == before
    assert [list(r) for r in rebuilt.neighbors] == [list(r) for r in projection.neighbors]


def test_projection_is_idempotent():
    rng = random.Random(32)
    for _ in range(10):
        directed = random_directed_graph(rng, rng.randint(2, 60))
        once = undirected_projection(directed)
        both_ways = [(u, v) for u, v in once.edges()] + [(v, u) for u, v in once.edges()]
        twice = undirected_projection(DirectedGraph(once.node_count, both_ways))
        assert [list(r) for r in once.neighbors] == [list(r) for r in twice.neighbors]


def test_giant_component_picks_largest():
    graph = UndirectedGraph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    members, induced = giant_component(graph)
    assert list(members) == [0, 1, 2]
    assert induced.edge_count == 3


def test_giant_component_full_graph():
    graph = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3)])
    members, induced = giant_component(graph)
    assert list(members) == [0, 1, 2, 3]
    assert [list(r) for r in induced.neighbors] == [list(r) for r in graph.neighbors]


def test_giant_component_tie_breaks_on_smallest_id():
    graph = UndirectedGraph(4, [(0, 3), (1, 2)])
    members, _ = giant_component(graph)
    assert list(members) == [0, 3]


def test_giant_component_matches_union_find_oracle():
    graph = generate(ModelParams(tree=TreeParams(300, 2.0, seed=100), activity=0.04, seed=0))
    projection = undirected_projection(graph)
    uf = UnionFind(projection.node_count)
    for u, v in projection.edges():
        uf.union(u, v)
    classes = {}
    for node in range(projection.node_count):
        classes.setdefault(uf.find(node), []).append(node)
    largest = max(classes.values(), key=len)
    members, _ = giant_component(projection)
    assert list(members) == sorted(largest)
    non_isolated = sum(1 for nbrs in projection.neighbors if nbrs)
    assert len(members) > non_isolated / 2


def test_giant_component_relabeling_preserves_edges():
    rng = random.Random(33)
    directed = random_directed_graph(rng, 40)
    projection = undirected_projection(directed)
    members, induced = giant_component(projection)
    original = set(projection.edges())
    mapped = {(min(members[u], members[v]), max(members[u], members[v]))
              for u, v in induced.edges()}
    assert mapped <= original
    inside = {(u, v) for u, v in original if u in set(members) and v in set(members)}
    assert mapped == inside


def test_edge_list_round_trip():
    rng = random.Random(34)
    graph = random_directed_graph(rng, 50)
    buffer = io.StringIO()
    write_edge_list(graph, buffer)
    text = buffer.getvalue()
    assert text.startswith(f"# nodes=50 edges={graph.edge_count}\n")
    restored = read_edge_list(io.StringIO(text))
    assert [list(r) for r in restored.out_edges] == [list(r) for r in graph.out_edges]


def test_generated_edge_list_reads_back_in_any_line_order_and_padding():
    # 64-character blocks end inside most source runs, so each run is
    # parsed in pieces, and the order checks cross block boundaries.
    graph = generate(ModelParams(tree=TreeParams(2000, 2.0, seed=5), activity=0.4, seed=5))
    buffer = io.StringIO()
    write_edge_list(graph, buffer)
    header, *lines = buffer.getvalue().splitlines(keepends=True)
    rng = random.Random(5)
    shuffled = rng.sample(lines, len(lines))
    padded = [rng.choice(["", " ", "\t"]) + line for line in lines]
    with mock.patch.object(graph_module, "_BLOCK_CHARS", 64):
        for body in (lines, shuffled, padded):
            restored = read_edge_list(io.StringIO(header + "".join(body)))
            assert restored.offsets == graph.offsets
            assert restored.targets == graph.targets


@pytest.mark.parametrize("nodes", [2000, 20000])
def test_reader_transient_memory_does_not_grow_with_the_file(nodes):
    # Beyond the buffers it returns, the reader holds one block's line
    # strings and parsed ints at a time, whatever the length of the file.
    graph = generate(ModelParams(tree=TreeParams(nodes, 2.0, seed=7), activity=0.4, seed=7))
    buffer = io.StringIO()
    write_edge_list(graph, buffer)
    stream = io.StringIO(buffer.getvalue())
    del graph, buffer
    tracemalloc.start()
    try:
        restored = read_edge_list(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sys.getsizeof(restored.offsets) + sys.getsizeof(restored.targets)
    assert peak - kept < 1_000_000


def test_edge_list_is_sorted():
    graph = DirectedGraph(4, [(2, 1), (0, 3), (0, 1), (2, 0)])
    buffer = io.StringIO()
    write_edge_list(graph, buffer)
    assert buffer.getvalue() == "# nodes=4 edges=4\n0,1\n0,3\n2,0\n2,1\n"


def test_read_rejects_missing_header():
    with pytest.raises(EdgeListFormatError) as excinfo:
        read_edge_list(io.StringIO("0,1\n"))
    assert excinfo.value.line_number == 1


def test_read_names_offending_line():
    text = "# nodes=3 edges=2\n0,1\n0;2\n"
    with pytest.raises(EdgeListFormatError) as excinfo:
        read_edge_list(io.StringIO(text))
    assert excinfo.value.line_number == 3
    with pytest.raises(EdgeListFormatError) as excinfo:
        read_edge_list(io.StringIO("# nodes=3 edges=2\n0,1\n0,x\n"))
    assert excinfo.value.line_number == 3


def test_read_rejects_count_mismatch_and_bad_edges():
    with pytest.raises(EdgeListFormatError):
        read_edge_list(io.StringIO("# nodes=3 edges=2\n0,1\n"))
    with pytest.raises(EdgeListFormatError):
        read_edge_list(io.StringIO("# nodes=3 edges=1\n1,1\n"))
    with pytest.raises(EdgeListFormatError):
        read_edge_list(io.StringIO("# nodes=3 edges=1\n0,7\n"))


def test_read_names_the_line_of_an_invalid_edge():
    cases = [
        ("# nodes=3 edges=3\n0,1\n1,2\n2,7\n", 4, "out of range"),
        ("# nodes=3 edges=3\n0,1\n1,1\n1,2\n", 3, "self-loop"),
        ("# nodes=3 edges=3\n0,1\n\n\n1,2\n-1,2\n", 6, "out of range"),
    ]
    for text, line_number, reason in cases:
        with pytest.raises(EdgeListFormatError) as excinfo:
            read_edge_list(io.StringIO(text))
        assert excinfo.value.line_number == line_number
        assert reason in str(excinfo.value)


def test_read_rejects_repeated_edge_on_its_own_line():
    with pytest.raises(EdgeListFormatError) as excinfo:
        read_edge_list(io.StringIO("# nodes=3 edges=3\n0,1\n1,2\n0,1\n"))
    assert excinfo.value.line_number == 4
    assert str(excinfo.value) == "line 4: duplicate edge (0, 1), first on line 2"
    with pytest.raises(EdgeListFormatError) as excinfo:
        read_edge_list(io.StringIO("# nodes=3 edges=3\n1,2\n\n1,2\n2,0\n"))
    assert excinfo.value.line_number == 4
    # The reverse direction is a different edge.
    assert read_edge_list(io.StringIO("# nodes=2 edges=2\n0,1\n1,0\n")).edge_count == 2


def test_read_rejects_header_junk():
    for header in (
        "# nodes=3 edges=1 garbage",
        "# nodes=3 edges=1 edges=1",
        "# nodes=3 weights=1",
        "# nodes=3",
        "# nodes=x edges=1",
    ):
        with pytest.raises(EdgeListFormatError) as excinfo:
            read_edge_list(io.StringIO(header + "\n0,1\n"))
        assert excinfo.value.line_number == 1
    assert read_edge_list(io.StringIO("# nodes=3  edges=1 \n0,1\n")).edge_count == 1


def test_edge_list_format_error_survives_pickling():
    with pytest.raises(EdgeListFormatError) as excinfo:
        read_edge_list(io.StringIO("# nodes=3 edges=1\n1,1\n"))
    copy = pickle.loads(pickle.dumps(excinfo.value))
    assert type(copy) is EdgeListFormatError
    assert copy.line_number == 2
    assert str(copy) == str(excinfo.value) == "line 2: self-loop (1, 1) not allowed"


def test_node_counts_that_ids_cannot_hold_are_rejected():
    # Ids are array('i') entries: nothing is allocated for such a header.
    with pytest.raises(EdgeListFormatError) as excinfo:
        read_edge_list(io.StringIO("# nodes=10000000000 edges=0\n"))
    assert excinfo.value.line_number == 1
    assert "node_count must be < 2147483648, got 10000000000" in str(excinfo.value)
    for make in (DirectedGraph, lambda n: TreeParams(n, 2.0)):
        with pytest.raises(ParameterError, match="must be < 2147483648"):
            make(2**31)
    assert TreeParams(2**31 - 1, 2.0).node_count == 2**31 - 1


def test_graph_stages_hold_no_object_per_node():
    graph = generate(ModelParams(tree=TreeParams(20000, 2.0, seed=7), activity=0.4, seed=7))
    buffer = io.StringIO()
    write_edge_list(graph, buffer)
    del graph
    buffer.seek(0)
    gc.collect()
    before = len(gc.get_objects())
    directed = read_edge_list(buffer)
    directed.in_degree
    projection = undirected_projection(directed)
    members, giant = giant_component(projection)
    assert giant_members(projection) == members
    gc.collect()
    assert len(gc.get_objects()) - before < 50
    assert giant.node_count == len(members) > 10000


def test_tree_holds_no_object_per_node():
    gc.collect()
    before = len(gc.get_objects())
    tree = build_tree(TreeParams(20000, 2.0, seed=7))
    gc.collect()
    assert len(gc.get_objects()) - before < 50
    assert tree.node_count == 20000


def test_rows_are_read_only_views():
    graph = DirectedGraph(4, [(2, 1), (0, 3), (0, 1), (2, 0)])
    rows = graph.out_edges
    assert len(rows) == 4
    assert [list(row) for row in rows] == [[1, 3], [], [0, 1], []]
    assert rows[2].tolist() == [0, 1] and len(rows[0]) == 2
    with pytest.raises(TypeError):
        rows[0][0] = 2
    with pytest.raises(IndexError):
        rows[4]


def test_directed_graph_validation():
    with pytest.raises(ParameterError):
        DirectedGraph(0)
    with pytest.raises(ParameterError):
        DirectedGraph(3, [(1, 1)])
    with pytest.raises(ParameterError):
        DirectedGraph(3, [(0, 5)])
    with pytest.raises(ParameterError):
        UndirectedGraph(3, [(2, 2)])


def test_edges_iterate_in_sorted_order():
    rng = random.Random(35)
    graph = random_directed_graph(rng, 30)
    listed = list(graph.edges())
    assert listed == sorted(listed)
