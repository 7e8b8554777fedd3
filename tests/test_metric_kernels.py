"""Clustering and path-length kernels against brute-force oracles on random graphs.

The oracles here are the plain textbook methods: every node triple for
triangles, one queue BFS per source for distances. The library's kernels
must reproduce their floats exactly (``==``), not approximately.
"""

import functools
import itertools
import random
from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hiddentree import ALL, ConnectivityError, UndirectedGraph, avg_clustering, avg_shortest_path
from hiddentree import metrics as metrics_module

# Must match the source chunk of the multi-source BFS in metrics.py.
CHUNK = 256

kernel_settings = settings(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def oracle_clustering(g):
    adjacent = [set(nbrs) for nbrs in g.neighbors]
    triangles = [0] * g.node_count
    for a, b, c in itertools.combinations(range(g.node_count), 3):
        if b in adjacent[a] and c in adjacent[a] and c in adjacent[b]:
            triangles[a] += 1
            triangles[b] += 1
            triangles[c] += 1
    total = 0.0
    for i in range(g.node_count):
        d = len(g.neighbors[i])
        if d >= 2:
            total += 2.0 * triangles[i] / (d * (d - 1))
    return total / g.node_count


def oracle_bfs(g, source):
    """Distance sum from source and the number of nodes it reaches."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.neighbors[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return sum(dist.values()), len(dist)


def oracle_sources(n, sample_sources, seed):
    if sample_sources == ALL or sample_sources >= n:
        return list(range(n))
    return sorted(random.Random(seed).sample(range(n), sample_sources))


def oracle_path_length(g, sample_sources, seed):
    n = g.node_count
    sources = oracle_sources(n, sample_sources, seed)
    total = 0
    for src in sources:
        dist_sum, reached = oracle_bfs(g, src)
        if reached != n:
            raise ConnectivityError(
                f"graph is disconnected: BFS from {src} reached {reached} of {n} nodes"
            )
        total += dist_sum
    return total / (len(sources) * (n - 1))


@st.composite
def random_graphs(draw, min_nodes=1, max_nodes=30):
    """Arbitrary simple graphs: isolated and pendant nodes included."""
    n = draw(st.integers(min_nodes, max_nodes))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    return UndirectedGraph(n, [(u, v) for u, v in pairs if u != v])


@st.composite
def stars_and_cliques(draw):
    """A star or a clique on some of the nodes, the rest isolated."""
    n = draw(st.integers(2, 30))
    members = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))
    if draw(st.booleans()):
        center, leaves = members[0], members[1:]
        edges = [(center, leaf) for leaf in leaves]
    else:
        edges = list(itertools.combinations(members, 2))
    return UndirectedGraph(n, edges)


@st.composite
def hub_graphs(draw):
    """A few hubs joined to most nodes over a sparse background.

    Hub ids are drawn anywhere in the id range, so ranking by degree and
    ranking by id disagree.
    """
    n = draw(st.integers(4, 40))
    hubs = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    edges = []
    for hub in hubs:
        spokes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        edges.extend((hub, v) for v, on in enumerate(spokes) if on and v != hub)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=n))
    edges.extend((u, v) for u, v in pairs if u != v)
    return UndirectedGraph(n, edges)


@st.composite
def connected_graphs(draw, min_nodes=2, max_nodes=30):
    """A random spanning tree plus extra edges, under a random relabelling."""
    n = draw(st.integers(min_nodes, max_nodes))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[i], label[rng.randrange(i)]) for i in range(1, n)]
    extra = draw(st.integers(0, 2 * n))
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    if draw(st.booleans()):
        hub = rng.randrange(n)
        edges.extend((hub, v) for v in range(n) if v != hub and rng.random() < 0.7)
    return UndirectedGraph(n, edges)


@kernel_settings
@given(st.one_of(random_graphs(), stars_and_cliques(), hub_graphs()))
def test_clustering_equals_triangle_enumeration(graph):
    assert avg_clustering(graph) == oracle_clustering(graph)


@kernel_settings
@given(connected_graphs(), st.one_of(st.just(ALL), st.integers(1, 35)), st.integers(0, 99))
def test_path_length_equals_per_source_bfs(graph, sample_sources, seed):
    assert avg_shortest_path(graph, sample_sources, seed) == oracle_path_length(
        graph, sample_sources, seed
    )


@kernel_settings
@given(st.one_of(random_graphs(min_nodes=2), stars_and_cliques()), st.integers(0, 99))
def test_disconnected_graphs_fail_like_the_oracle(graph, seed):
    for sample_sources in (ALL, 1, 3):
        try:
            expected = oracle_path_length(graph, sample_sources, seed)
        except ConnectivityError as exc:
            with pytest.raises(ConnectivityError) as excinfo:
                avg_shortest_path(graph, sample_sources, seed)
            assert str(excinfo.value) == str(exc)
        else:
            assert avg_shortest_path(graph, sample_sources, seed) == expected


@settings(kernel_settings, max_examples=5)
@given(connected_graphs(min_nodes=CHUNK + 1, max_nodes=2 * CHUNK + 40))
def test_all_sources_span_several_chunks(graph):
    assert avg_shortest_path(graph, ALL) == oracle_path_length(graph, ALL, 0)


@settings(kernel_settings, max_examples=5)
@given(connected_graphs(min_nodes=CHUNK + 20, max_nodes=CHUNK + 120), st.data())
def test_sample_crossing_a_chunk_boundary(graph, data):
    sample_sources = data.draw(st.integers(CHUNK + 1, graph.node_count - 1))
    seed = data.draw(st.integers(0, 99))
    assert avg_shortest_path(graph, sample_sources, seed) == oracle_path_length(
        graph, sample_sources, seed
    )


@settings(kernel_settings, max_examples=5)
@given(connected_graphs(min_nodes=CHUNK + 1, max_nodes=CHUNK + 60), st.integers(0, 99))
def test_isolated_node_names_the_first_source_of_many_chunks(graph, seed):
    # A node with no edges makes every source fail; the message must be
    # the first source's, from the first chunk.
    n = graph.node_count
    isolated = UndirectedGraph(n + 1, graph.edges())
    with pytest.raises(ConnectivityError) as excinfo:
        avg_shortest_path(isolated, ALL, seed)
    assert str(excinfo.value) == f"graph is disconnected: BFS from 0 reached {n} of {n + 1} nodes"


def count_pulls(monkeypatch):
    """The list that each pulling node of the BFS appends to."""
    pulls = []

    def counted(*args):
        pulls.append(1)
        return functools.reduce(*args)

    monkeypatch.setattr(metrics_module, "reduce", counted)
    return pulls


def test_long_path_only_pushes(monkeypatch):
    # From a few sources on a 300-node path the frontier holds at most 6
    # nodes, far fewer edge ends than the pull switch needs.
    path = UndirectedGraph(300, [(i, i + 1) for i in range(299)])
    pulls = count_pulls(monkeypatch)
    for sample_sources, seed in ((1, 0), (3, 5)):
        assert avg_shortest_path(path, sample_sources, seed) == oracle_path_length(
            path, sample_sources, seed
        )
    assert not pulls


@pytest.mark.parametrize("graph", [
    UndirectedGraph(40, [(7, v) for v in range(40) if v != 7]),
    UndirectedGraph(12, itertools.combinations(range(12), 2)),
], ids=["hub", "clique"])
def test_hub_and_clique_pull(monkeypatch, graph):
    # A hub in the frontier, or every node as a source, is a frontier with
    # most of the graph's edge ends: the BFS pulls.
    for sample_sources, seed in ((ALL, 0), (1, 3), (5, 8)):
        pulls = count_pulls(monkeypatch)
        assert avg_shortest_path(graph, sample_sources, seed) == oracle_path_length(
            graph, sample_sources, seed
        )
        if sample_sources == ALL:
            assert pulls
