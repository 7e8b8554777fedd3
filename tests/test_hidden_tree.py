"""Tree construction, LCA, and climb paths checked against brute-force oracles."""

import io
import math
import random
from collections import deque

import pytest

from hiddentree import HiddenTree, ParameterError, TreeParams, build_tree, lca
from hiddentree.hidden_tree import _DUMP_BLOCK, climb, write_tree_dump


def ancestor_chain(tree, u):
    chain = {u}
    while u != 0:
        u = tree.parent[u]
        chain.add(u)
    return chain


def bfs_path(tree, start, goal):
    """Shortest path on the tree's undirected adjacency, reconstructed exactly."""
    adjacency = [[] for _ in range(tree.node_count)]
    for child in range(1, tree.node_count):
        parent = tree.parent[child]
        adjacency[child].append(parent)
        adjacency[parent].append(child)
    previous = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if node == goal:
            break
        for nxt in adjacency[node]:
            if nxt not in previous:
                previous[nxt] = node
                queue.append(nxt)
    path = []
    node = goal
    while node is not None:
        path.append(node)
        node = previous[node]
    path.reverse()
    return path


def climb_by_depth(tree, u, v):
    """Reference climb: equalise depths, then step both ends in lockstep."""
    up = [u]
    down = []
    while tree.depth[u] > tree.depth[v]:
        u = tree.parent[u]
        up.append(u)
    while tree.depth[v] > tree.depth[u]:
        down.append(v)
        v = tree.parent[v]
    while u != v:
        down.append(v)
        u = tree.parent[u]
        v = tree.parent[v]
        up.append(u)
    return up, down


def climb_path(tree, u, v):
    """The u-to-v tree path as the generator finds it: :func:`climb`'s
    ``up`` followed by its ``down`` reversed."""
    up, down = climb(tree, u, v)
    return up + down[::-1]


def random_tree(rng):
    params = TreeParams(
        node_count=rng.randint(2, 200),
        branching=round(rng.uniform(1.0, 4.0), 3),
        seed=rng.randrange(2**32),
    )
    return build_tree(params)


def test_integer_branching_gives_complete_binary_shape():
    for seed in (0, 99):
        tree = build_tree(TreeParams(node_count=7, branching=2.0, seed=seed))
        assert list(tree.parent) == [-1, 0, 0, 1, 1, 2, 2]
        assert list(tree.depth) == [0, 1, 1, 2, 2, 2, 2]
        assert list(tree.children(0)) == [1, 2]


def test_integer_branching_matches_closed_form():
    tree = build_tree(TreeParams(node_count=40, branching=3.0, seed=5))
    for i in range(1, 40):
        assert tree.parent[i] == (i - 1) // 3


@pytest.mark.parametrize("branching", [9.0, 9.5, 1e18, 1e30])
def test_branching_at_or_above_the_node_budget_gives_a_star(branching):
    # The root takes only the 9 ids left, however many children it draws.
    tree = build_tree(TreeParams(node_count=10, branching=branching))
    assert list(tree.parent) == [-1] + [0] * 9
    assert max(tree.depth) == 1


def test_single_node_tree():
    tree = build_tree(TreeParams(node_count=1, branching=2.0))
    assert list(tree.parent) == [-1]
    assert list(tree.depth) == [0]
    assert tree.node_count == 1
    assert tree.leaves() == [0]


def test_fractional_tree_has_full_edge_count_and_target_mean():
    tree = build_tree(TreeParams(node_count=1000, branching=1.5, seed=42))
    assert sum(1 for i in range(1, 1000) if 0 <= tree.parent[i] < i) == 999
    # Nodes before the truncation point received their full child draw.
    last_parent = tree.parent[-1]
    counts = [len(tree.children(i)) for i in range(last_parent)]
    mean = sum(counts) / len(counts)
    assert 1.35 <= mean <= 1.65


def test_build_is_deterministic_and_seed_sensitive():
    a = build_tree(TreeParams(node_count=200, branching=1.5, seed=0))
    b = build_tree(TreeParams(node_count=200, branching=1.5, seed=0))
    c = build_tree(TreeParams(node_count=200, branching=1.5, seed=1))
    assert a.parent == b.parent
    assert a.parent != c.parent


def test_lca_on_complete_binary_tree():
    tree = build_tree(TreeParams(node_count=7, branching=2.0))
    assert lca(tree, 3, 6) == 0
    assert lca(tree, 3, 1) == 1
    for u in range(7):
        assert lca(tree, u, u) == u


def test_lca_rejects_ids_out_of_range():
    # Unchecked, -1 would climb to the root's parent and be returned.
    tree = build_tree(TreeParams(node_count=7, branching=2.0))
    for u, v in [(-1, 0), (0, -1), (7, 0), (0, 7)]:
        bad = u if u not in range(7) else v
        with pytest.raises(IndexError, match=rf"node id {bad} out of range \[0, 7\)"):
            lca(tree, u, v)


def test_lca_matches_ancestor_set_intersection():
    rng = random.Random(2024)
    for _ in range(10):
        tree = random_tree(rng)
        n = tree.node_count
        for _ in range(200):
            u, v = rng.randrange(n), rng.randrange(n)
            common = ancestor_chain(tree, u) & ancestor_chain(tree, v)
            assert lca(tree, u, v) == max(common, key=lambda w: tree.depth[w])


def test_climb_matches_depth_equalising_reference():
    rng = random.Random(23)
    trees = [build_tree(TreeParams(node_count=60, branching=1.0, seed=3))]
    trees += [random_tree(rng) for _ in range(20)]
    for tree in trees:
        n = tree.node_count
        pairs = [(u, u) for u in range(n)]
        for _ in range(100):
            descendant = rng.randrange(n)
            ancestor = rng.choice(sorted(ancestor_chain(tree, descendant)))
            pairs += [(descendant, ancestor), (ancestor, descendant)]
            pairs.append((rng.randrange(n), rng.randrange(n)))
        for u, v in pairs:
            assert climb(tree, u, v) == climb_by_depth(tree, u, v)


def test_path_on_complete_binary_tree():
    tree = build_tree(TreeParams(node_count=7, branching=2.0))
    assert climb_path(tree, 3, 6) == [3, 1, 0, 2, 6]
    assert climb_path(tree, 4, 4) == [4]
    for child in range(1, 7):
        assert climb_path(tree, child, tree.parent[child]) == [child, tree.parent[child]]


def test_path_properties_on_random_trees():
    rng = random.Random(11)
    for _ in range(20):
        tree = random_tree(rng)
        n = tree.node_count
        for _ in range(100):
            u, v = rng.randrange(n), rng.randrange(n)
            path = climb_path(tree, u, v)
            assert path[0] == u and path[-1] == v
            assert len(set(path)) == len(path)
            meet = lca(tree, u, v)
            assert len(path) == tree.depth[u] + tree.depth[v] - 2 * tree.depth[meet] + 1
            assert path == list(reversed(climb_path(tree, v, u)))
            for a, b in zip(path, path[1:]):
                assert tree.parent[a] == b or tree.parent[b] == a


def test_path_matches_bfs_oracle():
    rng = random.Random(5)
    for _ in range(10):
        tree = random_tree(rng)
        n = tree.node_count
        for _ in range(100):
            u, v = rng.randrange(n), rng.randrange(n)
            assert climb_path(tree, u, v) == bfs_path(tree, u, v)


def test_structure_invariants_on_random_trees():
    rng = random.Random(17)
    for _ in range(20):
        tree = random_tree(rng)
        n = tree.node_count
        assert sum(len(tree.children(i)) for i in range(n)) == n - 1
        assert all(tree.parent[c] == i for i in range(n) for c in tree.children(i))
        for i in range(1, n):
            assert tree.parent[i] < i
            assert tree.depth[i] == tree.depth[tree.parent[i]] + 1
        assert all(not tree.children(leaf) for leaf in tree.leaves())
        # The tree keeps columns of its own: changing the list it was
        # built from changes neither its parents, its children nor lca.
        ids = list(tree.parent)
        copy = HiddenTree(ids)
        ids[1:] = [0] * (n - 1)
        assert copy.parent == tree.parent
        assert all(copy.children(i) == tree.children(i) for i in range(n))
        pairs = [(u, (7 * u + 3) % n) for u in range(n)]
        assert [lca(copy, u, v) for u, v in pairs] == [lca(tree, u, v) for u, v in pairs]


def test_parameter_validation():
    with pytest.raises(ParameterError):
        TreeParams(node_count=0, branching=2.0)
    with pytest.raises(ParameterError):
        TreeParams(node_count=5, branching=0.9)
    for branching in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="finite"):
            TreeParams(node_count=5, branching=branching)
    # random.Random seeds from the absolute value: -3 would build 3's tree.
    with pytest.raises(ParameterError, match="seed must be >= 0, got -3"):
        TreeParams(node_count=5, branching=2.0, seed=-3)
    with pytest.raises(ParameterError):
        HiddenTree([0, 0])
    with pytest.raises(ParameterError):
        HiddenTree([-1, 2, 1])
    with pytest.raises(ParameterError, match="breadth-first"):
        HiddenTree([-1, 0, 1, 0])
    # Entries must be ints that an array('i') column holds.
    for bad in (1.0, 2**31):
        with pytest.raises(ParameterError, match="node ids"):
            HiddenTree([-1, 0, bad])


def test_node_id_range_checks():
    tree = build_tree(TreeParams(node_count=7, branching=2.0))
    with pytest.raises(IndexError):
        lca(tree, 0, 7)
    with pytest.raises(IndexError):
        lca(tree, -1, 3)


def test_tree_dump_format(tmp_path):
    tree = build_tree(TreeParams(node_count=7, branching=2.0))
    out = tmp_path / "tree.tsv"
    with out.open("w") as fh:
        write_tree_dump(tree, fh)
    expected = "0\t-1\t0\n1\t0\t1\n2\t0\t1\n3\t1\t2\n4\t1\t2\n5\t2\t2\n6\t2\t2\n"
    assert out.read_text() == expected


@pytest.mark.parametrize(
    "node_count", [1, _DUMP_BLOCK - 1, _DUMP_BLOCK, _DUMP_BLOCK + 1, 2 * _DUMP_BLOCK + 3]
)
def test_tree_dump_blocks_equal_the_per_line_format(node_count):
    tree = build_tree(TreeParams(node_count=node_count, branching=1.7, seed=node_count))
    stream = io.StringIO()
    write_tree_dump(tree, stream)
    parent, depth = tree.parent, tree.depth
    assert stream.getvalue() == "".join(
        f"{i}\t{parent[i]}\t{depth[i]}\n" for i in range(node_count)
    )
