"""Generation loop semantics: selection counts, path closure, and determinism."""

import hashlib
import io
import math
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hiddentree import (
    ModelParams,
    ParameterError,
    TreeParams,
    Variant,
    build_tree,
    derive_seed,
    generate,
    generate_with_counts,
    generate_with_trace,
    write_edge_list,
)

# Frozen master seed for the 3-node chain trace: node 0 draws itself,
# node 1 draws itself, node 2 draws node 0.
CHAIN_TRACE_SEED = 48


def chain_params(**overrides):
    defaults = dict(
        tree=TreeParams(node_count=3, branching=1.0, seed=0),
        activity=1.0,
        seed=CHAIN_TRACE_SEED,
    )
    defaults.update(overrides)
    return ModelParams(**defaults)


def tree_path(tree, u, v):
    """The nodes of the tree path between u and v, both included, from their
    ancestor chains: the nodes on just one chain, and the first node the
    chains share. The closure oracle, found without ``climb``."""
    chains = []
    for w in (u, v):
        chain = [w]
        while w:
            w = tree.parent[w]
            chain.append(w)
        chains.append(chain)
    up, down = chains
    meet = next(w for w in up if w in down)
    return (set(up) ^ set(down)) | {meet}


def test_zero_activity_produces_no_edges():
    graph = generate(ModelParams(tree=TreeParams(50, 2.0, seed=3), activity=0.0, seed=9))
    assert graph.edge_count == 0


def test_integer_activity_forces_exact_selection_counts():
    for activity, want in ((1.0, 1), (2.0, 2)):
        _, trace = generate_with_trace(
            ModelParams(tree=TreeParams(200, 2.0, seed=1), activity=activity, seed=4)
        )
        assert all(count == want for count in trace.selection_counts)


def test_chain_trace_all_active():
    graph, trace = generate_with_trace(chain_params())
    assert trace.selection_counts == [1, 1, 1]
    assert trace.destinations == [(), (), (0,)]
    # Path 2-1-0 links node 2 to both others; the self-draws add nothing.
    assert list(graph.edges()) == [(2, 0), (2, 1)]
    assert 0 not in graph.out_edges[1]


def test_chain_trace_leaf_active():
    graph, trace = generate_with_trace(chain_params(variant=Variant.LEAF_ACTIVE))
    assert trace.selection_counts == [0, 0, 1]
    assert list(graph.edges()) == [(2, 0), (2, 1)]


def test_mean_selection_count_tracks_activity():
    activity = 1.28
    n = 5000
    _, trace = generate_with_trace(
        ModelParams(tree=TreeParams(n, 2.0, seed=2), activity=activity, seed=6)
    )
    frac = activity - math.floor(activity)
    bound = 4.0 * math.sqrt(frac * (1.0 - frac) / n)
    assert abs(sum(trace.selection_counts) / n - activity) <= bound


def test_selection_counts_stay_within_floor_and_ceiling():
    rng = random.Random(21)
    for activity in (0.3, 1.7, 2.4):
        _, trace = generate_with_trace(
            ModelParams(
                tree=TreeParams(300, 2.0, seed=rng.randrange(2**32)),
                activity=activity,
                seed=rng.randrange(2**32),
            )
        )
        low, high = math.floor(activity), math.ceil(activity)
        assert all(low <= c <= high for c in trace.selection_counts)
        assert all(
            len(dests) <= count
            for dests, count in zip(trace.destinations, trace.selection_counts)
        )


model_settings = settings(
    derandomize=True,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def model_bases(draw):
    """Every ModelParams field but the activity."""
    tree = TreeParams(
        draw(st.integers(1, 40)), draw(st.floats(1.0, 4.0)), seed=draw(st.integers(0, 2**16))
    )
    return dict(
        tree=tree,
        seed=draw(st.integers(0, 2**16)),
        variant=draw(st.sampled_from(Variant)),
        include_tree_edges=draw(st.booleans()),
    )


# A 40-node tree whose nodes each select at activity 1.3.
CROSSING_BASE = dict(
    tree=TreeParams(40, 2.0, seed=3), seed=5, variant=Variant.ALL_ACTIVE,
    include_tree_edges=False,
)


@model_settings
@given(model_bases(), st.floats(0.0, 3.0))
def test_edges_match_trace_provenance_exactly(base, activity):
    """Each node's out-row is its kept destinations plus every node on
    their tree paths (and its tree neighbours with include_tree_edges),
    itself excluded."""
    params = ModelParams(activity=activity, **base)
    tree = build_tree(params.tree)
    graph, trace = generate_with_trace(params)
    for i in range(tree.node_count):
        expected = set()
        if params.include_tree_edges:
            expected.update(tree.children(i))
            if i > 0:
                expected.add(tree.parent[i])
        for dest in trace.destinations[i]:
            expected.update(tree_path(tree, i, dest))
        expected.discard(i)
        assert list(graph.out_edges[i]) == sorted(expected)
        if params.variant is Variant.LEAF_ACTIVE and tree.children(i):
            assert trace.selection_counts[i] == 0


def reference_generation(params):
    """The model as a plain loop: a new ``Random`` per node, seeded with
    its derived seed, and each kept draw closed over :func:`tree_path`.
    Returns the rows and the three trace fields."""
    tree = build_tree(params.tree)
    n = tree.node_count
    rows, counts, destinations, closure_edges = [], [], [], 0
    for i in range(n):
        row = set()
        if params.include_tree_edges:
            row.update(tree.children(i))
            if i > 0:
                row.add(tree.parent[i])
        selections, kept = 0, []
        if params.variant is Variant.ALL_ACTIVE or not tree.children(i):
            rng = random.Random(derive_seed(params.seed, i))
            act = params.activity
            while act > 0:
                if rng.random() < act:
                    selections += 1
                    dest = rng.randrange(n)
                    if dest != i:
                        kept.append(dest)
                        row.add(dest)
                        path = tree_path(tree, i, dest) - {i}
                        closure_edges += len(path - row)
                        row |= path
                act -= 1
        rows.append(sorted(row))
        counts.append(selections)
        destinations.append(tuple(kept))
    return rows, counts, destinations, closure_edges


@model_settings
@given(model_bases(), st.floats(0.0, 3.5))
@example(CROSSING_BASE, 0.9999)
@example(CROSSING_BASE, 1.0)
@example(CROSSING_BASE, 2.0001)
@example(dict(CROSSING_BASE, variant=Variant.LEAF_ACTIVE, include_tree_edges=True), 0.7)
@example(dict(CROSSING_BASE, include_tree_edges=True), 1.3)
def test_generation_equals_a_plain_reference_loop(base, activity):
    params = ModelParams(activity=activity, **base)
    graph, trace = generate_with_trace(params)
    rows, counts, destinations, closure_edges = reference_generation(params)
    assert [list(row) for row in graph.out_edges] == rows
    assert trace.selection_counts == counts
    assert trace.destinations == destinations
    assert trace.closure_edges_added == closure_edges


@model_settings
@given(model_bases(), st.floats(0.0, 3.5))
@example(CROSSING_BASE, 1.3)
@example(dict(CROSSING_BASE, variant=Variant.LEAF_ACTIVE), 2.0001)
@example(dict(CROSSING_BASE, variant=Variant.LEAF_ACTIVE, include_tree_edges=True), 0.7)
@example(dict(CROSSING_BASE, include_tree_edges=True), 0.0)
def test_trace_and_counters_describe_the_same_run(base, activity):
    """The traced run and the counted run give the same rows, and the
    trace adds up to the counters: every row path (no row, one tree path,
    kept destinations in a set, tree edges alone) is taken by some case."""
    params = ModelParams(activity=activity, **base)
    traced, trace = generate_with_trace(params)
    graph, model = generate_with_counts(params)
    assert [list(r) for r in traced.out_edges] == [list(r) for r in graph.out_edges]
    assert sum(trace.selection_counts) == model["selections"]
    kept = sum(map(len, trace.destinations))
    assert model["selections"] - kept == model["self_draws_discarded"]
    assert trace.closure_edges_added == model["closure_edges"]
    assert model["tree_depth"] == max(build_tree(params.tree).depth)


@model_settings
@given(model_bases(), st.floats(0.0, 3.5), st.floats(0.0, 3.5))
@example(CROSSING_BASE, 0.7, 1.3)
@example(CROSSING_BASE, 1.0, 2.0)
@example(CROSSING_BASE, 1.9999, 2.0001)
def test_raising_activity_only_adds_edges(base, a, b):
    """With one seed and one tree, a node's rounds at the lower activity
    draw what its rounds at the higher one draw, so edges only grow."""
    low, high = sorted((a, b))
    fewer = set(generate(ModelParams(activity=low, **base)).edges())
    more = set(generate(ModelParams(activity=high, **base)).edges())
    assert fewer <= more


def test_leaf_active_edges_originate_at_leaves_only():
    params = ModelParams(
        tree=TreeParams(100, 2.0, seed=8), activity=1.0, seed=10, variant=Variant.LEAF_ACTIVE
    )
    tree = build_tree(params.tree)
    graph = generate(params)
    leaves = set(tree.leaves())
    for src, _ in graph.edges():
        assert src in leaves


def test_include_tree_edges_seeds_both_directions():
    params = ModelParams(tree=TreeParams(60, 2.0, seed=4), activity=0.0, seed=0, include_tree_edges=True)
    tree = build_tree(params.tree)
    graph = generate(params)
    assert graph.edge_count == 2 * 59
    for child in range(1, 60):
        parent = tree.parent[child]
        assert parent in graph.out_edges[child]
        assert child in graph.out_edges[parent]


def test_generation_is_deterministic():
    params = ModelParams(tree=TreeParams(300, 2.0, seed=1), activity=0.5, seed=10)
    first, trace_a = generate_with_trace(params)
    second, trace_b = generate_with_trace(params)
    assert [list(r) for r in first.out_edges] == [list(r) for r in second.out_edges]
    assert trace_a == trace_b


def test_master_seed_changes_the_graph():
    base = dict(tree=TreeParams(300, 2.0, seed=1), activity=0.5)
    g10 = generate(ModelParams(seed=10, **base))
    g11 = generate(ModelParams(seed=11, **base))
    assert [list(r) for r in g10.out_edges] != [list(r) for r in g11.out_edges]


def test_no_self_loops_or_duplicates():
    graph = generate(ModelParams(tree=TreeParams(500, 2.5, seed=3), activity=1.0, seed=12))
    for src, dsts in enumerate(graph.out_edges):
        assert src not in dsts
        assert len(set(dsts)) == len(dsts)


def test_derive_seed_substreams_are_distinct():
    seeds = {derive_seed(master, index) for master in range(10) for index in range(100)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2**64 for s in seeds)
    assert derive_seed(3, 5) == derive_seed(3, 5)


def test_negative_activity_rejected():
    with pytest.raises(ParameterError):
        ModelParams(tree=TreeParams(10, 2.0), activity=-0.1)


def test_non_finite_activity_rejected():
    # An infinite activity would never end a node's selection loop.
    for activity in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="finite"):
            ModelParams(tree=TreeParams(10, 2.0), activity=activity)


def test_seed_outside_64_bits_is_rejected():
    # derive_seed reads 64 bits of the master seed, so a seed 2**64 apart
    # from another, or a negative one, would select as that other seed.
    tree = TreeParams(10, 2.0)
    for seed in (-1, 2**64, 2**65 + 3):
        with pytest.raises(ParameterError, match=rf"seed must be in \[0, 2\*\*64\), got {seed}"):
            ModelParams(tree=tree, activity=0.4, seed=seed)
    assert ModelParams(tree=tree, activity=0.4, seed=2**64 - 1).seed == 2**64 - 1


# sha256 of write_edge_list output, recorded when every node still drew from
# a Random object of its own. Reseeding one object must give the same streams.
PINNED_EDGE_LISTS = [
    (ModelParams(tree=TreeParams(300, 2.0, seed=11), activity=0.4, seed=5),
     "b603e05f69a21b0fce8a65b7f5898c5c863771bcb3a850c14cef0d92f892df65"),
    (ModelParams(tree=TreeParams(300, 2.0, seed=11), activity=2.5, seed=5),
     "88a59c9da5ccf8a3faf920b6fc9acf5bb365590bbf62674399296fb2e7351ab0"),
    (ModelParams(tree=TreeParams(300, 3.5, seed=12), activity=1.5, seed=6,
                 variant=Variant.LEAF_ACTIVE),
     "f95dffeace380360b32959364b17e8909c38606a8287258c5d5b84701a208941"),
    (ModelParams(tree=TreeParams(300, 1.5, seed=13), activity=1.7, seed=7,
                 include_tree_edges=True),
     "abed6f47818540111c85536551473b31fdee1ff46e30516e359320eed929c74f"),
]


@pytest.mark.parametrize("params, digest", PINNED_EDGE_LISTS,
                         ids=["activity-0.4", "activity-2.5", "leaf-active", "tree-edges-self"])
def test_edge_list_digest_is_pinned(params, digest):
    buffer = io.StringIO()
    write_edge_list(generate(params), buffer)
    assert hashlib.sha256(buffer.getvalue().encode()).hexdigest() == digest


def test_given_tree_is_used_and_checked():
    params = PINNED_EDGE_LISTS[0][0]
    tree = build_tree(params.tree)
    (given, given_model), (built, built_model) = (
        generate_with_counts(params, tree), generate_with_counts(params)
    )
    assert [list(r) for r in given.out_edges] == [list(r) for r in built.out_edges]
    assert given_model == built_model
    with pytest.raises(ParameterError):
        generate_with_counts(params, build_tree(TreeParams(299, 2.0, seed=11)))
