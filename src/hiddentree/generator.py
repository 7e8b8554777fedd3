"""Directed-network generation: activity-driven random destinations with tree-path closure.

Every active node runs the same selection loop: with ``act`` starting at
``activity``, each round succeeds when a uniform draw falls below ``act``,
so a node performs ``floor(activity)`` selections plus one more with
probability ``frac(activity)``. A successful selection picks a destination
uniformly over all nodes and links the source to the destination and to
every node on the latent tree path between them.

Nodes use independent RNG substreams derived from the master seed, so the
generated edge set is identical under any processing order.
"""

from __future__ import annotations

import enum
import math
import random
from array import array
from dataclasses import dataclass
from typing import Optional

from . import _exports
from .errors import ParameterError
from .graph import DirectedGraph
from .hidden_tree import HiddenTree, TreeParams, build_tree, climb

__all__ = _exports(__name__)

_MASK64 = (1 << 64) - 1


def derive_seed(master_seed: int, index: int) -> int:
    """Derive a decorrelated 64-bit substream seed from (master_seed, index).

    splitmix64 finalizer over the combined inputs; stable across platforms
    and Python versions.
    """
    x = ((master_seed & _MASK64) * 0x9E3779B97F4A7C15 + (index & _MASK64) + 1) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


class Variant(enum.Enum):
    """Which nodes initiate selections."""

    ALL_ACTIVE = "all"
    LEAF_ACTIVE = "leaf"


@dataclass(frozen=True)
class ModelParams:
    """Full specification of one generation run.

    ``seed`` drives destination selection and is independent of the tree
    construction seed inside ``tree``.
    """

    tree: TreeParams
    activity: float
    seed: int = 0
    variant: Variant = Variant.ALL_ACTIVE
    include_tree_edges: bool = False

    def __post_init__(self):
        if not 0 <= self.activity < math.inf:
            raise ParameterError(f"activity must be finite and >= 0, got {self.activity}")
        if not 0 <= self.seed <= _MASK64:  # derive_seed reads 64 bits of it
            raise ParameterError(f"seed must be in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class GenerationTrace:
    """Diagnostic record of one run.

    ``selection_counts[i]`` counts every successful selection by node i,
    including draws discarded for landing on i itself. ``destinations[i]``
    holds only the kept draws, so edge provenance stays checkable.
    """

    selection_counts: list[int]
    destinations: list[tuple[int, ...]]
    closure_edges_added: int


def generate(params: ModelParams) -> DirectedGraph:
    """Run the generation loop and return the deduplicated directed graph."""
    return generate_with_counts(params)[0]


def generate_with_counts(
    params: ModelParams, tree: Optional[HiddenTree] = None
) -> tuple[DirectedGraph, dict[str, int]]:
    """As :func:`generate`, also returning what the model did: the
    ``selections`` made, the ``self_draws_discarded`` among them, the
    ``closure_edges`` added and the ``tree_depth``.

    ``tree`` is the tree ``build_tree(params.tree)`` returns, for a caller
    that already holds it; by default it is built here.
    """
    if tree is None:
        tree = build_tree(params.tree)
    elif tree.node_count != params.tree.node_count:
        raise ParameterError(
            f"tree has {tree.node_count} nodes, params.tree asks for {params.tree.node_count}"
        )
    return _run(params, tree)


def generate_with_trace(params: ModelParams) -> tuple[DirectedGraph, GenerationTrace]:
    """As :func:`generate`, also returning the per-node selection trace."""
    trace: list[tuple[int, tuple[int, ...]]] = []
    graph, model = _run(params, build_tree(params.tree), trace)
    counts, dests = map(list, zip(*trace))
    return graph, GenerationTrace(counts, dests, model["closure_edges"])


def _run(
    params: ModelParams, tree: HiddenTree, trace: Optional[list] = None
) -> tuple[DirectedGraph, dict[str, int]]:
    """The generation loop, one node at a time.

    Node i's out-edges only grow while node i is processed, so each node
    fills one set that is appended, sorted, as the graph's row i as soon
    as it is done; a node with one kept destination and no tree edges
    appends its sorted tree path with no set. In-degrees are left for the
    graph to count if they are read.
    Returns the graph and the model counters :func:`generate_with_counts`
    describes. Unless ``trace`` is None, each node's selection count and
    kept destinations are appended to it as a ``(count, destinations)``
    pair.
    """
    n = tree.node_count
    parent, children = tree.parent, tree.children
    leaf_only = params.variant is Variant.LEAF_ACTIVE
    activity = params.activity

    # Random(x) is seed(x) on a new object, so reseeding one object gives
    # every node the same stream and saves constructing n of them. For an
    # int, Random.seed only hands x on to the C method, so that is called.
    rng = random.Random()
    reseed = super(random.Random, rng).seed
    draw, randrange = rng.random, rng.randrange
    seed, tree_edges = params.seed, params.include_tree_edges
    offsets = array("q", [0])
    targets = array("i")
    total_selections = discarded = closure_added = 0

    for i in range(n):
        selections = 0
        kept: list[int] = []
        if not (leaf_only and children(i)):
            reseed(derive_seed(seed, i))
            act = activity
            while act > 0:
                if draw() < act:
                    selections += 1
                    dest = randrange(n)
                    if dest != i:
                        kept.append(dest)
                    else:
                        discarded += 1
                act -= 1
            total_selections += selections
        # Most nodes keep no destination, and then need no set; one kept
        # destination and no tree edges make the row one tree path, whose
        # nodes are distinct. Its two parts descend, and sorting merges them.
        # Below activity 1 a node keeps at most one destination, so without
        # tree edges no node builds a set.
        if len(kept) == 1 and not tree_edges:
            up, down = climb(tree, i, kept[0])
            row = up[1:] + down
            row.sort()
            targets.fromlist(row)
            closure_added += len(row) - 1
        elif kept or tree_edges:
            edges_i: set[int] = set()
            if tree_edges:
                edges_i.update(children(i))
                if i:
                    edges_i.add(parent[i])
            for dest in kept:
                edges_i.add(dest)
                before = len(edges_i)
                edges_i.update(*climb(tree, i, dest))
                edges_i.discard(i)
                closure_added += len(edges_i) - before
            targets.fromlist(sorted(edges_i))
        offsets.append(len(targets))
        if trace is not None:
            trace.append((selections, tuple(kept)))

    model = {
        "selections": total_selections,
        "self_draws_discarded": discarded,
        "closure_edges": closure_added,
        "tree_depth": max(tree.depth),
    }
    return DirectedGraph._adopt(offsets, targets), model
