"""Static latent tree: construction, ancestor queries, and path queries.

The tree is rooted at node 0 and nodes are numbered in breadth-first
order, so ``parent[i] < i`` for every non-root node and ``parent`` never
decreases: each node's children are a run of consecutive ids. The tree
is kept as parent, depth and child-offset ``array('i')`` columns of its own,
with no container per node. The average number of children per internal
node is controlled by a real-valued branching factor: a node due for
children receives ``floor(branching)`` of them plus one more with
probability ``frac(branching)``, until the node budget runs out.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, TextIO

from .errors import ParameterError
from .graph import node_count_error

__all__ = ["TreeParams", "HiddenTree", "build_tree", "lca", "path_between", "write_tree_dump"]


@dataclass(frozen=True)
class TreeParams:
    """Parameters for one tree construction: size, mean branching, RNG seed."""

    node_count: int
    branching: float
    seed: int = 0

    def __post_init__(self):
        error = node_count_error(self.node_count)
        if error:
            raise ParameterError(error)
        if not 1 <= self.branching < math.inf:
            raise ParameterError(
                f"branching must be finite and >= 1 to span all nodes, got {self.branching}"
            )


class HiddenTree:
    """Immutable rooted tree over nodes 0..N-1 in breadth-first numbering.

    ``parent[0]`` is -1; ``depth[0]`` is 0. Node u's children are ids
    ``first[u]`` to ``first[u+1] - 1``. The parent ids are copied in, so the
    tree does not follow later changes to the caller's sequence. Safe for
    concurrent read-only use once constructed.
    """

    __slots__ = ("parent", "depth", "first")

    def __init__(self, parent: Iterable[int]):
        try:
            parent = array("i", parent)
        except (TypeError, OverflowError) as exc:
            raise ParameterError(f"parent array must hold int node ids: {exc}") from None
        if not parent or parent[0] != -1:
            raise ParameterError("parent array must start with -1 for the root")
        n = len(parent)
        depth = array("i", [0]) * n
        child_count = [0] * n
        previous = 0
        for i in range(1, n):
            p = parent[i]
            if not previous <= p < i:
                raise ParameterError(f"parent[{i}] = {p} breaks breadth-first numbering")
            depth[i] = depth[p] + 1
            child_count[p] += 1
            previous = p
        self.parent = parent
        self.depth = depth
        self.first = array("i", accumulate(child_count, initial=1))

    @property
    def node_count(self) -> int:
        return len(self.parent)

    def children(self, u: int) -> range:
        """Node u's children, in ascending id order."""
        return range(self.first[u], self.first[u + 1])

    def leaves(self) -> list[int]:
        """Nodes with no children, in ascending id order."""
        return [i for i in range(self.node_count) if not self.children(i)]

    def _check_node(self, u: int) -> None:
        if not 0 <= u < self.node_count:
            raise IndexError(f"node id {u} out of range [0, {self.node_count})")


def build_tree(params: TreeParams) -> HiddenTree:
    """Build the tree for ``params``.

    Nodes are processed in id (= breadth-first) order; each draws its
    child count from the seeded RNG until all ``node_count`` ids are
    placed. Integer branching therefore yields the complete n-ary shape
    deterministically.
    """
    n = params.node_count
    base = math.floor(params.branching)
    frac = params.branching - base
    rng = random.Random(params.seed)

    parent = [-1] * n
    next_id = 1
    node = 0
    while next_id < n:
        count = base + (1 if frac > 0 and rng.random() < frac else 0)
        for _ in range(count):
            if next_id >= n:
                break
            parent[next_id] = node
            next_id += 1
        node += 1
    return HiddenTree(parent)


def lca(tree: HiddenTree, u: int, v: int) -> int:
    """Deepest common ancestor of u and v."""
    tree._check_node(u)
    tree._check_node(v)
    up, _ = climb(tree, u, v)
    return up[-1]


def path_between(tree: HiddenTree, u: int, v: int) -> list[int]:
    """The unique tree path from u to v, inclusive of both endpoints."""
    tree._check_node(u)
    tree._check_node(v)
    up, down = climb(tree, u, v)
    down.reverse()
    return up + down


def climb(tree: HiddenTree, u: int, v: int) -> tuple[list[int], list[int]]:
    """Climb from u and v to their deepest common ancestor; node ids are
    not range-checked.

    Each step moves the larger of the two ids to its parent: ancestors
    have smaller ids, so the larger one is never the common ancestor.
    Returns ``(up, down)``: ``up`` runs from u to the ancestor inclusive,
    ``down`` from v up to just below it, so the u-to-v path is ``up``
    followed by ``down`` reversed.
    """
    parent = tree.parent
    up = [u]
    down = []
    while u != v:
        if u > v:
            u = parent[u]
            up.append(u)
        else:
            down.append(v)
            v = parent[v]
    return up, down


def write_tree_dump(tree: HiddenTree, stream: TextIO) -> None:
    """Write one ``node_id<TAB>parent_id<TAB>depth`` line per node (root parent is -1)."""
    for i in range(tree.node_count):
        stream.write(f"{i}\t{tree.parent[i]}\t{tree.depth[i]}\n")
