"""Static latent tree: construction, ancestor queries, and path queries.

The tree is rooted at node 0 and nodes are numbered in breadth-first
order, so ``parent[i] < i`` for every non-root node. The average number
of children per internal node is controlled by a real-valued branching
factor: a node due for children receives ``floor(branching)`` of them
plus one more with probability ``frac(branching)``, until the node
budget runs out.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TextIO

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

    ``parent[0]`` is -1; ``depth[0]`` is 0. Safe for concurrent read-only
    use once constructed.
    """

    __slots__ = ("parent", "depth", "children")

    def __init__(self, parent: list[int]):
        if not parent or parent[0] != -1:
            raise ParameterError("parent array must start with -1 for the root")
        n = len(parent)
        depth = [0] * n
        children: list[list[int]] = [[] for _ in range(n)]
        for i in range(1, n):
            p = parent[i]
            if not 0 <= p < i:
                raise ParameterError(f"parent[{i}] = {p} breaks breadth-first numbering")
            depth[i] = depth[p] + 1
            children[p].append(i)
        self.parent = parent
        self.depth = depth
        self.children = children

    @property
    def node_count(self) -> int:
        return len(self.parent)

    def leaves(self) -> list[int]:
        """Nodes with no children, in ascending id order."""
        return [i for i in range(self.node_count) if not self.children[i]]

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
    """Climb from u and v to their deepest common ancestor (depth-equalize,
    then step in lockstep); node ids are not range-checked.

    Returns ``(up, down)``: ``up`` runs from u to the ancestor inclusive,
    ``down`` from v up to just below it, so the u-to-v path is ``up``
    followed by ``down`` reversed.
    """
    parent, depth = tree.parent, tree.depth
    up = [u]
    down = []
    while depth[u] > depth[v]:
        u = parent[u]
        up.append(u)
    while depth[v] > depth[u]:
        down.append(v)
        v = parent[v]
    while u != v:
        down.append(v)
        u = parent[u]
        v = parent[v]
        up.append(u)
    return up, down


def write_tree_dump(tree: HiddenTree, stream: TextIO) -> None:
    """Write one ``node_id<TAB>parent_id<TAB>depth`` line per node (root parent is -1)."""
    for i in range(tree.node_count):
        stream.write(f"{i}\t{tree.parent[i]}\t{tree.depth[i]}\n")
