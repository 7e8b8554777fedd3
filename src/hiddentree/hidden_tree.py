"""Static latent tree: construction, the climb to a common ancestor, and lca.

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
from itertools import accumulate, chain
from typing import Iterable, TextIO

from . import _exports
from .errors import ParameterError
from .graph import node_count_error

__all__ = _exports(__name__)

# Nodes per line block of write_tree_dump: each block is one % format,
# and its text and fields are all the dump holds at a time.
_DUMP_BLOCK = 4096


@dataclass(frozen=True)
class TreeParams:
    """Parameters for one tree construction: size, mean branching, RNG seed.

    The seed is >= 0: ``random.Random`` seeds from an int's absolute
    value, so a negative seed would give its positive's tree.
    """

    node_count: int
    branching: float
    seed: int = 0

    def __post_init__(self):
        if error := node_count_error(self.node_count):
            raise ParameterError(error)
        if not 1 <= self.branching < math.inf:
            raise ParameterError(
                f"branching must be finite and >= 1 to span all nodes, got {self.branching}"
            )
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")


class HiddenTree:
    """Immutable rooted tree over nodes 0..N-1 in breadth-first numbering.

    ``parent[0]`` is -1; ``depth[0]`` is 0. Node u's children are ids
    ``first[u]`` to ``first[u+1] - 1``. The parent ids are copied in, so the
    tree does not follow later changes to the caller's sequence; a parent
    entry that is not an int or does not fit in an ``array('i')`` raises
    :class:`ParameterError`. The three columns are ``array('i')``, which
    never equals a list: compare ``list(tree.parent)``. Safe for
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

    parent = [-1]
    node = 0
    while len(parent) < n:
        count = base + (1 if frac > 0 and rng.random() < frac else 0)
        parent += [node] * min(count, n - len(parent))
        node += 1
    return HiddenTree(parent)


def lca(tree: HiddenTree, u: int, v: int) -> int:
    """Deepest common ancestor of u and v; an id outside [0, N) raises
    IndexError. ``perfbench/traced.py``'s model probe counts each kept
    draw's tree-path length with it."""
    for node in (u, v):
        if not 0 <= node < tree.node_count:
            raise IndexError(f"node id {node} out of range [0, {tree.node_count})")
    up, _ = climb(tree, u, v)
    return up[-1]


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
    parent, depth = tree.parent, tree.depth
    for a in range(0, tree.node_count, _DUMP_BLOCK):
        b = min(a + _DUMP_BLOCK, tree.node_count)
        fields = chain.from_iterable(zip(range(a, b), parent[a:b], depth[a:b]))
        stream.write(("%d\t%d\t%d\n" * (b - a)) % tuple(fields))
