"""Reference random-graph generators used as contrast distributions.

The uniform-probability generator gives the Poisson-degree null case;
the degree-proportional growth generator gives a known power-law case
for checking the fitting pipeline end to end.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import _exports
from .errors import ParameterError
from .graph import UndirectedGraph, node_count_error

__all__ = _exports(__name__)


@dataclass(frozen=True)
class ErParams:
    """Uniform edge-probability graph: every pair independently with probability p."""

    node_count: int
    edge_probability: float
    seed: int = 0

    def __post_init__(self):
        if error := node_count_error(self.node_count):
            raise ParameterError(error)
        if not 0.0 <= self.edge_probability <= 1.0:
            raise ParameterError(
                f"edge_probability must be in [0, 1], got {self.edge_probability}"
            )
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class BaParams:
    """Degree-proportional growth: a clique of seed_size nodes, then each
    arrival attaches edges_per_new_node edges to distinct existing nodes."""

    node_count: int
    edges_per_new_node: int
    seed_size: int = 0  # 0 means "same as edges_per_new_node"
    seed: int = 0

    def __post_init__(self):
        if error := node_count_error(self.node_count):
            raise ParameterError(error)
        if self.edges_per_new_node < 1:
            raise ParameterError(
                f"edges_per_new_node must be >= 1, got {self.edges_per_new_node}"
            )
        m0 = self.seed_size or self.edges_per_new_node
        object.__setattr__(self, "seed_size", m0)
        if not self.edges_per_new_node <= m0 < self.node_count:
            raise ParameterError(
                f"need edges_per_new_node <= seed_size < node_count, "
                f"got {self.edges_per_new_node} <= {m0} < {self.node_count}"
            )
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")


def generate_er(params: ErParams) -> UndirectedGraph:
    """Sample each unordered pair independently with probability p.

    Uses geometric gap skipping over the pair sequence, so the cost is
    proportional to the number of edges rather than node_count**2.
    """
    n = params.node_count
    p = params.edge_probability
    if p == 0.0:
        return UndirectedGraph(n)
    rng = random.Random(params.seed)
    edges = []
    if p == 1.0:
        edges = [(u, v) for v in range(n) for u in range(v)]
        return UndirectedGraph(n, edges)

    log_q = math.log(1.0 - p)
    v = 1
    w = -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((v, w))
    return UndirectedGraph(n, edges)


def generate_ba(params: BaParams) -> UndirectedGraph:
    """Grow a graph by degree-proportional attachment.

    Proportional sampling uses the repeated-endpoint urn: picking a
    uniform entry of the endpoint list is picking a uniform endpoint of a
    uniform existing edge. Collisions are resampled until the required
    number of distinct targets is found.
    """
    n = params.node_count
    m = params.edges_per_new_node
    m0 = params.seed_size
    rng = random.Random(params.seed)

    edges = [(u, v) for v in range(m0) for u in range(v)]
    urn: list[int] = []
    for u, v in edges:
        urn.append(u)
        urn.append(v)

    for new in range(m0, n):
        targets: set[int] = set()
        while len(targets) < m:
            if urn:
                targets.add(urn[rng.randrange(len(urn))])
            else:
                # Degenerate single-seed start: no edges to bias toward yet.
                targets.add(rng.randrange(new))
        for t in sorted(targets):
            edges.append((new, t))
            urn.append(new)
            urn.append(t)
    return UndirectedGraph(n, edges)
