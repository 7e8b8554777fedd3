"""Control graphs for the tests: a uniform-random graph, whose degrees
are Poisson (the null case), and degree-proportional growth, whose
degrees follow a known power law (a check of the fit end to end).

Both are plain functions of their parameters and seed, built through
``UndirectedGraph(n, edges)``; their edge digests are pinned in
``tests/test_baselines.py``.
"""

import math
import random

from hiddentree import UndirectedGraph


def er_graph(n, p, seed):
    """Each unordered pair of the n nodes independently with probability p.

    Geometric gap skipping over the pair sequence makes the cost
    proportional to the number of edges rather than n**2.
    """
    if p == 0.0:
        return UndirectedGraph(n)
    if p == 1.0:
        return UndirectedGraph(n, [(u, v) for v in range(n) for u in range(v)])
    rng = random.Random(seed)
    edges = []
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


def ba_graph(n, m, seed, seed_size=None):
    """Degree-proportional growth: a clique of ``seed_size`` nodes (m by
    default), then each arrival attaches m edges to distinct earlier nodes.

    Picking a uniform entry of the endpoint urn is picking a uniform
    endpoint of a uniform existing edge; collisions are drawn again until m
    distinct targets are found.
    """
    m0 = m if seed_size is None else seed_size
    rng = random.Random(seed)
    edges = [(u, v) for v in range(m0) for u in range(v)]
    urn = [end for edge in edges for end in edge]
    for new in range(m0, n):
        targets = set()
        while len(targets) < m:
            if urn:
                targets.add(urn[rng.randrange(len(urn))])
            else:
                # A single-node seed has no edge to bias toward yet.
                targets.add(rng.randrange(new))
        for t in sorted(targets):
            edges.append((new, t))
            urn.append(new)
            urn.append(t)
    return UndirectedGraph(n, edges)
