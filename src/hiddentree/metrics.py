"""Distribution and small-world statistics for generated graphs.

Covers the complementary cumulative in-degree distribution, a log-log
least-squares power-law fit (with a Hill-style maximum-likelihood
exponent as a secondary estimate), average local clustering, and
average shortest path length with optional source sampling.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from operator import or_, sub
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import (
    ConnectivityError,
    EmptyDistributionError,
    InsufficientDataError,
    ParameterError,
)
from .graph import DirectedGraph, UndirectedGraph, giant_members, project_in_place

__all__ = [
    "Ccdf",
    "PowerLawFit",
    "MetricsReport",
    "GraphAnalysis",
    "degree_ccdf",
    "default_fit_kmax",
    "fit_power_law",
    "fit_power_law_mle",
    "avg_clustering",
    "avg_shortest_path",
    "analyze_graph",
    "compute_report",
    "write_ccdf",
    "report_to_dict",
    "format_field",
    "format_report",
]

#: Sentinel for exact all-sources shortest-path averaging.
ALL = "all"

# Tail points backed by fewer than this many nodes belong to the
# finite-size cutoff region and are excluded from the default fit range.
_CUTOFF_MIN_NODES = 10


@dataclass(frozen=True)
class Ccdf:
    """Cumulative in-degree distribution: (k, fraction of nodes with degree >= k).

    Degree-zero nodes are excluded from the normalization, so every p is a
    ratio of positive integer counts to ``positive_nodes``.
    """

    points: tuple[tuple[int, float], ...]
    positive_nodes: int


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares line through (log k, log p) and the implied density exponent."""

    gamma: float
    ccdf_slope: float
    r_squared: float
    k_min: int
    k_max: int


@dataclass(frozen=True)
class MetricsReport:
    """Aggregate statistics for one generated graph.

    ``fit`` is None when the distribution has too few points in the fit
    range (tiny graphs); everything else is always populated.
    """

    fit: Optional[PowerLawFit]
    avg_clustering: float
    avg_shortest_path: float
    giant_component_fraction: float
    max_in_degree: int


def degree_ccdf(degrees: list[int]) -> Ccdf:
    """CCDF over the positive entries of a degree sequence.

    p(k) = |{i : degree_i >= k}| / |{i : degree_i >= 1}| for each distinct
    positive degree k present, ascending.
    """
    if not degrees:
        raise EmptyDistributionError("empty degree sequence")
    counts = Counter(d for d in degrees if d > 0)
    if not counts:
        raise EmptyDistributionError("all degrees are zero")
    total = sum(counts.values())
    points = []
    at_least = total
    prev = 0
    for k in sorted(counts):
        # at_least currently counts nodes with degree >= previous k; peel
        # off the bucket below k before emitting.
        at_least -= prev
        points.append((k, at_least / total))
        prev = counts[k]
    return Ccdf(points=tuple(points), positive_nodes=total)


def default_fit_kmax(ccdf: Ccdf) -> int:
    """Largest degree still backed by at least 10 nodes (cutoff excluded)."""
    best = ccdf.points[0][0]
    for k, p in ccdf.points:
        if round(p * ccdf.positive_nodes) >= _CUTOFF_MIN_NODES:
            best = k
    return best


def fit_power_law(ccdf: Ccdf, k_min: int, k_max: int) -> PowerLawFit:
    """Ordinary least squares on (log k, log p) over points with k_min <= k <= k_max.

    The fitted slope is the CCDF exponent; the density exponent is
    gamma = 1 - slope.
    """
    xs = []
    ys = []
    for k, p in ccdf.points:
        if k_min <= k <= k_max:
            xs.append(math.log(k))
            ys.append(math.log(p))
    if len(xs) < 5:
        raise InsufficientDataError(
            f"need >= 5 distribution points in [{k_min}, {k_max}], found {len(xs)}"
        )
    n = len(xs)
    mean_x = _plain_sum(xs) / n
    mean_y = _plain_sum(ys) / n
    sxx = _plain_sum((x - mean_x) ** 2 for x in xs)
    sxy = _plain_sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    syy = _plain_sum((y - mean_y) ** 2 for y in ys)
    if sxx == 0:
        raise InsufficientDataError("degenerate fit range: single distinct degree")
    slope = sxy / sxx
    if syy == 0:
        r_squared = 1.0
    else:
        ss_res = syy - slope * sxy
        r_squared = max(0.0, 1.0 - ss_res / syy)
    return PowerLawFit(
        gamma=1.0 - slope,
        ccdf_slope=slope,
        r_squared=r_squared,
        k_min=k_min,
        k_max=k_max,
    )


def fit_power_law_mle(degrees: list[int], k_min: int) -> float:
    """Secondary density-exponent estimate: discrete Hill estimator over the tail.

    gamma = 1 + n / sum(ln(k_i / (k_min - 1/2))) over degrees >= k_min.
    Informational only; the least-squares fit drives all gates.
    """
    if k_min < 1:
        raise ParameterError(f"k_min must be >= 1, got {k_min}")
    tail = [d for d in degrees if d >= k_min]
    if not tail:
        raise InsufficientDataError(f"no degrees >= {k_min}")
    return 1.0 + len(tail) / _plain_sum(math.log(d / (k_min - 0.5)) for d in tail)


def _plain_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum. Since Python 3.12 ``sum()`` of floats is
    compensated, which would make the fitted values depend on the Python
    version."""
    total = 0.0
    for value in values:
        total += value
    return total


def avg_clustering(g: UndirectedGraph, members: Optional[Sequence[int]] = None) -> float:
    """Mean local clustering over the ``members`` (default: all nodes);
    degree-<2 nodes contribute 0.

    ``members`` are sorted node ids closed under adjacency, such as
    :func:`giant_members`; the result equals that of the induced subgraph
    relabelled to 0..len(members)-1 in their order.

    Triangles are counted once each by degree-ordered forward intersection
    (Latapy 2008): every edge is oriented from the lower to the higher
    (degree, id) rank, and a triangle is found exactly once, at the
    intersection of its lowest corner's forward neighbours with its middle
    corner's. Each find credits all three corners. The work is
    O(m * sqrt(m)) instead of the O(sum d^2) of checking every neighbour
    pair, and each per-node count equals that pair count exactly.

    Forward neighbours are kept as lists of one shared int object per
    node, read from the CSR rows, and an empty one as the shared empty
    tuple; only the current lowest corner's are held as a set
    (compact-forward), so the kernel adds one list slot per edge rather
    than a hash set per node.
    """
    n = g.node_count
    if members is None:
        members = range(n)
    offsets, targets = g.offsets, memoryview(g.targets)
    degree = list(map(sub, islice(offsets, 1, None), offsets))
    # One int object per id, shared by the ranks and the forward lists.
    # Non-members keep rank 0: their neighbours are non-members too, so
    # their forward lists come out empty.
    ids = list(range(n))
    rank = [0] * n
    for r, u in zip(ids, sorted(members, key=degree.__getitem__)):
        rank[u] = r
    forward = [
        [ids[v] for v in targets[a:b] if rank[v] > rank_u] or ()
        for rank_u, a, b in zip(rank, offsets, islice(offsets, 1, None))
    ]
    del rank, ids
    triangles = [0] * n
    for u in range(n):
        fwd_u = forward[u]
        if len(fwd_u) < 2:
            continue
        fwd_set = set(fwd_u)
        for v in fwd_u:
            common = fwd_set.intersection(forward[v])
            if common:
                found = len(common)
                triangles[u] += found
                triangles[v] += found
                for w in common:
                    triangles[w] += 1
    total = 0.0
    for i in members:
        d = degree[i]
        if d < 2:
            continue
        total += 2.0 * triangles[i] / (d * (d - 1))
    return total / len(members)


# Sources per bit-parallel BFS pass: bounds the per-node bitsets to
# 256 bits however many sources are requested.
_BFS_CHUNK = 256

# The BFS pushes from the frontier while its edge ends are fewer than
# 1/_PULL_SHARE of the graph's, and pulls into the unfinished nodes after.
_PULL_SHARE = 8


def _distance_sum(g: UndirectedGraph, sources: list[int], members: Sequence[int]) -> int:
    """Sum of BFS distances from every source to every member.

    One level-synchronous BFS serves all sources at once (Then et al.
    2014): bit i of ``seen[v]`` says ``sources[i]`` has reached v, and a
    level adds its depth once per newly set bit. It is direction-optimizing
    (Beamer, Asanovic & Patterson 2012): while the frontier is small, each
    frontier node pushes its bits to its neighbours; once the frontier's
    edge ends reach 1/8 of the graph's, each member not yet seen by every
    source pulls the OR of its neighbours' frontier bits, and leaves the
    pull list once it has them all. Raises :class:`ConnectivityError` if
    some source does not reach every member.
    """
    n = len(members)
    offsets, targets = g.offsets, memoryview(g.targets)
    seen = [0] * g.node_count
    frontier = {}
    for i, src in enumerate(sources):
        seen[src] = frontier[src] = 1 << i
    total = 0
    reached = len(sources)
    level = 0
    while frontier:
        if _PULL_SHARE * sum(offsets[u + 1] - offsets[u] for u in frontier) >= len(targets):
            break
        level += 1
        found = {}
        for u, bits in frontier.items():
            for v in targets[offsets[u]:offsets[u + 1]]:
                new = bits & ~seen[v]
                if new:
                    seen[v] |= new
                    found[v] = found.get(v, 0) | new
        count = sum(bits.bit_count() for bits in found.values())
        total += level * count
        reached += count
        frontier = found
    if frontier:
        all_bits = (1 << len(sources)) - 1
        frontier_bits = [0] * g.node_count
        for u, bits in frontier.items():
            frontier_bits[u] = bits
        frontier = found = None  # the dict goes before the dense lists grow
        pending = [v for v in members if seen[v] != all_bits]
        while pending:
            level += 1
            previous = frontier_bits.__getitem__
            frontier_bits = [0] * g.node_count
            count = 0
            unfinished = []
            for v in pending:
                bits = seen[v]
                new = reduce(or_, map(previous, targets[offsets[v]:offsets[v + 1]]), 0) & ~bits
                if new:
                    frontier_bits[v] = new
                    bits |= new
                    seen[v] = bits
                    count += new.bit_count()
                if bits != all_bits:
                    unfinished.append(v)
            if not count:
                break  # the rest is out of reach
            total += level * count
            reached += count
            pending = unfinished
    if reached != len(sources) * n:
        # A disconnected graph strands every source, so the first source
        # of the chunk is the first to fail in ascending order.
        hits = sum(bits & 1 for bits in seen)
        raise ConnectivityError(
            f"graph is disconnected: BFS from {sources[0]} reached {hits} of {n} nodes"
        )
    return total


def avg_shortest_path(
    g: UndirectedGraph,
    sample_sources: Union[int, str] = ALL,
    seed: int = 0,
    members: Optional[Sequence[int]] = None,
) -> float:
    """Mean shortest-path distance over ordered pairs of the ``members``
    (default: all nodes), which must be connected.

    ``members`` are sorted node ids closed under adjacency, such as
    :func:`giant_members`; the result equals that of the induced subgraph
    relabelled to 0..len(members)-1 in their order, since the sampled
    index i stands for the source ``members[i]``.

    Exact with ``sample_sources=ALL``; otherwise averaged over BFS trees
    from that many uniformly drawn sources (seeded, deterministic).
    Sources are traversed together, in ascending chunks of 256.
    """
    if members is None:
        members = range(g.node_count)
    n = len(members)
    if n < 2:
        raise ParameterError("average shortest path needs at least 2 nodes")

    if sample_sources == ALL:
        sources = list(members)
    else:
        if not isinstance(sample_sources, int) or sample_sources < 1:
            raise ParameterError("sample_sources must be ALL or a positive int")
        if sample_sources >= n:
            sources = list(members)
        else:
            indices = sorted(random.Random(seed).sample(range(n), sample_sources))
            sources = list(map(members.__getitem__, indices))

    total = 0
    for start in range(0, len(sources), _BFS_CHUNK):
        total += _distance_sum(g, sources[start:start + _BFS_CHUNK], members)
    return total / (len(sources) * (n - 1))


@dataclass(frozen=True)
class GraphAnalysis:
    """What :func:`analyze_graph` reports: the :class:`MetricsReport`, the
    record ``report.json`` holds and the in-degree CCDF."""

    report: MetricsReport
    record: dict
    ccdf: Ccdf


def check_fit_range(fit_kmin: int, fit_kmax: Optional[int]) -> None:
    """Raise :class:`ParameterError` if ``fit_kmax`` is below ``fit_kmin``;
    None (the automatic bound) always passes."""
    if fit_kmax is not None and fit_kmax < fit_kmin:
        raise ParameterError(f"fit_kmax {fit_kmax} is below fit_kmin {fit_kmin}")


def analyze_graph(
    load_graph: Callable[[], DirectedGraph],
    fit_kmin: int = 2,
    fit_kmax: Optional[int] = None,
    path_samples: Union[int, str] = 200,
) -> GraphAnalysis:
    """All metrics of the graph ``load_graph()`` returns, in stages.

    The CCDF fit and the Hill estimate ``gamma_mle`` are on in-degrees;
    clustering and path length are on the giant component of the
    undirected projection, read in place through the sorted
    :func:`giant_members` rather than from a relabelled copy. The directed
    graph is handed to :func:`project_in_place`, which builds the
    projection in its buffers, before the giant component is found. The
    graph comes from a loader rather than an argument, as no one else may
    hold the graph it hands over.
    ``fit_kmax=None`` selects the automatic cutoff bound.

    The record holds ``nodes``, ``edges``, the :func:`report_to_dict`
    entries and ``gamma_mle``, in that order; an estimate that has too
    little data is None. A ``fit_kmax`` below ``fit_kmin`` raises
    :class:`ParameterError` before the graph is loaded.
    """
    check_fit_range(fit_kmin, fit_kmax)
    graph = load_graph()
    record = {"nodes": graph.node_count, "edges": graph.edge_count}
    ccdf = degree_ccdf(graph.in_degree)
    if fit_kmax is None:
        fit_kmax = default_fit_kmax(ccdf)
    try:
        fit = fit_power_law(ccdf, fit_kmin, fit_kmax)
    except InsufficientDataError:
        fit = None
    try:
        gamma_mle = fit_power_law_mle(graph.in_degree, fit_kmin)
    except InsufficientDataError:
        gamma_mle = None
    max_in_degree = max(graph.in_degree)

    projection = project_in_place(graph)
    del graph
    members = giant_members(projection)
    report = MetricsReport(
        fit=fit,
        avg_clustering=avg_clustering(projection, members),
        avg_shortest_path=avg_shortest_path(projection, path_samples, 0, members),
        giant_component_fraction=len(members) / record["nodes"],
        max_in_degree=max_in_degree,
    )
    record.update(report_to_dict(report))
    record["gamma_mle"] = gamma_mle
    return GraphAnalysis(report, record, ccdf)


def compute_report(
    g: DirectedGraph,
    fit_kmin: int = 2,
    fit_kmax: Optional[int] = None,
    path_samples: Union[int, str] = 200,
) -> MetricsReport:
    """The report of :func:`analyze_graph` on a graph the caller keeps: the
    analysis takes a copy of it."""
    def copy() -> DirectedGraph:
        return DirectedGraph._adopt(g.offsets[:], g.targets[:])

    return analyze_graph(copy, fit_kmin, fit_kmax, path_samples).report


def write_ccdf(ccdf: Ccdf, stream) -> None:
    """Two tab-separated columns `k<TAB>p`, ascending k."""
    for k, p in ccdf.points:
        stream.write(f"{k}\t{p:.10g}\n")


def report_to_dict(report: MetricsReport) -> dict:
    """Flatten the report for machine consumption; absent fit maps to None."""
    return {
        "gamma": report.fit.gamma if report.fit else None,
        "ccdf_slope": report.fit.ccdf_slope if report.fit else None,
        "r_squared": report.fit.r_squared if report.fit else None,
        "fit_kmin": report.fit.k_min if report.fit else None,
        "fit_kmax": report.fit.k_max if report.fit else None,
        "avg_clustering": report.avg_clustering,
        "avg_shortest_path": report.avg_shortest_path,
        "giant_component_fraction": report.giant_component_fraction,
        "max_in_degree": report.max_in_degree,
    }


def format_field(value) -> str:
    """Report rendering of one value: None as NA, floats to 10 significant digits."""
    if value is None:
        return "NA"
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def format_report(values: dict) -> str:
    """One `key = value` line per entry, each value as :func:`format_field` renders it."""
    lines = [f"{key} = {format_field(value)}" for key, value in values.items()]
    return "\n".join(lines) + "\n"
