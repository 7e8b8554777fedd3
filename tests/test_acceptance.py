"""Acceptance gates for the generator and its measurement pipeline.

One test per numbered criterion, so ``pytest -v`` prints exactly one
pass/fail line for each. Seeds and tolerances are pinned; a failure
means the gated property does not hold, not that a tolerance drifted.
"""

import math
import random
import statistics
from collections import deque

from controls import ba_graph, er_graph

from hiddentree import (
    ALL,
    Ccdf,
    InsufficientDataError,
    ModelParams,
    TreeParams,
    avg_clustering,
    avg_shortest_path,
    build_tree,
    default_fit_kmax,
    degree_ccdf,
    fit_power_law,
    generate,
    generate_with_trace,
    giant_component,
    undirected_projection,
)
from hiddentree.cli import main as cli_main
from hiddentree.hidden_tree import climb


def fit_in_degrees(degrees):
    ccdf = degree_ccdf(degrees)
    return fit_power_law(ccdf, 2, default_fit_kmax(ccdf))


def model_fit(nodes, branching, activity, seed):
    graph = generate(
        ModelParams(
            tree=TreeParams(nodes, branching, seed=100 + seed),
            activity=activity,
            seed=seed,
        )
    )
    return fit_in_degrees(list(graph.in_degree))


def small_world_stats(nodes, branching, activity, seed):
    graph = generate(
        ModelParams(
            tree=TreeParams(nodes, branching, seed=100 + seed),
            activity=activity,
            seed=seed,
        )
    )
    _, giant = giant_component(undirected_projection(graph))
    return avg_clustering(giant), avg_shortest_path(giant, ALL)


def layer_rows(tree, degrees, ccdf):
    """One row per tree depth: (depth, nodes, internal nodes, corner, p).

    The corner is the ``median_low`` degree of the layer's internal nodes
    (nodes with children) and p the CCDF at that degree; both are None for
    a layer of leaves only.
    """
    p_at = dict(ccdf.points)
    nodes = [0] * (max(tree.depth) + 1)
    internal = [[] for _ in nodes]
    for node, depth in enumerate(tree.depth):
        nodes[depth] += 1
        if tree.children(node):
            internal[depth].append(degrees[node])
    rows = []
    for depth, layer in enumerate(internal):
        corner = statistics.median_low(layer) if layer else None
        rows.append((depth, nodes[depth], len(layer), corner, p_at.get(corner)))
    return rows


def corner_gate_failures(rows, ccdf):
    """Reasons the layer corners do not lie on one falling power law.

    Corners must not increase with depth, the root's must be >= 100x the
    deepest, and the corner CCDF points, fitted by ``fit_power_law``,
    need r^2 >= 0.98 and slope in [-1.3, -0.7]. Fewer than 5 corners, or
    all of them equal, raise ``InsufficientDataError``.
    """
    corners = [(k, p) for _, _, _, k, p in rows if k is not None]
    ks = [k for k, _ in corners]
    failures = []
    if any(upper < lower for upper, lower in zip(ks, ks[1:])):
        failures.append(f"corners {ks} increase with depth")
    if ks[0] < 100 * ks[-1]:
        failures.append(f"root corner {ks[0]} < 100 x deepest corner {ks[-1]}")
    fit = fit_power_law(Ccdf(tuple(sorted(corners)), ccdf.positive_nodes), min(ks), max(ks))
    if fit.r_squared < 0.98:
        failures.append(f"corner r2={fit.r_squared:.4f} < 0.98")
    if not -1.3 <= fit.ccdf_slope <= -0.7:
        failures.append(f"corner slope={fit.ccdf_slope:.3f} outside [-1.3, -0.7]")
    return failures


def test_criterion_01_power_law_linearity_across_branching():
    # N=10000, activity=0.4, branching in {1.5, 2.0, 2.5, 5.5, 7.5},
    # 3 seeds each: CCDF fit over [2, auto] has slope < -0.3, and r^2 >=
    # 0.98 up to branching 2.5. At 5.5 and 7.5 the few tree layers make
    # the CCDF a staircase (see README Limitations), so there the layer
    # corners must pass corner_gate_failures instead; a uniform-random
    # graph laid on the same tree must not.
    failures = []
    for branching in (1.5, 2.0, 2.5, 5.5, 7.5):
        staircase = branching in (5.5, 7.5)
        for seed in range(3):
            tree_params = TreeParams(10000, branching, seed=100 + seed)
            graph = generate(ModelParams(tree=tree_params, activity=0.4, seed=seed))
            tree = build_tree(tree_params)
            degrees = list(graph.in_degree)
            ccdf = degree_ccdf(degrees)
            fit = fit_power_law(ccdf, 2, default_fit_kmax(ccdf))
            rows = layer_rows(tree, degrees, ccdf)
            reasons = [] if fit.ccdf_slope < -0.3 else ["slope >= -0.3"]
            if staircase:
                reasons += corner_gate_failures(rows, ccdf)
            elif fit.r_squared < 0.98:
                reasons.append("r2 < 0.98")
            if reasons:
                failures.append(
                    f"branching={branching} seed={seed}: "
                    f"r2={fit.r_squared:.4f} slope={fit.ccdf_slope:.3f}; "
                    + "; ".join(reasons)
                    + "\n  depth nodes internal corner p(corner)\n"
                    + "\n".join(
                        f"  {depth} {count} {inner} {corner} "
                        + ("-" if p is None else f"{p:.4g}")
                        for depth, count, inner, corner, p in rows
                    )
                )
            if staircase:
                control = er_graph(10000, 3.2 / 10000, seed)
                control_degrees = [len(nbrs) for nbrs in control.neighbors]
                control_ccdf = degree_ccdf(control_degrees)
                try:
                    rejected = bool(corner_gate_failures(
                        layer_rows(tree, control_degrees, control_ccdf), control_ccdf
                    ))
                except InsufficientDataError:
                    rejected = True
                if not rejected:
                    failures.append(
                        f"branching={branching} seed={seed}: "
                        "corner gate accepts the uniform-random control"
                    )
    assert not failures, "\n".join(failures)


def test_criterion_02_power_law_linearity_across_activity():
    # N=10000, branching=2.0, activity in {0.08 .. 1.28}, same gate.
    failures = []
    for activity in (0.08, 0.16, 0.32, 0.64, 1.28):
        for seed in range(3):
            fit = model_fit(10000, 2.0, activity, seed)
            if not (fit.r_squared >= 0.98 and fit.ccdf_slope < -0.3):
                failures.append(
                    f"activity={activity} seed={seed}: "
                    f"r2={fit.r_squared:.4f} slope={fit.ccdf_slope:.3f}"
                )
    assert not failures, "; ".join(failures)


def test_criterion_03_degree_cutoff_grows_with_network_size():
    # Mean max in-degree over 5 seeds strictly increases across
    # N in {1000, 5000, 20000} at branching=2.0, activity=0.4.
    means = []
    for nodes in (1000, 5000, 20000):
        maxima = []
        for seed in range(5):
            graph = generate(
                ModelParams(
                    tree=TreeParams(nodes, 2.0, seed=100 + seed),
                    activity=0.4,
                    seed=seed,
                )
            )
            maxima.append(max(graph.in_degree))
        means.append(sum(maxima) / len(maxima))
    assert means[0] < means[1] < means[2], f"means={means}"


def test_criterion_04_clustering_rises_and_paths_shrink_with_activity():
    # N=300, branching=2, activity in {0.04, 0.4, 2.0}, 10 seeds:
    # mean giant-component clustering strictly rises, mean path strictly falls.
    clustering_means = []
    path_means = []
    for activity in (0.04, 0.4, 2.0):
        clusterings = []
        paths = []
        for seed in range(10):
            clustering, path = small_world_stats(300, 2.0, activity, seed)
            clusterings.append(clustering)
            paths.append(path)
        clustering_means.append(sum(clusterings) / len(clusterings))
        path_means.append(sum(paths) / len(paths))
    assert clustering_means[0] < clustering_means[1] < clustering_means[2], (
        f"clustering means={clustering_means}"
    )
    assert path_means[0] > path_means[1] > path_means[2], f"path means={path_means}"


def test_criterion_05_selection_counts_average_to_activity():
    # For activity in {0.4, 1.28, 2.0} at N=10000, the empirical mean of
    # per-node selection counts is within 4 standard errors of activity.
    nodes = 10000
    for activity in (0.4, 1.28, 2.0):
        _, trace = generate_with_trace(
            ModelParams(tree=TreeParams(nodes, 2.0, seed=50), activity=activity, seed=13)
        )
        mean = sum(trace.selection_counts) / nodes
        frac = activity - math.floor(activity)
        bound = 4.0 * math.sqrt(frac * (1.0 - frac) / nodes)
        assert abs(mean - activity) <= bound, (
            f"activity={activity}: mean={mean}, bound={bound}"
        )


def test_criterion_06_paths_match_bfs_oracle_on_random_trees():
    # 50 random trees (N <= 200, branching in [1, 4]): the path from climb,
    # which the generator closes over, equals the BFS path on the tree
    # adjacency for every ordered node pair.
    rng = random.Random(606)
    for _ in range(50):
        tree = build_tree(
            TreeParams(
                node_count=rng.randint(2, 200),
                branching=round(rng.uniform(1.0, 4.0), 3),
                seed=rng.randrange(2**32),
            )
        )
        n = tree.node_count
        adjacency = [[] for _ in range(n)]
        for child in range(1, n):
            parent = tree.parent[child]
            adjacency[child].append(parent)
            adjacency[parent].append(child)
        for source in range(n):
            previous = [-2] * n
            previous[source] = -1
            queue = deque([source])
            while queue:
                node = queue.popleft()
                for nxt in adjacency[node]:
                    if previous[nxt] == -2:
                        previous[nxt] = node
                        queue.append(nxt)
            for target in range(n):
                path = []
                node = target
                while node != -1:
                    path.append(node)
                    node = previous[node]
                path.reverse()
                up, down = climb(tree, source, target)
                assert up + down[::-1] == path


def test_criterion_07_metrics_match_exhaustive_oracles():
    # 100 random connected graphs (N <= 50): clustering equals the
    # triple-enumeration value and exact path length equals the
    # Floyd-Warshall mean, both to 1e-12.
    rng = random.Random(707)
    from hiddentree import UndirectedGraph

    for _ in range(100):
        n = rng.randint(3, 50)
        edges = {(rng.randrange(i), i) for i in range(1, n)}
        for _ in range(rng.randint(0, n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        graph = UndirectedGraph(n, edges)

        adjacency = [[False] * n for _ in range(n)]
        for u, v in graph.edges():
            adjacency[u][v] = adjacency[v][u] = True
        triangles = [0] * n
        for a in range(n):
            for b in range(a + 1, n):
                if not adjacency[a][b]:
                    continue
                for c in range(b + 1, n):
                    if adjacency[a][c] and adjacency[b][c]:
                        triangles[a] += 1
                        triangles[b] += 1
                        triangles[c] += 1
        total = 0.0
        for i in range(n):
            degree = len(graph.neighbors[i])
            if degree >= 2:
                total += triangles[i] / (degree * (degree - 1) / 2)
        assert abs(avg_clustering(graph) - total / n) <= 1e-12

        infinity = float("inf")
        dist = [[infinity] * n for _ in range(n)]
        for i in range(n):
            dist[i][i] = 0
        for u, v in graph.edges():
            dist[u][v] = dist[v][u] = 1
        for k in range(n):
            row_k = dist[k]
            for i in range(n):
                d_ik = dist[i][k]
                if d_ik == infinity:
                    continue
                row_i = dist[i]
                for j in range(n):
                    alt = d_ik + row_k[j]
                    if alt < row_i[j]:
                        row_i[j] = alt
        mean = sum(
            dist[i][j] for i in range(n) for j in range(n) if i != j
        ) / (n * (n - 1))
        assert abs(avg_shortest_path(graph, ALL) - mean) <= 1e-12


def test_criterion_08_pipeline_recovers_known_growth_exponent():
    # Degree-proportional growth at N=10000, m=2 through the same fit
    # pipeline gives gamma in [2.5, 3.5].
    graph = ba_graph(10000, 2, 7)
    fit = fit_in_degrees([len(nbrs) for nbrs in graph.neighbors])
    assert 2.5 <= fit.gamma <= 3.5, f"gamma={fit.gamma}"


def test_criterion_09_uniform_random_graph_is_rejected_by_the_fit():
    # N=5000, p=0.002: degree variance/mean in [0.9, 1.1] (Poisson
    # signature) and the CCDF fit under the same k-range policy has
    # r^2 < 0.95.
    graph = er_graph(5000, 0.002, 11)
    degrees = [len(nbrs) for nbrs in graph.neighbors]
    mean = sum(degrees) / len(degrees)
    variance = sum((d - mean) ** 2 for d in degrees) / len(degrees)
    ratio = variance / mean
    assert 0.9 <= ratio <= 1.1, f"variance/mean={ratio}"
    fit = fit_in_degrees(degrees)
    assert fit.r_squared < 0.95, f"r2={fit.r_squared}"


def test_criterion_10_sweep_outputs_are_byte_deterministic(tmp_path):
    # The same sweep config produces byte-identical edge lists, CCDF
    # files, summaries, and manifests, regardless of worker count.
    base = (
        "sweep", "--kind", "activity", "--values", "0.2,0.4",
        "--replicates", "2", "--nodes", "2000", "--branching", "2.0",
        "--seed", "5", "--keep-edges", "--path-samples", "150",
    )
    dir_serial = tmp_path / "serial"
    dir_threads = tmp_path / "threads"
    assert cli_main([*base, "--jobs", "1", "--out", str(dir_serial)]) == 0
    assert cli_main([*base, "--jobs", "4", "--out", str(dir_threads)]) == 0
    names = sorted(path.name for path in dir_serial.iterdir())
    assert names == sorted(path.name for path in dir_threads.iterdir())
    assert any(name.startswith("edges_") for name in names)
    for name in names:
        assert (dir_serial / name).read_bytes() == (dir_threads / name).read_bytes(), name
