"""Distribution, fitting, clustering, and path-length metrics against hand oracles."""

import io
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hiddentree import (
    ALL,
    Ccdf,
    ConnectivityError,
    DirectedGraph,
    EmptyDistributionError,
    InsufficientDataError,
    ModelParams,
    ParameterError,
    TreeParams,
    UndirectedGraph,
    analyze_graph,
    avg_clustering,
    avg_shortest_path,
    default_fit_kmax,
    degree_ccdf,
    fit_power_law,
    fit_power_law_mle,
    format_report,
    generate,
    giant_component,
    undirected_projection,
    write_ccdf,
)


def brute_force_ccdf(degrees):
    positive = [d for d in degrees if d > 0]
    total = len(positive)
    return [
        (k, sum(1 for d in positive if d >= k) / total)
        for k in sorted(set(positive))
    ]


def test_ccdf_hand_examples():
    ccdf = degree_ccdf([1, 1, 2])
    assert ccdf.points == ((1, 1.0), (2, 1 / 3))
    assert degree_ccdf([5]).points == ((5, 1.0),)
    assert degree_ccdf([0, 0, 3]).points == ((3, 1.0),)


def test_ccdf_rejects_degenerate_input():
    with pytest.raises(EmptyDistributionError):
        degree_ccdf([])
    with pytest.raises(EmptyDistributionError):
        degree_ccdf([0, 0, 0])


def test_ccdf_matches_brute_force_counter():
    rng = random.Random(41)
    for _ in range(20):
        degrees = [rng.randint(0, 30) for _ in range(rng.randint(1, 400))]
        if not any(degrees):
            degrees[0] = 1
        ccdf = degree_ccdf(degrees)
        assert list(ccdf.points) == brute_force_ccdf(degrees)


def seeded_degrees():
    rng = random.Random(42)
    return [rng.randint(0, 50) for _ in range(500)]


@st.composite
def degree_sequences(draw):
    """Shuffled degree sequences with at least one positive entry: small
    degrees, one distinct degree, or a heavy tail, each with zeros mixed in."""
    shape = draw(st.sampled_from(["small", "single", "heavy"]))
    if shape == "small":
        positive = draw(st.lists(st.integers(1, 50), min_size=1, max_size=300))
    elif shape == "single":
        positive = [draw(st.integers(1, 10**6))] * draw(st.integers(1, 300))
    else:
        # Log-uniform magnitudes: many small degrees, a few up to 2**40.
        magnitudes = st.integers(0, 40).flatmap(lambda e: st.integers(1, 2**e))
        positive = draw(st.lists(magnitudes, min_size=1, max_size=300))
    zeros = [0] * draw(st.integers(0, 100))
    return draw(st.permutations(positive + zeros))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(degree_sequences())
@example(seeded_degrees())
def test_ccdf_invariants_and_count_round_trip(degrees):
    ccdf = degree_ccdf(degrees)
    ks = [k for k, _ in ccdf.points]
    ps = [p for _, p in ccdf.points]
    assert ks == sorted({d for d in degrees if d > 0})
    assert ccdf.positive_nodes == sum(1 for d in degrees if d > 0)
    assert all(a >= b for a, b in zip(ps, ps[1:]))
    assert ps[0] == 1.0
    assert all(p > 0 for p in ps)
    at_least = {k: sum(1 for d in degrees if d >= k) for k in ks}
    for k, p in ccdf.points:
        assert round(p * ccdf.positive_nodes) == at_least[k]
    # default_fit_kmax: the largest degree at least 10 nodes reach, else the smallest.
    backed = [k for k in ks if at_least[k] >= 10]
    assert default_fit_kmax(ccdf) == max(backed, default=ks[0])


def test_fit_recovers_exact_power_law():
    points = tuple((k, k ** -1.5) for k in range(1, 101))
    fit = fit_power_law(Ccdf(points=points, positive_nodes=10**9), 1, 100)
    assert abs(fit.ccdf_slope + 1.5) < 1e-9
    assert abs(fit.gamma - 2.5) < 1e-9
    assert abs(fit.r_squared - 1.0) < 1e-12


def test_fit_rejects_exponential_curve():
    points = tuple((k, math.exp(-k)) for k in range(1, 21))
    fit = fit_power_law(Ccdf(points=points, positive_nodes=10**9), 1, 20)
    assert fit.r_squared < 0.95


def test_fit_on_generated_network_is_linear():
    graph = generate(ModelParams(tree=TreeParams(10000, 2.0, seed=100), activity=0.4, seed=0))
    ccdf = degree_ccdf(list(graph.in_degree))
    fit = fit_power_law(ccdf, 2, default_fit_kmax(ccdf))
    assert fit.r_squared >= 0.98
    assert fit.ccdf_slope < -0.3


def test_fit_needs_five_points():
    points = tuple((k, 1.0 / k) for k in (1, 2, 3, 4, 5, 6))
    ccdf = Ccdf(points=points, positive_nodes=100)
    with pytest.raises(InsufficientDataError):
        fit_power_law(ccdf, 2, 5)
    fit_power_law(ccdf, 1, 5)


def test_default_kmax_stops_before_thin_tail():
    degrees = [1] * 50 + [2] * 9
    assert default_fit_kmax(degree_ccdf(degrees)) == 1
    degrees = [1] * 50 + [2] * 10 + [3] * 2
    assert default_fit_kmax(degree_ccdf(degrees)) == 2


def test_hill_estimate_recovers_planted_exponent():
    gamma = 2.5
    ks = list(range(1, 10001))
    weights = [k ** -gamma for k in ks]
    degrees = random.Random(7).choices(ks, weights=weights, k=20000)
    estimate = fit_power_law_mle(degrees, k_min=5)
    assert 2.3 <= estimate <= 2.7


def test_hill_estimate_input_validation():
    with pytest.raises(ParameterError):
        fit_power_law_mle([3, 4], k_min=0)
    with pytest.raises(InsufficientDataError):
        fit_power_law_mle([1, 2], k_min=10)


def test_clustering_hand_examples():
    triangle = UndirectedGraph(3, [(0, 1), (1, 2), (0, 2)])
    assert avg_clustering(triangle) == 1.0
    path3 = UndirectedGraph(3, [(0, 1), (1, 2)])
    assert avg_clustering(path3) == 0.0
    pendant = UndirectedGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert abs(avg_clustering(pendant) - 7 / 12) < 1e-15


def test_shortest_path_hand_examples():
    triangle = UndirectedGraph(3, [(0, 1), (1, 2), (0, 2)])
    assert avg_shortest_path(triangle) == 1.0
    cycle4 = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert abs(avg_shortest_path(cycle4) - 4 / 3) < 1e-15
    path3 = UndirectedGraph(3, [(0, 1), (1, 2)])
    assert abs(avg_shortest_path(path3) - 4 / 3) < 1e-15


def test_shortest_path_error_cases():
    with pytest.raises(ConnectivityError):
        avg_shortest_path(UndirectedGraph(4, [(0, 1), (2, 3)]))
    with pytest.raises(ParameterError):
        avg_shortest_path(UndirectedGraph(1))
    with pytest.raises(ParameterError):
        avg_shortest_path(UndirectedGraph(3, [(0, 1), (1, 2)]), sample_sources=0)


def test_shortest_path_rejects_a_bool_sample_count():
    # A bool is an int subclass; True must not read as one sampled source.
    path4 = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3)])
    for flag in (True, False):
        with pytest.raises(ParameterError, match="sample_sources must be ALL or a positive int"):
            avg_shortest_path(path4, flag)
    assert abs(avg_shortest_path(path4, 4) - 5 / 3) < 1e-15


def test_disconnected_graph_names_first_source_and_its_reach():
    graph = UndirectedGraph(5, [(0, 1), (2, 3), (3, 4)])
    with pytest.raises(ConnectivityError) as excinfo:
        avg_shortest_path(graph, ALL)
    assert str(excinfo.value) == "graph is disconnected: BFS from 0 reached 2 of 5 nodes"
    # Seed 0 samples sources [3, 4]: the first lies in the 3-node part.
    with pytest.raises(ConnectivityError) as excinfo:
        avg_shortest_path(graph, 2, seed=0)
    assert str(excinfo.value) == "graph is disconnected: BFS from 3 reached 3 of 5 nodes"


def test_sampled_paths_are_deterministic_and_cover_small_graphs():
    cycle4 = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    exact = avg_shortest_path(cycle4, ALL)
    assert avg_shortest_path(cycle4, 100, seed=5) == exact
    graph = generate(ModelParams(tree=TreeParams(500, 2.0, seed=1), activity=0.4, seed=2))
    _, giant = giant_component(undirected_projection(graph))
    a = avg_shortest_path(giant, 50, seed=9)
    b = avg_shortest_path(giant, 50, seed=9)
    assert a == b


def test_sampled_paths_converge_across_sampling_seeds():
    graph = generate(ModelParams(tree=TreeParams(5000, 2.0, seed=100), activity=0.4, seed=0))
    _, giant = giant_component(undirected_projection(graph))
    assert giant.node_count > 1000
    a = avg_shortest_path(giant, 200, seed=1)
    b = avg_shortest_path(giant, 200, seed=2)
    assert abs(a - b) / a <= 0.05


# The record entries a power-law fit fills in; all are None without one.
FIT_KEYS = ("gamma", "ccdf_slope", "r_squared", "fit_kmin", "fit_kmax")


def test_report_on_triangle():
    graph = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
    record = analyze_graph(graph)[0]
    assert [record[key] for key in FIT_KEYS] == [None] * len(FIT_KEYS)
    assert record["avg_clustering"] == 1.0
    assert record["avg_shortest_path"] == 1.0
    assert record["max_in_degree"] == 1
    assert record["giant_component_fraction"] == 1.0


def test_report_rejects_empty_graph():
    with pytest.raises(EmptyDistributionError):
        analyze_graph(DirectedGraph(3))


def test_report_rejects_fit_kmin_below_one():
    with pytest.raises(ParameterError):
        analyze_graph(DirectedGraph(3, [(0, 1), (1, 2), (2, 0)]), fit_kmin=0)


def test_rejected_analysis_leaves_the_graph_untouched():
    # analyze_graph rejects its options and an edgeless graph before it
    # hands the graph to the projection, which would leave it empty.
    triangle = [(0, 1), (1, 2), (2, 0)]
    cases = [
        (triangle, dict(fit_kmin=3, fit_kmax=2), ParameterError, "fit_kmax 2 is below fit_kmin 3"),
        (triangle, dict(fit_kmin=0), ParameterError, "k_min must be >= 1"),
        ([], {}, EmptyDistributionError, "all degrees are zero"),
    ]
    for edges, options, error, message in cases:
        graph = DirectedGraph(3, edges)
        offsets, targets = graph.offsets, graph.targets
        kept = (offsets.tolist(), targets.tolist())
        with pytest.raises(error, match=message):
            analyze_graph(graph, **options)
        assert graph.offsets is offsets and graph.targets is targets
        assert (offsets.tolist(), targets.tolist()) == kept
        assert list(graph.edges()) == edges
    with pytest.raises(ParameterError, match="fit_kmax 1 is below fit_kmin 2"):
        analyze_graph(DirectedGraph(3, triangle), fit_kmax=1)


def test_report_on_generated_network():
    graph = generate(ModelParams(tree=TreeParams(10000, 2.0, seed=100), activity=0.4, seed=0))
    max_in_degree = max(graph.in_degree)
    record = analyze_graph(graph)[0]
    assert None not in [record[key] for key in FIT_KEYS]
    assert record["r_squared"] >= 0.98
    assert record["giant_component_fraction"] > 0.5
    assert record["max_in_degree"] == max_in_degree


def test_fitted_values_are_the_same_on_every_python():
    # Since Python 3.12 sum() of floats is compensated; the fits sum left to
    # right, so these are the exact values on every supported version.
    params = ModelParams(TreeParams(2000, 2.0, seed=1), activity=0.4, seed=1)
    record, _ = analyze_graph(generate(params), path_samples=20)
    assert record["gamma"] == 2.001889762551939
    assert record["ccdf_slope"] == -1.0018897625519392
    assert record["r_squared"] == 0.9932793691639816
    assert record["gamma_mle"] == 1.741893216147024


def test_ccdf_file_format():
    buffer = io.StringIO()
    write_ccdf(degree_ccdf([1, 1, 2]), buffer)
    assert buffer.getvalue() == "1\t1\n2\t0.3333333333\n"


def test_report_text_format():
    text = format_report({"alpha": 1.0, "beta": None, "count": 3})
    assert text == "alpha = 1\nbeta = NA\ncount = 3\n"
