"""Reference generators: Poisson-degree null case and degree-proportional growth."""

from collections import Counter

import pytest
from scipy import stats

from hiddentree import (
    BaParams,
    ErParams,
    ParameterError,
    default_fit_kmax,
    degree_ccdf,
    fit_power_law,
    generate_ba,
    generate_er,
    giant_members,
)


def degrees_of(graph):
    return [len(nbrs) for nbrs in graph.neighbors]


def test_er_edge_probability_extremes():
    assert generate_er(ErParams(node_count=30, edge_probability=0.0, seed=1)).edge_count == 0
    complete = generate_er(ErParams(node_count=30, edge_probability=1.0, seed=1))
    assert complete.edge_count == 30 * 29 // 2
    assert all(len(nbrs) == 29 for nbrs in complete.neighbors)


def test_er_determinism_and_seed_sensitivity():
    a = generate_er(ErParams(node_count=200, edge_probability=0.05, seed=3))
    b = generate_er(ErParams(node_count=200, edge_probability=0.05, seed=3))
    c = generate_er(ErParams(node_count=200, edge_probability=0.05, seed=4))
    assert [list(r) for r in a.neighbors] == [list(r) for r in b.neighbors]
    assert [list(r) for r in a.neighbors] != [list(r) for r in c.neighbors]


def test_er_degree_variance_matches_mean():
    graph = generate_er(ErParams(node_count=5000, edge_probability=0.002, seed=11))
    degrees = degrees_of(graph)
    mean = sum(degrees) / len(degrees)
    variance = sum((d - mean) ** 2 for d in degrees) / len(degrees)
    assert 0.9 <= variance / mean <= 1.1


def test_er_degrees_pass_binomial_goodness_of_fit():
    n = 5000
    p = 0.002
    graph = generate_er(ErParams(node_count=n, edge_probability=p, seed=11))
    counts = Counter(degrees_of(graph))
    model = stats.binom(n - 1, p)
    k_top = max(counts)
    observed = [counts.get(k, 0) for k in range(k_top + 1)]
    expected = [n * model.pmf(k) for k in range(k_top)]
    expected.append(n * model.sf(k_top - 1))
    # Merge adjacent bins until every expected count is large enough.
    obs_bins, exp_bins = [], []
    acc_obs = acc_exp = 0.0
    for obs, exp in zip(observed, expected):
        acc_obs += obs
        acc_exp += exp
        if acc_exp >= 5:
            obs_bins.append(acc_obs)
            exp_bins.append(acc_exp)
            acc_obs = acc_exp = 0.0
    obs_bins[-1] += acc_obs
    exp_bins[-1] += acc_exp
    _, p_value = stats.chisquare(obs_bins, exp_bins)
    assert p_value > 1e-3


def test_ba_final_node_connects_to_every_seed():
    graph = generate_ba(BaParams(node_count=5, edges_per_new_node=4, seed_size=4, seed=2))
    assert sorted(graph.neighbors[4]) == [0, 1, 2, 3]


def test_ba_edge_count_formula():
    params = BaParams(node_count=200, edges_per_new_node=3, seed_size=5, seed=6)
    graph = generate_ba(params)
    assert graph.edge_count == 5 * 4 // 2 + (200 - 5) * 3


def test_ba_defaults_seed_size_to_attachment_count():
    params = BaParams(node_count=50, edges_per_new_node=2, seed=1)
    assert params.seed_size == 2
    graph = generate_ba(params)
    assert graph.edge_count == 1 + 48 * 2


def test_ba_single_node_seed_starts_from_an_empty_urn():
    # With one edge per arrival the seed is one node and no edge, so the
    # first arrival has no endpoint to draw from: the result is a tree.
    params = BaParams(node_count=50, edges_per_new_node=1, seed=3)
    graph = generate_ba(params)
    assert graph.edge_count == 49
    assert len(giant_members(graph)) == 50
    again = generate_ba(params)
    assert [list(r) for r in again.neighbors] == [list(r) for r in graph.neighbors]


def test_ba_determinism():
    a = generate_ba(BaParams(node_count=300, edges_per_new_node=2, seed=9))
    b = generate_ba(BaParams(node_count=300, edges_per_new_node=2, seed=9))
    assert [list(r) for r in a.neighbors] == [list(r) for r in b.neighbors]


def test_ba_degree_distribution_fits_known_exponent():
    graph = generate_ba(BaParams(node_count=10000, edges_per_new_node=2, seed=7))
    ccdf = degree_ccdf(degrees_of(graph))
    fit = fit_power_law(ccdf, 2, default_fit_kmax(ccdf))
    assert -2.3 <= fit.ccdf_slope <= -1.7


def test_parameter_validation():
    with pytest.raises(ParameterError):
        ErParams(node_count=0, edge_probability=0.5)
    with pytest.raises(ParameterError):
        ErParams(node_count=5, edge_probability=1.5)
    with pytest.raises(ParameterError):
        ErParams(node_count=5, edge_probability=-0.1)
    with pytest.raises(ParameterError):
        BaParams(node_count=10, edges_per_new_node=0)
    with pytest.raises(ParameterError):
        BaParams(node_count=10, edges_per_new_node=5, seed_size=3)
    with pytest.raises(ParameterError):
        BaParams(node_count=5, edges_per_new_node=2, seed_size=5)


@pytest.mark.parametrize("node_count", [0, 2**31])
def test_node_counts_that_ids_cannot_hold_are_rejected_at_construction(node_count):
    # Only the parameter objects are built: no generator runs.
    with pytest.raises(ParameterError, match="node_count must be"):
        ErParams(node_count=node_count, edge_probability=0.5)
    with pytest.raises(ParameterError, match="node_count must be"):
        BaParams(node_count=node_count, edges_per_new_node=2)
