"""Directed network generation over a latent tree hierarchy, plus the
measurement tools (degree CCDF, power-law fit, clustering, path lengths)
and reference generators needed to study the resulting graphs."""

from .baselines import BaParams, ErParams, generate_ba, generate_er
from .errors import (
    ConnectivityError,
    EdgeListFormatError,
    EmptyDistributionError,
    InsufficientDataError,
    ParameterError,
)
from .generator import (
    GenerationTrace,
    ModelParams,
    Variant,
    derive_seed,
    generate,
    generate_with_trace,
)
from .graph import (
    DirectedGraph,
    UndirectedGraph,
    giant_component,
    giant_members,
    read_edge_list,
    undirected_projection,
    write_edge_list,
)
from .hidden_tree import HiddenTree, TreeParams, build_tree, lca, path_between, write_tree_dump
from .metrics import (
    ALL,
    Ccdf,
    GraphAnalysis,
    MetricsReport,
    PowerLawFit,
    analyze_graph,
    avg_clustering,
    avg_shortest_path,
    compute_report,
    default_fit_kmax,
    degree_ccdf,
    fit_power_law,
    fit_power_law_mle,
    format_report,
    report_to_dict,
    write_ccdf,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ALL",
    "BaParams",
    "Ccdf",
    "ConnectivityError",
    "DirectedGraph",
    "EdgeListFormatError",
    "EmptyDistributionError",
    "ErParams",
    "GenerationTrace",
    "GraphAnalysis",
    "HiddenTree",
    "InsufficientDataError",
    "MetricsReport",
    "ModelParams",
    "ParameterError",
    "PowerLawFit",
    "TreeParams",
    "UndirectedGraph",
    "Variant",
    "analyze_graph",
    "avg_clustering",
    "avg_shortest_path",
    "build_tree",
    "compute_report",
    "default_fit_kmax",
    "degree_ccdf",
    "derive_seed",
    "fit_power_law",
    "fit_power_law_mle",
    "format_report",
    "generate",
    "generate_ba",
    "generate_er",
    "generate_with_trace",
    "giant_component",
    "giant_members",
    "lca",
    "path_between",
    "read_edge_list",
    "report_to_dict",
    "undirected_projection",
    "write_ccdf",
    "write_edge_list",
    "write_tree_dump",
]
