"""Directed network generation over a latent tree hierarchy, plus the
measurement tools (degree CCDF, power-law fit, clustering, path lengths)
needed to study the resulting graphs.

Every exported name is resolved from its submodule on first use and then
kept on the package, so ``import hiddentree`` loads none of them. Each
command of the CLI loads only the modules it runs, when it runs
them: ``--version`` loads ``cli`` and ``errors``, ``export-dot`` adds
``graph``, ``analyze`` adds ``graph`` and ``metrics``, ``generate`` adds
``generator``, ``hidden_tree`` and ``graph``, and ``sweep`` adds all four;
between them the commands load every module of the package."""

import importlib

__version__ = "0.1.0"

# exported name -> submodule that defines it
_EXPORTS = {
    "ConnectivityError": "errors",
    "EdgeListFormatError": "errors",
    "EmptyDistributionError": "errors",
    "InsufficientDataError": "errors",
    "ParameterError": "errors",
    "GenerationTrace": "generator",
    "ModelParams": "generator",
    "Variant": "generator",
    "derive_seed": "generator",
    "generate": "generator",
    "generate_with_counts": "generator",
    "generate_with_trace": "generator",
    "DirectedGraph": "graph",
    "UndirectedGraph": "graph",
    "giant_component": "graph",
    "giant_members": "graph",
    "project_in_place": "graph",
    "read_edge_list": "graph",
    "undirected_projection": "graph",
    "write_edge_list": "graph",
    "HiddenTree": "hidden_tree",
    "TreeParams": "hidden_tree",
    "build_tree": "hidden_tree",
    "lca": "hidden_tree",
    "write_tree_dump": "hidden_tree",
    "ALL": "metrics",
    "Ccdf": "metrics",
    "MetricsReport": "metrics",
    "PowerLawFit": "metrics",
    "analyze_graph": "metrics",
    "avg_clustering": "metrics",
    "avg_shortest_path": "metrics",
    "default_fit_kmax": "metrics",
    "degree_ccdf": "metrics",
    "fit_power_law": "metrics",
    "fit_power_law_mle": "metrics",
    "format_report": "metrics",
    "report_to_dict": "metrics",
    "write_ccdf": "metrics",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def _exports(module):
    """The ``__all__`` of the submodule named ``module``: the names this
    table exports from it, so the table is their one record."""
    owner = module.rpartition(".")[2]
    return [name for name, source in _EXPORTS.items() if source == owner]


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
