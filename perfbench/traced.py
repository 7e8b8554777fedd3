"""Traced library pass for one benchmark command, run in its own process.

Usage: ``python3 perfbench/traced.py SRC_DIR REQUEST_JSON RESULT_PATH``

The request names one operation (``generate``, ``analyze``, ``export_dot``
or ``probe``). The first three call the public ``hiddentree``
functions in the order the matching CLI command calls them, with a span
around each call; ``probe`` times ``build_tree`` and takes the work counts
from an untimed ``generate_with_trace``. Spans and the values needed to
cross-check the CLI's outputs are written as JSON to RESULT_PATH when the
pass ends. One process per command keeps each ``maxrss_after_mb`` figure as
separate as the CLI's own processes are.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """In-memory spans: id, name, start, end, parent, and maxrss at the end."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list = [None]

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
                  "end": None, "parent": self._stack[-1]}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()
            record["maxrss_after_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )


def _model(ht, spec: dict):
    return ht.ModelParams(
        tree=ht.TreeParams(node_count=spec["nodes"], branching=spec["branching"],
                           seed=spec["seed"]),
        activity=spec["activity"],
        seed=spec["seed"],
    )


def _analyze_graph(ht, t: Tracer, graph, req: dict) -> dict:
    """compute_report's steps, one span each, plus the work counts."""
    with t.span("metrics.degree_ccdf"):
        in_degrees = list(graph.in_degree)
        ccdf = ht.degree_ccdf(in_degrees)
    with t.span("metrics.fit"):
        kmax = ht.default_fit_kmax(ccdf) if req["fit_kmax"] is None else req["fit_kmax"]
        try:
            fit = ht.fit_power_law(ccdf, req["fit_kmin"], kmax)
        except ht.InsufficientDataError:
            fit = None
    with t.span("graph.undirected_projection"):
        projection = ht.undirected_projection(graph)
    with t.span("graph.giant_component"):
        members, giant = ht.giant_component(projection)
    with t.span("metrics.avg_clustering"):
        clustering = ht.avg_clustering(giant)
    with t.span("metrics.avg_shortest_path"):
        path_len = ht.avg_shortest_path(giant, req["path_samples"], 0)
    report = ht.MetricsReport(
        fit=fit,
        avg_clustering=clustering,
        avg_shortest_path=path_len,
        giant_component_fraction=len(members) / graph.node_count,
        max_in_degree=max(in_degrees),
    )
    degrees = [len(nbrs) for nbrs in giant.neighbors]
    samples = req["path_samples"]
    sources = len(degrees) if samples == "all" else min(samples, len(degrees))
    return {
        "report": ht.report_to_dict(report),
        "counts": {
            "giant_nodes": len(members),
            "giant_edges": sum(degrees) // 2,
            "wedges": sum(d * (d - 1) // 2 for d in degrees),
            "bfs_arc_scans": sources * sum(degrees),
        },
    }


def op_generate(ht, t: Tracer, req: dict) -> dict:
    params = _model(ht, req["model"])
    with t.span("generator.generate"):
        graph = ht.generate(params)
    with t.span("graph.write_edge_list"):
        with open(req["out"], "w") as fh:
            ht.write_edge_list(graph, fh)
    if req.get("tree_dump"):
        with t.span("hidden_tree.build_tree"):
            tree = ht.build_tree(params.tree)
        with t.span("hidden_tree.write_tree_dump"):
            with open(req["tree_dump"], "w") as fh:
                ht.write_tree_dump(tree, fh)
    return {"edges": graph.edge_count}


def op_analyze(ht, t: Tracer, req: dict) -> dict:
    with t.span("graph.read_edge_list"):
        with open(req["edge_list"]) as fh:
            graph = ht.read_edge_list(fh)
    with t.span("metrics.degree_ccdf"):
        in_degrees = list(graph.in_degree)
        ccdf = ht.degree_ccdf(in_degrees)
    result = _analyze_graph(ht, t, graph, req)
    values = {"nodes": graph.node_count, "edges": graph.edge_count, **result["report"]}
    with t.span("metrics.fit"):
        try:
            values["gamma_mle"] = ht.fit_power_law_mle(in_degrees, req["fit_kmin"])
        except ht.InsufficientDataError:
            values["gamma_mle"] = None
    with t.span("metrics.format_report"):
        ht.format_report(values)
    with t.span("metrics.write_ccdf"):
        with open(req["ccdf_out"], "w") as fh:
            ht.write_ccdf(ccdf, fh)
    return {"values": values, "counts": result["counts"]}


def op_export_dot(ht, t: Tracer, req: dict) -> dict:
    with t.span("graph.read_edge_list"):
        with open(req["edge_list"]) as fh:
            graph = ht.read_edge_list(fh)
    with t.span("graph.undirected_projection"):
        projection = ht.undirected_projection(graph)
    with t.span("graph.giant_component"):
        members, giant = ht.giant_component(projection)
    return {"counts": {"giant_nodes": len(members), "giant_edges": giant.edge_count}}


def op_probe(ht, t: Tracer, req: dict) -> dict:
    """Tree build time and the model's work counts."""
    params = _model(ht, req["model"])
    with t.span("hidden_tree.build_tree"):
        tree = ht.build_tree(params.tree)
    graph, trace = ht.generate_with_trace(params)
    depth = tree.depth
    selections = sum(trace.selection_counts)
    kept = sum(len(dests) for dests in trace.destinations)
    # A kept draw tries to link its destination and every node strictly
    # between source and destination: tree-path length minus one.
    attempted = sum(
        depth[src] + depth[dst] - 2 * depth[ht.lca(tree, src, dst)]
        for src, dests in enumerate(trace.destinations)
        for dst in dests
    )
    return {"counts": {
        "depth": max(depth),
        "selections": selections,
        "self_draws_discarded": selections - kept,
        "closure_edges": trace.closure_edges_added,
        "edges": graph.edge_count,
        "closure_inserts_attempted": attempted,
    }}


OPS = {
    "generate": op_generate,
    "analyze": op_analyze,
    "export_dot": op_export_dot,
    "probe": op_probe,
}


def main(argv: list[str]) -> int:
    src_dir, request, result_path = argv
    sys.path.insert(0, src_dir)
    import hiddentree as ht

    loaded_from = Path(ht.__file__).resolve()
    if Path(src_dir).resolve() not in loaded_from.parents:
        print(f"traced: hiddentree loaded from {loaded_from}, not {src_dir}", file=sys.stderr)
        return 2
    req = json.loads(request)
    tracer = Tracer()
    result = OPS[req["op"]](ht, tracer, req)
    result["spans"] = tracer.spans
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
