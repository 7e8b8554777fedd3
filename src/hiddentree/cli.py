"""Command-line front end: single runs, parameter sweeps, and file exports.

Subcommands:
  generate    build one network and write its edge list plus a run manifest
  analyze     read an edge list, write a metrics report and CCDF data file
  sweep       run a replicated parameter sweep into an output directory
  export-dot  write the giant component (or full projection) as a DOT file

Every flag can also be supplied through ``--config FILE`` (simple
``key = value`` lines); flags given on the command line win over the file.

Exit codes: 0 success, 1 usage or parameter error, 2 I/O error,
3 analysis error (malformed or degenerate input data).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from bisect import bisect_right
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Iterator, Optional, Sequence, TextIO

from . import __version__
from .errors import (
    ConnectivityError,
    EdgeListFormatError,
    EmptyDistributionError,
    InsufficientDataError,
    ParameterError,
)
from .generator import ModelParams, Variant, derive_seed, generate
from .graph import giant_members, project_in_place, read_edge_list, write_edge_list
from .hidden_tree import TreeParams, build_tree, write_tree_dump
from .metrics import (
    ALL,
    analyze_graph,
    check_fit_range,
    format_field,
    format_report,
    write_ccdf,
)

__all__ = ["main", "run", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_ANALYSIS = 3

_SWEEP_KINDS = ("nodes", "branching", "activity")

# summary.tsv column after value and replicate -> report record key
_SUMMARY_COLUMNS = {
    "gamma": "gamma",
    "r_squared": "r_squared",
    "avg_clustering": "avg_clustering",
    "avg_shortest_path": "avg_shortest_path",
    "max_in_degree": "max_in_degree",
    "giant_fraction": "giant_component_fraction",
}

_BOOL_WORDS = {
    "true": True,
    "yes": True,
    "1": True,
    "false": False,
    "no": False,
    "0": False,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _path_samples_arg(text: str):
    return ALL if text == "all" else _positive_int(text)


def _fit_kmax_arg(text: str):
    if text == "auto":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {text!r}"
        ) from None


def _values_arg(text: str) -> list[str]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise argparse.ArgumentTypeError("expected a comma-separated list of values")
    return items


def _add_config_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        metavar="FILE",
        help="key=value file supplying defaults for any flag of this subcommand",
    )


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, help="number of nodes N")
    parser.add_argument("--branching", type=float, help="average children per tree node")
    parser.add_argument(
        "--activity", type=float, help="expected destination selections per active node"
    )
    parser.add_argument("--seed", type=int, default=0, help="selection RNG master seed")
    parser.add_argument(
        "--tree-seed", type=int, default=None, help="tree construction seed (default: --seed)"
    )
    parser.add_argument(
        "--variant",
        choices=("all", "leaf"),
        default="all",
        help="which nodes select destinations: every node, or leaves only",
    )
    parser.add_argument(
        "--include-tree-edges",
        action="store_true",
        help="seed the graph with every tree edge in both directions",
    )


def _add_fit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fit-kmin", type=_positive_int, default=2, help="lower degree bound of the power-law fit"
    )
    parser.add_argument(
        "--fit-kmax",
        type=_fit_kmax_arg,
        default=None,
        metavar="K|auto",
        help="upper degree bound of the fit; 'auto' stops before the finite-size cutoff",
    )
    parser.add_argument(
        "--path-samples",
        type=_path_samples_arg,
        default=200,
        metavar="N|all",
        help="BFS sources for the average-shortest-path estimate",
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="hiddentree",
        description="Generate tree-closure networks and measure their degree "
        "distributions and small-world statistics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subcommands = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = subcommands.add_parser(
        "generate", help="generate one network and write its edge list"
    )
    _add_config_flag(p)
    _add_model_flags(p)
    p.add_argument("--tree-dump", metavar="PATH", help="also write node/parent/depth lines")
    p.add_argument("--out", metavar="PATH", help="edge-list output path")
    p.set_defaults(handler=_cmd_generate)

    p = subcommands.add_parser(
        "analyze", help="compute metrics and CCDF data for an edge-list file"
    )
    p.add_argument("edge_list", metavar="EDGELIST", help="edge-list file to analyze")
    _add_config_flag(p)
    _add_fit_flags(p)
    p.add_argument(
        "--out",
        metavar="STEM",
        help="output stem for .report.txt/.report.json/.ccdf.tsv (default: input stem)",
    )
    p.set_defaults(handler=_cmd_analyze)

    p = subcommands.add_parser(
        "sweep", help="run one parameter sweep with replicates into a directory"
    )
    _add_config_flag(p)
    p.add_argument(
        "--kind", choices=_SWEEP_KINDS, help="which model parameter the sweep varies"
    )
    p.add_argument(
        "--values",
        type=_values_arg,
        metavar="V1,V2,...",
        help="comma-separated list of swept values",
    )
    p.add_argument(
        "--replicates", type=_positive_int, default=1, help="independent runs per swept value"
    )
    _add_model_flags(p)
    _add_fit_flags(p)
    p.add_argument(
        "--jobs", type=_positive_int, default=1, help="worker processes for sweep points"
    )
    p.add_argument(
        "--keep-edges",
        action="store_true",
        help="also write the edge list of every run",
    )
    p.add_argument("--out", metavar="DIR", help="output directory")
    p.set_defaults(handler=_cmd_sweep)

    p = subcommands.add_parser(
        "export-dot", help="write a component of an edge-list file as undirected DOT"
    )
    p.add_argument("edge_list", metavar="EDGELIST", help="edge-list file to export")
    _add_config_flag(p)
    p.add_argument(
        "--component",
        choices=("giant", "full"),
        default="giant",
        help="export only the giant component or the whole projection",
    )
    p.add_argument("--out", metavar="PATH", help="DOT output path (default: input stem + .dot)")
    p.set_defaults(handler=_cmd_export_dot)

    return parser


def _read_config(path: Path) -> dict[str, str]:
    entries: dict[str, str] = {}
    key_lines: dict[str, int] = {}
    with path.open() as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            key, sep, value = text.partition("=")
            if not sep:
                raise ParameterError(f"{path}, line {line_no}: expected key=value")
            key = key.strip().replace("-", "_")
            if key in key_lines:
                raise ParameterError(
                    f"{path}, line {line_no}: config key {key!r} "
                    f"is already given on line {key_lines[key]}"
                )
            key_lines[key] = line_no
            entries[key] = value.strip()
    return entries


def _config_tokens(args: argparse.Namespace) -> list[str]:
    """Turn the entries of ``args.config`` into flag tokens for the
    subcommand ``args`` was parsed for; argparse converts and checks
    their values when the tokens are parsed."""
    tokens = []
    for key, raw in _read_config(Path(args.config)).items():
        if key in ("command", "handler", "config", "edge_list") or key not in vars(args):
            raise ParameterError(f"unknown config key {key!r}")
        flag = "--" + key.replace("_", "-")
        if isinstance(getattr(args, key), bool):
            word = raw.lower()
            if word not in _BOOL_WORDS:
                raise ParameterError(f"config key {key!r} expects a boolean, got {raw!r}")
            if _BOOL_WORDS[word]:
                tokens.append(flag)
        else:
            tokens.append(f"{flag}={raw}")
    return tokens


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [
        "--" + name.replace("_", "-") for name in names if getattr(args, name) is None
    ]
    if missing:
        raise ParameterError("missing required option(s): " + ", ".join(missing))


def _tree_seed(args: argparse.Namespace) -> int:
    return args.seed if args.tree_seed is None else args.tree_seed


def _model_params(
    args: argparse.Namespace,
    seed: int,
    tree_seed: int,
    nodes: int,
    branching: float,
    activity: float,
) -> ModelParams:
    return ModelParams(
        tree=TreeParams(node_count=nodes, branching=branching, seed=tree_seed),
        activity=activity,
        seed=seed,
        variant=Variant(args.variant),
        include_tree_edges=args.include_tree_edges,
    )


def _params_echo(params: ModelParams) -> dict:
    return {
        "nodes": params.tree.node_count,
        "branching": params.tree.branching,
        "activity": params.activity,
        "seed": params.seed,
        "tree_seed": params.tree.seed,
        "variant": params.variant.value,
        "include_tree_edges": params.include_tree_edges,
    }


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


@contextmanager
def _atomic_open(path: Path) -> Iterator[TextIO]:
    """Open a temp file beside ``path`` for writing; it replaces ``path``
    only once the block completes, and is removed if the block fails, so
    no output is ever seen half written. The temp name carries the process
    id, which is enough: each process writes from one thread, and no two
    sweep runs share a tag, so no two writers share a path."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_text(path: Path, text: str) -> None:
    with _atomic_open(path) as fh:
        fh.write(text)


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _check_outputs(args: argparse.Namespace, *outputs: Path) -> None:
    """Raise ParameterError, before anything is written, if an output path
    resolves to an input file of ``args`` or to another output."""
    inputs = [getattr(args, name, None) for name in ("edge_list", "config")]
    seen = {Path(path).resolve(): "an input" for path in inputs if path}
    for path in outputs:
        key = path.resolve()
        if key in seen:
            raise ParameterError(f"output path {path} is also {seen[key]}")
        seen[key] = "another output"


def _format_value(value) -> str:
    if isinstance(value, int):
        return str(value)
    return format(value, "g")


def _cmd_generate(args: argparse.Namespace) -> int:
    _require(args, "nodes", "branching", "activity", "out")
    params = _model_params(
        args, args.seed, _tree_seed(args), args.nodes, args.branching, args.activity
    )
    out_path = Path(args.out)
    manifest_path = Path(str(out_path) + ".manifest.json")
    paths = [out_path, manifest_path]
    if args.tree_dump:
        dump_path = Path(args.tree_dump)
        # The manifest names its outputs by file name.
        if dump_path.name in (out_path.name, manifest_path.name):
            raise ParameterError(f"--tree-dump {dump_path} has the file name of another output")
        paths.append(dump_path)
    _check_outputs(args, *paths)
    tree = build_tree(params.tree)
    graph = generate(params, tree=tree)
    # The manifest is written last: one left from an earlier run must not
    # describe outputs this run replaces.
    manifest_path.unlink(missing_ok=True)
    with _atomic_open(out_path) as fh:
        write_edge_list(graph, fh)
    outputs = {out_path.name: _sha256(out_path)}
    if args.tree_dump:
        with _atomic_open(dump_path) as fh:
            write_tree_dump(tree, fh)
        outputs[dump_path.name] = _sha256(dump_path)
    manifest = {
        "command": "generate",
        "version": __version__,
        "params": _params_echo(params),
        "outputs": outputs,
    }
    _write_json(manifest_path, manifest)
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    in_path = Path(args.edge_list)
    stem = Path(args.out) if args.out else in_path.with_suffix("")
    txt_path, json_path, ccdf_path = (
        Path(f"{stem}.{suffix}") for suffix in ("report.txt", "report.json", "ccdf.tsv")
    )
    _check_outputs(args, txt_path, json_path, ccdf_path)

    def load_graph():
        with in_path.open() as fh:
            return read_edge_list(fh)

    analysis = analyze_graph(
        load_graph,
        fit_kmin=args.fit_kmin,
        fit_kmax=args.fit_kmax,
        path_samples=args.path_samples,
    )
    text = format_report(analysis.record)
    _write_text(txt_path, text)
    _write_json(json_path, analysis.record)
    with _atomic_open(ccdf_path) as fh:
        write_ccdf(analysis.ccdf, fh)
    sys.stdout.write(text)
    return EXIT_OK


def _run_files(tag: str, keep_edges: bool) -> list[str]:
    """The names of the files one sweep run writes: its CCDF and, with
    ``keep_edges``, its edge list."""
    files = [f"ccdf_{tag}.tsv"]
    if keep_edges:
        files.append(f"edges_{tag}.csv")
    return files


def _run_point(
    params: ModelParams,
    tag: str,
    out_dir: Path,
    keep_edges: bool,
    fit_kmin: int,
    fit_kmax: Optional[int],
    path_samples,
) -> dict:
    """Generate and analyze one sweep run, and write its
    :func:`_run_files` into ``out_dir``. Returns the run's report record.
    It is a module function of plain arguments, so a worker process can
    run it."""
    files = _run_files(tag, keep_edges)

    def load_graph():
        graph = generate(params)
        if keep_edges:
            with _atomic_open(out_dir / files[1]) as fh:
                write_edge_list(graph, fh)
        return graph

    analysis = analyze_graph(
        load_graph, fit_kmin=fit_kmin, fit_kmax=fit_kmax, path_samples=path_samples
    )
    with _atomic_open(out_dir / files[0]) as fh:
        write_ccdf(analysis.ccdf, fh)
    return analysis.record


def _cmd_sweep(args: argparse.Namespace) -> int:
    _require(args, "kind", "values", "out")
    check_fit_range(args.fit_kmin, args.fit_kmax)

    fixed = {"nodes": args.nodes, "branching": args.branching, "activity": args.activity}
    if fixed[args.kind] is not None:
        raise ParameterError(
            f"--{args.kind} is the swept parameter; give its values via --values"
        )
    needed = [name for name in _SWEEP_KINDS if name != args.kind]
    _require(args, *needed)

    try:
        if args.kind == "nodes":
            values = [int(v) for v in args.values]
        else:
            values = [float(v) for v in args.values]
    except ValueError:
        raise ParameterError(
            f"sweep values for --kind {args.kind} must be numeric: {args.values}"
        ) from None
    # A run's files are named by its printed value, so two values that
    # print alike would write the same files.
    printed = [_format_value(value) for value in values]
    for text in printed:
        if printed.count(text) > 1:
            raise ParameterError(f"sweep value {text} is given more than once in --values")

    # Every run's parameters are checked before any file is written.
    base_tree_seed = _tree_seed(args)
    runs = []
    for value in sorted(values):
        point = dict(fixed, **{args.kind: value})
        for replicate in range(args.replicates):
            seed = derive_seed(args.seed, replicate)
            tree_seed = derive_seed(base_tree_seed, replicate)
            params = _model_params(args, seed, tree_seed, **point)
            runs.append((value, replicate, params))

    out_dir = Path(args.out)
    manifest_path = out_dir / "manifest.json"
    summary_path = out_dir / "summary.tsv"
    tags = [f"{args.kind}={_format_value(value)}_rep{r}" for value, r, _ in runs]
    run_files = [name for tag in tags for name in _run_files(tag, args.keep_edges)]
    _check_outputs(
        args, out_dir, manifest_path, summary_path, *(out_dir / name for name in run_files)
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path.unlink(missing_ok=True)

    run_point = partial(
        _run_point,
        out_dir=out_dir,
        keep_edges=args.keep_edges,
        fit_kmin=args.fit_kmin,
        fit_kmax=args.fit_kmax,
        path_samples=args.path_samples,
    )
    all_params = [params for _, _, params in runs]
    workers = min(args.jobs, len(runs))
    if workers == 1:
        results = list(map(run_point, all_params, tags))
    else:
        # Processes, not threads: a run is pure-Python work under the GIL.
        # Spawned workers start from a fresh import on every platform.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        spawn = get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            results = list(pool.map(run_point, all_params, tags))

    lines = ["\t".join(["value", "replicate", *_SUMMARY_COLUMNS])]
    for (value, replicate, _), record in zip(runs, results):
        fields = [format_field(record[key]) for key in _SUMMARY_COLUMNS.values()]
        lines.append("\t".join([_format_value(value), str(replicate), *fields]))
    _write_text(summary_path, "\n".join(lines) + "\n")

    file_names = sorted(run_files)
    file_names.append(summary_path.name)
    manifest = {
        "command": "sweep",
        "version": __version__,
        "config": {
            "kind": args.kind,
            "values": values,
            "replicates": args.replicates,
            **{name: fixed[name] for name in needed},
            "seed": args.seed,
            "tree_seed": base_tree_seed,
            "variant": args.variant,
            "include_tree_edges": args.include_tree_edges,
            "fit_kmin": args.fit_kmin,
            "fit_kmax": "auto" if args.fit_kmax is None else args.fit_kmax,
            "path_samples": args.path_samples,
        },
        "runs": [
            {
                "value": value,
                "replicate": replicate,
                "seed": params.seed,
                "tree_seed": params.tree.seed,
            }
            for value, replicate, params in runs
        ],
        "outputs": {name: _sha256(out_dir / name) for name in file_names},
    }
    _write_json(manifest_path, manifest)
    return EXIT_OK


def _cmd_export_dot(args: argparse.Namespace) -> int:
    in_path = Path(args.edge_list)
    out_path = Path(args.out) if args.out else in_path.with_suffix(".dot")
    _check_outputs(args, out_path)
    with in_path.open() as fh:
        projection = project_in_place(read_edge_list(fh))
    neighbors = projection.neighbors
    if args.component == "giant":
        members = giant_members(projection)
    else:
        members = range(len(neighbors))
    with _atomic_open(out_path) as fh:
        fh.write("graph g {\n")
        fh.writelines(f"  {node};\n" for node in members)
        # A component is closed under adjacency, so a member's higher
        # neighbours are exactly its edges to later members.
        for u in members:
            nbrs = neighbors[u]
            higher = nbrs[bisect_right(nbrs, u):]
            if higher:
                prefix = f"  {u} -- "
                fh.write(prefix + f";\n{prefix}".join(map(str, higher)) + ";\n")
        fh.write("}\n")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # Config entries go right after the subcommand, so the flags
            # given after them on the command line win.
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_tokens(args) + argv[at:])
        return args.handler(args)
    except SystemExit as exc:
        # argparse --help/--version (0) and usage errors (1) land here.
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except ParameterError as exc:
        print(f"hiddentree: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EmptyDistributionError, InsufficientDataError, ConnectivityError, EdgeListFormatError) as exc:
        print(f"hiddentree: error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except OSError as exc:
        print(f"hiddentree: error: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    sys.exit(main())
