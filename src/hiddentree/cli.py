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
import errno
import os
import sys
from bisect import bisect_right
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, TextIO

from . import __version__
from .errors import (
    ConnectivityError,
    EdgeListFormatError,
    EmptyDistributionError,
    InsufficientDataError,
    ParameterError,
)

# The model and analysis modules are imported inside the functions that
# run them, so each command loads only what it runs: --version loads none
# of them, export-dot only graph, analyze graph and metrics.
if TYPE_CHECKING:
    from .generator import ModelParams

__all__ = ["main", "run", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_ANALYSIS = 3

_SWEEP_KINDS = ("nodes", "branching", "activity")

# Edge lines per % format of export-dot: a slice's text, tuple and int
# objects are all a long row holds at a time.
_DOT_SLICE = 4096

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


def _int_at_least(minimum: int, text: str, below: Optional[int] = None) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
    if below is not None and value >= below:
        raise argparse.ArgumentTypeError(f"must be < {below}, got {value}")
    return value


_positive_int = partial(_int_at_least, 1)
_seed_int = partial(_int_at_least, 0, below=1 << 64)  # derive_seed reads 64 bits


def _path_samples_arg(text: str):
    from .metrics import ALL

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
    items = [piece.strip() for piece in text.split(",")]
    if not all(items):
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of values with no empty item, got {text!r}"
        )
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
    parser.add_argument("--seed", type=_seed_int, default=0, help="selection RNG master seed")
    parser.add_argument(
        "--tree-seed", type=_seed_int, default=None, help="tree construction seed (default: --seed)"
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def _open_input(path: Path) -> TextIO:
    """Open a text input (an edge list or a config file) as UTF-8. A byte
    that is not UTF-8 reads as a lone surrogate, which the readers reject
    as a malformed line, naming it, rather than failing to decode it."""
    return path.open(encoding="utf-8", errors="surrogateescape")


def _read_config(path: Path) -> dict[str, str]:
    entries: dict[str, str] = {}
    key_lines: dict[str, int] = {}
    with _open_input(path) as fh:
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
    from .generator import ModelParams, Variant
    from .hidden_tree import TreeParams

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
    # Imported here: hashlib loads OpenSSL, and only generate and sweep
    # take digests.
    import hashlib

    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
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
        fh = tmp.open("w")
    except OSError as exc:
        # Name the output the user asked for, not the hidden temp file.
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_text(path: Path, text: str) -> None:
    with _atomic_open(path) as fh:
        fh.write(text)


def _json_text(payload: dict) -> str:
    import json

    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_manifest(path: Path, command: str, outputs: Sequence[Path], **fields) -> None:
    """Write the manifest of a ``command`` run: its ``fields``, the
    package version and the sha256 digest of each of ``outputs``, keyed by
    file name. It is written last, once every output is complete."""
    digests = {output.name: _sha256(output) for output in outputs}
    payload = {"command": command, "version": __version__, **fields, "outputs": digests}
    _write_text(path, _json_text(payload))


def _check_outputs(args: argparse.Namespace, *outputs: Path, check_dirs: bool = True) -> None:
    """Raise ParameterError, before anything is written, if an output path
    resolves to an input file of ``args`` or to another output. With
    ``check_dirs``, then run :func:`_check_dirs` on the outputs."""
    inputs = [getattr(args, name, None) for name in ("edge_list", "config")]
    seen = {Path(path).resolve(): "an input" for path in inputs if path}
    for path in outputs:
        key = path.resolve()
        if key in seen:
            raise ParameterError(f"output path {path} is also {seen[key]}")
        seen[key] = "another output"
    if check_dirs:
        _check_dirs(*outputs)


def _check_dirs(*outputs: Path) -> None:
    """Raise the OSError that writing an output would end in if its
    directory is missing or it is a directory, naming the output as
    given."""
    for path in outputs:
        try:
            # The trailing separator fails the stat unless the parent is a
            # directory: ENOENT if it is missing, ENOTDIR if it is a file.
            os.stat(os.path.join(path.parent, ""))
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        if path.is_dir():
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))


def _format_value(value) -> str:
    if isinstance(value, int):
        return str(value)
    return format(value, "g")


def _cmd_generate(args: argparse.Namespace) -> int:
    from .generator import generate_with_counts
    from .graph import write_edge_list
    from .hidden_tree import build_tree, write_tree_dump

    _require(args, "nodes", "branching", "activity", "out")
    params = _model_params(
        args, args.seed, _tree_seed(args), args.nodes, args.branching, args.activity
    )
    out_path = Path(args.out)
    manifest_path = Path(str(out_path) + ".manifest.json")
    outputs = [out_path]
    if args.tree_dump:
        dump_path = Path(args.tree_dump)
        # The manifest names its outputs by file name.
        if dump_path.name in (out_path.name, manifest_path.name):
            raise ParameterError(f"--tree-dump {dump_path} has the file name of another output")
        outputs.append(dump_path)
    _check_outputs(args, *outputs, manifest_path)
    tree = build_tree(params.tree)
    graph, model = generate_with_counts(params, tree)
    # The manifest is written last: one left from an earlier run must not
    # describe outputs this run replaces.
    manifest_path.unlink(missing_ok=True)
    with _atomic_open(out_path) as fh:
        write_edge_list(graph, fh)
    # Both are freed before the digests are taken: hashing loads OpenSSL,
    # which would otherwise add to their peak.
    del graph
    if args.tree_dump:
        with _atomic_open(dump_path) as fh:
            write_tree_dump(tree, fh)
    del tree
    _write_manifest(manifest_path, "generate", outputs, params=_params_echo(params), model=model)
    return EXIT_OK


def _analysis_options(args: argparse.Namespace) -> dict:
    """The options ``args`` gives :func:`metrics.analyze_graph`. A fit range
    with ``fit_kmax`` below ``fit_kmin`` raises ParameterError here, so
    ``analyze`` and ``sweep`` reject it before any read or run."""
    from .metrics import check_fit_range

    check_fit_range(args.fit_kmin, args.fit_kmax)
    return {
        "fit_kmin": args.fit_kmin, "fit_kmax": args.fit_kmax, "path_samples": args.path_samples
    }


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .graph import read_edge_list
    from .metrics import analyze_graph, format_report, write_ccdf

    in_path = Path(args.edge_list)
    stem = Path(args.out) if args.out else in_path.with_suffix("")
    txt_path, json_path, ccdf_path = (
        Path(f"{stem}.{suffix}") for suffix in ("report.txt", "report.json", "ccdf.tsv")
    )
    _check_outputs(args, txt_path, json_path, ccdf_path)
    options = _analysis_options(args)
    with _open_input(in_path) as fh:
        graph = read_edge_list(fh)
    record, ccdf = analyze_graph(graph, **options)
    text = format_report(record)
    # Nested, so that no output replaces an earlier run's until all three
    # are written.
    with (
        _atomic_open(txt_path) as txt,
        _atomic_open(json_path) as js,
        _atomic_open(ccdf_path) as tsv,
    ):
        txt.write(text)
        js.write(_json_text(record))
        write_ccdf(ccdf, tsv)
    sys.stdout.write(text)
    return EXIT_OK


def _run_point(
    params: ModelParams,
    ccdf_path: Path,
    edges_path: Optional[Path],
    fit_kmin: int,
    fit_kmax: Optional[int],
    path_samples,
) -> tuple[dict, dict]:
    """Generate and analyze one sweep run, write its CCDF to ``ccdf_path``
    and, unless ``edges_path`` is None, its edge list to ``edges_path``.
    Returns the run's report record and the model counters that
    :func:`generator.generate_with_counts` gives. It is a module function
    of plain arguments, so a worker process can run it."""
    from .generator import generate_with_counts
    from .graph import write_edge_list
    from .metrics import analyze_graph, write_ccdf

    graph, model = generate_with_counts(params)
    if edges_path:
        with _atomic_open(edges_path) as fh:
            write_edge_list(graph, fh)
    record, ccdf = analyze_graph(graph, fit_kmin, fit_kmax, path_samples)
    with _atomic_open(ccdf_path) as fh:
        write_ccdf(ccdf, fh)
    return record, model


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .generator import derive_seed
    from .metrics import format_field

    _require(args, "kind", "values", "out")
    options = _analysis_options(args)

    fixed = {"nodes": args.nodes, "branching": args.branching, "activity": args.activity}
    if fixed[args.kind] is not None:
        raise ParameterError(
            f"--{args.kind} is the swept parameter; give its values via --values"
        )
    needed = [name for name in _SWEEP_KINDS if name != args.kind]
    _require(args, *needed)

    nodes = args.kind == "nodes"
    try:
        values = list(map(int if nodes else float, args.values))
    except ValueError:
        raise ParameterError(
            f"sweep values for --kind {args.kind} must be "
            f"{'integers' if nodes else 'numeric'}: {args.values}"
        ) from None
    # A run's files are named by its printed value, so two values that
    # print alike would write the same files.
    printed = [_format_value(value) for value in values]
    for text in printed:
        if printed.count(text) > 1:
            raise ParameterError(f"sweep value {text} is given more than once in --values")

    # The run table: one (value, replicate, params, CCDF path, edge-list
    # path or None) row per run. Every run's parameters are checked, and
    # every output path is known, before any file is written.
    out_dir = Path(args.out)
    manifest_path = out_dir / "manifest.json"
    summary_path = out_dir / "summary.tsv"
    base_tree_seed = _tree_seed(args)
    runs = []
    for value in sorted(values):
        point = dict(fixed, **{args.kind: value})
        for replicate in range(args.replicates):
            seed = derive_seed(args.seed, replicate)
            tree_seed = derive_seed(base_tree_seed, replicate)
            params = _model_params(args, seed, tree_seed, **point)
            tag = f"{args.kind}={_format_value(value)}_rep{replicate}"
            edges_path = out_dir / f"edges_{tag}.csv" if args.keep_edges else None
            runs.append((value, replicate, params, out_dir / f"ccdf_{tag}.tsv", edges_path))
    _, _, all_params, ccdf_paths, edge_paths = zip(*runs)
    run_paths = [path for pair in zip(ccdf_paths, edge_paths) for path in pair if path]
    outputs = [summary_path, *run_paths]
    # sweep makes its own directory, so the files in it get the directory
    # checks once it is made.
    _check_outputs(args, out_dir, manifest_path, *outputs, check_dirs=False)
    out_dir.mkdir(parents=True, exist_ok=True)
    _check_dirs(manifest_path, *outputs)
    manifest_path.unlink(missing_ok=True)

    run_point = partial(_run_point, **options)
    workers = min(args.jobs, len(runs))
    if workers == 1:
        results = list(map(run_point, all_params, ccdf_paths, edge_paths))
    else:
        # Processes, not threads: a run is pure-Python work under the GIL.
        # Spawned workers start from a fresh import on every platform.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        spawn = get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            results = list(pool.map(run_point, all_params, ccdf_paths, edge_paths))

    lines = ["\t".join(["value", "replicate", *_SUMMARY_COLUMNS])]
    for (value, replicate, *_), (record, _) in zip(runs, results):
        fields = [format_field(record[key]) for key in _SUMMARY_COLUMNS.values()]
        lines.append("\t".join([_format_value(value), str(replicate), *fields]))
    _write_text(summary_path, "\n".join(lines) + "\n")

    _write_manifest(manifest_path, "sweep", outputs, config={
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
    }, runs=[
        {"value": value, "replicate": replicate, "seed": params.seed,
         "tree_seed": params.tree.seed, "model": model}
        for (value, replicate, params, *_), (_, model) in zip(runs, results)
    ])
    return EXIT_OK


def _cmd_export_dot(args: argparse.Namespace) -> int:
    from .graph import giant_members, project_in_place, read_edge_list

    in_path = Path(args.edge_list)
    out_path = Path(args.out) if args.out else in_path.with_suffix(".dot")
    _check_outputs(args, out_path)
    with _open_input(in_path) as fh:
        projection = project_in_place(read_edge_list(fh))
    offsets, targets = projection.offsets, projection.targets
    # Only the member ids are taken (no int object per member), and the
    # lines are written straight from the projection's buffers: the
    # relabelled giant that giant_component builds is never made.
    if args.component == "giant":
        members = giant_members(projection)
    else:
        members = range(projection.node_count)
    with _atomic_open(out_path) as fh:
        fh.write("graph g {\n")
        fh.writelines(f"  {node};\n" for node in members)
        # A component is closed under adjacency, so a member's higher
        # neighbours are exactly its edges to later members; each slice of
        # a member's lines is one % format.
        for u in members:
            end = offsets[u + 1]
            for a in range(bisect_right(targets, u, offsets[u], end), end, _DOT_SLICE):
                b = min(a + _DOT_SLICE, end)
                fh.write((f"  {u} -- %d;\n" * (b - a)) % tuple(targets[a:b]))
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
        # argparse exits 0 after --help and --version, 2 on a usage error.
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
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
