"""End-to-end command-line behavior: outputs, config handling, exit codes."""

import concurrent.futures
import hashlib
import io
import json
import random
import re
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hiddentree
from hiddentree import (
    DirectedGraph,
    TreeParams,
    analyze_graph,
    build_tree,
    compute_report,
    derive_seed,
    format_report,
    giant_component,
    read_edge_list,
    report_to_dict,
    undirected_projection,
    write_edge_list,
)
from hiddentree import cli, metrics
from hiddentree import graph as graph_module
from hiddentree.cli import main
from hiddentree.metrics import format_field


def run_cli(*argv):
    return main([str(arg) for arg in argv])


def write_triangle(path):
    graph = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
    with path.open("w") as fh:
        write_edge_list(graph, fh)


def read_manifest(path):
    return json.loads(path.read_text())


def test_generate_zero_activity_writes_empty_edge_list(tmp_path):
    out = tmp_path / "empty.edges"
    code = run_cli("generate", "--nodes", 7, "--branching", "2.0",
                   "--activity", 0, "--seed", 1, "--out", out)
    assert code == 0
    assert out.read_text() == "# nodes=7 edges=0\n"


def test_generate_manifest_digests_verify(tmp_path):
    out = tmp_path / "net.edges"
    assert run_cli("generate", "--nodes", 200, "--branching", "2.0",
                   "--activity", 0.4, "--seed", 3, "--out", out) == 0
    manifest = read_manifest(tmp_path / "net.edges.manifest.json")
    assert set(manifest) == {"command", "version", "params", "outputs"}
    for name, digest in manifest["outputs"].items():
        recomputed = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == f"sha256:{recomputed}"
    assert manifest["params"]["nodes"] == 200
    assert manifest["params"]["tree_seed"] == 3
    assert set(manifest["params"]) == {
        "nodes", "branching", "activity", "seed", "tree_seed", "variant", "include_tree_edges"
    }


def test_generate_rerun_is_byte_identical(tmp_path):
    args = ("generate", "--nodes", 10000, "--branching", "2.0",
            "--activity", 0.4, "--seed", 7)
    first = tmp_path / "a.edges"
    second = tmp_path / "b.edges"
    assert run_cli(*args, "--out", first) == 0
    assert run_cli(*args, "--out", second) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.stat().st_size > 0


def test_generate_usage_errors(tmp_path):
    assert run_cli("generate", "--nodes", 0, "--branching", "2.0",
                   "--activity", 1, "--out", tmp_path / "x.edges") == 1
    assert run_cli("generate", "--nodes", 5, "--branching", "2.0", "--activity", 1) == 1
    assert run_cli("generate", "--bogus-flag", 1) == 1


def test_generate_unwritable_path_is_io_error(tmp_path):
    code = run_cli("generate", "--nodes", 5, "--branching", "2.0",
                   "--activity", 1, "--out", tmp_path / "missing_dir" / "x.edges")
    assert code == 2


@pytest.mark.parametrize("flag, value", [
    ("--branching", "nan"), ("--branching", "inf"), ("--activity", "nan")])
def test_generate_rejects_non_finite_parameters(tmp_path, capsys, flag, value):
    # The later flag wins over the valid value before it.
    assert run_cli("generate", "--nodes", 50, "--branching", "2.0", "--activity", 0.4,
                   flag, value, "--out", tmp_path / "net.edges") == 1
    assert "must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_generate_tree_dump(tmp_path):
    out = tmp_path / "net.edges"
    dump = tmp_path / "net.tree"
    assert run_cli("generate", "--nodes", 7, "--branching", "2.0", "--activity", 0,
                   "--out", out, "--tree-dump", dump) == 0
    lines = dump.read_text().splitlines()
    assert len(lines) == 7
    assert lines[0] == "0\t-1\t0"
    manifest = read_manifest(tmp_path / "net.edges.manifest.json")
    assert dump.name in manifest["outputs"]


def test_generate_tree_dump_builds_the_tree_once(tmp_path, monkeypatch):
    calls = []

    def counting_build_tree(params):
        calls.append(params)
        return build_tree(params)

    modules = [module for name, module in sys.modules.items()
               if name.partition(".")[0] == "hiddentree"
               and getattr(module, "build_tree", None) is build_tree]
    assert {"hiddentree", "hiddentree.cli", "hiddentree.generator"} <= {
        module.__name__ for module in modules}
    for module in modules:
        monkeypatch.setattr(module, "build_tree", counting_build_tree)
    assert run_cli("generate", "--nodes", 50, "--branching", "2.0", "--activity", 1,
                   "--out", tmp_path / "net.edges", "--tree-dump", tmp_path / "net.tree") == 0
    assert calls == [TreeParams(50, 2.0, seed=0)]


def fail_halfway(writer):
    """``writer`` that writes the first half of its output, then fails."""
    def write(obj, fh):
        buffer = io.StringIO()
        writer(obj, buffer)
        text = buffer.getvalue()
        fh.write(text[: len(text) // 2])
        raise OSError("disk full")
    return write


GENERATE = ("generate", "--nodes", 300, "--branching", "2.0", "--activity", 0.4,
            "--out", "net.edges", "--tree-dump", "net.tree")
SWEEP = ("sweep", "--kind", "activity", "--values", "0.2,0.4", "--nodes", 200,
         "--branching", "2.0", "--path-samples", 20, "--out", "sweep")


@pytest.mark.parametrize("writer, argv, missing", [
    ("write_edge_list", GENERATE, ["net.edges", "net.edges.manifest.json"]),
    ("write_tree_dump", GENERATE, ["net.tree", "net.edges.manifest.json"]),
    ("write_ccdf", ("analyze", "net.edges"), ["net.ccdf.tsv"]),
    ("write_ccdf", SWEEP, ["sweep/manifest.json", "sweep/summary.tsv"]),
])
def test_failed_write_leaves_no_output_or_manifest(tmp_path, monkeypatch, writer, argv, missing):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "analyze":
        assert run_cli(*GENERATE) == 0
    monkeypatch.setattr(cli, writer, fail_halfway(getattr(cli, writer)))
    assert run_cli(*argv) == 2
    for name in missing:
        assert not (tmp_path / name).exists(), name
    leftovers = [path.name for path in tmp_path.rglob("*") if path.name.endswith(".tmp")]
    assert leftovers == []


def test_failed_rerun_keeps_earlier_outputs_whole(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rerun = (*GENERATE[:-4], "--seed", 1, *GENERATE[-4:])
    assert run_cli(*GENERATE) == 0
    first = (tmp_path / "net.edges").read_bytes()
    with monkeypatch.context() as patch:
        patch.setattr(cli, "write_edge_list", fail_halfway(cli.write_edge_list))
        assert run_cli(*rerun) == 2
    # The earlier file is untouched, but no manifest vouches for it now.
    assert (tmp_path / "net.edges").read_bytes() == first
    assert not (tmp_path / "net.edges.manifest.json").exists()
    monkeypatch.setattr(cli, "write_tree_dump", fail_halfway(cli.write_tree_dump))
    assert run_cli(*rerun) == 2
    # The new edge list is complete, the tree dump is the earlier one.
    assert (tmp_path / "net.edges").read_bytes() != first
    assert not (tmp_path / "net.edges.manifest.json").exists()


MODEL = ("--nodes", 300, "--branching", "2.0", "--activity", 0.4)


@pytest.mark.parametrize("argv", [
    ("generate", *MODEL, "--out", "net.edges", "--tree-dump", "net.edges"),
    ("generate", *MODEL, "--out", "net.edges", "--tree-dump", "net.edges.manifest.json"),
    ("generate", *MODEL, "--out", "net.edges", "--tree-dump", "sub/net.edges"),
    ("generate", *MODEL, "--out", "net.edges", "--tree-dump", "alias.tree"),
    ("generate", "--config", "model.cfg", "--out", "model.cfg"),
    ("analyze", "net.report.txt", "--out", "net"),
    ("analyze", "net.edges", "--out", "sub/../run", "--config", "run.ccdf.tsv"),
    ("export-dot", "net.edges", "--out", "net.edges"),
    ("export-dot", "net.dot"),
    ("sweep", "--config", "sweep/manifest.json", "--out", "sweep"),
    ("sweep", "--config", "sweep/summary.tsv", "--out", "sweep"),
    ("sweep", "--config", "sweep/ccdf_activity=0.4_rep0.tsv", "--out", "sweep"),
    ("sweep", "--config", "sweep/summary.tsv", "--out", "sweep/summary.tsv"),
], ids=["dump-is-out", "dump-is-manifest", "dump-shares-name", "dump-links-to-out",
        "out-is-config", "report-is-input", "ccdf-is-config", "dot-is-input", "default-dot-is-input",
        "sweep-config-is-manifest", "sweep-config-is-summary", "sweep-config-is-run-ccdf",
        "sweep-config-is-out"])
def test_colliding_output_paths_exit_before_any_write(tmp_path, monkeypatch, argv):
    """An output path that resolves to an input or to another output is
    rejected before a file is written or removed."""
    monkeypatch.chdir(tmp_path)
    assert run_cli(*GENERATE) == 0
    (tmp_path / "sub").mkdir()
    (tmp_path / "alias.tree").symlink_to(tmp_path / "net.edges")
    (tmp_path / "model.cfg").write_text("nodes = 300\nbranching = 2.0\nactivity = 0.4\n")
    (tmp_path / "run.ccdf.tsv").write_text("path_samples = 20\n")
    (tmp_path / "sweep").mkdir()
    for name in ("manifest.json", "summary.tsv", "ccdf_activity=0.4_rep0.tsv"):
        (tmp_path / "sweep" / name).write_text(
            "kind = activity\nvalues = 0.2,0.4\nnodes = 200\nbranching = 2.0\npath_samples = 20\n"
        )
    for name in ("net.report.txt", "net.dot"):
        (tmp_path / name).write_bytes((tmp_path / "net.edges").read_bytes())
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    assert run_cli(*argv) == 1
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before


def test_analyze_triangle(tmp_path, capsys):
    edge_file = tmp_path / "triangle.edges"
    write_triangle(edge_file)
    assert run_cli("analyze", edge_file) == 0
    report_text = (tmp_path / "triangle.report.txt").read_text()
    assert "avg_clustering = 1\n" in report_text
    report = json.loads((tmp_path / "triangle.report.json").read_text())
    assert report["avg_clustering"] == 1.0
    assert report["avg_shortest_path"] == 1.0
    assert report["gamma"] is None
    assert (tmp_path / "triangle.ccdf.tsv").read_text() == "1\t1\n"
    assert "avg_clustering = 1" in capsys.readouterr().out


def test_analyze_generated_network(tmp_path):
    edge_file = tmp_path / "net.edges"
    assert run_cli("generate", "--nodes", 800, "--branching", "2.0",
                   "--activity", 0.4, "--seed", 5, "--out", edge_file) == 0
    assert run_cli("analyze", edge_file, "--path-samples", "all") == 0
    ks = [int(line.split("\t")[0])
          for line in (tmp_path / "net.ccdf.tsv").read_text().splitlines()]
    assert ks == sorted(set(ks))
    report = json.loads((tmp_path / "net.report.json").read_text())
    assert report["nodes"] == 800
    with edge_file.open() as fh:
        graph = read_edge_list(fh)
    assert report["edges"] == graph.edge_count
    assert isinstance(report["gamma"], float)
    assert isinstance(report["gamma_mle"], float)


def test_analyze_empty_distribution_fails(tmp_path):
    edge_file = tmp_path / "empty.edges"
    assert run_cli("generate", "--nodes", 7, "--branching", "2.0",
                   "--activity", 0, "--out", edge_file) == 0
    assert run_cli("analyze", edge_file) == 3


def test_fit_kmin_below_one_is_rejected_before_any_work(tmp_path, capsys):
    # analyze fails before it opens the edge list: a missing file would be exit 2.
    assert run_cli("analyze", tmp_path / "nowhere.edges", "--fit-kmin", 0) == 1
    assert "argument --fit-kmin: must be >= 1, got 0" in capsys.readouterr().err
    out_dir = tmp_path / "sweep"
    assert run_cli("sweep", "--kind", "activity", "--values", "0.4", "--nodes", 200,
                   "--branching", "2.0", "--fit-kmin", 0, "--out", out_dir) == 1
    assert "argument --fit-kmin: must be >= 1, got 0" in capsys.readouterr().err
    assert not out_dir.exists()


def test_fit_kmax_below_fit_kmin_is_rejected_before_any_work(tmp_path, capsys):
    # analyze fails before it opens the edge list: a missing file would be exit 2.
    assert run_cli("analyze", tmp_path / "nowhere.edges", "--fit-kmax", 1) == 1
    assert "fit_kmax 1 is below fit_kmin 2" in capsys.readouterr().err
    out_dir = tmp_path / "sweep"
    assert run_cli("sweep", "--kind", "activity", "--values", "0.4", "--nodes", 200,
                   "--branching", "2.0", "--fit-kmin", 5, "--fit-kmax=-5",
                   "--out", out_dir) == 1
    assert "fit_kmax -5 is below fit_kmin 5" in capsys.readouterr().err
    assert not out_dir.exists()
    config = tmp_path / "sweep.cfg"
    config.write_text("fit_kmax = 1\n")
    assert run_cli("sweep", "--config", config, "--kind", "activity", "--values", "0.4",
                   "--nodes", 200, "--branching", "2.0", "--out", out_dir) == 1
    assert "fit_kmax 1 is below fit_kmin 2" in capsys.readouterr().err
    assert not out_dir.exists()


def test_analyze_missing_file(tmp_path):
    assert run_cli("analyze", tmp_path / "nowhere.edges") == 2


def test_analyze_malformed_line_names_line_number(tmp_path, capsys):
    edge_file = tmp_path / "bad.edges"
    edge_file.write_text("# nodes=3 edges=2\n0,1\n0;2\n")
    assert run_cli("analyze", edge_file) == 3
    assert "line 3" in capsys.readouterr().err


def test_config_file_supplies_defaults_and_flags_override(tmp_path):
    out = tmp_path / "cfg.edges"
    config = tmp_path / "run.cfg"
    config.write_text(
        "# sample config\n"
        "nodes = 300\n"
        "branching = 2.0\n"
        "activity = 0.1\n"
        "seed = 9\n"
        "include-tree-edges = true\n"
        f"out = {out}\n"
    )
    assert run_cli("generate", "--config", config, "--activity", 0.2) == 0
    params = read_manifest(tmp_path / "cfg.edges.manifest.json")["params"]
    assert params["nodes"] == 300
    assert params["activity"] == 0.2
    assert params["seed"] == 9
    assert params["include_tree_edges"] is True

    assert run_cli("generate", "--config", config, "--seed", 4) == 0
    params = read_manifest(tmp_path / "cfg.edges.manifest.json")["params"]
    assert (params["seed"], params["tree_seed"], params["activity"]) == (4, 4, 0.1)

    config.write_text(
        "nodes = 300\nbranching = 2.0\nactivity = 0.1\nseed = -3\n"
        f"include_tree_edges = no\nout = {out}\n"
    )
    assert run_cli("generate", "--config", config) == 0
    params = read_manifest(tmp_path / "cfg.edges.manifest.json")["params"]
    assert params["seed"] == -3
    assert params["include_tree_edges"] is False

    # The README's example config runs as it is printed there.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```\n(# sweep\.conf\n.*?)```", readme, flags=re.S).group(1)
    config.write_text(block)
    out_dir = tmp_path / "sweep"
    assert run_cli("sweep", "--config", config, "--out", out_dir) == 0
    manifest = read_manifest(out_dir / "manifest.json")
    assert manifest["config"]["kind"] == "activity"
    assert manifest["config"]["values"] == [0.2, 0.4]
    assert len(manifest["runs"]) == 4


def test_config_file_errors(tmp_path, capsys):
    edge_file = tmp_path / "triangle.edges"
    write_triangle(edge_file)
    config = tmp_path / "bad.cfg"
    cases = [
        ("generate", "no_such_key = 1", "unknown config key 'no_such_key'"),
        ("generate", "node = 10", "unknown config key 'node'"),
        ("generate", "help = true", "unknown config key 'help'"),
        ("generate", "config = other.cfg", "unknown config key 'config'"),
        ("analyze", "edge_list = other.edges", "unknown config key 'edge_list'"),
        ("generate", "include-tree-edges = maybe",
         "config key 'include_tree_edges' expects a boolean, got 'maybe'"),
        ("generate", "just a line without equals", "line 1: expected key=value"),
        # Only the exit code is pinned: argparse words these.
        ("generate", "nodes = ten", ""),
        ("generate", "variant = odd", ""),
        ("analyze", "fit_kmin = 0", "argument --fit-kmin: must be >= 1, got 0"),
        ("analyze", "fit_kmax = 1", "fit_kmax 1 is below fit_kmin 2"),
        ("generate", "nodes = 10\n# a comment\nnodes = 20",
         "line 3: config key 'nodes' is already given on line 1"),
        ("analyze", "fit-kmin = 2\nfit_kmin = 3",
         "line 2: config key 'fit_kmin' is already given on line 1"),
    ]
    for command, text, message in cases:
        config.write_text(text + "\n")
        argv = [command, edge_file] if command == "analyze" else [command]
        assert run_cli(*argv, "--config", config) == 1, text
        assert message in capsys.readouterr().err, text
    assert run_cli("generate", "--config", tmp_path / "missing.cfg") == 2


def test_sweep_outputs_and_manifest(tmp_path):
    out_dir = tmp_path / "sweep"
    assert run_cli("sweep", "--kind", "activity", "--values", "0.2,0.4",
                   "--replicates", 2, "--nodes", 400, "--branching", "2.0",
                   "--seed", 5, "--path-samples", 100, "--out", out_dir) == 0
    names = sorted(path.name for path in out_dir.iterdir())
    assert names == [
        "ccdf_activity=0.2_rep0.tsv",
        "ccdf_activity=0.2_rep1.tsv",
        "ccdf_activity=0.4_rep0.tsv",
        "ccdf_activity=0.4_rep1.tsv",
        "manifest.json",
        "summary.tsv",
    ]
    lines = (out_dir / "summary.tsv").read_text().splitlines()
    assert lines[0].split("\t") == ["value", "replicate", "gamma", "r_squared",
                                    "avg_clustering", "avg_shortest_path",
                                    "max_in_degree", "giant_fraction"]
    keys = [(line.split("\t")[0], int(line.split("\t")[1])) for line in lines[1:]]
    assert keys == [("0.2", 0), ("0.2", 1), ("0.4", 0), ("0.4", 1)]
    manifest = read_manifest(out_dir / "manifest.json")
    assert len(manifest["runs"]) == 4
    assert manifest["runs"][0]["seed"] != manifest["runs"][1]["seed"]
    for name, digest in manifest["outputs"].items():
        recomputed = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        assert digest == f"sha256:{recomputed}"


SWEPT_VALUES = {
    "nodes": st.integers(100, 400).map(str),
    "branching": st.sampled_from(["1.5", "2", "2.5", "4"]),
    "activity": st.sampled_from(["0.1", "0.4", "1", "2.5"]),
}


@st.composite
def sweep_cases(draw):
    kind = draw(st.sampled_from(sorted(SWEPT_VALUES)))
    values = draw(st.lists(SWEPT_VALUES[kind], min_size=1, max_size=3, unique=True))
    return (kind, ",".join(values), draw(st.integers(1, 2)), draw(st.booleans()),
            draw(st.integers(2, 3)))


@settings(derandomize=True, deadline=None, max_examples=5)
@given(sweep_cases())
@example(("branching", "1.5,2.5", 2, False, 4))
def test_sweep_jobs_do_not_change_outputs(case):
    kind, values, replicates, keep_edges, jobs = case
    fixed = {"nodes": 300, "branching": "2.0", "activity": 0.4}
    del fixed[kind]
    base = ["sweep", "--kind", kind, "--values", values, "--replicates", replicates,
            "--seed", 2, "--path-samples", 50]
    for name, value in fixed.items():
        base += [f"--{name}", value]
    if keep_edges:
        base.append("--keep-edges")
    with tempfile.TemporaryDirectory() as tmp:
        dir_serial = Path(tmp) / "serial"
        dir_workers = Path(tmp) / "workers"
        assert run_cli(*base, "--jobs", 1, "--out", dir_serial) == 0
        assert run_cli(*base, "--jobs", jobs, "--out", dir_workers) == 0
        names = sorted(path.name for path in dir_serial.iterdir())
        assert names == sorted(path.name for path in dir_workers.iterdir())
        assert any(name.startswith("edges_") for name in names) == keep_edges
        for name in names:
            assert (dir_serial / name).read_bytes() == (dir_workers / name).read_bytes(), name


class RecordingPool:
    """Stands in for ``ProcessPoolExecutor``: records what it is asked
    for and runs the calls in this process."""

    requests = []

    def __init__(self, max_workers, mp_context=None):
        self.requests.append((max_workers, mp_context.get_start_method()))

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_sweep_pool_is_bounded_by_the_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(RecordingPool, "requests", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    base = ("sweep", "--kind", "activity", "--nodes", 200, "--branching", "2.0",
            "--path-samples", 20)
    assert run_cli(*base, "--values", "0.2,0.4", "--jobs", 64, "--out", tmp_path / "a") == 0
    assert RecordingPool.requests == [(2, "spawn")]
    assert run_cli(*base, "--values", "0.2", "--jobs", 4, "--out", tmp_path / "b") == 0
    assert run_cli(*base, "--values", "0.2,0.4", "--out", tmp_path / "c") == 0
    assert RecordingPool.requests == [(2, "spawn")]
    assert (tmp_path / "a" / "summary.tsv").read_bytes() == (
        tmp_path / "c" / "summary.tsv").read_bytes()


@pytest.mark.parametrize("values, repeated", [
    ("0.4,0.4,0.4,0.4", "0.4"), ("0.4,0.40", "0.4"), ("0.2,0.4,2e-1", "0.2")])
@pytest.mark.parametrize("jobs", [1, 4])
def test_sweep_rejects_repeated_values(tmp_path, capsys, values, repeated, jobs):
    out_dir = tmp_path / "sweep"
    assert run_cli("sweep", "--kind", "activity", "--values", values, "--nodes", 200,
                   "--branching", "2.0", "--jobs", jobs, "--out", out_dir) == 1
    assert f"sweep value {repeated} is given more than once" in capsys.readouterr().err
    assert not out_dir.exists()


def test_sweep_failure_in_a_worker_writes_no_summary_or_manifest(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    assert run_cli("sweep", "--kind", "activity", "--values", "0.4,0", "--nodes", 200,
                   "--branching", "2.0", "--path-samples", 20, "--jobs", 2,
                   "--out", out_dir) == 3
    assert "all degrees are zero" in capsys.readouterr().err
    assert not (out_dir / "summary.tsv").exists()
    assert not (out_dir / "manifest.json").exists()


def test_sweep_invalid_value_writes_nothing(tmp_path):
    # Every run's parameters are checked before the first run starts.
    for values in ("2.0,0.5", "2.0,nan"):
        out_dir = tmp_path / values
        assert run_cli("sweep", "--kind", "branching", "--values", values, "--nodes", 200,
                       "--activity", 0.4, "--path-samples", 20, "--out", out_dir) == 1
        assert not out_dir.exists()


def test_sweep_nodes_kind_uses_integer_values(tmp_path):
    out_dir = tmp_path / "nsweep"
    assert run_cli("sweep", "--kind", "nodes", "--values", "100,200",
                   "--branching", "2.0", "--activity", 0.4, "--out", out_dir) == 0
    lines = (out_dir / "summary.tsv").read_text().splitlines()
    assert [line.split("\t")[0] for line in lines[1:]] == ["100", "200"]
    assert (out_dir / "ccdf_nodes=100_rep0.tsv").exists()


def test_report_json_summary_row_and_compute_report_agree(tmp_path):
    # A one-point sweep's replicate 0 is the network `generate` makes
    # from the sweep's derived seed.
    seed = derive_seed(5, 0)
    edge_file = tmp_path / "net.edges"
    assert run_cli("generate", "--nodes", 600, "--branching", "2.0",
                   "--activity", 0.4, "--seed", seed, "--out", edge_file) == 0
    assert run_cli("analyze", edge_file, "--path-samples", 50) == 0
    out_dir = tmp_path / "sweep"
    assert run_cli("sweep", "--kind", "activity", "--values", "0.4", "--nodes", 600,
                   "--branching", "2.0", "--seed", 5, "--path-samples", 50,
                   "--keep-edges", "--out", out_dir) == 0
    assert (out_dir / "edges_activity=0.4_rep0.csv").read_bytes() == edge_file.read_bytes()
    assert ((out_dir / "ccdf_activity=0.4_rep0.tsv").read_bytes()
            == (tmp_path / "net.ccdf.tsv").read_bytes())

    record = json.loads((tmp_path / "net.report.json").read_text())
    with edge_file.open() as fh:
        report = report_to_dict(compute_report(read_edge_list(fh), path_samples=50))
    assert report.items() <= record.items()
    header, row = (out_dir / "summary.tsv").read_text().splitlines()
    assert dict(zip(header.split("\t"), row.split("\t"))) == {
        "value": "0.4",
        "replicate": "0",
        "gamma": format_field(record["gamma"]),
        "r_squared": format_field(record["r_squared"]),
        "avg_clustering": format_field(record["avg_clustering"]),
        "avg_shortest_path": format_field(record["avg_shortest_path"]),
        "max_in_degree": str(record["max_in_degree"]),
        "giant_fraction": format_field(record["giant_component_fraction"]),
    }


REPORT_KEYS = [
    "nodes", "edges", "gamma", "ccdf_slope", "r_squared", "fit_kmin", "fit_kmax",
    "avg_clustering", "avg_shortest_path", "giant_component_fraction", "max_in_degree",
    "gamma_mle",
]


@pytest.mark.parametrize("network", ["triangle", "generated"])
def test_analyze_writes_the_analyze_graph_record(tmp_path, capsys, network):
    edge_file = tmp_path / "net.edges"
    if network == "triangle":
        write_triangle(edge_file)
    else:
        assert run_cli("generate", "--nodes", 600, "--branching", "2.0",
                       "--activity", 0.4, "--seed", 3, "--out", edge_file) == 0
    capsys.readouterr()
    assert run_cli("analyze", edge_file, "--path-samples", 50) == 0
    text = (tmp_path / "net.report.txt").read_text()
    assert [line.split(" = ")[0] for line in text.splitlines()] == REPORT_KEYS
    assert capsys.readouterr().out == text
    report = json.loads((tmp_path / "net.report.json").read_text())
    assert sorted(report) == sorted(REPORT_KEYS)

    def load_graph():
        with edge_file.open() as fh:
            return read_edge_list(fh)

    record = analyze_graph(load_graph, path_samples=50).record
    assert list(record) == REPORT_KEYS
    assert record == report
    assert format_report(record) == text


@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_staged_analysis_releases_each_input(tmp_path, monkeypatch, command):
    # The directed graph is handed over to the projection, which leaves
    # it empty, and must be freed before the giant component is found. No
    # relabelled copy of the giant is built: clustering and path length
    # read the projection itself through the member list.
    refs = {}
    checks = []
    handed_over = []

    def hand_over(stage):
        def wrapped(g):
            result = stage(g)
            handed_over.append((g.node_count, g.edge_count))
            refs["projection"] = weakref.ref(result)
            return result
        return wrapped

    def keep_ref(name, stage):
        def wrapped(*args, **kwargs):
            result = stage(*args, **kwargs)
            refs[name] = weakref.ref(result)
            return result
        return wrapped

    def expect_released(name, stage):
        def wrapped(*args, **kwargs):
            checks.append((stage.__name__, name, refs.pop(name)() is None))
            return stage(*args, **kwargs)
        return wrapped

    def expect_projection(stage):
        def wrapped(g, *args, **kwargs):
            checks.append((stage.__name__, "projection", g is refs["projection"]()))
            return stage(g, *args, **kwargs)
        return wrapped

    def relabelled_copy(*args, **kwargs):
        raise AssertionError("giant_component builds a relabelled copy of the giant")

    edge_file = tmp_path / "net.edges"
    assert run_cli("generate", "--nodes", 400, "--branching", "2.0",
                   "--activity", 0.4, "--out", edge_file) == 0
    monkeypatch.setattr(cli, "read_edge_list", keep_ref("graph", cli.read_edge_list))
    monkeypatch.setattr(cli, "generate", keep_ref("graph", cli.generate))
    monkeypatch.setattr(metrics, "project_in_place", hand_over(metrics.project_in_place))
    monkeypatch.setattr(metrics, "giant_members",
                        expect_released("graph", metrics.giant_members))
    monkeypatch.setattr(metrics, "avg_clustering", expect_projection(metrics.avg_clustering))
    monkeypatch.setattr(metrics, "avg_shortest_path",
                        expect_projection(metrics.avg_shortest_path))
    monkeypatch.setattr(graph_module, "giant_component", relabelled_copy)
    monkeypatch.setattr(metrics, "giant_component", relabelled_copy, raising=False)
    if command == "analyze":
        assert run_cli("analyze", edge_file, "--path-samples", 20) == 0
        runs = 1
    else:
        assert run_cli("sweep", "--kind", "activity", "--values", "0.2,0.4",
                       "--nodes", 400, "--branching", "2.0", "--path-samples", 20,
                       "--keep-edges", "--out", tmp_path / "sweep") == 0
        runs = 2
    assert checks == [
        ("giant_members", "graph", True),
        ("avg_clustering", "projection", True),
        ("avg_shortest_path", "projection", True),
    ] * runs
    assert handed_over == [(0, 0)] * runs
    assert refs["projection"]() is None


def test_sweep_usage_errors(tmp_path):
    out_dir = tmp_path / "bad"
    common = ("--nodes", 100, "--branching", "2.0", "--out", out_dir)
    assert run_cli("sweep", "--kind", "activity", "--values", "0.2",
                   "--activity", 0.4, *common) == 1
    assert run_cli("sweep", "--kind", "activity", "--values", "0.2",
                   "--out", out_dir, "--nodes", 100) == 1
    assert run_cli("sweep", "--kind", "nodes", "--values", "ten",
                   "--branching", "2.0", "--activity", 0.4, "--out", out_dir) == 1
    assert run_cli("sweep", "--kind", "activity", "--values", "0.2",
                   "--replicates", 0, *common) == 1
    assert run_cli("sweep", "--kind", "activity", "--values", "0.2",
                   "--jobs", 0, *common) == 1
    assert not out_dir.exists()


def test_export_dot_triangle(tmp_path):
    edge_file = tmp_path / "triangle.edges"
    write_triangle(edge_file)
    assert run_cli("export-dot", edge_file) == 0
    expected = "graph g {\n  0;\n  1;\n  2;\n  0 -- 1;\n  0 -- 2;\n  1 -- 2;\n}\n"
    assert (tmp_path / "triangle.dot").read_text() == expected


def test_export_dot_keeps_largest_component_only(tmp_path):
    edge_file = tmp_path / "two.edges"
    graph = DirectedGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4)])
    with edge_file.open("w") as fh:
        write_edge_list(graph, fh)
    out = tmp_path / "giant.dot"
    assert run_cli("export-dot", edge_file, "--out", out) == 0
    text = out.read_text()
    assert "3" not in text and "4" not in text
    full = tmp_path / "full.dot"
    assert run_cli("export-dot", edge_file, "--component", "full", "--out", full) == 0
    full_text = full.read_text()
    assert "  3 -- 4;\n" in full_text
    assert "  5;\n" in full_text


def dot_from_giant_component(graph):
    """The DOT text of the giant component's induced graph, mapped back
    through its member ids."""
    members, giant = giant_component(undirected_projection(graph))
    lines = [f"  {node};\n" for node in members]
    lines += [f"  {members[u]} -- {members[v]};\n" for u, v in giant.edges()]
    return "graph g {\n" + "".join(lines) + "}\n"


@pytest.mark.parametrize("seed", range(20))
def test_export_dot_giant_equals_giant_component(tmp_path, seed):
    rng = random.Random(seed)
    n = rng.randint(1, 30)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
    graph = DirectedGraph(n, [(u, v) for u, v in pairs if u != v])
    edge_file = tmp_path / "net.edges"
    with edge_file.open("w") as fh:
        write_edge_list(graph, fh)
    assert run_cli("export-dot", edge_file, "--component", "giant") == 0
    assert (tmp_path / "net.dot").read_text() == dot_from_giant_component(graph)


def test_export_dot_matches_reported_component_size(tmp_path):
    edge_file = tmp_path / "net.edges"
    assert run_cli("generate", "--nodes", 300, "--branching", "2.0",
                   "--activity", 0.04, "--seed", 0, "--tree-seed", 100,
                   "--out", edge_file) == 0
    assert run_cli("analyze", edge_file, "--path-samples", "all") == 0
    report = json.loads((tmp_path / "net.report.json").read_text())
    assert run_cli("export-dot", edge_file) == 0
    node_lines = re.findall(r"^  \d+;$", (tmp_path / "net.dot").read_text(), flags=re.M)
    assert len(node_lines) == round(report["giant_component_fraction"] * 300)


def test_leaf_variant_via_cli(tmp_path):
    edge_file = tmp_path / "leaf.edges"
    assert run_cli("generate", "--nodes", 60, "--branching", "2.0", "--activity", 1,
                   "--seed", 4, "--variant", "leaf", "--out", edge_file) == 0
    with edge_file.open() as fh:
        graph = read_edge_list(fh)
    leaves = set(build_tree(TreeParams(60, 2.0, seed=4)).leaves())
    assert {src for src, _ in graph.edges()} <= leaves


def modules_loaded_by_import():
    """Top-level names of the modules ``import hiddentree, hiddentree.cli``
    loads in a fresh interpreter. Only modules loaded by the import itself
    count: the interpreter's start-up hooks may load third-party modules
    of their own."""
    src = Path(hiddentree.__file__).resolve().parents[1]
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "before = set(sys.modules)\n"
        "import hiddentree, hiddentree.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, check=True)
    return {name.partition(".")[0] for name in json.loads(result.stdout)}


def test_runtime_imports_only_the_standard_library():
    top_level = modules_loaded_by_import()
    assert "hiddentree" in top_level
    allowed = set(sys.stdlib_module_names) | {"hiddentree"}
    assert sorted(top_level - allowed) == []


def test_import_loads_no_worker_pool_machinery():
    # The process pool is imported only when a sweep runs more than one
    # worker, so the cold start of every command stays lean.
    assert {"concurrent", "multiprocessing"} & modules_loaded_by_import() == set()


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "hiddentree", "--version"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip().startswith("hiddentree ")
