"""End-to-end and per-layer benchmark for the hiddentree pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload analyze_deep --seed 7 --seconds 50 --trace 0

The package is run from ``src/`` of the checkout holding this file; nothing
is installed. One closed-loop client runs the workload's CLI commands
(``python -m hiddentree ...``), one at a time, for ``--seconds`` seconds,
and checks every output. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates an untraced CLI pass with a traced pass of the same
library calls (``traced.py``) and prints the per-layer metrics. The last
line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Spans, observed output digests and values go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
CLI = [sys.executable, "-m", "hiddentree"]
TRACED = [sys.executable, str(HERE / "traced.py"), str(SRC)]

SETUP_STARTS = 15
RUN_DEADLINE_S = 170.0
SAMPLE_PERIOD_S = 0.25
PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


# ---------------------------------------------------------------- processes

def _tree_rss_mb(root: int) -> float:
    """Summed resident memory of ``root`` and all its descendants."""
    parent_of: dict[int, int] = {}
    rss_pages: dict[int, int] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", "rb") as fh:
                fields = fh.read().rpartition(b")")[2].split()
        except OSError:
            continue
        pid = int(entry.name)
        parent_of[pid] = int(fields[1])
        rss_pages[pid] = int(fields[21])
    members = {root}
    grew = True
    while grew:
        grew = False
        for pid, ppid in parent_of.items():
            if ppid in members and pid not in members:
                members.add(pid)
                grew = True
    return sum(rss_pages.get(pid, 0) for pid in members) * PAGE_MB


def _stop_group(pgid: int) -> None:
    """Kill what is left of a process group and wait until it has gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    give_up = time.monotonic() + 10
    while time.monotonic() < give_up:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


class _Watch(threading.Thread):
    """Samples the command's process-tree memory and kills it at its deadline."""

    def __init__(self, pid: int, deadline: float):
        super().__init__(daemon=True)
        self.pid = pid
        self.deadline = deadline
        self.peak_mb = 0.0
        self.timed_out = False
        self._done = threading.Event()

    def run(self) -> None:
        while not self._done.wait(SAMPLE_PERIOD_S):
            if time.perf_counter() > self.deadline:
                self.timed_out = True
                _stop_group(self.pid)
                return
            self.peak_mb = max(self.peak_mb, _tree_rss_mb(self.pid))

    def finish(self) -> None:
        self._done.set()
        self.join()


@dataclass
class Outcome:
    name: str
    start: float
    wall_s: float
    peak_rss_mb: float
    stdout: bytes
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def run_command(name: str, argv: list[str], limit_s: float, logs: Path) -> Outcome:
    """Run one command to completion or its time limit.

    Peak memory is the larger of the child's own rusage from ``wait4`` (its
    exact high-water mark, and that of children it reaped) and the sampled
    sum over its live process tree, which catches concurrent workers.
    """
    logs.mkdir(parents=True, exist_ok=True)
    with open(logs / f"{name}.out", "wb") as out, open(logs / f"{name}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ENV, cwd=ROOT,
                                start_new_session=True)
        watch = _Watch(proc.pid, start + max(limit_s, 0.0))
        watch.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:  # interrupted: leave no process behind
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            watch.finish()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _stop_group(proc.pid)
    outcome = Outcome(name, start, wall, max(usage.ru_maxrss / 1024, watch.peak_mb),
                      (logs / f"{name}.out").read_bytes())
    if watch.timed_out:
        outcome.errors.append(f"{name}: exceeded its {limit_s:.0f} s limit")
    elif proc.returncode != 0:
        tail = (logs / f"{name}.err").read_text(errors="replace")[-400:]
        outcome.errors.append(f"{name}: exit {proc.returncode}: {tail}")
    return outcome


# ------------------------------------------------------------------- checks

def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def render(value) -> str:
    """The report's cell rendering: NA for null, 10 significant digits for floats."""
    if value is None:
        return "NA"
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def check_manifest(path: Path, names: set[str]) -> list[str]:
    outputs = json.loads(path.read_text())["outputs"]
    errors = []
    if set(outputs) != names:
        errors.append(f"{path.name}: lists {sorted(outputs)}, expected {sorted(names)}")
    for name, digest in outputs.items():
        if sha256(path.parent / name) != digest:
            errors.append(f"{path.name}: digest of {name} does not match the file")
    return errors


def check_edge_list(path: Path, nodes: int) -> tuple[int, list[str]]:
    """Header and line count; returns the edge count."""
    with open(path) as fh:
        header = fh.readline().split()
    try:
        n, e = (int(field.split("=")[1]) for field in header[1:3])
    except (IndexError, ValueError):
        return 0, [f"{path.name}: malformed header {header}"]
    errors = []
    if n != nodes:
        errors.append(f"{path.name}: header nodes={n}, expected {nodes}")
    if count_lines(path) != e + 1:
        errors.append(f"{path.name}: header says {e} edges, file has another count")
    return e, errors


def ccdf_oracle(edge_list: Path) -> str:
    """CCDF text of the in-degrees, counted straight from the edge list."""
    with open(edge_list) as fh:
        nodes = int(fh.readline().split()[1].split("=")[1])
        in_degree = [0] * nodes
        for line in fh:
            in_degree[int(line.split(",")[1])] += 1
    per_degree: dict[int, int] = {}
    for d in in_degree:
        if d > 0:
            per_degree[d] = per_degree.get(d, 0) + 1
    total = sum(per_degree.values())
    at_least = total
    lines = []
    for k in sorted(per_degree):
        lines.append(f"{k}\t{at_least / total:.10g}\n")
        at_least -= per_degree[k]
    return "".join(lines)


# ---------------------------------------------------------------- workloads

MODEL_FLAGS = ("nodes", "branching", "activity")
FIT = {"fit_kmin": 2, "fit_kmax": None, "path_samples": 200}
FIT_FLAGS = ["--fit-kmin", "2", "--fit-kmax", "auto", "--path-samples", "200"]
# A malformed or missing output makes the check raise one of these.
CHECK_ERRORS = (OSError, ValueError, KeyError, IndexError, TypeError)


def model_flags(model: dict, seed: int) -> list[str]:
    flags = [item for name in MODEL_FLAGS if name in model
             for item in (f"--{name}", str(model[name]))]
    return flags + ["--seed", str(seed)]


@dataclass
class Step:
    """One CLI command and the traced library pass that mirrors it."""

    name: str
    argv: list[str]
    limit_s: float
    traced: dict


class Workload:
    """A fixed input size; the seed is the benchmark's ``--seed``."""

    name = ""
    default_seed = 0
    model: dict = {}
    edge_list: str | None = None

    def steps(self, seed: int, cli: Path, traced: Path) -> list[Step]:
        raise NotImplementedError

    def probe(self, seed: int) -> dict:
        """Request for the untimed work counts of this workload's runs."""
        return {"op": "probe", "model": {**self.model, "seed": seed}}

    def check(self, step: str, cli: Path, outcome: Outcome, deep: bool) -> list[str]:
        """Check one command's outputs; ``deep`` adds the slower oracles."""
        raise NotImplementedError

    def observe(self, cli: Path) -> dict:
        """Digests and values that must repeat on every iteration."""
        raise NotImplementedError

    def cross_check(self, cli: Path, traced: Path, results: dict, probe: dict) -> list[str]:
        """The traced library values must equal the CLI's outputs."""
        raise NotImplementedError


class AnalyzeDeep(Workload):
    name = "analyze_deep"
    default_seed = 7
    edge_list = "net.csv"
    model = {"nodes": 20000, "branching": 2.0, "activity": 0.4}
    report_keys = ["nodes", "edges", "gamma", "ccdf_slope", "r_squared", "fit_kmin",
                   "fit_kmax", "avg_clustering", "avg_shortest_path",
                   "giant_component_fraction", "max_in_degree", "gamma_mle"]

    def steps(self, seed, cli, traced):
        model = {**self.model, "seed": seed}
        return [
            Step("generate", CLI + ["generate", *model_flags(self.model, seed),
                                    "--out", str(cli / "net.csv")], 60,
                 {"op": "generate", "model": model, "out": str(traced / "net.csv")}),
            Step("analyze", CLI + ["analyze", str(cli / "net.csv"), *FIT_FLAGS,
                                   "--out", str(cli / "net")], 60,
                 {"op": "analyze", "edge_list": str(traced / "net.csv"),
                  "ccdf_out": str(traced / "net.ccdf.tsv"), **FIT}),
        ]

    def check(self, step, cli, outcome, deep):
        edges, errors = check_edge_list(cli / "net.csv", self.model["nodes"])
        if step == "generate":
            return errors + check_manifest(cli / "net.csv.manifest.json", {"net.csv"})
        report = json.loads((cli / "net.report.json").read_text())
        text = (cli / "net.report.txt").read_text()
        ccdf = (cli / "net.ccdf.tsv").read_text()
        if sorted(report) != sorted(self.report_keys):
            return errors + [f"report.json keys {sorted(report)}"]
        if text != "".join(f"{k} = {render(report[k])}\n" for k in self.report_keys):
            errors.append("report.txt does not match report.json")
        if outcome.stdout.decode() != text:
            errors.append("analyze stdout differs from report.txt")
        if (report["nodes"], report["edges"]) != (self.model["nodes"], edges):
            errors.append(f"report counts {report['nodes']}/{report['edges']} "
                          f"differ from the edge list")
        if not (0 <= report["avg_clustering"] <= 1 and report["avg_shortest_path"] >= 1
                and 0 < report["giant_component_fraction"] <= 1):
            errors.append(f"report values out of range: {report}")
        if deep and ccdf != ccdf_oracle(cli / "net.csv"):
            errors.append("ccdf.tsv differs from the in-degrees of the edge list")
        if int(ccdf.splitlines()[-1].split("\t")[0]) != report["max_in_degree"]:
            errors.append("max_in_degree differs from the CCDF's last degree")
        return errors

    def observe(self, cli):
        return {
            "digests": {name: sha256(cli / name)
                        for name in ("net.csv", "net.ccdf.tsv", "net.report.txt")},
            "report": json.loads((cli / "net.report.json").read_text()),
        }

    def cross_check(self, cli, traced, results, probe):
        errors = []
        for name in ("net.csv", "net.ccdf.tsv"):
            if sha256(traced / name) != sha256(cli / name):
                errors.append(f"traced {name} differs from the CLI's")
        if results["analyze"]["values"] != json.loads((cli / "net.report.json").read_text()):
            errors.append("traced report values differ from the CLI's report.json")
        if probe["counts"]["edges"] != results["generate"]["edges"]:
            errors.append("generate_with_trace edge count differs from generate")
        return errors


class GenerateExport(Workload):
    name = "generate_export"
    default_seed = 3
    edge_list = "net.csv"
    model = {"nodes": 200000, "branching": 2.0, "activity": 0.4}

    def steps(self, seed, cli, traced):
        model = {**self.model, "seed": seed}
        return [
            Step("generate", CLI + ["generate", *model_flags(self.model, seed),
                                    "--tree-dump", str(cli / "net.tree.tsv"),
                                    "--out", str(cli / "net.csv")], 90,
                 {"op": "generate", "model": model, "out": str(traced / "net.csv"),
                  "tree_dump": str(traced / "net.tree.tsv")}),
            Step("export_dot", CLI + ["export-dot", str(cli / "net.csv"), "--component",
                                      "giant", "--out", str(cli / "net.dot")], 90,
                 {"op": "export_dot", "edge_list": str(traced / "net.csv")}),
        ]

    def check(self, step, cli, outcome, deep):
        nodes = self.model["nodes"]
        if step == "generate":
            _, errors = check_edge_list(cli / "net.csv", nodes)
            errors += check_manifest(cli / "net.csv.manifest.json",
                                     {"net.csv", "net.tree.tsv"})
            if deep:
                errors += self._check_tree_dump(cli / "net.tree.tsv", nodes)
            return errors
        giant_nodes, giant_edges = self.dot_counts(cli / "net.dot")
        if not 2 <= giant_nodes <= nodes or giant_edges < giant_nodes - 1:
            return [f"net.dot: {giant_nodes} nodes and {giant_edges} edges "
                    f"cannot be a connected component"]
        return []

    @staticmethod
    def _check_tree_dump(path: Path, nodes: int) -> list[str]:
        depth = []
        with open(path) as fh:
            for i, line in enumerate(fh):
                node, parent, d = map(int, line.split("\t"))
                if i == 0:
                    ok = (node, parent, d) == (0, -1, 0)
                else:
                    ok = node == i and 0 <= parent < i and d == depth[parent] + 1
                if not ok:
                    return [f"net.tree.tsv line {i + 1} is not a breadth-first tree row"]
                depth.append(d)
        return [] if len(depth) == nodes else [f"net.tree.tsv has {len(depth)} rows"]

    @staticmethod
    def dot_counts(path: Path) -> tuple[int, int]:
        """(node lines, edge lines) of a DOT file written by export-dot."""
        lines = edges = 0
        tail = b""
        with open(path, "rb") as fh:
            if fh.readline() != b"graph g {\n":
                return 0, 0
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                lines += chunk.count(b"\n")
                # Carry three bytes so a separator split across chunks counts once.
                data = tail + chunk
                edges += data.count(b" -- ")
                tail = data[-3:]
            fh.seek(-2, os.SEEK_END)
            if fh.read() != b"}\n":
                return 0, 0
        return lines - 1 - edges, edges

    def observe(self, cli):
        return {"digests": {name: sha256(cli / name)
                            for name in ("net.csv", "net.tree.tsv", "net.dot")}}

    def cross_check(self, cli, traced, results, probe):
        errors = []
        for name in ("net.csv", "net.tree.tsv"):
            if sha256(traced / name) != sha256(cli / name):
                errors.append(f"traced {name} differs from the CLI's")
        counts = results["export_dot"]["counts"]
        if (counts["giant_nodes"], counts["giant_edges"]) != self.dot_counts(cli / "net.dot"):
            errors.append("traced giant component differs from the CLI's DOT file")
        with open(cli / "net.tree.tsv", "rb") as fh:
            fh.seek(-64, os.SEEK_END)
            max_depth = int(fh.read().splitlines()[-1].split(b"\t")[2])
        if (probe["counts"]["depth"], probe["counts"]["edges"]) != \
                (max_depth, results["generate"]["edges"]):
            errors.append("probe depth or edge count differs from the CLI's outputs")
        return errors


WORKLOADS = {w.name: w for w in (AnalyzeDeep(), GenerateExport())}


# ------------------------------------------------------------------ running

class Run:
    """Operation counts and errors for one benchmark run."""

    def __init__(self, workload: Workload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.work = OUT / f"work-{workload.name}-{seed}-{os.getpid()}"
        recorded = json.loads((HERE / "expected.json").read_text())
        self.expected = recorded.get(workload.name, {}).get(str(seed))

    def command(self, name: str, argv: list[str], limit_s: float, logs: Path) -> Outcome:
        self.attempted += 1
        limit = min(limit_s, self.deadline - time.perf_counter())
        return run_command(name, argv, limit, logs)

    def fail(self, outcome: Outcome, errors: list[str]) -> None:
        if errors:
            outcome.errors.extend(errors)
        if not outcome.ok:
            self.failed += 1
            for error in outcome.errors:
                print(f"perfbench: {self.workload.name}: {error}", file=sys.stderr)

    def setup_times(self) -> list[float]:
        """Cold starts of ``--version``, after one start that fills the bytecode cache."""
        probe = self.command("import", [sys.executable, "-c",
                                        "import hiddentree; print(hiddentree.__file__)"],
                             30, self.work)
        where = Path(probe.stdout.decode().strip() or ".").resolve()
        self.fail(probe, [] if SRC.resolve() in where.parents
                  else [f"hiddentree imported from {where}, not {SRC}"])
        times = []
        for i in range(SETUP_STARTS + 1):
            outcome = self.command("version", CLI + ["--version"], 30, self.work)
            ok_text = outcome.stdout.startswith(b"hiddentree ")
            self.fail(outcome, [] if ok_text else ["--version printed no version"])
            if i > 0 and outcome.ok:
                times.append(outcome.wall_s)
        return times

    @staticmethod
    def checked(check, *args) -> list[str]:
        try:
            return check(*args)
        except CHECK_ERRORS as exc:
            return [f"unreadable output: {exc!r}"]

    def loop(self, iterate) -> list:
        """Closed loop: start another iteration only while it is expected to end
        within ``seconds`` plus half an iteration, and well before the deadline."""
        results, durations = [], []
        loop_start = time.perf_counter()
        while True:
            began = time.perf_counter()
            result = iterate(len(results))
            results.append(result)
            durations.append(time.perf_counter() - began)
            now = time.perf_counter()
            typical = statistics.mean(durations)
            if result is None or now - loop_start + typical / 2 > self.seconds \
                    or now + 1.5 * typical > self.deadline:
                return results

    def cli_pass(self, iteration: int, first_seen: dict) -> dict | None:
        """Run the workload's commands once and check their outputs."""
        cli = self.work / "cli"
        shutil.rmtree(cli, ignore_errors=True)
        cli.mkdir(parents=True)
        outcomes = []
        for step in self.workload.steps(self.seed, cli, self.work / "traced"):
            outcome = self.command(step.name, step.argv, step.limit_s, cli)
            outcomes.append(outcome)
            errors = [] if not outcome.ok else self.checked(
                self.workload.check, step.name, cli, outcome, iteration == 0)
            self.fail(outcome, errors)
            if not outcome.ok:
                return None
        try:
            observed = self.workload.observe(cli)
        except CHECK_ERRORS as exc:
            self.fail(outcomes[-1], [f"unreadable output: {exc!r}"])
            return None
        errors = []
        if not first_seen:
            first_seen.update(observed)
        elif observed != first_seen:
            errors.append("outputs differ from the first iteration's")
        if self.expected and any(observed[key] != self.expected[key] for key in observed):
            errors.append(f"outputs differ from perfbench/expected.json: {observed}")
        self.fail(outcomes[-1], errors)
        if errors:
            return None
        edge_list = self.workload.edge_list
        return {"outcomes": outcomes,
                "edge_list_bytes": (cli / edge_list).stat().st_size if edge_list else 0}


def end_to_end(run: Run) -> dict:
    setup = run.setup_times()
    first_seen: dict = {}
    iterations = [r for r in run.loop(lambda i: run.cli_pass(i, first_seen)) if r]
    walls = [sum(o.wall_s for o in r["outcomes"]) for r in iterations]
    peaks = [max(o.peak_rss_mb for o in r["outcomes"]) for r in iterations]
    _save(run, "observed", first_seen)
    print(f"{run.workload.name} seed={run.seed}: {len(walls)} wall samples "
          f"{[round(w, 3) for w in walls]} s; {len(setup)} setup samples; "
          f"fail_frac={run.failed / max(run.attempted, 1):.3g}")
    return {
        "wall_s": (_median(walls), "s"),
        "peak_rss_mb": (_median(peaks), "MB"),
        "setup_s": (_median(setup), "s"),
        "ok_frac": ((run.attempted - run.failed) / max(run.attempted, 1), "ratio"),
    }


def traced(run: Run) -> dict:
    workload = run.workload
    spans: list[dict] = []
    first_seen: dict = {}
    traced_dir = run.work / "traced"

    def child(name: str, request: dict, parent: int | None) -> tuple[dict | None, Outcome]:
        result_path = run.work / f"{name}.result.json"
        outcome = run.command(name, TRACED + [json.dumps(request), str(result_path)],
                              120, run.work)
        run.fail(outcome, [])
        span_id = _span(spans, f"traced.{name}", outcome.start,
                        outcome.start + outcome.wall_s, parent)
        if not outcome.ok:
            return None, outcome
        result = json.loads(result_path.read_text())
        offset = len(spans)
        for s in result["spans"]:
            spans.append({**s, "id": s["id"] + offset,
                          "parent": span_id if s["parent"] is None else s["parent"] + offset})
        result["spans"] = spans[offset:]
        result["span_id"] = span_id
        return result, outcome

    run.work.mkdir(parents=True, exist_ok=True)
    probe, _ = child("probe", workload.probe(run.seed), None)
    if probe is None:
        return {}

    def iterate(i: int):
        root = _span(spans, "iteration", time.perf_counter(), None, None)
        try:
            return traced_iteration(i, root)
        finally:
            spans[root]["end"] = time.perf_counter()

    def traced_iteration(i: int, root: int):
        cli = run.cli_pass(i, first_seen)
        if cli is None:
            return None
        for o in cli["outcomes"]:
            _span(spans, f"cli.{o.name}", o.start, o.start + o.wall_s, root)
        shutil.rmtree(traced_dir, ignore_errors=True)
        traced_dir.mkdir(parents=True)
        results, walls = {}, []
        for step in workload.steps(run.seed, run.work / "cli", traced_dir):
            result, outcome = child(step.name, step.traced, root)
            if result is None:
                return None
            results[step.name] = result
            walls.append(outcome.wall_s)
        errors = run.checked(workload.cross_check, run.work / "cli", traced_dir, results, probe)
        counts = dict(probe["counts"])
        for result in results.values():
            counts.update(result.get("counts", {}))
        if run.expected and counts != run.expected["counts"]:
            errors.append(f"work counts differ from perfbench/expected.json: {counts}")
        run.fail(cli["outcomes"][-1], errors)
        return None if errors else (cli, results, sum(walls), counts)

    iterations = [r for r in run.loop(iterate) if r]
    if not iterations:
        return {}
    counts = iterations[0][3]
    if any(it[3] != counts for it in iterations):
        run.failed += 1
        print(f"perfbench: {workload.name}: work counts changed between iterations",
              file=sys.stderr)
    _save(run, "spans", spans)
    _save(run, "observed", {**first_seen, "counts": counts})
    per_iteration = [_layers(*it) for it in iterations]
    metrics = {name: (_median([m[name][0] for m in per_iteration]), unit)
               for name, (_, unit) in per_iteration[0].items()}
    build_s = _span_time(probe["spans"], "hidden_tree.build_tree")
    metrics["hidden_tree.build_tree_s"] = (build_s, "s")
    print(f"{workload.name} seed={run.seed}: {len(iterations)} traced iterations; "
          f"spans in {OUT.name}/spans-{workload.name}-seed{run.seed}.json")
    return metrics


def _layers(cli: dict, results: dict, traced_wall: float, counts: dict) -> dict:
    """Per-layer figures of one iteration: spans summed by name, plus CLI walls."""
    spans = [s for r in results.values() for s in r["spans"]]
    commands = {r["span_id"] for r in results.values()}
    library_s = sum(s["end"] - s["start"] for s in spans if s["parent"] in commands)
    cli_walls = {o.name: o.wall_s for o in cli["outcomes"]}
    cli_total = sum(cli_walls.values())

    def t(name):
        return _span_time(spans, name)

    def rss(name):
        return max((s["maxrss_after_mb"] for s in spans if s["name"] == name), default=0.0)

    def per_s(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    layers = {
        "hidden_tree.write_tree_dump_s": (t("hidden_tree.write_tree_dump"), "s"),
        "hidden_tree.depth": (counts["depth"], "count"),
        "generator.generate_s": (t("generator.generate"), "s"),
        "generator.selections": (counts["selections"], "count"),
        "generator.self_draws_discarded": (counts["self_draws_discarded"], "count"),
        "generator.closure_edges": (counts["closure_edges"], "count"),
        "generator.edges": (counts["edges"], "count"),
        "generator.keep_ratio": (counts["edges"] / counts["closure_inserts_attempted"], "ratio"),
        "generator.generate.maxrss_after_mb": (rss("generator.generate"), "MB"),
    }
    for stage in ("write_edge_list", "read_edge_list", "undirected_projection",
                  "giant_component"):
        layers[f"graph.{stage}_s"] = (t(f"graph.{stage}"), "s")
        layers[f"graph.{stage}.maxrss_after_mb"] = (rss(f"graph.{stage}"), "MB")
    layers.update({
        "graph.edge_list_bytes": (cli["edge_list_bytes"], "B"),
        "graph.giant_nodes": (counts.get("giant_nodes", 0), "count"),
        "graph.giant_edges": (counts.get("giant_edges", 0), "count"),
        "metrics.avg_clustering_s": (t("metrics.avg_clustering"), "s"),
        "metrics.wedges": (counts.get("wedges", 0), "count"),
        "metrics.clustering_wedges_per_s": (
            per_s(counts.get("wedges", 0), t("metrics.avg_clustering")), "1/s"),
        "metrics.avg_shortest_path_s": (t("metrics.avg_shortest_path"), "s"),
        "metrics.bfs_arc_scans": (counts.get("bfs_arc_scans", 0), "count"),
        "metrics.bfs_arcs_per_s": (
            per_s(counts.get("bfs_arc_scans", 0), t("metrics.avg_shortest_path")), "1/s"),
        "metrics.degree_ccdf_s": (t("metrics.degree_ccdf"), "s"),
        "metrics.fit_s": (t("metrics.fit"), "s"),
        "cli.generate_s": (cli_walls.get("generate", 0.0), "s"),
        "cli.analyze_s": (cli_walls.get("analyze", 0.0), "s"),
        "cli.export_dot_s": (cli_walls.get("export_dot", 0.0), "s"),
        "cli.unattributed_s": (cli_total - library_s, "s"),
        "trace.span_coverage": (library_s / cli_total, "ratio"),
        "trace.overhead_s": (traced_wall - cli_total, "s"),
    })
    return layers


def _span(spans: list, name: str, start: float, end: float | None, parent) -> int:
    spans.append({"id": len(spans), "name": name, "start": start, "end": end,
                  "parent": parent})
    return len(spans) - 1


def _span_time(spans: list, name: str) -> float:
    return sum((s["end"] - s["start"] for s in spans if s["name"] == name), 0.0)


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def _save(run: Run, kind: str, payload) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{kind}-{run.workload.name}-seed{run.seed}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="model seed (default: the workload's recorded seed)")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="how long the closed loop keeps starting iterations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hiddentree" / "__init__.py").is_file():
        print(f"perfbench: no hiddentree sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run = Run(workload, workload.default_seed if args.seed is None else args.seed,
              args.seconds)
    try:
        metrics = traced(run) if args.trace else end_to_end(run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    if not metrics:
        print("perfbench: no iteration completed", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
