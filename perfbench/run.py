"""relwords benchmark: three seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload planted-3k --seed 1 --seconds 10 --trace 0

The program is imported from the checkout's ``src/`` and driven only through
``relwords.cli.main``. One process runs one workload as a closed loop with one
client: each operation starts when the previous one has returned. The timed
part repeats whole rounds (see ROUNDS) until ``--seconds`` have passed.
inspect-1k clusters its corpus once during set-up, and its rounds only read
that run.

Every operation's outputs are checked against the planted topics, and the
sha256 of every artifact must repeat between reruns. An operation that fails
is counted and the run goes on.

Timing. The host's speed drifts by up to ~1.6x within seconds and between
minutes, so operation times are given in reference seconds: wall time scaled
by a calibration probe (a fixed pure-Python loop) that runs before, after
and, every PROBE_PERIOD_S, during each operation. Wall times are in the
report too. ``setup_s`` is wall time from process start to ready, in fresh
interpreters.

Output. With ``--trace 0`` the last line holds the end-to-end metrics. With
``--trace 1`` one untraced round is followed by TRACED_ROUNDS traced rounds
(see tracing.py), and the last line holds the per-layer metrics; the tracing
overhead is a traced round's time over the untraced one's. Every count must
be the same in every operation that produces it. The line before the last is
the full report: environment, samples, artifact digests, check errors and
failures. It is also written, with the spans of a traced run, to
``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import html
import io
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import asdict
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_runs"
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
from workloads import GENERATORS, Generated  # noqa: E402

# The operations of one round; highlight takes the next document of the
# workload's sample each time. Rounds are short because a run is one of
# dozens: on a shared host the drift between runs, not the number of samples
# in a run, dominates the spread of the medians.
ROUNDS = {
    "planted-3k": ("cluster", "relevant", "wordcloud", "highlight", "cluster", "relevant"),
    "longdocs-600": ("cluster", "relevant", "wordcloud", "highlight"),
    "inspect-1k": ("relevant", "wordcloud", "relevant") + ("highlight",) * 10 + ("relevant",) + ("highlight",) * 10,
}
SETUP_RUNS = 3
TRACED_ROUNDS = 2
ARI_FLOOR = 0.95
SETUP_TIMEOUT_S = 60
PROBE_LOOPS = 10_000
PROBE_PERIOD_S = 0.1
EDGE_PROBES = 5
# Probe time that defines the reference speed: reference seconds equal wall
# seconds when one probe takes this long.
REFERENCE_S = 0.0007


def import_relwords():
    """Import the program from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "relwords" / "__init__.py").is_file():
        sys.exit(f"perfbench: no relwords sources at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import relwords
    import relwords.cli
    import relwords.pipeline

    if Path(relwords.__file__).resolve().parent != src / "relwords":
        sys.exit(f"perfbench: imported relwords from {relwords.__file__}, not {src}")
    return relwords


def set_up(workload: str, seed: int, work: Path) -> tuple[Generated, Path]:
    """Generate the workload's corpus and save it as JSON lines."""
    import relwords

    generated = GENERATORS[workload](seed)
    docs = tuple(relwords.Document(id=r["id"], text=r["text"]) for r in generated.records)
    work.mkdir(parents=True, exist_ok=True)
    corpus_path = work / "corpus.jsonl"
    relwords.save_jsonl(relwords.Corpus(docs), corpus_path)
    return generated, corpus_path


def run_cli(argv: list[str], tracer: tracing.Tracer | None = None) -> tuple[bool, str]:
    """One operation through relwords.cli.main; returns (ok, its stderr)."""
    main = sys.modules["relwords.cli"].main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv) if tracer is None else tracer.operation(main, argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    return code == 0, err.getvalue()


def cluster_argv(corpus_path: Path, run_dir: Path) -> list[str]:
    return ["cluster", "--corpus", str(corpus_path), "--outdir", str(run_dir)]


def round_ops(workload: str, generated: Generated, corpus_path: Path, run_dir: Path) -> list[tuple[str, list[str]]]:
    run = str(run_dir)
    # The cluster workloads draw one cloud; inspect-1k draws every cluster's.
    cloud = ["wordcloud", "--run", run] + (["--cluster", "0"] if workload != "inspect-1k" else [])
    docs = iter(generated.highlight_ids * len(ROUNDS[workload]))
    ops = []
    for kind in ROUNDS[workload]:
        if kind == "cluster":
            ops.append((kind, cluster_argv(corpus_path, run_dir)))
        elif kind == "relevant":
            ops.append((kind, ["relevant", "--run", run]))
        elif kind == "wordcloud":
            ops.append((kind, cloud))
        else:
            doc_id = next(docs)
            out = str(run_dir / "html" / f"{doc_id}.html")
            ops.append((kind, ["highlight", "--run", run, "--doc-id", doc_id, "--out", out]))
    return ops


def adjusted_rand_index(truth: list[int], found: list[int]) -> float:
    """Adjusted Rand index of two labelings (DBSCAN noise is one more label)."""
    _, t = np.unique(truth, return_inverse=True)
    _, f = np.unique(found, return_inverse=True)
    table = np.zeros((t.max() + 1, f.max() + 1))
    np.add.at(table, (t, f), 1)

    def pairs(x):
        return float((x * (x - 1) / 2).sum())

    both, rows, cols = pairs(table), pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = rows * cols / pairs(np.array([len(truth)]))
    best = (rows + cols) / 2
    return 1.0 if best == expected else (both - expected) / (best - expected)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Checker:
    """Checks every operation's outputs and that reruns repeat them byte for byte."""

    def __init__(self, generated: Generated, run_dir: Path) -> None:
        self.generated = generated
        self.run_dir = run_dir
        self.texts = {r["id"]: r["text"] for r in generated.records}
        self.digests: dict[str, str] = {}
        self.errors: list[str] = []
        self.cluster_topic: dict[str, int] = {}
        self.ari: float | None = None

    def outputs(self, kind: str, argv: list[str]) -> list[Path]:
        if kind == "cluster":
            return [self.run_dir / "labels.csv", self.run_dir / "manifest.json"]
        if kind == "relevant":
            return [self.run_dir / "relevance.csv"]
        if kind == "wordcloud":
            return sorted(self.run_dir.glob("cluster*.svg"))
        return [Path(argv[-1])]

    def clear(self, kind: str, argv: list[str]) -> None:
        """Remove an operation's outputs so the check sees only fresh ones."""
        for path in self.outputs(kind, argv):
            path.unlink(missing_ok=True)

    def check(self, kind: str, argv: list[str]) -> None:
        errors_before = len(self.errors)
        try:
            getattr(self, f"_check_{kind}")(argv)
        except (OSError, ValueError, IndexError) as exc:
            self._fail(f"{kind}: missing or malformed output: {exc}")
        if len(self.errors) == errors_before and kind != "highlight":
            for path in self.outputs(kind, argv):
                if path.name == "manifest.json":
                    continue  # records the absolute corpus path, not an output
                digest = sha256(path)
                if self.digests.setdefault(path.name, digest) != digest:
                    self.errors.append(f"{path.name} differs between reruns")

    def _fail(self, message: str) -> None:
        self.errors.append(message)

    def _check_cluster(self, argv: list[str]) -> None:
        lines = (self.run_dir / "labels.csv").read_text(encoding="utf-8").splitlines()
        labels = {}
        for line in lines[1:]:
            doc_id, _, label = line.rpartition(",")
            labels[doc_id] = int(label)
        if lines[0] != "doc_id,label" or set(labels) != set(self.texts):
            return self._fail("labels.csv does not list every document once")
        ids = sorted(labels)
        truth = [self.generated.topics[d] for d in ids]
        found = [labels[d] for d in ids]
        ari = adjusted_rand_index(truth, found)
        if self.ari is not None and ari != self.ari:
            self._fail(f"ARI changed between reruns: {self.ari} then {ari}")
        self.ari = ari
        n_clusters = len(set(found) - {-1})
        if n_clusters != len(self.generated.topic_terms):
            self._fail(f"{n_clusters} clusters for {len(self.generated.topic_terms)} planted topics")
        if ari < ARI_FLOOR:
            self._fail(f"ARI {ari:.4f} below {ARI_FLOOR}")
        members = defaultdict(list)
        for doc_id, label in labels.items():
            if label >= 0:
                members[label].append(self.generated.topics[doc_id])
        self.cluster_topic = {str(c): max(set(t), key=t.count) for c, t in members.items()}

    def _planted(self, cluster: str, term: str) -> bool:
        topic = self.cluster_topic.get(cluster)
        return topic is not None and term in self.generated.topic_terms[topic]

    def _check_relevant(self, argv: list[str]) -> None:
        lines = (self.run_dir / "relevance.csv").read_text(encoding="utf-8").splitlines()
        if lines[0] != "cluster,term,tpr,fpr,r_diff,r_quot,r":
            return self._fail("relevance.csv has an unexpected header")
        top: dict[str, str] = {}
        for line in lines[1:]:
            cluster, term, _ = line.split(",", 2)
            top.setdefault(cluster, term)
        if set(top) != set(self.cluster_topic):
            return self._fail("relevance.csv does not score every cluster")
        wrong = sorted(c for c, term in top.items() if not self._planted(c, term))
        if wrong:
            self._fail(f"relevance.csv: top term not planted in cluster(s) {wrong}")

    def _check_wordcloud(self, argv: list[str]) -> None:
        clusters = [argv[argv.index("--cluster") + 1]] if "--cluster" in argv else list(self.cluster_topic)
        for cluster in clusters:
            path = self.run_dir / f"cluster{cluster}.svg"
            if not path.is_file():
                return self._fail(f"{path.name} was not written")
            words = re.findall(r"<text [^>]*>([^<]*)</text>", path.read_text(encoding="utf-8"))
            if not words or not self._planted(cluster, html.unescape(words[0])):
                self._fail(f"{path.name}: largest word is not planted in its cluster")

    def _check_highlight(self, argv: list[str]) -> None:
        doc_id = argv[argv.index("--doc-id") + 1]
        markup = Path(argv[-1]).read_text(encoding="utf-8")
        body = markup.partition('font-family: sans-serif;">')[2].rpartition("</div>")[0]
        if html.unescape(re.sub(r"<span [^>]*>|</span>", "", body)) != self.texts[doc_id]:
            self._fail(f"highlight of {doc_id}: text does not round-trip")
        if "<span " not in body:
            self._fail(f"highlight of {doc_id}: no word highlighted")


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS library loaded in this process, if any."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(library, symbol):
                return int(getattr(library, symbol)())
    return None


def environment(workload: str, seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def calibrate(loops: int) -> float:
    """Seconds a fixed pure-Python loop takes now: a probe of the host's speed."""
    start = time.perf_counter()
    total = 0
    for i in range(loops):
        total += i * i
    return time.perf_counter() - start


class Clock:
    """Times work in wall seconds and in reference seconds.

    Probes run right before and after the work and, on a SIGALRM every
    PROBE_PERIOD_S, while it runs. The work's wall time, less the probes
    inside it, is scaled by REFERENCE_S over the mean probe time, so drifts
    of the host's speed cancel while changes of the program's speed do not."""

    def __init__(self) -> None:
        self._inside: list[float] = []
        signal.signal(signal.SIGALRM, self._probe)

    def _probe(self, signum, frame) -> None:
        self._inside.append(calibrate(PROBE_LOOPS))

    def time(self, work, *args):
        """Returns (work's result, wall seconds, reference seconds)."""
        before = [calibrate(PROBE_LOOPS) for _ in range(EDGE_PROBES)]
        self._inside = []
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        start = time.perf_counter()
        try:
            result = work(*args)
        finally:
            seconds = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        inside = self._inside
        after = [calibrate(PROBE_LOOPS) for _ in range(EDGE_PROBES)]
        net = seconds - sum(inside)
        return result, net, net * REFERENCE_S / statistics.fmean(before + inside + after)


def time_setup(workload: str, seed: int, work: Path) -> dict:
    """Set up in a fresh interpreter: imports, corpus generation, save_jsonl,
    and for inspect-1k the cluster run. Returns the wall time from spawning
    the interpreter to ready, and the reference time of the cluster run."""
    spawned = time.time()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only", str(work),
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed: {proc.stderr.strip()}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"setup_s": report["ready"] - spawned, "cluster_s": report["cluster_s"]}


def setup_only_main(workload: str, seed: int, work: Path) -> None:
    _, corpus_path = set_up(workload, seed, work)
    cluster_s = None
    if workload == "inspect-1k":
        (ok, err), _, cluster_s = Clock().time(run_cli, cluster_argv(corpus_path, work / "run"))
        if not ok:
            sys.exit(f"set-up cluster run failed: {err.strip()}")
    print(json.dumps({"ready": time.time(), "cluster_s": cluster_s}))


def median(values):
    return statistics.median(values) if values else None


class Bench:
    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.args = args
        self.trace = args.trace == 1
        self.setups = []
        if not self.trace:
            self.setups = [time_setup(args.workload, args.seed, work / f"setup{i}") for i in range(SETUP_RUNS)]
        self.run_dir = work / "main" / "run"
        (self.run_dir / "html").mkdir(parents=True)
        self.generated, self.corpus_path = set_up(args.workload, args.seed, work / "main")
        self.clock = Clock()
        self.checker = Checker(self.generated, self.run_dir)
        self.tracer = tracing.Tracer()
        self.samples: dict[str, list[float]] = defaultdict(list)  # reference seconds
        self.wall: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failures: list[str] = []
        self.op_counts: list[tuple[int, dict]] = []  # (round or -1 for set-up, counts) per traced operation
        self.op_scale: list[float] = []  # reference / wall seconds per traced operation
        self.round_seconds: list[tuple[bool, float]] = []  # (traced, reference seconds)

    def operation(self, kind: str, argv: list[str], traced: bool, round_no: int) -> float:
        """Runs and checks one operation of a round (-1 for set-up); returns
        its reference seconds."""
        self.checker.clear(kind, argv)
        (ok, err), seconds, reference = self.clock.time(run_cli, argv, self.tracer if traced else None)
        if traced:
            self.op_counts.append((round_no, tracing.op_counts(self.tracer.take_calls())))
            self.op_scale.append(reference / seconds)
        if round_no >= 0:
            self.attempted += 1
        if not ok:
            last = err.strip().splitlines()[-1] if err.strip() else "failed"
            target = argv[argv.index("--doc-id") + 1] if kind == "highlight" else ""
            self.failures.append(f"{kind} {target}: {last}")
            return reference
        self.checker.check(kind, argv)
        if not traced:
            self.samples[kind].append(reference)
            self.wall[kind].append(seconds)
        return reference

    def run(self) -> dict:
        modules = {"cli": sys.modules["relwords.cli"], "pipeline": sys.modules["relwords.pipeline"]}
        if self.args.workload == "inspect-1k":
            # A traced run clusters twice, so that the embedding and
            # clustering counts can be compared between two runs.
            for _ in range(2 if self.trace else 1):
                with self.tracer.installed(modules) if self.trace else contextlib.nullcontext():
                    self.operation("cluster", cluster_argv(self.corpus_path, self.run_dir), self.trace, -1)
                if self.failures:
                    raise RuntimeError(f"set-up cluster run failed: {self.failures[-1]}")
        ops = round_ops(self.args.workload, self.generated, self.corpus_path, self.run_dir)
        start = time.perf_counter()
        while True:
            round_no = len(self.round_seconds)
            traced = self.trace and round_no > 0
            with self.tracer.installed(modules) if traced else contextlib.nullcontext():
                total = sum(self.operation(kind, argv, traced, round_no) for kind, argv in ops)
            self.round_seconds.append((traced, total))
            done = round_no == TRACED_ROUNDS if self.trace else time.perf_counter() - start >= self.args.seconds
            if done:
                return self.report()

    def end_to_end(self) -> dict[str, float]:
        cluster_s = self.samples["cluster"] + [r["cluster_s"] for r in self.setups if r["cluster_s"]]
        metrics = {
            "setup_s": median([r["setup_s"] for r in self.setups]),
            "relevant_s": median(self.samples["relevant"]),
            "wordcloud_s": median(self.samples["wordcloud"]),
            "highlight_s": median(self.samples["highlight"]),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops_ok_frac": (self.attempted - len(self.failures)) / self.attempted,
            "ari": self.checker.ari,
        }
        if cluster_s:
            metrics["cluster_docs_per_s"] = len(self.generated.records) / median(cluster_s)
        return metrics

    def per_layer(self) -> dict[str, float]:
        spans = self.tracer.spans
        # Span times are scaled by their operation's reference factor.
        own = [s * self.op_scale[span.op] for s, span in zip(tracing.self_seconds(spans), spans)]
        total = [span.seconds * self.op_scale[span.op] for span in spans]
        op_round = [r for r, _ in self.op_counts]  # by operation id
        metrics: dict[str, float] = {}

        # A function's time per operation that calls it (for run_clustering,
        # its self time), as the median over those operations.
        per_op: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        for span, self_s, total_s in zip(spans, own, total):
            per_op[span.name][span.op] += self_s if span.name == "pipeline.run_clustering" else total_s
        for name, by_op in per_op.items():
            if name != tracing.ROOT_SPAN:
                metrics[f"{name}_s"] = median(list(by_op.values()))

        # A layer's self time per traced round, as the median over them.
        rounds = range(1, TRACED_ROUNDS + 1)
        layer_round = {(layer, r): 0.0 for layer in tracing.LAYERS for r in rounds}
        for span, self_s in zip(spans, own):
            if op_round[span.op] >= 0:
                layer_round[span.name.split(".")[0], op_round[span.op]] += self_s
        for layer in tracing.LAYERS:
            metrics[f"{layer}.self_s"] = median([layer_round[layer, r] for r in rounds])

        values: dict[str, set] = defaultdict(set)
        for _, counts in self.op_counts:
            for name, value in counts.items():
                values[name].add(value)
        for name, seen in values.items():
            if len(seen) != 1:
                self.checker.errors.append(f"count {name} differs between operations: {sorted(seen)}")
            metrics[name] = min(seen)

        untraced, *traced = (s for _, s in self.round_seconds)
        metrics["trace.overhead_frac"] = median(traced) / untraced - 1.0
        metrics["trace.spans_per_round"] = sum(1 for span in spans if op_round[span.op] >= 0) / TRACED_ROUNDS
        return metrics

    def report(self) -> dict:
        return {
            "environment": environment(self.args.workload, self.args.seed),
            "trace": self.trace,
            "round_reference_s": [s for _, s in self.round_seconds],
            "samples_reference_s": dict(self.samples),
            "samples_wall_s": dict(self.wall),
            "setup_runs": self.setups,
            "digests": dict(sorted(self.checker.digests.items())),
            "check_errors": self.checker.errors,
            "failures": self.failures,
            "attempted": self.attempted,
            "metrics": self.per_layer() if self.trace else self.end_to_end(),
        }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_relwords()
    if args.setup_only:
        setup_only_main(args.workload, args.seed, args.setup_only)
        return 0

    units = declared_metrics(args.trace == 1)
    base = OUT_DIR / f"work-{os.getpid()}"
    try:
        bench = Bench(args, base)
        report = bench.run()
    finally:
        shutil.rmtree(base, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w", encoding="utf-8") as handle:
            for span in bench.tracer.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    measured = report["metrics"]
    undeclared = sorted(set(measured) - set(units))
    if undeclared:
        sys.exit(f"perfbench: metrics missing from BENCHMARK.json: {undeclared}")
    missing = sorted(name for name in units if measured.get(name) is None)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not report["check_errors"] and not missing,
        "attempted": report["attempted"],
        "failed": len(report["failures"]),
        "metrics": {
            name: {"value": measured[name], "unit": unit}
            for name, unit in units.items()
            if measured.get(name) is not None
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
