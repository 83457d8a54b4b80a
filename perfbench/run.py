"""alertpaths benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload triage --seed 8 --seconds 20 --trace 0

The engine is imported from ``src/`` of the checkout, and the CLI runs as
``python -m alertpaths.cli`` with the same ``src/`` on its path. With
``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it compares untraced and traced feed passes, then runs
the session once with spans around every call into the engine, and
reports the per-layer metrics instead. Either way
the correctness checks run after the timed section, and the last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``. A failed check
prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC = CHECKOUT / "src"
WORK_ROOT = BENCH_DIR / ".work"
WARMUP_SHARE = 50  # warm up on the first 1/50 of the feed
SETUP_REPS = 3  # set-ups per round
OVERHEAD_PAIRS = 4  # pairs of an untraced and a traced feed pass, for the tracing overhead


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=8)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long feed passes are repeated")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "alertpaths" / "__init__.py").is_file():
        print(f"error: no engine sources at {SRC}/alertpaths", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import checks
    import tracing
    import workloads  # imports the engine

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        run = Run(workloads, tracing, checks, args, workdir)
        first_setup = run.setup()
        metrics = run.traced() if args.trace else run.untraced(first_setup)
        correct = run.check()
        if args.trace:
            metrics["store.bytes_per_path"] = (run.bytes_per_path(), "B/path")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    session = run.session
    for failure in session.failures:
        print(f"CHECK FAILED: {failure}")
    print(f"digest snapshot sha256={session.snapshot_digest}")
    print(f"digest responses sha256={session.digest()}")
    for note in run.notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


class Run:
    def __init__(self, workloads, tracing, checks, args, workdir: Path) -> None:
        self.w = workloads
        self.tracing = tracing
        self.checks = checks
        self.args = args
        self.workdir = workdir
        self.notes: list[str] = []
        self.late: list = []
        self.session = None

    # -- set-up ---------------------------------------------------------

    def setup(self) -> float:
        """Import the engine in a fresh interpreter, generate the inputs,
        write the CLI's input file and warm up; returns the seconds taken,
        counting the interpreter's start-up out. Every repetition makes the
        same inputs."""
        import_s = _import_seconds()
        gc.collect()
        began = perf_counter()
        inputs = self.w.WORKLOADS[self.args.workload](self.args.seed)
        (self.workdir / "cli_next.jsonl").write_text("".join(inputs.cli_lines), encoding="utf-8")
        warm = self.w.AlertStore()
        self.w.ingest_stream(warm, inputs.lines[: len(inputs.lines) // WARMUP_SHARE])
        self.w.recompute_threat_scores(warm)
        self.w.tree_to_dot(self.w.build_forward_tree(warm, inputs.alerts[0][0]))
        elapsed = import_s + perf_counter() - began
        if self.session is None:
            self.inputs = inputs
            self.session = self.w.Session(inputs, self.workdir, SRC)
        return elapsed

    # -- end-to-end -----------------------------------------------------

    def untraced(self, first_setup: float) -> dict:
        """ROUNDS rounds of: SETUP_REPS set-ups, feed passes for a share of
        --seconds, a share of the requests and late alerts, one of each CLI
        command. The first round also persists the store the CLI commands use."""
        inputs, session = self.inputs, self.session
        alerts = len(inputs.alerts)
        setups, rates, top_s, ingest_s, shapes = [first_setup], [], [], [], set()
        snapshot = None
        for share in range(self.w.ROUNDS):
            store = None  # the last round's store is checked; earlier ones go
            setups += [self.setup() for _ in range(SETUP_REPS)]
            began, passes = perf_counter(), 0
            while passes == 0 or perf_counter() - began < self.args.seconds / self.w.ROUNDS:
                store = None
                gc.collect()
                store, feed_s = session.feed_pass(serve_requests=passes == 0, share=share)
                rates.append(alerts / feed_s)
                shapes.add(store.stats().path_count)
                passes += 1
            if not inputs.interleaved:
                session.serve(store, 0, inputs.requests[-1], share)
            self.late = session.late_alerts(store, share)
            if snapshot is None:
                snapshot = self.snapshot = session.persist(store)
            top, ingest = session.cli_round(snapshot)
            top_s.append(top)
            ingest_s.append(ingest)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if len(shapes) != 1:
            session.failures.append(f"feed passes built stores of {sorted(shapes)} paths")
        self.store = store
        self.notes += [
            f"feed passes {len(rates)}: " + _fmt(rates, "{:.0f}") + " alerts/s",
            f"late alert samples {len(session.late_ms)}, query samples {len(session.query_ms)}",
            f"set-up s: {_fmt(setups)}; cli top s: {_fmt(top_s)}; cli ingest s: {_fmt(ingest_s)}",
        ]
        return {
            "setup_s": (statistics.median(setups), "s"),
            "feed_alerts_per_s": (statistics.median(rates), "alerts/s"),
            "late_alert_p50_ms": (_percentile(session.late_ms, 50), "ms"),
            "late_alert_p95_ms": (_percentile(session.late_ms, 95), "ms"),
            "query_p50_ms": (_percentile(session.query_ms, 50), "ms"),
            "query_p99_ms": (_percentile(session.query_ms, 99), "ms"),
            "cli_top_s": (statistics.median(top_s), "s"),
            "cli_ingest_s": (statistics.median(ingest_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    # -- per layer ------------------------------------------------------

    def traced(self) -> dict:
        """Pairs of an untraced and a traced feed pass, for the tracing
        overhead; then the whole session once with spans. A pair's passes
        run back to back, so a slow stretch of the host slows both, and
        every other pair runs the traced pass first."""
        session, inputs = self.session, self.inputs
        untraced_s, traced_s, shapes = [], [], set()
        for pair in range(OVERHEAD_PAIRS):
            tracers = [self.tracing.NullTracer(), self.tracing.Tracer()]
            for tr in tracers if pair % 2 == 0 else reversed(tracers):
                session.tr = tr
                gc.collect()
                store, feed_s = session.feed_pass(serve_requests=False)
                shapes.add(store.stats().path_count)
                del store
                if tr.enabled:
                    traced_s.append(feed_s - tr.total("bench.count"))
                else:
                    untraced_s.append(feed_s)
        gc.collect()
        tr = self.tracing.Tracer()
        session.tr = tr
        store, _ = session.feed_pass(serve_requests=True)
        shapes.add(store.stats().path_count)
        if len(shapes) != 1:
            session.failures.append(f"traced and untraced feed passes built stores of {sorted(shapes)} paths")
        if not inputs.interleaved:
            session.serve(store, 0, inputs.requests[-1], None)
        self.late = session.late_alerts(store, None)
        snapshot = self.snapshot = session.persist(store)
        loaded = self.w.AlertStore()
        with tr.span("bench.persist"):
            with tr.span("store.load"):
                loaded.load(snapshot)
        del loaded
        rounds = [session.cli_round(snapshot) for _ in range(self.w.ROUNDS)]
        cli_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        self.store = store
        path_count = store.stats().path_count
        trace_file = WORK_ROOT / f"trace-{self.args.workload}-seed{self.args.seed}.jsonl"
        tr.write(trace_file)
        untraced_rate = len(inputs.alerts) / statistics.median(untraced_s)
        traced_rate = len(inputs.alerts) / statistics.median(traced_s)
        overhead = statistics.median(1 - u / t for u, t in zip(untraced_s, traced_s))
        self.notes.append(f"spans written to {trace_file.relative_to(CHECKOUT)}")
        self.notes += _layer_table(tr)

        t, c = tr.total, tr.counts
        metrics = {
            "ingest.parse_s": (t("ingest.parse"), "s"),
            "ingest.parse_lines_per_s": (_div(c["ingest.lines"], t("ingest.parse")), "lines/s"),
            "maintenance.insert_s": (t("maintenance.insert"), "s"),
            "maintenance.insert_paths_created": (c["maintenance.insert_paths_created"], "count"),
            "maintenance.insert_paths_per_s": (
                _div(c["maintenance.insert_paths_created"], t("maintenance.insert")), "paths/s"),
            "maintenance.insert_hops_created": (c["maintenance.insert_hops_created"], "count"),
            "maintenance.reinsert_s": (t("maintenance.reinsert"), "s"),
            "maintenance.reinsert_calls": (c["maintenance.reinsert_calls"], "count"),
            "maintenance.reinsert_paths_created": (c["maintenance.reinsert_paths_created"], "count"),
            "maintenance.reinsert_splice_candidates": (
                c["maintenance.reinsert_splice_candidates"], "count"),
            "maintenance.reinsert_yield": (
                _div(c["maintenance.reinsert_paths_created"],
                     c["maintenance.reinsert_splice_candidates"]), "ratio"),
            "maintenance.score_s": (t("maintenance.score"), "s"),
            "maintenance.score_calls": (c["maintenance.score_calls"], "count"),
            "maintenance.score_paths_per_s": (
                _div(c["maintenance.score_paths"], t("maintenance.score")), "paths/s"),
            "maintenance.score_pair_visits": (c["maintenance.score_pair_visits"], "count"),
            "store.rank_s": (t("store.rank"), "s"),
            "store.path_count": (path_count, "count"),
            "store.snapshot_s": (t("store.snapshot"), "s"),
            "store.snapshot_bytes": (snapshot.stat().st_size, "bytes"),
            "store.load_s": (t("store.load"), "s"),
            "store.load_paths_per_s": (_div(path_count, t("store.load")), "paths/s"),
            "query.forward_tree_s": (t("query.forward_tree"), "s"),
            "query.backward_tree_s": (t("query.backward_tree"), "s"),
            "query.retrieve_s": (t("query.retrieve"), "s"),
            "query.top_trees_s": (t("query.top_trees"), "s"),
            "query.tree_nodes": (c["query.tree_nodes"], "count"),
            "query.top_trees_paths_scanned": (c["query.top_trees_paths_scanned"], "count"),
            "render.dot_s": (t("render.dot"), "s"),
            "render.structured_s": (t("render.structured"), "s"),
            "render.table_s": (t("render.table"), "s"),
            "render.bytes_out": (c["render.bytes_out"], "bytes"),
            "cli.top_s": (statistics.median(top for top, _ in rounds), "s"),
            "cli.ingest_s": (statistics.median(ingest for _, ingest in rounds), "s"),
            "cli.peak_rss_mb": (cli_rss_mb, "MB"),
        }
        for layer, seconds in tr.self_times().items():
            metrics[f"self.{layer}_s"] = (seconds, "s")
        metrics.update({
            "trace.spans": (len(tr.spans), "count"),
            "trace.untraced_feed_alerts_per_s": (untraced_rate, "alerts/s"),
            "trace.traced_feed_alerts_per_s": (traced_rate, "alerts/s"),
            "trace.overhead_share": (overhead, "ratio"),
        })
        return metrics

    def bytes_per_path(self) -> float:
        """Traced allocations of a freshly fed store, per stored path; a
        separate untimed pass, since tracemalloc slows every allocation."""
        self.store = None
        session = self.w.Session(self.inputs, self.workdir, SRC)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            store, _ = session.feed_pass(serve_requests=False)
            used = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        return used / max(1, store.stats().path_count)

    # -- checks ---------------------------------------------------------

    def check(self) -> bool:
        """Untimed: the store holds exactly the feed, is exact, equals a
        sorted replay, and the CLI agrees with the library.
        Returns whether every check held and no operation failed."""
        session, inputs, store = self.session, self.inputs, self.store
        arrivals = inputs.alerts + self.late
        session.failures += self.checks.holds_alerts(store, arrivals)
        session.failures += self.checks.exactness(store)
        session.failures += self.checks.sorted_replay(store, arrivals)
        del store
        self.store = None
        persisted = self.w.AlertStore()
        persisted.load(self.snapshot)
        session.check_cli(persisted)
        return not session.failures and session.failed == 0


def _import_seconds() -> float:
    """``import alertpaths`` in a fresh interpreter, as ``-X importtime``
    reports it: its own modules and every module they pull in first."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import alertpaths"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "alertpaths":
            return int(fields[1]) / 1e6
    raise RuntimeError("python -X importtime reported no time for alertpaths")


def _layer_table(tr) -> list[str]:
    spans: dict[str, int] = {}
    for span in tr.spans:
        if span is not None:
            layer = span[0].split(".", 1)[0]
            spans[layer] = spans.get(layer, 0) + 1
    rows = ["layer         spans    self_s"]
    for layer, self_s in tr.self_times().items():
        rows.append(f"{layer:<12} {spans.get(layer, 0):>6}  {self_s:>8.3f}")
    return rows


def _percentile(samples: list[float], pct: int) -> float:
    if len(samples) < 2:
        return samples[0] if samples else float("nan")
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def _fmt(values, spec: str = "{:.3f}") -> str:
    return " ".join(spec.format(v) for v in values)


if __name__ == "__main__":
    raise SystemExit(main())
