"""The two workloads and the operator session both of them run.

A session is what an operator does with the engine: fold a feed into a
fresh store and refresh the scores, answer analyst requests (closed loop,
one client, render included), fold late alerts (one
``ingest_stream(mode="auto")`` call per line), persist, and run the CLI on
the snapshot. ``run.py`` runs it in ROUNDS rounds; see ``Session``.

Workloads differ in the feed and in when requests arrive, so that each
layer does most of its work in one workload and little in another:

* ``chain150``: v1 -> ... -> v151, 11,325 paths of mean 51 hops, so
  per-hop costs (validation, member index, tuple copies, score unions,
  deep trees) dominate. Its late alerts repeat chain arcs, so every splice
  candidate already exists.
* ``triage``: writes beside reads. A fan-out stream of 10,000 alerts over
  2,500 hosts with three fixed targets each (51,889 paths, mean 3.8 hops),
  in 20 windows of 500 alerts; after each window one score refresh, then
  100 requests. Query, render and ranking work, and each window
  invalidates the ranking caches.

Sizes are chosen so that one run of ``--seconds 20``, CLI commands and
correctness checks included, takes about a minute on a 2-core machine.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from alertpaths import (
    AlertStore,
    build_backward_tree,
    build_forward_tree,
    ingest_stream,
    insert_alert,
    parse_eve_line,
    paths_to_table,
    recompute_threat_scores,
    reinsert_alert,
    retrieve_paths,
    top_trees,
    tree_to_dot,
    tree_to_structured,
)

import checks
import feeds
from feeds import Raw, Request
from tracing import NullTracer

FANOUT_NODES = 2500
FANOUT_ALERTS = 10_000
FANOUT_DEGREE = 3
# The traffic's shape (graph, timing, late alerts, requests) is drawn from
# SHAPE_SEED; the run's seed renames hosts and signatures. Runs with
# different seeds then do the same work, and their spread measures the
# host rather than the draw: with the shape drawn per seed, the late-alert
# p95 moved by up to 2x between seeds.
SHAPE_SEED = 8
CHAIN_ARCS = 150
ROUNDS = 5
LATE_FANOUT = 500  # late alerts folded after the feed, a share per round
LATE_CHAIN = 300
LATE_WINDOW = 2000
REQUESTS_AFTER_FEED = 1500
TRIAGE_WINDOWS = 20
TRIAGE_REQUESTS = 100
CLI_APPEND_FANOUT = 100
CLI_APPEND_CHAIN = 10
TOP_K = 10
TOP_TREES = 5  # trees per top request


@dataclass
class Inputs:
    alerts: list[Raw]  # the feed in arrival order; the engine numbers them from 0
    lines: list[str]
    windows: list[int]  # end index of each feed window
    requests: list[list[Request]]  # requests after each window
    interleaved: bool  # requests are served between the windows
    late: list[Raw]  # folded after the feed, a share per round
    late_lines: list[str]
    cli_lines: list[str]  # the next alerts, appended by `alertpaths ingest`


def _rng(purpose: str) -> random.Random:
    return random.Random(f"perfbench:{SHAPE_SEED}:{purpose}")


def _triage_inputs(seed: int) -> Inputs:
    stream = feeds.fanout_stream(
        FANOUT_NODES, FANOUT_ALERTS + LATE_FANOUT + CLI_APPEND_FANOUT, FANOUT_DEGREE, SHAPE_SEED
    )
    feed = stream[:FANOUT_ALERTS]
    late = feeds.backdate(
        stream[FANOUT_ALERTS : FANOUT_ALERTS + LATE_FANOUT], feed, LATE_WINDOW, _rng("late")
    )
    drawer = feeds.RequestDrawer(_rng("requests"))
    step = FANOUT_ALERTS // TRIAGE_WINDOWS
    windows = list(range(step, FANOUT_ALERTS + 1, step))
    requests = []
    start = 0
    for end in windows:
        drawer.feed(feed[start:end])
        requests.append(drawer.draw(TRIAGE_REQUESTS))
        start = end
    return _finish(seed, feed, windows, requests, True, late, stream[FANOUT_ALERTS + LATE_FANOUT :])


def _chain_inputs(seed: int) -> Inputs:
    chain = feeds.chain_stream(CHAIN_ARCS + CLI_APPEND_CHAIN)
    feed = chain[:CHAIN_ARCS]
    late = feeds.duplicate_hops(feed, LATE_CHAIN, _rng("late"))
    drawer = feeds.RequestDrawer(_rng("requests"))
    drawer.feed(feed)
    requests = [drawer.draw(REQUESTS_AFTER_FEED)]
    return _finish(seed, feed, [CHAIN_ARCS], requests, False, late, chain[CHAIN_ARCS:])


def _finish(seed, stream, windows, requests, interleaved, late, cli_next) -> Inputs:
    """Rename everything with the run's seed and render the EVE lines."""
    rename = feeds.Renamer.seeded(seed, stream + late + cli_next)
    stream, late, cli_next = rename.alerts(stream), rename.alerts(late), rename.alerts(cli_next)
    first_flow = len(stream)
    return Inputs(
        alerts=stream,
        lines=feeds.eve_lines(stream),
        windows=windows,
        requests=[rename.requests(batch) for batch in requests],
        interleaved=interleaved,
        late=late,
        late_lines=feeds.eve_lines(late, first_flow=first_flow),
        cli_lines=feeds.eve_lines(cli_next, first_flow=first_flow + len(late)),
    )


WORKLOADS = {"chain150": _chain_inputs, "triage": _triage_inputs}


# ---------------------------------------------------------------------------
# one call per layer
# ---------------------------------------------------------------------------


def fold(store: AlertStore, lines: list[str], mode: str, tr) -> tuple[int, int]:
    """Fold lines as ``ingest_stream`` does; returns (reinserted, errors).

    With tracing off this is the user's call. With tracing on, the same
    steps are made one public function at a time, so that parse, insert
    and reinsert each get their own spans and counts.
    """
    if not tr.enabled:
        report = ingest_stream(store, lines, fmt="eve", mode=mode)
        return report.reinserted, report.error_count
    with tr.span("ingest.parse"):
        alerts = [alert for alert in map(parse_eve_line, lines) if alert is not None]
    tr.count("ingest.lines", len(lines))
    if mode == "chronological":
        alerts.sort(key=lambda alert: alert.time_us)
    seq = store.next_seq
    reinserted = 0
    for alert in alerts:
        alert = replace(alert, seq=seq)
        seq += 1
        latest = store.latest_time_us
        if mode == "auto" and latest is not None and alert.time_us < latest:
            with tr.span("bench.count"):
                prefixes = len(store.find_paths_ending_at(alert.source))
                suffixes = len(store.find_paths_starting_at(alert.destination))
            with tr.span("maintenance.reinsert"):
                outcome = reinsert_alert(store, alert)
            tr.count("maintenance.reinsert_calls")
            tr.count("maintenance.reinsert_splice_candidates", (prefixes + 1) * (suffixes + 1) - 1)
            tr.count("maintenance.reinsert_paths_created", outcome.paths_created)
            reinserted += 1
        else:
            # Every path an in-order alert creates ends at its destination.
            with tr.span("bench.count"):
                hops_before = _hops(store.find_paths_ending_at(alert.destination))
            with tr.span("maintenance.insert"):
                outcome = insert_alert(store, alert)
            with tr.span("bench.count"):
                hops_after = _hops(store.find_paths_ending_at(alert.destination))
            tr.count("maintenance.insert_paths_created", outcome.paths_created)
            tr.count("maintenance.insert_hops_created", hops_after - hops_before)
    return reinserted, 0


def score(store: AlertStore, tr) -> None:
    if tr.enabled:
        with tr.span("bench.count"):
            tr.count("maintenance.score_paths", store.stats().path_count)
            tr.count("maintenance.score_pair_visits", _hops(store.paths()))
        tr.count("maintenance.score_calls")
    with tr.span("maintenance.score"):
        recompute_threat_scores(store)


def _hops(paths) -> int:
    return sum(len(path.vertices) - 1 for path in paths)


def serve(store: AlertStore, request: Request, tr) -> tuple[str, list, list]:
    """Answer one analyst request; returns (rendered text, trees, paths)."""
    kind, first, second = request
    if kind == "forward":
        with tr.span("query.forward_tree"):
            tree = build_forward_tree(store, first)
        with tr.span("render.dot"):
            return tree_to_dot(tree), [tree], []
    if kind == "backward":
        with tr.span("query.backward_tree"):
            tree = build_backward_tree(store, first)
        with tr.span("render.structured"):
            return tree_to_structured(tree), [tree], []
    if kind == "retrieve":
        with tr.span("query.retrieve"):
            paths = retrieve_paths(store, first, second)
        with tr.span("render.table"):
            return paths_to_table(paths, store), [], paths
    if tr.enabled:
        tr.count("query.top_trees_paths_scanned", store.stats().path_count)
    with tr.span("query.top_trees"):
        trees = top_trees(store, TOP_TREES)
    with tr.span("render.dot"):
        parts = [tree_to_dot(tree) for tree in trees]
    with tr.span("store.rank"):
        best, _ = store.top_paths_by_pts(TOP_K)
        endpoints, _ = store.top_endpoints_by_ets(TOP_K)
    with tr.span("render.table"):
        parts.append(paths_to_table(best, store))
    parts.extend(f"{r.pair.source}->{r.pair.destination} {r.ets!r}\n" for r in endpoints)
    return "".join(parts), trees, best


def ranked_top(store: AlertStore) -> tuple[list[str], list[tuple[str, ...]]]:
    """What a top request must answer, ranked here from every stored path:
    the TOP_TREES roots with the best path PTS (ties by label), and the
    TOP_K paths by PTS (ties by vertices)."""
    best: dict[str, float] = {}
    for path in store.paths():
        if path.pts > best.get(path.origin, float("-inf")):
            best[path.origin] = path.pts
    roots = sorted(best, key=lambda root: (-best[root], root))[:TOP_TREES]
    paths = heapq.nsmallest(TOP_K, store.paths(), key=lambda p: (-p.pts, p.vertices))
    return roots, [p.vertices for p in paths]


def check_response(
    store: AlertStore, request: Request, trees: list, paths: list, top: tuple | None
) -> list[str]:
    """Check one answer against the store; ``top`` is ``ranked_top(store)``
    for top requests."""
    kind, first, second = request
    if kind in ("forward", "backward"):
        (tree,) = trees
        if kind == "forward":
            expected = {p.vertices for p in store.find_paths_starting_at(first)}
        else:
            expected = {tuple(reversed(p.vertices)) for p in store.find_paths_ending_at(first)}
        if checks.tree_chains(tree) != expected:
            return [f"{kind} tree of {first} differs from the stored paths"]
    elif kind == "retrieve":
        expected = sorted((-p.pts, p.vertices) for p in store.find_paths_between(first, second))
        if [(-p.pts, p.vertices) for p in paths] != expected:
            return [f"retrieve {first}->{second} is not every stored path between them, ranked"]
        if any(p.origin != first or p.target != second for p in paths):
            return [f"retrieve {first}->{second} returned a path with other ends"]
    else:
        roots, best = top
        if [tree.root.label for tree in trees] != roots:
            return [f"top trees have roots {[tree.root.label for tree in trees]}, expected {roots}"]
        if [p.vertices for p in paths] != best:
            return ["top paths are not the highest-PTS stored paths"]
    return []


# ---------------------------------------------------------------------------
# the session
# ---------------------------------------------------------------------------


def _part(items: list, share: int | None) -> list[tuple[int, object]]:
    """(index, item) pairs of one round's share of items; all if share is None."""
    indexed = list(enumerate(items))
    return indexed if share is None else indexed[share::ROUNDS]


@dataclass
class Session:
    """Runs the phases and keeps what they measured and answered.

    The untraced run splits the requests and late alerts into ROUNDS shares
    and runs feed, requests, late alerts and CLI once per round, so that
    every metric's samples spread over the whole run. Answers are kept per
    request, so the responses digest does not depend on how the requests
    were split.
    """

    inputs: Inputs
    workdir: Path
    src: Path
    tr: object = field(default_factory=NullTracer)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    query_ms: list[float] = field(default_factory=list)
    answers: dict[tuple[int, int], str] = field(default_factory=dict)
    snapshot_digest: str = ""
    cli_outputs: list[tuple[str, str]] = field(default_factory=list)

    def feed_pass(self, serve_requests: bool, share: int | None = None) -> tuple[AlertStore, float]:
        """Fold the whole feed into a fresh store; returns (store, seconds
        spent folding and scoring). With ``serve_requests``, interleaved
        requests are served between windows, outside the feed time."""
        inputs, tr = self.inputs, self.tr
        store = AlertStore()
        feed_s = 0.0
        start = 0
        for window, (end, requests) in enumerate(zip(inputs.windows, inputs.requests)):
            lines = inputs.lines[start:end]
            began = perf_counter()
            with tr.span("bench.feed"):
                _, errors = fold(store, lines, "chronological", tr)
                score(store, tr)
            self.failed += errors
            feed_s += perf_counter() - began
            self.attempted += len(lines)
            start = end
            if inputs.interleaved and serve_requests:
                self.serve(store, window, requests, share)
        return store, feed_s

    def serve(self, store: AlertStore, window: int, requests: list[Request], share: int | None) -> None:
        tr = self.tr
        top = None  # ranked once per call: the store does not change in between
        for index, request in _part(requests, share):
            began = perf_counter()
            with tr.span("bench.request"):
                text, trees, paths = serve(store, request, tr)
            self.query_ms.append((perf_counter() - began) * 1000.0)
            self.attempted += 1
            encoded = text.encode("utf-8")
            self.answers[(window, index)] = hashlib.sha256(encoded).hexdigest()
            if tr.enabled:
                tr.count("query.tree_nodes", sum(len(tree.nodes()) for tree in trees))
                tr.count("render.bytes_out", len(encoded))
            if request[0] == "top" and top is None:
                top = ranked_top(store)
            self.failures.extend(check_response(store, request, trees, paths, top))

    def late_alerts(self, store: AlertStore, share: int | None) -> list[Raw]:
        """Fold one share of the late alerts; returns the alerts folded."""
        folded = []
        for index, line in _part(self.inputs.late_lines, share):
            began = perf_counter()
            with self.tr.span("bench.late_alert"):
                reinserted, errors = fold(store, (line,), "auto", self.tr)
            self.late_ms.append((perf_counter() - began) * 1000.0)
            self.attempted += 1
            self.failed += errors
            folded.append(self.inputs.late[index])
            if not reinserted:
                self.failures.append(f"late alert {index} was not routed to reinsertion")
        return folded

    def persist(self, store: AlertStore) -> Path:
        directory = self.workdir / "store"
        directory.mkdir(exist_ok=True)
        snapshot = directory / "store.jsonl"
        with self.tr.span("bench.persist"):
            score(store, self.tr)
            with self.tr.span("store.snapshot"):
                store.snapshot(snapshot)
        self.attempted += 1
        self.snapshot_digest = hashlib.sha256(snapshot.read_bytes()).hexdigest()
        return snapshot

    def cli(self, name: str, args: list[str]) -> tuple[float, str]:
        env = dict(os.environ, PYTHONPATH=str(self.src), PYTHONHASHSEED="0")
        began = perf_counter()
        with self.tr.span(name):
            proc = subprocess.run(
                [sys.executable, "-m", "alertpaths.cli", *args],
                env=env,
                capture_output=True,
                text=True,
                timeout=150,
            )
        elapsed = perf_counter() - began
        self.attempted += 1
        if proc.returncode != 0:
            self.failed += 1
            self.failures.append(f"{name} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return elapsed, proc.stdout

    def cli_round(self, snapshot: Path) -> tuple[float, float]:
        """One `top` on the snapshot's store, then one `ingest` of the next
        alerts into a copy of it; returns their wall times."""
        top_s, top_out = self.cli(
            "cli.top", ["top", "--what", "trees", "--k", str(TOP_K), "--store", str(snapshot.parent)]
        )
        ingest_dir = self.workdir / "ingest"
        shutil.rmtree(ingest_dir, ignore_errors=True)
        ingest_dir.mkdir()
        shutil.copyfile(snapshot, ingest_dir / "store.jsonl")
        ingest_s, ingest_out = self.cli(
            "cli.ingest",
            ["ingest", "--store", str(ingest_dir), "--input", str(self.workdir / "cli_next.jsonl")],
        )
        if self.cli_outputs and self.cli_outputs[-1] != (top_out, ingest_out):
            self.failures.append("CLI commands on the same snapshot printed different bytes")
        self.cli_outputs.append((top_out, ingest_out))
        return top_s, ingest_s

    def digest(self) -> str:
        """sha256 over every answer in request order, then every CLI output."""
        digest = hashlib.sha256()
        for key in sorted(self.answers):
            digest.update(self.answers[key].encode())
        for top_out, ingest_out in self.cli_outputs[:1]:
            digest.update(top_out.encode("utf-8"))
            digest.update(ingest_out.encode("utf-8"))
        return digest.hexdigest()

    def check_cli(self, store: AlertStore) -> None:
        """`top` names the same roots as the library; `ingest` creates as
        many paths as folding the same lines in-process. ``store`` is the
        snapshot's store loaded in-process; this folds the lines into it."""
        top_out, ingest_out = self.cli_outputs[-1]
        roots = [tree.root.label for tree in top_trees(store, TOP_K)]
        printed = [line.split()[0].removeprefix("root=") for line in top_out.splitlines()]
        if printed != roots:
            self.failures.append(f"cli top printed roots {printed[:3]}..., library gives {roots[:3]}...")
        report = ingest_stream(store, self.inputs.cli_lines, fmt="eve", mode="chronological")
        try:
            cli_report = json.loads(ingest_out)
        except ValueError:
            self.failures.append("cli ingest did not print a JSON report")
            return
        if cli_report.get("paths_created") != report.paths_created or cli_report.get("errors") != 0:
            self.failures.append(
                f"cli ingest created {cli_report.get('paths_created')} paths, "
                f"in-process fold creates {report.paths_created}"
            )
