"""Command-line front end.

Machine-readable results go to stdout, diagnostics to stderr. The store
lives in a directory (``--store`` or the ALERTPATHS_STORE environment
variable) holding one snapshot file, the alert log; commands that mutate it
take an exclusive lock, read-only commands a shared one. Only ``ingest``
replays the log into an `AlertStore`. The read-only commands (``paths``,
``tree``, ``top``, ``stats``, ``snapshot``) read it, and ``load`` its
input, into an `AlertLog`, which derives just the paths each answer needs,
so they never hold the path set. Exit codes: 0 success, 2 argument errors,
3 parse errors, 4 store errors, 1 anything else.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from pathlib import Path

from . import bench
from .derivation import AlertLog
from .errors import ParseError, StoreError
from .ingest import fold_alerts, parse_feed
from .query import build_backward_tree, build_forward_tree, retrieve_paths, top_trees
from .render import color_hex, format_score, paths_to_table, tree_to_dot, tree_to_structured
from .store import AlertStore

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_STORE = 4

STORE_ENV_VAR = "ALERTPATHS_STORE"
STORE_FILENAME = "store.jsonl"
LOCK_FILENAME = ".lock"
_DIGITS = re.compile(r"[0-9]+")  # ASCII only, as in the CSV parser's time and id

try:
    import fcntl
except ImportError:  # non-POSIX; single-process use only
    fcntl = None  # type: ignore[assignment]


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STORE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alertpaths",
        description="Maintain alert paths over an IDS feed and answer triage queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, handler, store: bool = True):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        if store:
            cmd.add_argument(
                "--store",
                default=os.environ.get(STORE_ENV_VAR),
                help=f"store directory (default: ${STORE_ENV_VAR})",
            )
        return cmd

    cmd = add("ingest", "parse an alert feed and insert it", _cmd_ingest)
    cmd.add_argument("--input", required=True, help="feed file to read")
    cmd.add_argument("--format", choices=("eve", "csv"), default="eve")
    cmd.add_argument("--mode", choices=("chronological", "auto"), default="chronological")
    cmd.add_argument("--strict", action="store_true", help="fail on the first bad line")

    cmd = add("paths", "paths between two endpoints, best first", _cmd_paths)
    cmd.add_argument("--origin", required=True)
    cmd.add_argument("--target", required=True)
    cmd.add_argument("--top", type=_count, default=None, help="limit to the best K paths")

    cmd = add("tree", "reconstruct an alert tree", _cmd_tree)
    cmd.add_argument("--root", required=True)
    cmd.add_argument("--direction", choices=("forward", "backward"), default="forward")
    cmd.add_argument("--dot", default=None, help="write Graphviz source to this file")
    cmd.add_argument("--json", default=None, help="write the structured tree to this file")

    cmd = add("top", "ranked endpoints, paths, or trees", _cmd_top)
    cmd.add_argument("--what", choices=("endpoints", "paths", "trees"), required=True)
    cmd.add_argument("--k", type=_count, required=True)
    cmd.add_argument("--direction", choices=("forward", "backward"), default="forward")

    add("stats", "store size counters", _cmd_stats)

    cmd = add("snapshot", "write the store to a portable file", _cmd_snapshot)
    cmd.add_argument("--output", required=True)

    cmd = add("load", "replace the store with a snapshot's contents", _cmd_load)
    cmd.add_argument("--input", required=True)

    cmd = add("bench", "synthetic workload checks", _cmd_bench, store=False)
    cmd.add_argument("workload", choices=("chain",))
    cmd.add_argument("--n", type=_count, required=True, help="chain length in alerts")

    return parser


def _count(text: str) -> int:
    """Argument type of ``--top``, ``--k`` and ``--n``: a non-negative integer."""
    if not _DIGITS.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


# ---------------------------------------------------------------------------
# store plumbing
# ---------------------------------------------------------------------------


def _store_dir(args: argparse.Namespace) -> Path:
    if not args.store:
        raise ValueError(
            f"no store directory; pass --store or set {STORE_ENV_VAR}"
        )
    return Path(args.store)


@contextlib.contextmanager
def _locked(directory: Path, exclusive: bool):
    directory.mkdir(parents=True, exist_ok=True)
    lock_path = directory / LOCK_FILENAME
    handle = open(lock_path, "a+", encoding="utf-8")
    try:
        if fcntl is not None:
            fcntl.flock(handle, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
        yield
    finally:
        if fcntl is not None:
            fcntl.flock(handle, fcntl.LOCK_UN)
        handle.close()


def _read_log(args: argparse.Namespace) -> AlertLog:
    """The alert log of a read-only command, read under a shared lock."""
    directory = _store_dir(args)
    snapshot = directory / STORE_FILENAME
    # checked before locking, which creates the directory; a snapshot is
    # only ever replaced by rename, so it still exists under the lock
    if not snapshot.exists():
        raise StoreError(f"no store at {directory} (expected {snapshot})")
    with _locked(directory, exclusive=False):
        return AlertLog.read(snapshot)


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def _cmd_ingest(args: argparse.Namespace) -> int:
    directory = _store_dir(args)
    snapshot = directory / STORE_FILENAME
    # the feed is read and parsed before locking, which creates the store
    # directory, so a missing or (with --strict) bad feed creates nothing
    with open(args.input, "r", encoding="utf-8") as feed:
        parsed, report = parse_feed(feed, fmt=args.format, strict=args.strict)
    with _locked(directory, exclusive=True):
        store = AlertStore()
        if snapshot.exists():
            store.load(snapshot)
        fold_alerts(store, parsed, report, mode=args.mode, progress=_progress)
        store.snapshot(snapshot)
    for line_no, message in report.errors:
        print(f"line {line_no}: {message}", file=sys.stderr)
    print(json.dumps(report.to_dict(), sort_keys=True))
    return EXIT_OK


def _cmd_paths(args: argparse.Namespace) -> int:
    log = _read_log(args)
    found = retrieve_paths(log, args.origin, args.target)[: args.top]  # None keeps all
    sys.stdout.write(paths_to_table(found, log))
    return EXIT_OK


def _cmd_tree(args: argparse.Namespace) -> int:
    log = _read_log(args)
    build = build_forward_tree if args.direction == "forward" else build_backward_tree
    tree = build(log, args.root)
    # render every requested output before writing any, so a failure writes none
    renders = ((args.dot, tree_to_dot), (args.json, tree_to_structured))
    outputs = [(path, render(tree)) for path, render in renders if path]
    for path, text in outputs:
        Path(path).write_text(text, encoding="utf-8")
    if not outputs:
        sys.stdout.write(tree_to_structured(tree))
    return EXIT_OK


def _cmd_top(args: argparse.Namespace) -> int:
    log = _read_log(args)
    if args.what == "endpoints":
        records, _ = log.top_endpoints_by_ets(args.k)
        for record in records:
            print(
                f"{record.pair.source} -> {record.pair.destination}"
                f"  ets={format_score(record.ets)}  alerts={len(record.alerts)}"
            )
    elif args.what == "paths":
        records, _ = log.top_paths_by_pts(args.k)
        sys.stdout.write(paths_to_table(records, log))
    else:
        for tree in top_trees(log, args.k, args.direction):
            nodes = tree.nodes()
            best = max((n.ets for n in nodes if n.ets is not None), default=0.0)
            print(
                f"root={tree.root.label}  direction={tree.direction}"
                f"  nodes={len(nodes)}  max_ets={format_score(best)}"
                f"  root_color={color_hex(tree.root.color)}"
            )
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    log = _read_log(args)
    stats = log.stats()
    print(
        json.dumps(
            {
                "nodes": stats.node_count,
                "endpoints": stats.endpoint_count,
                "alerts": stats.alert_count,
                "paths": stats.path_count,
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


def _cmd_snapshot(args: argparse.Namespace) -> int:
    log = _read_log(args)
    log.snapshot(args.output)
    print(json.dumps({"written": str(args.output)}, sort_keys=True))
    return EXIT_OK


def _cmd_load(args: argparse.Namespace) -> int:
    directory = _store_dir(args)
    log = AlertLog.read(args.input)  # before locking, so a bad input leaves no directory
    with _locked(directory, exclusive=True):
        log.snapshot(directory / STORE_FILENAME)
    stats = log.stats()
    print(
        json.dumps(
            {"alerts": stats.alert_count, "paths": stats.path_count}, sort_keys=True
        )
    )
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    report = bench.verify_complexity_tables(args.n)
    if report.ok:
        print(f"endpoints={report.endpoints} paths={report.paths} OK")
        return EXIT_OK
    print(f"endpoints={report.endpoints} paths={report.paths} MISMATCH")
    for failure in report.failures:
        print(failure, file=sys.stderr)
    return EXIT_ERROR


def _progress(done: int) -> None:
    print(f"processed {done} alerts", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
