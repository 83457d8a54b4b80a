"""Command-line surface: subcommands, exit codes, stdout/stderr split."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from alertpaths import bench, maintenance, query, render
from alertpaths import cli as cli_module
from alertpaths import store as store_module
from alertpaths.bench import generate_fanout_stream
from alertpaths.cli import EXIT_ERROR, EXIT_OK, EXIT_PARSE, EXIT_STORE, EXIT_USAGE, main
from alertpaths.derivation import AlertLog
from alertpaths.query import build_backward_tree, build_forward_tree, retrieve_paths, top_trees
from alertpaths.render import color_hex, format_score, paths_to_table, tree_to_dot
from alertpaths.store import AlertStore, recompute_threat_scores

from conftest import DATA_DIR, deep_chain_tree
from test_acceptance import delay

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def store_dir(tmp_path):
    return tmp_path / "store"


@pytest.fixture
def csv_feed(tmp_path):
    feed = tmp_path / "feed.csv"
    feed.write_text(
        "v1,v2,1000,1\nv2,v3,2000,2\nv3,v4,3000,1\n", encoding="utf-8"
    )
    return feed


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def ingest_fixture(capsys, store_dir, csv_feed) -> None:
    code, _, _ = run(
        capsys,
        "ingest", "--store", str(store_dir), "--input", str(csv_feed),
        "--format", "csv",
    )
    assert code == EXIT_OK


def test_ingest_reports_json(capsys, store_dir, csv_feed, tmp_path):
    code, out, err = run(
        capsys,
        "ingest", "--store", str(store_dir), "--input", str(csv_feed),
        "--format", "csv",
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["parsed"] == 3
    assert report["inserted"] == 3
    assert report["errors"] == 0
    assert (store_dir / "store.jsonl").exists()
    assert err == ""
    # progress goes to stderr once per 1,000 alerts of the batch
    big = tmp_path / "big.csv"
    big.write_text("".join(f"a,b,{4000 + i},1\n" for i in range(1000)), encoding="utf-8")
    code, out, err = run(
        capsys, "ingest", "--store", str(store_dir), "--input", str(big), "--format", "csv"
    )
    assert code == EXIT_OK
    assert json.loads(out)["inserted"] == 1000
    assert err == "processed 1000 alerts\n"


def test_stats_roundtrip(capsys, store_dir, csv_feed):
    ingest_fixture(capsys, store_dir, csv_feed)
    code, out, _ = run(capsys, "stats", "--store", str(store_dir))
    assert code == EXIT_OK
    stats = json.loads(out)
    assert stats["alerts"] == 3
    assert stats["paths"] == 6
    assert stats["nodes"] == 4
    assert "scores_stale" not in stats


def test_score_then_paths_without_warning(capsys, store_dir, csv_feed):
    # the first read that needs scores computes them, so no separate step is needed
    ingest_fixture(capsys, store_dir, csv_feed)
    code, out, err = run(capsys, "paths", "--store", str(store_dir),
                         "--origin", "v1", "--target", "v3")
    assert code == EXIT_OK
    assert err == ""
    assert out.splitlines()[0].startswith("path")
    row = out.splitlines()[1].split()
    assert row[:6] == ["v1", "->", "v2", "->", "v3", "2.00"]  # 2 sids, 2 alerts


def test_paths_top_limit(capsys, store_dir, csv_feed):
    ingest_fixture(capsys, store_dir, csv_feed)
    code, out, _ = run(capsys, "paths", "--store", str(store_dir),
                       "--origin", "v1", "--target", "v4", "--top", "1")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 2  # header plus one row


def test_tree_stdout_and_files(capsys, store_dir, csv_feed, tmp_path):
    ingest_fixture(capsys, store_dir, csv_feed)
    code, out, _ = run(capsys, "tree", "--store", str(store_dir), "--root", "v1")
    assert code == EXIT_OK
    tree = json.loads(out)
    assert tree["direction"] == "forward"
    assert tree["root"]["label"] == "v1"

    dot_file = tmp_path / "tree.dot"
    json_file = tmp_path / "tree.json"
    code, out, _ = run(
        capsys,
        "tree", "--store", str(store_dir), "--root", "v4",
        "--direction", "backward",
        "--dot", str(dot_file), "--json", str(json_file),
    )
    assert code == EXIT_OK
    assert out == ""  # files requested, stdout stays quiet
    assert dot_file.read_text().startswith("digraph")
    assert json.loads(json_file.read_text())["direction"] == "backward"


def test_tree_prints_structured_json_at_any_depth(capsys, store_dir, csv_feed, monkeypatch):
    ingest_fixture(capsys, store_dir, csv_feed)
    monkeypatch.setattr(
        "alertpaths.cli.build_forward_tree", lambda store, root: deep_chain_tree(600)
    )
    code, out, err = run(capsys, "tree", "--store", str(store_dir), "--root", "v1")
    assert code == EXIT_OK
    assert err == ""
    assert out == render.tree_to_structured(deep_chain_tree(600))
    assert out.count('"label"') == 600


def test_tree_writes_no_file_unless_every_output_renders(
    capsys, store_dir, csv_feed, tmp_path, monkeypatch
):
    ingest_fixture(capsys, store_dir, csv_feed)

    def unrenderable(tree):
        raise ValueError("cannot render this tree")

    monkeypatch.setattr("alertpaths.cli.tree_to_structured", unrenderable)
    dot_file = tmp_path / "tree.dot"
    json_file = tmp_path / "tree.json"
    code, out, err = run(
        capsys,
        "tree", "--store", str(store_dir), "--root", "v1",
        "--dot", str(dot_file), "--json", str(json_file),
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "cannot render this tree" in err
    assert not dot_file.exists() and not json_file.exists()


def test_top_endpoints_paths_trees(capsys, store_dir, csv_feed):
    ingest_fixture(capsys, store_dir, csv_feed)
    code, out, _ = run(capsys, "top", "--store", str(store_dir),
                       "--what", "endpoints", "--k", "2")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 2
    assert "ets=" in out
    code, out, _ = run(capsys, "top", "--store", str(store_dir),
                       "--what", "paths", "--k", "3")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 4  # header plus three rows
    code, out, _ = run(capsys, "top", "--store", str(store_dir),
                       "--what", "trees", "--k", "1")
    assert code == EXIT_OK
    assert out.startswith("root=v1")


def test_snapshot_and_load(capsys, store_dir, csv_feed, tmp_path):
    ingest_fixture(capsys, store_dir, csv_feed)
    exported = tmp_path / "export.jsonl"
    code, out, _ = run(capsys, "snapshot", "--store", str(store_dir),
                       "--output", str(exported))
    assert code == EXIT_OK
    assert exported.exists()

    other = tmp_path / "other-store"
    code, out, _ = run(capsys, "load", "--store", str(other),
                       "--input", str(exported))
    assert code == EXIT_OK
    assert json.loads(out) == {"alerts": 3, "paths": 6}
    code, out, _ = run(capsys, "stats", "--store", str(other))
    assert json.loads(out)["paths"] == 6


def test_failed_snapshot_leaves_no_temp_file(capsys, store_dir, csv_feed, tmp_path):
    # the rename onto a directory fails after the temp file is written
    ingest_fixture(capsys, store_dir, csv_feed)
    target = tmp_path / "taken"
    target.mkdir()
    code, out, _ = run(capsys, "snapshot", "--store", str(store_dir),
                       "--output", str(target))
    assert code == EXIT_ERROR and out == ""
    assert sorted(path.name for path in tmp_path.iterdir()) == ["feed.csv", "store", "taken"]


def test_reinsert_command(capsys, store_dir, tmp_path):
    first = tmp_path / "first.csv"
    first.write_text("v1,v2,1000,1\nv3,v4,3000,1\n", encoding="utf-8")
    ingest_fixture(capsys, store_dir, first)
    late = tmp_path / "late.csv"
    late.write_text("v2,v3,2000,1\n", encoding="utf-8")
    code, out, _ = run(capsys, "ingest", "--store", str(store_dir),
                       "--input", str(late), "--format", "csv", "--mode", "auto")
    assert code == EXIT_OK
    assert json.loads(out)["reinserted"] == 1
    code, out, _ = run(capsys, "stats", "--store", str(store_dir))
    assert json.loads(out)["paths"] == 6


def test_ingest_runs_no_scoring_pass(capsys, store_dir, csv_feed, tmp_path, monkeypatch):
    # ingest writes back only alerts, so nothing it does reads a score;
    # top derives its scores from the log, so it needs no scoring pass either
    ingest_fixture(capsys, store_dir, csv_feed)
    calls = []

    def counted(scorer):
        def counting(store):
            calls.append(store)
            return scorer(store)

        return counting

    for module in (store_module, maintenance, query, render):
        if hasattr(module, "recompute_threat_scores"):
            monkeypatch.setattr(
                module, "recompute_threat_scores", counted(module.recompute_threat_scores)
            )
    more = tmp_path / "more.csv"
    more.write_text("v4,v5,4000,3\n", encoding="utf-8")
    code, out, _ = run(capsys, "ingest", "--store", str(store_dir),
                       "--input", str(more), "--format", "csv")
    assert code == EXIT_OK
    assert json.loads(out)["paths_created"] == 4
    assert calls == []
    code, out, _ = run(capsys, "top", "--store", str(store_dir),
                       "--what", "paths", "--k", "1")
    assert code == EXIT_OK
    assert out.splitlines()[1].split()[-2] == "3.46"  # 3 sids x 4 alerts


def test_bench_chain_output(capsys):
    code, out, _ = run(capsys, "bench", "chain", "--n", "4")
    assert code == EXIT_OK
    assert out.strip() == "endpoints=4 paths=10 OK"


def test_bench_chain_mismatch_exits_with_failures(capsys, monkeypatch):
    build = bench.build_store

    def short_of_one_path(alerts):
        store = build(alerts)
        store._paths.pop()  # the longest path, stored last
        return store

    monkeypatch.setattr(bench, "build_store", short_of_one_path)
    code, out, err = run(capsys, "bench", "chain", "--n", "4")
    assert code == EXIT_ERROR
    assert out == "endpoints=4 paths=9 MISMATCH\n"
    assert err.splitlines() == [
        "path count 9 != expected 10",
        "pair 1 appears in 3 paths, expected 4",
        "pair 2 appears in 5 paths, expected 6",
        "pair 3 appears in 5 paths, expected 6",
        "pair 4 appears in 3 paths, expected 4",
        "total occurrences 16 != expected 20",
    ]


@pytest.mark.parametrize(
    "n, message",
    [
        ("1_0", "non-negative integer"),
        ("\u0663", "non-negative integer"),  # Arabic-Indic three
        (" 4", "non-negative integer"),
        ("+4", "non-negative integer"),
        ("-1", "non-negative integer"),
        ("0", "must be positive"),
        ("100000", "at most 400"),  # refused before any chain is built
    ],
    ids=[
        "underscore", "non-ascii-digit", "leading-space", "plus-sign", "negative", "zero",
        "above-ceiling",
    ],
)
def test_bench_chain_length_takes_ascii_digits_only(capsys, n, message):
    try:
        code = main(["bench", "chain", "--n", n])
    except SystemExit as exc:  # argparse's own rejection
        code = exc.code
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err


def test_exit_codes_distinct(capsys, store_dir, tmp_path):
    # store error: querying a store that does not exist
    code, _, err = run(capsys, "stats", "--store", str(store_dir))
    assert code == EXIT_STORE
    assert err != ""

    # parse error: strict ingest over a broken feed
    bad = tmp_path / "bad.csv"
    bad.write_text("v1,v2,not-a-time,1\n", encoding="utf-8")
    code, _, err = run(capsys, "ingest", "--store", str(store_dir),
                       "--input", str(bad), "--format", "csv", "--strict")
    assert code == EXIT_PARSE
    assert "line 1" in err

    # argument error: missing store directory entirely
    code, _, err = run(capsys, "paths", "--origin", "a", "--target", "b")
    assert code == EXIT_USAGE

    # argparse's own rejections also land on the usage code
    with pytest.raises(SystemExit) as exc:
        main(["ingest", "--store", str(store_dir)])  # --input missing
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["paths", "--origin", "a", "--target", "b"],
        ["tree", "--root", "a"],
        ["top", "--what", "trees", "--k", "1"],
        ["stats"],
        ["snapshot", "--output", "out.jsonl"],
    ],
    ids=lambda argv: argv[0],
)
def test_read_only_commands_leave_a_missing_store_uncreated(capsys, tmp_path, argv):
    missing = tmp_path / "missing"
    code, _, err = run(capsys, *argv, "--store", str(missing))
    assert code == EXIT_STORE
    assert "no store" in err
    assert not missing.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["paths", "--origin", "a", "--target", "b", "--top", "-1"],
        ["top", "--what", "paths", "--k", "-1"],
        ["top", "--what", "trees", "--k", "x"],
        ["top", "--what", "trees", "--k", "\u0663"],  # Arabic-Indic three
    ],
    ids=["paths-top", "top-k", "top-k-not-a-number", "top-k-non-ascii-digit"],
)
def test_bad_counts_are_usage_errors_before_any_load(capsys, tmp_path, argv):
    missing = tmp_path / "missing"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--store", str(missing)])
    assert exc.value.code == EXIT_USAGE
    assert "non-negative integer" in capsys.readouterr().err
    assert not missing.exists()


@pytest.mark.parametrize(
    "command, exit_code",
    [("ingest", EXIT_ERROR), ("load", EXIT_STORE)],
)
def test_missing_input_leaves_the_store_uncreated(capsys, tmp_path, command, exit_code):
    missing = tmp_path / "missing"
    code, _, _ = run(capsys, command, "--store", str(missing),
                     "--input", str(tmp_path / "absent.jsonl"))
    assert code == exit_code
    assert not missing.exists()


def test_strict_ingest_of_a_bad_feed_leaves_the_store_uncreated(capsys, tmp_path):
    # the feed is parsed before the lock, which would create the directory
    feed = tmp_path / "bad.csv"
    feed.write_text("a,b,1,2\ngarbage\n", encoding="utf-8")
    missing = tmp_path / "missing"
    code, out, err = run(capsys, "ingest", "--store", str(missing), "--input", str(feed),
                         "--format", "csv", "--strict")
    assert code == EXIT_PARSE
    assert out == "" and "line 2" in err
    assert not missing.exists()


def test_non_strict_ingest_counts_bad_lines(capsys, store_dir, tmp_path):
    feed = tmp_path / "mixed.csv"
    feed.write_text("v1,v2,1000,1\ngarbage line\nv2,v3,2000,1\n", encoding="utf-8")
    code, out, err = run(capsys, "ingest", "--store", str(store_dir),
                         "--input", str(feed), "--format", "csv")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["errors"] == 1
    assert report["inserted"] == 2
    assert "line 2" in err


def test_eve_boolean_signature_id_is_a_line_error(capsys, store_dir, tmp_path):
    # a JSON true once passed as signature id 1, and the saved store then
    # failed to load on every later command
    event = {
        "timestamp": "2018-02-21T10:00:00+0000",
        "event_type": "alert",
        "src_ip": "a",
        "dest_ip": "b",
        "alert": {"signature_id": 7},
    }
    late = {**event, "timestamp": "2018-02-21T10:00:01+0000",
            "alert": {"signature_id": True}}
    feed = tmp_path / "feed.jsonl"
    feed.write_text(json.dumps(event) + "\n" + json.dumps(late) + "\n",
                    encoding="utf-8")
    code, out, err = run(capsys, "ingest", "--store", str(store_dir),
                         "--input", str(feed), "--format", "eve")
    assert code == EXIT_OK
    assert json.loads(out)["errors"] == 1
    assert "line 2" in err
    code, out, _ = run(capsys, "stats", "--store", str(store_dir))
    assert code == EXIT_OK
    assert json.loads(out)["alerts"] == 1


def test_store_env_var_fallback(capsys, store_dir, csv_feed, monkeypatch):
    monkeypatch.setenv("ALERTPATHS_STORE", str(store_dir))
    code, _, _ = run(capsys, "ingest", "--input", str(csv_feed), "--format", "csv")
    assert code == EXIT_OK
    code, out, _ = run(capsys, "stats")
    assert code == EXIT_OK
    assert json.loads(out)["alerts"] == 3


def late_feed() -> str:
    """A 12-host fan-out feed with 2% of its alerts up to 30 positions late."""
    alerts = delay(generate_fanout_stream(12, 240, 3, seed=8), 0.02, 30, seed=8)
    return "".join(f"{a.source},{a.destination},{a.time_us},{a.sid}\n" for a in alerts)


def test_commands_run_unlocked_where_fcntl_is_missing(capsys, tmp_path, monkeypatch):
    # a host without fcntl (non-POSIX) takes no file locks; each command
    # still runs and prints, and ingest writes, the same bytes as with locks
    feed = tmp_path / "feed.csv"
    feed.write_text(late_feed(), encoding="utf-8")
    commands = (
        ("ingest", "--input", str(feed), "--format", "csv", "--mode", "auto"),
        ("stats",),
        ("top", "--what", "paths", "--k", "10"),
    )
    printed = []
    for fcntl in (cli_module.fcntl, None):
        monkeypatch.setattr(cli_module, "fcntl", fcntl)
        store_dir = tmp_path / f"store-{fcntl is None}"
        outputs = []
        for argv in commands:
            code, out, err = run(capsys, *argv, "--store", str(store_dir))
            assert (code, err) == (EXIT_OK, ""), argv
            outputs.append(out)
        printed.append((outputs, (store_dir / "store.jsonl").read_bytes()))
    assert printed[0] == printed[1]


@pytest.mark.parametrize("feed", ["random_seed7", "late-auto"])
def test_read_commands_print_the_replayed_store_answers(capsys, tmp_path, feed):
    # the read commands derive from the log; every byte they print or write
    # must equal the library's answer from the store that `load` replays
    feed_file = tmp_path / "feed.csv"
    if feed == "random_seed7":
        feed_file.write_text((DATA_DIR / "random_seed7.csv").read_text(encoding="utf-8"))
    else:
        feed_file.write_text(late_feed(), encoding="utf-8")
    store_dir = tmp_path / "store"
    code, out, _ = run(capsys, "ingest", "--store", str(store_dir), "--input", str(feed_file),
                       "--format", "csv", "--mode", "auto")
    assert code == EXIT_OK
    assert (json.loads(out)["reinserted"] > 0) == (feed == "late-auto")
    store = AlertStore()
    store.load(store_dir / "store.jsonl")
    recompute_threat_scores(store)

    def cli(*argv: str) -> str:
        code, out, err = run(capsys, *argv, "--store", str(store_dir))
        assert (code, err) == (EXIT_OK, ""), argv
        return out

    vertices = sorted({vertex for record in store.endpoints() for vertex in record.pair})
    dot_file, json_file = tmp_path / "tree.dot", tmp_path / "tree.json"
    builders = (("forward", build_forward_tree), ("backward", build_backward_tree))
    for root in vertices:
        for direction, build in builders:
            tree = build(store, root)
            argv = ("tree", "--root", root, "--direction", direction)
            assert cli(*argv) == render.tree_to_structured(tree), argv
            assert cli(*argv, "--dot", str(dot_file), "--json", str(json_file)) == ""
            assert dot_file.read_text(encoding="utf-8") == tree_to_dot(tree), argv
            assert json_file.read_text(encoding="utf-8") == render.tree_to_structured(tree), argv
        for target in vertices:
            expected = paths_to_table(retrieve_paths(store, root, target), store)
            assert cli("paths", "--origin", root, "--target", target) == expected, (root, target)
    for k in (3, 10_000):
        endpoints = "".join(
            f"{r.pair.source} -> {r.pair.destination}  ets={format_score(r.ets)}"
            f"  alerts={len(r.alerts)}\n"
            for r in store.top_endpoints_by_ets(k)[0]
        )
        paths = paths_to_table(store.top_paths_by_pts(k)[0], store)
        for direction in ("forward", "backward"):
            trees = ""
            for tree in top_trees(store, k, direction):
                nodes = tree.nodes()
                best = max((n.ets for n in nodes if n.ets is not None), default=0.0)
                trees += (
                    f"root={tree.root.label}  direction={direction}  nodes={len(nodes)}"
                    f"  max_ets={format_score(best)}  root_color={color_hex(tree.root.color)}\n"
                )
            top = ("top", "--k", str(k), "--direction", direction, "--what")
            assert cli(*top, "endpoints") == endpoints
            assert cli(*top, "paths") == paths
            assert cli(*top, "trees") == trees
    stats = store.stats()
    assert cli("stats") == json.dumps(
        {"nodes": stats.node_count, "endpoints": stats.endpoint_count,
         "alerts": stats.alert_count, "paths": stats.path_count},
        sort_keys=True,
    ) + "\n"
    exported, replayed = tmp_path / "export.jsonl", tmp_path / "replayed.jsonl"
    assert cli("snapshot", "--output", str(exported)) == json.dumps(
        {"written": str(exported)}, sort_keys=True
    ) + "\n"
    store.snapshot(replayed)
    assert exported.read_bytes() == replayed.read_bytes()


def peak_rss_kb(code: str, *argv: str) -> int:
    """The ru_maxrss of ``code`` run in a new interpreter. A process starts
    with the peak RSS of the one that started it, so a small interpreter in
    between starts it, not this test process, and reports its children's."""
    launcher = (
        "import resource, subprocess, sys\n"
        "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
    )
    result = subprocess.run(
        [sys.executable, "-c", launcher, sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return int(result.stdout)


def test_top_holds_no_path_set(tmp_path):
    # about 82k paths: a reader that replays the log holds all of them, a
    # command that derives them holds one path at a time
    store_dir = tmp_path / "store"
    store_dir.mkdir()
    snapshot = store_dir / "store.jsonl"
    AlertLog(generate_fanout_stream(300, 2_500, 3, seed=8)).snapshot(snapshot)
    cli = "import sys\nfrom alertpaths.cli import main\nsys.exit(main(sys.argv[1:]))"
    top = peak_rss_kb(cli, "top", "--what", "trees", "--k", "10", "--store", str(store_dir))
    loaded = peak_rss_kb(cli, "load", "--input", str(snapshot), "--store", str(tmp_path / "loaded"))
    replayed = peak_rss_kb(
        "import sys\nfrom alertpaths.store import AlertStore\n"
        "store = AlertStore()\nstore.load(sys.argv[1])\n"
        "assert store.stats().path_count == 81_892",
        str(snapshot),
    )
    assert top < replayed
    assert loaded < replayed
