"""Repository tooling: the benchmark's feed generators match the package's,
the README documents every CLI command, its library example runs and its
CLI quickstart prints what it shows, a slice of a benchmark session runs
and passes the benchmark's checks, CLI output does not depend on the
interpreter's hash seed, importing the package leaves the derivation
unloaded, and the package imports only the standard library."""

from __future__ import annotations

import argparse
import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from alertpaths.cli import _build_parser

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_feeds_match_package_generators():
    # perfbench keeps its own copies of the generators in alertpaths.bench,
    # so a change to either side shows up here
    result = subprocess.run(
        [sys.executable, "perfbench/check_feeds.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_readme_cli_table_matches_subcommands():
    (commands,) = [
        action
        for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    documented = re.findall(r"^\| `([\w-]+)` *\|", readme, flags=re.MULTILINE)
    assert sorted(documented) == sorted(commands.choices)


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"^```python\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    assert example is not None
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", example.group(1)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    # the two outputs the example's comments promise
    assert "path_count=6" in result.stdout
    assert "('ws-7', 'jump-1', 'files-2', 'db-9') 3.0" in result.stdout


def test_readme_cli_quickstart_prints_what_it_shows(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^```console\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    assert block is not None
    # each "$ " command line with the non-blank lines printed below it
    commands: list[tuple[str, list[str]]] = []
    for line in block.group(1).splitlines():
        if line.startswith("$ "):
            commands.append((line[2:], []))
        elif line:
            commands[-1][1].append(line)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    ran = []
    for command, printed in commands:
        program, *argv = shlex.split(command)
        if program != "alertpaths":
            continue  # rendering the DOT file needs Graphviz
        argv[argv.index("--store") + 1] = str(tmp_path / "demo")
        if "--input" in argv:
            at = argv.index("--input") + 1
            argv[at] = str(ROOT / argv[at])
        result = subprocess.run(
            [sys.executable, "-m", "alertpaths.cli", *argv],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            encoding="utf-8",
            timeout=60,
        )
        assert result.returncode == 0, (command, result.stderr)
        ran.append(argv[0])
        if "--dot" in argv:
            dot = tmp_path / argv[argv.index("--dot") + 1]
            assert dot.read_text(encoding="utf-8").startswith("digraph"), command
        else:
            assert result.stdout.splitlines() == printed, command
    assert ran == ["ingest", "top", "tree"]


# One chain150 session, cut down: the engine calls the benchmark makes, and
# the checks it runs on them, in a fresh interpreter like perfbench/run.py.
BENCHMARK_SLICE = """
import sys
from pathlib import Path

import checks
import workloads

src, workdir = Path(sys.argv[1]), Path(sys.argv[2])
inputs = workloads.WORKLOADS["chain150"](1)
(workdir / "cli_next.jsonl").write_text("".join(inputs.cli_lines), encoding="utf-8")
session = workloads.Session(inputs, workdir, src)
store, _ = session.feed_pass(serve_requests=False)
requests = inputs.requests[-1][:40]
assert sum(kind == "top" for kind, _, _ in requests) == 2
session.serve(store, 0, requests, None)
session.late_alerts(store, 0)
snapshot = session.persist(store)
session.cli_round(snapshot)
# check_cli compares the CLI with a store loaded the way the CLI loads it,
# so it cannot see a load that leaves scores unset; the fed store can
printed = [line.split()[0] for line in session.cli_outputs[-1][0].splitlines()]
expected = [f"root={tree.root.label}" for tree in workloads.top_trees(store, workloads.TOP_K)]
assert printed == expected, (printed, expected)
loaded = workloads.AlertStore()
loaded.load(snapshot)
session.check_cli(loaded)
failures = session.failures + checks.exactness(store)
assert not failures and session.failed == 0, (session.failed, failures)
print("ok", store.stats().path_count)
"""


def test_benchmark_session_slice_runs(tmp_path):
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]),
    }
    result = subprocess.run(
        [sys.executable, "-c", BENCHMARK_SLICE, str(ROOT / "src"), str(tmp_path)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.split() == ["ok", "11325"]


# Every output-producing command, each run in a fresh interpreter from the
# store directory, so relative paths keep the printed bytes comparable.
CLI_SESSION = [
    ["ingest", "--input", str(ROOT / "tests" / "data" / "random_seed7.csv"), "--format", "csv"],
    ["tree", "--root", "v1"],
    ["tree", "--root", "v2", "--direction", "backward", "--dot", "tree.dot"],
    ["top", "--what", "endpoints", "--k", "5"],
    ["top", "--what", "paths", "--k", "5"],
    ["top", "--what", "trees", "--k", "3", "--direction", "backward"],
    ["paths", "--origin", "v1", "--target", "v2"],
    ["snapshot", "--output", "snap.jsonl"],
]


def test_cli_output_is_independent_of_the_hash_seed(tmp_path):
    def session(hash_seed: str) -> list[bytes]:
        workdir = tmp_path / hash_seed
        workdir.mkdir()
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": hash_seed}
        outputs = []
        for argv in CLI_SESSION:
            result = subprocess.run(
                [sys.executable, "-m", "alertpaths.cli", *argv, "--store", "."],
                cwd=workdir,
                env=env,
                capture_output=True,
                timeout=60,
            )
            assert result.returncode == 0, (argv, result.stderr)
            outputs.append(result.stdout)
        return outputs + [(workdir / name).read_bytes() for name in ("tree.dot", "snap.jsonl")]

    first = session("0")
    assert first[1].startswith(b"{") and first[-2].startswith(b"digraph")
    assert session("777") == first


def test_package_import_leaves_the_derivation_unloaded():
    # the benchmark's setup time includes `import alertpaths`; only the CLI
    # and direct importers load the derivation
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, alertpaths; print('alertpaths.derivation' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_package_imports_only_the_standard_library():
    # the README promises no third-party runtime dependencies
    outside = []
    for module in sorted((ROOT / "src" / "alertpaths").rglob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "alertpaths":
                    outside.append(f"{module.name}: {name}")
    assert outside == []
