"""Repository tooling: the benchmark's feed generators match the package's,
the README documents every CLI command, and its library example runs."""

from __future__ import annotations

import argparse
import os
import re
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
