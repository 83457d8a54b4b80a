"""Repository tooling: the benchmark's feed generators match the package's."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

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
