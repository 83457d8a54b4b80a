"""Show that the benchmark's generators draw the package's alert lists.

Run from the root of a source checkout:

    python3 perfbench/check_feeds.py

It compares ``feeds.fanout_stream`` and ``feeds.chain_stream`` with
``alertpaths.bench.generate_fanout_stream`` and ``generate_chain``: the
ROADMAP baseline sizes, and every size the workloads use (the workloads
then rename hosts and signatures with the run's seed). Exit code 1 on any
difference. Once ``alertpaths.bench`` changes, a difference here means
the package moved, not the benchmark.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from alertpaths.bench import generate_chain, generate_fanout_stream  # noqa: E402

import feeds  # noqa: E402
import workloads  # noqa: E402


def _package(alerts) -> list[tuple]:
    return [(a.source, a.destination, a.time_us, a.sid, a.seq) for a in alerts]


def _ours(alerts) -> list[tuple]:
    return [(*alert, seq) for seq, alert in enumerate(alerts)]


def main() -> int:
    fanout_len = (
        workloads.FANOUT_ALERTS + workloads.LATE_FANOUT + workloads.CLI_APPEND_FANOUT
    )
    chain_len = workloads.CHAIN_ARCS + workloads.CLI_APPEND_CHAIN
    cases = [
        ("fanout(1500, 10000, 3, seed=8)",
         feeds.fanout_stream(1500, 10_000, 3, 8), generate_fanout_stream(1500, 10_000, 3, seed=8)),
        ("chain(400)", feeds.chain_stream(400), generate_chain(400)),
        (f"chain({chain_len})", feeds.chain_stream(chain_len), generate_chain(chain_len)),
    ]
    seed = workloads.SHAPE_SEED
    cases.append((
        f"fanout({workloads.FANOUT_NODES}, {fanout_len}, {workloads.FANOUT_DEGREE}, seed={seed})",
        feeds.fanout_stream(workloads.FANOUT_NODES, fanout_len, workloads.FANOUT_DEGREE, seed),
        generate_fanout_stream(workloads.FANOUT_NODES, fanout_len, workloads.FANOUT_DEGREE, seed=seed),
    ))
    differ = 0
    for name, ours, theirs in cases:
        same = _ours(ours) == _package(theirs)
        differ += not same
        print(f"{'same' if same else 'DIFFERENT'}  {name}: {len(ours)} alerts")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
