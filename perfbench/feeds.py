"""Seeded inputs for the benchmark workloads.

The stream generators are the benchmark's own copies of the fan-out and
chain generators, so a later change to ``alertpaths.bench`` cannot shift
the workloads; ``check_feeds.py`` shows that both produce the same alert
lists as the package's generators. Everything here is plain data (tuples
and strings): the engine only ever sees the EVE lines written from it.

An alert is ``(source, destination, time_us, sid)``; its arrival index in
a feed is the ordinal the engine assigns.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

Raw = tuple[str, str, int, int]
Request = tuple[str, str, str]  # (kind, first label, second label or "")

SID_POOL = (1000001, 1000002, 1000003, 1000004)
BASE_TIME_US = 1_000_000_000
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_SIGNATURES = {
    1000001: ("ET SCAN Suspicious inbound to mySQL port 3306", "Attempted Information Leak"),
    1000002: ("ET POLICY SMB2 NT Create AndX Request For an Executable File", "Potential Corporate Privacy Violation"),
    1000003: ("ET EXPLOIT Possible ETERNALBLUE Probe MS17-010", "Attempted Administrator Privilege Gain"),
    1000004: ("ET TROJAN Cobalt Strike Beacon Observed", "A Network Trojan was detected"),
}


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------


def fanout_stream(nodes: int, alerts: int, max_fanout: int, seed: int) -> list[Raw]:
    """Alerts over a graph where every host has ``max_fanout`` fixed targets.

    Draws exactly what ``alertpaths.bench.generate_fanout_stream`` draws, in
    the same order, so any prefix of a longer stream equals the shorter one.
    """
    rng = random.Random(seed)
    labels = [f"h{i + 1}" for i in range(nodes)]
    neighbors: list[list[str]] = []
    for i in range(nodes):
        others = labels[:i] + labels[i + 1 :]
        neighbors.append(rng.sample(others, min(max_fanout, len(others))))
    time_us = BASE_TIME_US
    out: list[Raw] = []
    for _ in range(alerts):
        src_index = rng.randrange(nodes)
        dest = rng.choice(neighbors[src_index])
        time_us += rng.choice((0, 1, 1, 2, 3))
        out.append((labels[src_index], dest, time_us, rng.choice(SID_POOL)))
    return out


def chain_stream(n: int) -> list[Raw]:
    """v1 -> v2 -> ... -> v(n+1), one alert per arc, 1 ms apart."""
    return [
        (f"v{i + 1}", f"v{i + 2}", BASE_TIME_US + 1000 * i, 2000000 + i)
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# EVE lines
# ---------------------------------------------------------------------------


def eve_line(alert: Raw, flow_id: int) -> str:
    """One Suricata EVE ``alert`` record, with the fields a sensor writes.
    ``flow_id`` belongs to the alert, not to its arrival position."""
    source, dest, time_us, sid = alert
    stamp = (_EPOCH + timedelta(microseconds=time_us)).strftime(
        "%Y-%m-%dT%H:%M:%S.%f+0000"
    )
    signature, category = _SIGNATURES.get(sid, ("ET INFO Chain hop", "Misc activity"))
    event = {
        "timestamp": stamp,
        "flow_id": flow_id,
        "in_iface": "eth0",
        "event_type": "alert",
        "src_ip": source,
        "src_port": 40000 + flow_id % 20000,
        "dest_ip": dest,
        "dest_port": 445,
        "proto": "TCP",
        "alert": {
            "action": "allowed",
            "gid": 1,
            "signature_id": sid,
            "rev": 3,
            "signature": signature,
            "category": category,
            "severity": 2,
        },
    }
    return json.dumps(event, separators=(",", ":")) + "\n"


def eve_lines(alerts: list[Raw], first_flow: int = 0) -> list[str]:
    return [eve_line(alert, first_flow + i) for i, alert in enumerate(alerts)]


# ---------------------------------------------------------------------------
# late arrivals
# ---------------------------------------------------------------------------


def backdate(alerts: list[Raw], stream: list[Raw], window: int, rng: random.Random) -> list[Raw]:
    """Give each alert a time 1 us before a seeded alert among the last
    ``window`` of ``stream``: behind the stream head, so it must be spliced."""
    tail = stream[-window:]
    return [(s, d, rng.choice(tail)[2] - 1, sid) for s, d, _t, sid in alerts]


def duplicate_hops(chain: list[Raw], count: int, rng: random.Random) -> list[Raw]:
    """Late repeats of seeded chain arcs, timed between the arc and the next.

    Every splice the engine tries for them is already stored, so they
    measure the cost of a late alert that creates no path.
    """
    out: list[Raw] = []
    for _ in range(count):
        i = rng.randrange(len(chain) - 1)
        source, dest, time_us, _sid = chain[i]
        out.append((source, dest, time_us + rng.randrange(1, 1000), rng.choice(SID_POOL)))
    return out


# ---------------------------------------------------------------------------
# names
# ---------------------------------------------------------------------------


@dataclass
class Renamer:
    """A seeded bijection on host names and on the signature pool.

    Renaming keeps the shape of the traffic, so inputs renamed with
    different seeds cost the engine the same work (up to ties that ranking
    breaks by name), while every host name and signature id differs.
    """

    hosts: dict[str, str]
    sids: dict[int, int]

    @classmethod
    def seeded(cls, seed: int, alerts: list[Raw]) -> "Renamer":
        rng = random.Random(f"perfbench:{seed}:names")
        names = sorted({a[0] for a in alerts} | {a[1] for a in alerts})
        shuffled = names[:]
        rng.shuffle(shuffled)
        pool = list(SID_POOL)
        rng.shuffle(pool)
        return cls(dict(zip(names, shuffled)), dict(zip(SID_POOL, pool)))

    def alerts(self, alerts: list[Raw]) -> list[Raw]:
        hosts, sids = self.hosts, self.sids
        return [(hosts[s], hosts[d], t, sids.get(sid, sid)) for s, d, t, sid in alerts]

    def requests(self, requests: list[Request]) -> list[Request]:
        hosts = self.hosts
        return [(kind, hosts.get(a, a), hosts.get(b, b)) for kind, a, b in requests]


# ---------------------------------------------------------------------------
# analyst requests
# ---------------------------------------------------------------------------


@dataclass
class RequestDrawer:
    """Draws requests about alerts fed so far.

    Roots come from the endpoints of fed alerts, so busy hosts are asked
    about more often. ``retrieve`` pairs end a short walk over fed arcs, so
    most of them have answers.
    """

    rng: random.Random
    fed: list[Raw] = field(default_factory=list)
    out_arcs: dict[str, list[str]] = field(default_factory=dict)

    def feed(self, alerts: list[Raw]) -> None:
        for alert in alerts:
            self.fed.append(alert)
            self.out_arcs.setdefault(alert[0], []).append(alert[1])

    def draw(self, count: int) -> list[Request]:
        return [self._one() for _ in range(count)]

    def _one(self) -> Request:
        rng = self.rng
        roll = rng.random()
        source, dest, _t, _sid = rng.choice(self.fed)
        if roll < 0.3:
            return ("forward", source, "")
        if roll < 0.6:
            return ("backward", dest, "")
        if roll < 0.9:
            seen = {source}
            here = source
            for _ in range(rng.randint(1, 4)):
                steps = [v for v in self.out_arcs.get(here, ()) if v not in seen]
                if not steps:
                    break
                here = rng.choice(steps)
                seen.add(here)
            return ("retrieve", source, here)
        return ("top", "", "")
