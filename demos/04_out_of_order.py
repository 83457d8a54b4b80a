"""
Catching up on late-arriving alerts
===================================

Sensors deliver out of order.  Reinsertion joins a late alert's arc to the
stored prefixes that end at its source and the stored suffixes that start
at its destination, taking only the combinations that no other alert on
the same pair already joined -- and lands on the exact store a sorted feed
would have produced.
"""

from __future__ import annotations

from alertpaths import (
    Alert,
    AlertStore,
    insert_alert,
    recompute_threat_scores,
    reinsert_alert,
)

feed = [
    Alert("ws-7", "jump-1", 1_000_000, sid=2010935, seq=0),
    Alert("jump-1", "files-2", 2_000_000, sid=2013028, seq=1),  # arrives late
    Alert("files-2", "db-9", 3_000_000, sid=2024364, seq=2),
]

# Run 1: everything in timestamp order.
chronological = AlertStore()
for alert in feed:
    insert_alert(chronological, alert)

# Run 2: the middle hop shows up after the rest of the stream.
late = AlertStore()
insert_alert(late, feed[0])
insert_alert(late, feed[2])
print("before reinsertion:", late.stats().path_count, "paths")

created = reinsert_alert(late, feed[1])
print("reinsertion created", created.paths_created, "paths")
print("after reinsertion: ", late.stats().path_count, "paths")

# Same paths, and once scored, the same scores, so downstream consumers
# cannot tell the feeds apart.
recompute_threat_scores(chronological)
recompute_threat_scores(late)


def scored(store):
    return (
        sorted((r.pair, r.ets) for r in store.endpoints()),
        sorted((p.vertices, p.pts) for p in store.paths()),
    )


assert scored(late) == scored(chronological)
print("paths and scores are identical")

print("\nok")
