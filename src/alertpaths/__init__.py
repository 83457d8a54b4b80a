"""Streaming alert-path maintenance for intrusion triage.

The engine consumes a chronological stream of IDS alerts, maintains every
acyclic chronologically feasible path over the alert graph as it grows,
scores endpoints and paths, and reconstructs colored alert trees for
forward and backward triage questions.
"""

from .errors import EngineError, OutOfOrderError, ParseError, StoreError
from .ingest import (
    IngestReport,
    ingest_stream,
    parse_csv_line,
    parse_eve_line,
    parse_timestamp,
)
from .maintenance import InsertOutcome, insert_alert, reinsert_alert
from .model import (
    Alert,
    AlertTree,
    EndpointPair,
    EndpointRecord,
    PathRecord,
    TreeNode,
    is_chronologically_feasible,
    normalize_color,
    threat_score,
)
from .query import (
    build_backward_tree,
    build_forward_tree,
    retrieve_paths,
    top_trees,
)
from .render import (
    color_hex,
    format_score,
    paths_to_table,
    tree_to_dot,
    tree_to_structured,
)
from .store import AlertStore, StoreStats, recompute_threat_scores

__version__ = "0.1.0"

__all__ = [
    "Alert",
    "AlertStore",
    "AlertTree",
    "EndpointPair",
    "EndpointRecord",
    "EngineError",
    "IngestReport",
    "InsertOutcome",
    "OutOfOrderError",
    "ParseError",
    "PathRecord",
    "StoreError",
    "StoreStats",
    "TreeNode",
    "build_backward_tree",
    "build_forward_tree",
    "color_hex",
    "format_score",
    "ingest_stream",
    "insert_alert",
    "is_chronologically_feasible",
    "normalize_color",
    "parse_csv_line",
    "parse_eve_line",
    "parse_timestamp",
    "paths_to_table",
    "recompute_threat_scores",
    "reinsert_alert",
    "retrieve_paths",
    "threat_score",
    "top_trees",
    "tree_to_dot",
    "tree_to_structured",
    "__version__",
]
