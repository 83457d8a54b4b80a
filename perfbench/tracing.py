"""Spans recorded around calls into the engine's public functions.

A span is ``(name, start, end, parent, request)``. Its name is
``<layer>.<operation>``, where the layer is the engine module the call goes
into (``ingest``, ``maintenance``, ``store``, ``query``, ``render``,
``cli``) or ``bench`` for the benchmark's own work around those calls. A
span opened with no span open starts a new request; spans opened inside it
share its request id. Spans stay in memory and are written out once.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

Span = tuple[str, float, float, "int | None", int]

LAYERS = ("bench", "ingest", "maintenance", "store", "query", "render", "cli")


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: Counter[str] = Counter()
        self._open: list[tuple[int, int]] = []  # (span index, request id)
        self._requests = 0

    @contextlib.contextmanager
    def span(self, name: str):
        if self._open:
            parent, request = self._open[-1]
        else:
            parent, request = None, self._requests
            self._requests += 1
        index = len(self.spans)
        self.spans.append(None)
        self._open.append((index, request))
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, request)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s[2] - s[1] for s in self.spans if s is not None and s[0] == name)

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the time their child spans cover.

        Spans come from one thread and close in stack order, so a span's
        children never overlap and their summed durations are what they
        cover.
        """
        child_time: defaultdict[int, float] = defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] is not None:
                child_time[span[3]] += span[2] - span[1]
        out = {layer: 0.0 for layer in LAYERS}
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            layer = span[0].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (span[2] - span[1]) - child_time[index]
        return out

    def write(self, destination: Path) -> None:
        with open(destination, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, request = span
                out.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end,
                         "parent": parent, "request": request},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


class NullTracer:
    """Stands in for a Tracer when end-to-end numbers are measured."""

    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, value: float = 1) -> None:
        pass
