"""The benchmark's own spans: one per call it makes into a layer.

Spans live in memory and are written out when the run ends.  With
tracing off ``span()`` hands back one shared no-op context, so the
untraced numbers do not pay for the recorder.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from typing import Dict, List, Optional, Tuple

_NULL = contextlib.nullcontext()


class Spans:
    """Span recorder for one workload run."""

    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        #: ``[name, layer, op_id, start, end, parent]``; ``parent`` is an
        #: index into this list or None.  ``end`` is filled on exit.
        self.records: List[list] = []
        self._stack = threading.local()
        #: Two client threads record at once; an index must name the
        #: record just appended.
        self._lock = threading.Lock()

    def span(self, name: str, layer: str, op_id: Optional[int] = None):
        if not self.enabled:
            return _NULL
        return self._record(name, layer, op_id)

    @contextlib.contextmanager
    def _record(self, name, layer, op_id):
        stack = self._stack.__dict__.setdefault("open", [])
        parent = stack[-1] if stack else None
        if op_id is None and parent is not None:
            op_id = self.records[parent][2]
        record = [name, layer, op_id, time.perf_counter(), None, parent]
        with self._lock:
            self.records.append(record)
            index = len(self.records) - 1
        stack.append(index)
        try:
            yield index
        finally:
            record[4] = time.perf_counter()
            stack.pop()

    def add(self, name: str, layer: str, start: float, end: float,
            parent: int) -> None:
        """A child span whose times came from elsewhere (the worker's
        share of a served op, from the ``JobResult`` envelope);
        ``parent`` is what the enclosing ``with span(...)`` yielded."""
        with self._lock:
            self.records.append([name, layer, self.records[parent][2],
                                 start, end, parent])

    def write(self, path: str) -> None:
        keys = ("name", "layer", "op_id", "start", "end", "parent")
        with open(path, "w") as handle:
            json.dump({"workload": self.workload,
                       "spans": [dict(zip(keys, record))
                                 for record in self.records]}, handle)


def covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(records: List[list]
               ) -> Dict[Tuple[str, str], Tuple[float, int]]:
    """``(layer, name) -> (summed self seconds, span count)``.  Self
    time = a span's duration minus the part of it its child spans cover
    (children clipped to the parent, overlaps counted once)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, layer, op_id, start, end, parent in records:
        if parent is not None and end is not None:
            children.setdefault(parent, []).append((start, end))
    table: Dict[Tuple[str, str], Tuple[float, int]] = {}
    for index, (name, layer, op_id, start, end, parent) \
            in enumerate(records):
        if end is None:
            continue
        clipped = [(max(s, start), min(e, end))
                   for s, e in children.get(index, ())
                   if min(e, end) > max(s, start)]
        own = (end - start) - covered(clipped)
        total, count = table.get((layer, name), (0.0, 0))
        table[(layer, name)] = (total + own, count + 1)
    return table


def format_self_times(table: Dict[Tuple[str, str], Tuple[float, int]]
                      ) -> str:
    lines = [f"  {'layer':10} {'span':26} {'count':>6} "
             f"{'self ms':>10} {'ms/span':>9}"]
    for (layer, name), (total, count) in sorted(
            table.items(), key=lambda item: -item[1][0]):
        lines.append(f"  {layer:10} {name:26} {count:>6} "
                     f"{total * 1e3:>10.1f} {total * 1e3 / count:>9.3f}")
    return "\n".join(lines)
