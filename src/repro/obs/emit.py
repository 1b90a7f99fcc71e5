"""Structured report emission with run correlation ids.

The evaluation report historically wrote with a bare
``print(text, file=stream)``.  :class:`ReportEmitter` keeps that exact
human-readable output as the default while adding:

* a **run correlation id** shared with every observability family the
  invocation touches (store/service instances, observed simulation
  runs, Perfetto exports), so one report's artifacts can be joined
  across metrics, traces, and logs; and
* an optional **structured mode** (``report --structured``) that
  emits one JSON object per line --
  ``{"run", "seq", "kind", "text", ...}`` -- for log pipelines, with
  monotonically increasing ``seq`` so ordering survives collection.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Optional, TextIO

from repro.obs.metrics import new_run_id

__all__ = ["ReportEmitter"]


class ReportEmitter:
    """Line-oriented report output, human or structured JSON-lines."""

    def __init__(self, stream: Optional[TextIO] = None,
                 structured: bool = False,
                 run_id: Optional[str] = None) -> None:
        self.stream = stream if stream is not None else sys.stdout
        self.structured = structured
        #: correlation id stamped on every structured record and shared
        #: with the invocation's metrics families / trace exports
        self.run_id = run_id or new_run_id("report")
        self._seq = 0

    def emit(self, text: str, kind: str = "text", **fields: Any) -> None:
        """Emit one report line (possibly multi-line text).

        ``kind`` tags the record in structured mode ("section",
        "progress", "artifact", "stats", ...); extra ``fields`` ride
        along as machine-readable context.
        """
        self._seq += 1
        if self.structured:
            record: dict[str, Any] = {"run": self.run_id, "seq": self._seq,
                                      "kind": kind, "text": text}
            record.update(fields)
            print(json.dumps(record, sort_keys=True), file=self.stream)
        else:
            print(text, file=self.stream)
        self.stream.flush()

    def section(self, title: str) -> None:
        """Emit a report section header."""
        self.emit(f"\n--- {title} ---", kind="section", section=title)
