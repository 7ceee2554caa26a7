"""In-memory span recorder for the traced benchmark run.

The traced run wraps the public calls each workload makes (analyzers,
toolchain steps, ``fit``, ``freeze``, ``generate_dataset``,
``IHMAnalysis.analyze``, ``map_tasks``) so every call leaves a span with a
name, start, end, parent and trace id.  Spans stay in memory and are
written as JSONL when the run ends.  Nothing here runs in an untraced
run: end-to-end metrics come only from untraced runs.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple

# One finished span: (name, span_id, parent_id, trace_id, start, end,
# recorder_cost_s, attributes).  Tuples keep 10^5 spans cheap in memory.
SpanRecord = Tuple[str, str, Optional[str], str, float, float, float, dict]


class Recorder:
    """Collects spans from any thread; parents come from a per-thread stack.

    A thread with no open span adopts :attr:`context` as its parent.  The
    closed-loop client sets it to the in-flight request's span, so the
    analyzer call made on a service worker thread joins that request's
    trace.  This is exact only while one request is in flight.
    """

    def __init__(self):
        self.spans: List[SpanRecord] = []
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._local = threading.local()
        self.context: Optional[Tuple[str, str]] = None

    def new_trace(self) -> str:
        return f"t{next(self._trace_ids)}"

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attributes):
        entered = time.perf_counter()
        stack = self._stack()
        parent = stack[-1] if stack else self.context
        trace_id = parent[0] if parent is not None else self.new_trace()
        ids = (trace_id, f"s{next(self._span_ids)}")
        stack.append(ids)
        start = time.perf_counter()
        try:
            yield ids
        finally:
            end = time.perf_counter()
            stack.pop()
            # list.append is atomic under the GIL, so worker threads and
            # the client thread can record concurrently.
            self.spans.append((
                name, ids[1], parent[1] if parent is not None else None,
                trace_id, start, end,
                (start - entered) + (time.perf_counter() - end), attributes,
            ))

    def record(self, name: str, start: float, end: float, **attributes) -> None:
        """A root span whose interval was measured elsewhere."""
        self.spans.append((
            name, f"s{next(self._span_ids)}", None, self.new_trace(),
            start, end, 0.0, attributes,
        ))

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapped

    @contextmanager
    def patched(self, owner, attribute: str, name: str):
        """Wrap ``owner.attribute`` (a class or an instance) while open.

        Patching a class reaches instances the program builds internally,
        such as the network ``MSToolchain.train_network`` fits.
        """
        original = vars(owner).get(attribute)
        setattr(owner, attribute, self.wrap(getattr(owner, attribute), name))
        try:
            yield
        finally:
            if original is not None:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # -- queries ------------------------------------------------------------

    def named(self, name: str) -> List[SpanRecord]:
        return [span for span in self.spans if span[0] == name]

    def durations(self, name: str) -> List[float]:
        return [span[5] - span[4] for span in self.spans if span[0] == name]

    def cost_s(self) -> float:
        """Time the recorder itself spent around the calls it wrapped."""
        return sum(span[6] for span in self.spans)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, span_id, parent_id, trace_id, start, end, _, attrs in self.spans:
                handle.write(json.dumps({
                    "name": name, "span_id": span_id, "parent_id": parent_id,
                    "trace_id": trace_id, "start": start, "end": end, **attrs,
                }) + "\n")


def self_times(spans: Iterable[dict]) -> Dict[str, float]:
    """Per span id: duration minus the part of it its children cover."""
    spans = list(spans)
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent_id"] is not None:
            children.setdefault(span["parent_id"], []).append(
                (span["start"], span["end"])
            )
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered, cursor = 0.0, start
        for child_start, child_end in sorted(children.get(span["span_id"], [])):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span["span_id"]] = (end - start) - covered
    return result


def read_jsonl(path) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]
