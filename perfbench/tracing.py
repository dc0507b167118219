"""Span tracing from outside the program under test.

:class:`Tracer` replaces a layer's public entry point (a module function,
a class method or a registry entry) with a timing wrapper, and puts the
original back on :meth:`Tracer.restore`.  Untraced runs never install
anything, so they execute the unmodified code.

Each wrapper records one span ``(span_id, parent_id, call_id, name,
start_ns, end_ns, failed)``.  Spans of one benchmark call share the
``call_id`` of its root span; the parent is whichever span was open on
the calling thread when the wrapper ran.  An optional observer sees the
arguments and result of every wrapped call, so layer counts (bytes,
simulated delays, grants) are taken where the work happens.

:func:`self_times` turns spans into per-layer self time: a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Span = Tuple[int, int, int, str, int, int, bool]


class Tracer:
    """Installs timing wrappers and keeps their spans in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._roots: List[int] = []
        self._ids = itertools.count(1)
        self._thread = threading.get_ident()
        #: (owner, attribute, original raw value) of every installed patch.
        self.patches: List[Tuple[Any, Any, Any]] = []

    # -- spans ------------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        observe: Optional[Callable[[tuple, Any, bool], None]] = None,
    ) -> Callable[..., Any]:
        """A wrapper around ``fn`` that records a span named ``name``."""
        spans = self.spans
        stack = self._stack
        roots = self._roots
        ids = self._ids
        owner_thread = self._thread
        get_ident = threading.get_ident
        clock = perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            if get_ident() != owner_thread:
                return fn(*args, **kwargs)
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            call_id = roots[-1] if stack else span_id
            stack.append(span_id)
            if not parent:
                roots.append(span_id)
            failed = True
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                if not parent:
                    roots.pop()
                spans.append((span_id, parent, call_id, name, start, end, failed))
                if observe is not None:
                    observe(args, result, failed)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- installing wrappers ----------------------------------------------

    def patch(
        self,
        owner: Any,
        attribute: str,
        name: str,
        observe: Optional[Callable[[tuple, Any, bool], None]] = None,
    ) -> None:
        """Wrap ``owner.attribute`` (a module or class) in place."""
        raw = vars(owner)[attribute]
        self.patches.append((owner, attribute, raw))
        setattr(owner, attribute, self.wrap(name, getattr(owner, attribute), observe))

    def patch_item(
        self,
        mapping: Dict[Any, Any],
        key: Any,
        wrapped: Any,
    ) -> None:
        """Replace ``mapping[key]`` (a registry entry) with ``wrapped``."""
        self.patches.append((mapping, key, mapping[key]))
        mapping[key] = wrapped

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self.patches:
            owner, attribute, raw = self.patches.pop()
            if isinstance(owner, dict):
                owner[attribute] = raw
            else:
                setattr(owner, attribute, raw)

    def clear(self) -> None:
        """Drop recorded spans (wrappers stay installed)."""
        del self.spans[:]


def write_spans(path: str, spans: Iterable[Span]) -> int:
    """Write spans as JSON lines; returns how many were written."""
    written = 0
    with open(path, "w", encoding="utf-8") as handle:
        for span_id, parent, call_id, name, start, end, failed in spans:
            record = {
                "id": span_id,
                "parent": parent,
                "call": call_id,
                "name": name,
                "start_ns": start,
                "end_ns": end,
                "failed": failed,
            }
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
            written += 1
    return written


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Self time (ns) of every span: duration minus child coverage.

    Children are clipped to their parent's interval and merged, so
    nested and back-to-back children are each counted once.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for _span_id, parent, _call, _name, start, end, _failed in spans:
        if parent:
            children[parent].append((start, end))
    result: Dict[int, int] = {}
    for span_id, _parent, _call, _name, start, end, _failed in spans:
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span_id] = (end - start) - covered
    return result


def layer_totals(spans: Iterable[Span]) -> Dict[str, Dict[str, int]]:
    """Per span name: ``count``, ``self_ns``, ``total_ns`` and ``failed``."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, Dict[str, int]] = defaultdict(
        lambda: {"count": 0, "self_ns": 0, "total_ns": 0, "failed": 0}
    )
    for span_id, _parent, _call, name, start, end, failed in spans:
        entry = totals[name]
        entry["count"] += 1
        entry["self_ns"] += own[span_id]
        entry["total_ns"] += end - start
        entry["failed"] += int(failed)
    return dict(totals)


def merge_totals(
    into: Dict[str, Dict[str, int]], more: Dict[str, Dict[str, int]]
) -> None:
    """Add the :func:`layer_totals` ``more`` into ``into``."""
    for name, entry in more.items():
        target = into.setdefault(name, {key: 0 for key in entry})
        for key, value in entry.items():
            target[key] += value
