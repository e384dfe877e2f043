"""Spans around the calls into each layer, recorded from outside the program.

``Tracer.wrap`` replaces a layer's public function on its module with a
wrapper that records a span, so callers that look the function up on the
module (``simpush_local`` and ``simpush_df`` do) are timed. A module or
function that no longer exists is listed in ``Tracer.absent`` instead of
raising. Spans live in memory and are written out once, by ``dump``.
"""
from __future__ import annotations

import importlib
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    qid: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Span recorder plus the registry of wrapped functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.qid: int | None = None
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def open(self, name: str, **attrs) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.qid, attrs))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self.stack.pop()
        return span

    @property
    def current(self) -> str | None:
        return self.spans[self.stack[-1]].name if self.stack else None

    # ------------------------------------------------------------- wrapping
    def wrap(self, module: str, attr: str, span_name: str | None,
             before: Callable[[], None] | None = None,
             after: Callable[..., None] | None = None) -> bool:
        """Time ``module.attr`` (``attr`` may be ``Class.method``) under
        ``span_name``, or record no span if it is None. ``before()`` runs
        just inside the span and ``after(fn, args, kwargs, result, span)``
        just after it closes. Returns False, and records the name in
        ``absent``, if the module or function no longer exists."""
        target = f"{module}.{attr}"
        try:
            mod = importlib.import_module(module)
        except ModuleNotFoundError:
            self.absent.append(target)
            return False
        holder, name = mod, attr
        if "." in attr:                       # Class.method
            cls_name, name = attr.split(".", 1)
            holder = getattr(mod, cls_name, None)
        fn = getattr(holder, name, None) if holder is not None else None
        if fn is None:
            self.absent.append(target)
            return False
        tracer = self

        def traced(*args, **kwargs):
            if span_name is None:
                result, span = fn(*args, **kwargs), None
            else:
                idx = tracer.open(span_name)
                try:
                    if before is not None:
                        before()
                    result = fn(*args, **kwargs)
                finally:
                    span = tracer.close(idx)
            if after is not None:
                after(fn, args, kwargs, result, span)
            return result

        traced.__wrapped__ = fn
        setattr(holder, name, traced)
        self._restore.append((holder, name, fn))
        return True

    def restore(self) -> None:
        for holder, name, fn in reversed(self._restore):
            setattr(holder, name, fn)
        self._restore.clear()

    # ------------------------------------------------------------- analysis
    def self_ms(self, qid: int) -> dict[str, float]:
        """Self time per span name within query ``qid``: each span's
        duration minus the part of it its child spans cover."""
        idxs = [i for i, s in enumerate(self.spans) if s.qid == qid]
        children: dict[int, list[Span]] = {i: [] for i in idxs}
        for i in idxs:
            p = self.spans[i].parent
            if p in children:
                children[p].append(self.spans[i])
        out: dict[str, float] = {}
        for i in idxs:
            s = self.spans[i]
            covered, reach = 0.0, s.start
            for ch in sorted(children[i], key=lambda c: c.start):
                lo, hi = max(ch.start, reach), min(ch.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start - covered) * 1e3
        return out

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, **asdict(s)}) + "\n")
