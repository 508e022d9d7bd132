"""In-memory spans recorded by shims around inflap's public functions.

A shim replaces a module function or a class method for the length of a
``with installed(...)`` block; workloads.py lists the targets.  A module
function is replaced in every loaded ``inflap`` module that holds it, so
callers that imported it by name (``harness`` imports
``sample_boundary_data``, ``cli`` imports ``build_grid``) are traced too.  Spans carry their parent; a span's self
time is its duration minus the time its children cover, so the self times
of one instance add up to the instance's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

@dataclass(slots=True)
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    info: Optional[dict] = None

    @property
    def dur(self):
        return self.end - self.start

    @property
    def layer(self):
        return self.name.split(".", 1)[0]


class Recorder:
    """Stack of open spans plus the list of every span since ``take``."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, perf_counter()))
        self._stack.append(idx)
        return idx

    def close(self, idx, info=None):
        span = self.spans[idx]
        span.end = perf_counter()
        span.info = info
        self._stack.pop()

    def take(self):
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("take() with open spans")
        out, self.spans = self.spans, []
        return out


def shim(rec, name, fn, info=None):
    """Wrap fn so each call records a span; info(result) -> dict of counts."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(name)
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            rec.close(idx, info(out) if info and out is not None else None)

    return traced


@contextlib.contextmanager
def installed(rec, targets):
    """Replace every target by a recording shim; restore them on exit."""
    undo = []
    try:
        for owner, attr, name, info in targets:
            orig = getattr(owner, attr)
            wrapped = shim(rec, name, orig, info)
            if isinstance(owner, type):
                undo.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("inflap"):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        yield rec
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


def self_times(spans):
    """Self time per layer: each span's duration minus its children's."""
    cover = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            cover[s.parent] += s.dur
    out = defaultdict(float)
    for s, c in zip(spans, cover):
        out[s.layer] += s.dur - c
    return out


def outermost(spans, pred):
    """Spans matching pred(name) that have no matching ancestor."""
    hits = []
    for s in spans:
        if not pred(s.name):
            continue
        p = s.parent
        while p >= 0 and not pred(spans[p].name):
            p = spans[p].parent
        if p < 0:
            hits.append(s)
    return hits


def inclusive(spans, pred):
    """Wall time covered by spans matching pred, nested repeats counted once."""
    return sum(s.dur for s in outermost(spans, pred))
