"""Host-time spans recorded from outside the program.

A :class:`Recorder` replaces a public entry point of each layer with a
wrapper that records one span per call: name, start, end, parent span
and run id.  Spans stay in memory (one list per run) and are written
out when the benchmark ends.  :meth:`Recorder.install` is only called
for traced runs and :meth:`Recorder.uninstall` restores every original
attribute, so untraced runs execute the program's own functions.

A layer's self time is its span's duration minus the durations of its
direct children; on one thread the children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: Tag functions see the wrapped call's positional arguments and result
#: and return a short label stored with the span.
Tag = Callable[[tuple, object], object]


def _attempt_tag(args: tuple, result) -> tuple:
    device, first, pool = args[0], args[1], args[2]
    job = first[0] if isinstance(first, list) else first
    if device.device_id < 0:
        kind = "golden"
    elif pool.execution == "model":
        kind = "model"
    else:
        kind = job.kernel
    return kind, bool(result.ok)


class Recorder:
    """In-memory span log plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: Spans per run id, each ``[name, start, end, parent, run_id,
        #: tag]``; a parent is an index into its run's list, -1 for a
        #: root.
        self.runs: Dict[int, List[list]] = {}
        self.spans: List[list] = []
        self.run_id = 0
        self._stack = [-1]
        self._undo: List[tuple] = []

    def begin(self, run_id: int) -> None:
        """Start the span list of run ``run_id``."""
        self.run_id = run_id
        self.spans = self.runs[run_id] = []
        self._stack = [-1]

    # -- recording -----------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1], self.run_id, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrapped(self, fn: Callable, name: str,
                 tag: Optional[Tag]) -> Callable:
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(idx)
            if tag is not None:
                rec.spans[idx][5] = tag(args, result)
            return result
        return wrapper

    # -- installation --------------------------------------------------
    def wrap(self, owner, attr: str, name: str,
             tag: Optional[Tag] = None) -> None:
        """Replace ``owner.attr`` (module function, method or
        classmethod) by a span-recording wrapper."""
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self._wrapped(raw.__func__, name, tag))
        else:
            new = self._wrapped(raw, name, tag)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the public entry point of every measured layer."""
        import repro.core.accelerator as accelerator
        import repro.datasets as datasets
        import repro.runtime.jobs as jobs
        from repro.runtime.fleet import Fleet
        from repro.runtime.pool import Device, DevicePool
        from repro.runtime.scheduler import Scheduler
        from repro.solvers import AcceleratorBackend
        from repro.store import ArtifactStore

        self.wrap(datasets, "load_dataset", "load_dataset")
        self.wrap(jobs, "make_trace", "make_trace")
        self.wrap(accelerator.Alrescha, "from_matrix", "from_matrix")
        self.wrap(AcceleratorBackend, "__init__", "AcceleratorBackend")
        # Plans compile lazily on an accelerator's first run; the
        # accelerator module's binding is the one its runs call.
        self.wrap(accelerator, "compile_pass", "compile_pass")
        self.wrap(ArtifactStore, "conversion", "store")
        self.wrap(ArtifactStore, "load_template", "store")
        self.wrap(Device, "attempt", "attempt", _attempt_tag)
        self.wrap(Device, "attempt_batch", "attempt", _attempt_tag)
        self.wrap(DevicePool, "reference_values", "reference_values")
        self.wrap(Scheduler, "run", "serve")
        self.wrap(Fleet, "run", "serve")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- analysis ------------------------------------------------------
    def dump(self, path, meta: Dict[str, object]) -> None:
        """Write every span as JSON, times in seconds from the first
        span of the file; parents index the span's own run."""
        spans = [s for run in self.runs.values() for s in run]
        t0 = min((s[1] for s in spans), default=0.0)
        rows = [[name, round(start - t0, 9), round(end - t0, 9), parent,
                 run, list(tag) if isinstance(tag, tuple) else tag]
                for name, start, end, parent, run, tag in spans]
        with open(path, "w") as fh:
            json.dump({"meta": meta,
                       "columns": ["name", "start_s", "end_s", "parent",
                                   "run", "tag"],
                       "spans": rows}, fh, separators=(",", ":"))


def self_times(spans: List[list]) -> List[float]:
    """Duration minus direct children's durations, per span of one
    run (children always come after their parent)."""
    own = [s[2] - s[1] for s in spans]
    out = list(own)
    for s, dur in zip(spans, own):
        if s[3] >= 0:
            out[s[3]] -= dur
    return out


def under(spans: List[list], idx: int, *names: str) -> bool:
    """Whether span ``idx`` is, or descends from, a span named one of
    ``names`` (``idx`` -1 is no span)."""
    while idx >= 0:
        if spans[idx][0] in names:
            return True
        idx = spans[idx][3]
    return False
