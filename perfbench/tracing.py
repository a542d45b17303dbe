"""In-memory span tracer for the traced benchmark run.

The tracer times calls into each layer's public functions from outside
the program: :meth:`Tracer.install` replaces the listed methods on their
classes with wrappers that record one span per call (name, start, end,
parent span, wave id).  Spans live in flat arrays while the workload
runs; :meth:`Tracer.summary` computes self time (a span's duration minus
the durations of its direct children) per span name afterwards, and
:meth:`Tracer.write` dumps the raw spans when the run ends.  The workload
brackets its timed phase with :meth:`Tracer.begin` and :meth:`Tracer.end`;
summaries, counts and the dump cover only that phase, so the set-up
builds and the teardown stay out of the per-event figures.

Wrappers must be installed before a federation or enactment system is
built, because deploying a specification binds operator methods as
consumer callbacks; a callback bound before installation would bypass
its wrapper.  Forked shard workers inherit the wrappers, so installing
also registers an at-fork hook that restores the original methods in
every child: process workloads are timed on the facade side only.
"""

from __future__ import annotations

import gzip
import os
from array import array
from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(class, attribute, span name or name function, counter hook)``.
#: A name function receives the call's ``self`` and returns the span
#: name; a counter hook receives ``(tracer, args, result)`` after the
#: span closes.
Target = Tuple[type, str, Any, Optional[Callable[..., None]]]


class Tracer:
    """Records spans around wrapped methods; see the module docstring."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("l")
        self.name_of = array("l")
        self.wave_of = array("l")
        self._stack: List[int] = [-1]
        #: Id of the current ingest wave or enactment operation; the
        #: workload loop advances it.
        self.wave = 0
        #: Counts recorded at the same boundaries as the spans.
        self.counts: Dict[str, float] = defaultdict(float)
        #: Span index range ``[first, last)`` and counts of the timed
        #: phase, set by :meth:`begin` and :meth:`end`.
        self.window = (0, 0)
        self.timed_counts: Dict[str, float] = defaultdict(float)
        self._begin_counts: Dict[str, float] = {}
        self._installed: List[Tuple[type, str, Any]] = []
        self._fork_hook_registered = False

    # -- installation -------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def install(self, targets: List[Target]) -> None:
        for cls, attr, name, hook in targets:
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrapper(original, name, hook))
            self._installed.append((cls, attr, original))
        if not self._fork_hook_registered:
            self._fork_hook_registered = True
            os.register_at_fork(after_in_child=self.uninstall)

    def uninstall(self) -> None:
        while self._installed:
            cls, attr, original = self._installed.pop()
            setattr(cls, attr, original)

    def _wrapper(self, original: Callable[..., Any], name: Any,
                 hook: Optional[Callable[..., None]]) -> Callable[..., Any]:
        starts, ends, parents = self.starts, self.ends, self.parents
        name_of, wave_of, stack = self.name_of, self.wave_of, self._stack
        fixed_id = self.name_id(name) if isinstance(name, str) else None
        ids_by_class: Dict[type, int] = {}
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            nid = fixed_id
            if nid is None:
                cls = type(args[0])
                nid = ids_by_class.get(cls)
                if nid is None:
                    nid = ids_by_class[cls] = tracer.name_id(name(args[0]))
            index = len(starts)
            parents.append(stack[-1])
            name_of.append(nid)
            wave_of.append(tracer.wave)
            ends.append(0)
            stack.append(index)
            starts.append(perf_counter_ns())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapper

    # -- timed phase --------------------------------------------------------

    def begin(self) -> None:
        """Mark the start of the timed phase (no span may be open).

        Spans and counts from set-up before it and from teardown after
        :meth:`end` stay out of :meth:`summary`, :attr:`timed_counts`
        and :meth:`write`.
        """
        self.window = (len(self.starts), len(self.starts))
        self._begin_counts = dict(self.counts)

    def end(self) -> None:
        """Mark the end of the timed phase."""
        self.window = (self.window[0], len(self.starts))
        self.timed_counts = defaultdict(float, {
            key: value - self._begin_counts.get(key, 0.0)
            for key, value in self.counts.items()
        })

    # -- results ------------------------------------------------------------

    def current(self) -> int:
        """Index of the innermost open span (-1 outside every span)."""
        return self._stack[-1]

    def span_name(self, index: int) -> str:
        return self.names[self.name_of[index]]

    def span_count(self) -> int:
        """Spans recorded in the timed phase."""
        return self.window[1] - self.window[0]

    def summary(self, rename: Optional[Dict[Tuple[str, str], str]] = None
                ) -> Dict[str, Dict[str, float]]:
        """Per span name, over the timed phase: ``calls``, inclusive
        ``total_us``, ``self_us``.

        ``rename`` maps ``(child name, parent name)`` to the name the
        child is reported under, so one function called from two layers
        (the codec under the journal, say) is charged to its caller's
        layer.
        """
        first, last = self.window
        starts, ends, parents, name_of = (
            self.starts, self.ends, self.parents, self.name_of
        )
        child_ns = [0] * (last - first)
        for index in range(first, last):
            parent = parents[index]
            if parent >= first:
                child_ns[parent - first] += ends[index] - starts[index]
        names = list(self.names)
        out: Dict[str, Dict[str, float]] = {}
        for index in range(first, last):
            name = names[name_of[index]]
            if rename:
                parent = parents[index]
                if parent >= first:
                    name = rename.get((name, names[name_of[parent]]), name)
            duration = ends[index] - starts[index]
            row = out.get(name)
            if row is None:
                row = out[name] = {"calls": 0, "total_us": 0.0, "self_us": 0.0}
            row["calls"] += 1
            row["total_us"] += duration / 1e3
            row["self_us"] += (duration - child_ns[index - first]) / 1e3
        return out

    def write(self, path: str) -> None:
        """Dump the timed phase's spans as gzipped CSV:
        index,name,start_ns,end_ns,parent,wave."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index,name,start_ns,end_ns,parent,wave\n")
            for index in range(*self.window):
                out.write(
                    f"{index},{names[self.name_of[index]]},{self.starts[index]},"
                    f"{self.ends[index]},{self.parents[index]},"
                    f"{self.wave_of[index]}\n"
                )
