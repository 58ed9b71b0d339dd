"""In-memory span recorder for the benchmark's traced run.

A span is ``(id, name, start, end, parent)`` on the ``time.perf_counter``
clock — the same clock ``repro.obs.clock.monotonic`` reads, so stage
timings the simulator reports through its probe line up with spans timed
here.  Spans stay in memory while the workload runs and are written out
once at the end (:meth:`Tracer.dump`).

Everything is recorded from outside the program: wrappers around calls into
a layer's public functions (:meth:`Tracer.wrap`), and :class:`StageSpanProbe`,
which turns the per-batch stage split the simulator hands its public
``probe`` into ``encode`` / ``channel`` / ``decode`` / ``count`` spans.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from repro.obs.probe import STAGES, StageAccumulator

__all__ = ["Span", "Tracer", "StageSpanProbe", "KERNEL_SPANS"]

#: Spans timed around the decoder's edge-structure kernels; they run inside
#: the ``decode`` stage and are re-parented under it.
KERNEL_SPANS = ("decode.check_node", "decode.bit_node", "decode.syndrome")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; a span's parent is the span open when it starts."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def current(self) -> int | None:
        """Id of the innermost open span (``None`` at top level)."""
        return self._open[-1] if self._open else None

    def add(self, name: str, start: float, end: float, parent: int | None) -> int:
        """Record a finished span and return its id."""
        self.spans.append(Span(len(self.spans), name, start, end, parent))
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        ident = self.add(name, time.perf_counter(), 0.0, self.current())
        self._open.append(ident)
        try:
            yield ident
        finally:
            self._open.pop()
            self.spans[ident].end = time.perf_counter()

    def wrap(self, func: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``func`` with every call recorded as a span called ``name``."""

        def timed(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return func(*args, **kwargs)

        return timed

    # ------------------------------------------------------------------ #
    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(span.seconds for span in self.named(name))

    def self_time(self, name: str) -> float:
        """Summed self time of the spans called ``name``.

        Self time is a span's duration minus the time its child spans
        cover.  Children of one parent run one after another on one thread,
        so the covered time is the sum of their durations.
        """
        covered: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.seconds
        return sum(
            max(span.seconds - covered.get(span.id, 0.0), 0.0)
            for span in self.named(name)
        )

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"clock": "time.perf_counter", "spans": [asdict(s) for s in self.spans]}
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


class StageSpanProbe(StageAccumulator):
    """A :class:`~repro.obs.probe.StageAccumulator` that also records spans.

    The simulator calls ``record_batch`` right after a batch's ``count``
    stage ends, with the four stage durations; the stages ran back to back,
    so their spans are rebuilt backwards from that moment.  Kernel spans
    recorded during the batch are moved under the rebuilt ``decode`` span.
    """

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer
        self._mark = len(tracer.spans)

    def record_batch(self, frames: int, stage_seconds: Mapping[str, float]) -> None:
        super().record_batch(frames, stage_seconds)
        tracer = self.tracer
        parent = tracer.current()
        end = time.perf_counter()
        stage_ids: dict[str, int] = {}
        for stage in reversed(STAGES):
            start = end - float(stage_seconds.get(stage, 0.0))
            stage_ids[stage] = tracer.add(stage, start, end, parent)
            end = start
        for span in tracer.spans[self._mark :]:
            if span.name in KERNEL_SPANS and span.parent == parent:
                span.parent = stage_ids["decode"]
        self._mark = len(tracer.spans)
