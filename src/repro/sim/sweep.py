"""Eb/N0 sweeps producing BER/PER waterfall curves (paper Figure 4).

An :class:`EbN0Sweep` is the one-configuration special case of the campaign
layer (:mod:`repro.sim.campaign`): it derives one child seed stream per grid
point, runs the missing points serially or over a worker pool, and can
*resume* from a previously saved :class:`SimulationCurve` — because the seed
of point ``i`` depends only on the master seed and the grid position, a
resumed sweep completes with counts bit-identical to an uninterrupted one.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.sim.montecarlo import SimulationConfig
from repro.sim.parallel import PointState, PoolEntry, SharedWorkerPool
from repro.sim.results import SimulationCurve, SimulationPoint
from repro.utils.formatting import format_table
from repro.utils.rng import ensure_rng, spawn_seed_sequences

__all__ = ["EbN0Sweep"]

_UNSET = object()


class EbN0Sweep:
    """Run a Monte-Carlo simulation over a grid of Eb/N0 values.

    Parameters
    ----------
    code:
        Code (or :class:`~repro.codes.shortening.ShortenedCode`) to simulate.
    decoder_factory:
        Callable returning a fresh decoder; called once per sweep so the same
        sweep object can be reused across decoders (and once per worker
        process when ``workers`` is set).
    config:
        Stopping/batching rules shared by every point.
    rng:
        Master seed; each Eb/N0 point receives an independent child stream so
        results do not depend on the evaluation order.
    workers:
        Default worker count for :meth:`run`.  ``None`` (the default) runs
        serially in-process; any positive count shards the frame budgets over
        a one-entry :class:`~repro.sim.parallel.SharedWorkerPool`.  For a
        fixed master seed the counts are identical either way.
    pipeline:
        Optional :class:`~repro.channel.pipeline.ChannelPipeline` (modulator
        + channel model) replacing the default BPSK/AWGN link — e.g. built
        from a :class:`~repro.sim.campaign.spec.ChannelSpec`.
    """

    def __init__(
        self,
        code,
        decoder_factory: Callable[[], object],
        *,
        config: SimulationConfig | None = None,
        rng=None,
        workers: int | None = None,
        pipeline=None,
    ):
        self._code = code
        self._decoder_factory = decoder_factory
        self._config = config or SimulationConfig()
        self._rng = ensure_rng(rng)
        self._workers = workers
        self._pipeline = pipeline

    def run(
        self,
        ebn0_grid: Sequence[float] | Iterable[float],
        *,
        label: str = _UNSET,  # type: ignore[assignment]
        metadata: dict | None = None,
        progress: Callable[[str], None] | None = None,
        workers: int | None = _UNSET,  # type: ignore[assignment]
        resume: SimulationCurve | None = None,
    ) -> SimulationCurve:
        """Simulate every Eb/N0 value and return the resulting curve.

        ``workers`` overrides the constructor default for this run only.
        The curve (and its counts) is identical either way; only the
        ``progress`` callback order differs — grid order serially, point
        *completion* order under a worker pool.

        ``resume`` is a previously measured curve (e.g. loaded from JSON):
        its points are kept and their grid positions skipped, so only the
        missing points are simulated.  Seeds are still derived for the *full*
        grid, one child per position, which makes the completed curve
        bit-identical to a single uninterrupted run with the same master seed
        and the same grid (a resumed point's seed depends on its grid
        position, so resume with the grid the interrupted run used).  Unless
        overridden, the resumed curve's label and metadata are preserved.
        """
        grid = []
        for value in ebn0_grid:
            value = float(value)
            # A duplicated grid value would be simulated twice (different
            # child seeds) and yield two points at one Eb/N0; keep the first
            # occurrence so seeds stay positional and the curve stays a
            # function of Eb/N0.
            if value not in grid:
                grid.append(value)
        if label is _UNSET:
            label = resume.label if resume is not None and resume.label else "decoder"
        if resume is not None:
            merged = dict(resume.metadata)
            merged.update(metadata or {})
            curve = SimulationCurve(label=label, metadata=merged)
            for point in resume.points:
                curve.add(point)
            completed = resume.completed_ebn0()
        else:
            curve = SimulationCurve(label=label, metadata=dict(metadata or {}))
            completed = set()
        streams = spawn_seed_sequences(self._rng, len(grid))
        jobs = [
            (ebn0, stream)
            for ebn0, stream in zip(grid, streams)
            if ebn0 not in completed
        ]
        if workers is _UNSET:
            workers = self._workers
        if workers:
            points = self._run_parallel(jobs, int(workers), progress)
        else:
            points = self._run_serial(jobs, progress)
        for point in points:
            curve.add(point)
        return curve

    # ------------------------------------------------------------------ #
    def _entry(self) -> PoolEntry:
        return PoolEntry(
            self._code, self._decoder_factory, self._config, self._pipeline
        )

    def _run_serial(
        self,
        jobs: list[tuple[float, np.random.SeedSequence]],
        progress: Callable[[str], None] | None,
    ) -> list[SimulationPoint]:
        if not jobs:
            return []
        simulator = self._entry().simulator()
        points = []
        for ebn0_db, stream in jobs:
            point = simulator.run_point(ebn0_db, rng=stream)
            points.append(point)
            if progress is not None:
                progress(_progress_line(point))
        return points

    def _run_parallel(
        self,
        jobs: list[tuple[float, np.random.SeedSequence]],
        workers: int,
        progress: Callable[[str], None] | None,
    ) -> list[SimulationPoint]:
        if not jobs:
            return []

        def on_point(state: PointState, point: SimulationPoint) -> None:
            if progress is not None:
                progress(_progress_line(point))

        states = [PointState(None, ebn0, seed, self._config) for ebn0, seed in jobs]
        with SharedWorkerPool({None: self._entry()}, workers=workers) as pool:
            return pool.run_states(states, on_point=on_point)

    @staticmethod
    def format_curves(curves: Sequence[SimulationCurve]) -> str:
        """Render several curves as an aligned waterfall table (Figure 4 data)."""
        grid = sorted({float(e) for curve in curves for e in curve.ebn0_values})
        headers = ["Eb/N0 (dB)"]
        for curve in curves:
            headers.extend([f"{curve.label} BER", f"{curve.label} PER"])
        rows = []
        for ebn0 in grid:
            row: list[object] = [f"{ebn0:.2f}"]
            for curve in curves:
                match = [p for p in curve.points if np.isclose(p.ebn0_db, ebn0)]
                if match:
                    row.extend([f"{match[0].ber:.3e}", f"{match[0].fer:.3e}"])
                else:
                    row.extend(["-", "-"])
            rows.append(row)
        return format_table(headers, rows, title="BER / PER vs Eb/N0")


def _progress_line(point: SimulationPoint) -> str:
    return (
        f"Eb/N0 {point.ebn0_db:+.2f} dB: BER {point.ber:.3e} "
        f"FER {point.fer:.3e} ({point.frames} frames)"
    )
