"""Monte-Carlo BER/PER simulation framework (reproduces paper Figure 4).

:class:`~repro.sim.montecarlo.MonteCarloSimulator` runs the full coded link
(encode → modulate → channel → LLR → decode; the modulator+channel pair is
an injectable :class:`~repro.channel.pipeline.ChannelPipeline`, BPSK over
soft AWGN by default) in batches, counting bit and frame errors until a
target error count or frame budget is reached;
:class:`~repro.sim.sweep.EbN0Sweep` runs it across an Eb/N0 grid and collects
:class:`~repro.sim.results.SimulationCurve` objects that can be serialized,
compared and printed as the rows of a waterfall plot.

:mod:`repro.sim.parallel` holds the one loop every parallel run goes
through: it shards the same frame budgets, submits them over a transport —
the ``multiprocessing`` :class:`~repro.sim.parallel.SharedWorkerPool`
(``EbN0Sweep(..., workers=N)``) or the broker-leased
:class:`~repro.fabric.pool.FabricPool` — and folds the results in shard
order, reproducing the serial reference
(:meth:`~repro.sim.montecarlo.MonteCarloSimulator.run_point`) bit for bit.
The shard schedule and per-shard RNG streams live in
:mod:`repro.sim.sharding`.

:mod:`repro.sim.campaign` runs whole experiment grids — many (code,
decoder, channel, config) combinations — through that loop, with an
incrementally persisted, resumable result store.
"""

from repro.sim.crossing import Crossing, crossing_ebn0, curve_crossing
from repro.sim.montecarlo import BatchResult, MonteCarloSimulator, SimulationConfig
from repro.sim.parallel import PoolEntry, SharedWorkerPool
from repro.sim.reference import shannon_limit_ebn0_db, uncoded_bpsk_ber
from repro.sim.results import SimulationCurve, SimulationPoint
from repro.sim.sharding import consume_shard, iter_shard_sizes
from repro.sim.statistics import ErrorCounter, wilson_interval
from repro.sim.sweep import EbN0Sweep

__all__ = [
    "MonteCarloSimulator",
    "SimulationConfig",
    "BatchResult",
    "SharedWorkerPool",
    "PoolEntry",
    "iter_shard_sizes",
    "consume_shard",
    "EbN0Sweep",
    "SimulationPoint",
    "SimulationCurve",
    "ErrorCounter",
    "wilson_interval",
    "uncoded_bpsk_ber",
    "shannon_limit_ebn0_db",
    "Crossing",
    "crossing_ebn0",
    "curve_crossing",
]
