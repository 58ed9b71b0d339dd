"""Declarative experiment campaigns over one shared executor.

This package turns the sharded Monte-Carlo loop of :mod:`repro.sim.parallel`
from a per-sweep tool into a multi-experiment scheduler:

* :mod:`repro.sim.campaign.spec` — :class:`CampaignSpec` and friends: a
  JSON-round-trippable description of a grid of (code, decoder, channel,
  config) experiments swept over Eb/N0, every axis resolved through the
  pluggable component registry (:mod:`repro.registry`);
* :mod:`repro.sim.campaign.scheduler` — :class:`CampaignScheduler`: flattens
  every experiment into one deterministic stream of point jobs, run
  serially or over a single transport (a
  :class:`~repro.sim.parallel.SharedWorkerPool` or the fabric's
  :class:`~repro.fabric.pool.FabricPool`);
* :mod:`repro.sim.campaign.store` — :class:`ResultStore`: a campaign
  directory with a manifest plus one incrementally-persisted
  :class:`~repro.sim.results.SimulationCurve` JSON per experiment, so a
  killed campaign resumes by skipping completed points.

For a fixed spec the completed store is bit-identical for any worker count
and any interruption/resume pattern.

A campaign is how this repository reproduces the paper's measured
artifacts at full grid width: Figure 4's BER/PER waterfalls are one
campaign over decoder configurations, the Section 5 quantization and
correction-factor ablations are grids over ``message_format`` /
``alpha``, and the deep-space extension sweeps the AR4JA code family.
The companion analysis layer (:mod:`repro.analysis.campaign`, CLI
``campaign report``) turns a finished store back into those tables.
See ``docs/campaigns.md`` for the end-to-end walkthrough.
"""

from repro.sim.campaign.scheduler import CampaignScheduler, PointJob
from repro.sim.campaign.spec import (
    CampaignSpec,
    ChannelSpec,
    CodeSpec,
    DecoderSpec,
    ExperimentSpec,
    config_from_dict,
    config_to_dict,
    expand_grid,
)
from repro.sim.campaign.store import ResultStore, StoreMismatchError

__all__ = [
    "CampaignSpec",
    "CodeSpec",
    "DecoderSpec",
    "ChannelSpec",
    "ExperimentSpec",
    "CampaignScheduler",
    "PointJob",
    "ResultStore",
    "StoreMismatchError",
    "config_to_dict",
    "config_from_dict",
    "expand_grid",
]
