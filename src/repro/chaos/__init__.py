"""repro.chaos — declarative fault injection and protocol invariants.

LBRM's headline claim is receiver-side reliability *under failure*
(§2.1 MaxIT silence bound, §2.2.1 local recovery, §2.2.3 primary
failover).  This package turns the ad-hoc fault code that used to live
inside individual tests into one reusable layer.

The building blocks:

* :mod:`repro.chaos.schedule` — :class:`Fault` / :class:`FaultSchedule`,
  a declarative, serializable description of *what goes wrong when*
  (crash/restart/pause/resume nodes, skew clocks, partition/heal sites,
  duplicate/corrupt/reorder packets), composing with the existing
  :mod:`repro.simnet.loss` models.
* :mod:`repro.chaos.controller` — :class:`ChaosController`, which
  compiles a schedule onto a built :class:`~repro.simnet.deploy.LbrmDeployment`.
* :mod:`repro.chaos.oracle` — :class:`ChaosOracle`, a runtime checker
  for the paper's receiver-reliability invariants (see DESIGN.md §7).
* :mod:`repro.chaos.invariants` — :class:`InvariantLedger`, the
  transport-agnostic judgement shared by both oracles.
* :mod:`repro.chaos.live` — :class:`LiveOracle`, the same invariants
  checked against a real-UDP :class:`~repro.aio.cluster.AioCluster`.

One runner, three presets
-------------------------

:mod:`repro.chaos.runner` is the one campaign runner.  Each case builds
a small deployment, arms its faults, drives a paced stream past the
oracle and repeats under every simulation engine; the engines must
reach identical end-state digests.  The runner owns the engine factory
(and its schedule-point recording variant), the digest, per-case
seeds, the greedy schedule minimiser, the per-engine case loop, the
retry-budget config and the shared CLI flags.  The presets supply only
their *schedule source*:

* ``repro chaos`` (:mod:`repro.chaos.campaign`) — a sampler of
  recoverable fault schedules on a flat deployment, plus ``--sabotage``
  to prove the oracle catches a deliberately broken build.
* ``repro hierarchy-chaos`` (:mod:`repro.chaos.hierarchy`) — a sampler
  of hub crashes and mid-epoch ``reparent`` mutations on a k-level
  repair tree; each case also counts re-parent moves (DESIGN §11).
* ``repro failover-sweep`` (:mod:`repro.chaos.sweep`) — an enumerator
  of every distinct crash point of a failover scenario, with the
  double-failure and follower-readopt variants (DESIGN §10).

Adding a schedule source
------------------------

A new sampled campaign is a sampler ``(random.Random, shape) ->
FaultSchedule`` that emits only schedules the protocol must survive,
a tier table of :class:`~repro.chaos.runner.CampaignShape` (subclass it
for extra deployment dimensions), and a :class:`~repro.chaos.runner.Preset`
naming the command, RNG stream and payload prefix, with any per-case
``counters``.  :func:`~repro.chaos.runner.run_campaign` runs it,
:func:`~repro.chaos.runner.build_campaign_parser` and
:func:`~repro.chaos.runner.run_campaign_command` give it a CLI.  A
source that is not a fault schedule (like the sweep's crash points)
builds its case headers itself and hands them to
:func:`~repro.chaos.runner.run_cases`.
"""

from repro.chaos.campaign import CHAOS, run_chaos_campaign, sample_schedule
from repro.chaos.controller import ChaosController
from repro.chaos.hierarchy import HIERARCHY, sample_hierarchy_schedule
from repro.chaos.invariants import InvariantLedger, Violation
from repro.chaos.live import LiveOracle
from repro.chaos.oracle import ChaosOracle
from repro.chaos.runner import Preset, make_engine, run_campaign
from repro.chaos.schedule import Fault, FaultSchedule, PacketChaos
from repro.chaos.sweep import enumerate_crash_points, run_crash_case, run_sweep_campaign

__all__ = [
    "CHAOS",
    "HIERARCHY",
    "Fault",
    "FaultSchedule",
    "PacketChaos",
    "Preset",
    "ChaosController",
    "ChaosOracle",
    "InvariantLedger",
    "LiveOracle",
    "Violation",
    "enumerate_crash_points",
    "make_engine",
    "run_campaign",
    "run_chaos_campaign",
    "run_crash_case",
    "run_sweep_campaign",
    "sample_hierarchy_schedule",
    "sample_schedule",
]
