"""The ``hierarchy-chaos`` preset: tree faults on k-level repair trees.

The chaos contract (:mod:`repro.chaos.runner`) aimed at deep repair
trees (DESIGN §11): every case builds a ``depth >= 3`` deployment whose
interior hubs sit *between* the site loggers and the primary, and the
fault sampler leans on the tree — crash-and-restart a hub, crash one
for good mid-stream, or inject a mid-epoch ``reparent`` mutation — on
top of the usual receiver/site-logger/partition noise.  Each case also
reports how many re-parent moves the tree manager made, and the engines
must agree on the tree surgery too (see :func:`repro.chaos.runner.digest`).

Recoverable by construction: the source and the primary stay alive, at
most one *permanent* hub crash per schedule (its subtree must re-parent
around it — the scenario under test), and every other disturbance heals
inside the drain window's retry budgets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.chaos import runner
from repro.chaos.schedule import Fault, FaultSchedule
from repro.core.hierarchy import interior_name, plan_level_sizes
from repro.simnet.deploy import LbrmDeployment

__all__ = ["HierarchyShape", "TIERS", "HIERARCHY", "sample_hierarchy_schedule"]


@dataclass(frozen=True)
class HierarchyShape(runner.CampaignShape):
    """A campaign tier on a logger tree of ``depth`` levels."""

    depth: int
    fanout: int

    def hubs(self) -> list[str]:
        """Interior-logger names this shape's deployment will build."""
        sizes = plan_level_sizes(self.n_sites, self.depth, self.fanout)
        return [
            interior_name(level, index)
            for level in sorted(sizes)
            for index in range(sizes[level])
        ]


TIERS: dict[str, HierarchyShape] = {
    "quick": HierarchyShape(
        runs=3, n_sites=6, receivers_per_site=1, n_replicas=1,
        depth=3, fanout=3, packets=8,
    ),
    "full": HierarchyShape(
        runs=6, n_sites=9, receivers_per_site=2, n_replicas=1,
        depth=3, fanout=3, packets=12,
    ),
}


# -- schedule sampling ----------------------------------------------------


def sample_hierarchy_schedule(rng: random.Random, shape: HierarchyShape) -> FaultSchedule:
    """Draw one recoverable-by-construction schedule for a deep tree."""
    sites, receivers, loggers = shape.node_names()
    hubs = shape.hubs()
    faults: list[Fault] = []
    draw = runner.Draws(rng)

    # Tree surgery is the point of this campaign: every schedule carries
    # at least one hub disturbance or explicit mutation.
    menu = [
        "hub-blip", "hub-blip", "hub-crash", "reparent", "reparent",
        "rx-blip", "logger-blip", "partition",
    ]
    hub_crash_budget = 1  # at most one *permanent* hub loss per schedule
    for pick_index in range(rng.randrange(2, 5)):
        pick = rng.choice(menu) if pick_index else rng.choice(
            ["hub-blip", "hub-crash", "reparent"]
        )
        if pick == "hub-blip":
            faults.extend(draw.blip(hubs))
        elif pick == "hub-crash":
            if not hub_crash_budget:
                continue
            hub_crash_budget = 0
            faults.append(Fault("crash", draw.at(1.0, 5.0), rng.choice(hubs)))
        elif pick == "reparent":
            # Mid-epoch mutation of a live edge: a site logger or a hub
            # is shoved onto its best alternative parent.
            faults.append(Fault("reparent", draw.at(), rng.choice(loggers + hubs)))
        elif pick == "rx-blip":
            faults.extend(draw.blip(receivers))
        elif pick == "logger-blip":
            faults.extend(draw.blip(loggers))
        else:  # partition
            faults.append(
                Fault("partition", draw.at(), rng.choice(sites), duration=draw.dur(0.5, 2.0))
            )
    return FaultSchedule(faults=tuple(faults), seed=rng.randrange(2**32))


def _reparents(dep: LbrmDeployment) -> int:
    assert dep.hierarchy is not None
    stats = dep.hierarchy.manager.stats
    return sum(v for k, v in stats.items() if k.startswith("reparents_"))


HIERARCHY = runner.Preset(
    command="hierarchy-chaos", stream="hierarchy-chaos", payload="hchaos",
    tiers=TIERS, sample=sample_hierarchy_schedule,
    counters={"reparents": _reparents}, header_fields=("depth", "fanout"),
)
