"""The ``chaos`` preset: randomized fault schedules on a flat deployment.

Each case samples a fault schedule from the campaign seed and replays
it through the shared runner (:func:`repro.chaos.runner.run_campaign`).

Recoverable by construction
---------------------------

The sampler only emits schedules the protocol is *supposed* to survive:
the source is never killed, at most one primary-side component is
disturbed at a time (and a permanent primary crash only when replicas
exist to fail over to), partitions and blips are short enough to fit
inside the (deliberately generous) retry budgets of the campaign
config, and corruption targets receivers — the parties the paper makes
responsible for their own reliability.  Any invariant violation under
such a schedule is therefore a protocol bug, not an impossible ask.

A *sabotage* deliberately breaks the build (e.g. secondary loggers drop
every NACK) to prove the oracle catches real regressions.
"""

from __future__ import annotations

import argparse
import random
from contextlib import contextmanager

from repro.chaos import runner
from repro.chaos.schedule import Fault, FaultSchedule
from repro.core.logger import LogServer

__all__ = [
    "TIERS",
    "SABOTAGES",
    "CHAOS",
    "sabotaged",
    "sample_schedule",
    "run_chaos_campaign",
    "build_chaos_parser",
    "run_chaos",
]

TIERS: dict[str, runner.CampaignShape] = {
    "quick": runner.CampaignShape(
        runs=3, n_sites=2, receivers_per_site=2, n_replicas=1, packets=10
    ),
    "full": runner.CampaignShape(
        runs=8, n_sites=3, receivers_per_site=3, n_replicas=2, packets=14
    ),
}

SABOTAGES: dict[str, str] = {
    "logger-retrans": "logging servers drop every NACK (retransmission service disabled)",
}


@contextmanager
def sabotaged(name: str | None):
    """Run the body with the named sabotage applied (``None``: none)."""
    if name is None:
        yield
        return
    if name not in SABOTAGES:
        raise ValueError(f"unknown sabotage {name!r} (one of {sorted(SABOTAGES)})")
    original = LogServer._on_nack
    LogServer._on_nack = lambda self, packet, src, now: []
    try:
        yield
    finally:
        LogServer._on_nack = original


# -- schedule sampling ----------------------------------------------------


def sample_schedule(rng: random.Random, shape: runner.CampaignShape) -> FaultSchedule:
    """Draw one recoverable-by-construction fault schedule."""
    sites, receivers, loggers = shape.node_names()
    draw = runner.Draws(rng)
    faults: list[Fault] = []

    if shape.n_replicas >= 1 and rng.random() < 0.25:
        # Failover scenario: kill the primary for good mid-stream; the
        # sender must locate and promote the best replica (§2.2.3).
        # Only gentle receiver-side extras ride along so the secondary
        # loggers keep seeing the multicast stream directly.
        faults.append(Fault("crash", draw.at(1.0, 4.0), "primary"))
        for _ in range(rng.randrange(0, 3)):
            faults.extend(draw.blip(receivers))
        return FaultSchedule(faults=tuple(faults), seed=rng.randrange(2**32))

    menu = [
        "rx-blip", "rx-blip", "rx-pause", "logger-blip", "logger-blip",
        "partition", "partition", "skew", "duplicate", "corrupt", "reorder",
        "primary-pause",
    ]
    primary_budget = 1  # at most one primary-side disturbance per schedule
    for _ in range(rng.randrange(2, 6)):
        pick = rng.choice(menu)
        if pick == "rx-blip":
            faults.extend(draw.blip(receivers))
        elif pick == "rx-pause":
            faults.extend(draw.blip(receivers, "pause", "resume"))
        elif pick == "logger-blip":
            faults.extend(draw.blip(loggers))
        elif pick == "partition":
            faults.append(
                Fault("partition", draw.at(), rng.choice(sites), duration=draw.dur(0.5, 2.5))
            )
        elif pick == "skew":
            amount = round(rng.uniform(0.02, 0.1) * rng.choice((-1, 1)), 3)
            faults.append(Fault("skew", draw.at(), rng.choice(receivers + loggers), amount=amount))
        elif pick == "duplicate":
            target = rng.choice([""] + receivers)
            faults.append(
                Fault("duplicate", draw.at(), target, duration=draw.dur(0.5, 2.0),
                      amount=round(rng.uniform(0.3, 0.8), 3))
            )
        elif pick in ("corrupt", "reorder"):
            # Corruption (checksum-discard) aims at receivers only: the
            # paper holds receivers responsible for their own recovery,
            # and scoping keeps the primary's control channel clean.
            lo, hi = (0.05, 0.25) if pick == "corrupt" else (0.02, 0.15)
            faults.append(
                Fault(pick, draw.at(), rng.choice(receivers), duration=draw.dur(0.3, 1.5),
                      amount=round(rng.uniform(lo, hi), 3))
            )
        elif pick == "primary-pause" and primary_budget:
            primary_budget = 0
            start = draw.at(1.0, 6.0)
            faults.append(Fault("pause", start, "primary"))
            faults.append(Fault("resume", round(start + draw.dur(0.3, 1.4), 3), "primary"))
    if not faults:  # pragma: no cover - menu always yields something
        faults.extend(draw.blip(receivers))
    return FaultSchedule(faults=tuple(faults), seed=rng.randrange(2**32))


CHAOS = runner.Preset(
    command="chaos", stream="chaos-campaign", payload="chaos",
    tiers=TIERS, sample=sample_schedule,
)


def run_chaos_campaign(
    seed: int,
    tier: str = "quick",
    engines: tuple[str, ...] = runner.ENGINES,
    sabotage: str | None = None,
    runs: int | None = None,
) -> dict:
    """Run the chaos campaign, optionally sabotaged; returns the report."""
    with sabotaged(sabotage):
        report = runner.run_campaign(CHAOS, seed, tier, engines, runs)
    report["campaign"]["sabotage"] = sabotage
    return report


# -- CLI ----------------------------------------------------------


def build_chaos_parser(parser: argparse.ArgumentParser) -> None:
    runner.build_campaign_parser(parser, CHAOS)
    parser.add_argument("--sabotage", choices=sorted(SABOTAGES), default=None,
                        help="deliberately break the protocol to demo oracle detection")


def run_chaos(args: argparse.Namespace) -> int:
    report = run_chaos_campaign(
        args.seed, args.tier, runner.selected_engines(args), args.sabotage, args.runs
    )
    suffix = f" sabotage={args.sabotage}" if args.sabotage else ""
    return runner.emit(args, report, runner.campaign_summary(report, CHAOS, suffix))
