"""Exhaustive crash-point failover sweep behind ``repro failover-sweep``.

Where the chaos campaign *samples* fault schedules, the sweep is a
proof by enumeration: it first replays a fixed failover scenario under
a recording simulator to learn **every distinct schedule point** (the
times at which any event fires — timer wakeups, packet deliveries,
application sends), then replays the scenario once per point with the
primary logging server crashed exactly there, grading each replay with
the full :class:`~repro.chaos.oracle.ChaosOracle` (invariants I1–I4
plus the I6 commit-point checks).  A green sweep therefore means: there
is **no moment** in the schedule at which losing the primary loses a
committed packet or stalls recovery — not "we tried a few times and it
looked fine".

Soundness of the enumeration
----------------------------

A discrete-event simulation only changes state when an event fires, so
crashing the primary between two consecutive schedule points is
indistinguishable from crashing it at the later point: the point list
*is* the complete set of distinguishable crash instants.  The baseline
is recorded **without** the oracle attached (the oracle schedules its
own periodic sweeps, which would pollute the point set with observer
artifacts); replays run with it.  Both engines enumerate the same
scenario and the sweep asserts their point lists are identical before
comparing per-point digests.

Recoverable by construction
---------------------------

The scenario only injects loss on receiver inbound links: site loggers
see the multicast stream loss-free, so every replay is a world the
protocol is *supposed* to survive and any violation is a protocol bug.
The double-failure variant (``--double``) additionally crashes whatever
node the sender trusts as primary shortly after each crash point —
with two replicas and ``min_replicas_acked=2`` the release point never
passes what *both* replicas hold, so even losing the primary **and**
the freshly promoted replica is provably zero-loss.
"""

from __future__ import annotations

import argparse
from dataclasses import asdict, dataclass, replace

from repro.chaos import runner
from repro.chaos.oracle import ChaosOracle
from repro.core.config import LbrmConfig, ReplicationConfig
from repro.core.logger import LoggerRole
from repro.simnet.deploy import LbrmDeployment
from repro.simnet.loss import BernoulliLoss

__all__ = [
    "SweepShape",
    "TIERS",
    "sweep_config",
    "enumerate_crash_points",
    "run_crash_case",
    "run_sweep_campaign",
    "build_sweep_parser",
    "run_sweep",
]

# Short timeline: the sweep replays the scenario once per schedule
# point, so each replay must be cheap.  The active window carries the
# paced data stream; the drain covers failover detection
# (primary_timeout + failover_wait), handover, and receiver recovery.
TIMELINE = runner.Timeline(warmup=0.25, active_end=2.25, drain=5.0)


def sweep_config(*, min_replicas_acked: int = 1) -> LbrmConfig:
    """The sweep's protocol config: the campaigns' retry budgets (recovery
    exhaustion must never masquerade as a failover bug) and failover
    timers tightened so detection + promotion fit inside the drain."""
    return replace(
        runner._CAMPAIGN_CONFIG,
        replication=ReplicationConfig(
            min_replicas_acked=min_replicas_acked,
            update_retry=0.1,
            primary_timeout=0.6,
            failover_wait=0.2,
        ),
    )


@dataclass(frozen=True)
class SweepShape:
    """Deployment dimensions and workload for one sweep tier."""

    n_sites: int
    receivers_per_site: int
    n_replicas: int
    packets: int
    rx_loss: float


TIERS: dict[str, SweepShape] = {
    # micro: the tier-1 test shape — small enough to enumerate and
    # replay inside the regular pytest budget.
    "micro": SweepShape(n_sites=1, receivers_per_site=2, n_replicas=1, packets=3, rx_loss=0.05),
    "quick": SweepShape(n_sites=2, receivers_per_site=2, n_replicas=2, packets=6, rx_loss=0.05),
    "full": SweepShape(n_sites=3, receivers_per_site=3, n_replicas=2, packets=10, rx_loss=0.08),
}

#: Offsets (after the first crash) for the double-failure variant's
#: second crash: one inside the failover window, one after promotion
#: has almost certainly completed (detection is bounded by
#: 2 x primary_timeout + failover_wait = 1.4 s under ``sweep_config``).
DOUBLE_OFFSETS = (0.9, 1.6)

#: When the ``--readopt`` variant wipe-restarts a follower: fixed at
#: mid active window so pushes keep flowing afterwards — the restarted
#: follower's regressed acknowledgement is what triggers re-adoption
#: and backfill, and that ack rides on the next push it receives.
READOPT_WIPE_AT = 1.0


# -- scenario ----------------------------------------------------------


def _scenario(shape: SweepShape, seed: int, engine: str, config: LbrmConfig | None,
              record: bool = False) -> LbrmDeployment:
    """The sweep's deployment, with receiver-only inbound loss: site
    loggers and the primary side stay loss-free so every crash point
    leaves a recoverable world."""
    spec = runner.deployment_spec(shape, config or sweep_config(), seed)
    dep = LbrmDeployment(spec, sim=runner.make_engine(engine, record=record))
    if shape.rx_loss:
        for node in dep.receiver_nodes:
            dep.network.host(node.name).inbound_loss = BernoulliLoss(
                shape.rx_loss, dep.streams.stream(f"sweep-loss:{node.name}")
            )
    return dep


def _send_times(shape: SweepShape) -> list[float]:
    return [round(t, runner.POINT_DIGITS) for t in TIMELINE.send_times(shape.packets)]


def enumerate_crash_points(shape: SweepShape, seed: int, engine: str = "fast",
                           config: LbrmConfig | None = None) -> list[float]:
    """Replay the fault-free scenario under a recording engine and return
    every distinct schedule point in the crash window ``[0, active_end]``."""
    dep = _scenario(shape, seed, engine, config, record=True)
    runner.drive(dep, _send_times(shape), "sweep", TIMELINE)
    points = set(dep.sim.points)
    points.update(_send_times(shape))  # the crash-just-before-send instants
    return sorted(t for t in points if 0.0 <= t <= TIMELINE.active_end)


# -- one replay ----------------------------------------------------------


def _crash_current_primary(dep: LbrmDeployment) -> None:
    """Crash whichever node the sender currently trusts as primary (the
    double-failure variant's dynamic second target)."""
    assert dep.sender is not None
    current = dep.sender.primary
    assert dep.primary_node is not None
    for node in (dep.primary_node, *dep.replica_nodes):
        if node.name == current and node.alive:
            node.crash()
            return


def _wipe_restart_replica(dep: LbrmDeployment) -> None:
    """Wipe-restart the first live *follower* (the readopt variant).

    The target must still be in the replica role and must not be the
    node the sender currently trusts — wiping a promoted primary would
    simulate losing the only authoritative copy, which is outside the
    durable-log model this sweep proves things about.
    """
    assert dep.sender is not None
    current = dep.sender.primary
    for machine, node in zip(dep.replicas, dep.replica_nodes):
        if not node.alive or node.name == current:
            continue
        if machine.role is not LoggerRole.REPLICA:
            continue
        machine.wipe_restart(dep.sim.now)
        return


def run_crash_case(
    shape: SweepShape,
    seed: int,
    crash_at: float,
    engine: str = "fast",
    config: LbrmConfig | None = None,
    second_crash_at: float | None = None,
    wipe_at: float | None = None,
) -> runner.CaseOutcome:
    """One replay: crash the primary at ``crash_at``, grade with the oracle.

    The outcome's fields are ``promoted`` (the replica the sender ended
    up trusting, or ``None``) and the sender's final ``log_epoch``.
    """
    dep = _scenario(shape, seed, engine, config)
    # Scheduled before start: among equal-time events the crash fires
    # first (insertion-order tie-break), i.e. "just before" the point.
    assert dep.primary_node is not None
    dep.sim.schedule(crash_at, dep.primary_node.crash)
    if second_crash_at is not None:
        dep.sim.schedule(second_crash_at, _crash_current_primary, dep)
    if wipe_at is not None:
        dep.sim.schedule(wipe_at, _wipe_restart_replica, dep)
    oracle = ChaosOracle(dep)
    oracle.install()
    runner.drive(dep, _send_times(shape), "sweep", TIMELINE)
    violations = oracle.finish()
    assert dep.sender is not None
    promoted = None
    if dep.sender.primary != dep.primary_node.name:
        promoted = str(dep.sender.primary)
    return runner.CaseOutcome(
        violations, runner.digest(dep, logs=True),
        {"promoted": promoted, "log_epoch": dep.sender.log_epoch},
    )


# -- the sweep ----------------------------------------------------------


def run_sweep_campaign(
    seed: int,
    tier: str = "quick",
    engines: tuple[str, ...] = runner.ENGINES,
    double: bool = False,
    max_points: int | None = None,
    readopt: bool = False,
) -> dict:
    """Enumerate crash points and replay each under every engine.

    Returns the (JSON-stable) report dict.  ``double=True`` runs the
    double-failure variant: two replicas with ``min_replicas_acked=2``
    and a second, dynamically targeted crash ``DOUBLE_OFFSETS`` after
    each point.  ``readopt=True`` additionally wipe-restarts one
    follower at ``READOPT_WIPE_AT`` in every replay: the commit point
    must never keep counting the vanished prefix (the stale
    FollowerState re-adoption path), so it also runs with two replicas
    and ``min_replicas_acked=2`` — the surviving follower keeps every
    committed packet reachable.
    """
    if max_points is not None and max_points < 1:
        raise ValueError(f"max_points must be at least 1, got {max_points}")
    shape = TIERS[tier]
    if double or readopt:
        shape = replace(shape, n_replicas=max(shape.n_replicas, 2))
    config = sweep_config(min_replicas_acked=2 if (double or readopt) else 1)
    wipe_at = round(READOPT_WIPE_AT, runner.POINT_DIGITS) if readopt else None

    point_lists = [enumerate_crash_points(shape, seed, engine, config) for engine in engines]
    points_agree = all(p == point_lists[0] for p in point_lists[1:])
    points = sorted(set().union(*point_lists))
    truncated = 0
    if max_points is not None and len(points) > max_points:
        # Even coverage of the window rather than a prefix: take every
        # k-th point.  The report records the cut so a capped run never
        # reads as exhaustive.
        step = len(points) / max_points
        kept = [points[int(i * step)] for i in range(max_points)]
        truncated = len(points) - len(kept)
        points = kept

    offsets = [round(offset, runner.POINT_DIGITS) for offset in DOUBLE_OFFSETS]
    headers = [
        {"crash_at": crash_at, "second_crash_at": second, "wipe_at": wipe_at}
        for crash_at in points
        for second in (
            [round(crash_at + o, runner.POINT_DIGITS) for o in offsets] if double else [None]
        )
    ]
    reproducer = (
        f"repro failover-sweep --{tier} --seed {seed}"
        + (" --double" if double else "")
        + (" --readopt" if readopt else "")
    )
    report = runner.run_cases(
        headers,
        engines,
        lambda h, engine: run_crash_case(
            shape, seed, h["crash_at"], engine, config, h["second_crash_at"], wipe_at
        ),
        lambda h: {
            "crash_at": h["crash_at"],
            "second_crash_at": h["second_crash_at"],
            "reproducer": reproducer,
        },
    )
    if not points_agree:
        report["failures"].append({
            "crash_at": None,
            "second_crash_at": None,
            "reproducer": "engines enumerated different schedule-point lists",
        })
    report["totals"].update(points=len(points), replays=len(headers) * len(engines))
    meta = {
        "seed": seed,
        "tier": tier,
        "engines": list(engines),
        "double": double,
        "readopt": readopt,
        "wipe_at": wipe_at,
        "shape": asdict(shape),
        "points": points,
        "points_agree": points_agree,
        "points_truncated": truncated,
    }
    return {"sweep": meta, **report}


# -- CLI ----------------------------------------------------------


def build_sweep_parser(parser: argparse.ArgumentParser) -> None:
    runner.add_common_args(parser, "failover-sweep", TIERS)
    parser.add_argument("--double", action="store_true",
                        help="double-failure variant: also crash the promoted primary")
    parser.add_argument("--readopt", action="store_true",
                        help="follower-restart variant: wipe one follower's state "
                             "mid-stream in every replay (exercises stale-state "
                             "re-adoption and backfill)")
    parser.add_argument("--max-points", type=runner.positive_int, default=None, metavar="N",
                        help="cap the replayed points at N (evenly spaced; "
                             "the report records the truncation)")


def _summary(report: dict) -> list[str]:
    meta = report["sweep"]
    totals = report["totals"]
    lines = [
        f"failover sweep: seed={meta['seed']} tier={meta['tier']} "
        f"engines={','.join(meta['engines'])}"
        + (" double" if meta["double"] else "")
        + (" readopt" if meta["readopt"] else ""),
        f"  points={totals['points']} replays={totals['replays']} "
        f"violations={totals['violations']} "
        f"points_agree={'yes' if meta['points_agree'] else 'NO'}"
        + (f" (truncated {meta['points_truncated']})" if meta["points_truncated"] else ""),
    ]
    for failure in report["failures"]:
        lines.append(
            f"FAILURE at crash_at={failure['crash_at']} "
            f"second={failure['second_crash_at']}: {failure['reproducer']}"
        )
    return lines


def run_sweep(args: argparse.Namespace) -> int:
    report = run_sweep_campaign(
        args.seed, tier=args.tier, engines=runner.selected_engines(args), double=args.double,
        max_points=args.max_points, readopt=args.readopt,
    )
    return runner.emit(args, report, _summary(report))
