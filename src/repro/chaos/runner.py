"""The one campaign runner behind the ``chaos``, ``hierarchy-chaos`` and
``failover-sweep`` presets (see :mod:`repro.chaos` for the overview).

Each case builds a small LBRM deployment, arms its faults, drives a
paced data stream past the :class:`~repro.chaos.oracle.ChaosOracle`,
and repeats under every simulation engine; the engines must reach
bit-identical end states.  Everything derives from the campaign seed
and reports carry no wallclock timestamps, so the same seed yields a
byte-identical report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable

from repro.chaos.controller import ChaosController
from repro.chaos.oracle import ChaosOracle, Violation
from repro.chaos.schedule import Fault, FaultSchedule
from repro.core.config import LbrmConfig, LoggerConfig, ReceiverConfig
from repro.simnet.deploy import DeploymentSpec, LbrmDeployment
from repro.simnet.engine import ReferenceSimulator, Simulator

__all__ = [
    "ENGINES",
    "Timeline",
    "CampaignShape",
    "Draws",
    "Preset",
    "CaseOutcome",
    "make_engine",
    "deployment_spec",
    "digest",
    "case_seed",
    "minimize",
    "drive",
    "run_cases",
    "run_case",
    "run_campaign",
    "positive_int",
    "add_common_args",
    "selected_engines",
    "emit",
    "build_campaign_parser",
    "campaign_summary",
    "run_campaign_command",
]

_ENGINE_CLASSES = {"fast": Simulator, "reference": ReferenceSimulator}
ENGINES = tuple(_ENGINE_CLASSES)

#: Schedule-point resolution.  Recorded points are rounded to this many
#: decimals before deduplication; two events closer than a nanosecond
#: are the same crash instant for every protocol timer in the system.
POINT_DIGITS = 9

# Retry budgets are raised well past every fault duration the samplers
# can emit, so "ran out of retries" never masquerades as a protocol bug.
_CAMPAIGN_CONFIG = LbrmConfig(
    receiver=ReceiverConfig(max_nack_retries=10),
    logger=LoggerConfig(max_upstream_retries=30),
)


@dataclass(frozen=True)
class Timeline:
    """One case's clock: quiet warm-up, an active window carrying the
    paced data stream (and the faults), then a drain for recovery."""

    warmup: float
    active_end: float
    drain: float

    def send_times(self, packets: int) -> list[float]:
        span = self.active_end - self.warmup
        return [self.warmup + (i + 0.5) * span / packets for i in range(packets)]


# The receiver escalation ladder alone can take ~12 s at campaign retry
# budgets, and post-stream heartbeats back off toward h_max.
CAMPAIGN_TIMELINE = Timeline(warmup=0.5, active_end=8.5, drain=25.0)


# -- engines ----------------------------------------------------------


class _Recording:
    """Engine mixin that records every distinct schedule point."""

    def __init__(self) -> None:
        super().__init__()
        self.points: set[float] = set()

    def schedule(self, at, callback, *args):
        t = at if at > self.now else self.now
        self.points.add(round(t, POINT_DIGITS))
        return super().schedule(at, callback, *args)


def make_engine(engine: str, *, record: bool = False) -> Simulator | ReferenceSimulator:
    """``fast`` is the timer-wheel ``Simulator``, ``reference`` the
    pure-heap ``ReferenceSimulator``.  ``record=True`` returns a variant
    whose ``points`` set collects every distinct schedule point."""
    if engine not in _ENGINE_CLASSES:
        raise ValueError(f"unknown engine {engine!r} (one of {', '.join(ENGINES)})")
    cls = _ENGINE_CLASSES[engine]
    if record:
        cls = type(f"Recording{cls.__name__}", (_Recording, cls), {})
    return cls()


# -- one case ----------------------------------------------------------


def deployment_spec(shape, config: LbrmConfig, seed: int) -> DeploymentSpec:
    """The deployment a shape describes: every shape field that is also
    a :class:`DeploymentSpec` field (sizes, depth, fanout)."""
    known = {f.name for f in fields(DeploymentSpec)}
    dims = {k: v for k, v in asdict(shape).items() if k in known}
    return DeploymentSpec(**dims, config=config, seed=seed)


def digest(dep: LbrmDeployment, *, logs: bool = False) -> str:
    """Fingerprint of the end state, for cross-engine agreement checks.

    Tree deployments also fold in the hierarchy snapshot (final parent
    map, every applied move, manager counters), so engines must agree on
    the tree surgery too.  ``logs=True`` adds the sender's log epoch and
    every primary-capable logger's log head (the failover sweep).
    """
    assert dep.sender is not None
    state = {
        "seq": dep.sender.seq,
        "released": dep.sender.released_up_to,
        "primary": str(dep.sender.primary),
        "network": dep.network.stats,
        "receivers": {
            node.name: [s for s in range(1, dep.sender.seq + 1) if rx.tracker.has(s)]
            for rx, node in zip(dep.receivers, dep.receiver_nodes)
        },
    }
    if dep.hierarchy is not None:
        state["hierarchy"] = dep.hierarchy.to_dict()
    if logs:
        state["log_epoch"] = dep.sender.log_epoch
        state["logs"] = {
            node.name: machine.primary_seq
            for machine, node in zip(
                [dep.primary, *dep.replicas],
                [dep.primary_node, *dep.replica_nodes],
            )
        }
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()[:16]


def drive(dep: LbrmDeployment, send_times: Iterable[float], payload: str,
          timeline: Timeline) -> None:
    """Start the deployment, send one packet at each time, then drain."""
    dep.start()
    for i, send_at in enumerate(send_times):
        dep.advance(send_at - dep.sim.now)
        dep.send(f"{payload}-{i}".encode())
    dep.advance(timeline.active_end - dep.sim.now + timeline.drain)


@dataclass
class CaseOutcome:
    """One case under one engine: the oracle's verdict, the end-state
    digest, and the preset's per-case report fields."""

    violations: list[Violation]
    digest: str
    fields: dict


def case_seed(prefix: str, seed: int, index: int) -> int:
    """The deployment seed of case ``index`` of a campaign."""
    raw = hashlib.sha256(f"{prefix}:{seed}:{index}".encode()).digest()
    return int.from_bytes(raw[:4], "big")


def minimize(schedule: FaultSchedule, violates: Callable[[FaultSchedule], bool]) -> FaultSchedule:
    """Greedily drop faults while the violation persists (ddmin-lite)."""
    current = schedule
    for index in range(len(schedule.faults) - 1, -1, -1):
        candidate = current.without(index)
        if violates(candidate):
            current = candidate
    return current


# -- the case loop ----------------------------------------------------------


def run_cases(
    headers: Iterable[dict],
    engines: tuple[str, ...],
    run: Callable[[dict, str], CaseOutcome],
    failure: Callable[[dict], dict],
    counted: tuple[str, ...] = (),
) -> dict:
    """Run every case under every engine and check that they agree.

    ``run(header, engine)`` replays the case a header describes; a case
    with a violation or diverging engine digests also gets the failure
    entry ``failure(header)``.  Totals count violations and the
    ``counted`` outcome fields.  Returns ``cases``, ``failures``, ``totals``.
    """
    if not engines:
        raise ValueError("at least one engine is required")
    cases = []
    failures = []
    totals = dict.fromkeys((*counted, "violations"), 0)
    for header in headers:
        per_engine = {}
        for engine in engines:
            outcome = run(header, engine)
            per_engine[engine] = {
                "digest": outcome.digest,
                **outcome.fields,
                "violations": [v.to_dict() for v in outcome.violations],
            }
            for key in counted:
                totals[key] += outcome.fields[key]
            totals["violations"] += len(outcome.violations)
        engines_agree = len({e["digest"] for e in per_engine.values()}) == 1
        cases.append({**header, "engines": per_engine, "engines_agree": engines_agree})
        if any(e["violations"] for e in per_engine.values()) or not engines_agree:
            failures.append(failure(header))
    return {"cases": cases, "failures": failures, "totals": totals}


# -- sampled campaigns ----------------------------------------------------


@dataclass(frozen=True)
class CampaignShape:
    """Deployment dimensions and workload for one campaign tier."""

    runs: int
    n_sites: int
    receivers_per_site: int
    n_replicas: int
    packets: int

    def node_names(self) -> tuple[list[str], list[str], list[str]]:
        """The deployment's sites, receivers and site loggers."""
        sites = range(1, self.n_sites + 1)
        return (
            [f"site{i}" for i in sites],
            [f"site{i}-rx{j}" for i in sites for j in range(self.receivers_per_site)],
            [f"site{i}-logger" for i in sites],
        )


class Draws:
    """The samplers' seeded draws: fault times (inside the active window
    by default) and durations at millisecond resolution, and blips."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def at(self, lo: float = 0.8, hi: float = 7.8) -> float:
        return round(self.rng.uniform(lo, hi), 3)

    dur = at  # durations draw exactly like times

    def blip(self, victims: list[str], down: str = "crash", up: str = "restart") -> list[Fault]:
        """Take one victim down at a random time and back 0.3-2 s later."""
        start = self.at()
        victim = self.rng.choice(victims)
        end = round(start + self.dur(0.3, 2.0), 3)
        return [Fault(down, start, victim), Fault(up, end, victim)]


@dataclass(frozen=True)
class Preset:
    """What a sampled campaign supplies to the runner.

    ``command`` names the CLI subcommand, the reproducer, the report file
    and the case-seed stream; ``stream`` seeds the sampler; ``payload``
    prefixes the application data.  ``counters`` are extra per-case
    fields read off the finished deployment (totalled and summarised),
    ``header_fields`` the shape fields the summary header shows.
    """

    command: str
    stream: str
    payload: str
    tiers: dict[str, CampaignShape]
    sample: Callable[[random.Random, CampaignShape], FaultSchedule]
    counters: dict[str, Callable[[LbrmDeployment], int]] = field(default_factory=dict)
    header_fields: tuple[str, ...] = ()


def run_case(
    preset: Preset,
    shape: CampaignShape,
    schedule: FaultSchedule,
    seed: int,
    engine: str = "fast",
) -> CaseOutcome:
    """Run one schedule against one deployment under one engine."""
    dep = LbrmDeployment(deployment_spec(shape, _CAMPAIGN_CONFIG, seed), sim=make_engine(engine))
    controller = ChaosController(dep, schedule)
    controller.install()
    oracle = ChaosOracle(dep, controller)
    oracle.install()
    drive(dep, CAMPAIGN_TIMELINE.send_times(shape.packets), preset.payload, CAMPAIGN_TIMELINE)
    violations = oracle.finish()
    counts = {"faults_injected": controller.faults_injected}
    counts.update({name: count(dep) for name, count in preset.counters.items()})
    return CaseOutcome(violations, digest(dep), counts)


def run_campaign(
    preset: Preset,
    seed: int,
    tier: str = "quick",
    engines: tuple[str, ...] = ENGINES,
    runs: int | None = None,
) -> dict:
    """Run a sampled campaign; returns the (JSON-stable) report dict.

    On any violation or engine disagreement the failure entry carries a
    reproducer command and the schedule minimised under ``engines[0]``:
    the smallest fault subset that still breaks an invariant.
    """
    if runs is not None and runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    shape = preset.tiers[tier]
    n_runs = runs if runs is not None else shape.runs
    schedules = [
        preset.sample(random.Random(f"{preset.stream}:{seed}:{index}"), shape)
        for index in range(n_runs)
    ]
    headers = [
        {"index": index, "case_seed": case_seed(preset.command, seed, index),
         "schedule": schedule.to_dict()}
        for index, schedule in enumerate(schedules)
    ]

    def run(header: dict, engine: str) -> CaseOutcome:
        return run_case(preset, shape, schedules[header["index"]], header["case_seed"], engine)

    def failure(header: dict) -> dict:
        def violates(candidate: FaultSchedule) -> bool:
            outcome = run_case(preset, shape, candidate, header["case_seed"], engines[0])
            return bool(outcome.violations)

        minimized = minimize(schedules[header["index"]], violates)
        return {
            "index": header["index"],
            "case_seed": header["case_seed"],
            "reproducer": f"repro {preset.command} --{tier} --seed {seed} --runs {n_runs}",
            "minimized_schedule": minimized.to_dict(),
        }

    meta = {
        "seed": seed,
        "tier": tier,
        "runs": n_runs,
        "engines": list(engines),
        "shape": {k: v for k, v in asdict(shape).items() if k != "runs"},
    }
    counted = ("faults_injected", *preset.counters)
    return {"campaign": meta, **run_cases(headers, engines, run, failure, counted)}


# -- CLI ----------------------------------------------------------


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def add_common_args(parser: argparse.ArgumentParser, command: str,
                    tiers: dict[str, object]) -> None:
    """The flags every preset shares: one ``--<tier>`` per tier (default
    ``quick``), ``--seed``, ``--engine``, ``--out`` and ``--json``."""
    group = parser.add_mutually_exclusive_group()
    for name, shape in tiers.items():
        dims = ", ".join(f"{k}={v}" for k, v in asdict(shape).items())
        group.add_argument(f"--{name}", action="store_const", const=name, dest="tier",
                           help=("default tier: " if name == "quick" else "") + dims)
    stem = command.upper().replace("-", "_")
    parser.set_defaults(tier="quick", report_stem=stem)
    parser.add_argument("--seed", type=int, default=0, help="campaign seed (default 0)")
    parser.add_argument("--engine", choices=("both", *ENGINES), default="both",
                        help="simulation engine(s) to run each case under (default both)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help=f"write {stem}_seed<seed>.json into DIR")
    parser.add_argument("--json", action="store_true", help="print the full report as JSON")


def selected_engines(args: argparse.Namespace) -> tuple[str, ...]:
    return ENGINES if args.engine == "both" else (args.engine,)


def emit(args: argparse.Namespace, report: dict, summary: list[str]) -> int:
    """Write and print a report; the exit status is 1 on any failure."""
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{args.report_stem}_seed{args.seed}.json").write_text(text + "\n")
    print(text if args.json else "\n".join(summary))
    return 1 if report["failures"] else 0


def build_campaign_parser(parser: argparse.ArgumentParser, preset: Preset) -> None:
    add_common_args(parser, preset.command, preset.tiers)
    parser.add_argument("--runs", type=positive_int, default=None,
                        help="override the tier's case count")


def campaign_summary(report: dict, preset: Preset, suffix: str = "") -> list[str]:
    """The stdout summary of a sampled campaign."""
    meta = report["campaign"]
    shown = "".join(f" {k}={meta['shape'][k]}" for k in preset.header_fields)
    lines = [
        f"{preset.command.replace('-', ' ')} campaign: seed={meta['seed']} "
        f"tier={meta['tier']} cases={meta['runs']}{shown} "
        f"engines={','.join(meta['engines'])}{suffix}"
    ]
    for case in report["cases"]:
        engines = case["engines"].values()
        counts = "".join(f"{k}={max(e[k] for e in engines)} " for k in preset.counters)
        lines.append(
            f"  case {case['index']}: seed={case['case_seed']} "
            f"faults={len(case['schedule']['faults'])} {counts}"
            f"violations={sum(len(e['violations']) for e in engines)} "
            f"engines_agree={'yes' if case['engines_agree'] else 'NO'}"
        )
    lines.append("totals: " + " ".join(f"{k}={v}" for k, v in report["totals"].items()))
    for failure in report["failures"]:
        lines.append(f"FAILURE in case {failure['index']} (case_seed {failure['case_seed']})")
        lines.append(f"  reproducer: {failure['reproducer']}")
        lines.append(
            f"  minimized schedule: {json.dumps(failure['minimized_schedule'], sort_keys=True)}"
        )
    return lines


def run_campaign_command(args: argparse.Namespace, preset: Preset) -> int:
    report = run_campaign(preset, args.seed, args.tier, selected_engines(args), args.runs)
    return emit(args, report, campaign_summary(report, preset))
