"""The four benchmark workloads, driven only through public entry points.

Per workload kind:

* trains (``repair_train``, ``tree_outage``): :func:`train_setup` builds
  and starts a deployment up to the first timed data packet,
  :func:`train_rep` runs the timed update train on it;
* ``aggregate_scale``: :func:`aggregate_scenario` builds the scenario,
  :func:`aggregate_rep` runs it through ``run_sharded``;
* ``live_loopback``: :func:`live_setup` starts the cluster,
  :func:`live_chunk` times one chunk of its stream and
  :func:`live_finish` drains it and checks completeness.

:func:`sim_rep` runs one sim repetition from a fresh state.  Every
repetition of one seed is the same simulated run, and the runner checks
that their digests agree.  ``live_loopback`` keeps one cluster for the
whole run.  Why each workload exists is in ``README.md`` and ``spec.py``.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import random
import time
from dataclasses import dataclass, field, replace

from repro.aio import AioCluster
from repro.core.actions import Deliver
from repro.core.config import LbrmConfig, LoggerConfig
from repro.core.events import RecoveryComplete
from repro.core.packets import DataPacket, RetransPacket
from repro.scale import AggregateDeployment, ScaleScenario, ScaleSpec
from repro.scale import shard as scale_shard
from repro.simnet import BernoulliLoss, DeploymentSpec, LbrmDeployment, wire_size
from repro.core.packets import clear_codec_caches
from repro.simnet.topology import clear_wire_size_cache

__all__ = ["Rep", "WORKLOADS"]

# Every workload sends this much application payload per data packet.
PAYLOAD_SIZE = 64


@dataclass
class Rep:
    """Outcome of one timed repetition (or one live chunk)."""

    t0: float  # timed region, time.perf_counter() at start ...
    t1: float  # ... and at end
    deliveries: int  # in-order application deliveries (modeled population)
    recoveries: list  # [(latency_s, weight)]
    wan_nacks: int
    source_bytes: int  # bytes the source site put on its tail circuit
    source_seconds: float  # simulated seconds of traffic (live: see LIVE_NOMINAL_RATE)
    holes: int  # holes detected (recoveries attempted)
    unrecovered: int  # holes never repaired + packets never delivered
    failures: list = field(default_factory=list)  # failed output checks
    digest: str = ""  # protocol digest (sim workloads; "" when live)
    counters: dict = field(default_factory=dict)  # public per-layer stats

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _payload(seed: int, i: int) -> bytes:
    head = b"%d:%d:" % (seed, i)
    return head + b"u" * (PAYLOAD_SIZE - len(head))


def _latencies(seed: int) -> dict:
    """One-way link latencies of the paper's ping survey (§2.2.2: 1 ms on
    the LAN, 17.5 ms per tail circuit, 2.5 ms across the backbone), each
    scaled by a seeded factor within ±2%.  Recovery latencies are sums of
    link latencies, so without this every seed would report the same
    percentiles to the last digit."""
    rng = random.Random(f"latency:{seed}")
    return {
        name: base * rng.uniform(0.98, 1.02)
        for name, base in (
            ("lan_latency", 0.001), ("tail_latency", 0.0175), ("backbone_latency", 0.0025)
        )
    }


def _fresh_process_state() -> None:
    """Start each repetition from the same interpreter state: collect the
    previous repetition's garbage and drop the codec memos and memoized
    wire sizes, so no repetition inherits a warmer cache or a larger heap
    than another."""
    clear_codec_caches()
    clear_wire_size_cache()
    gc.collect()


# -- sim trains: repair_train and tree_outage ---------------------------------


@dataclass(frozen=True)
class TrainShape:
    """An open-loop update train over an exact-receiver deployment."""

    n_sites: int
    receivers_per_site: int
    depth: int
    fanout: int
    tail_bandwidth: float  # bits/s; 0 = uncongested
    n_packets: int
    interval: float  # sim seconds between data packets (open loop)
    receiver_loss: float  # independent inbound loss at every receiver
    outage_every: int  # packets between tail-circuit outages
    outage_duration: float  # sim seconds each outage lasts
    outage_group: int  # >0: one site of each group this size at once (train_rep); 0: rotating


DRAIN = 2.0  # sim seconds of recovery time after a train's last packet
SETTLE = 0.5  # sim seconds after the priming packet


REPAIR_TRAIN = TrainShape(
    n_sites=50, receivers_per_site=20, depth=2, fanout=8, tail_bandwidth=0.0,
    n_packets=300, interval=0.05, receiver_loss=0.005,
    outage_every=10, outage_duration=0.06, outage_group=0,
)

TREE_OUTAGE = TrainShape(
    n_sites=300, receivers_per_site=2, depth=3, fanout=12, tail_bandwidth=1.5e6,
    n_packets=64, interval=0.25, receiver_loss=0.0,
    outage_every=8, outage_duration=0.4, outage_group=3,
)


@dataclass
class TrainState:
    dep: LbrmDeployment
    base_delivered: list  # per receiver node, deliveries before the timed region


def train_setup(shape: TrainShape, seed: int) -> TrainState:
    dep = LbrmDeployment(
        DeploymentSpec(
            n_sites=shape.n_sites,
            receivers_per_site=shape.receivers_per_site,
            depth=shape.depth,
            fanout=shape.fanout,
            tail_bandwidth=shape.tail_bandwidth,
            seed=seed,
            **_latencies(seed),
        )
    )
    dep.start()
    # A lossless priming packet fixes every receiver's join baseline at
    # seq 1; otherwise a receiver that lost the first packet would start
    # its stream at seq 2 and never count seq 1 as a hole.
    dep.send(_payload(seed, 0))
    dep.advance(SETTLE)
    if shape.receiver_loss > 0.0:
        for node in dep.receiver_nodes:
            node.host.inbound_loss = BernoulliLoss(
                shape.receiver_loss, rng=random.Random(f"loss:{seed}:{node.name}")
            )
    return TrainState(dep, [len(node.delivered) for node in dep.receiver_nodes])


def train_rep(shape: TrainShape, seed: int, state: TrainState) -> Rep:
    dep = state.dep
    sites = [site.name for site in dep.receiver_sites]
    rng = random.Random(f"outages:{seed}")
    rotation = rng.randrange(len(sites))
    tail = dep.source_site.tail_up.stats
    bytes0, nacks0, sim0 = tail.bytes, dep.trace.cross_site_nacks(), dep.sim.now
    events0 = dep.sim.processed
    net0 = dict(dep.network.stats)

    # Stratified outages (outage_group > 0): one site of each consecutive
    # group, picked by the seed, taken separately among the sites that
    # host an interior hub and among the rest.  A repair is slow when the
    # hub above the site was out too, so a fixed number of hub sites per
    # outage keeps the slow share of the CDF, and the primary's repair
    # traffic, from hinging on the seed.
    hub_sites = {node.host.site.name for node in dep.interior_logger_nodes}
    roles = [[s for s in sites if s in hub_sites], [s for s in sites if s not in hub_sites]]

    t0 = time.perf_counter()
    for i in range(shape.n_packets):
        if i % shape.outage_every == 0 and i > 0:
            if shape.outage_group:
                group = shape.outage_group
                victims = [
                    role[k + rng.randrange(group)]
                    for role in roles
                    for k in range(0, len(role) - group + 1, group)
                ]
                dep.burst_sites(victims, shape.outage_duration)
            else:
                dep.burst_site(sites[rotation % len(sites)], shape.outage_duration)
                rotation += 1
        dep.send(_payload(seed, i + 1))
        dep.advance(shape.interval)
    dep.advance(DRAIN)
    t1 = time.perf_counter()

    expected = set(range(1, shape.n_packets + 2))  # priming packet is seq 1
    deliveries = 0
    unrecovered = 0
    recoveries = []
    per_receiver = []
    for index, (node, base) in enumerate(zip(dep.receiver_nodes, state.base_delivered)):
        seqs = [d.seq for d in node.delivered]
        deliveries += len(seqs) - base
        unrecovered += len(expected - set(seqs))
        per_receiver.append(len(seqs))
        for event in node.events:
            if type(event) is RecoveryComplete:
                recoveries.append((event.latency, 1))
    holes = sum(r.stats["losses_detected"] for r in dep.receivers)

    failures = []
    if dep.receivers_missing() != 0:
        failures.append(f"receivers_missing() = {dep.receivers_missing()}, expected 0")
    if unrecovered:
        failures.append(f"{unrecovered} (receiver, seq) pairs never delivered")

    wan_nacks = dep.trace.cross_site_nacks() - nacks0
    source_bytes = tail.bytes - bytes0
    hierarchy = dep.hierarchy
    digest = _digest({
        "delivered": per_receiver,
        "recoveries": sorted(
            (i, e.seq, round(e.latency, 9))
            for i, node in enumerate(dep.receiver_nodes)
            for e in node.events
            if type(e) is RecoveryComplete
        ),
        "wan_nacks": wan_nacks,
        "source_bytes": source_bytes,
        "network": dep.network.stats,
        "moves": [m.to_dict() for m in hierarchy.manager.moves] if hierarchy else [],
    })

    loggers = [dep.primary, *dep.interior_loggers, *dep.site_loggers]
    net = dep.network.stats
    counters = {
        "engine.events": dep.sim.processed - events0,
        "engine.peak_pending": dep.sim.peak_pending,
        "topology.multicasts": net["multicast_sent"] - net0["multicast_sent"],
        "topology.unicasts": net["unicast_sent"] - net0["unicast_sent"],
        "topology.delivered": net["delivered"] - net0["delivered"],
        "topology.dropped": net["dropped"] - net0["dropped"],
        "receiver.nacks_sent": sum(r.stats["nacks_sent"] for r in dep.receivers),
        "logger.nacks_received": sum(lg.stats["nacks_received"] for lg in loggers),
        "logger.upstream_nacks": sum(lg.stats["upstream_nacks"] for lg in loggers),
        "logger.repairs_served": sum(
            lg.stats["retrans_unicast"] + lg.stats["retrans_multicast"] for lg in loggers
        ),
        "hierarchy.rescores": hierarchy.manager.stats["rescores"] if hierarchy else 0,
        "hierarchy.tree_nodes": len(hierarchy.manager.tree.nodes) - 1 if hierarchy else 0,
        "hierarchy.moves": len(hierarchy.manager.moves) if hierarchy else 0,
    }
    return Rep(
        t0=t0,
        t1=t1,
        deliveries=deliveries,
        recoveries=recoveries,
        wan_nacks=wan_nacks,
        source_bytes=source_bytes,
        source_seconds=dep.sim.now - sim0,
        holes=holes,
        unrecovered=unrecovered,
        failures=failures,
        digest=digest,
        counters=counters,
    )


# -- aggregate_scale ----------------------------------------------------------

AGGREGATE = ScaleScenario(
    spec=ScaleSpec(n_sites=200, receivers_per_site=500, receiver_loss=0.005),
    n_packets=150,
    interval=0.05,
    payload_size=PAYLOAD_SIZE,
    warmup=0.2,
    drain=2.0,
)
AGGREGATE_SHARDS = 2
# One whole-site tail outage every this many packets, rotating through
# the sites: it puts the WAN recovery mode well inside the top percentile.
AGGREGATE_OUTAGE_EVERY = 2


def aggregate_scenario(seed: int) -> ScaleScenario:
    rng = random.Random(f"outages:{seed}")
    n_sites = AGGREGATE.spec.n_sites
    rotation = rng.randrange(n_sites)
    bursts = []
    # Outages start after the first packet, so no site loses its join
    # baseline, and each covers exactly one packet.
    for k, i in enumerate(range(1, AGGREGATE.n_packets, AGGREGATE_OUTAGE_EVERY)):
        start = AGGREGATE.warmup + i * AGGREGATE.interval - AGGREGATE.interval / 2
        bursts.append((start, (rotation + k) % n_sites + 1, AGGREGATE.interval))
    spec = replace(AGGREGATE.spec, seed=seed, **_latencies(seed))
    return replace(AGGREGATE, spec=spec, bursts=tuple(bursts))


class _SetupDone(Exception):
    """Stops a setup probe's run_sharded once every shard has started."""


class _CaptureDeployments:
    """Watch the AggregateDeployments ``run_sharded`` builds, from outside.

    ``run_sharded`` builds its shard deployments internally; wrapping the
    class's public methods while active (calls per shard and per packet,
    never per receiver) gives the benchmark each shard's source-site
    tail-circuit ``Link.stats``, the moment the last shard's ``start()``
    returned, and the barrier steps: each shard runs ``advance_to`` once
    per barrier and once before each ``send``.  With ``stop_when_started``
    the last shard's ``start()`` raises :class:`_SetupDone` instead of
    returning, so a setup probe runs nothing past setup.
    """

    def __init__(self, stop_when_started: bool = False) -> None:
        self.stop_when_started = stop_when_started
        self.built: list[AggregateDeployment] = []
        self.started = 0
        self.started_at = 0.0  # time.perf_counter() when the last start() returned
        self.advances = 0
        self.sends = 0

    def __enter__(self) -> "_CaptureDeployments":
        cls = AggregateDeployment
        names = ("__init__", "start", "advance_to", "send")
        self._orig = {name: cls.__dict__[name] for name in names}
        orig = self._orig

        def init(dep, *args, **kwargs):
            orig["__init__"](dep, *args, **kwargs)
            self.built.append(dep)

        def start(dep):
            orig["start"](dep)
            self.started += 1
            self.started_at = time.perf_counter()
            if self.stop_when_started and self.started == AGGREGATE_SHARDS:
                raise _SetupDone

        def advance_to(dep, t):
            self.advances += 1
            return orig["advance_to"](dep, t)

        def send(dep, payload):
            self.sends += 1
            return orig["send"](dep, payload)

        for name, fn in (("__init__", init), ("start", start), ("advance_to", advance_to),
                         ("send", send)):
            setattr(cls, name, fn)
        return self

    def __exit__(self, *exc) -> bool:
        for name, fn in self._orig.items():
            setattr(AggregateDeployment, name, fn)
        return exc[0] is _SetupDone

    @property
    def barriers(self) -> int:
        """Barrier steps per shard."""
        return (self.advances - self.sends) // max(len(self.built), 1)


def aggregate_setup(seed: int) -> float:
    """Run ``run_sharded`` up to the moment every shard has started, and
    return that moment (``time.perf_counter()``).  Only the setup probe
    calls this; a timed repetition sets up inside ``run_sharded``."""
    scenario = aggregate_scenario(seed)
    with _CaptureDeployments(stop_when_started=True) as capture:
        scale_shard.run_sharded(scenario, AGGREGATE_SHARDS, inline=True)
    if capture.started != AGGREGATE_SHARDS:
        raise RuntimeError(f"run_sharded started {capture.started} shards, not {AGGREGATE_SHARDS}")
    return capture.started_at


def aggregate_rep(seed: int, scenario: ScaleScenario) -> Rep:
    with _CaptureDeployments() as capture:
        t0 = time.perf_counter()
        report = scale_shard.run_sharded(scenario, AGGREGATE_SHARDS, inline=True)
        t1 = time.perf_counter()
    shards = capture.built

    totals = report.totals
    population = sum(d["site_size"] for d in report.sites.values())
    failures_modeled = totals["modeled_recovery_failures"]
    outstanding = totals["outstanding"]
    unrecovered = failures_modeled + outstanding
    deliveries = population * scenario.n_packets - unrecovered
    recoveries = [
        (lat, count) for site in report.sites.values() for lat, count in site["samples"]
    ]

    failures = []
    if totals["modeled_losses"] != (
        totals["modeled_recoveries"] + failures_modeled + outstanding
    ):
        failures.append(
            "conservation: modeled_losses != recoveries + failures + outstanding "
            f"({totals['modeled_losses']} vs {totals['modeled_recoveries']} + "
            f"{failures_modeled} + {outstanding})"
        )
    if unrecovered:
        failures.append(f"{failures_modeled} modeled recovery failures, {outstanding} outstanding")
    if report.hub["sender_seq"] != scenario.n_packets:
        failures.append(f"sender reached seq {report.hub['sender_seq']}, not {scenario.n_packets}")

    # The hub is replicated in every shard: its stream (data, heartbeats)
    # crosses the source tail once per shard, while each shard's primary
    # unicasts repairs only to that shard's sites.  Count the stream once
    # and every shard's repairs.
    retrans = wire_size(
        RetransPacket(group=scenario.spec.group, seq=1, payload=b"x" * scenario.payload_size)
    )
    stream = []
    source_bytes = 0
    for dep in shards:
        served = dep.primary.stats["retrans_unicast"] + dep.primary.stats["retrans_multicast"]
        repairs = served * retrans
        stream.append(dep.source_site.tail_up.stats.bytes - repairs)
        source_bytes += repairs
    source_bytes += stream[0]
    if len(set(stream)) != 1:
        failures.append(f"hub stream differs across shards: {stream} bytes")

    net = [dep.network.stats for dep in shards]
    counters = {
        "engine.events": report.sim_events,
        "engine.peak_pending": max(dep.sim.peak_pending for dep in shards),
        "topology.multicasts": sum(n["multicast_sent"] for n in net),
        "topology.unicasts": sum(n["unicast_sent"] for n in net),
        "topology.delivered": sum(n["delivered"] for n in net),
        "topology.dropped": sum(n["dropped"] for n in net),
        "receiver.nacks_sent": totals["nacks_sent"],
        "logger.nacks_received": sum(
            lg.stats["nacks_received"] for dep in shards for lg in dep.site_loggers
        ) + report.hub["primary"]["nacks_received"],
        "logger.upstream_nacks": sum(
            lg.stats["upstream_nacks"] for dep in shards for lg in dep.site_loggers
        ),
        "logger.repairs_served": sum(
            lg.stats["retrans_unicast"] + lg.stats["retrans_multicast"]
            for dep in shards for lg in [*dep.site_loggers, dep.primary]
        ),
        "aggregate.modeled_recoveries": totals["modeled_recoveries"],
        "aggregate.recovery_failures": failures_modeled,
        "shard.barriers": capture.barriers,
    }
    return Rep(
        t0=t0,
        t1=t1,
        deliveries=deliveries,
        recoveries=recoveries,
        wan_nacks=report.hub["primary"]["nacks_received"],
        source_bytes=source_bytes,
        source_seconds=scenario.end_time - scenario.warmup,
        holes=totals["modeled_losses"],
        unrecovered=unrecovered,
        failures=failures,
        digest=scale_shard.protocol_digest(report)[:16],
        counters=counters,
    )


# -- live_loopback -------------------------------------------------------------

LIVE_RECEIVERS = 3
# Seeded DATA drops, stratified: exactly one drop in every block of this
# many original packets, at a seeded position within the block.  Drop
# counts per chunk are then fixed and only their positions vary by seed.
LIVE_RECEIVER_DROP_EVERY = 50  # 2% at each receiver
LIVE_SECONDARY_DROP_EVERY = 100  # 1% at the site secondary: NACKs to the primary
LIVE_WINDOW = 256  # packets in flight beyond the slowest receiver
LIVE_BURST = 32  # packets per publish_burst
LIVE_CHUNK = 4000  # packets per timed chunk (a multiple of both drop blocks)
LIVE_WARMUP = 4000  # packets sent and discarded before timing
LIVE_TAIL = 16  # lossless packets that expose any trailing holes
LIVE_DRAIN_TIMEOUT = 10.0
# Loggers keep the newest 8192 packets, far more than the window in
# flight: memory stays flat however long a run streams.
LIVE_LOG_PACKETS = 8192
# source_tail_kbps of a live chunk is its source bytes per packet at this
# many packets per second (the repair_train data rate), not per second
# of wall time: the loop is closed, so bytes per wall second would only
# follow how fast the program runs.
LIVE_NOMINAL_RATE = 20.0


class DroppingMachine:
    """Seeded receiver-side loss around one protocol machine.

    Drops one inbound DATA packet per block of ``every`` (see
    :data:`LIVE_RECEIVER_DROP_EVERY`) before the wrapped machine sees it,
    and counts the deliveries the machine makes.  Everything else is
    forwarded untouched, so the aio runtime carries the machine exactly
    as it would the bare one.
    """

    def __init__(self, inner, every: int, rng: random.Random, progress: asyncio.Event) -> None:
        self.inner = inner
        self.every = every
        self.dropping = True
        self.delivered = 0
        self._rng = rng
        self._progress = progress
        self._seen: int | None = None  # DATA packets counted after the first
        self._victim = rng.randrange(every)

    def handle(self, packet, src, now):
        # The first DATA packet always passes: it fixes the receiver's
        # join baseline, and a receiver that never saw seq 1 would not
        # count it as a hole.
        if type(packet) is DataPacket and self._seen is not None:
            position = self._seen % self.every
            self._seen += 1
            drop = self.dropping and position == self._victim
            if position == self.every - 1:
                self._victim = self._rng.randrange(self.every)
            if drop:
                return []
        elif type(packet) is DataPacket:
            self._seen = 0
        return self._count(self.inner.handle(packet, src, now))

    def poll(self, now):
        return self._count(self.inner.poll(now))

    def _count(self, actions):
        delivered = sum(1 for a in actions if type(a) is Deliver)
        if delivered:
            self.delivered += delivered
            self._progress.set()
        return actions

    def __getattr__(self, name):
        return getattr(self.inner, name)


class LiveState:
    """One AioCluster with drop wrappers, streaming on a fixed window."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cluster = AioCluster(
            "lbrmperf/live",
            LbrmConfig(logger=LoggerConfig(max_packets=LIVE_LOG_PACKETS)),
            n_receivers=LIVE_RECEIVERS,
            n_secondaries=1,
            bundling=True,
        )
        self.progress = asyncio.Event()
        self.wrappers: list[DroppingMachine] = []
        self.sent = 0
        self.source_bytes = 0
        # Per receiver: have[seq] == 1 once seq was delivered.
        self.have = [bytearray() for _ in range(LIVE_RECEIVERS)]

    async def start(self) -> None:
        cluster = self.cluster
        await cluster.start()
        for i, node in enumerate(cluster.receiver_nodes):
            wrapper = DroppingMachine(
                node.machines[0], LIVE_RECEIVER_DROP_EVERY,
                random.Random(f"loss:{self.seed}:rx{i}"), self.progress,
            )
            node.machines[0] = wrapper
            self.wrappers.append(wrapper)
        for i, node in enumerate(cluster.secondary_nodes):
            node.machines[0] = DroppingMachine(
                node.machines[0], LIVE_SECONDARY_DROP_EVERY,
                random.Random(f"loss:{self.seed}:secondary{i}"), asyncio.Event(),
            )

        def tally(action, now) -> None:
            self.source_bytes += wire_size(action.packet)

        cluster.sender_node.on_send = tally
        cluster.primary_node.on_send = tally

    def consume(self) -> list:
        """Take the receivers' deliveries and every node's events, as an
        application would: record delivered seqs, empty the delivery list
        and queue, and return the recoveries completed since the last
        call.  Memory then stays flat however many chunks a run streams
        (the sender alone notes one buffer release per packet)."""
        recoveries = []
        for node, have in zip(self.cluster.receiver_nodes, self.have):
            for d in node.delivered:
                if d.seq >= len(have):
                    have.extend(bytes(d.seq + 1 - len(have) + 4096))
                have[d.seq] = 1
            node.delivered.clear()
            while not node.delivery_queue.empty():
                node.delivery_queue.get_nowait()
            recoveries.extend(
                (e.latency, 1) for e in node.events if type(e) is RecoveryComplete
            )
        for node in self.cluster.nodes:
            node.events.clear()
        return recoveries

    def undelivered(self) -> int:
        """(receiver, seq) pairs of the stream so far never delivered."""
        return sum(
            self.sent - sum(have[1 : self.sent + 1]) for have in self.have
        )

    def receiver_rows(self):
        return zip(self.cluster.receivers, self.cluster.receiver_nodes, self.wrappers)

    async def stream(self, count: int) -> None:
        """Publish ``count`` packets, never more than the window ahead of
        the slowest receiver (closed loop)."""
        end = self.sent + count
        while self.sent < end:
            while self.sent - min(w.delivered for w in self.wrappers) > LIVE_WINDOW - LIVE_BURST:
                self.progress.clear()
                await asyncio.wait_for(self.progress.wait(), LIVE_DRAIN_TIMEOUT)
            n = min(LIVE_BURST, end - self.sent)
            await self.cluster.publish_burst(
                [_payload(self.seed, self.sent + k + 1) for k in range(n)]
            )
            self.sent += n

    async def drain(self) -> bool:
        """Stop dropping, expose trailing holes, and wait for completion."""
        for wrapper in self.wrappers:
            wrapper.dropping = False
        for node in self.cluster.secondary_nodes:
            node.machines[0].dropping = False
        await self.stream(LIVE_TAIL)
        deadline = time.perf_counter() + LIVE_DRAIN_TIMEOUT
        while time.perf_counter() < deadline:
            if all(
                w.delivered >= self.sent and not r.missing for r, _n, w in self.receiver_rows()
            ):
                return True
            await asyncio.sleep(0.01)
        return False


async def live_setup(seed: int) -> LiveState:
    state = LiveState(seed)
    await state.start()
    return state


def _live_counters(state: LiveState) -> dict:
    totals: dict = {}
    for node in state.cluster.nodes:
        for key, value in node.stats.items():
            totals[key] = totals.get(key, 0) + value
    loggers = [state.cluster.primary, *state.cluster.secondaries]
    totals["logger.nacks_received"] = sum(lg.stats["nacks_received"] for lg in loggers)
    totals["logger.upstream_nacks"] = sum(lg.stats["upstream_nacks"] for lg in loggers)
    totals["logger.repairs_served"] = sum(
        lg.stats["retrans_unicast"] + lg.stats["retrans_multicast"] for lg in loggers
    )
    totals["receiver.nacks_sent"] = sum(r.stats["nacks_sent"] for r in state.cluster.receivers)
    totals["primary.nacks_received"] = state.cluster.primary.stats["nacks_received"]
    totals["holes"] = sum(r.stats["losses_detected"] for r in state.cluster.receivers)
    totals["delivered"] = sum(w.delivered for w in state.wrappers)
    totals["source_bytes"] = state.source_bytes
    return totals


async def live_chunk(state: LiveState, count: int) -> Rep:
    """Time one chunk of the stream.  Recoveries are those completed
    during the chunk; completeness is checked once, by :func:`live_finish`."""
    state.consume()
    before = _live_counters(state)
    gc.collect()
    t0 = time.perf_counter()
    await state.stream(count)
    t1 = time.perf_counter()
    after = _live_counters(state)
    recoveries = state.consume()
    delta = {k: after[k] - before.get(k, 0) for k in after}
    return Rep(
        t0=t0,
        t1=t1,
        deliveries=delta["delivered"],
        recoveries=recoveries,
        wan_nacks=delta["primary.nacks_received"],
        source_bytes=delta["source_bytes"],
        source_seconds=count / LIVE_NOMINAL_RATE,
        holes=delta["holes"],
        unrecovered=0,
        counters={
            "aio.tx_datagrams": delta["tx_datagrams"],
            "aio.rx_datagrams": delta["rx_datagrams"],
            "aio.tx_packets": delta["tx_unicast"] + delta["tx_multicast"],
            "aio.tx_bundle_drops": delta["tx_bundle_drops"],
            "aio.socket_errors": delta["socket_errors"],
            "receiver.nacks_sent": delta["receiver.nacks_sent"],
            "logger.nacks_received": delta["logger.nacks_received"],
            "logger.upstream_nacks": delta["logger.upstream_nacks"],
            "logger.repairs_served": delta["logger.repairs_served"],
        },
    )


async def live_finish(state: LiveState) -> tuple[list, int]:
    """Drain, then check every receiver holds the complete stream.

    Returns the failed checks and the number of (receiver, seq) pairs
    never delivered.
    """
    failures = []
    if not await state.drain():
        failures.append(f"live stream incomplete {LIVE_DRAIN_TIMEOUT}s after the last packet")
    state.consume()
    undelivered = state.undelivered()
    if undelivered:
        failures.append(f"{undelivered} (receiver, seq) pairs never delivered")
    for receiver, node, _wrapper in state.receiver_rows():
        if receiver.missing:
            failures.append(f"{len(receiver.missing)} holes still open at {node.token}")
    return failures, undelivered


def sim_rep(work: "Workload", seed: int, before_timed=None) -> Rep:
    """One sim repetition from a fresh interpreter state.

    ``before_timed`` runs after setup, right before the timed region
    (the traced run zeroes its totals there).
    """
    _fresh_process_state()
    if work.kind == "train":
        state = train_setup(work.shape, seed)
        if before_timed is not None:
            before_timed()
        return train_rep(work.shape, seed, state)
    scenario = aggregate_scenario(seed)
    if before_timed is not None:
        before_timed()
    return aggregate_rep(seed, scenario)


# -- registry ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train", "aggregate" or "live"
    shape: TrainShape | None = None


WORKLOADS = {
    "repair_train": Workload("repair_train", "train", REPAIR_TRAIN),
    "tree_outage": Workload("tree_outage", "train", TREE_OUTAGE),
    "live_loopback": Workload("live_loopback", "live"),
    "aggregate_scale": Workload("aggregate_scale", "aggregate"),
}
