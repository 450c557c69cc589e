"""The traced run: per-layer counts and self times for one workload.

Flow, per workload:

1. a warm-up repetition, untraced and discarded;
2. until ``--seconds`` is spent, pairs of one untraced and one traced
   repetition (live: chunk).  The tracer is installed for the traced one
   only.  Counts come from the first traced repetition (they repeat
   exactly on the sim workloads), self times are medians, and the
   tracing overhead is the median traced wall time minus the median
   untraced one.

Every span the workload should exercise must fire at least once
(:data:`EXPECTED_SPANS`); a silent span makes the run incorrect, which
is what catches a wrapper that missed a by-name import.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import time

from lbrmperf import workloads as wl
from lbrmperf.tracer import Tracer

__all__ = ["EXPECTED_SPANS", "per_layer"]

_SIM_CORE = [
    "Simulator.run_until",
    "SimNode.receive",
    "SimNode.poll",
    "SimNode.execute",
    "Network.send_unicast",
    "Network.send_multicast",
    "LogServer.handle",
    "LbrmSender.send",
    "LbrmSender.poll",
]

EXPECTED_SPANS: dict[str, list[str]] = {
    "repair_train": _SIM_CORE + ["LbrmReceiver.handle", "LbrmReceiver.poll", "encode"],
    "tree_outage": _SIM_CORE + ["LbrmReceiver.handle", "encode", "TreeManager.rescore"],
    "live_loopback": [
        "LbrmReceiver.handle", "LbrmReceiver.poll", "LogServer.handle", "LbrmSender.send",
        "LbrmSender.handle", "encode_uncached", "decode_from", "encode_bundle", "iter_bundle",
        "AioCluster.publish_burst",
    ],
    "aggregate_scale": _SIM_CORE + ["AggregateSiteReceiver.handle",
                                    "AggregateSiteReceiver.poll", "run_sharded"],
}

_CORE_SPANS = ("LbrmReceiver.handle", "LbrmReceiver.poll", "LogServer.handle", "LogServer.poll",
               "LbrmSender.send", "LbrmSender.handle", "LbrmSender.poll")
_CODEC_SPANS = ("encode", "encode_uncached", "decode", "decode_from", "encode_bundle",
                "iter_bundle")


def _layer_metrics(tracer: Tracer, rep: wl.Rep, wall: float, cpu: float | None) -> dict:
    """One traced repetition's per-layer numbers (name -> (value, unit))."""
    c = rep.counters
    calls = tracer.calls_of
    selfs = tracer.layer_self()
    nacks_in = c.get("logger.nacks_received", 0)
    tx_packets = c.get("aio.tx_packets", 0)
    tx_datagrams = c.get("aio.tx_datagrams", 0)
    engine_events = sum(sim.processed for sim in tracer.simulators.values())
    if cpu is None:
        aio_self = selfs["aio"]
    else:
        # The event loop's own work: process CPU over the chunk minus
        # what the protocol machines and the codec spent inside it.
        covered = tracer.self_of(*_CORE_SPANS, *_CODEC_SPANS)
        aio_self = max(cpu - covered, 0.0)
    return {
        "engine.events": (c.get("engine.events", engine_events), "count"),
        "engine.peak_pending": (c.get("engine.peak_pending", 0), "count"),
        "engine.tombstones": (tracer.max_tombstones, "count"),
        "engine.self_s": (selfs["engine"], "s"),
        "node.receive_calls": (calls("SimNode.receive"), "count"),
        "node.poll_calls": (calls("SimNode.poll"), "count"),
        "node.execute_calls": (calls("SimNode.execute"), "count"),
        "node.self_s": (selfs["node"], "s"),
        "topology.multicasts": (c.get("topology.multicasts", 0), "count"),
        "topology.unicasts": (c.get("topology.unicasts", 0), "count"),
        "topology.delivered": (c.get("topology.delivered", 0), "count"),
        "topology.dropped": (c.get("topology.dropped", 0), "count"),
        "topology.self_s": (selfs["topology"], "s"),
        "receiver.handle_calls": (calls("LbrmReceiver.handle"), "count"),
        "receiver.poll_calls": (calls("LbrmReceiver.poll"), "count"),
        "receiver.nacks_sent": (c.get("receiver.nacks_sent", 0), "count"),
        "receiver.self_s": (selfs["receiver"], "s"),
        "logger.handle_calls": (calls("LogServer.handle"), "count"),
        "logger.repairs_served": (c.get("logger.repairs_served", 0), "count"),
        "logger.nack_collapse": (
            c.get("logger.upstream_nacks", 0) / nacks_in if nacks_in else 0.0, "ratio"
        ),
        "logger.self_s": (selfs["logger"], "s"),
        "sender.calls": (
            calls("LbrmSender.send", "LbrmSender.handle", "LbrmSender.poll"), "count"
        ),
        "sender.self_s": (selfs["sender"], "s"),
        "hierarchy.rescores": (c.get("hierarchy.rescores", 0), "count"),
        "hierarchy.nodes_scored": (
            c.get("hierarchy.rescores", 0) * c.get("hierarchy.tree_nodes", 0), "count"
        ),
        "hierarchy.moves": (c.get("hierarchy.moves", 0), "count"),
        "hierarchy.rescore_self_s": (tracer.self_of("TreeManager.rescore"), "s"),
        "packets.encodes": (calls("encode_uncached"), "count"),
        "packets.decodes": (calls("decode", "decode_from"), "count"),
        "packets.bytes_encoded": (tracer.bytes_encoded, "bytes"),
        "packets.self_s": (selfs["packets"], "s"),
        "aio.tx_datagrams": (tx_datagrams, "count"),
        "aio.rx_datagrams": (c.get("aio.rx_datagrams", 0), "count"),
        "aio.packets_per_datagram": (tx_packets / tx_datagrams if tx_datagrams else 0.0, "ratio"),
        "aio.tx_bundle_drops": (c.get("aio.tx_bundle_drops", 0), "count"),
        "aio.socket_errors": (c.get("aio.socket_errors", 0), "count"),
        "aio.self_s": (aio_self, "s"),
        "aggregate.handle_calls": (calls("AggregateSiteReceiver.handle"), "count"),
        "aggregate.modeled_recoveries": (c.get("aggregate.modeled_recoveries", 0), "count"),
        "aggregate.recovery_failures": (c.get("aggregate.recovery_failures", 0), "count"),
        "aggregate.self_s": (selfs["aggregate"], "s"),
        "shard.barriers": (c.get("shard.barriers", 0), "count"),
        "shard.self_s": (selfs["shard"], "s"),
        "trace.traced_wall_s": (wall, "s"),
    }


def _combine(per_rep: list[dict], untraced_wall: float) -> dict:
    """Counts from the first traced repetition, times as medians."""
    out = {}
    for name, (value, unit) in per_rep[0].items():
        if unit == "s":
            value = statistics.median(m[name][0] for m in per_rep)
        out[name] = (value, unit)
    traced_wall = out["trace.traced_wall_s"][0]
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    out["trace.overhead_pct"] = (100.0 * (traced_wall - untraced_wall) / untraced_wall, "%")
    return out


def _run_sim(work, seed: int, seconds: float, tracer: Tracer):
    """Untraced and traced repetitions alternate, so drift in the
    machine's speed weighs on both sides of the overhead alike."""
    wl.sim_rep(work, seed)  # warm-up
    untraced, per_rep, failures = [], [], []
    deadline = time.perf_counter() + seconds
    while not per_rep or time.perf_counter() < deadline:
        untraced.append(wl.sim_rep(work, seed))
        tracer.install()
        try:
            rep = wl.sim_rep(work, seed, before_timed=tracer.reset)
        finally:
            tracer.uninstall()
        failures.extend(untraced[-1].failures + rep.failures)
        if rep.digest != untraced[0].digest:
            failures.append("tracing changed the protocol digest")
        per_rep.append(_layer_metrics(tracer, rep, rep.wall_s, None))
    untraced_wall = statistics.median(rep.wall_s for rep in untraced)
    return per_rep, untraced_wall, failures, untraced[0]


async def _run_live(seed: int, seconds: float, tracer: Tracer):
    """Untraced and traced chunks alternate on one cluster."""
    state = await wl.live_setup(seed)
    untraced, per_rep = [], []
    try:
        await wl.live_chunk(state, wl.LIVE_WARMUP)
        deadline = time.perf_counter() + seconds
        while len(per_rep) < 3 or time.perf_counter() < deadline:
            untraced.append(await wl.live_chunk(state, wl.LIVE_CHUNK))
            tracer.install()
            try:
                tracer.reset()
                cpu0 = time.process_time()
                rep = await wl.live_chunk(state, wl.LIVE_CHUNK)
                cpu = time.process_time() - cpu0
            finally:
                tracer.uninstall()
            per_rep.append(_layer_metrics(tracer, rep, rep.wall_s, cpu))
        failures, _undelivered = await wl.live_finish(state)
    finally:
        await state.cluster.close()
    untraced_wall = statistics.median(rep.wall_s for rep in untraced)
    return per_rep, untraced_wall, failures, untraced[0]


def per_layer(workload: str, seed: int, seconds: float, out_dir: str) -> dict:
    work = wl.WORKLOADS[workload]
    tracer = Tracer()
    if work.kind == "live":
        per_rep, untraced_wall, failures, base = asyncio.run(_run_live(seed, seconds, tracer))
    else:
        per_rep, untraced_wall, failures, base = _run_sim(work, seed, seconds, tracer)
    calls = tracer.span_calls()
    silent = [name for name in EXPECTED_SPANS[workload] if calls.get(name, 0) == 0]
    if silent:
        failures.append(f"spans that never fired: {silent}")
    metrics = _combine(per_rep, untraced_wall)
    tracer.write(
        os.path.join(out_dir, f"spans-{workload}-{seed}.jsonl"),
        {"workload": workload, "seed": seed},
    )
    return {
        "correct": not failures,
        "attempted": max(base.holes, 1),
        "failed": base.unrecovered,
        "metrics": metrics,
        "detail": {
            "workload": workload,
            "seed": seed,
            "traced_reps": len(per_rep),
            "span_calls_last_traced_rep": calls,
            "spans_kept": len(tracer.span_name),
            "spans_seen": tracer.spans_seen,
            "failures": failures,
        },
    }
