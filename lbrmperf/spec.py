#!/usr/bin/env python3
"""Metric and workload definitions; writes ``BENCHMARK.json``.

Run ``python3 lbrmperf/spec.py`` from the checkout root to regenerate
``BENCHMARK.json`` after changing a definition here (a test checks that
the committed file matches).
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

COMMAND = ["python3", "lbrmperf/run.py"]
PATHS = ["lbrmperf"]
RUN_SECONDS = 15

WORKLOADS = [
    ("repair_train",
     "50 sites x 20 receivers, flat loggers, 0.5% receiver loss and rotating site outages: "
     "LAN (site logger) and WAN (primary) recovery in one CDF"),
    ("tree_outage",
     "depth-3 makespan tree over 300 sites, 1.5 Mbit/s tails, outages of a third of the sites: "
     "TreeManager.rescore dominates the wall time"),
    ("live_loopback",
     "AioCluster on loopback UDP multicast, bundling on, seeded receiver-side drops: "
     "aio and the codec do the per-packet work, simnet none"),
    ("aggregate_scale",
     "200 sites x 500 modeled receivers via AggregateSiteReceiver, run_sharded with 2 inline "
     "shards: aggregate model, shard barriers and merge"),
]

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("deliveries_per_s", "1/s", "higher", 0.25),
    ("recovery_p50_ms", "ms", "lower", 0.25),
    ("recovery_p99_ms", "ms", "lower", 0.25),
    ("wan_nack_pkts", "count", "lower", 0.1),
    ("source_tail_kbps", "kbit/s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better)
PER_LAYER = [
    ("engine.events", "count", "lower"),
    ("engine.peak_pending", "count", "lower"),
    ("engine.tombstones", "count", "lower"),
    ("engine.self_s", "s", "lower"),
    ("node.receive_calls", "count", "lower"),
    ("node.poll_calls", "count", "lower"),
    ("node.execute_calls", "count", "lower"),
    ("node.self_s", "s", "lower"),
    ("topology.multicasts", "count", "lower"),
    ("topology.unicasts", "count", "lower"),
    ("topology.delivered", "count", "lower"),
    ("topology.dropped", "count", "lower"),
    ("topology.self_s", "s", "lower"),
    ("receiver.handle_calls", "count", "lower"),
    ("receiver.poll_calls", "count", "lower"),
    ("receiver.nacks_sent", "count", "lower"),
    ("receiver.self_s", "s", "lower"),
    ("logger.handle_calls", "count", "lower"),
    ("logger.repairs_served", "count", "lower"),
    ("logger.nack_collapse", "ratio", "lower"),
    ("logger.self_s", "s", "lower"),
    ("sender.calls", "count", "lower"),
    ("sender.self_s", "s", "lower"),
    ("hierarchy.rescores", "count", "lower"),
    ("hierarchy.nodes_scored", "count", "lower"),
    ("hierarchy.moves", "count", "lower"),
    ("hierarchy.rescore_self_s", "s", "lower"),
    ("packets.encodes", "count", "lower"),
    ("packets.decodes", "count", "lower"),
    ("packets.bytes_encoded", "bytes", "lower"),
    ("packets.self_s", "s", "lower"),
    ("aio.tx_datagrams", "count", "lower"),
    ("aio.rx_datagrams", "count", "lower"),
    ("aio.packets_per_datagram", "ratio", "higher"),
    ("aio.tx_bundle_drops", "count", "lower"),
    ("aio.socket_errors", "count", "lower"),
    ("aio.self_s", "s", "lower"),
    ("aggregate.handle_calls", "count", "lower"),
    ("aggregate.modeled_recoveries", "count", "higher"),
    ("aggregate.recovery_failures", "count", "lower"),
    ("aggregate.self_s", "s", "lower"),
    ("shard.barriers", "count", "lower"),
    ("shard.self_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, "w") as fh:
        fh.write(render())
    print(f"wrote {path}", file=sys.stderr)
