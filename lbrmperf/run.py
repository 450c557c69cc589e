#!/usr/bin/env python3
"""LBRM benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a source checkout)::

    python3 lbrmperf/run.py --workload repair_train --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is a separate run that wraps each layer's public functions
(see ``tracer.py``) and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
a detail object (sample counts, digest, checks).  Kept spans of a traced
run go to ``.lbrmperf_out/`` in the checkout.

``python3 lbrmperf/spec.py`` rewrites ``BENCHMARK.json`` from the
definitions in ``spec.py``.  See ``README.md`` for the workloads, the
layer-to-metric map and the noise decisions.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import statistics
import subprocess
import sys
import time

PROCESS_STARTED = time.time()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".lbrmperf_out")

# Setup probes per run: setup_s is their median.
SETUP_PROBES = 7
# Timed repetitions per run, at least (more while --seconds lasts).
MIN_REPS = 3
MIN_LIVE_CHUNKS = 6
# Reference loops timed before and after each live chunk (see clock.py).
LIVE_CALIBRATION_LOOPS = 16


def import_repro():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"lbrmperf: no repro sources under {src}")
    sys.path.insert(0, src)
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != src:
        raise SystemExit(f"lbrmperf: repro imported from {repro.__file__}, not {src}")
    return repro


# -- statistics ------------------------------------------------------------------


def weighted_percentile(samples: list, q: float) -> float:
    """Nearest-rank percentile of ``[(value, weight)]``."""
    ordered = sorted(samples)
    total = sum(w for _v, w in ordered)
    if total <= 0:
        raise ValueError("no samples")
    target = q * total
    running = 0
    for value, weight in ordered:
        running += weight
        if running >= target:
            return value
    return ordered[-1][0]


def beyond(samples: list, threshold: float) -> int:
    return sum(w for v, w in samples if v > threshold)


# -- setup probes ----------------------------------------------------------------


def probe_setup(workload: str, seed: int) -> None:
    """Child process body: import repro and set up under a calibrated
    clock, then report when the interpreter started and how long that took."""
    from lbrmperf.clock import CalibratedClock

    with CalibratedClock() as clock:
        a = time.perf_counter()
        import_repro()
        from lbrmperf import workloads as wl

        work = wl.WORKLOADS[workload]
        if work.kind == "train":
            wl.train_setup(work.shape, seed)
            b = time.perf_counter()
        elif work.kind == "aggregate":
            b = wl.aggregate_setup(seed)
        else:
            async def main() -> float:
                state = await wl.live_setup(seed)
                ready = time.perf_counter()
                await state.cluster.close()
                return ready

            b = asyncio.run(main())
    print(json.dumps({"started": PROCESS_STARTED, "setup": clock.calibrated(a, b)}), flush=True)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start to the first timed data packet, once
    per probe process; probes run one after another.

    Interpreter start-up (spawn to the first line of this file) counts in
    wall seconds, the import and build in calibrated seconds.  Building
    the clock's own reference data in between is not counted.
    """
    times = []
    for _ in range(SETUP_PROBES):
        spawned = time.time()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(probe["started"] - spawned + probe["setup"])
    return times


# -- measurement loops ----------------------------------------------------------


def sim_reps(work, seed: int, seconds: float, clock):
    """Warm-up repetition (discarded), then timed ones until ``seconds``,
    with the clock sampling on its timer."""
    from lbrmperf import workloads as wl

    with clock:
        warm = wl.sim_rep(work, seed)
        reps = []
        deadline = time.perf_counter() + seconds
        while len(reps) < MIN_REPS or time.perf_counter() < deadline:
            reps.append(wl.sim_rep(work, seed))
    return warm, reps


async def live_reps(seed: int, seconds: float, clock):
    """Warm-up chunk (discarded), then timed chunks until ``seconds``.
    The clock samples between chunks only, never inside the event loop."""
    from lbrmperf import workloads as wl

    state = await wl.live_setup(seed)
    try:
        warm = await wl.live_chunk(state, wl.LIVE_WARMUP)
        reps = []
        deadline = time.perf_counter() + seconds
        clock.sample(LIVE_CALIBRATION_LOOPS)
        while len(reps) < MIN_LIVE_CHUNKS or time.perf_counter() < deadline:
            reps.append(await wl.live_chunk(state, wl.LIVE_CHUNK))
            clock.sample(LIVE_CALIBRATION_LOOPS)
        failures, unrecovered = await wl.live_finish(state)
    finally:
        await state.cluster.close()
    return warm, reps, failures, unrecovered


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    from lbrmperf import workloads as wl
    from lbrmperf.clock import REFERENCE_BYTES, CalibratedClock

    work = wl.WORKLOADS[workload]
    setup = measure_setup(workload, seed)
    failures: list[str] = []
    clock = CalibratedClock()
    if work.kind == "live":
        warm, reps, failures, unrecovered = asyncio.run(live_reps(seed, seconds, clock))
    else:
        warm, reps = sim_reps(work, seed, seconds, clock)
    seconds_of = [clock.calibrated(rep.t0, rep.t1) for rep in reps]

    if work.kind == "live":
        # Wall-time latencies, rescaled by their chunk's speed like every
        # other live time.
        recoveries = [
            (latency * clock.speed(rep.t0, rep.t1), weight)
            for rep in reps for latency, weight in rep.recoveries
        ]
        holes = sum(rep.holes for rep in reps) + warm.holes
        wan_nacks = statistics.median(rep.wan_nacks for rep in reps)
        kbps = statistics.median(
            rep.source_bytes * 8 / 1000.0 / rep.source_seconds for rep in reps
        )
        digest = ""
    else:
        digests = {rep.digest for rep in [warm, *reps]}
        if len(digests) != 1:
            failures.append(f"repetitions of one seed disagree: digests {sorted(digests)}")
        for rep in [warm, *reps]:
            failures.extend(rep.failures)
        recoveries = warm.recoveries
        holes = warm.holes
        unrecovered = warm.unrecovered
        wan_nacks = warm.wan_nacks
        kbps = warm.source_bytes * 8 / 1000.0 / warm.source_seconds
        digest = warm.digest

    n_recoveries = sum(w for _v, w in recoveries)
    if n_recoveries < 1000:
        failures.append(f"only {n_recoveries} recoveries, need >= 1000")
    p50 = weighted_percentile(recoveries, 0.50) if recoveries else 0.0
    p99 = weighted_percentile(recoveries, 0.99) if recoveries else 0.0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "deliveries_per_s": (
            statistics.median(rep.deliveries / s for rep, s in zip(reps, seconds_of)), "1/s"
        ),
        "recovery_p50_ms": (p50 * 1000.0, "ms"),
        "recovery_p99_ms": (p99 * 1000.0, "ms"),
        "wan_nack_pkts": (wan_nacks, "count"),
        "source_tail_kbps": (kbps, "kbit/s"),
        # The clock's reference data is resident all run long: not the program's.
        "peak_rss_mb": (
            (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - REFERENCE_BYTES) / 2**20,
            "MB",
        ),
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "reps": len(reps),
        "rep_wall_s": [round(rep.wall_s, 4) for rep in reps],
        "rep_calibrated_s": [round(s, 4) for s in seconds_of],
        "deliveries_per_wall_s": statistics.median(rep.deliveries / rep.wall_s for rep in reps),
        "setup_probe_s": [round(t, 4) for t in setup],
        "recovery_samples": len(recoveries),
        "recovery_weight": n_recoveries,
        "recovery_beyond_p99": beyond(recoveries, p99),
        "holes_detected": holes,
        "unrecovered": unrecovered,
        "unrecovered_ratio": unrecovered / holes if holes else 0.0,
        "digest": digest,
        "failures": failures,
    }
    return {
        "correct": not failures and unrecovered == 0,
        "attempted": max(holes, 1),
        "failed": unrecovered,
        "metrics": metrics,
        "detail": detail,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        probe_setup(args.workload, args.seed)
        return 0

    import_repro()
    from lbrmperf import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    if args.trace:
        from lbrmperf import traced

        result = traced.per_layer(args.workload, args.seed, args.seconds, OUT_DIR)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)

    print(json.dumps(result.pop("detail"), sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    if __package__ in (None, ""):
        sys.path.insert(0, ROOT)
    sys.exit(main())
