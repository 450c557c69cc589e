"""Seed, determinism and tracer tests for the benchmark itself.

Run from the checkout root: ``python3 -m pytest lbrmperf/tests -q``.
"""

from __future__ import annotations

import os
import time

import pytest

from lbrmperf import spec, traced, workloads as wl
from lbrmperf.clock import NOMINAL, SENSITIVITY, CalibratedClock
from lbrmperf.run import weighted_percentile
from lbrmperf.tracer import Tracer

DETERMINISTIC = ("digest", "wan_nacks", "source_bytes", "deliveries", "holes", "unrecovered")


def _deterministic(rep: wl.Rep) -> dict:
    out = {name: getattr(rep, name) for name in DETERMINISTIC}
    out["recoveries"] = sorted(rep.recoveries)
    return out


@pytest.mark.parametrize("workload", ["repair_train", "tree_outage", "aggregate_scale"])
def test_same_seed_repeats_exactly_and_seed_reaches_workload(workload):
    work = wl.WORKLOADS[workload]
    first = wl.sim_rep(work, 3)
    again = wl.sim_rep(work, 3)
    other = wl.sim_rep(work, 4)
    assert first.failures == [] and other.failures == []
    assert first.unrecovered == 0
    assert sum(w for _v, w in first.recoveries) >= 1000
    assert _deterministic(first) == _deterministic(again)
    assert first.digest != other.digest


def test_recovery_percentiles_are_not_degenerate():
    for workload in ("repair_train", "tree_outage"):
        rep = wl.sim_rep(wl.WORKLOADS[workload], 1)
        p50 = weighted_percentile(rep.recoveries, 0.5)
        p99 = weighted_percentile(rep.recoveries, 0.99)
        assert p50 < p99, workload


def test_repair_train_never_rescores():
    tracer = Tracer()
    tracer.install()
    try:
        rep = wl.sim_rep(wl.WORKLOADS["repair_train"], 1, before_timed=tracer.reset)
    finally:
        tracer.uninstall()
    assert rep.counters["hierarchy.rescores"] == 0
    assert tracer.span_calls()["TreeManager.rescore"] == 0
    assert tracer.span_calls()["SimNode.receive"] > 0


def _multicast_loopback_works() -> bool:
    try:
        from repro.aio.udp import make_multicast_recv_socket

        make_multicast_recv_socket("239.255.77.77", 0, "127.0.0.1").close()
    except OSError:
        return False
    return True


@pytest.mark.skipif(not _multicast_loopback_works(), reason="no loopback multicast")
def test_live_loopback_runs_no_engine_events_and_completes(tmp_path):
    result = traced.per_layer("live_loopback", 1, 0.5, str(tmp_path))
    assert result["detail"]["failures"] == []
    assert result["metrics"]["engine.events"][0] == 0
    assert result["metrics"]["packets.decodes"][0] > 0
    assert result["metrics"]["aio.rx_datagrams"][0] > 0
    assert os.path.exists(tmp_path / "spans-live_loopback-1.jsonl")


def test_tracer_wraps_names_bound_at_import_and_restores_them():
    import repro.aio.node as aio_node
    import repro.core.packets as packets
    import repro.simnet.topology as topology

    originals = (packets.encode, topology.encode, aio_node.decode_from, aio_node.encode_uncached)
    tracer = Tracer()
    tracer.install()
    try:
        assert topology.encode is packets.encode
        assert topology.encode is not originals[0]
        assert aio_node.decode_from is packets.decode_from
        assert aio_node.decode_from is not originals[2]
        assert aio_node.encode_uncached is not originals[3]
        topology.clear_wire_size_cache()
        packets.clear_codec_caches()
        topology.wire_size(packets.NackPacket(group="g", seqs=(1,)))
        assert tracer.span_calls()["encode"] == 1
        assert tracer.bytes_encoded > 0
    finally:
        tracer.uninstall()
    assert (packets.encode, topology.encode, aio_node.decode_from,
            aio_node.encode_uncached) == originals


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.install()
    try:
        from repro.simnet import DeploymentSpec, LbrmDeployment

        dep = LbrmDeployment(DeploymentSpec(n_sites=2, receivers_per_site=2))
        dep.start()
        tracer.reset()
        # Send from inside the engine so run_until is the only root span.
        dep.sim.schedule(dep.sim.now + 0.1, dep.send, b"x")
        dep.advance(1.0)
    finally:
        tracer.uninstall()
    engine = tracer.names.index("Simulator.run_until")
    assert 0.0 <= tracer.self_s[engine] <= tracer.total_s[engine]
    total_self = sum(tracer.self_s)
    assert total_self == pytest.approx(tracer.total_s[engine], rel=1e-6)


def test_calibrated_clock_excludes_reference_time_and_scales_by_speed():
    with CalibratedClock() as clock:
        a = time.perf_counter()
        while time.perf_counter() - a < 0.5:
            pass
        b = time.perf_counter()
    samples = len(clock.starts)
    assert samples >= 10
    program = clock.program_time(a, b)
    assert 0.0 < program < b - a
    assert clock.calibrated(a, b) == pytest.approx(program * clock.speed(a, b))
    mean_reference = NOMINAL / clock.speed(a, b) ** (1 / SENSITIVITY)
    assert min(clock.loop_s) <= mean_reference * (1 + 1e-9)
    assert mean_reference <= max(clock.loop_s) * (1 + 1e-9)


def test_clock_sampled_on_demand_leaves_the_interval_untouched():
    clock = CalibratedClock()
    clock.sample(4)
    a = time.perf_counter()
    while time.perf_counter() - a < 0.05:
        pass
    b = time.perf_counter()
    clock.sample(4)
    assert len(clock.starts) == 2
    assert clock.program_time(a, b) == b - a
    assert clock.speed(a, b) == pytest.approx((NOMINAL * 2 / sum(clock.loop_s)) ** SENSITIVITY)


def test_aggregate_setup_stops_after_the_last_shard_starts():
    from repro.scale import AggregateDeployment

    methods = dict(vars(AggregateDeployment))
    before = time.perf_counter()
    started = wl.aggregate_setup(3)
    assert before < started < time.perf_counter()
    assert dict(vars(AggregateDeployment)) == methods


def test_weighted_percentile():
    samples = [(1.0, 98), (5.0, 1), (9.0, 1)]
    assert weighted_percentile(samples, 0.5) == 1.0
    assert weighted_percentile(samples, 0.99) == 5.0
    assert weighted_percentile(samples, 1.0) == 9.0


def test_benchmark_json_matches_spec():
    with open(os.path.join(spec.ROOT, "BENCHMARK.json")) as fh:
        assert fh.read() == spec.render()
    assert set(traced.EXPECTED_SPANS) == {name for name, _why in spec.WORKLOADS}
    assert set(wl.WORKLOADS) == {name for name, _why in spec.WORKLOADS}
