"""The shared campaign runner: determinism of every preset, the engine
factory, and rejection of inputs that would make a run prove nothing."""

from __future__ import annotations

import json

import pytest

from repro.chaos.campaign import CHAOS, run_chaos_campaign
from repro.chaos.hierarchy import HIERARCHY
from repro.chaos.runner import make_engine, run_campaign
from repro.chaos.sweep import run_sweep_campaign
from repro.cli import main
from repro.simnet.engine import ReferenceSimulator, Simulator

PRESET_RUNS = {
    "chaos": lambda: run_chaos_campaign(7, tier="quick", engines=("fast",), runs=2),
    "hierarchy-chaos": lambda: run_campaign(HIERARCHY, 7, tier="quick", engines=("fast",), runs=2),
    "failover-sweep": lambda: run_sweep_campaign(5, tier="micro", engines=("fast",)),
}


@pytest.mark.parametrize("preset", sorted(PRESET_RUNS))
def test_same_seed_reports_are_byte_identical(preset):
    """The regression the loss-RNG audit protects: a reproducer seed must
    reproduce, byte for byte — violation reports included."""
    first = json.dumps(PRESET_RUNS[preset](), sort_keys=True, indent=2)
    second = json.dumps(PRESET_RUNS[preset](), sort_keys=True, indent=2)
    assert first == second


def test_engine_factory_builds_each_engine_and_its_recording_variant():
    assert type(make_engine("fast")) is Simulator
    assert type(make_engine("reference")) is ReferenceSimulator
    for engine, cls in (("fast", Simulator), ("reference", ReferenceSimulator)):
        sim = make_engine(engine, record=True)
        assert isinstance(sim, cls)
        sim.schedule(0.25, lambda: None)
        assert sim.points == {0.25}


def test_unknown_engine_rejected():
    with pytest.raises(ValueError, match="unknown engine 'wheel'"):
        make_engine("wheel")
    with pytest.raises(ValueError, match="unknown engine"):
        run_campaign(CHAOS, 0, engines=("wheel",), runs=1)
    with pytest.raises(ValueError, match="unknown engine"):
        run_sweep_campaign(0, tier="micro", engines=("wheel",))


def test_empty_engine_list_rejected():
    """No engine means no replay: the run must fail, not report green."""
    with pytest.raises(ValueError, match="at least one engine"):
        run_campaign(CHAOS, 0, engines=(), runs=1)
    with pytest.raises(ValueError, match="at least one engine"):
        run_sweep_campaign(0, tier="micro", engines=())


@pytest.mark.parametrize("runs", [0, -1])
def test_non_positive_runs_rejected(runs):
    with pytest.raises(ValueError, match="runs must be at least 1"):
        run_campaign(CHAOS, 0, runs=runs)
    with pytest.raises(ValueError, match="runs must be at least 1"):
        run_campaign(HIERARCHY, 0, runs=runs)


@pytest.mark.parametrize("max_points", [0, -1])
def test_non_positive_max_points_rejected(max_points):
    with pytest.raises(ValueError, match="max_points must be at least 1"):
        run_sweep_campaign(0, tier="micro", max_points=max_points)


@pytest.mark.parametrize("argv", [
    "chaos --runs 0",
    "hierarchy-chaos --runs -2",
    "failover-sweep --max-points 0",
    "failover-sweep --micro --max-points -1",
])
def test_cli_rejects_non_positive_counts(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err
