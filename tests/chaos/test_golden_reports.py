"""Golden pins: the chaos presets' ``--out`` reports, byte for byte.

Each hash is the SHA-256 of the JSON report file a preset writes for
the given command line.  The reports carry every case's schedule,
per-engine end-state digest and violation list, so any change to
sampling, seeding, replay, digesting or report layout moves a hash.
A hash may only change together with a CHANGES.md entry that says why
the report bytes changed.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cli import main

GOLDEN = [
    (
        "chaos --quick --seed 4",
        "CHAOS_seed4.json",
        0,
        "03d432f4d51d831e3e127a6fa7b1bb0f10657bd5bd190a0f69136b148b83d848",
    ),
    (
        "chaos --quick --seed 3 --engine fast --sabotage logger-retrans",
        "CHAOS_seed3.json",
        1,
        "81281a786ef70e4bedc4ff5255bb66744c513cbe3253eee675bf43e6b81f39d3",
    ),
    (
        "hierarchy-chaos --quick --seed 4",
        "HIERARCHY_CHAOS_seed4.json",
        0,
        "3f169b42a73195833f98f92512f261361e15099929b4cb5e7a91c3b76443e4ef",
    ),
    (
        "failover-sweep --micro --seed 0",
        "FAILOVER_SWEEP_seed0.json",
        0,
        "db07e89607e6e845d9845380d1c99d3d317c96fcffdbdda9f167bb01f056b35f",
    ),
    (
        "failover-sweep --micro --seed 0 --double",
        "FAILOVER_SWEEP_seed0.json",
        0,
        "8a6f82035b30ab6990b667b1763e383c1a8e5c1fee5422b61716edb75a5f11d4",
    ),
    (
        "failover-sweep --micro --seed 0 --readopt",
        "FAILOVER_SWEEP_seed0.json",
        0,
        "44615ccc53c25c4e4d56bfb8edf267319e2aa0bb527e592d88a1afa943b61bc3",
    ),
]


@pytest.mark.parametrize(
    "command, filename, exit_code, sha256", GOLDEN, ids=[g[0] for g in GOLDEN]
)
def test_report_bytes_match_golden_hash(tmp_path, capsys, command, filename, exit_code, sha256):
    assert main([*command.split(), "--out", str(tmp_path)]) == exit_code
    capsys.readouterr()
    digest = hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest()
    assert digest == sha256, f"report bytes changed for `repro {command}`"
