"""Golden wire vectors: one pinned encoding per registered packet type.

The conformance suite proves the struct codecs agree with the
hand-written ``encode_body``/``decode_body`` spec, but an edit made to
both at once (a reordered ``WIRE`` and a matching spec change) would pass
it.  These bytes pin the format itself: any change to what a packet puts
on the wire must show up here as an edited vector.
"""

from __future__ import annotations

import pytest

from repro.baselines.senderreliable import PosAckDataPacket, PosAckPacket
from repro.baselines.srm import SrmRepairPacket, SrmRequestPacket, SrmSessionPacket
from repro.core import packets as P

# (sample packet, its encoding as hex).  Field values are distinct and
# mostly non-zero so a swapped or dropped field changes the bytes.
GOLDEN = [
    (P.DataPacket(group="dis/terrain", seq=0x0102030405060708, payload=b"state", epoch=9),
     "4c4201010b6469732f7465727261696e01020304050607080000000900057374617465"),
    (P.HeartbeatPacket(group="g", seq=17, hb_index=12, epoch=3),
     "4c420102016700000000000000110000000c00000003"),
    (P.NackPacket(group="g", seqs=(5, 2**64 - 1)),
     "4c420103016700020000000000000005ffffffffffffffff"),
    (P.RetransPacket(group="g", seq=42, payload=b"\x00\xff", epoch=1),
     "4c4201040167000000000000002a00000001000200ff"),
    (P.LogAckPacket(group="g", primary_seq=9, replica_seq=5, log_epoch=2),
     "4c42010501670000000000000009000000000000000500000002"),
    (P.AckerSelectPacket(group="g", epoch=4, p_ack=0.03125, k=10),
     "4c4201060167000000043fa00000000000000000000a"),
    (P.AckerResponsePacket(group="g", epoch=4),
     "4c420107016700000004"),
    (P.DataAckPacket(group="g", epoch=4, seq=7),
     "4c4201080167000000040000000000000007"),
    (P.ProbePacket(group="g", probe_id=1, p_ack=0.1),
     "4c4201090167000000013fb999999999999a"),
    (P.ProbeReplyPacket(group="g", probe_id=65536),
     "4c42010a016700010000"),
    (P.DiscoveryQueryPacket(group="g", ttl=16),
     "4c42010b01670010"),
    (P.DiscoveryReplyPacket(group="g", logger_addr="10.0.0.7:5000", level=1),
     "4c42010c016700010d31302e302e302e373a35303030"),
    (P.ReplUpdatePacket(group="g", seq=3, payload=b"abc", log_epoch=2, commit_seq=2),
     "4c42010d016700000000000000030000000200000000000000020003616263"),
    (P.ReplAckPacket(group="g", cum_seq=2**64 - 1, log_epoch=2, commit_seq=1),
     "4c42010e0167ffffffffffffffff000000020000000000000001"),
    (P.PrimaryQueryPacket(group="grüppe"),
     "4c42010f076772c3bc707065"),
    (P.PrimaryInfoPacket(group="g", primary_addr="10.0.0.1:4242"),
     "4c42011001670d31302e302e302e313a34323432"),
    (P.PromotePacket(group="g", from_seq=4, log_epoch=3, members="a:1,b:2"),
     "4c420111016700000000000000040000000307613a312c623a32"),
    (P.ReplStatusQueryPacket(group="g"),
     "4c4201120167"),
    (SrmSessionPacket(group="g", seq=12),
     "4c4201200167000000000000000c"),
    (SrmRequestPacket(group="g", seq=11),
     "4c4201210167000000000000000b"),
    (SrmRepairPacket(group="g", seq=11, payload=b"repair"),
     "4c4201220167000000000000000b0006726570616972"),
    (PosAckDataPacket(group="g", seq=3, payload=b"pos"),
     "4c420128016700000000000000030003706f73"),
    (PosAckPacket(group="g", cum_seq=3),
     "4c42012901670000000000000003"),
]

_IDS = [type(packet).__name__ for packet, _ in GOLDEN]


def test_golden_vectors_cover_every_registered_type():
    pinned = [type(packet).TYPE for packet, _ in GOLDEN]
    assert sorted(pinned) == sorted(P._REGISTRY), (
        "add one golden vector per registered packet type"
    )


@pytest.mark.parametrize(("packet", "hexwire"), GOLDEN, ids=_IDS)
def test_encoding_matches_golden_bytes(packet, hexwire):
    assert P.encode_uncached(packet).hex() == hexwire
    assert P.encode(packet).hex() == hexwire


@pytest.mark.parametrize(("packet", "hexwire"), GOLDEN, ids=_IDS)
def test_golden_bytes_decode_to_the_sample(packet, hexwire):
    wire = bytes.fromhex(hexwire)
    assert P.decode(wire) == packet
    assert P.decode_from(bytearray(wire)) == packet
