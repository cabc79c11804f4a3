"""Tests for the IDS network function."""

import pytest

from repro.dataplane.forwarder import DropPacket
from repro.dataplane.labels import FiveTuple, Packet
from repro.vnf.ids import IntrusionDetector


def packet(i=0, size=1000, payload=None, dst_port=80):
    return Packet(
        FiveTuple("10.0.0.1", "20.0.0.1", "tcp", 1000 + i, dst_port),
        size_bytes=size,
        payload=payload,
    )


class TestIntrusionDetector:
    def test_clean_traffic_passes(self):
        ids = IntrusionDetector(signatures=["EVIL"])
        ids(packet(payload="hello world"))
        assert ids.packets_dropped == 0
        assert not ids.alerts

    def test_signature_match_alerts_and_drops(self):
        ids = IntrusionDetector(signatures=["EVIL"])
        with pytest.raises(DropPacket):
            ids(packet(payload="xxEVILxx"))
        assert ids.alerts[0].kind == "signature"
        assert ids.packets_dropped == 1

    def test_detection_only_mode_alerts_without_dropping(self):
        ids = IntrusionDetector(signatures=["EVIL"], prevention=False)
        ids(packet(payload="xxEVILxx"))
        assert len(ids.alerts) == 1
        assert ids.packets_dropped == 0

    def test_port_scan_detected_and_source_blocked(self):
        ids = IntrusionDetector(scan_port_threshold=5)
        for port in range(5):
            ids(packet(dst_port=1000 + port))
        with pytest.raises(DropPacket):
            ids(packet(dst_port=2000))  # 6th distinct port
        assert ids.is_blocked("10.0.0.1")
        assert [(a.kind, a.source) for a in ids.alerts] == [("port-scan", "10.0.0.1")]
        # All further traffic from the source is dropped.
        with pytest.raises(DropPacket):
            ids(packet(dst_port=80))

    def test_same_port_does_not_trip_scan(self):
        ids = IntrusionDetector(scan_port_threshold=3)
        for i in range(20):
            ids(packet(i=i, dst_port=80))
        assert not ids.alerts
