"""Signaling tests: wire round trips, attachment rules, priorities."""

import pytest

from repro.dcc.monitor import AnomalyKind
from repro.dcc.policing import PolicyKind
from repro.dcc.signaling import (
    AnomalySignal,
    CongestionSignal,
    PolicingSignal,
    attach_signal,
    extract_signals,
)
from repro.dnscore.edns import OptionCode
from repro.dnscore.message import Message
from repro.dnscore.name import Name
from repro.dnscore.rdata import RRType


def response():
    return Message.query(Name.from_text("x.example."), RRType.A).make_response()


class TestRoundtrips:
    def test_anomaly_signal(self):
        signal = AnomalySignal(
            reason=AnomalyKind.NXDOMAIN,
            suspicion_period=60.0,
            policy=PolicyKind.RATE_LIMIT,
            countdown=7,
        )
        decoded = AnomalySignal.decode(signal.encode())
        assert decoded == signal

    def test_policing_signal(self):
        signal = PolicingSignal(
            policy=PolicyKind.BLOCK, expires_in=12.5, reason=AnomalyKind.AMPLIFICATION
        )
        decoded = PolicingSignal.decode(signal.encode())
        assert decoded.policy == PolicyKind.BLOCK
        assert decoded.expires_in == pytest.approx(12.5)
        assert decoded.reason == AnomalyKind.AMPLIFICATION

    def test_policing_signal_without_reason(self):
        signal = PolicingSignal(policy=PolicyKind.RATE_LIMIT, expires_in=3.0)
        assert PolicingSignal.decode(signal.encode()).reason is None

    def test_congestion_signal(self):
        signal = CongestionSignal(dropped=17, allocated_rate=123.5)
        decoded = CongestionSignal.decode(signal.encode())
        assert decoded.dropped == 17
        assert decoded.allocated_rate == pytest.approx(123.5)

    def test_countdown_relay_copy(self):
        signal = AnomalySignal(AnomalyKind.NXDOMAIN, 60.0, PolicyKind.RATE_LIMIT, 9)
        relayed = signal.with_countdown(4)
        assert relayed.countdown == 4
        assert relayed.reason == signal.reason

    def test_wire_roundtrip_through_message_codec(self):
        from repro.dnscore.wire import decode_message, encode_message

        r = response()
        attach_signal(r, CongestionSignal(3, 250.0))
        decoded_msg = decode_message(encode_message(r))
        signals = extract_signals(decoded_msg)
        assert signals == [CongestionSignal(3, 250.0)]


class TestAttachment:
    def test_attach_and_extract(self):
        r = response()
        assert attach_signal(r, CongestionSignal(1, 10.0))
        signals = extract_signals(r, strip=True)
        assert len(signals) == 1
        assert not r.edns_options  # stripped: transparent to the resolver

    def test_extract_without_strip(self):
        r = response()
        attach_signal(r, CongestionSignal(1, 10.0))
        extract_signals(r, strip=False)
        assert any(option.code == int(OptionCode.DCC_CONGESTION) for option in r.edns_options)

    def test_one_signal_per_type(self):
        r = response()
        assert attach_signal(r, CongestionSignal(1, 10.0))
        assert not attach_signal(r, CongestionSignal(2, 20.0))  # existing wins
        signals = extract_signals(r)
        assert signals == [CongestionSignal(1, 10.0)]

    def test_prefer_existing_false_replaces(self):
        """Upstream-originated signals take precedence; replacement is
        used when a local signal must override (not the default)."""
        r = response()
        attach_signal(r, CongestionSignal(1, 10.0))
        assert attach_signal(r, CongestionSignal(2, 20.0), prefer_existing=False)
        assert extract_signals(r) == [CongestionSignal(2, 20.0)]

    def test_multiple_types_coexist(self):
        r = response()
        attach_signal(r, CongestionSignal(1, 10.0))
        attach_signal(r, AnomalySignal(AnomalyKind.NXDOMAIN, 60.0, PolicyKind.BLOCK, 5))
        attach_signal(r, PolicingSignal(PolicyKind.BLOCK, 9.0))
        assert len(extract_signals(r)) == 3

    def test_severity_ordering(self):
        """Extraction returns policing > anomaly > congestion
        (Section 3.3.4's processing priority)."""
        r = response()
        attach_signal(r, CongestionSignal(1, 10.0))
        attach_signal(r, AnomalySignal(AnomalyKind.NXDOMAIN, 60.0, PolicyKind.BLOCK, 5))
        attach_signal(r, PolicingSignal(PolicyKind.BLOCK, 9.0))
        signals = extract_signals(r)
        assert isinstance(signals[0], PolicingSignal)
        assert isinstance(signals[1], AnomalySignal)
        assert isinstance(signals[2], CongestionSignal)

    def test_non_signal_options_preserved(self):
        from repro.dnscore.edns import ClientAttribution

        r = response()
        r.edns_options.append(ClientAttribution("1.2.3.4", 0, 1).encode())
        attach_signal(r, CongestionSignal(1, 10.0))
        extract_signals(r, strip=True)
        assert len(r.edns_options) == 1  # attribution survived

    def test_strip_all_signals(self):
        r = response()
        attach_signal(r, CongestionSignal(1, 10.0))
        attach_signal(r, PolicingSignal(PolicyKind.BLOCK, 9.0))
        extract_signals(r)  # strips every signal option
        assert not r.edns_options


class TestMalformed:
    def test_short_payload_rejected(self):
        from repro.dnscore.edns import EdnsOption
        from repro.dnscore.errors import WireDecodeError

        with pytest.raises(WireDecodeError):
            AnomalySignal.decode(EdnsOption(OptionCode.DCC_ANOMALY, b"\x01"))
        with pytest.raises(WireDecodeError):
            PolicingSignal.decode(EdnsOption(OptionCode.DCC_POLICING, b""))
        with pytest.raises(WireDecodeError):
            CongestionSignal.decode(EdnsOption(OptionCode.DCC_CONGESTION, b"abc"))
